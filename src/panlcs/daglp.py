"""Longest-path dynamic programming on weighted DAGs.

This module is the solving core of lcs and of the seed-DAG and fglcs
reference constructions (fglcs itself fills the same longest-path table
row by row without arcs, and chaining scans its seeds without arcs, with
the same packed keys): the shared DAG type, one blocked scan over all
node pairs for the reference DAGs (:func:`_pair_arcs`), a deterministic
topological sort, one longest-path program, vertex or edge weighted, with
parent-based path reconstruction, and the reader of the debug DAG format
(:func:`parse_dag`).  Each reduction's arc builder lives with its problem.

Determinism contract: :func:`topo_sort` returns the lexicographically
smallest topological order (smallest ready node index first), and both
solvers break every tie toward the smallest node index -- both when picking
a parent among equally good in-neighbors and when picking the path end among
equally good nodes.  Repeated runs on the same DAG therefore reproduce the
same path, not just the same score.

A DAG holds its arcs in CSR form: per-source offsets into one column of
destinations, of the narrowest unsigned dtype that spans the node count
(two bytes per arc up to 65,535 nodes, where a pair of int64 endpoints
takes sixteen).  No source column is stored; the builders emit the arcs
grouped by source, and a source is expanded only for the few arcs a
longest-path step reads at once.

When every arc ascends (the product DAGs, and the seed DAG of seeds
listed in query order), index order is already topological: one
reduction over the destinations finds each node's smallest out-neighbor,
which proves it and marks where runs end.  The longest-path program
pushes run by run, a run being a maximal stretch of the order with no
arc inside (one query row of the lcs product DAG): its scores are final,
and one scatter-max over its out-arcs raises every successor at once.
The value scattered packs a score above its source's tie-break rank, so
that one pass yields both the best score and the parent; scores are
therefore bounded (:func:`_check_score_bound`).  Any other DAG is
relabelled by its topological order and solved the same way.
Python touches each node a few times and no arc; DAGs in the tens of
thousands of nodes and tens of millions of arcs stay workable, with
temporaries bounded by a block size.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from .graph import _strong_components, check_bytes, records, token_text

log = logging.getLogger(__name__)


class DagError(ValueError):
    """Structurally invalid DAG input (bad arc endpoints, negative weights)."""


class CycleError(ValueError):
    """The graph is not acyclic; ``arc`` names one back arc of a cycle."""

    def __init__(self, arc: tuple[int, int]):
        self.arc = arc
        super().__init__(f"cycle detected: back arc {arc[0]} -> {arc[1]}")


def _int_array(values: Any, shape_hint: str) -> np.ndarray:
    """A read-only int64 view of ``values``; the caller's own array, when
    it needs no conversion, is shared but stays writeable."""
    try:
        arr = np.asarray(values, dtype=np.int64).view()
    except OverflowError:
        raise DagError("weights and arc endpoints must fit in 64-bit signed integers") from None
    if arr.size == 0:
        arr = arr.reshape(0) if shape_hint == "1d" else arr.reshape(0, 2)
    arr.flags.writeable = False
    return arr


def _node_type(n: int) -> np.dtype:
    """The narrowest unsigned dtype that spans ``n``: the destination
    column of a DAG on ``n`` nodes."""
    return np.min_scalar_type(n)


@dataclass(frozen=True, init=False, eq=False)
class MatchDag:
    """Weighted DAG over opaque node payloads, its arcs held in CSR form.

    ``weights`` are per-node non-negative integers.  The out-arcs of node
    ``u`` end at ``dst[indptr[u]:indptr[u + 1]]``: ``indptr`` is int64 of
    length n + 1, ``dst`` is of the narrowest unsigned dtype that spans n,
    and ``arc_weights``, when present, are in the same order, for
    edge-weighted solving.  ``payloads``, when a builder passes them to
    :meth:`from_csr`, hold one entry per node for its own use: a sequence,
    or an array with one row per node (the matches of the lcs product
    DAG).  Acyclicity is not checked here; it is established by
    :func:`topo_sort` when the DAG is solved.

    ``MatchDag(weights, arcs)`` takes an (m, 2) array of node-index pairs
    and groups it by source with a stable sort, permuting ``arc_weights``
    alike; the arc builders hand their CSR arrays to
    :meth:`from_csr`.  :attr:`arcs` gives the pairs back, grouped by
    source.

    ``weights``, and the CSR arrays given to :meth:`from_csr`, are held
    without a copy where no conversion is needed, as read-only views: the
    caller must not mutate them afterwards.
    """

    weights: np.ndarray
    indptr: np.ndarray
    dst: np.ndarray
    payloads: Any = None
    arc_weights: np.ndarray | None = None
    # each node's smallest out-neighbor (n when it has none), and whether
    # every arc ascends (so that index order is topological)
    _first_dst: np.ndarray = field(default=None, repr=False)
    _forward: bool = field(default=False, repr=False)

    def __init__(self, weights: Any, arcs: Any, arc_weights: Any = None) -> None:
        weights, arcs = _int_array(weights, "1d"), _int_array(arcs, "2d")
        if arcs.ndim != 2 or (arcs.size and arcs.shape[1] != 2):
            raise DagError("arcs must be an (m, 2) array of node index pairs")
        n = len(weights)
        if arcs.size:
            lo, hi = int(arcs.min()), int(arcs.max())
            if lo < 0 or hi >= n:
                raise DagError(f"arc endpoint {lo if lo < 0 else hi} out of range")
        src = arcs[:, 0]
        order = np.argsort(src, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
        if arc_weights is not None:
            arc_weights = _int_array(arc_weights, "1d")
            if len(arc_weights) != len(arcs):
                raise DagError("arc_weights must match the arc count")
            if arc_weights.size and int(arc_weights.min()) < 0:
                raise DagError("arc weights must be non-negative")
            arc_weights = arc_weights[order]
            arc_weights.flags.writeable = False
        self._init(weights, indptr, arcs[order, 1].astype(_node_type(n)), None, arc_weights)

    @classmethod
    def from_csr(cls, weights: Any, indptr: np.ndarray, dst: np.ndarray, payloads: Any = None) -> "MatchDag":
        """The DAG whose out-arcs of node ``u`` end at ``dst[indptr[u]:indptr[u + 1]]``."""
        dag = cls.__new__(cls)
        dag._init(_int_array(weights, "1d"), _int_array(indptr, "1d"), dst, payloads, None)
        return dag

    def _init(self, weights: np.ndarray, indptr: np.ndarray, dst: np.ndarray, payloads: Any, arc_weights: Any):
        n = len(weights)
        if weights.size and int(weights.min()) < 0:
            raise DagError("node weights must be non-negative")
        if payloads is not None and len(payloads) != n:
            raise DagError("payloads must match the node count")
        if not (
            dst.dtype.kind == "u" and len(indptr) == n + 1 and indptr[0] == 0 and indptr[-1] == len(dst)
        ) or np.any(indptr[1:] < indptr[:-1]):
            raise DagError("CSR arcs need n + 1 ascending offsets from 0 to the arc count, unsigned destinations")
        if len(dst) and int(dst.max()) >= n:
            raise DagError(f"arc endpoint {int(dst.max())} out of range")
        has_out = indptr[1:] > indptr[:-1]
        first_dst = np.full(n, n, dtype=np.int64)
        first_dst[has_out] = np.minimum.reduceat(dst, indptr[:-1][has_out])
        dst = dst.view()
        dst.flags.writeable = first_dst.flags.writeable = False
        values = dict(weights=weights, indptr=indptr, dst=dst, payloads=payloads, arc_weights=arc_weights)
        values.update(_first_dst=first_dst, _forward=bool(np.all(first_dst > np.arange(n))))
        for name, value in values.items():
            object.__setattr__(self, name, value)

    @property
    def n_nodes(self) -> int:
        return len(self.weights)

    @property
    def n_arcs(self) -> int:
        return len(self.dst)

    @property
    def arcs(self) -> np.ndarray:
        """A fresh read-only (m, 2) int64 array of (source, destination)
        pairs, grouped by source: for inspection; the solvers read the CSR."""
        arcs = np.empty((self.n_arcs, 2), dtype=np.int64)
        arcs[:, 0] = np.repeat(np.arange(self.n_nodes), np.diff(self.indptr))
        arcs[:, 1] = self.dst
        arcs.flags.writeable = False
        return arcs


_BLOCK_CELLS = 4_000_000  # pair cells per block of a scan, or of the lcs list build: bounds its temporaries


def _pair_arcs(m: int, accept_block) -> tuple[np.ndarray, np.ndarray]:
    """Dense scan over the ``m * m`` ordered node pairs.  ``accept_block(lo,
    hi)`` returns the arc predicate for source rows ``lo:hi`` against every
    destination.  Returns CSR arcs ``(indptr, dst)``, each source's
    destinations ascending.

    Each block's destinations are kept at the node dtype, then joined;
    the running total is refused past :data:`~panlcs.graph.MAX_BYTES`
    before a block is kept."""
    block = max(1, _BLOCK_CELLS // max(m, 1))
    indptr = np.zeros(m + 1, dtype=np.int64)
    pieces = [np.empty(0, dtype=_node_type(m))]
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        flat = np.flatnonzero(accept_block(lo, hi))  # row r, column c at r * m + c; 2-d nonzero is slower
        indptr[lo + 1 : hi + 1] = indptr[lo] + np.searchsorted(flat, np.arange(1, hi - lo + 1) * m)
        need = int(indptr[hi]) * pieces[0].itemsize
        check_bytes(need, f"pair scan: {indptr[hi]} arcs over {m} nodes need {need} bytes")
        pieces.append(np.remainder(flat, m, out=flat).astype(pieces[0].dtype))
        del flat  # free the block's cell indices before the next block's
    return indptr, np.concatenate(pieces)


def topo_sort(dag: MatchDag) -> list[int]:
    """Topologically sort ``dag``, smallest ready node index first.

    Returns the lexicographically smallest topological order: index order
    itself when every arc ascends (one vectorized check), else the order
    of a Kahn loop over a heap of ready nodes.  Raises :class:`CycleError`
    naming one back arc if the graph has a cycle.
    """
    n = dag.n_nodes
    if dag._forward:
        return list(range(n))
    indptr, dst = dag.indptr, dag.dst
    indeg = np.bincount(dst, minlength=n)

    ready = [int(v) for v in np.flatnonzero(indeg == 0)]
    heapq.heapify(ready)
    out: list[int] = []
    while ready:
        u = heapq.heappop(ready)
        out.append(u)
        nbrs = dst[indptr[u] : indptr[u + 1]]
        if not len(nbrs):
            continue
        np.subtract.at(indeg, nbrs, 1)
        freed = nbrs[indeg[nbrs] == 0]
        for v in np.unique(freed):
            heapq.heappush(ready, int(v))
    if len(out) < n:
        raise CycleError(_find_back_arc(dag, indeg > 0))
    return out


def _find_back_arc(dag: MatchDag, residual: np.ndarray) -> tuple[int, int]:
    """The first arc, by source and then destination, of a cycle among the
    ``residual`` nodes (a mask of those a sort could not order): the first
    whose two ends share a strong component of the residual arcs."""
    arcs = dag.arcs
    arcs = arcs[residual[arcs[:, 0]] & residual[arcs[:, 1]]]
    comp, _ = _strong_components(dag.n_nodes, arcs.tolist())
    on_cycle = arcs[comp[arcs[:, 0]] == comp[arcs[:, 1]]].tolist()
    if not on_cycle:
        raise AssertionError("residual nodes of an aborted sort must contain a cycle")
    u, v = min(on_cycle)
    return u, v


@dataclass(frozen=True)
class LongestPathResult:
    """A solved longest path: its score, the node sequence realizing it, and
    the full ``dist``/``parent`` tables of the dynamic program."""

    score: int
    path: tuple[int, ...]
    dist: np.ndarray
    parent: np.ndarray

    def __post_init__(self) -> None:
        self.dist.flags.writeable = False
        self.parent.flags.writeable = False


def _reconstruct(parent: np.ndarray, end: int) -> tuple[int, ...]:
    path = [end]
    while parent[path[-1]] >= 0:
        path.append(int(parent[path[-1]]))
        assert len(path) <= len(parent), "parent pointers must not cycle"
    path.reverse()
    return tuple(path)


def _runs(first_dst: np.ndarray) -> Iterator[tuple[int, int]]:
    """Split index order into maximal runs ``[a, b)`` with no arc inside,
    given each node's smallest out-neighbor (``n`` when it has none) in a
    DAG whose arcs all ascend."""
    start, limit = 0, len(first_dst)
    for v, f in enumerate(first_dst.tolist()):
        if v >= limit:  # an arc from inside [start, v) lands on v
            yield start, v
            start, limit = v, f
        elif f < limit:
            limit = f
    yield start, len(first_dst)


def _check_score_bound(n: int, node_w: np.ndarray, arc_w: np.ndarray | None) -> None:
    """Refuse weights under which a path could score ``2**(62 - n.bit_length())``
    or more: the scores are int64, and :func:`_forward_dp` packs each one
    above ``n.bit_length()`` tie-break bits.  No path scores more than the
    total node weight plus ``n - 1`` times the largest arc weight."""
    limit = 1 << (62 - n.bit_length())
    top_arc = 0 if arc_w is None else int(arc_w.max(initial=0))
    # checked last: fewer than 2**bit_length node weights below the limit sum without wrapping
    fits = int(node_w.max(initial=0)) < limit and top_arc < limit
    if fits and int(node_w.sum()) + max(n - 1, 0) * top_arc < limit:
        return
    raise DagError(
        f"weights too large: on {n} nodes, the total node weight plus {max(n - 1, 0)} times "
        f"the largest arc weight must stay below 2**{62 - n.bit_length()}"
    )


def _forward_dp(
    dag: MatchDag, node_w: np.ndarray, arc_w: np.ndarray | None, label: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """``dist`` and ``parent`` of a DAG whose arcs all ascend, pushed run by
    run: a run's ``dist`` is final once every earlier run has pushed, and
    its out-arcs then raise each successor's best in-arc key together.
    ``arc_w``, if given, is in the order of ``dag.dst``.

    The key of an in-arc packs its value (source ``dist`` plus arc weight)
    above ``b = n.bit_length()`` low bits holding ``2**b - 1 - label`` of
    its source (``label`` defaults to the index).  One scatter-max of the
    keys thus yields both the best value and, among the in-neighbors that
    reach it, the one with the smallest label: the parent.  Keys stay below
    2**62 by :func:`_check_score_bound`."""
    n = dag.n_nodes
    b = n.bit_length()
    low = (1 << b) - 1
    indptr, dst = dag.indptr, dag.dst
    counts = np.diff(indptr)
    dist = node_w.astype(np.int64)  # always a fresh copy
    key = low - (np.arange(n) if label is None else label)  # a source's tie bits; its dist joins when final
    best = np.full(n, -1, dtype=np.int64)  # best in-arc key so far; -1: no in-arc
    runs = 0
    for lo_v, hi_v in _runs(dag._first_dst):
        runs += 1
        dist[lo_v:hi_v] += np.maximum(best[lo_v:hi_v] >> b, 0)
        key[lo_v:hi_v] += dist[lo_v:hi_v] << b
        lo, hi = indptr[lo_v], indptr[hi_v]
        if lo < hi:
            cand = np.repeat(key[lo_v:hi_v], counts[lo_v:hi_v])
            if arc_w is not None:
                cand += arc_w[lo:hi] << b
            np.maximum.at(best, dst[lo:hi].astype(np.intp), cand)  # intp indices: the faster scatter
    log.info("longest path: %d nodes, %d arcs, %d runs", n, dag.n_arcs, runs)
    return dist, np.where(best < 0, -1, low - (best & low))


def _longest_path(dag: MatchDag, node_w: np.ndarray, arc_w: np.ndarray | None) -> LongestPathResult:
    """The DP behind both solvers: a node scores its own weight plus the best
    in-neighbor score, plus the connecting arc's weight when ``arc_w`` is
    given.  A DAG whose arcs do not all ascend is relabelled by
    :func:`topo_sort` order, solved the same way and mapped back."""
    n = dag.n_nodes
    _check_score_bound(n, node_w, arc_w)
    order = topo_sort(dag)
    if dag._forward:
        dist, parent = _forward_dp(dag, node_w, arc_w, None)
    else:
        order = np.asarray(order, dtype=np.int64)
        rank = np.empty(n, dtype=dag.dst.dtype)
        rank[order] = np.arange(n)
        counts = np.diff(dag.indptr)[order]
        indptr = np.concatenate(([0], np.cumsum(counts)))
        # the out-arcs of order[0], then of order[1], ...: their positions in dag
        pick = np.repeat(dag.indptr[:-1][order] - indptr[:-1], counts) + np.arange(dag.n_arcs)
        relabelled = MatchDag.from_csr(node_w[order], indptr, rank[dag.dst[pick]])
        dist, parent = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
        arc_w = None if arc_w is None else arc_w[pick]
        dist[order], parent[order] = _forward_dp(relabelled, relabelled.weights, arc_w, order)
    if n == 0:
        return LongestPathResult(0, (), dist, parent)
    end = int(np.argmax(dist))  # first max: smallest index wins
    path = _reconstruct(parent, end)
    score = int(dist[end])
    steps = np.asarray(path, dtype=np.int64)
    taken_w = dist[steps[1:]] - node_w[steps[1:]] - dist[steps[:-1]]  # weight of each arc taken
    assert score == int(node_w[steps].sum() + taken_w.sum())
    assert arc_w is not None or not taken_w.any()
    return LongestPathResult(score, path, dist, parent)


def longest_path_edge(dag: MatchDag) -> LongestPathResult:
    """Maximum-total-arc-weight path; isolated nodes score 0.

    ``dag.arc_weights`` must be present whenever the DAG has arcs.
    """
    if dag.n_arcs and dag.arc_weights is None:
        raise DagError("edge-weighted solving requires arc weights")
    return _longest_path(dag, np.zeros(dag.n_nodes, dtype=np.int64), dag.arc_weights)


def longest_path_vertex(dag: MatchDag) -> LongestPathResult:
    """Maximum-total-node-weight path; a single node scores its own weight."""
    return _longest_path(dag, dag.weights, None)


def parse_dag(text: bytes | str) -> MatchDag:
    """Parse the debug DAG format: ``N <idx> <weight>`` node records and
    ``A <src> <dst> [weight]`` arc records (see :func:`~panlcs.graph.records`).

    Node indices must cover 0..n-1 exactly once.  Omitted arc weights
    default to 1.
    """
    node_weights: dict[int, int] = {}
    arcs: list[tuple[int, int, int]] = []
    for lineno, tokens in records(text):
        tag, fields = tokens[0], tokens[1:]
        if not ((tag == b"N" and len(fields) == 2) or (tag == b"A" and len(fields) in (2, 3))):
            raise DagError(f"line {lineno}: expected `N <idx> <weight>` or `A <src> <dst> [weight]`")
        values = [_parse_int(field, lineno) for field in fields]
        if tag == b"A":
            arcs.append((values[0], values[1], values[2] if len(values) == 3 else 1))
        elif values[0] in node_weights:
            raise DagError(f"line {lineno}: duplicate node index {values[0]}")
        else:
            node_weights[values[0]] = values[1]
    n = len(node_weights)
    if set(node_weights) != set(range(n)):
        raise DagError("node indices must cover 0..n-1 exactly once")
    return MatchDag(
        [node_weights[k] for k in range(n)],
        [arc[:2] for arc in arcs],
        arc_weights=[arc[2] for arc in arcs],
    )


def _parse_int(token: bytes, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise DagError(f"line {lineno}: invalid literal for int() with base 10: {token_text(token)!r}") from None
