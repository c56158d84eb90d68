"""Longest-path dynamic programming on weighted DAGs.

This module is the solving core of lcs, chaining and the fglcs reference
construction (fglcs itself fills the same longest-path table row by row
without arcs): the shared DAG type, the product-DAG arc rule over ordered
interval pairs (character matches and seeds alike), a deterministic
topological sort, and one longest-path program, vertex or edge weighted,
with parent-based path reconstruction.

Determinism contract: :func:`topo_sort` returns the lexicographically
smallest topological order (smallest ready node index first), and both
solvers break every tie toward the smallest node index -- both when picking
a parent among equally good in-neighbors and when picking the path end among
equally good nodes.  Repeated runs on the same DAG therefore reproduce the
same path, not just the same score.

The product DAG of lcs, and the seed DAG of seeds listed in query order,
number their nodes in query order.  The out-arcs of a node are then a
suffix of one successor list shared by every node with its graph key, so
:func:`interval_arcs` copies them into one preallocated array, at a cost close
to writing the arcs; only seeds not in query order take a dense scan over
all node pairs.  On these DAGs every arc ascends, so index order is
already topological: the sort is one vectorized check, and the out-arcs come
grouped by source without a sort.  The longest-path program pushes run by
run, a run being a maximal stretch of the order with no arc inside (one
query row of the lcs product DAG): its scores are final, and one
scatter-max over its out-arcs raises every successor at once.  The value
scattered packs a score above its source's tie-break rank, so that one
pass yields both the best score and the parent; scores are therefore
bounded (:func:`_check_score_bound`).  Any other DAG is relabelled
by its topological order and solved the same way, so there is no per-node
Python loop; DAGs in the tens of thousands of nodes and tens of millions
of arcs stay workable, with temporaries bounded by a block size.

Arc arrays are built column-major (``arcs[:, 0]`` and ``arcs[:, 1]`` each
contiguous), since every pass over them reads or writes one column.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

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


@dataclass(frozen=True)
class MatchDag:
    """Weighted DAG over opaque node payloads.

    ``weights`` are per-node non-negative integers, ``arcs`` an (m, 2) array
    of ordered node-index pairs, and ``arc_weights`` an optional parallel
    array for edge-weighted solving.  Acyclicity is not checked here; it is
    established by :func:`topo_sort` when the DAG is solved.

    The builders of this module return column-major arcs (each column
    contiguous, as from ``np.empty((2, m)).T``); any layout is accepted.

    Int64 arrays are held without a copy, as read-only views: the caller
    must not mutate them afterwards.
    """

    weights: np.ndarray
    arcs: np.ndarray
    payloads: tuple[Any, ...] | None = None
    arc_weights: np.ndarray | None = None
    # whether the sources ascend, and whether every arc ascends (so that
    # index order is topological)
    _src_sorted: bool = field(init=False, repr=False, compare=False)
    _forward: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _int_array(self.weights, "1d"))
        object.__setattr__(self, "arcs", _int_array(self.arcs, "2d"))
        if self.arcs.ndim != 2 or (self.arcs.size and self.arcs.shape[1] != 2):
            raise DagError("arcs must be an (m, 2) array of node index pairs")
        if self.weights.size and int(self.weights.min()) < 0:
            raise DagError("node weights must be non-negative")
        if self.payloads is not None and len(self.payloads) != self.n_nodes:
            raise DagError("payloads must match the node count")
        src, dst = self.arcs[:, 0], self.arcs[:, 1]
        object.__setattr__(self, "_src_sorted", bool(np.all(src[:-1] <= src[1:])))
        object.__setattr__(self, "_forward", bool(np.all(src < dst)))
        if self.arcs.size:  # forward arcs span their smallest source to their largest destination
            lo = int(src[0]) if self._src_sorted else int(src.min())
            hi = int(dst.max())
            if not self._forward:
                lo, hi = min(lo, int(dst.min())), max(hi, int(src.max()))
            if lo < 0 or hi >= self.n_nodes:
                raise DagError(f"arc endpoint {lo if lo < 0 else hi} out of range")
        if self.arc_weights is not None:
            object.__setattr__(self, "arc_weights", _int_array(self.arc_weights, "1d"))
            if len(self.arc_weights) != self.n_arcs:
                raise DagError("arc_weights must match the arc count")
            if self.arc_weights.size and int(self.arc_weights.min()) < 0:
                raise DagError("arc weights must be non-negative")

    @classmethod
    def from_lists(
        cls,
        nodes: Sequence[tuple[Any, int]],
        arcs: Iterable[tuple] = (),
    ) -> "MatchDag":
        """Convenience constructor from (payload, weight) pairs and arc
        tuples, each ``(src, dst)`` or ``(src, dst, weight)``."""
        payloads = tuple(p for p, _ in nodes)
        weights = [w for _, w in nodes]
        pairs: list[tuple[int, int]] = []
        arc_weights: list[int] = []
        weighted = None
        for arc in arcs:
            if len(arc) == 2:
                now = False
            elif len(arc) == 3:
                now = True
            else:
                raise DagError(f"arc tuple {arc!r} must have 2 or 3 entries")
            if weighted is None:
                weighted = now
            elif weighted != now:
                raise DagError("either all arcs or no arcs may carry weights")
            pairs.append((arc[0], arc[1]))
            if now:
                arc_weights.append(arc[2])
        return cls(weights=weights, arcs=pairs, payloads=payloads, arc_weights=arc_weights if weighted else None)

    @property
    def n_nodes(self) -> int:
        return len(self.weights)

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    @cached_property
    def _out_csr(self) -> tuple[np.ndarray, np.ndarray | slice]:
        """Indptr over source nodes and the arc order grouped by ascending
        source (a stable sort); the order is ``slice(None)`` when the arcs
        already are, as :func:`interval_arcs` emits them."""
        src = self.arcs[:, 0]
        order = slice(None) if self._src_sorted else np.argsort(src, kind="stable")
        return np.searchsorted(src[order], np.arange(self.n_nodes + 1)), order


_BLOCK_CELLS = 4_000_000  # pair cells per block of a scan or list build: bounds its temporaries


def _arc_block() -> int:
    """Arcs per block of an arc copy: its few int64 temporaries stay
    cache-sized, and add about 2 MB to the peak beside the arcs."""
    return max(1, _BLOCK_CELLS // 64)


def _column_major(m: int) -> np.ndarray:
    """An uninitialized (m, 2) int64 arc array whose columns are contiguous."""
    return np.empty((2, m), dtype=np.int64).T


def _pair_arcs(m: int, accept_block) -> np.ndarray:
    """Dense scan over the ``m * m`` ordered node pairs.  ``accept_block(lo,
    hi)`` returns the arc predicate for source rows ``lo:hi`` against every
    destination.  Arcs come out sorted by (source, destination).

    Each block's hits are kept as flat cell indices in the narrowest type
    that spans a block (a quarter of their arcs' bytes at most), then
    split into one preallocated arc array."""
    block = max(1, _BLOCK_CELLS // max(m, 1))
    cell_type = np.min_scalar_type(block * m)
    hits = []
    for lo in range(0, m, block):
        mask = accept_block(lo, min(lo + block, m))
        hits.append(np.flatnonzero(mask).astype(cell_type))  # 2-d nonzero is slower
        del mask  # free the block's cells before the next block's
    arcs = _column_major(sum(map(len, hits)))
    end = 0
    for k, lo in enumerate(range(0, m, block)):
        flat, hits[k] = hits[k], None
        rows, cols = arcs[end : end + len(flat), 0], arcs[end : end + len(flat), 1]
        np.divmod(flat, m, out=(rows, cols))
        rows += lo
        end += len(flat)
    return arcs


def _distinct_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct pairs of non-negative ``(a, b)``, in ascending order,
    as two arrays, and each input position's index among them.  The pairs
    are uniqued as one combined key, which fits in int64 for the vertex
    indices and label offsets this module pairs."""
    span = int(b.max(initial=0)) + 1
    keys, inverse = np.unique(a * span + b, return_inverse=True)
    return keys // span, keys % span, inverse


def _precedes(
    x_vert: np.ndarray, x_label: np.ndarray, y_vert: np.ndarray, y_label: np.ndarray, reach: np.ndarray
) -> np.ndarray:
    """The graph side of the arc rule between source keys (``vert``,
    ``label_end``) and destination keys (``vert``, ``label_start``)."""
    return np.where(
        x_vert[:, None] == y_vert[None, :],
        x_label[:, None] < y_label[None, :],
        reach[x_vert[:, None], y_vert[None, :]],
    )


def interval_arcs(
    q_start: np.ndarray,
    q_end: np.ndarray,
    vert: np.ndarray,
    label_start: np.ndarray,
    label_end: np.ndarray,
    reach: np.ndarray,
) -> np.ndarray:
    """Arcs between ordered interval pairs: the product-DAG arc rule.

    Node ``x`` pins the inclusive query interval ``[q_start, q_end]`` to the
    label interval ``[label_start, label_end]`` of vertex ``vert``; a
    character match is the length-one case.  ``x -> y`` is an arc when
    ``x`` ends before ``y`` starts on the query and, on the graph, also
    before it within one shared vertex, or ``reach[vert[x], vert[y]]``
    holds across vertices.  Arcs come out sorted by (source, destination).

    The graph side depends only on (``vert``, ``label_end``) of ``x`` and
    (``vert``, ``label_start``) of ``y``.  When ``q_start`` ascends
    (character matches, seeds in query order), the out-arcs of ``x`` are
    the suffix, from the first node starting after ``q_end[x]``, of one
    successor list per source key, so the arcs are copied from those lists
    (:func:`_successor_arcs`).  Otherwise a dense scan over all pairs
    gathers the graph side from a table over the distinct keys.
    """
    if np.all(q_start[:-1] <= q_start[1:]):
        return _successor_arcs(q_start, q_end, vert, label_start, label_end, reach)
    y_vert, y_label, y_key = _distinct_pairs(vert, label_start)

    def accept(lo: int, hi: int) -> np.ndarray:
        x_vert, x_label, x_key = _distinct_pairs(vert[lo:hi], label_end[lo:hi])
        graph_ok = _precedes(x_vert, x_label, y_vert, y_label, reach)[:, y_key][x_key]
        return (q_end[lo:hi, None] < q_start[None, :]) & graph_ok

    return _pair_arcs(len(q_start), accept)


def _successor_arcs(
    q_start: np.ndarray,
    q_end: np.ndarray,
    vert: np.ndarray,
    label_start: np.ndarray,
    label_end: np.ndarray,
    reach: np.ndarray,
) -> np.ndarray:
    """:func:`interval_arcs` for an ascending ``q_start``.

    The successor list of a source key holds, in index order, the nodes
    whose key it precedes on the graph, from the earliest ``first`` among
    its sources on; ``first[x]`` is the first node starting after
    ``q_end[x]``.  The lists cost keys x nodes cells, built a block of keys
    at a time: a key's row of the precedence table with its prefix before
    that earliest ``first`` cleared.  Each source's arcs are then counted
    and copied, a block of arcs at a time, into one preallocated array.
    """
    m = len(q_start)
    first = np.searchsorted(q_start, q_end, "right")
    x_vert, x_label, x_key = _distinct_pairs(vert, label_end)
    y_vert, y_label, y_key = _distinct_pairs(vert, label_start)
    n_keys = len(x_vert)
    key_first = np.full(n_keys, m, dtype=np.int64)
    np.minimum.at(key_first, x_key, first)
    by_key = np.argsort(x_key, kind="stable")
    key_ptr = np.searchsorted(x_key[by_key], np.arange(n_keys + 1))

    # start/stop: each source's arc suffix within the concatenated lists
    start, stop = np.empty(m, dtype=np.int64), np.empty(m, dtype=np.int64)
    node_type = np.min_scalar_type(m)  # list entries are node indices: the lists stay small beside the arcs
    lists: list[np.ndarray] = [np.empty(0, dtype=node_type)]
    base = 0
    rows = max(1, _BLOCK_CELLS // max(m, 1))
    for ka in range(0, n_keys, rows):
        kb = min(ka + rows, n_keys)
        col = int(key_first[ka:kb].min())
        width = m - col
        mask = _precedes(x_vert[ka:kb], x_label[ka:kb], y_vert, y_label, reach)[:, y_key[col:]]
        for r, f in enumerate(key_first[ka:kb].tolist()):
            mask[r, : f - col] = False
        flat = np.flatnonzero(mask)  # key row r, node col + c at r * width + c
        del mask
        xs = by_key[key_ptr[ka] : key_ptr[kb]]
        row = x_key[xs] - ka
        start[xs] = base + np.searchsorted(flat, row * width + first[xs] - col)
        stop[xs] = base + np.searchsorted(flat, (row + 1) * width)
        flat %= max(width, 1)
        flat += col
        lists.append(flat.astype(node_type))
        base += len(flat)
    succ = np.concatenate(lists)
    del lists

    counts = stop - start
    offsets = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    arcs = _column_major(int(offsets[-1]))
    block, a = _arc_block(), 0
    while a < m:  # sources a:b hold at most a block of arcs, or a lone source more
        b = max(a + 1, int(np.searchsorted(offsets, offsets[a] + block, "right")) - 1)
        lo, hi = int(offsets[a]), int(offsets[b])
        if lo < hi:
            c = counts[a:b]
            arcs[lo:hi, 0] = np.repeat(np.arange(a, b), c)
            pick = np.repeat(start[a:b] - (offsets[a:b] - lo), c)
            pick += np.arange(hi - lo)
            arcs[lo:hi, 1] = succ[pick]
        a = b
    return arcs


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
    indeg = np.bincount(dag.arcs[:, 1], minlength=n).astype(np.int64)
    indptr, order = dag._out_csr
    dst_sorted = dag.arcs[order, 1]

    ready = [int(v) for v in np.flatnonzero(indeg == 0)]
    heapq.heapify(ready)
    out: list[int] = []
    while ready:
        u = heapq.heappop(ready)
        out.append(u)
        nbrs = dst_sorted[indptr[u] : indptr[u + 1]]
        if not len(nbrs):
            continue
        np.subtract.at(indeg, nbrs, 1)
        freed = nbrs[indeg[nbrs] == 0]
        for v in np.unique(freed):
            heapq.heappush(ready, int(v))
    if len(out) < n:
        raise CycleError(_find_back_arc(dag, set(range(n)) - set(out)))
    return out


def _find_back_arc(dag: MatchDag, residual: set[int]) -> tuple[int, int]:
    """Locate one arc of a cycle within the unsortable residual nodes."""
    adj: dict[int, list[int]] = {v: [] for v in residual}
    for u, v in dag.arcs:
        u, v = int(u), int(v)
        if u in adj and v in adj:
            adj[u].append(v)
    color: dict[int, int] = {}  # 1 = on stack, 2 = done
    for root in sorted(residual):
        if color.get(root):
            continue
        stack: list[tuple[int, Iterable[int]]] = [(root, iter(sorted(adj[root])))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color.get(nxt) == 1:
                    return (node, nxt)
                if not color.get(nxt):
                    color[nxt] = 1
                    stack.append((nxt, iter(sorted(adj[nxt]))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    raise AssertionError("residual nodes of an aborted sort must contain a cycle")


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
        else:
            limit = min(limit, f)
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

    The key of an in-arc packs its value (source ``dist`` plus arc weight)
    above ``b = n.bit_length()`` low bits holding ``2**b - 1 - label`` of
    its source (``label`` defaults to the index).  One scatter-max of the
    keys thus yields both the best value and, among the in-neighbors that
    reach it, the one with the smallest label: the parent.  Keys stay below
    2**62 by :func:`_check_score_bound`."""
    n = dag.n_nodes
    b = n.bit_length()
    low = (1 << b) - 1
    indptr, pick = dag._out_csr
    src, dst = dag.arcs[pick, 0], dag.arcs[pick, 1]
    arc_key = None if arc_w is None else arc_w[pick] << b
    has_out = indptr[1:] > indptr[:-1]
    first_dst = np.full(n, n, dtype=np.int64)
    first_dst[has_out] = np.minimum.reduceat(dst, indptr[:-1][has_out])

    dist = node_w.astype(np.int64)  # always a fresh copy
    key = low - (np.arange(n) if label is None else label)  # a source's tie bits; its dist joins when final
    best = np.full(n, -1, dtype=np.int64)  # best in-arc key so far; -1: no in-arc
    runs = 0
    for lo_v, hi_v in _runs(first_dst):
        runs += 1
        dist[lo_v:hi_v] += np.maximum(best[lo_v:hi_v] >> b, 0)
        key[lo_v:hi_v] += dist[lo_v:hi_v] << b
        lo, hi = indptr[lo_v], indptr[hi_v]
        if lo < hi:
            cand = key[src[lo:hi]]
            if arc_key is not None:
                cand += arc_key[lo:hi]
            np.maximum.at(best, dst[lo:hi], cand)
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
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        arcs = _column_major(dag.n_arcs)
        arcs[:, 0], arcs[:, 1] = rank[dag.arcs[:, 0]], rank[dag.arcs[:, 1]]
        relabelled = MatchDag(weights=node_w[order], arcs=arcs)
        dist, parent = np.empty_like(rank), np.empty_like(rank)
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
    """Parse the debug DAG format: ``N <idx> <weight>`` node lines and
    ``A <src> <dst> [weight]`` arc lines.

    Node indices must cover 0..n-1 exactly once.  Omitted arc weights
    default to 1.
    """
    if isinstance(text, bytes):
        text = text.decode("latin-1")
    node_weights: dict[int, int] = {}
    arcs: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            if tokens[0] == "N" and len(tokens) == 3:
                idx, weight = int(tokens[1]), int(tokens[2])
                if idx in node_weights:
                    raise DagError(f"line {lineno}: duplicate node index {idx}")
                node_weights[idx] = weight
            elif tokens[0] == "A" and len(tokens) in (3, 4):
                w = int(tokens[3]) if len(tokens) == 4 else 1
                arcs.append((int(tokens[1]), int(tokens[2]), w))
            else:
                raise DagError(f"line {lineno}: expected `N <idx> <weight>` or `A <src> <dst> [weight]`")
        except ValueError as exc:
            raise DagError(f"line {lineno}: {exc}") from None
    n = len(node_weights)
    if set(node_weights) != set(range(n)):
        raise DagError("node indices must cover 0..n-1 exactly once")
    return MatchDag.from_lists(
        nodes=[(None, node_weights[k]) for k in range(n)],
        arcs=arcs,
    )
