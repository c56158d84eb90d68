"""Longest-path dynamic programming on weighted DAGs.

This module is the solving core every solver reduces to: the shared DAG
type, the product-DAG arc rule over ordered interval pairs (a dense pair
scan; character matches and seeds alike), a deterministic topological sort,
and one longest-path program, vertex or edge weighted, with parent-based
path reconstruction.

Determinism contract: :func:`topo_sort` returns the lexicographically
smallest topological order (smallest ready node index first), and both
solvers break every tie toward the smallest node index -- both when picking
a parent among equally good in-neighbors and when picking the path end among
equally good nodes.  Repeated runs on the same DAG therefore reproduce the
same path, not just the same score.

Adjacency is kept in CSR form over numpy arrays so the per-node work inside
the DP loop is vectorized; DAGs in the tens of thousands of nodes and tens
of millions of arcs stay workable.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Sequence

import numpy as np


class DagError(ValueError):
    """Structurally invalid DAG input (bad arc endpoints, negative weights)."""


class CycleError(ValueError):
    """The graph is not acyclic; ``arc`` names one back arc of a cycle."""

    def __init__(self, arc: tuple[int, int]):
        self.arc = arc
        super().__init__(f"cycle detected: back arc {arc[0]} -> {arc[1]}")


def _int_array(values: Any, shape_hint: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
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
    """

    weights: np.ndarray
    arcs: np.ndarray
    payloads: tuple[Any, ...] | None = None
    arc_weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _int_array(self.weights, "1d"))
        object.__setattr__(self, "arcs", _int_array(self.arcs, "2d"))
        if self.arcs.ndim != 2 or (self.arcs.size and self.arcs.shape[1] != 2):
            raise DagError("arcs must be an (m, 2) array of node index pairs")
        if self.weights.size and int(self.weights.min()) < 0:
            raise DagError("node weights must be non-negative")
        if self.payloads is not None and len(self.payloads) != self.n_nodes:
            raise DagError("payloads must match the node count")
        if self.arcs.size:
            lo, hi = int(self.arcs.min()), int(self.arcs.max())
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
        return cls(
            weights=np.asarray(weights, dtype=np.int64),
            arcs=np.asarray(pairs, dtype=np.int64).reshape(-1, 2),
            payloads=payloads,
            arc_weights=np.asarray(arc_weights, dtype=np.int64) if weighted else None,
        )

    @property
    def n_nodes(self) -> int:
        return len(self.weights)

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    def _csr(self, end: int) -> tuple[np.ndarray, np.ndarray]:
        """Arc order sorted by (``arcs[:, end]``, other endpoint) and its
        indptr over nodes."""
        order = np.lexsort((self.arcs[:, 1 - end], self.arcs[:, end]))
        counts = np.bincount(self.arcs[:, end], minlength=self.n_nodes)
        return np.concatenate([[0], np.cumsum(counts)]), order

    @cached_property
    def _out_csr(self) -> tuple[np.ndarray, np.ndarray]:
        return self._csr(0)

    @cached_property
    def _in_csr(self) -> tuple[np.ndarray, np.ndarray]:
        return self._csr(1)


def _pair_arcs(m: int, accept_block) -> np.ndarray:
    """Dense scan over the ``m * m`` ordered node pairs; ``accept_block``
    evaluates the arc predicate for a block of source rows against all
    destinations.  Arcs come out sorted by (source, destination)."""
    chunks: list[np.ndarray] = []
    block = max(1, int(32_000_000 // max(m, 1)))
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        rows, cols = np.nonzero(accept_block(lo, hi))
        if len(rows):
            chunks.append(np.stack([rows + lo, cols], axis=1))
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(chunks)


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
    holds across vertices.
    """

    def accept(lo: int, hi: int) -> np.ndarray:
        same = vert[lo:hi, None] == vert[None, :]
        graph_ok = np.where(
            same,
            label_end[lo:hi, None] < label_start[None, :],
            reach[vert[lo:hi, None], vert[None, :]],
        )
        return (q_end[lo:hi, None] < q_start[None, :]) & graph_ok

    return _pair_arcs(len(q_start), accept)


def topo_sort(dag: MatchDag) -> list[int]:
    """Topologically sort ``dag``, smallest ready node index first.

    Returns the lexicographically smallest topological order.  Raises
    :class:`CycleError` naming one back arc if the graph has a cycle.
    """
    n = dag.n_nodes
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
    path.reverse()
    return tuple(path)


def _longest_path(dag: MatchDag, node_w: np.ndarray, arc_w: np.ndarray | None) -> LongestPathResult:
    """The DP behind both solvers: a node scores its own weight plus the best
    in-neighbor score, plus the connecting arc's weight when ``arc_w`` is
    given.  Without ``arc_w`` no per-arc array is built."""
    order = topo_sort(dag)
    n = dag.n_nodes
    dist = node_w.astype(np.int64)  # always a fresh copy
    parent = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return LongestPathResult(0, (), dist, parent)
    indptr, arc_order = dag._in_csr
    src_sorted = dag.arcs[arc_order, 0]
    w_sorted = None if arc_w is None else arc_w[arc_order]
    taken_w = np.zeros(n, dtype=np.int64)  # weight of the arc into each node
    for v in order:
        lo, hi = indptr[v], indptr[v + 1]
        if lo == hi:
            continue
        cand = dist[src_sorted[lo:hi]]
        if w_sorted is not None:
            cand += w_sorted[lo:hi]
        k = int(np.argmax(cand))  # first max: smallest in-neighbor index wins
        dist[v] = cand[k] + node_w[v]
        parent[v] = src_sorted[lo + k]
        if w_sorted is not None:
            taken_w[v] = w_sorted[lo + k]
    end = int(np.argmax(dist))
    path = _reconstruct(parent, end)
    score = int(dist[end])
    assert score == int(node_w[list(path)].sum() + taken_w[list(path[1:])].sum())
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
