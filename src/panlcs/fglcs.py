"""Gap-bounded sequence-to-graph common subsequence solving.

Two per-step bounds apply: consecutive matched query positions may differ by
at most ``k1``, and the matched graph characters may be at most ``k2`` apart.
The graph-side distance is the offset difference within one vertex, and
otherwise the minimum arc count between the two characters in the
character-split graph (a bounded-gap connection along some path exists
exactly when the shortest one qualifies).

The paper's reduction is a product DAG over the character matches, with an
arc wherever both bounds hold; :func:`build_gap_match_graph` builds it (a
dense pair scan over a dense :func:`~panlcs.graph.char_distances` matrix)
and stays as the reference construction.  :func:`solve_fglcs_sg` computes
that DAG's longest-path table directly instead, one query row at a time:

* cell ``(j, c)`` of the table, for query position ``j`` and character node
  ``c``, holds the longest chain ending by matching ``j`` to ``c`` (0 where
  the characters differ);
* a row is ``1 +`` the per-character maximum, over the predecessor
  relation, of the maxima of the previous ``k1`` rows (a running maximum
  when ``k1`` is unbounded);
* with finite ``k2`` the predecessors of ``c`` are the characters whose
  breadth-first ball of radius ``k2`` holds ``c``
  (:meth:`~panlcs.graph.CharGraph.ball_pairs`), minus the characters of
  the same vertex at the same or a later offset (reached around a cycle);
  with unbounded ``k2`` they are the earlier offsets of the same vertex and
  every character of another vertex that reaches this one.

Walking back from the first row-major maximum to the first row-major
predecessor cell one lower reproduces the product DAG's smallest-index
tie-break, so the emitted alignment is the one the reference construction
gives.  Cost: O(|Q| * (N + ball pairs)) time, or O(|Q| * (N + V^2)) with
unbounded ``k2``, and a |Q| x N table of the narrowest sufficient integer
type, for N label characters and V vertices.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .daglp import MatchDag, _pair_arcs
from .graph import CharGraph, PangenomeGraph, build_char_graph, precedes, reachability
from .lcs import Alignment, MatchPoint, _match_dag, alignment_from_points, match_points

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GapParams:
    """Per-step gap bounds; ``None`` means unbounded on that side."""

    k1: int | None
    k2: int | None

    def __post_init__(self) -> None:
        for name, value in (("k1", self.k1), ("k2", self.k2)):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be a positive integer or unbounded, got {value}")

    @staticmethod
    def parse_bound(text: str) -> int | None:
        """Parse a CLI-style bound: an integer or ``inf`` for unbounded."""
        if text.strip().lower() in ("inf", "infinity"):
            return None
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"gap bound must be an integer or 'inf', got {text!r}") from None

    @classmethod
    def unbounded(cls) -> "GapParams":
        return cls(None, None)

    @property
    def k1_limit(self) -> float:
        return np.inf if self.k1 is None else self.k1

    @property
    def k2_limit(self) -> float:
        return np.inf if self.k2 is None else self.k2


def build_gap_match_graph(
    query: bytes,
    graph: PangenomeGraph,
    gaps: GapParams,
    char_dist: np.ndarray,
) -> MatchDag:
    """Product DAG restricted to arcs whose query and graph gaps are in
    bounds, graph gaps read from the dense :func:`~panlcs.graph.char_distances`
    array ``char_dist``; node set identical to the unconstrained construction."""
    qi, vert, off = match_points(query, graph)
    k1, k2 = gaps.k1_limit, gaps.k2_limit
    cid = build_char_graph(graph).starts[vert] + off

    def accept(lo: int, hi: int) -> np.ndarray:
        dq = qi[None, :] - qi[lo:hi, None]
        query_ok = (dq > 0) & (dq <= k1)
        same = vert[lo:hi, None] == vert[None, :]
        df = off[None, :] - off[lo:hi, None]
        intra_ok = (df > 0) & (df <= k2)
        dist = char_dist[cid[lo:hi, None], cid[None, :]]
        inter_ok = np.isfinite(dist) & (dist <= k2)
        return query_ok & np.where(same, intra_ok, inter_ok)

    return _match_dag(qi, vert, off, _pair_arcs(len(qi), accept))


class _BallRelation:
    """Predecessors for a finite ``k2``: character pairs at most ``k2`` arcs
    apart that do not step backwards (or stay put) on one vertex."""

    def __init__(self, cg: CharGraph, k2: int):
        src, dst = cg.ball_pairs(k2)
        keep = precedes(cg.origin[src], cg.offset[src], cg.origin[dst], cg.offset[dst], True)
        self.src = src[keep]
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(dst[keep], minlength=cg.node_count))])
        self.targets = np.flatnonzero(np.diff(self.indptr))

    def best(self, window: np.ndarray) -> np.ndarray:
        """Per character, the maximum of ``window`` over its predecessors."""
        out = np.zeros_like(window)
        if len(self.src):
            out[self.targets] = np.maximum.reduceat(window[self.src], self.indptr[self.targets])
        return out

    def sources(self, c: int) -> np.ndarray:
        """The predecessors of character ``c``, ascending."""
        return self.src[self.indptr[c] : self.indptr[c + 1]]


class _ReachRelation:
    """Predecessors for an unbounded ``k2``: earlier offsets of the same
    vertex, and every character of another vertex that reaches this one."""

    def __init__(self, graph: PangenomeGraph, cg: CharGraph):
        self.cg = cg
        self.reach = reachability(graph).matrix  # the graph's own, read-only
        self.lifted = cg.origin << 32  # separates the vertices in one running maximum

    def best(self, window: np.ndarray) -> np.ndarray:
        cg = self.cg
        inclusive = np.maximum.accumulate(self.lifted + window) - self.lifted
        earlier = np.where(cg.offset > 0, np.roll(inclusive, 1), 0)
        per_vertex = inclusive[cg.starts[1:] - 1].astype(window.dtype)
        across = np.where(self.reach, per_vertex[:, None], 0)  # V x V at the window dtype
        np.fill_diagonal(across, 0)  # a vertex's own characters are the earlier offsets
        across = across.max(axis=0, initial=0)
        return np.maximum(earlier, across[cg.origin]).astype(window.dtype)

    def sources(self, c: int) -> np.ndarray:
        cg = self.cg
        u = cg.origin[c]
        return np.flatnonzero(precedes(cg.origin, cg.offset, u, cg.offset[c], self.reach[cg.origin, u]))


_Relation = _BallRelation | _ReachRelation


def _fill_table(q: np.ndarray, cg: CharGraph, k1: int | None, relation: _Relation) -> np.ndarray:
    """The longest-chain table, row by row.  The maximum over the last
    ``k1`` rows combines the suffix maxima of the last complete block of
    ``k1`` rows with the running maximum of the current block, so a row
    costs O(N) whatever ``k1`` is."""
    m, n = len(q), cg.node_count
    table = np.zeros((m, n), dtype=np.min_scalar_type(m))
    span = m if k1 is None else k1
    running = np.zeros(n, dtype=table.dtype)
    suffix = None
    for j in range(m):
        if j and j % span == 0:
            suffix = np.maximum.accumulate(table[j - span : j][::-1], axis=0)[::-1]
            running = np.zeros(n, dtype=table.dtype)
        match = cg.chars == q[j]
        if match.any():
            window = running if suffix is None else np.maximum(suffix[j % span], running)
            table[j] = np.where(match, relation.best(window) + 1, 0)
            np.maximum(running, table[j], out=running)
    return table


def _trace_back(table: np.ndarray, cg: CharGraph, k1: int | None, relation: _Relation) -> list[MatchPoint]:
    """The chain ending at the first row-major maximum, each parent the first
    row-major predecessor cell holding one less: the product DAG's
    smallest-index tie-break."""
    j, c = divmod(int(np.argmax(table)), cg.node_count)
    cells = [(j, c)]
    for value in range(int(table[j, c]) - 1, 0, -1):
        cols = relation.sources(c)
        lo = 0 if k1 is None else max(0, j - k1)
        first = int(np.argmax(table[lo:j, cols] == value))
        j, c = lo + first // len(cols), int(cols[first % len(cols)])
        cells.append((j, c))
    return [MatchPoint(j, int(cg.origin[c]), int(cg.offset[c])) for j, c in reversed(cells)]


def solve_fglcs_sg(query: bytes, graph: PangenomeGraph, gaps: GapParams) -> Alignment:
    """Longest gap-bounded common subsequence between ``query`` and ``graph``.

    The returned alignment records the realized (query gap, graph gap) of
    every consecutive pair, the graph gaps found by breadth-first search;
    both are validated against the bounds before returning.
    """
    cg = build_char_graph(graph)
    q = np.frombuffer(query, dtype=np.uint8)
    # a bound no step can exceed is no bound
    k1 = None if gaps.k1 is None or gaps.k1 >= len(q) - 1 else gaps.k1
    if gaps.k2 is None or gaps.k2 >= cg.node_count - 1:
        relation: _Relation = _ReachRelation(graph, cg)
    else:
        relation = _BallRelation(cg, gaps.k2)
    log.info(
        "fglcs table: %d query rows x %d characters, predecessors by %s",
        len(q), cg.node_count, "reachability" if isinstance(relation, _ReachRelation) else f"radius-{gaps.k2} balls",
    )
    table = _fill_table(q, cg, k1, relation)
    if not table.any():
        return Alignment(0, b"", (), (), gaps=())
    alignment = alignment_from_points(query, graph, _trace_back(table, cg, k1, relation), record_gaps=True)
    alignment.validate(query, graph, gap_params=gaps)
    return alignment
