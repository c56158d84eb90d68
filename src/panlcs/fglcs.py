"""Gap-bounded sequence-to-graph common subsequence solving.

Two per-step bounds apply: consecutive matched query positions may differ by
at most ``k1``, and the matched graph characters may be at most ``k2`` apart.
A graph position is its character id (see :mod:`panlcs.graph`), and a
step's graph gap is :meth:`~panlcs.graph.CharGraph.distance`: the id
difference within one vertex, and otherwise the minimum arc count between
the two characters in the character-split graph (a bounded-gap connection
along some path exists exactly when the shortest one qualifies).

The paper's reduction is a product DAG over the character matches, with an
arc wherever both bounds hold; :func:`build_gap_match_graph` builds it (a
dense pair scan over a dense :func:`~panlcs.graph.char_distances` matrix)
and stays as the reference construction.  :func:`solve_fglcs_sg` computes
that DAG's longest-path table directly instead, one query row at a time:

* cell ``(j, c)`` of the table, for query position ``j`` and character id
  ``c``, holds the longest chain ending by matching ``j`` to ``c`` (0 where
  the characters differ);
* a row is ``1 +`` the per-character maximum, over the predecessor
  relation, of the maxima of the previous ``k1`` rows (a running maximum
  when ``k1`` is unbounded);
* with finite ``k2`` the predecessors of ``c`` are the characters whose
  breadth-first ball of radius ``k2`` holds ``c``
  (:meth:`~panlcs.graph.CharGraph.ball_pairs`), minus the characters of
  the same vertex at the same or a higher id (reached around a cycle);
  with unbounded ``k2`` they are the lower ids of the same vertex and
  every character of another vertex that reaches this one.

Walking back from the first row-major maximum to the first row-major
predecessor cell one lower reproduces the product DAG's smallest-index
tie-break, so the emitted alignment is the one the reference construction
gives.

A row touches only the characters equal to its query letter.  It costs O(N)
for the ``k1`` window, plus the ball pairs that end at those characters (a
quarter of all pairs on DNA), or with unbounded ``k2`` V times the number of
vertices holding the letter; the table is |Q| x N of the narrowest sufficient
integer type, for N label characters and V vertices.  The table, and each
breadth-first round of the balls, are refused past
:data:`~panlcs.graph.MAX_BYTES` before they are allocated.

The ball relation depends on the graph and ``k2`` only, so it is kept on
the graph next to its character graph and reachability, for the last
``k2`` asked (:func:`_balls`): reads aligned one after another against
one graph with one ``k2`` build their predecessor pairs once, and a
different ``k2`` frees the kept pairs before it builds its own.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .daglp import MatchDag, _pair_arcs
from .graph import (
    CharGraph,
    PangenomeGraph,
    _freeze,
    _kept,
    build_char_graph,
    char_distances,
    check_bytes,
    precedes,
    reachability,
)
from .lcs import Alignment, _match_dag, alignment_from_points, match_points

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


def build_gap_match_graph(query: bytes, graph: PangenomeGraph, gaps: GapParams) -> MatchDag:
    """Product DAG restricted to arcs whose query and graph gaps are in
    bounds, graph gaps read from the graph's dense
    :func:`~panlcs.graph.char_distances`; node set identical to the
    unconstrained construction."""
    qi, ci = match_points(query, graph)
    origin, dist = build_char_graph(graph).origin, char_distances(graph)
    k1, k2 = gaps.k1_limit, gaps.k2_limit

    def accept(lo: int, hi: int) -> np.ndarray:
        dq = qi[None, :] - qi[lo:hi, None]
        dg = dist[ci[lo:hi, None], ci[None, :]]  # on one vertex, forward: the id difference
        ok = (dq > 0) & (dq <= k1) & np.isfinite(dg) & (dg <= k2)
        return ok & precedes(origin[ci[lo:hi, None]], ci[lo:hi, None], origin[ci], ci, True)

    indptr, dst = _pair_arcs(len(qi), accept)
    return _match_dag(qi, ci, indptr[:-1], indptr[1:], dst)


def _by_letter(chars: np.ndarray) -> tuple[np.ndarray, dict[int, tuple[int, int]]]:
    """The character ids sorted by letter, ascending within a letter (one
    stable argsort), and each present letter's run ``(lo, hi)`` in them."""
    counts = np.bincount(chars, minlength=256)
    letters = np.flatnonzero(counts)
    ends = np.cumsum(counts[letters]).tolist()
    return np.argsort(chars, kind="stable"), dict(zip(letters.tolist(), zip([0] + ends, ends)))


_ABSENT = (np.zeros(0, dtype=np.intp),) * 3  # the per-letter arrays of a letter the graph lacks


class _BallRelation:
    """Predecessors for a finite ``k2``: character pairs at most ``k2`` arcs
    apart that do not step backwards (or stay put) on one vertex.

    The pairs are sorted by target and then source, and regrouped by the
    letter of their target: per letter, the targets (the letter's columns
    that have predecessors), their concatenated sources and the offset of
    each target's run of sources."""

    def __init__(self, cg: CharGraph, k2: int):
        src, dst = cg.ball_pairs(k2)
        keep = precedes(cg.origin[src], src, cg.origin[dst], dst, True)
        self.src, dst = _freeze(src[keep]), dst[keep]
        counts = np.bincount(dst, minlength=cg.node_count)
        self.indptr = _freeze(np.concatenate([[0], np.cumsum(counts)]))
        order, runs = _by_letter(cg.chars)
        order = _freeze(order)  # read-only, and so are the slices of it below
        self.columns = {letter: order[lo:hi] for letter, (lo, hi) in runs.items()}
        # by target letter, and within a letter still by target and source
        sources = _freeze(self.src[np.argsort(cg.chars[dst], kind="stable")])
        # prefix counts over the characters in letter order map a letter's
        # run of characters to its run of pairs and its run of targets
        sizes = counts[order]
        has = sizes > 0
        pairs_before = np.concatenate([[0], np.cumsum(sizes)])
        targets_before = np.concatenate([[0], np.cumsum(has)])
        targets, offsets = _freeze(order[has]), pairs_before[:-1][has]
        self.groups = {}
        for letter, (lo, hi) in runs.items():
            first, last, start = targets_before[lo], targets_before[hi], pairs_before[lo]
            self.groups[letter] = (
                targets[first:last],
                sources[start : pairs_before[hi]],
                _freeze(offsets[first:last] - start),
            )

    def best(self, window: np.ndarray, letter: int) -> tuple[np.ndarray, np.ndarray]:
        """The columns of ``letter`` that have predecessors, and for each
        the maximum of ``window`` over its predecessors."""
        targets, sources, offsets = self.groups.get(letter, _ABSENT)
        return targets, np.maximum.reduceat(window[sources], offsets) if len(offsets) else window[:0]

    def sources(self, c: int) -> np.ndarray:
        """The predecessors of character ``c``, ascending."""
        return self.src[self.indptr[c] : self.indptr[c + 1]]


class _ReachRelation:
    """Predecessors for an unbounded ``k2``: lower ids of the same vertex,
    and every character of another vertex that reaches this one.

    Per letter it keeps the letter's columns, the vertices that hold them
    and each column's index among those vertices, so a row reads only
    those vertices' reachability columns."""

    def __init__(self, graph: PangenomeGraph, cg: CharGraph):
        self.cg = cg
        self.reach = reachability(graph).matrix  # the graph's own, read-only
        self.lifted = cg.origin << 32  # separates the vertices in one running maximum
        order, runs = _by_letter(cg.chars)
        self.columns = {letter: order[lo:hi] for letter, (lo, hi) in runs.items()}
        self.groups = {}
        for letter, cols in self.columns.items():
            new_vertex = np.diff(cg.origin[cols], prepend=-1) != 0
            self.groups[letter] = (cols, cg.origin[cols][new_vertex], np.cumsum(new_vertex) - 1)

    def best(self, window: np.ndarray, letter: int) -> tuple[np.ndarray, np.ndarray]:
        """The columns of ``letter``, and for each the maximum of
        ``window`` over its predecessors (0 where it has none)."""
        cg = self.cg
        cols, vertices, index = self.groups.get(letter, _ABSENT)
        inclusive = np.maximum.accumulate(self.lifted + window) - self.lifted
        earlier = np.where(cg.offset[cols] > 0, inclusive[cols - 1], 0)
        per_vertex = inclusive[cg.starts[1:] - 1].astype(window.dtype)
        # V x the letter's vertices, masked by multiplying in place (np.where
        # is several times slower): one array when the table has 1-byte cells
        across = self.reach[:, vertices].view(np.uint8).astype(window.dtype, copy=False)
        across *= per_vertex[:, None]
        across[vertices, np.arange(len(vertices))] = 0  # a vertex's own characters are the lower ids
        return cols, np.maximum(earlier, across.max(axis=0, initial=0)[index]).astype(window.dtype)

    def sources(self, c: int) -> np.ndarray:
        cg = self.cg
        u = cg.origin[c]
        return np.flatnonzero(precedes(cg.origin, np.arange(cg.node_count), u, c, self.reach[cg.origin, u]))


@_kept
def _balls(graph: PangenomeGraph, k2: int) -> _BallRelation:
    """The :class:`_BallRelation` of ``graph`` for ``k2``, kept on the
    graph for the last ``k2`` asked."""
    return _BallRelation(build_char_graph(graph), k2)


_Relation = _BallRelation | _ReachRelation


def _fill_table(q: np.ndarray, cg: CharGraph, k1: int | None, relation: _Relation) -> np.ndarray:
    """The longest-chain table, row by row.  A row writes only the columns
    of its query letter: 1 at each, then one more than the predecessor
    maximum at those with predecessors.  The maximum over the last ``k1``
    rows combines the suffix maxima of the last complete block of ``k1``
    rows with the running maximum of the current block, so that window
    costs O(N) per row whatever ``k1`` is."""
    m, n = len(q), cg.node_count
    dtype = np.min_scalar_type(m)
    nbytes = m * n * dtype.itemsize
    check_bytes(nbytes, f"fglcs table: {m} query rows x {n} characters need {nbytes} bytes")
    table = np.zeros((m, n), dtype=dtype)
    span = m if k1 is None else k1
    running = np.zeros(n, dtype=dtype)
    suffix = None
    for j, letter in enumerate(q.tolist()):
        if j and j % span == 0:
            suffix = table[j - span : j].copy()
            for r in range(span - 2, -1, -1):  # row by row: a strided accumulate is many times slower
                np.maximum(suffix[r], suffix[r + 1], out=suffix[r])
            running = np.zeros(n, dtype=dtype)
        cols = relation.columns.get(letter)
        if cols is None:
            continue
        window = running if suffix is None else np.maximum(suffix[j % span], running)
        targets, best = relation.best(window, letter)
        row = table[j]
        row[cols] = 1
        row[targets] = best + 1
        np.maximum(running, row, out=running)
    return table


def _trace_back(table: np.ndarray, cg: CharGraph, k1: int | None, relation: _Relation) -> list[tuple[int, int]]:
    """The chain of (query index, character id) cells ending at the first
    row-major maximum, each parent the first row-major predecessor cell
    holding one less: the product DAG's smallest-index tie-break."""
    j, c = divmod(int(table.argmax()), cg.node_count)
    cells = [(j, c)]
    for value in range(int(table[j, c]) - 1, 0, -1):
        cols = relation.sources(c)
        lo = 0 if k1 is None else max(0, j - k1)
        first = int((table[lo:j].take(cols, axis=1) == value).argmax())
        j, c = lo + first // len(cols), int(cols[first % len(cols)])
        cells.append((j, c))
    return cells[::-1]


def solve_fglcs_sg(query: bytes, graph: PangenomeGraph, gaps: GapParams) -> Alignment:
    """Longest gap-bounded common subsequence between ``query`` and ``graph``.

    The returned alignment records the realized (query gap, graph gap) of
    every consecutive pair, the graph gap by
    :meth:`~panlcs.graph.CharGraph.distance`; both are validated against
    the bounds before returning.
    """
    cg = build_char_graph(graph)
    q = np.frombuffer(query, dtype=np.uint8)
    # a bound no step can exceed is no bound
    k1 = None if gaps.k1 is None or gaps.k1 >= len(q) - 1 else gaps.k1
    if gaps.k2 is None or gaps.k2 >= cg.node_count - 1:
        relation: _Relation = _ReachRelation(graph, cg)
        predecessors = f"reachability, {graph.n} x {graph.n} vertices"
    else:
        relation = _balls(graph, gaps.k2)
        predecessors = f"radius-{gaps.k2} balls, {len(relation.src)} character pairs"
    log.info("fglcs table: %d query rows x %d characters, predecessors by %s", len(q), cg.node_count, predecessors)
    table = _fill_table(q, cg, k1, relation)
    if not table.any():
        return Alignment(0, b"", (), (), gaps=())
    cells = _trace_back(table, cg, k1, relation)
    steps = tuple((j2 - j, cg.distance(c, c2)) for (j, c), (j2, c2) in zip(cells, cells[1:]))
    alignment = replace(alignment_from_points(query, graph, cells), gaps=steps)
    alignment.validate(query, graph, gap_params=gaps)
    return alignment
