"""Sequence-to-graph longest common subsequence via a product DAG.

The solver pairs every query position with every equal graph label
character, producing one node per match, then draws an arc between two
matches exactly when they can occur in that order in both coordinate
systems: strictly later in the query, and either strictly later within one
vertex label or on a vertex reachable through the graph.  Every path in the
product graph then reads off a common subsequence, and a maximum-node path
(unit node weights) is a longest one.

A match is a (query index, character id) pair: the graph side is the
character's id in :func:`~panlcs.graph.build_char_graph`, the one graph
coordinate of the solvers, and (vertex id, offset) pairs are built only
for the emitted :class:`Alignment`.  The product graph is materialized
explicitly by this module's arc builder, :func:`match_arcs`, and solved
by :mod:`panlcs.daglp`.  Matches are numbered in query order, so the
out-arcs of a match are the suffix, past its query index, of the
successor list of its character: the DAG holds the lists once and each
match's out-arcs as a slice of them, and the longest path needs neither
a topological sort nor an arc sort.  Memory follows the lists, at most
(distinct characters) x (matches) entries; time follows the arc count,
up to the square of the match count, which is the documented scaling
behavior of this solver.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .daglp import MatchDag, _node_type, longest_path_vertex
from .graph import PangenomeGraph, build_char_graph, check_bytes, precedes, reachability

if TYPE_CHECKING:  # pragma: no cover
    from .fglcs import GapParams

log = logging.getLogger(__name__)


class AlignmentError(ValueError):
    """An emitted alignment failed its own invariants."""


@dataclass(frozen=True)
class Alignment:
    """A solved alignment: the common subsequence and its two embeddings.

    ``q_positions`` are strictly increasing indices into the query;
    ``g_positions`` are (vertex id, label offset) pairs.  ``gaps`` is only
    present for gap-constrained solves and holds the realized (query gap,
    graph gap) of each consecutive pair.
    """

    score: int
    subsequence: bytes
    q_positions: tuple[int, ...]
    g_positions: tuple[tuple[str, int], ...]
    gaps: tuple[tuple[int, int], ...] | None = None

    def validate(self, query: bytes, graph: PangenomeGraph, gap_params: "GapParams | None" = None) -> None:
        """Re-check every invariant against the instance; raise on violation.

        Steps across vertices are checked against the graph's reachability,
        or, when the alignment records gaps, against the graph gaps of
        :meth:`~panlcs.graph.CharGraph.distance`, which must also equal the
        recorded ones (so a gap-bounded solve never needs the reachability).
        ``gap_params`` adds the gap-bound checks.
        """
        k = self.score
        if not (len(self.subsequence) == len(self.q_positions) == len(self.g_positions) == k):
            raise AlignmentError("score and component lengths disagree")
        if any(a >= b for a, b in zip(self.q_positions, self.q_positions[1:])):
            raise AlignmentError("query positions must be strictly increasing")
        if self.gaps is not None and len(self.gaps) != max(k - 1, 0):
            raise AlignmentError("gap records must cover each consecutive pair")
        cg = build_char_graph(graph)
        char_ids = []  # the character id of each position
        for t, (qi, (vid, off)) in enumerate(zip(self.q_positions, self.g_positions)):
            v = graph.vertex_index(vid)
            label = graph.labels[v]
            if not (0 <= qi < len(query) and 0 <= off < len(label)):
                raise AlignmentError("position out of range")
            if not (self.subsequence[t] == query[qi] == label[off]):
                raise AlignmentError(f"character mismatch at chain position {t}")
            char_ids.append(cg.starts[v] + off)
        chars = np.array(char_ids, dtype=np.int64)
        a, b = chars[:-1], chars[1:]
        if self.gaps is None:
            across = reachability(graph).matrix[cg.origin[a], cg.origin[b]]
        else:
            graph_gaps = [cg.distance(x, y) for x, y in zip(a.tolist(), b.tolist())]
            across = np.array([d is not None for d in graph_gaps], dtype=bool)
        bad = np.flatnonzero(~precedes(cg.origin[a], a, cg.origin[b], b, across))
        if len(bad):
            (vid_a, _), (vid_b, _) = self.g_positions[bad[0]], self.g_positions[bad[0] + 1]
            if vid_a == vid_b:
                raise AlignmentError("same-vertex matches must advance in the label")
            raise AlignmentError(f"vertex {vid_b!r} is not reachable from {vid_a!r}")
        if self.gaps is None:
            return
        for t, ((dq, dg), graph_gap) in enumerate(zip(self.gaps, graph_gaps)):
            if dq != self.q_positions[t + 1] - self.q_positions[t]:
                raise AlignmentError("recorded query gap disagrees with positions")
            if dg != graph_gap:
                raise AlignmentError("recorded graph gap disagrees with distances")
            if gap_params is not None:
                if not 0 < dq <= gap_params.k1_limit:
                    raise AlignmentError(f"query gap {dq} violates the bound")
                if not 0 < dg <= gap_params.k2_limit:
                    raise AlignmentError(f"graph gap {dg} violates the bound")


EMPTY_ALIGNMENT = Alignment(0, b"", (), (), None)


def match_points(query: bytes, graph: PangenomeGraph) -> tuple[np.ndarray, np.ndarray]:
    """All (query index, character id) matches, as parallel arrays ordered
    by query index, then character id."""
    q = np.frombuffer(query, dtype=np.uint8)
    return np.nonzero(q[:, None] == build_char_graph(graph).chars[None, :])


def _match_dag(qi: np.ndarray, ci: np.ndarray, start: np.ndarray, stop: np.ndarray, targets: np.ndarray) -> MatchDag:
    """Unit-weight DAG over the matches ``(qi, ci)`` whose out-arcs are the
    slices ``targets[start[x]:stop[x]]``; its payloads are one ``(qi, ci)``
    row per node."""
    payloads = np.column_stack((qi, ci))
    payloads.flags.writeable = False
    return MatchDag.from_slices(np.ones(len(qi), dtype=np.int64), start, stop, targets, payloads=payloads)


_BLOCK_CELLS = 1 << 18  # characters x matches cells per block of the list build: its mask and cell indices stay below the lists


def match_arcs(
    qi: np.ndarray, ci: np.ndarray, origin: np.ndarray, reach: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arcs of the lcs product DAG over the matches ``(qi, ci)`` of query
    index and character id, numbered in query order: ``x -> y`` when
    ``qi[x] < qi[y]`` and :func:`~panlcs.graph.precedes` holds, with
    ``origin`` mapping a character to its vertex and ``reach`` as the
    cross-vertex predicate.  Returns the slices ``(start, stop, targets)``
    of :meth:`MatchDag.from_slices`, each source's destinations ascending.

    The graph side depends only on the character of each end, and the
    out-arcs of ``x`` are the suffix, from ``first[x]``, the first match
    later in the query, of its character's successor list: the matches
    whose character it precedes, in index order, from the earliest
    ``first`` among the character's matches on.  ``targets`` holds the
    lists one after another, and each match's slice is its suffix of its
    character's list: no arc is copied, so the DAG takes the lists' bytes,
    however many arcs they hold.  The lists are built a block of
    characters at a time (characters x matches cells), a character's row
    of the precedence table with its prefix before that earliest ``first``
    cleared, and are refused past :data:`~panlcs.graph.MAX_BYTES` before
    any is made.  A block's precedence mask and int64 cell indices are
    dropped as soon as its list is kept at the node dtype.
    """
    m = len(qi)
    first = np.searchsorted(qi, qi, "right")
    chars, key = np.unique(ci, return_inverse=True)
    n_keys, k_vert = len(chars), origin[chars]
    node_type = _node_type(m)  # list entries are node indices
    need = n_keys * m * node_type.itemsize
    check_bytes(need, f"lcs product DAG: lists of {n_keys} characters x {m} matches need up to {need} bytes")
    key_first = np.full(n_keys, m, dtype=np.int64)
    np.minimum.at(key_first, key, first)
    by_key = np.argsort(key, kind="stable")
    key_ptr = np.searchsorted(key[by_key], np.arange(n_keys + 1))

    start, stop = np.empty(m, dtype=np.int64), np.empty(m, dtype=np.int64)
    targets = np.empty(0, dtype=node_type)
    rows = max(1, _BLOCK_CELLS // max(m, 1))
    for ka in range(0, n_keys, rows):
        kb = min(ka + rows, n_keys)
        col = int(key_first[ka:kb].min())
        width = m - col
        xv = k_vert[ka:kb]
        across = reach[xv].take(k_vert, axis=1)
        mask = precedes(xv[:, None], chars[ka:kb, None], k_vert, chars, across).take(key[col:], axis=1)
        for r, f in enumerate(key_first[ka:kb].tolist()):
            mask[r, : f - col] = False
        flat = np.flatnonzero(mask)  # key row r, node col + c at r * width + c
        del mask
        xs = by_key[key_ptr[ka] : key_ptr[kb]]
        row = key[xs] - ka
        base = len(targets)
        start[xs] = base + np.searchsorted(flat, row * width + first[xs] - col)
        stop[xs] = base + np.searchsorted(flat, (row + 1) * width)
        flat %= max(width, 1)
        flat += col
        targets.resize(base + len(flat), refcheck=False)  # realloc: no second copy of the lists is kept
        targets[base:] = flat
        del flat  # only the node-dtype list outlives the block
    return start, stop, targets


def build_match_graph(query: bytes, graph: PangenomeGraph) -> MatchDag:
    """Construct the unit-weight product DAG for unconstrained LCS solving.

    Nodes are all query/label character matches; an arc joins two matches
    when the query index strictly increases and the graph side either stays
    on one vertex at a higher character id or moves to a reachable other
    vertex (:func:`match_arcs`).
    """
    reach = reachability(graph).matrix  # first: an oversized graph is refused before any matching
    qi, ci = match_points(query, graph)
    dag = _match_dag(qi, ci, *match_arcs(qi, ci, build_char_graph(graph).origin, reach))
    log.info("product DAG: %d matches, %d arcs", dag.n_nodes, dag.n_arcs)
    return dag


def alignment_from_path(query: bytes, graph: PangenomeGraph, dag: MatchDag, path: tuple[int, ...]) -> Alignment:
    """Read an alignment off a product-graph path."""
    return alignment_from_points(query, graph, dag.payloads[list(path)].tolist())


def alignment_from_points(query: bytes, graph: PangenomeGraph, points: Sequence[Sequence[int]]) -> Alignment:
    """The alignment through the (query index, character id) ``points``
    in order, without gap records."""
    cg = build_char_graph(graph)
    q_positions = tuple(j for j, _ in points)
    g_positions = tuple((graph.ids[cg.origin[c]], int(cg.offset[c])) for _, c in points)
    subsequence = bytes(query[i] for i in q_positions)
    return Alignment(len(points), subsequence, q_positions, g_positions)


def solve_lcs_sg(query: bytes, graph: PangenomeGraph) -> Alignment:
    """Longest common subsequence between ``query`` and ``graph``.

    Returns a validated :class:`Alignment`; the empty alignment when no
    query character occurs in the graph.  The graph keeps its
    reachability, so later queries against it reuse it.
    """
    dag = build_match_graph(query, graph)
    if dag.n_nodes == 0:
        return EMPTY_ALIGNMENT
    result = longest_path_vertex(dag)
    alignment = alignment_from_path(query, graph, dag, result.path)
    alignment.validate(query, graph)
    return alignment
