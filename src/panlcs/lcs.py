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
explicitly by :func:`panlcs.daglp.match_arcs`.  Matches are numbered in
query order, so the out-arcs of a match are the suffix, past its query
index, of the successor list of its character: each suffix is copied
into one preallocated destination column, grouped by source (CSR), and
the longest path needs neither a topological sort nor an arc sort.
Time and memory grow with the arc count, up to the square of the match
count, which is the documented scaling behavior of this solver.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .daglp import MatchDag, longest_path_vertex, match_arcs
from .graph import PangenomeGraph, build_char_graph, precedes, reachability

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
        for t in range(k):
            qi = self.q_positions[t]
            vid, off = self.g_positions[t]
            label = graph.label_of(vid)
            if not (0 <= qi < len(query) and 0 <= off < len(label)):
                raise AlignmentError("position out of range")
            if not (self.subsequence[t] == query[qi] == label[off]):
                raise AlignmentError(f"character mismatch at chain position {t}")
        cg = build_char_graph(graph)
        verts = np.array([graph.vertex_index(vid) for vid, _ in self.g_positions], dtype=np.int64)
        chars = cg.starts[verts] + np.array([f for _, f in self.g_positions], dtype=np.int64)
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


def _match_dag(qi: np.ndarray, ci: np.ndarray, csr: tuple[np.ndarray, ...]) -> MatchDag:
    """Unit-weight DAG over the matches ``(qi, ci)`` with the CSR arcs
    ``csr``; its payloads are one ``(qi, ci)`` row per node."""
    payloads = np.column_stack((qi, ci))
    payloads.flags.writeable = False
    return MatchDag.from_csr(np.ones(len(qi), dtype=np.int64), *csr, payloads=payloads)


def build_match_graph(query: bytes, graph: PangenomeGraph) -> MatchDag:
    """Construct the unit-weight product DAG for unconstrained LCS solving.

    Nodes are all query/label character matches; an arc joins two matches
    when the query index strictly increases and the graph side either stays
    on one vertex at a higher character id or moves to a reachable other
    vertex (:func:`~panlcs.daglp.match_arcs`).
    """
    reach = reachability(graph).matrix  # first: an oversized graph is refused before any matching
    qi, ci = match_points(query, graph)
    dag = _match_dag(qi, ci, match_arcs(qi, ci, build_char_graph(graph).origin, reach))
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
