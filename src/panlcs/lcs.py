"""Sequence-to-graph longest common subsequence via a product DAG.

The solver pairs every query position with every equal graph label
character, producing one node per match, then draws an arc between two
matches exactly when they can occur in that order in both coordinate
systems: strictly later in the query, and either strictly later within one
vertex label or on a vertex reachable through the graph.  Every path in the
product graph then reads off a common subsequence, and a maximum-node path
(unit node weights) is a longest one.

The product graph is materialized explicitly by
:func:`panlcs.daglp.interval_arcs`, which also builds the seed DAG of
chaining (a match is a length-one seed).  Matches are numbered in query
order, so the out-arcs of a match are the suffix, past its query index,
of the successor list of its (vertex, offset) character: each suffix is
copied into one preallocated destination column, grouped by source (CSR),
and the longest path needs neither a topological sort nor an arc sort.
Time and memory grow with the arc count, up to the square of the match
count, which is the documented scaling behavior of this solver.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .daglp import MatchDag, interval_arcs, longest_path_vertex
from .graph import CharGraph, PangenomeGraph, ReachMatrix, build_char_graph, precedes, reachability

if TYPE_CHECKING:  # pragma: no cover
    from .fglcs import GapParams

log = logging.getLogger(__name__)


class MatchPoint(NamedTuple):
    """One matched character: query index, vertex index, label offset."""

    q_index: int
    vertex: int
    offset: int


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

    def validate(
        self,
        query: bytes,
        graph: PangenomeGraph,
        reach: ReachMatrix | None = None,
        gap_params: "GapParams | None" = None,
        char_graph: CharGraph | None = None,
    ) -> None:
        """Re-check every invariant against the instance; raise on violation.

        Steps across vertices are checked against ``reach``, or against the
        character paths of ``char_graph`` when only it is given (equivalent
        across vertices); with neither, the reachability is computed.
        ``gap_params`` plus ``char_graph`` enable the gap-bound checks.
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
        if reach is None and char_graph is None:
            reach = reachability(graph)
        verts = np.array([graph.vertex_index(vid) for vid, _ in self.g_positions], dtype=np.int64)
        offs = np.array([f for _, f in self.g_positions], dtype=np.int64)
        graph_gaps = [None] * max(k - 1, 0)
        if char_graph is not None:
            steps = zip(verts.tolist(), offs.tolist(), verts[1:].tolist(), offs[1:].tolist())
            graph_gaps = [g - f if u == v else char_graph.distance_vf(u, f, v, g) for u, f, v, g in steps]
        if reach is None:
            across = np.array([d is not None for d in graph_gaps], dtype=bool)
        else:
            across = reach.matrix[verts[:-1], verts[1:]]
        bad = np.flatnonzero(~precedes(verts[:-1], offs[:-1], verts[1:], offs[1:], across))
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
            if graph_gap is not None and dg != graph_gap:
                raise AlignmentError("recorded graph gap disagrees with distances")
            if gap_params is not None:
                if not 0 < dq <= gap_params.k1_limit:
                    raise AlignmentError(f"query gap {dq} violates the bound")
                if not 0 < dg <= gap_params.k2_limit:
                    raise AlignmentError(f"graph gap {dg} violates the bound")


EMPTY_ALIGNMENT = Alignment(0, b"", (), (), None)


def match_points(query: bytes, graph: PangenomeGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All (query index, vertex, offset) character matches, as parallel
    arrays ordered by query index, then vertex, then offset."""
    cg = build_char_graph(graph)
    q = np.frombuffer(query, dtype=np.uint8)
    qi, ci = np.nonzero(q[:, None] == cg.chars[None, :])
    return qi.astype(np.int64), cg.origin[ci], cg.offset[ci]


def _match_dag(qi: np.ndarray, vert: np.ndarray, off: np.ndarray, csr: tuple[np.ndarray, ...]) -> MatchDag:
    """Unit-weight DAG over the matches ``(qi, vert, off)`` with the CSR
    arcs ``csr``; its payloads are one ``(qi, vert, off)`` row per node."""
    payloads = np.column_stack((qi, vert, off))
    payloads.flags.writeable = False
    return MatchDag.from_csr(np.ones(len(qi), dtype=np.int64), *csr, payloads=payloads)


def build_match_graph(
    query: bytes, graph: PangenomeGraph, reach: ReachMatrix
) -> MatchDag:
    """Construct the unit-weight product DAG for unconstrained LCS solving.

    Nodes are all query/label character matches; an arc joins two matches
    when the query index strictly increases and the graph side either stays
    on one vertex with a strictly larger offset or moves to a reachable
    other vertex: :func:`interval_arcs` with every interval of length one.
    """
    qi, vert, off = match_points(query, graph)
    dag = _match_dag(qi, vert, off, interval_arcs(qi, qi, vert, off, off, reach.matrix))
    log.info("product DAG: %d matches, %d arcs", dag.n_nodes, dag.n_arcs)
    return dag


def alignment_from_path(
    query: bytes,
    graph: PangenomeGraph,
    dag: MatchDag,
    path: tuple[int, ...],
    char_graph: CharGraph | None = None,
) -> Alignment:
    """Read an alignment off a product-graph path, optionally recording the
    per-step (query gap, graph gap) pairs."""
    points = list(map(MatchPoint._make, dag.payloads[list(path)].tolist()))
    return alignment_from_points(query, graph, points, char_graph)


def alignment_from_points(
    query: bytes,
    graph: PangenomeGraph,
    points: Sequence[MatchPoint],
    char_graph: CharGraph | None = None,
) -> Alignment:
    """The alignment through ``points`` in order; with ``char_graph`` it
    records each step's query gap and graph gap (the offset difference on
    one vertex, the minimum arc count across vertices)."""
    q_positions = tuple(p.q_index for p in points)
    g_positions = tuple((graph.ids[p.vertex], p.offset) for p in points)
    subsequence = bytes(query[i] for i in q_positions)
    gaps = None
    if char_graph is not None:
        pairs = []
        for a, b in zip(points, points[1:]):
            dq = b.q_index - a.q_index
            if a.vertex == b.vertex:
                dg = b.offset - a.offset
            else:
                dist = char_graph.distance_vf(a.vertex, a.offset, b.vertex, b.offset)
                if dist is None:
                    raise AlignmentError("path step crosses unreachable characters")
                dg = dist
            pairs.append((dq, dg))
        gaps = tuple(pairs)
    return Alignment(
        score=len(points),
        subsequence=subsequence,
        q_positions=q_positions,
        g_positions=g_positions,
        gaps=gaps,
    )


def solve_lcs_sg(
    query: bytes,
    graph: PangenomeGraph,
    *,
    reach: ReachMatrix | None = None,
) -> Alignment:
    """Longest common subsequence between ``query`` and ``graph``.

    Returns a validated :class:`Alignment`; the empty alignment when no
    query character occurs in the graph.  ``reach`` may be passed to reuse
    precomputed reachability across queries.
    """
    if reach is None:
        reach = reachability(graph)
    dag = build_match_graph(query, graph, reach)
    if dag.n_nodes == 0:
        return EMPTY_ALIGNMENT
    result = longest_path_vertex(dag)
    alignment = alignment_from_path(query, graph, dag, result.path)
    alignment.validate(query, graph, reach=reach)
    return alignment
