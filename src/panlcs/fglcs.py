"""Gap-bounded sequence-to-graph common subsequence solving.

Same product-graph idea as the unconstrained solver, with two per-step
bounds: consecutive matched query positions may differ by at most ``k1``,
and the matched graph characters may be at most ``k2`` apart.  The graph
side distance is the offset difference within one vertex, and otherwise the
minimum arc count between the two characters in the character-split graph
(a bounded-gap connection along some path exists exactly when the shortest
one qualifies).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .daglp import MatchDag, _pair_arcs, longest_path_vertex
from .graph import (
    CharDistMatrix,
    PangenomeGraph,
    build_char_graph,
    char_distances,
)
from .lcs import Alignment, _match_dag, alignment_from_path, match_points


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
    char_dist: CharDistMatrix,
) -> MatchDag:
    """Product DAG restricted to arcs whose query and graph gaps are in
    bounds; node set identical to the unconstrained construction."""
    qi, vert, off = match_points(query, graph)
    k1, k2 = gaps.k1_limit, gaps.k2_limit
    cid = char_dist.starts[vert] + off if len(vert) else np.array([], dtype=np.int64)
    dmat = char_dist.matrix

    def accept(lo: int, hi: int) -> np.ndarray:
        dq = qi[None, :] - qi[lo:hi, None]
        query_ok = (dq > 0) & (dq <= k1)
        same = vert[lo:hi, None] == vert[None, :]
        df = off[None, :] - off[lo:hi, None]
        intra_ok = (df > 0) & (df <= k2)
        dist = dmat[cid[lo:hi, None], cid[None, :]]
        inter_ok = np.isfinite(dist) & (dist <= k2)
        return query_ok & np.where(same, intra_ok, inter_ok)

    return _match_dag(qi, vert, off, _pair_arcs(len(qi), accept))


def solve_fglcs_sg(
    query: bytes,
    graph: PangenomeGraph,
    gaps: GapParams,
    *,
    char_dist: CharDistMatrix | None = None,
) -> Alignment:
    """Longest gap-bounded common subsequence between ``query`` and ``graph``.

    The returned alignment records the realized (query gap, graph gap) of
    every consecutive pair; both are validated against the bounds before
    returning.  ``char_dist`` may be passed to reuse the character-distance
    preprocessing across queries.
    """
    if char_dist is None:
        char_dist = char_distances(build_char_graph(graph))
    dag = build_gap_match_graph(query, graph, gaps, char_dist)
    if dag.n_nodes == 0:
        return Alignment(0, b"", (), (), gaps=())
    result = longest_path_vertex(dag)
    alignment = alignment_from_path(query, graph, dag, result.path, char_dist=char_dist)
    alignment.validate(query, graph, gap_params=gaps, char_dist=char_dist)
    return alignment
