"""Seed chaining: colinear ordering of exact matches across the graph.

A seed pins a label interval of one vertex to an equal-length query
interval spelling the same bytes.  Seed ``a`` strictly precedes seed ``b``
when ``a``'s query interval ends before ``b``'s begins and the graph side
agrees: on one shared vertex the label intervals must be disjoint in the
same order, across vertices ``b``'s vertex must be reachable from ``a``'s.

Chaining builds one DAG node per seed with arcs for every strictly ordered
pair, then solves a vertex-weighted longest path: seed lengths as weights
maximize total matched characters, unit weights maximize the seed count.
The arcs come from the same construction as the lcs product DAG
(:func:`panlcs.daglp.interval_arcs`; a character match is a length-one
seed).  Seeds listed in query order have their arcs copied from
successor lists, at about the cost of the arcs; otherwise a vectorized
dense pair scan visits K^2 cells for K seeds.
:func:`strictly_precedes` is the scalar form of that rule, used to
re-check emitted chains.
"""

from __future__ import annotations

import io
import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .daglp import MatchDag, interval_arcs, longest_path_vertex
from .graph import PangenomeGraph, ReachMatrix, precedes, reachability, records, token_text

log = logging.getLogger(__name__)


class SeedError(ValueError):
    """A seed is malformed or inconsistent with the instance it refers to."""


@dataclass(frozen=True, slots=True)  # slots: MEM sets run to 10^5 seeds
class Seed:
    """An exact match: vertex id, inclusive label interval ``[i, i2]``, and
    inclusive query interval ``[j, j2]`` of equal length.

    ``maximal`` marks a seed claimed to be extendable in neither direction;
    the claim is only checked by :meth:`validate` when a query is supplied.
    """

    vertex: str
    i: int
    i2: int
    j: int
    j2: int
    maximal: bool = False

    def __post_init__(self) -> None:
        if self.i < 0 or self.j < 0:
            raise SeedError(f"seed {self._brief()}: negative interval start")
        if self.i2 < self.i or self.j2 < self.j:
            raise SeedError(f"seed {self._brief()}: empty or reversed interval")
        if self.i2 - self.i != self.j2 - self.j:
            raise SeedError(f"seed {self._brief()}: label and query intervals differ in length")
        if max(self.i2, self.j2) >= 1 << 63:  # the seed DAG holds bounds as int64
            raise SeedError(f"seed {self._brief()}: interval bound exceeds 2**63 - 1")

    def _brief(self) -> str:
        return f"({self.vertex!r}, [{self.i},{self.i2}], [{self.j},{self.j2}])"

    @property
    def length(self) -> int:
        return self.i2 - self.i + 1

    def validate(self, graph: PangenomeGraph, query: bytes | None = None) -> None:
        """Check bounds against the graph and, when ``query`` is given, the
        substring equality plus any claimed maximality."""
        label = graph.label_of(self.vertex)
        if self.i2 >= len(label):
            raise SeedError(f"seed {self._brief()}: label interval exceeds {self.vertex!r}")
        if query is None:
            return
        if self.j2 >= len(query):
            raise SeedError(f"seed {self._brief()}: query interval out of range")
        if label[self.i : self.i2 + 1] != query[self.j : self.j2 + 1]:
            raise SeedError(f"seed {self._brief()}: matched substrings differ")
        if self.maximal:
            left_open = self.i > 0 and self.j > 0 and label[self.i - 1] == query[self.j - 1]
            right_open = (
                self.i2 + 1 < len(label)
                and self.j2 + 1 < len(query)
                and label[self.i2 + 1] == query[self.j2 + 1]
            )
            if left_open or right_open:
                raise SeedError(f"seed {self._brief()}: flagged maximal but extendable")


def total_length(seeds: Iterable[Seed]) -> int:
    """Sum of seed lengths (equal over label and query intervals)."""
    return sum(seed.length for seed in seeds)


def strictly_precedes(a: Seed, b: Seed, graph: PangenomeGraph, reach: ReachMatrix) -> bool:
    """Whether ``a`` can come before ``b`` in one chain."""
    u, v = graph.vertex_index(a.vertex), graph.vertex_index(b.vertex)
    return a.j2 < b.j and bool(precedes(u, a.i2, v, b.i, reach.matrix[u, v]))


@dataclass(frozen=True)
class Chain:
    """An ordered, strictly chained selection of seeds."""

    seeds: tuple[Seed, ...]
    length: int
    count: int

    def validate(
        self,
        graph: PangenomeGraph,
        reach: ReachMatrix,
        query: bytes | None = None,
    ) -> None:
        if self.count != len(self.seeds):
            raise SeedError("chain count disagrees with its seed list")
        if self.length != total_length(self.seeds):
            raise SeedError("chain length disagrees with its seed lengths")
        for seed in self.seeds:
            seed.validate(graph, query)
        for a, b in zip(self.seeds, self.seeds[1:]):
            if not strictly_precedes(a, b, graph, reach):
                raise SeedError(f"chain breaks strict order between {a._brief()} and {b._brief()}")


EMPTY_CHAIN = Chain((), 0, 0)


def build_seed_graph(
    seeds: Sequence[Seed],
    graph: PangenomeGraph,
    reach: ReachMatrix,
    *,
    unit_weights: bool = False,
    query: bytes | None = None,
) -> MatchDag:
    """One DAG node per seed (weight = seed length, or 1 when
    ``unit_weights``), one arc per strictly ordered pair, found by the
    same :func:`interval_arcs` construction as the lcs product DAG."""
    for seed in seeds:
        seed.validate(graph, query)
    cols = np.array(
        [(graph.vertex_index(s.vertex), s.i, s.i2, s.j, s.j2) for s in seeds], dtype=np.int64
    ).reshape(-1, 5)
    vert, i, i2, j, j2 = cols.T
    dag = MatchDag.from_csr(
        np.ones(len(seeds), dtype=np.int64) if unit_weights else i2 - i + 1,
        *interval_arcs(j, j2, vert, i, i2, reach.matrix),
        payloads=tuple(seeds),
    )
    log.info("seed DAG: %d seeds, %d arcs", dag.n_nodes, dag.n_arcs)
    return dag


def _solve(seeds: Sequence[Seed], graph: PangenomeGraph, unit_weights: bool, query: bytes | None) -> Chain:
    reach = reachability(graph)
    if not seeds:
        return EMPTY_CHAIN
    dag = build_seed_graph(seeds, graph, reach, unit_weights=unit_weights, query=query)
    result = longest_path_vertex(dag)
    picked = tuple(dag.payloads[v] for v in result.path)
    chain = Chain(seeds=picked, length=total_length(picked), count=len(picked))
    chain.validate(graph, reach, query)
    return chain


def solve_memc(seeds: Sequence[Seed], graph: PangenomeGraph, *, query: bytes | None = None) -> Chain:
    """Chain maximizing the total matched length over strictly ordered
    subsets of ``seeds``.  ``query`` is optional and only adds validation."""
    return _solve(seeds, graph, unit_weights=False, query=query)


def solve_msp(seeds: Sequence[Seed], graph: PangenomeGraph, *, query: bytes | None = None) -> Chain:
    """Chain maximizing the number of seeds (unit weights, same machinery)."""
    return _solve(seeds, graph, unit_weights=True, query=query)


# ---------------------------------------------------------------------------
# seed TSV format
# ---------------------------------------------------------------------------


def parse_seed_line(tokens: Sequence[bytes], lineno: int) -> Seed:
    """One `<vertex> <i> <i'> <j> <j'>` record, already split into tokens;
    errors name ``lineno``."""
    if len(tokens) != 5:
        raise SeedError(f"line {lineno}: expected `<vertex> <i> <i'> <j> <j'>`")
    try:
        return Seed(token_text(tokens[0]), *[int(t) for t in tokens[1:]])
    except SeedError as exc:
        raise SeedError(f"line {lineno}: {exc}") from None
    except ValueError:
        raise SeedError(f"line {lineno}: interval bounds must be integers") from None


def parse_seeds(text: bytes | str) -> tuple[Seed, ...]:
    """Parse `<vertex> <i> <i'> <j> <j'>` records (inclusive bounds; see
    :func:`~panlcs.graph.records`)."""
    return tuple(parse_seed_line(tokens, lineno) for lineno, tokens in records(text))


def format_seeds(seeds: Iterable[Seed]) -> str:
    """Render seeds in the TSV format accepted by :func:`parse_seeds`."""
    out = io.StringIO()  # grows one buffer; a join would hold every line at once
    for s in seeds:
        out.write(f"{s.vertex}\t{s.i}\t{s.i2}\t{s.j}\t{s.j2}\n")
    return out.getvalue()
