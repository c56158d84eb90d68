"""Metamorphic checks: relations between a solver's outputs on related
inputs, which need no oracle and so also run at benchmark scale.

Each relation holds on acyclic graphs:

* the common subsequence ``S`` found for a query, used as the query, scores
  ``|S|`` under lcs, and under fglcs with the same bounds;
* lcs scores at least fglcs;
* adding an edge never lowers an lcs, fglcs or memc score;
* renaming and reordering the vertices leaves every score unchanged;
* memc over exact seeds scores at most lcs (a chain spells a common
  subsequence);
* memc over a superset of seeds scores at least memc over the subset.

They run on small hypothesis graphs and on the bubble and stress graphs of
the benchmark generators (``perfbench/gen.py``, imported read-only), where
no oracle's budget reaches.  fglcs monotonicity in the bounds is checked in
``test_fglcs.py``.

Three solvers compute one longest path by three code paths, and must give
the same score and the same embedding on every graph, cycles included:
lcs, msp and memc over the query's one-character seeds listed in query
order, and fglcs with both bounds unbounded.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from panlcs import GapParams, PangenomeGraph, Seed, solve_fglcs_sg, solve_lcs_sg, solve_memc, solve_msp
from panlcs.oracle import enumerate_mems

K_GRID = [1, 2, 3, None]


gen = helpers.benchmark_generators()


def scores(q: bytes, g: PangenomeGraph, gaps: GapParams, seeds) -> tuple[int, int, int]:
    return solve_lcs_sg(q, g).score, solve_fglcs_sg(q, g, gaps).score, solve_memc(seeds, g).length


def with_edge(g: PangenomeGraph, u: int, v: int) -> PangenomeGraph:
    return PangenomeGraph(g.ids, g.labels, g.edges + ((u, v),))


def relabelled(g: PangenomeGraph, order, seeds):
    """``g`` with its vertices listed in ``order`` and renamed, and
    ``seeds`` moved along."""
    pos = {old: new for new, old in enumerate(order)}
    ids = tuple(f"r{k}" for k in range(g.n))
    graph = PangenomeGraph(ids, tuple(g.labels[o] for o in order), tuple((pos[u], pos[v]) for u, v in g.edges))
    moved = [dataclasses.replace(s, vertex=ids[pos[g.index[s.vertex]]]) for s in seeds]
    return graph, moved


def check_relations(q: bytes, g: PangenomeGraph, gaps: GapParams, seeds, subset, edge, order) -> None:
    """Every relation of the module docstring on one instance; ``edge`` is
    a forward (acyclic) edge to add, ``order`` a vertex permutation and
    ``subset`` a subset of the exact ``seeds``."""
    lcs, fglcs, memc = base = scores(q, g, gaps, seeds)
    s = solve_lcs_sg(q, g).subsequence
    assert solve_lcs_sg(s, g).score == len(s)
    s = solve_fglcs_sg(q, g, gaps).subsequence
    assert solve_fglcs_sg(s, g, gaps).score == len(s)
    assert lcs >= fglcs
    assert memc <= lcs
    assert solve_memc(subset, g).length <= memc
    if edge is not None:
        wider = scores(q, with_edge(g, *edge), gaps, seeds)
        assert all(w >= b for w, b in zip(wider, base)), (edge, wider, base)
    graph, moved = relabelled(g, order, seeds)
    assert scores(q, graph, gaps, moved) == base


@st.composite
def instances(draw):
    g = draw(helpers.graphs(max_n=5, max_label=3))
    q = draw(helpers.queries(max_len=7))
    gaps = GapParams(draw(st.sampled_from(K_GRID)), draw(st.sampled_from(K_GRID)))
    seeds = enumerate_mems(q, g)
    subset = [s for s in seeds if draw(st.booleans())]
    absent = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in g.edges]
    edge = draw(st.sampled_from(absent)) if absent else None
    order = draw(st.permutations(range(g.n)))
    return q, g, gaps, seeds, subset, edge, order


@given(instances())
@settings(max_examples=80)
def test_relations_on_small_graphs(instance):
    check_relations(*instance)


def bench_instance(family: str, rng: random.Random):
    """A benchmark-family graph and query: a read with substitutions copied
    from a bubble graph, or a random query over a stress graph."""
    if family == "bubble":
        graph = gen.bubble_graph(rng, 40, 450)
        return helpers.program_graph(graph), gen.sample_read(rng, graph, 40, 0.05)
    return helpers.program_graph(gen.stress_graph(rng)), gen.random_text(rng, b"abcdefgh", 40)


@pytest.mark.parametrize("family", ["bubble", "stress"])
@pytest.mark.parametrize("seed", [1, 2])
def test_relations_on_benchmark_graphs(family, seed):
    rng = random.Random(seed)
    g, q = bench_instance(family, rng)
    seeds = [s for s in enumerate_mems(q, g) if s.length >= 2]
    subset = [s for s in seeds if rng.random() < 0.5]
    absent = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in g.edges]
    order = rng.sample(range(g.n), g.n)
    check_relations(q, g, GapParams(3, 3), seeds, subset, rng.choice(absent), order)


def check_solvers_agree(q: bytes, g: PangenomeGraph) -> None:
    """The cross-solver identities of the module docstring on one instance."""
    lcs = solve_lcs_sg(q, g)
    embedding = (lcs.q_positions, lcs.g_positions)
    seeds = [Seed(g.ids[v], f, f, j, j) for j, v, f in helpers.match_nodes_by_rule(q, g)]  # in query order
    for chain in (solve_msp(seeds, g), solve_memc(seeds, g)):
        assert chain.count == chain.length == lcs.score
        assert (tuple(s.j for s in chain.seeds), tuple((s.vertex, s.i) for s in chain.seeds)) == embedding
    fglcs = solve_fglcs_sg(q, g, GapParams(None, None))
    assert (fglcs.score, fglcs.q_positions, fglcs.g_positions) == (lcs.score, *embedding)


@given(
    helpers.graphs(max_n=5, max_label=3, acyclic=False) | helpers.cyclic_graphs(max_n=12),
    helpers.queries(max_len=8),
)
@settings(max_examples=150)
def test_solvers_agree_on_small_graphs(g, q):
    check_solvers_agree(q, g)


@pytest.mark.parametrize("length", [50, 75, 115])
def test_solvers_agree_on_stress_graphs(length):
    rng = random.Random(length)
    g = helpers.program_graph(gen.stress_graph(rng))
    check_solvers_agree(gen.random_text(rng, b"abcdefgh", length), g)
