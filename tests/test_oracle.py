import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import panlcs.oracle
from panlcs import GapParams, Seed, parse_graph
from panlcs.oracle import (
    OracleError,
    classic_lcs_dp,
    embeddable,
    enumerate_mems,
    fglcs_bruteforce,
    is_acyclic,
    lcs_sg_bruteforce,
    memc_bruteforce,
    msp_bruteforce,
)

TWO_VERTEX = parse_graph("V a ab\nV b ba\nE a b\n")


class TestClassicLcs:
    def test_known_pair(self):
        assert classic_lcs_dp(b"ababc", b"abc") == 3

    def test_empty(self):
        assert classic_lcs_dp(b"", b"xyz") == 0
        assert classic_lcs_dp(b"xyz", b"") == 0

    def test_identity(self):
        assert classic_lcs_dp(b"banana", b"banana") == 6

    @given(queries_a=helpers.queries(max_len=8), queries_b=helpers.queries(max_len=8))
    def test_symmetric_and_bounded(self, queries_a, queries_b):
        length = classic_lcs_dp(queries_a, queries_b)
        assert length == classic_lcs_dp(queries_b, queries_a)
        assert length <= min(len(queries_a), len(queries_b))


class TestEmbeddable:
    def test_spelled_across_edge(self):
        assert embeddable(b"aba", TWO_VERTEX)

    def test_empty_always_embeddable(self):
        assert embeddable(b"", TWO_VERTEX)

    def test_absent_character(self):
        assert not embeddable(b"zz", TWO_VERTEX)

    def test_needs_strictly_advancing_positions(self):
        # single vertex "ab": "ba" needs a return, impossible without a cycle
        g = parse_graph("V v ab\n")
        assert embeddable(b"ab", g)
        assert not embeddable(b"ba", g)

    def test_cycle_allows_returns(self):
        g = parse_graph("V v ab\nE v v\n")
        assert embeddable(b"ba", g)

    @given(helpers.graphs(max_n=4, max_label=3), helpers.queries(max_len=6))
    @settings(max_examples=40)
    def test_monotone_under_subsequence(self, g, q):
        if embeddable(q, g):
            for drop in range(len(q)):
                sub = q[:drop] + q[drop + 1 :]
                assert embeddable(sub, g)

    def test_budget_guard(self):
        big = parse_graph("".join(f"V v{k} abc\n" for k in range(7)))
        with pytest.raises(OracleError, match="budget exceeded"):
            embeddable(b"a", big)


class TestLcsBruteforce:
    def test_single_vertex(self):
        assert lcs_sg_bruteforce(b"aba", parse_graph("V v ab\n")) == 2

    def test_empty_query(self):
        assert lcs_sg_bruteforce(b"", TWO_VERTEX) == 0

    def test_two_vertex(self):
        assert lcs_sg_bruteforce(b"aba", TWO_VERTEX) == 3

    def test_query_budget(self):
        with pytest.raises(OracleError, match="query length"):
            lcs_sg_bruteforce(b"a" * 13, TWO_VERTEX)

    def test_cyclic_rejected(self):
        g = parse_graph("V a x\nE a a\n")
        with pytest.raises(OracleError, match="cyclic"):
            lcs_sg_bruteforce(b"x", g)

    def test_single_vertex_equals_classic_dp(self):
        rng = random.Random(7)
        for _ in range(50):
            q1 = bytes(rng.choice(b"abc") for _ in range(rng.randint(0, 8)))
            q2 = bytes(rng.choice(b"abc") for _ in range(rng.randint(1, 10)))
            g = parse_graph(f"V v {q2.decode()}\n")
            assert lcs_sg_bruteforce(q1, g) == classic_lcs_dp(q1, q2)


class TestFglcsBruteforce:
    def test_unbounded_equals_plain_lcs(self):
        rng = random.Random(3)
        for _ in range(40):
            g = helpers.random_graph(rng, max_n=4, max_label=3)
            q = helpers.random_query(rng, max_len=6)
            assert fglcs_bruteforce(q, g, GapParams.unbounded()) == lcs_sg_bruteforce(q, g)

    def test_graph_gap_bound(self):
        g = parse_graph("V v axxb\n")
        assert fglcs_bruteforce(b"ab", g, GapParams(None, 2)) == 1
        assert fglcs_bruteforce(b"ab", g, GapParams(None, 3)) == 2

    def test_query_gap_one_forces_contiguity(self):
        g = parse_graph("V v abc\n")
        # "axbc": with k1=1 the best is the contiguous "bc" run... and "a?b" gap is 2
        assert fglcs_bruteforce(b"axbc", g, GapParams(1, None)) == 2
        assert fglcs_bruteforce(b"axbc", g, GapParams(2, None)) == 3

    def test_cyclic_rejected(self):
        g = parse_graph("V a x\nE a a\n")
        with pytest.raises(OracleError, match="cyclic"):
            fglcs_bruteforce(b"x", g, GapParams.unbounded())


class TestChainBruteforce:
    def test_empty_set(self):
        assert memc_bruteforce((), TWO_VERTEX) == 0
        assert msp_bruteforce((), TWO_VERTEX) == 0

    def test_singleton(self):
        seed = Seed("a", 0, 1, 0, 1)
        assert memc_bruteforce((seed,), TWO_VERTEX) == 2
        assert msp_bruteforce((seed,), TWO_VERTEX) == 1

    def test_seed_budget(self):
        seeds = tuple(Seed("a", 0, 0, k, k) for k in range(13))
        with pytest.raises(OracleError, match="seeds"):
            memc_bruteforce(seeds, TWO_VERTEX)

    def test_matches_permutation_enumerator(self):
        rng = random.Random(11)
        for _ in range(40):
            g = helpers.random_graph(rng, max_n=3, max_label=4, acyclic=rng.random() < 0.7)
            seeds = []
            for _ in range(rng.randint(0, 5)):
                v = rng.randrange(g.n)
                label = g.labels[v]
                i = rng.randrange(len(label))
                i2 = rng.randint(i, len(label) - 1)
                j = rng.randint(0, 6)
                seeds.append(Seed(g.ids[v], i, i2, j, j + (i2 - i)))
            seeds = tuple(seeds)
            assert memc_bruteforce(seeds, g) == helpers.best_chain_by_permutation(
                seeds, g, lambda s: s.length
            )
            assert msp_bruteforce(seeds, g) == helpers.best_chain_by_permutation(
                seeds, g, lambda s: 1
            )


class TestEnumerateMems:
    def test_full_match(self):
        mems = enumerate_mems(b"abc", parse_graph("V v abc\n"))
        assert mems == (Seed("v", 0, 2, 0, 2),)

    def test_two_single_characters(self):
        mems = enumerate_mems(b"ab", parse_graph("V v ba\n"))
        assert set((s.vertex, s.i, s.i2, s.j, s.j2) for s in mems) == {
            ("v", 0, 0, 1, 1),
            ("v", 1, 1, 0, 0),
        }

    def test_absent_characters(self):
        assert enumerate_mems(b"zzz", TWO_VERTEX) == ()

    def test_no_budget(self):
        # polynomial, so unbudgeted: a query and a graph the exhaustive oracles refuse
        g = parse_graph("".join(f"V v{k} abc\n" for k in range(10)))
        assert len(enumerate_mems(b"abc" * 10, g)) == 100

    @given(helpers.graphs(max_n=4, max_label=4, acyclic=False), helpers.queries(max_len=8))
    @settings(max_examples=60)
    def test_mems_are_exact_and_maximal(self, g, q):
        for seed in enumerate_mems(q, g):
            label = g.label_of(seed.vertex)
            assert label[seed.i : seed.i2 + 1] == q[seed.j : seed.j2 + 1]
            left_blocked = seed.i == 0 or seed.j == 0 or label[seed.i - 1] != q[seed.j - 1]
            right_blocked = (
                seed.i2 == len(label) - 1
                or seed.j2 == len(q) - 1
                or label[seed.i2 + 1] != q[seed.j2 + 1]
            )
            assert left_blocked and right_blocked

    @given(helpers.graphs(max_n=4, max_label=4), helpers.queries(max_len=8))
    @settings(max_examples=40)
    def test_every_match_cell_is_covered(self, g, q):
        # each equal-character pair must lie inside exactly one MEM
        covered = {}
        for idx, seed in enumerate(enumerate_mems(q, g)):
            for t in range(seed.length):
                key = (seed.vertex, seed.i + t, seed.j + t)
                assert key not in covered
                covered[key] = idx
        for vid, label in zip(g.ids, g.labels):
            for i, ch in enumerate(label):
                for j, qc in enumerate(q):
                    assert ((vid, i, j) in covered) == (ch == qc)


class TestBudget:
    def test_raised_caps_leave_no_cached_answer(self, monkeypatch):
        big = parse_graph("".join(f"V v{k} abc\n" for k in range(10)))
        monkeypatch.setattr(panlcs.oracle, "MAX_VERTICES", 40)
        monkeypatch.setattr(panlcs.oracle, "MAX_LABEL_TOTAL", 200)
        assert embeddable(b"a", big)
        assert lcs_sg_bruteforce(b"abc", big) == 3
        assert fglcs_bruteforce(b"abc", big, GapParams.unbounded()) == 3
        monkeypatch.undo()
        # the answers above are cached; back under the fixed caps each call still refuses
        for call in (
            lambda: embeddable(b"a", big),
            lambda: lcs_sg_bruteforce(b"abc", big),
            lambda: fglcs_bruteforce(b"abc", big, GapParams.unbounded()),
        ):
            with pytest.raises(OracleError, match="budget exceeded: 10 vertices > 6"):
                call()

    def test_refusal_is_loud_not_truncating(self):
        with pytest.raises(OracleError):
            lcs_sg_bruteforce(b"a" * 20, TWO_VERTEX)


@given(helpers.cyclic_graphs(max_n=12))
@settings(max_examples=60)
def test_is_acyclic_means_no_vertex_reaches_itself(g):
    assert is_acyclic(g) == all(u != v for u, v in helpers.dfs_reach_pairs(g))


def test_imports_only_the_input_types():
    # an oracle that borrowed solver machinery would check the solvers against themselves
    tree = ast.parse(Path(panlcs.oracle.__file__).read_text())
    borrowed = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("panlcs"))
        for alias in node.names
    }
    plain = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] == "panlcs"
    }
    assert borrowed == {"PangenomeGraph", "Seed", "GapParams"} and not plain


@given(st.data())
@settings(max_examples=40)
def test_fglcs_monotone_in_bounds(data):
    g = data.draw(helpers.graphs(max_n=4, max_label=3))
    q = data.draw(helpers.queries(max_len=6))
    k1 = data.draw(st.sampled_from([1, 2, 3, None]))
    k2 = data.draw(st.sampled_from([1, 2, 3, None]))
    base = fglcs_bruteforce(q, g, GapParams(k1, k2))
    wider1 = None if k1 is None else k1 + 1
    wider2 = None if k2 is None else k2 + 1
    assert fglcs_bruteforce(q, g, GapParams(wider1, wider2)) >= base
