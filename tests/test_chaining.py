import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from panlcs import daglp
from panlcs import (
    Seed,
    SeedError,
    parse_graph,
    parse_instance,
    parse_seeds,
    reachability,
    solve_memc,
    solve_msp,
)
from panlcs.chaining import build_seed_graph, format_seeds, strictly_precedes, total_length
from panlcs.daglp import topo_sort
from panlcs.oracle import memc_bruteforce, msp_bruteforce

TWO_VERTEX = parse_graph("V u abcq\nV w abcq\nE u w\n")


def random_seeds(rng, graph, count, max_j=8, vertex=None):
    seeds = []
    for _ in range(count):
        v = rng.randrange(graph.n) if vertex is None else vertex
        label = graph.labels[v]
        i = rng.randrange(len(label))
        i2 = rng.randint(i, len(label) - 1)
        j = rng.randint(0, max_j)
        seeds.append(Seed(graph.ids[v], i, i2, j, j + (i2 - i)))
    return tuple(seeds)


def pairwise_arcs(seeds, graph):
    """The seed DAG's arc list by the pairwise rule, in (source,
    destination) order."""
    return [
        [x, y]
        for x, a in enumerate(seeds)
        for y, b in enumerate(seeds)
        if x != y and helpers.seed_precedes_brute(a, b, graph)
    ]


class TestSeed:
    def test_interval_lengths_must_agree(self):
        with pytest.raises(SeedError, match="differ in length"):
            Seed("u", 0, 2, 0, 1)

    def test_reversed_interval_rejected(self):
        with pytest.raises(SeedError, match="reversed"):
            Seed("u", 2, 1, 2, 1)

    def test_negative_start_rejected(self):
        with pytest.raises(SeedError, match="negative"):
            Seed("u", -1, 0, -1, 0)

    def test_bound_beyond_int64_rejected(self):
        Seed("u", 0, 1, (1 << 63) - 2, (1 << 63) - 1)
        with pytest.raises(SeedError, match="exceeds 2"):
            Seed("u", 0, 1, (1 << 63) - 1, 1 << 63)

    def test_bounds_checked_against_graph(self):
        with pytest.raises(SeedError, match="exceeds"):
            Seed("u", 0, 9, 0, 9).validate(TWO_VERTEX)

    def test_substring_equality_checked_with_query(self):
        Seed("u", 0, 1, 0, 1).validate(TWO_VERTEX, b"abz")
        with pytest.raises(SeedError, match="substrings differ"):
            Seed("u", 0, 2, 0, 2).validate(TWO_VERTEX, b"abz")

    def test_maximality_flag_checked_with_query(self):
        # "ab" inside label "abcq" and query "abc": extendable right
        with pytest.raises(SeedError, match="extendable"):
            Seed("u", 0, 1, 0, 1, maximal=True).validate(TWO_VERTEX, b"abc")
        Seed("u", 0, 2, 0, 2, maximal=True).validate(TWO_VERTEX, b"abc")

    def test_length(self):
        assert Seed("u", 1, 3, 5, 7).length == 3


class TestTotalLength:
    def test_empty(self):
        assert total_length(()) == 0

    def test_mixed(self):
        seeds = (Seed("u", 0, 2, 0, 2), Seed("u", 3, 3, 5, 5))
        assert total_length(seeds) == 4

    def test_equals_query_side_recount(self):
        rng = random.Random(1)
        seeds = random_seeds(rng, TWO_VERTEX, 6)
        assert total_length(seeds) == sum(s.j2 - s.j + 1 for s in seeds)


class TestStrictlyPrecedes:
    def test_same_vertex_disjoint_forward(self):
        r = reachability(TWO_VERTEX)
        a = Seed("u", 0, 1, 0, 1)
        b = Seed("u", 3, 3, 5, 5)
        assert strictly_precedes(a, b, TWO_VERTEX, r)
        assert not strictly_precedes(b, a, TWO_VERTEX, r)

    def test_touching_label_intervals_fail(self):
        r = reachability(TWO_VERTEX)
        a = Seed("u", 0, 1, 0, 1)
        b = Seed("u", 1, 2, 5, 6)
        assert not strictly_precedes(a, b, TWO_VERTEX, r)

    def test_cross_vertex_requires_reachability(self):
        r = reachability(TWO_VERTEX)
        a = Seed("u", 0, 1, 0, 1)
        b = Seed("w", 0, 1, 5, 6)
        assert strictly_precedes(a, b, TWO_VERTEX, r)
        assert not strictly_precedes(b, a, TWO_VERTEX, r)  # edge runs u -> w only

    @given(helpers.graphs(max_n=3, max_label=4, acyclic=False))
    @settings(max_examples=40)
    def test_matches_dfs_based_rule(self, g):
        rng = random.Random(g.n * 7919 + g.total_label_length)
        r = reachability(g)
        seeds = random_seeds(rng, g, 4)
        for a in seeds:
            for b in seeds:
                assert strictly_precedes(a, b, g, r) == helpers.seed_precedes_brute(a, b, g)


class TestBuildSeedGraph:
    def test_interleaved_query_intervals_have_no_arcs(self):
        r = reachability(TWO_VERTEX)
        seeds = (Seed("u", 0, 1, 0, 1), Seed("w", 0, 1, 1, 2))
        dag = build_seed_graph(seeds, TWO_VERTEX, r)
        assert dag.n_arcs == 0

    def test_singleton(self):
        r = reachability(TWO_VERTEX)
        dag = build_seed_graph((Seed("u", 0, 2, 0, 2),), TWO_VERTEX, r)
        assert dag.n_nodes == 1 and dag.n_arcs == 0
        assert dag.weights.tolist() == [3]

    def test_unit_weight_mode(self):
        r = reachability(TWO_VERTEX)
        dag = build_seed_graph((Seed("u", 0, 2, 0, 2),), TWO_VERTEX, r, unit_weights=True)
        assert dag.weights.tolist() == [1]

    def test_invalid_seed_rejected(self):
        r = reachability(TWO_VERTEX)
        with pytest.raises(SeedError):
            build_seed_graph((Seed("u", 0, 9, 0, 9),), TWO_VERTEX, r)

    @given(helpers.graphs(max_n=4, max_label=4, acyclic=False), st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_arcs_equal_pairwise_rule(self, g, salt):
        rng = random.Random(salt)
        crowded = rng.randrange(g.n)  # several seeds share this vertex
        seeds = list(random_seeds(rng, g, 4) + random_seeds(rng, g, 3, vertex=crowded))
        rng.shuffle(seeds)
        expected = pairwise_arcs(seeds, g)
        # shuffled seeds are mostly not in query order: the dense scan, one
        # source row per block at a budget of one cell
        for block_cells in (daglp._BLOCK_CELLS, 1):
            with patch.object(daglp, "_BLOCK_CELLS", block_cells):
                dag = build_seed_graph(seeds, g, reachability(g))
            assert dag.arcs.tolist() == expected

    @given(helpers.graphs(max_n=4, max_label=4, acyclic=False), st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_query_sorted_seeds_scan_past_each_block_start(self, g, salt):
        # seeds in query order let each one-row block skip the destinations
        # that start before its query end
        rng = random.Random(salt)
        seeds = sorted(random_seeds(rng, g, 4) + random_seeds(rng, g, 3), key=lambda s: s.j)
        with patch.object(daglp, "_BLOCK_CELLS", 1):
            dag = build_seed_graph(seeds, g, reachability(g))
        assert dag.arcs.tolist() == pairwise_arcs(seeds, g)

    @given(helpers.graphs(max_n=4, max_label=4, acyclic=False))
    @settings(max_examples=40)
    def test_seed_graph_is_always_a_dag(self, g):
        rng = random.Random(g.total_label_length * 31 + len(g.edges))
        seeds = random_seeds(rng, g, 6)
        dag = build_seed_graph(seeds, g, reachability(g))
        assert len(topo_sort(dag)) == dag.n_nodes


class TestSolveMemc:
    def test_empty_set(self):
        chain = solve_memc((), TWO_VERTEX)
        assert chain.length == 0 and chain.count == 0 and chain.seeds == ()

    def test_two_unordered_seeds_pick_heavier(self):
        # same query positions: mutually unordered; lengths 3 vs 2
        seeds = (Seed("u", 0, 1, 0, 1), Seed("w", 0, 2, 0, 2))
        chain = solve_memc(seeds, TWO_VERTEX)
        assert chain.length == 3
        assert chain.seeds == (seeds[1],)
        assert memc_bruteforce(seeds, TWO_VERTEX) == 3

    def test_chainable_pair_beats_lone_long_seed(self):
        g = parse_graph("V a abcd\nV b abcd\nE a b\n")
        seeds = (
            Seed("a", 0, 1, 0, 1),   # len 2
            Seed("b", 0, 2, 4, 6),   # len 3, chains after the first
            Seed("a", 0, 3, 2, 5),   # len 4, alone (overlaps both on the query)
        )
        chain = solve_memc(seeds, g)
        assert chain.length == 5
        assert [s.vertex for s in chain.seeds] == ["a", "b"]
        assert memc_bruteforce(seeds, g) == 5

    def test_query_validation_is_optional(self):
        # without a query, substring equality cannot be checked and is skipped
        seeds = (Seed("u", 0, 1, 0, 1),)
        assert solve_memc(seeds, TWO_VERTEX).length == 2
        with pytest.raises(SeedError):
            solve_memc(seeds, TWO_VERTEX, query=b"zz")

    def test_matches_bruteforce_random(self):
        rng = random.Random(23)
        for _ in range(60):
            g = helpers.random_graph(rng, max_n=4, max_label=4, acyclic=rng.random() < 0.7)
            seeds = random_seeds(rng, g, rng.randint(0, 8))
            assert solve_memc(seeds, g).length == memc_bruteforce(seeds, g)


class TestSolveMsp:
    def test_nonempty_gives_at_least_one(self):
        seeds = (Seed("u", 0, 1, 0, 1),)
        assert solve_msp(seeds, TWO_VERTEX).count == 1

    def test_antichain_count_is_one(self):
        seeds = (
            Seed("u", 0, 2, 0, 2),
            Seed("w", 0, 2, 1, 3),
            Seed("u", 1, 3, 2, 4),
        )
        assert solve_msp(seeds, TWO_VERTEX).count == 1

    def test_three_short_beat_one_long(self):
        g = parse_graph("V a aaaaaa\n")
        seeds = (
            Seed("a", 0, 5, 0, 5),   # one long seed covering the query
            Seed("a", 0, 0, 0, 0),
            Seed("a", 2, 2, 2, 2),
            Seed("a", 4, 4, 4, 4),
        )
        memc = solve_memc(seeds, g)
        msp = solve_msp(seeds, g)
        assert memc.length == 6 and memc.count == 1
        assert msp.count == 3
        assert msp_bruteforce(seeds, g) == 3

    def test_matches_bruteforce_and_unit_weight_memc(self):
        rng = random.Random(29)
        for _ in range(60):
            g = helpers.random_graph(rng, max_n=4, max_label=4, acyclic=rng.random() < 0.7)
            seeds = random_seeds(rng, g, rng.randint(0, 8))
            count = solve_msp(seeds, g).count
            assert count == msp_bruteforce(seeds, g)
            # unit-weight chaining is the same machinery
            from panlcs import longest_path_vertex

            if seeds:
                dag = build_seed_graph(seeds, g, reachability(g), unit_weights=True)
                assert longest_path_vertex(dag).score == count


class TestChainValidation:
    def test_outputs_validate(self):
        rng = random.Random(31)
        g = TWO_VERTEX
        r = reachability(g)
        for _ in range(20):
            seeds = random_seeds(rng, g, rng.randint(1, 6))
            chain = solve_memc(seeds, g)
            chain.validate(g, r)
            for a, b in zip(chain.seeds, chain.seeds[1:]):
                assert strictly_precedes(a, b, g, r)
            assert chain.length == total_length(chain.seeds)


class TestSeedTsv:
    def test_round_trip(self):
        seeds = (Seed("u", 0, 2, 1, 3), Seed("w", 1, 1, 5, 5))
        assert parse_seeds(format_seeds(seeds)) == seeds

    def test_comments_and_blanks(self):
        assert parse_seeds("# seeds\n\nu 0 2 1 3\n") == (Seed("u", 0, 2, 1, 3),)

    def test_wrong_column_count(self):
        with pytest.raises(SeedError, match="expected"):
            parse_seeds("u 0 2 1\n")

    def test_non_integer_bounds(self):
        with pytest.raises(SeedError, match="integers"):
            parse_seeds("u 0 2 one 3\n")

    def test_invalid_interval_names_its_line(self):
        with pytest.raises(SeedError, match="line 2: .*reversed"):
            parse_seeds("u 0 0 0 0\nu 2 1 0 0\n")
        with pytest.raises(SeedError, match="line 3: .*reversed"):
            parse_instance("V u ab\nS u 0 0 0 0\nS u 2 1 0 0\n")
