import collections.abc
import logging
import random
import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import panlcs
from panlcs import chaining, cli, daglp
from panlcs import (
    Seed,
    SeedError,
    parse_graph,
    parse_instance,
    parse_seeds,
    solve_memc,
    solve_msp,
)
from panlcs.chaining import EMPTY_CHAIN, Chain, SeedTable, build_seed_graph, format_seeds, total_length
from panlcs.daglp import longest_path_vertex, topo_sort
from panlcs.graph import GraphError, precedes, records
from panlcs.oracle import enumerate_mems, memc_bruteforce, msp_bruteforce

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


def strictly_precedes(a, b, graph):
    """Whether the two-seed chain ``a, b`` passes :meth:`Chain.validate`;
    any other refusal fails the test."""
    try:
        Chain((a, b), a.length + b.length, 2).validate(graph)
    except SeedError as exc:
        assert str(exc) == f"chain breaks strict order between {a._brief()} and {b._brief()}"
        return False
    return True


class TestStrictlyPrecedes:
    """The step rule of chains, as :meth:`Chain.validate` checks it."""

    def test_same_vertex_disjoint_forward(self):
        a = Seed("u", 0, 1, 0, 1)
        b = Seed("u", 3, 3, 5, 5)
        assert strictly_precedes(a, b, TWO_VERTEX)
        assert not strictly_precedes(b, a, TWO_VERTEX)

    def test_touching_label_intervals_fail(self):
        a = Seed("u", 0, 1, 0, 1)
        b = Seed("u", 1, 2, 5, 6)
        assert not strictly_precedes(a, b, TWO_VERTEX)

    def test_cross_vertex_requires_reachability(self):
        a = Seed("u", 0, 1, 0, 1)
        b = Seed("w", 0, 1, 5, 6)
        assert strictly_precedes(a, b, TWO_VERTEX)
        assert not strictly_precedes(b, a, TWO_VERTEX)  # edge runs u -> w only

    @given(helpers.graphs(max_n=3, max_label=4, acyclic=False))
    @settings(max_examples=40)
    def test_matches_dfs_based_rule(self, g):
        rng = random.Random(g.n * 7919 + g.total_label_length)
        seeds = random_seeds(rng, g, 4)
        for a in seeds:
            for b in seeds:
                assert strictly_precedes(a, b, g) == helpers.seed_precedes_brute(a, b, g)


class TestBuildSeedGraph:
    def test_interleaved_query_intervals_have_no_arcs(self):
        seeds = (Seed("u", 0, 1, 0, 1), Seed("w", 0, 1, 1, 2))
        dag = build_seed_graph(seeds, TWO_VERTEX)
        assert dag.n_arcs == 0

    def test_singleton(self):
        dag = build_seed_graph((Seed("u", 0, 2, 0, 2),), TWO_VERTEX)
        assert dag.n_nodes == 1 and dag.n_arcs == 0
        assert dag.weights.tolist() == [3]

    def test_unit_weight_mode(self):
        dag = build_seed_graph((Seed("u", 0, 2, 0, 2),), TWO_VERTEX, unit_weights=True)
        assert dag.weights.tolist() == [1]

    def test_invalid_seed_rejected(self):
        with pytest.raises(SeedError):
            build_seed_graph((Seed("u", 0, 9, 0, 9),), TWO_VERTEX)

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
                dag = build_seed_graph(seeds, g)
            assert dag.arcs.tolist() == expected

    @given(helpers.graphs(max_n=4, max_label=4, acyclic=False), st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_query_sorted_seeds_scan_past_each_block_start(self, g, salt):
        # seeds in query order let each one-row block skip the destinations
        # that start before its query end
        rng = random.Random(salt)
        seeds = sorted(random_seeds(rng, g, 4) + random_seeds(rng, g, 3), key=lambda s: s.j)
        with patch.object(daglp, "_BLOCK_CELLS", 1):
            dag = build_seed_graph(seeds, g)
        assert dag.arcs.tolist() == pairwise_arcs(seeds, g)

    @given(helpers.graphs(max_n=4, max_label=4, acyclic=False))
    @settings(max_examples=40)
    def test_seed_graph_is_always_a_dag(self, g):
        rng = random.Random(g.total_label_length * 31 + len(g.edges))
        seeds = random_seeds(rng, g, 6)
        dag = build_seed_graph(seeds, g)
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
                dag = build_seed_graph(seeds, g, unit_weights=True)
                assert longest_path_vertex(dag).score == count


class TestChainValidation:
    def test_outputs_validate(self):
        rng = random.Random(31)
        g = TWO_VERTEX
        for _ in range(20):
            seeds = random_seeds(rng, g, rng.randint(1, 6))
            chain = solve_memc(seeds, g)
            chain.validate(g)
            for a, b in zip(chain.seeds, chain.seeds[1:]):
                assert helpers.seed_precedes_brute(a, b, g)
            assert chain.length == total_length(chain.seeds)

    def test_empty_and_one_seed_chains_pass(self):
        EMPTY_CHAIN.validate(TWO_VERTEX, b"")
        Chain((Seed("w", 1, 2, 0, 1),), 2, 1).validate(TWO_VERTEX, b"bc")

    def test_counts_are_checked_first(self):
        seeds = (Seed("x", 0, 0, 0, 0),)  # an unknown vertex: the seed check comes after
        with pytest.raises(SeedError, match="^chain count disagrees with its seed list$"):
            Chain(seeds, 1, 2).validate(TWO_VERTEX)
        with pytest.raises(SeedError, match="^chain length disagrees with its seed lengths$"):
            Chain(seeds, 2, 1).validate(TWO_VERTEX)

    def test_first_bad_seed_then_first_bad_step(self):
        a, b, c = Seed("u", 0, 0, 0, 0), Seed("w", 0, 0, 1, 1), Seed("u", 1, 1, 2, 2)
        with pytest.raises(SeedError, match=r"^chain breaks strict order between \('w', \[0,0\], \[1,1\]\) and \('u'"):
            Chain((a, b, c, Seed("u", 0, 0, 1, 1)), 4, 4).validate(TWO_VERTEX)  # b -> c and c -> the last fail
        bad = Seed("w", 2, 3, 4, 5)  # spells "cq", not the query's "ab"
        with pytest.raises(SeedError, match=re.escape("seed ('w', [2,3], [4,5]): matched substrings differ")):
            Chain((c, a, bad, Seed("u", 0, 9, 0, 9)), 14, 4).validate(TWO_VERTEX, b"abbqab")
        with pytest.raises(GraphError, match="unknown vertex id 'x'"):
            Chain((c, a, Seed("x", 0, 0, 0, 0)), 3, 3).validate(TWO_VERTEX)


class TestSeedTsv:
    def test_round_trip(self):
        seeds = (Seed("u", 0, 2, 1, 3), Seed("w", 1, 1, 5, 5))
        assert tuple(parse_seeds(format_seeds(seeds))) == seeds

    def test_comments_and_blanks(self):
        assert tuple(parse_seeds("# seeds\n\nu 0 2 1 3\n")) == (Seed("u", 0, 2, 1, 3),)

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


def seed_dag_chain(seeds, graph, unit_weights):
    """The chain along the seed DAG's longest path: the paper's reduction."""
    dag = build_seed_graph(seeds, graph, unit_weights=unit_weights)
    return tuple(dag.payloads[k] for k in longest_path_vertex(dag).path)


# The default blocks; one-row blocks, so that every run of two or more seeds
# is scanned in row groups, one cell at a time; and blocks of up to three
# rows, so that short runs share a block and longer runs are split into row
# groups.  Each budget keeps the in-block mask, (_BLOCK_ROWS - 1)**2 cells
# at most, within _BLOCK_CELLS.
BLOCKS = [
    {"_BLOCK_ROWS": chaining._BLOCK_ROWS, "_BLOCK_CELLS": chaining._BLOCK_CELLS},
    {"_BLOCK_ROWS": 1, "_BLOCK_CELLS": 1},
    {"_BLOCK_ROWS": 3, "_BLOCK_CELLS": 4},
]


class TestChainEqualsSeedDagPath:
    @given(
        helpers.graphs(max_n=4, max_label=4, acyclic=False),  # self-loops and cycles included
        st.integers(0, 2**32),
        st.booleans(),
    )
    @settings(max_examples=150)
    def test_same_chain_as_the_seed_dag(self, g, salt, query_sorted):
        rng = random.Random(salt)
        crowded = rng.randrange(g.n)  # several seeds share this vertex
        seeds = list(random_seeds(rng, g, rng.randint(0, 6), max_j=rng.choice([2, 8])))  # max_j 2: equal j
        seeds += random_seeds(rng, g, rng.randint(0, 4), vertex=crowded)
        seeds += rng.sample(seeds, min(2, len(seeds)))  # duplicate seeds
        if query_sorted:
            seeds.sort(key=lambda s: s.j)
        else:
            rng.shuffle(seeds)
        seeds = tuple(seeds)
        table = parse_seeds(format_seeds(seeds))
        for solve, unit_weights in ((solve_memc, False), (solve_msp, True)):
            expected = seed_dag_chain(seeds, g, unit_weights)
            for block in BLOCKS:
                with patch.multiple(chaining, **block):
                    assert solve(seeds, g).seeds == expected
                    assert solve(table, g).seeds == expected


def seed_at(rng, graph, j, length):
    """A seed of ``length`` characters on a random vertex, at query start ``j``."""
    v = rng.choice([v for v in range(graph.n) if len(graph.labels[v]) >= length])
    i = rng.randrange(len(graph.labels[v]) - length + 1)
    return Seed(graph.ids[v], i, i + length - 1, j, j + length - 1)


def short_runs(rng, graph, runs, most=1, j=0):
    """``runs`` runs of one to ``most`` seeds: the seeds of a run start at
    one query position, and the next run starts 0-2 positions past its
    last query end."""
    seeds = []
    for _ in range(runs):
        run = [seed_at(rng, graph, j, rng.randint(1, 3)) for _ in range(rng.randint(1, most))]
        seeds += run
        j = max(s.j2 for s in run) + 1 + rng.randint(0, 2)
    return seeds


def bubble_mems():
    """The MEMs of two or more characters of a 40-character read on a
    37-vertex bubble graph, listed by vertex as ``panlcs mems`` writes them
    (345 seeds)."""
    gen = helpers.benchmark_generators()
    graph = gen.bubble_graph(random.Random(1), 12, 200)
    read = gen.sample_read(random.Random(2), graph, 40, 0.05)
    program = helpers.program_graph(graph)
    return program, [m for m in enumerate_mems(read, program) if m.length >= 2]


def scan_chain(seeds, graph, unit_weights):
    """The chain of :func:`solve_memc` or :func:`solve_msp` and the largest
    mask the scan built (``precedes`` calls with 2-d reachability; the
    chain's own check makes 1-d ones)."""
    largest = 0

    def sized(*args):
        nonlocal largest
        if np.ndim(args[-1]) == 2:
            largest = max(largest, np.broadcast(*args).size)
        return precedes(*args)

    with patch.object(chaining, "precedes", sized):
        chain = (solve_msp if unit_weights else solve_memc)(seeds, graph)
    return chain.seeds, largest


def test_default_blocks_bound_the_in_block_mask():
    # a block's in-block mask is at most (_BLOCK_ROWS - 1)**2 cells and is not split
    assert (chaining._BLOCK_ROWS - 1) ** 2 <= chaining._BLOCK_CELLS


class TestChainScanPaths:
    """Seed sets that take each path of the block scan, against the seed
    DAG's longest path under every budget of ``BLOCKS``; no mask exceeds
    ``_BLOCK_CELLS`` cells."""

    GRAPH = helpers.program_graph(helpers.benchmark_generators().bubble_graph(random.Random(3), 12, 200))

    def check(self, seeds, graph):
        for unit_weights in (False, True):
            expected = seed_dag_chain(seeds, graph, unit_weights)
            for block in BLOCKS:
                with patch.multiple(chaining, **block):
                    chain, largest = scan_chain(seeds, graph, unit_weights)
                assert chain == expected
                assert largest <= block["_BLOCK_CELLS"]

    @pytest.mark.parametrize("most", [1, 3], ids=["one_seed", "one_to_three_seeds"])
    def test_short_runs(self, most):
        rng = random.Random(6)
        seeds = short_runs(rng, self.GRAPH, 150, most)
        rng.shuffle(seeds)
        self.check(seeds, self.GRAPH)

    def test_a_run_longer_than_a_block(self):
        # 150 seeds over query position 80 make one run: it holds no arc
        rng = random.Random(7)
        seeds = short_runs(rng, self.GRAPH, 12)  # they end before position 60
        lengths = [rng.randint(1, 3) for _ in range(150)]
        seeds += [seed_at(rng, self.GRAPH, 80 - rng.randrange(n), n) for n in lengths]
        seeds += short_runs(rng, self.GRAPH, 12, j=85)
        rng.shuffle(seeds)
        self.check(seeds, self.GRAPH)

    @pytest.mark.parametrize("shuffled", [False, True], ids=["by_vertex", "shuffled"])
    def test_mems(self, shuffled):
        graph, seeds = bubble_mems()
        if shuffled:
            random.Random(8).shuffle(seeds)
        self.check(seeds, graph)

    def test_work_count_is_pinned(self, caplog):
        # the scan's work on a fixed instance: a change here is a change of algorithm
        graph, seeds = bubble_mems()
        with caplog.at_level(logging.INFO, logger="panlcs.chaining"):
            solve_memc(seeds, graph)
            solve_msp(seeds, graph)
        assert caplog.messages == [
            "chain: 345 seeds, 20 runs, 34436 cells scanned",
            "chain: 345 seeds, 20 runs, 34718 cells scanned",
        ]


class TestChainAtScale:
    def test_ten_thousand_seeds_in_small_memory(self):
        # the seed DAG of these seeds took 3.3 s and 425 MiB traced to build and solve
        g = helpers.program_graph(helpers.benchmark_generators().bubble_graph(random.Random(3), 300, 6000))
        rng = random.Random(4)
        seeds = []
        for _ in range(10_000):
            v = rng.randrange(g.n)
            i = rng.randrange(len(g.labels[v]))
            i2 = rng.randint(i, min(len(g.labels[v]) - 1, i + 4))
            j = rng.randrange(6000)
            seeds.append(Seed(g.ids[v], i, i2, j, j + i2 - i))
        tracemalloc.start()
        try:
            chain = solve_memc(seeds, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20
        chain.validate(g)
        assert (chain.length, chain.count) == (455, 145)  # the seed DAG's longest path


class TestNoSeedDag:
    def test_solvers_and_cli_never_build_the_seed_dag(self, monkeypatch, tmp_path, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the production path built the seed DAG")

        for module in (panlcs, chaining, daglp, cli):
            for name in ("build_seed_graph", "match_arcs", "_pair_arcs", "longest_path_vertex"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        g = parse_graph("V a abcd\nV b abcd\nE a b\n")
        seeds = (Seed("a", 0, 1, 0, 1), Seed("b", 0, 2, 4, 6), Seed("a", 0, 3, 2, 5))
        assert solve_memc(seeds, g).length == 5
        assert solve_msp(seeds, g).count == 2
        (tmp_path / "g.tsv").write_text("V a abcd\nV b abcd\nE a b\n")
        (tmp_path / "s.tsv").write_text(format_seeds(seeds))
        argv = ["chain", "--graph", str(tmp_path / "g.tsv"), "--seeds", str(tmp_path / "s.tsv"), "--json"]
        assert cli.main(argv + ["--objective", "len"]) == 0
        assert cli.main(argv + ["--objective", "count"]) == 0
        assert [line[:30] for line in capsys.readouterr().out.splitlines()] == [
            '{"problem": "memc", "score": 5',
            '{"problem": "msp", "score": 2,',
        ]


class TestSeedTable:
    def test_a_sequence_of_seeds(self):
        seeds = random_seeds(random.Random(5), TWO_VERTEX, 7)
        table = parse_seeds(format_seeds(seeds))
        assert isinstance(table, collections.abc.Sequence) and len(table) == 7
        assert tuple(table) == seeds and [table[k] for k in range(7)] == list(seeds)
        assert table[-1] == seeds[-1]
        assert tuple(table[2:5]) == seeds[2:5] and tuple(table[::-2]) == seeds[::-2]
        with pytest.raises(IndexError):
            table[7]

    def test_columns_are_read_only(self):
        table = parse_seeds("u 0 1 2 3\n")
        with pytest.raises(ValueError):
            table.j[0] = 5

    def test_of_seeds_reads_back_the_seeds(self):
        seeds = (Seed("u", 0, 2, 0, 2), Seed("w", 1, 1, 5, 5), Seed("u", 3, 3, 1, 1))
        assert tuple(SeedTable.of(seeds)) == seeds
        table = parse_seeds(format_seeds(seeds))
        assert SeedTable.of(table) is table


def scalar_validate_error(seeds, graph, query):
    """The error of the first seed that :meth:`Seed.validate` refuses."""
    for seed in seeds:
        try:
            seed.validate(graph, query)
        except (SeedError, GraphError) as exc:
            return type(exc), str(exc)
    raise AssertionError("every seed validates")


class TestBulkSeedErrors:
    """Bulk checks raise the scalar error of the first failing seed, also
    when a later seed fails a different check."""

    @pytest.mark.parametrize(
        "seeds, message",
        [
            ([Seed("u", 0, 0, 0, 0), Seed("x", 0, 0, 0, 0), Seed("u", 0, 9, 0, 9)], "unknown vertex id 'x'"),
            ([Seed("w", 3, 3, 3, 3), Seed("u", 0, 9, 0, 9), Seed("x", 0, 0, 0, 0)], "label interval exceeds"),
            ([Seed("u", 0, 0, 0, 0), Seed("w", 0, 1, 3, 4), Seed("u", 1, 1, 0, 0)], "query interval out of range"),
            ([Seed("u", 0, 1, 1, 2), Seed("w", 0, 1, 3, 4)], "matched substrings differ"),
        ],
        ids=["vertex", "label", "query", "substrings"],
    )
    def test_first_failing_seed_names_its_fault(self, seeds, message):
        query = b"abcq"
        kind, expected = scalar_validate_error(seeds, TWO_VERTEX, query)
        assert message in expected
        for given_seeds in (tuple(seeds), parse_seeds(format_seeds(seeds))):
            for solve in (solve_memc, solve_msp):
                with pytest.raises(kind, match=re.escape(expected)):
                    solve(given_seeds, TWO_VERTEX, query=query)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("u 0 0 0 0\nu 0 1 0\nu 2 1 0 0\n", "line 2: expected"),
            ("u 0 0 0 0\nu 0 x 0 0\nu 0 1 0\n", "line 2: interval bounds must be integers"),
            ("u 0 0 0 0\nu 0 1 0 0\nu 2 1 0 0\n", "line 2: seed ('u', [0,1], [0,0]): label and query intervals differ"),
            # a bound beyond int64 fails the bulk parse; the scalar parse names the first fault
            (
                "u 0 1 9223372036854775806 9223372036854775807\nu 5 4 1 18446744073709551616\nu x 0 0 0\n",
                "line 2: seed ('u', [5,4], [1,18446744073709551616]): empty or reversed",
            ),
            (
                "u 0 1 9223372036854775807 9223372036854775808\nu -1 0 0 0\n",
                "line 1: seed ('u', [0,1], [9223372036854775807,9223372036854775808]): interval bound exceeds",
            ),
            ("# c\n\nu -1 0 -1 0\nu 0 1 0 0\n", "line 3: seed ('u', [-1,0], [-1,0]): negative"),
        ],
    )
    def test_parse_errors_name_the_first_bad_line(self, text, message):
        scalar = next(filter(None, (_one_record_error(lineno, tokens) for lineno, tokens in records(text))))
        assert scalar.startswith(message)
        with pytest.raises(SeedError) as info:
            parse_seeds(text)
        assert str(info.value) == scalar
        # the same records as the S lines of an instance, on the same lines
        lines = text.splitlines(keepends=True)
        instance = "".join(line if line[:1] in "#\n" else "S " + line for line in lines)
        with pytest.raises(SeedError) as info:
            parse_instance(instance)
        assert str(info.value) == scalar


def _one_record_error(lineno, tokens):
    """The error of :func:`parse_seeds` on this record alone, at ``lineno``."""
    try:
        parse_seeds(b" ".join(tokens))
    except SeedError as exc:
        return str(exc).replace("line 1:", f"line {lineno}:", 1)
    return None
