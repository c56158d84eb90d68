import random
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings

import helpers
from panlcs import daglp, lcs
from panlcs import (
    Alignment,
    AlignmentError,
    CycleError,
    GraphError,
    Seed,
    longest_path_vertex,
    parse_graph,
    solve_lcs_sg,
)
from panlcs.chaining import build_seed_graph
from panlcs.daglp import topo_sort
from panlcs.graph import build_char_graph, precedes, reachability, spell
from panlcs.lcs import build_match_graph
from panlcs.oracle import classic_lcs_dp, embeddable, lcs_sg_bruteforce
from test_acceptance import stress_instance

BLOCK_BUDGETS = [lcs._BLOCK_CELLS, 7, 1]

TWO_VERTEX = parse_graph("V a ab\nV b ba\nE a b\n")


class TestBuildMatchGraph:
    def test_zero_based_query_indexing(self):
        g = parse_graph("V v acah\n")
        dag = build_match_graph(b"xyabcahde", g)
        assert [2, 0] in dag.payloads.tolist()  # the first 'a' of the query, character 0

    def test_no_matches_gives_empty_graph(self):
        g = TWO_VERTEX
        dag = build_match_graph(b"z", g)
        assert dag.n_nodes == 0 and dag.n_arcs == 0

    def test_node_set_of_worked_example(self):
        dag = build_match_graph(b"aba", TWO_VERTEX)
        assert dag.n_nodes == 6
        # (query index, character id); characters 0, 1 are a's "ab", 2, 3 b's "ba"
        assert set(map(tuple, dag.payloads.tolist())) == {
            (0, 0),
            (2, 0),
            (1, 1),
            (0, 3),
            (2, 3),
            (1, 2),
        }

    def test_arcs_match_direct_rule_application(self):
        dag = build_match_graph(b"aba", TWO_VERTEX)
        assert set(map(tuple, dag.arcs.tolist())) == helpers.h_arcs_by_rule(b"aba", TWO_VERTEX)

    def test_unit_weights(self):
        dag = build_match_graph(b"aba", TWO_VERTEX)
        assert set(dag.weights.tolist()) == {1}

    @given(helpers.graphs(max_n=4, max_label=3, acyclic=False), helpers.queries(max_len=6))
    @settings(max_examples=60)
    def test_arc_rule_on_random_instances(self, g, q):
        dag = build_match_graph(q, g)
        assert set(map(tuple, dag.arcs.tolist())) == helpers.h_arcs_by_rule(q, g)

    @pytest.mark.parametrize("block_cells", BLOCK_BUDGETS)
    @given(g=helpers.graphs(max_n=4, max_label=3, acyclic=False), q=helpers.queries(max_len=7))
    @settings(max_examples=60)
    def test_arc_list_in_scan_order(self, block_cells, g, q):
        # a tiny block budget builds the successor lists a few keys at a
        # time and copies the arcs a few sources at a time
        with patch.object(lcs, "_BLOCK_CELLS", block_cells):
            dag = build_match_graph(q, g)
        assert dag.arcs.tolist() == [list(a) for a in sorted(helpers.h_arcs_by_rule(q, g))]

    @pytest.mark.parametrize("block_cells", BLOCK_BUDGETS)
    @pytest.mark.parametrize(
        "graph, query, out_degrees",
        [
            ("V v ab\n", b"z", []),  # no matches
            ("V v ab\n", b"a", [0]),  # a single node
            # 'd' ends the label: three sources without arcs between sources with many
            ("V v abcd\n", b"aadddbcd", [6, 6, 0, 0, 0, 2, 1, 0]),
            ("V v abcd\nV w d\nE v w\n", b"adddd", [8, 3, 0, 2, 0, 1, 0, 0, 0]),
        ],
    )
    def test_successor_copy_at_tiny_blocks(self, block_cells, graph, query, out_degrees):
        g = parse_graph(graph)

        def dense_scan(*args):
            raise AssertionError("matches ascend in the query: no dense scan")

        blocks = []  # characters per block of successor lists

        def counted(u, *args):
            blocks.append(len(u))
            return precedes(u, *args)

        with patch.object(lcs, "_BLOCK_CELLS", block_cells), patch.object(daglp, "_pair_arcs", dense_scan):
            with patch.object(lcs, "precedes", counted):
                dag = build_match_graph(query, g)
        n_keys, rows = len(set(dag.payloads[:, 1].tolist())), max(1, block_cells // max(dag.n_nodes, 1))
        assert blocks == [min(rows, n_keys - k) for k in range(0, n_keys, rows)]  # the budget match_arcs reads
        assert dag.arcs.tolist() == [list(a) for a in sorted(helpers.h_arcs_by_rule(query, g))]
        assert dag.arcs.dtype == np.int64 and dag.arcs.shape == (sum(out_degrees), 2)
        assert np.bincount(dag.arcs[:, 0], minlength=dag.n_nodes).tolist() == out_degrees

    @given(helpers.graphs(max_n=4, max_label=3, acyclic=False), helpers.queries(max_len=6))
    @settings(max_examples=60)
    def test_always_a_dag_even_on_cyclic_inputs(self, g, q):
        dag = build_match_graph(q, g)
        try:
            order = topo_sort(dag)
        except CycleError:  # pragma: no cover - the property under test
            pytest.fail("product graph must be acyclic")
        assert len(order) == dag.n_nodes


def csr_bytes(dag):
    return dag.indptr.nbytes + dag.dst.nbytes


def traced_build_and_solve(query, graph):
    """The product DAG of ``query`` and ``graph``, the traced peak of
    building it, and the traced peak of solving it above what the DAG holds."""
    reachability(graph)  # kept on the graph, so the traced build only reads it
    tracemalloc.start()
    try:
        dag = build_match_graph(query, graph)
        _, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        longest_path_vertex(dag)
        _, solve_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return dag, build_peak, solve_peak - held


class TestProductDagMemory:
    def test_peaks_at_stress_scale(self):
        # 17.4 M arcs: 279 MB as int64 pairs, 35 MB as CSR with uint16
        # destinations; a source column or any (m, 2) array would show
        g, _, q200 = stress_instance()
        dag, build_peak, solve_extra = traced_build_and_solve(q200, g)
        assert dag.n_arcs == 17_440_087 and dag.dst.dtype == np.uint16
        assert build_peak <= 1.3 * csr_bytes(dag)
        assert build_peak < 0.25 * 16 * dag.n_arcs
        assert solve_extra < csr_bytes(dag) / 3  # no whole-array pass over the arcs

    @pytest.mark.parametrize("length, bound", [(115, 1.4), (50, 2.4)])
    def test_peaks_at_benchmark_scale(self, length, bound):
        # the benchmark's lcs requests: a 50-vertex stress graph and a random
        # query over its eight letters.  Every successor list fits in one
        # character block, so the build peaks at the arc copy (|Q| = 115) or
        # at the block's precedence mask and cell indices (|Q| = 50); cell
        # indices held through the copy would show (1.8x at |Q| = 115, 3.0x
        # at |Q| = 50)
        gen, rng = helpers.benchmark_generators(), random.Random(length)
        g = helpers.program_graph(gen.stress_graph(rng, letters=b"abcdefgh"))
        dag, build_peak, solve_extra = traced_build_and_solve(gen.random_text(rng, b"abcdefgh", length), g)
        assert g.total_label_length * dag.n_nodes <= lcs._BLOCK_CELLS  # one block, whatever the characters
        assert build_peak <= bound * csr_bytes(dag)
        if length == 115:
            assert solve_extra < csr_bytes(dag) / 3

    def test_dense_scan_peak(self):
        # the |Q| = 100 matches as length-one seeds listed by vertex are not
        # in query order, so the dense scan builds their 4.06 M arcs (65 MB
        # as int64 pairs, 8 MB as CSR): it holds each block's destinations,
        # then joins them, so it peaks near twice the CSR bytes; a block's
        # int64 cell indices held into the next block would show
        g, q100, _ = stress_instance()
        cg = build_char_graph(g)
        seeds = sorted(
            (
                Seed(g.ids[cg.origin[c]], int(cg.offset[c]), int(cg.offset[c]), qi, qi)
                for qi, c in build_match_graph(q100, g).payloads.tolist()
            ),
            key=lambda s: (g.vertex_index(s.vertex), s.i, s.j),
        )

        def successor_copy(*args):
            raise AssertionError("seeds listed by vertex: no successor copy")

        tracemalloc.start()
        try:
            with patch.object(lcs, "match_arcs", successor_copy):
                dag = build_seed_graph(seeds, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(seeds) == 6_227 and dag.n_arcs == 4_061_882 and dag.dst.dtype == np.uint16
        assert peak <= 2.25 * csr_bytes(dag)


class TestRefusal:
    """The product DAG's two large allocations are refused past
    ``graph.MAX_BYTES`` before they are made."""

    # two one-letter vertices on a cycle and the query "aaaaaa": 12 matches
    # over 2 characters, 2 x 12 one-byte list entries, and 30 arcs (every
    # pair of query positions, in either direction between the vertices)
    CYCLE = parse_graph("V a a\nV b a\nE a b\nE b a\n")

    def test_successor_lists(self, monkeypatch):
        monkeypatch.setattr("panlcs.graph.MAX_BYTES", 23)
        message = r"^lcs product DAG: lists of 2 characters x 12 matches need up to 24 bytes, over the limit of 23$"
        with pytest.raises(GraphError, match=message):
            build_match_graph(b"aaaaaa", self.CYCLE)

    def test_arc_column(self, monkeypatch):
        monkeypatch.setattr("panlcs.graph.MAX_BYTES", 24)
        with pytest.raises(GraphError, match=r"^lcs product DAG: 30 arcs need 30 bytes, over the limit of 24$"):
            solve_lcs_sg(b"aaaaaa", self.CYCLE)
        monkeypatch.setattr("panlcs.graph.MAX_BYTES", 30)
        assert build_match_graph(b"aaaaaa", self.CYCLE).n_arcs == 30


class TestSolve:
    def test_single_vertex_equals_classic(self):
        g = parse_graph("V v ab\n")
        assert solve_lcs_sg(b"aba", g).score == 2 == classic_lcs_dp(b"aba", b"ab")

    def test_empty_query(self):
        alignment = solve_lcs_sg(b"", TWO_VERTEX)
        assert alignment.score == 0
        assert alignment.subsequence == b""
        assert alignment.q_positions == ()

    def test_worked_example_score_three(self):
        alignment = solve_lcs_sg(b"aba", TWO_VERTEX)
        assert alignment.score == 3
        assert alignment.subsequence == b"aba"

    def test_no_common_characters(self):
        assert solve_lcs_sg(b"zzz", TWO_VERTEX).score == 0

    def test_alignment_embeds_into_a_real_path(self):
        alignment = solve_lcs_sg(b"aba", TWO_VERTEX)
        # the reported subsequence must be a subsequence of some spelled path
        assert alignment.subsequence == b"aba"
        assert spell(TWO_VERTEX, ["a", "b"]) == b"abba"
        assert alignment.g_positions == (("a", 0), ("a", 1), ("b", 1))

    def test_deterministic(self):
        a1 = solve_lcs_sg(b"aba", TWO_VERTEX)
        a2 = solve_lcs_sg(b"aba", TWO_VERTEX)
        assert a1 == a2

    @given(helpers.graphs(max_n=4, max_label=3), helpers.queries(max_len=6))
    @settings(max_examples=60)
    def test_score_equals_bruteforce_on_acyclic(self, g, q):
        assert solve_lcs_sg(q, g).score == lcs_sg_bruteforce(q, g)

    @given(helpers.graphs(max_n=4, max_label=3), helpers.queries(max_len=6))
    @settings(max_examples=40)
    def test_reported_subsequence_is_embeddable(self, g, q):
        alignment = solve_lcs_sg(q, g)
        assert embeddable(alignment.subsequence, g)
        assert bytes(q[k] for k in alignment.q_positions) == alignment.subsequence

    def test_single_vertex_equivalence_random(self):
        rng = random.Random(5)
        for _ in range(60):
            q1 = bytes(rng.choice(b"abcd") for _ in range(rng.randint(0, 10)))
            q2 = bytes(rng.choice(b"abcd") for _ in range(rng.randint(1, 10)))
            g = parse_graph(f"V v {q2.decode()}\n")
            assert solve_lcs_sg(q1, g).score == classic_lcs_dp(q1, q2)


class TestAlignmentValidation:
    def test_solver_output_passes_validate(self):
        g = TWO_VERTEX
        alignment = solve_lcs_sg(b"aba", g)
        alignment.validate(b"aba", g)

    def test_validate_catches_character_mismatch(self):
        alignment = solve_lcs_sg(b"aba", TWO_VERTEX)
        broken = type(alignment)(
            score=alignment.score,
            subsequence=b"abz",
            q_positions=alignment.q_positions,
            g_positions=alignment.g_positions,
        )
        with pytest.raises(AlignmentError, match="mismatch"):
            broken.validate(b"aba", TWO_VERTEX)

    def test_validate_catches_non_increasing_positions(self):
        alignment = solve_lcs_sg(b"aba", TWO_VERTEX)
        broken = type(alignment)(
            score=alignment.score,
            subsequence=alignment.subsequence,
            q_positions=tuple(reversed(alignment.q_positions)),
            g_positions=alignment.g_positions,
        )
        with pytest.raises(AlignmentError, match="strictly increasing"):
            broken.validate(b"aba", TWO_VERTEX)

    def test_validate_catches_unreachable_step(self):
        g = parse_graph("V a ab\nV b ba\n")  # no edge
        alignment = solve_lcs_sg(b"aba", TWO_VERTEX)
        with pytest.raises(AlignmentError, match="not reachable"):
            alignment.validate(b"aba", g)

    @pytest.mark.parametrize(
        "g_positions, error, message",
        [
            ((("a", 9), ("z", 0)), AlignmentError, r"^position out of range$"),
            ((("z", 9), ("a", 9)), GraphError, r"^unknown vertex id 'z'$"),  # before its offset is checked
            ((("a", 1), ("z", 0)), AlignmentError, r"^character mismatch at chain position 0$"),
        ],
    )
    def test_validate_reports_the_first_bad_position(self, g_positions, error, message):
        with pytest.raises(error, match=message):
            Alignment(2, b"ab", (0, 1), g_positions).validate(b"ab", TWO_VERTEX)

    def test_validate_checks_order_without_reach(self):
        g = parse_graph("V a a\nV b b\nE a b\n")
        backwards = Alignment(2, b"ba", (0, 1), (("b", 0), ("a", 0)))
        with pytest.raises(AlignmentError, match="not reachable"):
            backwards.validate(b"ba", g)
