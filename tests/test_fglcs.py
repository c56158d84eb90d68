import random
import tracemalloc
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import panlcs
import panlcs.fglcs
import panlcs.graph
from panlcs import (
    Alignment,
    GapParams,
    longest_path_vertex,
    parse_graph,
    solve_fglcs_sg,
    solve_lcs_sg,
)
from panlcs.daglp import topo_sort
from panlcs.fglcs import _BallRelation, _fill_table, _ReachRelation, build_gap_match_graph
from panlcs.graph import GraphError, build_char_graph, char_distances
from panlcs.lcs import alignment_from_points, build_match_graph
from panlcs.oracle import fglcs_bruteforce

K_GRID = [1, 2, 3, None]


def reference_solve(q, g, gaps):
    """The paper's reduction: longest path in the gap-bounded product DAG,
    each step's graph gap read from the dense distances."""
    dag = build_gap_match_graph(q, g, gaps)
    if dag.n_nodes == 0:
        return Alignment(0, b"", (), (), gaps=())
    points = dag.payloads[list(longest_path_vertex(dag).path)].tolist()
    dist = char_distances(g)
    steps = tuple((j2 - j, int(dist[c, c2])) for (j, c), (j2, c2) in zip(points, points[1:]))
    return replace(alignment_from_points(q, g, points), gaps=steps)


@pytest.fixture()
def no_dense_path(monkeypatch):
    """Make the dense reference construction fail if the solver reaches it."""

    def refuse(*args, **kwargs):
        raise AssertionError("the solver called the dense reference construction")

    for module in (panlcs, panlcs.fglcs, panlcs.graph):
        for name in ("char_distances", "build_gap_match_graph"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


class TestGapParams:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="k1"):
            GapParams(0, 1)
        with pytest.raises(ValueError, match="k2"):
            GapParams(3, -1)

    def test_parse_bound(self):
        assert GapParams.parse_bound("inf") is None
        assert GapParams.parse_bound("INF") is None
        assert GapParams.parse_bound("5") == 5
        with pytest.raises(ValueError, match="integer or 'inf'"):
            GapParams.parse_bound("five")

    def test_unbounded_limits(self):
        k = GapParams.unbounded()
        assert k.k1_limit == float("inf") and k.k2_limit == float("inf")


class TestBuildGapGraph:
    def test_unbounded_equals_plain_construction(self):
        g = parse_graph("V a ab\nV b ba\nE a b\n")
        plain = build_match_graph(b"aba", g)
        gapped = build_gap_match_graph(b"aba", g, GapParams.unbounded())
        assert plain.payloads.tolist() == gapped.payloads.tolist()
        assert set(map(tuple, plain.arcs.tolist())) == set(map(tuple, gapped.arcs.tolist()))

    def test_intra_vertex_gap_bound(self):
        g = parse_graph("V v axxb\n")
        dag2 = build_gap_match_graph(b"ab", g, GapParams(None, 2))
        dag3 = build_gap_match_graph(b"ab", g, GapParams(None, 3))
        assert dag2.n_arcs == 0  # label gap between 'a' and 'b' is 3
        assert dag3.n_arcs == 1

    @given(
        helpers.graphs(max_n=4, max_label=3, acyclic=False),
        helpers.queries(max_len=5),
        st.sampled_from(K_GRID),
        st.sampled_from(K_GRID),
    )
    @settings(max_examples=60)
    def test_arcs_match_direct_rule(self, g, q, k1, k2):
        dag = build_gap_match_graph(b"" + q, g, GapParams(k1, k2))
        assert set(map(tuple, dag.arcs.tolist())) == helpers.hgap_arcs_by_rule(q, g, k1, k2)

    @given(
        helpers.graphs(max_n=4, max_label=3, acyclic=False),
        helpers.queries(max_len=5),
    )
    @settings(max_examples=40)
    def test_gap_arcs_are_subset_of_plain_arcs_and_acyclic(self, g, q):
        plain = build_match_graph(q, g)
        gapped = build_gap_match_graph(b"" + q, g, GapParams(2, 2))
        assert set(map(tuple, gapped.arcs.tolist())) <= set(map(tuple, plain.arcs.tolist()))
        assert len(topo_sort(gapped)) == gapped.n_nodes

    @given(
        helpers.graphs(max_n=4, max_label=3, acyclic=False),
        helpers.queries(max_len=5),
    )
    @settings(max_examples=40)
    def test_unbounded_arcs_equal_plain_even_on_cycles(self, g, q):
        plain = build_match_graph(q, g)
        gapped = build_gap_match_graph(q, g, GapParams.unbounded())
        assert set(map(tuple, plain.arcs.tolist())) == set(map(tuple, gapped.arcs.tolist()))


class TestSolve:
    def test_unbounded_matches_lcs_score(self):
        g = parse_graph("V a ab\nV b ba\nE a b\n")
        assert solve_fglcs_sg(b"aba", g, GapParams.unbounded()).score == solve_lcs_sg(b"aba", g).score

    def test_adjacent_run(self):
        g = parse_graph("V v abc\n")
        alignment = solve_fglcs_sg(b"abc", g, GapParams(1, 1))
        assert alignment.score == 3
        assert alignment.gaps == ((1, 1), (1, 1))

    def test_intra_gap_scores(self):
        g = parse_graph("V v axxb\n")
        assert solve_fglcs_sg(b"ab", g, GapParams(None, 2)).score == 1
        alignment = solve_fglcs_sg(b"ab", g, GapParams(None, 3))
        assert alignment.score == 2
        assert alignment.gaps == ((1, 3),)

    def test_gaps_recorded_across_vertices(self):
        g = parse_graph("V a ax\nV b b\nE a b\n")
        alignment = solve_fglcs_sg(b"ab", g, GapParams.unbounded())
        assert alignment.score == 2
        assert alignment.gaps == ((1, 2),)  # a[0] -> x -> b[0] is two arcs

    def test_invalid_params_rejected(self):
        g = parse_graph("V v a\n")
        with pytest.raises(ValueError):
            solve_fglcs_sg(b"a", g, GapParams(0, 0))

    @given(
        helpers.graphs(max_n=4, max_label=3),
        helpers.queries(max_len=6),
        st.sampled_from(K_GRID),
        st.sampled_from(K_GRID),
    )
    @settings(max_examples=60)
    def test_score_equals_bruteforce(self, g, q, k1, k2):
        gaps = GapParams(k1, k2)
        assert solve_fglcs_sg(q, g, gaps).score == fglcs_bruteforce(q, g, gaps)

    @given(
        helpers.graphs(max_n=4, max_label=3),
        helpers.queries(max_len=6),
        st.sampled_from([1, 2, 3]),
        st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=40)
    def test_monotone_in_bounds(self, g, q, k1, k2):
        small = solve_fglcs_sg(q, g, GapParams(k1, k2)).score
        wider = solve_fglcs_sg(q, g, GapParams(k1 + 1, k2 + 1)).score
        assert wider >= small

    @given(helpers.graphs(max_n=4, max_label=3), helpers.queries(max_len=6))
    @settings(max_examples=40)
    def test_output_gaps_respect_bounds(self, g, q):
        gaps = GapParams(2, 2)
        alignment = solve_fglcs_sg(q, g, gaps)
        assert alignment.gaps is not None  # always recorded, possibly empty
        assert len(alignment.gaps) == max(alignment.score - 1, 0)
        for dq, dg in alignment.gaps:
            assert 0 < dq <= 2
            assert 0 < dg <= 2


class TestTableDp:
    """The row DP against the product-DAG reduction it replaces."""

    @given(
        helpers.graphs(acyclic=False),
        helpers.queries(max_len=10),
        st.sampled_from(K_GRID),
        st.sampled_from(K_GRID),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_product_dag_alignment(self, g, q, k1, k2):
        gaps = GapParams(k1, k2)
        expected = reference_solve(q, g, gaps)
        assert solve_fglcs_sg(q, g, gaps) == expected  # score, embedding and gaps
        if k1 is None and k2 is None:
            lcs = solve_lcs_sg(q, g)
            assert (expected.q_positions, expected.g_positions) == (lcs.q_positions, lcs.g_positions)

    @given(
        st.one_of(helpers.cyclic_graphs(max_n=12), helpers.graphs(acyclic=False)),
        helpers.queries(max_len=8, alphabet=4),  # "d" is absent from every graph, "b" and "c" from the one-letter ones
    )
    @settings(max_examples=100, deadline=None)
    def test_table_equals_the_row_rule(self, g, q):
        cg = build_char_graph(g)
        for k2 in K_GRID:
            relation = _ReachRelation(g, cg) if k2 is None else _BallRelation(cg, k2)
            for k1 in K_GRID:
                table = _fill_table(np.frombuffer(q, dtype=np.uint8), cg, k1, relation)
                expected = helpers.fglcs_rows(q, g, k1, k2)
                assert table.dtype == expected.dtype and np.array_equal(table, expected), (k1, k2)

    def test_dense_reference_is_not_called(self, no_dense_path):
        g = parse_graph("V a ab\nV b ba\nE a b\nE b a\n")
        for k1 in K_GRID:
            for k2 in K_GRID:
                assert solve_fglcs_sg(b"abab", g, GapParams(k1, k2)).score >= 2

    def test_bounded_k2_computes_no_reachability(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a finite k2 needs no vertex closure")

        monkeypatch.setattr(panlcs.graph, "_strong_components", refuse)
        g = parse_graph("V a ab\nV b ba\nE a b\nE b a\n")
        for k1 in K_GRID:
            assert solve_fglcs_sg(b"abab", g, GapParams(k1, 2)).score >= 2

    def test_wall_size_path_copy(self, no_dense_path):
        # 4,000 characters: the dense distance matrix would hold 16 M entries
        g, spelled = helpers.bubble_chain(random.Random(11), 4000)
        assert g.total_label_length >= 4000 and len(spelled) >= 500
        query = spelled[:500]
        for gaps in (GapParams(1, 1), GapParams(3, 3)):
            alignment = solve_fglcs_sg(query, g, gaps)
            assert alignment.score == 500 and alignment.subsequence == query

    def test_table_uses_narrowest_integer_type(self, monkeypatch):
        tables = []
        fill = panlcs.fglcs._fill_table
        monkeypatch.setattr(panlcs.fglcs, "_fill_table", lambda *args: tables.append(fill(*args)) or tables[-1])
        g = parse_graph("V a ab\nV b ab\nE a b\nE b a\n")  # spells (ab)* along the cycle
        assert solve_fglcs_sg(b"ab" * 127, g, GapParams(1, 1)).score == 254
        assert solve_fglcs_sg(b"ab" * 128, g, GapParams(1, 1)).score == 256
        assert [t.dtype for t in tables] == [np.uint8, np.uint16]

    def test_unbounded_gap_memory_stays_near_the_reach_matrix(self):
        # the reach relation holds the V x V matrix once, and each row's
        # maximum over it is taken at the table's dtype, not at int64
        g = helpers.program_graph(helpers.benchmark_generators().bubble_graph(random.Random(1), 500, 3000))
        rng = random.Random(2)
        query = bytes(rng.choice(b"ACGT") for _ in range(40))
        tracemalloc.start()
        try:
            alignment = solve_fglcs_sg(query, g, GapParams(None, None))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.n == 1501 and alignment.score == len(query)
        assert peak <= 3 * g.n**2


class TestBoundNormalization:
    """A bound no step can exceed solves as no bound: ``k1`` from the query
    span ``len(q) - 1`` on, ``k2`` from the character span
    ``node_count - 1`` on."""

    @given(
        helpers.graphs(acyclic=False),
        helpers.queries(max_len=10),
        st.integers(0, 3),
        st.sampled_from(K_GRID),
    )
    @settings(max_examples=100, deadline=None)
    def test_k1_at_the_query_span(self, g, q, extra, k2):
        k1 = max(1, len(q) - 1) + extra
        fill = panlcs.fglcs._fill_table
        with patch.object(panlcs.fglcs, "_fill_table", wraps=fill) as spy:
            bounded = solve_fglcs_sg(q, g, GapParams(k1, k2))
        assert spy.call_args.args[2] is None
        assert bounded == solve_fglcs_sg(q, g, GapParams(None, k2))

    @given(
        helpers.graphs(acyclic=False),
        helpers.queries(max_len=10),
        st.integers(0, 3),
        st.sampled_from(K_GRID),
    )
    @settings(max_examples=100, deadline=None)
    def test_k2_at_the_character_span(self, g, q, extra, k1):
        k2 = max(1, build_char_graph(g).node_count - 1) + extra

        def refuse(*args):
            raise AssertionError("a k2 no step can exceed built the ball relation")

        with patch.object(panlcs.fglcs, "_BallRelation", refuse):
            bounded = solve_fglcs_sg(q, g, GapParams(k1, k2))
        assert bounded == solve_fglcs_sg(q, g, GapParams(k1, None))

    def test_huge_k1_reaches_the_table_as_none(self):
        fill = panlcs.fglcs._fill_table
        g = parse_graph("V a ab\nV b ba\nE a b\nE b a\n")
        with patch.object(panlcs.fglcs, "_fill_table", wraps=fill) as spy:
            alignment = solve_fglcs_sg(b"abab", g, GapParams(10**9, 2))
        assert spy.call_args.args[2] is None
        assert alignment == solve_fglcs_sg(b"abab", g, GapParams(None, 2))


class TestRefusal:
    """The table and the radius-``k2`` balls are refused past
    ``graph.MAX_BYTES`` before they are allocated."""

    def test_table(self, monkeypatch):
        # unbounded k2 reads the 1-byte reachability; the table is 4 x 3 bytes
        g = parse_graph("V a aaa\n")
        monkeypatch.setattr("panlcs.graph.MAX_BYTES", 11)
        message = r"^fglcs table: 4 query rows x 3 characters need 12 bytes, over the limit of 11$"
        with pytest.raises(GraphError, match=message):
            solve_fglcs_sg(b"aaaa", g, GapParams(1, None))
        monkeypatch.setattr("panlcs.graph.MAX_BYTES", 12)
        assert solve_fglcs_sg(b"aaaa", g, GapParams(1, None)).score == 3

    def test_ball_rounds(self, monkeypatch):
        # 4 characters on a path: depth 1 expands 3 arcs (3 int64 keys),
        # depth 2 the 2 arcs past them
        g = parse_graph("V a aaaa\n")
        monkeypatch.setattr("panlcs.graph.MAX_BYTES", 23)
        message = r"^radius-2 balls: depth 1 needs 24 bytes for 3 candidate pairs, over the limit of 23$"
        with pytest.raises(GraphError, match=message):
            build_char_graph(g).ball_pairs(2)
        with pytest.raises(GraphError, match=message):
            solve_fglcs_sg(b"aaa", g, GapParams(1, 2))
        monkeypatch.setattr("panlcs.graph.MAX_BYTES", 24)
        assert [a.tolist() for a in build_char_graph(g).ball_pairs(2)] == [[0, 0, 1, 1, 2], [1, 2, 2, 3, 3]]
        assert solve_fglcs_sg(b"aaa", g, GapParams(1, 2)).score == 3
