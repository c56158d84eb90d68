import gc
import logging
import random
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import panlcs.graph
from panlcs import (
    GapParams,
    GraphError,
    PangenomeGraph,
    Seed,
    parse_dag,
    parse_graph,
    parse_instance,
    parse_seeds,
    solve_fglcs_sg,
    solve_lcs_sg,
    solve_memc,
)
from panlcs.graph import build_char_graph, char_distances, reachability, records, spell

TWO_VERTEX = "V a ab\nV b ba\nE a b\n"


class TestParseTsv:
    def test_round_trip_counts(self):
        g = parse_graph(TWO_VERTEX)
        assert g.n == 2
        assert g.total_label_length == 4
        assert g.edges == ((0, 1),)
        assert g.labels == (b"ab", b"ba")

    def test_comments_and_blank_lines_ignored(self):
        g = parse_graph("# heading\n\nV a x\n  # indented comment\nV b y\nE a b\n")
        assert g.n == 2 and len(g.edges) == 1

    def test_empty_label_rejected(self):
        with pytest.raises(GraphError, match="empty label"):
            parse_graph("V a \n")

    def test_dangling_edge_rejected(self):
        with pytest.raises(GraphError, match="not a declared vertex"):
            parse_graph("V a x\nE a b\n")

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(GraphError, match="duplicate vertex"):
            parse_graph("V a x\nV a y\n")

    def test_unknown_tag_rejected(self):
        with pytest.raises(GraphError, match="unknown record tag"):
            parse_graph("X a b\n")

    def test_duplicate_edges_collapse(self):
        g = parse_graph("V a x\nV b y\nE a b\nE a b\n")
        assert g.edges == ((0, 1),)

    def test_self_loop_allowed(self):
        g = parse_graph("V a xy\nE a a\n")
        assert g.edges == ((0, 0),)

    def test_labels_case_sensitive_bytes(self):
        g = parse_graph("V a Ab\n")
        assert g.labels[0] == b"Ab"


class TestRecords:
    """The one record rule every input format follows."""

    def test_lines_tokens_and_comments(self):
        data = b"a\r\nb\rc\n\n  # x y\n d\te\x0bf\x0cg \n#\n"
        assert list(records(data)) == [(1, [b"a"]), (2, [b"b"]), (3, [b"c"]), (6, [b"d", b"e", b"f", b"g"])]

    def test_every_other_byte_is_data(self):
        # str.split and str.splitlines would cut these as latin-1 whitespace or line breaks
        data = b"V b z\xc3\xa0\x85\nV c \x1c\x1d\x1e\x1f\nV d \xc3\x85c\n"
        assert list(records(data)) == [
            (1, [b"V", b"b", b"z\xc3\xa0\x85"]),
            (2, [b"V", b"c", b"\x1c\x1d\x1e\x1f"]),
            (3, [b"V", b"d", b"\xc3\x85c"]),
        ]
        assert list(records(data.decode("latin-1"))) == list(records(data))

    @pytest.mark.parametrize("eol", ["\r\n", "\r"])
    def test_crlf_and_cr_files_parse_as_lf_files(self, eol):
        text = "# c\n\nV a ab\nV b ba\nE a b\nQ aba\nS a 0 1 0 1\n"
        assert parse_instance(text.replace("\n", eol)) == parse_instance(text)

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_graph, "# c\n\nV a ab\n  # x\nV b\n", "line 5: empty label"),
            (
                lambda t: parse_graph(t, "gfa"),
                "# c\n\nH\tVN:Z:1.0\nS\t1\tab\nL\t1\t+\t1\t?\n",
                "line 5: bad orientation '\\?'",
            ),
            (parse_instance, "# c\n\nQ ab\nS a 0 0 0 0\nV a ab\nV b\n", "line 6: empty label"),
            (parse_instance, "# c\nQ ab\nS a 0 0 0 0\nV a ab\nX a\n", "line 5: unknown record tag 'X'"),
            (parse_seeds, "# c\n\na 0 0 0 0\na 0 1 0 0\n", "line 4: seed .* differ in length"),
            (parse_dag, "# c\n\nN 0 1\nN 0 2\n", "^line 4: duplicate node index 0$"),
            (parse_dag, "# c\n\nN 0 1\nA 0\n", "^line 4: expected `N"),
            (parse_dag, "# c\nN 0 x\n", "^line 2: invalid literal for int\\(\\) with base 10: 'x'$"),
        ],
    )
    def test_errors_name_the_line_of_the_file(self, parse, text, message):
        for eol in ("\n", "\r\n"):
            with pytest.raises(ValueError, match=message):
                parse(text.replace("\n", eol))


class TestParseGfa:
    def test_minimal_segments_and_link(self):
        g = parse_graph("S\t1\tACGT\nS\t2\tG\nL\t1\t+\t2\t+\t0M\n", fmt="gfa")
        assert g.n == 2
        assert g.total_label_length == 5
        assert g.edges == ((0, 1),)

    def test_reverse_orientation_rejected(self):
        with pytest.raises(GraphError, match="orientation"):
            parse_graph("S\t1\tAC\nS\t2\tG\nL\t1\t-\t2\t+\t0M\n", fmt="gfa")

    def test_other_records_skipped_with_warning(self, caplog):
        text = "H\tVN:Z:1.0\nS\t1\tAC\nP\tp1\t1+\t*\n"
        with caplog.at_level(logging.WARNING, logger="panlcs.graph"):
            g = parse_graph(text, fmt="gfa")
        assert g.n == 1
        assert "skipped 2" in caplog.text

    def test_unknown_format_rejected(self):
        with pytest.raises(GraphError, match="unknown graph format"):
            parse_graph("V a x\n", fmt="fasta")


class TestSpell:
    def test_two_vertex_path(self):
        g = parse_graph(TWO_VERTEX)
        assert spell(g, ["a", "b"]) == b"abba"

    def test_single_vertex_path(self):
        g = parse_graph("V a xyz\n")
        assert spell(g, ["a"]) == b"xyz"

    def test_non_edge_pair_rejected(self):
        g = parse_graph("V a x\nV c y\n")
        with pytest.raises(GraphError, match="not an edge"):
            spell(g, ["a", "c"])

    def test_empty_path_rejected(self):
        g = parse_graph("V a x\n")
        with pytest.raises(GraphError):
            spell(g, [])

    @given(helpers.graphs(acyclic=False))
    def test_spell_length_sums_labels(self, g):
        # sample an arbitrary short walk along real edges
        out = {u: [v for (a, v) in g.edges if a == u] for u in range(g.n)}
        path = [0]
        while out[path[-1]] and len(path) < 5:
            path.append(out[path[-1]][0])
        ids = [g.ids[v] for v in path]
        assert len(spell(g, ids)) == sum(len(g.labels[v]) for v in path)


class TestCharGraph:
    def test_two_vertex_example(self):
        g = parse_graph("V a ab\nV b c\nE a b\n")
        cg = build_char_graph(g)
        assert cg.node_count == 3
        assert cg.arc_count == len(g.edges) + g.total_label_length - g.n == 2
        assert sorted(map(tuple, cg.arcs.tolist())) == [[0, 1], [1, 2]] or sorted(
            map(list, cg.arcs.tolist())
        ) == [[0, 1], [1, 2]]

    def test_single_vertex(self):
        cg = build_char_graph(parse_graph("V a x\n"))
        assert cg.node_count == 1 and cg.arc_count == 0

    def test_self_loop(self):
        g = parse_graph("V a aa\nE a a\n")
        cg = build_char_graph(g)
        assert cg.node_count == 2
        assert sorted(map(list, cg.arcs.tolist())) == [[0, 1], [1, 0]]
        assert cg.arc_count == len(g.edges) + 2 - 1 == 2

    def test_node_characters_match_labels(self):
        g = parse_graph(TWO_VERTEX)
        cg = build_char_graph(g)
        for node in range(cg.node_count):
            v, f = int(cg.origin[node]), int(cg.offset[node])
            assert cg.chars[node] == g.labels[v][f]

    @given(helpers.graphs(acyclic=False, max_n=6, max_label=4))
    def test_size_identity(self, g):
        cg = build_char_graph(g)
        assert cg.node_count == g.total_label_length
        assert cg.arc_count == len(g.edges) + g.total_label_length - g.n
        arcs, _ = set(map(tuple, cg.arcs.tolist())), None
        chars, expected_arcs, _ = helpers.char_nodes_and_arcs(g)
        assert list(cg.chars) == chars
        assert arcs == set(expected_arcs)


class TestReachability:
    def test_chain(self):
        g = parse_graph("V a x\nV b y\nV c z\nE a b\nE b c\n")
        r = reachability(g)
        assert r.matrix[0, 2] and not r.matrix[2, 0]
        assert r.matrix[g.index["a"], g.index["c"]]

    def test_edgeless_all_false(self):
        r = reachability(parse_graph("V a x\nV b y\n"))
        assert not r.matrix.any()

    def test_two_cycle_reaches_itself(self):
        g = parse_graph("V a x\nV b y\nE a b\nE b a\n")
        r = reachability(g)
        assert r.matrix[0, 0] and r.matrix[1, 1]

    def test_no_self_reach_without_cycle(self):
        r = reachability(parse_graph("V a x\nV b y\nE a b\n"))
        assert not r.matrix[0, 0]

    def test_matrix_is_read_only(self):
        r = reachability(parse_graph("V a x\n"))
        with pytest.raises(ValueError):
            r.matrix[0, 0] = True

    @given(helpers.graphs(acyclic=False, max_n=8))
    def test_matches_dfs(self, g):
        r = reachability(g)
        expected = helpers.dfs_reach_pairs(g)
        actual = {(u, v) for u in range(g.n) for v in range(g.n) if r.matrix[u, v]}
        assert actual == expected

    @given(helpers.graphs(acyclic=False, max_n=6))
    def test_transitively_closed_and_covers_edges(self, g):
        m = reachability(g).matrix
        for u, v in g.edges:
            assert m[u, v]
        closed = m | (m.astype(int) @ m.astype(int) > 0)
        assert (closed == m).all()

    @given(helpers.cyclic_graphs(max_n=40))
    @settings(max_examples=150)
    def test_matches_dfs_on_nested_cycles(self, g):
        m = reachability(g).matrix
        assert m.shape == (g.n, g.n) and m.dtype == bool
        assert {tuple(pair) for pair in np.argwhere(m).tolist()} == helpers.dfs_reach_pairs(g)

    @pytest.mark.parametrize("bubbles", [300, 900])
    def test_matches_dfs_on_benchmark_bubble_graphs(self, bubbles):
        gen = helpers.benchmark_generators()
        g = helpers.program_graph(gen.bubble_graph(random.Random(1), bubbles, 6000))
        m = reachability(g).matrix
        assert m.shape == (3 * bubbles + 1,) * 2
        for src, reached in enumerate(helpers.dfs_reach_sets(g)):
            assert np.flatnonzero(m[src]).tolist() == sorted(reached)

    def test_long_path_and_cycle_without_recursion(self):
        n = 5000
        ids, labels = tuple(f"v{k}" for k in range(n)), (b"a",) * n
        path = tuple((k, k + 1) for k in range(n - 1))
        m = reachability(PangenomeGraph(ids, labels, path)).matrix
        assert (m == np.triu(np.ones((n, n), dtype=bool), 1)).all()
        assert reachability(PangenomeGraph(ids, labels, path + ((n - 1, 0),))).matrix.all()

    def test_empty_graph(self):
        m = reachability(PangenomeGraph((), (), ())).matrix
        assert m.shape == (0, 0) and m.dtype == bool

    def test_edgeless_with_self_loops(self):
        g = parse_graph("V a x\nV b y\nV c z\nE b b\n")
        assert reachability(g).matrix.tolist() == [[False] * 3, [False, True, False], [False] * 3]

    def test_refuses_an_oversized_matrix(self, monkeypatch):
        monkeypatch.setattr("panlcs.graph.MAX_BYTES", 8)
        assert not reachability(parse_graph("V a x\nV b y\n")).matrix.any()
        with pytest.raises(GraphError, match=r"^reachability: 3 vertices need 9 bytes .* limit of 8$"):
            reachability(parse_graph("V a x\nV b y\nV c z\n"))

    def test_wall_rung_4501_bubble_vertices(self):
        """A size at which a cubic closure (Floyd-Warshall) takes minutes."""
        gen = helpers.benchmark_generators()
        g = helpers.program_graph(gen.bubble_graph(random.Random(1), 1500, 10000))
        start = time.perf_counter()
        m = reachability(g).matrix
        assert time.perf_counter() - start < 5.0
        assert m.shape == (4501, 4501)
        src, dst = np.array(g.edges).T
        assert m[src, dst].all()
        assert not m.diagonal().any()  # acyclic
        assert m[0, 1:].all() and not m[1:, 0].any()  # s0 reaches every vertex
        assert not m[1, 2] and not m[2, 1]  # the two alleles of one bubble


class TestKeptOnTheGraph:
    """``reachability``, ``build_char_graph`` and ``char_distances`` compute
    once per graph instance and keep the result on it."""

    def test_repeat_calls_return_the_same_object(self):
        g = parse_graph(TWO_VERTEX)
        assert reachability(g) is reachability(g)
        assert build_char_graph(g) is build_char_graph(g)
        assert char_distances(g) is char_distances(g)

    def test_a_refusal_is_not_kept(self, monkeypatch):
        g = parse_graph("V a x\nV b y\nV c z\n")
        with monkeypatch.context() as patch:
            patch.setattr(panlcs.graph, "MAX_BYTES", 8)
            for _ in range(2):
                with pytest.raises(GraphError, match="over the limit of 8"):
                    reachability(g)
        assert reachability(g).matrix.shape == (3, 3)

    def test_kept_per_instance(self):
        g = parse_graph("V a x\nV b y\nE a b\n")
        assert not reachability(g).matrix[1, 0]
        cycle = PangenomeGraph(g.ids, g.labels, g.edges + ((1, 0),))
        assert reachability(cycle).matrix.all() and not reachability(g).matrix[1, 0]
        assert build_char_graph(cycle).arc_count == build_char_graph(g).arc_count + 1

    def test_no_module_level_cache_keeps_a_graph_alive(self):
        g = parse_graph("V only here\nE only only\n")  # equal to no other test's graph
        reachability(g), build_char_graph(g)
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None

    def test_a_batch_of_queries_computes_the_closure_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return strong_components(*args)

        strong_components = panlcs.graph._strong_components
        monkeypatch.setattr(panlcs.graph, "_strong_components", counted)
        g = parse_graph(TWO_VERTEX)
        assert [solve_lcs_sg(query, g).score for query in (b"aba", b"abb", b"abba")] == [3, 3, 4]
        assert solve_memc((Seed("a", 0, 1, 0, 1), Seed("b", 0, 1, 2, 3)), g).count == 2
        assert solve_fglcs_sg(b"abba", g, GapParams(None, None)).score == 4
        assert len(calls) == 1


class TestCharDistances:
    def test_within_one_label(self):
        cd = char_distances(parse_graph("V v abcd\n"))
        assert cd[0, 3] == 3

    def test_across_edge(self):
        g = parse_graph("V a ab\nV b c\nE a b\n")
        cd = char_distances(g)
        assert cd[0, 2] == 2  # node 2 is (b, 0)

    def test_unreachable_pair_absent(self):
        g = parse_graph("V a x\nV b y\n")
        cd = char_distances(g)
        assert np.isinf(cd[0, 1])

    def test_diagonal_zero_intra_one(self):
        cd = char_distances(parse_graph("V v abc\n"))
        assert cd[0, 0] == 0
        assert cd[0, 1] == 1
        assert cd[1, 2] == 1

    @given(helpers.graphs(acyclic=False, max_n=5, max_label=4))
    def test_matches_bfs(self, g):
        cd = char_distances(g)
        expected = helpers.bfs_char_distances(g)
        total = g.total_label_length
        for a in range(total):
            for b in range(total):
                assert cd[a, b] == expected.get((a, b), np.inf)

    @given(helpers.graphs(acyclic=False, max_n=4, max_label=3))
    def test_triangle_inequality(self, g):
        m = char_distances(g)
        total = g.total_label_length
        for a in range(total):
            for b in range(total):
                via = (m[a, :] + m[:, b]).min() if total else np.inf
                assert m[a, b] <= via or np.isinf(via)


class TestCharGraphDistances:
    """The breadth-first distance queries against the independent BFS
    reference of the helpers."""

    @given(helpers.graphs(acyclic=False, max_n=5, max_label=4))
    def test_distance_matches_bfs(self, g):
        # the id difference on one vertex, which forward is the BFS distance
        cg = build_char_graph(g)
        expected = helpers.bfs_char_distances(g)
        for a in range(cg.node_count):
            for b in range(cg.node_count):
                if cg.origin[a] != cg.origin[b]:
                    assert cg.distance(a, b) == expected.get((a, b))
                else:
                    assert cg.distance(a, b) == b - a and (a > b or expected[(a, b)] == b - a)

    @given(helpers.graphs(acyclic=False, max_n=5, max_label=4), st.integers(1, 6))
    def test_ball_pairs_are_the_pairs_within_radius(self, g, radius):
        src, dst = build_char_graph(g).ball_pairs(radius)
        expected = sorted(
            (b, a) for (a, b), d in helpers.bfs_char_distances(g).items() if 1 <= d <= radius
        )
        assert list(zip(dst.tolist(), src.tolist())) == expected  # sorted by dst, then src

    def test_empty_graph_has_no_pairs(self):
        src, dst = build_char_graph(PangenomeGraph((), (), ())).ball_pairs(3)
        assert len(src) == len(dst) == 0


class TestConstruction:
    def test_from_items_coerces_str_labels(self):
        g = PangenomeGraph.from_items([("a", "xy")], [])
        assert g.labels == (b"xy",)

    def test_direct_construction_validates(self):
        with pytest.raises(GraphError, match="empty label"):
            PangenomeGraph(ids=("a",), labels=(b"",), edges=())
        with pytest.raises(GraphError, match="missing vertex"):
            PangenomeGraph(ids=("a",), labels=(b"x",), edges=((0, 5),))

    def test_unknown_vertex_lookup(self):
        g = parse_graph("V a x\n")
        with pytest.raises(GraphError, match="unknown vertex"):
            g.vertex_index("zz")

    def test_cached_counts_match_recomputation(self):
        g = parse_graph(TWO_VERTEX)
        assert g.n == len(g.ids) == len(g.labels)
        assert g.total_label_length == sum(len(x) for x in g.labels)

    def test_graph_is_hashable(self):
        assert parse_graph(TWO_VERTEX) == parse_graph(TWO_VERTEX)
        assert hash(parse_graph(TWO_VERTEX)) == hash(parse_graph(TWO_VERTEX))
