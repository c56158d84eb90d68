from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from panlcs import daglp
from panlcs import CycleError, DagError, MatchDag, Seed, longest_path_edge, longest_path_vertex, parse_dag, parse_graph
from panlcs.chaining import build_seed_graph
from panlcs.daglp import _runs, topo_sort
from panlcs.graph import GraphError
from panlcs.lcs import match_arcs


def dag(n, arcs=(), weights=None, arc_weights=None):
    return MatchDag(weights or [1] * n, arcs, arc_weights=arc_weights)


class TestTopoSort:
    def test_chain_has_unique_order(self):
        assert topo_sort(dag(3, [(0, 1), (1, 2)])) == [0, 1, 2]

    def test_edgeless_ties_break_by_index(self):
        assert topo_sort(dag(3)) == [0, 1, 2]

    def test_cycle_names_a_back_arc(self):
        with pytest.raises(CycleError) as exc:
            topo_sort(dag(2, [(0, 1), (1, 0)]))
        assert exc.value.arc in {(0, 1), (1, 0)}
        u, v = exc.value.arc
        assert f"{u} -> {v}" in str(exc.value)

    def test_self_arc_is_a_cycle(self):
        with pytest.raises(CycleError) as exc:
            topo_sort(dag(1, [(0, 0)]))
        assert exc.value.arc == (0, 0)

    @given(st.data())
    @settings(max_examples=150)
    def test_cycle_error_names_an_arc_on_a_cycle(self, data):
        n = data.draw(st.integers(1, 8))
        node = st.integers(0, n - 1)
        cycle = data.draw(st.lists(node, min_size=1, max_size=n, unique=True))
        arcs = data.draw(st.lists(st.tuples(node, node), max_size=12))
        arcs = data.draw(st.permutations(arcs + list(zip(cycle, cycle[1:] + cycle[:1]))))
        with pytest.raises(CycleError) as exc:
            topo_sort(dag(n, arcs))
        u, v = exc.value.arc
        assert (u, v) in arcs
        seen, frontier = {v}, [v]  # BFS from the head: it must reach the tail
        while frontier:
            frontier = [y for x in frontier for a, y in arcs if a == x and y not in seen]
            seen.update(frontier)
        assert u in seen

    def test_smallest_ready_index_first(self):
        # 1 must come before 0; 2 is free and larger than both
        assert topo_sort(dag(3, [(1, 0)])) == [1, 0, 2]

    @given(helpers.match_dags(max_nodes=8))
    def test_order_is_valid_and_deterministic(self, d):
        order = topo_sort(d)
        assert sorted(order) == list(range(d.n_nodes))
        pos = {v: k for k, v in enumerate(order)}
        for u, v in d.arcs:
            assert pos[int(u)] < pos[int(v)]
        assert order == topo_sort(d)


class TestEdgeWeighted:
    def test_two_arc_sum_beats_one_arc(self):
        d = dag(3, [(0, 1), (1, 2), (0, 2)], arc_weights=[3, 4, 5])
        res = longest_path_edge(d)
        assert res.score == 7
        assert res.path == (0, 1, 2)

    def test_single_node_scores_zero(self):
        res = longest_path_edge(dag(1))
        assert res.score == 0 and res.path == (0,)

    def test_diamond_tie_breaks_to_smaller_index(self):
        d = dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)], arc_weights=[1, 1, 1, 1])
        res = longest_path_edge(d)
        assert res.score == 2
        assert res.path == (0, 1, 3)

    def test_missing_arc_weights_rejected(self):
        with pytest.raises(DagError, match="arc weights"):
            longest_path_edge(dag(2, [(0, 1)]))

    def test_empty_dag(self):
        res = longest_path_edge(dag(0))
        assert res.score == 0 and res.path == ()

    @given(helpers.match_dags(max_nodes=7, weighted_arcs=True))
    @settings(max_examples=80)
    def test_matches_path_enumeration(self, d):
        res = longest_path_edge(d)
        assert res.score == helpers.brute_longest_edge(d)
        assert helpers.path_is_valid(d, res.path)
        assert helpers.residual_ok(d, res.dist, "edge")
        assert res.score == int(res.dist.max(initial=0))


class TestVertexWeighted:
    def test_isolated_nodes_pick_heaviest(self):
        res = longest_path_vertex(dag(2, weights=[5, 2]))
        assert res.score == 5 and res.path == (0,)

    def test_full_chain(self):
        res = longest_path_vertex(dag(3, [(0, 1), (1, 2)], weights=[1, 2, 3]))
        assert res.score == 6 and res.path == (0, 1, 2)

    def test_fork_chooses_longer_branch(self):
        d = dag(4, [(0, 1), (0, 2), (2, 3)], weights=[1, 5, 2, 4])
        res = longest_path_vertex(d)
        assert res.score == 7 and res.path == (0, 2, 3)

    def test_negative_weight_rejected(self):
        with pytest.raises(DagError, match="non-negative"):
            dag(2, weights=[1, -1])

    def test_cycle_propagates(self):
        with pytest.raises(CycleError):
            longest_path_vertex(dag(2, [(0, 1), (1, 0)]))

    @given(helpers.match_dags(max_nodes=7))
    @settings(max_examples=80)
    def test_matches_path_enumeration(self, d):
        res = longest_path_vertex(d)
        assert res.score == helpers.brute_longest_vertex(d)
        assert helpers.path_is_valid(d, res.path)
        assert helpers.residual_ok(d, res.dist, "vertex")
        assert res.score == sum(int(d.weights[v]) for v in res.path)

    @given(helpers.match_dags(max_nodes=7))
    def test_deterministic_path(self, d):
        assert longest_path_vertex(d).path == longest_path_vertex(d).path


class TestAgainstPerNodeReference:
    """The solvers equal a per-node DP in Kahn order in every table, on DAGs
    whose index order is topological and on shuffled ones."""

    @staticmethod
    def check(d, mode):
        res = longest_path_edge(d) if mode == "edge" else longest_path_vertex(d)
        score, path, dist, parent = helpers.per_node_longest_path(d, mode)
        assert (res.score, res.path) == (score, path)
        assert res.dist.tolist() == dist
        assert res.parent.tolist() == parent

    @pytest.mark.parametrize("shuffled", [False, True])
    @given(data=st.data())
    @settings(max_examples=150)
    def test_vertex_weighted(self, shuffled, data):
        self.check(data.draw(helpers.match_dags(max_nodes=9, shuffled=shuffled)), "vertex")

    @pytest.mark.parametrize("shuffled", [False, True])
    @given(data=st.data())
    @settings(max_examples=150)
    def test_edge_weighted(self, shuffled, data):
        self.check(data.draw(helpers.match_dags(max_nodes=9, weighted_arcs=True, shuffled=shuffled)), "edge")

    @pytest.mark.parametrize("shuffled", [False, True])
    @given(data=st.data())
    def test_topo_order(self, shuffled, data):
        d = data.draw(helpers.match_dags(max_nodes=9, shuffled=shuffled))
        assert topo_sort(d) == helpers.kahn_order(d.n_nodes, [tuple(map(int, a)) for a in d.arcs])

    def test_index_order_when_arcs_ascend(self):
        assert topo_sort(dag(4, [(2, 3), (0, 3), (1, 2)])) == [0, 1, 2, 3]

    @pytest.mark.parametrize("arcs", [[(0, 2, 1), (1, 2, 4), (0, 2, 5)], [(2, 0, 1), (1, 0, 4), (2, 0, 5)]])
    def test_parallel_arcs_take_the_heaviest(self, arcs):
        d = dag(3, [a[:2] for a in arcs], arc_weights=[a[2] for a in arcs])
        self.check(d, "edge")
        res = longest_path_edge(d)
        assert res.score == 5 and len(res.path) == 2 and res.path[0] == arcs[0][0]

    def test_equal_sources_break_toward_smallest_index(self):
        # relabelled by topological order 1, 0, 2: node 0 still wins the tie into 2
        d = dag(3, [(1, 0), (0, 2), (1, 2)], weights=[0, 1, 1])
        self.check(d, "vertex")
        assert longest_path_vertex(d).parent.tolist() == [1, -1, 0]


def score_limit(n):
    """The exclusive bound on path scores for ``n`` nodes."""
    return 1 << (62 - n.bit_length())


def near_bound(d, mode):
    """``d`` with its weights lifted so that the score bound is just met:
    vertex weights summing to ``limit - 1``, or arc weights whose largest,
    times ``n - 1``, is at most ``limit - 1``; the drawn differences stay."""
    n, limit = d.n_nodes, score_limit(d.n_nodes)
    weights, arc_weights = d.weights.tolist(), None
    if mode == "vertex":
        base = (limit - 1 - sum(weights)) // max(n, 1)
        weights = [base + w for w in weights]
    elif d.n_arcs:
        drawn = d.arc_weights.tolist()
        base = (limit - 1) // max(n - 1, 1) - max(drawn)
        arc_weights = [base + w for w in drawn]
    return MatchDag(weights=weights, arcs=d.arcs, arc_weights=arc_weights)


class TestPackedKey:
    """The DP scatters one key per arc: the score above the source's
    tie-break bits.  Ties, parallel arcs and scores just under the bound
    must come out as in the per-node reference."""

    check = staticmethod(TestAgainstPerNodeReference.check)

    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    @pytest.mark.parametrize("shuffled", [False, True])
    @given(data=st.data())
    @settings(max_examples=100)
    def test_ties_equal_the_reference(self, mode, shuffled, data):
        # weights of 0 and 1 tie many sources at one value
        d = data.draw(helpers.match_dags(max_nodes=10, weighted_arcs=mode == "edge", max_weight=1, shuffled=shuffled))
        self.check(d, mode)

    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    @pytest.mark.parametrize("shuffled", [False, True])
    @given(data=st.data())
    @settings(max_examples=100)
    def test_scores_just_under_the_bound(self, mode, shuffled, data):
        d = data.draw(helpers.match_dags(max_nodes=9, weighted_arcs=mode == "edge", shuffled=shuffled))
        self.check(near_bound(d, mode), mode)

    @pytest.mark.parametrize("order", [[0, 1, 2, 3, 4], [4, 2, 0, 3, 1]])
    def test_many_tied_sources_pick_the_smallest_index(self, order):
        # sources order[0:4] all reach the sink order[4] with score 1, by
        # parallel arcs too; in the relabelled case the smallest original
        # index is not the first in topological order
        *sources, sink = order
        arcs = [(u, sink) for u in sources] + [(u, sink) for u in reversed(sources)]
        d = dag(5, arcs, weights=[1] * 5)
        self.check(d, "vertex")
        assert longest_path_vertex(d).parent[sink] == min(sources)

    def test_parallel_arcs_at_the_bound(self):
        top = score_limit(2) - 1  # two nodes: one arc on any path
        d = dag(2, [(0, 1), (0, 1), (0, 1)], arc_weights=[top - 1, top, top - 2])
        self.check(d, "edge")
        assert longest_path_edge(d).score == top

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
    def test_vertex_weights_at_the_bound_refused(self, n):
        limit, arcs = score_limit(n), [(k, k + 1) for k in range(n - 1)]
        weights = [limit // n] * n
        weights[0] += limit - sum(weights)  # total exactly the limit
        with pytest.raises(DagError, match="must stay below"):
            longest_path_vertex(dag(n, arcs, weights=weights))
        weights[0] -= 1
        assert longest_path_vertex(dag(n, arcs, weights=weights)).score == limit - 1

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_arc_weight_at_the_bound_refused(self, n):
        limit = score_limit(n)
        top = -(-limit // (n - 1))  # n - 1 arcs of the largest weight reach the limit
        arcs = [(k, k + 1) for k in range(n - 1)]
        with pytest.raises(DagError, match="must stay below"):
            longest_path_edge(dag(n, arcs, arc_weights=[top] + [0] * (n - 2)))
        top = (limit - 1) // (n - 1)
        assert longest_path_edge(dag(n, arcs, arc_weights=[top] * (n - 1))).score == top * (n - 1)

    def test_arc_weights_ignored_in_vertex_mode(self):
        d = dag(2, [(0, 1)], weights=[1, 1], arc_weights=[score_limit(2)])
        assert longest_path_vertex(d).score == 2
        with pytest.raises(DagError, match="must stay below"):
            longest_path_edge(d)

    @pytest.mark.parametrize("arcs", [dict(arcs=[(0, 1)], arc_weights=[2**63]), dict(arcs=[(0, 2**63)])])
    def test_beyond_int64_refused(self, arcs):
        with pytest.raises(DagError, match="64-bit"):
            MatchDag([1, 1], **arcs)


def reversed_chain(n):
    """Arcs k + 1 -> k: none ascends, so the solve relabels every node."""
    return MatchDag(weights=np.ones(n, dtype=np.int64), arcs=np.column_stack((np.arange(1, n), np.arange(n - 1))))


class TestCsrLayout:
    """The builders return int64 slice bounds and destinations of the
    narrowest unsigned dtype that spans n: the pair scan as CSR, the lcs
    builder as suffixes of shared successor lists."""

    @pytest.mark.parametrize("n, dtype", [(255, np.uint8), (256, np.uint16), (65_535, np.uint16), (65_536, np.uint32)])
    def test_successor_copy(self, n, dtype):
        # one vertex, every node at character 0 but the last: n - 1 arcs into
        # it, all held by character 0's one-entry list
        q, ci = np.arange(n), np.zeros(n, dtype=np.int64)
        ci[-1] = 1
        start, stop, targets = match_arcs(q, ci, np.zeros(2, dtype=np.int64), np.zeros((1, 1), dtype=bool))
        assert start.dtype == stop.dtype == np.int64
        assert start.tolist() == [0] * (n - 1) + [1] and stop.tolist() == [1] * n
        assert targets.dtype == dtype and targets.tolist() == [n - 1]
        d = MatchDag.from_slices(np.ones(n), start, stop, targets)
        assert d.n_arcs == n - 1 and d.arcs.tolist() == [[k, n - 1] for k in range(n - 1)]

    @pytest.mark.parametrize("n, dtype", [(255, np.uint8), (256, np.uint16)])
    def test_dense_scan(self, n, dtype):
        # query order reversed: the last node in the query, node 0, is the only arc head
        q, vert, off = np.arange(n)[::-1].copy(), np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        off[0] = 1

        def accept(lo, hi):
            return (q[lo:hi, None] < q) & (off[lo:hi, None] < off)

        indptr, dst = daglp._pair_arcs(n, accept)
        assert indptr.dtype == np.int64 and indptr.tolist() == [0] + list(range(n))
        assert dst.dtype == dtype and (dst == 0).all()

    def test_dense_scan_refused_before_the_block_past_the_limit(self, monkeypatch):
        # one row per block, 4 arcs each: the third block brings 12 one-byte destinations
        monkeypatch.setattr(daglp, "_BLOCK_CELLS", 4)
        monkeypatch.setattr("panlcs.graph.MAX_BYTES", 11)
        blocks = []

        def accept(lo, hi):
            blocks.append(lo)
            return np.ones((hi - lo, 4), dtype=bool)

        with pytest.raises(GraphError, match=r"^pair scan: 12 arcs over 4 nodes need 12 bytes, over the limit of 11$"):
            daglp._pair_arcs(4, accept)
        assert blocks == [0, 1, 2]
        monkeypatch.setattr("panlcs.graph.MAX_BYTES", 16)
        assert len(daglp._pair_arcs(4, accept)[1]) == 16

    def test_seed_graph_refused_past_the_limit(self, monkeypatch):
        g = parse_graph("V a aaa\n")
        seeds = [Seed("a", k, k, k, k) for k in range(3)]  # 3 arcs: 0 -> 1, 0 -> 2, 1 -> 2
        monkeypatch.setattr("panlcs.graph.MAX_BYTES", 2)
        with pytest.raises(GraphError, match=r"^pair scan: 3 arcs over 3 nodes need 3 bytes"):
            build_seed_graph(seeds, g)
        monkeypatch.setattr("panlcs.graph.MAX_BYTES", 3)
        assert build_seed_graph(seeds, g).n_arcs == 3

    @pytest.mark.parametrize("q_start", [[0, 0, 1, 2, 3], [3, 0, 2, 1, 0]], ids=["successor", "dense"])
    def test_builders_return_csr(self, q_start):
        q = np.array(q_start, dtype=np.int64)
        vert = np.array([0, 1, 0, 1, 0], dtype=np.int64)
        off = np.array([0, 0, 1, 1, 2], dtype=np.int64)
        if q_start == sorted(q_start):
            ci = np.array([0, 3])[vert] + off  # characters of vertex 0 ("abc") then vertex 1 ("ab")
            start, stop, targets = match_arcs(q, ci, np.array([0, 0, 0, 1, 1]), np.ones((2, 2), dtype=bool))
        else:  # seeds out of query order: the seed DAG scans every pair
            g = parse_graph("V a abc\nV b ab\nE a b\nE b a\n")  # every vertex reaches every vertex
            seeds = [Seed(g.ids[v], f, f, j, j) for j, v, f in zip(q.tolist(), vert.tolist(), off.tolist())]
            seed_dag = build_seed_graph(seeds, g)
            start, stop, targets = seed_dag.start, seed_dag.stop, seed_dag.targets
            assert start[0] == 0 and start[1:].tolist() == stop[:-1].tolist() and stop[-1] == len(targets)  # CSR
        assert start.dtype == stop.dtype == np.int64 and len(start) == len(stop) == 5 and targets.dtype == np.uint8
        expected = [
            [x, y] for x in range(5) for y in range(5) if q[x] < q[y] and (vert[x] != vert[y] or off[x] < off[y])
        ]
        assert MatchDag.from_slices(np.ones(5), start, stop, targets).arcs.tolist() == expected


class TestSharedSlices:
    """Out-arcs held as slices of one column, which may overlap, lie in any
    order and descend, solve exactly as the same arcs given as pairs."""

    # node 3 -> 2, 0, 1; node 2 -> 0, 1; node 1 -> 0: three slices of one
    # column, each a suffix of the one before, the first descending inside
    TARGETS = np.array([2, 0, 1], dtype=np.uint8)

    def test_overlapping_descending_slices(self):
        d = MatchDag.from_slices([1, 4, 2, 3], [3, 1, 1, 0], [3, 2, 3, 3], self.TARGETS)
        assert d.n_arcs == 6 and d.arcs.tolist() == [[1, 0], [2, 0], [2, 1], [3, 2], [3, 0], [3, 1]]
        pairs = MatchDag(d.weights, d.arcs)
        assert topo_sort(d) == topo_sort(pairs) == [3, 2, 1, 0]  # every arc descends: the relabel path
        res, expected = longest_path_vertex(d), longest_path_vertex(pairs)
        assert (res.score, res.path) == (expected.score, expected.path) == (10, (3, 2, 1, 0))
        assert res.dist.tolist() == expected.dist.tolist() and res.parent.tolist() == expected.parent.tolist()

    def test_back_arc_inside_a_shared_slice(self):
        # node 0 -> 2 closes the cycle 0 -> 2 -> 0 through node 2's slice
        d = MatchDag.from_slices(np.ones(4), [0, 1, 1, 0], [1, 2, 3, 3], self.TARGETS)
        for held in (d, MatchDag(d.weights, d.arcs)):
            with pytest.raises(CycleError) as exc:
                longest_path_vertex(held)
            assert exc.value.arc == (0, 2)

    @given(st.data())
    @settings(max_examples=150)
    def test_random_slices_solve_as_their_pairs(self, data):
        n = data.draw(st.integers(1, 7))
        targets = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=10)), dtype=np.uint8)
        bounds = [sorted(data.draw(st.lists(st.integers(0, len(targets)), min_size=2, max_size=2))) for _ in range(n)]
        weights = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        d = MatchDag.from_slices(weights, [a for a, _ in bounds], [b for _, b in bounds], targets)
        assert d.arcs.tolist() == [[u, int(v)] for u, (a, b) in enumerate(bounds) for v in targets[a:b]]
        pairs = MatchDag(weights, d.arcs)
        try:
            expected = longest_path_vertex(pairs)
        except CycleError as exc:
            with pytest.raises(CycleError) as held:
                longest_path_vertex(d)
            assert held.value.arc == exc.arc
            return
        res = longest_path_vertex(d)
        assert topo_sort(d) == topo_sort(pairs)
        assert (res.score, res.path, res.dist.tolist(), res.parent.tolist()) == (
            expected.score, expected.path, expected.dist.tolist(), expected.parent.tolist())

    @pytest.mark.parametrize(
        "start, stop, targets, message",
        [
            ([0, 2], [1, 1], np.array([1, 0], dtype=np.uint8), "arc slices need"),  # start past stop
            ([0, 0], [1, 3], np.array([1, 0], dtype=np.uint8), "arc slices need"),  # stop past the column
            ([-1, 0], [1, 1], np.array([1, 0], dtype=np.uint8), "arc slices need"),  # negative start
            ([0], [1], np.array([1, 0], dtype=np.uint8), "arc slices need"),  # one bound per node
            ([0, 0], [1, 1], np.array([1, 0], dtype=np.int64), "arc slices need"),  # signed targets
            ([0, 0], [0, 0], np.array([2], dtype=np.uint8), "arc endpoint 2 out of range"),  # even outside a slice
        ],
    )
    def test_slices_checked(self, start, stop, targets, message):
        with pytest.raises(DagError, match=message):
            MatchDag.from_slices(np.ones(2), start, stop, targets)


class TestRuns:
    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(*(st.integers(v + 1, n) for v in range(n)))))
    def test_runs_partition_at_the_smallest_out_neighbor(self, first_dst):
        n = len(first_dst)
        runs = list(_runs(np.array(first_dst, dtype=np.int64)))
        assert [a for a, _ in runs] == [0] + [b for _, b in runs[:-1]] and runs[-1][1] == n
        for a, b in runs:
            assert a < b
            assert min(first_dst[a:b]) >= b  # no arc inside the run
            if b < n:
                assert min(first_dst[a:b]) == b


class TestArcConversion:
    """``MatchDag(weights, arcs)`` groups (m, 2) arcs by source with a
    stable sort and permutes their weights alike."""

    @given(helpers.dag_lists(max_nodes=9, weighted_arcs=True))
    @settings(max_examples=150)
    def test_stable_grouping_and_solve(self, drawn):
        weights, arc_tuples = drawn
        d = MatchDag(weights, [arc[:2] for arc in arc_tuples], arc_weights=[arc[2] for arc in arc_tuples])
        grouped = sorted(arc_tuples, key=lambda arc: arc[0])
        assert d.arcs.tolist() == [[u, v] for u, v, _ in grouped]
        if arc_tuples:
            assert d.arc_weights.tolist() == [w for *_, w in grouped]
        assert d.targets.dtype == np.min_scalar_type(len(weights)) and d.start.dtype == d.stop.dtype == np.int64
        # the reference reads the arcs as drawn, not as converted
        drawn_dag = SimpleNamespace(
            n_nodes=len(weights),
            weights=weights,
            arcs=[arc[:2] for arc in arc_tuples],
            arc_weights=[arc[2] for arc in arc_tuples],
        )
        for mode, solve in (("vertex", longest_path_vertex), ("edge", longest_path_edge)):
            if mode == "edge" and not arc_tuples:
                continue
            res = solve(d)
            score, path, dist, parent = helpers.per_node_longest_path(drawn_dag, mode)
            assert (res.score, res.path, res.dist.tolist(), res.parent.tolist()) == (score, path, dist, parent)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_no_arcs(self, n):
        for arcs in ([], np.empty((0, 2), dtype=np.int64)):
            d = MatchDag(weights=np.ones(n), arcs=arcs)
            assert d.start.tolist() == d.stop.tolist() == [0] * n and d.n_arcs == 0 and d.arcs.shape == (0, 2)
            assert longest_path_vertex(d).score == min(n, 1)

    @pytest.mark.parametrize("arcs", [[(0, 2, 4), (1, 2, 1), (0, 2, 6)], [(2, 0, 4), (1, 0, 1), (2, 0, 6)]])
    def test_parallel_arcs_keep_their_weights(self, arcs):
        d = dag(3, [a[:2] for a in arcs], arc_weights=[a[2] for a in arcs])
        held = [[u, v, w] for (u, v), w in zip(d.arcs.tolist(), d.arc_weights.tolist())]
        assert held == [list(a) for a in sorted(arcs, key=lambda arc: arc[0])]
        res = longest_path_edge(d)
        assert res.score == 6 and res.path == arcs[2][:2]

    @pytest.mark.parametrize("n, dtype", [(255, np.uint8), (256, np.uint16), (65_535, np.uint16), (65_536, np.uint32)])
    def test_destination_dtype_at_its_bounds(self, n, dtype):
        d = reversed_chain(n)
        assert d.targets.dtype == dtype and d.arcs.tolist() == [[k + 1, k] for k in range(n - 1)]
        res = longest_path_vertex(d)
        assert res.score == n and res.path[0] == n - 1 and res.path[-1] == 0
        assert res.dist.tolist() == list(range(n, 0, -1))
        assert res.parent.tolist() == list(range(1, n)) + [-1]


class TestMatchDagValidation:
    @pytest.mark.parametrize(
        "indptr, dst, message",
        [
            ([0, 1, 1], np.array([5], dtype=np.uint8), "arc endpoint 5 out of range"),
            ([0, 1, 1], np.array([1], dtype=np.int64), "CSR arcs need"),
            ([0, 2, 1], np.array([1], dtype=np.uint8), "CSR arcs need"),
            ([0, 1], np.array([1], dtype=np.uint8), "CSR arcs need"),
            ([1, 1, 1], np.array([1], dtype=np.uint8), "CSR arcs need"),
        ],
        ids=["out-of-range", "signed", "descending", "short", "nonzero-start"],
    )
    def test_csr_checked(self, indptr, dst, message):
        with pytest.raises(DagError, match=message):
            MatchDag.from_csr(np.ones(2), np.array(indptr), dst)

    def test_arc_endpoint_out_of_range(self):
        with pytest.raises(DagError, match="out of range"):
            MatchDag(weights=np.ones(2), arcs=np.array([[0, 5]]))

    @pytest.mark.parametrize(
        "arcs, endpoint",
        [
            ([[-1, 0]], -1),  # forward, sources sorted
            ([[0, 1], [-1, 1]], -1),  # forward, sources unsorted
            ([[0, 1], [1, 0], [0, 2]], 2),  # a backward arc, largest endpoint a destination
            ([[2, 0]], 2),  # a backward arc, largest endpoint a source
            ([[1, 0], [0, -1]], -1),  # a backward arc, smallest endpoint a destination
        ],
    )
    def test_range_check_in_every_arc_order(self, arcs, endpoint):
        with pytest.raises(DagError, match=f"arc endpoint {endpoint} out of range"):
            MatchDag(weights=np.ones(2), arcs=np.array(arcs))

    def test_caller_arrays_stay_writeable(self):
        weights, arcs, arc_weights = np.array([1, 2, 3]), np.array([[0, 1], [1, 2]]), np.array([4, 5])
        d = MatchDag(weights=weights, arcs=arcs, arc_weights=arc_weights)
        for mine in (weights, arcs, arc_weights):
            assert mine.flags.writeable
        weights[0] = 0  # the caller still owns its array
        for held in (d.weights, d.arcs, d.arc_weights):
            assert not held.flags.writeable

    def test_negative_arc_weight(self):
        with pytest.raises(DagError, match="non-negative"):
            MatchDag(weights=np.ones(2), arcs=np.array([[0, 1]]), arc_weights=np.array([-2]))

    def test_payload_length_checked(self):
        with pytest.raises(DagError, match="payloads"):
            MatchDag.from_csr(np.ones(2), np.zeros(3, dtype=np.int64), np.empty(0, dtype=np.uint8), payloads=("a",))

    def test_mixed_arc_weighting_rejected(self):
        with pytest.raises(DagError, match="arc_weights must match the arc count"):
            MatchDag([1] * 3, [(0, 1), (1, 2)], arc_weights=[4])

    def test_arrays_read_only(self):
        d = dag(2, [(0, 1)])
        with pytest.raises(ValueError):
            d.weights[0] = 3


class TestParseDag:
    TEXT = "N 0 1\nN 1 2\nN 2 3\nA 0 1 3\nA 1 2 4\nA 0 2 5\n"

    def test_round_trip_solve(self):
        d = parse_dag(self.TEXT)
        assert longest_path_edge(d).score == 7
        assert longest_path_vertex(d).score == 6

    def test_default_arc_weight_is_one(self):
        d = parse_dag("N 0 1\nN 1 1\nA 0 1\n")
        assert longest_path_edge(d).score == 1

    def test_duplicate_node_rejected(self):
        with pytest.raises(DagError, match="duplicate node"):
            parse_dag("N 0 1\nN 0 2\n")

    def test_sparse_indices_rejected(self):
        with pytest.raises(DagError, match="cover 0..n-1"):
            parse_dag("N 0 1\nN 2 1\n")

    def test_junk_line_rejected(self):
        with pytest.raises(DagError, match="expected"):
            parse_dag("Z 0 1\n")

    def test_comments_ignored(self):
        d = parse_dag("# dag\nN 0 4\n")
        assert longest_path_vertex(d).score == 4
