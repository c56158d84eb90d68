"""The graph-side step rule against one brute rule, the kernel.

The kernel: character ``a`` of vertex ``u`` may come before character ``b``
of vertex ``v`` when ``u == v`` and ``a < b``, or when ``u != v`` and a
depth-first search finds a path of at least one edge from ``u`` to ``v``.
``graph.precedes`` states it once.  Here it, ``Alignment.validate`` and both
fglcs predecessor relations (including the running-max ``best`` that
restates the rule) must give the kernel's answer, cycles included.  The arc
builders and ``chaining.strictly_precedes`` are held to the same rule in
``test_lcs.py`` and ``test_chaining.py``.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from panlcs import Alignment, AlignmentError
from panlcs.fglcs import _BallRelation, _ReachRelation
from panlcs.graph import build_char_graph, precedes, reachability

cyclic_graphs = helpers.graphs(acyclic=False, max_n=5, max_label=3)


def char_nodes(g):
    return [(v, f) for v, label in enumerate(g.labels) for f in range(len(label))]


def kernel(g) -> set[tuple[int, int]]:
    """The character-node pairs ``(x, y)`` the step rule admits."""
    nodes, reach = char_nodes(g), helpers.dfs_reach_pairs(g)
    return {
        (x, y)
        for x, (u, a) in enumerate(nodes)
        for y, (v, b) in enumerate(nodes)
        if (a < b if u == v else (u, v) in reach)
    }


def ball_kernel(g, k2: int) -> set[tuple[int, int]]:
    """The pairs at most ``k2`` arcs apart that do not stay put or step
    back on one vertex."""
    nodes, dist = char_nodes(g), helpers.bfs_char_distances(g)
    return {
        (x, y)
        for (x, y), d in dist.items()
        if d <= k2 and (nodes[x][0] != nodes[y][0] or nodes[x][1] < nodes[y][1])
    }


def sources_of(pairs, c: int) -> list[int]:
    return sorted(x for x, y in pairs if y == c)


@given(cyclic_graphs)
def test_precedes_is_the_kernel(g):
    cg = build_char_graph(g)
    u, a = cg.origin, cg.offset
    across = reachability(g).matrix[u[:, None], u[None, :]]
    table = precedes(u[:, None], a[:, None], u, a, across)
    assert set(zip(*map(np.ndarray.tolist, np.nonzero(table)))) == kernel(g)


@given(cyclic_graphs)
def test_validate_rejects_exactly_the_kernel_rejects(g):
    # without gaps the step is checked against the reachability; with gaps
    # recorded, against the character distances (the recorded graph gap is
    # the BFS distance, or 0 where none exists)
    nodes, expected, dist = char_nodes(g), kernel(g), helpers.bfs_char_distances(g)
    for x, (u, a) in enumerate(nodes):
        for y, (v, b) in enumerate(nodes):
            query = bytes([g.labels[u][a], g.labels[v][b]])
            for gaps in (None, ((1, dist.get((x, y), 0)),)):
                alignment = Alignment(2, query, (0, 1), ((g.ids[u], a), (g.ids[v], b)), gaps)
                if (x, y) in expected:
                    alignment.validate(query, g)
                else:
                    with pytest.raises(AlignmentError):
                        alignment.validate(query, g)


@given(cyclic_graphs, st.integers(1, 4), st.data())
def test_relations_are_the_kernel(g, k2, data):
    cg = build_char_graph(g)
    n = cg.node_count
    window = np.array(data.draw(st.lists(st.integers(0, 255), min_size=n, max_size=n)), dtype=np.uint8)
    for relation, pairs in ((_ReachRelation(g, cg), kernel(g)), (_BallRelation(cg, k2), ball_kernel(g, k2))):
        best = relation.best(window)
        for c in range(n):
            sources = relation.sources(c).tolist()
            assert sources == sources_of(pairs, c)
            assert best[c] == max(window[sources], default=0)
