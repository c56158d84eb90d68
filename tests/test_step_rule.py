"""The graph-side step rule against one brute rule, the kernel.

The kernel: character ``a`` of vertex ``u`` may come before character ``b``
of vertex ``v`` when ``u == v`` and ``a < b``, or when ``u != v`` and a
depth-first search finds a path of at least one edge from ``u`` to ``v``.
``graph.precedes`` states it once.  Here it, ``Alignment.validate`` and both
fglcs predecessor relations (including their per-letter ``best``, which
restates the rule) must give the kernel's answer, cycles included.  The arc
builders and the step check of ``Chain.validate`` (on two-seed chains,
``TestStrictlyPrecedes``) are held to the same rule in ``test_lcs.py`` and
``test_chaining.py``.
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


def sources_of(pairs, c: int) -> list[int]:
    return sorted(x for x, y in pairs if y == c)


@given(cyclic_graphs)
def test_precedes_is_the_kernel(g):
    cg = build_char_graph(g)
    u, a = cg.origin, np.arange(cg.node_count)  # vertex and character id
    across = reachability(g).matrix[u[:, None], u[None, :]]
    table = precedes(u[:, None], a[:, None], u, a, across)
    assert set(zip(*map(np.ndarray.tolist, np.nonzero(table)))) == helpers.step_kernel(g)


@given(cyclic_graphs)
def test_validate_rejects_exactly_the_kernel_rejects(g):
    # without gaps the step is checked against the reachability; with gaps
    # recorded, against the character distances (the recorded graph gap is
    # the BFS distance, or 0 where none exists)
    nodes, expected, dist = helpers.char_nodes(g), helpers.step_kernel(g), helpers.bfs_char_distances(g)
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
    letters = sorted(set(b"".join(g.labels))) + [ord("z")]  # every letter of the graph, and one absent
    relations = ((_ReachRelation(g, cg), helpers.step_kernel(g)), (_BallRelation(cg, k2), helpers.ball_kernel(g, k2)))
    for relation, pairs in relations:
        for c in range(n):
            assert relation.sources(c).tolist() == sources_of(pairs, c)
        for letter in letters:
            # the per-letter query: the letter's columns, and the window's
            # maximum over the predecessors of each one that has any
            cols = [c for c in range(n) if cg.chars[c] == letter]
            assert relation.columns.get(letter, np.zeros(0)).tolist() == cols
            targets, best = relation.best(window, letter)
            assert best.dtype == window.dtype and len(best) == len(targets)
            assert {c for c in cols if sources_of(pairs, c)} <= set(targets.tolist()) <= set(cols)
            for c, value in zip(targets.tolist(), best.tolist()):
                assert value == max(window[sources_of(pairs, c)], default=0)
