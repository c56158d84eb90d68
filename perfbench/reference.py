"""Independent correctness references for the benchmark's outputs.

Nothing here imports ``panlcs``.  Scores come from algorithms other than the
program's product-DAG longest paths, and feasibility is checked against the
benchmark's own graph (``gen.Graph``) with plain BFS:

* ``lcs_score``: a character-level DP over the graph in topological order;
* ``fglcs_score``: a windowed DP whose predecessors lie within ``k1`` query
  positions and ``k2`` BFS steps of the character graph;
* ``chain_score``: an O(K^2) DP over seeds sorted by query end;
* ``find_mems``: a diagonal-run maximal-exact-match finder.

Outputs are compared by score and feasibility, never byte for byte against
a reference rendering, so a change of tie-break is not a failure.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property

import numpy as np

from gen import Graph


class CheckError(AssertionError):
    """An output failed an independent correctness check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


class GraphView:
    """BFS-based reachability and character distances over a ``Graph``."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.index = {vid: k for k, vid in enumerate(graph.ids)}
        self.out = graph.out_neighbors()
        self._reach: dict[int, frozenset[int]] = {}

    def reach_from(self, u: int) -> frozenset[int]:
        """Vertices reachable from ``u`` by a path of at least one edge."""
        if u not in self._reach:
            seen: set[int] = set()
            todo = deque(self.out[u])
            while todo:
                v = todo.popleft()
                if v not in seen:
                    seen.add(v)
                    todo.extend(self.out[v])
            self._reach[u] = frozenset(seen)
        return self._reach[u]

    @cached_property
    def reach_matrix(self) -> np.ndarray:
        n = self.graph.n
        mat = np.zeros((n, n), dtype=bool)
        for u in range(n):
            mat[u, list(self.reach_from(u))] = True
        return mat

    def char_successors(self, v: int, f: int) -> list[tuple[int, int]]:
        if f + 1 < len(self.graph.labels[v]):
            return [(v, f + 1)]
        return [(w, 0) for w in self.out[v]]

    def char_distance(self, a: tuple[int, int], b: tuple[int, int], limit: int) -> int | None:
        """Fewest character-graph arcs from ``a`` to ``b`` (at least one),
        or ``None`` when ``b`` is not within ``limit`` steps."""
        frontier = {a}
        for depth in range(1, limit + 1):
            frontier = {nxt for node in frontier for nxt in self.char_successors(*node)}
            if b in frontier:
                return depth
            if not frontier:
                break
        return None

    def topo_order(self) -> list[int]:
        indeg = [0] * self.graph.n
        for _, v in self.graph.edges:
            indeg[v] += 1
        ready = deque(v for v in range(self.graph.n) if indeg[v] == 0)
        order = []
        while ready:
            u = ready.popleft()
            order.append(u)
            for v in self.out[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    ready.append(v)
        _require(len(order) == self.graph.n, "reference DPs need an acyclic graph")
        return order


# ---------------------------------------------------------------------------
# reference scores
# ---------------------------------------------------------------------------


def lcs_score(view: GraphView, query: bytes) -> int:
    """Longest common subsequence of ``query`` and any path's spelling.

    ``best[j]`` at a character is the longest common subsequence of
    ``query[:j]`` with characters at or before it; a match of ``query[j-1]``
    extends the predecessor's ``best[j-1]``.
    """
    q = np.frombuffer(query, dtype=np.uint8)
    hits = {ch: np.flatnonzero(q == ch) + 1 for ch in set(query)}
    preds: list[list[int]] = [[] for _ in range(view.graph.n)]
    for u, v in view.graph.edges:
        preds[v].append(u)
    at_end: dict[int, np.ndarray] = {}
    score = 0
    for v in view.topo_order():
        incoming = [at_end[p] for p in preds[v]]
        best = np.maximum.reduce(incoming) if incoming else np.zeros(len(q) + 1, dtype=np.int64)
        for ch in view.graph.labels[v]:
            j = hits.get(ch)
            if j is not None and len(j):
                step = best.copy()
                step[j] = np.maximum(step[j], best[j - 1] + 1)
                best = np.maximum.accumulate(step)
        at_end[v] = best
        score = max(score, int(best[-1]))
    return score


def fglcs_score(view: GraphView, query: bytes, k1: int, k2: int) -> int:
    """Longest common subsequence whose consecutive matches are at most
    ``k1`` query positions and at most ``k2`` character-graph arcs apart."""
    graph = view.graph
    starts = np.concatenate([[0], np.cumsum([len(label) for label in graph.labels])])
    nodes = [(v, f) for v in range(graph.n) for f in range(len(graph.labels[v]))]
    chars = np.frombuffer(b"".join(graph.labels), dtype=np.uint8)
    back: list[list[int]] = [[] for _ in nodes]
    for c, (v, f) in enumerate(nodes):
        for w, g in view.char_successors(v, f):
            back[int(starts[w]) + g].append(c)
    ball = []
    for c in range(len(nodes)):
        seen: set[int] = set()
        frontier = {c}
        for _ in range(k2):
            frontier = {p for node in frontier for p in back[node]}
            seen |= frontier
        ball.append(np.fromiter(sorted(seen), dtype=np.int64, count=len(seen)))
    dp = np.zeros((len(query), len(nodes)), dtype=np.int64)
    for j, ch in enumerate(query):
        window = dp[max(0, j - k1) : j]
        for c in np.flatnonzero(chars == ch):
            prev = window[:, ball[c]]
            dp[j, c] = 1 + (int(prev.max()) if prev.size else 0)
    return int(dp.max()) if dp.size else 0


def chain_score(view: GraphView, seeds: list[tuple[str, int, int, int, int]], unit: bool) -> int:
    """Best strictly ordered chain: total length, or seed count if ``unit``.

    Seed ``a`` may precede ``b`` when ``a`` ends before ``b`` starts in the
    query and, in the graph, ``a`` ends before ``b`` starts on one vertex or
    ``b``'s vertex is reachable from ``a``'s.
    """
    if not seeds:
        return 0
    ordered = sorted(seeds, key=lambda s: s[4])
    vert = np.array([view.index[s[0]] for s in ordered])
    i, i2, j, j2 = (np.array([s[k] for s in ordered]) for k in range(1, 5))
    weight = np.ones(len(ordered), dtype=np.int64) if unit else i2 - i + 1
    reach = view.reach_matrix
    best = np.zeros(len(ordered), dtype=np.int64)
    for b in range(len(ordered)):
        ok = (j2 < j[b]) & np.where(vert == vert[b], i2 < i[b], reach[vert, vert[b]])
        best[b] = weight[b] + (int(best[ok].max()) if ok.any() else 0)
    return int(best.max())


def find_mems(graph: Graph, query: bytes) -> list[tuple[str, int, int, int, int]]:
    """All maximal exact matches between ``query`` and single vertex labels,
    as ``(vertex id, i, i2, j, j2)`` with inclusive bounds, ordered by
    vertex, label start and query start.

    Along each diagonal of a label-by-query equality table a maximal run of
    equal cells is one MEM.
    """
    q = np.frombuffer(query, dtype=np.uint8)
    mems = []
    for vid, label in zip(graph.ids, graph.labels):
        eq = np.frombuffer(label, dtype=np.uint8)[:, None] == q[None, :]
        run = np.zeros((len(label) + 1, len(q) + 1), dtype=np.int64)
        for row in range(len(label) - 1, -1, -1):
            run[row, :-1] = np.where(eq[row], run[row + 1, 1:] + 1, 0)
        first = eq.copy()
        first[1:, 1:] &= ~eq[:-1, :-1]
        for a, b in zip(*np.nonzero(first)):
            n = int(run[a, b])
            mems.append((vid, int(a), int(a) + n - 1, int(b), int(b) + n - 1))
    return mems


# ---------------------------------------------------------------------------
# feasibility of emitted outputs
# ---------------------------------------------------------------------------


def check_alignment(
    view: GraphView,
    query: bytes,
    record: dict,
    score: int,
    gaps: tuple[int, int] | None = None,
) -> None:
    """Check an ``lcs``/``fglcs`` JSON record: its score equals the
    reference ``score`` and its embedding is a real common subsequence
    (within the ``(k1, k2)`` gap bounds when ``gaps`` is given)."""
    graph = view.graph
    emb = record["embedding"]
    _require(record["score"] == score, f"score {record['score']} differs from reference {score}")
    _require(len(emb) == score and len(record["subsequence"]) == score, "embedding length is not the score")
    points = []
    for t, step in enumerate(emb):
        qi, v, off = step["q"], view.index[step["vertex"]], step["offset"]
        label = graph.labels[v]
        _require(0 <= qi < len(query) and 0 <= off < len(label), f"position {t} out of range")
        _require(
            query[qi] == label[off] == ord(record["subsequence"][t]),
            f"characters differ at position {t}",
        )
        points.append((qi, v, off))
    for t, ((qa, va, fa), (qb, vb, fb)) in enumerate(zip(points, points[1:])):
        _require(qa < qb, f"query positions do not increase at step {t}")
        if va == vb:
            _require(fa < fb, f"label offsets do not increase at step {t}")
        else:
            _require(vb in view.reach_from(va), f"vertex order broken at step {t}")
        if gaps is not None:
            k1, k2 = gaps
            dg = view.char_distance((va, fa), (vb, fb), k2)
            _require(0 < qb - qa <= k1, f"query gap {qb - qa} out of bounds at step {t}")
            _require(dg is not None, f"graph gap over {k2} at step {t}")
            _require(
                record["gaps"][t] == {"dq": qb - qa, "dg": dg},
                f"recorded gaps {record['gaps'][t]} differ from measured ({qb - qa}, {dg}) at step {t}",
            )
    if gaps is not None:
        _require(len(record["gaps"]) == max(score - 1, 0), "gap records do not cover every step")


def check_chain(
    view: GraphView,
    query: bytes,
    seeds: list[tuple[str, int, int, int, int]],
    record: dict,
    unit: bool,
    score: int,
) -> None:
    """Check a ``chain`` JSON record: its score equals the reference, and
    its seeds are input seeds, exact, and strictly ordered."""
    graph = view.graph
    given = set(seeds)
    chain = [(s["vertex"], s["i"], s["i2"], s["j"], s["j2"]) for s in record["chain"]]
    _require(record["score"] == score, f"score {record['score']} differs from reference {score}")
    total = len(chain) if unit else sum(i2 - i + 1 for _, i, i2, _, _ in chain)
    _require(total == score, "chain does not add up to its score")
    for seed in chain:
        vid, i, i2, j, j2 = seed
        _require(seed in given, f"seed {seed} is not an input seed")
        _require(graph.labels[view.index[vid]][i : i2 + 1] == query[j : j2 + 1], f"seed {seed} is not exact")
    for a, b in zip(chain, chain[1:]):
        _require(a[4] < b[3], f"query order broken between {a} and {b}")
        if a[0] == b[0]:
            _require(a[2] < b[1], f"label order broken between {a} and {b}")
        else:
            _require(view.index[b[0]] in view.reach_from(view.index[a[0]]), f"graph order broken between {a} and {b}")


def mem_lines(mems: list[tuple[str, int, int, int, int]]) -> set[str]:
    return {"\t".join(map(str, m)) for m in mems}


def check_mems(expected: set[str], output: str) -> None:
    """The emitted MEM lines are exactly the reference set, each once."""
    lines = output.splitlines()
    _require(len(lines) == len(expected), f"{len(lines)} MEM lines, reference has {len(expected)}")
    _require(set(lines) == expected, "emitted MEMs differ from the reference set")
