"""Shared brute-force reference code and instance builders for the tests.

Everything here is deliberately naive (DFS, BFS, full enumeration) and
never touches the library's preprocessing or DAG machinery, so it can serve
as an independent cross-check.
"""

from __future__ import annotations

import functools
import heapq
import importlib.util
import random
import sys
from itertools import permutations
from pathlib import Path
from typing import Iterator

import numpy as np
from hypothesis import strategies as st

from panlcs import GraphError, Instance, MatchDag, PangenomeGraph, Seed, SeedError
from panlcs.graph import records, token_text
from panlcs.oracle import enumerate_mems

# ---------------------------------------------------------------------------
# graph-side references
# ---------------------------------------------------------------------------


def dfs_reach_pairs(graph: PangenomeGraph) -> set[tuple[int, int]]:
    """(u, v) pairs connected by a directed path of >= 1 edge, via DFS."""
    return {(src, node) for src, reached in enumerate(dfs_reach_sets(graph)) for node in reached}


def dfs_reach_sets(graph: PangenomeGraph) -> Iterator[set[int]]:
    """For each source vertex in index order, the vertices a directed path
    of >= 1 edge leads to, via DFS; one set at a time, so a large graph is
    checked row by row."""
    out: dict[int, list[int]] = {k: [] for k in range(graph.n)}
    for u, v in graph.edges:
        out[u].append(v)
    for src in range(graph.n):
        stack = list(out[src])
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(out[node])
        yield seen


def char_nodes_and_arcs(graph: PangenomeGraph):
    """Independent character-split construction: (chars, arcs, starts)."""
    chars: list[int] = []
    starts: list[int] = []
    for label in graph.labels:
        starts.append(len(chars))
        chars.extend(label)
    arcs: list[tuple[int, int]] = []
    for v, label in enumerate(graph.labels):
        for f in range(len(label) - 1):
            arcs.append((starts[v] + f, starts[v] + f + 1))
    for u, v in graph.edges:
        arcs.append((starts[u] + len(graph.labels[u]) - 1, starts[v]))
    return chars, arcs, starts


def bfs_char_distances(graph: PangenomeGraph) -> dict[tuple[int, int], int]:
    """All-pairs minimum arc counts between character nodes, via BFS."""
    chars, arcs, _ = char_nodes_and_arcs(graph)
    succ: dict[int, list[int]] = {k: [] for k in range(len(chars))}
    for a, b in arcs:
        succ[a].append(b)
    dists: dict[tuple[int, int], int] = {}
    for src in range(len(chars)):
        dists[(src, src)] = 0
        frontier = [src]
        depth = 0
        seen = {src}
        while frontier:
            depth += 1
            nxt = []
            for node in frontier:
                for other in succ[node]:
                    if other not in seen:
                        seen.add(other)
                        dists[(src, other)] = depth
                        nxt.append(other)
            frontier = nxt
    return dists


def char_nodes(graph: PangenomeGraph) -> list[tuple[int, int]]:
    """(vertex, offset) of every character node, in character id order."""
    return [(v, f) for v, label in enumerate(graph.labels) for f in range(len(label))]


def step_kernel(graph: PangenomeGraph) -> set[tuple[int, int]]:
    """The character-node pairs ``(x, y)`` the step rule admits: a lower
    offset on one vertex, or a DFS path of at least one edge between two
    vertices."""
    nodes, reach = char_nodes(graph), dfs_reach_pairs(graph)
    return {
        (x, y)
        for x, (u, a) in enumerate(nodes)
        for y, (v, b) in enumerate(nodes)
        if (a < b if u == v else (u, v) in reach)
    }


def ball_kernel(graph: PangenomeGraph, k2: int) -> set[tuple[int, int]]:
    """The character-node pairs at most ``k2`` arcs apart (BFS) that do not
    stay put or step back on one vertex."""
    nodes, dist = char_nodes(graph), bfs_char_distances(graph)
    return {
        (x, y)
        for (x, y), d in dist.items()
        if d <= k2 and (nodes[x][0] != nodes[y][0] or nodes[x][1] < nodes[y][1])
    }


def fglcs_rows(query: bytes, graph: PangenomeGraph, k1: int | None, k2: int | None) -> np.ndarray:
    """The fglcs longest-chain table by the all-characters row rule: row
    ``j`` is one more than every character's maximum, over its predecessors
    (:func:`ball_kernel`, or :func:`step_kernel` for an unbounded ``k2``),
    of the last ``k1`` rows (all earlier rows for an unbounded ``k1``),
    kept where the character equals ``query[j]``; at the narrowest integer
    type that holds ``len(query)``."""
    chars = np.frombuffer(b"".join(graph.labels), dtype=np.uint8)
    pred = np.zeros((len(chars), len(chars)), dtype=bool)
    for x, y in step_kernel(graph) if k2 is None else ball_kernel(graph, k2):
        pred[x, y] = True
    table = np.zeros((len(query), len(chars)), dtype=np.min_scalar_type(len(query)))
    for j, letter in enumerate(query):
        window = table[0 if k1 is None else max(0, j - k1) : j].max(axis=0, initial=0)
        best = (window[:, None] * pred).max(axis=0, initial=0)
        table[j] = np.where(chars == letter, best + 1, 0)
    return table


# ---------------------------------------------------------------------------
# DAG longest-path references
# ---------------------------------------------------------------------------


def enumerate_paths(n: int, arcs: list[tuple[int, int]]):
    """Every directed path (as a node list) of a small DAG."""
    out: dict[int, list[int]] = {k: [] for k in range(n)}
    for u, v in arcs:
        out[u].append(v)

    def walk(path):
        yield path
        for nxt in out[path[-1]]:
            yield from walk(path + [nxt])

    for start in range(n):
        yield from walk([start])


def brute_longest_vertex(dag: MatchDag) -> int:
    arcs = [tuple(map(int, a)) for a in dag.arcs]
    best = 0
    for path in enumerate_paths(dag.n_nodes, arcs):
        best = max(best, sum(int(dag.weights[v]) for v in path))
    return best


def brute_longest_edge(dag: MatchDag) -> int:
    arcs = [tuple(map(int, a)) for a in dag.arcs]
    weight = {}
    for k, (u, v) in enumerate(arcs):
        key = (u, v)
        weight[key] = max(weight.get(key, 0), int(dag.arc_weights[k]))
    best = 0
    for path in enumerate_paths(dag.n_nodes, arcs):
        total = sum(weight[(a, b)] for a, b in zip(path, path[1:]))
        best = max(best, total)
    return best


def kahn_order(n: int, arcs: list[tuple[int, int]]) -> list[int]:
    """Kahn's algorithm over a heap of ready nodes: the lexicographically
    smallest topological order (cycles leave nodes out)."""
    indeg = [0] * n
    out: dict[int, list[int]] = {k: [] for k in range(n)}
    for u, v in arcs:
        indeg[v] += 1
        out[u].append(v)
    ready = [v for v in range(n) if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    return order


def per_node_longest_path(dag: MatchDag, mode: str):
    """The longest-path DP node by node in :func:`kahn_order`: a node takes
    the first maximum over its in-arcs listed by ascending source, the path
    ends at the first maximum of ``dist``.  Returns (score, path, dist,
    parent) as plain Python values."""
    n = dag.n_nodes
    arcs = [(int(u), int(v)) for u, v in dag.arcs]
    arc_w = [int(w) for w in dag.arc_weights] if mode == "edge" and arcs else [0] * len(arcs)
    node_w = [int(w) for w in dag.weights] if mode == "vertex" else [0] * n
    in_arcs: dict[int, list[tuple[int, int]]] = {k: [] for k in range(n)}
    for (u, v), w in zip(arcs, arc_w):
        in_arcs[v].append((u, w))
    dist, parent = list(node_w), [-1] * n
    for v in kahn_order(n, arcs):
        best = None
        for u, w in sorted(in_arcs[v], key=lambda arc: arc[0]):
            if best is None or dist[u] + w > best:
                best, parent[v] = dist[u] + w, u
        if best is not None:
            dist[v] = best + node_w[v]
    if not n:
        return 0, (), dist, parent
    end = max(range(n), key=lambda k: (dist[k], -k))
    path = [end]
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    return dist[end], tuple(reversed(path)), dist, parent


def residual_ok(dag: MatchDag, dist, mode: str) -> bool:
    """Check the final dist table against the recurrence, node by node."""
    n = dag.n_nodes
    arcs = dag.arcs
    in_arcs: dict[int, list[int]] = {k: [] for k in range(n)}
    for k, (u, v) in enumerate(arcs):
        in_arcs[int(v)].append(k)
    for v in range(n):
        if mode == "edge":
            if not in_arcs[v]:
                expected = 0
            else:
                expected = max(
                    int(dist[int(arcs[k][0])]) + int(dag.arc_weights[k])
                    for k in in_arcs[v]
                )
        else:
            w = int(dag.weights[v])
            if not in_arcs[v]:
                expected = w
            else:
                expected = max(int(dist[int(arcs[k][0])]) for k in in_arcs[v]) + w
        if int(dist[v]) != expected:
            return False
    return True


def path_is_valid(dag: MatchDag, path) -> bool:
    arc_set = {tuple(map(int, a)) for a in dag.arcs}
    return all((a, b) in arc_set for a, b in zip(path, path[1:]))


# ---------------------------------------------------------------------------
# product-graph arc rules, applied directly pair by pair
# ---------------------------------------------------------------------------


def match_nodes_by_rule(query: bytes, graph: PangenomeGraph):
    """All (query index, vertex, offset) matches in the solver's order."""
    nodes = []
    for qi in range(len(query)):
        for v, label in enumerate(graph.labels):
            for f in range(len(label)):
                if query[qi] == label[f]:
                    nodes.append((qi, v, f))
    return nodes


def h_arcs_by_rule(query: bytes, graph: PangenomeGraph) -> set[tuple[int, int]]:
    reach = dfs_reach_pairs(graph)
    nodes = match_nodes_by_rule(query, graph)
    arcs = set()
    for x, (i, u, f) in enumerate(nodes):
        for y, (i2, u2, f2) in enumerate(nodes):
            if i >= i2:
                continue
            if (u == u2 and f < f2) or (u != u2 and (u, u2) in reach):
                arcs.add((x, y))
    return arcs


def hgap_arcs_by_rule(query: bytes, graph: PangenomeGraph, k1, k2) -> set[tuple[int, int]]:
    dists = bfs_char_distances(graph)
    _, _, starts = char_nodes_and_arcs(graph)
    nodes = match_nodes_by_rule(query, graph)
    k1 = float("inf") if k1 is None else k1
    k2 = float("inf") if k2 is None else k2
    arcs = set()
    for x, (i, u, f) in enumerate(nodes):
        for y, (i2, u2, f2) in enumerate(nodes):
            if not 0 < i2 - i <= k1:
                continue
            if u == u2:
                ok = 0 < f2 - f <= k2
            else:
                d = dists.get((starts[u] + f, starts[u2] + f2))
                ok = d is not None and d <= k2
            if ok:
                arcs.add((x, y))
    return arcs


# ---------------------------------------------------------------------------
# chaining references
# ---------------------------------------------------------------------------


def seed_precedes_brute(a: Seed, b: Seed, graph: PangenomeGraph) -> bool:
    if not a.j2 < b.j:
        return False
    if a.vertex == b.vertex:
        return a.i2 < b.i
    reach = dfs_reach_pairs(graph)
    return (graph.vertex_index(a.vertex), graph.vertex_index(b.vertex)) in reach


def best_chain_by_permutation(seeds, graph: PangenomeGraph, value) -> int:
    """Second chaining oracle: try every order of every subset."""
    reach = dfs_reach_pairs(graph)

    def precedes(a, b):
        if not a.j2 < b.j:
            return False
        if a.vertex == b.vertex:
            return a.i2 < b.i
        return (graph.vertex_index(a.vertex), graph.vertex_index(b.vertex)) in reach

    best = 0
    for mask in range(1 << len(seeds)):
        subset = [seeds[k] for k in range(len(seeds)) if mask >> k & 1]
        for order in permutations(subset):
            if all(precedes(a, b) for a, b in zip(order, order[1:])):
                best = max(best, sum(value(s) for s in order))
                break
    return best


# ---------------------------------------------------------------------------
# record-by-record readers: the reference for the bulk readers
# ---------------------------------------------------------------------------


def tsv_record(
    lineno: int, tokens: list[bytes], vertices: list[tuple[str, bytes]], edges: list[tuple[str, str]]
) -> None:
    """Add one ``V`` or ``E`` record to ``vertices`` or ``edges``; any
    other tag is an error naming ``lineno``."""
    tag = tokens[0]
    if tag == b"V":
        if len(tokens) < 3:
            raise GraphError(f"line {lineno}: empty label (V lines need `V <id> <label>`)")
        if len(tokens) > 3:
            raise GraphError(f"line {lineno}: labels may not contain whitespace")
        vertices.append((token_text(tokens[1]), tokens[2]))
    elif tag == b"E":
        if len(tokens) != 3:
            raise GraphError(f"line {lineno}: E lines need `E <src> <dst>`")
        edges.append((token_text(tokens[1]), token_text(tokens[2])))
    else:
        raise GraphError(f"line {lineno}: unknown record tag {token_text(tag)!r}")


def graph_by_item(vertices, edges) -> PangenomeGraph:
    """``PangenomeGraph.from_items`` one item at a time: every check of the
    constructor, in its order, before the graph is built."""
    ids: list[str] = []
    labels: list[bytes] = []
    for vid, label in vertices:
        ids.append(str(vid))
        labels.append(label.encode("latin-1") if isinstance(label, str) else bytes(label))
    index = {vid: k for k, vid in enumerate(ids)}
    idx_edges = []
    for src, dst in edges:
        for vid in (src, dst):
            if vid not in index:
                raise GraphError(f"edge endpoint {vid!r} is not a declared vertex")
        idx_edges.append((index[src], index[dst]))
    seen: set[str] = set()
    for vid in ids:
        if vid in seen:
            raise GraphError(f"duplicate vertex id {vid!r}")
        seen.add(vid)
    for vid, label in zip(ids, labels):
        if not label:
            raise GraphError(f"empty label for vertex {vid!r}")
    return PangenomeGraph(tuple(ids), tuple(labels), tuple(dict.fromkeys(idx_edges)))


def parse_graph_by_record(text: bytes | str) -> PangenomeGraph:
    """A TSV graph file, read one record at a time."""
    vertices: list[tuple[str, bytes]] = []
    edges: list[tuple[str, str]] = []
    for lineno, tokens in records(text):
        tsv_record(lineno, tokens, vertices, edges)
    return graph_by_item(vertices, edges)


def read_seeds_by_record(rows) -> list[Seed]:
    """Seed records, given as (line number, tokens), one at a time; the
    first bad record is the error."""
    seeds = []
    for lineno, tokens in rows:
        if len(tokens) != 5:
            raise SeedError(f"line {lineno}: expected `<vertex> <i> <i'> <j> <j'>`")
        try:
            seeds.append(Seed(token_text(tokens[0]), *[int(t) for t in tokens[1:]]))
        except SeedError as exc:
            raise SeedError(f"line {lineno}: {exc}") from None
        except ValueError:
            raise SeedError(f"line {lineno}: interval bounds must be integers") from None
    return seeds


def parse_instance_by_record(text: bytes | str) -> Instance:
    """An instance file, read one record at a time.  A bad S line wins over
    a bad record after it and over a bad graph."""
    vertices: list[tuple[str, bytes]] = []
    edges: list[tuple[str, str]] = []
    query: bytes | None = None
    seed_rows: list[tuple[int, list[bytes]]] = []
    try:
        for lineno, tokens in records(text):
            tag = tokens[0]
            if tag == b"Q":
                if query is not None:
                    raise GraphError(f"line {lineno}: more than one Q line")
                if len(tokens) > 2:
                    raise GraphError(f"line {lineno}: queries may not contain whitespace")
                query = tokens[1] if len(tokens) == 2 else b""
            elif tag == b"S":
                seed_rows.append((lineno, tokens[1:]))
            else:
                tsv_record(lineno, tokens, vertices, edges)
    except GraphError:
        read_seeds_by_record(seed_rows)
        raise
    seeds = tuple(read_seeds_by_record(seed_rows))
    return Instance(graph_by_item(vertices, edges), query, seeds)


# ---------------------------------------------------------------------------
# random instances (plain rng, for the big corpora)
# ---------------------------------------------------------------------------


def random_graph(
    rng: random.Random,
    max_n: int = 5,
    max_label: int = 3,
    alphabet: int = 3,
    acyclic: bool = True,
) -> PangenomeGraph:
    n = rng.randint(1, max_n)
    letters = "abcdefgh"[:alphabet]
    vertices = [
        (f"v{k}", "".join(rng.choice(letters) for _ in range(rng.randint(1, max_label))))
        for k in range(n)
    ]
    if acyclic:
        order = rng.sample(range(n), n)
        pos = {v: k for k, v in enumerate(order)}
        candidates = [(u, v) for u in range(n) for v in range(n) if pos[u] < pos[v]]
    else:
        candidates = [(u, v) for u in range(n) for v in range(n)]
    m = rng.randint(0, len(candidates))
    edges = [(f"v{u}", f"v{v}") for u, v in rng.sample(candidates, m)]
    return PangenomeGraph.from_items(vertices, edges)


def generate_instance_from_pair_list(seed: int, profile) -> Instance:
    """``generate.generate_instance`` by the direct method: list every
    candidate (u, v) pair, then sample ``edges`` of them.  Quadratic in
    memory; the generator must reproduce its instances exactly."""
    rng = random.Random(seed)
    letters = b"abcdefghijklmnopqrstuvwxyz"[: profile.alphabet]
    ids = [f"v{k}" for k in range(profile.n)]
    labels = [
        bytes(rng.choice(letters) for _ in range(rng.randint(profile.label_min, profile.label_max)))
        for _ in ids
    ]
    if profile.acyclic:
        order = rng.sample(range(profile.n), profile.n)
        position = {v: k for k, v in enumerate(order)}
        candidates = [
            (ids[u], ids[v]) for u in range(profile.n) for v in range(profile.n) if position[u] < position[v]
        ]
    else:
        candidates = [(ids[u], ids[v]) for u in range(profile.n) for v in range(profile.n)]
    edges = sorted(rng.sample(candidates, min(profile.edges, len(candidates))))
    graph = PangenomeGraph.from_items(zip(ids, labels), edges)
    query = bytes(rng.choice(letters) for _ in range(profile.query_len))
    seeds = enumerate_mems(query, graph)
    if profile.max_seeds is not None and len(seeds) > profile.max_seeds:
        picked = rng.sample(range(len(seeds)), profile.max_seeds)
        seeds = tuple(seeds[k] for k in sorted(picked))
    return Instance(graph=graph, query=query, seeds=seeds)


def bubble_chain(rng: random.Random, total: int) -> tuple[PangenomeGraph, bytes]:
    """A path of backbone vertices, each followed by a two-branch bubble,
    with ACGT labels of 3-12 characters and at least ``total`` characters in
    all; returns the graph and the spelling of its source-to-sink path
    through every first branch."""
    vertices: list[tuple[str, bytes]] = []
    edges: list[tuple[str, str]] = []
    path: list[str] = []
    ends: list[str] = []  # the previous bubble's branches

    def add() -> str:
        vid = f"v{len(vertices)}"
        vertices.append((vid, bytes(rng.choice(b"ACGT") for _ in range(rng.randint(3, 12)))))
        return vid

    while sum(len(label) for _, label in vertices) < total:
        backbone = add()
        edges.extend((end, backbone) for end in ends)
        ends = [add(), add()]
        edges.extend((backbone, end) for end in ends)
        path += [backbone, ends[0]]
    graph = PangenomeGraph.from_items(vertices, edges)
    return graph, b"".join(graph.label_of(vid) for vid in path)


@functools.cache
def benchmark_generators():
    """The benchmark's graph generators, ``perfbench/gen.py``, imported
    read-only (the benchmark directory is not a package)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def program_graph(graph) -> PangenomeGraph:
    """A benchmark generator's graph as a :class:`PangenomeGraph`."""
    return PangenomeGraph(graph.ids, graph.labels, graph.edges)


def random_query(rng: random.Random, max_len: int = 8, alphabet: int = 3) -> bytes:
    letters = b"abcdefgh"[:alphabet]
    return bytes(rng.choice(letters) for _ in range(rng.randint(0, max_len)))


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------


@st.composite
def graphs(draw, max_n=5, max_label=3, alphabet=3, acyclic=True):
    n = draw(st.integers(1, max_n))
    letters = "abcdefgh"[:alphabet]
    labels = [
        draw(st.text(alphabet=letters, min_size=1, max_size=max_label)) for _ in range(n)
    ]
    if acyclic:
        candidates = [(u, v) for u in range(n) for v in range(n) if u < v]
    else:
        candidates = [(u, v) for u in range(n) for v in range(n)]
    edges = draw(st.lists(st.sampled_from(candidates), max_size=2 * n, unique=True)) if candidates else []
    return PangenomeGraph.from_items(
        [(f"v{k}", labels[k]) for k in range(n)],
        [(f"v{u}", f"v{v}") for u, v in edges],
    )


@st.composite
def cyclic_graphs(draw, max_n=40):
    """Graphs of up to ``max_n`` one-letter vertices whose structure is
    laid out along a drawn permutation, so index order tells nothing: a
    path of some consecutive steps, cycles closed over runs of consecutive
    positions (runs that overlap or contain one another nest the cycles; a
    one-vertex run is a self-loop), and a few arbitrary edges.  Vertices
    that no edge touches stay isolated."""
    n = draw(st.integers(0, max_n))
    if not n:
        return PangenomeGraph((), (), ())
    perm = draw(st.permutations(range(n)))
    steps = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    edges = [(perm[k], perm[k + 1]) for k, step in enumerate(steps) if step]
    for _ in range(draw(st.integers(0, 5))):
        lo = draw(st.integers(0, n - 1))
        run = perm[lo : draw(st.integers(lo, n - 1)) + 1]
        edges.append((run[-1], run[0]))
        edges += zip(run, run[1:])
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=n // 4))
    return PangenomeGraph(tuple(f"v{k}" for k in range(n)), (b"a",) * n, tuple(edges))


@st.composite
def queries(draw, max_len=7, alphabet=3):
    letters = "abcdefgh"[:alphabet]
    return draw(st.text(alphabet=letters, max_size=max_len)).encode()


@st.composite
def dag_lists(draw, max_nodes=7, weighted_arcs=False, max_weight=5, shuffled=True):
    """Random DAGs as (node weights, arc tuples), parallel arcs included,
    the arcs in drawn or sorted order; with ``shuffled=False`` every arc
    ascends, as in the product DAGs of lcs and chaining."""
    n = draw(st.integers(0, max_nodes))
    perm = draw(st.permutations(list(range(n)))) if n and shuffled else list(range(n))
    candidates = [
        (perm[a], perm[b]) for a in range(n) for b in range(a + 1, n)
    ]
    arcs = draw(st.lists(st.sampled_from(candidates), max_size=2 * n)) if candidates else []
    weights = [draw(st.integers(0, max_weight)) for _ in range(n)]
    if weighted_arcs:
        arc_tuples = [(u, v, draw(st.integers(0, max_weight))) for u, v in arcs]
    else:
        arc_tuples = arcs
    if draw(st.booleans()):  # arcs in (source, destination) order, as the pair scan emits them
        arc_tuples = sorted(arc_tuples)
    return weights, arc_tuples


def match_dags(max_nodes=7, weighted_arcs=False, max_weight=5, shuffled=True):
    """:func:`dag_lists` as :class:`MatchDag` instances."""

    def build(drawn):
        weights, arc_tuples = drawn
        arc_weights = [arc[2] for arc in arc_tuples] if weighted_arcs else None
        return MatchDag(weights, [arc[:2] for arc in arc_tuples], arc_weights=arc_weights)

    return dag_lists(max_nodes, weighted_arcs, max_weight, shuffled).map(build)
