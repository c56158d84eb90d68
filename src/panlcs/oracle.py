"""Independent brute-force references for all four solver problems.

Everything here recomputes answers from first principles: subsequences are
enumerated, reachability is rediscovered by breadth-first search, and seed
subsets are tested exhaustively.  None of the solver machinery (product
DAGs, topological sorting, longest-path programs, dense matrices) is used,
so an agreement between a solver and its oracle is meaningful evidence.
The only pieces shared with the solvers are the input data types.

Per-graph tables (character successors, reach masks, BFS distances,
vertex reach sets, and the gap profiles of the last query) are memoized
only for as long as their graph lives: they hang off a weak reference to
it, so a dropped graph frees them, and no memo keeps a graph alive.

The exhaustive oracles (subsequence enumeration, subset search) refuse
an instance beyond the fixed caps :data:`MAX_QUERY`, :data:`MAX_VERTICES`,
:data:`MAX_LABEL_TOTAL` and :data:`MAX_SEEDS` with :class:`OracleError`
rather than silently truncating.  The subsequence oracles additionally
refuse cyclic graphs, where walk-based embeddings and path-based solving
may legitimately disagree.  :func:`enumerate_mems` runs in polynomial time
and has no cap.
"""

from __future__ import annotations

import weakref
from functools import wraps
from itertools import combinations
from math import inf

from .chaining import Seed
from .fglcs import GapParams
from .graph import PangenomeGraph


class OracleError(ValueError):
    """A size cap exceeded, or an instance the oracle refuses to evaluate."""


# caps on query characters, graph vertices, label characters and seeds
MAX_QUERY, MAX_VERTICES, MAX_LABEL_TOTAL, MAX_SEEDS = 12, 6, 16, 12


def _check_size(query: bytes = b"", graph: PangenomeGraph | None = None, seeds: tuple[Seed, ...] = ()) -> None:
    """Refuse an instance beyond the caps.  Callers check before any cached
    work: the caps are no part of a cache key, so an answer cached under
    raised caps must not be returned once they are back."""
    sizes = [(len(query), MAX_QUERY, "query length {}"), (len(seeds), MAX_SEEDS, "{} seeds")]
    if graph is not None:
        sizes += [(graph.n, MAX_VERTICES, "{} vertices")]
        sizes += [(graph.total_label_length, MAX_LABEL_TOTAL, "{} label characters")]
    for size, cap, what in sizes:
        if size > cap:
            raise OracleError(f"budget exceeded: {what.format(size)} > {cap}")


def classic_lcs_dp(a: bytes, b: bytes) -> int:
    """Textbook quadratic LCS length between two sequences."""
    if len(b) < len(a):
        a, b = b, a
    prev = [0] * (len(a) + 1)
    for ch in b:
        cur = [0]
        for k, ca in enumerate(a):
            if ca == ch:
                cur.append(prev[k] + 1)
            else:
                cur.append(max(prev[k + 1], cur[k]))
        prev = cur
    return prev[-1]


_tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # graph -> {name: (args, table)}


def _per_graph(compute):
    """``compute(graph, *args)``, kept for the last ``args`` as long as
    ``graph`` lives."""

    @wraps(compute)
    def kept(graph: PangenomeGraph, *args):
        tables = _tables.setdefault(graph, {})
        entry = tables.get(compute.__name__)
        if entry is None or entry[0] != args:
            entry = tables[compute.__name__] = (args, compute(graph, *args))
        return entry[1]

    return kept


# ---------------------------------------------------------------------------
# character-level machinery, rebuilt with plain BFS/DFS
# ---------------------------------------------------------------------------


@_per_graph
def _char_table(graph: PangenomeGraph) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(characters, successor lists) with one entry per label character."""
    chars: list[int] = []
    starts: list[int] = []
    for label in graph.labels:
        starts.append(len(chars))
        chars.extend(label)
    succ: list[list[int]] = [[] for _ in chars]
    for v, label in enumerate(graph.labels):
        for f in range(len(label) - 1):
            succ[starts[v] + f].append(starts[v] + f + 1)
    for u, v in graph.edges:
        succ[starts[u] + len(graph.labels[u]) - 1].append(starts[v])
    return tuple(chars), tuple(tuple(s) for s in succ)


@_per_graph
def _char_reach_masks(graph: PangenomeGraph) -> tuple[int, ...]:
    """Per character node, the bitmask of nodes reachable by >= 1 arc."""
    _, succ = _char_table(graph)
    masks: list[int] = []
    for src in range(len(succ)):
        seen: set[int] = set()
        frontier = list(succ[src])
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(succ[node])
        masks.append(sum(1 << node for node in seen))
    return tuple(masks)


@_per_graph
def _char_bfs_dists(graph: PangenomeGraph) -> tuple[tuple[float, ...], ...]:
    """All-pairs minimum arc counts between character nodes, by BFS."""
    _, succ = _char_table(graph)
    n = len(succ)
    rows: list[tuple[float, ...]] = []
    for src in range(n):
        dist = [inf] * n
        dist[src] = 0
        queue = [src]
        while queue:
            nxt: list[int] = []
            for node in queue:
                for other in succ[node]:
                    if dist[other] == inf:
                        dist[other] = dist[node] + 1
                        nxt.append(other)
            queue = nxt
        rows.append(tuple(dist))
    return tuple(rows)


@_per_graph
def _vertex_reach_sets(graph: PangenomeGraph) -> dict[str, frozenset[str]]:
    """Per vertex id, the ids reachable through >= 1 edge, by BFS."""
    out: dict[int, list[int]] = {k: [] for k in range(graph.n)}
    for u, v in graph.edges:
        out[u].append(v)
    result: dict[str, frozenset[str]] = {}
    for src in range(graph.n):
        seen: set[int] = set()
        frontier = list(out[src])
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(out[node])
        result[graph.ids[src]] = frozenset(graph.ids[k] for k in seen)
    return result


def is_acyclic(graph: PangenomeGraph) -> bool:
    """Whether no vertex reaches itself through >= 1 edge."""
    return not any(vid in reach for vid, reach in _vertex_reach_sets(graph).items())


def _require_acyclic(graph: PangenomeGraph) -> None:
    if not is_acyclic(graph):
        raise OracleError("cyclic graph rejected: oracle semantics are defined on DAGs only")


# ---------------------------------------------------------------------------
# subsequence oracles
# ---------------------------------------------------------------------------


def embeddable(s: bytes, graph: PangenomeGraph) -> bool:
    """Whether ``s`` can be spelled, in order, by strictly advancing
    character positions along the graph (each step >= 1 arc)."""
    _check_size(graph=graph)
    return _embeddable(s, graph)


def _embeddable(s: bytes, graph: PangenomeGraph) -> bool:
    if not s:
        return True
    chars, _ = _char_table(graph)
    masks = _char_reach_masks(graph)
    char_mask: dict[int, int] = {}
    for node, ch in enumerate(chars):
        char_mask[ch] = char_mask.get(ch, 0) | (1 << node)
    frontier = char_mask.get(s[0], 0)
    for ch in s[1:]:
        if not frontier:
            return False
        step = 0
        live = frontier
        while live:
            low = live & -live
            step |= masks[low.bit_length() - 1]
            live ^= low
        frontier = step & char_mask.get(ch, 0)
    return bool(frontier)


def lcs_sg_bruteforce(query: bytes, graph: PangenomeGraph) -> int:
    """Longest embeddable subsequence of ``query``, by direct enumeration
    of position subsets from the longest down."""
    _check_size(query, graph)
    _require_acyclic(graph)
    tried: set[bytes] = set()
    for size in range(len(query), 0, -1):
        for combo in combinations(range(len(query)), size):
            s = bytes(query[k] for k in combo)
            if s in tried:
                continue
            tried.add(s)
            if _embeddable(s, graph):
                return size
    return 0


def gap_profiles(query: bytes, graph: PangenomeGraph) -> tuple[tuple[int, int, float], ...]:
    """Profiles of every embeddable increasing position chain of ``query``:
    (chain length, largest query gap, smallest achievable largest graph gap).

    The gap-bounded optimum for any bound pair is the longest profile whose
    two gap statistics fit the bounds, so one enumeration serves the whole
    bound grid.
    """
    _check_size(query, graph)
    _require_acyclic(graph)
    return _gap_profiles(graph, query)


@_per_graph
def _gap_profiles(graph: PangenomeGraph, query: bytes) -> tuple[tuple[int, int, float], ...]:
    chars, _ = _char_table(graph)
    dists = _char_bfs_dists(graph)
    by_char: dict[int, tuple[int, ...]] = {}
    for node, ch in enumerate(chars):
        by_char.setdefault(ch, ())
        by_char[ch] += (node,)
    profiles: list[tuple[int, int, float]] = []

    def extend(last_pos: int, state: dict[int, float], depth: int, max_qgap: int) -> None:
        profiles.append((depth, max_qgap, min(state.values())))
        for pos in range(last_pos + 1, len(query)):
            targets = by_char.get(query[pos])
            if not targets:
                continue
            nxt: dict[int, float] = {}
            for node in targets:
                best = inf
                for prev, worst in state.items():
                    d = dists[prev][node]
                    if 0 < d < inf:
                        best = min(best, max(worst, d))
                if best < inf:
                    nxt[node] = best
            if nxt:
                extend(pos, nxt, depth + 1, max(max_qgap, pos - last_pos))

    for pos in range(len(query)):
        targets = by_char.get(query[pos])
        if targets:
            extend(pos, {node: 0.0 for node in targets}, 1, 0)
    return tuple(profiles)


def fglcs_bruteforce(query: bytes, graph: PangenomeGraph, gaps: GapParams) -> int:
    """Longest embeddable subsequence under per-step gap bounds."""
    best = 0
    for length, max_qgap, minimax in gap_profiles(query, graph):
        if max_qgap <= gaps.k1_limit and minimax <= gaps.k2_limit:
            best = max(best, length)
    return best


# ---------------------------------------------------------------------------
# chaining oracles
# ---------------------------------------------------------------------------


def _precedes(a: Seed, b: Seed, reach: dict[str, frozenset[str]]) -> bool:
    if not a.j2 < b.j:
        return False
    if a.vertex == b.vertex:
        return a.i2 < b.i
    return b.vertex in reach[a.vertex]


def _best_chain(seeds: tuple[Seed, ...], graph: PangenomeGraph, value) -> int:
    _check_size(seeds=seeds)
    for seed in seeds:
        seed.validate(graph)
    reach = _vertex_reach_sets(graph)
    best = 0
    for mask in range(1 << len(seeds)):
        subset = [seeds[k] for k in range(len(seeds)) if mask >> k & 1]
        subset.sort(key=lambda s: (s.j, s.j2))
        if all(_precedes(a, b, reach) for a, b in zip(subset, subset[1:])):
            best = max(best, sum(value(s) for s in subset))
    return best


def memc_bruteforce(seeds: tuple[Seed, ...], graph: PangenomeGraph) -> int:
    """Maximum total seed length over strictly orderable subsets, checked
    exhaustively over all subsets."""
    return _best_chain(tuple(seeds), graph, lambda s: s.length)


def msp_bruteforce(seeds: tuple[Seed, ...], graph: PangenomeGraph) -> int:
    """Maximum seed count over strictly orderable subsets."""
    return _best_chain(tuple(seeds), graph, lambda s: 1)


# ---------------------------------------------------------------------------
# naive maximal-exact-match enumeration
# ---------------------------------------------------------------------------


def enumerate_mems(query: bytes, graph: PangenomeGraph) -> tuple[Seed, ...]:
    """All maximal exact matches between ``query`` and the vertex labels.

    A match is emitted once, from its leftmost cell: a start pair that is
    left-maximal is extended right as far as equality holds, which makes the
    result right-maximal by construction: every (query, label) character
    pair is visited a bounded number of times, so the cost is polynomial
    and no budget applies.
    """
    mems: list[Seed] = []
    for vid, label in zip(graph.ids, graph.labels):
        for i in range(len(label)):
            for j in range(len(query)):
                if label[i] != query[j]:
                    continue
                if i > 0 and j > 0 and label[i - 1] == query[j - 1]:
                    continue  # not left-maximal: covered by an earlier cell
                run = 1
                while i + run < len(label) and j + run < len(query) and label[i + run] == query[j + run]:
                    run += 1
                mems.append(Seed(vid, i, i + run - 1, j, j + run - 1))
    return tuple(mems)
