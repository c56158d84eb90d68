"""Seed chaining: colinear ordering of exact matches across the graph.

A seed pins a label interval of one vertex to an equal-length query
interval spelling the same bytes.  Seed ``a`` strictly precedes seed ``b``
when ``a``'s query interval ends before ``b``'s begins and the graph side
agrees: on one shared vertex the label intervals must be disjoint in the
same order, across vertices ``b``'s vertex must be reachable from ``a``'s.

The paper solves chaining as a vertex-weighted longest path in the seed
DAG: one node per seed, an arc for every strictly ordered pair, seed
lengths as weights to maximize the matched characters, unit weights to
maximize the seed count.  :func:`build_seed_graph` builds that DAG, as the
reference reduction.  :func:`solve_memc` and :func:`solve_msp` compute the
same longest path, tie-breaks included, without holding any arc: the seeds
are sorted by query start, so that every predecessor of a seed sorts before
it, and each seed is scanned against the earlier ones, a block of whole
runs of seeds at a time (a run holds no arc), in descending score order so
that it stops at its best predecessor (:func:`_longest_chain`).  That is at
most about K^2/2 cells for K seeds, in any input order, in O(K + block)
memory.

Seeds are held as int64 columns (:class:`SeedTable`), read from seed files
and instance ``S`` lines alike and validated in bulk; :class:`Seed` objects
are built only for the emitted chain, which :meth:`Chain.validate` re-checks
in bulk by the same rule.  :func:`format_seeds` writes both formats' seed
records, so seeds and instances round-trip exactly.  Past the validation a
seed's graph side is its first and last character id (see
:mod:`panlcs.graph`).
"""

from __future__ import annotations

import io
import logging
from bisect import bisect_right
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .daglp import MatchDag, _check_score_bound, _pair_arcs, _reconstruct, _runs
from .graph import CharGraph, PangenomeGraph, build_char_graph, precedes, reachability, records, token_text, token_texts

log = logging.getLogger(__name__)


class SeedError(ValueError):
    """A seed is malformed or inconsistent with the instance it refers to."""


@dataclass(frozen=True, slots=True)  # slots: MEM sets run to 10^5 seeds
class Seed:
    """An exact match: vertex id, inclusive label interval ``[i, i2]``, and
    inclusive query interval ``[j, j2]`` of equal length."""

    vertex: str
    i: int
    i2: int
    j: int
    j2: int

    def __post_init__(self) -> None:
        if self.i < 0 or self.j < 0:
            raise SeedError(f"seed {self._brief()}: negative interval start")
        if self.i2 < self.i or self.j2 < self.j:
            raise SeedError(f"seed {self._brief()}: empty or reversed interval")
        if self.i2 - self.i != self.j2 - self.j:
            raise SeedError(f"seed {self._brief()}: label and query intervals differ in length")
        if max(self.i2, self.j2) >= 1 << 63:  # the seed DAG holds bounds as int64
            raise SeedError(f"seed {self._brief()}: interval bound exceeds 2**63 - 1")

    def _brief(self) -> str:
        return f"({self.vertex!r}, [{self.i},{self.i2}], [{self.j},{self.j2}])"

    @property
    def length(self) -> int:
        return self.i2 - self.i + 1

    def validate(self, graph: PangenomeGraph, query: bytes | None = None) -> None:
        """Check bounds against the graph and, when ``query`` is given, the
        substring equality."""
        label = graph.label_of(self.vertex)
        if self.i2 >= len(label):
            raise SeedError(f"seed {self._brief()}: label interval exceeds {self.vertex!r}")
        if query is None:
            return
        if self.j2 >= len(query):
            raise SeedError(f"seed {self._brief()}: query interval out of range")
        if label[self.i : self.i2 + 1] != query[self.j : self.j2 + 1]:
            raise SeedError(f"seed {self._brief()}: matched substrings differ")


def total_length(seeds: Iterable[Seed]) -> int:
    """Sum of seed lengths (equal over label and query intervals)."""
    return sum(seed.length for seed in seeds)


@dataclass(frozen=True)
class Chain:
    """An ordered, strictly chained selection of seeds."""

    seeds: tuple[Seed, ...]
    length: int
    count: int

    def validate(self, graph: PangenomeGraph, query: bytes | None = None) -> None:
        """Re-check the counts, every seed (:meth:`SeedTable.check`) and
        every step, by the seed DAG's arc rule."""
        if self.count != len(self.seeds):
            raise SeedError("chain count disagrees with its seed list")
        if self.length != total_length(self.seeds):
            raise SeedError("chain length disagrees with its seed lengths")
        table = SeedTable.of(self.seeds)
        first = table.check(graph, query)
        origin = build_char_graph(graph).origin
        a, b = (first + table.i2 - table.i)[:-1], first[1:]
        u, v = origin[a], origin[b]
        bad = np.flatnonzero(~precedes(u, a, v, b, reachability(graph).matrix[u, v]) | (table.j2[:-1] >= table.j[1:]))
        if len(bad):
            x, y = self.seeds[bad[0]], self.seeds[bad[0] + 1]
            raise SeedError(f"chain breaks strict order between {x._brief()} and {y._brief()}")


EMPTY_CHAIN = Chain((), 0, 0)


class SeedTable(Sequence[Seed]):
    """Seeds as read-only columns: a ``Sequence[Seed]`` that builds each
    :class:`Seed` only when it is read.

    ``names`` are the distinct vertex ids and ``name`` each seed's index
    into them; ``i``, ``i2``, ``j`` and ``j2`` are int64, one entry per
    seed.  The bounds obey the checks of :class:`Seed`.
    """

    __slots__ = ("names", "name", "i", "i2", "j", "j2")

    def __init__(self, names: tuple[str, ...], name: np.ndarray, bounds: np.ndarray):
        self.names = names
        self.name = name
        self.i, self.i2, self.j, self.j2 = np.ascontiguousarray(bounds.reshape(-1, 4).T)
        for column in (name, self.i, self.i2, self.j, self.j2):
            column.flags.writeable = False

    @classmethod
    def of(cls, seeds: Sequence[Seed]) -> "SeedTable":
        """``seeds`` itself if it is a table, else its columns."""
        if isinstance(seeds, SeedTable):
            return seeds
        index: dict[str, int] = {}
        name = [index.setdefault(s.vertex, len(index)) for s in seeds]
        bounds = [(s.i, s.i2, s.j, s.j2) for s in seeds]
        return cls(tuple(index), np.array(name, dtype=np.int64), np.array(bounds, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.name)

    def __getitem__(self, k):
        if isinstance(k, slice):
            bounds = np.stack([self.i[k], self.i2[k], self.j[k], self.j2[k]], axis=1)
            return SeedTable(self.names, self.name[k], bounds)
        i, i2, j, j2 = (int(column[k]) for column in (self.i, self.i2, self.j, self.j2))
        return Seed(self.names[self.name[k]], i, i2, j, j2)

    def __iter__(self) -> Iterator[Seed]:
        columns = (self.name, self.i, self.i2, self.j, self.j2)
        for name, i, i2, j, j2 in zip(*(column.tolist() for column in columns)):
            yield Seed(self.names[name], i, i2, j, j2)

    def __repr__(self) -> str:
        return f"SeedTable({len(self)} seeds)"

    def check(self, graph: PangenomeGraph, query: bytes | None = None) -> np.ndarray:
        """:meth:`Seed.validate` of every seed, in bulk, returning each
        seed's first character id: bounds, and with a query the substring
        equality.  A failure re-runs the scalar check on the first failing
        seed, so the error is the one :meth:`Seed.validate` raises."""
        vert = np.array([graph.index.get(vid, -1) for vid in self.names], dtype=np.int64)[self.name]
        cg = build_char_graph(graph)
        label_len = np.diff(cg.starts)
        ok = vert >= 0
        ok[ok] = self.i2[ok] < label_len[vert[ok]]
        if query is not None:
            ok &= self.j2 < len(query)
            rows = np.flatnonzero(ok)
            ok[rows] = self._spelled(rows, vert[rows], cg, query)
        if not ok.all():
            k = int(np.argmin(ok))
            self[k].validate(graph, query)
            raise AssertionError(f"bulk check refused seed {k}, the scalar check accepts it")
        return cg.starts[vert] + self.i

    def _spelled(self, rows: np.ndarray, vert: np.ndarray, cg: CharGraph, query: bytes) -> np.ndarray:
        """Whether each seed of ``rows``, in bounds on vertices ``vert``,
        spells the query's bytes; compared ``_BLOCK_CELLS`` characters at a
        time."""
        q = np.frombuffer(query, dtype=np.uint8)
        i, i2, j = self.i[rows], self.i2[rows], self.j[rows]
        shift = cg.starts[vert] + i - j  # label character of query position p: p + shift
        length = i2 - i + 1
        ends = np.cumsum(length)
        ok = np.empty(len(rows), dtype=bool)
        lo = 0
        while lo < len(rows):
            hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - length[lo] + _BLOCK_CELLS, "right")))
            runs = length[lo:hi]
            first = np.cumsum(runs) - runs
            qpos = np.arange(int(runs.sum())) - np.repeat(first - j[lo:hi], runs)
            ok[lo:hi] = np.logical_and.reduceat(cg.chars[qpos + np.repeat(shift[lo:hi], runs)] == q[qpos], first)
            lo = hi
        return ok


def build_seed_graph(
    seeds: Sequence[Seed],
    graph: PangenomeGraph,
    *,
    unit_weights: bool = False,
    query: bytes | None = None,
) -> MatchDag:
    """One DAG node per seed (weight = seed length, or 1 when
    ``unit_weights``), one arc per strictly ordered pair, in any seed
    order: a scan over all pairs (:func:`~panlcs.daglp._pair_arcs`) that
    gathers the graph side from a table over the distinct characters."""
    table = SeedTable.of(seeds)
    first = table.check(graph, query)
    last = first + table.i2 - table.i
    origin, reach = build_char_graph(graph).origin, reachability(graph).matrix
    y_char, y_key = np.unique(first, return_inverse=True)
    y_vert = origin[y_char]

    def accept(lo: int, hi: int) -> np.ndarray:
        x_char, x_key = np.unique(last[lo:hi], return_inverse=True)
        x_vert = origin[x_char]
        across = reach[x_vert].take(y_vert, axis=1)  # faster than a 2-d fancy gather
        mask = precedes(x_vert[:, None], x_char[:, None], y_vert, y_char, across)[x_key].take(y_key, axis=1)
        mask &= table.j2[lo:hi, None] < table.j[None, :]
        return mask

    dag = MatchDag.from_csr(
        np.ones(len(table), dtype=np.int64) if unit_weights else table.i2 - table.i + 1,
        *_pair_arcs(len(table), accept),
        payloads=tuple(seeds),
    )
    log.info("seed DAG: %d seeds, %d arcs", dag.n_nodes, dag.n_arcs)
    return dag


_BLOCK_ROWS = 64  # rows per block of whole runs: the seeds before a block are scanned once for all its rows
_BLOCK_CELLS = 1 << 20  # seed pairs, or characters compared, at once: bounds the temporaries, >= (_BLOCK_ROWS - 1)**2


def _longest_chain(table: SeedTable, first: np.ndarray, weights: np.ndarray, graph: PangenomeGraph) -> tuple[int, ...]:
    """The seed DAG's longest path, as seed indices, without its arcs;
    ``first`` holds each seed's first character id.

    Seeds are sorted stably by ``j``.  A predecessor ends before its
    successor starts on the query, so it sorts before it; and a seed whose
    ``j`` does not exceed the smallest ``j2`` of the run before it follows
    no seed of that run: runs split the order into stretches with no arc
    inside (:func:`~panlcs.daglp._runs`, given each seed's first possible
    successor, the first seed whose ``j`` exceeds its ``j2``).  The arc
    rule is the seed DAG's, ``j2_a < j_b`` and
    :func:`~panlcs.graph.precedes` from ``a``'s last character to ``b``'s
    first, its reachability read pair by pair from the flat matrix.

    Seeds are solved in blocks of whole runs, as many as fit in
    ``_BLOCK_ROWS`` rows; a longer run is a block of its own.  The keys of
    the seeds before a block are final and kept in ascending order.  They
    are scanned in descending order, ``_BLOCK_ROWS`` rows at a time, in
    chunks that double in width, so that a row stops at its first
    predecessor, the best; a row without one scans them all.  Inside the
    block, each run after the first takes its predecessors in the runs
    before it by one maximum over one mask of the block.  The block's keys
    are then merged into the kept order.

    The key of a seed is ``dist << b | (low - index)``, the key of
    :func:`~panlcs.daglp._forward_dp`: the largest predecessor key gives
    the parent, and the path ends at the first seed of the highest
    ``dist``, the smallest-index tie-breaks of
    :func:`~panlcs.daglp.longest_path_vertex` on the seed DAG."""
    n = len(table)
    _check_score_bound(n, weights, None)
    reach = reachability(graph).matrix
    side, reach = len(reach), reach.ravel()
    order = np.argsort(table.j, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    ci, ci2, j, j2 = (column[order] for column in (first, first + table.i2 - table.i, table.j, table.j2))
    v = build_char_graph(graph).origin[ci]
    b = n.bit_length()
    low = (1 << b) - 1
    own = weights[order] << b | low - order  # a seed's key without a predecessor
    starts = [a for a, _ in _runs(np.searchsorted(j, j2, "right"))] + [n]  # run k: [starts[k], starts[k + 1])
    cells = 0

    def arcs(a: np.ndarray, c: np.ndarray) -> np.ndarray:
        """mask[r, x]: sorted seed ``a[x]`` precedes sorted seed ``c[r]``."""
        nonlocal cells
        cells += len(a) * len(c)
        va, vc = v[a], v[c, None]
        mask = precedes(va, ci2[a], vc, ci[c, None], reach.take(va * side + vc))
        mask &= j2[a] < j[c, None]
        return mask

    key = np.empty(n, dtype=np.int64)  # per sorted seed: dist << b | (low - index), once final
    best = np.zeros(n, dtype=np.int64)  # the largest predecessor key; 0: none, as keys are at least 1 << b
    final = np.empty(0, dtype=np.int64)  # the final keys, ascending; the low bits of a key name its seed
    k = 0
    while k < len(starts) - 1:
        # a block: runs k to t - 1, those that end within _BLOCK_ROWS rows of its start, or run k alone
        t = max(k + 1, bisect_right(starts, starts[k] + _BLOCK_ROWS) - 1)
        lo, f, hi = starts[k], starts[k + 1], starts[t]
        for group in range(lo, hi, _BLOCK_ROWS):
            rows, top = np.arange(group, min(hi, group + _BLOCK_ROWS)), len(final)
            width = max(1, min(_BLOCK_ROWS, _BLOCK_CELLS // len(rows)))
            while len(rows) and top > 0:
                keys = final[max(0, top - width) : top][::-1]
                mask = arcs(rank[low - (keys & low)], rows)
                at = mask.argmax(axis=1)
                hit = mask[np.arange(len(rows)), at]
                best[rows[hit]] = keys[at[hit]]
                rows = rows[~hit]
                top -= width
                width = max(1, min(2 * width, _BLOCK_CELLS // max(len(rows), 1)))
        # the first run of a block has no predecessor in it; a later run has them in the runs before it
        key[lo:f] = own[lo:f] + (best[lo:f] & ~low)
        if t > k + 1:
            inner = arcs(np.arange(lo, starts[t - 1]), np.arange(f, hi))
            for a, z in zip(starts[k + 1 : t], starts[k + 2 : t + 1]):
                best[a:z] = np.maximum(best[a:z], np.where(inner[a - f : z - f, : a - lo], key[lo:a], 0).max(axis=1))
                key[a:z] = own[a:z] + (best[a:z] & ~low)
        merged = np.sort(key[lo:hi])
        final = np.insert(final, np.searchsorted(final, merged), merged)
        k = t
    log.info("chain: %d seeds, %d runs, %d cells scanned", n, len(starts) - 1, cells)
    dist = np.empty(n, dtype=np.int64)
    parent = np.empty(n, dtype=np.int64)
    dist[order] = key >> b
    parent[order] = np.where(best == 0, -1, low - (best & low))
    return _reconstruct(parent, int(np.argmax(dist)))  # first max: smallest index wins


def _solve(seeds: Sequence[Seed], graph: PangenomeGraph, unit_weights: bool, query: bytes | None) -> Chain:
    reachability(graph)  # an oversized graph is refused, seeds or none
    if not seeds:
        return EMPTY_CHAIN
    table = SeedTable.of(seeds)
    first = table.check(graph, query)
    weights = np.ones(len(table), dtype=np.int64) if unit_weights else table.i2 - table.i + 1
    picked = tuple(seeds[k] for k in _longest_chain(table, first, weights, graph))
    chain = Chain(seeds=picked, length=total_length(picked), count=len(picked))
    chain.validate(graph, query)
    return chain


def solve_memc(seeds: Sequence[Seed], graph: PangenomeGraph, *, query: bytes | None = None) -> Chain:
    """Chain maximizing the total matched length over strictly ordered
    subsets of ``seeds``.  ``query`` is optional and only adds validation."""
    return _solve(seeds, graph, unit_weights=False, query=query)


def solve_msp(seeds: Sequence[Seed], graph: PangenomeGraph, *, query: bytes | None = None) -> Chain:
    """Chain maximizing the number of seeds (unit weights, same machinery)."""
    return _solve(seeds, graph, unit_weights=True, query=query)


# ---------------------------------------------------------------------------
# seed TSV format
# ---------------------------------------------------------------------------


def parse_seeds(text: bytes | str) -> SeedTable:
    """Parse `<vertex> <i> <i'> <j> <j'>` records (inclusive bounds; see
    :func:`~panlcs.graph.records`) into a :class:`SeedTable`."""
    return _read_seeds(lambda: records(text))


def _read_seeds(rows: Callable[[], Iterable[tuple[int, Sequence[bytes]]]]) -> SeedTable:
    """The seed records that ``rows()`` yields as (line number, tokens), in
    a :class:`SeedTable`.  The bounds are converted with one ``int`` map
    over the flat token list and checked in bulk; on any malformed record
    the records are read again one by one, so the error names the first
    bad line."""
    tokens: list[bytes] = []
    try:
        for _, record in rows():
            if len(record) != 5:
                raise ValueError
            tokens += record
        names = tokens[::5]
        del tokens[::5]
        columns = np.fromiter(map(int, tokens), np.int64, len(tokens)).reshape(-1, 4)
        i, i2, j, j2 = columns.T
        if not np.all((i >= 0) & (j >= 0) & (i2 >= i) & (j2 >= j) & (i2 - i == j2 - j)):
            raise ValueError
    except (ValueError, OverflowError):  # OverflowError: a bound beyond int64
        for lineno, record in rows():
            if len(record) != 5:
                raise SeedError(f"line {lineno}: expected `<vertex> <i> <i'> <j> <j'>`") from None
            try:
                Seed(token_text(record[0]), *[int(t) for t in record[1:]])
            except SeedError as exc:
                raise SeedError(f"line {lineno}: {exc}") from None
            except ValueError:
                raise SeedError(f"line {lineno}: interval bounds must be integers") from None
        raise AssertionError("bulk seed parsing refused what the scalar parser accepts") from None
    distinct = list(dict.fromkeys(names))
    index = dict(zip(distinct, range(len(distinct))))
    name = np.fromiter(map(index.__getitem__, names), np.int64, len(names))
    return SeedTable(tuple(token_texts(distinct)), name, columns)


def format_seeds(seeds: Iterable[Seed]) -> str:
    """Render seeds in the TSV format accepted by :func:`parse_seeds`."""
    out = io.StringIO()  # grows one buffer; a join would hold every line at once
    for s in seeds:
        out.write(f"{s.vertex}\t{s.i}\t{s.i2}\t{s.j}\t{s.j2}\n")
    return out.getvalue()
