"""Seeded random instance generation and the bundled instance format.

An instance bundles a graph with an optional query and optional seeds in
one TSV stream, so generated test cases can be piped straight into the
solver subcommands::

    # comment
    V v0 abc        graph vertices and edges
    E v0 v1
    Q abcab         the query (at most one line)
    S v0 0 2 1 3    seeds: vertex, label interval, query interval

``S`` lines are written and read as seed files are, so :func:`parse_instance`
reads back exactly the instance :func:`instance_to_tsv` wrote.

Generation is fully determined by the seed: identical inputs reproduce
byte-identical output.  Labels are drawn from a small alphabet on purpose;
sparse alphabets keep matches dense enough to exercise long chains.  Only
generation loads :mod:`panlcs.oracle`, for its MEMs, and only when it runs.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, groupby

from .chaining import Seed, _read_seeds, format_seeds
from .graph import GraphError, PangenomeGraph, read_tsv

_LETTERS = b"abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Instance:
    graph: PangenomeGraph
    query: bytes | None = None
    seeds: tuple[Seed, ...] = ()


@dataclass(frozen=True)
class GenProfile:
    """Size knobs for :func:`generate_instance`."""

    n: int = 4
    edges: int = 4
    label_min: int = 1
    label_max: int = 3
    alphabet: int = 3
    query_len: int = 8
    acyclic: bool = True
    max_seeds: int | None = 12

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.edges < 0:
            raise ValueError("edges must be non-negative")
        if not 1 <= self.label_min <= self.label_max:
            raise ValueError("need 1 <= label_min <= label_max")
        if not 1 <= self.alphabet <= len(_LETTERS):
            raise ValueError(f"alphabet size must be in 1..{len(_LETTERS)}")
        if self.query_len < 0:
            raise ValueError("query_len must be non-negative")
        if self.max_seeds is not None and self.max_seeds < 0:
            raise ValueError("max_seeds must be non-negative")


def generate_instance(seed: int, profile: GenProfile = GenProfile()) -> Instance:
    """Deterministically generate a graph, query, and its maximal exact
    matches.  With ``profile.acyclic`` the graph is a DAG by construction
    (edges only follow a random vertex order)."""
    from .oracle import enumerate_mems

    rng = random.Random(seed)
    n = profile.n
    letters = _LETTERS[: profile.alphabet]
    ids = [f"v{k}" for k in range(n)]
    labels = [
        bytes(rng.choice(letters) for _ in range(rng.randint(profile.label_min, profile.label_max)))
        for _ in ids
    ]
    # edges are drawn as indices into the candidate (u, v) pairs in u-major
    # order, so memory grows with n and the edge count, never n**2
    if profile.acyclic:
        order = rng.sample(range(n), n)
        position = [0] * n
        for k, v in enumerate(order):
            position[v] = k
        # u's block of pairs: the n - 1 - position[u] vertices after u in the order, by index
        firsts = list(accumulate((n - 1 - position[u] for u in range(n)), initial=0))
        picks = sorted(rng.sample(range(firsts[-1]), min(profile.edges, firsts[-1])))
        pairs = []
        for u, group in groupby(picks, key=lambda k: bisect_right(firsts, k) - 1):
            later = sorted(order[position[u] + 1 :])
            pairs += ((u, later[k - firsts[u]]) for k in group)
    else:
        pairs = [divmod(k, n) for k in rng.sample(range(n * n), min(profile.edges, n * n))]
    edges = sorted((ids[u], ids[v]) for u, v in pairs)
    graph = PangenomeGraph.from_items(zip(ids, labels), edges)
    query = bytes(rng.choice(letters) for _ in range(profile.query_len))
    seeds = enumerate_mems(query, graph) if profile.max_seeds != 0 else ()  # none would be kept
    if profile.max_seeds is not None and len(seeds) > profile.max_seeds:
        picked = rng.sample(range(len(seeds)), profile.max_seeds)
        seeds = tuple(seeds[k] for k in sorted(picked))
    return Instance(graph=graph, query=query, seeds=seeds)


def instance_to_tsv(instance: Instance) -> str:
    """Render an instance in the bundled TSV format (``S`` lines by
    :func:`~panlcs.chaining.format_seeds`); :func:`parse_instance` reads
    back the same instance."""
    lines = []
    graph = instance.graph
    for vid, label in zip(graph.ids, graph.labels):
        lines.append(f"V\t{vid}\t{label.decode('latin-1')}")
    for u, v in graph.edges:
        lines.append(f"E\t{graph.ids[u]}\t{graph.ids[v]}")
    if instance.query is not None:
        lines.append(f"Q\t{instance.query.decode('latin-1')}" if instance.query else "Q")
    # split at "\n" only: str.splitlines also breaks at bytes a label may hold (0x1c-0x1e, 0x85)
    lines.extend("S\t" + line for line in format_seeds(instance.seeds).split("\n")[:-1])
    return "\n".join(lines) + ("\n" if lines else "")


def parse_instance(text: bytes | str) -> Instance:
    """Parse the bundled format in one loop over its records
    (:func:`~panlcs.graph.read_tsv`); plain V/E graph files parse as
    instances with no query and no seeds.  ``S`` records are read as seed
    files are (:func:`~panlcs.chaining.parse_seeds`)."""
    seed_rows: list[tuple[int, list[bytes]]] = []
    try:
        graph, query = read_tsv(text, seed_rows)
    except GraphError:
        _read_seeds(lambda: seed_rows)  # a bad S line wins: one before the bad record, or any if the graph is bad
        raise
    return Instance(graph, query, tuple(_read_seeds(lambda: seed_rows)) if seed_rows else ())
