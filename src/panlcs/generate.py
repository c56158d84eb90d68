"""Seeded random instance generation and the bundled instance format.

An instance bundles a graph with an optional query and optional seeds in
one TSV stream, so generated test cases can be piped straight into the
solver subcommands::

    # comment
    V v0 abc        graph vertices and edges
    E v0 v1
    Q abcab         the query (at most one line)
    S v0 0 2 1 3    seeds: vertex, label interval, query interval

Generation is fully determined by the seed: identical inputs reproduce
byte-identical output.  Labels are drawn from a small alphabet on purpose;
sparse alphabets keep matches dense enough to exercise long chains.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .chaining import Seed, parse_seed_line
from .graph import GraphError, PangenomeGraph, parse_graph
from .oracle import OracleBudget, enumerate_mems

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
    rng = random.Random(seed)
    letters = _LETTERS[: profile.alphabet]
    ids = [f"v{k}" for k in range(profile.n)]
    labels = [
        bytes(rng.choice(letters) for _ in range(rng.randint(profile.label_min, profile.label_max)))
        for _ in ids
    ]
    if profile.acyclic:
        order = rng.sample(range(profile.n), profile.n)
        position = {v: k for k, v in enumerate(order)}
        candidates = [
            (ids[u], ids[v])
            for u in range(profile.n)
            for v in range(profile.n)
            if position[u] < position[v]
        ]
    else:
        candidates = [
            (ids[u], ids[v]) for u in range(profile.n) for v in range(profile.n)
        ]
    edges = sorted(rng.sample(candidates, min(profile.edges, len(candidates))))
    graph = PangenomeGraph.from_items(zip(ids, labels), edges)
    query = bytes(rng.choice(letters) for _ in range(profile.query_len))
    budget = OracleBudget(
        max_query=max(1, profile.query_len),
        max_vertices=profile.n,
        max_label_total=max(1, graph.total_label_length),
        max_seeds=1 << 30,
    )
    seeds = enumerate_mems(query, graph, budget)
    if profile.max_seeds is not None and len(seeds) > profile.max_seeds:
        picked = rng.sample(range(len(seeds)), profile.max_seeds)
        seeds = tuple(seeds[k] for k in sorted(picked))
    return Instance(graph=graph, query=query, seeds=seeds)


def instance_to_tsv(instance: Instance) -> str:
    """Render an instance in the bundled TSV format."""
    lines = []
    graph = instance.graph
    for vid, label in zip(graph.ids, graph.labels):
        lines.append(f"V\t{vid}\t{label.decode('latin-1')}")
    for u, v in graph.edges:
        lines.append(f"E\t{graph.ids[u]}\t{graph.ids[v]}")
    if instance.query is not None:
        lines.append(f"Q\t{instance.query.decode('latin-1')}".rstrip())
    for s in instance.seeds:
        lines.append(f"S\t{s.vertex}\t{s.i}\t{s.i2}\t{s.j}\t{s.j2}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_instance(text: bytes | str) -> Instance:
    """Parse the bundled format; plain V/E graph files parse as instances
    with no query and no seeds."""
    if isinstance(text, bytes):
        text = text.decode("latin-1")
    graph_lines: list[str] = []
    query: bytes | None = None
    seeds: list[Seed] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        tag = tokens[0]
        if tag in ("V", "E"):
            graph_lines.append(line)
        elif tag == "Q":
            if query is not None:
                raise GraphError(f"line {lineno}: more than one Q line")
            if len(tokens) > 2:
                raise GraphError(f"line {lineno}: queries may not contain whitespace")
            query = tokens[1].encode("latin-1") if len(tokens) == 2 else b""
        elif tag == "S":
            seeds.append(parse_seed_line(tokens[1:], lineno))
        else:
            raise GraphError(f"line {lineno}: unknown record tag {tag!r}")
    graph = parse_graph("\n".join(graph_lines), "tsv")
    return Instance(graph=graph, query=query, seeds=tuple(seeds))
