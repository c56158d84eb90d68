"""Seeded input generators for the benchmark.

Everything here is independent of ``panlcs``: graphs are plain lists of
labels and index edges, rendered to the TSV instance format only when
written to disk.  Vertex order is always a topological order, so every
generated graph is acyclic by construction.

Sizes are fixed per workload and only the content depends on the seed, so
that one seed costs about as much to solve as another.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

DNA = b"ACGT"


@dataclass(frozen=True)
class Graph:
    """Vertex-labeled DAG: ``ids[k]`` carries ``labels[k]``; ``edges`` are
    ``(u, v)`` index pairs (``u < v`` for every generator below)."""

    ids: tuple[str, ...]
    labels: tuple[bytes, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.ids)

    def out_neighbors(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            out[u].append(v)
        return out

    def write(self, path: Path, query: bytes | None = None) -> str:
        """Write the graph (and a ``Q`` query line) in the TSV instance
        format; return the path as a string."""
        lines = [f"V\t{vid}\t{label.decode('ascii')}" for vid, label in zip(self.ids, self.labels)]
        lines += [f"E\t{self.ids[u]}\t{self.ids[v]}" for u, v in self.edges]
        if query is not None:
            lines.append(f"Q\t{query.decode('ascii')}")
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        return str(path)


def random_text(rng: random.Random, letters: bytes, length: int) -> bytes:
    return bytes(rng.choice(letters) for _ in range(length))


def stress_graph(
    rng: random.Random,
    n: int = 50,
    chains: int = 5,
    label_len: int = 10,
    letters: bytes = b"abcdefgh",
) -> Graph:
    """The acceptance-test stress family: ``chains`` vertex chains of equal
    length with fixed-length random labels, joined by one forward link from
    the third vertex of each chain to the third vertex of the next.

    Only the labels come from the seed.  Random links, as in the acceptance
    test, move the share of reachable vertex pairs by a third from seed to
    seed, and the product DAG's arc count with it; fixed links keep one
    seed's work equal to another's.
    """
    per = n // chains
    labels = tuple(random_text(rng, letters, label_len) for _ in range(n))
    edges = [(c * per + k, c * per + k + 1) for c in range(chains) for k in range(per - 1)]
    edges += [(c * per + 2, (c + 1) * per + 2) for c in range(chains - 1)]
    return Graph(tuple(f"v{k}" for k in range(n)), labels, tuple(edges))


def bubble_graph(rng: random.Random, bubbles: int, total_chars: int, letters: bytes = DNA) -> Graph:
    """A path of shared segments with a two-allele bubble between each
    consecutive pair: ``s0 -> (a1 | b1) -> s1 -> ... -> sB``.

    The graph has ``3 * bubbles + 1`` vertices and exactly ``total_chars``
    label characters; each vertex gets one character plus a multinomial
    share of the rest.
    """
    n = 3 * bubbles + 1
    if total_chars < n:
        raise ValueError("need at least one character per vertex")
    lengths = [1] * n
    for _ in range(total_chars - n):
        lengths[rng.randrange(n)] += 1
    # vertex order s0, a1, b1, s1, a2, b2, s2, ... is topological
    ids = ["s0"]
    edges = []
    for k in range(1, bubbles + 1):
        prev, a, b, s = 3 * (k - 1), 3 * k - 2, 3 * k - 1, 3 * k
        ids += [f"a{k}", f"b{k}", f"s{k}"]
        edges += [(prev, a), (prev, b), (a, s), (b, s)]
    labels = tuple(random_text(rng, letters, length) for length in lengths)
    return Graph(tuple(ids), labels, tuple(edges))


def sample_read(
    rng: random.Random, graph: Graph, length: int, sub_rate: float, letters: bytes = DNA
) -> bytes:
    """A read of exactly ``length`` characters copied from a random
    source-to-sink path of ``graph`` (each branch picked uniformly) at a
    random offset, with each character substituted with probability
    ``sub_rate``."""
    out = graph.out_neighbors()
    sources = sorted(set(range(graph.n)) - {v for _, v in graph.edges})
    v = rng.choice(sources)
    parts = [graph.labels[v]]
    while out[v]:
        v = rng.choice(out[v])
        parts.append(graph.labels[v])
    text = b"".join(parts)
    if len(text) < length:
        raise ValueError(f"path spells {len(text)} characters, fewer than the read length {length}")
    start = rng.randrange(len(text) - length + 1)
    read = bytearray(text[start : start + length])
    for k in range(length):
        if rng.random() < sub_rate:
            read[k] = rng.choice([c for c in letters if c != read[k]])
    return bytes(read)
