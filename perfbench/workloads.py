"""The benchmark's workloads: seeded request lists with their checks.

A request is one ``panlcs`` command line.  Each workload writes its input
files during set-up and returns its requests in serving order, each with a
check that raises :class:`reference.CheckError` when the captured stdout is
wrong.  Reference answers are computed only when a check runs, after the
timed region.
"""

from __future__ import annotations

import json
import random
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple

import gen
import reference as ref

# lcs-dense: one stress graph (50 vertices x 10 characters, 8 letters, 5
# chains) per request.  Seven query lengths put p50 and p75 each inside the
# latencies of one length.  The last, longest query builds the densest
# product DAG (over 5 M arcs); its arc arrays exceed glibc's 32 MiB mmap
# threshold, which keeps peak RSS from depending on allocator history.
LCS_QUERY_LENGTHS = (50, 55, 60, 65, 70, 75, 115)
LCS_LETTERS = b"abcdefgh"

# fglcs-dna: one 121-vertex, 450-character bubble graph per run, and reads
# copied from it with 5% substitutions.
FGLCS_BUBBLES, FGLCS_CHARS = 40, 450
FGLCS_READ_LENGTHS = (36, 38, 40, 42, 44, 46, 48)
FGLCS_K1 = FGLCS_K2 = 3

# chain-mems: one 901-vertex, 6,000-character bubble graph and one read per
# run; the chain requests use the read's MEMs of at least CHAIN_MIN_MEM.
CHAIN_BUBBLES, CHAIN_CHARS, CHAIN_READ_LENGTH = 300, 6000, 120
CHAIN_MIN_MEM = 4

SUB_RATE = 0.05


class Request(NamedTuple):
    argv: list[str]
    check: Callable[[str], None]


def _alignment_check(view: ref.GraphView, query: bytes, gaps: tuple[int, int] | None) -> Callable[[str], None]:
    def check(output: str) -> None:
        score = ref.lcs_score(view, query) if gaps is None else ref.fglcs_score(view, query, *gaps)
        ref.check_alignment(view, query, json.loads(output), score, gaps)

    return check


def lcs_dense(rng: random.Random, work: Path) -> list[Request]:
    requests = []
    for k, length in enumerate(LCS_QUERY_LENGTHS):
        graph = gen.stress_graph(rng, letters=LCS_LETTERS)
        query = gen.random_text(rng, LCS_LETTERS, length)
        path = graph.write(work / f"stress{k}.tsv", query)
        requests.append(Request(["lcs", "--graph", path, "--json"], _alignment_check(ref.GraphView(graph), query, None)))
    return requests


def fglcs_dna(rng: random.Random, work: Path) -> list[Request]:
    graph = gen.bubble_graph(rng, FGLCS_BUBBLES, FGLCS_CHARS)
    path = graph.write(work / "bubbles.tsv")
    view = ref.GraphView(graph)
    requests = []
    for length in FGLCS_READ_LENGTHS:
        read = gen.sample_read(rng, graph, length, SUB_RATE)
        argv = ["fglcs", "--graph", path, "--query", read.decode(), "--k1", str(FGLCS_K1), "--k2", str(FGLCS_K2), "--json"]
        requests.append(Request(argv, _alignment_check(view, read, (FGLCS_K1, FGLCS_K2))))
    return requests


class _ChainInstance:
    """One graph and read; the MEM set is both the expected ``mems``
    output and the source of the chain requests' seed file."""

    def __init__(self, rng: random.Random, work: Path):
        self.graph = gen.bubble_graph(rng, CHAIN_BUBBLES, CHAIN_CHARS)
        self.read = gen.sample_read(rng, self.graph, CHAIN_READ_LENGTH, SUB_RATE)
        self.view = ref.GraphView(self.graph)
        self.mems = ref.find_mems(self.graph, self.read)
        self.seeds = [m for m in self.mems if m[2] - m[1] + 1 >= CHAIN_MIN_MEM]
        self.path = self.graph.write(work / "chain.tsv", self.read)
        self.seed_path = str(work / "seeds.tsv")
        Path(self.seed_path).write_text("".join("\t".join(map(str, s)) + "\n" for s in self.seeds))

    def check_mems(self, output: str) -> None:
        ref.check_mems(ref.mem_lines(self.mems), output)

    @cached_property
    def _scores(self) -> dict[bool, int]:
        return {unit: ref.chain_score(self.view, self.seeds, unit) for unit in (False, True)}

    def chain_check(self, unit: bool) -> Callable[[str], None]:
        def check(output: str) -> None:
            ref.check_chain(self.view, self.read, self.seeds, json.loads(output), unit, self._scores[unit])

        return check


def chain_mems(rng: random.Random, work: Path) -> list[Request]:
    inst = _ChainInstance(rng, work)
    chain = ["chain", "--graph", inst.path, "--seeds", inst.seed_path, "--json", "--objective"]
    return [
        Request(["mems", "--graph", inst.path], inst.check_mems),
        Request(chain + ["len"], inst.chain_check(unit=False)),
        Request(chain + ["count"], inst.chain_check(unit=True)),
    ]


WORKLOADS: dict[str, Callable[[random.Random, Path], list[Request]]] = {
    "lcs-dense": lcs_dense,
    "fglcs-dna": fglcs_dna,
    "chain-mems": chain_mems,
}
