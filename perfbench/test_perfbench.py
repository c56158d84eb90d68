"""Tests of the benchmark's own parts: the references agree with the
brute-force oracles of ``panlcs.oracle`` on instances within their budget,
the checks reject broken outputs, and the tracer leaves ``panlcs`` as it
found it.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from panlcs import cli  # noqa: E402
from panlcs.chaining import Seed  # noqa: E402
from panlcs.fglcs import GapParams  # noqa: E402
from panlcs.graph import PangenomeGraph  # noqa: E402
from panlcs.oracle import (  # noqa: E402
    enumerate_mems,
    fglcs_bruteforce,
    lcs_sg_bruteforce,
    memc_bruteforce,
    msp_bruteforce,
)


def small_instance(rng: random.Random) -> tuple[gen.Graph, bytes]:
    """A random DAG within the oracle's default budget, with vertices in
    shuffled (not topological) index order."""
    n = rng.randint(1, 5)
    letters = b"abc"[: rng.randint(2, 3)]
    perm = rng.sample(range(n), n)
    labels = [b""] * n
    for k in range(n):
        labels[perm[k]] = gen.random_text(rng, letters, rng.randint(1, 3))
    edges = sorted({(perm[u], perm[v]) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4})
    graph = gen.Graph(tuple(f"v{k}" for k in range(n)), tuple(labels), tuple(edges))
    return graph, gen.random_text(rng, letters, rng.randint(0, 10))


def program_graph(graph: gen.Graph) -> PangenomeGraph:
    return PangenomeGraph(graph.ids, graph.labels, graph.edges)


def instances(count: int, seed: int):
    rng = random.Random(seed)
    return [small_instance(rng) for _ in range(count)]


@pytest.mark.parametrize("graph,query", instances(150, 1))
def test_lcs_score_matches_oracle(graph, query):
    assert ref.lcs_score(ref.GraphView(graph), query) == lcs_sg_bruteforce(query, program_graph(graph))


@pytest.mark.parametrize("graph,query", instances(100, 2))
def test_fglcs_score_matches_oracle(graph, query):
    view, pg = ref.GraphView(graph), program_graph(graph)
    for k1 in (1, 2, 3):
        for k2 in (1, 2, 3):
            expected = fglcs_bruteforce(query, pg, GapParams(k1, k2))
            assert ref.fglcs_score(view, query, k1, k2) == expected, (k1, k2)


@pytest.mark.parametrize("graph,query", instances(100, 3))
def test_find_mems_matches_oracle(graph, query):
    expected = {(s.vertex, s.i, s.i2, s.j, s.j2) for s in enumerate_mems(query, program_graph(graph))}
    found = ref.find_mems(graph, query)
    assert len(found) == len(set(found)) and set(found) == expected


@pytest.mark.parametrize("graph,query", instances(100, 4))
def test_chain_score_matches_oracle(graph, query):
    rng = random.Random(len(query))
    mems = ref.find_mems(graph, query)
    seeds = rng.sample(mems, min(12, len(mems)))
    program_seeds = tuple(Seed(*s) for s in seeds)
    pg, view = program_graph(graph), ref.GraphView(graph)
    assert ref.chain_score(view, seeds, unit=False) == memc_bruteforce(program_seeds, pg)
    assert ref.chain_score(view, seeds, unit=True) == msp_bruteforce(program_seeds, pg)


def serve(argv: list[str]) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


@pytest.fixture
def bubble(tmp_path):
    rng = random.Random(7)
    graph = gen.bubble_graph(rng, 6, 40)
    read = gen.sample_read(rng, graph, 16, 0.1)
    return graph, read, graph.write(tmp_path / "g.tsv", read)


def test_alignment_checks_accept_program_output_and_reject_corruption(bubble):
    graph, read, path = bubble
    view = ref.GraphView(graph)
    record = serve(["lcs", "--graph", path, "--json"])
    ref.check_alignment(view, read, record, ref.lcs_score(view, read))
    with pytest.raises(ref.CheckError):
        ref.check_alignment(view, read, record, ref.lcs_score(view, read) + 1)
    broken = json.loads(json.dumps(record))
    broken["embedding"][0], broken["embedding"][-1] = broken["embedding"][-1], broken["embedding"][0]
    with pytest.raises(ref.CheckError):
        ref.check_alignment(view, read, broken, record["score"])

    record = serve(["fglcs", "--graph", path, "--k1", "2", "--k2", "2", "--json"])
    score = ref.fglcs_score(view, read, 2, 2)
    ref.check_alignment(view, read, record, score, (2, 2))
    broken = json.loads(json.dumps(record))
    broken["gaps"][0]["dg"] += 1
    with pytest.raises(ref.CheckError):
        ref.check_alignment(view, read, broken, score, (2, 2))


def test_chain_and_mem_checks_accept_program_output_and_reject_corruption(bubble, tmp_path):
    graph, read, path = bubble
    view = ref.GraphView(graph)
    mems = ref.find_mems(graph, read)
    seeds = [m for m in mems if m[2] > m[1]]
    seed_path = tmp_path / "s.tsv"
    seed_path.write_text("".join("\t".join(map(str, s)) + "\n" for s in seeds))
    record = serve(["chain", "--graph", path, "--seeds", str(seed_path), "--objective", "len", "--json"])
    score = ref.chain_score(view, seeds, unit=False)
    ref.check_chain(view, read, seeds, record, False, score)
    broken = json.loads(json.dumps(record))
    broken["chain"][0]["j"] += 1
    with pytest.raises(ref.CheckError):
        ref.check_chain(view, read, seeds, broken, False, score)

    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["mems", "--graph", path]) == 0
    ref.check_mems(ref.mem_lines(mems), out.getvalue())
    with pytest.raises(ref.CheckError):
        ref.check_mems(ref.mem_lines(mems), out.getvalue() + out.getvalue().splitlines()[0] + "\n")


def test_tracer_records_nested_spans_and_restores_functions(bubble):
    import panlcs.graph
    import panlcs.lcs

    graph, read, path = bubble
    originals = (panlcs.lcs.reachability, panlcs.graph.reachability, panlcs.lcs.Alignment.validate, cli.main)
    tracer = Tracer()
    tracer.install()
    try:
        assert panlcs.lcs.reachability is not originals[0]
        traced = serve(["lcs", "--graph", path, "--json"])
    finally:
        tracer.uninstall()
    assert (panlcs.lcs.reachability, panlcs.graph.reachability, panlcs.lcs.Alignment.validate, cli.main) == originals
    assert traced == serve(["lcs", "--graph", path, "--json"])
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0].parent == -1
    for name in ("graph.reachability", "lcs.match_points", "daglp.topo_sort", "lcs.Alignment.validate"):
        assert name in names
    by_name = {s.name: s for s in tracer.spans}
    assert tracer.spans[by_name["lcs.match_points"].parent].name == "lcs.build_match_graph"
    assert tracer.spans[by_name["daglp.topo_sort"].parent].name == "daglp.longest_path_vertex"
    own = tracer.self_times()
    assert all(t >= 0 for t in own) and own[0] < tracer.spans[0].end - tracer.spans[0].start


def test_generators_are_seeded_and_sized():
    a, b = gen.bubble_graph(random.Random(3), 40, 450), gen.bubble_graph(random.Random(3), 40, 450)
    assert a == b and a.n == 121 and sum(map(len, a.labels)) == 450
    assert all(u < v for u, v in a.edges)
    read = gen.sample_read(random.Random(3), a, 50, 0.05)
    assert len(read) == 50 and set(read) <= set(gen.DNA)
    stress = gen.stress_graph(random.Random(3))
    assert stress.n == 50 and {len(label) for label in stress.labels} == {10}
    assert stress.edges == gen.stress_graph(random.Random(4)).edges


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    spans = {name for name, *_ in TARGETS}
    assert set(run.SPAN_S) | set(run.SPAN_SELF_S) <= spans
