"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on the terminal.
"""

import json
import random
import time
from functools import lru_cache

import helpers
from panlcs import (
    GapParams,
    PangenomeGraph,
    longest_path_vertex,
    solve_fglcs_sg,
    solve_lcs_sg,
    solve_memc,
    solve_msp,
)
from panlcs.chaining import Seed, build_seed_graph
from panlcs.daglp import topo_sort
from panlcs.fglcs import build_gap_match_graph
from panlcs.graph import build_char_graph, char_distances
from panlcs.lcs import build_match_graph
from panlcs.oracle import (
    classic_lcs_dp,
    enumerate_mems,
    fglcs_bruteforce,
    lcs_sg_bruteforce,
    memc_bruteforce,
    msp_bruteforce,
)
from panlcs.cli import main

RNG_SEED = 20260810
K_GRID = [1, 2, 3, None]


def report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status} ({detail})")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared corpora
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def small_acyclic_corpus(count=500) -> tuple:
    rng = random.Random(RNG_SEED)
    out = []
    for _ in range(count):
        alphabet = rng.randint(2, 4)
        g = helpers.random_graph(rng, max_n=5, max_label=3, alphabet=alphabet, acyclic=True)
        q = helpers.random_query(rng, max_len=8, alphabet=alphabet)
        out.append((q, g))
    return tuple(out)


@lru_cache(maxsize=None)
def cyclic_corpus(count=200) -> tuple:
    rng = random.Random(RNG_SEED + 1)
    out = []
    for _ in range(count):
        alphabet = rng.randint(2, 4)
        g = helpers.random_graph(rng, max_n=5, max_label=3, alphabet=alphabet, acyclic=False)
        q = helpers.random_query(rng, max_len=8, alphabet=alphabet)
        out.append((q, g))
    return tuple(out)


@lru_cache(maxsize=None)
def seed_corpus(count=300) -> tuple:
    """(seeds, graph, query) triples with at most 10 seeds each."""
    rng = random.Random(RNG_SEED + 2)
    out = []
    while len(out) < count:
        alphabet = rng.randint(2, 3)
        g = helpers.random_graph(rng, max_n=5, max_label=3, alphabet=alphabet, acyclic=True)
        q = helpers.random_query(rng, max_len=8, alphabet=alphabet)
        mems = list(enumerate_mems(q, g))
        if len(mems) > 10:
            mems = [mems[k] for k in sorted(rng.sample(range(len(mems)), 10))]
        # occasionally shrink a seed: chaining must accept non-maximal input
        for k, seed in enumerate(mems):
            if seed.length > 1 and rng.random() < 0.3:
                cut = rng.randrange(seed.length - 1)
                mems[k] = Seed(seed.vertex, seed.i, seed.i2 - cut, seed.j, seed.j2 - cut)
        out.append((tuple(mems), g, q))
    return tuple(out)


@lru_cache(maxsize=None)
def stress_instance() -> tuple:
    """|Q| = 100, N = 500, n = 50 over several weakly linked chains."""
    rng = random.Random(RNG_SEED + 3)
    letters = b"abcdefgh"
    n, chains, label_len = 50, 5, 10
    per = n // chains
    vertices = [
        (f"v{k}", bytes(rng.choice(letters) for _ in range(label_len))) for k in range(n)
    ]
    edges = []
    for c in range(chains):
        for k in range(per - 1):
            edges.append((f"v{c * per + k}", f"v{c * per + k + 1}"))
    for _ in range(8):
        a, b = sorted(rng.sample(range(n), 2))
        edges.append((f"v{a}", f"v{b}"))
    g = PangenomeGraph.from_items(vertices, edges)
    q100 = bytes(rng.choice(letters) for _ in range(100))
    q200 = bytes(rng.choice(letters) for _ in range(200))
    return g, q100, q200


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_single_vertex_equivalence():
    rng = random.Random(RNG_SEED + 4)
    started = time.perf_counter()
    checked = 0
    for _ in range(500):
        sigma = rng.randint(1, 4)
        q1 = bytes(rng.choice(b"abcd"[:sigma]) for _ in range(rng.randint(0, 30)))
        q2 = bytes(rng.choice(b"abcd"[:sigma]) for _ in range(rng.randint(1, 30)))
        g = PangenomeGraph.from_items([("v", q2)], [])
        assert solve_lcs_sg(q1, g).score == classic_lcs_dp(q1, q2)
        checked += 1
    elapsed = time.perf_counter() - started
    report(
        "criterion 1 (single-vertex equivalence)",
        checked == 500 and elapsed < 10.0,
        f"{checked} pairs, {elapsed:.1f}s < 10s",
    )


def test_criterion_2_lcs_oracle_equality():
    started = time.perf_counter()
    checked = 0
    for q, g in small_acyclic_corpus():
        assert solve_lcs_sg(q, g).score == lcs_sg_bruteforce(q, g)
        checked += 1
    elapsed = time.perf_counter() - started
    report(
        "criterion 2 (LCS-SG oracle equality)",
        checked == 500 and elapsed < 60.0,
        f"{checked} acyclic instances, {elapsed:.1f}s < 60s",
    )


def dense_graph_gaps(alignment, g, cg, dist):
    """Each step's graph gap, read from the dense ``char_distances`` array."""
    nodes = [cg.starts[g.vertex_index(vid)] + off for vid, off in alignment.g_positions]
    return [dist[a, b] for a, b in zip(nodes, nodes[1:])]


def test_criterion_3_fglcs_oracle_equality():
    checked = 0
    for q, g in small_acyclic_corpus():
        cg = build_char_graph(g)
        dist = char_distances(g)
        lcs_score = solve_lcs_sg(q, g).score
        for k1 in K_GRID:
            for k2 in K_GRID:
                gaps = GapParams(k1, k2)
                alignment = solve_fglcs_sg(q, g, gaps)
                alignment.validate(q, g, gap_params=gaps)
                assert [dg for _, dg in alignment.gaps] == dense_graph_gaps(alignment, g, cg, dist)
                score = alignment.score
                assert score == fglcs_bruteforce(q, g, gaps), (q, g, k1, k2)
                if k1 is None and k2 is None:
                    assert score == lcs_score
                checked += 1
    report(
        "criterion 3 (FGLCS-SG oracle equality + unbounded reduction)",
        checked == 500 * 16,
        f"{checked} (instance, k1, k2) solves, all exact",
    )


def test_criterion_4_memc_oracle_equality():
    checked = 0
    for seeds, g, q in seed_corpus():
        chain = solve_memc(seeds, g, query=q)
        assert chain.length == memc_bruteforce(seeds, g)
        checked += 1
    report(
        "criterion 4 (MEMC oracle equality)",
        checked == 300,
        f"{checked} seed sets, all exact",
    )


def test_criterion_5_msp_oracle_equality():
    checked = 0
    for seeds, g, q in seed_corpus():
        chain = solve_msp(seeds, g, query=q)
        assert chain.count == msp_bruteforce(seeds, g)
        if seeds:
            unit = build_seed_graph(seeds, g, unit_weights=True)
            assert longest_path_vertex(unit).score == chain.count
        checked += 1
    report(
        "criterion 5 (MSP oracle equality + unit-weight agreement)",
        checked == 300,
        f"{checked} seed sets, all exact",
    )


def test_criterion_6_dag_property():
    built = 0
    for q, g in small_acyclic_corpus() + cyclic_corpus():
        dag = build_match_graph(q, g)
        assert len(topo_sort(dag)) == dag.n_nodes
        built += 1
        gapped = build_gap_match_graph(q, g, GapParams(2, 2))
        assert len(topo_sort(gapped)) == gapped.n_nodes
        built += 1
    rng = random.Random(RNG_SEED + 5)
    for seeds, g, q in seed_corpus():
        dag = build_seed_graph(seeds, g)
        assert len(topo_sort(dag)) == dag.n_nodes
        built += 1
        # the same seeds against a cyclic graph still chain acyclically
        cyclic = helpers.random_graph(rng, max_n=4, max_label=4, alphabet=3, acyclic=False)
        cyc_seeds = []
        for k, s in enumerate(seeds[:6]):
            v = rng.randrange(cyclic.n)
            label = cyclic.labels[v]
            i = rng.randrange(len(label))
            i2 = rng.randint(i, len(label) - 1)
            cyc_seeds.append(Seed(cyclic.ids[v], i, i2, s.j, s.j + (i2 - i)))
        dag = build_seed_graph(cyc_seeds, cyclic)
        assert len(topo_sort(dag)) == dag.n_nodes
        built += 1
    report(
        "criterion 6 (product graphs are always DAGs)",
        built >= 2000,
        f"{built} built product graphs, no cycle reported",
    )


def test_criterion_7_recurrence_residual():
    checked = 0
    for q, g in small_acyclic_corpus():
        dag = build_match_graph(q, g)
        result = longest_path_vertex(dag)
        assert helpers.residual_ok(dag, result.dist, "vertex")
        checked += 1
    for seeds, g, q in seed_corpus():
        dag = build_seed_graph(seeds, g)
        result = longest_path_vertex(dag)
        assert helpers.residual_ok(dag, result.dist, "vertex")
        checked += 1
    for q, g in small_acyclic_corpus()[:100]:
        dag = build_gap_match_graph(q, g, GapParams(2, 3))
        result = longest_path_vertex(dag)
        assert helpers.residual_ok(dag, result.dist, "vertex")
        checked += 1
    report(
        "criterion 7 (recurrence residual)",
        checked == 900,
        f"{checked} solved DAGs, every dist entry satisfies the recurrence",
    )


def test_criterion_8_output_self_validation():
    violations = 0
    checked = 0
    for q, g in small_acyclic_corpus()[:250]:
        cg = build_char_graph(g)
        solve_lcs_sg(q, g).validate(q, g)
        gaps = GapParams(2, 2)
        alignment = solve_fglcs_sg(q, g, gaps)
        alignment.validate(q, g, gap_params=gaps)
        assert [dg for _, dg in alignment.gaps] == dense_graph_gaps(alignment, g, cg, char_distances(g))
        checked += 2
    for seeds, g, q in seed_corpus():
        solve_memc(seeds, g, query=q).validate(g, q)
        solve_msp(seeds, g, query=q).validate(g, q)
        checked += 2
    report(
        "criterion 8 (output self-validation)",
        violations == 0 and checked == 1100,
        f"{checked} emitted alignments/chains re-validated, {violations} violations",
    )


def test_criterion_9_complexity_smoke():
    g, q100, q200 = stress_instance()
    assert g.n == 50 and g.total_label_length == 500 and len(q100) == 100

    started = time.perf_counter()
    alignment = solve_lcs_sg(q100, g)
    pipeline = time.perf_counter() - started
    assert alignment.score > 0

    # warm both sizes so allocator effects do not skew the timed trials
    build_match_graph(q100, g)
    build_match_graph(q200, g)

    # interleaved back-to-back pairs cancel machine-load drift between sizes
    ratios = []
    for _ in range(3):
        t0 = time.perf_counter()
        small = build_match_graph(q100, g)
        t1 = time.perf_counter()
        large = build_match_graph(q200, g)
        t2 = time.perf_counter()
        ratios.append((t2 - t1) / (t1 - t0))
    factor = sorted(ratios)[1]
    # the build's linear parts scale 2x and its arcs about 4x, so a faster
    # arc copy moves the factor toward 2; the cost per arc must not grow
    per_arc = factor * small.n_arcs / large.n_arcs
    report(
        "criterion 9 (complexity smoke)",
        pipeline < 60.0 and factor <= 6.0 and per_arc <= 1.5,
        f"pipeline {pipeline:.1f}s < 60s; doubling |Q| scales build by {factor:.2f}x <= 6 "
        f"and its seconds per arc by {per_arc:.2f}x <= 1.5",
    )


def test_criterion_10_determinism(capsys, tmp_path):
    graph_path = tmp_path / "g.tsv"
    graph_path.write_text("V a ab\nV b ba\nE a b\n")
    seeds_path = tmp_path / "s.tsv"
    seeds_path.write_text("a 0 1 0 1\nb 0 1 3 4\n")
    commands = [
        ["lcs", "--graph", str(graph_path), "--query", "aba", "--json"],
        ["fglcs", "--graph", str(graph_path), "--query", "aba", "--k1", "2", "--k2", "2", "--json"],
        ["chain", "--graph", str(graph_path), "--seeds", str(seeds_path), "--objective", "len", "--json"],
        ["chain", "--graph", str(graph_path), "--seeds", str(seeds_path), "--objective", "count", "--json"],
        ["gen", "--seed", "11"],
        ["gen", "--seed", "11", "--cyclic"],
    ]
    identical = True
    for argv in commands:
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        identical = identical and first == second
        if argv[-1] == "--json":
            json.loads(first)  # canonical machine output stays parseable
    with capsys.disabled():
        report(
            "criterion 10 (byte-identical reruns)",
            identical,
            f"{len(commands)} commands re-run byte-identically",
        )
