"""panlcs benchmark: serve one workload's requests through the CLI.

Usage, from the repository root::

    python3 perfbench/run.py --workload lcs-dense --seed 1 --seconds 30 --trace 0

One request is one in-process call to ``panlcs.cli.main(argv)`` with stdout
captured, against input files written during set-up.  One client, closed
loop: the request list is served in order, again and again, while another
whole pass still fits in ``--seconds``.  Outputs are checked against the
independent references in ``reference.py`` after the timed region; every
later pass must reproduce the first pass byte for byte.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple

from reference import CheckError
from tracer import Tracer
from workloads import WORKLOADS, Request

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

TAIL = 0.75  # p75: at least ten samples beyond it at 40 requests per run
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "batch_s": "s",
    "request_s.p50": "s",
    "request_s.tail": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# Spans whose inclusive time (.s) or self time (.self_s) is reported.
SPAN_S = (
    "lcs.match_points",
    "daglp.topo_sort",
    "graph.char_distances",
    "graph.build_char_graph",
    "graph.reachability",
    "chaining.build_seed_graph",
    "chaining.parse_seeds",
    "chaining.Chain.validate",
    "oracle.enumerate_mems",
    "generate.parse_instance",
    "lcs.alignment_from_path",
    "lcs.Alignment.validate",
    "cli.main",
)
SPAN_SELF_S = (
    "lcs.build_match_graph",
    "daglp.longest_path_vertex",
    "fglcs.build_gap_match_graph",
)
# count metric -> (span, counter key)
SPAN_COUNTS = {
    "lcs.matches": ("lcs.build_match_graph", "nodes"),
    "lcs.arcs": ("lcs.build_match_graph", "arcs"),
    "daglp.nodes": ("daglp.longest_path_vertex", "nodes"),
    "daglp.arcs": ("daglp.longest_path_vertex", "arcs"),
    "graph.char_nodes": ("graph.build_char_graph", "char_nodes"),
    "fglcs.matches": ("fglcs.build_gap_match_graph", "nodes"),
    "fglcs.arcs": ("fglcs.build_gap_match_graph", "arcs"),
    "graph.vertices": ("graph.reachability", "vertices"),
    "chaining.seeds": ("chaining.build_seed_graph", "nodes"),
    "chaining.arcs": ("chaining.build_seed_graph", "arcs"),
    "oracle.mems": ("oracle.enumerate_mems", "mems"),
    "oracle.cells": ("oracle.enumerate_mems", "cells"),
}
RATIOS = ("lcs.arc_yield", "fglcs.arc_yield", "chaining.arc_yield", "trace.coverage")
TRACE_S = ("cli.self_s", "trace.batch_s", "trace.overhead_s")


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.s": "s" for name in SPAN_S}
    units |= {f"{name}.self_s": "s" for name in SPAN_SELF_S}
    units |= {name: "count" for name in SPAN_COUNTS}
    units |= {name: "ratio" for name in RATIOS}
    units |= {name: "s" for name in TRACE_S}
    return units


class Served(NamedTuple):
    """Outcome of one request; ``code`` is ``None`` if the call raised."""

    code: int | None
    out: str
    seconds: float


def serve(cli, argv: list[str]) -> Served:
    out, err = io.StringIO(), io.StringIO()
    code: int | None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed request, not a crashed benchmark
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
    if code != 0:
        print(f"request {argv[:1]} exited {code}: {err.getvalue()[-500:]}", file=sys.stderr)
    return Served(code, out.getvalue(), seconds)


def serve_pass(cli, requests: list[Request], before: Callable[[int], None] = lambda k: None) -> list[Served]:
    served = []
    for k, request in enumerate(requests):
        gc.collect()
        before(k)
        served.append(serve(cli, request.argv))
    return served


def repeat_passes(run_pass: Callable[[], float], seconds: float) -> None:
    """Call ``run_pass`` (which returns its own duration) until another
    call of median duration would end after ``seconds``; at least once."""
    start = time.perf_counter()
    durations = [run_pass()]
    while time.perf_counter() - start + statistics.median(durations) <= seconds:
        durations.append(run_pass())


def judge(requests: list[Request], passes: list[list[Served]]) -> tuple[int, int]:
    """Check the first pass against the references and every later pass
    against the first; return (attempted, failed)."""
    verdicts = []
    for request, first in zip(requests, passes[0]):
        ok = first.code == 0
        if ok:
            try:
                request.check(first.out)
            except (CheckError, ValueError, LookupError, TypeError) as exc:
                print(f"check failed for {request.argv[:1]}: {exc}", file=sys.stderr)
                ok = False
        verdicts.append(ok)
    attempted = failed = 0
    for served in passes:
        for k, one in enumerate(served):
            attempted += 1
            if not (verdicts[k] and one.code == 0 and one.out == passes[0][k].out):
                failed += 1
    return attempted, failed


def measure_setup() -> float:
    """Median wall time of ``import panlcs.cli`` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import panlcs.cli; print(time.perf_counter() - t)"
    )
    times = []
    for k in range(SETUP_REPEATS + 1):  # the first import also writes bytecode caches
        done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, check=True)
        if k:
            times.append(float(done.stdout))
    return statistics.median(times)


def end_to_end(cli, requests: list[Request], seconds: float, work: Path) -> tuple[list[list[Served]], dict[str, float]]:
    setup_s = measure_setup()
    passes: list[list[Served]] = []

    def run_pass() -> float:
        passes.append(serve_pass(cli, requests))
        return sum(s.seconds for s in passes[-1])

    repeat_passes(run_pass, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    (work / "latencies.json").write_text(json.dumps([[s.seconds for s in p] for p in passes]))
    latencies = sorted(s.seconds for p in passes for s in p)
    metrics = {
        "batch_s": statistics.median(sum(s.seconds for s in p) for p in passes),
        "request_s.p50": statistics.median(latencies),
        "request_s.tail": statistics.quantiles(latencies, n=100, method="inclusive")[round(TAIL * 100) - 1],
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    print(
        f"# {len(passes)} passes of {len(requests)} requests; request_s.tail is p{round(TAIL * 100)}"
        f" over {len(latencies)} requests",
        file=sys.stderr,
    )
    return passes, metrics


def layer_metrics(tracer: Tracer, first: int) -> dict[str, float]:
    """Per-layer totals over the spans recorded since span index ``first``."""
    spans = tracer.spans[first:]
    own = tracer.self_times()[first:]
    total: dict[str, float] = defaultdict(float)
    self_total: dict[str, float] = defaultdict(float)
    counts: dict[tuple[str, str], float] = defaultdict(float)
    for span, self_s in zip(spans, own):
        total[span.name] += span.end - span.start
        self_total[span.name] += self_s
        for key, value in span.counts.items():
            counts[span.name, key] += value
    m = {f"{name}.s": total[name] for name in SPAN_S}
    m |= {f"{name}.self_s": self_total[name] for name in SPAN_SELF_S}
    m |= {metric: counts[key] for metric, key in SPAN_COUNTS.items()}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for layer, span in (("lcs", "lcs.build_match_graph"), ("fglcs", "fglcs.build_gap_match_graph")):
        m[f"{layer}.arc_yield"] = ratio(counts[span, "arcs"], counts[span, "nodes_sq"])
    seeds = "chaining.build_seed_graph"
    m["chaining.arc_yield"] = ratio(counts[seeds, "arcs"], counts[seeds, "nodes_sq"] - counts[seeds, "nodes"])
    m["cli.self_s"] = self_total["cli.main"]
    m["trace.coverage"] = ratio(total["cli.main"] - self_total["cli.main"], total["cli.main"])
    return m


def per_layer(cli, requests: list[Request], seconds: float, work: Path) -> tuple[list[list[Served]], dict[str, float]]:
    """Serve pairs of one untraced and one traced pass, alternating which
    goes first; outputs of both must agree."""
    passes: list[list[Served]] = []
    plain_s: list[float] = []
    traced_s: list[float] = []
    layers: list[dict[str, float]] = []
    tracer = Tracer()

    def plain() -> None:
        passes.append(serve_pass(cli, requests))
        plain_s.append(sum(s.seconds for s in passes[-1]))

    def traced() -> None:
        first = len(tracer.spans)
        base = len(passes) * len(requests)

        def mark(k: int) -> None:
            tracer.request = base + k

        tracer.install()
        try:
            passes.append(serve_pass(cli, requests, before=mark))
        finally:
            tracer.uninstall()
        traced_s.append(sum(s.seconds for s in passes[-1]))
        layers.append(layer_metrics(tracer, first))

    def run_pair() -> float:
        for step in (plain, traced) if len(layers) % 2 == 0 else (traced, plain):
            step()
        return plain_s[-1] + traced_s[-1]

    repeat_passes(run_pair, seconds)
    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    metrics["trace.batch_s"] = statistics.median(traced_s)
    metrics["trace.overhead_s"] = metrics["trace.batch_s"] - statistics.median(plain_s)
    with open(work / "spans.jsonl", "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(vars(span)) + "\n")
    return passes, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "panlcs" / "cli.py").is_file():
        print(f"perfbench: no panlcs sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from panlcs import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: panlcs imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    requests = WORKLOADS[args.workload](random.Random(args.seed), work)
    if args.trace:
        passes, metrics = per_layer(cli, requests, args.seconds, work)
        units = per_layer_units()
    else:
        passes, metrics = end_to_end(cli, requests, args.seconds, work)
        units = END_TO_END_UNITS
    attempted, failed = judge(requests, passes)
    for name, value in metrics.items():
        print(f"{name}\t{value:.6g}\t{units[name]}")
    print(f"failed_frac\t{failed / attempted:.6g}\tratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
