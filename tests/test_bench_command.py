"""The benchmark command runs on every workload, untraced and traced, and
judges every output correct.

The tracer patches ``panlcs`` functions by module and name and reads their
arguments and return values, so a renamed function or a changed signature
shows here as a crash or a failed request."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_command(workload, trace):
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0 and summary["attempted"] > 0
