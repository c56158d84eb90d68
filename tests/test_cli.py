import io
import json
import logging
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import helpers
import panlcs
import panlcs.cli
import panlcs.oracle
from panlcs import Alignment, Chain, Seed, parse_graph
from panlcs.chaining import format_seeds
from panlcs.cli import main
from panlcs.graph import reachability
from panlcs.oracle import enumerate_mems

TWO_VERTEX = "V a ab\nV b ba\nE a b\n"


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text(TWO_VERTEX)
    return str(path)


def run(capsys, argv, stdin=None, monkeypatch=None):
    """Run the CLI; ``stdin`` (str or bytes) is fed as a byte stream, like a pipe."""
    if stdin is not None:
        data = stdin if isinstance(stdin, bytes) else stdin.encode()
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(argv):
    """Run the CLI in a new interpreter, as ``python -m panlcs``."""
    package_root = str(Path(panlcs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "panlcs", *argv], capture_output=True, env=env, timeout=60)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


class TestLcsCommand:
    def test_json_output(self, capsys, graph_file):
        code, out, _ = run(capsys, ["lcs", "--graph", graph_file, "--query", "aba", "--json"])
        assert code == 0
        record = json.loads(out)
        assert record["problem"] == "lcs-sg"
        assert record["score"] == 3
        assert record["subsequence"] == "aba"
        assert record["embedding"][0] == {"q": 0, "vertex": "a", "offset": 0}

    def test_human_output_plain_without_tty(self, capsys, graph_file):
        code, out, _ = run(capsys, ["lcs", "--graph", graph_file, "--query", "aba"])
        assert code == 0
        assert "score: 3" in out
        assert "\x1b[" not in out  # captured stdout is not a tty

    def test_tsv_output(self, capsys, graph_file):
        code, out, _ = run(capsys, ["lcs", "--graph", graph_file, "--query", "aba", "--output", "tsv"])
        assert code == 0
        assert "score\t3" in out

    def test_query_file(self, capsys, tmp_path, graph_file):
        qfile = tmp_path / "q.txt"
        qfile.write_text("aba\n")
        code, out, _ = run(capsys, ["lcs", "--graph", graph_file, "--query-file", str(qfile), "--json"])
        assert code == 0 and json.loads(out)["score"] == 3

    def test_missing_query_is_usage_error(self, capsys, graph_file):
        code, _, err = run(capsys, ["lcs", "--graph", graph_file])
        assert code == 2
        assert "no query" in err

    def test_oracle_check_passes(self, capsys, graph_file):
        code, _, _ = run(capsys, ["lcs", "--graph", graph_file, "--query", "aba", "--json", "--oracle-check"])
        assert code == 0

    def test_oracle_mismatch_exits_4(self, capsys, graph_file, monkeypatch):
        monkeypatch.setattr("panlcs.oracle.lcs_sg_bruteforce", lambda *a, **k: 99)
        code, _, err = run(capsys, ["lcs", "--graph", graph_file, "--query", "aba", "--oracle-check"])
        assert code == 4
        assert "mismatch" in err

    def test_parse_error_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("V a\n")
        code, _, err = run(capsys, ["lcs", "--graph", str(bad), "--query", "a"])
        assert code == 3
        assert "error" in err

    def test_gfa_input(self, capsys, tmp_path):
        gfa = tmp_path / "g.gfa"
        gfa.write_text("S\t1\tab\nS\t2\tba\nL\t1\t+\t2\t+\t0M\n")
        code, out, _ = run(
            capsys,
            ["lcs", "--graph", str(gfa), "--graph-format", "gfa", "--query", "aba", "--json"],
        )
        assert code == 0 and json.loads(out)["score"] == 3

    def test_runs_as_python_dash_m(self, capsys, graph_file):
        argv = ["lcs", "--graph", graph_file, "--query", "aba", "--json"]
        code, out, err = run_fresh(argv)
        assert code == 0, err
        assert (code, out, err) == run(capsys, argv)


class TestFglcsCommand:
    def test_unbounded_equals_lcs(self, capsys, graph_file):
        code, out, _ = run(
            capsys,
            ["fglcs", "--graph", graph_file, "--query", "aba", "--k1", "inf", "--k2", "inf", "--json"],
        )
        assert code == 0
        record = json.loads(out)
        assert record["problem"] == "fglcs-sg"
        assert record["score"] == 3
        assert all(p["dq"] > 0 and p["dg"] > 0 for p in record["gaps"])

    def test_k1_k2_required(self, capsys, graph_file):
        code, _, _ = run(capsys, ["fglcs", "--graph", graph_file, "--query", "aba"])
        assert code == 2

    def test_bad_bound_exits_3(self, capsys, graph_file):
        code, _, err = run(
            capsys, ["fglcs", "--graph", graph_file, "--query", "aba", "--k1", "0", "--k2", "1"]
        )
        assert code == 3
        assert "k1" in err

    def test_oracle_check(self, capsys, graph_file):
        code, _, _ = run(
            capsys,
            ["fglcs", "--graph", graph_file, "--query", "aba", "--k1", "2", "--k2", "2", "--oracle-check"],
        )
        assert code == 0

    def test_unbounded_score_matches_lcs_command(self, capsys, graph_file):
        _, lcs_out, _ = run(capsys, ["lcs", "--graph", graph_file, "--query", "aba", "--json"])
        _, fg_out, _ = run(
            capsys,
            ["fglcs", "--graph", graph_file, "--query", "aba", "--k1", "inf", "--k2", "inf", "--json"],
        )
        assert json.loads(lcs_out)["score"] == json.loads(fg_out)["score"]

    def test_missing_file_exits_3(self, capsys):
        code, _, err = run(capsys, ["lcs", "--graph", "/nonexistent/g.tsv", "--query", "a"])
        assert code == 3


class TestByteFidelity:
    """Every input channel hands the solver the same bytes."""

    GRAPH = b"V a \xc3\xa9x\nV b y\nE a b\n"  # label bytes c3 a9 78: UTF-8 "\u00e9x"
    QUERY = b"\xc3\xa9xy"

    @pytest.fixture()
    def files(self, tmp_path):
        graph, query = tmp_path / "g.tsv", tmp_path / "q.txt"
        graph.write_bytes(self.GRAPH)
        query.write_bytes(self.QUERY + b"\n")
        return str(graph), str(query)

    def score(self, capsys, argv, stdin=None, monkeypatch=None):
        code, out, err = run(capsys, argv + ["--json"], stdin, monkeypatch)
        assert code == 0, err
        return json.loads(out)["score"]

    def test_graph_on_stdin_scores_as_from_a_file(self, capsys, files, monkeypatch):
        graph, query = files
        assert self.score(capsys, ["lcs", "--graph", graph, "--query-file", query]) == 4
        assert self.score(capsys, ["lcs", "--query-file", query], self.GRAPH, monkeypatch) == 4

    def test_inline_query_keeps_its_bytes(self, capsys, files, tmp_path):
        graph, _ = files
        inline = os.fsdecode(self.QUERY)  # as sys.argv holds it
        assert self.score(capsys, ["lcs", "--graph", graph, "--query", inline]) == 4
        seeds = tmp_path / "s.tsv"
        seeds.write_text("a 0 1 0 1\n")  # label bytes c3 a9 = query bytes 0..1
        chain = ["chain", "--graph", graph, "--seeds", str(seeds), "--query", inline, "--objective", "len"]
        assert self.score(capsys, chain) == 2

    def test_non_utf8_label_byte_on_stdin(self, capsys, tmp_path, monkeypatch):
        query = tmp_path / "q.txt"
        query.write_bytes(b"\xe9xy\n")
        graph = b"V a \xe9x\nV b y\nE a b\n"
        assert self.score(capsys, ["lcs", "--query-file", str(query)], graph, monkeypatch) == 3
        assert self.score(capsys, ["lcs", "--query", os.fsdecode(b"\xe9xy")], graph, monkeypatch) == 3


class TestByteFaithfulText:
    """Non-JSON output gives the input bytes back unchanged."""

    GRAPH = b"V \xe9v abab\nV w ba\nE \xe9v w\n"  # vertex id byte e9 is not UTF-8

    @pytest.fixture()
    def graph(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_bytes(self.GRAPH)
        return str(path)

    def out(self, capsysbinary, argv):
        code = main(argv)
        captured = capsysbinary.readouterr()
        assert code == 0, captured.err
        return captured.out

    @pytest.mark.parametrize("mode", ["tsv", "human"])
    def test_vertex_id_bytes_round_trip(self, capsysbinary, graph, mode):
        out = self.out(capsysbinary, ["lcs", "--graph", graph, "--query", "abba", "--output", mode])
        assert b"\xe9v" in out and b"\xc3" not in out

    def test_label_bytes_in_subsequence(self, capsysbinary, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_bytes(b"V a \xe9x\n")
        out = self.out(capsysbinary, ["lcs", "--graph", str(path), "--query", os.fsdecode(b"\xe9x"), "--output", "tsv"])
        assert b"subsequence\t\xe9x\n" in out

    def test_mems_output_feeds_chain(self, capsysbinary, graph, tmp_path):
        seeds = tmp_path / "s.tsv"
        seeds.write_bytes(self.out(capsysbinary, ["mems", "--graph", graph, "--query", "abba"]))
        out = self.out(capsysbinary, ["chain", "--graph", graph, "--seeds", str(seeds), "--objective", "len"])
        assert b"score: 4\n" in out and b"vertex=\xe9v" in out

    @pytest.mark.parametrize("mode", ["json", "tsv"])
    def test_record_written_before_oracle_runs(self, monkeypatch, graph, mode):
        raw = io.BytesIO()
        monkeypatch.setattr("sys.stdout", io.TextIOWrapper(io.BufferedWriter(raw)))
        seen = []
        monkeypatch.setattr("panlcs.oracle.lcs_sg_bruteforce", lambda *args: seen.append(raw.getvalue()) or 4)
        assert main(["lcs", "--graph", graph, "--query", "abba", "--oracle-check", "--output", mode]) == 0
        assert len(seen) == 1 and b"score" in seen[0]

    def test_ascii_json_unchanged(self, capsysbinary, graph):
        out = self.out(capsysbinary, ["lcs", "--graph", graph, "--query", "abba", "--json"])
        assert out.isascii() and b'"vertex": "\\u00e9v"' in out


class TestChainCommand:
    def test_objectives(self, capsys, tmp_path, graph_file):
        seeds = tmp_path / "seeds.tsv"
        seeds.write_text("a 0 1 0 1\nb 0 1 3 4\na 0 0 6 6\n")
        code, out, _ = run(
            capsys,
            ["chain", "--graph", graph_file, "--seeds", str(seeds), "--objective", "len", "--json"],
        )
        assert code == 0
        record = json.loads(out)
        assert record["problem"] == "memc"
        assert record["score"] == 4
        assert record["chain"][0] == {"vertex": "a", "i": 0, "i2": 1, "j": 0, "j2": 1}

        code, out, _ = run(
            capsys,
            ["chain", "--graph", graph_file, "--seeds", str(seeds), "--objective", "count", "--json"],
        )
        record = json.loads(out)
        assert record["problem"] == "msp" and record["score"] == 2

    def test_objective_required(self, capsys, tmp_path, graph_file):
        seeds = tmp_path / "seeds.tsv"
        seeds.write_text("a 0 1 0 1\n")
        code, _, _ = run(capsys, ["chain", "--graph", graph_file, "--seeds", str(seeds)])
        assert code == 2

    def test_oracle_check(self, capsys, tmp_path, graph_file):
        seeds = tmp_path / "seeds.tsv"
        seeds.write_text("a 0 1 0 1\nb 0 1 3 4\n")
        code, _, _ = run(
            capsys,
            ["chain", "--graph", graph_file, "--seeds", str(seeds), "--objective", "len", "--oracle-check"],
        )
        assert code == 0

    def test_invalid_seed_exits_3(self, capsys, tmp_path, graph_file):
        seeds = tmp_path / "seeds.tsv"
        seeds.write_text("a 0 9 0 9\n")
        code, _, err = run(
            capsys, ["chain", "--graph", graph_file, "--seeds", str(seeds), "--objective", "len"]
        )
        assert code == 3


class TestErrorLines:
    """A malformed record is refused with exit 3 and the line it sits on,
    counting comment, blank, query and seed lines."""

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (["lcs", "--graph", "{input}"], "# c\n\nQ ab\nS a 0 0 0 0\nV a ab\nV b\n",
             "line 6: empty label (V lines need `V <id> <label>`)"),
            (["lcs", "--graph", "{input}", "--query", "a", "--graph-format", "gfa"],
             "# c\n\nH\tVN:Z:1.0\nS\t1\tab\nL\t1\t+\t1\t?\n", "line 5: bad orientation '?'"),
            (["chain", "--graph", "{graph}", "--seeds", "{input}", "--objective", "len"],
             "# c\n\na 0 0 0 0\na 0 1 0\n", "line 4: expected `<vertex> <i> <i'> <j> <j'>`"),
            (["lp", "--dag", "{input}"], "# c\n\nN 0 1\nN 0 2\n", "line 4: duplicate node index 0"),
        ],
    )
    def test_error_names_the_line(self, capsys, tmp_path, graph_file, argv, text, message):
        path = tmp_path / "input"
        path.write_bytes(text.replace("\n", "\r\n").encode())
        code, out, err = run(capsys, [a.format(input=path, graph=graph_file) for a in argv])
        assert (code, out, err) == (3, "", f"error: {message}\n")


class TestLpCommand:
    def test_edge_mode(self, capsys, tmp_path):
        dag = tmp_path / "dag.tsv"
        dag.write_text("N 0 1\nN 1 2\nN 2 3\nA 0 1 3\nA 1 2 4\nA 0 2 5\n")
        code, out, _ = run(capsys, ["lp", "--dag", str(dag), "--mode", "edge", "--json"])
        assert code == 0
        record = json.loads(out)
        assert record["score"] == 7 and record["path"] == [0, 1, 2]

    def test_vertex_mode_default(self, capsys, tmp_path):
        dag = tmp_path / "dag.tsv"
        dag.write_text("N 0 5\nN 1 2\n")
        code, out, _ = run(capsys, ["lp", "--dag", str(dag), "--json"])
        assert json.loads(out)["score"] == 5

    def test_human_output_lists_the_path(self, capsys, tmp_path):
        dag = tmp_path / "dag.tsv"
        dag.write_text("N 0 1\nN 1 2\nN 2 3\nA 0 1 3\nA 1 2 4\nA 0 2 5\n")
        code, out, _ = run(capsys, ["lp", "--dag", str(dag), "--mode", "edge"])
        assert code == 0
        assert out == "problem: lp\nmode: edge\nscore: 7\npath:\n  0\n  1\n  2\n"

    def test_tsv_output_lists_the_path(self, capsys, tmp_path):
        dag = tmp_path / "dag.tsv"
        dag.write_text("N 0 1\nN 1 2\nN 2 3\nA 0 1 3\nA 1 2 4\nA 0 2 5\n")
        code, out, _ = run(capsys, ["lp", "--dag", str(dag), "--output", "tsv"])
        assert code == 0
        assert out == "problem\tlp\nmode\tvertex\nscore\t6\npath\t0\npath\t1\npath\t2\n"

    def test_cycle_exits_3(self, capsys, tmp_path):
        dag = tmp_path / "dag.tsv"
        dag.write_text("N 0 1\nN 1 1\nA 0 1\nA 1 0\n")
        code, _, err = run(capsys, ["lp", "--dag", str(dag)])
        assert code == 3
        assert "cycle" in err

    @pytest.mark.parametrize(
        "text, mode, message",
        [
            # 2**62 + 2**62 wraps in int64: refused instead of a wrong score
            ("N 0 4611686018427387904\nN 1 4611686018427387904\nA 0 1\n", "vertex", "must stay below 2**60"),
            # an arc weight beyond int64 is refused instead of a traceback
            ("N 0 1\nN 1 1\nA 0 1 9223372036854775808\n", "edge", "64-bit"),
        ],
    )
    def test_overflowing_weights_exit_3(self, capsys, tmp_path, text, mode, message):
        dag = tmp_path / "dag.tsv"
        dag.write_text(text)
        code, out, err = run(capsys, ["lp", "--dag", str(dag), "--mode", mode, "--json"])
        assert code == 3 and out == ""
        assert err.startswith("error: ") and message in err


class TestVerbose:
    SEEDS = "a 0 1 0 1\nb 0 1 3 4\n"

    @pytest.mark.parametrize(
        "argv, lines",
        [
            (["lcs", "--query", "aba"], ["panlcs.lcs: product DAG: 6 matches, 5 arcs", "panlcs.daglp: longest path: 6 nodes, 5 arcs, 3 runs"]),
            (["fglcs", "--query", "aba", "--k1", "2", "--k2", "2"], ["panlcs.fglcs: fglcs table: 3 query rows x 4 characters, predecessors by radius-2 balls, 5 character pairs"]),
            (["chain", "--seeds", "SEEDS", "--objective", "len"], ["panlcs.chaining: chain: 2 seeds, 2 runs, 1 cells scanned"]),
        ],
        ids=["lcs", "fglcs", "chain"],
    )
    @pytest.mark.parametrize("output", [["--json"], ["--output", "tsv"], []], ids=["json", "tsv", "human"])
    def test_logs_to_stderr_and_keeps_stdout(self, capsys, tmp_path, graph_file, argv, lines, output):
        seeds = tmp_path / "s.tsv"
        seeds.write_text(self.SEEDS)
        argv = [str(seeds) if a == "SEEDS" else a for a in argv] + ["--graph", graph_file] + output
        code, quiet_out, quiet_err = run(capsys, argv)
        assert code == 0 and quiet_err == ""
        code, out, err = run(capsys, argv + ["-v"])
        assert code == 0 and out == quiet_out
        assert err.splitlines() == lines

    def test_handler_removed_after_the_command(self, capsys, graph_file):
        logger = logging.getLogger("panlcs")
        handlers, level = list(logger.handlers), logger.level
        run(capsys, ["lcs", "--graph", graph_file, "--query", "aba", "-v"])
        assert logger.handlers == handlers and logger.level == level
        _, _, err = run(capsys, ["lcs", "--graph", graph_file, "--query", "aba"])
        assert err == ""

    def test_lp_logs_the_solve(self, capsys, tmp_path):
        dag = tmp_path / "dag.tsv"
        dag.write_text("N 0 1\nN 1 2\nA 1 0\n")
        code, _, err = run(capsys, ["lp", "--dag", str(dag), "-v"])
        assert code == 0 and err == "panlcs.daglp: longest path: 2 nodes, 1 arcs, 2 runs\n"


class TestOracleCommand:
    def test_lcs(self, capsys, graph_file):
        code, out, _ = run(capsys, ["oracle", "--problem", "lcs", "--graph", graph_file, "--query", "aba"])
        assert code == 0 and out.strip() == "3"

    def test_fglcs_requires_bounds(self, capsys, graph_file):
        code, _, err = run(capsys, ["oracle", "--problem", "fglcs", "--graph", graph_file, "--query", "aba"])
        assert code == 2

    def test_fglcs_with_bounds(self, capsys, graph_file):
        code, out, _ = run(
            capsys,
            ["oracle", "--problem", "fglcs", "--graph", graph_file, "--query", "aba", "--k1", "inf", "--k2", "inf"],
        )
        assert code == 0 and out.strip() == "3"

    def test_memc(self, capsys, tmp_path, graph_file):
        seeds = tmp_path / "seeds.tsv"
        seeds.write_text("a 0 1 0 1\nb 0 1 3 4\n")
        code, out, _ = run(
            capsys, ["oracle", "--problem", "memc", "--graph", graph_file, "--seeds", str(seeds)]
        )
        assert code == 0 and out.strip() == "4"

    def test_budget_exceeded_exits_3(self, capsys, graph_file):
        code, _, err = run(
            capsys, ["oracle", "--problem", "lcs", "--graph", graph_file, "--query", "a" * 20]
        )
        assert code == 3
        assert "budget" in err


class TestOracleAgreement:
    """``panlcs oracle --problem P`` and ``--oracle-check`` give the brute-force oracle the same inputs."""

    @pytest.mark.parametrize(
        "problem, solver_argv, oracle_flags, brute",
        [
            ("lcs", ["lcs"], [], "lcs_sg_bruteforce"),
            ("fglcs", ["fglcs", "--k1", "2", "--k2", "3"], ["--k1", "2", "--k2", "3"], "fglcs_bruteforce"),
            ("memc", ["chain", "--objective", "len"], [], "memc_bruteforce"),
            ("msp", ["chain", "--objective", "count"], [], "msp_bruteforce"),
        ],
    )
    @pytest.mark.parametrize("seed", range(10))
    def test_same_inputs(self, capsys, tmp_path, monkeypatch, problem, solver_argv, oracle_flags, brute, seed):
        path = tmp_path / "instance.tsv"
        path.write_text(run(capsys, ["gen", "--seed", str(seed)])[1])
        calls, original = [], getattr(panlcs.oracle, brute)

        def record(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(panlcs.oracle, brute, record)
        check = run(capsys, solver_argv + ["--graph", str(path), "--oracle-check"])
        oracle = run(capsys, ["oracle", "--problem", problem, "--graph", str(path)] + oracle_flags)
        assert (check[0], oracle[0]) == (0, 0), (check, oracle)
        assert len(calls) == 2 and calls[0] == calls[1]

    def test_every_solver_documents_oracle_check(self, capsys):
        for command in ("lcs", "fglcs", "chain"):
            code, out, _ = run(capsys, [command, "--help"])
            assert code == 0
            assert "--oracle-check re-solve with the brute-force oracle; exit 4 on mismatch" in " ".join(out.split())


class TestGenAndMems:
    def test_gen_deterministic(self, capsys):
        code1, out1, _ = run(capsys, ["gen", "--seed", "7"])
        code2, out2, _ = run(capsys, ["gen", "--seed", "7"])
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1 != run(capsys, ["gen", "--seed", "8"])[1]

    def test_gen_pipes_into_lcs_oracle_check(self, capsys, monkeypatch):
        _, instance, _ = run(capsys, ["gen", "--seed", "7"])
        code, out, err = run(
            capsys, ["lcs", "--json", "--oracle-check"], stdin=instance, monkeypatch=monkeypatch
        )
        assert code == 0, err
        assert json.loads(out)["problem"] == "lcs-sg"

    def test_gen_pipes_into_chain(self, capsys, monkeypatch):
        _, instance, _ = run(capsys, ["gen", "--seed", "3"])
        if "\nS\t" not in instance:
            pytest.skip("seedless instance for this generator seed")
        code, out, _ = run(
            capsys,
            ["chain", "--objective", "len", "--json", "--oracle-check"],
            stdin=instance,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["problem"] == "memc"

    def test_gen_cyclic_flag(self, capsys):
        code, out, _ = run(capsys, ["gen", "--seed", "5", "--cyclic", "--n", "2", "--edges", "4"])
        assert code == 0
        g = parse_graph("\n".join(l for l in out.splitlines() if l[:1] in "VE"))
        r = reachability(g)
        assert r.matrix.diagonal().any()

    def test_contradictory_knobs_exit_3(self, capsys):
        code, _, err = run(capsys, ["gen", "--label-min", "3", "--label-max", "1"])
        assert code == 3

    def test_mems_output_is_seed_tsv(self, capsys, graph_file, monkeypatch):
        code, out, _ = run(capsys, ["mems", "--graph", graph_file, "--query", "aba"])
        assert code == 0
        for line in out.strip().splitlines():
            assert len(line.split()) == 5

    @pytest.mark.parametrize("per_write", [1, 2, 3, 4096])
    def test_mems_written_in_slices_is_the_whole_listing(self, capsysbinary, graph_file, monkeypatch, per_write):
        monkeypatch.setattr("panlcs.cli.MEMS_PER_WRITE", per_write)
        writes = []
        real_write = panlcs.cli._write
        monkeypatch.setattr("panlcs.cli._write", lambda text: writes.append(text) or real_write(text))
        assert main(["mems", "--graph", graph_file, "--query", "abab"]) == 0
        mems = enumerate_mems(b"abab", parse_graph(TWO_VERTEX))
        assert capsysbinary.readouterr().out == format_seeds(mems).encode()
        assert len(writes) == -(-len(mems) // per_write)

    def test_mems_without_matches_writes_nothing(self, capsysbinary, graph_file):
        assert main(["mems", "--graph", graph_file, "--query", "zz"]) == 0
        assert capsysbinary.readouterr().out == b""

    def test_oversized_reachability_exits_3(self, capsys, graph_file, monkeypatch):
        monkeypatch.setattr("panlcs.graph.MAX_BYTES", 3)
        code, out, err = run(capsys, ["lcs", "--graph", graph_file, "--query", "aba"])
        assert code == 3 and out == ""
        assert "reachability: 2 vertices need 4 bytes" in err

    def test_oversized_fglcs_table_exits_3(self, capsys, graph_file, monkeypatch):
        # 3 query rows x 4 characters at one byte; the 2 x 2 reachability passes
        monkeypatch.setattr("panlcs.graph.MAX_BYTES", 11)
        code, out, err = run(capsys, ["fglcs", "--graph", graph_file, "--query", "aba", "--k1", "2", "--k2", "inf"])
        assert code == 3 and out == ""
        assert "fglcs table: 3 query rows x 4 characters need 12 bytes, over the limit of 11" in err

    def test_oversized_product_dag_exits_3(self, capsys, tmp_path):
        # the benchmark's 901-vertex DNA graph and a 500-character read:
        # 751,502 matches over 6,000 characters, whose successor lists could
        # take 18 GB; refused before any of it is allocated
        gen = helpers.benchmark_generators()
        g = gen.bubble_graph(random.Random(3), 300, 6000)
        path = g.write(tmp_path / "g.tsv", gen.sample_read(random.Random(4), g, 500, 0.05))
        start = time.perf_counter()
        code, out, err = run(capsys, ["lcs", "--graph", path])
        assert time.perf_counter() - start < 5.0
        assert code == 3 and out == ""
        assert "lcs product DAG: lists of 6000 characters x 751502 matches need up to 18036048000 bytes" in err

    def test_out_of_memory_exits_3(self, capsys, graph_file, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(panlcs.cli, "solve_lcs_sg", exhausted)
        code, out, err = run(capsys, ["lcs", "--graph", graph_file, "--query", "aba"])
        assert code == 3 and out == ""
        assert err.startswith("error: out of memory") and err.count("\n") == 1

    def test_no_subcommand_prints_usage(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, _, _ = run(capsys, ["--help"])
        assert code == 0


class TestParserReuse:
    """``main`` builds its argument parser once per process; each call must
    still behave as in a fresh process."""

    def test_consecutive_calls_match_fresh_processes(self, capsys, tmp_path, graph_file):
        seeds, dag = tmp_path / "s.tsv", tmp_path / "d.tsv"
        seeds.write_text("a 0 1 0 1\nb 0 1 3 4\n")
        dag.write_text("N 0 1\nN 1 2\nN 2 3\nA 2 1 3\nA 1 0 4\nA 2 0 5\n")
        lcs = ["lcs", "--graph", graph_file, "--query", "aba"]
        fglcs = ["fglcs", "--graph", graph_file, "--query", "aba", "--k1", "2", "--k2", "2"]
        sequence = [
            lcs + ["--json"],
            lcs,
            fglcs + ["-v"],
            fglcs,
            ["chain", "--graph", graph_file, "--seeds", str(seeds), "--objective", "count", "--output", "tsv", "-v"],
            ["lp", "--dag", str(dag), "--mode", "edge", "--json"],
            lcs + ["--k1", "2"],  # usage error
            [],  # no subcommand
            lcs + ["--json"],
        ]
        for argv in sequence:
            assert run(capsys, argv) == run_fresh(argv), argv

    def test_patched_module_globals_are_reached(self, capsys, graph_file, monkeypatch):
        argv = ["lcs", "--graph", graph_file, "--query", "aba", "--oracle-check"]
        assert run(capsys, argv)[0] == 0
        monkeypatch.setattr("panlcs.oracle.lcs_sg_bruteforce", lambda *a, **k: 99)
        code, _, err = run(capsys, argv)
        assert code == 4 and "99" in err

    def test_parser_built_once(self):
        assert panlcs.cli.build_parser() is panlcs.cli.build_parser()


class TestJsonRoundTrip:
    def test_alignment_revalidates(self, capsys, graph_file):
        _, out, _ = run(capsys, ["lcs", "--graph", graph_file, "--query", "aba", "--json"])
        record = json.loads(out)
        graph = parse_graph(TWO_VERTEX)
        alignment = Alignment(
            score=record["score"],
            subsequence=record["subsequence"].encode("latin-1"),
            q_positions=tuple(e["q"] for e in record["embedding"]),
            g_positions=tuple((e["vertex"], e["offset"]) for e in record["embedding"]),
        )
        alignment.validate(b"aba", graph)

    def test_chain_revalidates(self, capsys, tmp_path, graph_file):
        seeds = tmp_path / "seeds.tsv"
        seeds.write_text("a 0 1 0 1\nb 0 1 3 4\n")
        _, out, _ = run(
            capsys, ["chain", "--graph", graph_file, "--seeds", str(seeds), "--objective", "len", "--json"]
        )
        record = json.loads(out)
        graph = parse_graph(TWO_VERTEX)
        chain = Chain(
            seeds=tuple(Seed(e["vertex"], e["i"], e["i2"], e["j"], e["j2"]) for e in record["chain"]),
            length=record["score"],
            count=len(record["chain"]),
        )
        chain.validate(graph)

    def test_repeated_runs_byte_identical(self, capsys, graph_file):
        _, out1, _ = run(capsys, ["lcs", "--graph", graph_file, "--query", "aba", "--json"])
        _, out2, _ = run(capsys, ["lcs", "--graph", graph_file, "--query", "aba", "--json"])
        assert out1 == out2
