import io
import json
import os

import pytest

from panlcs import Alignment, Chain, Seed, parse_graph, reachability
from panlcs.cli import main

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
        monkeypatch.setattr("panlcs.cli.lcs_sg_bruteforce", lambda *a, **k: 99)
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

    def test_cycle_exits_3(self, capsys, tmp_path):
        dag = tmp_path / "dag.tsv"
        dag.write_text("N 0 1\nN 1 1\nA 0 1\nA 1 0\n")
        code, _, err = run(capsys, ["lp", "--dag", str(dag)])
        assert code == 3
        assert "cycle" in err


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
        assert any(r.reaches(u, u) for u in range(g.n))

    def test_contradictory_knobs_exit_3(self, capsys):
        code, _, err = run(capsys, ["gen", "--label-min", "3", "--label-max", "1"])
        assert code == 3

    def test_mems_output_is_seed_tsv(self, capsys, graph_file, monkeypatch):
        code, out, _ = run(capsys, ["mems", "--graph", graph_file, "--query", "aba"])
        assert code == 0
        for line in out.strip().splitlines():
            assert len(line.split()) == 5

    def test_no_subcommand_prints_usage(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, _, _ = run(capsys, ["--help"])
        assert code == 0


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
        alignment.validate(b"aba", graph, reach=reachability(graph))

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
        chain.validate(graph, reachability(graph))

    def test_repeated_runs_byte_identical(self, capsys, graph_file):
        _, out1, _ = run(capsys, ["lcs", "--graph", graph_file, "--query", "aba", "--json"])
        _, out2, _ = run(capsys, ["lcs", "--graph", graph_file, "--query", "aba", "--json"])
        assert out1 == out2
