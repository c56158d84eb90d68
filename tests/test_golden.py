"""Golden outputs: SHA-256 digests of the CLI's stdout over seeded corpora.

A change that only makes the solvers faster or leaner must leave every
emitted byte as it was: scores, embeddings and the tie-breaks between equal
optima.  Each family below runs one command over a fixed corpus and hashes
the concatenated stdout.  A deliberate change of semantics updates the
digest it moves and says why in CHANGES.md.
"""

import hashlib
import io
import random

import pytest

from panlcs.cli import main

SEEDS = range(60)

SOLVERS = {
    "lcs": ["lcs", "--json"],
    "fglcs": ["fglcs", "--k1", "2", "--k2", "3", "--json"],
    "chain-len": ["chain", "--objective", "len", "--json"],
    "chain-count": ["chain", "--objective", "count", "--json"],
}

DIGESTS = {
    ("lcs", False): "6ca51dd6f9e0dd03f36f7db64d08bbe33f4f5323a6e01b844d1866ad35496009",
    ("lcs", True): "449922684fb7514cb7eb89665d95491d59fd06b1a695e172bd31885414ef1fd2",
    ("fglcs", False): "34650122c4fd17c444f2a2af4c85feec02c253df3e22f1f8bc404c17acc7a196",
    ("fglcs", True): "d234182726d43c3038e0502410bb5cf7db5ecd0a79a441ea0634428681e2e543",
    ("chain-len", False): "cb74721b4d98307816b1ff9f4daf86cfc15d13b3349e72757de13cdd3b79c84f",
    ("chain-len", True): "c7b248fdb9cee165c3699046f99ef875b3100aee62649e3867485e643b8d71f1",
    ("chain-count", False): "1da212fa56b85a37761b3599894e34818f849ceae5684ee5f72c8c3596c54011",
    ("chain-count", True): "b034c43f2755d79a0e2a4a053997d95c7f857383b6c74e1103bf095290579674",
    ("lp", "vertex"): "0bce2b372a20d85084e4146eef32b58ba6d0f7e483ea85ae298e3c2c322907cc",
    ("lp", "edge"): "580eef42af564fa2c47b8b258b466fc77bb542b2a47d80002ca21c257169b71f",
    ("gen", False): "a9e185bfffed05543e045c4463f7fa27b1dc9febc8dce6e593f71e1e85010ad7",
    ("gen", True): "a0368082c483c036014b0dfedf79d09906b327db123346ffc6f1571e768acabc",
    ("mems", False): "e3d698851798ba5ad12decec9e60d2d7337a6675fe605eefb028f22ba52270cc",
    ("mems", True): "5d6378860d5348fb523829c25b00c1d3e2ba900e97a590d725174c7abd334bdd",
}


def run(capsys, monkeypatch, argv, stdin: str) -> str:
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin.encode())))
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, (argv, stdin)
    return out


def random_dag_text(rng: random.Random) -> str:
    """A DAG in the ``lp`` format: nodes numbered in a shuffled topological
    order, arcs drawn with repetition (parallel arcs) and listed shuffled."""
    n = rng.randint(0, 12)
    order = rng.sample(range(n), n)
    pairs = [(order[a], order[b]) for a in range(n) for b in range(a + 1, n)]
    arcs = [rng.choice(pairs) for _ in range(rng.randint(0, 3 * n))] if pairs else []
    lines = [f"N {v} {rng.randint(0, 9)}" for v in range(n)]
    lines += [f"A {u} {v} {rng.randint(0, 9)}" for u, v in arcs]
    return "\n".join(lines) + "\n"


def digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(out.encode())
    return h.hexdigest()


def instances(capsys, monkeypatch, cyclic: bool) -> list[str]:
    """The ``gen`` output for every seed of the corpus."""
    return [run(capsys, monkeypatch, ["gen", "--seed", str(seed)] + ["--cyclic"] * cyclic, "") for seed in SEEDS]


def embedded_query(instance: str) -> str:
    return next(line[2:] for line in instance.splitlines() if line.startswith("Q\t"))


@pytest.mark.parametrize("cyclic", [False, True], ids=["dag", "cyclic"])
@pytest.mark.parametrize("family", list(SOLVERS))
def test_solver_outputs(capsys, monkeypatch, family, cyclic):
    outputs = [run(capsys, monkeypatch, SOLVERS[family], inst) for inst in instances(capsys, monkeypatch, cyclic)]
    assert digest(outputs) == DIGESTS[family, cyclic]


@pytest.mark.parametrize("cyclic", [False, True], ids=["dag", "cyclic"])
def test_gen_outputs(capsys, monkeypatch, cyclic):
    assert digest(instances(capsys, monkeypatch, cyclic)) == DIGESTS["gen", cyclic]


@pytest.mark.parametrize("cyclic", [False, True], ids=["dag", "cyclic"])
def test_mems_outputs(capsys, monkeypatch, cyclic):
    outputs = [
        run(capsys, monkeypatch, ["mems", "--query", embedded_query(inst)], inst)
        for inst in instances(capsys, monkeypatch, cyclic)
    ]
    assert digest(outputs) == DIGESTS["mems", cyclic]


@pytest.mark.parametrize("mode", ["vertex", "edge"])
def test_lp_outputs(capsys, monkeypatch, mode):
    rng = random.Random(8)
    outputs = [run(capsys, monkeypatch, ["lp", "--mode", mode, "--json"], random_dag_text(rng)) for _ in SEEDS]
    assert digest(outputs) == DIGESTS["lp", mode]
