"""The package exports its user API and nothing else: the solvers, the
longest-path solver, the parsers and the result types.  Reference
builders, oracles and generators are imported from their own modules.

The modules depend in one direction: each imports only the layers below
it, and no solve loads the brute-force oracle."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import panlcs

PUBLIC = [
    "Alignment",
    "AlignmentError",
    "Chain",
    "CycleError",
    "DagError",
    "GapParams",
    "GraphError",
    "Instance",
    "LongestPathResult",
    "MatchDag",
    "PangenomeGraph",
    "Seed",
    "SeedError",
    "longest_path_edge",
    "longest_path_vertex",
    "parse_dag",
    "parse_graph",
    "parse_instance",
    "parse_seeds",
    "solve_fglcs_sg",
    "solve_lcs_sg",
    "solve_memc",
    "solve_msp",
]


def test_all_is_the_user_api():
    assert sorted(panlcs.__all__) == PUBLIC


def test_star_import_binds_exactly_the_api():
    namespace: dict = {}
    exec("from panlcs import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC
    for name in PUBLIC:
        assert namespace[name] is getattr(panlcs, name)


def test_no_oracle_export():
    assert all(getattr(panlcs, name).__module__ != "panlcs.oracle" for name in PUBLIC)


@pytest.mark.parametrize("module", ["graph", "daglp", "lcs", "fglcs", "chaining"])
def test_solver_modules_import_no_oracle(module):
    # read the source, function bodies included: a solver module reaches neither at any time
    tree = ast.parse((Path(panlcs.__file__).parent / f"{module}.py").read_text())
    imported = []  # each module, and each name imported from one, as a dotted path
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert not {path.rsplit(".", 1)[-1] for path in imported} & {"oracle", "generate"}


# the panlcs modules each module may import at module level
LAYERS = {
    "graph": set(),
    "daglp": {"graph"},
    "lcs": {"graph", "daglp"},
    "fglcs": {"graph", "daglp", "lcs"},
    "chaining": {"graph", "daglp"},
    "generate": {"graph", "chaining"},
    "oracle": {"graph", "chaining", "fglcs"},
    "cli": {"graph", "daglp", "lcs", "fglcs", "chaining", "generate"},
}


def package_imports(module: str) -> tuple[set, set]:
    """The panlcs modules that ``panlcs.<module>`` imports at module level,
    and those it imports inside functions; ``if TYPE_CHECKING:`` blocks
    are skipped."""
    top: set = set()
    inner: set = set()

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING":
                continue
            found = inner if in_function else top
            if isinstance(child, ast.ImportFrom) and child.level:
                found.update([child.module] if child.module else [alias.name for alias in child.names])
            elif isinstance(child, ast.ImportFrom) and (child.module or "").startswith("panlcs."):
                found.add(child.module.split(".")[1])
            elif isinstance(child, ast.Import):
                found.update(a.name.split(".")[1] for a in child.names if a.name.startswith("panlcs."))
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(ast.parse((Path(panlcs.__file__).parent / f"{module}.py").read_text()), False)
    return top, inner


def test_layers_cover_every_module():
    modules = {path.stem for path in Path(panlcs.__file__).parent.glob("*.py")}
    assert modules - {"__init__", "__main__"} == set(LAYERS)


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_module_level_imports_follow_the_layers(module):
    top, inner = package_imports(module)
    assert top <= LAYERS[module]
    assert "oracle" not in inner or module in ("cli", "generate")  # loaded only where it runs


INSTANCE = "V a ab\nV b ba\nE a b\nQ abba\nS a 0 1 0 1\nS b 0 0 2 2\n"
DAG = "N 0 1\nN 1 2\nN 2 3\nA 2 1 3\nA 1 0 4\n"


def oracle_loaded_after(tmp_path, *argvs) -> list[bool]:
    """In one fresh interpreter, ``import panlcs, panlcs.cli``, then run
    each of ``argvs`` through ``cli.main``; whether ``panlcs.oracle`` is
    loaded after the import and after each command."""
    (tmp_path / "instance.tsv").write_text(INSTANCE)
    (tmp_path / "dag.tsv").write_text(DAG)
    script = (
        "import contextlib, io, json, sys\n"
        "import panlcs, panlcs.cli\n"
        "loaded = ['panlcs.oracle' in sys.modules]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert panlcs.cli.main(argv) == 0, argv\n"
        "    loaded.append('panlcs.oracle' in sys.modules)\n"
        "print(json.dumps(loaded))\n"
    )
    package_root = str(Path(panlcs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_solving_never_loads_the_oracle(tmp_path):
    solves = [
        ["lcs", "--graph", "instance.tsv"],
        ["fglcs", "--graph", "instance.tsv", "--k1", "2", "--k2", "inf"],
        ["chain", "--graph", "instance.tsv", "--objective", "len"],
        ["chain", "--graph", "instance.tsv", "--objective", "count"],
        ["lp", "--dag", "dag.tsv"],
        ["lp", "--dag", "dag.tsv", "--mode", "edge"],
    ]
    assert oracle_loaded_after(tmp_path, *solves) == [False] * (len(solves) + 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["lcs", "--graph", "instance.tsv", "--oracle-check"],
        ["chain", "--graph", "instance.tsv", "--objective", "count", "--oracle-check"],
        ["oracle", "--problem", "lcs", "--graph", "instance.tsv"],
        ["mems", "--graph", "instance.tsv"],
        ["gen", "--seed", "1"],
    ],
    ids=["lcs-oracle-check", "chain-oracle-check", "oracle", "mems", "gen"],
)
def test_oracle_loads_where_it_runs(tmp_path, argv):
    assert oracle_loaded_after(tmp_path, argv) == [False, True]


def test_every_error_is_a_value_error():
    # ``cli.main`` reports input errors by catching ValueError
    errors = {
        cls
        for module in LAYERS
        for name, cls in inspect.getmembers(importlib.import_module(f"panlcs.{module}"), inspect.isclass)
        if name.endswith("Error") and cls.__module__.startswith("panlcs")
    }
    assert {cls.__name__ for cls in errors} >= {name for name in PUBLIC if name.endswith("Error")} | {"OracleError"}
    assert all(issubclass(cls, ValueError) for cls in errors)
