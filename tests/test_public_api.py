"""The package exports its user API and nothing else: the solvers, the
longest-path solver, the parsers and the result types.  Reference
builders, oracles and generators are imported from their own modules."""

import ast
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
    # read the source: ``import panlcs`` loads ``generate``, which imports the oracle
    tree = ast.parse((Path(panlcs.__file__).parent / f"{module}.py").read_text())
    imported = []  # each module, and each name imported from one, as a dotted path
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert not {path.rsplit(".", 1)[-1] for path in imported} & {"oracle", "generate"}
