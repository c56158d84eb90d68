"""Common-subsequence and chaining solvers between a sequence and a
pangenome graph, all reduced to longest paths in product DAGs.

The package exports the user API: the four solvers, the longest-path
solvers, the parsers, and the result and error types.  Everything else is
imported from its own module: the brute-force oracles from
:mod:`panlcs.oracle`, the reference product-DAG builders from
:mod:`panlcs.lcs`, :mod:`panlcs.fglcs` and :mod:`panlcs.chaining`, the
reachability, character graph and distances from :mod:`panlcs.graph`, and
instance generation from :mod:`panlcs.generate`.
"""

from .chaining import Chain, Seed, SeedError, parse_seeds, solve_memc, solve_msp
from .daglp import (
    CycleError,
    DagError,
    LongestPathResult,
    MatchDag,
    longest_path_edge,
    longest_path_vertex,
    parse_dag,
)
from .fglcs import GapParams, solve_fglcs_sg
from .generate import Instance, parse_instance
from .graph import GraphError, PangenomeGraph, parse_graph
from .lcs import Alignment, AlignmentError, solve_lcs_sg

__version__ = "0.1.0"

__all__ = [
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
