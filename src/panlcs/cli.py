"""Command-line entry point.

Subcommands: ``lcs``, ``fglcs``, ``chain`` (objective len or count), ``lp``
(raw DAG debug solve), ``oracle`` (brute-force optimum), ``gen`` (seeded
instance generator), and ``mems`` (maximal exact match enumeration).

JSON is the canonical machine output; the human and tsv modes render the
same record.  Exit codes: 0 success, 2 usage error, 3 parse or validation
error, 4 oracle mismatch under ``--oracle-check``.  The only environment
variable honored is ``NO_COLOR``, which disables colored human output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable

from .chaining import Chain, Seed, SeedError, format_seeds, parse_seeds, solve_memc, solve_msp
from .daglp import CycleError, DagError, longest_path_edge, longest_path_vertex, parse_dag
from .fglcs import GapParams, solve_fglcs_sg
from .generate import GenProfile, Instance, generate_instance, instance_to_tsv, parse_instance
from .graph import GraphError, parse_graph
from .lcs import Alignment, AlignmentError, solve_lcs_sg
from .oracle import (
    OracleBudget,
    OracleError,
    enumerate_mems,
    fglcs_bruteforce,
    lcs_sg_bruteforce,
    memc_bruteforce,
    msp_bruteforce,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_MISMATCH = 4

DEFAULT_GEN_SEED = 0


class UsageError(ValueError):
    """Missing or contradictory flags detected after argparse."""


def _read(path: str) -> str:
    """The bytes of ``path`` (or stdin for ``-``) as one latin-1 code point
    each, so every channel yields the same bytes."""
    if path == "-":
        return sys.stdin.buffer.read().decode("latin-1")
    return Path(path).read_text(encoding="latin-1")


def _load_instance(args: argparse.Namespace) -> Instance:
    text = _read(args.graph)
    if args.graph_format == "gfa":
        return Instance(graph=parse_graph(text, "gfa"))
    return parse_instance(text)


def _resolve_query(args: argparse.Namespace, instance: Instance) -> bytes:
    if getattr(args, "query", None) is not None:
        return os.fsencode(args.query)  # the argument's bytes as given
    if getattr(args, "query_file", None) is not None:
        return _read(args.query_file).rstrip("\r\n").encode("latin-1")
    if instance.query is not None:
        return instance.query
    raise UsageError("no query: pass --query/--query-file or embed a Q line in the instance")


# ---------------------------------------------------------------------------
# output rendering
# ---------------------------------------------------------------------------


def _color_enabled() -> bool:
    return sys.stdout.isatty() and "NO_COLOR" not in os.environ


def _alignment_record(problem: str, alignment: Alignment) -> dict:
    record = {
        "problem": problem,
        "score": alignment.score,
        "subsequence": alignment.subsequence.decode("latin-1"),
        "embedding": [
            {"q": qi, "vertex": vid, "offset": off}
            for qi, (vid, off) in zip(alignment.q_positions, alignment.g_positions)
        ],
    }
    if alignment.gaps is not None:
        record["gaps"] = [{"dq": dq, "dg": dg} for dq, dg in alignment.gaps]
    return record


def _chain_record(problem: str, chain: Chain) -> dict:
    return {
        "problem": problem,
        "score": chain.length if problem == "memc" else chain.count,
        "chain": [
            {"vertex": s.vertex, "i": s.i, "i2": s.i2, "j": s.j, "j2": s.j2}
            for s in chain.seeds
        ],
    }


def _emit(record: dict, mode: str) -> None:
    if mode == "json":
        print(json.dumps(record))
        return
    if mode == "tsv":
        for key, value in record.items():
            if isinstance(value, list):
                for item in value:
                    print("\t".join([key] + [str(v) for v in item.values()]))
            else:
                print(f"{key}\t{value}")
        return
    # human
    for key, value in record.items():
        if isinstance(value, list):
            print(f"{key}:")
            for item in value:
                print("  " + "  ".join(f"{k}={v}" for k, v in item.items()))
        else:
            text = f"{key}: {value}"
            if key == "score" and _color_enabled():
                text = f"{key}: \x1b[32m{value}\x1b[0m"
            print(text)


def _output_mode(args: argparse.Namespace) -> str:
    if args.json:
        return "json"
    return args.output


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _load_seeds(args: argparse.Namespace, instance: Instance) -> tuple[Seed, ...]:
    if args.seeds is not None:
        return parse_seeds(_read(args.seeds))
    if instance.seeds:
        return instance.seeds
    raise UsageError("no seeds: pass --seeds or embed S lines in the instance")


def _oracle_check(args: argparse.Namespace, score: int, oracle: Callable[[], int]) -> int:
    """Under ``--oracle-check``, compare ``score`` with ``oracle()``."""
    if args.oracle_check:
        expected = oracle()
        if score != expected:
            print(f"oracle mismatch: solver {score}, oracle {expected}", file=sys.stderr)
            return EXIT_MISMATCH
    return EXIT_OK


def _cmd_lcs(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    query = _resolve_query(args, instance)
    alignment = solve_lcs_sg(query, instance.graph)
    _emit(_alignment_record("lcs-sg", alignment), _output_mode(args))
    return _oracle_check(args, alignment.score, lambda: lcs_sg_bruteforce(query, instance.graph))


def _cmd_fglcs(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    query = _resolve_query(args, instance)
    gaps = GapParams(GapParams.parse_bound(args.k1), GapParams.parse_bound(args.k2))
    alignment = solve_fglcs_sg(query, instance.graph, gaps)
    _emit(_alignment_record("fglcs-sg", alignment), _output_mode(args))
    return _oracle_check(args, alignment.score, lambda: fglcs_bruteforce(query, instance.graph, gaps))


def _cmd_chain(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    seeds = _load_seeds(args, instance)
    query = os.fsencode(args.query) if args.query is not None else instance.query
    if args.objective == "len":
        chain = solve_memc(seeds, instance.graph, query=query)
        problem, score, brute = "memc", chain.length, memc_bruteforce
    else:
        chain = solve_msp(seeds, instance.graph, query=query)
        problem, score, brute = "msp", chain.count, msp_bruteforce
    _emit(_chain_record(problem, chain), _output_mode(args))
    return _oracle_check(args, score, lambda: brute(seeds, instance.graph))


def _cmd_lp(args: argparse.Namespace) -> int:
    dag = parse_dag(_read(args.dag))
    solve = longest_path_edge if args.mode == "edge" else longest_path_vertex
    result = solve(dag)
    record = {
        "problem": "lp",
        "mode": args.mode,
        "score": result.score,
        "path": list(result.path),
    }
    _emit(record, _output_mode(args))
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    if args.problem in ("lcs", "fglcs"):
        query = _resolve_query(args, instance)
        if args.problem == "lcs":
            optimum = lcs_sg_bruteforce(query, instance.graph)
        else:
            if args.k1 is None or args.k2 is None:
                raise UsageError("oracle --problem fglcs needs --k1 and --k2")
            gaps = GapParams(GapParams.parse_bound(args.k1), GapParams.parse_bound(args.k2))
            optimum = fglcs_bruteforce(query, instance.graph, gaps)
    else:
        seeds = _load_seeds(args, instance)
        brute = memc_bruteforce if args.problem == "memc" else msp_bruteforce
        optimum = brute(seeds, instance.graph)
    print(optimum)
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    profile = GenProfile(
        n=args.n,
        edges=args.edges,
        label_min=args.label_min,
        label_max=args.label_max,
        alphabet=args.alphabet,
        query_len=args.query_len,
        acyclic=not args.cyclic,
        max_seeds=args.max_seeds,
    )
    instance = generate_instance(args.seed, profile)
    sys.stdout.write(f"# panlcs instance seed={args.seed}\n")
    sys.stdout.write(instance_to_tsv(instance))
    return EXIT_OK


def _cmd_mems(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    query = _resolve_query(args, instance)
    budget = OracleBudget(
        max_query=max(1, len(query)),
        max_vertices=max(1, instance.graph.n),
        max_label_total=max(1, instance.graph.total_label_length),
        max_seeds=1 << 30,
    )
    sys.stdout.write(format_seeds(enumerate_mems(query, instance.graph, budget)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_graph_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", default="-", metavar="FILE",
                   help="graph or instance file ('-' = stdin, the default)")
    p.add_argument("--graph-format", choices=("tsv", "gfa"), default="tsv",
                   help="input graph format (default tsv)")


def _add_query_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--query", help="query sequence given inline")
    g.add_argument("--query-file", metavar="FILE", help="file holding the query")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="shorthand for --output json")
    p.add_argument("--output", choices=("human", "json", "tsv"), default="human")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panlcs",
        description="Common-subsequence and chaining solvers between a sequence and a pangenome graph",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("lcs", help="longest common subsequence against the graph")
    _add_graph_flags(p)
    _add_query_flags(p)
    _add_output_flags(p)
    p.add_argument("--oracle-check", action="store_true",
                   help="re-solve with the brute-force oracle; exit 4 on mismatch")
    p.set_defaults(func=_cmd_lcs)

    p = sub.add_parser("fglcs", help="gap-bounded longest common subsequence")
    _add_graph_flags(p)
    _add_query_flags(p)
    _add_output_flags(p)
    p.add_argument("--k1", required=True, help="max query gap per step (integer or 'inf')")
    p.add_argument("--k2", required=True, help="max graph gap per step (integer or 'inf')")
    p.add_argument("--oracle-check", action="store_true")
    p.set_defaults(func=_cmd_fglcs)

    p = sub.add_parser("chain", help="best strictly ordered seed chain")
    _add_graph_flags(p)
    p.add_argument("--seeds", metavar="FILE", help="seed TSV (default: S lines of the instance)")
    p.add_argument("--query", help="optional query for seed validation")
    p.add_argument("--objective", choices=("len", "count"), required=True,
                   help="len = total matched length, count = number of seeds")
    _add_output_flags(p)
    p.add_argument("--oracle-check", action="store_true")
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("lp", help="solve a raw DAG in the debug TSV format")
    p.add_argument("--dag", default="-", metavar="FILE", help="N/A-line DAG file ('-' = stdin)")
    p.add_argument("--mode", choices=("vertex", "edge"), default="vertex")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_lp)

    p = sub.add_parser("oracle", help="print the brute-force optimum only")
    p.add_argument("--problem", choices=("lcs", "fglcs", "memc", "msp"), required=True)
    _add_graph_flags(p)
    _add_query_flags(p)
    p.add_argument("--k1")
    p.add_argument("--k2")
    p.add_argument("--seeds", metavar="FILE")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="emit a seeded random instance")
    p.add_argument("--seed", type=int, default=DEFAULT_GEN_SEED)
    p.add_argument("--n", type=int, default=4, help="vertex count")
    p.add_argument("--edges", type=int, default=4, help="edge count target")
    p.add_argument("--label-min", type=int, default=1)
    p.add_argument("--label-max", type=int, default=3)
    p.add_argument("--alphabet", type=int, default=3)
    p.add_argument("--query-len", type=int, default=8)
    p.add_argument("--cyclic", action="store_true", help="allow cycles (default: DAG)")
    p.add_argument("--max-seeds", type=int, default=12)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("mems", help="enumerate maximal exact matches as seed TSV")
    _add_graph_flags(p)
    _add_query_flags(p)
    p.set_defaults(func=_cmd_mems)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphError, DagError, CycleError, SeedError, OracleError, AlignmentError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
