"""Command-line entry point.

Subcommands: ``lcs``, ``fglcs``, ``chain`` (objective len or count), ``lp``
(raw DAG debug solve), ``oracle`` (brute-force optimum), ``gen`` (seeded
instance generator), and ``mems`` (maximal exact match enumeration).
One function, :func:`_problem`, reads each problem's inputs and gives its
solver and its oracle.  ``oracle`` and ``--oracle-check`` run the exhaustive
oracles, which refuse instances beyond their fixed size caps (exit 3);
``mems`` and ``gen`` enumerate MEMs in polynomial time, with no cap; only
these four load :mod:`panlcs.oracle`, and only when they run.

JSON is the canonical machine output; the human and tsv modes render the
same record.  Exit codes: 0 success, 2 usage error, 3 parse or validation
error or an instance too large (a size check, or running out of memory),
4 oracle mismatch under ``--oracle-check``.  The only environment
variable honored is ``NO_COLOR``, which disables colored human output.
``-v`` on the solver subcommands logs each stage's sizes to stderr.

Called in-process, :func:`main` keeps the last parsed graph or instance
file and the last parsed seed file, keyed by their exact bytes
(:func:`_reuse`): a request whose file holds the same bytes as the one
before reuses the parsed, immutable objects, and with them what the graph
keeps (:func:`~panlcs.graph._kept`).  Every validation still runs on every
request.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import os
import sys
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from .chaining import Chain, Seed, format_seeds, parse_seeds, solve_memc, solve_msp
from .daglp import longest_path_edge, longest_path_vertex, parse_dag
from .fglcs import GapParams, solve_fglcs_sg
from .generate import GenProfile, Instance, generate_instance, instance_to_tsv, parse_instance
from .graph import GRAPH_FORMATS, read_gfa, warn_skipped
from .lcs import Alignment, solve_lcs_sg

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_MISMATCH = 4

DEFAULT_GEN_SEED = 0
MEMS_PER_WRITE = 4096  # `mems` writes its seed lines in slices of this many

log = logging.getLogger(__name__)
_T = TypeVar("_T")
_last: dict[str, tuple[object, object]] = {}  # per kind of input file, its key and parsed value


class UsageError(ValueError):
    """Missing or contradictory flags detected after argparse."""


def _read(path: str) -> bytes:
    """The bytes of ``path``, or of stdin for ``-``."""
    if path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


def _reuse(kind: str, key: object, parse: Callable[[], _T]) -> tuple[_T, bool]:
    """``(parse(), False)``; or ``(value, True)`` when the last input of
    ``kind`` (``graph`` or ``seeds``) had an equal ``key`` and parsed to
    ``value``.  One input of each kind is kept, and a kept input of another
    key is dropped before ``parse`` runs, so that two parsed graphs are
    never held at once.  A parse that raises keeps nothing."""
    entry = _last.get(kind)  # read once: another thread may replace it
    if entry is not None and entry[0] == key:
        return entry[1], True
    entry = None
    _last.pop(kind, None)  # no local name holds it now: it is freed here
    value = parse()
    _last[kind] = (key, value)
    return value, False


def _parse_graph_file(data: bytes, fmt: str) -> tuple[Instance, int]:
    """The instance in a graph or instance file, and the GFA records it skipped."""
    if fmt == "gfa":
        graph, skipped = read_gfa(data)
        return Instance(graph=graph), skipped
    return parse_instance(data), 0


def _load_instance(args: argparse.Namespace) -> Instance:
    data, fmt = _read(args.graph), args.graph_format
    (instance, skipped), hit = _reuse("graph", (fmt, data), lambda: _parse_graph_file(data, fmt))
    if hit:
        log.info("reused the parsed graph file: %d vertices", instance.graph.n)
        warn_skipped(skipped)  # as the parse warns on every fresh read
    return instance


def _resolve_query(args: argparse.Namespace, instance: Instance) -> bytes:
    if getattr(args, "query", None) is not None:
        return os.fsencode(args.query)  # the argument's bytes as given
    if getattr(args, "query_file", None) is not None:
        return _read(args.query_file).rstrip(b"\r\n")
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


def _write(text: str) -> None:
    """Write ``text`` to stdout as the bytes it stands for.

    Vertex ids are held, and labels rendered, as one latin-1 code point
    per input byte, so encoding with latin-1 gives the input bytes back
    whatever the locale.  A stream without a byte layer (``io.StringIO``)
    takes the text as it is."""
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(text)
        return
    sys.stdout.flush()  # keep the order of anything written as text before
    buffer.write(text.encode("latin-1"))
    buffer.flush()  # show the record before any later work, as a line-buffered print would


def _emit(record: dict, mode: str) -> None:
    if mode == "json":
        _write(json.dumps(record) + "\n")
        return
    lines = []
    # a list renders one line per item; an item is a record (embedding,
    # chain) or a scalar (an lp path's node)
    if mode == "tsv":
        for key, value in record.items():
            if isinstance(value, list):
                for item in value:
                    cells = item.values() if isinstance(item, dict) else [item]
                    lines.append("\t".join([key] + [str(v) for v in cells]))
            else:
                lines.append(f"{key}\t{value}")
    else:  # human
        for key, value in record.items():
            if isinstance(value, list):
                lines.append(f"{key}:")
                for item in value:
                    text = "  ".join(f"{k}={v}" for k, v in item.items()) if isinstance(item, dict) else item
                    lines.append(f"  {text}")
            elif key == "score" and _color_enabled():
                lines.append(f"{key}: \x1b[32m{value}\x1b[0m")
            else:
                lines.append(f"{key}: {value}")
    _write("".join(line + "\n" for line in lines))


def _output_mode(args: argparse.Namespace) -> str:
    if args.json:
        return "json"
    return args.output


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _load_seeds(args: argparse.Namespace, instance: Instance) -> Sequence[Seed]:
    if args.seeds is not None:
        data = _read(args.seeds)
        seeds, hit = _reuse("seeds", data, lambda: parse_seeds(data))
        if hit:
            log.info("reused the parsed seed file: %d seeds", len(seeds))
        return seeds
    if instance.seeds:
        return instance.seeds
    raise UsageError("no seeds: pass --seeds or embed S lines in the instance")


def _problem(name: str, args: argparse.Namespace) -> tuple[Callable[[], dict], Callable[[], int]]:
    """Read the inputs of problem ``name`` (lcs, fglcs, memc or msp) from
    ``args``; return its solver, which gives the output record, and its
    brute-force oracle, which gives the optimum for the same inputs."""
    instance = _load_instance(args)
    if name in ("memc", "msp"):
        inputs = (_load_seeds(args, instance), instance.graph)
        query = os.fsencode(args.query) if args.query is not None else instance.query  # for the solver's seed check
        solve = solve_memc if name == "memc" else solve_msp
        return lambda: _chain_record(name, solve(*inputs, query=query)), lambda: _bruteforce(name, inputs)
    inputs = (_resolve_query(args, instance), instance.graph)
    if name == "fglcs":
        if args.k1 is None or args.k2 is None:
            raise UsageError("oracle --problem fglcs needs --k1 and --k2")
        inputs += (GapParams(GapParams.parse_bound(args.k1), GapParams.parse_bound(args.k2)),)
    solve = solve_lcs_sg if name == "lcs" else solve_fglcs_sg
    return lambda: _alignment_record(f"{name}-sg", solve(*inputs)), lambda: _bruteforce(name, inputs)


def _bruteforce(name: str, inputs: tuple) -> int:
    """Problem ``name``'s brute-force optimum on ``inputs``; the oracle loads here."""
    from .oracle import fglcs_bruteforce, lcs_sg_bruteforce, memc_bruteforce, msp_bruteforce

    brute = {"lcs": lcs_sg_bruteforce, "fglcs": fglcs_bruteforce, "memc": memc_bruteforce, "msp": msp_bruteforce}
    return brute[name](*inputs)


def _cmd_solve(args: argparse.Namespace) -> int:
    """``lcs``, ``fglcs`` and ``chain``: print the solver's record; under
    ``--oracle-check``, compare its score with the oracle's optimum."""
    name = {"len": "memc", "count": "msp"}[args.objective] if args.command == "chain" else args.command
    solve, oracle = _problem(name, args)
    record = solve()
    _emit(record, _output_mode(args))
    if args.oracle_check:
        expected = oracle()
        if record["score"] != expected:
            print(f"oracle mismatch: solver {record['score']}, oracle {expected}", file=sys.stderr)
            return EXIT_MISMATCH
    return EXIT_OK


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
    _, oracle = _problem(args.problem, args)
    _write(f"{oracle()}\n")
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
    _write(f"# panlcs instance seed={args.seed}\n" + instance_to_tsv(instance))
    return EXIT_OK


def _cmd_mems(args: argparse.Namespace) -> int:
    from .oracle import enumerate_mems

    instance = _load_instance(args)
    query = _resolve_query(args, instance)
    mems = enumerate_mems(query, instance.graph)
    for start in range(0, len(mems), MEMS_PER_WRITE):
        _write(format_seeds(mems[start : start + MEMS_PER_WRITE]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_graph_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", default="-", metavar="FILE",
                   help="graph or instance file ('-' = stdin, the default)")
    p.add_argument("--graph-format", choices=GRAPH_FORMATS, default="tsv",
                   help="input graph format (default tsv)")


def _add_query_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--query", help="query sequence given inline")
    g.add_argument("--query-file", metavar="FILE", help="file holding the query")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="shorthand for --output json")
    p.add_argument("--output", choices=("human", "json", "tsv"), default="human")
    p.add_argument("-v", dest="verbose", action="store_true",
                   help="log solver stages and their sizes to stderr")


def _add_oracle_check(p: argparse.ArgumentParser) -> None:
    """The last flag of a solver subcommand, and the command that serves it."""
    p.add_argument("--oracle-check", action="store_true",
                   help="re-solve with the brute-force oracle; exit 4 on mismatch")
    p.set_defaults(func=_cmd_solve)


@functools.cache  # built on first use, not at import; parsing leaves it unchanged
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
    _add_oracle_check(p)

    p = sub.add_parser("fglcs", help="gap-bounded longest common subsequence")
    _add_graph_flags(p)
    _add_query_flags(p)
    _add_output_flags(p)
    p.add_argument("--k1", required=True, help="max query gap per step (integer or 'inf')")
    p.add_argument("--k2", required=True, help="max graph gap per step (integer or 'inf')")
    _add_oracle_check(p)

    p = sub.add_parser("chain", help="best strictly ordered seed chain")
    _add_graph_flags(p)
    p.add_argument("--seeds", metavar="FILE", help="seed TSV (default: S lines of the instance)")
    p.add_argument("--query", help="optional query for seed validation")
    p.add_argument("--objective", choices=("len", "count"), required=True,
                   help="len = total matched length, count = number of seeds")
    _add_output_flags(p)
    _add_oracle_check(p)

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


@contextlib.contextmanager
def _log_to_stderr(enabled: bool):
    """Under ``-v``, send the ``panlcs`` loggers' INFO records to stderr
    while one command runs."""
    if not enabled:
        yield
        return
    logger = logging.getLogger("panlcs")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


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
        with _log_to_stderr(getattr(args, "verbose", False)):
            return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:  # every panlcs error class is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:  # the backstop behind the size checks that refuse before allocating
        print("error: out of memory: the input is too large to solve in the memory available", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
