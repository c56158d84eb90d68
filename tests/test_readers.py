"""The bulk readers of graph, instance and seed files against the
record-by-record readers of ``helpers``: the same result, or the same
error type and message, line number and winning error included."""

import logging
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from panlcs import GraphError, PangenomeGraph, parse_graph, parse_instance, parse_seeds
from panlcs.generate import GenProfile, generate_instance, instance_to_tsv
from panlcs.graph import reachability, records

# data bytes that other splitters take for whitespace or line ends, and "#"
# after the first token, where it starts no comment
_DATA = list(b"ab#\x1c\x1d\x1e\x1f\x85\xa0\xc3\xe9\xff")
_SEPARATORS = [b" ", b"\t", b"\x0b", b"\x0c", b" \t"]
_LINE_ENDS = [b"\n", b"\r\n", b"\r"]
_FAULTS = {
    "graph": ["count", "tag", "dangling", "duplicate"],
    "instance": ["count", "tag", "second Q", "dangling", "duplicate", "interval", "integer"],
    "seeds": ["count", "interval", "integer"],
    "gfa": ["count", "sequence", "orientation", "dangling", "duplicate"],
}
# GFA records of the types the reader skips, and overlap or tag columns after a link's orientations
_GFA_SKIPPED = [[b"H", b"VN:Z:1.0"], [b"P", b"p1", b"a+,b+", b"*"], [b"s", b"a", b"b"], [b"E"]]
_GFA_LINK_TAILS = [[], [b"0M"], [b"*", b"ID:Z:e"]]

tokens = st.lists(st.sampled_from(_DATA), min_size=1, max_size=3).map(bytes)
numbers = st.integers(0, 20)


@st.composite
def seed_record(draw, ids):
    i, j, length = draw(numbers), draw(numbers), draw(numbers)
    return [draw(st.sampled_from(ids)), *(b"%d" % x for x in (i, i + length, j, j + length))]


@st.composite
def fault_record(draw, kind, ids):
    """One bad record of the kind of file ``kind``."""
    fault = draw(st.sampled_from(_FAULTS[kind]))
    if kind == "gfa":
        return draw(gfa_fault_record(fault, ids))
    seed = draw(seed_record(ids))
    tag = [b"S"] if kind == "instance" else []
    if fault == "count":
        options = [tag + seed[:4], tag + seed + [b"0"]]
        if kind != "seeds":
            vid = draw(st.sampled_from(ids))
            options += [[b"V", vid], [b"V", vid, b"a", b"b"], [b"E", vid], [b"E", vid, vid, vid]]
        if kind == "instance":
            options.append([b"Q", b"a", b"b"])
        return draw(st.sampled_from(options))
    if fault == "tag":
        return draw(st.sampled_from([[b"X", b"a"], [b"v", b"a", b"b"], [b"Q", b"a"], [b"S", *seed]]))
    if fault == "second Q":  # a second one if the file has a Q line; three tokens are a fault of their own
        return [b"Q", *draw(st.lists(tokens, min_size=1, max_size=2))]
    if fault == "dangling":
        return [b"E", *draw(st.permutations([draw(st.sampled_from(ids)), b"zz"]))]
    if fault == "duplicate":
        return [b"V", draw(st.sampled_from(ids)), draw(tokens)]
    if fault == "interval":
        bad = draw(st.sampled_from([[b"3", b"2", b"0", b"0"], [b"-1", b"0", b"0", b"1"], [b"0", b"1", b"0", b"0"],
                                    [b"0", b"1", b"9223372036854775807", b"9223372036854775808"]]))
        return tag + [seed[0], *bad]
    bad = seed[:]
    bad[draw(st.integers(1, 4))] = draw(st.sampled_from([b"x", b"1.5", b"0x1", b"\xff"]))
    return tag + bad


@st.composite
def gfa_fault_record(draw, fault, ids):
    """One bad record of a GFA file."""
    vertex = st.sampled_from(ids)
    if fault == "count":
        return draw(st.sampled_from([[b"S"], [b"S", draw(vertex)], [b"L", draw(vertex), b"+", draw(vertex)]]))
    if fault == "sequence":
        return [b"S", draw(st.sampled_from([*ids, b"zz"])), b"*"]
    if fault == "orientation":
        orients = draw(st.lists(st.sampled_from([b"+", b"-", b"x", b"\xff"]), min_size=2, max_size=2))
        orients[draw(st.integers(0, 1))] = draw(st.sampled_from([b"-", b"x", b"\xff"]))
        return [b"L", draw(vertex), orients[0], draw(vertex), orients[1]]
    if fault == "dangling":
        src, dst = draw(st.permutations([draw(vertex), b"zz"]))
        return [b"L", src, b"+", dst, b"+"]
    return [b"S", draw(vertex), draw(tokens)]


@st.composite
def record_files(draw, kind):
    """A TSV graph, instance or seed file, or a GFA graph file, as bytes:
    comments, blank lines, mixed line ends and separators, and zero to two
    faults."""
    ids = draw(st.lists(tokens, min_size=1, max_size=5, unique=True))
    rows = []
    if kind == "gfa":
        rows += [[b"S", vid, draw(tokens), *draw(st.sampled_from([[], [b"LN:i:3"]]))] for vid in ids]
        vertex = st.sampled_from(ids)
        rows += [
            [b"L", draw(vertex), b"+", draw(vertex), b"+", *draw(st.sampled_from(_GFA_LINK_TAILS))]
            for _ in range(draw(st.integers(0, 8)))
        ]
        rows += draw(st.lists(st.sampled_from(_GFA_SKIPPED), max_size=2))
    elif kind != "seeds":
        rows += [[b"V", vid, draw(tokens)] for vid in ids]
        vertex = st.sampled_from(ids)
        rows += [[b"E", draw(vertex), draw(vertex)] for _ in range(draw(st.integers(0, 8)))]
    if kind == "instance" and draw(st.booleans()):
        rows.append([b"Q", draw(tokens)] if draw(st.booleans()) else [b"Q"])
    if kind in ("instance", "seeds"):
        tag = [b"S"] if kind == "instance" else []
        rows += [tag + draw(seed_record(ids)) for _ in range(draw(st.integers(0, 4)))]
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(fault_record(kind, ids)))
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from([[], [b"#"], [b"#", b"V", b"a"], [b"#x"]])))
    lines = []
    for row in rows:
        line = b"".join(token + draw(st.sampled_from(_SEPARATORS)) for token in row[:-1]) + (row[-1] if row else b"")
        if draw(st.booleans()):
            line = draw(st.sampled_from(_SEPARATORS)) + line + draw(st.sampled_from([b"", *_SEPARATORS]))
        lines.append(line + draw(st.sampled_from(_LINE_ENDS)))
    return b"".join(lines)


def outcome(parse, text):
    try:
        return "ok", parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


def logged_outcome(parse, text):
    """:func:`outcome` and the messages logged by :mod:`panlcs.graph`."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("panlcs.graph")
    logger.addHandler(handler)
    try:
        return outcome(parse, text), messages
    finally:
        logger.removeHandler(handler)


def gfa_outcomes(text):
    """The logged outcomes of the GFA reader and of its record-by-record reference."""
    return logged_outcome(lambda t: parse_graph(t, "gfa"), text), logged_outcome(helpers.parse_gfa_by_record, text)


def seeds_outcome(text):
    kind, value = outcome(parse_seeds, text)
    return (kind, (list(value), value.names)) if kind == "ok" else (kind, value)


def seeds_by_record_outcome(text):
    kind, value = outcome(lambda t: helpers.read_seeds_by_record(records(t)), text)
    return (kind, (value, tuple(dict.fromkeys(s.vertex for s in value)))) if kind == "ok" else (kind, value)


class TestBulkReadersMatchRecordByRecord:
    @given(record_files("graph"))
    @settings(max_examples=300)
    def test_graph_files(self, text):
        assert outcome(parse_graph, text) == outcome(helpers.parse_graph_by_record, text)

    @given(record_files("gfa"))
    @settings(max_examples=300)
    def test_gfa_files(self, text):
        bulk, by_record = gfa_outcomes(text)
        assert bulk == by_record

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"S a ac\nS b\nL a + b + 0M\n", "line 2: S lines need `S <id> <seq>`"),
            (b"S a ac\nL a + b\n", "line 2: L lines need `L <from> <orient> <to> <orient> [overlap]`"),
            (b"S a ac\nS b *\n", "line 2: segment 'b' has no sequence"),
            (b"S a ac\nL a - a x\n", "line 2: '-' orientation is unsupported (forward strand only)"),
            (b"S a ac\nL a x a -\n", "line 2: bad orientation 'x'"),
            (b"S a ac\nL a + a \xe9\n", "line 2: bad orientation '\xe9'"),
            # a record's fault wins over a graph's: a bad link after a dangling one
            (b"S a ac\nL a + b +\nL a + a -\n", "line 3: '-' orientation is unsupported (forward strand only)"),
            # a dangling link before a duplicate id
            (b"S a ac\nL a + b +\nS a g\n", "edge endpoint 'b' is not a declared vertex"),
            (b"S a ac\nS a g\n", "duplicate vertex id 'a'"),
        ],
    )
    def test_gfa_faults(self, text, message):
        bulk, by_record = gfa_outcomes(text)
        assert bulk == by_record
        assert bulk == ((GraphError, message), [])

    def test_gfa_skipped_records(self):
        text = b"H VN:Z:1.0\nS a ac\nP p a+ *\nS b g LN:i:1\nL a + b + 0M\n"
        bulk, by_record = gfa_outcomes(text)
        assert bulk == by_record
        assert bulk[0][1] == PangenomeGraph(("a", "b"), (b"ac", b"g"), ((0, 1),))
        assert bulk[1] == ["skipped 2 GFA records of unsupported types"]

    @given(record_files("instance"))
    @settings(max_examples=300)
    def test_instance_files(self, text):
        assert outcome(parse_instance, text) == outcome(helpers.parse_instance_by_record, text)

    @given(record_files("seeds"))
    @settings(max_examples=300)
    def test_seed_files(self, text):
        assert seeds_outcome(text) == seeds_by_record_outcome(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            # a dangling edge before a duplicate id; a bad S line before a bad graph
            (b"V a x\nE a b\nV a y\n", "edge endpoint 'b' is not a declared vertex"),
            (b"V a x\nV a y\nS a 1 0 0 0\n", "line 3: seed ('a', [1,0], [0,0]): empty or reversed interval"),
            (b"S a 0 0 0 x\nX\n", "line 1: interval bounds must be integers"),
            (b"S a 0 0 0 0\nQ a\nQ b c\n", "line 3: more than one Q line"),
        ],
    )
    def test_which_error_wins(self, text, message):
        assert outcome(parse_instance, text) == outcome(helpers.parse_instance_by_record, text)
        assert outcome(parse_instance, text)[1] == message


class TestGenRidesTheConstructor:
    @pytest.mark.parametrize("acyclic", [True, False])
    def test_gen_instances_round_trip(self, acyclic):
        profile = GenProfile(acyclic=acyclic)
        for seed in range(50):
            instance = generate_instance(seed, profile)
            text = instance_to_tsv(instance)
            assert parse_instance(text) == instance == helpers.parse_instance_by_record(text)


def _graph_text(rng: random.Random) -> str:
    """A graph as text, with duplicate edges, self-loops and cycles."""
    n = rng.randint(1, 12)
    lines = [f"V v{k} a" for k in range(n)]
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
    for _ in range(rng.randint(0, 2)):  # a cycle over a few vertices
        run = rng.sample(range(n), rng.randint(1, n))
        edges += zip(run, run[1:] + run[:1])
    edges += rng.sample(edges, min(len(edges), 3))  # duplicates
    lines += [f"E v{u} v{v}" for u, v in rng.sample(edges, len(edges))]
    return "\n".join(lines) + "\n"


def test_reachability_of_parsed_text_matches_dfs():
    for seed in range(300):
        text = _graph_text(random.Random(seed))
        m = reachability(parse_graph(text)).matrix
        expected = helpers.dfs_reach_pairs(helpers.parse_graph_by_record(text))
        assert {tuple(pair) for pair in np.argwhere(m).tolist()} == expected, text
