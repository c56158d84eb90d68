from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from panlcs import Instance, PangenomeGraph, Seed, parse_instance, parse_seeds, reachability, solve_lcs_sg
from panlcs.chaining import format_seeds
from panlcs.generate import GenProfile, generate_instance, instance_to_tsv
from panlcs.oracle import is_acyclic, lcs_sg_bruteforce


class TestGenerateInstance:
    def test_deterministic_for_fixed_seed(self):
        a = generate_instance(1, GenProfile(n=4))
        b = generate_instance(1, GenProfile(n=4))
        assert a == b
        assert instance_to_tsv(a) == instance_to_tsv(b)
        assert a != generate_instance(2, GenProfile(n=4))

    def test_acyclic_by_construction(self):
        for seed in range(60):
            inst = generate_instance(seed, GenProfile(n=5, edges=8))
            assert is_acyclic(inst.graph)

    def test_cyclic_mode_reaches_itself(self):
        found = False
        for seed in range(40):
            inst = generate_instance(seed, GenProfile(n=2, edges=4, acyclic=False))
            r = reachability(inst.graph)
            if r.matrix.diagonal().any():
                found = True
                break
        assert found, "cyclic mode never produced a cycle"

    def test_unit_alphabet_sanity(self):
        # with one letter, the LCS is capped by the longest reachable spell
        for seed in range(25):
            inst = generate_instance(seed, GenProfile(n=3, edges=3, alphabet=1, query_len=6))
            g, q = inst.graph, inst.query
            longest_spell = max(
                sum(len(g.labels[v]) for v in path)
                for path in helpers.enumerate_paths(g.n, list(g.edges))
            )
            expected = min(len(q), longest_spell)
            assert solve_lcs_sg(q, g).score == expected
            assert lcs_sg_bruteforce(q, g) == expected

    def test_seeds_are_verified_maximal_matches(self):
        inst = generate_instance(9, GenProfile(n=4, query_len=8))
        assert all(s.maximal for s in inst.seeds)
        for seed in inst.seeds:
            seed.validate(inst.graph, inst.query)

    def test_max_seeds_cap(self):
        inst = generate_instance(3, GenProfile(n=4, query_len=10, alphabet=2, max_seeds=5))
        assert len(inst.seeds) <= 5

    def test_contradictory_knobs(self):
        with pytest.raises(ValueError, match="label_min"):
            GenProfile(label_min=4, label_max=2)
        with pytest.raises(ValueError, match="alphabet"):
            GenProfile(alphabet=0)
        with pytest.raises(ValueError, match="n must"):
            GenProfile(n=0)

    def test_round_trip_through_tsv(self):
        inst = generate_instance(5, GenProfile(n=4, query_len=8))
        parsed = parse_instance(instance_to_tsv(inst))
        assert parsed.graph == inst.graph
        assert parsed.query == inst.query
        assert parsed.seeds == tuple(replace(s, maximal=False) for s in inst.seeds)

    def test_empty_query_round_trips(self):
        inst = generate_instance(5, GenProfile(n=2, query_len=0, max_seeds=0))
        parsed = parse_instance(instance_to_tsv(inst))
        assert parsed.query == b""
        assert parsed.seeds == ()


# every byte that is not ASCII whitespace, including latin-1's other
# whitespace and line breaks (0x1c-0x1f, 0x85, 0xa0)
DATA_BYTES = [b for b in range(0x1C, 0x100) if b != 0x20]
# a seed line whose vertex id starts with '#' is a comment
IDS = st.lists(st.integers(0x21, 0xFF), min_size=1, max_size=3).map(bytes).filter(lambda t: t[:1] != b"#")


@st.composite
def instances(draw):
    ids = [t.decode("latin-1") for t in draw(st.lists(IDS, min_size=1, max_size=4, unique=True))]
    labels = [bytes(draw(st.lists(st.sampled_from(DATA_BYTES), min_size=1, max_size=4))) for _ in ids]
    edges = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=6))
    query = draw(st.none() | st.lists(st.sampled_from(DATA_BYTES), max_size=4).map(bytes))
    seeds = [
        Seed(vertex, i, i + length, j, j + length)
        for vertex, i, j, length in draw(
            st.lists(st.tuples(st.sampled_from(ids), st.integers(0, 9), st.integers(0, 9), st.integers(0, 3)))
        )
    ]
    return Instance(PangenomeGraph.from_items(zip(ids, labels), edges), query, tuple(seeds))


@given(instances())
def test_writers_and_readers_round_trip_every_byte(instance):
    assert parse_instance(instance_to_tsv(instance)) == instance
    assert parse_instance(instance_to_tsv(instance).encode("latin-1")) == instance
    assert parse_seeds(format_seeds(instance.seeds)) == instance.seeds
