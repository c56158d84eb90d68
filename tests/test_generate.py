import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from panlcs import GraphError, Instance, PangenomeGraph, Seed, SeedError, parse_instance, parse_seeds, solve_lcs_sg
from panlcs.chaining import format_seeds
from panlcs.generate import GenProfile, generate_instance, instance_to_tsv
from panlcs.graph import reachability
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
        assert inst.seeds
        for seed in inst.seeds:
            seed.validate(inst.graph, inst.query)
            label, q = inst.graph.label_of(seed.vertex), inst.query
            assert seed.i == 0 or seed.j == 0 or label[seed.i - 1] != q[seed.j - 1]
            assert seed.i2 == len(label) - 1 or seed.j2 == len(q) - 1 or label[seed.i2 + 1] != q[seed.j2 + 1]

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
        for acyclic in (True, False):
            for seed in range(50):
                inst = generate_instance(seed, GenProfile(acyclic=acyclic))
                assert parse_instance(instance_to_tsv(inst)) == inst

    @pytest.mark.parametrize("acyclic", [True, False])
    def test_same_instances_as_sampling_a_pair_list(self, acyclic, monkeypatch):
        rng = random.Random(acyclic)
        for seed in range(50):
            n = rng.randint(1, 30)
            profile = GenProfile(n=n, edges=rng.randint(0, n * n + 2), acyclic=acyclic)
            assert generate_instance(seed, profile) == helpers.generate_instance_from_pair_list(seed, profile)

        def refuse(*args):
            raise AssertionError("MEMs enumerated for an instance that keeps no seeds")

        # with max_seeds=0 no MEM is kept, so none is enumerated, and the instance is the same
        monkeypatch.setattr("panlcs.generate.enumerate_mems", refuse)
        for seed in range(50):
            n = rng.randint(1, 30)
            profile = GenProfile(n=n, edges=rng.randint(0, n * n + 2), acyclic=acyclic, max_seeds=0)
            assert generate_instance(seed, profile) == helpers.generate_instance_from_pair_list(seed, profile)

    @pytest.mark.parametrize("acyclic", [True, False])
    def test_memory_linear_in_vertices(self, acyclic):
        # 20,000 vertices have 2e8 (acyclic) or 4e8 candidate pairs; listing them would take gigabytes
        tracemalloc.start()
        try:
            inst = generate_instance(0, GenProfile(n=20_000, edges=50, query_len=0, max_seeds=0, acyclic=acyclic))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(inst.graph.edges) == 50
        assert peak < 32 << 20

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
    assert tuple(parse_seeds(format_seeds(instance.seeds))) == instance.seeds


@pytest.mark.parametrize(
    "text, kind, message",
    [
        ("V a x\nS a 0 1 0\nV a\n", SeedError, "line 2: expected `<vertex> <i> <i'> <j> <j'>`"),
        ("V a\nS a 0 1 0\n", GraphError, "line 1: empty label (V lines need `V <id> <label>`)"),
        ("Q ab\nS a 0 x 0 0\nQ c\n", SeedError, "line 2: interval bounds must be integers"),
        ("Q ab\nS a 0 0 0 0\nQ c\nS a 1 0 0 0\n", GraphError, "line 3: more than one Q line"),
        ("S a 1 0 1 0\nE a b\n", SeedError, "line 1: seed ('a', [1,0], [1,0]): empty or reversed interval"),
    ],
)
def test_instance_errors_name_the_first_bad_line(text, kind, message):
    with pytest.raises(kind) as info:
        parse_instance(text)
    assert type(info.value) is kind and str(info.value) == message
