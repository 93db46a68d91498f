"""Instance sampling, niceness, the union graph, and serialization."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from niceset import (ConflictSpec, Instance, NiceSetResult, check_goodness_axioms,
                     derive_seed, instance_system, is_nice, randomized_construct,
                     sample_instance)
from niceset.rng import generator

from .conftest import reference_adjacency


def test_conflict_spec_validation():
    assert [f.name for f in dataclasses.fields(ConflictSpec)] == ["k"]
    assert ConflictSpec() == ConflictSpec.uniform(0)
    assert ConflictSpec.uniform(2).k == 2
    with pytest.raises(ValueError, match=r"\bk\b"):
        ConflictSpec(-1)
    with pytest.raises(TypeError):
        ConflictSpec(2.5)


def test_sample_p_zero_and_one():
    empty = sample_instance(5, 0.0, seed=7)
    assert empty.edges == frozenset()
    assert all(not ts for ts in empty.conflicts.values())
    full = sample_instance(5, 1.0, seed=7)
    assert len(full.edges) == 10


def test_sample_determinism():
    a = sample_instance(20, 0.5, ConflictSpec.uniform(2), seed=42)
    b = sample_instance(20, 0.5, ConflictSpec.uniform(2), seed=42)
    assert a == b
    assert a.to_json() == b.to_json()
    c = sample_instance(20, 0.5, ConflictSpec.uniform(2), seed=43)
    assert a != c


def test_sample_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sample_instance(0, 0.5)
    with pytest.raises(ValueError):
        sample_instance(5, 1.5)
    with pytest.raises(ValueError):
        sample_instance(5, 0.5, ConflictSpec.uniform(5))  # k > m-1
    for bad_m in (2.5, float("nan")):
        with pytest.raises(TypeError):  # operator.index, not numpy, rejects it
            sample_instance(bad_m, 0.5)
    for bad_spec in (2, 0, 1.0, "uniform-k"):  # a bare partner count, 0 included, is no spec
        with pytest.raises(TypeError, match=r"^spec must be a ConflictSpec, got "):
            sample_instance(5, 0.5, bad_spec)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 15), p=st.floats(0.0, 1.0), k=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
def test_sampled_instances_satisfy_invariants(m, p, k, seed):
    k = min(k, m - 1)
    spec = ConflictSpec.uniform(k)
    inst = sample_instance(m, p, spec, seed=seed)
    for u, v in inst.edges:
        assert 1 <= u < v <= m
    for v in range(1, m + 1):
        assert v not in inst.conflicts[v]
        assert len(inst.conflicts[v]) >= k
        for u in inst.conflicts[v]:
            assert v in inst.conflicts[u]


def reference_sample_instance(m: int, p: float, spec: ConflictSpec, seed: int) -> Instance:
    """Reference: one candidate array and one ``choice`` call per vertex."""
    rng = generator(seed)
    iu, jv = np.triu_indices(m, k=1)
    hit = rng.random(iu.size) < p
    edges = [(int(iu[t]) + 1, int(jv[t]) + 1) for t in np.nonzero(hit)[0]]
    conflicts = {}
    for v in range(1, m + 1):
        candidates = np.array([u for u in range(1, m + 1) if u != v])
        picks = rng.choice(candidates, size=spec.k, replace=False)
        conflicts[v] = {int(u) for u in picks}
    return Instance(m=m, edges=edges, conflicts=conflicts)


@pytest.mark.parametrize("m", [2, 3, 7, 60, 61, 200])
def test_uniform_k_sampler_matches_reference(m):
    for k in sorted({1, 2, m - 1} & set(range(1, m))):
        spec = ConflictSpec.uniform(k)
        for seed in range(20):
            # equal fields are equal JSON; to_json would dominate the run time
            assert sample_instance(m, 0.1, spec, seed=seed) == \
                reference_sample_instance(m, 0.1, spec, seed)


def test_edge_density_matches_p():
    m, p = 142, 0.3  # 142*141/2 = 10011 pairs
    inst = sample_instance(m, p, seed=2718)
    pairs = m * (m - 1) // 2
    density = len(inst.edges) / pairs
    assert abs(density - p) <= 3 * math.sqrt(p * (1 - p) / pairs)


def test_constructor_symmetrizes_conflicts():
    inst = Instance(4, conflicts={3: {4}})
    assert inst.conflicts[4] == frozenset({3})
    assert inst.conflicts[3] == frozenset({4})


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        Instance(3, edges=[(1, 1)])
    with pytest.raises(ValueError):
        Instance(3, edges=[(1, 4)])
    with pytest.raises(ValueError):
        Instance(3, conflicts={2: {2}})
    with pytest.raises(ValueError):
        Instance(0)


def test_is_nice_examples():
    inst = Instance(5, edges=[(1, 2)], conflicts={3: {4}})
    assert is_nice(set(), inst)
    assert is_nice({3}, inst)
    assert not is_nice({1, 2}, inst)   # edge
    assert not is_nice({3, 4}, inst)   # conflict membership
    assert is_nice({1, 3, 5}, inst)
    with pytest.raises(ValueError):
        is_nice({6}, inst)


def test_union_conflict_graph_examples():
    for inst, pairs in [
        (Instance(4, edges=[(1, 2)], conflicts={3: {4}}), [(1, 2), (3, 4)]),
        (Instance(4), []),
        # edge and conflict on the same pair collapse to one relation entry
        (Instance(2, edges=[(1, 2)], conflicts={2: {1}}), [(1, 2)]),
    ]:
        expected = np.zeros((inst.m, inst.m), dtype=bool)
        for u, v in pairs:
            expected[u - 1, v - 1] = expected[v - 1, u - 1] = True
        assert np.array_equal(reference_adjacency(inst), expected)
        assert np.array_equal(inst.adjacency, expected)


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 8), p=st.floats(0.0, 1.0), k=st.integers(0, 2),
       seed=st.integers(0, 2**16))
def test_nice_iff_stable_in_union_graph(m, p, k, seed):
    k = min(k, m - 1)
    spec = ConflictSpec.uniform(k)
    inst = sample_instance(m, p, spec, seed=seed)
    adjacency = reference_adjacency(inst)
    for mask in range(1 << m):
        s = {v for v in range(1, m + 1) if mask >> (v - 1) & 1}
        stable = not any(adjacency[u - 1, v - 1] for u in s for v in s)
        assert is_nice(s, inst) == stable


@pytest.mark.parametrize("m, k", [(m, k) for m in (1, 2, 3, 60, 61, 200) for k in (0, 1, 2)
                                  if k <= m - 1])
def test_sampled_adjacency_matches_a_rebuild_from_the_fields(m, k):
    spec = ConflictSpec.uniform(k)
    for seed in range(5):
        inst = sample_instance(m, 0.1, spec, seed=seed)
        assert "adjacency" in vars(inst)  # filled by the constructor
        assert np.array_equal(inst.adjacency, reference_adjacency(inst))
        assert np.array_equal(Instance.from_dict(inst.to_dict()).adjacency, inst.adjacency)


@pytest.mark.parametrize("inst", [
    Instance(1),
    Instance(4),
    Instance(4, edges=[(2, 1), (1, 2), (3, 4)]),
    Instance(5, conflicts={3: {4}, 1: [5, 2]}),
    Instance(2, edges=[(1, 2)], conflicts={2: {1}}),
    Instance(70, edges=[(1, 70), (64, 65)], conflicts={66: [3]}),
    Instance.from_dict({"m": 6, "edges": [[1, 6], [2, 3]], "conflicts": {"4": [5], "6": [1]}}),
    Instance.from_json(sample_instance(40, 0.2, ConflictSpec.uniform(2), seed=9).to_json()),
    Instance(5, edges=np.array([[2, 1], [4, 5]]), conflicts=np.array([[3, 4], [1, 3]])),
    Instance(5, edges=[(2, 1)], conflicts=np.array([[3, 4]], dtype=np.uint8)),
    sample_instance(30, 0.2, ConflictSpec.uniform(1), seed=4),
])
def test_lazy_adjacency_matches_a_rebuild_from_the_fields(inst):
    """Every constructor input fills the adjacency at construction."""
    assert "adjacency" in vars(inst)
    adjacency = inst.adjacency
    assert adjacency.dtype == bool and adjacency.shape == (inst.m, inst.m)
    assert np.array_equal(adjacency, reference_adjacency(inst))
    assert inst.adjacency is adjacency
    with pytest.raises(ValueError):
        adjacency[0, 0] = True  # read-only: every reader shares it


def test_adjacency_is_neither_serialized_nor_compared():
    built = sample_instance(30, 0.2, ConflictSpec.uniform(2), seed=4)
    loaded = Instance.from_dict(built.to_dict())
    assert "adjacency" in vars(built) and "adjacency" in vars(loaded)
    assert [f.name for f in dataclasses.fields(Instance)] == ["m", "edges", "conflicts"]
    assert built == loaded and "adjacency" not in repr(built)
    assert built.to_json() == loaded.to_json()
    assert set(built.to_dict()) == {"m", "edges", "conflicts"}


def test_equal_instances_hash_alike():
    edges, conflicts = [(1, 2), (3, 2)], {4: [1]}
    listed = Instance(4, edges=edges, conflicts=conflicts)
    arrayed = Instance(4, edges=pair_rows(edges), conflicts=conflict_rows(conflicts))
    loaded = Instance.from_json(listed.to_json())
    assert len({listed, arrayed, loaded}) == 1
    assert hash(listed) == hash(arrayed) == hash(loaded)
    # the adjacency is not a field, so it takes no part in the hash
    altered = Instance(4, edges=edges, conflicts=conflicts)
    object.__setattr__(altered, "adjacency", np.ones((4, 4), dtype=bool))
    assert hash(altered) == hash(listed) and altered == listed
    assert len({listed, Instance(4, edges=edges), Instance(3)}) == 3


def test_conflict_rows_may_be_a_list_an_array_or_a_mapping():
    rows = [(1, 2), (1, 3), (4, 2)]
    mapped = Instance(4, conflicts={1: [2, 3], 4: [2]})
    assert Instance(4, conflicts=rows) == Instance(4, conflicts=np.array(rows)) == mapped
    with pytest.raises(TypeError):
        Instance(4, conflicts=5)


def pair_rows(pairs) -> np.ndarray:
    return np.array(list(pairs), dtype=np.int64).reshape(-1, 2)


def conflict_rows(conflicts) -> np.ndarray:
    return pair_rows((v, u) for v, ts in conflicts.items() for u in ts)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), m=st.integers(2, 12))
def test_array_input_builds_the_same_instance(data, m):
    # duplicates and reversed pairs included: both forms canonicalize them
    pair = st.tuples(st.integers(1, m), st.integers(1, m)).filter(lambda t: t[0] != t[1])
    edges = data.draw(st.lists(pair, max_size=30))
    rows = data.draw(st.lists(pair, max_size=30))
    conflicts: dict[int, list[int]] = {}
    for v, u in rows:
        conflicts.setdefault(v, []).append(u)
    listed = Instance(m, edges=edges, conflicts=conflicts)
    for dtype in (np.int64, np.int32, np.uint16):
        arrayed = Instance(m, edges=pair_rows(edges).astype(dtype),
                           conflicts=pair_rows(rows).astype(dtype))
        assert "adjacency" in vars(arrayed)
        assert arrayed == listed and arrayed.to_json() == listed.to_json()
        assert np.array_equal(arrayed.adjacency, reference_adjacency(listed))


@pytest.mark.parametrize("m, edges, conflicts, message", [
    (4, [(1, 2), (5, 1), (3, 3)], {}, "vertex 5 out of range 1..4"),
    (4, [(1, 2), (3, 3), (5, 1)], {}, "self-loop at vertex 3"),
    (4, [(2, 0)], {}, "vertex 0 out of range 1..4"),
    (4, [(-1, 2)], {}, "vertex -1 out of range 1..4"),
    (4, [], {2: [5]}, "vertex 5 out of range 1..4"),
    (4, [], {0: [1]}, "vertex 0 out of range 1..4"),
    (4, [], {3: [3]}, "vertex 3 conflicts with itself"),
    (4, [(1, 2)], {1: [2], 4: [4], 9: [1]}, "vertex 4 conflicts with itself"),
    (4, [(1, 2)], {1: [2], 9: [1], 4: [4]}, "vertex 9 out of range 1..4"),
    (4, [(4, 4)], {9: [1]}, "self-loop at vertex 4"),  # edges are checked first
])
def test_array_input_raises_the_list_input_error(m, edges, conflicts, message):
    with pytest.raises(ValueError) as listed:
        Instance(m, edges=edges, conflicts=conflicts)
    for dtype in (np.int64, np.int32):
        with pytest.raises(ValueError) as arrayed:
            Instance(m, edges=pair_rows(edges).astype(dtype),
                     conflicts=conflict_rows(conflicts).astype(dtype))
        assert str(arrayed.value) == str(listed.value) == message


@pytest.mark.parametrize("edges, conflicts", [
    ([(1.5, 2)], None),
    ([(1, 2), (2.0, 3)], None),  # an integral float is rejected too
    (np.array([[1.5, 2.0]]), None),
    ([], {1.5: [2]}),
    ([], {1: [2.0]}),
    ([], np.array([[1.0, 2.0]])),
])
def test_constructor_rejects_non_integer_vertices(edges, conflicts):
    with pytest.raises(TypeError):
        Instance(3, edges=edges, conflicts=conflicts)


@pytest.mark.parametrize("m", [2.5, 3.0, np.float64(3.0)], ids=["float", "integral", "numpy"])
def test_constructor_rejects_non_integer_m(m):
    # taken through operator.index like the vertices, not truncated by int()
    with pytest.raises(TypeError):
        Instance(m, edges=[(1, 2)])


def test_numpy_integer_input_serializes_like_python_ints():
    for given_numpy, given_python in [
        (Instance(4, edges=np.array([[1, 2]])), Instance(4, edges=[(1, 2)])),
        (Instance(4, conflicts={np.int64(1): np.array([2])}), Instance(4, conflicts={1: [2]})),
        (Instance(4, edges=[(np.int32(3), np.uint8(2))], conflicts={np.int16(4): [np.int64(1)]}),
         Instance(4, edges=[(2, 3)], conflicts={4: [1]})),
    ]:
        assert given_numpy == given_python
        assert given_numpy.to_json() == given_python.to_json()


def test_is_nice_reports_the_smallest_out_of_range_member():
    inst = Instance(5, edges=[(1, 2)])
    with pytest.raises(ValueError, match=r"^vertex 0 out of range 1\.\.5$"):
        is_nice({7, 0, 1, 2}, inst)
    with pytest.raises(ValueError, match=r"^vertex 6 out of range 1\.\.5$"):
        is_nice([6, 1, 2], inst)  # raised although {1, 2} spans an edge


def test_is_nice_takes_numpy_integers_past_64():
    inst = Instance(100, edges=[(70, 90), (1, 2)], conflicts={65: [99]})
    for s, nice in (([70, 90], False), ([65, 99], False), ([1, 2], False), ([70, 99, 3], True)):
        assert is_nice(np.array(s), inst) == is_nice(s, inst) == nice
    with pytest.raises(TypeError):
        is_nice([1.5], inst)


def test_json_round_trip_and_schema():
    inst = sample_instance(9, 0.4, ConflictSpec.uniform(2), seed=11)
    payload = inst.to_dict()
    assert set(payload) == {"m", "edges", "conflicts"}
    assert payload["edges"] == sorted(payload["edges"])
    assert all(u < v for u, v in payload["edges"])
    assert all(ts == sorted(ts) for ts in payload["conflicts"].values())
    assert Instance.from_json(inst.to_json()) == inst


@pytest.mark.parametrize("payload", [
    {"edges": [[1, 2]]},                           # no m
    {"m": 3, "edges": 5},                          # edges not a list
    {"m": 3, "edges": {"1": 2}},
    {"m": 3, "edges": [7]},                        # an edge that is not a pair
    {"m": 3, "edges": [[1, "b"]]},
    {"m": 3, "conflicts": {"x": [2]}},             # non-integer conflict key
    {"m": 3, "conflicts": {"1.5": [2]}},
    {"m": 3, "conflicts": [[1, 2]]},               # conflicts not an object
    {"m": 3, "conflicts": {"1": 2}},               # partners not a list
    {"m": None},
    [3, [[1, 2]]],                                 # top level not an object
    "instance",
    None,
    {"m": 3, "edges": [[1.5, 2]]},                 # non-integer vertices
    {"m": 3, "edges": [[2.0, 3]]},
    {"m": 3, "conflicts": {"1": [2.5]}},
    {"m": 3, "conflicts": {"1": [3.0]}},
    {"m": 3.9},                                    # non-integer m
    {"m": 3.0},
    {"m": "3"},
    {"m": 3, "edges": [[1]]},                      # an edge of the wrong arity
    {"m": 3, "edges": [[1, 2, 3]]},
])
def test_from_dict_rejects_malformed_payloads(payload):
    with pytest.raises(ValueError, match="^malformed instance payload: "):
        Instance.from_dict(payload)
    with pytest.raises(ValueError, match="^malformed instance payload: "):
        Instance.from_json(json.dumps(payload))


def _not_an_int_literal(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return True
    return False


# JSON values that are not integers (booleans are integers to Python)
_NON_INTEGERS = st.one_of(
    st.none(), st.floats(allow_nan=False), st.text(min_size=1),
    st.lists(st.integers(1, 3), max_size=2), st.dictionaries(st.text(max_size=2), st.integers()))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(3, 6))
def test_from_dict_names_every_structural_defect(data, m):
    # a valid payload with exactly one defect of shape or type; range and
    # self-pair errors cannot occur, so the payload prefix is the only answer
    payload = {"m": m, "edges": [[1, 2]], "conflicts": {"2": [3]}}
    where = data.draw(st.sampled_from(
        ["m", "edges", "edge", "arity", "conflicts", "key", "partners", "partner", "top"]))
    if where == "m":
        payload["m"] = data.draw(_NON_INTEGERS)
    elif where == "edges":
        payload["edges"] = data.draw(st.one_of(st.none(), st.integers(), st.floats(allow_nan=False)))
    elif where == "edge":
        payload["edges"].append([1, data.draw(_NON_INTEGERS)])
    elif where == "arity":
        arity = data.draw(st.integers(0, 5).filter(lambda n: n != 2))
        payload["edges"].append(data.draw(st.lists(st.integers(1, m), min_size=arity,
                                                   max_size=arity)))
    elif where == "conflicts":
        payload["conflicts"] = data.draw(st.one_of(
            st.none(), st.integers(), st.text(), st.lists(st.integers(1, m), max_size=3)))
    elif where == "key":
        payload["conflicts"][data.draw(st.text().filter(_not_an_int_literal))] = [1]
    elif where == "partners":
        payload["conflicts"]["1"] = data.draw(st.one_of(
            st.none(), st.integers(), st.floats(allow_nan=False), st.text(min_size=1)))
    elif where == "partner":
        payload["conflicts"]["1"] = [data.draw(_NON_INTEGERS)]
    else:
        payload = data.draw(st.one_of(st.none(), st.integers(), st.text(),
                                      st.lists(st.integers(), max_size=3)))
    for load in (Instance.from_dict, lambda p: Instance.from_json(json.dumps(p))):
        with pytest.raises(ValueError) as info:
            load(payload)
        assert str(info.value).startswith("malformed instance payload: "), (payload, info.value)


def test_nice_set_result_validation():
    # the size is read from the vertex set, so it cannot disagree with it
    assert [f.name for f in dataclasses.fields(NiceSetResult)] == ["vertices", "method", "seed"]
    assert NiceSetResult(vertices=frozenset({1, 2}), method="exact").size == 2
    with pytest.raises(ValueError):
        NiceSetResult(vertices=frozenset(), method="magic")


def test_derive_seed_is_stable_and_spreads():
    assert derive_seed(1, 2) == derive_seed(1, 2)
    seen = {derive_seed(0, t) for t in range(1000)}
    assert len(seen) == 1000
    with pytest.raises(ValueError):
        derive_seed(-1, 0)


@pytest.mark.parametrize("call", [
    lambda: generator(-1),
    lambda: sample_instance(5, 0.5, seed=-1),
    lambda: randomized_construct(instance_system(sample_instance(5, 0.5)), 2, 10, seed=-1),
    lambda: check_goodness_axioms(instance_system(sample_instance(5, 0.5)), samples=2000,
                                  seed=-1),
    lambda: check_goodness_axioms(instance_system(sample_instance(5, 0.5)), seed=-1),
], ids=["generator", "sample_instance", "randomized_construct", "check_goodness_axioms",
        "check_goodness_axioms-every-pair"])
def test_negative_seeds_fail_with_one_message(call):
    # derive_seed's own check, not numpy's "expected non-negative integer"
    with pytest.raises(ValueError, match="^seeds and derivation indices must be non-negative$"):
        call()
