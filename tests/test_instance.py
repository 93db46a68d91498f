"""Instance sampling, niceness, the union graph, and serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from niceset import (ConflictSpec, Instance, NiceSetResult, derive_seed, is_nice,
                     sample_instance, union_conflict_graph)
from niceset.rng import generator


def test_conflict_spec_validation():
    assert ConflictSpec.none().kind == "none"
    assert ConflictSpec.uniform(2).k == 2
    with pytest.raises(ValueError):
        ConflictSpec("bogus")
    with pytest.raises(ValueError):
        ConflictSpec("uniform-k", -1)
    with pytest.raises(ValueError):
        ConflictSpec("none", 3)


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


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 15), p=st.floats(0.0, 1.0), k=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
def test_sampled_instances_satisfy_invariants(m, p, k, seed):
    k = min(k, m - 1)
    spec = ConflictSpec.uniform(k) if k else ConflictSpec.none()
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
    assert union_conflict_graph(Instance(4, edges=[(1, 2)], conflicts={3: {4}})) == \
        frozenset({(1, 2), (3, 4)})
    assert union_conflict_graph(Instance(4)) == frozenset()
    # edge and conflict on the same pair collapse to one relation entry
    assert union_conflict_graph(Instance(2, edges=[(1, 2)], conflicts={2: {1}})) == \
        frozenset({(1, 2)})


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 8), p=st.floats(0.0, 1.0), k=st.integers(0, 2),
       seed=st.integers(0, 2**16))
def test_nice_iff_stable_in_union_graph(m, p, k, seed):
    k = min(k, m - 1)
    spec = ConflictSpec.uniform(k) if k else ConflictSpec.none()
    inst = sample_instance(m, p, spec, seed=seed)
    relation = union_conflict_graph(inst)
    for mask in range(1 << m):
        s = {v for v in range(1, m + 1) if mask >> (v - 1) & 1}
        stable = all((min(u, v), max(u, v)) not in relation
                     for u in s for v in s if u < v)
        assert is_nice(s, inst) == stable


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
])
def test_from_dict_rejects_malformed_payloads(payload):
    with pytest.raises(ValueError):
        Instance.from_dict(payload)
    with pytest.raises(ValueError):
        Instance.from_json(json.dumps(payload))


def test_nice_set_result_validation():
    NiceSetResult(vertices=frozenset({1, 2}), size=2, method="exact")
    with pytest.raises(ValueError):
        NiceSetResult(vertices=frozenset({1, 2}), size=3, method="exact")
    with pytest.raises(ValueError):
        NiceSetResult(vertices=frozenset(), size=0, method="magic")


def test_derive_seed_is_stable_and_spreads():
    assert derive_seed(1, 2) == derive_seed(1, 2)
    seen = {derive_seed(0, t) for t in range(1000)}
    assert len(seen) == 1000
    with pytest.raises(ValueError):
        derive_seed(-1, 0)
