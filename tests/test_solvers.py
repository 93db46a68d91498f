"""Solver correctness: exact against enumeration, greedy traces, randomized."""

import inspect
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import niceset
from niceset import (BudgetError, ConflictSpec, Instance, NiceSetResult, derive_seed,
                     goodness, greedy_nice, instance_system, is_nice, max_nice_exact,
                     randomized_construct, randomized_nice, sample_instance, select_features,
                     solve, solvers)
from niceset.solvers import METHODS

from .conftest import enumerate_max_nice, reference_adjacency


def complete_instance(m):
    return Instance(m, edges=[(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)])


def test_exact_examples():
    inst = Instance(4, edges=[(1, 2)], conflicts={3: {4}})
    result = max_nice_exact(inst)
    assert result.size == 2 == enumerate_max_nice(inst)
    assert is_nice(result.vertices, inst)
    assert result.method == "exact"

    assert max_nice_exact(Instance(5)).size == 5
    assert max_nice_exact(complete_instance(4)).size == 1


def test_exact_matches_enumeration_on_seeded_instances():
    for idx in range(20):
        m = 6 + idx % 7
        p = [0.2, 0.5, 0.8][idx % 3]
        k = idx % 3
        spec = ConflictSpec.uniform(min(k, m - 1))
        inst = sample_instance(m, p, spec, seed=derive_seed(77, idx))
        assert max_nice_exact(inst).size == enumerate_max_nice(inst)


def test_exact_budget_error_carries_best_so_far():
    inst = sample_instance(30, 0.3, seed=5)
    with pytest.raises(BudgetError) as info:
        max_nice_exact(inst, node_budget=3)
    err = info.value
    assert err.best_size == len(err.best_vertices) >= 1
    assert is_nice(err.best_vertices, inst)
    # the size is read from the set, never passed beside it
    assert BudgetError("no set").best_size is None
    with pytest.raises(TypeError):
        BudgetError("budget", best_vertices=frozenset({1}), best_size=1)
    with pytest.raises(ValueError):
        max_nice_exact(inst, node_budget=0)
    for idx in range(30):
        inst = sample_instance(10 + 3 * idx, [0.1, 0.3, 0.6][idx % 3],
                               ConflictSpec.uniform(idx % 3), seed=derive_seed(53, idx))
        size = max_nice_exact(inst).size
        for budget in (1, 3, 50):
            try:
                assert max_nice_exact(inst, node_budget=budget).size == size
            except BudgetError as exc:
                assert 1 <= exc.best_size == len(exc.best_vertices) <= size
                assert is_nice(exc.best_vertices, inst)


@pytest.mark.parametrize("budget", [2.5, 3.0])
def test_exact_rejects_a_non_integer_budget(budget):
    with pytest.raises(TypeError):
        max_nice_exact(sample_instance(10, 0.5, seed=0), node_budget=budget)


def test_exact_takes_an_integer_like_budget():
    inst = sample_instance(30, 0.3, seed=5)
    assert max_nice_exact(inst, node_budget=np.int64(10**6)) == max_nice_exact(inst)
    with pytest.raises(BudgetError, match="node budget 3$"):
        max_nice_exact(inst, node_budget=np.int64(3))


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 12),
       p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       k=st.sampled_from([0, 1, 2]), seed=st.integers(0, 2**32))
def test_exact_size_matches_enumeration(m, p, k, seed):
    inst = sample_instance(m, p, ConflictSpec.uniform(min(k, m - 1)), seed=seed)
    result = max_nice_exact(inst)
    assert result.size == len(result.vertices) == enumerate_max_nice(inst)
    assert is_nice(result.vertices, inst)


@pytest.mark.parametrize("m", [60, 100])
@pytest.mark.parametrize("p", [0.05, 0.1, 0.5])
def test_exact_size_matches_networkx(m, p):
    # the largest stable set of the union graph is the largest clique of
    # its complement, rebuilt here from the raw edge and conflict fields
    nx = pytest.importorskip("networkx")
    inst = sample_instance(m, p, ConflictSpec.uniform(1), seed=derive_seed(41, m))
    complement = nx.complement(nx.from_numpy_array(reference_adjacency(inst).astype(int)))
    _, size = nx.max_weight_clique(complement, weight=None)
    assert max_nice_exact(inst).size == size


def test_exact_search_depth_is_not_limited_by_the_recursion_limit():
    # 250 disjoint 5-cycles: the greedy start already has the maximum, 500,
    # but the root cover has 750 cliques (two edges and a vertex per cycle).
    # Each cycle the search fills takes two vertices and closes three
    # cliques, so the bound falls by one per cycle and the search descends
    # 500 levels before its first cut, far below the lowered recursion limit
    edges = [(5 * c + i + 1, 5 * c + (i + 1) % 5 + 1) for c in range(250) for i in range(5)]
    inst = Instance(1250, edges=edges)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        with pytest.raises(BudgetError) as info:
            max_nice_exact(inst, node_budget=1000)
    finally:
        sys.setrecursionlimit(limit)
    assert info.value.best_size == 500
    assert is_nice(info.value.best_vertices, inst)


def test_greedy_path_trace():
    # degrees 1,2,2,1: pick 1, drop 2; residual 3-4 has degrees 1,1, pick 3
    path = Instance(4, edges=[(1, 2), (2, 3), (3, 4)])
    assert greedy_nice(path).vertices == frozenset({1, 3})


def test_greedy_trivial_graphs():
    assert greedy_nice(Instance(6)).size == 6
    assert greedy_nice(complete_instance(6)).size == 1


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 12), p=st.floats(0.0, 1.0), k=st.integers(0, 2),
       seed=st.integers(0, 2**16))
def test_greedy_output_is_nice_and_maximal(m, p, k, seed):
    spec = ConflictSpec.uniform(min(k, m - 1))
    inst = sample_instance(m, p, spec, seed=seed)
    result = greedy_nice(inst)
    assert is_nice(result.vertices, inst)
    for v in range(1, m + 1):
        if v not in result.vertices:
            assert not is_nice(result.vertices | {v}, inst)


def test_randomized_is_nice_and_deterministic():
    inst = sample_instance(12, 0.5, ConflictSpec.uniform(1), seed=21)
    a = randomized_nice(inst, seed=4)
    b = randomized_nice(inst, seed=4)
    assert a == b
    assert is_nice(a.vertices, inst)
    assert a.method == "randomized"
    assert a.size <= max_nice_exact(inst).size


def test_randomized_finds_everything_on_edgeless_graph():
    inst = Instance(5)
    result = randomized_nice(inst, max_restarts=300, seed=0)
    assert result.vertices == frozenset({1, 2, 3, 4, 5})


def test_randomized_rejects_non_positive_restarts():
    with pytest.raises(ValueError, match="max_restarts"):
        randomized_nice(Instance(3), max_restarts=0)
    with pytest.raises(ValueError, match="max_restarts"):
        randomized_nice(complete_instance(3), max_restarts=-2)
    for bad in (2.5, float("nan")):
        with pytest.raises(TypeError):
            randomized_nice(Instance(3), max_restarts=bad)


def reference_randomized_scan(inst, max_restarts, seed):
    """The scan over every size ``L = m .. 1`` with the generic sampler on the
    instance's goodness system, one seed per size."""
    system = instance_system(inst)
    for target in range(inst.m, 0, -1):
        found = randomized_construct(system, target, max_restarts=max_restarts,
                                     seed=derive_seed(seed, target))
        if found is not None:
            return NiceSetResult(vertices=found, method="randomized", seed=seed)
    raise AssertionError("singleton draws always succeed")


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 40),
       p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       k=st.sampled_from([0, 1, 2]), max_restarts=st.sampled_from([1, 7, 100]),
       seed=st.integers(0, 2**32))
def test_randomized_matches_reference_scan(m, p, k, max_restarts, seed):
    spec = ConflictSpec.uniform(min(k, m - 1))
    inst = sample_instance(m, p, spec, seed=derive_seed(seed, 0))
    assert randomized_nice(inst, max_restarts, seed) == \
        reference_randomized_scan(inst, max_restarts, seed)


def reference_row_scan(inst, max_restarts, seed):
    """The per-row test on Python bitmasks that preceded the batched numpy
    test, with the masks rebuilt from the raw edge and conflict fields.  The
    scan starts at the clique count of the exact search's root cover: the
    greedy cover of the graph relabelled by ascending degree."""
    m = inst.m
    adj = [0] * m
    for v, ts in inst.conflicts.items():
        for u in ts:
            adj[v - 1] |= 1 << (u - 1)
    for u, v in inst.edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    order = sorted(range(m), key=lambda v: adj[v].bit_count())  # stable, ties keep their order
    relabelled = [sum(1 << i for i, u in enumerate(order) if adj[v] >> u & 1) for v in order]
    for target in range(len(solvers._clique_cover((1 << m) - 1, relabelled)), 0, -1):
        draws = niceset.rng.generator(derive_seed(seed, target)).integers(
            0, m, size=(max_restarts, target))
        ordered = np.sort(draws, axis=1)
        distinct = (ordered[:, 1:] != ordered[:, :-1]).all(axis=1)
        for row in draws[distinct].tolist():
            mask = sum(1 << v for v in row)  # rows are distinct, so sum == union
            if not any(adj[v] & mask for v in row):
                vertices = frozenset(v + 1 for v in row)
                return NiceSetResult(vertices=vertices, method="randomized", seed=seed)
    raise AssertionError("singleton draws always succeed")


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 130),
       p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       k=st.sampled_from([0, 1, 2]), max_restarts=st.sampled_from([1, 7, 100]),
       seed=st.integers(0, 2**32))
def test_randomized_matches_the_per_row_scan(m, p, k, max_restarts, seed):
    spec = ConflictSpec.uniform(min(k, m - 1))
    inst = sample_instance(m, p, spec, seed=derive_seed(seed, 1))
    assert randomized_nice(inst, max_restarts, seed) == \
        reference_row_scan(inst, max_restarts, seed)


def test_randomized_scan_past_64_vertices():
    # vertices above 64 are reachable and tested against their neighbours
    inst = Instance(100, edges=[(u, v) for u in range(1, 101) for v in range(u + 1, 101)
                                if u <= 64 or v != u + 1])
    result = randomized_nice(inst, max_restarts=100, seed=2)
    assert result == reference_row_scan(inst, 100, 2)
    assert result.size == 2 and min(result.vertices) > 64


def test_randomized_skips_sizes_above_the_clique_cover_bound(monkeypatch):
    seeds = []

    def recording(seed):
        seeds.append(seed)
        return niceset.rng.generator(seed)

    monkeypatch.setattr(solvers, "generator", recording)
    # a complete graph is one clique, so only L = 1 is drawn
    assert randomized_nice(complete_instance(9), seed=5).size == 1
    assert seeds == [derive_seed(5, 1)]
    # the path 3-1-2-4: in vertex order the cover is {1, 2}, {3}, {4}, but
    # by ascending degree it is {3, 1}, {4, 2}, so the scan starts at L = 2
    seeds.clear()
    assert randomized_nice(Instance(4, edges=[(1, 2), (1, 3), (2, 4)]), seed=5).size == 2
    assert seeds == [derive_seed(5, 2)]


def test_randomized_runs_without_the_goodness_system(monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("randomized_nice reached the goodness callables")

    monkeypatch.setattr(goodness, "instance_system", unused)
    monkeypatch.setattr(goodness, "randomized_construct", unused)
    inst = sample_instance(60, 0.1, ConflictSpec.uniform(1), seed=3)
    result = randomized_nice(inst, seed=3)
    assert is_nice(result.vertices, inst) and result.size > 1


@pytest.mark.parametrize("solve", [max_nice_exact, greedy_nice, randomized_nice])
def test_witness_check_rejects_non_nice_answer(monkeypatch, solve):
    monkeypatch.setattr(solvers, "is_nice", lambda s, inst: False)
    with pytest.raises(RuntimeError, match="non-nice"):
        solve(sample_instance(8, 0.3, seed=1))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("seed", [0, 7])
def test_solve_dispatches_to_the_named_solver(method, seed):
    direct = {"exact": max_nice_exact, "greedy": greedy_nice,
              "randomized": lambda inst: randomized_nice(inst, seed=seed)}[method]
    for trial in range(5):
        inst = sample_instance(25, 0.2, ConflictSpec.uniform(1), seed=derive_seed(seed, trial))
        assert solve(inst, method, seed) == direct(inst)


def test_unknown_method_raises_the_same_error_from_solve_and_select():
    message = "unknown method 'bogus'; expected one of ('exact', 'greedy', 'randomized')"
    with pytest.raises(ValueError) as from_solve:
        solve(Instance(3), "bogus")
    fm = niceset.FeatureMatrix(names=("a", "b", "c"),
                               data=np.random.default_rng(0).normal(size=(20, 3)))
    with pytest.raises(ValueError) as from_select:
        select_features(fm, lambda_c=0.9, lambda_mc=5.0, method="bogus")
    assert str(from_solve.value) == str(from_select.value) == message


_WITNESS_UNDER_O = textwrap.dedent("""
    import sys

    import numpy as np

    from niceset import FeatureMatrix, Instance, features, solvers

    inst = Instance(4, edges=[(1, 2)])
    fm = FeatureMatrix(names=("a", "b", "c"), data=np.random.default_rng(0).normal(size=(20, 3)))
    calls = [
        lambda: solvers.max_nice_exact(inst),
        lambda: solvers.greedy_nice(inst),
        lambda: solvers.randomized_nice(inst),
        lambda: features.select_features(fm, 0.9, 5.0, method="greedy"),
    ]
    raised = 0
    solvers.is_nice = lambda s, inst: False
    for call in calls:
        try:
            call()
        except RuntimeError:
            raised += 1
    print(sys.flags.optimize, raised)
""")


def test_witness_checks_survive_optimized_mode():
    src = os.path.dirname(os.path.dirname(niceset.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", _WITNESS_UNDER_O], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "4"]
