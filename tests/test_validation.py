"""Every count, real and probability parameter of the public API, held to one rule.

A count that is not an integer (``2.5``, NaN, ``"3"``) raises ``TypeError``
and one below its minimum ``ValueError``; a real parameter that is not a real
number (``"0.5"``, ``None``) raises ``TypeError``; a probability outside its
interval, NaN included, raises ``ValueError``.  Each message names the
parameter.  An element outside a goodness system's universe raises
``ValueError`` naming the element.
"""

import math
import re

import numpy as np
import pytest

from niceset import (BoundParams, ConflictSpec, ExperimentConfig, FeatureMatrix, Instance,
                     attempt_success_bound, binomial_deviation_tail,
                     brute_force_mutually_good, build_instance, check_goodness_axioms,
                     chernoff_bound, collinearity_graph, conflict_sets,
                     construction_success_bound, fraction_table, graph_system, h_set,
                     instance_system, is_constrained, is_mutually_good,
                     max_nice_exact, pearson_matrix, randomized_construct,
                     randomized_nice, run_chernoff_check, run_lemma_verification,
                     sample_instance, select_features, vif)

INSTANCE = Instance(4, edges=[(1, 2)], conflicts={3: [4]})
SYSTEM = instance_system(sample_instance(5, 0.5, seed=1))
TABLE = fraction_table(SYSTEM, 4)
FM = FeatureMatrix(names=("a", "b", "c"), data=np.random.default_rng(0).normal(size=(20, 3)))

# (callable, parameter, minimum, call with the parameter set to a value)
COUNTS = [
    (BoundParams, "m", 2, lambda v: BoundParams(m=v, p=0.5)),
    (ConflictSpec, "k", 0, lambda v: ConflictSpec(v)),
    (ConflictSpec.uniform, "k", 0, ConflictSpec.uniform),
    (Instance, "m", 1, Instance),
    (sample_instance, "m", 1, lambda v: sample_instance(v, 0.5)),
    (max_nice_exact, "node_budget", 1, lambda v: max_nice_exact(INSTANCE, node_budget=v)),
    (randomized_nice, "max_restarts", 1, lambda v: randomized_nice(INSTANCE, max_restarts=v)),
    (fraction_table, "up_to", 1, lambda v: fraction_table(SYSTEM, v)),
    (fraction_table, "max_subsets", 1, lambda v: fraction_table(SYSTEM, 2, max_subsets=v)),
    (brute_force_mutually_good, "L", 0, lambda v: brute_force_mutually_good(SYSTEM, v)),
    (brute_force_mutually_good, "max_subsets", 1,
     lambda v: brute_force_mutually_good(SYSTEM, 2, max_subsets=v)),
    (randomized_construct, "L", 1, lambda v: randomized_construct(SYSTEM, v, 10)),
    (randomized_construct, "max_restarts", 1, lambda v: randomized_construct(SYSTEM, 2, v)),
    (construction_success_bound, "L", 2, lambda v: construction_success_bound(TABLE, v)),
    (attempt_success_bound, "L", 2, lambda v: attempt_success_bound(TABLE, 5, v)),
    (attempt_success_bound, "n_universe", 1, lambda v: attempt_success_bound(TABLE, v, 3)),
    (TABLE.p_at, "i", 1, TABLE.p_at),
    (TABLE.q_at, "i", 1, TABLE.q_at),
    (check_goodness_axioms, "samples", 1,
     lambda v: check_goodness_axioms(SYSTEM, samples=v)),
    (FM.column, "j", 1, FM.column),
    (vif, "j", 1, lambda v: vif(FM, v, [2])),
    (vif, "regressors", 1, lambda v: vif(FM, 1, [2, v])),
    (conflict_sets, "k_top", 1, lambda v: conflict_sets(FM, 5.0, k_top=v)),
    (build_instance, "k_top", 1, lambda v: build_instance(FM, 0.9, 5.0, k_top=v)),
    (select_features, "k_top", 1, lambda v: select_features(FM, 0.9, 5.0, k_top=v)),
    (ExperimentConfig, "m", 2, lambda v: ExperimentConfig(m=v, p=0.5)),
    (ExperimentConfig, "trials", 1, lambda v: ExperimentConfig(m=10, p=0.5, trials=v)),
    (run_lemma_verification, "count", 1, lambda v: run_lemma_verification(v)),
    (run_lemma_verification, "n_max", 2, lambda v: run_lemma_verification(1, n_max=v)),
    (run_chernoff_check, "r", 1, lambda v: run_chernoff_check(v, 0.5, 0.5, 10)),
    (run_chernoff_check, "trials", 1, lambda v: run_chernoff_check(10, 0.5, 0.5, v)),
    (binomial_deviation_tail, "r", 1, lambda v: binomial_deviation_tail(v, 0.5, 1.0)),
]

# (callable, name in the message, call with the probability set to a value);
# run_chernoff_check's ``bernoulli_p`` is ``p`` on the command line and in its report
OPEN_UNIT = [
    (BoundParams, "p", lambda v: BoundParams(m=10, p=v)),
    (ExperimentConfig, "p", lambda v: ExperimentConfig(m=10, p=v)),
    (run_chernoff_check, "p", lambda v: run_chernoff_check(10, v, 0.5, 10)),
    (binomial_deviation_tail, "p", lambda v: binomial_deviation_tail(3, v, 1.0)),
]

# (callable, parameter, call with the parameter set to a value): every other
# real parameter, each checked by a comparison after it is typed
REALS = [
    (BoundParams, "gamma", lambda v: BoundParams(m=10, p=0.5, gamma=v)),
    (BoundParams, "delta", lambda v: BoundParams(m=10, p=0.5, delta=v)),
    (BoundParams, "tau", lambda v: BoundParams(m=10, p=0.5, tau=v)),
    (ExperimentConfig, "gamma", lambda v: ExperimentConfig(m=10, p=0.5, gamma=v)),
    (ExperimentConfig, "delta", lambda v: ExperimentConfig(m=10, p=0.5, delta=v)),
    (chernoff_bound, "gamma", lambda v: chernoff_bound(3.0, v)),
    (chernoff_bound, "theta_r", lambda v: chernoff_bound(v, 0.2)),
    (run_chernoff_check, "gamma", lambda v: run_chernoff_check(10, 0.5, v, 10)),
    (sample_instance, "p", lambda v: sample_instance(5, v)),
    (binomial_deviation_tail, "deviation", lambda v: binomial_deviation_tail(3, 0.5, v)),
    (collinearity_graph, "lambda_c", lambda v: collinearity_graph(pearson_matrix(FM), v)),
    (build_instance, "lambda_c", lambda v: build_instance(FM, v, 5.0)),
    (select_features, "lambda_c", lambda v: select_features(FM, v, 5.0)),
    (conflict_sets, "lambda_mc", lambda v: conflict_sets(FM, v)),
    (build_instance, "lambda_mc", lambda v: build_instance(FM, 0.9, v)),
    (select_features, "lambda_mc", lambda v: select_features(FM, 0.9, v)),
]


def _cases():
    for owner, name, minimum, call in COUNTS:
        for bad in (2.5, math.nan, "3"):
            yield owner, name, call, bad, TypeError
        yield owner, name, call, minimum - 1, ValueError
    for owner, name, call in OPEN_UNIT:
        for bad in (math.nan, 0, 1, 1.5, -0.1):
            yield owner, name, call, bad, ValueError
    # the sampler accepts the endpoints of [0, 1]
    for bad in (math.nan, 1.5, -0.1):
        yield sample_instance, "p", lambda v: sample_instance(5, v), bad, ValueError
    yield (binomial_deviation_tail, "deviation",
           lambda v: binomial_deviation_tail(3, 0.5, v), math.nan, ValueError)
    # a real parameter is typed before it is compared
    for owner, name, call in OPEN_UNIT + REALS:
        for bad in ("0.5", None):
            yield owner, name, call, bad, TypeError


CASES = list(_cases())


@pytest.mark.parametrize(
    "name, call, bad, error", [case[1:] for case in CASES],
    ids=[f"{owner.__qualname__}-{name}-{bad!r}" for owner, name, _, bad, _ in CASES])
def test_bad_value_raises_naming_the_parameter(name, call, bad, error):
    with pytest.raises(error) as info:
        call(bad)
    assert re.search(rf"\b{name}\b", str(info.value)), str(info.value)


@pytest.mark.parametrize("call", [is_mutually_good, is_constrained, h_set])
@pytest.mark.parametrize("elements, named", [({1, 99}, "99"), ({99}, "99"),
                                             ([99, 1, 99], "99"), ({0, 1, 99}, "0, 99")])
def test_elements_outside_the_universe_raise_naming_the_element(call, elements, named):
    path = graph_system({1: {2}, 2: {1, 3}, 3: {2}})
    with pytest.raises(ValueError, match=rf"^not in the universe: {named}$"):
        call(path, elements)
