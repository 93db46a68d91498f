"""Experiment engine: determinism, report invariants, and the exact oracles."""

import json
import time
from fractions import Fraction
from math import comb, nan, sqrt

import mpmath
import numpy as np
import pytest

from niceset import (BudgetError, ConflictSpec, ExperimentConfig, Instance,
                     binomial_deviation_tail, existence_violations, goodness,
                     instance_system, run_bound_experiment, run_chernoff_check,
                     run_lemma_verification, solvers)
from niceset.rng import derive_seed, generator


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(m=10, p=0.5, trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(m=10, p=0.5, solver="bogus")
    with pytest.raises(ValueError):
        ExperimentConfig(m=10, p=1.0)
    with pytest.raises(TypeError, match=r"^conflicts must be a ConflictSpec, got int$"):
        ExperimentConfig(m=10, p=0.5, conflicts=3)
    # a spec with more partners than other vertices fails at construction, not at trial 0
    with pytest.raises(ValueError, match=r"^uniform-k spec needs k <= m-1, got k=10, m=10$"):
        ExperimentConfig(m=10, p=0.5, conflicts=ConflictSpec(10))
    assert ExperimentConfig(m=10, p=0.5, conflicts=ConflictSpec(9)).conflicts.k == 9
    assert ExperimentConfig(m=10, p=0.5, conflicts=None).conflicts == ConflictSpec()
    # any m runs the exact solver; only its node budget limits it
    report = run_bound_experiment(ExperimentConfig(m=61, p=0.5, trials=2, solver="exact"))
    assert len(report.empirical) == 2 and min(report.empirical) >= 1


@pytest.mark.parametrize("kwargs", [dict(m=10.0), dict(trials=2.5), dict(m=np.float64(10)),
                                    dict(trials="3")])
def test_config_rejects_non_integers(kwargs):
    with pytest.raises(TypeError):
        ExperimentConfig(**{"m": 10, "p": 0.5, "solver": "greedy", **kwargs})


def test_config_takes_integer_like_values_as_int():
    cfg = ExperimentConfig(m=np.int64(10), p=0.5, trials=np.int32(2), seed=np.uint64(3))
    assert (cfg.m, cfg.trials, cfg.seed) == (10, 2, 3)
    assert all(type(v) is int for v in (cfg.m, cfg.trials, cfg.seed))


def test_upper_experiment_report_invariants():
    cfg = ExperimentConfig(m=12, p=0.5, gamma=1.0, trials=25, seed=7,
                           conflicts=ConflictSpec.uniform(2))
    report = run_bound_experiment(cfg)
    assert len(report.empirical) == len(report.seeds) == 25
    assert 0.0 <= report.frac_exceed_upper <= 1.0
    assert 0.0 <= report.frac_below_lower <= 1.0
    assert all(s >= 1 for s in report.empirical)
    assert report.tau_estimate >= 2.0  # uniform-2 conflicts force max |T| >= 2
    assert report.claimed_upper_failure == pytest.approx(1 / 12)
    assert run_bound_experiment(cfg) == report  # deterministic


def test_upper_experiment_near_complete_graph():
    cfg = ExperimentConfig(m=10, p=0.99, gamma=1.0, trials=50, seed=1)
    report = run_bound_experiment(cfg)
    assert report.threshold_upper >= 2
    assert max(report.empirical) <= 2
    assert report.frac_exceed_upper == 0.0


def test_lower_experiment_clamps_threshold():
    cfg = ExperimentConfig(m=40, p=0.5, delta=0.25, trials=20, seed=11)
    report = run_bound_experiment(cfg)
    assert report.threshold_lower == 1
    assert report.frac_below_lower == 0.0
    assert report.tau_estimate == 1.0  # empty-conflict fallback


def test_budget_errors_carry_the_trial_index(monkeypatch):
    exact = solvers.max_nice_exact
    monkeypatch.setattr(solvers, "max_nice_exact", lambda inst: exact(inst, node_budget=2))
    cfg = ExperimentConfig(m=20, p=0.5, trials=3, seed=2)
    with pytest.raises(BudgetError,
                       match="^trial 0: exact search exceeded node budget 2$") as info:
        run_bound_experiment(cfg)
    # the re-raise keeps the best set found, and its size follows from it
    assert info.value.best_size == len(info.value.best_vertices) >= 1


def test_per_trial_seeds_do_not_depend_on_trial_count():
    a = run_bound_experiment(ExperimentConfig(m=10, p=0.4, trials=5, seed=3))
    b = run_bound_experiment(ExperimentConfig(m=10, p=0.4, trials=10, seed=3))
    assert a.seeds == b.seeds[:5]
    assert a.empirical == b.empirical[:5]


def test_existence_violations_on_trivial_systems():
    edgeless = instance_system(Instance(5))
    violations, fired = existence_violations(edgeless)
    assert violations == []
    assert fired == 4  # every L in 2..5 fires: p is 1, q grows as (L-1)/5
    complete = instance_system(
        Instance(4, edges=[(u, v) for u in range(1, 5) for v in range(u + 1, 5)]))
    violations, fired = existence_violations(complete)
    assert violations == [] and fired == 0


def test_lemma_verification_sweep_small():
    report = run_lemma_verification(count=60, n_max=6, seed=3)
    assert report.counterexamples == ()
    assert report.conditions_fired > 0
    assert report.systems_checked == 60
    assert run_lemma_verification(count=60, n_max=6, seed=3) == report
    with pytest.raises(ValueError):
        run_lemma_verification(count=0)
    with pytest.raises(ValueError):
        run_lemma_verification(count=5, n_max=1)


def test_lemma_verification_above_ten_elements():
    # n_max has no upper cap; the enumeration budget is the only limit
    report = run_lemma_verification(count=30, n_max=12, seed=5)
    assert report.counterexamples == ()
    assert report.conditions_fired > 0
    assert run_lemma_verification(count=30, n_max=12, seed=5) == report


def test_lemma_verification_reports_each_counterexample_with_its_system(monkeypatch):
    # no search finds a set, so every condition that fires is a counterexample
    monkeypatch.setattr(goodness, "brute_force_mutually_good", lambda *args, **kwargs: None)
    report = run_lemma_verification(count=3, n_max=6, seed=3)
    counterexamples = report.to_dict()["counterexamples"]
    assert report.conditions_fired == len(counterexamples) == 3
    assert counterexamples[0] == {"L": 2, "N": 3, "p": "1", "q": "1/3", "system_index": 0}
    assert [c["system_index"] for c in counterexamples] == [0, 0, 2]


def test_lemma_verification_budget_error_names_the_system():
    # seed 0 draws n = 35 for system 0: 2**35 - 1 subsets, over the budget
    with pytest.raises(BudgetError, match=r"^system 0: enumerating subsets of size "
                                          r"<= 34 over 35 elements exceeds the budget"):
        run_lemma_verification(count=1, n_max=40, seed=0)


@pytest.mark.parametrize("call", [
    lambda: derive_seed(1.5, 2),
    lambda: derive_seed(1, 2.0),
    lambda: generator(1.5),
    lambda: ExperimentConfig(m=10, p=0.5, seed=1.5),
    lambda: run_lemma_verification(2, n_max=4.5),
    lambda: run_lemma_verification(2.0),
    lambda: run_lemma_verification(2, seed=0.5),
    lambda: ConflictSpec.uniform(1.5),
], ids=["derive_seed-master", "derive_seed-path", "generator", "config-seed",
        "lemma-n_max", "lemma-count", "lemma-seed", "conflict-k"])
def test_float_seeds_and_counts_are_rejected(call):
    # truncating 1.5 to 1 would run a different seed or size than the one reported
    with pytest.raises(TypeError):
        call()


def test_binomial_tail_oracle_and_validation():
    # independent exact value: 2 * sum_{k<=10} C(40,k) / 2^40
    exact = Fraction(2) * sum(Fraction(comb(40, k), 2**40) for k in range(11))
    assert binomial_deviation_tail(40, 0.5, 10.0) == pytest.approx(float(exact), rel=1e-12)
    with pytest.raises(ValueError):
        binomial_deviation_tail(0, 0.5, 1.0)
    with pytest.raises(ValueError):
        binomial_deviation_tail(10, 0.0, 1.0)


@pytest.mark.parametrize("p", [0.3, 0.5])
@pytest.mark.parametrize("r", [1030, 2000, 5000])
def test_binomial_tail_where_the_coefficients_overflow_a_float(r, p):
    # from r = 1030 on, some C(r, k) exceed the float range (at p = 0.5 the
    # terms near the mean, at half a standard deviation) and every term is
    # taken through lgamma; the tail must still agree with the same sum
    # evaluated at 50 digits
    theta, deviation = r * p, 0.5 * sqrt(r * p * (1 - p))
    with mpmath.workdps(50):
        q = mpmath.mpf(p)
        exact = mpmath.fsum(mpmath.binomial(r, k) * q ** k * (1 - q) ** (r - k)
                            for k in range(r + 1) if abs(k - theta) >= deviation)
    assert binomial_deviation_tail(r, p, deviation) == pytest.approx(float(exact), rel=1e-9)


@pytest.mark.parametrize("p", [0.3, 0.5])
def test_binomial_tail_below_1030_sums_the_float_terms(p):
    # below r = 1030 every coefficient fits a float, and the tail is the sum
    # of float products bit for bit, so the chernoff golden digest cannot move
    r = 1029
    theta, deviation = r * p, 0.5 * sqrt(r * p * (1 - p))
    expected = float(sum(comb(r, k) * p ** k * (1.0 - p) ** (r - k)
                         for k in range(r + 1) if abs(k - theta) >= deviation))
    assert binomial_deviation_tail(r, p, deviation) == expected


def test_binomial_tail_time_is_linear_in_r():
    # chernoff takes any --r, so the exact tail must cost time linear in r
    start = time.perf_counter()
    tail = binomial_deviation_tail(200_000, 0.5, 100.0)
    assert time.perf_counter() - start < 1.0
    assert 0.6 < tail < 0.7  # 100 is about 0.45 standard deviations


def test_chernoff_check_report():
    report = run_chernoff_check(r=40, bernoulli_p=0.5, gamma=0.5, trials=4000, seed=9)
    assert report.theta == 20.0 and report.deviation == 10.0
    assert report.within_bound
    assert report.consistent_with_exact
    assert report.empirical <= report.bound
    assert run_chernoff_check(r=40, bernoulli_p=0.5, gamma=0.5, trials=4000, seed=9) == report
    with pytest.raises(ValueError):
        run_chernoff_check(r=40, bernoulli_p=0.5, gamma=0.6, trials=100)
    with pytest.raises(ValueError):
        run_chernoff_check(r=40, bernoulli_p=0.5, gamma=0.5, trials=0)
    for bad_p in (0.0, 1.0, 1.5, nan):
        with pytest.raises(ValueError, match="p must lie strictly between 0 and 1"):
            run_chernoff_check(r=40, bernoulli_p=bad_p, gamma=0.5, trials=100)
    for bad_r in (0, -3):
        with pytest.raises(ValueError, match="r must be at least 1"):
            run_chernoff_check(r=bad_r, bernoulli_p=0.5, gamma=0.5, trials=100)
    with pytest.raises(TypeError):
        run_chernoff_check(r=2.5, bernoulli_p=0.5, gamma=0.5, trials=100)
    for bad_trials in (2.5, nan):  # refused at entry, not inside numpy's binomial
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            run_chernoff_check(r=40, bernoulli_p=0.5, gamma=0.5, trials=bad_trials)


@pytest.mark.parametrize("seed", [np.int64(3), True], ids=["numpy-int", "bool"])
def test_chernoff_report_holds_the_seed_as_an_int(seed):
    # the report held the caller's object: np.int64 did not serialize, True read "true"
    report = run_chernoff_check(r=40, bernoulli_p=0.5, gamma=0.5, trials=100, seed=seed)
    assert type(report.seed) is int and report.seed == int(seed)
    assert json.loads(json.dumps(report.to_dict()))["seed"] == int(seed)
    assert report == run_chernoff_check(r=40, bernoulli_p=0.5, gamma=0.5, trials=100,
                                        seed=int(seed))
