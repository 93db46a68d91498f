"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; statistical margins are three
binomial standard errors on seeded, deterministic runs.
"""

import itertools
import json
import time
from fractions import Fraction
from math import comb, sqrt

import mpmath
import numpy as np

from niceset import (BoundParams, ConflictSpec, ExperimentConfig, chernoff_bound,
                     attempt_success_bound, check_goodness_axioms,
                     construction_success_bound, derive_seed, fraction_table,
                     graph_system, instance_system, is_mutually_good,
                     max_nice_exact, randomized_construct, run_bound_experiment,
                     run_chernoff_check, run_lemma_verification, sample_instance,
                     select_features, size_lower_bound, size_upper_bound)
from niceset.cli import main as cli_main

from .conftest import (PATH_ADJACENCY, edge_adjacency, enumerate_max_nice,
                       mutually_good_by_definition, planted_block_matrix)


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_exact_solver_matches_enumeration():
    started = time.monotonic()
    mismatches = 0
    for idx in range(100):
        m = 9 + idx % 6                      # 9..14
        p = [0.2, 0.5, 0.8][idx % 3]
        k = idx % 3
        spec = ConflictSpec.uniform(k)
        inst = sample_instance(m, p, spec, seed=derive_seed(1001, idx))
        if max_nice_exact(inst).size != enumerate_max_nice(inst):
            mismatches += 1
    elapsed = time.monotonic() - started
    report(1, "exact solver equals exhaustive maximization on 100 instances",
           mismatches == 0 and elapsed < 60.0,
           f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_2_existence_sweep():
    started = time.monotonic()
    rep = run_lemma_verification(count=500, n_max=8, seed=3)
    elapsed = time.monotonic() - started
    report(2, "existence guarantee holds on 500 random systems",
           rep.counterexamples == () and rep.conditions_fired > 0 and elapsed < 120.0,
           f"{rep.conditions_fired} conditions fired, "
           f"{len(rep.counterexamples)} counterexamples, {elapsed:.1f}s")


def _attempt_rate(system, L, master_seed, attempts=2000):
    hits = sum(
        randomized_construct(system, L, max_restarts=1,
                             seed=derive_seed(master_seed, t)) is not None
        for t in range(attempts))
    return hits / attempts


def test_criterion_3_success_probability_bound():
    attempts = 2000
    failures = []

    # path system: the exact per-attempt rate is 6/16 (6 of the 16 ordered
    # pairs are distinct, non-adjacent, and constrained)
    path = graph_system(PATH_ADJACENCY)
    table = fraction_table(path, 3)
    rate = _attempt_rate(path, 2, master_seed=777, attempts=attempts)
    sigma = sqrt(0.375 * 0.625 / attempts)
    bound = attempt_success_bound(table, 4, 2)
    if abs(rate - 0.375) > 3 * sigma:
        failures.append(f"path rate {rate} vs exact 0.375")
    if rate + 3 * sqrt(max(rate * (1 - rate), 1e-9) / attempts) < float(bound):
        failures.append(f"path rate {rate} below bound {bound}")

    checked = 0
    for sys_idx in range(10):
        rng = np.random.default_rng(derive_seed(888, sys_idx))
        n = int(rng.integers(3, 9))
        p = float(rng.uniform(0.1, 0.9))
        k = int(rng.integers(0, min(3, n)))
        spec = ConflictSpec.uniform(k)
        inst = sample_instance(n, p, spec, seed=derive_seed(888, sys_idx, 1))
        system = instance_system(inst)
        table = fraction_table(system, n - 1)
        for L in range(2, min(n, 4) + 1):
            bound = attempt_success_bound(table, n, L)
            if bound > construction_success_bound(table, L):
                failures.append(f"system {sys_idx}: attempt bound above iterated bound")
            rate = _attempt_rate(system, L, master_seed=derive_seed(888, sys_idx, L),
                                 attempts=attempts)
            sigma = sqrt(max(rate * (1 - rate), 1e-9) / attempts)
            checked += 1
            if rate + 3 * sigma < float(bound):
                failures.append(f"system {sys_idx} L={L}: rate {rate} < bound {float(bound):.4f}")
    report(3, "empirical construction success rate meets its lower bound",
           not failures, f"path + {checked} random cases" + "; ".join([""] + failures))


def test_criterion_4_upper_bound_experiment():
    started = time.monotonic()
    cfg = ExperimentConfig(m=40, p=0.5, gamma=1.0, trials=200, seed=4,
                           conflicts=ConflictSpec.uniform(0), solver="exact")
    rep = run_bound_experiment(cfg)
    elapsed = time.monotonic() - started
    claimed = 40.0 ** -1.0
    margin = claimed + 3 * sqrt(claimed * (1 - claimed) / 200)
    report(4, "upper-threshold exceedance stays within the claimed probability",
           rep.threshold_upper == 17 and rep.frac_exceed_upper <= margin
           and elapsed < 300.0,
           f"threshold {rep.threshold_upper}, observed {rep.frac_exceed_upper}, "
           f"allowed {margin:.4f}, {elapsed:.1f}s")


def test_criterion_5_chernoff_check():
    started = time.monotonic()
    rep = run_chernoff_check(r=40, bernoulli_p=0.5, gamma=0.5, trials=100_000, seed=5)
    # independent oracle: exact dyadic two-sided tail of Binomial(40, 1/2)
    exact = float(sum(Fraction(comb(40, k), 2 ** 40)
                      for k in range(41) if abs(k - 20) >= 10))
    sigma = sqrt(exact * (1 - exact) / 100_000)
    elapsed = time.monotonic() - started
    ok = (rep.empirical <= chernoff_bound(20.0, 0.5)
          and abs(rep.empirical - exact) <= 3 * sigma
          and abs(rep.exact_tail - exact) < 1e-12
          and elapsed < 30.0)
    report(5, "Bernoulli-sum deviations respect the bound and the exact tail",
           ok, f"empirical {rep.empirical:.5f}, exact {exact:.5f}, "
               f"bound {rep.bound:.4f}, {elapsed:.1f}s")


def test_criterion_6_goodness_axioms_and_pairwise_equivalence():
    axiom_violations = 0
    pairwise_mismatches = 0
    for idx in range(50):
        n = 3 + idx % 4                       # 3..6
        inst = sample_instance(n, [0.2, 0.5, 0.8][idx % 3], seed=derive_seed(2002, idx))
        system = graph_system(edge_adjacency(inst))
        if not check_goodness_axioms(system).ok:
            axiom_violations += 1
        for size in range(min(5, n) + 1):
            for combo in itertools.combinations(system.universe, size):
                s = frozenset(combo)
                if is_mutually_good(system, s) != mutually_good_by_definition(system, s):
                    pairwise_mismatches += 1
    report(6, "axiom checks and the pairwise goodness characterization hold",
           axiom_violations == 0 and pairwise_mismatches == 0,
           f"{axiom_violations} axiom violations, {pairwise_mismatches} mismatches")


def test_criterion_7_formula_evaluators():
    with mpmath.workdps(50):
        up_ref = float(3 * mpmath.log(100) / abs(mpmath.log(mpmath.mpf("0.5"))))
        rate = abs(mpmath.log(1 - mpmath.mpf("0.1")))
        lo_ref = float((1 - 2 * mpmath.mpf("0.05")) * mpmath.log(10 ** 6) / rate
                       - mpmath.log(4 * 10 / mpmath.mpf("0.1")) / rate)
        ch_ref = float(2 * mpmath.exp(-mpmath.mpf("6.25")))
    upper = size_upper_bound(BoundParams(m=100, p=0.5, gamma=1.0)).value
    lower = size_lower_bound(BoundParams(m=10 ** 6, p=0.1, delta=0.05, tau=10.0)).value
    chern = chernoff_bound(100.0, 0.5)
    errs = [abs(upper - up_ref) / up_ref, abs(lower - lo_ref) / abs(lo_ref),
            abs(chern - ch_ref) / ch_ref]
    report(7, "formula evaluators match high-precision reference within 1e-9",
           max(errs) < 1e-9,
           f"upper {upper:.10f}, lower {lower:.8f}, chernoff {chern:.6e}, "
           f"max rel err {max(errs):.2e}")


def test_criterion_8_feature_pipeline_end_to_end():
    started = time.monotonic()
    fm = planted_block_matrix(n=500, n_blocks=3, block_size=4, n_indep=6,
                              noise=0.1, seed=123)
    first = select_features(fm, lambda_c=0.8, lambda_mc=5.0, k_top=3,
                            method="exact", seed=0)
    second = select_features(fm, lambda_c=0.8, lambda_mc=5.0, k_top=3,
                             method="exact", seed=0)
    elapsed = time.monotonic() - started
    chosen = set(first.selected)
    per_block_ok = all(
        sum(1 for i in range(4) if f"block{b}_{i}" in chosen) <= 1 for b in range(3))
    indep_ok = all(f"indep{i}" in chosen for i in range(6))
    report(8, "planted-block selection keeps one per block plus all independents",
           per_block_ok and indep_ok and first.witness_checked and first == second
           and elapsed < 10.0,
           f"selected {sorted(chosen)}, {elapsed:.1f}s")


def test_criterion_9_cli_reproducibility(tmp_path, capsys):
    rng = np.random.default_rng(0)
    a = rng.normal(size=60)
    csv_path = tmp_path / "features.csv"
    rows = np.column_stack([a, a + 0.05 * rng.normal(size=60), rng.normal(size=60)])
    csv_path.write_text("a,b,c\n" + "\n".join(",".join(f"{x:.10g}" for x in row)
                                              for row in rows) + "\n")
    commands = {
        "bounds": ["bounds", "--m", "100", "--p", "0.5", "--gamma", "1"],
        "simulate-upper": ["simulate-upper", "--m", "12", "--p", "0.5",
                           "--conflict", "uniform-k", "--k", "2",
                           "--trials", "8", "--seed", "9"],
        "simulate-lower": ["simulate-lower", "--m", "12", "--p", "0.5",
                           "--trials", "8", "--seed", "9"],
        "verify-lemma": ["verify-lemma", "--count", "25", "--n-max", "6", "--seed", "9"],
        "chernoff": ["chernoff", "--r", "40", "--p", "0.5", "--trials", "5000",
                     "--seed", "9"],
        "select": ["select", "--input", str(csv_path), "--lambda-c", "0.8",
                   "--lambda-mc", "5", "--method", "exact", "--seed", "9"],
    }
    diffs = []
    for name, argv in commands.items():
        out_a, out_b = tmp_path / f"{name}-a.json", tmp_path / f"{name}-b.json"
        code_a = cli_main(argv + ["--json", str(out_a)])
        text_a = capsys.readouterr().out
        code_b = cli_main(argv + ["--json", str(out_b)])
        text_b = capsys.readouterr().out
        if code_a != 0 or code_b != 0:
            diffs.append(f"{name}: exit {code_a}/{code_b}")
        elif out_a.read_bytes() != out_b.read_bytes():
            diffs.append(f"{name}: JSON differs")
        elif text_a != text_b:
            diffs.append(f"{name}: stdout differs")
        else:
            json.loads(out_a.read_text())  # must be valid JSON
    report(9, "every CLI subcommand is byte-identical under a fixed seed",
           not diffs, "; ".join(diffs) if diffs else f"{len(commands)} subcommands")
