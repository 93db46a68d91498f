"""Monte Carlo experiment engine behind the CLI.

Every experiment takes a master seed; trial ``t`` runs on
``derive_seed(master, t)``, so results are independent of trial count and
order, and reports are byte-identical across runs with the same seed.
Statistical margins are three binomial standard errors throughout.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from . import errors  # qualified: run_lemma_verification has a parameter `count`
from .bounds import BoundParams, chernoff_bound, size_lower_bound, size_upper_bound
from .errors import BudgetError
from .goodness import existence_violations, instance_system
from .instance import ConflictSpec, _conflict_spec, sample_instance
from .rng import _seed, derive_seed, generator
from .solvers import METHODS, solve


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of a bound experiment."""

    m: int
    p: float
    gamma: float = 1.0
    delta: float = 0.25
    conflicts: ConflictSpec = ConflictSpec()
    trials: int = 100
    seed: int = 0
    solver: str = "exact"

    def __post_init__(self):
        # bound evaluation needs 0 < p < 1 even though the sampler allows the endpoints
        params = BoundParams(m=self.m, p=self.p, gamma=self.gamma, delta=self.delta)
        object.__setattr__(self, "m", params.m)
        object.__setattr__(self, "trials", errors.count("trials", self.trials, 1))
        object.__setattr__(self, "seed", _seed(self.seed))
        if self.solver not in METHODS:
            raise ValueError(f"unknown solver {self.solver!r}")
        object.__setattr__(self, "conflicts", _conflict_spec("conflicts", self.conflicts, self.m))


@dataclass(frozen=True)
class BoundReport:
    """Empirical nice-set sizes against both size thresholds."""

    m: int
    p: float
    gamma: float
    delta: float
    trials: int
    solver: str
    master_seed: int
    seeds: tuple[int, ...]
    empirical: tuple[int, ...]
    tau_estimate: float
    tau_std: float
    threshold_upper: int
    threshold_lower: int
    frac_exceed_upper: float
    frac_below_lower: float
    stderr_exceed_upper: float
    stderr_below_lower: float
    claimed_upper_failure: float
    claimed_lower_failure: float

    def to_dict(self) -> dict:
        return asdict(self)


def _binomial_stderr(fraction: float, trials: int) -> float:
    return math.sqrt(fraction * (1.0 - fraction) / trials)


def run_bound_experiment(cfg: ExperimentConfig) -> BoundReport:
    """Sample ``trials`` instances, solve each, and read the sizes against
    both bounds' :attr:`BoundValue.threshold`: the fraction reaching the
    upper threshold versus the claimed failure probability ``m**-gamma``, and
    the fraction falling below the lower one versus ``m**-delta``.  ``tau``
    is estimated as the mean over trials of ``max_v |T(v)|`` (at least 1).  A
    solver over its budget raises :class:`BudgetError` naming the trial."""
    seeds, sizes, max_conflicts = [], [], []
    for t in range(cfg.trials):
        trial = derive_seed(cfg.seed, t)
        seeds.append(trial)
        inst = sample_instance(cfg.m, cfg.p, cfg.conflicts, seed=trial)
        try:
            sizes.append(solve(inst, cfg.solver, seed=trial).size)
        except BudgetError as exc:
            raise BudgetError(f"trial {t}: {exc}", best_vertices=exc.best_vertices) from exc
        max_conflicts.append(max(len(ts) for ts in inst.conflicts.values()))

    mean_max = sum(max_conflicts) / len(max_conflicts)
    # the empty-conflict fallback keeps tau in the formulas' domain
    tau = max(1.0, mean_max)
    tau_std = math.sqrt(sum((x - mean_max) ** 2 for x in max_conflicts) / len(max_conflicts))

    params = BoundParams(m=cfg.m, p=cfg.p, gamma=cfg.gamma, delta=cfg.delta, tau=tau)
    upper = size_upper_bound(params)
    lower = size_lower_bound(params)
    frac_up = sum(1 for s in sizes if s >= upper.threshold) / cfg.trials
    frac_lo = sum(1 for s in sizes if s < lower.threshold) / cfg.trials
    return BoundReport(
        m=cfg.m, p=cfg.p, gamma=cfg.gamma, delta=cfg.delta, trials=cfg.trials,
        solver=cfg.solver, master_seed=cfg.seed, seeds=tuple(seeds),
        empirical=tuple(sizes), tau_estimate=tau, tau_std=tau_std,
        threshold_upper=upper.threshold, threshold_lower=lower.threshold,
        frac_exceed_upper=frac_up, frac_below_lower=frac_lo,
        stderr_exceed_upper=_binomial_stderr(frac_up, cfg.trials),
        stderr_below_lower=_binomial_stderr(frac_lo, cfg.trials),
        claimed_upper_failure=upper.failure_prob,
        claimed_lower_failure=lower.failure_prob,
    )


@dataclass(frozen=True)
class LemmaReport:
    """Existence sweep outcome; sound iff ``counterexamples`` is empty."""

    count: int
    n_max: int
    seed: int
    systems_checked: int
    conditions_fired: int
    counterexamples: tuple

    def to_dict(self) -> dict:
        return {**asdict(self), "counterexamples": [dict(c) for c in self.counterexamples]}


def run_lemma_verification(count: int, n_max: int = 8, seed: int = 0) -> LemmaReport:
    """Sweep ``count`` random instance systems (random edges plus random
    symmetric conflict families, with the conflict-avoidance constraint) and
    check the existence guarantee at every cardinality where it applies.
    Universe sizes are drawn from ``2..n_max``; the first system over the
    enumeration budget raises :class:`BudgetError` naming its index."""
    count, n_max = errors.count("count", count, 1), errors.count("n_max", n_max, 2)
    seed = _seed(seed)
    all_violations: list[dict] = []
    fired_total = 0
    for k in range(count):
        rng = generator(derive_seed(seed, k))
        n = int(rng.integers(2, n_max + 1))
        p = float(rng.uniform(0.05, 0.95))
        k_conflict = int(rng.integers(0, min(3, n)))
        spec = ConflictSpec.uniform(k_conflict)
        inst = sample_instance(n, p, spec, seed=derive_seed(seed, k, 1))
        try:
            violations, fired = existence_violations(instance_system(inst))
        except BudgetError as exc:
            raise BudgetError(f"system {k}: {exc}") from exc
        for record in violations:
            record["system_index"] = k
        all_violations.extend(violations)
        fired_total += fired
    return LemmaReport(count=count, n_max=n_max, seed=seed, systems_checked=count,
                       conditions_fired=fired_total,
                       counterexamples=tuple(tuple(v.items()) for v in all_violations))


@dataclass(frozen=True)
class ChernoffReport:
    """Empirical Bernoulli-sum deviation frequency against the closed-form
    bound and the exact binomial tail."""

    r: int
    p: float
    gamma: float
    trials: int
    seed: int
    theta: float
    deviation: float
    empirical: float
    stderr: float
    bound: float
    exact_tail: float
    within_bound: bool
    consistent_with_exact: bool

    def to_dict(self) -> dict:
        return asdict(self)


def binomial_deviation_tail(r: int, p: float, deviation: float) -> float:
    """``P(|S - r*p| >= deviation)`` for ``S ~ Binomial(r, p)``, by direct
    summation of the probability mass function.  From ``r = 1030`` on, where
    ``C(r, r/2)`` overflows a float, each term is taken in log space through
    ``math.lgamma``, so the cost stays linear in ``r``."""
    r = errors.count("r", r, 1)
    errors.open_unit("p", p)
    if math.isnan(errors.real("deviation", deviation)):
        raise ValueError("deviation must not be NaN")
    log_p, log_q, log_r = math.log(p), math.log1p(-p), math.lgamma(r + 1)

    def pmf(k: int) -> float:
        if r < 1030:  # every C(r, k) fits a float
            return math.comb(r, k) * p ** k * (1.0 - p) ** (r - k)
        return math.exp(log_r - math.lgamma(k + 1) - math.lgamma(r - k + 1)
                        + k * log_p + (r - k) * log_q)

    theta = r * p
    return float(sum(pmf(k) for k in range(r + 1) if abs(k - theta) >= deviation))


def run_chernoff_check(r: int, bernoulli_p: float, gamma: float, trials: int,
                       seed: int = 0) -> ChernoffReport:
    """Simulate ``trials`` Bernoulli sums of length ``r`` and compare the
    frequency of relative deviations of at least ``gamma`` with the
    closed-form bound and with the exact binomial tail."""
    r, trials = errors.count("r", r, 1), errors.count("trials", trials, 1)
    errors.open_unit("p", bernoulli_p)  # the name the CLI and the report give it
    theta = r * bernoulli_p
    bound = chernoff_bound(theta, gamma)  # validates gamma and theta
    deviation = theta * gamma
    rng = generator(seed)
    sums = rng.binomial(r, bernoulli_p, size=trials)
    hits = int((abs(sums - theta) >= deviation).sum())
    empirical = hits / trials
    stderr = _binomial_stderr(empirical, trials)
    exact = binomial_deviation_tail(r, bernoulli_p, deviation)
    exact_stderr = _binomial_stderr(exact, trials)
    return ChernoffReport(
        r=r, p=bernoulli_p, gamma=gamma, trials=trials, seed=seed,
        theta=theta, deviation=deviation, empirical=empirical, stderr=stderr,
        bound=bound, exact_tail=exact,
        within_bound=empirical <= bound + 3.0 * stderr,
        consistent_with_exact=abs(empirical - exact) <= 3.0 * max(exact_stderr, stderr),
    )
