"""Monte Carlo experiment engine behind the CLI.

Every experiment takes a master seed; trial ``t`` runs on
``derive_seed(master, t)``, so results are independent of trial count and
order, and reports are byte-identical across runs with the same seed.  That
is also what lets a bound experiment run its trials on every CPU the process
may use: forked workers run contiguous trial ranges, and the results are
joined in trial order.  Statistical margins are three binomial standard
errors throughout.
"""

from __future__ import annotations

import atexit
import math
import os
import pickle
import signal
import threading
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


def _trial(cfg: ExperimentConfig, t: int) -> tuple[int, int, int]:
    """Seed, nice-set size and largest conflict set of trial ``t``."""
    trial = derive_seed(cfg.seed, t)
    inst = sample_instance(cfg.m, cfg.p, cfg.conflicts, seed=trial)
    try:
        size = solve(inst, cfg.solver, seed=trial).size
    except BudgetError as exc:
        raise BudgetError(f"trial {t}: {exc}", best_vertices=exc.best_vertices) from exc
    return trial, size, max(len(ts) for ts in inst.conflicts.values())


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ranges(trials: int, parts: int) -> list[range]:
    """``range(trials)`` cut into ``parts`` contiguous ranges, the longer ones first."""
    size, extra = divmod(trials, parts)
    starts = [i * size + min(i, extra) for i in range(parts + 1)]
    return [range(a, b) for a, b in zip(starts, starts[1:])]


class _Worker:
    """A forked copy of this process that runs trial ranges sent over a pipe.

    It ignores SIGINT (a terminal's Ctrl-C reaches the whole process group;
    the parent handles it), and exits on end of file or, checked between
    trials, once the process that forked it is gone.  It keeps no inherited
    file descriptor but stdin, stdout and stderr, so that it holds no other
    pipe open, and it never returns into the caller's code: every path out
    ends in ``os._exit``."""

    def __init__(self):
        inbox, requests = os.pipe()  # requests from this process to the worker
        replies, outbox = os.pipe()  # and the worker's replies
        parent = os.getpid()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (inbox, requests, replies, outbox):
                os.close(fd)
            raise
        if self.pid == 0:
            try:
                low, high = sorted((inbox, outbox))
                os.closerange(3, low)
                os.closerange(low + 1, high)
                os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                with os.fdopen(inbox, "rb") as reader, os.fdopen(outbox, "wb") as writer:
                    self._serve(parent, reader, writer)
            finally:
                os._exit(0)
        os.close(inbox)
        os.close(outbox)
        self._requests = os.fdopen(requests, "wb")
        self._replies = os.fdopen(replies, "rb")

    @staticmethod
    def _serve(parent: int, inbox, outbox) -> None:
        while True:
            try:
                cfg, trials = pickle.load(inbox)
            except EOFError:
                return
            rows = []
            try:
                for t in trials:
                    if os.getppid() != parent:
                        return
                    rows.append(_trial(cfg, t))
                reply = pickle.dumps((None, rows))
            except Exception as exc:  # raised again in the caller
                reply = pickle.dumps((exc, None))
            outbox.write(reply)
            outbox.flush()

    def start(self, cfg: ExperimentConfig, trials: range) -> None:
        pickle.dump((cfg, trials), self._requests)
        self._requests.flush()

    def result(self) -> list[tuple[int, int, int]]:
        try:
            error, rows = pickle.load(self._replies)
        except (EOFError, pickle.UnpicklingError):
            raise ChildProcessError(f"trial worker {self.pid} exited mid-run") from None
        if error is not None:
            raise error
        return rows

    def alive(self) -> bool:
        try:
            return os.waitpid(self.pid, os.WNOHANG) == (0, 0)
        except ChildProcessError:  # reaped by someone else
            return False

    def forget(self) -> None:
        """Close this process's ends of the pipes; an idle worker then exits."""
        self._requests.close()
        self._replies.close()

    def stop(self) -> None:
        self.forget()
        try:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


_workers: list[_Worker] = []
_workers_lock = threading.Lock()  # one run at a time drives the workers


def _stop_workers() -> None:
    while _workers:
        _workers.pop().stop()


def _forget_workers() -> None:
    # in a forked child the workers are the parent's: drop them without
    # signalling, and close the inherited pipe ends so that the workers
    # still see end of file once the parent is gone
    global _workers_lock
    _workers_lock = threading.Lock()
    while _workers:
        _workers.pop().forget()


if hasattr(os, "fork"):
    atexit.register(_stop_workers)
    os.register_at_fork(after_in_child=_forget_workers)


def _run_trials(cfg: ExperimentConfig) -> list[tuple[int, int, int]]:
    """:func:`_trial` for every trial, in trial order.

    The trials are cut into one contiguous range per CPU (at most one per
    trial).  This process runs the first range while workers run the rest;
    the workers are forked on first need and kept for later runs.  On any
    error the workers are stopped, so the next run starts with fresh ones,
    and the error of the lowest range is raised.  With one range, without
    ``os.fork``, or while another thread drives the workers, the trials run
    here; if a fork fails, the workers there are share them."""
    ranges = _ranges(cfg.trials, min(cfg.trials, _cpus()))
    if len(ranges) == 1 or not hasattr(os, "fork") or not _workers_lock.acquire(False):
        return [_trial(cfg, t) for t in range(cfg.trials)]
    try:
        for dead in [w for w in _workers if not w.alive()]:
            _workers.remove(dead)
            dead.forget()  # already reaped: its pid may be reused, so no signal
        try:
            while len(_workers) < len(ranges) - 1:
                _workers.append(_Worker())
        except OSError:  # no process to spare: share the trials among those there are
            ranges = _ranges(cfg.trials, len(_workers) + 1)
        workers = _workers[:len(ranges) - 1]
        for worker, trials in zip(workers, ranges[1:]):
            worker.start(cfg, trials)
        rows = [_trial(cfg, t) for t in ranges[0]]
        for worker in workers:
            rows += worker.result()
        return rows
    except BaseException:
        _stop_workers()
        raise
    finally:
        _workers_lock.release()


def run_bound_experiment(cfg: ExperimentConfig) -> BoundReport:
    """Sample ``trials`` instances, solve each, and read the sizes against
    both bounds' :attr:`BoundValue.threshold`: the fraction reaching the
    upper threshold versus the claimed failure probability ``m**-gamma``, and
    the fraction falling below the lower one versus ``m**-delta``.  ``tau``
    is estimated as the mean over trials of ``max_v |T(v)|`` (at least 1).  A
    solver over its budget raises :class:`BudgetError` naming the lowest such
    trial.  The trials run on every CPU the process may use (see
    :func:`_run_trials`); the report does not depend on how many."""
    seeds, sizes, max_conflicts = zip(*_run_trials(cfg))

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
        solver=cfg.solver, master_seed=cfg.seed, seeds=seeds,
        empirical=sizes, tau_estimate=tau, tau_std=tau_std,
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
    Universe sizes are drawn from ``2..n_max``; the first system whose sweep
    reaches a size over the enumeration budget raises :class:`BudgetError`
    naming its index."""
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
    seed = _seed(seed)
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
