"""Closed-form size bounds for maximum nice subsets, and a Bernoulli-sum
deviation bound.

All formulas are ratios of same-base logarithms, so the base is irrelevant;
natural logarithms are used throughout.  ``p in {0, 1}`` is rejected here
(division by ``|log(1-p)| = 0``, or an undefined logarithm) even though the
sampler accepts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import count, open_unit, real


@dataclass(frozen=True)
class BoundParams:
    """Parameter bundle for the size-bound formulas.

    ``gamma`` controls the upper bound's slack, ``delta`` the lower bound's;
    ``tau`` is the (expected) maximum conflict-set size, at least 1.
    """

    m: int
    p: float
    gamma: float = 1.0
    delta: float = 0.25
    tau: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "m", count("m", self.m, 2))
        open_unit("p", self.p)
        # negated tests, so that NaN fails them too
        if not 0.0 < real("gamma", self.gamma) < math.inf:
            raise ValueError("gamma must be positive and finite")
        if not 0.0 < real("delta", self.delta) < 0.5:
            raise ValueError("delta must lie in (0, 1/2)")
        if not 1.0 <= real("tau", self.tau) < math.inf:
            raise ValueError("tau must be at least 1 and finite")


@dataclass(frozen=True)
class BoundValue:
    """A bound, the probability that it fails, and its integer threshold."""

    value: float
    failure_prob: float
    threshold: int


def _log_odds_rate(p: float) -> float:
    # |log(1-p)|, via log1p for accuracy at small p.
    return -math.log1p(-p)


def size_upper_bound(params: BoundParams) -> BoundValue:
    """High-probability upper bound ``(2+gamma) * log(m) / |log(1-p)|``.

    The maximum nice-set size exceeds this value with probability at most
    ``m**-gamma`` (the returned failure probability).  The threshold is
    ``ceil(1 + value)``: the additive 1 is where ``m**-gamma`` is guaranteed.
    """
    value = (2.0 + params.gamma) * math.log(params.m) / _log_odds_rate(params.p)
    return BoundValue(value=value, failure_prob=params.m ** -params.gamma,
                      threshold=math.ceil(1.0 + value))


def size_lower_bound(params: BoundParams) -> BoundValue:
    """High-probability lower bound
    ``(1-2*delta) * log(m)/|log(1-p)| - log(4*tau/p)/|log(1-p)|``.

    May be negative at desk scale, so the threshold is ``max(1, ceil(value))``.
    Fails with probability at most ``m**-delta``.
    """
    rate = _log_odds_rate(params.p)
    value = ((1.0 - 2.0 * params.delta) * math.log(params.m)
             - math.log(4.0 * params.tau / params.p)) / rate
    return BoundValue(value=value, failure_prob=params.m ** -params.delta,
                      threshold=max(1, math.ceil(value)))


def chernoff_bound(theta_r: float, gamma: float) -> float:
    """Bound ``2*exp(-gamma**2 * theta_r / 4)`` on the probability that a sum
    of independent Bernoulli variables with mean ``theta_r`` deviates from it
    by at least ``theta_r * gamma``.  Requires ``0 < gamma <= 1/2``."""
    if not 0.0 < real("gamma", gamma) <= 0.5:
        raise ValueError("gamma must lie in (0, 1/2]")
    if not real("theta_r", theta_r) > 0.0:  # negated, so that NaN fails it too
        raise ValueError("theta_r must be positive")
    return 2.0 * math.exp(-gamma * gamma * theta_r / 4.0)
