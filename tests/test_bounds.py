"""Formula evaluators against independent high-precision evaluation."""

import math

import mpmath
import pytest
from hypothesis import given, strategies as st

from niceset import BoundParams, chernoff_bound, size_lower_bound, size_upper_bound

# Frozen from mpmath at 50 digits (see the oracle helpers below).
UPPER_100 = 19.931568569324174087
LOWER_1E6 = 61.147147153140463147
LOWER_100 = 0.32192809488736234787
CHERNOFF_100 = 0.0038609082724554184844
CHERNOFF_20 = 0.57300959372038020065

REL = 1e-9


def mp_upper(m, p, gamma):
    with mpmath.workdps(50):
        return float((2 + mpmath.mpf(gamma)) * mpmath.log(m) / abs(mpmath.log(1 - mpmath.mpf(p))))


def mp_lower(m, p, delta, tau):
    with mpmath.workdps(50):
        p, delta, tau = mpmath.mpf(p), mpmath.mpf(delta), mpmath.mpf(tau)
        rate = abs(mpmath.log(1 - p))
        return float((1 - 2 * delta) * mpmath.log(m) / rate - mpmath.log(4 * tau / p) / rate)


def rel_err(a, b):
    return abs(a - b) / abs(b)


def test_upper_bound_reference_value():
    got = size_upper_bound(BoundParams(m=100, p=0.5, gamma=1.0))
    assert rel_err(got.value, UPPER_100) < REL
    assert rel_err(got.value, mp_upper(100, 0.5, 1)) < REL
    assert got.failure_prob == pytest.approx(0.01, rel=REL)


def test_lower_bound_reference_values():
    got = size_lower_bound(BoundParams(m=10**6, p=0.1, delta=0.05, tau=10.0))
    assert rel_err(got.value, LOWER_1E6) < REL
    assert rel_err(got.value, mp_lower(10**6, 0.1, 0.05, 10)) < REL
    assert got.failure_prob == pytest.approx((10**6) ** -0.05, rel=REL)

    small = size_lower_bound(BoundParams(m=100, p=0.5, delta=0.25, tau=1.0))
    assert rel_err(small.value, LOWER_100) < REL


def test_lower_bound_second_term_always_positive():
    # 4*tau/p > 1 whenever tau >= 1 and p < 1, so the subtracted term is > 0
    for tau, p in [(1.0, 0.99), (1.0, 0.01), (7.0, 0.5)]:
        with_term = size_lower_bound(BoundParams(m=50, p=p, delta=0.1, tau=tau)).value
        without = (1 - 0.2) * math.log(50) / -math.log1p(-p)
        assert with_term < without


def test_chernoff_reference_values():
    assert rel_err(chernoff_bound(100, 0.5), CHERNOFF_100) < REL
    assert rel_err(chernoff_bound(20, 0.5), CHERNOFF_20) < REL


def test_chernoff_vacuous_at_tiny_theta():
    assert chernoff_bound(1e-12, 0.5) == pytest.approx(2.0, rel=1e-9)


def test_chernoff_domain_errors():
    with pytest.raises(ValueError):
        chernoff_bound(100, 0.6)
    with pytest.raises(ValueError):
        chernoff_bound(100, 0.0)
    with pytest.raises(ValueError):
        chernoff_bound(0.0, 0.5)
    with pytest.raises(ValueError, match="theta_r must be positive"):
        chernoff_bound(math.nan, 0.5)


@pytest.mark.parametrize("kwargs", [
    dict(m=1, p=0.5),
    dict(m=100, p=0.0),
    dict(m=100, p=1.0),
    dict(m=100, p=0.5, gamma=0.0),
    dict(m=100, p=0.5, delta=0.5),
    dict(m=100, p=0.5, delta=0.0),
    dict(m=100, p=0.5, tau=0.5),
    dict(m=100, p=0.5, gamma=math.inf),
    dict(m=100, p=0.5, gamma=math.nan),
    dict(m=100, p=0.5, tau=math.inf),
    dict(m=100, p=0.5, tau=math.nan),
])
def test_bound_params_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        BoundParams(**kwargs)


def test_bound_params_rejects_non_integer_m():
    # m goes through operator.index, as in ExperimentConfig: a TypeError,
    # not a truncation or a late float-to-int conversion error
    with pytest.raises(TypeError):
        BoundParams(m=2.5, p=0.5)
    with pytest.raises(TypeError):
        BoundParams(m=math.nan, p=0.5)


@given(m=st.integers(2, 10**6), p=st.floats(0.01, 0.99),
       g1=st.floats(0.01, 5.0), g2=st.floats(0.01, 5.0))
def test_upper_strictly_increasing_in_gamma(m, p, g1, g2):
    lo, hi = sorted([g1, g2])
    if hi - lo < 1e-9:  # adjacent floats can round to equal outputs
        return
    assert (size_upper_bound(BoundParams(m=m, p=p, gamma=lo)).value
            < size_upper_bound(BoundParams(m=m, p=p, gamma=hi)).value)


@given(m1=st.integers(2, 10**5), m2=st.integers(2, 10**5),
       p=st.floats(0.01, 0.99), gamma=st.floats(0.01, 5.0))
def test_upper_strictly_increasing_in_m(m1, m2, p, gamma):
    if m1 == m2:
        return
    lo, hi = sorted([m1, m2])
    assert (size_upper_bound(BoundParams(m=lo, p=p, gamma=gamma)).value
            < size_upper_bound(BoundParams(m=hi, p=p, gamma=gamma)).value)


@given(m=st.integers(2, 10**6), p=st.floats(0.01, 0.99),
       d1=st.floats(0.01, 0.49), d2=st.floats(0.01, 0.49))
def test_lower_strictly_decreasing_in_delta(m, p, d1, d2):
    lo, hi = sorted([d1, d2])
    if hi - lo < 1e-9:
        return
    assert (size_lower_bound(BoundParams(m=m, p=p, delta=lo)).value
            > size_lower_bound(BoundParams(m=m, p=p, delta=hi)).value)


@given(m=st.integers(2, 10**6), p=st.floats(0.01, 0.99),
       t1=st.floats(1.0, 100.0), t2=st.floats(1.0, 100.0))
def test_lower_strictly_decreasing_in_tau(m, p, t1, t2):
    lo, hi = sorted([t1, t2])
    if hi - lo < 1e-6 * hi:
        return
    assert (size_lower_bound(BoundParams(m=m, p=p, tau=lo)).value
            > size_lower_bound(BoundParams(m=m, p=p, tau=hi)).value)


def test_integer_thresholds():
    assert size_upper_bound(BoundParams(m=40, p=0.5, gamma=1.0)).threshold == 17
    assert size_lower_bound(BoundParams(m=40, p=0.5, delta=0.25, tau=1.0)).threshold == 1
    assert size_lower_bound(BoundParams(m=10**6, p=0.1, delta=0.05, tau=10.0)).threshold == 62
