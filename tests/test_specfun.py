import math
import re

import numpy as np
import pytest

from scipy.special import kv

from hypfrac.errors import BesselOverflowError, DomainError, QuadratureError
from hypfrac.specfun import bessel_k_log, integrate_adaptive

# high-precision reference values (computed offline at 40 digits)
K0_AT_1 = 0.42102443824070834
LOG_K0_AT_100 = -102.07803755445827


def _k(nu, x):
    """K_nu(x) through the log form the kernel evaluates."""
    return np.exp(bessel_k_log(nu, x))


def test_half_integer_closed_form():
    assert _k(0.5, 1.0) == pytest.approx(
        math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-14)


def test_order_symmetry():
    for nu in (0.3, 1.2, 4.7):
        for x in (0.01, 1.0, 35.0):
            assert bessel_k_log(-nu, x) == bessel_k_log(nu, x)
    # in the ascending-series regime too
    assert bessel_k_log(-80.0, 1e-8) == bessel_k_log(80.0, 1e-8)


def test_k0_golden():
    assert _k(0.0, 1.0) == pytest.approx(K0_AT_1, rel=1e-13)


def test_domain_errors():
    for x in (0.0, -2.0, -1.0, math.inf, math.nan, np.array([1.0, 0.0]), np.array([])):
        with pytest.raises(DomainError):
            bessel_k_log(1.0, x)


def test_overflow_raises_with_guidance():
    # tiny argument with large order exceeds double range, where the log
    # form takes the ascending series; past that series' regime it raises
    assert not math.isfinite(kv(80.0, 1e-8))
    assert bessel_k_log(80.0, 1e-8) > 700.0
    assert not math.isfinite(kv(1000.0, 40.0))
    with pytest.raises(BesselOverflowError, match="outside the series regime"):
        bessel_k_log(1000.0, 40.0)


def test_recurrence_identity():
    # K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x)
    for nu in (0.5, 1.0, 2.3, 6.0):
        for x in (0.05, 0.7, 3.0, 20.0):
            lhs = _k(nu + 1.0, x)
            rhs = _k(nu - 1.0, x) + 2.0 * nu / x * _k(nu, x)
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_derivative_identity_finite_difference():
    # d/dx [x^-nu K_nu(a x)] = -a x^-nu K_{nu+1}(a x)
    a = 1.5
    h = 1e-5
    for nu in (0.75, 1.5):
        for x in (0.5, 2.0, 6.0):
            f = lambda t: t ** (-nu) * _k(nu, a * t)
            fd = (f(x + h) - f(x - h)) / (2.0 * h)
            exact = -a * x ** (-nu) * _k(nu + 1.0, a * x)
            assert fd == pytest.approx(exact, rel=1e-6)


def test_monotone_decreasing_in_x():
    x = np.geomspace(1e-3, 50.0, 200)
    for nu in (0.0, 0.5, 2.0, 7.5):
        assert np.all(np.diff(bessel_k_log(nu, x)) < 0.0)


def test_log_half_integer_exact():
    for x in (10.0, 55.0, 120.0, 200.0):
        expected = math.log(math.sqrt(math.pi / (2.0 * x))) - x
        assert bessel_k_log(0.5, x) == pytest.approx(expected, abs=1e-10)


def test_log_consistent_with_value():
    for nu in (0.0, 1.3, 4.0, -1.3):
        for x in (0.1, 1.0, 8.0):
            assert math.exp(bessel_k_log(nu, x)) == pytest.approx(
                kv(nu, x), rel=1e-12)


def test_log_far_field_golden():
    assert bessel_k_log(0.0, 100.0) == pytest.approx(LOG_K0_AT_100, abs=1e-10)


def test_integral_exponential():
    val, err = integrate_adaptive(lambda t: np.exp(-t), 0.0, 40.0, 1e-12)
    assert val == pytest.approx(-math.expm1(-40.0), abs=1e-11)
    assert err <= 1e-12


def test_integral_gaussian_moment():
    val, _ = integrate_adaptive(lambda t: t * np.exp(-t * t), 0.0, 8.0, 1e-12)
    assert val == pytest.approx(-0.5 * math.expm1(-64.0), abs=1e-11)


def test_integral_sqrt_endpoint_singularity():
    # integral over [a, a + 64] of e^-t / sqrt(t - a) is sqrt(pi) e^-a
    # (up to e^-64); t = a + u^2 removes the endpoint singularity exactly,
    # the substitution the even-dimensional kernel integral uses
    tol = 1e-10
    for a in (0.0, 0.3, 2.0):
        got, _ = integrate_adaptive(lambda u: 2.0 * np.exp(-(a + u * u)),
                                    0.0, 8.0, tol)
        assert abs(got - math.sqrt(math.pi) * math.exp(-a)) < 10.0 * tol


def test_integral_deterministic():
    f = lambda t: np.exp(-t) * np.cos(3.0 * t)
    assert integrate_adaptive(f, 0.0, 30.0, 1e-11) == \
        integrate_adaptive(f, 0.0, 30.0, 1e-11)


def test_integral_failure_carries_estimate():
    # 1/(1-u) has a non-integrable endpoint: refinement must give up
    # loudly and name its running value and error estimate
    with pytest.raises(QuadratureError) as err:
        integrate_adaptive(lambda u: 1.0 / (1.0 - u), 0.0, 1.0, 1e-8)
    match = re.search(r"exhausted at value (\S+); error estimate (\S+) > tol",
                      str(err.value))
    assert match is not None
    assert math.isfinite(float(match.group(1)))
    assert float(match.group(2)) > 0.0


def test_adaptive_interval_validation():
    with pytest.raises(DomainError):
        integrate_adaptive(lambda t: t, 1.0, 0.0, 1e-8)
    with pytest.raises(DomainError):
        integrate_adaptive(lambda t: t, 0.0, 1.0, 0.0)
