import math
import re

import numpy as np
import pytest

import mpmath
from scipy.special import kv, kve

from _mpmath_log_k import LOG_K, ORACLE_X
from hypfrac.errors import DomainError, NumericalError
from hypfrac.specfun import (_BAND_EDGES, _BAND_STEPS, _GL_PANEL, _SERIES_MAX,
                             _SERIES_TERMS, _steed_cf2, _temme_series, bessel_k_log,
                             integrate_adaptive)

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
    # where K itself overflows, too
    assert bessel_k_log(-80.0, 1e-8) == bessel_k_log(80.0, 1e-8)


def test_k0_golden():
    assert _k(0.0, 1.0) == pytest.approx(K0_AT_1, rel=1e-13)


def test_domain_errors():
    for x in (0.0, -2.0, -1.0, math.inf, math.nan, np.array([1.0, 0.0]), np.array([])):
        with pytest.raises(DomainError):
            bessel_k_log(1.0, x)


def _mp_log_k(nu, x):
    with mpmath.workdps(50):
        return float(mpmath.log(mpmath.besselk(nu, x)))


def _ref_log_k(nu, x):
    """50-digit log K_nu at each point of x: the frozen table of
    _mpmath_log_k for an integer order at the oracle's arguments, live
    mpmath otherwise."""
    if nu in LOG_K and x.tolist() == list(ORACLE_X):
        return np.array(LOG_K[nu])
    return np.array([_mp_log_k(nu, t) for t in x])


def _assert_near_mpmath(got, nu, x):
    """|got - log K_nu(x)| at most scipy's own error (log kve - x; where
    AMOS gives no value, past x of about 1e9, none), plus 2 ulp of
    max(|log K|, 1): log K cannot be nearer than K's own rounding."""
    ref = _ref_log_k(nu, x)
    with np.errstate(invalid="ignore"):
        scipy_err = np.nan_to_num(np.abs(np.log(kve(nu, x)) - x - ref), nan=0.0)
    slack = 2.0 * np.spacing(np.maximum(np.abs(ref), 1.0))
    bad = np.abs(got - ref) > scipy_err + slack
    assert not bad.any(), (nu, x[bad], (got - ref)[bad], scipy_err[bad])


def test_high_order_logs_match_mpmath():
    # K_nu itself overflows double range here, its log does not: the
    # ratio recurrence carries log K to these orders without a fallback
    for nu, x in ((80.0, 1e-8), (1000.0, 40.0)):
        assert not math.isfinite(kv(nu, x))
        assert bessel_k_log(nu, x) == pytest.approx(_mp_log_k(nu, x), rel=1e-14)


# the oracle's arguments: a geometric sweep over everything the N = 3, 4, 5
# kernels reach (a rho of up to 600 times a = (N - 1) / 2), and each band
# edge with its two neighbouring doubles, the x = 2 switch among them
_ORACLE_X = sorted(
    set(np.geomspace(1e-6, 600.0 * (5 - 1) / 2, 16).tolist())
    | {float(np.nextafter(e, t)) for e in _BAND_EDGES for t in (0.0, e, math.inf)})


def test_frozen_log_k_matches_mpmath():
    # the frozen references are mpmath's at the oracle's own arguments:
    # three points per order, the smallest, the x = 2 switch and the
    # largest, are recomputed live
    assert list(ORACLE_X) == _ORACLE_X
    for nu, ref in LOG_K.items():
        assert len(ref) == len(ORACLE_X)
        for k in (0, ORACLE_X.index(_SERIES_MAX), -1):
            assert ref[k] == _mp_log_k(nu, ORACLE_X[k]), (nu, ORACLE_X[k])


@pytest.mark.parametrize("nu0", [0.75, 1.0, 1.25])
def test_ladder_orders_match_mpmath(nu0):
    # the kernel's ladder orders nu0 + 0..3 from one call, against
    # 50-digit mpmath
    x = np.array(_ORACLE_X)
    got = bessel_k_log(nu0, x, count=4)
    assert got.shape == (4, x.size)
    for m in range(4):
        _assert_near_mpmath(got[m], nu0 + m, x)
        assert np.array_equal(bessel_k_log(nu0 + m, x), got[m])
        assert np.array_equal(bessel_k_log(-(nu0 + m), x), got[m])


@pytest.mark.parametrize("nu", [0.0, 0.5])
def test_special_orders_match_mpmath(nu):
    assert _SERIES_MAX in _ORACLE_X
    x = np.array(_ORACLE_X)
    _assert_near_mpmath(bessel_k_log(nu, x), nu, x)
    assert np.array_equal(bessel_k_log(-nu, x), bessel_k_log(nu, x))


@pytest.mark.parametrize("mu", [-0.49, -0.25, 0.0, 0.25, 0.49])
def test_fixed_terms_have_settled(mu):
    # each rule's fixed term count, at the slowest point of its band: more
    # terms move log K and the ratio by at most the last bit
    def assert_settled(got, more):
        for a, b in zip(got, more):
            assert np.all(np.abs(a - b) <= np.spacing(np.abs(b))), (mu, a - b)

    x = np.array([np.nextafter(_SERIES_MAX, 0.0)])
    assert_settled(_temme_series(mu, x, _SERIES_TERMS),
                   _temme_series(mu, x, _SERIES_TERMS + 30))
    # past the last edge a step would overflow at x near 1e308; one is enough
    x, steps = np.array(_BAND_EDGES), np.array(_BAND_STEPS)
    assert_settled(_steed_cf2(mu, x, steps),
                   _steed_cf2(mu, x, steps + np.where(steps, 30, 1)))


def test_count_stacks_orders():
    x = np.array([[0.3, 2.0], [7.0, 90.0]])
    got = bessel_k_log(1.25, x, count=3)
    assert got.shape == (3, 2, 2)
    for m in range(3):
        assert np.array_equal(got[m], bessel_k_log(1.25 + m, x))
    assert bessel_k_log(1.25, 3.0, count=2).shape == (2,)


def test_value_independent_of_call_mates():
    # each band runs a fixed number of terms, so a point's value does not
    # depend on which other points share the call
    x = np.array(_ORACLE_X)
    together = bessel_k_log(1.25, x, count=2)
    for k in range(0, x.size, 7):
        assert np.array_equal(bessel_k_log(1.25, x[k], count=2), together[:, k])


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


def test_panel_rule_is_numpys_leggauss_8():
    # the fixed panel rule is written out so that a solve never loads
    # numpy.polynomial; its nodes and weights must be numpy's to the bit
    x, w = np.polynomial.legendre.leggauss(8)
    assert np.array_equal(_GL_PANEL[0], x)
    assert np.array_equal(_GL_PANEL[1], w)


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
    with pytest.raises(NumericalError) as err:
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
