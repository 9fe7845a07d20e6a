"""The logarithm of the modified Bessel function K_nu, and quadrature.

log K_nu is computed in numpy alone, by Temme's method (N. M. Temme,
J. Comput. Phys. 19, 1975): with mu = nu - round(nu) in [-1/2, 1/2],
Temme's series gives K_mu and K_{mu+1} for x < 2 and Steed's algorithm
for the continued fraction CF2 gives e^x K_mu and K_{mu+1} / K_mu for
x >= 2.  The ratio then recurs upward to every order nu, nu + 1, ...,
and the product of the ratios passes into the log before it could
overflow, so the log stays finite for every order and argument: the far
field and the near field at high order alike.  Each loop runs on a band
of sorted x for the number of terms the band's slowest edge needs, so a
point's value never depends on which other points share the call.

The quadrature here is a fixed 8-point Gauss-Legendre rule on given
panels (the production rule of the kernel and the forms; its geometric
form halves the panels toward zero), and a deterministic globally adaptive
Gauss-Legendre pair (7/15 points) with worst-panel bisection over a finite
interval, which the tests use as the oracle for the fixed rules.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import DomainError, NumericalError

_GL_LO = np.polynomial.legendre.leggauss(7)
_GL_HI = np.polynomial.legendre.leggauss(15)
_GL_PANEL = np.polynomial.legendre.leggauss(8)

MAX_BISECTIONS = 30

# Taylor coefficients of 1/Gamma(1 + z) (A&S 6.1.34, shifted by one
# order); on |z| <= 1/2 the series has converged to 1e-18 by the last.
_RGAMMA_TAYLOR = (
    1.0, 0.5772156649015329, -0.6558780715202539, -0.04200263503409524,
    0.16653861138229148, -0.04219773455554433, -0.009621971527876973,
    0.0072189432466631, -0.0011651675918590652, -0.00021524167411495098,
    0.0001280502823881162, -2.013485478078824e-05, -1.2504934821426706e-06,
    1.133027231981696e-06, -2.056338416977607e-07, 6.116095104481416e-09,
    5.002007644469223e-09, -1.18127457048702e-09, 1.0434267116911005e-10,
    7.782263439905071e-12, -3.696805618642206e-12,
)

# Temme's series serves x < _SERIES_MAX, CF2 the bands [_BAND_EDGES[i],
# _BAND_EDGES[i + 1]), the last one unbounded.  Each runs a fixed number of
# terms: what its slowest point (x = 2 for the series, the band's lower
# edge for CF2) needs at the slowest order (mu near -1/2 for the series,
# mu = 0 for CF2) before its last term falls below eps / 16 of the sum.
# eps / 16, because near x = 2 CF2's terms shrink by only a quarter per
# step, so its tail is about three times its last term.  Past 1e17 CF2's
# first term is exact to round-off, and a step would overflow at x near
# 1e308.  The tests check that more terms change nothing.
_SERIES_MAX = 2.0
_SERIES_TERMS = 14
_BAND_EDGES = (_SERIES_MAX, 3.0, 4.5, 7.0, 12.0, 25.0, 60.0, 200.0, 1e17)
_BAND_STEPS = (89, 63, 45, 32, 22, 15, 10, 7, 0)


def _temme_series(mu: float, x, terms: int):
    """(log K_mu(x), K_{mu+1}(x) / K_mu(x)) for 0 < x <= 2 and |mu| <= 1/2,
    by Temme's series to the given number of terms, with 1/Gamma(1 -+ mu)
    from their Taylor series, so mu = 0 takes no limit."""
    odd = sum(c * mu ** (k - 1) for k, c in enumerate(_RGAMMA_TAYLOR) if k % 2)
    even = sum(c * mu ** k for k, c in enumerate(_RGAMMA_TAYLOR) if k % 2 == 0)
    gam1, gam2 = -odd, even  # (1/G(1-mu) - 1/G(1+mu)) / (2 mu), their mean
    d = -np.log(0.5 * x)
    e = np.exp(mu * d)
    sinh_over_mu = np.sinh(mu * d) / mu if mu else d
    ff = (gam1 * np.cosh(mu * d) + gam2 * sinh_over_mu) / np.sinc(mu)
    p = 0.5 * e / (gam2 - mu * gam1)
    q = 0.5 / (e * (gam2 + mu * gam1))
    c = np.ones_like(x)
    quarter_x2 = 0.25 * x * x
    k_mu, k_up = ff, p
    for n in range(1, terms + 1):
        ff = (n * ff + p + q) / (n * n - mu * mu)
        c = c * quarter_x2 / n
        p = p / (n - mu)
        q = q / (n + mu)
        k_mu = k_mu + c * ff
        k_up = k_up + c * (p - n * ff)
    return np.log(k_mu), 2.0 * k_up / (x * k_mu)


def _steed_cf2(mu: float, x, steps):
    """(log K_mu(x), K_{mu+1}(x) / K_mu(x)) for x >= 2 and |mu| <= 1/2, by
    Steed's algorithm for CF2, which gives e^x K_mu(x) directly.  steps
    holds each point's step count, non-increasing along an increasing x:
    the loop runs on a shrinking leading slice."""
    a1 = 0.25 - mu * mu
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h, delh = d.copy(), d.copy()
    q1, q2, t = np.zeros_like(x), np.ones_like(x), np.empty_like(x)
    a, c = -a1, a1
    q = np.full_like(x, a1)
    # s - 1, summed apart from the 1 so that its small terms keep their digits
    s1 = q * delh
    h_all, s1_all = h, s1
    # reach[n - 1]: how many points take step n
    reach = np.searchsorted(-steps, -np.arange(1, steps.max(initial=0) + 1), side="right")
    # in place: this loop is most of the cost of a kernel table
    for n, width in enumerate(reach, 1):
        if width < b.size:
            b, d, delh, h, q, q1, q2, t, s1 = (
                v[:width] for v in (b, d, delh, h, q, q1, q2, t, s1))
        a -= 2.0 * n
        c = -a * c / (n + 1)
        np.multiply(b, q2, out=t)
        np.subtract(q1, t, out=t)
        t /= a
        q1, q2, t = q2, t, q1
        np.multiply(q2, c, out=t)
        q += t
        b += 2.0
        # b d_new - 1 = -a d d_new, written so that nothing cancels
        delh *= d
        delh *= -a
        d *= a
        d += b
        np.reciprocal(d, out=d)
        delh *= d
        h += delh
        np.multiply(q, delh, out=t)
        s1 += t
    log_k = 0.5 * np.log(0.5 * math.pi / x) - np.log1p(s1_all) - x
    return log_k, (x + (mu + 0.5 - a1 * h_all)) / x


def bessel_k_log(nu: float, x, count: int = 1):
    """log K_nu(x), ..., log K_{nu + count - 1}(x), finite for every order
    and every finite x > 0.

    A negative nu is taken as |nu| (K_{-nu} = K_nu).  With count = 1 the
    result has the shape of x (a float for a scalar x); otherwise the
    orders are stacked along a new first axis.  For half-integer orders
    the result matches the closed form; for large x it approaches
    log(sqrt(pi/(2x))) - x.
    """
    xv = np.asarray(x, dtype=float)
    if xv.size == 0 or not np.all(np.isfinite(xv)) or np.any(xv <= 0.0):
        raise DomainError("argument of K_nu must be finite and > 0")
    anu = abs(float(nu))
    first = round(anu)
    mu = anu - first
    flat = xv.ravel()
    order = np.argsort(flat, kind="stable")
    xs = flat[order]
    # at |mu| = 1/2, where K_mu is elementary, CF2's first term is exact for
    # every x, and the series would lose digits to cancellation near x = 2
    elementary = mu * mu == 0.25
    split = 0 if elementary else int(np.searchsorted(xs, _SERIES_MAX))
    log_k, ratio = np.empty_like(xs), np.empty_like(xs)
    if split:
        log_k[:split], ratio[:split] = _temme_series(mu, xs[:split], _SERIES_TERMS)
    if split < xs.size:
        band = np.searchsorted(_BAND_EDGES, xs[split:], side="right") - 1
        steps = np.zeros_like(band) if elementary else np.take(_BAND_STEPS, band)
        log_k[split:], ratio[split:] = _steed_cf2(mu, xs[split:], steps)
    base, r = np.empty_like(xs), np.empty_like(xs)
    base[order], r[order] = log_k, ratio
    # upward in the caller's order: K_{mu+m+1} / K_{mu+m} = 2 (mu + m) / x
    # + K_{mu+m-1} / K_{mu+m}, a sum of positive terms, and log K_{mu+m} =
    # base + log(prod), the ratios multiplied into prod and folded into
    # base only where their product would leave the floats
    prod = np.ones_like(flat)
    out = np.empty((count, flat.size))
    for m in range(first + count):
        if m >= first:
            out[m - first] = base + np.log(prod)
        if m + 1 < first + count:
            full = prod > 1e300 / r
            if full.any():
                base[full] += np.log(prod[full])
                prod[full] = 1.0
            prod = prod * r
            r = 1.0 / r + 2.0 * (mu + m + 1) / flat
    if count == 1:
        out = out[0].reshape(xv.shape)
        return float(out) if xv.ndim == 0 else out
    return out.reshape((count,) + xv.shape)


def _eval_vectorized(f, x):
    """Call f on an array of nodes, falling back to a scalar loop."""
    try:
        y = np.asarray(f(x), dtype=float)
        if y.shape == x.shape:
            return y
    except (TypeError, ValueError):
        pass
    return np.array([float(f(t)) for t in x], dtype=float)


def _panel_estimates(f, a, b):
    """(I_15, |I_15 - I_7|) for one panel [a, b]."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x_hi = mid + half * _GL_HI[0]
    y_hi = _eval_vectorized(f, x_hi)
    i_hi = half * float(np.dot(_GL_HI[1], y_hi))
    x_lo = mid + half * _GL_LO[0]
    y_lo = _eval_vectorized(f, x_lo)
    i_lo = half * float(np.dot(_GL_LO[1], y_lo))
    if not (math.isfinite(i_hi) and math.isfinite(i_lo)):
        raise NumericalError(
            f"non-finite integrand on panel [{a:.6g}, {b:.6g}]: "
            f"15-point value {i_hi}, 7-point value {i_lo}")
    return i_hi, abs(i_hi - i_lo)


def integrate_adaptive(f, a: float, b: float, tol: float, rel_tol: float = 0.0):
    """Adaptive integral of a vectorized integrand over a finite interval.

    Bisects the worst panel (by 7-vs-15 point discrepancy) until the summed
    error estimate drops below max(tol, rel_tol * |value|); the relative
    target rescales itself as refinement uncovers mass, which is what lets
    sharply peaked integrands converge without a magnitude guess up front.
    Deterministic: ties in the error heap break on the panel position,
    never on memory order.
    """
    if tol < 0.0 or rel_tol < 0.0 or (tol == 0.0 and rel_tol == 0.0):
        raise DomainError(f"need a positive tolerance, got tol={tol}, rel_tol={rel_tol}")
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"bad interval [{a}, {b}]")
    val, err = _panel_estimates(f, a, b)
    heap = [(-err, a, b, val, 0)]
    total_val, total_err = val, err
    while total_err > max(tol, rel_tol * abs(total_val)):
        neg_err, pa, pb, pval, depth = heapq.heappop(heap)
        if depth >= MAX_BISECTIONS:
            raise NumericalError(
                f"refinement depth {MAX_BISECTIONS} exhausted at value "
                f"{total_val:.6g}; error estimate {total_err:.3e} > tol {tol:.3e}")
        mid = 0.5 * (pa + pb)
        lv, le = _panel_estimates(f, pa, mid)
        rv, re = _panel_estimates(f, mid, pb)
        total_val += lv + rv - pval
        total_err += le + re - (-neg_err)
        heapq.heappush(heap, (-le, pa, mid, lv, depth + 1))
        heapq.heappush(heap, (-re, mid, pb, rv, depth + 1))
    return total_val, total_err


def gauss_panels(edges):
    """Nodes and weights of 8-point Gauss-Legendre on each panel
    [edges[k], edges[k+1]] of an increasing edge array."""
    xs, ws = _GL_PANEL
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1, None], edges[1:, None]
    half = 0.5 * (b - a)
    return (0.5 * (a + b) + half * xs).ravel(), (half * ws).ravel()


def geometric_panels(upper: float, levels: int):
    """gauss_panels on [0, 2^-levels u], [2^-levels u, 2^(1-levels) u], ...,
    [u/2, u] of [0, u = upper], which resolve an integrable singularity at
    zero."""
    return gauss_panels(
        upper * np.concatenate(([0.0], 2.0 ** (-np.arange(levels, -1, -1, dtype=float)))))
