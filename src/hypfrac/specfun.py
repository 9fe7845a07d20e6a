"""The logarithm of the modified Bessel function K_nu, and quadrature.

log K_nu is delegated to scipy's AMOS-backed, exponentially scaled K_nu
(series near zero, continued fractions / uniform asymptotics elsewhere),
wrapped with domain checks, the K_{-nu} = K_nu symmetry, the ascending
series where even the scaled value overflows and an explicit overflow
signal beyond it; the far field never overflows.  scipy.special is
imported by bessel_k_log, not by the module, so a solve on cached forms,
which evaluates no kernel, never loads it.

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

from .errors import BesselOverflowError, DomainError, QuadratureError

_GL_LO = np.polynomial.legendre.leggauss(7)
_GL_HI = np.polynomial.legendre.leggauss(15)
_GL_PANEL = np.polynomial.legendre.leggauss(8)

MAX_BISECTIONS = 30


def bessel_k_log(nu: float, x):
    """log K_nu(x), overflow-safe at both ends.

    Uses the scaled form log(e^x K_nu(x)) - x, which stays finite for x up
    to the underflow range of K itself; where even the scaled value
    overflows (tiny x with large order) the ascending series takes over,
    log K ~ lgamma(nu) - log 2 + nu log(2/x) with its leading correction.
    For half-integer orders the result matches the closed form exactly;
    for large x it approaches log(sqrt(pi/(2x))) - x.
    """
    from scipy.special import kve  # loaded only where a kernel is evaluated

    xv = np.asarray(x, dtype=float)
    if xv.size == 0 or not np.all(np.isfinite(xv)) or np.any(xv <= 0.0):
        raise DomainError("argument of K_nu must be finite and > 0")
    anu = abs(nu)
    scaled = np.atleast_1d(kve(anu, xv))
    out = np.empty_like(scaled)
    ok = np.isfinite(scaled) & (scaled > 0.0)
    out[ok] = np.log(scaled[ok]) - np.atleast_1d(xv)[ok]
    if not ok.all():
        bad_x = np.atleast_1d(xv)[~ok]
        if anu <= 1.0 or np.any(bad_x * bad_x >= anu):
            raise BesselOverflowError(
                f"K_{nu} not representable and outside the series regime"
            )
        lead = math.lgamma(anu) - math.log(2.0) + anu * np.log(2.0 / bad_x)
        out[~ok] = lead + np.log1p(bad_x * bad_x / (4.0 * (anu - 1.0)))
    out = out.reshape(np.shape(xv))
    return float(out) if np.ndim(xv) == 0 else out


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
        raise QuadratureError(
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
            raise QuadratureError(
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
