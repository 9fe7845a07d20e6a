"""Ground states and mountain-pass solutions of the mixed problem.

The subcritical ground state minimizes the energy on the Nehari set: a
projected gradient descent (absolute value, periodic decreasing
rearrangement, ray re-projection after every step) drives the iterate into
the basin, and a Newton polish on the full Euler-Lagrange system finishes
to near machine residual.  The polish is plain damped Newton: it stops at
its tolerance, or at the round-off floor where its line search can no
longer lower the residual, and keeps the best iterate either way; a
tolerance below that floor costs a few Newton steps, nothing more.  The
critically perturbed problem runs a
steepest-descent deformation of a discretized path from zero past the
energy barrier, with the path peak polished the same way; the energy
threshold that guards compactness is estimated by concentration
extrapolation of the critical quotient.  One deformation core
(_deform_path) serves both this solve and the subcritical minimax level,
and it tracks the exact maximum of the energy on every segment of the
path (an exact quadratic plus O(n) power terms, maximized by a bracketed
root of the derivative), never a sampled one.  The deformation has one
stop rule: it ends after the first sweep that does not lower that exact
path level, and the peak it leaves only has to be close enough for the
Newton polish.

Each energy functional -- I_lambda, and J_lambda with its critical power
term -- is one _Functional, built once per (spec, forms) by
_functional_for; values, Riesz gradients and Nehari scales are evaluated on
that object, never by rebuilding it per profile.

Vectors live on a RadialGrid with the last node pinned to zero (truncation
of decaying profiles), which keeps the lambda metric positive definite.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve as lin_solve
from scipy.optimize import brentq

from .errors import ConvergenceError, DomainError, ThresholdNotMetError
from .funcspace import (QuadraticForms, RadialFunction, norm_lambda_sq,
                        schwarz_rearrange, seminorm_s_sq)

_REARRANGE_EVERY = 5
_ARMIJO = 1e-4
# guard on the _newton_polish loop; it meets tol or stalls within a few steps
_NEWTON_MAX_ITER = 60
# leading nodes whose share of a power integral origin_mass_share reports
_ORIGIN_NODES = 6
# relative size below which weak_max_check treats the negative part as zero
_WEAK_MAX_TOL = 1e-10
# t-grid on which _segment_peak brackets the maximum of J along a segment
_PEAK_GRID = np.linspace(0.0, 1.0, 9)
# guard on the _deform_path loop; the stop rule ends it long before
_MAX_SWEEPS = 200
# bubble scales of the concentration extrapolation of the critical constant
_CONCENTRATION_SCALES = (0.16, 0.08, 0.04, 0.02, 0.01)
# the family search_threshold_seed visits, in this order
_SEED_BUBBLE_SCALES = (0.0025, 0.005, 0.01, 0.02, 0.04, 0.08, 0.16)
_SEED_GAUSSIAN_WIDTHS = (0.25, 0.5, 1.0, 2.0)
# envelope descent of critical_ray_level: step budget and relative stop
_RAY_MAX_ITER = 300
_RAY_TOL = 1e-9
_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ProblemSpec:
    """Parameters (N, s, lambda, p, mode) of one problem instance."""

    N: int
    s: float
    lam: float
    p: float
    mode: str = "subcritical"

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 3:
            raise DomainError(f"dimension must be an integer >= 3, got {self.N}")
        if not 0.0 < self.s < 1.0:
            raise DomainError(f"fractional order must lie in (0, 1), got {self.s}")
        bound = (self.N - 1.0) ** 2 / 4.0
        if not self.lam < bound:
            raise DomainError(f"lambda must be < (N-1)^2/4 = {bound}, got {self.lam}")
        if not 1.0 < self.p < self.critical_exponent - 1.0:
            raise DomainError(
                f"p must lie in (1, 2*-1) = (1, {self.critical_exponent - 1.0}), "
                f"got {self.p}"
            )
        if self.mode not in ("subcritical", "critical_perturbed"):
            raise DomainError(f"unknown mode {self.mode!r}")

    @property
    def critical_exponent(self) -> float:
        return 2.0 * self.N / (self.N - 2.0)


@dataclass
class SolveReport:
    """Outcome of one solve: solution, levels, residuals, diagnostics."""

    solution: RadialFunction
    energy: float
    nehari_value: float
    residual: float
    c_star: float | None
    mp_level_m: float | None
    beta: float | None
    mp_radius: float | None
    threshold: float | None
    iterations: int
    converged: bool
    energy_history: list = field(default_factory=list, repr=False)

    def to_dict(self, solution_ref=None) -> dict:
        return {
            "solution": solution_ref,
            "energy": self.energy,
            "nehari_value": self.nehari_value,
            "residual": self.residual,
            "c_star": self.c_star,
            "mp_level_m": self.mp_level_m,
            "beta": self.beta,
            "mp_radius": self.mp_radius,
            "threshold": self.threshold,
            "iterations": self.iterations,
            "converged": self.converged,
        }


class _Functional:
    """Quadratic part plus power nonlinearities of an energy functional.

    value(v) = 1/2 v^T A v - sum_t (1/e_t) integral |v|^{e_t};
    the gradient and Hessian are exact on the nodal quadrature.
    """

    def __init__(self, quad: np.ndarray, metric: np.ndarray,
                 weights: np.ndarray, exponents):
        self.quad = quad
        self.metric = metric
        self.weights = weights
        self.exponents = tuple(exponents)

    @cached_property
    def _chol(self):
        # factored on first use: values, powers and ray maxima never need it
        return cho_factor(self.metric[:-1, :-1])

    def power_integral(self, v, e) -> float:
        return float(np.sum(self.weights * np.abs(v) ** e))

    def quad_form(self, v) -> float:
        return float(v @ self.quad @ v)

    def value(self, v) -> float:
        out = 0.5 * self.quad_form(v)
        for e in self.exponents:
            out -= self.power_integral(v, e) / e
        return out

    def residual_vec(self, v) -> np.ndarray:
        r = self.quad @ v
        for e in self.exponents:
            r -= self.weights * np.abs(v) ** (e - 2.0) * v
        return r

    def derivative_along(self, v) -> float:
        """First variation applied to v itself."""
        out = self.quad_form(v)
        for e in self.exponents:
            out -= self.power_integral(v, e)
        return out

    def hessian(self, v) -> np.ndarray:
        h = self.quad.copy()
        diag = np.zeros_like(v)
        for e in self.exponents:
            diag += (e - 1.0) * self.weights * np.abs(v) ** (e - 2.0)
        h[np.diag_indices_from(h)] -= diag
        return h

    def riesz_gradient(self, v) -> np.ndarray:
        g = np.zeros_like(v)
        g[:-1] = cho_solve(self._chol, self.residual_vec(v)[:-1])
        return g

    def residual_norm(self, v) -> float:
        r = self.residual_vec(v)[:-1]
        g = cho_solve(self._chol, r)
        return math.sqrt(max(float(g @ r), 0.0))

    def metric_norm(self, v) -> float:
        return math.sqrt(max(float(v @ self.metric @ v), 0.0))


def _functional_for(spec: ProblemSpec, forms: QuadraticForms) -> _Functional:
    """I_lambda for a subcritical spec, J_lambda for a critical_perturbed one."""
    metric = forms.lambda_metric(spec.lam)
    exponents = [spec.p + 1.0]
    if spec.mode == "critical_perturbed":
        exponents.insert(0, spec.critical_exponent)
    return _Functional(metric + forms.nonlocal_mat, metric,
                       forms.grid.weights, exponents)


def _nehari_scale(fn: _Functional, v: np.ndarray, p: float) -> float:
    q = fn.quad_form(v)
    denom = fn.power_integral(v, p + 1.0)
    if denom <= 0.0 or q <= 0.0:
        raise DomainError("Nehari scale undefined: zero profile or vanishing integral")
    return (q / denom) ** (1.0 / (p - 1.0))


def _newton_polish(fn: _Functional, v0: np.ndarray,
                   tol: float) -> tuple[np.ndarray, int]:
    """Damped Newton on the Euler-Lagrange system, merit = residual norm.

    The Newton system is solved on the free nodes with symmetric Jacobi
    scaling, D^-1 H D^-1 with d = sqrt|diag H| (zeros replaced by 1): the
    stiffness diagonal spans many orders of magnitude across the
    exponentially weighted grid, and raw solves would look singular.
    Stops when the residual is below tol, when the Armijo line search can
    no longer lower it (its round-off floor), or when the scaled system is
    singular; only improving steps are taken, so the returned iterate is
    the best one seen.  Returns (iterate, Newton steps taken).
    """
    v = v0.copy()
    v[-1] = 0.0
    res = fn.residual_norm(v)
    steps = 0
    while steps < _NEWTON_MAX_ITER and res >= tol:
        h = fn.hessian(v)[:-1, :-1]
        d = np.sqrt(np.abs(np.diag(h)))
        d[d == 0.0] = 1.0
        try:
            step = lin_solve(h / d[:, None] / d[None, :],
                             fn.residual_vec(v)[:-1] / d, assume_a="sym") / d
        except np.linalg.LinAlgError:
            break
        for k in range(40):
            alpha = 0.5 ** k
            cand = v.copy()
            cand[:-1] = v[:-1] - alpha * step
            cand_res = fn.residual_norm(cand)
            if cand_res < res * (1.0 - 1e-4 * alpha):
                break
        else:
            break
        v, res = cand, cand_res
        steps += 1
    return v, steps


def _nehari_descent(fn: _Functional, spec_p: float, v0: np.ndarray,
                    tol: float, max_iter: int,
                    grid) -> tuple[np.ndarray, int, list]:
    """Projected gradient descent on the Nehari set for a functional with a
    single superquadratic power term (exponent spec_p + 1); every
    _REARRANGE_EVERY steps it tries the decreasing rearrangement on grid."""

    def project(v):
        return _nehari_scale(fn, v, spec_p) * v

    v = np.abs(v0.copy())
    v[-1] = 0.0
    v = project(v)
    history = [fn.value(v)]
    eta = 1.0
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        if it % _REARRANGE_EVERY == 0:
            cand = schwarz_rearrange(RadialFunction(grid, np.abs(v))).values
            cand[-1] = 0.0
            cand = project(cand)
            if fn.value(cand) <= history[-1] + 1e-12 * abs(history[-1]):
                v = cand
                history.append(fn.value(v))
        g = fn.riesz_gradient(v)
        gnorm_sq = float(g @ fn.metric @ g)
        if math.sqrt(max(gnorm_sq, 0.0)) < tol * max(fn.metric_norm(v), 1e-30):
            break
        accepted = False
        for _ in range(40):
            cand = np.abs(v - eta * g)
            cand[-1] = 0.0
            try:
                cand = project(cand)
            except DomainError:
                eta *= 0.5
                continue
            if fn.value(cand) <= history[-1] - _ARMIJO * eta * gnorm_sq:
                v = cand
                history.append(fn.value(v))
                accepted = True
                eta = min(eta * 1.5, 64.0)
                break
            eta *= 0.5
        if not accepted:
            break
    return v, iterations, history


def solve_subcritical(spec: ProblemSpec, init: RadialFunction,
                      forms: QuadraticForms, tol: float = 1e-6,
                      max_iter: int = 400) -> SolveReport:
    """Ground state of the subcritical problem on the Nehari set.

    Never returns a silently bad answer: the report's converged flag is
    set only when the dual residual and the Nehari defect pass the
    tolerance, and the profile is nonnegative and nonincreasing.
    """
    if spec.mode != "subcritical":
        raise DomainError("solve_subcritical needs spec.mode == 'subcritical'")
    if not np.any(init.values != 0.0):
        raise DomainError("initial profile must be nonzero")
    fn = _functional_for(spec, forms)

    v, outer_its, history = _nehari_descent(
        fn, spec.p, init.values, tol, max_iter, forms.grid)
    v, newton_its = _newton_polish(fn, v, tol=1e-13 * max(fn.metric_norm(v), 1.0))

    u = RadialFunction(forms.grid, v)
    residual = fn.residual_norm(v)
    nehari_value = fn.derivative_along(v)
    unorm = fn.metric_norm(v)
    energy = fn.value(v)
    history.append(energy)
    # monitored, not asserted: on the constraint set the radial derivative
    # of the constraint is (1 - p)(|u|^2 + [u]_s^2), strictly negative
    constraint_slope = (2.0 * fn.quad_form(v)
                        - (spec.p + 1.0) * fn.power_integral(v, spec.p + 1.0))
    _log.debug("constraint derivative along the ray at convergence: %.6e",
               constraint_slope)
    peak = float(np.abs(v).max())
    converged = (
        residual < tol * unorm
        and abs(nehari_value) < tol * unorm ** 2
        and bool(np.all(v >= -1e-8 * peak))
        and bool(np.all(np.diff(v) <= 1e-8 * peak))
    )
    return SolveReport(
        solution=u, energy=energy, nehari_value=nehari_value, residual=residual,
        c_star=energy, mp_level_m=None, beta=None, mp_radius=None, threshold=None,
        iterations=outer_its + newton_its, converged=converged,
        energy_history=history,
    )


def _path_endpoint(fn: _Functional, v: np.ndarray, zeta: float,
                   min_norm: float = 0.0) -> np.ndarray:
    """First zeta 1.5^k v (k = 0, 1, ...) with J < 0 and norm above min_norm."""
    for _ in range(200):
        end = zeta * v
        if fn.value(end) < 0.0 and fn.metric_norm(end) > min_norm:
            return end
        zeta *= 1.5
    raise ConvergenceError("could not place the path endpoint below zero energy")


def _segment_peak(fn: _Functional, a: np.ndarray, b: np.ndarray,
                  qa: np.ndarray, qb: np.ndarray) -> tuple[float, float]:
    """(max of phi(t) = J(a + t d) over t in [0, 1], maximizing t), d = b - a.

    From qa = A a and qb = A b (A symmetric) the quadratic part is exactly
    1/2 (a.Aa + 2 t a.Ad + t^2 d.Ad); the power terms cost O(n) per t.  The
    best point of _PEAK_GRID is refined by brentq on phi'.
    """
    d, qd = b - a, qb - qa
    c0, c1, c2 = float(a @ qa), float(a @ qd), float(d @ qd)

    def phi(t):
        x = a + np.multiply.outer(t, d)
        out = 0.5 * (c0 + t * (2.0 * c1 + t * c2))
        for e in fn.exponents:
            out = out - (np.abs(x) ** e @ fn.weights) / e
        return out

    def dphi(t):
        x = a + t * d
        out = c1 + t * c2
        for e in fn.exponents:
            out -= float((fn.weights * np.abs(x) ** (e - 2.0) * x) @ d)
        return out

    vals = phi(_PEAK_GRID)
    k = int(np.argmax(vals))
    best, t_best = float(vals[k]), float(_PEAK_GRID[k])
    lo = _PEAK_GRID[max(k - 1, 0)]
    hi = _PEAK_GRID[min(k + 1, _PEAK_GRID.size - 1)]
    if dphi(lo) > 0.0 > dphi(hi):
        t = brentq(dphi, lo, hi, xtol=1e-14, rtol=8.9e-16)
        val = float(phi(t))
        if val > best:
            best, t_best = val, t
    return best, t_best


def _deform_path(fn: _Functional, forms: QuadraticForms, end: np.ndarray,
                 path_nodes: int):
    """Deform the segment path from 0 to end (policy: solve_critical).

    Stops after the first sweep that does not lower the exact path level
    (a sweep that moves no node is one of them).  Returns (level, peak
    point, levels before and after every sweep): they decrease strictly
    up to the last sweep, which repeats the level before it.
    """
    top = max(fn.exponents)
    path = [tau * end for tau in np.linspace(0.0, 1.0, path_nodes + 1)]
    qpath = [fn.quad @ v for v in path]  # a trial step costs one product with A
    seg = [_segment_peak(fn, path[j], path[j + 1], qpath[j], qpath[j + 1])
           for j in range(path_nodes)]
    etas = np.full(path_nodes + 1, 0.25)
    norm_cap = 10.0 * fn.metric_norm(end)

    # path[0] = 0 never moves and J(end) < 0, so the top segment peak
    # (at least J(0) = 0) is the path maximum
    def minimax():
        j = int(np.argmax([val for val, _ in seg]))
        level, t = seg[j]
        return level, path[j] + t * (path[j + 1] - path[j])

    level, peak = minimax()
    history = [level]
    for _ in range(_MAX_SWEEPS):
        for j in range(1, path_nodes):
            g = fn.riesz_gradient(path[j])
            for _ in range(4):
                cand = path[j] - etas[j] * g
                cand[-1] = 0.0
                if (fn.metric_norm(cand) > norm_cap
                        or origin_mass_share(cand, forms, top) > 0.5):
                    etas[j] *= 0.5
                    continue
                q_cand = fn.quad @ cand
                new_lo = _segment_peak(fn, path[j - 1], cand, qpath[j - 1], q_cand)
                new_hi = _segment_peak(fn, cand, path[j + 1], q_cand, qpath[j + 1])
                old_local = max(seg[j - 1][0], seg[j][0])
                if max(new_lo[0], new_hi[0]) < old_local * (1.0 - 1e-14):
                    path[j], qpath[j] = cand, q_cand
                    seg[j - 1], seg[j] = new_lo, new_hi
                    etas[j] = min(etas[j] * 1.4, 8.0)
                    break
                etas[j] *= 0.5
        level, peak = minimax()
        history.append(level)
        if level >= history[-2]:
            break
    return level, peak, history


def mountain_pass_level_subcritical(spec: ProblemSpec, solution: RadialFunction,
                                    forms: QuadraticForms) -> float:
    """Minimax level over segment paths through the ground state.

    The ray through a Nehari point peaks exactly at the point itself, so
    the straight path through the ground state attains the constrained
    minimum; the shared deformation then tries to push it lower.
    """
    fn = _functional_for(spec, forms)
    u = solution.values
    # ray energy crosses zero at t_u ((p+1)/2)^(1/(p-1)); overshoot past it
    t_u = _nehari_scale(fn, u, spec.p)
    t_zero = t_u * ((spec.p + 1.0) / 2.0) ** (1.0 / (spec.p - 1.0))
    end = _path_endpoint(fn, u, 1.5 * t_zero)
    return _deform_path(fn, forms, end, path_nodes=32)[0]


@dataclass(frozen=True)
class ConstantEstimate:
    """Extrapolated best-constant estimate with its concentration data."""

    estimate: float
    family_min: float
    exponent: float
    scales: tuple
    quotients: tuple


def _bubble(grid, eps: float) -> np.ndarray:
    r = grid.nodes
    n = grid.dim
    prof = (eps / (eps ** 2 + r ** 2)) ** ((n - 2.0) / 2.0) * np.exp(-r ** 2)
    prof[-1] = 0.0
    return prof


def estimate_critical_constant(spec: ProblemSpec, forms: QuadraticForms,
                               include_nonlocal: bool = True) -> ConstantEstimate:
    """Best constant of the critical quotient by concentration
    extrapolation over a family of shrinking bubbles.

    The quotient decreases along the family like S + c eps^q with an
    effective order q that carries slowly varying (logarithmic)
    corrections, so q is measured from the last three quotients and one
    Richardson step extrapolates to the concentration limit.  No
    attainment claim is made, only the fitted limit and the family minimum
    are reported.
    """
    lam_metric = forms.lambda_metric(spec.lam)
    quad = lam_metric + forms.nonlocal_mat if include_nonlocal else lam_metric
    two_star = spec.critical_exponent
    w = forms.grid.weights
    quotients = []
    for eps in _CONCENTRATION_SCALES:
        v = _bubble(forms.grid, eps)
        num = float(v @ quad @ v)
        den = float(np.sum(w * np.abs(v) ** two_star) ** (2.0 / two_star))
        quotients.append(num / den)
    d1 = quotients[-3] - quotients[-2]
    d2 = quotients[-2] - quotients[-1]
    family_min = float(min(quotients))
    if d1 > 0.0 and d2 > 0.0 and d1 > d2:
        order = math.log2(d1 / d2)
        estimate = quotients[-1] - d2 / (2.0 ** order - 1.0)
    else:
        order = math.nan
        estimate = family_min
    if estimate <= 0.0:
        estimate = family_min
    return ConstantEstimate(float(estimate), family_min, float(order),
                            _CONCENTRATION_SCALES,
                            tuple(float(q) for q in quotients))


def origin_mass_share(v: np.ndarray, forms: QuadraticForms,
                      exponent: float) -> float:
    """Fraction of the |v|^exponent integral carried by the first few
    nodes.  Profiles concentrating below the mesh scale at the origin are
    quadrature artifacts, not functions the grid can represent; descent
    steps are rejected once this share grows past 1/2."""
    w = forms.grid.weights
    dens = w * np.abs(v) ** exponent
    total = float(dens.sum())
    if total == 0.0:
        return 0.0
    return float(dens[:_ORIGIN_NODES].sum()) / total


def estimate_subcritical_constant(spec: ProblemSpec,
                                  forms: QuadraticForms) -> float:
    """Best constant of the subcritical quotient via the ground state of
    the purely local problem (the minimizer of the quotient itself)."""
    metric = forms.lambda_metric(spec.lam)
    fn = _Functional(metric, metric, forms.grid.weights, [spec.p + 1.0])
    init = np.exp(-forms.grid.nodes ** 2)
    init[-1] = 0.0
    v, _, _ = _nehari_descent(fn, spec.p, init, 1e-8, 400, forms.grid)
    v, _ = _newton_polish(fn, v, tol=1e-12 * max(fn.metric_norm(v), 1.0))
    q = fn.quad_form(v)
    pw = fn.power_integral(v, spec.p + 1.0)
    return float(q / pw ** (2.0 / (spec.p + 1.0)))


def mountain_pass_geometry(spec: ProblemSpec, forms: QuadraticForms) -> tuple[float, float]:
    """(beta, radius) of the small sphere on which J stays above beta.

    Maximizes the lower envelope rho^2/2 - C1 rho^{2*}/2* - C2 rho^{p+1}/(p+1)
    built from the estimated embedding constants.
    """
    s_crit = estimate_critical_constant(spec, forms, include_nonlocal=False)
    s_sub = estimate_subcritical_constant(spec, forms)
    two_star = spec.critical_exponent
    c1 = s_crit.estimate ** (-two_star / 2.0)
    c2 = s_sub ** (-(spec.p + 1.0) / 2.0)

    def slope(rho):
        return 1.0 - c1 * rho ** (two_star - 2.0) - c2 * rho ** (spec.p - 1.0)

    hi = 1.0
    while slope(hi) > 0.0:
        hi *= 2.0
    lo = hi / 2.0 ** 40
    rho_star = brentq(slope, lo, hi, xtol=1e-15, rtol=8.9e-16)
    beta = (rho_star ** 2 / 2.0
            - c1 * rho_star ** two_star / two_star
            - c2 * rho_star ** (spec.p + 1.0) / (spec.p + 1.0))
    return float(beta), float(rho_star)


@dataclass(frozen=True)
class ThresholdCheck:
    sup_value: float
    threshold: float
    passes: bool
    zeta_star: float
    constant: ConstantEstimate


def _ray_max(fn: _Functional, v: np.ndarray,
             spec: ProblemSpec) -> tuple[float, float]:
    """(max_z J(z v), maximizing z) along the ray through v.

    The ray energy has a unique interior maximum (its scaled derivative is
    strictly decreasing), located by bracketed root finding -- the leftmost
    maximizer by construction, so the result is deterministic.  Both
    bracket searches are capped.
    """
    q = fn.quad_form(v)
    c_crit = fn.power_integral(v, spec.critical_exponent)
    c_sub = fn.power_integral(v, spec.p + 1.0)
    if c_crit <= 0.0 or q <= 0.0:
        raise DomainError("ray maximum undefined: vanishing quadratic form "
                          "or critical integral")

    def dphi(z):
        return q - z ** (spec.critical_exponent - 2.0) * c_crit \
            - z ** (spec.p - 1.0) * c_sub

    hi = 1.0
    for _ in range(200):
        if dphi(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("ray maximization failed to bracket, "
                               f"q={q:.3e}, c_crit={c_crit:.3e}")
    lo = hi * 2.0 ** -60
    while dphi(lo) < 0.0:
        lo *= 0.5
        if lo < 1e-280:
            raise ConvergenceError("ray maximization failed near zero")
    zeta = brentq(dphi, lo, hi, xtol=1e-300, rtol=8.9e-16)
    return fn.value(zeta * v), zeta


def check_threshold(u0: RadialFunction, spec: ProblemSpec,
                    forms: QuadraticForms) -> ThresholdCheck:
    """Ray supremum of J against the compactness threshold S^(N/2)/N."""
    if spec.mode != "critical_perturbed":
        raise DomainError("threshold check requires a critical_perturbed spec")
    v = u0.values
    if not np.any(v != 0.0) or np.any(v < 0.0):
        raise DomainError("seed profile must be nonzero and nonnegative")
    sup_value, zeta = _ray_max(_functional_for(spec, forms), v, spec)
    const = estimate_critical_constant(spec, forms, include_nonlocal=True)
    threshold = const.estimate ** (spec.N / 2.0) / spec.N
    return ThresholdCheck(float(sup_value), float(threshold),
                          bool(sup_value < threshold), float(zeta), const)


@dataclass(frozen=True)
class SeedSearch:
    """Outcome of the threshold seed search: the first passing profile (or
    None) and the check with the smallest sup/threshold margin."""

    seed: RadialFunction | None
    best_check: ThresholdCheck
    tried: int


def search_threshold_seed(spec: ProblemSpec, forms: QuadraticForms) -> SeedSearch:
    """Deterministic sweep of concentrating bubbles and Gaussian bumps for
    a profile satisfying the mountain-pass energy threshold.

    The search records whether the condition is satisfiable at this
    parameter point; no passing profile is asserted a priori.  The whole
    family is visited in a fixed order and the passing member with the
    smallest ray supremum wins (its ray sits closest to the ground state,
    which is where the path deformation should start).
    """
    candidates = [_bubble(forms.grid, eps) for eps in _SEED_BUBBLE_SCALES]
    for sig in _SEED_GAUSSIAN_WIDTHS:
        v = np.exp(-(forms.grid.nodes / sig) ** 2)
        v[-1] = 0.0
        candidates.append(v)
    best = None
    for v in candidates:
        u0 = RadialFunction(forms.grid, v)
        check = check_threshold(u0, spec, forms)
        if best is None or check.sup_value < best[1].sup_value:
            best = (u0, check)
    if best[1].passes:
        return SeedSearch(best[0], best[1], len(candidates))
    return SeedSearch(None, best[1], len(candidates))


def critical_ray_level(spec: ProblemSpec, seed: RadialFunction,
                       forms: QuadraticForms) -> float:
    """Independent level estimate: minimize the ray maximum of J over
    profile directions by envelope gradient descent."""
    fn = _functional_for(spec, forms)
    v = seed.values / max(fn.metric_norm(seed.values), 1e-300)
    level, zeta = _ray_max(fn, v, spec)
    eta = 0.5
    for _ in range(_RAY_MAX_ITER):
        g = fn.riesz_gradient(zeta * v)
        gnorm = fn.metric_norm(g)
        if gnorm * zeta < _RAY_TOL * max(level, 1e-30):
            break
        accepted = False
        for _ in range(30):
            cand = zeta * v - eta * g
            cand[-1] = 0.0
            norm = fn.metric_norm(cand)
            if norm > 0.0:
                cand = cand / norm
                if origin_mass_share(cand, forms, spec.critical_exponent) > 0.5:
                    eta *= 0.5
                    continue
                try:
                    cand_level, cand_zeta = _ray_max(fn, cand, spec)
                except (ValueError, ConvergenceError):
                    cand_level = math.inf
                if cand_level < level - 1e-14 * abs(level):
                    v, level, zeta = cand, cand_level, cand_zeta
                    accepted = True
                    eta = min(eta * 1.3, 8.0)
                    break
            eta *= 0.5
        if not accepted:
            break
    return level


def solve_critical(spec: ProblemSpec, u0: RadialFunction,
                   forms: QuadraticForms, tol: float = 1e-6,
                   path_nodes: int = 48) -> SolveReport:
    """Mountain-pass solution of the critically perturbed problem.

    Deforms a discretized path from zero to the negative-energy endpoint
    zeta0 * u0 with the deformation shared with
    mountain_pass_level_subcritical (_deform_path): per-node steepest
    descent against the exact maximum of J on each segment of the
    polyline, so a node cannot fake progress by stepping through the
    ridge.  The deformation ends after the first sweep that does not lower
    the exact path level, and the path peak is then polished into a
    genuine critical point.  Steps that would concentrate the critical
    integral below the mesh scale are rejected: the lumped quadrature
    understates the critical norm of sub-grid spikes, and chasing them
    would produce a spurious saddle the continuum problem does not have.  energy_history holds the
    exact path level before and after each sweep, an upper bound on m; it
    falls strictly until its last two entries, which are equal.

    Fails loudly (ThresholdNotMetError) when the seed violates the energy
    threshold.
    """
    check = check_threshold(u0, spec, forms)
    if not check.passes:
        raise ThresholdNotMetError(
            f"sup_ray J = {check.sup_value:.6g} >= threshold {check.threshold:.6g}",
            sup_value=check.sup_value, threshold=check.threshold,
        )
    fn = _functional_for(spec, forms)
    beta_env, mp_radius = mountain_pass_geometry(spec, forms)
    v0 = u0.values
    end = _path_endpoint(fn, v0, 2.0 * check.zeta_star, min_norm=mp_radius)
    _, peak, history = _deform_path(fn, forms, end, path_nodes)

    v_inf, newton_its = _newton_polish(
        fn, peak, tol=1e-12 * max(fn.metric_norm(peak), 1.0))
    u_inf = RadialFunction(forms.grid, v_inf)
    m = fn.value(v_inf)
    residual = fn.residual_norm(v_inf)
    nontrivial = fn.metric_norm(v_inf) > 0.01 * fn.metric_norm(v0)
    resolved = origin_mass_share(v_inf, forms, spec.critical_exponent) <= 0.5

    # the envelope estimate of beta is only as good as the embedding
    # constants; the solution ray crosses the small sphere below its own
    # peak, which gives a level-consistent bound on the sphere infimum
    beta = beta_env
    u_norm = fn.metric_norm(v_inf)
    if nontrivial and u_norm > mp_radius:
        beta = min(beta, fn.value((mp_radius / u_norm) * v_inf))

    if check.threshold - m < 1e-3 * check.threshold:
        warnings.warn(
            f"mountain-pass level {m:.6g} within 1e-3 of the compactness "
            f"threshold {check.threshold:.6g}", RuntimeWarning)
    converged = (
        residual < tol * max(u_norm, 1e-30)
        and residual < tol
        and beta <= m < check.threshold
        and nontrivial
        and resolved
    )
    return SolveReport(
        solution=u_inf, energy=m, nehari_value=fn.derivative_along(v_inf),
        residual=residual, c_star=None, mp_level_m=m, beta=beta,
        mp_radius=mp_radius, threshold=check.threshold,
        iterations=len(history) - 1 + newton_its, converged=converged,
        energy_history=history,
    )


@dataclass(frozen=True)
class WeakMaxReport:
    passes: bool
    min_value: float
    neg_norm_lambda_sq: float
    neg_seminorm_sq: float


def weak_max_check(u: RadialFunction, spec: ProblemSpec,
                   forms: QuadraticForms) -> WeakMaxReport:
    """Nonnegativity check through the negative-part mechanism.

    A genuine solution has vanishing negative part in both the lambda norm
    and the kernel seminorm; a sign-changing profile fails all three tests.
    """
    v = u.values
    peak = float(np.abs(v).max()) or 1.0
    neg = np.maximum(-v, 0.0)
    neg[-1] = 0.0
    neg_fun = RadialFunction(u.grid, neg)
    scale = max(norm_lambda_sq(u, spec.lam, forms), _WEAK_MAX_TOL)
    neg_lambda = norm_lambda_sq(neg_fun, spec.lam, forms)
    neg_semi = seminorm_s_sq(neg_fun, forms)
    passes = (
        float(v.min()) >= -1e-8 * peak
        and neg_lambda < _WEAK_MAX_TOL * scale
        and neg_semi < _WEAK_MAX_TOL * scale
    )
    return WeakMaxReport(bool(passes), float(v.min()),
                         float(neg_lambda), float(neg_semi))
