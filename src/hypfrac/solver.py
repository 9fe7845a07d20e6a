"""Ground states and mountain-pass solutions of the mixed problem.

Both modes find their critical point one way (_critical_point): a
projected gradient descent of the ray maximum (absolute value, periodic
decreasing rearrangement, ray re-projection after every step) drives the
iterate into the basin (relative gradient _HANDOFF_RTOL), and a Newton
polish on the full Euler-Lagrange system finishes to near machine
residual; the descent resumes only if the polished point fails its
guard.  For I_lambda the ray maximum is the energy on the Nehari set,
whose infimum is the ground-state level c*.  For J_lambda the
nonlinearity |u|^{2*-2}u + |u|^{p-1}u has f(t)/t strictly increasing, so
each ray has one maximum and the mountain-pass level m equals the Nehari
level inf_v max_t J(tv) (Willem, Minimax Theorems, 1996, Thm 4.2;
Szulkin-Weth 2010); the lumped power terms stay homogeneous, so this
holds for the discrete J too.  Each solve picks its own seed: the
Gaussian exp(-r^2) for I_lambda, and for J the member of a fixed family
whose ray supremum is lowest, provided it lies below the compactness
threshold S^(N/2)/N, with S estimated by concentration extrapolation of
the critical quotient.  The critical descent rejects steps that
concentrate the critical integral below the mesh scale.  The same descent
and polish serve estimate_subcritical_constant.  Both solvers build their
report through one helper (_report), and one rule (_verdict) decides
whether a solve of either mode converged.

One ray law (_ray_peak) gives every ray root and ray level: the ray
maxima of the descent, the seed search and check_threshold (_ray_max),
and the mountain-pass envelope of mountain_pass_geometry.  It is Newton's
iteration in log z from the smallest one-term root, monotone since f(t)/t
is increasing, and a non-finite coefficient or root is a NumericalError,
never a zero ray.  Every linear solve is numpy's or the factored lambda
metric's (funcspace.metric_solve); the package imports no scipy at all.
The polish is plain damped Newton: it stops at its tolerance, or at the
round-off floor, and keeps the best iterate either way.  The floor is
reached when the line search can no longer lower the residual, or when
an accepted step fails to halve a residual already below sqrt(eps)
max(|v|_lambda, 1); a tolerance below the floor then costs no further
dense solves.

Each energy functional -- I_lambda, and J_lambda with its critical power
term -- is one _Functional, built once per (spec, forms) by
_functional_for; values, Riesz gradients and Nehari scales are evaluated on
that object, never by rebuilding it per profile (solve_critical builds J
and its threshold once and hands both to the seed search).

Profiles are plain arrays of node values on forms.grid, the last node
pinned to zero (truncation of decaying profiles); the report's solution
is one.  The lambda metric is held as its two bands, which
QuadraticForms.lambda_metric checks to be positive definite by factoring
it once per lambda (funcspace.metric_factor); each _Functional solves
with that factor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalError, ThresholdNotMetError
from .funcspace import (QuadraticForms, metric_pair, metric_solve, norm_lambda_sq,
                        schwarz_rearrange, seminorm_s_sq)

_REARRANGE_EVERY = 5
_ARMIJO = 1e-4
# relative Riesz gradient at which _critical_point hands the descent to Newton
_HANDOFF_RTOL = 1e-3
# guard on the _newton_polish loop; it meets tol or stalls within a few steps
_NEWTON_MAX_ITER = 60
# relative residual (to max(|v|_lambda, 1)) below which a Newton step that
# does not halve the residual ends the polish: the round-off floor zone
_NEWTON_FLOOR = math.sqrt(np.finfo(float).eps)
# leading nodes whose share of a power integral origin_mass_share reports
_ORIGIN_NODES = 6
# relative size below which weak_max_check treats the negative part as zero
_WEAK_MAX_TOL = 1e-10
# relative size (to the peak) below which a negative value or a rise of a
# profile is round-off: the polish guard, the verdict and weak_max_check
_SIGN_TOL = 1e-8
# bubble scales of the concentration extrapolation of the critical constant
_CONCENTRATION_SCALES = (0.16, 0.08, 0.04, 0.02, 0.01)
# the family search_threshold_seed visits, in this order
_SEED_BUBBLE_SCALES = (0.0025, 0.005, 0.01, 0.02, 0.04, 0.08, 0.16)
_SEED_GAUSSIAN_WIDTHS = (0.25, 0.5, 1.0, 2.0)


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
    """Outcome of one solve: solution (its node values on forms.grid),
    levels, residuals, diagnostics.

    converged is the solve's one verdict, the one the CLI prints, writes
    and exits by, decided by _verdict in both modes (through _report): the
    tolerances, the Nehari identity E = sum_t (1/2 - 1/e_t) |u|_{e_t}^{e_t}
    over the power terms to 1e-8 relative, the shape and resolution checks
    and weak_max_check; in critical mode 0 < beta <= m < threshold comes
    first.  Its numbers are finite: _report raises NumericalError otherwise.
    """

    solution: np.ndarray
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
    # why the loops stopped; metadata.json carries these, report.json not
    descent_steps: int = 0
    newton_steps: int = 0
    descent_stop: str = ""
    descent_resumed: bool = False

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
    the gradient and Hessian are exact on the nodal quadrature.  A, the
    one dense matrix, is the banded lambda metric plus nonlocal_mat (an
    n x n array, or 0.0 for a local functional), built in place; every
    Riesz solve uses the factor the forms made when they checked the metric.
    """

    def __init__(self, forms: QuadraticForms, lam: float, nonlocal_mat, exponents):
        grid = self.grid = forms.grid
        self.weights = grid.weights
        self.metric = metric = forms.lambda_metric(lam)
        self.factor = forms.lambda_factor(lam)
        i = np.arange(grid.n)
        self.quad = np.empty((grid.n, grid.n))
        self.quad[...] = nonlocal_mat
        self.quad[i, i] += metric[1]
        self.quad[i[:-1], i[1:]] += metric[0, 1:]
        self.quad[i[1:], i[:-1]] += metric[0, 1:]
        self.exponents = tuple(exponents)

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
        return self.residual_from(v, self.quad @ v)

    def residual_from(self, v, qv) -> np.ndarray:
        """The residual at v from qv = A v, a product the caller holds."""
        r = qv.copy()
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

    def riesz_gradient(self, v, qv) -> np.ndarray:
        """Riesz representative of the residual at v, given qv = A v."""
        g = np.zeros_like(v)
        g[:-1] = metric_solve(self.factor, self.residual_from(v, qv)[:-1])
        return g

    def residual_norm(self, v) -> float:
        r = self.residual_vec(v)[:-1]
        g = metric_solve(self.factor, r)
        return math.sqrt(max(float(g @ r), 0.0))

    def metric_norm(self, v) -> float:
        return math.sqrt(max(metric_pair(self.metric, v, v), 0.0))


def _functional_for(spec: ProblemSpec, forms: QuadraticForms) -> _Functional:
    """I_lambda for a subcritical spec, J_lambda for a critical_perturbed one;
    DomainError if the forms were built for another (N, s)."""
    if (spec.N, spec.s) != (forms.grid.dim, forms.s):
        raise DomainError(f"forms built for (N, s) = ({forms.grid.dim}, {forms.s}) "
                          f"cannot serve a problem at (N, s) = ({spec.N}, {spec.s})")
    exponents = [spec.p + 1.0]
    if spec.mode == "critical_perturbed":
        exponents.insert(0, spec.critical_exponent)
    return _Functional(forms, spec.lam, forms.nonlocal_mat, exponents)


def _ray_peak(q: float, coeffs, exponents) -> tuple[float, float]:
    """(level, z): the peak of the ray energy z^2 q / 2 - sum_t c_t z^e_t / e_t
    over z > 0, at the root of q = sum_t c_t z^(e_t - 2).

    The root is unique, since every e_t > 2.  In log z the right side is
    convex and increasing, so Newton's iteration from the smallest
    one-term root (q / c_t)^(1/(e_t - 2)), which lies at or right of the
    root, falls monotonically to it; it stops when a step no longer lowers
    z.  With one term the start is the root (the Nehari scale).  A zero
    coefficient is an absent term.  DomainError if q <= 0 or every c_t is
    0; NumericalError, naming the quantity, if q, a c_t or the root is
    not finite.
    """
    if not math.isfinite(q):
        raise NumericalError(f"ray quadratic form is not finite: {q}")
    for c, e in zip(coeffs, exponents):
        if not math.isfinite(c):
            raise NumericalError(f"ray power integral of order {e:.12g} is not finite: {c}")
    live = [(c, e - 2.0) for c, e in zip(coeffs, exponents) if c > 0.0]
    if q <= 0.0 or not live:
        raise DomainError("ray maximum undefined: zero profile or vanishing integral")
    z = math.inf
    for c, a in live:
        try:
            z = min(z, (q / c) ** (1.0 / a))
        except OverflowError:  # p close to 1: this root lies beyond the floats
            pass
    if not 0.0 < z < math.inf:
        raise NumericalError(f"Nehari scale {'overflows' if z else 'underflows'} "
                             f"at p = {min(exponents) - 1.0:.12g}")
    try:
        while True:
            terms = [c * z ** a for c, a in live]
            lower = z * math.exp((q - sum(terms)) / sum(
                a * t for (_, a), t in zip(live, terms)))
            if not lower < z:
                break
            z = lower
    except OverflowError:  # c_t tiny against q: z^(e_t - 2) beyond the floats
        raise NumericalError(f"ray term overflows at z = {z:.6g}") from None
    # z^2 (q/2 - sum_t t/e_t), written so that no two large terms cancel
    return z * z * (q - sum(terms) + sum(
        a * t / (a + 2.0) for (_, a), t in zip(live, terms))) / 2.0, z


def _ray_max(fn: _Functional, v: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(max_z fn(z v), maximizing z, A v) along the ray through v, by
    _ray_peak from v's quadratic form and power integrals; A v, the
    product behind the quadratic form, is returned for the caller's
    gradient.

    With one power term the maximizer is the Nehari scale of v and z v
    lies on the Nehari set; the result is deterministic either way.
    """
    qv = fn.quad @ v
    level, z = _ray_peak(float(v @ qv), [fn.power_integral(v, e) for e in fn.exponents],
                         fn.exponents)
    return level, z, qv


def _newton_polish(fn: _Functional, v0: np.ndarray,
                   tol: float) -> tuple[np.ndarray, int]:
    """Damped Newton on the Euler-Lagrange system, merit = residual norm.

    The Newton system is solved on the free nodes with symmetric Jacobi
    scaling, D^-1 H D^-1 with d = sqrt|diag H| (zeros replaced by 1): the
    stiffness diagonal spans many orders of magnitude across the
    exponentially weighted grid, and raw solves would look singular.
    Stops when the residual is below tol, when the scaled system is
    singular, or at the round-off floor: when the Armijo line search can
    no longer lower the residual, or after an accepted step that did not
    halve it once it is below _NEWTON_FLOOR max(|v|_lambda, 1) (past that
    point backtracked steps only crawl along the floor, a dense solve
    each).  Only improving steps are taken, so the returned iterate is the
    best one seen.  Returns (iterate, Newton steps taken).
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
            step = np.linalg.solve(h / d[:, None] / d[None, :],
                                   fn.residual_vec(v)[:-1] / d) / d
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
        stalled = cand_res > 0.5 * res
        v, res = cand, cand_res
        steps += 1
        if stalled and res < _NEWTON_FLOOR * max(fn.metric_norm(v), 1.0):
            break
    return v, steps


def _nehari_descent(fn: _Functional, v0: np.ndarray, tol: float,
                    max_iter: int) -> tuple[np.ndarray, int, list, str]:
    """Projected gradient descent of the ray maximum of fn.

    Every iterate is the peak of its own ray (_ray_max), so the levels in
    the returned history are ray maxima: the Nehari level for I_lambda, the
    inf-of-ray-max level for J_lambda.  Every _REARRANGE_EVERY steps it
    tries the decreasing rearrangement, kept if it raises the level by at
    most 1e-12 relative.  A trial step halves eta when the projection
    refuses it (a power integral that overflows, say), when it misses the
    Armijo decrease, or, for J, when it concentrates the critical integral
    below the mesh scale (origin_mass_share).  I_lambda has no such guard:
    at a very negative lambda its ground state is itself a sub-grid spike,
    which the descent must reach for solve_subcritical to report it as
    unresolved.  Returns (iterate, accepted gradient steps, history, stop):
    stop is "gradient_tol" when the relative Riesz gradient fell below tol
    (the hand-off threshold, in _critical_point's first call),
    "line_search_failed" when no trial step was accepted, "budget" after
    max_iter steps.
    """
    guard_origin = len(fn.exponents) > 1

    def project(v):
        """(zeta v, its level, A zeta v) at the peak zeta of v's ray."""
        level, zeta, qv = _ray_max(fn, v)
        return zeta * v, level, zeta * qv

    v = np.abs(v0)
    v[-1] = 0.0
    v, level, qv = project(v)
    history = [level]
    eta = 1.0
    steps = 0
    stop = "budget"
    for it in range(1, max_iter + 1):
        if it % _REARRANGE_EVERY == 0:
            cand = schwarz_rearrange(fn.grid, np.abs(v))
            cand[-1] = 0.0
            cand, level, cand_qv = project(cand)
            if level <= history[-1] + 1e-12 * abs(history[-1]):
                v, qv = cand, cand_qv
                history.append(level)
        g = fn.riesz_gradient(v, qv)
        gnorm_sq = metric_pair(fn.metric, g, g)
        if math.sqrt(max(gnorm_sq, 0.0)) < tol * max(fn.metric_norm(v), 1e-30):
            stop = "gradient_tol"
            break
        for _ in range(40):
            cand = np.abs(v - eta * g)
            cand[-1] = 0.0
            try:
                cand, level, cand_qv = project(cand)
            except (DomainError, NumericalError):
                level = math.inf
            if (level <= history[-1] - _ARMIJO * eta * gnorm_sq
                    and not (guard_origin and origin_mass_share(fn, cand) > 0.5)):
                v, qv = cand, cand_qv
                history.append(level)
                steps += 1
                eta = min(eta * 1.5, 64.0)
                break
            eta *= 0.5
        else:
            stop = "line_search_failed"
            break
    return v, steps, history, stop


def _critical_point(fn: _Functional, v0: np.ndarray, tol: float, max_iter: int,
                    polish_rtol: float) -> tuple[np.ndarray, list, dict]:
    """_nehari_descent from v0 to relative gradient max(tol, _HANDOFF_RTOL),
    then _newton_polish to polish_rtol max(|v|_lambda, 1).  The polished w
    is kept if its residual is within Newton's round-off zone (relative
    max(polish_rtol, _NEWTON_FLOOR): a longer descent gets no lower), J(w)
    <= the hand-off ray level (1 + 1e-12) and w >= -_SIGN_TOL max|w|.
    Otherwise the descent resumes from the hand-off iterate to tol on what
    is left of max_iter, and the polish runs again.  Returns (point,
    history, stops): the ray maxima of the descent, then J(point); the
    step counts, the descent's stop and whether it resumed, as
    SolveReport's fields."""
    v, descent_steps, history, stop = _nehari_descent(
        fn, v0, max(tol, _HANDOFF_RTOL), max_iter)

    def polish(v):
        return _newton_polish(fn, v, tol=polish_rtol * max(fn.metric_norm(v), 1.0))

    w, newton_steps = polish(v)
    zone = max(polish_rtol, _NEWTON_FLOOR) * max(fn.metric_norm(w), 1.0)
    resumed = stop == "gradient_tol" and tol < _HANDOFF_RTOL and not (
        fn.residual_norm(w) < zone and fn.value(w) <= history[-1] * (1.0 + 1e-12)
        and np.all(w >= -_SIGN_TOL * np.abs(w).max()))
    if resumed:
        v, more, rest, stop = _nehari_descent(fn, v, tol, max_iter - descent_steps)
        descent_steps += more
        history += rest[1:]
        w, more = polish(v)
        newton_steps += more
    history.append(fn.value(w))
    return w, history, {"descent_steps": descent_steps, "newton_steps": newton_steps,
                        "descent_stop": stop, "descent_resumed": resumed}


def _verdict(fn: _Functional, spec: ProblemSpec, forms: QuadraticForms,
             report: SolveReport, v0: np.ndarray, tol: float) -> bool:
    """converged of a solve in either mode, from its report and seed v0:
    residual < tol, absolute and relative to |u|_lambda; Nehari defect
    |<E'(u), u>| < tol |u|_lambda^2; |u|_lambda > 0.01 |v0|_lambda; u
    nonincreasing to _SIGN_TOL of its peak and resolved (origin_mass_share);
    the Nehari identity E = sum_t (1/2 - 1/e_t) |u|_{e_t}^{e_t} to 1e-8
    relative (so E > 0); and, checked last, weak_max_check (u >= 0)."""
    v = report.solution
    unorm = fn.metric_norm(v)
    identity = report.energy - sum((0.5 - 1.0 / e) * fn.power_integral(v, e)
                                   for e in fn.exponents)
    return bool(
        report.residual < tol * max(unorm, 1e-30)
        and report.residual < tol
        and abs(report.nehari_value) < tol * (unorm * unorm)
        and unorm > 0.01 * fn.metric_norm(v0)
        and np.all(np.diff(v) <= _SIGN_TOL * np.abs(v).max())
        and origin_mass_share(fn, v) <= 0.5
        and abs(identity) < 1e-8 * abs(report.energy)
        and weak_max_check(v, spec, forms).passes
    )


def _report(fn: _Functional, spec: ProblemSpec, forms: QuadraticForms, v0: np.ndarray,
            tol: float, point: tuple, **levels) -> SolveReport:
    """The SolveReport of a solve of either mode from its seed v0 and its
    _critical_point result point = (v, history, stops), with the levels
    (c_star, mp_level_m, beta, mp_radius, threshold) of its mode.
    NumericalError, naming them, if any of its numbers is not finite;
    otherwise converged is _verdict's, after 0 < beta <= m < threshold in
    critical mode."""
    v, history, stops = point
    report = SolveReport(
        solution=v, energy=history[-1], nehari_value=fn.derivative_along(v),
        residual=fn.residual_norm(v), **levels,
        iterations=stops["descent_steps"] + stops["newton_steps"],
        converged=False, energy_history=history, **stops)
    not_finite = [name for name, value in report.to_dict().items()
                  if isinstance(value, float) and not math.isfinite(value)]
    if not_finite:
        raise NumericalError(f"{', '.join(not_finite)} not finite")
    report.converged = (
        spec.mode == "subcritical"
        or 0.0 < report.beta <= report.mp_level_m < report.threshold
    ) and _verdict(fn, spec, forms, report, v0, tol)
    return report


def solve_subcritical(spec: ProblemSpec, forms: QuadraticForms, tol: float = 1e-6,
                      max_iter: int = 400) -> SolveReport:
    """Ground state of the subcritical problem on the Nehari set, from the
    seed _gaussian(grid).

    Never returns a silently bad answer: the report's converged flag is
    _verdict's.
    """
    if spec.mode != "subcritical":
        raise DomainError("solve_subcritical needs spec.mode == 'subcritical'")
    fn = _functional_for(spec, forms)
    v0 = _gaussian(forms.grid)
    point = _critical_point(fn, v0, tol, max_iter, 1e-13)
    return _report(fn, spec, forms, v0, tol, point, c_star=point[1][-1],
                   mp_level_m=None, beta=None, mp_radius=None, threshold=None)


def _gaussian(grid, width: float = 1.0) -> np.ndarray:
    v = np.exp(-(grid.nodes / width) ** 2)
    v[-1] = 0.0
    return v


def _bubble(grid, eps: float) -> np.ndarray:
    r = grid.nodes
    n = grid.dim
    prof = (eps / (eps ** 2 + r ** 2)) ** ((n - 2.0) / 2.0) * np.exp(-r ** 2)
    prof[-1] = 0.0
    return prof


def estimate_critical_constant(fn: _Functional, two_star: float) -> float:
    """Best constant of the critical quotient of fn's quadratic part by
    concentration extrapolation over a family of shrinking bubbles.

    The quotient decreases along the family like S + c eps^q with an
    effective order q that carries slowly varying (logarithmic)
    corrections, so q is measured from the last three quotients and one
    Richardson step extrapolates to the concentration limit.  No
    attainment claim is made: the fitted limit is returned, or the family
    minimum where the fit fails or is not positive.
    """
    quotients = []
    for eps in _CONCENTRATION_SCALES:
        v = _bubble(fn.grid, eps)
        den = fn.power_integral(v, two_star) ** (2.0 / two_star)
        quotients.append(fn.quad_form(v) / den)
    d1 = quotients[-3] - quotients[-2]
    d2 = quotients[-2] - quotients[-1]
    family_min = float(min(quotients))
    estimate = family_min
    if d1 > 0.0 and d2 > 0.0 and d1 > d2:
        estimate = quotients[-1] - d2 / (2.0 ** math.log2(d1 / d2) - 1.0)
    return float(estimate) if estimate > 0.0 else family_min


def origin_mass_share(fn: _Functional, v: np.ndarray) -> float:
    """Fraction of fn's top power integral of v carried by the first few
    nodes.  Profiles concentrating below the mesh scale at the origin are
    quadrature artifacts, not functions the grid can represent; descent
    steps are rejected once this share grows past 1/2."""
    dens = fn.weights * np.abs(v) ** max(fn.exponents)
    total = float(dens.sum())
    if total == 0.0:
        return 0.0
    return float(dens[:_ORIGIN_NODES].sum()) / total


def estimate_subcritical_constant(fn: _Functional) -> float:
    """Best constant of the subcritical quotient of fn (its one power term
    |v|^e) via its ground state (the minimizer of the quotient itself)."""
    (e,) = fn.exponents
    v, _, _ = _critical_point(fn, _gaussian(fn.grid), 1e-8, 400, 1e-12)
    return float(fn.quad_form(v) / fn.power_integral(v, e) ** (2.0 / e))


def mountain_pass_geometry(spec: ProblemSpec, forms: QuadraticForms) -> tuple[float, float]:
    """(beta, radius) of the small sphere on which J stays above beta.

    Maximizes the lower envelope rho^2/2 - C1 rho^{2*}/2* - C2 rho^{p+1}/(p+1)
    built from the embedding constants of the local functional (no nonlocal
    form): that is the ray peak (_ray_peak) at q = 1 with coefficients C1
    and C2.  NumericalError if a constant over- or underflows (an
    underflowed C1 is not an absent term) or the peak is not finite.
    """
    local = _Functional(forms, spec.lam, 0.0, [spec.p + 1.0])
    s_crit = estimate_critical_constant(local, spec.critical_exponent)
    s_sub = estimate_subcritical_constant(local)
    two_star = spec.critical_exponent
    beta = math.nan
    try:  # the constants leave the floats at a very negative lambda
        coeffs = (s_crit ** (-two_star / 2.0), s_sub ** (-(spec.p + 1.0) / 2.0))
        if min(coeffs) >= np.finfo(float).tiny:
            beta, rho_star = _ray_peak(1.0, coeffs, (two_star, spec.p + 1.0))
    except (ArithmeticError, NumericalError, DomainError):
        pass
    if not 0.0 < beta < math.inf:
        raise NumericalError(
            f"mountain-pass envelope is not finite at lambda = {spec.lam:g}")
    return float(beta), float(rho_star)


def _threshold(fn: _Functional, spec: ProblemSpec) -> float:
    """The compactness threshold S^(N/2)/N, S estimated on J = fn;
    NumericalError if S^(N/2) overflows (a very negative lambda)."""
    if spec.mode != "critical_perturbed":
        raise DomainError("threshold check requires a critical_perturbed spec")
    try:
        return estimate_critical_constant(fn, spec.critical_exponent) ** (spec.N / 2.0) / spec.N
    except OverflowError:
        raise NumericalError(
            f"compactness threshold overflows at lambda = {spec.lam:g}") from None


def check_threshold(fn: _Functional, v: np.ndarray) -> float:
    """Ray supremum of J = fn through v, to set against _threshold."""
    if not np.any(v != 0.0) or np.any(v < 0.0):
        raise DomainError("seed profile must be nonzero and nonnegative")
    return float(_ray_max(fn, v)[0])


def search_threshold_seed(fn: _Functional, threshold: float) -> np.ndarray:
    """Deterministic sweep of concentrating bubbles and Gaussian bumps for
    a profile whose ray supremum under J = fn lies below threshold.

    No passing profile is asserted a priori.  The whole family is visited
    in a fixed order and the member with the smallest ray supremum is
    returned if it passes (its ray sits closest to the ground state, which
    is where the critical descent starts); otherwise ThresholdNotMetError
    carries its ray supremum and the threshold, which documents that the
    condition fails for this family at this parameter point.
    """
    candidates = [_bubble(fn.grid, eps) for eps in _SEED_BUBBLE_SCALES]
    candidates += [_gaussian(fn.grid, sig) for sig in _SEED_GAUSSIAN_WIDTHS]
    sup_value, v = min(((check_threshold(fn, v), v) for v in candidates),
                       key=lambda pair: pair[0])
    if not sup_value < threshold:
        raise ThresholdNotMetError(
            f"sup_ray J = {sup_value:.6g} >= threshold {threshold:.6g}",
            sup_value=sup_value, threshold=threshold)
    return v


def solve_critical(spec: ProblemSpec, forms: QuadraticForms, tol: float = 1e-6,
                   max_iter: int = 400) -> SolveReport:
    """Mountain-pass solution of the critically perturbed problem.

    J and its threshold are built once, and search_threshold_seed picks
    the seed from them or raises ThresholdNotMetError, the one threshold
    failure of a solve.  The mountain-pass level of J is its Nehari level
    (module docstring), so the solve is solve_subcritical's on J
    (_critical_point): descent from the seed, Newton from relative gradient
    _HANDOFF_RTOL, the descent resumed only if Newton fails; at most
    max_iter descent steps.
    The descent rejects steps that would concentrate the critical integral
    below the mesh scale: the lumped quadrature understates the critical
    norm of sub-grid spikes, and chasing them would produce a spurious
    saddle the continuum problem does not have.
    beta is the mountain-pass envelope of mountain_pass_geometry, lowered
    to J where the solution ray crosses its small sphere.  energy_history
    holds the ray maximum after each accepted descent step, then m; each
    bounds m from above and none rises by more than the 1e-12 relative
    the descent allows a rearrangement.

    The report's converged flag needs 0 < beta <= m < threshold and then
    _verdict.
    """
    fn = _functional_for(spec, forms)
    threshold = _threshold(fn, spec)
    v0 = search_threshold_seed(fn, threshold)
    beta_env, mp_radius = mountain_pass_geometry(spec, forms)
    point = _critical_point(fn, v0, tol, max_iter, 1e-12)
    v_inf, m = point[0], point[1][-1]
    u_norm = fn.metric_norm(v_inf)
    nontrivial = u_norm > 0.01 * fn.metric_norm(v0)

    # the envelope estimate of beta is only as good as the embedding
    # constants; the solution ray crosses the small sphere below its own
    # peak, which gives a level-consistent bound on the sphere infimum
    beta = beta_env
    if nontrivial and u_norm > mp_radius:
        beta = min(beta, fn.value((mp_radius / u_norm) * v_inf))

    if threshold - m < 1e-3 * threshold:
        warnings.warn(
            f"mountain-pass level {m:.6g} within 1e-3 of the compactness "
            f"threshold {threshold:.6g}", RuntimeWarning)
    return _report(fn, spec, forms, v0, tol, point, c_star=None, mp_level_m=m,
                   beta=beta, mp_radius=mp_radius, threshold=threshold)


@dataclass(frozen=True)
class WeakMaxReport:
    passes: bool
    min_value: float
    neg_norm_lambda_sq: float
    neg_seminorm_sq: float


def weak_max_check(v: np.ndarray, spec: ProblemSpec,
                   forms: QuadraticForms) -> WeakMaxReport:
    """Nonnegativity check of the profile v on forms.grid through the
    negative-part mechanism.

    A genuine solution has vanishing negative part in both the lambda norm
    and the kernel seminorm; a sign-changing profile fails all three tests.
    """
    peak = float(np.abs(v).max()) or 1.0
    neg = np.maximum(-v, 0.0)
    neg[-1] = 0.0
    scale = max(norm_lambda_sq(v, spec.lam, forms), _WEAK_MAX_TOL)
    neg_lambda = norm_lambda_sq(neg, spec.lam, forms)
    neg_semi = seminorm_s_sq(neg, forms)
    passes = (
        float(v.min()) >= -_SIGN_TOL * peak
        and neg_lambda < _WEAK_MAX_TOL * scale
        and neg_semi < _WEAK_MAX_TOL * scale
    )
    return WeakMaxReport(bool(passes), float(v.min()),
                         float(neg_lambda), float(neg_semi))
