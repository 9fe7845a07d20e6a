"""Radial discretization of the mixed local-nonlocal energy space.

Profiles are piecewise linear on one graded radial grid (dense near the
origin, where symmetrized ground states concentrate).  Three quadratic
forms represent the energies:

  * stiffness  -- the Dirichlet form of the hyperbolic gradient,
  * mass       -- the L^2 form, lumped: it is diagonal with the grid
                  weights on its diagonal, so it is never stored as a
                  matrix and nodal quadrature agrees with it exactly,
  * nonlocal   -- the kernel seminorm, assembled from the angularly
                  reduced two-point kernel with the singular diagonal
                  integrated analytically against the fitted near-diagonal
                  law.

Functions are treated as extended by zero beyond the truncation radius;
the last node is pinned in solves, which is what makes the lambda-shifted
norm positive definite for every admissible lambda.

This module holds the forms and the norms built from them.  The energy
functionals and the best constants of their quotients live in solver
(_functional_for, estimate_subcritical_constant,
estimate_critical_constant), and profiles are written to CSV by cli.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import radial_volume_weight
from .kernel import ReducedKernel
from .specfun import geometric_panels

_CELL_GL = np.polynomial.legendre.leggauss(6)


def _spectral_gap_bound(n: int) -> float:
    return (n - 1.0) ** 2 / 4.0


@dataclass(frozen=True)
class RadialGrid:
    """Radial nodes with lumped hyperbolic-volume weights.

    nodes[0] = 0 and the weights are the integrals of the piecewise-linear
    hat functions against omega_{N-1} sinh^(N-1); they sum to the volume of
    the truncated ball, so they double as cell volumes for rearrangement.
    """

    dim: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes[0] != 0.0 or np.any(np.diff(nodes) <= 0.0):
            raise DomainError("grid nodes must start at 0 and increase strictly")
        if self.dim < 2:
            raise DomainError(f"grid dimension must be >= 2, got {self.dim}")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != nodes.shape or np.any(w[1:] <= 0.0) or w[0] < 0.0:
            raise DomainError("weights must be positive (origin may carry zero)")

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    @property
    def cell_widths(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def cell_midpoints(self) -> np.ndarray:
        return 0.5 * (self.nodes[1:] + self.nodes[:-1])


def make_grid(dim: int, r_max: float = 20.0, n: int = 400) -> RadialGrid:
    """Standard solver grid, dense near the origin where symmetrized
    ground states peak.

    Geometric refinement below r = min(1, r_max/4), then cell widths
    growing geometrically out to the truncation radius (a flat-width tail
    would spend half the budget where profiles are already negligible).
    """
    if n < 16:
        raise DomainError(f"grid needs at least 16 nodes, got {n}")
    if r_max <= 0.0:
        raise DomainError(f"truncation radius must be > 0, got {r_max}")
    r_split = min(1.0, r_max / 4.0)
    n_geo = n // 2
    n_tail = n - 1 - n_geo
    geo = r_split * (1e-3) ** (1.0 - np.arange(1, n_geo + 1) / n_geo)
    h0 = geo[-1] - geo[-2]
    ratio = _grading_ratio(h0, n_tail, r_max - r_split)
    widths = h0 * ratio ** np.arange(n_tail)
    widths *= (r_max - r_split) / widths.sum()
    tail = r_split + np.cumsum(widths)
    nodes = np.concatenate(([0.0], geo, tail))
    nodes[-1] = r_max
    return RadialGrid(dim, nodes, _hat_weights(dim, nodes))


def _grading_ratio(h0: float, count: int, length: float) -> float:
    """Growth factor q with h0 (q^count - 1)/(q - 1) = length."""
    if h0 * count >= length:
        return 1.0
    lo, hi = 1.0 + 1e-12, 2.0
    for _ in range(200):
        q = 0.5 * (lo + hi)
        total = h0 * (q ** count - 1.0) / (q - 1.0)
        if total < length:
            lo = q
        else:
            hi = q
    return 0.5 * (lo + hi)


def _hat_weights(dim: int, nodes: np.ndarray) -> np.ndarray:
    """Integrals of the hat basis against the radial volume weight."""
    xs, ws = _CELL_GL
    w = np.zeros_like(nodes)
    for k in range(nodes.size - 1):
        a, b = nodes[k], nodes[k + 1]
        half = 0.5 * (b - a)
        r = 0.5 * (a + b) + half * xs
        dens = radial_volume_weight(dim, r) * half * ws
        t = (r - a) / (b - a)
        w[k] += float(np.dot(dens, 1.0 - t))
        w[k + 1] += float(np.dot(dens, t))
    return w


@dataclass
class RadialFunction:
    """Nodal values of a radial profile on a grid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.nodes.shape:
            raise DomainError("value vector does not match the grid")
        if not np.all(np.isfinite(v)):
            raise DomainError("profile values must be finite")
        self.values = v


@dataclass(frozen=True)
class QuadraticForms:
    """The stiffness and nonlocal forms plus the grid and order they belong
    to; the lumped mass form is diag(grid.weights), which the grid holds."""

    grid: RadialGrid
    s: float
    stiffness: np.ndarray
    nonlocal_mat: np.ndarray

    def lambda_metric(self, lam: float) -> np.ndarray:
        """stiffness - lam diag(grid.weights); FloatingPointError if that
        overflows."""
        metric = self.stiffness.copy()
        metric[np.diag_indices_from(metric)] -= lam * self.grid.weights
        if not np.isfinite(metric).all():
            raise FloatingPointError(f"lambda metric is not finite at lambda = {lam:g}")
        return metric

    def validate(self):
        """DomainError unless both stored forms are symmetric PSD (the mass
        form is positive definite by the grid's own weight check)."""
        from scipy.linalg import eigvalsh

        for name, mat in (("stiffness", self.stiffness),
                          ("nonlocal", self.nonlocal_mat)):
            if not np.allclose(mat, mat.T, rtol=0.0, atol=0.0):
                raise DomainError(f"{name} form is not symmetric")
            scale = float(np.abs(mat).max()) or 1.0
            lo = float(eigvalsh(mat, subset_by_index=[0, 0])[0])
            if lo < -1e-10 * scale:
                raise DomainError(f"{name} form has eigenvalue {lo:.3e} < 0")


def _sqrt_weight_f2(t, s):
    """Second antiderivative of t^-(1+2s); -log t at the s = 1/2 degeneracy."""
    t = np.asarray(t, dtype=float)
    if abs(s - 0.5) < 1e-12:
        return -np.log(t)
    return t ** (1.0 - 2.0 * s) / (2.0 * s * (2.0 * s - 1.0))


def _cell_pair_integral(a1, b1, a2, b2, s):
    """integral over [a1,b1] x [a2,b2] of |x - y|^-(1+2s) for disjoint cells
    with x > y throughout (a1 > b2)."""
    return (
        _sqrt_weight_f2(b1 - a2, s)
        - _sqrt_weight_f2(b1 - b2, s)
        - _sqrt_weight_f2(a1 - a2, s)
        + _sqrt_weight_f2(a1 - b2, s)
    )


def _adjacent_slope_matrix(h_lo, h_hi, s):
    """Gram matrix of the slope pair across one shared node.

    With r2 = node - b in the lower cell and r1 = node + a in the upper
    cell, linear interpolation gives u(r1) - u(r2) = s_hi a + s_lo b and
    the model weight depends on delta = a + b only:

        T_pq = integral a^p b^q (a + b)^-(1+2s)  over [0,h_hi] x [0,h_lo].

    Returns ((T20, T11), (T11, T02)) acting on (s_hi, s_lo).
    """
    two_s = 2.0 * s

    def inner_moment0(a, h):
        # integral over b in [0,h] of (a+b)^-(1+2s)
        return (a ** (-two_s) - (a + h) ** (-two_s)) / two_s

    def inner_moment1(a, h):
        # integral over b in [0,h] of b (a+b)^-(1+2s)
        t1, t0 = a + h, a
        if abs(s - 0.5) < 1e-12:
            return np.log(t1 / t0) + a / t1 - 1.0
        term = (t1 ** (1.0 - two_s) - t0 ** (1.0 - two_s)) / (1.0 - two_s)
        term += a * (t1 ** (-two_s) - t0 ** (-two_s)) / two_s
        return term

    nodes, wq = geometric_panels(h_hi, 10)
    t20 = float(np.dot(wq, nodes ** 2 * inner_moment0(nodes, h_lo)))
    t11 = float(np.dot(wq, nodes * inner_moment1(nodes, h_lo)))
    nodes, wq = geometric_panels(h_lo, 10)
    t02 = float(np.dot(wq, nodes ** 2 * inner_moment0(nodes, h_hi)))
    return t20, t11, t02


def assemble_forms(grid: RadialGrid, s: float, reduced: ReducedKernel) -> QuadraticForms:
    """Assemble the stiffness and the nonlocal seminorm form.

    The reduced kernel must be built on this grid's cell midpoints.  Cell
    pairs separated by at least one full cell get the tabulated weight,
    rescaled by the exact integral of the near-diagonal power law over the
    cell rectangle (so the quadrature respects the |r1 - r2|^-(1+2s) mass
    distribution); the same-cell and shared-node contributions are
    integrated analytically against the diagonal model under linear
    interpolation.  Everything assembles into differences and slopes, so
    the result is symmetric PSD and exactly annihilates constants.
    """
    mids = grid.cell_midpoints
    if reduced.dim != grid.dim or reduced.r_grid.size != mids.size or \
            not np.allclose(reduced.r_grid, mids, rtol=1e-12, atol=1e-14):
        raise DomainError("reduced kernel was built on a different grid")
    if abs(reduced.order - s) > 1e-12:
        raise DomainError("reduced kernel order does not match requested s")

    n = grid.n
    nodes = grid.nodes
    h = grid.cell_widths
    n_cells = n - 1
    idx = np.arange(n_cells)

    stiffness = assemble_local_forms(grid)

    # nonlocal form, separated cell pairs
    model = reduced.diagonal_model
    expo = model.exponent
    W = reduced.W
    omega = np.zeros((n_cells, n_cells))
    lo = nodes[:-1]
    hi = nodes[1:]
    for k in range(n_cells - 2):
        l = np.arange(k + 2, n_cells)
        delta = mids[l] - mids[k]
        # rescale the midpoint weight by the exact singular-law integral
        # over the cell rectangle; the model amplitude cancels in the ratio
        cell_int = _cell_pair_integral(lo[l], hi[l], lo[k], hi[k], s)
        omega[k, l] = W[k, k + 2:] * cell_int * delta ** expo
        omega[l, k] = omega[k, l]

    avg = np.zeros((n_cells, n))
    avg[idx, idx] = 0.5
    avg[idx, idx + 1] = 0.5
    lap = np.diag(omega.sum(axis=1)) - omega
    nonlocal_mat = 2.0 * avg.T @ lap @ avg

    # singular band: same-cell term in the slope, shared-node term in the
    # slope pair, both against the diagonal model
    same = model.amplitude(mids) * 2.0 * h ** (3.0 - 2.0 * s) / (
        (2.0 - 2.0 * s) * (3.0 - 2.0 * s)
    ) / h ** 2
    nonlocal_mat[idx, idx] += same
    nonlocal_mat[idx + 1, idx + 1] += same
    nonlocal_mat[idx, idx + 1] -= same
    nonlocal_mat[idx + 1, idx] -= same

    for k in range(n_cells - 1):
        c_node = float(model.amplitude(nodes[k + 1]))
        t20, t11, t02 = _adjacent_slope_matrix(h[k], h[k + 1], s)
        g_hh = 2.0 * c_node * t20 / h[k + 1] ** 2
        g_ll = 2.0 * c_node * t02 / h[k] ** 2
        g_hl = 2.0 * c_node * t11 / (h[k] * h[k + 1])
        # slopes s_lo = (u_{k+1}-u_k)/h_k, s_hi = (u_{k+2}-u_{k+1})/h_{k+1}
        d_lo = np.zeros(3)
        d_lo[0], d_lo[1] = -1.0, 1.0
        d_hi = np.zeros(3)
        d_hi[1], d_hi[2] = -1.0, 1.0
        block = (
            g_hh * np.outer(d_hi, d_hi)
            + g_ll * np.outer(d_lo, d_lo)
            + g_hl * (np.outer(d_hi, d_lo) + np.outer(d_lo, d_hi))
        )
        nonlocal_mat[k:k + 3, k:k + 3] += block

    nonlocal_mat = 0.5 * (nonlocal_mat + nonlocal_mat.T)
    return QuadraticForms(grid, float(s), stiffness, nonlocal_mat)


def assemble_local_forms(grid: RadialGrid) -> np.ndarray:
    """Stiffness only, for purely local Rayleigh probes.

    Avoids the reduced-kernel cost when the nonlocal form is not needed
    (spectral-bottom checks on large auxiliary grids)."""
    n = grid.n
    h = grid.cell_widths
    mids = grid.cell_midpoints
    xs, ws = _CELL_GL
    cell_vol = np.zeros(n - 1)
    for k in range(n - 1):
        half = 0.5 * h[k]
        r = mids[k] + half * xs
        cell_vol[k] = float(np.dot(half * ws, radial_volume_weight(grid.dim, r)))
    stiffness = np.zeros((n, n))
    coef = cell_vol / h ** 2
    idx = np.arange(n - 1)
    stiffness[idx, idx] += coef
    stiffness[idx + 1, idx + 1] += coef
    stiffness[idx, idx + 1] -= coef
    stiffness[idx + 1, idx] -= coef
    return stiffness


def lp_norm(u: RadialFunction, q: float) -> float:
    """Nodal L^q norm against the hyperbolic volume weights."""
    if q < 1.0:
        raise DomainError(f"L^q norm needs q >= 1, got {q}")
    return float(np.sum(np.abs(u.values) ** q * u.grid.weights) ** (1.0 / q))


def norm_lambda_sq(u: RadialFunction, lam: float, forms: QuadraticForms) -> float:
    """The lambda-shifted Dirichlet form u^T (stiffness - lam mass) u,
    mass = diag(grid.weights).

    Only lam strictly below the spectral bottom (N-1)^2/4 keeps this an
    equivalent norm; larger values are rejected.
    """
    bound = _spectral_gap_bound(u.grid.dim)
    if not lam < bound:
        raise DomainError(f"lambda must be < (N-1)^2/4 = {bound}, got {lam}")
    v = u.values
    return float(v @ forms.lambda_metric(lam) @ v)


def seminorm_s_sq(u: RadialFunction, forms: QuadraticForms) -> float:
    """Nonlocal kernel seminorm squared; nonnegative by assembly."""
    v = u.values
    return max(float(v @ forms.nonlocal_mat @ v), 0.0)


def dirichlet_sq(u: RadialFunction, forms: QuadraticForms) -> float:
    v = u.values
    return float(v @ forms.stiffness @ v)


def schwarz_rearrange(u: RadialFunction) -> RadialFunction:
    """Decreasing radial rearrangement, equimeasurable at the cell level.

    Node values with their volume weights are sorted by value (stable, so
    already-sorted input reproduces itself exactly) and laid out from the
    origin in the volume coordinate; each node then receives the average
    of the laid-out profile over its own volume cell.  Averaging keeps the
    map exact on already-decreasing input (the partitions coincide) and
    idempotent, while resampling interleaved level sets at second order.
    """
    vals = u.values
    if np.any(vals < 0.0):
        raise DomainError(
            "rearrangement is defined for nonnegative profiles; "
            "take the absolute value first"
        )
    w = u.grid.weights
    order = np.argsort(-vals, kind="stable")
    sorted_vals = vals[order]
    knots = np.concatenate(([0.0], np.cumsum(w[order])))
    cdf = np.concatenate(([0.0], np.cumsum(sorted_vals * w[order])))
    edges = np.concatenate(([0.0], np.cumsum(w)))
    mass = np.diff(np.interp(edges, knots, cdf))
    out = np.empty_like(vals)
    positive = w > 0.0
    out[positive] = mass[positive] / w[positive]
    if not positive.all():
        # zero-volume cells (only the origin can qualify) take the level
        # of the layout at their position
        idx = np.minimum(np.searchsorted(knots[1:], edges[:-1], side="right"),
                         vals.size - 1)
        out[~positive] = sorted_vals[idx[~positive]]
    return RadialFunction(u.grid, out)
