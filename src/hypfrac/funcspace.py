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

Weights and stiffness come from one Gauss rule over all cells, and no
assembly loops over cells.  Only the nonlocal form is costly to build (it
needs the reduced kernel), so pipeline caches it alone.

Functions are treated as extended by zero beyond the truncation radius;
the last node is pinned in solves.  The lambda-shifted metric, held as two
bands, is then positive definite for lambda below the discrete spectral
bottom, which a coarse grid puts under (N-1)^2/4 (N = 3, 64 nodes: 0.954),
so lambda_metric checks it by the L D L^T factorization (metric_factor),
once per lambda, and the solvers solve with that factor (metric_solve).

A profile is a plain array of node values on the grid its forms hold
(forms.grid).  lp_norm and schwarz_rearrange take the grid with it and
check that it holds one finite value per node; the forms' own norms
(norm_lambda_sq, seminorm_s_sq, dirichlet_sq) take it as it is.  This
module holds the forms and the norms built from them.  The energy
functionals and the best constants of their quotients live in solver
(_functional_for, estimate_subcritical_constant,
estimate_critical_constant), and profiles are written to CSV by cli.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalError
from .geometry import radial_volume_weight
from .kernel import ReducedKernel
from .specfun import gauss_panels, geometric_panels


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
    return RadialGrid(dim, nodes, _cell_rule(dim, nodes)[0])


def _grading_ratio(h0: float, count: int, length: float) -> float:
    """Growth factor q with h0 (q^count - 1)/(q - 1) = length, bisected in
    logs since q^count overflows a float on fine grids."""
    if h0 * count >= length:
        return 1.0
    lo, hi = 1.0 + 1e-12, 2.0
    for _ in range(200):
        q = 0.5 * (lo + hi)
        if count * math.log(q) < math.log1p(length * (q - 1.0) / h0):
            lo = q
        else:
            hi = q
    return 0.5 * (lo + hi)


def _cell_rule(dim: int, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hat weights, cell volumes): the integrals of the hat basis and of
    each cell against the radial volume weight, by gauss_panels over all
    cells at once."""
    r, wq = gauss_panels(nodes)
    shape = (nodes.size - 1, -1)
    dens = (radial_volume_weight(dim, r) * wq).reshape(shape)
    t = (r.reshape(shape) - nodes[:-1, None]) / np.diff(nodes)[:, None]
    weights = np.zeros_like(nodes)
    weights[:-1] += (dens * (1.0 - t)).sum(axis=1)
    weights[1:] += (dens * t).sum(axis=1)
    return weights, dens.sum(axis=1)


@dataclass(frozen=True)
class QuadraticForms:
    """The stiffness (the cell coefficients c_k of sum c_k (u_{k+1} - u_k)^2)
    and nonlocal forms plus the grid and order they belong to; the lumped
    mass form is diag(grid.weights), which the grid holds."""

    grid: RadialGrid
    s: float
    stiffness: np.ndarray
    nonlocal_mat: np.ndarray

    _metrics: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def lambda_metric(self, lam: float) -> np.ndarray:
        """stiffness - lam diag(grid.weights) as a (2, n) array of rows
        (superdiagonal, diagonal), the superdiagonal entry of column j in
        row 0 at j (row 0 at 0 is unused); NumericalError if that
        overflows or is not positive definite on the free nodes
        (metric_factor).  Built, checked and kept once per lam."""
        return self._checked_metric(lam)[0]

    def lambda_factor(self, lam: float) -> tuple[list, list]:
        """metric_factor of lambda_metric(lam), made by its check."""
        return self._checked_metric(lam)[1]

    def _checked_metric(self, lam: float) -> tuple[np.ndarray, tuple[list, list]]:
        if lam not in self._metrics:
            c = np.concatenate(([0.0], self.stiffness, [0.0]))
            bands = np.stack((-c[:-1], c[1:] + c[:-1] - lam * self.grid.weights))
            if not np.isfinite(bands).all():
                raise NumericalError(f"lambda metric is not finite at lambda = {lam:g}")
            try:
                self._metrics[lam] = bands, metric_factor(bands)
            except NumericalError:
                raise NumericalError(
                    f"lambda metric is not positive definite at lambda = {lam:g}") from None
            bands.flags.writeable = False  # every caller at this lam shares it
        return self._metrics[lam]


def metric_pair(bands: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """u^T M v for the symmetric tridiagonal M held as lambda_metric's bands."""
    return float(bands[1] @ (u * v) + bands[0, 1:] @ (u[1:] * v[:-1] + u[:-1] * v[1:]))


def metric_factor(bands: np.ndarray) -> tuple[list, list]:
    """L D L^T of the metric held as lambda_metric's bands, on the free
    nodes (all but the last): (d, l), the diagonal of D and the
    subdiagonal of the unit lower bidiagonal L, as lists of floats.

    The steps of LAPACK's dpttrf, in its order of operations, so
    metric_solve reproduces LAPACK's tridiagonal solve bit for bit.  The
    recurrence does not vectorize, so it loops over Python floats.
    NumericalError at the first pivot that is not > 0.
    """
    d = bands[1, :-1].tolist()
    e = bands[0, 1:-1].tolist()
    lower = [0.0] * len(e)
    di = d[0]
    for i, ei in enumerate(e):
        if not di > 0.0:
            raise NumericalError(f"metric pivot {i} is not positive")
        lower[i] = li = ei / di
        d[i + 1] = di = d[i + 1] - li * ei
    if not di > 0.0:
        raise NumericalError(f"metric pivot {len(e)} is not positive")
    return d, lower


def metric_solve(factor: tuple[list, list], b: np.ndarray) -> np.ndarray:
    """The solution x of M x = b on the free nodes, M factored by
    metric_factor: LAPACK dptts2's forward and back substitution."""
    d, lower = factor
    x = b.tolist()
    prev = x[0]
    for i in range(1, len(x)):
        x[i] = prev = x[i] - prev * lower[i - 1]
    x[-1] = prev = prev / d[-1]
    for i in range(len(x) - 2, -1, -1):
        x[i] = prev = x[i] / d[i] - prev * lower[i]
    return np.array(x)


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
    """Gram matrices of the slope pairs across the shared nodes.

    With r2 = node - b in the lower cell and r1 = node + a in the upper
    cell, linear interpolation gives u(r1) - u(r2) = s_hi a + s_lo b and
    the model weight depends on delta = a + b only:

        T_pq = integral a^p b^q (a + b)^-(1+2s)  over [0,h_hi] x [0,h_lo].

    Takes width arrays, one entry per node, and returns the arrays of
    ((T20, T11), (T11, T02)) acting on (s_hi, s_lo).
    """
    two_s = 2.0 * s
    h_lo, h_hi = h_lo[:, None], h_hi[:, None]
    x, wx = geometric_panels(1.0, 10)

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

    a, wq = h_hi * x, h_hi * wx
    t20 = (wq * a ** 2 * inner_moment0(a, h_lo)).sum(axis=1)
    t11 = (wq * a * inner_moment1(a, h_lo)).sum(axis=1)
    b, wq = h_lo * x, h_lo * wx
    t02 = (wq * b ** 2 * inner_moment0(b, h_hi)).sum(axis=1)
    return t20, t11, t02


def assemble_forms(grid: RadialGrid, s: float, reduced: ReducedKernel) -> QuadraticForms:
    """Assemble the stiffness and the nonlocal seminorm form.

    The reduced kernel must be built on this grid's cell midpoints.  Cell
    pairs separated by at least one full cell get the tabulated weight,
    rescaled by the exact integral of the near-diagonal power law over the
    cell rectangle (so the quadrature respects the |r1 - r2|^-(1+2s) mass
    distribution); the same-cell and shared-node contributions are
    integrated analytically against the near-diagonal law under linear
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

    # nonlocal form, separated cell pairs i < j - 1
    i, j = np.triu_indices(n_cells, 2)
    # rescale the midpoint weight by the exact singular-law integral over
    # the cell rectangle; the law's amplitude cancels in the ratio
    cell_int = _cell_pair_integral(nodes[j], nodes[j + 1], nodes[i], nodes[i + 1], s)
    omega = np.zeros((n_cells, n_cells))
    omega[i, j] = reduced.W[i, j] * cell_int * (mids[j] - mids[i]) ** (1.0 + 2.0 * reduced.order)
    omega[j, i] = omega[i, j]
    lap = np.diag(omega.sum(axis=1)) - omega

    # 2 avg^T lap avg, where avg takes node values to cell averages
    # (u_k + u_{k+1})/2: sum the four shifted copies of lap, then halve
    node_lap = np.zeros((n_cells, n))
    node_lap[:, :-1] += lap
    node_lap[:, 1:] += lap
    nonlocal_mat = np.zeros((n, n))
    nonlocal_mat[:-1] += node_lap
    nonlocal_mat[1:] += node_lap
    nonlocal_mat *= 0.5

    # singular band: same-cell term in the slope, shared-node term in the
    # slope pair, both against the near-diagonal law
    same = reduced.amplitude(mids) * 2.0 * h ** (3.0 - 2.0 * s) / (
        (2.0 - 2.0 * s) * (3.0 - 2.0 * s)
    ) / h ** 2
    nonlocal_mat[idx, idx] += same
    nonlocal_mat[idx + 1, idx + 1] += same
    nonlocal_mat[idx, idx + 1] -= same
    nonlocal_mat[idx + 1, idx] -= same

    # slope pairs s_lo = (u_{k+1}-u_k)/h_k, s_hi = (u_{k+2}-u_{k+1})/h_{k+1}
    # across node k + 1; each adds g_ll s_lo^2 + 2 g_hl s_lo s_hi + g_hh s_hi^2
    h_lo, h_hi = h[:-1], h[1:]
    c_node = 2.0 * reduced.amplitude(nodes[1:-1])
    t20, t11, t02 = _adjacent_slope_matrix(h_lo, h_hi, s)
    g_hh = c_node * t20 / h_hi ** 2
    g_ll = c_node * t02 / h_lo ** 2
    g_hl = c_node * t11 / (h_lo * h_hi)
    k = idx[:-1]
    nonlocal_mat[k + 2, k + 2] += g_hh
    nonlocal_mat[k + 1, k + 1] += g_hh + g_ll - 2.0 * g_hl
    nonlocal_mat[k, k] += g_ll
    nonlocal_mat[k + 1, k + 2] += g_hl - g_hh
    nonlocal_mat[k + 2, k + 1] += g_hl - g_hh
    nonlocal_mat[k, k + 1] += g_hl - g_ll
    nonlocal_mat[k + 1, k] += g_hl - g_ll
    nonlocal_mat[k, k + 2] -= g_hl
    nonlocal_mat[k + 2, k] -= g_hl

    nonlocal_mat = 0.5 * (nonlocal_mat + nonlocal_mat.T)
    return QuadraticForms(grid, float(s), assemble_local_forms(grid), nonlocal_mat)


def assemble_local_forms(grid: RadialGrid) -> np.ndarray:
    """The stiffness: cell volumes over squared cell widths.  Cheap to
    rebuild from the grid, so it is never cached, and it serves local
    Rayleigh probes on large grids without the reduced-kernel cost of the
    nonlocal form."""
    return _cell_rule(grid.dim, grid.nodes)[1] / grid.cell_widths ** 2


def _profile(grid: RadialGrid, v) -> np.ndarray:
    """v as a float array of node values on grid; DomainError unless it
    has one finite value per node."""
    v = np.asarray(v, dtype=float)
    if v.shape != grid.nodes.shape:
        raise DomainError("value vector does not match the grid")
    if not np.all(np.isfinite(v)):
        raise DomainError("profile values must be finite")
    return v


def lp_norm(grid: RadialGrid, v, q: float) -> float:
    """Nodal L^q norm of the profile v against grid's hyperbolic volume
    weights."""
    if q < 1.0:
        raise DomainError(f"L^q norm needs q >= 1, got {q}")
    return float(np.sum(np.abs(_profile(grid, v)) ** q * grid.weights) ** (1.0 / q))


def norm_lambda_sq(v: np.ndarray, lam: float, forms: QuadraticForms) -> float:
    """The lambda-shifted Dirichlet form v^T (stiffness - lam mass) v,
    mass = diag(grid.weights).

    Only lam strictly below the spectral bottom (N-1)^2/4 keeps this an
    equivalent norm; larger values are rejected.
    """
    bound = (forms.grid.dim - 1.0) ** 2 / 4.0
    if not lam < bound:
        raise DomainError(f"lambda must be < (N-1)^2/4 = {bound}, got {lam}")
    return metric_pair(forms.lambda_metric(lam), v, v)


def seminorm_s_sq(v: np.ndarray, forms: QuadraticForms) -> float:
    """Nonlocal kernel seminorm squared; nonnegative by assembly."""
    return max(float(v @ forms.nonlocal_mat @ v), 0.0)


def dirichlet_sq(v: np.ndarray, forms: QuadraticForms) -> float:
    return float(forms.stiffness @ np.diff(v) ** 2)


def schwarz_rearrange(grid: RadialGrid, v) -> np.ndarray:
    """Decreasing radial rearrangement of the profile v, equimeasurable at
    the cell level.

    Node values with their volume weights are sorted by value (stable, so
    already-sorted input reproduces itself exactly) and laid out from the
    origin in the volume coordinate; each node then receives the average
    of the laid-out profile over its own volume cell.  Averaging keeps the
    map exact on already-decreasing input (the partitions coincide) and
    idempotent, while resampling interleaved level sets at second order.
    """
    vals = _profile(grid, v)
    if np.any(vals < 0.0):
        raise DomainError(
            "rearrangement is defined for nonnegative profiles; "
            "take the absolute value first"
        )
    w = grid.weights
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
    return out
