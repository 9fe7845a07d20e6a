"""Hyperbolic fractional kernel: exact odd-dimension term algebra, the
even-dimension singular integral, tabulation and the angular reduction to a
two-point kernel on radial grids.

For odd N >= 3 the kernel is a finite signed combination of terms

    coeff * rho^p * sinh(rho)^(-k) * cosh(rho)^j * K_{nu0 + m}(a rho)

closed under one application of the ladder operator (-d/drho)/sinh(rho);
repeated application stays exact, which is what keeps the near field
accurate where nested numerical differentiation would lose every digit.

For even N >= 2 the kernel is a semi-infinite integral whose inverse
square-root endpoint factor is removed exactly by the substitution
u^2 = cosh(r) - cosh(rho) on [rho, rho + 1].  A fixed composite
Gauss-Legendre rule (panels graded toward u = 0 by rho, then uniform
panels on the exponentially decaying tail) evaluates it for every rho as
a few (rho x node) array calls of the ladder term sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import beta as beta_fn

from .errors import DomainError, QuadratureError, ReducedKernelError, TableRejectionError
from .geometry import sphere_area
from .specfun import bessel_k_log, gauss_panels, geometric_panels
# not called here: perfbench/trace_solve.py wraps kernel.integrate_adaptive
from .specfun import integrate_adaptive  # noqa: F401

UNDERFLOW_FLOOR = 1e-300

# Fitting windows for the tabulated asymptotics.  The power law holds for
# rho << 1 and the exponential rate for rho >> 1; the bands below are the
# structural tolerances a correct kernel must satisfy.
NEAR_WINDOW_MAX = 1e-2
FAR_WINDOW_MIN = 10.0
NEAR_EXPONENT_BAND = 0.05
FAR_RATE_BAND = 0.01
_MIN_FIT_POINTS = 6

# Beyond this radius every kernel integrand underflows double precision.
_RADIAL_CUTOFF = 600.0


def normalizing_constant(N: int, s: float) -> float:
    """The Gamma-factor constant multiplying both kernel representations.

    Implemented exactly as displayed (the two Gamma((N+2s)/2) factors cancel
    algebraically but are kept so a corrected constant changes one line).
    """
    if int(N) != N or N < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {N}")
    if not 0.0 < s < 1.0:
        raise DomainError(f"fractional order must lie in (0, 1), got {s}")
    g_half = math.gamma((N + 2.0 * s) / 2.0)
    front = (math.sqrt(math.pi) * 2.0 ** (2.0 * s) * g_half) / (
        2.0 * math.gamma(1.5) * math.pi ** (N / 2.0) * abs(math.gamma(-s))
    )
    middle = 1.0 / (2.0 ** ((N - 2.0 + 2.0 * s) / 2.0) * g_half)
    tail = ((N - 1.0) / 2.0) ** ((1.0 + 2.0 * s) / 2.0)
    return front * middle * tail


def _log_sinh(x):
    """log(sinh x) without overflow; x > 0 elementwise."""
    x = np.asarray(x, dtype=float)
    return x + np.log1p(-np.exp(-2.0 * x)) - math.log(2.0)


def _log_cosh(x):
    x = np.asarray(x, dtype=float)
    return x + np.log1p(np.exp(-2.0 * x)) - math.log(2.0)


def _coshm1(x):
    """cosh(x) - 1 = 2 sinh^2(x/2), stable for small x."""
    return 2.0 * np.sinh(np.asarray(x, dtype=float) / 2.0) ** 2


@dataclass(frozen=True)
class BesselTerm:
    coeff: float
    order_shift: int
    inv_sinh_pow: int
    cosh_pow: int
    rho_pow: float


@dataclass(frozen=True)
class BesselTermSum:
    """Finite sum of Bessel-ladder terms with base order nu0 and scale a.

    Evaluation goes through logarithms per term so that the far field
    underflows gracefully instead of producing inf * 0.
    """

    nu0: float
    a: float
    terms: tuple

    def __post_init__(self):
        if self.a <= 0.0:
            raise DomainError(f"argument scale must be > 0, got {self.a}")

    def evaluate(self, rho):
        rho_v = np.atleast_1d(np.asarray(rho, dtype=float))
        if rho_v.size == 0 or np.any(rho_v <= 0.0) or not np.all(np.isfinite(rho_v)):
            raise DomainError("term sums are evaluated at finite rho > 0")
        log_rho = np.log(rho_v)
        log_sh = _log_sinh(rho_v)
        log_ch = _log_cosh(rho_v)
        shifts = sorted({t.order_shift for t in self.terms})
        log_k = {m: bessel_k_log(self.nu0 + m, self.a * rho_v) for m in shifts}
        out = np.zeros_like(rho_v)
        for t in self.terms:
            if t.coeff == 0.0:
                continue
            mag = (
                math.log(abs(t.coeff))
                + t.rho_pow * log_rho
                - t.inv_sinh_pow * log_sh
                + t.cosh_pow * log_ch
                + log_k[t.order_shift]
            )
            out += math.copysign(1.0, t.coeff) * np.exp(mag)
        return out if np.ndim(rho) else float(out[0])


def bessel_base(N: int, s: float) -> BesselTermSum:
    """rho^(-nu) K_nu(a rho) with nu = (1+2s)/2 and a = (N-1)/2."""
    nu = (1.0 + 2.0 * s) / 2.0
    return BesselTermSum(
        nu0=nu, a=(N - 1.0) / 2.0,
        terms=(BesselTerm(1.0, 0, 0, 0, -nu),),
    )


def apply_operator(term_sum: BesselTermSum) -> BesselTermSum:
    """One application of (-d/drho)/sinh(rho), exactly.

    Uses d/drho[rho^-nu K_nu(a rho)] = -a rho^-nu K_{nu+1}(a rho) together
    with K_mu'(x) = -K_{mu+1}(x) + (mu/x) K_mu(x) and the product rule on the
    sinh/cosh/rho powers.  Each input term expands to at most four, then like
    terms are combined.
    """
    acc = {}

    def add(coeff, m, k, j, p):
        if coeff == 0.0:
            return
        key = (m, k, j, round(p, 12))
        acc[key] = acc.get(key, 0.0) + coeff

    a = term_sum.a
    for t in term_sum.terms:
        mu = term_sum.nu0 + t.order_shift
        c, m, k, j, p = t.coeff, t.order_shift, t.inv_sinh_pow, t.cosh_pow, t.rho_pow
        add(-c * (p + mu), m, k + 1, j, p - 1.0)
        if k:
            add(c * k, m, k + 2, j + 1, p)
        if j:
            add(-c * j, m, k, j - 1, p)
        add(c * a, m + 1, k + 1, j, p)

    terms = tuple(
        BesselTerm(coeff, m, k, j, p)
        for (m, k, j, p), coeff in sorted(acc.items())
        if coeff != 0.0
    )
    return replace(term_sum, terms=terms)


@lru_cache(maxsize=64)
def _ladder(N: int, s: float, applications: int) -> BesselTermSum:
    ts = bessel_base(N, s)
    for _ in range(applications):
        ts = apply_operator(ts)
    return ts


def _check_kernel_args(N, s, parity):
    if int(N) != N:
        raise DomainError(f"dimension must be an integer, got {N}")
    if parity == "odd" and (N < 3 or N % 2 == 0):
        raise DomainError(f"odd-dimension kernel needs odd N >= 3, got {N}")
    if parity == "even" and (N < 2 or N % 2 == 1):
        raise DomainError(f"even-dimension kernel needs even N >= 2, got {N}")
    if not 0.0 < s < 1.0:
        raise DomainError(f"fractional order must lie in (0, 1), got {s}")


def _check_rho(rho):
    rho_v = np.atleast_1d(np.asarray(rho, dtype=float))
    if np.any(rho_v <= 0.0) or not np.all(np.isfinite(rho_v)):
        raise DomainError("kernel radius must be finite and > 0")
    return rho_v


def kernel_odd(N: int, s: float, rho):
    """Exact kernel for odd N >= 3: (N-1)/2 ladder applications, scaled by
    the normalizing constant.  Vectorized over rho."""
    _check_kernel_args(N, s, "odd")
    rho_v = _check_rho(rho)
    ts = _ladder(int(N), float(s), (N - 1) // 2)
    vals = normalizing_constant(N, s) * np.atleast_1d(ts.evaluate(rho_v))
    vals = np.where(vals < UNDERFLOW_FLOOR, 0.0, vals)
    return vals if np.ndim(rho) else float(vals[0])


def _even_ladder_eval(N, s, r):
    """G(r) = ((-d/dr)/sinh r)^(N/2) applied to the base profile, with the
    integrand forced to zero beyond the underflow radius."""
    ts = _ladder(int(N), float(s), N // 2)
    r = np.asarray(r, dtype=float)
    safe = np.minimum(r, _RADIAL_CUTOFF)
    vals = np.atleast_1d(ts.evaluate(safe))
    return np.where(np.atleast_1d(r) > _RADIAL_CUTOFF, 0.0, vals)


# Even-N fixed rule.  Near part, r in [rho, rho + 1]: u = u1 x on geometric
# panels with ceil(log2(u1 / sqrt(cosh rho - 1))) + _NEAR_EXTRA_LEVELS
# levels, because the only complex singularities of the u-integrand sit at
# u = +-i sqrt(cosh rho -+ 1) and the grading toward u = 0 must reach their
# distance.  Far part, r = rho + 1 + y: panels of width _FAR_PANEL on
# y in [0, _FAR_EFOLDS / (N - 1)], beyond which the integrand has fallen
# below e^-_FAR_EFOLDS of its start (it decays like e^-(N-1) y).
_NEAR_EXTRA_LEVELS = 3
_FAR_PANEL = 0.5
_FAR_EFOLDS = 40.0


def _even_integral(N, s, rho):
    """The integral over r > rho of sinh(r) G(r) / sqrt(cosh r - cosh rho)
    for a 1-d array of rho in (0, _RADIAL_CUTOFF).

    Rows that need the same number of near-part levels share one array
    call per part, so the value at one rho never depends on the other
    rows and no temporary holds every row at once.
    """
    cm1 = _coshm1(rho)
    # u1^2 = cosh(rho + 1) - cosh(rho); sqrt(cm1) = sqrt(2) sinh(rho / 2)
    # stays positive where cm1 underflows
    u1 = np.sqrt(2.0 * np.sinh(rho + 0.5) * math.sinh(0.5))
    reach = math.sqrt(2.0) * np.sinh(0.5 * rho)
    levels = np.ceil(np.log2(u1 / reach)).astype(int) + _NEAR_EXTRA_LEVELS
    panels = math.ceil(_FAR_EFOLDS / ((N - 1) * _FAR_PANEL))
    y, wy = gauss_panels(_FAR_PANEL * np.arange(panels + 1))
    out = np.empty_like(rho)
    for lv in np.unique(levels):
        rows = levels == lv
        x, w = geometric_panels(1.0, int(lv))
        u = u1[rows, None] * x
        z = cm1[rows, None] + u * u
        r = np.log1p(z + np.sqrt(z * (z + 2.0)))
        near = 2.0 * u1[rows] * np.sum(_even_ladder_eval(N, s, r) * w, axis=1)
        r = rho[rows, None] + 1.0 + y
        body = np.sinh(r) / np.sqrt(np.cosh(r) - (cm1[rows, None] + 1.0))
        far = np.sum(body * _even_ladder_eval(N, s, r) * wy, axis=1)
        out[rows] = near + far
    return out


def kernel_even(N: int, s: float, rho):
    """Kernel for even N >= 2: the singular integral over r > rho of
    sinh(r) G(r) / sqrt(cosh r - cosh rho), scaled by the normalizing
    constant over sqrt(pi).  Vectorized over rho of any shape.

    The integral is a fixed composite 8-point Gauss-Legendre rule: on
    [rho, rho + 1] in u = sqrt(cosh r - cosh rho), which removes the inverse
    square root, with panels halving toward u = 0 deep enough for rho; on
    [rho + 1, rho + 1 + 40/(N - 1)] on panels of width 0.5.  The tests hold
    it to the tightly converged adaptive rule within 1e-10 relative.
    """
    _check_kernel_args(N, s, "even")
    rho_v = _check_rho(rho)
    flat = rho_v.ravel()
    vals = np.zeros_like(flat)
    # beyond the cutoff every node of the rule lies where G is forced to zero
    inside = flat < _RADIAL_CUTOFF
    if inside.any():
        vals[inside] = normalizing_constant(N, s) / math.sqrt(math.pi) * _even_integral(
            int(N), float(s), flat[inside])
    if not np.all(np.isfinite(vals)):
        bad = int(np.argmin(np.isfinite(vals)))
        raise QuadratureError(
            f"even-dimension kernel quadrature returned {vals[bad]} at rho={flat[bad]}",
            value=float(vals[bad]),
        )
    vals = vals.reshape(rho_v.shape)
    vals = np.where(vals < UNDERFLOW_FLOOR, 0.0, vals)
    return vals if np.ndim(rho) else float(vals[0])


def kernel(N: int, s: float, rho):
    """Parity dispatch between the exact odd form and the even integral."""
    if int(N) != N or N < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {N}")
    if N % 2:
        return kernel_odd(N, s, rho)
    return kernel_even(N, s, rho)


def _fit_line(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


@dataclass(frozen=True)
class KernelTable:
    """Log-spaced tabulation with fitted asymptotic diagnostics.

    near_exponent is the log-log slope over rho <= 1e-2 (nan when the table
    does not reach that window); far_rate is the exponential decay rate over
    rho >= 10 after removing the rho^-(1+s) prefactor.  near_amplitude is
    the fitted power-law amplitude used by the reduced-kernel diagonal
    model.
    """

    dim: int
    order: float
    rho_grid: np.ndarray
    values: np.ndarray
    near_exponent: float
    far_rate: float
    near_amplitude: float

    def validate(self):
        if np.any(self.values <= 0.0):
            raise TableRejectionError("kernel table contains non-positive values")
        if np.any(np.diff(self.values) >= 0.0):
            raise TableRejectionError("kernel table is not strictly decreasing")
        expected = -(self.dim + 2.0 * self.order)
        if math.isfinite(self.near_exponent):
            if abs(self.near_exponent - expected) > NEAR_EXPONENT_BAND:
                raise TableRejectionError(
                    f"near-field exponent {self.near_exponent:.4f} outside "
                    f"{expected} +/- {NEAR_EXPONENT_BAND}"
                )
        if math.isfinite(self.far_rate):
            if abs(self.far_rate - (self.dim - 1.0)) > FAR_RATE_BAND * (self.dim - 1.0):
                raise TableRejectionError(
                    f"far-field rate {self.far_rate:.4f} outside "
                    f"{self.dim - 1} +/- {100 * FAR_RATE_BAND}%"
                )

    def interpolator(self):
        """Monotone log-log interpolant over the tabulated range."""
        p = PchipInterpolator(np.log(self.rho_grid), np.log(self.values))

        def evaluate(rho):
            return np.exp(p(np.log(np.asarray(rho, dtype=float))))

        return evaluate


def build_kernel_table(N: int, s: float, rho_min: float, rho_max: float,
                       count: int) -> KernelTable:
    """Tabulate the kernel on a log-spaced grid and fit its asymptotics.

    Rejects the table (TableRejectionError) if the fitted near-field
    exponent or far-field rate falls outside the structural bands; that
    signals a kernel implementation bug, not bad input.
    """
    if not (0.0 < rho_min < rho_max):
        raise DomainError(f"need 0 < rho_min < rho_max, got [{rho_min}, {rho_max}]")
    if count < 16:
        raise DomainError(f"table needs at least 16 points, got {count}")
    grid = np.geomspace(rho_min, rho_max, int(count))
    vals = np.asarray(kernel(N, s, grid), dtype=float)
    if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
        raise TableRejectionError("kernel evaluation produced non-positive values")

    near = grid <= NEAR_WINDOW_MAX
    if np.count_nonzero(near) >= _MIN_FIT_POINTS:
        near_exponent, _ = _fit_line(np.log(grid[near]), np.log(vals[near]))
        near_amplitude = float(np.exp(np.mean(
            np.log(vals[near]) + (N + 2.0 * s) * np.log(grid[near])
        )))
    else:
        near_exponent, near_amplitude = math.nan, math.nan

    far = grid >= FAR_WINDOW_MIN
    if np.count_nonzero(far) >= _MIN_FIT_POINTS:
        # after removing the rho^-(1+s) prefactor the residual decay is
        # exponential with a 1/rho correction from the Bessel asymptotics;
        # modelling that correction removes the systematic rate bias
        y = np.log(vals[far]) + (1.0 + s) * np.log(grid[far])
        design = np.vstack([np.ones_like(grid[far]), grid[far], 1.0 / grid[far]]).T
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        far_rate = -float(coef[1])
    else:
        far_rate = math.nan

    table = KernelTable(int(N), float(s), grid, vals,
                        near_exponent, far_rate, near_amplitude)
    table.validate()
    return table


def _sin_integral_const(N: int, s: float) -> float:
    """integral over t in (0, inf) of t^(N-2) (1+t^2)^(-(N+2s)/2) dt."""
    return 0.5 * beta_fn((N - 1.0) / 2.0, (1.0 + 2.0 * s) / 2.0)


@dataclass(frozen=True)
class DiagonalModel:
    """Near-diagonal law W(r1, r2) ~ amplitude(r) |r1 - r2|^-(1+2s).

    amplitude(r) = prefactor * sinh(r)^(N-1); the prefactor combines the
    fitted near-field kernel amplitude with the exact angular moment.
    """

    dim: int
    order: float
    prefactor: float

    @property
    def exponent(self) -> float:
        return 1.0 + 2.0 * self.order

    def amplitude(self, r):
        return self.prefactor * np.sinh(np.asarray(r, dtype=float)) ** (self.dim - 1)

    def value(self, r, delta):
        return self.amplitude(r) * np.asarray(delta, dtype=float) ** (-self.exponent)


@dataclass(frozen=True)
class ReducedKernel:
    """Angularly reduced two-point kernel on a radial grid.

    W[i, j] is the full sphere-pair density, volume weights included:
    the seminorm of a radial profile is the double r-integral of
    (u(r1) - u(r2))^2 W(r1, r2).  The diagonal is not tabulated (the
    angular integral diverges there); diagonal_model carries the fitted
    near-diagonal law instead.
    """

    dim: int
    order: float
    r_grid: np.ndarray
    W: np.ndarray
    diagonal_model: DiagonalModel

    def validate(self):
        n = self.r_grid.size
        if self.W.shape != (n, n):
            raise ReducedKernelError("weight matrix shape does not match grid")
        if not np.array_equal(self.W, self.W.T):
            raise ReducedKernelError("weight matrix is not symmetric")
        off = ~np.eye(n, dtype=bool)
        if np.any(self.W[off] <= 0.0) or not np.all(np.isfinite(self.W[off])):
            bad = np.argwhere((self.W <= 0.0) & off)
            loc = tuple(self.r_grid[bad[0]]) if bad.size else None
            raise ReducedKernelError("non-positive off-diagonal weight", location=loc)
        # near-diagonal law: adjacent pairs should match the model where the
        # separation is small both absolutely (kernel power-law regime) and
        # relative to the radius (angular slab regime)
        for i in range(1, n - 1):
            delta = self.r_grid[i + 1] - self.r_grid[i]
            mid = 0.5 * (self.r_grid[i + 1] + self.r_grid[i])
            if mid < 10.0 * delta or delta > 0.2:
                continue
            model = float(self.diagonal_model.value(mid, delta))
            actual = self.W[i, i + 1]
            if abs(actual - model) > 0.10 * model:
                raise ReducedKernelError(
                    f"near-diagonal weight off by {abs(actual / model - 1.0):.2%} "
                    f"at r = {mid:.4g}",
                    location=(float(self.r_grid[i]), float(self.r_grid[i + 1])),
                )


# Normalized node/weight layout shared by every node pair: the lower half
# of [delta, Sigma] in the variable v = sqrt(d - delta) with panels refined
# geometrically toward v = 0, the upper half in w = sqrt(Sigma - d)
# likewise, as fractions of the respective half-range.
_PAIR_NODES = (geometric_panels(1.0, 18), geometric_panels(1.0, 8))


def _angular_weights(N, s, r1, r2, kernel_eval):
    """Vectorized A(r1, r2) = integral over the sphere angle of the kernel.

    r1, r2 are equal-length arrays of node pairs with r1 < r2.  Uses the
    distance substitution: with cosh d = cosh r1 cosh r2 - B cos(gamma),
    the angle integral of K_s(d) sin^(N-2)(gamma) becomes an integral in d
    over [delta, Sigma] against sin^(N-3)(gamma(d)) sinh(d) / B, and the
    sqrt substitutions at both endpoints keep every factor regular -- for
    N = 2 the endpoint sin^(-1) singularities cancel exactly.
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    delta = r2 - r1
    sigma = r2 + r1
    b_fac = np.sinh(r1) * np.sinh(r2)
    half = 0.5 * (sigma - delta)
    mid = delta + half

    (low_nodes, low_w), (up_nodes, up_w) = _PAIR_NODES

    def half_integral(frac_nodes, frac_w, from_lower):
        # v^2 = d - delta (lower) or w^2 = Sigma - d (upper)
        span = np.sqrt(half)[:, None]
        v = span * frac_nodes[None, :]
        wq = span * frac_w[None, :]
        if from_lower:
            d = delta[:, None] + v * v
            near_gap = v * v                       # d - delta
            far_gap = sigma[:, None] - d           # Sigma - d
        else:
            d = sigma[:, None] - v * v
            far_gap = v * v
            near_gap = d - delta[:, None]
        # sin^2(gamma) = 4 sinh((d+delta)/2) sinh((d-delta)/2)
        #                 * sinh((Sigma+d)/2) sinh((Sigma-d)/2) / B^2
        sin2 = (
            4.0
            * np.sinh(0.5 * (d + delta[:, None]))
            * np.sinh(0.5 * near_gap)
            * np.sinh(0.5 * (sigma[:, None] + d))
            * np.sinh(0.5 * far_gap)
        ) / b_fac[:, None] ** 2
        sin2 = np.maximum(sin2, 0.0)
        kern = kernel_eval(d)
        body = kern * np.sinh(d) / b_fac[:, None] * 2.0 * v
        if N == 2:
            body = body / np.sqrt(sin2)
        elif N > 3:
            body = body * sin2 ** ((N - 3) / 2.0)
        return np.sum(body * wq, axis=1)

    return half_integral(low_nodes, low_w, True) + half_integral(up_nodes, up_w, False)


def build_reduced_kernel(N: int, s: float, r_grid) -> ReducedKernel:
    """Assemble the angularly reduced two-point kernel on an increasing
    positive radial grid (typically the cell midpoints of a RadialGrid).

    Kernel values along the distance quadrature come from a monotone
    log-log interpolant of a dedicated dense table, which keeps the cost of
    the O(n^2) pair loop independent of the parity of N.  The result is
    checked with ReducedKernel.validate before it is returned.
    """
    r = np.asarray(r_grid, dtype=float)
    if r.ndim != 1 or r.size < 4:
        raise DomainError("reduced kernel needs a 1-d grid with >= 4 points")
    if np.any(r <= 0.0) or np.any(np.diff(r) <= 0.0):
        raise DomainError("reduced-kernel grid must be positive and increasing")

    gaps = np.diff(r)
    d_lo = 0.45 * float(gaps.min())
    d_hi = 2.10 * float(r[-1])
    table = build_kernel_table(N, s, d_lo, d_hi, 800)
    kernel_eval = table.interpolator()

    n = r.size
    # omega_{N-1} * omega_{N-2}; sphere_area(1) = 2 covers the N = 2 case
    surface = sphere_area(N) * sphere_area(N - 1)
    vol = np.sinh(r) ** (N - 1)

    W = np.zeros((n, n))
    for i in range(n - 1):
        j = np.arange(i + 1, n)
        A = _angular_weights(N, s, np.full(j.size, r[i]), r[j], kernel_eval)
        row = surface * vol[i] * vol[j] * A
        if not np.all(np.isfinite(row)):
            bad = j[~np.isfinite(row)][0]
            raise ReducedKernelError(
                "angular quadrature failed",
                location=(float(r[i]), float(r[bad])),
            )
        W[i, i + 1:] = row
        W[i + 1:, i] = row

    kappa0 = table.near_amplitude
    if not math.isfinite(kappa0):
        # grid too coarse to reach the fitting window; fall back to a direct
        # sample of the kernel deep in the power-law regime
        probe = min(1e-3, 0.5 * d_lo + 1e-4)
        kappa0 = float(kernel(N, s, probe)) * probe ** (N + 2.0 * s)
    prefactor = surface * kappa0 * _sin_integral_const(N, s)
    model = DiagonalModel(int(N), float(s), float(prefactor))

    rk = ReducedKernel(int(N), float(s), r, W, model)
    rk.validate()
    return rk
