"""Hyperbolic fractional kernel: exact odd-dimension term algebra, the
even-dimension singular integral, tabulation and the angular reduction to a
two-point kernel on radial grids.

kernel(N, s, rho) is the one evaluator: it checks its input once and
dispatches on the parity of N to the two forms below.

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

The reduction to a two-point kernel integrates the kernel over the sphere
angle for each pair of grid radii, as an integral in the geodesic distance
whose Gauss rule is graded per pair, deeper the closer the pair
(_angular_weights).  W and the even-N table are built by one process per
usable CPU (_split), with no option; each value is its own row of its own
array call, so they match a one-process build bit for bit, and the parent
redoes whatever part a helper left undone.
"""

from __future__ import annotations

import math
import mmap
import os
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericalError
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
        lo = min(t.order_shift for t in self.terms)
        count = max(t.order_shift for t in self.terms) - lo + 1
        log_k = bessel_k_log(self.nu0 + lo, self.a * rho_v, count).reshape(
            (count,) + rho_v.shape)
        out = np.zeros_like(rho_v)
        for t in self.terms:
            if t.coeff == 0.0:
                continue
            mag = (
                math.log(abs(t.coeff))
                + t.rho_pow * log_rho
                - t.inv_sinh_pow * log_sh
                + t.cosh_pow * log_ch
                + log_k[t.order_shift - lo]
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


def _even_ladder_eval(N, s, r):
    """G(r) = ((-d/dr)/sinh r)^(N/2) applied to the base profile, with the
    integrand forced to zero beyond the underflow radius."""
    ts = _ladder(int(N), float(s), N // 2)
    r = np.asarray(r, dtype=float)
    safe = np.minimum(r, _RADIAL_CUTOFF)
    vals = np.atleast_1d(ts.evaluate(safe))
    return np.where(np.atleast_1d(r) > _RADIAL_CUTOFF, 0.0, vals)


# One array call holds at most _CHUNK_NODES (row x node) entries, so its
# temporaries stay under 128 KiB, which glibc's malloc serves from its heap,
# and fit in a 2 MiB L2.  N=4 W, 400 nodes: 921 page faults (78,560 at 2^16);
# the angular rule took 0.40/0.33/0.31/0.40/0.45 s at 2^12..2^16 (2-vCPU Xeon).
_CHUNK_NODES = 1 << 14
# Work of fewer rows stays in one process, as a fork costs the parent
# copy-on-write faults.  N=3 W took 8.0 ms in one process and 9.8 ms in two
# on 63 rows, 16.3 and 13.2 ms on 95 (N=4: 11.3/12.3, 24.4/17.1; 2 vCPUs).
_FORK_MIN_ROWS = 96


def _split(task, args, rows):
    """task(a) for each a in args, each call writing its own part of an
    array in a shared anonymous mmap.  From _FORK_MIN_ROWS rows of work on,
    one process per usable CPU pulls indices into args from one pipe, the
    parent too, and marks each task done in a shared byte once it returns.
    A process whose task raises pulls no more.  Once every helper is
    reaped, the parent runs each task no process marked done, in index
    order, so a task that failed raises here what a one-process build
    raises, and the share of a helper that died or was never forked is
    redone bit for bit.  Helpers are forked, not spawned, so they start
    from the parent's arrays without an import; they run no BLAS call."""
    done = mmap.mmap(-1, len(args))  # zeros, shared with the helpers
    # 4-byte indices: the pipe's 64 KiB buffer holds 2^14 of them
    fork = rows >= _FORK_MIN_ROWS and len(args) <= 1 << 14 and hasattr(os, "sched_getaffinity")
    workers = min(len(os.sched_getaffinity(0)), len(args)) if fork else 1
    if workers > 1:
        queue, put = os.pipe()
        os.write(put, np.arange(len(args), dtype="<i4").tobytes())
        os.close(put)
        pids = []

        def pull():
            while index := os.read(queue, 4):
                k = int.from_bytes(index, "little")
                task(args[k])
                done[k] = 1

        try:
            while len(pids) < workers - 1:
                if (pid := os.fork()) == 0:  # a helper leaves only by os._exit
                    try:
                        pull()
                    finally:
                        os._exit(0)
                pids.append(pid)
            pull()
        except Exception:  # a failed fork or task: the loop below redoes it
            pass
        finally:
            for pid in pids:
                os.waitpid(pid, 0)
            os.close(queue)
    for k, a in enumerate(args):
        if not done[k]:
            task(a)


def _level_groups(levels):
    """Yield (rows, nodes, weights): the rows that share a geometric-panel
    level count, in chunks of at most _CHUNK_NODES (row x node) entries,
    with geometric_panels(1.0, level) built once per level.  Each row's
    integral comes from its own row of one array call, so its value never
    depends on which other rows share that call."""
    for lv in np.unique(levels):
        x, w = geometric_panels(1.0, int(lv))
        rows = np.flatnonzero(levels == lv)
        step = max(1, _CHUNK_NODES // x.size)
        for start in range(0, rows.size, step):
            yield rows[start:start + step], x, w


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
    for a 1-d array of rho in (0, _RADIAL_CUTOFF), the rows grouped by
    near-part level count (_level_groups)."""
    cm1 = _coshm1(rho)
    # u1^2 = cosh(rho + 1) - cosh(rho); sqrt(cm1) = sqrt(2) sinh(rho / 2)
    # stays positive where cm1 underflows
    u1 = np.sqrt(2.0 * np.sinh(rho + 0.5) * math.sinh(0.5))
    reach = math.sqrt(2.0) * np.sinh(0.5 * rho)
    levels = np.ceil(np.log2(u1 / reach)).astype(int) + _NEAR_EXTRA_LEVELS
    panels = math.ceil(_FAR_EFOLDS / ((N - 1) * _FAR_PANEL))
    y, wy = gauss_panels(_FAR_PANEL * np.arange(panels + 1))
    out = np.frombuffer(mmap.mmap(-1, 8 * rho.size))  # zeros, shared by _split

    def chunk(group):
        k, x, w = group
        u = u1[k, None] * x
        z = cm1[k, None] + u * u
        # acosh(1 + z); the square root is split, as z (z + 2) overflows
        # past rho of about 355
        r = np.log1p(z + np.sqrt(z) * np.sqrt(z + 2.0))
        near = 2.0 * u1[k] * np.sum(_even_ladder_eval(N, s, r) * w, axis=1)
        r = rho[k, None] + 1.0 + y
        body = np.sinh(r) / np.sqrt(np.cosh(r) - (cm1[k, None] + 1.0))
        far = np.sum(body * _even_ladder_eval(N, s, r) * wy, axis=1)
        out[k] = near + far

    _split(chunk, list(_level_groups(levels)), rho.size)
    return out


def _odd_body(N, s, rho):
    """Exact kernel for odd N >= 3: (N-1)/2 ladder applications, scaled by
    the normalizing constant."""
    return normalizing_constant(N, s) * _ladder(N, s, (N - 1) // 2).evaluate(rho)


def _even_body(N, s, rho):
    """Kernel for even N >= 2: the singular integral over r > rho of
    sinh(r) G(r) / sqrt(cosh r - cosh rho), scaled by the normalizing
    constant over sqrt(pi).

    The integral is a fixed composite 8-point Gauss-Legendre rule: on
    [rho, rho + 1] in u = sqrt(cosh r - cosh rho), which removes the inverse
    square root, with panels halving toward u = 0 deep enough for rho; on
    [rho + 1, rho + 1 + 40/(N - 1)] on panels of width 0.5.  The tests hold
    it to the tightly converged adaptive rule within 1e-10 relative.
    """
    flat = rho.ravel()
    vals = np.zeros_like(flat)
    # beyond the cutoff every node of the rule lies where G is forced to zero
    inside = flat < _RADIAL_CUTOFF
    if inside.any():
        vals[inside] = normalizing_constant(N, s) / math.sqrt(math.pi) * _even_integral(
            N, s, flat[inside])
    if not np.all(np.isfinite(vals)):
        bad = int(np.argmin(np.isfinite(vals)))
        raise NumericalError(
            f"even-dimension kernel quadrature returned {vals[bad]} at rho={flat[bad]}")
    return vals.reshape(rho.shape)


def kernel(N: int, s: float, rho):
    """The fractional kernel on H^N at geodesic distance rho, for rho of any
    shape; a float for a scalar rho.

    The layer's one evaluator: it checks N, s and rho once, takes the exact
    ladder form for odd N and the singular integral for even N, and flushes
    values below UNDERFLOW_FLOOR to exactly zero.
    """
    if int(N) != N or N < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {N}")
    if not 0.0 < s < 1.0:
        raise DomainError(f"fractional order must lie in (0, 1), got {s}")
    rho_v = np.atleast_1d(np.asarray(rho, dtype=float))
    if np.any(rho_v <= 0.0) or not np.all(np.isfinite(rho_v)):
        raise DomainError("kernel radius must be finite and > 0")
    body = _odd_body if N % 2 else _even_body
    vals = body(int(N), float(s), rho_v)
    vals = np.where(vals < UNDERFLOW_FLOOR, 0.0, vals)
    return vals if np.ndim(rho) else float(vals[0])


def _fit_line(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


@dataclass(frozen=True)
class KernelTable:
    """Log-spaced tabulation with fitted asymptotic diagnostics.

    near_exponent is the log-log slope over rho <= 1e-2 (nan when the table
    does not reach that window); far_rate is the exponential decay rate over
    rho >= 10 after removing the rho^-(1+s) prefactor.  near_amplitude is
    the fitted power-law amplitude behind the reduced kernel's
    near-diagonal law.
    """

    dim: int
    order: float
    rho_grid: np.ndarray
    values: np.ndarray
    near_exponent: float
    far_rate: float
    near_amplitude: float

    def validate(self):
        # interpolator() indexes the knots as uniform in log rho
        x = np.log(self.rho_grid)
        if np.abs(x - np.linspace(x[0], x[-1], x.size)).max() > 1e-12 * (x[-1] - x[0]):
            raise NumericalError("kernel table grid is not uniform in log rho")
        if np.any(self.values <= 0.0):
            raise NumericalError("kernel table contains non-positive values")
        if np.any(np.diff(self.values) >= 0.0):
            raise NumericalError("kernel table is not strictly decreasing")
        expected = -(self.dim + 2.0 * self.order)
        if math.isfinite(self.near_exponent):
            if abs(self.near_exponent - expected) > NEAR_EXPONENT_BAND:
                raise NumericalError(
                    f"near-field exponent {self.near_exponent:.4f} outside "
                    f"{expected} +/- {NEAR_EXPONENT_BAND}"
                )
        if math.isfinite(self.far_rate):
            if abs(self.far_rate - (self.dim - 1.0)) > FAR_RATE_BAND * (self.dim - 1.0):
                raise NumericalError(
                    f"far-field rate {self.far_rate:.4f} outside "
                    f"{self.dim - 1} +/- {100 * FAR_RATE_BAND}%"
                )

    def interpolator(self):
        """Monotone log-log interpolant: evaluate(rho) = exp(P(log rho)).

        P is the piecewise cubic Hermite interpolant of (log rho, log value)
        with the PCHIP slopes of _pchip_slopes, which keep it monotone
        between knots; beyond the tabulated range the end cubics extend it.
        validate() holds the knots uniform in log rho, so each point's
        interval is a direct index: five gathers (x_k, four coefficients)
        and a Horner recurrence in place in the call's own arrays; evaluate
        returns a new array of rho's shape.
        """
        x, y = np.log(self.rho_grid), np.log(self.values)
        d = _pchip_slopes(x, y)
        h = np.diff(x)
        m = np.diff(y) / h
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        # on interval k, P = y_k + u (d_k + u (c2_k + u c3_k)), u = log rho - x_k;
        # one gather per coefficient (a gathered (..., 5) block is slower in W)
        c3, c2, c1, c0, xk = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1], x[:-1]
        x0, step, last = x[0], (x[-1] - x[0]) / (x.size - 1), x.size - 2

        def evaluate(rho):
            u = np.log(np.asarray(rho, dtype=float).ravel())
            k = np.clip((u - x0) / step, 0, last).astype(np.intp)
            u -= (c := np.take(xk, k))
            p = np.take(c3, k)
            for coef in (c2, c1, c0):
                p *= u
                p += np.take(coef, k, out=c)
            return np.exp(p, out=p).reshape(np.shape(rho))

        return evaluate


def _pchip_slopes(x, y):
    """Knot slopes of the monotone cubic Hermite interpolant (PCHIP).

    Interior knots take the Fritsch-Butland weighted harmonic mean of the
    two adjacent secants, or zero where those differ in sign or one
    vanishes; each end takes the one-sided three-point estimate, set to
    zero if its sign differs from the end secant's and clamped to three
    times that secant where the first two secants differ in sign (Moler,
    Numerical Computing with MATLAB, sec. 3.6).  These are the slopes of
    scipy's PchipInterpolator, term for term; at least 3 knots.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
    slopes = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):  # only where flat
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        slopes[1:-1] = np.where(flat, 0.0, 1.0 / whmean)

    def edge(h0, h1, m0, m1):
        d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
            return 3.0 * m0
        return d

    slopes[0] = edge(h[0], h[1], m[0], m[1])
    slopes[-1] = edge(h[-1], h[-2], m[-1], m[-2])
    return slopes


def build_kernel_table(N: int, s: float, rho_min: float, rho_max: float,
                       count: int) -> KernelTable:
    """Tabulate the kernel on a log-spaced grid and fit its asymptotics.

    Rejects the table (NumericalError) if the fitted near-field
    exponent or far-field rate falls outside the structural bands; that
    signals a kernel implementation bug, not bad input.
    """
    if not (0.0 < rho_min < rho_max):
        raise DomainError(f"need 0 < rho_min < rho_max, got [{rho_min}, {rho_max}]")
    if not math.isfinite(rho_max):
        raise DomainError("kernel radius must be finite and > 0")
    if count < 16:
        raise DomainError(f"table needs at least 16 points, got {count}")
    grid = np.geomspace(rho_min, rho_max, int(count))
    vals = np.asarray(kernel(N, s, grid), dtype=float)
    if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
        raise NumericalError("kernel evaluation produced non-positive values")

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
    a, b = (N - 1.0) / 2.0, (1.0 + 2.0 * s) / 2.0
    return 0.5 * math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


@dataclass(frozen=True)
class ReducedKernel:
    """Angularly reduced two-point kernel on a radial grid.

    W[i, j] is the full sphere-pair density, volume weights included:
    the seminorm of a radial profile is the double r-integral of
    (u(r1) - u(r2))^2 W(r1, r2).  The diagonal is not tabulated (the
    angular integral diverges there); amplitude carries the near-diagonal
    law W(r1, r2) ~ amplitude(r) |r1 - r2|^-(1+2s) instead.
    """

    dim: int
    order: float
    r_grid: np.ndarray
    W: np.ndarray
    # the fitted near-field kernel amplitude times the exact angular moment
    prefactor: float

    def amplitude(self, r):
        return self.prefactor * np.sinh(np.asarray(r, dtype=float)) ** (self.dim - 1)

    def validate(self):
        """NumericalError unless W is square on the grid, symmetric,
        positive and finite off the diagonal, and its adjacent pairs follow
        the near-diagonal law within 10% where that law is accurate:
        mid >= 10 delta and (N - 1) delta <= 0.1.  Grids of 128 or fewer
        nodes have no pair in that window, so there the law is not
        compared at all."""
        n = self.r_grid.size
        if self.W.shape != (n, n):
            raise NumericalError("weight matrix shape does not match grid")
        if not np.array_equal(self.W, self.W.T):
            raise NumericalError("weight matrix is not symmetric")
        off = ~np.eye(n, dtype=bool)
        bad = np.argwhere(off & ~((self.W > 0.0) & np.isfinite(self.W)))
        if bad.size:
            i, j = bad[0]
            raise NumericalError(
                f"off-diagonal weight {self.W[i, j]:.6g} is not positive and finite "
                f"at (r1, r2) = ({self.r_grid[i]:.6g}, {self.r_grid[j]:.6g})")
        # near-diagonal law: adjacent pairs should match it where the
        # separation is small relative to the radius (angular slab regime)
        # and where the law's own error, about c(s) (N - 1) delta with
        # c(s) <= 0.4, stays well inside the 10% band
        lo, hi = self.r_grid[1:-1], self.r_grid[2:]
        delta, mid = hi - lo, 0.5 * (hi + lo)
        inside = (mid >= 10.0 * delta) & ((self.dim - 1) * delta <= 0.1)
        lo, hi, delta, mid = lo[inside], hi[inside], delta[inside], mid[inside]
        model = self.amplitude(mid) * delta ** -(1.0 + 2.0 * self.order)
        actual = np.diagonal(self.W, 1)[1:][inside]
        off_law = np.flatnonzero(np.abs(actual - model) > 0.10 * model)
        if off_law.size:
            k = off_law[0]
            raise NumericalError(
                f"near-diagonal weight off by {abs(actual[k] / model[k] - 1.0):.2%} "
                f"at r = {mid[k]:.4g} (pair {lo[k]:.6g}, {hi[k]:.6g})")


# Levels of the per-pair angular rule (see _angular_weights).  W is
# assembled in blocks of _BLOCK_ROWS rows (pair arrays of n x _BLOCK_ROWS),
# which _level_groups cuts into L2-sized calls; neither size moves W.
_LOWER_EXTRA_LEVELS = 4
_UPPER_LEVELS = 4
_BLOCK_ROWS = 32


def _half_integral(N, r1, r2, frac_nodes, frac_w, from_lower, kernel_eval):
    """One half of the distance integral of _angular_weights, on nodes and
    weights given as fractions of the half's span."""
    delta = (r2 - r1)[:, None]
    sigma = (r2 + r1)[:, None]
    b_fac = np.sinh(r1) * np.sinh(r2)
    span = np.sqrt(0.5 * (sigma - delta))
    # v^2 = d - delta (lower) or v^2 = Sigma - d (upper)
    v = span * frac_nodes
    v2 = v * v
    d = delta + v2 if from_lower else sigma - v2
    body = kernel_eval(d)
    body *= (sin2 := np.sinh(d))
    body *= v
    if N > 3:
        # sin^2(gamma) = 4 sinh((d+delta)/2) sinh((d-delta)/2)
        #                 * sinh((Sigma+d)/2) sinh((Sigma-d)/2) / B^2, in place
        gap = np.subtract(sigma, d, out=v) if from_lower else np.subtract(d, delta, out=v)
        near_gap, far_gap = (v2, gap) if from_lower else (gap, v2)
        for g in (np.add(d, delta, out=sin2), near_gap, np.add(sigma, d, out=d), far_gap):
            g *= 0.5
            np.sinh(g, out=g)
        for g in (near_gap, d, far_gap):
            sin2 *= g
        sin2 *= 4.0 / b_fac[:, None] ** 2
        np.maximum(sin2, 0.0, out=sin2)
        sin2 **= (N - 3) / 2.0
        body *= sin2
    # a per-row sum (not a matrix-vector product) ignores the call's other rows
    body *= frac_w
    return 2.0 * span[:, 0] / b_fac * body.sum(axis=1)


def _angular_weights(N, r1, r2, kernel_eval):
    """Vectorized A(r1, r2) = integral over the sphere angle of the kernel.

    r1, r2 are equal-length arrays of node pairs with r1 < r2.  Uses the
    distance substitution: with cosh d = cosh r1 cosh r2 - B cos(gamma),
    the angle integral of K_s(d) sin^(N-2)(gamma) becomes an integral in d
    over [delta, Sigma] against sin^(N-3)(gamma(d)) sinh(d) / B, and the
    sqrt substitutions at both endpoints keep every factor regular (N >= 3).

    Each half of [delta, Sigma] spans sqrt(r1) in its sqrt variable and is
    integrated by GL(8) on geometric panels.  In v = sqrt(d - delta) the
    nearest complex singularities sit at v = +-i sqrt(delta), so, as in the
    near part of _even_integral, the lower half grades toward v = 0 with
    max(0, ceil(log2(sqrt(r1 / delta)))) + _LOWER_EXTRA_LEVELS levels; the
    upper half, in w = sqrt(Sigma - d), is smooth and takes _UPPER_LEVELS.
    Pairs with the same level count share array calls (_level_groups).
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    levels = np.maximum(np.ceil(0.5 * np.log2(r1 / (r2 - r1))), 0.0).astype(int)
    levels += _LOWER_EXTRA_LEVELS
    upper = geometric_panels(1.0, _UPPER_LEVELS)
    out = np.empty_like(r1)
    for k, x, w in _level_groups(levels):
        out[k] = (_half_integral(N, r1[k], r2[k], x, w, True, kernel_eval)
                  + _half_integral(N, r1[k], r2[k], *upper, False, kernel_eval))
    return out


def build_reduced_kernel(N: int, s: float, r_grid) -> ReducedKernel:
    """Assemble the angularly reduced two-point kernel on an increasing
    positive radial grid (typically the cell midpoints of a RadialGrid).

    Every pair of the upper triangle is integrated by the graded angular
    rule of _angular_weights, whose depth follows the pair's separation
    (about 82 kernel evaluations per pair on a 400-node grid).  Kernel
    values along it come from a monotone log-log interpolant of a dedicated
    dense table, which keeps the cost independent of the parity of N.  W
    depends neither on the L2-sized array calls (_CHUNK_NODES) it runs in
    nor on which of the processes of _split runs its row blocks.
    The result is checked with ReducedKernel.validate before it is returned.
    """
    if N < 3:
        raise DomainError(f"reduced kernel needs dimension >= 3, got {N}")
    r = np.asarray(r_grid, dtype=float)
    if r.ndim != 1 or r.size < 4:
        raise DomainError("reduced kernel needs a 1-d grid with >= 4 points")
    if np.any(r <= 0.0) or np.any(np.diff(r) <= 0.0):
        raise DomainError("reduced-kernel grid must be positive and increasing")

    # the table reaches below NEAR_WINDOW_MAX on every grid, so the fitted
    # near-field amplitude of the near-diagonal law always exists
    d_lo = min(0.45 * float(np.diff(r).min()), 0.2 * NEAR_WINDOW_MAX)
    d_hi = 2.10 * float(r[-1])
    table = build_kernel_table(N, s, d_lo, d_hi, 800)
    kernel_eval = table.interpolator()

    n = r.size
    # omega_{N-1} * omega_{N-2}
    surface = sphere_area(N) * sphere_area(N - 1)
    vol = np.sinh(r) ** (N - 1)

    W = np.frombuffer(mmap.mmap(-1, 8 * n * n)).reshape(n, n)  # zeros, shared by _split

    def block(start):
        # the pairs (i, j > i) of rows start, ..., start + _BLOCK_ROWS - 1
        i, j = np.nonzero(np.triu(np.ones((_BLOCK_ROWS, n), dtype=bool), start + 1))
        i += start
        pair = surface * vol[i] * vol[j] * _angular_weights(N, r[i], r[j], kernel_eval)
        W[i, j] = pair
        W[j, i] = pair

    _split(block, range(0, n - 1, _BLOCK_ROWS), n)
    prefactor = surface * table.near_amplitude * _sin_integral_const(N, s)
    rk = ReducedKernel(int(N), float(s), r, W, float(prefactor))
    rk.validate()
    return rk
