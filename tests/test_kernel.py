import errno
import functools
import json
import math
import mmap
import os
import signal
import sys
import time
import types
import warnings

import numpy as np
import pytest

from hypfrac._goldens import ODD_KERNEL_FD_ORACLE
from hypfrac.cli import main as cli_main
from hypfrac.errors import DomainError, NumericalError
from hypfrac.funcspace import make_grid
from hypfrac import kernel as kernel_module
from hypfrac.kernel import (BesselTerm, KernelTable, ReducedKernel,
                            apply_operator, bessel_base, build_kernel_table,
                            build_reduced_kernel, kernel, normalizing_constant,
                            _angular_weights, _even_ladder_eval, _half_integral,
                            _ladder, _pchip_slopes)
from hypfrac.pipeline import build_forms
from hypfrac.specfun import geometric_panels, integrate_adaptive

# C(3, 1/2) evaluated from the Gamma-factor product at 40 digits; the
# closed form collapses to 1/(2 pi^2)
C_3_HALF = 0.050660591821168885722


def test_constant_golden():
    assert normalizing_constant(3, 0.5) == pytest.approx(C_3_HALF, rel=1e-14)
    assert normalizing_constant(3, 0.5) == pytest.approx(
        1.0 / (2.0 * math.pi ** 2), rel=1e-14)


def test_constant_positive_on_grid():
    for n in range(2, 7):
        for s in np.arange(0.1, 0.95, 0.1):
            assert normalizing_constant(n, float(s)) > 0.0


def test_constant_continuity_in_s():
    for s in (0.2, 0.5, 0.8):
        a = normalizing_constant(3, s)
        b = normalizing_constant(3, s + 1e-6)
        assert abs(b - a) < 1e-4 * a


def test_constant_domain_errors():
    with pytest.raises(DomainError):
        normalizing_constant(3, 0.0)
    with pytest.raises(DomainError):
        normalizing_constant(3, 1.0)
    with pytest.raises(DomainError):
        normalizing_constant(1, 0.5)


def test_operator_single_application():
    from scipy.special import kv

    ts = apply_operator(bessel_base(3, 0.5))
    assert len(ts.terms) == 1
    t = ts.terms[0]
    # a * rho^-nu K_{nu+1}(a rho) / sinh(rho) with a = 1, nu = 1
    assert t == BesselTerm(1.0, 1, 1, 0, -1.0)
    rho = 1.3
    expected = rho ** -1 * kv(2.0, rho) / math.sinh(rho)
    assert ts.evaluate(rho) == pytest.approx(expected, rel=1e-13)


def test_operator_matches_finite_difference():
    ts = bessel_base(5, 0.75)
    applied = apply_operator(ts)
    h = 1e-5
    for rho in (0.5, 1.0, 3.0):
        fd = -(ts.evaluate(rho + h) - ts.evaluate(rho - h)) / (2.0 * h) \
            / math.sinh(rho)
        assert applied.evaluate(rho) == pytest.approx(fd, rel=1e-6)


def test_operator_composition_associative():
    once_twice = apply_operator(apply_operator(bessel_base(5, 0.5)))
    rho = np.array([0.3, 1.0, 4.0])
    # composing the operator twice is the same single computation; check
    # the evaluation agrees with nested finite differencing of one level
    inner = apply_operator(bessel_base(5, 0.5))
    h = 1e-5
    for r in rho:
        fd = -(inner.evaluate(r + h) - inner.evaluate(r - h)) / (2.0 * h) \
            / math.sinh(r)
        assert once_twice.evaluate(r) == pytest.approx(fd, rel=1e-6)


def test_odd_kernel_against_fd_oracle():
    for (n_dim, s), rows in ODD_KERNEL_FD_ORACLE.items():
        rho = np.array([r for r, _ in rows])
        ref = np.array([v for _, v in rows])
        got = np.asarray(kernel(n_dim, s, rho))
        assert np.max(np.abs(got / ref - 1.0)) < 1e-6


def test_odd_kernel_decreasing():
    rho = np.arange(0.1, 5.01, 0.1)
    vals = kernel(3, 0.5, rho)
    assert np.all(np.diff(vals) < 0.0)


def test_odd_kernel_near_field_slope():
    rho = np.geomspace(1e-4, 1e-2, 40)
    vals = np.asarray(kernel(3, 0.5, rho))
    slope = np.polyfit(np.log(rho), np.log(vals), 1)[0]
    assert abs(slope - (-4.0)) < 0.05


def test_odd_kernel_underflow_flag():
    # values below the underflow floor are flushed to exactly zero
    assert kernel(5, 0.75, 250.0) == 0.0
    assert kernel(5, 0.75, 1.0) > 0.0
    # the even form flushes through the same floor, and past the radial
    # cutoff its value is exactly zero
    assert kernel(4, 0.5, 300.0) == 0.0
    assert np.array_equal(kernel(4, 0.5, np.array([1.0, 700.0]))[1:], [0.0])


def test_even_kernel_far_field_raises_no_warning():
    # between rho of about 355 and the cutoff the near-part substitution
    # must not overflow on its way to the flushed zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel(4, 0.5, 360.0) == 0.0
        assert np.array_equal(kernel(4, 0.5, np.array([400.0, 599.0])), [0.0, 0.0])


def test_odd_kernel_domain():
    # kernel() checks N, s and rho once, before either parity body runs
    for n_dim, s, rho, message in (
            (1, 0.5, 1.0, "dimension must be an integer >= 2"),
            (3.5, 0.5, 1.0, "dimension must be an integer >= 2"),
            (3, 0.0, 1.0, "fractional order must lie in"),
            (4, math.nan, 1.0, "fractional order must lie in"),
            (3, 0.5, 0.0, "kernel radius must be finite and > 0"),
            (3, 0.5, -1.0, "kernel radius must be finite and > 0"),
            (4, 0.5, np.array([1.0, math.inf]), "kernel radius must be finite and > 0"),
            (4, 0.5, math.nan, "kernel radius must be finite and > 0")):
        with pytest.raises(DomainError, match=message):
            kernel(n_dim, s, rho)


def test_even_kernel_positive_decreasing():
    rho = np.geomspace(1e-3, 15.0, 24)
    vals = np.asarray(kernel(2, 0.5, rho))
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


def test_even_kernel_far_field_rate():
    rho = np.linspace(10.0, 30.0, 9)
    for n_dim, s in ((2, 0.5), (4, 0.25)):
        vals = np.asarray(kernel(n_dim, s, rho))
        # log K + (N-1) rho + (1+s) log rho stays bounded on the window
        corrected = np.log(vals) + (n_dim - 1.0) * rho + (1.0 + s) * np.log(rho)
        assert np.ptp(corrected) < 0.2


def _even_kernel_oracle(n_dim, s, rho):
    """The even-N kernel at one rho by adaptive quadrature at rel_tol 1e-12:
    u^2 = cosh r - cosh rho on [rho, rho + 1], and the plain integrand on
    [rho + 1, inf) mapped to [0, 1) by r = rho + 1 + t/(1 - t)."""
    cm1_rho = 2.0 * math.sinh(rho / 2.0) ** 2
    u1 = math.sqrt(math.cosh(rho + 1.0) - math.cosh(rho))

    def near(u):
        z = cm1_rho + u * u
        return 2.0 * _even_ladder_eval(n_dim, s, np.log1p(z + np.sqrt(z * (z + 2.0))))

    def far(t):
        r = rho + 1.0 + t / (1.0 - t)
        safe = np.minimum(r, 600.0)
        body = np.sinh(safe) / np.sqrt(np.cosh(safe) - math.cosh(rho))
        return np.where(r > 600.0, 0.0, body * _even_ladder_eval(n_dim, s, r)) / (1.0 - t) ** 2

    near_val, _ = integrate_adaptive(near, 0.0, u1, tol=0.0, rel_tol=1e-12)
    far_val, _ = integrate_adaptive(far, 0.0, 1.0, tol=near_val * 1e-12, rel_tol=1e-12)
    return normalizing_constant(n_dim, s) / math.sqrt(math.pi) * (near_val + far_val)


def test_even_kernel_matches_adaptive_oracle():
    rho = np.geomspace(1e-5, 45.0, 15)
    for n_dim in (2, 4, 6):
        for s in (0.25, 0.5, 0.75):
            got = np.asarray(kernel(n_dim, s, rho))
            ref = np.array([_even_kernel_oracle(n_dim, s, float(r)) for r in rho])
            assert np.max(np.abs(got / ref - 1.0)) < 1e-10, (n_dim, s)
            assert np.array_equal(kernel(n_dim, s, rho.reshape(3, 5)),
                                  got.reshape(3, 5))
            # a rho evaluated alone matches its entry in the array call
            for k in (0, 7, 14):
                assert kernel(n_dim, s, float(rho[k])) == pytest.approx(
                    got[k], rel=1e-14, abs=0.0)


def test_dispatch_matches_direct():
    # odd N takes the ladder form directly; even N the integral, whose
    # oracle test is test_even_kernel_matches_adaptive_oracle
    rho = np.array([0.05, 1.0, 7.0])
    for n_dim in (3, 5):
        ladder = _ladder(n_dim, 0.5, (n_dim - 1) // 2)
        direct = normalizing_constant(n_dim, 0.5) * ladder.evaluate(rho)
        assert np.array_equal(kernel(n_dim, 0.5, rho), direct)
        assert kernel(n_dim, 0.5, 1.0) == direct[1]
    assert isinstance(kernel(4, 0.5, 1.0), float)
    assert kernel(4, 0.5, 1.0) == pytest.approx(_even_kernel_oracle(4, 0.5, 1.0), rel=1e-10)


def test_kernel_positivity_matrix():
    rho = np.geomspace(1e-3, 20.0, 60)
    for n_dim in (2, 3, 4, 5):
        for s in (0.25, 0.5, 0.75):
            vals = np.asarray(kernel(n_dim, s, rho))
            assert np.all(vals > 0.0), (n_dim, s)


def test_kernel_derivative_negative():
    h = 1e-6
    for n_dim, s in ((3, 0.5), (5, 0.25)):
        for rho in (0.1, 1.0, 5.0):
            fd = (kernel(n_dim, s, rho + h) - kernel(n_dim, s, rho - h)) / (2 * h)
            assert fd < 0.0


def test_table_build_and_fits():
    table = build_kernel_table(3, 0.5, 1e-4, 30.0, 400)
    assert abs(table.near_exponent - (-4.0)) < 0.05
    assert abs(table.far_rate - 2.0) < 0.02
    assert np.all(np.diff(table.values) < 0.0)


def test_table_validation_errors():
    with pytest.raises(DomainError):
        build_kernel_table(3, 0.5, 1e-4, 30.0, 8)
    with pytest.raises(DomainError):
        build_kernel_table(3, 0.5, 2.0, 1.0, 100)


def test_table_csv_format(tmp_path):
    out = tmp_path / "table.csv"
    assert cli_main(["kernel", "--dim", "3", "--s", "0.5", "--rho-min", "1e-2",
                     "--rho-max", "10", "--points", "32", "--out", str(out)]) == 0
    table = build_kernel_table(3, 0.5, 1e-2, 10.0, 32)
    lines = out.read_text().splitlines()
    assert lines[0] == "rho,kernel_value"
    assert len(lines) == 33
    back = np.loadtxt(out, delimiter=",", skiprows=1)
    assert back[0, 0] == pytest.approx(1e-2, rel=1e-15)
    assert np.array_equal(back[:, 0], table.rho_grid)
    assert np.array_equal(back[:, 1], table.values)


@functools.lru_cache(maxsize=1)
def _leggauss(n_gauss):
    return np.polynomial.legendre.leggauss(n_gauss)


def _direct_angular_weight(n_dim, s, r1, r2, n_gauss=4000):
    """Brute-force angular reduction at a single node pair."""
    from hypfrac.geometry import sphere_area

    x, w = _leggauss(n_gauss)
    gamma = 0.5 * math.pi * (x + 1.0)
    wg = 0.5 * math.pi * w
    chd = math.cosh(r1) * math.cosh(r2) \
        - math.sinh(r1) * math.sinh(r2) * np.cos(gamma)
    z = np.maximum(chd - 1.0, 1e-300)
    d = np.log1p(z + np.sqrt(z * (z + 2.0)))
    vals = np.asarray(kernel(n_dim, s, d))
    ang = float(np.sum(vals * np.sin(gamma) ** (n_dim - 2) * wg))
    return (sphere_area(n_dim) * sphere_area(n_dim - 1)
            * math.sinh(r1) ** (n_dim - 1) * math.sinh(r2) ** (n_dim - 1) * ang)


@pytest.fixture(scope="module")
def reduced3():
    grid = np.linspace(0.05, 8.0, 120)
    return build_reduced_kernel(3, 0.5, grid)


def test_reduced_kernel_symmetry(reduced3):
    assert np.array_equal(reduced3.W, reduced3.W.T)


def test_reduced_kernel_positive_offdiag(reduced3):
    off = ~np.eye(reduced3.r_grid.size, dtype=bool)
    assert np.all(reduced3.W[off] > 0.0)


def test_reduced_kernel_decay_from_row(reduced3):
    # fixed r1: weights decrease in |r2 - r1| for well-separated nodes
    i = 30
    row = reduced3.W[i, i + 5:]
    assert np.all(np.diff(row) < 0.0)


def test_reduced_kernel_matches_direct_quadrature(reduced3):
    grid = reduced3.r_grid
    reduced4 = build_reduced_kernel(4, 0.5, grid)
    for rk in (reduced3, reduced4):
        for i, j in ((10, 40), (30, 31), (20, 90)):
            direct = _direct_angular_weight(rk.dim, 0.5, grid[i], grid[j])
            assert rk.W[i, j] == pytest.approx(direct, rel=1e-5), (rk.dim, i, j)


def _graded_rule_pairs():
    """Pairs of the default 400-node grid's midpoints (r1 < 1e-3, the
    smallest spacing, r2 near R_max = 20, far-out adjacent cells) and
    large r1 with delta << r1."""
    r = make_grid(4, r_max=20.0, n=400).cell_midpoints
    index = ((0, 1), (1, 2), (2, 3), (0, 398), (1, 200), (0, 50), (1, 3),
             (100, 101), (150, 152), (199, 200), (250, 251), (300, 301),
             (396, 397), (397, 398), (200, 398), (50, 300), (350, 398),
             (120, 260), (10, 11))
    r1 = [r[i] for i, _ in index] + [15.0, 8.0, 19.0]
    r2 = [r[j] for _, j in index] + [15.0 + 1e-4, 8.0 + 1e-3, 19.0 + 1e-2]
    return np.array(r1), np.array(r2)


def _deep_rule(N, r1, r2, kernel_eval):
    """The angular integrand of _angular_weights under a deep fixed layout
    of 26 lower and 14 upper levels."""
    return (_half_integral(N, r1, r2, *geometric_panels(1.0, 26), True, kernel_eval)
            + _half_integral(N, r1, r2, *geometric_panels(1.0, 14), False, kernel_eval))


@pytest.mark.parametrize("N", [3, 4, 5])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_graded_angular_rule_matches_deep_rule(N, s):
    # the per-pair rule against the deep rule, both on the exact kernel
    r1, r2 = _graded_rule_pairs()
    exact = lambda d: kernel(N, s, d)  # noqa: E731
    got = _angular_weights(N, r1, r2, exact)
    deep = _deep_rule(N, r1, r2, exact)
    assert r1.size >= 20 and r1.min() < 1e-3 and r2.max() > 19.5
    assert np.all(got > 0.0)
    assert np.abs(got / deep - 1.0).max() <= 1e-10


@pytest.mark.parametrize("N,r_max", [(3, 20.0), (4, 20.0), (5, 12.0)])
def test_graded_angular_rule_on_table_interpolant(N, r_max):
    # the same check on the interpolated table build_reduced_kernel uses,
    # whose knots, not the kernel, set the depth the rule needs; the block
    # of far-out pairs is where one lower level less drifts past 1e-9
    r = make_grid(N, r_max=r_max, n=400).cell_midpoints
    table = build_kernel_table(N, 0.5, min(0.45 * np.diff(r).min(), 2e-3),
                               2.1 * r[-1], 800)
    i, j = (k.ravel() for k in np.meshgrid(np.arange(290, 341), np.arange(380, 399)))
    r1, r2 = r[i], r[j]
    ev = table.interpolator()
    got = _angular_weights(N, r1, r2, ev)
    deep = _deep_rule(N, r1, r2, ev)
    assert np.abs(got / deep - 1.0).max() <= 1e-10


@pytest.mark.parametrize("N", [3, 4, 5])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_table_interpolant_matches_scipy_pchip(N, s):
    # the direct-index Horner evaluation against scipy's PCHIP on the same
    # log-log data: slopes at every knot, values at random points (the
    # range extended past both ends), at every knot and at both ends
    from scipy.interpolate import PchipInterpolator

    r = make_grid(N, r_max=20.0, n=400).cell_midpoints
    table = build_kernel_table(N, s, min(0.45 * np.diff(r).min(), 2e-3), 2.1 * r[-1], 800)
    x, y = np.log(table.rho_grid), np.log(table.values)
    ref = PchipInterpolator(x, y)
    assert np.abs(_pchip_slopes(x, y) / ref.derivative()(x) - 1.0).max() <= 1e-13
    rng = np.random.default_rng(7)
    lx = np.concatenate([rng.uniform(x[0] - 0.5, x[-1] + 0.5, 4096), x,
                         [x[0], x[-1]]])
    got = table.interpolator()(np.exp(lx).reshape(-1, 2))
    assert got.shape == (lx.size // 2, 2)
    assert np.abs(got.ravel() / np.exp(ref(lx)) - 1.0).max() <= 1e-13


def test_pchip_slopes_flat_and_clamped_branches():
    # secants 1, -5, 2, 0, 0, 5, 1 on steps of 0.25: sign changes and a zero
    # secant give zero interior slopes, the left end rule (4) is clamped to
    # 3 x secant, the right one (-1) has the wrong sign and is set to zero
    from scipy.interpolate import PchipInterpolator

    x = np.arange(8.0) * 0.25 - 3.0
    y = np.concatenate([[0.0], np.cumsum([1.0, -5.0, 2.0, 0.0, 0.0, 5.0, 1.0]) * 0.25])
    slopes = _pchip_slopes(x, y)
    assert slopes[0] == 3.0 and slopes[-1] == 0.0
    assert np.all(slopes[1:6] == 0.0) and slopes[6] > 0.0
    ref = PchipInterpolator(x, y)
    assert np.abs(slopes - ref.derivative()(x)).max() <= 1e-13 * np.abs(slopes).max()
    flat = KernelTable(4, 0.5, np.exp(x), np.exp(y), math.nan, math.nan, math.nan)
    lx = np.linspace(x[0] - 0.1, x[-1] + 0.1, 997)
    assert np.abs(flat.interpolator()(np.exp(lx)) / np.exp(ref(lx)) - 1.0).max() <= 1e-13


def test_table_rejects_grid_not_uniform_in_log_rho():
    # interpolator() finds intervals by a direct index, which a grid built
    # another way would turn into silently wrong values
    table = build_kernel_table(3, 0.5, 1e-3, 10.0, 64)
    table.validate()
    grid = np.linspace(1e-3, 10.0, 64)
    other = KernelTable(3, 0.5, grid, kernel(3, 0.5, grid), table.near_exponent,
                        table.far_rate, table.near_amplitude)
    with pytest.raises(NumericalError, match="not uniform in log rho"):
        other.validate()


def test_reduced_kernel_pair_node_count(tmp_path, monkeypatch):
    # the graded rule spends at most 90 kernel evaluations per pair of an
    # N = 4, 400-node W (a fixed 18 + 8 level layout spends 224)
    count = [0]
    interpolator = KernelTable.interpolator

    def counted_interpolator(self):
        evaluate = interpolator(self)

        def counted(rho):
            out = evaluate(rho)
            count[0] += out.size
            return out

        return counted

    monkeypatch.setattr(KernelTable, "interpolator", counted_interpolator)
    # helpers would count in their own memory: build in this process
    monkeypatch.setattr(kernel_module, "_FORK_MIN_ROWS", sys.maxsize)
    grid, _ = build_forms(4, 0.5, r_max=20.0, n=400, cache_dir=tmp_path)
    pairs = (grid.nodes.size - 1) * (grid.nodes.size - 2) // 2
    assert pairs == 79401
    assert 0 < count[0] <= 90 * pairs


@pytest.fixture(scope="module")
def pairs4():
    """(r1, r2, evaluate): every pair of the N = 4, 400-node W, in
    build_reduced_kernel's order, and its table interpolant."""
    r = make_grid(4, r_max=20.0, n=400).cell_midpoints
    i, j = np.triu_indices(r.size, 1)
    table = build_kernel_table(4, 0.5, min(0.45 * np.diff(r).min(), 2e-3), 2.1 * r[-1], 800)
    return r[i], r[j], table.interpolator()


def test_angular_weight_independent_of_call_mates(pairs4, monkeypatch):
    # a pair's weight is a per-row sum of its own nodes: permuting the
    # pairs permutes the weights bit for bit, and neither the chunk size
    # nor the block size moves W (a matrix-vector product for the node sum
    # moved 47 of these 79401 weights under the permutation)
    r1, r2, ev = pairs4
    perm = np.random.default_rng(20).permutation(r1.size)
    got = _angular_weights(4, r1, r2, ev)
    assert np.array_equal(_angular_weights(4, r1[perm], r2[perm], ev), got[perm])
    r = make_grid(4, r_max=20.0, n=128).cell_midpoints
    ref = build_reduced_kernel(4, 0.5, r).W
    for chunk in (1 << 12, 1 << 14, 1 << 16):
        for rows in (16, 128):
            monkeypatch.setattr(kernel_module, "_CHUNK_NODES", chunk)
            monkeypatch.setattr(kernel_module, "_BLOCK_ROWS", rows)
            assert np.array_equal(build_reduced_kernel(4, 0.5, r).W, ref), (chunk, rows)


def test_angular_calls_stay_within_chunk_bound(pairs4, monkeypatch):
    # each half integral of W holds at most _CHUNK_NODES (pair x node)
    # entries; the upper half reuses the lower half's rows with its own
    # 40 nodes, never more than the lower half's
    r1, r2, ev = pairs4
    sizes = []

    def recorded(N, a, b, frac_nodes, *args):
        sizes.append((a.size, frac_nodes.size))
        return _half_integral(N, a, b, frac_nodes, *args)

    monkeypatch.setattr(kernel_module, "_half_integral", recorded)
    _angular_weights(4, r1, r2, ev)
    lower, upper = sizes[::2], sizes[1::2]
    assert sum(rows for rows, _ in lower) == r1.size
    assert {nodes for _, nodes in upper} == {40}
    assert max(rows * nodes for rows, nodes in sizes) <= kernel_module._CHUNK_NODES
    assert all(a[0] == b[0] and a[1] >= b[1] for a, b in zip(lower, upper))


def _gather_horner(table, rho):
    """The interpolant as one gather per coefficient and a Horner
    expression of fresh temporaries: the reference for interpolator()."""
    x, y = np.log(table.rho_grid), np.log(table.values)
    d = _pchip_slopes(x, y)
    h = np.diff(x)
    m = np.diff(y) / h
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    c3, c2, c1, c0, xk = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1], x[:-1]
    lx = np.log(rho)
    k = np.clip((lx - x[0]) / ((x[-1] - x[0]) / (x.size - 1)), 0, x.size - 2).astype(np.intp)
    u = lx - xk[k]
    return np.exp(((c3[k] * u + c2[k]) * u + c1[k]) * u + c0[k])


def test_interpolant_in_place_matches_gather_horner():
    # at the knots, the interval midpoints and beyond both ends, within
    # 2 ulp of the reference; the input is left as it was, and 0-d and
    # 2-d inputs keep their shapes
    table = build_kernel_table(4, 0.5, 1e-3, 40.0, 200)
    x = np.log(table.rho_grid)
    lx = np.concatenate([x, 0.5 * (x[1:] + x[:-1]), x[0] - [2.0, 1.0, 0.1, 1e-9],
                         x[-1] + [1e-9, 0.1, 1.0]])
    rho = np.exp(lx).reshape(-1, 2)
    before = rho.copy()
    evaluate = table.interpolator()
    got = evaluate(rho)
    assert np.array_equal(rho, before)
    assert got.shape == rho.shape
    want = _gather_horner(table, rho)
    assert np.all(np.abs(got - want) <= 2.0 * np.spacing(want))
    scalar = evaluate(np.float64(rho[3, 1]))
    assert np.shape(scalar) == () and abs(scalar - want[3, 1]) <= 2.0 * np.spacing(want[3, 1])


def test_reduced_kernel_near_diagonal_exponent():
    # refined local grid around r = 2: adjacent weights follow the
    # |r1 - r2|^-(1+2s) law
    base = np.linspace(1.0, 3.0, 400)
    rk = build_reduced_kernel(3, 0.5, base)
    mid = 200
    deltas, vals = [], []
    for off in (1, 2, 4, 8):
        deltas.append(base[mid + off] - base[mid])
        vals.append(rk.W[mid, mid + off])
    slope = np.polyfit(np.log(deltas), np.log(vals), 1)[0]
    assert abs(-slope - 2.0) < 0.2  # exponent 1 + 2s = 2 within 10%


def test_reduced_kernel_validates(reduced3):
    reduced3.validate()
    r = reduced3.r_grid
    assert np.array_equal(reduced3.amplitude(r), reduced3.prefactor * np.sinh(r) ** 2)


def test_reduced_kernel_rejects_scaled_adjacent_weights():
    # (N - 1) delta = 0.034 on this grid puts its adjacent pairs in the
    # window of the near-diagonal law, which then catches a 15% error
    r = np.linspace(1.0, 3.0, 120)
    rk = build_reduced_kernel(3, 0.5, r)
    W = rk.W.copy()
    k = np.arange(r.size - 1)
    W[k, k + 1] *= 0.85
    W[k + 1, k] *= 0.85
    with pytest.raises(NumericalError, match="near-diagonal weight off by"):
        ReducedKernel(rk.dim, rk.order, r, W, rk.prefactor).validate()


@pytest.mark.parametrize("N,s,r_max,n", [(5, 0.5, 12.0, 96), (5, 0.5, 12.0, 128),
                                         (4, 0.25, 20.0, 96)])
def test_reduced_kernel_accepts_coarse_grids(tmp_path, N, s, r_max, n):
    # the near-diagonal law's own error grows like (N - 1) delta, so these
    # correct W were once rejected; they have no pair in its window now
    grid, forms = build_forms(N, s, r_max=r_max, n=n, cache_dir=tmp_path)
    assert np.all(np.isfinite(forms.nonlocal_mat))


def test_reduced_kernel_names_a_nonpositive_pair(reduced3):
    W = reduced3.W.copy()
    W[17, 52] = W[52, 17] = 0.0
    r = reduced3.r_grid
    bad = ReducedKernel(reduced3.dim, reduced3.order, r, W, reduced3.prefactor)
    with pytest.raises(NumericalError) as err:
        bad.validate()
    assert f"({r[17]:.6g}, {r[52]:.6g})" in str(err.value)


def test_kernel_submodule_not_shadowed():
    # the package must not re-export a name that hides its kernel module
    import hypfrac.kernel as k
    assert isinstance(k, types.ModuleType)
    assert k.build_reduced_kernel is build_reduced_kernel


def test_reduced_kernel_rejects_bad_grid():
    with pytest.raises(DomainError):
        build_reduced_kernel(3, 0.5, np.array([0.0, 1.0, 2.0, 3.0]))
    with pytest.raises(DomainError):
        build_reduced_kernel(3, 0.5, np.array([1.0, 0.5, 2.0, 3.0]))
    # the angular reduction is written for N >= 3
    with pytest.raises(DomainError):
        build_reduced_kernel(2, 0.5, np.array([0.5, 1.0, 2.0, 3.0]))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Counts os.fork calls, with two usable CPUs whatever the host has."""
    count = [0]
    fork = os.fork

    def counted():
        count[0] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return count


@pytest.mark.parametrize("cpus", [2, 3])
def test_split_build_matches_one_process(forks, monkeypatch, cpus):
    # each weight and table value is its own row of its own array call, so
    # the process that computes it cannot move a bit
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    grids = {N: make_grid(N, r_max=20.0, n=160).cell_midpoints for N in (3, 4)}
    rho = np.geomspace(2e-3, 42.0, 800)
    split = [build_reduced_kernel(N, 0.5, r).W for N, r in grids.items()]
    split.append(kernel(4, 0.5, rho))
    # N=3 W; N=4 W and its table; the N=4 kernel
    assert forks[0] == 4 * (cpus - 1)
    _no_child_left()
    monkeypatch.setattr(kernel_module, "_FORK_MIN_ROWS", sys.maxsize)
    alone = [build_reduced_kernel(N, 0.5, r).W for N, r in grids.items()]
    alone.append(kernel(4, 0.5, rho))
    assert forks[0] == 4 * (cpus - 1)
    for a, b in zip(split, alone):
        assert a.tobytes() == b.tobytes()


def test_small_builds_stay_in_one_process(forks):
    r = make_grid(4, r_max=20.0, n=64).cell_midpoints
    build_reduced_kernel(4, 0.5, r)
    kernel(4, 0.5, np.geomspace(1e-2, 10.0, kernel_module._FORK_MIN_ROWS - 1))
    # the 800-point table of the build is split
    assert forks[0] == 1


@pytest.mark.parametrize("row", [5, 40])
def test_helper_error_is_the_one_process_error(forks, monkeypatch, tmp_path, capsys, row):
    # the block holding the row fails in whichever process takes it (the
    # parent takes row 5's block first, a helper mostly row 40's); the
    # caller sees the error one process raises, and the CLI exits 3
    r = make_grid(3, r_max=20.0, n=160).cell_midpoints
    angular = kernel_module._angular_weights

    def failing(N, r1, *args):
        if np.any(r1 == r[row]):
            raise NumericalError(f"no weights for the block of r = {r[row]:.6g}")
        return angular(N, r1, *args)

    monkeypatch.setattr(kernel_module, "_angular_weights", failing)
    with pytest.raises(NumericalError) as split:
        build_reduced_kernel(3, 0.5, r)
    _no_child_left()
    assert forks[0] == 1
    with monkeypatch.context() as alone:
        alone.setattr(kernel_module, "_FORK_MIN_ROWS", sys.maxsize)
        with pytest.raises(NumericalError) as one:
            build_reduced_kernel(3, 0.5, r)
    assert type(split.value) is type(one.value) and str(split.value) == str(one.value)

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": {"N": 3, "s": 0.5, "lambda": 0.0, "p": 3.0, "mode": "subcritical"},
        "grid": {"R_max": 20.0, "node_count": 160, "spacing": "graded"},
        "io": {"out_dir": str(tmp_path / "out"), "cache_dir": str(tmp_path / "cache")}}))
    capsys.readouterr()
    assert cli_main(["solve", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == f"numerical failure: {one.value}\n"
    assert not (tmp_path / "out").exists()
    _no_child_left()


@pytest.mark.parametrize("period", [1, 2])
def test_failed_fork_is_redone_by_the_parent(monkeypatch, period):
    # three usable CPUs, and every fork (period 1) or every second fork
    # (period 2) fails with EAGAIN: the helpers already running, and then
    # the parent, do the whole build
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    forks = [0]
    fork = os.fork

    def refusing():
        forks[0] += 1
        if forks[0] % period == 0:
            raise BlockingIOError(errno.EAGAIN, "fork refused")
        return fork()

    monkeypatch.setattr(os, "fork", refusing)
    # W's row blocks the parent computes; a helper's calls stay in the helper
    calls = [0]
    angular = kernel_module._angular_weights

    def counted(*args):
        calls[0] += 1
        return angular(*args)

    monkeypatch.setattr(kernel_module, "_angular_weights", counted)
    r = make_grid(4, r_max=20.0, n=160).cell_midpoints
    split = build_reduced_kernel(4, 0.5, r).W
    _no_child_left()
    assert forks[0] == 2 * period  # the table's split and W's
    # with no helper the parent computes all 5 blocks; with one, the
    # helper's done marks leave the parent none to redo
    assert calls[0] == {1: 5, 2: 0}[period]
    monkeypatch.setattr(kernel_module, "_FORK_MIN_ROWS", sys.maxsize)
    assert split.tobytes() == build_reduced_kernel(4, 0.5, r).W.tobytes()


def test_killed_helper_share_is_redone_by_the_parent(forks, monkeypatch):
    # a helper killed mid-build leaves its task unmarked, and the parent
    # redoes it: W is the one-process W, bit for bit
    parent = os.getpid()
    killed = mmap.mmap(-1, 1)
    r = make_grid(4, r_max=20.0, n=160).cell_midpoints
    angular = kernel_module._angular_weights

    def patched(*args):
        if os.getpid() != parent:
            killed[0] = 1
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(0.05)  # leave the helper tasks to take
        return angular(*args)

    monkeypatch.setattr(kernel_module, "_angular_weights", patched)
    split = build_reduced_kernel(4, 0.5, r).W
    _no_child_left()
    assert forks[0] == 2  # the table's split and W's
    assert killed[0] == 1
    monkeypatch.setattr(kernel_module, "_FORK_MIN_ROWS", sys.maxsize)
    assert split.tobytes() == build_reduced_kernel(4, 0.5, r).W.tobytes()
