import functools
import math
import types

import numpy as np
import pytest

from hypfrac._goldens import ODD_KERNEL_FD_ORACLE
from hypfrac.cli import main as cli_main
from hypfrac.errors import DomainError
from hypfrac.kernel import (BesselTerm, apply_operator,
                            bessel_base, build_kernel_table,
                            build_reduced_kernel, kernel, kernel_even,
                            kernel_odd, normalizing_constant,
                            _even_ladder_eval)
from hypfrac.specfun import bessel_k, integrate_adaptive

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
    ts = apply_operator(bessel_base(3, 0.5))
    assert len(ts.terms) == 1
    t = ts.terms[0]
    # a * rho^-nu K_{nu+1}(a rho) / sinh(rho) with a = 1, nu = 1
    assert t == BesselTerm(1.0, 1, 1, 0, -1.0)
    rho = 1.3
    expected = rho ** -1 * bessel_k(2.0, rho) / math.sinh(rho)
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
        got = np.asarray(kernel_odd(n_dim, s, rho))
        assert np.max(np.abs(got / ref - 1.0)) < 1e-6


def test_odd_kernel_decreasing():
    rho = np.arange(0.1, 5.01, 0.1)
    vals = kernel_odd(3, 0.5, rho)
    assert np.all(np.diff(vals) < 0.0)


def test_odd_kernel_near_field_slope():
    rho = np.geomspace(1e-4, 1e-2, 40)
    vals = np.asarray(kernel_odd(3, 0.5, rho))
    slope = np.polyfit(np.log(rho), np.log(vals), 1)[0]
    assert abs(slope - (-4.0)) < 0.05


def test_odd_kernel_underflow_flag():
    # values below the underflow floor are flushed to exactly zero
    assert kernel_odd(5, 0.75, 250.0) == 0.0
    assert kernel_odd(5, 0.75, 1.0) > 0.0


def test_odd_kernel_domain():
    with pytest.raises(DomainError):
        kernel_odd(4, 0.5, 1.0)
    with pytest.raises(DomainError):
        kernel_odd(3, 0.5, 0.0)
    with pytest.raises(DomainError):
        kernel_odd(3, 0.5, -1.0)


def test_even_kernel_positive_decreasing():
    rho = np.geomspace(1e-3, 15.0, 24)
    vals = np.asarray(kernel_even(2, 0.5, rho))
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


def test_even_kernel_far_field_rate():
    rho = np.linspace(10.0, 30.0, 9)
    for n_dim, s in ((2, 0.5), (4, 0.25)):
        vals = np.asarray(kernel_even(n_dim, s, rho))
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
            got = np.asarray(kernel_even(n_dim, s, rho))
            ref = np.array([_even_kernel_oracle(n_dim, s, float(r)) for r in rho])
            assert np.max(np.abs(got / ref - 1.0)) < 1e-10, (n_dim, s)
            assert np.array_equal(kernel_even(n_dim, s, rho.reshape(3, 5)),
                                  got.reshape(3, 5))
            # a rho evaluated alone matches its entry in the array call
            for k in (0, 7, 14):
                assert kernel_even(n_dim, s, float(rho[k])) == pytest.approx(
                    got[k], rel=1e-14, abs=0.0)


def test_dispatch_matches_direct():
    assert kernel(3, 0.5, 1.0) == kernel_odd(3, 0.5, 1.0)
    assert kernel(4, 0.5, 1.0) == kernel_even(4, 0.5, 1.0)


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
    assert reduced3.diagonal_model.exponent == 2.0


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
