import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import LinAlgError, cholesky_banded, eigh, eigvalsh, solveh_banded

from hypfrac.cli import RunConfig, _solve_outputs
from hypfrac.errors import DomainError, NumericalError
from hypfrac.funcspace import (QuadraticForms, RadialGrid, _adjacent_slope_matrix,
                               _cell_pair_integral, assemble_forms, assemble_local_forms,
                               dirichlet_sq, lp_norm, make_grid, metric_factor, metric_solve,
                               norm_lambda_sq, radial_volume_weight, schwarz_rearrange,
                               seminorm_s_sq)
from hypfrac.kernel import build_reduced_kernel
from hypfrac.verify import random_smooth_profiles

# continuum integrals of the reference Gaussian exp(-r^2) on the
# 3-dimensional ball (40-digit quadrature, frozen)
GAUSS_L2_SQ = 2.5542767442551062
GAUSS_L4_4 = 0.79077333977707109
GAUSS_DIRICHLET = 9.0459559749408172


def gaussian(grid):
    return np.exp(-grid.nodes ** 2)


def test_grid_invariants(setup3):
    grid, _ = setup3
    assert grid.nodes[0] == 0.0
    assert np.all(np.diff(grid.nodes) > 0.0)
    assert np.all(grid.weights[1:] > 0.0)
    assert grid.weights[0] > 0.0
    # weights sum to the truncated volume
    vol = quad(lambda r: radial_volume_weight(3, r), 0.0, grid.r_max,
               limit=400)[0]
    assert grid.weights.sum() == pytest.approx(vol, rel=1e-8)


def test_grid_validation():
    with pytest.raises(DomainError):
        make_grid(3, r_max=-1.0)
    with pytest.raises(DomainError):
        make_grid(3, n=8)
    # the tail grading ratio q^count would overflow a float here
    big = make_grid(3, 20.0, 4000)
    assert np.all(np.diff(big.nodes) > 0.0)
    assert big.nodes[-1] == 20.0
    assert np.all(big.weights[1:] > 0.0)
    # every cell has volume, the origin's too
    grid = make_grid(3, n=16)
    weights = grid.weights.copy()
    weights[0] = 0.0
    with pytest.raises(DomainError, match="weights must be positive"):
        RadialGrid(3, grid.nodes, weights)


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_every_grid_weight_is_positive_and_finite(dim):
    # RadialGrid and schwarz_rearrange divide by every weight; the origin's,
    # about omega_{N-1} h^N / (N (N+1)) for a first cell of width h, is the
    # smallest (8.3e-24 at N = 6, n = 12800, R_max 1)
    for n in (16, 400, 12800):
        for r_max in (1.0, 12.0, 20.0, 80.0):
            w = make_grid(dim, r_max=r_max, n=n).weights
            assert np.all(np.isfinite(w)) and np.all(w > 0.0), (n, r_max)


def test_forms_symmetric_psd(setup3):
    # positive stiffness coefficients, and a nonlocal form that is exactly
    # symmetric and positive semidefinite up to round-off
    _, forms = setup3
    assert np.all(forms.stiffness > 0.0)
    mat = forms.nonlocal_mat
    assert np.array_equal(mat, mat.T)
    scale = float(np.abs(mat).max()) or 1.0
    assert eigvalsh(mat, subset_by_index=[0, 0])[0] >= -1e-10 * scale


def test_constant_annihilated(setup3):
    grid, forms = setup3
    ones = np.ones(grid.n)
    scale = float(np.abs(forms.stiffness).max())
    assert abs(dirichlet_sq(ones, forms)) < 1e-12 * scale
    assert seminorm_s_sq(ones, forms) < 1e-12 * float(np.abs(forms.nonlocal_mat).max())


def test_mass_hat_matches_direct_quadrature(setup3):
    # lumped entry = integral of the hat against the volume weight, and the
    # stiffness coupling of a cell = its volume over its squared width
    grid, forms = setup3
    for k in (5, 120, 300):
        a = grid.nodes[k - 1]
        m = grid.nodes[k]
        b = grid.nodes[k + 1]
        left = quad(lambda r: (r - a) / (m - a) * radial_volume_weight(3, r),
                    a, m, limit=100)[0]
        right = quad(lambda r: (b - r) / (b - m) * radial_volume_weight(3, r),
                     m, b, limit=100)[0]
        assert grid.weights[k] == pytest.approx(left + right, rel=1e-10)
        cell = quad(lambda r: radial_volume_weight(3, r), m, b, limit=100)[0]
        assert forms.stiffness[k] * (b - m) ** 2 == pytest.approx(cell, rel=1e-10)


@pytest.mark.parametrize("setup", ["setup3", "setup5"])
def test_lambda_metric_is_stiffness_minus_lumped_mass(request, setup):
    # the bands shift only the diagonal, exactly as the dense product with
    # diag(weights) would, down to the sign of every zero
    grid, forms = request.getfixturevalue(setup)
    coef, k = forms.stiffness, np.arange(grid.n - 1)
    assert coef.shape == (grid.n - 1,)
    stiffness = np.zeros((grid.n, grid.n))
    stiffness[k, k] += coef
    stiffness[k + 1, k + 1] += coef
    stiffness[k, k + 1] -= coef
    stiffness[k + 1, k] -= coef
    mass = np.diag(grid.weights)
    for lam in (0.0, 0.5, 0.999, 1.0, -3.0, -1e10):
        bands = forms.lambda_metric(lam)[0]
        assert bands.shape == (2, grid.n), lam
        got = np.diag(bands[1]) + np.diag(bands[0, 1:], 1) + np.diag(bands[0, 1:], -1)
        want = stiffness - lam * mass
        assert np.array_equal(got, want), lam
        assert np.array_equal(np.signbit(got), np.signbit(want)), lam


def local_forms(dim, n):
    """Forms without the nonlocal part: enough for the lambda metric."""
    grid = make_grid(dim, r_max=20.0, n=n)
    return QuadraticForms(grid, 0.5, assemble_local_forms(grid), None)


@pytest.mark.parametrize("dim, lams", [(3, (0.0, 0.5, 0.99)), (4, (0.0, 1.0, 2.2)),
                                       (5, (-3.0, 1.0, 3.9))])
def test_metric_solve_matches_lapack_bit_for_bit(dim, lams):
    # the factor-once solve repeats LAPACK's tridiagonal solve (dpttrf and
    # dptts2, behind solveh_banded) step for step, so Riesz gradients and
    # every descent iterate built on them stay bit-identical
    forms = local_forms(dim, 400)
    rng = np.random.default_rng(dim)
    for lam in lams:
        bands = forms.lambda_metric(lam)[0]
        factor = metric_factor(bands)
        for _ in range(10):
            b = rng.standard_normal(forms.grid.n - 1) * 10.0 ** rng.uniform(-6, 6)
            assert np.array_equal(metric_solve(factor, b),
                                  solveh_banded(bands[:, :-1], b)), (dim, lam)


def test_metric_factor_verdict_matches_cholesky_banded():
    # around the discrete spectral bottom lam_1 of a 64-node N = 3 grid
    # (about 0.954, below (N-1)^2/4 = 1) the metric is positive definite
    # just below lam_1 and indefinite just above; the L D L^T pivots agree
    # with LAPACK's banded Cholesky on every side
    forms = local_forms(3, 64)
    grid, free = forms.grid, slice(None, -1)
    stiff = forms.lambda_metric(0.0)[0]
    dense = (np.diag(stiff[1]) + np.diag(stiff[0, 1:], 1)
             + np.diag(stiff[0, 1:], -1))[free, free]
    lam1 = eigh(dense, np.diag(grid.weights[free]), eigvals_only=True,
                subset_by_index=[0, 0])[0]
    assert 0.9 < lam1 < 1.0
    for k in range(2, 9):
        for sign in (-1.0, 1.0):
            lam = lam1 * (1.0 + sign * 10.0 ** -k)
            bands = stiff.copy()
            bands[1] -= lam * grid.weights  # the sum lambda_metric(lam) forms
            try:
                metric_factor(bands)
                ldl = True
            except NumericalError:
                ldl = False
            try:
                cholesky_banded(bands[:, :-1])
                chol = True
            except LinAlgError:
                chol = False
            assert ldl == chol == (sign < 0.0), (k, sign)
    with pytest.raises(NumericalError,
                       match="lambda metric is not positive definite at lambda = 0.96"):
        forms.lambda_metric(0.96)


def test_norm_lambda_basics(setup3):
    grid, forms = setup3
    zero = np.zeros(grid.n)
    assert norm_lambda_sq(zero, 0.3, forms) == 0.0
    u = gaussian(grid)
    assert norm_lambda_sq(u, 0.0, forms) == pytest.approx(
        dirichlet_sq(u, forms), rel=1e-15)
    with pytest.raises(DomainError):
        norm_lambda_sq(u, 1.0, forms)  # (N-1)^2/4 = 1 exactly
    with pytest.raises(DomainError):
        norm_lambda_sq(u, 2.5, forms)


def test_norm_lambda_positive_near_spectral_bound(setup3):
    grid, forms = setup3
    lam = 0.9 * (grid.dim - 1.0) ** 2 / 4.0
    for v in random_smooth_profiles(grid, 20, seed=5):
        assert norm_lambda_sq(v, lam, forms) > 0.0


def test_seminorm_nonnegative_and_zero_on_constants(setup3):
    grid, forms = setup3
    for v in random_smooth_profiles(grid, 10, seed=6):
        assert seminorm_s_sq(v, forms) >= 0.0


def _seminorm_cross_oracle(grid, v1, v2, n_r=180, n_g=96, r_cap=14.0):
    """Coarse direct quadrature of the cross term
    int int (v1(x)-v1(y)) (v2(x)-v2(y)) K dV dV on the 3-ball."""
    from hypfrac.kernel import kernel

    x, w = np.polynomial.legendre.leggauss(n_r)
    rr = 0.5 * r_cap * (x + 1.0)
    wr = 0.5 * r_cap * w
    xg, wg = np.polynomial.legendre.leggauss(n_g)
    gg = 0.5 * math.pi * (xg + 1.0)
    wgg = 0.5 * math.pi * wg
    a = np.interp(rr, grid.nodes, v1)
    b = np.interp(rr, grid.nodes, v2)
    sh = np.sinh(rr)
    total = 0.0
    for i in range(n_r):
        chd = np.cosh(rr[i]) * np.cosh(rr)[:, None] \
            - sh[i] * sh[:, None] * np.cos(gg)[None, :]
        z = np.maximum(chd - 1.0, 1e-300)
        d = np.log1p(z + np.sqrt(z * (z + 2.0)))
        kern = kernel(3, 0.5, d.ravel()).reshape(d.shape)
        ang = (kern * np.sin(gg)[None, :] * wgg[None, :]).sum(axis=1)
        total += wr[i] * np.sum(
            wr * (a[i] - a) * (b[i] - b) * sh[i] ** 2 * sh ** 2 * ang)
    return 4.0 * math.pi * 2.0 * math.pi * total


def test_seminorm_two_bump_interaction_decays(setup3):
    # far-field kernel decay: the cross term between separated bumps
    # shrinks with distance (each bump's own energy grows with the volume
    # factor, so only the interaction can stabilize)
    grid, forms = setup3
    r = grid.nodes

    def bump(c):
        v = np.exp(-((r - c)) ** 2)
        v[-1] = 0.0
        return v

    u1 = bump(0.0)
    inter = []
    for d in (4.0, 6.0, 8.0, 10.0):
        u2 = bump(d)
        q12 = seminorm_s_sq(u1 + u2, forms)
        q1 = seminorm_s_sq(u1, forms)
        q2 = seminorm_s_sq(u2, forms)
        inter.append(q12 - q1 - q2)
    assert np.all(np.diff(np.abs(inter)) < 0.0)

    oracle = _seminorm_cross_oracle(grid, u1, bump(4.0))
    assert 2.0 * oracle == pytest.approx(inter[0], rel=0.1)


def test_lp_norm_homogeneity(setup3):
    grid, forms = setup3
    u = gaussian(grid)
    for q in (1.0, 2.0, 3.5):
        assert lp_norm(grid, -2.5 * u, q) == pytest.approx(2.5 * lp_norm(grid, u, q),
                                                          rel=1e-14)


def test_lp_norm_gaussian_golden(setup3):
    grid, _ = setup3
    u = gaussian(grid)
    assert lp_norm(grid, u, 2.0) ** 2 == pytest.approx(GAUSS_L2_SQ, rel=2e-3)
    assert lp_norm(grid, u, 4.0) ** 4 == pytest.approx(GAUSS_L4_4, rel=2e-3)


def test_lp_norm_rejects_bad_exponent(setup3):
    grid, _ = setup3
    with pytest.raises(DomainError):
        lp_norm(grid, gaussian(grid), 0.5)


@pytest.mark.parametrize("bad", [np.ones(1), np.ones(399), np.ones(401)],
                         ids=["1", "n-1", "n+1"])
def test_profile_length_must_match_the_grid(setup3, bad):
    # a length-1 profile would broadcast against the weights without a word
    grid, _ = setup3
    with pytest.raises(DomainError, match="does not match the grid"):
        lp_norm(grid, bad, 2.0)
    with pytest.raises(DomainError, match="does not match the grid"):
        schwarz_rearrange(grid, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_profile_values_must_be_finite(setup3, bad):
    grid, _ = setup3
    v = gaussian(grid)
    v[5] = bad
    with pytest.raises(DomainError, match="must be finite"):
        lp_norm(grid, v, 2.0)
    with pytest.raises(DomainError, match="must be finite"):
        schwarz_rearrange(grid, v)


def test_norms_converge_under_doubling(setup3, setup3_fine):
    grid, _ = setup3
    fine, _ = setup3_fine
    for q in (2.0, 4.0):
        a = lp_norm(grid, gaussian(grid), q)
        b = lp_norm(fine, gaussian(fine), q)
        assert abs(b / a - 1.0) < 1e-3


def test_dirichlet_matches_continuum(setup3):
    grid, forms = setup3
    assert dirichlet_sq(gaussian(grid), forms) == pytest.approx(
        GAUSS_DIRICHLET, rel=5e-3)


def _dirichlet_eigenvalues(dim, r_max, k=5):
    """The k lowest radial Dirichlet eigenvalues of -Delta on the
    hyperbolic ball of radius r_max: 1 + (j pi / L)^2 for N = 3, and
    xi_j^2 + 4 with tan(xi L) = xi tanh L for N = 5."""
    from scipy.optimize import brentq

    j = np.arange(1, k + 1)
    if dim == 3:
        return 1.0 + (j * math.pi / r_max) ** 2
    slope = math.tanh(r_max) / r_max  # tan x = x tanh(L) / L in x = xi L
    roots = [brentq(lambda x: math.tan(x) - slope * x, (i - 0.5) * math.pi + 1e-12,
                    (i + 0.5) * math.pi - 1e-12) for i in j]
    return (np.array(roots) / r_max) ** 2 + 4.0


# (N, n): the largest relative eigenvalue error measured when this check
# was added (ratchet bounds: refinement may lower them, nothing may raise them)
_EIGENVALUE_ERRORS = {(3, 400): 2.44e-3, (3, 800): 6.00e-4, (3, 1600): 1.51e-4,
                      (5, 400): 1.90e-3, (5, 800): 4.68e-4, (5, 1600): 1.17e-4}


@pytest.mark.parametrize("dim, r_max", [(3, 20.0), (5, 12.0)])
def test_local_operator_matches_closed_form_spectrum(dim, r_max):
    # A = M^-1/2 K M^-1/2 on the free nodes (K the stiffness, M the lumped
    # mass, the last node pinned): its five lowest eigenvalues sit below the
    # closed forms, within the ratchet bounds, and converge at order 2 on
    # both doublings
    from scipy.linalg import eigh_tridiagonal

    exact = _dirichlet_eigenvalues(dim, r_max)
    errors = {}
    for n in (400, 800, 1600):
        grid = make_grid(dim, r_max, n)
        c, w = assemble_local_forms(grid), grid.weights[:-1]
        diag = (np.concatenate(([0.0], c[:-1])) + c) / w
        off = -c[:-1] / np.sqrt(w[:-1] * w[1:])
        mu = eigh_tridiagonal(diag, off, select="i", select_range=(0, 4), eigvals_only=True)
        errors[n] = mu / exact - 1.0
        assert np.all(errors[n] < 0.0)
        assert np.all(errors[n] >= -_EIGENVALUE_ERRORS[dim, n])
    for n in (400, 800):
        assert np.all(np.log2(errors[n] / errors[2 * n]) >= 1.9)


def test_rearrange_identity_on_decreasing(setup3):
    grid, _ = setup3
    v = np.exp(-grid.nodes)
    v[-1] = 0.0
    assert np.abs(schwarz_rearrange(grid, v) - v).max() < 1e-12


def test_rearrange_idempotent(setup3):
    grid, _ = setup3
    for v in random_smooth_profiles(grid, 10, seed=8):
        s1 = schwarz_rearrange(grid, v)
        s2 = schwarz_rearrange(grid, s1)
        assert np.abs(s2 - s1).max() < 1e-12 * max(v.max(), 1.0)
        assert np.all(np.diff(s1) <= 1e-12 * v.max())


def test_rearrange_rejects_negative(setup3):
    grid, _ = setup3
    v = np.ones(grid.n)
    v[3] = -0.1
    with pytest.raises(DomainError, match="absolute value"):
        schwarz_rearrange(grid, v)


def test_rearrange_preserves_lq():
    fine = make_grid(3, r_max=20.0, n=2000)
    worst = 0.0
    for v in random_smooth_profiles(fine, 25, seed=9):
        star = schwarz_rearrange(fine, v)
        for q in (2.0, 4.0, 6.0):
            worst = max(worst, abs(lp_norm(fine, star, q) / lp_norm(fine, v, q) - 1.0))
    assert worst < 1e-3


def test_rearrange_energy_nonincreasing(setup3):
    grid, forms = setup3
    for v in random_smooth_profiles(grid, 25, seed=10):
        star = schwarz_rearrange(grid, v)
        assert dirichlet_sq(star, forms) <= dirichlet_sq(v, forms) * (1 + 1e-3)
        assert seminorm_s_sq(star, forms) <= seminorm_s_sq(v, forms) * (1 + 1e-3)


def test_seminorm_embedding_bound_reported(setup3):
    grid, forms = setup3
    c_emb = max(seminorm_s_sq(v, forms) / dirichlet_sq(v, forms)
                for v in random_smooth_profiles(grid, 20, seed=12))
    assert math.isfinite(c_emb) and 0.0 < c_emb < 10.0


def test_profile_csv_roundtrip(tmp_path, setup3, subcritical_report):
    # the solve outputs carry every node and energy to the last bit
    grid, _ = setup3
    spec, report = subcritical_report
    _solve_outputs(RunConfig(problem=spec, out_dir=tmp_path), grid, report)
    for name, header, columns in (
            ("profile.csv", "r,u", (grid.nodes, report.solution)),
            ("convergence.csv", "iteration,energy",
             (np.arange(len(report.energy_history)), report.energy_history))):
        path = tmp_path / name
        assert path.read_text().splitlines()[0] == header
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        for k, column in enumerate(columns):
            assert np.array_equal(back[:, k], column)


def _nonlocal_loop_reference(grid, s, reduced):
    """assemble_forms's nonlocal form, one cell pair and one node at a time."""
    n, h, mids, nodes = grid.n, grid.cell_widths, grid.cell_midpoints, grid.nodes
    omega = np.zeros((n - 1, n - 1))
    for k in range(n - 1):
        for l in range(k + 2, n - 1):
            omega[k, l] = omega[l, k] = (
                reduced.W[k, l] * (mids[l] - mids[k]) ** (1.0 + 2.0 * s)
                * _cell_pair_integral(nodes[l], nodes[l + 1], nodes[k], nodes[k + 1], s))
    avg = np.zeros((n - 1, n))
    for k in range(n - 1):
        avg[k, k] = avg[k, k + 1] = 0.5
    mat = 2.0 * avg.T @ (np.diag(omega.sum(axis=1)) - omega) @ avg
    for k in range(n - 1):
        d = np.zeros(n)
        d[k], d[k + 1] = -1.0 / h[k], 1.0 / h[k]
        mat += (reduced.amplitude(mids[k]) * 2.0 * h[k] ** (3.0 - 2.0 * s)
                / ((2.0 - 2.0 * s) * (3.0 - 2.0 * s)) * np.outer(d, d))
    for k in range(n - 2):
        t20, t11, t02 = _adjacent_slope_matrix(h[k:k + 1], h[k + 1:k + 2], s)
        d_lo, d_hi = np.zeros(n), np.zeros(n)
        d_lo[k], d_lo[k + 1] = -1.0 / h[k], 1.0 / h[k]
        d_hi[k + 1], d_hi[k + 2] = -1.0 / h[k + 1], 1.0 / h[k + 1]
        mat += 2.0 * reduced.amplitude(nodes[k + 1]) * (
            t20[0] * np.outer(d_hi, d_hi) + t02[0] * np.outer(d_lo, d_lo)
            + t11[0] * (np.outer(d_hi, d_lo) + np.outer(d_lo, d_hi)))
    return 0.5 * (mat + mat.T)


def test_nonlocal_form_matches_loop_reference():
    grid = make_grid(3, r_max=8.0, n=64)
    for s in (0.25, 0.5):
        reduced = build_reduced_kernel(3, s, grid.cell_midpoints)
        got = assemble_forms(grid, s, reduced).nonlocal_mat
        want = _nonlocal_loop_reference(grid, s, reduced)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), s
