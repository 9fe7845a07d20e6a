import math

import numpy as np
import pytest
from scipy.integrate import quad

from hypfrac.cli import RunConfig, _solve_outputs
from hypfrac.errors import DomainError
from hypfrac.funcspace import (RadialFunction, assemble_forms, dirichlet_sq,
                               lp_norm, make_grid, norm_lambda_sq,
                               schwarz_rearrange, seminorm_s_sq)
from hypfrac.geometry import radial_volume_weight
from hypfrac.kernel import build_reduced_kernel
from hypfrac.verify import random_smooth_profiles

# continuum integrals of the reference Gaussian exp(-r^2) on the
# 3-dimensional ball (40-digit quadrature, frozen)
GAUSS_L2_SQ = 2.5542767442551062
GAUSS_L4_4 = 0.79077333977707109
GAUSS_DIRICHLET = 9.0459559749408172


def gaussian(grid):
    return RadialFunction(grid, np.exp(-grid.nodes ** 2))


def test_grid_invariants(setup3):
    grid, _ = setup3
    assert grid.nodes[0] == 0.0
    assert np.all(np.diff(grid.nodes) > 0.0)
    assert np.all(grid.weights[1:] > 0.0)
    assert grid.weights[0] >= 0.0
    # weights sum to the truncated volume
    vol = quad(lambda r: radial_volume_weight(3, r), 0.0, grid.r_max,
               limit=400)[0]
    assert grid.weights.sum() == pytest.approx(vol, rel=1e-8)


def test_grid_validation():
    with pytest.raises(DomainError):
        make_grid(3, r_max=-1.0)
    with pytest.raises(DomainError):
        make_grid(3, n=8)


def test_forms_symmetric_psd(setup3):
    _, forms = setup3
    forms.validate()


def test_constant_annihilated(setup3):
    grid, forms = setup3
    ones = RadialFunction(grid, np.ones(grid.n))
    scale = float(np.abs(forms.stiffness).max())
    assert abs(dirichlet_sq(ones, forms)) < 1e-12 * scale
    assert seminorm_s_sq(ones, forms) < 1e-12 * float(np.abs(forms.nonlocal_mat).max())


def test_mass_hat_matches_direct_quadrature(setup3):
    # lumped entry = integral of the hat against the volume weight
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


@pytest.mark.parametrize("setup", ["setup3", "setup5"])
def test_lambda_metric_is_stiffness_minus_lumped_mass(request, setup):
    # the metric shifts only the diagonal, exactly as the dense product
    # with diag(weights) would, down to the sign of every zero
    grid, forms = request.getfixturevalue(setup)
    mass = np.diag(grid.weights)
    for lam in (0.0, 0.5, 0.999, 1.0, -3.0, -1e10):
        got = forms.lambda_metric(lam)
        want = forms.stiffness - lam * mass
        assert np.array_equal(got, want), lam
        assert np.array_equal(np.signbit(got), np.signbit(want)), lam


def test_norm_lambda_basics(setup3):
    grid, forms = setup3
    zero = RadialFunction(grid, np.zeros(grid.n))
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
        u = RadialFunction(grid, v)
        assert norm_lambda_sq(u, lam, forms) > 0.0


def test_seminorm_nonnegative_and_zero_on_constants(setup3):
    grid, forms = setup3
    for v in random_smooth_profiles(grid, 10, seed=6):
        assert seminorm_s_sq(RadialFunction(grid, v), forms) >= 0.0


def _seminorm_cross_oracle(grid, v1, v2, n_r=180, n_g=96, r_cap=14.0):
    """Coarse direct quadrature of the cross term
    int int (v1(x)-v1(y)) (v2(x)-v2(y)) K dV dV on the 3-ball."""
    from hypfrac.kernel import kernel_odd

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
        kern = kernel_odd(3, 0.5, d.ravel()).reshape(d.shape)
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
        q12 = seminorm_s_sq(RadialFunction(grid, u1 + u2), forms)
        q1 = seminorm_s_sq(RadialFunction(grid, u1), forms)
        q2 = seminorm_s_sq(RadialFunction(grid, u2), forms)
        inter.append(q12 - q1 - q2)
    assert np.all(np.diff(np.abs(inter)) < 0.0)

    oracle = _seminorm_cross_oracle(grid, u1, bump(4.0))
    assert 2.0 * oracle == pytest.approx(inter[0], rel=0.1)


def test_lp_norm_homogeneity(setup3):
    grid, forms = setup3
    u = gaussian(grid)
    scaled = RadialFunction(grid, -2.5 * u.values)
    for q in (1.0, 2.0, 3.5):
        assert lp_norm(scaled, q) == pytest.approx(2.5 * lp_norm(u, q), rel=1e-14)


def test_lp_norm_gaussian_golden(setup3):
    grid, _ = setup3
    u = gaussian(grid)
    assert lp_norm(u, 2.0) ** 2 == pytest.approx(GAUSS_L2_SQ, rel=2e-3)
    assert lp_norm(u, 4.0) ** 4 == pytest.approx(GAUSS_L4_4, rel=2e-3)


def test_lp_norm_rejects_bad_exponent(setup3):
    grid, _ = setup3
    with pytest.raises(DomainError):
        lp_norm(gaussian(grid), 0.5)


def test_norms_converge_under_doubling(setup3, setup3_fine):
    grid, _ = setup3
    fine, _ = setup3_fine
    for q in (2.0, 4.0):
        a = lp_norm(gaussian(grid), q)
        b = lp_norm(gaussian(fine), q)
        assert abs(b / a - 1.0) < 1e-3


def test_dirichlet_matches_continuum(setup3):
    grid, forms = setup3
    assert dirichlet_sq(gaussian(grid), forms) == pytest.approx(
        GAUSS_DIRICHLET, rel=5e-3)


def test_rearrange_identity_on_decreasing(setup3):
    grid, _ = setup3
    v = np.exp(-grid.nodes)
    v[-1] = 0.0
    u = RadialFunction(grid, v)
    assert np.abs(schwarz_rearrange(u).values - v).max() < 1e-12


def test_rearrange_idempotent(setup3):
    grid, _ = setup3
    for v in random_smooth_profiles(grid, 10, seed=8):
        s1 = schwarz_rearrange(RadialFunction(grid, v))
        s2 = schwarz_rearrange(s1)
        assert np.abs(s2.values - s1.values).max() < 1e-12 * max(v.max(), 1.0)
        assert np.all(np.diff(s1.values) <= 1e-12 * v.max())


def test_rearrange_rejects_negative(setup3):
    grid, _ = setup3
    v = np.ones(grid.n)
    v[3] = -0.1
    with pytest.raises(DomainError, match="absolute value"):
        schwarz_rearrange(RadialFunction(grid, v))


def test_rearrange_preserves_lq():
    fine = make_grid(3, r_max=20.0, n=2000)
    worst = 0.0
    for v in random_smooth_profiles(fine, 25, seed=9):
        u = RadialFunction(fine, v)
        star = schwarz_rearrange(u)
        for q in (2.0, 4.0, 6.0):
            worst = max(worst, abs(lp_norm(star, q) / lp_norm(u, q) - 1.0))
    assert worst < 1e-3


def test_rearrange_energy_nonincreasing(setup3):
    grid, forms = setup3
    for v in random_smooth_profiles(grid, 25, seed=10):
        u = RadialFunction(grid, v)
        star = schwarz_rearrange(u)
        assert dirichlet_sq(star, forms) <= dirichlet_sq(u, forms) * (1 + 1e-3)
        assert seminorm_s_sq(star, forms) <= seminorm_s_sq(u, forms) * (1 + 1e-3)


def test_seminorm_embedding_bound_reported(setup3):
    grid, forms = setup3
    ratios = []
    for v in random_smooth_profiles(grid, 20, seed=12):
        u = RadialFunction(grid, v)
        ratios.append(seminorm_s_sq(u, forms) / dirichlet_sq(u, forms))
    c_emb = max(ratios)
    assert math.isfinite(c_emb) and 0.0 < c_emb < 10.0


def test_profile_csv_roundtrip(tmp_path, subcritical_report):
    # the solve outputs carry every node and energy to the last bit
    spec, report = subcritical_report
    _solve_outputs(RunConfig(problem=spec, out_dir=tmp_path), report, {})
    for name, header, columns in (
            ("profile.csv", "r,u",
             (report.solution.grid.nodes, report.solution.values)),
            ("convergence.csv", "iteration,energy",
             (np.arange(len(report.energy_history)), report.energy_history))):
        path = tmp_path / name
        assert path.read_text().splitlines()[0] == header
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        for k, column in enumerate(columns):
            assert np.array_equal(back[:, k], column)


def test_forms_reject_mismatched_kernel():
    grid = make_grid(3, r_max=8.0, n=64)
    reduced = build_reduced_kernel(3, 0.5, grid.cell_midpoints)
    other = make_grid(3, r_max=8.0, n=32)
    with pytest.raises(DomainError):
        assemble_forms(other, 0.5, reduced)
    with pytest.raises(DomainError):
        assemble_forms(grid, 0.75, reduced)
