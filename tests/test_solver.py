import dataclasses
import itertools
import math

import numpy as np
import pytest

from hypfrac import solver
from hypfrac.errors import DomainError, NumericalError, ThresholdNotMetError
from hypfrac.funcspace import QuadraticForms, lp_norm, metric_pair, norm_lambda_sq
from hypfrac.pipeline import build_forms
from hypfrac.solver import (ProblemSpec, _functional_for, _Functional,
                            _nehari_descent, _newton_polish, _ray_max,
                            _ray_peak, _threshold, check_threshold,
                            estimate_critical_constant,
                            estimate_subcritical_constant,
                            mountain_pass_geometry, search_threshold_seed,
                            solve_critical, solve_subcritical, weak_max_check)
from hypfrac.verify import morse_index, random_smooth_profiles

SPEC3 = ProblemSpec(N=3, s=0.5, lam=0.0, p=3.0, mode="subcritical")


def test_problem_spec_validation():
    with pytest.raises(DomainError):
        ProblemSpec(N=2, s=0.5, lam=0.0, p=3.0)
    with pytest.raises(DomainError):
        ProblemSpec(N=3, s=1.2, lam=0.0, p=3.0)
    with pytest.raises(DomainError):
        ProblemSpec(N=3, s=0.5, lam=1.0, p=3.0)  # bound is (N-1)^2/4 = 1
    with pytest.raises(DomainError):
        ProblemSpec(N=3, s=0.5, lam=0.0, p=5.0)  # 2* - 1 = 5 excluded
    with pytest.raises(DomainError):
        ProblemSpec(N=3, s=0.5, lam=0.0, p=3.0, mode="weird")
    assert ProblemSpec(N=4, s=0.5, lam=0.0, p=2.0).critical_exponent == 4.0


def test_functional_rejects_forms_of_another_problem(setup3):
    _, forms = setup3
    for spec in (ProblemSpec(N=4, s=0.5, lam=0.0, p=2.0),
                 ProblemSpec(N=3, s=0.25, lam=0.0, p=3.0)):
        with pytest.raises(DomainError) as err:
            _functional_for(spec, forms)
        assert "(N, s) = (3, 0.5)" in str(err.value)
        assert f"(N, s) = ({spec.N}, {spec.s})" in str(err.value)


def test_energy_zero_profile(setup3):
    grid, forms = setup3
    assert _functional_for(SPEC3, forms).value(np.zeros(grid.n)) == 0.0


def test_energy_identity_on_nehari_set(setup3):
    grid, forms = setup3
    fn = _functional_for(SPEC3, forms)
    for v in random_smooth_profiles(grid, 5, seed=21):
        u = _ray_max(fn, v)[1] * v
        rhs = (0.5 - 0.25) * lp_norm(grid, u, 4.0) ** 4
        assert fn.value(u) == pytest.approx(rhs, rel=1e-8)


def test_energy_gaussian_against_doubled_resolution(setup3, setup3_fine):
    grid, forms = setup3
    fine, forms_fine = setup3_fine
    a = _functional_for(SPEC3, forms).value(np.exp(-grid.nodes ** 2))
    b = _functional_for(SPEC3, forms_fine).value(np.exp(-fine.nodes ** 2))
    assert a == pytest.approx(b, rel=1e-2)


def test_gradient_matches_directional_derivative(setup3):
    grid, forms = setup3
    fn = _functional_for(SPEC3, forms)
    h = 1e-5
    profiles = random_smooth_profiles(grid, 4, seed=22)
    for k in range(0, 4, 2):
        u = profiles[k]
        v = profiles[k + 1]
        v = v / np.sqrt(norm_lambda_sq(v, 0.0, forms))
        g = fn.riesz_gradient(u, fn.apply(u))
        pairing = metric_pair(forms.lambda_metric(0.0)[0], g, v)
        fd = (fn.value(u + h * v) - fn.value(u - h * v)) / (2 * h)
        assert pairing == pytest.approx(fd, rel=1e-5)


def test_gradient_zero_at_zero(setup3):
    grid, forms = setup3
    fn = _functional_for(SPEC3, forms)
    zero = np.zeros(grid.n)
    assert np.all(fn.riesz_gradient(zero, fn.apply(zero)) == 0.0)


def test_nehari_scale_properties(setup3):
    grid, forms = setup3
    fn = _functional_for(SPEC3, forms)
    for v in random_smooth_profiles(grid, 10, seed=23):
        t = _ray_max(fn, v)[1]
        assert _ray_max(fn, t * v)[1] == pytest.approx(1.0, abs=1e-10)
        # degree-two over degree-(p+1) homogeneity: t(a u) = t(u)/a
        assert _ray_max(fn, 4.0 * v)[1] == pytest.approx(t / 4.0, rel=1e-12)


def test_nehari_scale_rejects_zero(setup3):
    grid, forms = setup3
    with pytest.raises(DomainError):
        _ray_max(_functional_for(SPEC3, forms), np.zeros(grid.n))


def test_nehari_scale_gaussian_against_doubled_resolution(setup3, setup3_fine):
    grid, forms = setup3
    fine, forms_fine = setup3_fine
    t_coarse = _ray_max(_functional_for(SPEC3, forms), np.exp(-grid.nodes ** 2))[1]
    t_fine = _ray_max(_functional_for(SPEC3, forms_fine), np.exp(-fine.nodes ** 2))[1]
    assert t_coarse == pytest.approx(t_fine, rel=1e-2)


def test_subcritical_solve_report(subcritical_report, setup3):
    grid, forms = setup3
    spec, report = subcritical_report
    assert report.converged
    u = report.solution
    unorm = math.sqrt(norm_lambda_sq(u, spec.lam, forms))
    assert report.residual < 1e-6 * unorm
    assert abs(report.nehari_value) < 1e-6 * unorm ** 2
    assert report.c_star > 0.0
    peak = u.max()
    assert np.all(u >= -1e-8 * peak)
    assert np.all(np.diff(u) <= 1e-8 * peak)
    # energy history is monotone along accepted descent steps
    hist = np.array(report.energy_history)
    assert np.all(np.diff(hist) <= 1e-10 * np.abs(hist[0]))


def test_newton_polish_stops_at_its_floor(subcritical_report, setup3):
    # tol = 0 is below the round-off floor: from a point a first tol = 0
    # polish left on the floor, the residual already sits under sqrt(eps)
    # |v|_lambda, so the first step that fails to halve it ends the polish
    # (the line search alone takes 2 steps to stall here), keeping the
    # ground state
    _, forms = setup3
    spec, report = subcritical_report
    fn = _functional_for(spec, forms)
    v0 = _newton_polish(fn, report.solution, tol=0.0)[0]
    v, its, res = _newton_polish(fn, v0, tol=0.0)
    assert its == 1
    # the residual it returns is its iterate's, bit for bit
    assert res == fn.residual_norm(v)
    assert res <= fn.residual_norm(v0)
    assert fn.value(v) == pytest.approx(fn.value(v0), rel=1e-12)


def test_newton_polish_floor_rule_spares_slow_steps_above_it(critical_report,
                                                            setup5):
    # from 5 descent steps past the critical seed the polish contracts
    # slowly at first, far above the round-off zone: the floor rule must
    # not cut those steps short, so it takes all 8 and meets its tolerance
    _, forms = setup5
    spec, seed, _ = critical_report
    fn = _functional_for(spec, forms)
    v0 = _nehari_descent(fn, seed, 1e-6, 5)[0]
    tol = 1e-12 * fn.metric_norm(v0)
    v, steps, res = _newton_polish(fn, v0, tol=tol)
    assert steps == 8
    assert res == fn.residual_norm(v) < tol


@pytest.mark.parametrize("setup", ["setup3", "setup5"])
def test_functional_quad_is_metric_plus_nonlocal(request, setup):
    # each functional applies the metric from its bands, plus the nonlocal
    # form if it has one: to round-off, the product with the dense sum of
    # the three metric diagonals plus the nonlocal form's, or the first alone
    grid, forms = request.getfixturevalue(setup)
    metric = forms.lambda_metric(0.5)[0]
    dense = np.diag(metric[1]) + np.diag(metric[0, 1:], 1) + np.diag(metric[0, 1:], -1)
    for nonlocal_mat in (forms.nonlocal_mat, None):
        fn = _Functional(forms, 0.5, nonlocal_mat, [4.0])
        parts = [dense] if nonlocal_mat is None else [dense, nonlocal_mat]
        for v in random_smooth_profiles(grid, 3, seed=41):
            want = sum(part @ v for part in parts)
            bound = 4.0 * np.finfo(float).eps * sum(np.abs(part) @ np.abs(v) for part in parts)
            assert np.all(np.abs(fn.apply(v) - want) <= bound)
            assert fn.quad_form(v) == pytest.approx(v @ want, rel=1e-13)


def test_local_functional_holds_no_square_array(setup5):
    # the mountain-pass envelope's functional keeps the metric's bands and
    # vectors only: nothing of n x n size; J's one n x n array is the forms'
    # own nonlocal form, not a copy
    grid, forms = setup5
    spec = ProblemSpec(N=5, s=0.5, lam=1.0, p=2.0, mode="critical_perturbed")
    for fn in (_Functional(forms, 1.0, None, [3.0]), _functional_for(spec, forms)):
        arrays = [a for a in vars(fn).values() if isinstance(a, np.ndarray)]
        square = [a for a in arrays if a.size > 2 * grid.n]
        assert arrays and len(square) == (fn.nonlocal_mat is not None)
        assert all(a is forms.nonlocal_mat for a in square)


def _metric_norm_inv(fn, x):
    # |x| in the inverse lambda metric on the free nodes, by numpy's dense solve
    m = fn.metric
    dense = np.diag(m[1, :-1]) + np.diag(m[0, 1:-1], 1) + np.diag(m[0, 1:-1], -1)
    return math.sqrt(x @ np.linalg.solve(dense, x))


@pytest.mark.parametrize("local", [False, True], ids=["J", "local"])
def test_newton_step_meets_its_minres_tolerance(critical_report, setup5, monkeypatch, local):
    # at the Gaussian seed (a definite Hessian) and at the critical point
    # (one negative eigenvalue) of demo_critical's J and of the envelope's
    # local functional, the step's true preconditioned residual, from the
    # dense hessian(), is within twice _MINRES_RTOL of the right side's,
    # in at most 30 MINRES iterations
    grid, forms = setup5
    spec, _, report = critical_report
    seed = solver._gaussian(grid)
    if local:
        fn = _Functional(forms, spec.lam, None, [spec.p + 1.0])
        point = solver._critical_point(fn, seed, 1e-8, 400)[0]
    else:
        fn, point = _functional_for(spec, forms), report.solution
    counts, minres = [], solver._minres

    def counted(*args):
        out = minres(*args)
        counts.append(out[1])
        return out

    monkeypatch.setattr(solver, "_minres", counted)
    for v, index in ((seed, 0), (point, 1)):
        assert morse_index(fn, v)[0] == index
        r = fn.residual_vec(v)[:-1]
        step = fn.newton_step(v, r)
        res = fn.hessian(v)[:-1, :-1] @ step - r
        assert _metric_norm_inv(fn, res) <= 2.0 * solver._MINRES_RTOL * _metric_norm_inv(fn, r)
        assert 0 < counts.pop() <= 30


def test_minres_solves_a_preconditioned_indefinite_system():
    # A = L Q diag(e) Q^T L^T with M = L L^T symmetric positive definite and
    # e cycling through -1, 1, 2, 3: A has 8 negative eigenvalues, and the
    # preconditioned operator has the four eigenvalues e, so MINRES with M
    # meets numpy's solve in four iterations (it needs all 30 without M)
    rng = np.random.default_rng(7)
    c = rng.normal(size=(30, 30))
    m = c @ c.T + 30.0 * np.eye(30)
    chol = np.linalg.cholesky(m)
    q = np.linalg.qr(rng.normal(size=(30, 30)))[0]
    a = chol @ q @ np.diag(np.resize([-1.0, 1.0, 2.0, 3.0], 30)) @ q.T @ chol.T
    b = rng.normal(size=30)
    with np.errstate(all="raise"):
        x, its = solver._minres(lambda y: a @ y, lambda y: np.linalg.solve(m, y), b, 1e-12)
    want = np.linalg.solve(a, b)
    assert its == 4
    assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()


def test_minres_returns_zeros_for_a_zero_right_side():
    calls = []
    x, its = solver._minres(lambda y: calls.append(y) or y, lambda y: y, np.zeros(5), 1e-6)
    assert its == 0 and not calls
    assert np.all(x == 0.0)


def test_minres_returns_at_a_breakdown():
    # b in the null space of a singular system: the first projected system
    # is zero (gamma == 0), and MINRES returns its iterate instead of
    # dividing by it
    a = np.diag([1.0, 0.0, 2.0])
    with np.errstate(all="raise"):
        x, its = solver._minres(lambda y: a @ y, lambda y: y, np.array([0.0, 1.0, 0.0]), 1e-6)
    assert its == 1
    assert np.all(x == 0.0)


_DENSE_FACTORIZATIONS = ("solve", "cholesky", "inv", "lstsq", "eigh", "eigvalsh", "qr", "svd")


def _count_dense_factorizations(monkeypatch):
    counts = {}
    for name in _DENSE_FACTORIZATIONS:
        _counting(monkeypatch, np.linalg, name, counts)
    return counts


def test_demo_critical_solve_budget(setup5, monkeypatch):
    # cost guard: no dense factorization anywhere in a warm demo_critical
    # solve, the mountain-pass envelope included (every Newton step is
    # MINRES on products), and the descent reaches the hand-off gradient
    # within two steps of the seed
    _, forms = setup5
    spec = ProblemSpec(N=5, s=0.5, lam=1.0, p=2.0, mode="critical_perturbed")
    counts = _count_dense_factorizations(monkeypatch)
    report = solve_critical(spec, forms)
    assert counts == {}
    assert report.descent_steps <= 2 and report.descent_stop == "gradient_tol"


def test_demo_subcritical_solve_makes_no_dense_factorization(setup3, monkeypatch):
    _, forms = setup3
    counts = _count_dense_factorizations(monkeypatch)
    assert solve_subcritical(SPEC3, forms).converged
    assert counts == {}


def test_energy_J_ray_unbounded_below(setup5):
    grid, forms = setup5
    spec = ProblemSpec(N=5, s=0.5, lam=1.0, p=2.0, mode="critical_perturbed")
    fn = _functional_for(spec, forms)
    u = np.exp(-grid.nodes ** 2)
    assert fn.value(np.zeros(grid.n)) == 0.0
    vals = [fn.value(z * u) for z in (200.0, 400.0)]
    assert vals[1] < vals[0] < 0.0


def test_gradient_J_finite_difference(setup5):
    grid, forms = setup5
    spec = ProblemSpec(N=5, s=0.5, lam=1.0, p=2.0, mode="critical_perturbed")
    # taper the random profiles: nonzero tail values against the e^(4r)
    # volume weights would dominate the finite-difference truncation error
    taper = np.exp(-(grid.nodes / 4.0) ** 2)
    profiles = [v * taper for v in random_smooth_profiles(grid, 2, seed=31)]
    fn = _functional_for(spec, forms)
    u = profiles[0]
    v = profiles[1] / np.sqrt(norm_lambda_sq(profiles[1], spec.lam, forms))
    pairing = metric_pair(forms.lambda_metric(spec.lam)[0],
                          fn.riesz_gradient(u, fn.apply(u)), v)
    h = 1e-5
    fd = (fn.value(u + h * v) - fn.value(u - h * v)) / (2 * h)
    assert pairing == pytest.approx(fd, rel=1e-5)


def test_step2_coercivity_inequality(setup5):
    # J(u) - J'(u)[u]/(p+1) >= (p-1)/(2(p+1)) |u|_lambda^2
    grid, forms = setup5
    spec = ProblemSpec(N=5, s=0.5, lam=1.0, p=2.0, mode="critical_perturbed")
    fn = _functional_for(spec, forms)
    factor = (spec.p - 1.0) / (2.0 * (spec.p + 1.0))
    for v in random_smooth_profiles(grid, 10, seed=32):
        lhs = fn.value(v) - fn.derivative_along(v) / (spec.p + 1.0)
        rhs = factor * norm_lambda_sq(v, spec.lam, forms)
        assert lhs >= rhs - 1e-12 * abs(lhs)


def test_check_threshold_positive_and_scale_invariant(setup5):
    grid, forms = setup5
    spec = ProblemSpec(N=5, s=0.5, lam=1.0, p=2.0, mode="critical_perturbed")
    r = grid.nodes
    v = (0.02 / (0.02 ** 2 + r ** 2)) ** 1.5 * np.exp(-r ** 2)
    v[-1] = 0.0
    fn = _functional_for(spec, forms)
    sup_value = check_threshold(fn, v)
    assert isinstance(sup_value, float) and sup_value > 0.0
    assert check_threshold(fn, 3.7 * v) == pytest.approx(sup_value, rel=1e-9)


def test_check_threshold_rejects_bad_seed(setup5):
    grid, forms = setup5
    spec = ProblemSpec(N=5, s=0.5, lam=1.0, p=2.0, mode="critical_perturbed")
    fn = _functional_for(spec, forms)
    with pytest.raises(DomainError):
        check_threshold(fn, np.zeros(grid.n))
    bad = -np.exp(-grid.nodes ** 2)
    with pytest.raises(DomainError):
        check_threshold(fn, bad)


def test_pinned_configuration_documents_threshold_failure(setup3):
    # at (3, 0.5, 0.5, 3) the family search finds no admissible seed; the
    # outcome is recorded, and solve_critical refuses loudly with the pair
    # the search reports
    _, forms = setup3
    spec = ProblemSpec(N=3, s=0.5, lam=0.5, p=3.0, mode="critical_perturbed")
    fn = _functional_for(spec, forms)
    failures = []
    for solve in (lambda: search_threshold_seed(fn, _threshold(fn, spec)),
                  lambda: solve_critical(spec, forms)):
        with pytest.raises(ThresholdNotMetError) as err:
            solve()
        failures.append((err.value.sup_value, err.value.threshold))
    assert failures[0] == failures[1]
    assert failures[0][0] > failures[0][1]
    # the CLI prints both numbers, so an error without them cannot be made
    with pytest.raises(TypeError):
        ThresholdNotMetError("sup_ray J >= threshold")


def test_each_solver_rejects_the_other_mode(setup3):
    # each solver checks its spec's mode on entry, before any work
    _, forms = setup3
    critical = dataclasses.replace(SPEC3, mode="critical_perturbed")
    with pytest.raises(DomainError, match="solve_subcritical needs"):
        solve_subcritical(critical, forms)
    with pytest.raises(DomainError, match="solve_critical needs"):
        solve_critical(SPEC3, forms)


def test_critical_solve_report(critical_report, setup5):
    _, forms = setup5
    spec, seed, report = critical_report
    assert report.converged
    assert report.residual < 1e-6
    assert report.beta <= report.mp_level_m < report.threshold
    assert report.beta > 0.0
    sol = report.solution
    assert np.all(sol >= -1e-8 * sol.max())
    assert np.all(np.diff(sol) <= 1e-8 * sol.max())
    unorm = math.sqrt(norm_lambda_sq(report.solution, spec.lam, forms))
    u0norm = math.sqrt(norm_lambda_sq(seed, spec.lam, forms))
    assert unorm > 0.01 * u0norm


def test_verdict_checks_the_critical_nehari_identity(critical_report, setup5):
    # the shared verdict accepts demo_critical's solution at its own m and
    # rejects it at m (1 + 1e-6): the identity E = sum_t (1/2 - 1/e_t) P_t
    # holds over both power terms in critical mode too
    _, forms = setup5
    spec, seed, report = critical_report
    fn = _functional_for(spec, forms)
    assert solver._verdict(fn, spec, forms, report, seed, 1e-6)
    shifted = dataclasses.replace(report, energy=report.energy * (1.0 + 1e-6))
    assert not solver._verdict(fn, spec, forms, shifted, seed, 1e-6)


def test_critical_ray_cross_check(critical_report, setup5):
    # m is the Nehari level of J: the solution's ray peaks at the solution
    # itself, and every ray maximum the descent passed bounds m from above
    grid, forms = setup5
    spec, _, report = critical_report
    fn = _functional_for(spec, forms)
    level, zeta, _ = _ray_max(fn, report.solution)
    assert zeta == pytest.approx(1.0, abs=1e-10)
    assert level == pytest.approx(report.mp_level_m, rel=1e-12)
    assert min(report.energy_history) >= report.mp_level_m * (1.0 - 1e-12)


def test_demo_critical_level_is_pinned(critical_report, perfbench_reference):
    # demo_critical's mountain-pass level and threshold at n = 400, as
    # perfbench/reference.json records them
    ref = perfbench_reference["critical"]["headline"]
    _, _, report = critical_report
    assert report.mp_level_m == pytest.approx(ref["mp_level_m"], rel=1e-10)
    assert report.threshold == pytest.approx(ref["threshold"], rel=1e-10)


def _solve_at(spec, setup):
    # the ground state or the mountain-pass solution, each from its own seed
    solve = solve_subcritical if spec.mode == "subcritical" else solve_critical
    return solve(spec, setup[1])


def _full_descent(spec, setup, monkeypatch):
    # a hand-off threshold of 0 runs the descent to tol before the polish
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_HANDOFF_RTOL", 0.0)
        return _solve_at(spec, setup)


SPEC5_LAM3 = ProblemSpec(N=5, s=0.5, lam=3.0, p=2.0, mode="critical_perturbed")


@pytest.fixture(scope="module")
def forms_at(cache_dir):
    """(grid, forms) at (N, s) on 400 nodes, R_max 12 for N = 5 and 20
    otherwise, as the demo configs and perfbench's even-n4 build them."""
    return lambda N, s: build_forms(N, s, r_max=12.0 if N == 5 else 20.0, n=400,
                                    cache_dir=cache_dir)


@pytest.mark.parametrize("spec", [
    ProblemSpec(N=5, s=0.5, lam=1.0, p=2.0, mode="critical_perturbed"),
    SPEC5_LAM3,
    SPEC3,
    ProblemSpec(N=4, s=0.5, lam=0.0, p=2.0),
    dataclasses.replace(SPEC3, s=0.25),
    dataclasses.replace(SPEC3, s=0.75),
    ProblemSpec(N=5, s=0.5, lam=0.9 * 4.0, p=2.0, mode="critical_perturbed"),
], ids=["demo_critical", "lambda3", "demo_subcritical", "even_n4", "n3_s0.25", "n3_s0.75",
        "n5_lambda3.6"])
def test_handoff_matches_full_descent(forms_at, monkeypatch, spec):
    # Newton from the hand-off iterate lands on the point the full descent
    # (_HANDOFF_RTOL = 0) and its polish reach
    setup = forms_at(spec.N, spec.s)
    full = _full_descent(spec, setup, monkeypatch)
    assert full.descent_stop in ("gradient_tol", "budget")
    handoff = _solve_at(spec, setup)
    assert handoff.converged and not handoff.descent_resumed
    assert handoff.descent_steps < full.descent_steps
    assert handoff.energy == pytest.approx(full.energy, rel=1e-10)
    peak = np.abs(full.solution).max()
    assert np.abs(handoff.solution - full.solution).max() <= 1e-9 * peak


def test_handoff_fallback_resumes_descent(setup5, monkeypatch):
    # handed off at 3e-2, Newton stalls far from the solution at lambda = 3;
    # the descent resumes on what is left of the budget and the second
    # polish recovers the full descent's level
    full = _full_descent(SPEC5_LAM3, setup5, monkeypatch)
    monkeypatch.setattr(solver, "_HANDOFF_RTOL", 3e-2)
    report = _solve_at(SPEC5_LAM3, setup5)
    assert report.descent_resumed
    assert report.descent_steps <= 400
    assert report.converged
    assert report.mp_level_m == pytest.approx(full.mp_level_m, rel=1e-10)


def test_morse_index_counts_descent_directions(subcritical_report, critical_report,
                                              setup3, setup5):
    # at 0 the Hessian is the quadratic form, positive definite; at either
    # mountain-pass point exactly one direction descends
    for (spec, *_, report), (grid, forms) in ((subcritical_report, setup3),
                                              (critical_report, setup5)):
        fn = _functional_for(spec, forms)
        index, next_mu = morse_index(fn, np.zeros(grid.n))
        assert index == 0 and next_mu >= 1.0
        index, next_mu = morse_index(fn, report.solution)
        assert index == 1 and next_mu > 0.0


def test_ray_peak_matches_mpmath():
    # two-term ray equations over (q, c, e), and one-term ones, against the
    # 50-digit root of q = sum_t c_t z^(e_t - 2) and the ray level there
    import mpmath

    qs = [float(q) for q in np.geomspace(1e-6, 1e6, 7)]
    cases = list(itertools.product(
        qs, [(1e-3, 1.0), (1.0, 1.0), (5.0, 1e-4)],
        [(10.0 / 3.0, 3.0), (4.0, 3.0), (6.0, 2.5)]))
    cases += [(q, (c,), (e,)) for q, c, e in itertools.product(
        qs, (1e-3, 5.0), (2.5, 3.0, 10.0 / 3.0, 6.0))]
    with mpmath.workdps(50):
        for q, coeffs, exponents in cases:
            level, z = _ray_peak(q, coeffs, exponents)
            terms = [(mpmath.mpf(c), mpmath.mpf(e)) for c, e in zip(coeffs, exponents)]
            log_z = mpmath.findroot(
                lambda x: sum(c * mpmath.exp((e - 2) * x) for c, e in terms) - q,
                mpmath.log(z))
            want = mpmath.exp(log_z)
            want_level = want ** 2 * q / 2 - sum(c * want ** e / e for c, e in terms)
            assert abs(z - float(want)) <= 4 * np.spacing(float(want))
            assert abs(level - float(want_level)) <= 1e-15 * float(want_level)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_ray_max_rejects_an_overflowing_power_integral(setup3, setup5):
    # |v|^e summing to inf must not give the zero ray (level 0 at z = 0),
    # which the descent would accept as a step
    for spec, (grid, forms) in ((SPEC3, setup3),
                                (ProblemSpec(N=5, s=0.5, lam=1.0, p=2.0,
                                             mode="critical_perturbed"), setup5)):
        v = 1e100 * np.exp(-grid.nodes ** 2)
        with pytest.raises(NumericalError, match="not finite"):
            _ray_max(_functional_for(spec, forms), v)


def test_descent_counts_accepted_steps(setup3, monkeypatch):
    # every accepted step adds one level to the history, whichever way the
    # descent stops
    grid, forms = setup3
    fn = _functional_for(SPEC3, forms)
    v0 = np.exp(-grid.nodes ** 2)
    for want, tol, max_iter in (("budget", 1e-12, 3), ("gradient_tol", 1e-3, 400)):
        _, steps, history, stop = _nehari_descent(fn, v0, tol, max_iter)
        assert stop == want and steps == len(history) - 1 > 0
    monkeypatch.setattr(solver, "_ARMIJO", 1e300)
    _, steps, history, stop = _nehari_descent(fn, v0, 1e-12, 400)
    assert stop == "line_search_failed" and steps == len(history) - 1 == 0


def _counting(monkeypatch, owner, name, counts):
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_critical_path_builds_each_functional_once(setup5, monkeypatch):
    # a critical solve builds J and the threshold once for the seed search
    # and the solve (the second critical constant is the mountain-pass
    # envelope's), checks each of the 11 seed candidates once, and the
    # mountain-pass geometry forms the lambda metric once for both
    # embedding constants
    _, forms = setup5
    spec = ProblemSpec(N=5, s=0.5, lam=1.0, p=2.0, mode="critical_perturbed")
    counts = {}
    for name in ("_functional_for", "estimate_critical_constant", "check_threshold"):
        _counting(monkeypatch, solver, name, counts)
    solve_critical(spec, forms)
    assert counts == {"_functional_for": 1, "estimate_critical_constant": 2,
                      "check_threshold": 11}
    counts.clear()
    _counting(monkeypatch, QuadraticForms, "lambda_metric", counts)
    mountain_pass_geometry(spec, forms)
    assert counts == {"estimate_critical_constant": 1, "lambda_metric": 1}


def test_solves_factor_the_lambda_metric_once(setup3, setup5, monkeypatch):
    # one L D L^T factor per lambda serves the metric's check, every
    # functional of the solve and the lambda norms of its checks
    from hypfrac import funcspace

    counts = {}
    _counting(monkeypatch, funcspace, "metric_factor", counts)
    critical = ProblemSpec(N=5, s=0.5, lam=1.0, p=2.0, mode="critical_perturbed")
    for (grid, forms), spec in ((setup3, SPEC3), (setup5, critical)):
        fresh = QuadraticForms(grid, forms.s, forms.stiffness, forms.nonlocal_mat)
        counts.clear()
        report = _solve_at(spec, (grid, fresh))
        weak_max_check(report.solution, spec, fresh)
        assert counts == {"metric_factor": 1}, spec.mode


def test_each_solve_reaches_the_verdict_once(setup3, setup5, monkeypatch):
    # both modes judge a solve by the one rule, once per solve
    counts = {}
    _counting(monkeypatch, solver, "_verdict", counts)
    critical = ProblemSpec(N=5, s=0.5, lam=1.0, p=2.0, mode="critical_perturbed")
    for spec, setup in ((SPEC3, setup3), (critical, setup5)):
        counts.clear()
        assert _solve_at(spec, setup).converged
        assert counts == {"_verdict": 1}, spec.mode


def test_mountain_pass_geometry_positive(setup5):
    grid, forms = setup5
    spec = ProblemSpec(N=5, s=0.5, lam=1.0, p=2.0, mode="critical_perturbed")
    beta, radius = mountain_pass_geometry(spec, forms)
    assert beta > 0.0 and radius > 0.0


def test_mountain_pass_radius_is_the_shared_ray_root(setup5):
    # the envelope's maximizer and maximum are the ray peak at q = 1 with
    # the embedding constants of the local functional as coefficients
    grid, forms = setup5
    spec = ProblemSpec(N=5, s=0.5, lam=1.0, p=2.0, mode="critical_perturbed")
    beta, radius = mountain_pass_geometry(spec, forms)
    local = _Functional(forms, spec.lam, None, [spec.p + 1.0])
    two_star = spec.critical_exponent
    c1 = estimate_critical_constant(local, two_star) ** (-two_star / 2.0)
    c2 = estimate_subcritical_constant(local) ** (-(spec.p + 1.0) / 2.0)
    assert (beta, radius) == _ray_peak(1.0, (c1, c2), (two_star, spec.p + 1.0))


def test_estimate_critical_constant_deterministic(setup5):
    grid, forms = setup5
    spec = ProblemSpec(N=5, s=0.5, lam=1.0, p=2.0, mode="critical_perturbed")
    fn = _functional_for(spec, forms)
    two_star = spec.critical_exponent
    a = estimate_critical_constant(fn, two_star)
    assert a == estimate_critical_constant(fn, two_star)
    assert a > 0.0
    # the bubble family the estimate extrapolates concentrates downhill
    quotients = []
    for eps in solver._CONCENTRATION_SCALES:
        v = solver._bubble(grid, eps)
        den = fn.power_integral(v, two_star) ** (2.0 / two_star)
        quotients.append(fn.quad_form(v) / den)
    assert np.all(np.diff(quotients) < 0.0)


def test_weak_max_on_solutions(subcritical_report, setup3):
    grid, forms = setup3
    spec, report = subcritical_report
    assert weak_max_check(report.solution, spec, forms).passes


def test_weak_max_rejects_sign_changing(setup3):
    grid, forms = setup3
    bad = np.exp(-grid.nodes ** 2) \
        - 0.4 * np.exp(-((grid.nodes - 3.0) / 0.7) ** 2)
    bad[-1] = 0.0
    check = weak_max_check(bad, SPEC3, forms)
    assert not check.passes
    assert check.neg_norm_lambda_sq > 0.0
    assert check.neg_seminorm_sq > 0.0


def test_weak_max_accepts_nonnegative(setup3):
    grid, forms = setup3
    assert weak_max_check(np.exp(-grid.nodes ** 2), SPEC3, forms).passes


def test_solve_report_json_fields(subcritical_report):
    spec, report = subcritical_report
    payload = report.to_dict(solution_ref="profile.csv")
    assert list(payload.keys()) == [
        "solution", "energy", "nehari_value", "residual", "c_star",
        "mp_level_m", "beta", "mp_radius", "threshold", "iterations",
        "converged",
    ]
    assert payload["solution"] == "profile.csv"
    assert payload["mp_level_m"] is None
