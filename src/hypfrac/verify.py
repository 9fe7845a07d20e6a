"""Property-verification suites behind `hypfrac verify`.

Each suite runs the testable conclusions for one slice of the theory --
kernel structure, embedding and spectral bounds, Nehari mechanics with the
subcritical solve, the weak maximum principle, and the critically
perturbed solve -- and reports one pass/fail line per property.  These
checks are the only implementation of the acceptance criteria; the
acceptance tests read their lines from one `hypfrac verify` run.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from . import solver
from ._goldens import ODD_KERNEL_FD_ORACLE
from .errors import ThresholdNotMetError
from .funcspace import (assemble_local_forms, dirichlet_sq, lp_norm, make_grid,
                        schwarz_rearrange, seminorm_s_sq)
from .kernel import FAR_RATE_BAND, NEAR_EXPONENT_BAND, build_kernel_table, kernel
from .pipeline import build_forms

SUITE_NAMES = ("kernel", "embedding", "nehari", "maxprinciple", "critical")

KERNEL_DIMS = (2, 3, 4, 5)
KERNEL_ORDERS = (0.25, 0.5, 0.75)
NEHARI_SEEDS = (606, 20240709)
REARRANGE_SEEDS = (1010, 777)
SIGN_CHANGING_DIPS = ((0.4, 0.7), (0.5, 0.8))  # (depth, width) at r = 3


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


def profile_family(grid):
    """50 bumps and rings spanning widths and centers; last node pinned."""
    out = []
    r = grid.nodes
    for c in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
        for sig in (0.25, 0.5, 1.0, 2.0, 3.0):
            out.append(np.exp(-((r - c) / sig) ** 2))
    for c in (0.5, 1.0, 2.0, 4.0):
        for sig in (0.3, 0.6, 1.2, 2.4, 4.0):
            out.append((r / (c + sig)) ** 2 * np.exp(-((r - c) / sig) ** 2))
    for v in out:
        v[-1] = 0.0
    return out


def random_smooth_profiles(grid, count, seed=20240709):
    """Nonnegative random mixtures of Gaussians.

    Widths stay several cells wide and centers inside r <= 6 so every
    member is resolved by the default grid; rearrangement identities are
    only meaningful for profiles the grid can represent.
    """
    rng = np.random.default_rng(seed)
    r = grid.nodes
    out = []
    for _ in range(count):
        k = rng.integers(2, 6)
        v = np.zeros_like(r)
        for _ in range(k):
            c = rng.uniform(0.0, 6.0)
            sig = rng.uniform(0.5, 2.5)
            a = rng.uniform(0.1, 2.0)
            v += a * np.exp(-((r - c) / sig) ** 2)
        v[-1] = 0.0
        out.append(v)
    return out


def morse_index(fn, v) -> tuple[int, float]:
    """(count of negative eigenvalues, the next eigenvalue) of fn's Hessian
    at v on the free nodes against the lambda metric M: the eigenvalues mu
    of H x = mu M x.  A mountain-pass point has index 1 (Hofer 1985).
    Both matrices are scaled by the metric diagonal, then the Cholesky
    factor L of the scaled M reduces the pencil to L^-1 H L^-T."""
    bands = fn.metric
    d = np.sqrt(bands[1, :-1])
    scale = np.outer(d, d)
    metric = (np.diag(bands[1, :-1]) + np.diag(bands[0, 1:-1], 1)
              + np.diag(bands[0, 1:-1], -1))
    chol = np.linalg.cholesky(metric / scale)
    half = np.linalg.solve(chol, fn.hessian(v)[:-1, :-1] / scale)
    mu = np.linalg.eigvalsh(np.linalg.solve(chol, half.T))
    index = int(np.sum(mu < 0.0))
    return index, float(mu[index])


def suite_kernel(cache_dir=None) -> list[CheckResult]:
    res = []

    t0 = time.monotonic()
    law_ok, law_bad = True, ""
    rho = np.geomspace(1e-3, 20.0, 200)
    for n_dim in KERNEL_DIMS:
        for s in KERNEL_ORDERS:
            vals = np.asarray(kernel(n_dim, s, rho))
            if not (np.all(vals > 0.0) and np.all(np.diff(vals) < 0.0)):
                law_ok, law_bad = False, f"violation at N={n_dim}, s={s}"
                break
    took = time.monotonic() - t0
    res.append(CheckResult(
        "kernel", "positive and strictly decreasing (12 pairs x 200 pts)",
        law_ok and took < 30.0, law_bad or f"{took:.1f}s"))

    for n_dim in KERNEL_DIMS:
        for s in KERNEL_ORDERS:
            t0 = time.monotonic()
            try:
                tab = build_kernel_table(n_dim, s, 1e-4, 30.0, 400)
                took = time.monotonic() - t0
                near_dev = abs(tab.near_exponent + n_dim + 2 * s)
                far_dev = abs(tab.far_rate - (n_dim - 1)) / (n_dim - 1)
                ok = (near_dev < NEAR_EXPONENT_BAND and far_dev < FAR_RATE_BAND
                      and took < 10.0)
                detail = (f"near {tab.near_exponent:+.3f} (want {-(n_dim + 2 * s)}), "
                          f"far {tab.far_rate:.3f} (want {n_dim - 1}), {took:.1f}s")
            except Exception as exc:  # table rejection is what we're testing for
                ok, detail = False, str(exc)
            res.append(CheckResult("kernel", f"asymptotics N={n_dim} s={s}", ok, detail))

    worst = 0.0
    for (n_dim, s), table in ODD_KERNEL_FD_ORACLE.items():
        rhos = np.array([row[0] for row in table])
        ref = np.array([row[1] for row in table])
        got = np.asarray(kernel(n_dim, s, rhos))
        worst = max(worst, float(np.max(np.abs(got / ref - 1.0))))
    res.append(CheckResult(
        "kernel", "odd-N exact algebra vs finite-difference oracle",
        worst < 1e-6, f"worst rel dev {worst:.2e}"))
    return res


def suite_embedding(cache_dir=None) -> list[CheckResult]:
    res = []
    grids = {}
    for n_nodes in (400, 800):
        grid, forms = build_forms(3, 0.5, r_max=20.0, n=n_nodes,
                                     cache_dir=cache_dir)
        grids[n_nodes] = (grid, forms)

    ratios = {}
    for n_nodes, (grid, forms) in grids.items():
        ratios[n_nodes] = np.array([seminorm_s_sq(v, forms) / dirichlet_sq(v, forms)
                                    for v in profile_family(grid)])
    drift = float(np.max(np.abs(ratios[800] / ratios[400] - 1.0)))
    max_ratio = float(ratios[400].max())
    res.append(CheckResult(
        "embedding", "seminorm/Dirichlet ratio finite, stable under doubling",
        np.isfinite(max_ratio) and drift < 0.02,
        f"max ratio {max_ratio:.4f}, drift {drift:.2%}"))

    # embedding constants per order at N = 3
    for s in KERNEL_ORDERS:
        grid, forms = build_forms(3, s, r_max=20.0, n=400, cache_dir=cache_dir)
        c_emb = max(seminorm_s_sq(v, forms) / dirichlet_sq(v, forms)
                    for v in profile_family(grid))
        res.append(CheckResult(
            "embedding", f"[u]_s^2 <= C grad-energy at s={s}",
            np.isfinite(c_emb) and c_emb > 0.0, f"C = {c_emb:.4f}"))

    # spectral bottom over the family
    grid, forms = grids[400]
    bound = (grid.dim - 1.0) ** 2 / 4.0
    qmin = float(min(dirichlet_sq(v, forms) / lp_norm(grid, v, 2.0) ** 2
                     for v in profile_family(grid)))
    res.append(CheckResult(
        "embedding", "Rayleigh quotients >= 0.98 (N-1)^2/4 across family",
        qmin >= 0.98 * bound, f"min {qmin:.4f} vs bound {bound:.4f}"))

    # broad profile approaches the bottom from above (local forms suffice)
    big = make_grid(3, r_max=80.0, n=1600)
    stiff = assemble_local_forms(big)
    prof = (big.r_max - big.nodes) * np.exp(-big.nodes * (big.dim - 1) / 2.0)
    prof[-1] = 0.0
    q_broad = float(stiff @ np.diff(prof) ** 2 / np.sum(big.weights * prof ** 2))
    res.append(CheckResult(
        "embedding", "broad profile within 5% of the spectral bottom",
        bound <= q_broad <= 1.05 * bound, f"{q_broad:.5f} vs {bound:.5f}"))
    return res


def _subcritical_setup(cache_dir=None):
    grid, forms = build_forms(3, 0.5, r_max=20.0, n=400, cache_dir=cache_dir)
    spec = solver.ProblemSpec(N=3, s=0.5, lam=0.0, p=3.0, mode="subcritical")
    t0 = time.monotonic()
    report = solver.solve_subcritical(spec, forms, tol=1e-6)
    return grid, forms, spec, report, time.monotonic() - t0


def suite_nehari(cache_dir=None) -> list[CheckResult]:
    res = []
    grid, forms, spec, report, took = _subcritical_setup(cache_dir)

    fn = solver._functional_for(spec, forms)

    def project(v):
        return solver._ray_max(fn, v)[1] * v

    worst_t, worst_scale = 0.0, 0.0
    for seed in NEHARI_SEEDS:
        for v in random_smooth_profiles(grid, 100, seed=seed):
            proj = project(v)
            worst_t = max(worst_t, abs(solver._ray_max(fn, proj)[1] - 1.0))
            peak = max(float(np.abs(proj).max()), 1e-30)
            for alpha in (0.1, 10.0):
                again = project(alpha * v)
                worst_scale = max(
                    worst_scale, float(np.max(np.abs(again - proj))) / peak)
    res.append(CheckResult(
        "nehari", "projection idempotent and scale invariant (2 x 100 profiles)",
        worst_t < 1e-10 and worst_scale < 1e-12,
        f"t dev {worst_t:.2e}, scale dev {worst_scale:.2e}"))

    res.append(CheckResult(  # converged is solver._verdict's
        "nehari", "subcritical ground state at (3, 0.5, 0, 3)",
        report.converged and took < 120.0,
        f"c* = {report.c_star:.6f}, residual {report.residual:.2e}, {took:.1f}s"))

    # the Nehari minimum is a mountain-pass point: one descent direction
    # (along its ray), positive curvature across the Nehari set
    index, next_mu = morse_index(fn, report.solution)
    res.append(CheckResult(
        "nehari", "ground state has Morse index 1",
        index == 1, f"index {index}, next eigenvalue {next_mu:.4f}"))

    spec_shift = solver.ProblemSpec(N=3, s=0.5, lam=0.5, p=3.0, mode="subcritical")
    rep_shift = solver.solve_subcritical(spec_shift, forms, tol=1e-6)
    res.append(CheckResult(
        "nehari", "minimum level decreases as lambda increases",
        rep_shift.converged and rep_shift.c_star < report.c_star,
        f"{rep_shift.c_star:.6f} < {report.c_star:.6f}"))

    # L^q preservation is limited by the level resolution |grad u| * h of
    # the coarsest cells, so it is measured on a finer grid (no forms
    # needed there); the energy comparisons stay on the assembled grid
    fine = make_grid(3, r_max=20.0, n=2000)
    worst_lq, worst_energy = 0.0, -1.0
    for seed in REARRANGE_SEEDS:
        for v in random_smooth_profiles(fine, 100, seed=seed):
            star = schwarz_rearrange(fine, v)
            for q in (2.0, 4.0, 6.0):
                worst_lq = max(worst_lq, abs(lp_norm(fine, star, q) / lp_norm(fine, v, q) - 1.0))
        for v in random_smooth_profiles(grid, 100, seed=seed):
            star = schwarz_rearrange(grid, v)
            d0, d1 = dirichlet_sq(v, forms), dirichlet_sq(star, forms)
            s0, s1 = seminorm_s_sq(v, forms), seminorm_s_sq(star, forms)
            worst_energy = max(worst_energy, (d1 - d0) / max(d0, 1e-30),
                               (s1 - s0) / max(s0, 1e-30))
    res.append(CheckResult(
        "nehari", "rearrangement preserves L^q, does not increase energies",
        worst_lq < 1e-3 and worst_energy < 1e-3,
        f"L^q drift {worst_lq:.2e}, energy increase {worst_energy:.2e}"))
    return res


def suite_maxprinciple(cache_dir=None) -> list[CheckResult]:
    res = []
    grid, forms, spec, report, _ = _subcritical_setup(cache_dir)
    check = solver.weak_max_check(report.solution, spec, forms)
    res.append(CheckResult(
        "maxprinciple", "converged solution passes the negative-part test",
        report.converged and check.passes,
        f"min {check.min_value:.2e}, |u^-|_l^2 {check.neg_norm_lambda_sq:.2e}"))

    for depth, width in SIGN_CHANGING_DIPS:
        bad = (np.exp(-grid.nodes ** 2)
               - depth * np.exp(-((grid.nodes - 3.0) / width) ** 2))
        bad[-1] = 0.0
        check_bad = solver.weak_max_check(bad, spec, forms)
        res.append(CheckResult(
            "maxprinciple", f"sign-changing profile ({depth}, {width}) fails the test",
            not check_bad.passes, f"min {check_bad.min_value:.3f}"))
    return res


CRITICAL_PINNED = dict(N=3, s=0.5, lam=0.5, p=3.0)
CRITICAL_RESOLVED = dict(N=5, s=0.5, lam=1.0, p=2.0, r_max=12.0)


def _seed_outcome(spec, forms):
    """(report, None) from solve_critical, or (None, (sup_value, threshold))
    when its seed search raises ThresholdNotMetError."""
    try:
        return solver.solve_critical(spec, forms, tol=1e-6), None
    except ThresholdNotMetError as exc:
        return None, (exc.sup_value, exc.threshold)


def suite_critical(cache_dir=None) -> list[CheckResult]:
    res = []

    # pinned configuration: record the (deterministic) outcome of the seed
    # search; at this parameter point the documented outcome matters, not a
    # particular branch
    grid, forms = build_forms(3, 0.5, r_max=20.0, n=400, cache_dir=cache_dir)
    spec = solver.ProblemSpec(N=CRITICAL_PINNED["N"], s=CRITICAL_PINNED["s"],
                              lam=CRITICAL_PINNED["lam"], p=CRITICAL_PINNED["p"],
                              mode="critical_perturbed")
    runs = [_seed_outcome(spec, forms) for _ in range(2)]
    reports = [report for report, _ in runs if report is not None]
    ok = runs[0][1] == runs[1][1] and len(reports) != 1
    if not reports:
        detail = (f"threshold failure: best sup {runs[0][1][0]:.4f} "
                  f"vs threshold {runs[0][1][1]:.4f}")
    else:
        # a passing seed must lead to the same converged mountain pass twice
        ok = (ok and all(r.converged for r in reports)
              and reports[0].mp_level_m == reports[-1].mp_level_m)
        detail = (f"seed found: m = {reports[0].mp_level_m:.6f}, "
                  f"residual {reports[0].residual:.2e}")
    res.append(CheckResult(
        "critical", "outcome at (3, 0.5, 0.5, 3) reproducible", ok, detail))

    # resolved configuration: the full mountain-pass pipeline end to end
    cfg = CRITICAL_RESOLVED
    _, forms5 = build_forms(cfg["N"], cfg["s"], r_max=cfg["r_max"], n=400,
                            cache_dir=cache_dir)
    spec5 = solver.ProblemSpec(N=cfg["N"], s=cfg["s"], lam=cfg["lam"],
                               p=cfg["p"], mode="critical_perturbed")
    report, failure = _seed_outcome(spec5, forms5)
    if report is None:
        res.append(CheckResult("critical", "resolved configuration seed search",
                               False, f"no passing seed: (sup, threshold) = {failure}"))
        return res
    res.append(CheckResult(  # converged is solver._verdict's, after beta <= m
        "critical", "mountain-pass solve at (5, 0.5, 1, 2)",
        report.converged,
        f"beta {report.beta:.4f} <= m {report.mp_level_m:.4f} "
        f"< threshold {report.threshold:.4f}, residual {report.residual:.2e}"))

    index, next_mu = morse_index(solver._functional_for(spec5, forms5), report.solution)
    res.append(CheckResult(
        "critical", "mountain-pass solution has Morse index 1",
        index == 1, f"index {index}, next eigenvalue {next_mu:.4f}"))

    check = solver.weak_max_check(report.solution, spec5, forms5)
    res.append(CheckResult(
        "critical", "critical solution passes the negative-part test",
        check.passes, f"min {check.min_value:.2e}"))
    return res


_SUITES = {
    "kernel": suite_kernel,
    "embedding": suite_embedding,
    "nehari": suite_nehari,
    "maxprinciple": suite_maxprinciple,
    "critical": suite_critical,
}


def run_suites(names, cache_dir=None) -> bool:
    results = []
    for name in names:
        t0 = time.monotonic()
        try:
            results.extend(_SUITES[name](cache_dir=cache_dir))
        except Exception as exc:  # one crashing suite must not hide the others
            traceback.print_exc(file=sys.stderr)
            results.append(CheckResult(
                name, f"raised {type(exc).__name__}: {exc}", False))
        print(f"[{name}] completed in {time.monotonic() - t0:.1f}s")
    labels = [f"[{r.suite}] {r.name}" for r in results]
    width = max(map(len, labels)) + 2
    all_ok = True
    for r, label in zip(results, labels):
        status = "PASS" if r.passed else "FAIL"
        print(f"  {status}  {label:<{width}} {r.detail}".rstrip())
        all_ok &= r.passed
    failing = [r for r in results if not r.passed]
    if failing:
        print(f"{len(failing)} failing invariant(s):")
        for r in failing:
            print(f"  - [{r.suite}] {r.name}")
    else:
        print(f"all {len(results)} checks passed")
    return all_ok
