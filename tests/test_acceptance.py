"""Acceptance gate: every graduation criterion at its stated tolerance.

The properties are implemented once, in `hypfrac.verify`.  This module
runs `hypfrac verify --suite all` once and asserts on the PASS lines of
the checks behind each criterion; each test prints one PASS/FAIL line
(visible with -s or on failure) carrying the details verify reported.
"""

import subprocess
import sys
import time

import pytest

from hypfrac.verify import KERNEL_DIMS, KERNEL_ORDERS, SIGN_CHANGING_DIPS

# criterion -> the (suite, check name) pairs of `hypfrac verify` behind it
CRITERIA = {
    1: [("kernel", "positive and strictly decreasing (12 pairs x 200 pts)")],
    2: [("kernel", f"asymptotics N={n_dim} s={s}")
        for n_dim in KERNEL_DIMS for s in KERNEL_ORDERS],
    3: [("kernel", "odd-N exact algebra vs finite-difference oracle")],
    4: [("embedding", "seminorm/Dirichlet ratio finite, stable under doubling")],
    5: [("embedding", "Rayleigh quotients >= 0.98 (N-1)^2/4 across family"),
        ("embedding", "broad profile within 5% of the spectral bottom")],
    6: [("nehari", "projection idempotent and scale invariant (2 x 100 profiles)")],
    7: [("nehari", "subcritical ground state at (3, 0.5, 0, 3)")],
    8: [("nehari", "ground state has Morse index 1")],
    9: [("critical", "outcome at (3, 0.5, 0.5, 3) reproducible")],
    10: [("nehari", "rearrangement preserves L^q, does not increase energies")],
    11: [("maxprinciple", "converged solution passes the negative-part test")]
    + [("maxprinciple", f"sign-changing profile ({depth}, {width}) fails the test")
       for depth, width in SIGN_CHANGING_DIPS]
    + [("critical", "critical solution passes the negative-part test")],
}


@pytest.fixture(scope="module")
def verify_run(cache_dir):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "hypfrac.cli", "verify", "--suite", "all",
         "--cache-dir", str(cache_dir)],
        capture_output=True, text=True)
    return proc, time.monotonic() - t0


def check_line(stdout, suite, name):
    """(status, detail) of one check's `PASS|FAIL  [suite] name  detail`
    line in the verify output; status "MISSING" if the line is absent."""
    key = f"[{suite}] {name}"
    for line in stdout.splitlines():
        status, _, rest = line.strip().partition("  ")
        if status in ("PASS", "FAIL") and (rest + " ").startswith(key + " "):
            return status, rest[len(key):].strip()
    return "MISSING", ""


def report(num, verify_run):
    stdout = verify_run[0].stdout
    checks = [(name, *check_line(stdout, suite, name))
              for suite, name in CRITERIA[num]]
    passed = all(status == "PASS" for _, status, _ in checks)
    print(f"criterion {num:2d}: {'PASS' if passed else 'FAIL'} -- "
          + "; ".join(f"{name}: {status} {detail}".rstrip()
                      for name, status, detail in checks))
    assert passed, f"criterion {num}: " + "; ".join(
        f"{name}: {status}" for name, status, _ in checks if status != "PASS")


def test_criterion_1_kernel_law(verify_run):
    report(1, verify_run)


def test_criterion_2_kernel_asymptotics(verify_run):
    report(2, verify_run)


def test_criterion_3_odd_exactness(verify_run):
    report(3, verify_run)


def test_criterion_4_embedding_stability(verify_run):
    report(4, verify_run)


def test_criterion_5_spectral_bottom(verify_run):
    report(5, verify_run)


def test_criterion_6_nehari_mechanics(verify_run):
    report(6, verify_run)


def test_criterion_7_subcritical_solve(verify_run):
    report(7, verify_run)


def test_criterion_8_level_agreement(verify_run):
    report(8, verify_run)


def test_criterion_9_critical_outcome(verify_run):
    report(9, verify_run)


def test_criterion_10_symmetrization(verify_run):
    report(10, verify_run)


def test_criterion_11_weak_maximum_principle(verify_run):
    report(11, verify_run)


def test_criterion_12_verify_all(verify_run):
    proc, took = verify_run
    ok = proc.returncode == 0 and took < 600.0
    status = "PASS" if ok else "FAIL"
    print(f"criterion 12: {status} -- `verify --suite all` exit "
          f"{proc.returncode} in {took:.0f}s (< 600s)")
    assert ok, proc.stdout[-3000:] + proc.stderr[-3000:]
