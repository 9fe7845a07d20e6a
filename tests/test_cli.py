import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hypfrac import solver, verify
from hypfrac.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_SUITE_FAILURE,
                         EXIT_THRESHOLD, EXIT_VALIDATION, SUITE_NAMES, RunConfig, main)
from hypfrac.errors import DomainError
from hypfrac.pipeline import build_forms


def run_cli(*argv):
    return main(list(argv))


def write_config(path, problem, out_dir, cache_dir, grid=None):
    cfg = {
        "problem": problem,
        "grid": grid or {"R_max": 20.0, "node_count": 400, "spacing": "graded"},
        "solver": {"tol": 1e-6, "max_iter": 400, "path_nodes": 48},
        "io": {"out_dir": str(out_dir), "cache_dir": str(cache_dir)},
    }
    path.write_text(json.dumps(cfg))
    return path


def test_kernel_writes_monotone_table(tmp_path):
    out = tmp_path / "table.csv"
    code = run_cli("kernel", "--dim", "3", "--s", "0.5", "--rho-min", "1e-3",
                   "--rho-max", "10", "--points", "64", "--out", str(out))
    assert code == EXIT_OK
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (64, 2)
    assert np.all(np.diff(data[:, 1]) < 0.0)


def test_kernel_validation_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "t.csv")
    assert run_cli("kernel", "--dim", "3", "--s", "0.5", "--rho-min", "1e-3",
                   "--rho-max", "10", "--points", "1", "--out", out) == EXIT_VALIDATION
    assert run_cli("kernel", "--dim", "3", "--s", "1.5", "--rho-min", "1e-3",
                   "--rho-max", "10", "--points", "64", "--out", out) == EXIT_VALIDATION
    assert run_cli("kernel", "--dim", "3", "--s", "0.5", "--rho-min", "10",
                   "--rho-max", "1", "--points", "64", "--out", out) == EXIT_VALIDATION
    # the checks of kernel() itself, and the table check past the radial
    # cutoff, where the even kernel is exactly zero
    for dim, s, rho_max, code, message in (
            ("1", "0.5", "10", EXIT_VALIDATION, "dimension must be an integer >= 2"),
            ("3", "nan", "10", EXIT_VALIDATION, "fractional order must lie in (0, 1)"),
            ("3", "0.5", "inf", EXIT_VALIDATION, "kernel radius must be finite and > 0"),
            ("4", "0.5", "1e6", EXIT_NUMERICAL,
             "kernel evaluation produced non-positive values"),
            # nodes between rho 355 and the cutoff, where z (z + 2) overflows
            ("4", "0.5", "590", EXIT_NUMERICAL,
             "kernel evaluation produced non-positive values")):
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("kernel", "--dim", dim, "--s", s, "--rho-min", "1e-3",
                           "--rho-max", rho_max, "--points", "64", "--out", out) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0], err
        # no raw numpy warning precedes the documented message
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], rho_max


def test_kernel_missing_flag_usage_error():
    with pytest.raises(SystemExit) as err:
        run_cli("kernel", "--dim", "3")
    assert err.value.code == 2


def test_solve_subcritical_run(tmp_path, cache_dir):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"N": 3, "s": 0.5, "lambda": 0.0, "p": 3.0, "mode": "subcritical"},
        tmp_path / "out", cache_dir)
    # "io.formats" is no longer a setting; configs that still carry it load
    raw = json.loads(cfg.read_text())
    raw["io"]["formats"] = ["json", "csv"]
    cfg.write_text(json.dumps(raw))
    assert run_cli("solve", "--config", str(cfg)) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["converged"] is True
    assert report["c_star"] > 0.0
    assert report["solution"] == "profile.csv"
    prof = np.loadtxt(tmp_path / "out" / "profile.csv", delimiter=",", skiprows=1)
    assert prof.shape[1] == 2
    conv = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
    assert conv[0] == "iteration,energy"
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert "timestamp" in meta
    # why the loops stopped is run-trace data, kept out of report.json
    assert meta["descent_stop"] == "gradient_tol"
    assert meta["descent_resumed"] is False
    assert meta["descent_steps"] + meta["newton_steps"] == report["iterations"]
    assert "descent_stop" not in report


def test_solve_reports_are_deterministic(tmp_path, cache_dir):
    prob = {"N": 3, "s": 0.5, "lambda": 0.0, "p": 3.0, "mode": "subcritical"}
    cfg1 = write_config(tmp_path / "c1.json", prob, tmp_path / "o1", cache_dir)
    cfg2 = write_config(tmp_path / "c2.json", prob, tmp_path / "o2", cache_dir)
    assert run_cli("solve", "--config", str(cfg1)) == EXIT_OK
    assert run_cli("solve", "--config", str(cfg2)) == EXIT_OK
    r1 = (tmp_path / "o1" / "report.json").read_bytes()
    r2 = (tmp_path / "o2" / "report.json").read_bytes()
    assert r1 == r2
    p1 = (tmp_path / "o1" / "profile.csv").read_bytes()
    p2 = (tmp_path / "o2" / "profile.csv").read_bytes()
    assert p1 == p2


def test_critical_level_agrees_across_blas_thread_counts(tmp_path, cache_dir):
    # the solve's linear algebra is matrix-vector products and the metric's
    # own tridiagonal solves, so demo_critical writes the same bytes at 1
    # and 2 BLAS threads
    problem = {"N": 5, "s": 0.5, "lambda": 1.0, "p": 2.0, "mode": "critical_perturbed"}
    build_forms(5, 0.5, r_max=12.0, n=400, cache_dir=cache_dir)
    src = Path(__file__).parent.parent / "src"
    outputs = []
    for threads in ("1", "2"):
        cfg = write_config(tmp_path / f"cfg{threads}.json", problem,
                           tmp_path / f"out{threads}", cache_dir,
                           grid={"R_max": 12.0, "node_count": 400, "spacing": "graded"})
        proc = subprocess.run(
            [sys.executable, "-m", "hypfrac.cli", "solve", "--config", str(cfg)],
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        outputs.append({name: (tmp_path / f"out{threads}" / name).read_bytes()
                        for name in ("report.json", "profile.csv", "convergence.csv")})
    assert outputs[1] == outputs[0]


def test_solve_critical_threshold_failure_exit_code(tmp_path, cache_dir, perfbench_reference):
    # the documented failure at the pinned parameters: exit 4 with the
    # offending pair printed, identically in two separate processes
    cfg = write_config(
        tmp_path / "cfg.json",
        {"N": 3, "s": 0.5, "lambda": 0.5, "p": 3.0, "mode": "critical_perturbed"},
        tmp_path / "out", cache_dir)
    runs = [subprocess.run([sys.executable, "-m", "hypfrac.cli", "solve",
                            "--config", str(cfg)], capture_output=True, text=True)
            for _ in range(2)]
    assert [run.returncode for run in runs] == [EXIT_THRESHOLD, EXIT_THRESHOLD]
    out = runs[0].stdout
    # the pair perfbench/reference.json records for this config
    ref = perfbench_reference["critical-threshold-failure"]
    assert ref["exit_code"] == EXIT_THRESHOLD
    assert out == (f"threshold failure: sup_value={ref['sup_value']:.8g} "
                   f"threshold={ref['threshold']:.8g}\n")
    assert runs[1].stdout == out


def test_solve_critical_resolved_configuration(tmp_path, cache_dir):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"N": 5, "s": 0.5, "lambda": 1.0, "p": 2.0, "mode": "critical_perturbed"},
        tmp_path / "out", cache_dir,
        grid={"R_max": 12.0, "node_count": 400, "spacing": "graded"})
    assert run_cli("solve", "--config", str(cfg)) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["converged"] is True
    assert report["beta"] <= report["mp_level_m"] < report["threshold"]
    assert report["c_star"] is None
    # the ray maximum per accepted descent step, then m: monotone up to the
    # rearrangement tolerance, as in the subcritical history
    levels = np.loadtxt(tmp_path / "out" / "convergence.csv", delimiter=",",
                        skiprows=1)[:, 1]
    assert np.all(np.diff(levels) <= 1e-10 * np.abs(levels[0]))
    assert levels[-1] == report["mp_level_m"]
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    # handed to Newton once the descent stalls below 10 _HANDOFF_RTOL, well
    # within budget
    assert meta["descent_stop"] == "stalled"
    assert meta["descent_steps"] < 400
    assert meta["descent_resumed"] is False
    assert meta["descent_steps"] + meta["newton_steps"] == report["iterations"]


def test_solve_config_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run_cli("solve", "--config", str(missing)) == EXIT_VALIDATION
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("solve", "--config", str(bad)) == EXIT_VALIDATION
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"problem": {"N": 2, "s": 0.5}}))
    assert run_cli("solve", "--config", str(invalid)) == EXIT_VALIDATION
    for shape in ([1], {"problem": {"N": 3, "s": 0.5}, "grid": 5}):
        invalid.write_text(json.dumps(shape))
        assert run_cli("solve", "--config", str(invalid)) == EXIT_VALIDATION
    # numbers are never coerced: N = 3.5 must not solve N = 3, "0.5" is not
    # a number, true is not 1.0, float keys must be finite, tol positive,
    # and the descent needs at least one step
    for section, key, value in (("problem", "N", 3.5), ("problem", "N", "3"),
                                ("problem", "s", "0.5"), ("problem", "s", True),
                                ("problem", "lambda", "0"), ("problem", "p", "3"),
                                ("grid", "R_max", "20"), ("solver", "tol", "1e-6"),
                                ("problem", "lambda", -math.inf),
                                ("problem", "lambda", -10 ** 400),
                                ("problem", "s", math.nan),
                                ("grid", "R_max", math.inf),
                                ("solver", "tol", math.nan),
                                ("solver", "tol", -1.0), ("solver", "tol", 0.0),
                                ("grid", "node_count", 64.0),
                                ("solver", "max_iter", 400.0),
                                ("solver", "max_iter", -3),
                                ("solver", "max_iter", 0),
                                ("grid", "spacing", "uniform"),
                                ("grid", "spacing", "geomuniform"),
                                ("grid", "spacing", 3)):
        cfg = {"problem": {"N": 3, "s": 0.5}}
        cfg.setdefault(section, {})[key] = value
        invalid.write_text(json.dumps(cfg))
        assert run_cli("solve", "--config", str(invalid)) == EXIT_VALIDATION
        assert f"config error: {section}.{key}" in capsys.readouterr().err
    invalid.write_text('{"problem": {"N": 3, "s": 0.5, "lambda": -Infinity}}')
    assert run_cli("solve", "--config", str(invalid)) == EXIT_VALIDATION
    assert ("config error: problem.lambda must be a finite number, got -inf"
            in capsys.readouterr().err)


@pytest.mark.parametrize("blocked", ["out_dir", "cache_dir", "kernel_out"])
def test_unwritable_path_is_a_usage_error(tmp_path, cache_dir, capsys, monkeypatch,
                                         blocked):
    # an out_dir under a regular file, a cache_dir that is one, or a kernel
    # --out under one: a one-line error and exit 2, not a traceback; the
    # out_dir is checked before any solve
    built = []
    monkeypatch.setattr("hypfrac.cli.build_forms",
                        lambda *a, **k: built.append(a) or build_forms(*a, **k))
    blocker = tmp_path / "file"
    blocker.write_text("")
    if blocked == "kernel_out":
        argv = ("kernel", "--dim", "3", "--s", "0.5", "--rho-min", "1e-3",
                "--rho-max", "10", "--points", "64", "--out", str(blocker / "t.csv"))
    else:
        dirs = {"out_dir": (blocker / "out", cache_dir),
                "cache_dir": (tmp_path / "out", blocker)}[blocked]
        argv = ("solve", "--config", str(write_config(
            tmp_path / "cfg.json",
            {"N": 3, "s": 0.5, "lambda": 0.0, "p": 3.0, "mode": "subcritical"},
            *dirs, grid=_COARSE_GRID)))
    assert run_cli(*argv) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(blocker) in err[0], err
    assert not (tmp_path / "out").exists()
    assert len(built) == (blocked == "cache_dir")


def test_domain_error_in_a_solve_is_a_usage_error(tmp_path, cache_dir, capsys, monkeypatch):
    # a DomainError raised by the solve itself: exit 2 with one line, not a
    # traceback, and no out_dir
    def reject(spec, forms, tol, max_iter):
        raise DomainError("ray maximum undefined: zero profile")

    monkeypatch.setattr(solver, "solve_subcritical", reject)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json",
                       {"N": 3, "s": 0.5, "lambda": 0.0, "p": 3.0, "mode": "subcritical"},
                       out, cache_dir, grid=_COARSE_GRID)
    assert run_cli("solve", "--config", str(cfg)) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == "error: ray maximum undefined: zero profile\n"
    assert captured.out == ""
    assert not out.exists()


# finite lambdas so negative that the solve overflows, or that its metric
# does (-1e295), next to the largest that still run to a report; there the
# ground state is a sub-grid spike at the origin, reported NOT converged
_NEGATIVE_LAMBDAS = {
    "subcritical": ((-1e10, EXIT_NUMERICAL), (-1e50, EXIT_NUMERICAL),
                    (-1e150, EXIT_NUMERICAL), (-1e200, None), (-1e250, None),
                    (-1e290, None)),
    "critical_perturbed": ((-1e10, EXIT_NUMERICAL), (-1e50, EXIT_NUMERICAL),
                           (-1e100, EXIT_NUMERICAL), (-1e150, None), (-1e200, None)),
}
# every failure names the quantity that left the floats: the report fields,
# or the envelope of mountain_pass_geometry (C1 underflows from -1e150 on)
_FAILURE_MESSAGES = {
    **{("subcritical", lam): "numerical failure: energy, nehari_value, residual, "
                             "c_star not finite" for lam in (-1e200, -1e250, -1e290)},
    **{("critical_perturbed", lam): "numerical failure: mountain-pass envelope is "
                                    f"not finite at lambda = {lam:g}"
       for lam in (-1e150, -1e200)},
}


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("mode", ["subcritical", "critical_perturbed"])
def test_solve_overflowing_lambda_metric(tmp_path, cache_dir, capsys, mode):
    # a finite lambda whose lambda * weights overflows is a numerical failure
    cfg = write_config(
        tmp_path / "cfg.json",
        {"N": 3, "s": 0.5, "lambda": -1e295, "p": 3.0, "mode": mode},
        tmp_path / "out", cache_dir,
        grid={"R_max": 20.0, "node_count": 64, "spacing": "graded"})
    assert run_cli("solve", "--config", str(cfg)) == EXIT_NUMERICAL
    assert "numerical failure: lambda metric is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # so is a finite metric on which the solve overflows: no traceback, no
    # outputs (a non-finite energy is never written to report.json)
    for k, (lam, code) in enumerate(_NEGATIVE_LAMBDAS[mode]):
        out = tmp_path / f"out{k}"
        cfg = write_config(
            tmp_path / "cfg.json",
            {"N": 3, "s": 0.5, "lambda": lam, "p": 3.0, "mode": mode},
            out, cache_dir,
            grid={"R_max": 20.0, "node_count": 64, "spacing": "graded"})
        got = run_cli("solve", "--config", str(cfg))
        captured = capsys.readouterr()
        if code is None:
            assert got == EXIT_NUMERICAL, lam
            assert _FAILURE_MESSAGES[(mode, lam)] in captured.err, lam
            assert not out.exists(), lam
        else:
            assert got == code, lam
            assert (out / "report.json").exists(), lam
            assert "NOT converged" in captured.out, lam


_COARSE_GRID = {"R_max": 20.0, "node_count": 64, "spacing": "graded"}


@pytest.mark.parametrize("mode,admissible_exit", [("subcritical", EXIT_OK),
                                                  ("critical_perturbed", EXIT_THRESHOLD)])
def test_solve_indefinite_lambda_metric(tmp_path, cache_dir, capsys, mode,
                                        admissible_exit):
    # on 64 nodes the discrete spectral bottom at N = 3 is 0.954, below
    # (N-1)^2/4 = 1: lambda = 0.96 passes validation, but the lambda metric
    # is no norm there, and neither mode may solve on it
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.json",
        {"N": 3, "s": 0.5, "lambda": 0.96, "p": 3.0, "mode": mode},
        out, cache_dir, grid=_COARSE_GRID)
    assert run_cli("solve", "--config", str(cfg)) == EXIT_NUMERICAL
    assert ("numerical failure: lambda metric is not positive definite at "
            "lambda = 0.96") in capsys.readouterr().err
    assert not out.exists()
    cfg = write_config(
        tmp_path / "cfg.json",
        {"N": 3, "s": 0.5, "lambda": 0.9, "p": 3.0, "mode": mode},
        out, cache_dir, grid=_COARSE_GRID)
    assert run_cli("solve", "--config", str(cfg)) == admissible_exit


@pytest.mark.parametrize("problem,r_max", [
    ({"N": 3, "s": 0.5, "lambda": 0.0, "p": 3.0, "mode": "subcritical"}, 20.0),
    ({"N": 5, "s": 0.5, "lambda": 1.0, "p": 2.0, "mode": "critical_perturbed"}, 12.0)])
def test_solve_verdict_includes_weak_max_check(tmp_path, cache_dir, capsys, monkeypatch,
                                               problem, r_max):
    # a solution with a negative part is not converged: stdout, report.json
    # and the exit code state that one verdict
    failing = solver.WeakMaxReport(False, -1.0, 1.0, 1.0)
    monkeypatch.setattr(solver, "weak_max_check", lambda u, spec, forms: failing)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", problem, out, cache_dir,
                       grid={"R_max": r_max, "node_count": 64, "spacing": "graded"})
    assert run_cli("solve", "--config", str(cfg)) == EXIT_NUMERICAL
    assert capsys.readouterr().out.startswith("NOT converged: energy ")
    assert json.loads((out / "report.json").read_text())["converged"] is False


@pytest.mark.parametrize("path_nodes", [0, 2.5])
def test_solve_ignores_retired_path_nodes(tmp_path, cache_dir, path_nodes):
    # "solver.path_nodes" set the deformed path's size; the critical solve
    # no longer has a path, and configs that still carry the key solve
    build_forms(5, 0.5, r_max=12.0, n=64, cache_dir=cache_dir)
    cfg = write_config(
        tmp_path / "cfg.json",
        {"N": 5, "s": 0.5, "lambda": 1.0, "p": 2.0, "mode": "critical_perturbed"},
        tmp_path / "out", cache_dir,
        grid={"R_max": 12.0, "node_count": 64, "spacing": "graded"})
    raw = json.loads(cfg.read_text())
    raw["solver"]["path_nodes"] = path_nodes
    cfg.write_text(json.dumps(raw))
    assert run_cli("solve", "--config", str(cfg)) == EXIT_OK


def test_solve_overflowing_nehari_scale(tmp_path, cache_dir, capsys):
    # (q / denom)^(1/(p-1)) overflows a float for p this close to 1
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.json",
        {"N": 3, "s": 0.5, "lambda": 0.0, "p": 1.0000001, "mode": "subcritical"},
        out, cache_dir, grid=_COARSE_GRID)
    assert run_cli("solve", "--config", str(cfg)) == EXIT_NUMERICAL
    assert ("numerical failure: Nehari scale overflows at p = 1.0000001"
            in capsys.readouterr().err)
    assert not out.exists()


def test_solve_overflowing_threshold(tmp_path, cache_dir, capsys):
    # S^(N/2) leaves the floats at lambda = -1e250: a numerical failure
    # that names the threshold, not a bare OverflowError
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.json",
        {"N": 3, "s": 0.5, "lambda": -1e250, "p": 3.0, "mode": "critical_perturbed"},
        out, cache_dir, grid=_COARSE_GRID)
    assert run_cli("solve", "--config", str(cfg)) == EXIT_NUMERICAL
    assert ("numerical failure: compactness threshold overflows at lambda = -1e+250"
            in capsys.readouterr().err)
    assert not out.exists()


def test_shipped_configs_load():
    configs = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
    assert configs
    for path in configs:
        RunConfig.from_file(path)


def test_solve_rejects_unknown_config_key(tmp_path, cache_dir, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"N": 3, "s": 0.5, "lambda": 0.0, "p": 3.0, "mode": "subcritical"},
        tmp_path / "out", cache_dir)
    raw = json.loads(cfg.read_text())
    raw["solver"]["max_itr"] = raw["solver"].pop("max_iter")
    cfg.write_text(json.dumps(raw))
    assert run_cli("solve", "--config", str(cfg)) == EXIT_VALIDATION
    assert "config error: unknown key solver.max_itr" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_mode_override_maps_critical(tmp_path, cache_dir):
    # --mode critical on a subcritical config flips the problem and, at the
    # pinned parameters, documents the threshold failure
    cfg = write_config(
        tmp_path / "cfg.json",
        {"N": 3, "s": 0.5, "lambda": 0.5, "p": 3.0, "mode": "subcritical"},
        tmp_path / "out", cache_dir)
    assert run_cli("solve", "--config", str(cfg), "--mode", "critical") \
        == EXIT_THRESHOLD


def test_verify_single_suite(cache_dir, capsys):
    assert run_cli("verify", "--suite", "maxprinciple",
                   "--cache-dir", str(cache_dir)) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("verify", "--suite", "bogus")
    assert err.value.code == EXIT_VALIDATION
    msg = capsys.readouterr().err
    assert msg.startswith("usage: hypfrac verify") and "invalid choice: 'bogus'" in msg


def test_suite_names_are_the_suites_verify_runs():
    # --suite all runs SUITE_NAMES in order, each by its entry in verify
    assert tuple(verify._SUITES) == SUITE_NAMES


def test_verify_reports_crashing_suite(monkeypatch, capsys):
    def crash(cache_dir=None):
        raise RuntimeError("boom")

    def stub(name):
        return lambda cache_dir=None: [verify.CheckResult(name, "stub", True, "ok")]

    suites = {name: stub(name) for name in SUITE_NAMES}
    suites["nehari"] = crash
    monkeypatch.setattr(verify, "_SUITES", suites)
    assert run_cli("verify", "--suite", "all") == EXIT_SUITE_FAILURE
    out = capsys.readouterr().out
    assert "FAIL  [nehari] raised RuntimeError: boom" in out
    assert out.count("PASS  [") == len(SUITE_NAMES) - 1
    # the detail column starts at one offset whatever the suite tag's length
    assert len({line.rindex(" ok") for line in out.splitlines()
                if line.startswith("  PASS  [")}) == 1


def test_trace_harness_finds_every_patched_name():
    # perfbench/trace_solve.py wraps hypfrac functions by name where they
    # are looked up; a deleted or renamed one must fail here, not in a
    # traced benchmark run
    root = Path(__file__).parent.parent
    code = ("import sys; sys.path.insert(0, 'perfbench'); import trace_solve; "
            "trace_solve.install(trace_solve.Tracer())")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root,
                          env={**os.environ, "PYTHONPATH": "src"},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_trace_sees_the_seed_search_inside_the_critical_solve(tmp_path, cache_dir):
    # the tracer wraps the seed search and check_threshold where solve_critical
    # looks them up: the search's span sits inside the solve's, and the 11
    # candidates are checked once each
    root = Path(__file__).parent.parent
    build_forms(5, 0.5, r_max=12.0, n=64, cache_dir=cache_dir)
    cfg = write_config(
        tmp_path / "cfg.json",
        {"N": 5, "s": 0.5, "lambda": 1.0, "p": 2.0, "mode": "critical_perturbed"},
        tmp_path / "out", cache_dir,
        grid={"R_max": 12.0, "node_count": 64, "spacing": "graded"})
    trace = tmp_path / "trace.json"
    proc = subprocess.run([sys.executable, "perfbench/trace_solve.py", str(trace),
                           "solve", "--config", str(cfg)], cwd=root,
                          env={**os.environ, "PYTHONPATH": "src"},
                          capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    got = json.loads(trace.read_text())
    spans = got["spans"]
    (search,) = [span for span in spans if span[1] == "search_threshold_seed"]
    assert spans[search[4]][1] == "solve_critical"
    assert got["counts"]["solver.threshold_checks"] == 11


# "lazy": those of the modules hypfrac loads only on demand that the run loaded
_IMPORT_BUDGET_RUN = """
import json, sys
from hypfrac.cli import main
codes = [main(["solve", "--config", path]) for path in sys.argv[1:]]
lazy = ("hypfrac.kernel", "hypfrac.verify", "hypfrac._goldens", "numpy.polynomial",
        "numpy.ma")
print(json.dumps({"codes": codes,
                  "loaded": sorted(m for m in sys.modules
                                   if m == "scipy" or m.startswith("scipy.")),
                  "lazy": sorted(m for m in lazy if m in sys.modules)}))
"""


def _run_import_budget(configs):
    src = Path(__file__).parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", _IMPORT_BUDGET_RUN, *configs],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_warm_solves_import_no_scipy(tmp_path, cache_dir):
    # a solve on cached forms evaluates no kernel and solves its linear
    # systems with numpy and the factored lambda metric: it must load no
    # scipy module at all, nor the kernel, the verify suites,
    # numpy.polynomial or numpy.ma
    problems = [({"N": 3, "s": 0.5, "lambda": 0.0, "p": 3.0, "mode": "subcritical"}, 20.0),
                ({"N": 5, "s": 0.5, "lambda": 1.0, "p": 2.0,
                  "mode": "critical_perturbed"}, 12.0)]
    configs = []
    for k, (problem, r_max) in enumerate(problems):
        build_forms(problem["N"], problem["s"], r_max=r_max, n=64, cache_dir=cache_dir)
        configs.append(str(write_config(
            tmp_path / f"cfg{k}.json", problem, tmp_path / f"out{k}", cache_dir,
            grid={"R_max": r_max, "node_count": 64, "spacing": "graded"})))
    got = _run_import_budget(configs)
    assert got["codes"] == [EXIT_OK, EXIT_OK]
    assert got["loaded"] == []
    assert got["lazy"] == []


def test_cold_solve_imports_no_scipy(tmp_path):
    # a solve on an empty cache evaluates the kernel, odd N by the Bessel
    # ladder and even N by its integral, with numpy's Bessel K: it must
    # load no scipy module at all either; it loads the kernel, and still
    # none of the verify suites, numpy.polynomial or numpy.ma
    configs = []
    for k, dim in enumerate((3, 4)):
        problem = {"N": dim, "s": 0.5, "lambda": 0.0, "p": 2.0, "mode": "subcritical"}
        configs.append(str(write_config(
            tmp_path / f"cfg{k}.json", problem, tmp_path / f"out{k}",
            tmp_path / "cold-cache",
            grid={"R_max": 20.0, "node_count": 64, "spacing": "graded"})))
    got = _run_import_budget(configs)
    assert got["codes"] == [EXIT_OK, EXIT_OK]
    assert got["loaded"] == []
    assert got["lazy"] == ["hypfrac.kernel"]
