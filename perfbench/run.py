#!/usr/bin/env python3
"""hypfrac benchmark: fresh-process solves in a closed loop, checked answers.

Run from the repository root:

    python3 perfbench/run.py --workload critical-warm --seed 1 --seconds 50 --trace 0

A user runs ``hypfrac solve --config ...`` once per fresh process, so every
timed solve is its own ``python -m hypfrac.cli solve`` process on ``src/``.
One closed-loop client runs one solve at a time, so at most one core is
busy with hypfrac's Python code.  An iteration runs every config of the
workload once, in an order shuffled by ``--seed``; the loop starts another
iteration only if it would end within ``--seconds``.  The configs are fixed
(copies of ``configs/demo_*.json`` as of the benchmark's definition) so
their answers can be checked against ``perfbench/reference.json``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs each solve once plainly and once under
``perfbench/trace_solve.py``, checks that both wrote the same report, and
reports the per-layer metrics of the traced solves together with the
tracing overhead (traced minus plain wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and every solve.  Scratch files go to
``.perfbench/`` in the current directory and are removed at exit, except
``.perfbench/trace_counts.json``.  It holds the count metrics of the first
traced run of each workload, keyed by a hash of the hypfrac sources and of
the benchmark's own code, so a later traced run is compared only with
earlier runs of the same code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

T_START = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
# A solve still running this long after --seconds has passed is killed, so
# that a run with --seconds 50 exits within 180 s.
KILL_AFTER_S = 120.0
SETUP_REPEATS = 3
BLAS_THREADS = 1

_SOLVER = {"tol": 1e-6, "max_iter": 400, "path_nodes": 48}

# Fixed inputs.  critical and critical-threshold-failure are
# configs/demo_*.json; "warmup" is demo_subcritical at a size where a solve
# costs little beyond interpreter start and import.
CONFIGS = {
    "even-n4": {
        "problem": {"N": 4, "s": 0.5, "lambda": 0.0, "p": 2.0, "mode": "subcritical"},
        "grid": {"R_max": 20.0, "node_count": 400, "spacing": "graded"},
        "solver": _SOLVER,
    },
    "critical": {
        "problem": {"N": 5, "s": 0.5, "lambda": 1.0, "p": 2.0,
                    "mode": "critical_perturbed"},
        "grid": {"R_max": 12.0, "node_count": 400, "spacing": "graded"},
        "solver": _SOLVER,
    },
    "critical-threshold-failure": {
        "problem": {"N": 3, "s": 0.5, "lambda": 0.5, "p": 3.0,
                    "mode": "critical_perturbed"},
        "grid": {"R_max": 20.0, "node_count": 400, "spacing": "graded"},
        "solver": _SOLVER,
    },
    "warmup": {
        "problem": {"N": 3, "s": 0.5, "lambda": 0.0, "p": 3.0, "mode": "subcritical"},
        "grid": {"R_max": 20.0, "node_count": 64, "spacing": "graded"},
        "solver": _SOLVER,
    },
}


@dataclass(frozen=True)
class Workload:
    configs: tuple
    # cold: every solve gets a fresh empty cache dir.  Warm: set-up fills
    # one cache dir per run by solving each config in subcritical mode,
    # which builds the same forms through the same CLI path.
    cold: bool


# why each workload was chosen is in BENCHMARK.json
WORKLOADS = {
    "even-n4-cold": Workload(("even-n4",), True),
    "critical-warm": Workload(("critical", "critical-threshold-failure"), False),
}

# Count metrics that must repeat exactly for the same code: within a run
# and across the traced runs of one checkout.
REPEATABLE_COUNTS = ("kernel.reduced_pairs", "kernel.table_points",
                     "solver.deform_sweeps", "solver.threshold_checks",
                     "cache.hits", "cache.misses")


@dataclass
class Solve:
    config: str
    traced: bool
    wall_s: float
    exit_code: int
    rss_mb: float
    ok: bool
    reason: str
    energy: float | None = None
    report: bytes = b""
    trace: dict = field(default_factory=dict)


class Runner:
    """Spawns solve processes under one run directory, one at a time."""

    def __init__(self, root: Path, run_dir: Path, deadline: float):
        self.root = root
        self.run_dir = run_dir
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        # a stray default cache dir would serve forms built by other code
        self.env["HYPFRAC_CACHE"] = str(run_dir / "no-default-cache")
        # A spinning second BLAS thread stalls whenever another process
        # holds the other core; one thread made fresh-process n=800 solves
        # both faster and steadier on a shared 2-core host.
        self.env["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

    def solve(self, name: str, cache_dir: Path | None = None, traced: bool = False,
              mode: str | None = None) -> tuple[Path, float, int, float]:
        """Run one solve, with a fresh empty cache dir unless one is given.

        Returns (its dir, wall seconds, exit code, peak RSS in MB).
        """
        self.count += 1
        sdir = self.run_dir / f"solve{self.count:04d}"
        sdir.mkdir()
        cfg = dict(CONFIGS[name])
        cfg["io"] = {"out_dir": str(sdir / "out"),
                     "cache_dir": str(cache_dir or sdir / "cache")}
        cfg_path = sdir / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        args = ["solve", "--config", str(cfg_path)]
        if mode:
            args += ["--mode", mode]
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "trace_solve.py"),
                   str(sdir / "trace.json"), *args]
        else:
            cmd = [sys.executable, "-m", "hypfrac.cli", *args]
        with open(sdir / "stdout", "wb") as out, open(sdir / "stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(self.deadline - time.perf_counter(), 1.0),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return sdir, wall, proc.returncode, usage.ru_maxrss / 1024.0


def code_hash(root: Path) -> str:
    """Hash of the hypfrac sources and the benchmark's own code."""
    h = hashlib.sha256()
    for base in (root / "src" / "hypfrac", BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            h.update(path.relative_to(base).as_posix().encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


FAILURE_LINE = re.compile(r"threshold failure: sup_value=(\S+) threshold=(\S+)")


def check_solve(name: str, sdir: Path, code: int, ref: dict) -> tuple[bool, str, float | None, bytes]:
    """Judge one solve against its reference; returns (ok, reason, energy, report bytes)."""
    want = ref["exit_code"]
    if code != want:
        return False, f"exit code {code}, expected {want}", None, b""
    tol = ref["rel_tol"]
    if code == 4:
        m = FAILURE_LINE.search((sdir / "stdout").read_text())
        if not m:
            return False, "exit 4 without the sup_value/threshold line", None, b""
        sup, thr = float(m.group(1)), float(m.group(2))
        if _rel(sup, ref["sup_value"]) > tol or _rel(thr, ref["threshold"]) > tol:
            return False, f"sup_value/threshold {sup}/{thr} off the reference", None, b""
        return True, "", None, m.group(0).encode()
    path = sdir / "out" / "report.json"
    if not path.is_file():
        return False, "no report.json", None, b""
    raw = path.read_bytes()
    report = json.loads(raw)
    if report["converged"] is not True:
        return False, "converged is false", None, raw
    if not report["residual"] < CONFIGS[name]["solver"]["tol"]:
        return False, f"residual {report['residual']:.3e} not below tol", None, raw
    for key, value in ref["headline"].items():
        got = report.get(key)
        if got is None or _rel(got, value) > tol:
            return False, f"{key} = {got} off the reference {value}", None, raw
    return True, "", float(report["energy"]), raw


def load_trace(path: Path, wall_s: float) -> dict:
    """Per-layer totals of one traced solve: self times, counts, import time."""
    data = json.loads(path.read_text())
    spans = data["spans"]          # [layer, name, start, end, parent]
    child = [0.0] * len(spans)
    for layer, _, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    out = dict.fromkeys(LAYER_TIMES, 0.0)
    main_s = 0.0
    for i, (layer, _, start, end, parent) in enumerate(spans):
        out[LAYER_TIMES_BY_SPAN[layer]] += (end - start) - child[i]
        if layer == "cli" and parent is None:
            main_s += end - start
    out["cli.import_s"] = wall_s - main_s
    counts = data["counts"]
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    return out


# span layer (as recorded by trace_solve.py) -> per-layer self-time metric
LAYER_TIMES_BY_SPAN = {
    "cli": "cli.self_s",
    "pipeline.build_forms": "pipeline.build_forms_s",
    "cache.load": "cache.load_s",
    "cache.write": "cache.write_s",
    "funcspace.make_grid": "funcspace.make_grid_s",
    "funcspace.assemble_forms": "funcspace.assemble_forms_s",
    "kernel.table": "kernel.table_s",
    "specfun.adaptive": "specfun.adaptive_s",
    "kernel.reduced": "kernel.reduced_self_s",
    "solver.subcritical": "solver.subcritical_s",
    "solver.weak_max": "solver.weak_max_s",
    "solver.critical": "solver.critical_s",
    "solver.seed_search": "solver.seed_search_s",
    "solver.constants": "solver.constants_s",
}
LAYER_TIMES = tuple(LAYER_TIMES_BY_SPAN.values()) + ("cli.import_s",)
COUNTS = ("cache.hits", "cache.misses", "cache.bytes_written",
          "kernel.table_points", "specfun.adaptive_calls",
          "specfun.integrand_points", "kernel.reduced_pairs",
          "kernel.angular_evals", "solver.deform_sweeps", "solver.iterations",
          "solver.threshold_checks")


def layer_metrics(traced: list[Solve], plain: list[Solve]) -> dict:
    """Per-iteration totals of the traced solves, plus overhead and rates."""
    out = {**dict.fromkeys(LAYER_TIMES, 0.0), **dict.fromkeys(COUNTS, 0)}
    for s in traced:
        for k, v in s.trace.items():
            out[k] += v
    wall = sum(s.wall_s for s in traced)
    out["trace.wall_s"] = wall
    out["trace.overhead_s"] = wall - sum(s.wall_s for s in plain)
    out["kernel.pairs_per_s"] = (out["kernel.reduced_pairs"] / out["kernel.reduced_self_s"]
                                 if out["kernel.reduced_self_s"] > 0 else 0.0)
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, as
    (value, level in percent); the slowest sample when there are 10 or fewer."""
    xs = sorted(values)
    if len(xs) <= 10:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


# Predictions written before measuring; a failed one is printed, not hidden.
def _dominates(m, keys):
    others = [v for k, v in m.items() if k in LAYER_TIMES and k not in keys]
    return sum(m[k] for k in keys) > max(others)


def _negligible(m, keys):
    return sum(m[k] for k in keys) < 0.05 * m["trace.wall_s"]


_TABLE = ("kernel.table_s", "specfun.adaptive_s")
PREDICTIONS = {
    "even-n4-cold": [
        ("kernel.table_s + specfun.adaptive_s dominate", lambda m: _dominates(m, _TABLE)),
    ],
    "critical-warm": [
        ("solver.critical_s dominates", lambda m: _dominates(m, ("solver.critical_s",))),
        ("kernel.reduced_self_s is zero", lambda m: m["kernel.reduced_self_s"] == 0.0),
        ("kernel.table_s + specfun.adaptive_s negligible", lambda m: _negligible(m, _TABLE)),
        ("no cache misses", lambda m: m["cache.misses"] == 0),
    ],
}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hypfrac" / "cli.py").is_file():
        print(f"error: no hypfrac sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    refs = json.loads(REFERENCE.read_text())["configs"]
    workload = WORKLOADS[args.workload]

    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        return _run(args, workload, spec, refs, root, run_dir, work)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, workload, spec, refs, root, run_dir, work) -> int:
    runner = Runner(root, run_dir, T_START + args.seconds + KILL_AFTER_S)

    # Set-up is a warm-up solve; on a warm workload the warm-up solves are
    # the cache fill.  It is repeated and the median taken; the last cache
    # dir filled is the one measured.
    setup_times, cache_dir = [], None
    t_setup = time.perf_counter()
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if workload.cold:
            steps = [("warmup", None)]
        else:
            cache_dir = run_dir / f"setup{rep}-cache"
            steps = [(name, cache_dir) for name in workload.configs]
        for name, cdir in steps:
            sdir, _, code, _ = runner.solve(name, cdir, mode="subcritical")
            if code != 0:
                print(f"error: set-up solve of {name} exited {code}:\n"
                      + (sdir / "stderr").read_text(), file=sys.stderr)
                return 1
        setup_times.append(time.perf_counter() - t0)
    setup_s = (t_setup - T_START) + statistics.median(setup_times)

    # The closed loop starts another iteration only if, at the mean
    # iteration time so far, it would end within --seconds.
    rng = random.Random(args.seed)
    plain: list[Solve] = []
    iterations: list[tuple[list[Solve], list[Solve]]] = []
    t_loop = time.perf_counter()
    while True:
        it_plain, it_traced = [], []
        for name in rng.sample(workload.configs, len(workload.configs)):
            for traced in ((False, True) if args.trace else (False,)):
                sdir, wall, code, rss = runner.solve(name, cache_dir, traced=traced)
                ok, reason, energy, report = check_solve(name, sdir, code, refs[name])
                if code < 0 and time.perf_counter() >= runner.deadline:
                    reason = f"killed {KILL_AFTER_S:g} s after --seconds ran out"
                s = Solve(name, traced, wall, code, rss, ok, reason, energy, report)
                if traced and (sdir / "trace.json").is_file():
                    s.trace = load_trace(sdir / "trace.json", wall)
                elif traced:
                    s.ok, s.reason = False, "traced solve wrote no trace"
                (it_traced if traced else it_plain).append(s)
        iterations.append((it_plain, it_traced))
        plain += it_plain
        elapsed = time.perf_counter() - t_loop
        if elapsed * (len(iterations) + 1) / len(iterations) > args.seconds:
            break

    solves = [s for it in iterations for s in it[0] + it[1]]
    self_checks = []
    if args.trace:
        self_checks = _trace_checks(f"{args.workload}@{code_hash(root)}",
                                    iterations, work)
        metrics = _per_layer(args.workload, iterations)
    else:
        metrics = _end_to_end(plain, setup_s, refs)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        self_checks.append(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                           "match BENCHMARK.json")

    failed = sum(not s.ok for s in solves)
    for s in solves:
        if not s.ok:
            print(f"FAILED {s.config} (traced={s.traced}): {s.reason}")
    for msg in self_checks:
        print(f"SELF-CHECK FAILED: {msg}")
    print(json.dumps({
        "workload": args.workload,
        "environment": environment(args.seed),
        "setup_runs_s": setup_times,
        "solves": [{"config": s.config, "traced": s.traced, "wall_s": s.wall_s,
                    "exit_code": s.exit_code, "rss_mb": s.rss_mb, "ok": s.ok}
                   for s in solves],
    }))
    print(json.dumps({
        "correct": failed == 0 and not self_checks,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "?")}
                    for k, v in sorted(metrics.items())},
    }))
    return 0


def _end_to_end(plain, setup_s, refs) -> dict:
    walls = [s.wall_s for s in plain]
    tail_s, level = tail(walls)
    print(f"solve_s.tail is p{level:g} over {len(walls)} solves")
    errs = [_rel(s.energy, refs[s.config]["energy_inf"])
            for s in plain if s.ok and s.energy is not None]
    return {
        "solve_s": statistics.median(walls),
        "solve_s.tail": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": max(s.rss_mb for s in plain),
        "solved_share": sum(s.ok for s in plain) / len(plain),
        # no checked answer at all counts as a 100% error
        "energy_err_rel": statistics.median(errs) if errs else 1.0,
    }


def _per_layer(name, iterations) -> dict:
    per_it = [layer_metrics(traced, plain) for plain, traced in iterations]
    metrics = {k: statistics.median(m[k] for m in per_it) for k in per_it[0]}
    wall = metrics["trace.wall_s"]
    print(f"traced wall per iteration {wall:.3f} s over {len(per_it)} iteration(s); "
          "self-time shares:")
    for k in sorted(LAYER_TIMES, key=lambda k: -metrics[k]):
        print(f"  {k:28s} {metrics[k]:9.4f} s  {100 * metrics[k] / wall:6.2f}%")
    for text, holds in PREDICTIONS[name]:
        print(f"prediction {'holds' if holds(metrics) else 'FAILS'}: {text}")
    return metrics


def _trace_checks(key, iterations, work) -> list[str]:
    """Tracing must not change answers, and counts must repeat exactly:
    within this run, and against the first traced run stored under
    ``key`` (workload and code hash)."""
    problems = []
    for plain, traced in iterations:
        for p, t in zip(plain, traced):
            if p.report != t.report:
                problems.append(f"{p.config}: traced and plain solves wrote different reports")
    counts = [{k: sum(s.trace.get(k, 0) for s in traced) for k in REPEATABLE_COUNTS}
              for _, traced in iterations]
    if any(c != counts[0] for c in counts):
        problems.append(f"count metrics differ between iterations: {counts}")
    store = work / "trace_counts.json"
    seen = json.loads(store.read_text()) if store.is_file() else {}
    if key in seen and seen[key] != counts[0]:
        problems.append(f"count metrics {counts[0]} differ from an earlier run's {seen[key]}")
    elif key not in seen and not problems:
        seen[key] = counts[0]
        store.write_text(json.dumps(seen, indent=1))
    return problems


if __name__ == "__main__":
    sys.exit(main())
