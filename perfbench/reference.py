#!/usr/bin/env python3
"""Write perfbench/reference.json: the answers the benchmark checks against.

Run from the repository root (about 15 minutes on a 2-core machine):

    python3 perfbench/reference.py

For every benchmark config this runs fresh-process solves through the same
runner as perfbench/run.py.  It records the exit code and headline numbers
at the workload's node count, and the printed sup_value/threshold pair of
the exit-4 config.  For the configs with a ladder it also solves at each
ladder size and Richardson-extrapolates the energy (c* or m) from the last
three sizes with their observed order; that limit is the base of
``energy_err_rel``.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
import time
from pathlib import Path

from run import CONFIGS, FAILURE_LINE, REFERENCE, Runner

# node counts per config; the n=200 critical forms fail the reduced-kernel
# diagonal validation (exit 3), so its ladder starts at 400
LADDERS = {
    "even-n4": (200, 400, 800, 1600),
    "critical": (400, 800, 1600),
    "critical-threshold-failure": (),
}
HEADLINE = {"subcritical": ("energy", "c_star"),
            "critical_perturbed": ("energy", "mp_level_m", "threshold")}
# exit-0 answers are checked to 1e-8; the exit-4 pair is printed with 8
# significant digits, so it is checked to 1e-7
REL_TOL = {0: 1e-8, 4: 1e-7}


def richardson(ns, energies) -> tuple[float, float]:
    """Limit and observed order from the last three sizes of a doubling ladder."""
    d1 = energies[-3] - energies[-2]
    d2 = energies[-2] - energies[-1]
    ratio = ns[-1] / ns[-2]
    order = math.log(d1 / d2) / math.log(ratio)
    return energies[-1] - d2 / (ratio ** order - 1.0), order


def main() -> int:
    root = Path.cwd()
    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="reference-", dir=work))
    runner = Runner(root, run_dir, time.perf_counter() + 1e6)
    out = {}
    try:
        for name, ladder in LADDERS.items():
            cfg = CONFIGS[name]
            sdir, _, code, _ = runner.solve(name)
            entry = {"exit_code": code, "rel_tol": REL_TOL[code]}
            if code == 4:
                m = FAILURE_LINE.search((sdir / "stdout").read_text())
                entry["sup_value"], entry["threshold"] = float(m.group(1)), float(m.group(2))
            else:
                report = json.loads((sdir / "out" / "report.json").read_text())
                entry["headline"] = {k: report[k] for k in HEADLINE[cfg["problem"]["mode"]]}
            if ladder:
                energies = {cfg["grid"]["node_count"]: report["energy"]}
                for n in ladder:
                    if n in energies:
                        continue
                    CONFIGS[f"{name}@{n}"] = {**cfg, "grid": {**cfg["grid"], "node_count": n}}
                    sdir, wall, code, _ = runner.solve(f"{name}@{n}")
                    report = json.loads((sdir / "out" / "report.json").read_text())
                    if code != 0 or not report["converged"]:
                        raise SystemExit(f"{name} at n={n} exited {code}")
                    energies[n] = report["energy"]
                    print(f"{name} n={n}: energy {energies[n]:.10g} in {wall:.1f} s",
                          flush=True)
                limit, order = richardson(ladder, [energies[n] for n in ladder])
                entry.update(ladder={str(n): energies[n] for n in ladder},
                             energy_inf=limit, observed_order=order)
            out[name] = entry
            print(name, json.dumps(entry), flush=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    REFERENCE.write_text(json.dumps({"configs": out}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
