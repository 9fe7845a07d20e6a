"""Solver sweep: solve a fixed grid of problems in one process and write one
JSON line per problem; with --against, compare the lines with an earlier
sweep's.

    PYTHONPATH=src python tests/_solver_sweep.py --n 400 --out new.jsonl \
        [--cache-dir DIR] [--against old.jsonl]

The grid is N in {3, 4, 5} x s in {0.25, 0.5, 0.75} x lambda in
{-0.5, 0, 0.5, 0.9} (N-1)^2/4 x both modes x p in {2, 3} for N = 3 and
{1.5, 2} for N = 4, 5, plus demo_critical (N=5, s=0.5, lambda=1, p=2,
critical) and its lambda = 3 twin: 146 problems on n nodes, R_max 12 for
N = 5 and 20 otherwise, solved with the CLI's defaults (tol 1e-6, 400
descent steps).  Each line holds the problem, the exit code the CLI would
give (0 converged, 3 not converged or NumericalError, 4 threshold not
met), the energy (c* or m) or for exit 4 the pair [sup_value, threshold],
beta and mp_radius, the descent and Newton steps, the descent's stop
reason, whether it resumed, and the solve's seconds (forms excluded).

--against prints the problems whose exit code differs, the exit-4 pairs
that differ, the worst relative difference of the converged energies, of
beta and of mp_radius, the problems that resume here but not there, and
both sides' step totals.  The script reads only names that the package
has exported for many versions, so PYTHONPATH can point it at another
checkout's src to sweep that one.
"""

import argparse
import itertools
import json
import time
import warnings
from collections import Counter

from hypfrac.errors import NumericalError, ThresholdNotMetError
from hypfrac.pipeline import build_forms
from hypfrac.solver import ProblemSpec, solve_critical, solve_subcritical

_KEY = ("N", "s", "lam", "p", "mode")


def problems():
    for N, s in itertools.product((3, 4, 5), (0.25, 0.5, 0.75)):
        for frac, mode, p in itertools.product(
                (-0.5, 0.0, 0.5, 0.9), ("subcritical", "critical_perturbed"),
                (2.0, 3.0) if N == 3 else (1.5, 2.0)):
            yield ProblemSpec(N, s, frac * (N - 1) ** 2 / 4.0, p, mode)
    for lam in (1.0, 3.0):
        yield ProblemSpec(5, 0.5, lam, 2.0, "critical_perturbed")


def run(spec, forms) -> dict:
    line = {k: getattr(spec, k) for k in _KEY}
    solve = solve_subcritical if spec.mode == "subcritical" else solve_critical
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = solve(spec, forms)
    except ThresholdNotMetError as exc:
        line.update(exit=4, energy=[exc.sup_value, exc.threshold])
    except NumericalError as exc:
        line.update(exit=3, error=str(exc))
    else:
        line.update(
            exit=0 if report.converged else 3,
            energy=report.c_star if spec.mode == "subcritical" else report.mp_level_m,
            beta=report.beta, mp_radius=report.mp_radius,
            descent_steps=report.descent_steps, newton_steps=report.newton_steps,
            descent_stop=report.descent_stop, descent_resumed=report.descent_resumed)
    line["seconds"] = time.perf_counter() - start
    return line


def compare(new: list, old: list):
    before = {tuple(line[k] for k in _KEY): line for line in old}
    worst = dict.fromkeys(("energy", "beta", "mp_radius"), (0.0, None))
    for line in new:
        key = tuple(line[k] for k in _KEY)
        ref = before[key]
        if line["exit"] != ref["exit"]:
            print(f"{key}: exit {ref['exit']} -> {line['exit']}")
        elif line["exit"] == 4 and line["energy"] != ref["energy"]:
            print(f"{key}: exit-4 pair {ref['energy']} -> {line['energy']}")
        elif line["exit"] == 0:
            for name in worst:
                if line[name] is not None:
                    rel = abs(line[name] - ref[name]) / abs(ref[name])
                    worst[name] = max(worst[name], (rel, key), key=lambda pair: pair[0])
        if line.get("descent_resumed") and not ref.get("descent_resumed"):
            print(f"{key}: resumes its descent, the earlier sweep did not")
    for name, (rel, key) in worst.items():
        print(f"worst relative {name} difference (converged): {rel:.3g} at {key}")
    for name in ("descent_steps", "newton_steps", "seconds"):
        totals = [sum(line.get(name, 0) for line in lines) for lines in (old, new)]
        print(f"total {name}: {totals[0]:.6g} -> {totals[1]:.6g}")
    exits = [dict(sorted(Counter(line["exit"] for line in lines).items()))
             for lines in (old, new)]
    print(f"exit codes: {exits[0]} -> {exits[1]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=400)
    parser.add_argument("--out", required=True)
    parser.add_argument("--cache-dir")
    parser.add_argument("--against")
    args = parser.parse_args(argv)
    lines, forms = [], {}
    with open(args.out, "w") as out:
        for spec in problems():
            if (spec.N, spec.s) not in forms:
                forms[spec.N, spec.s] = build_forms(
                    spec.N, spec.s, r_max=12.0 if spec.N == 5 else 20.0, n=args.n,
                    cache_dir=args.cache_dir)[1]
            lines.append(run(spec, forms[spec.N, spec.s]))
            out.write(json.dumps(lines[-1]) + "\n")
    if args.against:
        with open(args.against) as f:
            compare(lines, [json.loads(line) for line in f])


if __name__ == "__main__":
    main()
