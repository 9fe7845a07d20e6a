"""Batch front-end: kernel tabulation, solves, and the verification suites.

Exit codes: 0 success; 1 failing verification suite; 2 validation or
usage error (DomainError), or an unwritable path (OSError); 3 numerical
failure -- a NumericalError from any layer, or a solve that did not
converge; 4 energy-threshold failure in critical mode
(ThresholdNotMetError).  The commands return 0, 1 or a solve's verdict
and raise everything else; main alone maps those errors to their exit
codes and messages, and the config parse alone prints its own, "config
error: ...", with exit code 2.  Reports are deterministic for a fixed
config, at any BLAS thread count (timestamps go to a separate metadata
file), so repeated runs are byte-identical and diff-able.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__, solver
from .errors import DomainError, NumericalError, ThresholdNotMetError
from .pipeline import build_forms

# kernel and verify are imported by cmd_kernel and cmd_verify alone, so a
# solve loads neither; the suite names argparse offers are kept here for that
SUITE_NAMES = ("kernel", "embedding", "nehari", "maxprinciple", "critical")

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_THRESHOLD = 4

# every key a config may carry; "io.formats" and "solver.path_nodes" are no
# longer read, but older configs that still have them keep loading, and
# "grid.spacing" names the one grid family, so its only value is "graded"
_CONFIG_KEYS = {
    "problem": ("N", "s", "lambda", "p", "mode"),
    "grid": ("R_max", "node_count", "spacing"),
    "solver": ("tol", "max_iter", "path_nodes"),
    "io": ("out_dir", "cache_dir", "formats"),
}


def _json_int(value, name: str) -> int:
    """A config value that must be a JSON integer: 3.5 or "3" is an error,
    never truncated or parsed."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _json_number(value, name: str) -> float:
    """A config value that must be a finite JSON number: "0.5", true,
    Infinity or NaN is an error, never parsed; an integer such as 3 is
    taken as 3.0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf if value > 0 else -math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {number}")
    return number


@dataclass
class RunConfig:
    """Validated run configuration; mirrors the JSON schema in the docs."""

    problem: solver.ProblemSpec
    r_max: float = 20.0
    node_count: int = 400
    tol: float = 1e-6
    max_iter: int = 400
    out_dir: Path = Path("out")
    cache_dir: Path | None = None

    @classmethod
    def from_file(cls, path, mode_override=None) -> "RunConfig":
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("a config must be a JSON object")
        for section, value in raw.items():
            if section not in _CONFIG_KEYS:
                raise ValueError(f"unknown key {section}")
            if not isinstance(value, dict):
                raise ValueError(f"config section {section} must be a JSON object")
            for key in value:
                if key not in _CONFIG_KEYS[section]:
                    raise ValueError(f"unknown key {section}.{key}")
        prob = raw.get("problem", {})
        mode = mode_override or prob.get("mode", "subcritical")
        if mode == "critical":
            mode = "critical_perturbed"
        spec = solver.ProblemSpec(
            N=_json_int(prob["N"], "problem.N"),
            s=_json_number(prob["s"], "problem.s"),
            lam=_json_number(prob.get("lambda", 0.0), "problem.lambda"),
            p=_json_number(prob.get("p", 3.0), "problem.p"), mode=mode,
        )
        grid = raw.get("grid", {})
        spacing = grid.get("spacing", "graded")
        if spacing != "graded":
            raise ValueError(f'grid.spacing must be "graded", got {spacing!r}')
        sol = raw.get("solver", {})
        io = raw.get("io", {})
        cache_dir = io.get("cache_dir")
        tol = _json_number(sol.get("tol", 1e-6), "solver.tol")
        if tol <= 0.0:
            raise ValueError(f"solver.tol must be > 0, got {tol}")
        max_iter = _json_int(sol.get("max_iter", 400), "solver.max_iter")
        if max_iter < 1:
            raise ValueError(f"solver.max_iter must be >= 1, got {max_iter}")
        return cls(
            problem=spec,
            r_max=_json_number(grid.get("R_max", 20.0), "grid.R_max"),
            node_count=_json_int(grid.get("node_count", 400), "grid.node_count"),
            tol=tol,
            max_iter=max_iter,
            out_dir=Path(io.get("out_dir", "out")),
            cache_dir=Path(cache_dir) if cache_dir else None,
        )


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=1) + "\n")


def _write_csv(path: Path, header: str, *columns):
    """One row per entry of the columns, every value written with 17
    significant digits so floats read back exactly."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def cmd_kernel(args) -> int:
    from .kernel import build_kernel_table
    table = build_kernel_table(args.dim, args.s, args.rho_min, args.rho_max, args.points)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, "rho,kernel_value", table.rho_grid, table.values)
    print(f"wrote {args.points}-point table to {out} "
          f"(near exponent {table.near_exponent:+.4f}, far rate {table.far_rate:.4f})")
    return EXIT_OK


def _solve_outputs(cfg: RunConfig, grid, report: solver.SolveReport):
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    profile_name = "profile.csv"
    _write_csv(cfg.out_dir / profile_name, "r,u", grid.nodes, report.solution)
    payload = report.to_dict(solution_ref=profile_name)
    _write_json(cfg.out_dir / "report.json", payload)
    history = report.energy_history
    _write_csv(cfg.out_dir / "convergence.csv", "iteration,energy",
               range(len(history)), history)
    metadata = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "hypfrac_version": __version__, "mode": cfg.problem.mode,
                "descent_steps": report.descent_steps,
                "newton_steps": report.newton_steps,
                "descent_stop": report.descent_stop,
                "descent_resumed": report.descent_resumed}
    _write_json(cfg.out_dir / "metadata.json", metadata)


def cmd_solve(args) -> int:
    try:
        cfg = RunConfig.from_file(args.config, mode_override=args.mode)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    # an out_dir that cannot be made ends the run before the solve, and is
    # made only after it, so a failed solve leaves none
    base = next(p for p in (cfg.out_dir, *cfg.out_dir.absolute().parents) if p.exists())
    if not (base.is_dir() and os.access(base, os.W_OK | os.X_OK)):
        raise OSError(f"cannot make out_dir {cfg.out_dir}: {base} is not a writable directory")
    grid, forms = build_forms(cfg.problem.N, cfg.problem.s, r_max=cfg.r_max,
                              n=cfg.node_count, cache_dir=cfg.cache_dir)
    spec = cfg.problem
    solve = solver.solve_subcritical if spec.mode == "subcritical" else solver.solve_critical
    report = solve(spec, forms, tol=cfg.tol, max_iter=cfg.max_iter)
    _solve_outputs(cfg, grid, report)
    status = "converged" if report.converged else "NOT converged"
    print(f"{status}: energy {report.energy:.8f}, residual {report.residual:.3e}, "
          f"outputs in {cfg.out_dir}")
    return EXIT_OK if report.converged else EXIT_NUMERICAL


def cmd_verify(args) -> int:
    from .verify import run_suites
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    ok = run_suites(names, cache_dir=args.cache_dir)
    return EXIT_OK if ok else EXIT_SUITE_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypfrac",
        description="Hyperbolic mixed local-nonlocal kernels, forms, and solves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", help="tabulate the radial kernel to CSV")
    k.add_argument("--dim", type=int, required=True)
    k.add_argument("--s", type=float, required=True)
    k.add_argument("--rho-min", type=float, required=True)
    k.add_argument("--rho-max", type=float, required=True)
    k.add_argument("--points", type=int, required=True)
    k.add_argument("--out", default="kernel_table.csv")
    k.set_defaults(func=cmd_kernel)

    s = sub.add_parser("solve", help="run a ground-state or mountain-pass solve")
    s.add_argument("--config", required=True)
    s.add_argument("--mode", choices=("subcritical", "critical"), default=None)
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify", help="run the property-verification suites")
    v.add_argument("--suite", choices=SUITE_NAMES + ("all",), required=True)
    v.add_argument("--cache-dir", default=None)
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ThresholdNotMetError as exc:
        print(f"threshold failure: sup_value={exc.sup_value:.8g} "
              f"threshold={exc.threshold:.8g}")
        return EXIT_THRESHOLD
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DomainError, OSError) as exc:  # bad input, or a path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
