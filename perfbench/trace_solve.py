#!/usr/bin/env python3
"""Run one ``hypfrac`` command in this process with spans around each layer.

    python3 perfbench/trace_solve.py TRACE_JSON solve --config CFG [--mode M]

Each public function below is wrapped where it is looked up at run time,
so hypfrac's own code is unchanged.  A span records (layer, function,
start, end, parent index); spans stay in memory and are written with the
counters to TRACE_JSON when the command returns.  The exit code is the
command's.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans = []          # [layer, name, start, end, parent]
        self.stack = []
        self.counts = Counter()

    @contextmanager
    def span(self, layer: str, name: str):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append([layer, name, time.perf_counter(), None, parent])
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index][3] = time.perf_counter()

    def wrap(self, owner, attr: str, layer: str, after=None, before=None):
        """Replace owner.attr by a traced wrapper.

        ``before(args, kwargs)`` may return replacement (args, kwargs);
        ``after(result, args, kwargs)`` records counts from the call.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            with self.span(layer, attr):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(owner, attr, traced)


class _TimedNpz:
    """An opened npz whose array reads are cache.load spans.

    np.load reads an array only when it is indexed, so the span around
    load_npz alone would miss the read.
    """

    def __init__(self, npz, tracer: Tracer):
        self._npz = npz
        self._tracer = tracer

    def __getitem__(self, key):
        with self._tracer.span("cache.load", "NpzFile.__getitem__"):
            return self._npz[key]

    def __getattr__(self, name):
        return getattr(self._npz, name)


def install(tracer: Tracer):
    # hypfrac/__init__ exports a function named kernel, which shadows the
    # submodule as a package attribute
    cache, cli, kernel, pipeline, solver = (
        importlib.import_module(f"hypfrac.{name}")
        for name in ("cache", "cli", "kernel", "pipeline", "solver"))

    count = tracer.counts

    def forms_files(cache_dir):
        root = Path(cache_dir) if cache_dir else cache.default_cache_dir()
        return {p: p.stat().st_size for p in root.glob("forms_*.npz")} if root.is_dir() else {}

    # cache hit or miss is seen from outside: did a forms file appear?
    build_forms = cli.build_forms

    @functools.wraps(build_forms)
    def traced_build_forms(*args, **kwargs):
        before = forms_files(kwargs.get("cache_dir"))
        with tracer.span("pipeline.build_forms", "build_forms"):
            out = build_forms(*args, **kwargs)
        new = set(forms_files(kwargs.get("cache_dir")).items()) - set(before.items())
        count["cache.misses" if new else "cache.hits"] += 1
        count["cache.bytes_written"] += sum(size for _, size in new)
        return out

    cli.build_forms = traced_build_forms

    load_npz = pipeline.load_npz

    @functools.wraps(load_npz)
    def traced_load_npz(*args, **kwargs):
        with tracer.span("cache.load", "load_npz"):
            npz = load_npz(*args, **kwargs)
        return None if npz is None else _TimedNpz(npz, tracer)

    pipeline.load_npz = traced_load_npz
    tracer.wrap(pipeline, "atomic_write_npz", "cache.write")
    tracer.wrap(pipeline, "make_grid", "funcspace.make_grid")
    tracer.wrap(pipeline, "assemble_forms", "funcspace.assemble_forms")

    def count_pairs(rk, args, kwargs):
        n = rk.r_grid.size
        count["kernel.reduced_pairs"] += n * (n - 1) // 2

    tracer.wrap(pipeline, "build_reduced_kernel", "kernel.reduced", after=count_pairs)
    tracer.wrap(kernel, "build_kernel_table", "kernel.table",
                after=lambda t, a, k: count.update({"kernel.table_points": t.rho_grid.size}))

    # angular kernel evaluations, counted at the table interpolant W uses
    interpolator = kernel.KernelTable.interpolator

    @functools.wraps(interpolator)
    def counted_interpolator(self):
        evaluate = interpolator(self)

        def counted(rho):
            out = evaluate(rho)
            count["kernel.angular_evals"] += out.size
            return out

        return counted

    kernel.KernelTable.interpolator = counted_interpolator

    def count_points(args, kwargs):
        f = args[0]

        def counted(x):
            count["specfun.integrand_points"] += getattr(x, "size", 1)
            return f(x)

        count["specfun.adaptive_calls"] += 1
        return (counted, *args[1:]), kwargs

    tracer.wrap(kernel, "integrate_adaptive", "specfun.adaptive", before=count_points)

    def count_iterations(report, args, kwargs):
        count["solver.iterations"] += report.iterations

    def count_critical(report, args, kwargs):
        count_iterations(report, args, kwargs)
        count["solver.deform_sweeps"] += len(report.energy_history) - 1

    tracer.wrap(solver, "solve_subcritical", "solver.subcritical", after=count_iterations)
    tracer.wrap(solver, "solve_critical", "solver.critical", after=count_critical)
    tracer.wrap(solver, "weak_max_check", "solver.weak_max")
    tracer.wrap(solver, "search_threshold_seed", "solver.seed_search")
    tracer.wrap(solver, "check_threshold", "solver.seed_search",
                after=lambda r, a, k: count.update({"solver.threshold_checks": 1}))
    for name in ("estimate_critical_constant", "estimate_subcritical_constant",
                 "mountain_pass_geometry"):
        tracer.wrap(solver, name, "solver.constants")
    return cli


def main() -> int:
    trace_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    cli = install(tracer)
    try:
        with tracer.span("cli", "main"):
            code = cli.main(argv)
    finally:
        trace_path.write_text(json.dumps({"spans": tracer.spans,
                                          "counts": dict(tracer.counts)}))
    return code


if __name__ == "__main__":
    sys.exit(main())
