"""Numerics for the mixed local-nonlocal elliptic problem on the
hyperbolic ball: kernel evaluation, radial energy forms, ground-state and
mountain-pass solves, and the property-verification suites.

Import what you use from its submodule (hypfrac.kernel, hypfrac.solver,
...); the package itself re-exports nothing."""

__version__ = "0.1.0"
