"""Cached construction of grids and quadratic forms.

The reduced-kernel assembly dominates the cost of a solve, so the forms
it feeds are cached on disk keyed by a content hash of (dimension, order,
grid nodes); a stale entry can never match a different configuration.
An entry holds the stiffness and the nonlocal form; the lumped mass form
is the grid's weights, which are rebuilt with the grid.  Entries that
also carry a dense "mass" array (the earlier layout) still load.
"""

from __future__ import annotations

from pathlib import Path

from .cache import atomic_write_npz, content_key, default_cache_dir, load_npz
from .funcspace import QuadraticForms, RadialGrid, assemble_forms, make_grid
from .kernel import build_reduced_kernel


def build_forms(dim: int, s: float, r_max: float = 20.0, n: int = 400,
                cache_dir=None) -> tuple[RadialGrid, QuadraticForms]:
    """Grid + assembled forms, disk-cached."""
    grid = make_grid(dim, r_max=r_max, n=n)
    cache_root = Path(cache_dir) if cache_dir else default_cache_dir()
    key = content_key("forms", dim, repr(float(s)), grid.nodes)
    path = cache_root / f"forms_{key}.npz"

    data = load_npz(path)
    if data is not None:
        try:
            return grid, QuadraticForms(grid, float(s), data["stiffness"],
                                        data["nonlocal_mat"])
        except KeyError:
            pass  # malformed entry; rebuild below

    reduced = build_reduced_kernel(dim, s, grid.cell_midpoints)
    forms = assemble_forms(grid, s, reduced)
    atomic_write_npz(path, stiffness=forms.stiffness,
                     nonlocal_mat=forms.nonlocal_mat)
    return grid, forms
