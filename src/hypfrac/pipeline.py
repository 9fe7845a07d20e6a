"""Cached construction of grids and quadratic forms.

The reduced-kernel assembly dominates the cost of a solve, so the
nonlocal form it feeds is cached on disk keyed by a content hash of
(dimension, order, grid nodes); a stale entry can never match a different
configuration.  An entry holds the nonlocal form only: the stiffness and
the lumped mass form (the grid's weights) are O(n) to rebuild from the
grid, so a cache hit rebuilds them.  A hit reads no kernel: hypfrac.kernel
is imported only to build an entry, by build_reduced_kernel.
"""

from __future__ import annotations

from pathlib import Path

from .cache import atomic_write_npz, content_key, default_cache_dir, load_npz
from .funcspace import (QuadraticForms, RadialGrid, assemble_forms,
                        assemble_local_forms, make_grid)


def build_reduced_kernel(dim: int, s: float, r_grid):
    """kernel.build_reduced_kernel, its module imported on the first call: a
    solve on cached forms never loads it."""
    from . import kernel
    return kernel.build_reduced_kernel(dim, s, r_grid)


def build_forms(dim: int, s: float, r_max: float = 20.0, n: int = 400,
                cache_dir=None) -> tuple[RadialGrid, QuadraticForms]:
    """Grid + assembled forms, the nonlocal form disk-cached."""
    grid = make_grid(dim, r_max=r_max, n=n)
    cache_root = Path(cache_dir) if cache_dir else default_cache_dir()
    key = content_key("forms", dim, repr(float(s)), grid.nodes)
    path = cache_root / f"forms_{key}.npz"

    data = load_npz(path)
    if data is not None:
        try:
            return grid, QuadraticForms(grid, float(s), assemble_local_forms(grid),
                                        data["nonlocal_mat"])
        except KeyError:
            pass  # malformed entry; rebuild below

    reduced = build_reduced_kernel(dim, s, grid.cell_midpoints)
    forms = assemble_forms(grid, s, reduced)
    atomic_write_npz(path, nonlocal_mat=forms.nonlocal_mat)
    return grid, forms
