"""Cached construction of grids, reduced kernels and quadratic forms.

The reduced-kernel assembly dominates the cost of a solve, so the weight
matrix and the three forms are cached on disk keyed by a content hash of
(dimension, order, grid nodes); a stale entry can never match a different
configuration.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .cache import atomic_write_npz, content_key, default_cache_dir, load_npz
from .funcspace import QuadraticForms, RadialGrid, assemble_forms, make_grid
from .kernel import DiagonalModel, ReducedKernel, build_reduced_kernel


def build_forms(dim: int, s: float, r_max: float = 20.0, n: int = 400,
                spacing: str = "graded",
                cache_dir=None) -> tuple[RadialGrid, ReducedKernel, QuadraticForms]:
    """Grid + reduced kernel + assembled forms, disk-cached."""
    grid = make_grid(dim, r_max=r_max, n=n, spacing=spacing)
    cache_root = Path(cache_dir) if cache_dir else default_cache_dir()
    key = content_key("forms", dim, repr(float(s)), grid.nodes)
    path = cache_root / f"forms_{key}.npz"

    data = load_npz(path)
    if data is not None:
        try:
            reduced = ReducedKernel(
                dim, float(s), data["rk_grid"], data["rk_w"],
                DiagonalModel(dim, float(s), float(data["rk_prefactor"])),
            )
            forms = QuadraticForms(grid, float(s), data["stiffness"],
                                   data["mass"], data["nonlocal_mat"])
            return grid, reduced, forms
        except (KeyError, ValueError):
            pass  # malformed entry; rebuild below

    reduced = build_reduced_kernel(dim, s, grid.cell_midpoints)
    forms = assemble_forms(grid, s, reduced)
    atomic_write_npz(
        path,
        rk_grid=reduced.r_grid, rk_w=reduced.W,
        rk_prefactor=np.float64(reduced.diagonal_model.prefactor),
        stiffness=forms.stiffness, mass=forms.mass,
        nonlocal_mat=forms.nonlocal_mat,
    )
    return grid, reduced, forms
