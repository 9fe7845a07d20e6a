"""Radial volume of the hyperbolic ball model.

In geodesic polar coordinates the hyperbolic volume element is
omega_{N-1} * sinh(r)^(N-1) dr dsigma; every radial integral of the
package is taken against this weight.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError


def sphere_area(n: int) -> float:
    """Surface area omega_{n-1} of the unit sphere S^{n-1} in R^n.

    Computed as 2 pi^(n/2) / Gamma(n/2), exact for every integer n >= 1.
    """
    if n < 1:
        raise DomainError(f"sphere dimension must be >= 1, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def radial_volume_weight(n: int, r):
    """Radial density omega_{n-1} sinh(r)^(n-1) of the hyperbolic volume.

    Accepts a scalar or an array of radii; n must be >= 2.
    """
    if int(n) != n or n < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {n}")
    rv = np.asarray(r, dtype=float)
    if np.any(rv < 0.0) or not np.all(np.isfinite(rv)):
        raise DomainError("radii must be finite and >= 0")
    w = sphere_area(int(n)) * np.sinh(rv) ** (int(n) - 1)
    return float(w) if np.ndim(w) == 0 else w
