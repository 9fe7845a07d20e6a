"""Independent N=3 references for the accuracy tests, from scipy alone.

On H^3 write u = w / sinh r, with w odd on the real line.  Then
int u^2 dV = 4 pi int w^2 dr, int |grad u|^2 dV = 4 pi int (w'^2 + w^2) dr,
<(-Delta)^s u, u> = 4 pi int w (1 - d^2)^s w dr and
int |u|^q dV = 4 pi int |w|^q sinh^(2-q) r dr, so the sine modes of [0, L]
(DST-I on M interior points, wavenumbers k = j pi / L) diagonalise every
quadratic form, and the trapezoid rule on the same points integrates.
"""

import numpy as np
from scipy.fft import dst, idst

L, M = 20.0, 2048
H = L / (M + 1)
R = H * np.arange(1, M + 1)
_K2 = (np.pi / L * np.arange(1, M + 1)) ** 2


def _apply(symbol, w):
    return idst(symbol * dst(w, type=1), type=1)


def seminorm(s, w):
    """4 pi int w (1 - d^2)^s w dr: <(-Delta)^s u, u> for w = u sinh r
    sampled at R."""
    return 4.0 * np.pi * H * (w @ _apply((1.0 + _K2) ** s, w))


def ground_state_level(s, c, lam=0.0, p=3.0):
    """c*, the ground-state level of
    1/2 (|grad u|^2 - lam |u|^2 + c <(-Delta)^s u, u>) - int |u|^(p+1) / (p+1)
    on H^3, by Petviashvili's iteration w <- (<w, Lw> / <w, N(w)>)^(p/(p-1))
    L^-1 N(w), with L the symbol 1 + k^2 + c (1 + k^2)^s - lam and
    N(w) = |w|^(p-1) w sinh^(1-p) r, from w = r e^-r until the relative
    change is below 1e-14."""
    symbol = 1.0 + _K2 + c * (1.0 + _K2) ** s - lam
    weight = np.sinh(R) ** (1.0 - p)
    w = R * np.exp(-R)
    for _ in range(1000):
        nonlinear = np.abs(w) ** (p - 1.0) * w * weight
        scale = (w @ _apply(symbol, w) / (w @ nonlinear)) ** (p / (p - 1.0))
        w, old = scale * _apply(1.0 / symbol, nonlinear), w
        if np.abs(w - old).max() < 1e-14 * np.abs(w).max():
            quadratic = w @ _apply(symbol, w)
            power = np.sum(np.abs(w) ** (p + 1.0) * weight) / (p + 1.0)
            return 4.0 * np.pi * H * (0.5 * quadratic - power)
    raise RuntimeError("Petviashvili iteration did not converge")
