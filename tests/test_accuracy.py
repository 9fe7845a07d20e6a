"""Accuracy ratchet: the solver's headline numbers at n = 400 against
references computed without any of its code.

The N=3 ground-state levels c* (R_max 20, lambda = 0, p = 3) and the
seminorms <(-Delta)^s u, u> of u = exp(-r^2) come from the independent
spectral solve of tests/_n3_reference.py: with u = w / sinh r and w odd,
sine modes on [0, L] (DST-I) diagonalise every quadratic form, and a
Petviashvili iteration at M = 2048 modes converges to every printed digit
(the tests below rerun it); L = 12, 20 and 30 agree to 3e-11.  The package
solves the factor-2 problem, as nonlocal_mat discretises 2 <(-Delta)^s u, u>.
demo_critical's level m comes from a Koornwinder-shift solve (u = T^2 g,
T = (1/sinh r) d/dr) on the Dirichlet ball, whose K = 3000 and 3500 runs
agree to 1e-15.

Each bound sits just above the error measured when it was recorded (in the
comments).  A change that improves accuracy lowers its bound; no change
ever raises one.
"""

import numpy as np
import pytest

import _n3_reference as n3
from hypfrac.funcspace import seminorm_s_sq
from hypfrac.pipeline import build_forms
from hypfrac.solver import ProblemSpec, solve_subcritical

# s: (reference c*, bound on the relative error at n = 400)
_C_STAR = {0.25: (40.549144417, 0.134),   # -13.34%
           0.5: (55.598569019, 0.038),    # -3.763%
           0.75: (94.138402667, 0.0079)}  # +0.783%
# c* of the factor-1 problem
_C_STAR_FACTOR_1 = {0.25: 31.168495270, 0.5: 37.714243167, 0.75: 51.742989228}
# s: (<(-Delta)^s u, u> of u = exp(-r^2), bound on the relative error of
# the n = 400 form, its last node pinned)
_SEMINORM = {0.25: (3.40805835, 0.349),   # -0.3485
             0.5: (4.63175771, 0.096),    # -0.0951
             0.75: (6.41301611, 0.00054)}  # -5.32e-4
_M_REFERENCE, _M_BOUND = 152.583012047, 1.31e-3  # -1.307e-3


@pytest.mark.parametrize("s", sorted(_C_STAR))
def test_reference_solve_reproduces_the_printed_levels(s):
    for c, printed in ((2.0, _C_STAR[s][0]), (1.0, _C_STAR_FACTOR_1[s])):
        level = n3.ground_state_level(s, c)
        assert level == pytest.approx(printed, rel=1e-9), c


@pytest.mark.parametrize("s", sorted(_SEMINORM))
def test_reference_reproduces_the_printed_seminorms(s):
    w = np.exp(-n3.R ** 2) * np.sinh(n3.R)
    assert n3.seminorm(s, w) == pytest.approx(_SEMINORM[s][0], rel=2e-9)


@pytest.mark.parametrize("s", sorted(_SEMINORM))
def test_seminorm_of_the_gaussian_within_its_bound(cache_dir, s):
    reference, bound = _SEMINORM[s]
    grid, forms = build_forms(3, s, r_max=20.0, n=400, cache_dir=cache_dir)
    u = np.exp(-grid.nodes ** 2)
    u[-1] = 0.0
    assert abs(seminorm_s_sq(u, forms) / (2.0 * reference) - 1.0) < bound


@pytest.mark.parametrize("s", sorted(_C_STAR))
def test_ground_state_level_within_its_bound(cache_dir, s):
    reference, bound = _C_STAR[s]
    _, forms = build_forms(3, s, r_max=20.0, n=400, cache_dir=cache_dir)
    report = solve_subcritical(ProblemSpec(N=3, s=s, lam=0.0, p=3.0), forms)
    assert report.converged
    assert abs(report.c_star / reference - 1.0) < bound


def test_demo_critical_level_within_its_bound(critical_report):
    _, _, report = critical_report
    assert abs(report.mp_level_m / _M_REFERENCE - 1.0) < _M_BOUND
