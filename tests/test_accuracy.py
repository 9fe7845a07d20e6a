"""Accuracy ratchet: the solver's headline numbers at n = 400 against
references computed without any of its code.

The N=3 ground-state levels c* (R_max 20, lambda = 0, p = 3) come from an
independent spectral solve of the factor-2 problem: with u = w / sinh r and
w odd, sine modes on [0, L] (DST-I) diagonalise every quadratic form, and a
Petviashvili iteration at M = 2048 modes converges to every printed digit;
L = 12, 20 and 30 agree to 3e-11.  demo_critical's level m comes from a
Koornwinder-shift solve (u = T^2 g, T = (1/sinh r) d/dr) on the Dirichlet
ball, whose K = 3000 and 3500 runs agree to 1e-15.

Each bound sits just above the error measured when it was recorded (in the
comments).  A change that improves accuracy lowers its bound; no change
ever raises one.
"""

import pytest

from hypfrac.pipeline import build_forms
from hypfrac.solver import ProblemSpec, solve_subcritical

# s: (reference c*, bound on the relative error at n = 400)
_C_STAR = {0.25: (40.549144417, 0.134),   # -13.34%
           0.5: (55.598569019, 0.038),    # -3.763%
           0.75: (94.138402667, 0.0079)}  # +0.783%
_M_REFERENCE, _M_BOUND = 152.583012047, 1.31e-3  # -1.307e-3


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
