import math

import pytest
from scipy.integrate import quad

from hypfrac.errors import DomainError
from hypfrac.funcspace import radial_volume_weight, sphere_area


def test_volume_weight_vanishes_at_origin():
    for n in (2, 3, 4, 5):
        assert radial_volume_weight(n, 0.0) == 0.0


def test_volume_weight_closed_form_n3():
    assert radial_volume_weight(3, 1.0) == pytest.approx(
        4.0 * math.pi * math.sinh(1.0) ** 2, rel=1e-14)


def test_volume_weight_rejects_low_dimension():
    with pytest.raises(DomainError):
        radial_volume_weight(1, 1.0)


def test_volume_matches_quadrature_oracle():
    # volume in ball coordinates: integrate the conformal density over the
    # Euclidean radius t = tanh(r/2)
    for n, rr in ((2, 1.5), (3, 2.0), (4, 1.0)):
        t_max = math.tanh(rr / 2.0)
        oracle, _ = quad(
            lambda t: sphere_area(n) * (2.0 / (1.0 - t * t)) ** n * t ** (n - 1),
            0.0, t_max, limit=200)
        volume, _ = quad(lambda r: radial_volume_weight(n, r), 0.0, rr, limit=200)
        assert volume == pytest.approx(oracle, rel=1e-8)


def test_volume_weight_exponential_growth_rate():
    for n in (2, 3, 5):
        ratio = radial_volume_weight(n, 30.0) / math.exp((n - 1) * 30.0)
        assert ratio == pytest.approx(sphere_area(n) / 2.0 ** (n - 1), rel=1e-6)
