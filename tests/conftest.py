import json
from pathlib import Path

import pytest

from hypfrac.pipeline import build_forms


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("hypfrac_cache")


@pytest.fixture(scope="session")
def perfbench_reference():
    """perfbench/reference.json's pinned answers per config; the tests that
    pin an answer read it here, so a rebuild of that file re-pins them."""
    path = Path(__file__).parent.parent / "perfbench" / "reference.json"
    return json.loads(path.read_text())["configs"]


@pytest.fixture(scope="session")
def setup3(cache_dir):
    """(grid, forms) at (N, s) = (3, 0.5), 400 nodes."""
    return build_forms(3, 0.5, r_max=20.0, n=400, cache_dir=cache_dir)


@pytest.fixture(scope="session")
def setup3_fine(cache_dir):
    """Doubled-resolution companion of setup3."""
    return build_forms(3, 0.5, r_max=20.0, n=800, cache_dir=cache_dir)


@pytest.fixture(scope="session")
def setup5(cache_dir):
    """(grid, forms) at (N, s) = (5, 0.5) for critical runs."""
    return build_forms(5, 0.5, r_max=12.0, n=400, cache_dir=cache_dir)


@pytest.fixture(scope="session")
def subcritical_report(setup3):
    from hypfrac.solver import ProblemSpec, solve_subcritical

    _, forms = setup3
    spec = ProblemSpec(N=3, s=0.5, lam=0.0, p=3.0, mode="subcritical")
    return spec, solve_subcritical(spec, forms, tol=1e-6)


@pytest.fixture(scope="session")
def critical_report(setup5):
    """(spec, seed, report) of demo_critical; the seed is the search's, the
    one solve_critical starts from."""
    from hypfrac.solver import (ProblemSpec, _functional_for, _threshold,
                                search_threshold_seed, solve_critical)

    _, forms = setup5
    spec = ProblemSpec(N=5, s=0.5, lam=1.0, p=2.0, mode="critical_perturbed")
    fn = _functional_for(spec, forms)
    seed = search_threshold_seed(fn, _threshold(fn, spec))
    return spec, seed, solve_critical(spec, forms, tol=1e-6)
