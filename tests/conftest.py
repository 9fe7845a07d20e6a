import numpy as np
import pytest

from hypfrac.pipeline import build_forms


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("hypfrac_cache")


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
    from hypfrac.funcspace import RadialFunction
    from hypfrac.solver import ProblemSpec, solve_subcritical

    grid, forms = setup3
    spec = ProblemSpec(N=3, s=0.5, lam=0.0, p=3.0, mode="subcritical")
    init = RadialFunction(grid, np.exp(-grid.nodes ** 2))
    return spec, solve_subcritical(spec, init, forms, tol=1e-6)


@pytest.fixture(scope="session")
def critical_report(setup5):
    from hypfrac.solver import ProblemSpec, search_threshold_seed, solve_critical

    grid, forms = setup5
    spec = ProblemSpec(N=5, s=0.5, lam=1.0, p=2.0, mode="critical_perturbed")
    seed = search_threshold_seed(spec, forms)
    return spec, seed, solve_critical(spec, seed, forms, tol=1e-6)
