"""Numerics for the mixed local-nonlocal elliptic problem on the
hyperbolic ball: kernel evaluation, radial energy forms, ground-state and
mountain-pass solves, and the property-verification suites."""

from .errors import (BesselOverflowError, ConvergenceError, DomainError,
                     QuadratureError, ReducedKernelError, TableRejectionError,
                     ThresholdNotMetError)
from .geometry import radial_volume_weight, sphere_area
from .specfun import bessel_k, bessel_k_log
from .kernel import (BesselTerm, BesselTermSum, KernelTable, ReducedKernel,
                     apply_operator, bessel_base, build_kernel_table,
                     build_reduced_kernel, kernel_even, kernel_odd,
                     normalizing_constant)
from .funcspace import (QuadraticForms, RadialFunction, RadialGrid,
                        assemble_forms, lp_norm, make_grid, mixed_quotient,
                        norm_lambda_sq, schwarz_rearrange, seminorm_s_sq,
                        sobolev_quotient)
from .solver import (ProblemSpec, SeedSearch, SolveReport, ThresholdCheck,
                     WeakMaxReport, check_threshold, critical_ray_level,
                     energy_I, energy_J, estimate_critical_constant,
                     estimate_subcritical_constant, gradient_I, gradient_J,
                     mountain_pass_geometry, mountain_pass_level_subcritical,
                     nehari_project, nehari_scale, search_threshold_seed,
                     solve_critical, solve_subcritical, weak_max_check)
from .pipeline import build_forms

__version__ = "0.1.0"
