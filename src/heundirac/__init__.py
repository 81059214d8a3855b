"""Dirac-Coulomb bound states via confluent Heun and Kummer functions.

Four analytic solution routes (hypergeometric, two mixed Heun/Kummer
rotations, and a pure-Heun construction) share one closed-form spectrum,
cross-checked by a formula-free shooting integrator.
"""

from .errors import HeunDiracError, InvalidParams, NoConvergence
from .model import (ANALYTIC_ROUTES, EnergyLevel, MixingCase, StandardVars,
                    SystemParams, energy_closed_form, heun_params_case1,
                    heun_params_case2, heun_params_full, mixing_case,
                    quantization_residuals, singular_point_D_consistency,
                    solve_quantization, standard_vars)
from .oracle import (frobenius_start, integrate_radial, scan_brackets,
                     shoot_energy)
from .routes import (CoefficientRatio, RadialGrid, RadialSolution,
                     coefficient_ratio, count_nodes, default_grid, normalize,
                     residual, solve_heun_full, solve_mixed_case1,
                     solve_mixed_case2, solve_standard)
from .specfun import (HeunCParams, KummerParams, heunc, heunc_derivative,
                      heunc_poly_degree, heunc_second_derivative,
                      heunc_series_coefficients, heunc_truncation, kummer,
                      kummer_derivative, kummer_series_coefficients)

__version__ = "0.1.0"
