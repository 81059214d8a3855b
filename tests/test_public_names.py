"""The public surface of the package, pinned name by name."""

import types

import heundirac

PUBLIC_NAMES = [
    "ANALYTIC_ROUTES", "EnergyLevel", "HeunCParams", "HeunDiracError", "InvalidParams",
    "KummerParams", "MixingCase", "NoConvergence", "RadialGrid", "RadialSolution",
    "StandardVars", "SystemParams", "default_grid", "energy_closed_form",
    "frobenius_start", "heun_params_case1", "heun_params_case2", "heun_params_full",
    "heunc", "heunc_derivative", "heunc_second_derivative",
    "heunc_series_coefficients", "heunc_truncation", "integrate_radial", "kummer",
    "kummer_series_coefficients", "mixing_case", "normalize",
    "quantization_residuals", "residual", "scan_brackets", "shoot_energy",
    "solve_heun_full", "solve_mixed_case1", "solve_mixed_case2", "solve_quantization",
    "solve_standard", "standard_vars",
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(heundirac).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert len(PUBLIC_NAMES) == 38
    assert names == PUBLIC_NAMES
