"""The public surface of the package, pinned name by name.

The package loads each name's module on first read, so its namespace holds
a name only after it is read: the names are read through dir() and __all__.
"""

import types

import heundirac
from heundirac import model, specfun

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
    names = sorted(name for name in dir(heundirac) if not name.startswith("_")
                   and not isinstance(getattr(heundirac, name), types.ModuleType))
    assert len(PUBLIC_NAMES) == 38
    assert names == PUBLIC_NAMES == sorted(heundirac.__all__)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from heundirac import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(heundirac, "no_such_name")


def test_heun_parameters_are_one_class():
    assert specfun.HeunCParams is model.HeunCParams is heundirac.HeunCParams
