"""The public surface of the package, pinned name by name.

The package loads each name's module on first read, so its namespace holds
a name only after it is read: the names are read through dir() and __all__.
"""

import ast
import inspect
import types
from pathlib import Path

import pytest

import heundirac
from heundirac import maps, model, routes, specfun

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

# each public callable's parameters, names and defaults, as a call writes
# them; the errors take Exception's arguments
SIGNATURES = {
    "EnergyLevel": "(n, nu, parity, E, route, lam)",
    "HeunCParams": "(alpha, beta, gamma, delta, eta)",
    "KummerParams": "(a, c)",
    "MixingCase": "(case_id, sin_a, cos_a, cos_half, sin_half, singular_point, c_plus, "
                  "c_minus, s_plus, s_minus)",
    "RadialGrid": "(r)",
    "RadialSolution": "(grid, f, g, E, route, params, df=None, dg=None, _frame=None)",
    "StandardVars": "(lam, mu, eps, a_frob)",
    "SystemParams": "(e, nu, m=1.0, parity=1)",
    "default_grid": "(lam, points=2000, r_min=None, r_max=None)",
    "energy_closed_form": "(n, params)",
    "frobenius_start": "(params, E, r_start)",
    "heun_params_case1": "(params, E, lam)",
    "heun_params_case2": "(params, E, lam)",
    "heun_params_full": "(params, E, lam)",
    "heunc": "(p, z)",
    "heunc_derivative": "(p, z)",
    "heunc_second_derivative": "(p, z)",
    "heunc_series_coefficients": "(p, count)",
    "heunc_truncation": "(p)",
    "integrate_radial": "(params, E, grid)",
    "kummer": "(params, x)",
    "kummer_series_coefficients": "(params, count)",
    "mixing_case": "(case_id, params, E, lam)",
    "normalize": "(solution)",
    "quantization_residuals": "(params, E, lam, n)",
    "residual": "(solution)",
    "scan_brackets": "(params, e_min_scale=0.2, e_max_scale=0.999999999, points=200)",
    "shoot_energy": "(params, E_lo, E_hi)",
    "solve_heun_full": "(params, level, grid)",
    "solve_mixed_case1": "(params, level, grid)",
    "solve_mixed_case2": "(params, level, grid)",
    "solve_quantization": "(params, n, route)",
    "solve_standard": "(params, level, grid)",
    "standard_vars": "(params, E, lam)",
}
# module functions that other modules call, outside the package namespace
MODULE_SIGNATURES = {
    specfun.heunc_ode_residual: "(maps, z, coeffs)",
    routes.mixed1_parts: "(params, level, grid)",
    routes.mixed2_parts: "(params, level, grid)",
}


def _parameters(fn):
    """fn's parameter list without annotations: names, defaults and markers."""
    sig = inspect.signature(fn)
    return str(sig.replace(parameters=[p.replace(annotation=p.empty)
                                       for p in sig.parameters.values()],
                           return_annotation=sig.empty))


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
    assert specfun.HeunCParams is maps.HeunCParams is heundirac.HeunCParams


#: the rotation-case and Heun-map layer, whose one home is maps
MAP_LAYER = ("MixingCase", "mixing_case", "_POLES", "HeunCParams", "_heun_map",
             "heun_params_case1", "heun_params_case2", "heun_params_full", "HEUN_MAPS",
             "StandardVars", "standard_vars")
#: the ones that perfbench/tracer.py reads from model, which model serves from maps
TRACED_FROM_MODEL = ("standard_vars", "mixing_case", "heun_params_case1",
                     "heun_params_case2", "heun_params_full")


@pytest.mark.parametrize("name", MAP_LAYER)
def test_model_serves_only_the_traced_map_layer_names(name):
    assert name not in vars(model)
    if name in TRACED_FROM_MODEL:
        assert getattr(model, name) is getattr(maps, name)
    else:
        with pytest.raises(AttributeError):
            getattr(model, name)


def test_no_module_imports_a_map_layer_name_from_model():
    offenders = []
    for path in sorted(Path(heundirac.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module, node.level) in (("model", 1), ("heundirac.model", 0))):
                offenders += [f"{path.name}:{node.lineno} {alias.name}"
                              for alias in node.names if alias.name in MAP_LAYER]
    assert offenders == []


def test_public_signatures_are_pinned():
    public = {name: getattr(heundirac, name) for name in heundirac.__all__}
    errors = {name for name, obj in public.items()
              if isinstance(obj, type) and issubclass(obj, Exception)}
    assert errors == {"HeunDiracError", "InvalidParams", "NoConvergence"}
    assert {name: _parameters(obj) for name, obj in public.items()
            if callable(obj) and name not in errors} == SIGNATURES
    assert {fn: _parameters(fn) for fn in MODULE_SIGNATURES} == MODULE_SIGNATURES
