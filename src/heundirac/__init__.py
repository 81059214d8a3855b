"""Dirac-Coulomb bound states via confluent Heun and Kummer functions.

Four analytic solution routes (hypergeometric, two mixed Heun/Kummer
rotations, and a pure-Heun construction) share one closed-form spectrum,
cross-checked by a formula-free shooting integrator.

Each public name's module loads when the name is first read (PEP 562), so
`import heundirac` loads no numpy until a numpy module's name is read.
"""

import importlib
import sys

_EXPORTS = {
    "errors": ("HeunDiracError", "InvalidParams", "NoConvergence"),
    "maps": ("HeunCParams", "MixingCase", "StandardVars", "heun_params_case1",
             "heun_params_case2", "heun_params_full", "mixing_case", "standard_vars"),
    "model": ("ANALYTIC_ROUTES", "EnergyLevel", "SystemParams", "energy_closed_form",
              "quantization_residuals", "solve_quantization"),
    "oracle": ("frobenius_start", "integrate_radial", "scan_brackets", "shoot_energy"),
    "routes": ("RadialGrid", "RadialSolution", "default_grid", "normalize", "residual",
               "solve_heun_full", "solve_mixed_case1", "solve_mixed_case2",
               "solve_standard"),
    "specfun": ("KummerParams", "heunc", "heunc_derivative", "heunc_second_derivative",
                "heunc_series_coefficients", "heunc_truncation", "kummer",
                "kummer_series_coefficients"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, from its module, imported on first read."""
    if name not in _HOME:  # the plain lookup, which raises AttributeError
        return object.__getattribute__(sys.modules[__name__], name)
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
