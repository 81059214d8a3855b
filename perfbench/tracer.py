"""Per-layer tracing of heundirac, installed from outside the program.

Each traced public function is replaced by a wrapper at every place the
package holds it: its defining module, every heundirac module that
imported it by name, and the route tables and check lists (dicts, lists
and tuples in module globals such as ``verify.ROUTE_SOLVERS``,
``cli._SOLVERS`` and ``verify.ALL_CHECKS``).  A wrapper records one span
per call; a function's self time is its span minus the spans of traced
functions nested inside it.
"""

from __future__ import annotations

import importlib
import sys
import time

# layer -> (module, traced public functions)
LAYERS = {
    "cli": ("heundirac.cli", ("main",)),
    "verify": ("heundirac.verify", (
        "run_verification", "check_scaled_variable_identities", "check_mixing_cases",
        "check_singular_point_consistency", "check_parameter_map_identities",
        "check_spectrum_routes", "check_quantization_residuals",
        "check_wavefunction_residuals", "check_cross_route_agreement",
        "check_operator_closure", "check_coefficient_ratio", "check_kummer_properties",
        "check_kummer_relations", "check_heunc_ode_residual", "check_oracle_spectrum",
        "check_truncation_audit")),
    "oracle": ("heundirac.oracle", (
        "shoot_energy", "integrate_radial", "scan_brackets", "frobenius_start")),
    "routes": ("heundirac.routes", (
        "solve_standard", "solve_mixed_case1", "solve_mixed_case2", "solve_heun_full",
        "mixed1_parts", "mixed2_parts", "residual", "normalize")),
    "model": ("heundirac.model", (
        "solve_quantization", "quantization_residuals", "energy_closed_form",
        "standard_vars", "mixing_case", "heun_params_case1", "heun_params_case2",
        "heun_params_full")),
    "specfun": ("heundirac.specfun", (
        "heunc_truncation", "heunc_series_coefficients", "kummer_series_coefficients",
        "kummer", "heunc", "heunc_derivative", "heunc_second_derivative",
        "kummer_ode_residual", "heunc_ode_residual")),
}
# verify functions are reported by inclusive (busy) time: a check's own
# code is thin, and what it costs is the work it drives in lower layers
BUSY_LAYERS = ("verify",)
SOLVERS = ("solve_standard", "solve_mixed_case1", "solve_mixed_case2", "solve_heun_full")


class _Stat:
    __slots__ = ("calls", "self_ns", "busy_ns")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.busy_ns = 0


class Tracer:
    """Wraps the functions in LAYERS; install() rebinds, uninstall() restores."""

    def __init__(self):
        self.stats = {(layer, fn): _Stat() for layer, (_, fns) in LAYERS.items()
                      for fn in fns}
        self.grid_points = 0
        self._stack = [0]          # child time accumulated per open span
        self._swaps = {}           # id(original) -> (original, wrapper)

    def _wrap(self, layer: str, name: str, fn):
        stat = self.stats[(layer, name)]
        stack = self._stack
        clock = time.perf_counter_ns
        solver = layer == "routes" and name in SOLVERS

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                stat.calls += 1
                stat.busy_ns += dt
                stat.self_ns += dt - child
            if solver:
                self.grid_points += len(result.grid)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = name
        return traced

    def _package_modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "heundirac" or name.startswith("heundirac."))]

    def _rebind(self, table: dict):
        """Replace every reference in package globals per table (id -> new)."""
        def swap(value):
            return table.get(id(value), (None, value))[1]

        for mod in self._package_modules():
            ns = vars(mod)
            for key, value in list(ns.items()):
                if id(value) in table:
                    ns[key] = swap(value)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in table:
                            value[k] = swap(v)
                elif isinstance(value, list):
                    for i, item in enumerate(value):
                        if id(item) in table:
                            value[i] = swap(item)
                        elif isinstance(item, tuple) and any(id(x) in table for x in item):
                            value[i] = tuple(swap(x) for x in item)

    def install(self):
        table = {}
        for layer, (module, fns) in LAYERS.items():
            mod = importlib.import_module(module)
            for name in fns:
                original = getattr(mod, name)
                table[id(original)] = (original, self._wrap(layer, name, original))
        self._swaps = table
        self._rebind(table)
        leftover = self.holders({id(o) for o, _ in table.values()})
        if leftover:
            raise RuntimeError(f"untraced references remain: {leftover}")

    def uninstall(self):
        self._rebind({id(w): (w, o) for o, w in self._swaps.values()})
        self._swaps = {}

    def holders(self, ids: set[int]) -> list[str]:
        """Module-global places that still hold any object in ids."""
        found = []
        for mod in self._package_modules():
            for key, value in vars(mod).items():
                items = [value]
                if isinstance(value, dict):
                    items = list(value.values())
                elif isinstance(value, list):
                    items = [x for item in value
                             for x in (item if isinstance(item, tuple) else (item,))]
                if any(id(x) in ids for x in items):
                    found.append(f"{mod.__name__}.{key}")
        return found

    def metrics(self) -> tuple[dict, dict]:
        """(exact counts, timings in seconds), keyed by metric name."""
        counts, times = {}, {}
        for layer in LAYERS:
            calls = self_ns = 0
            for (lyr, fn), st in self.stats.items():
                if lyr != layer:
                    continue
                calls += st.calls
                self_ns += st.self_ns
                if layer in BUSY_LAYERS:
                    times[f"{layer}.{fn}.busy_s"] = st.busy_ns * 1e-9
                    if fn == "run_verification":
                        counts[f"{layer}.{fn}.calls"] = st.calls
                else:
                    counts[f"{layer}.{fn}.calls"] = st.calls
                    times[f"{layer}.{fn}.self_s"] = st.self_ns * 1e-9
            counts[f"{layer}.calls"] = calls
            times[f"{layer}.self_s"] = self_ns * 1e-9
        counts["routes.grid_points"] = self.grid_points
        return counts, times
