"""Named consistency checks runnable from the command line.

Each check measures a deviation that the theory says must vanish (or stay
under a stated numerical tolerance) at the configured parameter point,
and reports the worst value seen.  The truncation audit is informational:
it reports whether the Heun series coefficients actually collapse past
the expected polynomial degree, without failing the run.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from . import oracle, routes, specfun
from .errors import HeunDiracError
from .model import (ANALYTIC_ROUTES, SystemParams, energy_closed_form,
                    heun_params_case1, heun_params_case2, heun_params_full,
                    level_bracket, level_channel, mixing_case,
                    quantization_residuals, require_level,
                    singular_point_D_consistency, solve_quantization,
                    standard_vars)
from .routes import ROUTE_SOLVERS

# Grids and solutions of each level, kept by run_verification while it runs
# so its checks build and solve them once; None outside a run.
_store: ContextVar[dict | None] = ContextVar("verify_store", default=None)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str = ""


def _result(name, dev, tol, detail=""):
    return CheckResult(name, dev < tol, float(dev), float(tol), detail)


def _level(params, n):
    """(channel, default grid, solutions so far) of level n, kept for the
    rest of the running verification (built afresh outside a run)."""
    p = level_channel(params, n)
    store = _store.get()
    if store is None:
        store = {}
    if (p, n) not in store:
        require_level(p, n)
        store[p, n] = p, routes.default_grid(p, energy_closed_form(n, p).E), {}
    return store[p, n]


def _level_solutions(params, n):
    """(route, solution) of level n for every route, each solved once per run."""
    p, grid, solved = _level(params, n)
    for route, solver in ROUTE_SOLVERS.items():
        if route not in solved:
            solved[route] = solver(p, n, grid=grid)
        yield route, solved[route]


def check_scaled_variable_identities(params, n_max, tol=1e-12):
    """mu^2 - eps^2 = e^2 and a_frob = sqrt(nu^2 - e^2) at every level."""
    dev = 0.0
    root = params.frobenius_exponent
    for n in range(n_max + 1):
        E = energy_closed_form(n, params).E
        sv = standard_vars(params, E)
        dev = max(dev, abs(sv.mu ** 2 - sv.eps ** 2 - params.e ** 2)
                  / max(params.e ** 2, 1e-30))
        dev = max(dev, abs(sv.a_frob - root) / root)
    return _result("scaled_variable_identities", dev, tol)


def check_mixing_cases(params, n_max, tol=1e-14):
    """Angle identities of both rotation cases at every level."""
    dev = 0.0
    for n in range(n_max + 1):
        E = energy_closed_form(n, params).E
        for cid in ("1", "2"):
            c = mixing_case(cid, params, E)
            dev = max(dev, abs(c.sin_a ** 2 + c.cos_a ** 2 - 1.0))
            dev = max(dev, abs(c.cos_half ** 2 + c.sin_half ** 2 - 1.0))
            dev = max(dev, abs(2.0 * c.cos_half * c.sin_half - abs(c.sin_a)))
    return _result("mixing_case_identities", dev, tol)


def check_singular_point_consistency(params, n_max, tol=1e-14):
    """Both printed forms of the case-2 singular point agree."""
    dev = 0.0
    for n in range(n_max + 1):
        E = energy_closed_form(n, params).E
        d_a, d_b = singular_point_D_consistency(params, E)
        dev = max(dev, abs(d_a - d_b) / abs(d_a))
    return _result("singular_point_consistency", dev, tol)


def check_parameter_map_identities(params, n_max, tol=1e-12):
    """gamma = -2 in all three maps; delta + eta = 1 - nu_s for the full map."""
    dev = 0.0
    nu_s = params.parity * params.nu
    for n in range(n_max + 1):
        E = energy_closed_form(n, params).E
        for hp in (heun_params_case1(params, E), heun_params_case2(params, E)):
            dev = max(dev, abs(hp.gamma + 2.0))
        hp = heun_params_full(params, E)
        dev = max(dev, abs(hp.gamma + 2.0))
        dev = max(dev, abs(hp.delta + hp.eta - (1.0 - nu_s)))
    return _result("parameter_map_identities", dev, tol)


def check_spectrum_routes(params, n_max, tol=1e-12):
    """Each route's root-found energy matches the closed form."""
    dev = 0.0
    for n in range(n_max + 1):
        E_ref = energy_closed_form(n, params).E
        for route in ANALYTIC_ROUTES:
            E = solve_quantization(params, n, route).E
            dev = max(dev, abs(E - E_ref) / E_ref)
    return _result("spectrum_route_equality", dev, tol)


def check_quantization_residuals(params, n_max, tol=1e-10):
    """All four quantization residuals vanish at the closed-form energy."""
    dev = 0.0
    for n in range(n_max + 1):
        E = energy_closed_form(n, params).E
        for route, value in quantization_residuals(params, E, n).items():
            dev = max(dev, abs(value))
    return _result("quantization_residuals_at_levels", dev, tol)


def check_wavefunction_residuals(params, n_max, tol=1e-6):
    """Every route's (f, g) satisfies the radial system on the default grid."""
    dev = 0.0
    for n in range(n_max + 1):
        for route, sol in _level_solutions(params, n):
            dev = max(dev, routes.residual(sol))
    return _result("wavefunction_residuals", dev, tol)


def check_cross_route_agreement(params, n_max, tol=1e-6):
    """Normalized (f, g) agree pointwise across all four routes."""
    dev = 0.0
    for n in range(n_max + 1):
        normed = {route: routes.normalize(sol)
                  for route, sol in _level_solutions(params, n)}
        ref = normed["standard"]
        fs, gs = np.max(np.abs(ref.f)), np.max(np.abs(ref.g))
        for route, sol in normed.items():
            dev = max(dev, float(np.max(np.abs(sol.f - ref.f)) / fs))
            dev = max(dev, float(np.max(np.abs(sol.g - ref.g)) / gs))
    return _result("cross_route_agreement", dev, tol)


def check_operator_closure(params, n_max, tol=1e-6):
    """Case-1 first-order maps close: F -> G pointwise, and F -> G -> F
    proportional to the identity."""
    dev = 0.0
    for n in range(1, n_max + 1):
        E = energy_closed_form(n, params).E
        r, f_part, df_part, g_part, dg_part, _ = routes.mixed1_parts(
            params, n, _level(params, n)[1])
        g_implied = routes.case1_g_from_f(params, E, r, f_part, df_part)
        gs = np.max(np.abs(g_part))
        dev = max(dev, float(np.max(np.abs(g_implied - g_part)) / gs))
        f_back = routes.case1_f_from_g(params, E, r, g_part, dg_part)
        mask = np.abs(f_part) > 1e-6 * np.max(np.abs(f_part))
        ratios = f_back[mask] / f_part[mask]
        dev = max(dev, float(np.max(np.abs(ratios / ratios[len(ratios) // 2] - 1.0))))
    if n_max < 1:
        return _result("operator_closure", 0.0, tol, "no n >= 1 level requested")
    return _result("operator_closure", dev, tol)


def check_coefficient_ratio(params, n_max, tol=1e-12):
    """Both derivations of C1/C2 agree; nu^2 - mu^2 = a^2 - eps^2."""
    dev = 0.0
    for n in range(1, n_max + 1):
        ratio = routes.coefficient_ratio(params, n)
        dev = max(dev, abs(ratio.from_first_equation - ratio.from_second_equation)
                  / abs(ratio.from_second_equation))
        E = energy_closed_form(n, params).E
        sv = standard_vars(params, E)
        lhs = params.nu ** 2 - sv.mu ** 2
        rhs = sv.a_frob ** 2 - sv.eps ** 2
        dev = max(dev, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    if n_max < 1:
        return _result("coefficient_ratio", 0.0, tol, "no n >= 1 level requested")
    return _result("coefficient_ratio", dev, tol)


def check_kummer_properties(params, n_max, tol=1e-8):
    """Kummer series satisfies its differential equation on a sample box."""
    dev = 0.0
    for a in (-4.5, -2.0, -0.3, 1.0, 3.7):
        for c in (0.7, 1.2, 2.0 * params.frobenius_exponent + 1.0):
            kp = specfun.KummerParams(a, c)
            for x in (-18.0, -5.0, -0.5, 0.5, 5.0, 18.0):
                dev = max(dev, specfun.kummer_ode_residual(kp, x))
    return _result("kummer_ode_residual", dev, tol)


def check_kummer_relations(params, n_max, tol=1e-10):
    """Differentiation rule and contiguous relation for terminating series.

    For integer n1 >= 1:
        d/dy 1F1(-n1; g; y) = -(n1/y) 1F1(-n1+1; g; y) + (n1/y) 1F1(-n1; g; y)
        y 1F1(-n1+1; g+1; y) = g 1F1(-n1+1; g; y) - g 1F1(-n1; g; y)
    """
    dev = 0.0
    gammas = (0.8, 1.7, 2.0 * params.frobenius_exponent + 1.0, 5.5)
    ys = (0.1, 0.7, 2.3, 5.0, 10.0)
    # 1F1(-n1; g; y) at the previous n1 is 1F1(-n1+1; g; y) at this one
    f_prev = {(g, y): specfun.kummer(specfun.KummerParams(0, g), y)
              for g in gammas for y in ys}
    for n1 in range(1, max(2, n_max) + 1):
        for g in gammas:
            for y in ys:
                f_n = specfun.kummer(specfun.KummerParams(-n1, g), y)
                f_n1, f_prev[g, y] = f_prev[g, y], f_n
                # lhs is kummer_derivative's (a/c) 1F1(a+1; c+1; y)
                f_up = specfun.kummer(specfun.KummerParams(-n1 + 1, g + 1.0), y)
                lhs = (-n1 / g) * f_up
                rhs = (-n1 / y) * f_n1 + (n1 / y) * f_n
                scale = max(abs(lhs), abs(rhs), 1e-30)
                dev = max(dev, abs(lhs - rhs) / scale)
                lhs2 = y * f_up
                rhs2 = g * f_n1 - g * f_n
                scale2 = max(abs(lhs2), abs(rhs2), 1e-30)
                dev = max(dev, abs(lhs2 - rhs2) / scale2)
    return _result("kummer_relations", dev, tol)


def check_heunc_ode_residual(params, n_max, tol=1e-8):
    """Heun series satisfies the canonical equation at physical parameters."""
    dev = 0.0
    for n in range(n_max + 1):
        E = energy_closed_form(n, params).E
        for hp in (heun_params_full(params, E),
                   heun_params_case2(params, E)):
            for z in (-0.7, -0.3, 0.3, 0.6):
                dev = max(dev, specfun.heunc_ode_residual(hp, z))
    return _result("heunc_ode_residual", dev, tol)


def check_oracle_spectrum(params, n_max, tol=1e-8):
    """Shooting energies agree with the closed form for every level."""
    dev = 0.0
    for n in range(n_max + 1):
        p = level_channel(params, n)
        E_ref = energy_closed_form(n, p).E
        level = oracle.shoot_energy(p, *level_bracket(p, n))
        dev = max(dev, abs(level.E - E_ref) / E_ref)
    return _result("oracle_spectrum", dev, tol)


def truncation_audit(params, n: int) -> dict[str, dict]:
    """Raw-series coefficients of the three Heun maps through order
    n + COLLAPSE_WINDOW, the window the evaluator checks.

    Reports, per map, the largest coefficient magnitude beyond order n
    relative to the largest at or below it.  This is diagnostic only: the
    degree condition is one of two requirements for a polynomial, and the
    audit records whether the second one holds numerically.
    """
    E = energy_closed_form(n, params).E
    # the case-1 singular point flees to infinity at the nodeless level
    # of the negative-parity channel; skip that map there
    case1_ok = not (n == 0 and params.parity == -1)
    maps = {
        "mixed1": heun_params_case1(params, E) if case1_ok else None,
        "mixed2": heun_params_case2(params, E),
        "heun": heun_params_full(params, E),
    }
    report = {}
    for name, hp in maps.items():
        if hp is None:
            continue
        coeffs = specfun.heunc_series_coefficients(hp, n + 1 + specfun.COLLAPSE_WINDOW)
        head = float(np.max(np.abs(coeffs[:n + 1])))
        beyond = float(np.max(np.abs(coeffs[n + 1:])))
        report[name] = {
            "degree": n,
            "max_coefficient": head,
            "max_beyond_degree": beyond,
            "collapsed": bool(beyond < specfun.COLLAPSE_TOL * head),
        }
    return report


def check_truncation_audit(params, n_max, tol=math.inf):
    """Informational: never fails; detail records the collapse pattern."""
    notes = []
    worst = 0.0
    for n in range(n_max + 1):
        p = level_channel(params, n)
        for name, entry in truncation_audit(p, n).items():
            rel = entry["max_beyond_degree"] / max(entry["max_coefficient"], 1e-300)
            worst = max(worst, rel)
            notes.append(f"n={n} {name}: beyond/head={rel:.2e} "
                         f"collapsed={entry['collapsed']}")
    return CheckResult("truncation_audit", True, worst, tol, "; ".join(notes))


ALL_CHECKS = [
    ("scaled_variable_identities", check_scaled_variable_identities, ANALYTIC_ROUTES),
    ("mixing_case_identities", check_mixing_cases, ("mixed1", "mixed2")),
    ("singular_point_consistency", check_singular_point_consistency, ("mixed2",)),
    ("parameter_map_identities", check_parameter_map_identities,
     ("mixed1", "mixed2", "heun")),
    ("spectrum_route_equality", check_spectrum_routes, ANALYTIC_ROUTES),
    ("quantization_residuals_at_levels", check_quantization_residuals, ANALYTIC_ROUTES),
    ("wavefunction_residuals", check_wavefunction_residuals, ANALYTIC_ROUTES),
    ("cross_route_agreement", check_cross_route_agreement, ANALYTIC_ROUTES),
    ("operator_closure", check_operator_closure, ("mixed1",)),
    ("coefficient_ratio", check_coefficient_ratio, ("standard",)),
    ("kummer_ode_residual", check_kummer_properties, ANALYTIC_ROUTES),
    ("kummer_relations", check_kummer_relations, ("standard",)),
    ("heunc_ode_residual", check_heunc_ode_residual, ("mixed1", "mixed2", "heun")),
    ("truncation_audit", check_truncation_audit, ("mixed1", "mixed2", "heun")),
    ("oracle_spectrum", check_oracle_spectrum, ("oracle",)),
]


def run_verification(params: SystemParams, n_max: int,
                     route: str = "all",
                     tol_override: float | None = None) -> list[CheckResult]:
    """Run the checks relevant to `route` at the configured parameters.

    route="all" runs everything except the oracle check (request
    route="oracle" for that, it is the slow one).  tol_override replaces
    each check's own tolerance, so an unattainable override reports the
    measured deviations as failures rather than hiding them.  Zero
    coupling raises InvalidParams before any check runs.
    """
    # level 1 exists in both channels, so this applies the zero-coupling rule
    require_level(params, 1)
    selected = [(name, fn) for name, fn, tags in ALL_CHECKS
                if (name != "oracle_spectrum" if route == "all" else route in tags)]
    kwargs = {} if tol_override is None else {"tol": tol_override}
    results = []
    token = _store.set({})
    try:
        for name, fn in selected:
            try:
                results.append(fn(params, n_max, **kwargs))
            except HeunDiracError as exc:
                tol = math.nan if tol_override is None else tol_override
                results.append(CheckResult(name, False, math.inf, tol,
                                           f"raised {type(exc).__name__}: {exc}"))
    finally:
        _store.reset(token)
    return results
