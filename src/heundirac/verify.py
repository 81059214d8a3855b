"""Named consistency checks runnable from the command line.

Each check measures a deviation that the theory says must vanish (or stay
under a stated tolerance) at the configured parameter point, a per-level
check at each level in the channel that holds it, and reports the worst
value seen, a NaN included.  The truncation audit is informational: it
reports whether the Heun series coefficients collapse past the polynomial
degree, without failing the run.
"""

from __future__ import annotations

import inspect
import math
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import routes, specfun
from .errors import HeunDiracError, InvalidParams
from .maps import HEUN_MAPS, mixing_case, standard_vars
from .model import (ANALYTIC_ROUTES, SystemParams, _level_decay_constant, energy_closed_form,
                    level_bracket, level_channel, quantization_residuals, quantized_routes,
                    require_level, solve_quantization)
from .routes import ROUTE_SOLVERS

# Collapse threshold of the truncation audit: a raw-series coefficient past
# the degree below COLLAPSE_TOL of the largest one at or below it, over the
# COLLAPSE_WINDOW orders past the degree, counts as collapsed.
COLLAPSE_TOL = 1e-12
COLLAPSE_WINDOW = 6

# The _Level of each (params, n), kept by run_verification while it runs so
# that its checks form, build and solve each level once; None outside a run.
_store: ContextVar[dict | None] = ContextVar("verify_store", default=None)

# Points at which heunc_ode_residual checks each Heun map.
_HEUNC_Z = np.array([-0.7, -0.3, 0.3, 0.6])

#: (name, check, route tags) of every check, in report order
ALL_CHECKS: list = []


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str = ""


def _result(name, dev, tol, detail=""):
    return CheckResult(name, bool(dev < tol), float(dev), float(tol), detail)


class _Level:
    """Level n of a request as its checks share it: the channel p that holds
    it (level_channel) and its closed-form EnergyLevel (closed_form, E, lam),
    formed with it, and, each built when first read, its default grid, each
    route's solution of closed_form on that grid and its Heun maps.  What
    raises is built again when next read, so it raises for each check that reads it."""

    def __init__(self, params, n):
        self.p, self.n = level_channel(params, n), n
        self.closed_form = energy_closed_form(n, self.p)
        self.E, self.lam = self.closed_form.E, self.closed_form.lam
        self.solutions = {}

    @cached_property
    def grid(self):
        require_level(self.p, self.n)
        return routes.default_grid(self.lam)

    def solution(self, route):
        """The route's solution, solved once (through ROUTE_SOLVERS)."""
        if route not in self.solutions:
            self.solutions[route] = ROUTE_SOLVERS[route](self.p, self.closed_form, self.grid)
        return self.solutions[route]

    @cached_property
    def maps(self):
        """{route: Heun parameter map} at (E, lam) of each Heun route that has
        a quantization condition at the level: every check reads them here."""
        return {route: build(self.p, self.E, self.lam) for route, build in HEUN_MAPS.items()
                if route in quantized_routes(self.p, self.n)}

    def polynomial(self, route):
        """Coefficients of the route's Heun polynomial: the ones its solve
        truncated, or, before a solve, truncated here."""
        if route in self.solutions:
            return self.solutions[route]._frame.heun
        return specfun.heunc_truncation(self.maps[route])[1]


def _levels(params, first, n_max):
    """The _Level of each n = first..n_max: the running verification's, each
    formed once per run; outside a run, formed for this caller alone."""
    store = {} if _store.get() is None else _store.get()
    for n in range(first, n_max + 1):
        if (params, n) not in store:
            store[params, n] = _Level(params, n)
        yield store[params, n]


def _check(name, tags, tol=None, first=0):
    """Register the decorated check in ALL_CHECKS as (name, check, tags).

    Without tol it is a whole-run check(params, n_max, tol).  With tol it
    is the body(level) of a per-level check, yielding the deviations of a
    _Level; the check built here, check(params, n_max, tol=tol), runs the
    levels n = first..n_max of _levels and reports the running maximum,
    taken in the order yielded.  A NaN deviation is reported as the
    maximum, so that the check fails.
    """
    def register(fn):
        check = fn
        if tol is not None:
            def check(params, n_max, tol=tol):
                if n_max < first:
                    return _result(name, 0.0, tol, f"no n >= {first} level requested")
                dev = 0.0
                for level in _levels(params, first, n_max):
                    for value in fn(level):
                        if value > dev or math.isnan(value):
                            dev = value
                return _result(name, dev, tol)
            check.__name__, check.__qualname__, check.__doc__ = (
                fn.__name__, fn.__qualname__, fn.__doc__)
        ALL_CHECKS.append((name, check, tags))
        return check
    return register


@_check("scaled_variable_identities", ANALYTIC_ROUTES, 1e-12)
def check_scaled_variable_identities(level):
    """mu^2 - eps^2 = e^2 and a_frob = sqrt(nu^2 - e^2) at every level.

    mu^2 - eps^2 = e^2 (m^2 - E^2)/lam^2, so the first identity is
    E = m sqrt((1 - t)(1 + t)) with t = lam/m, measured in units of m:
    mu^2 - eps^2 itself cancels to e^2 from terms of size N^2 + e^2 at weak
    coupling.  Where t^2 is below the rounding of E this ties E to lam, not
    lam to E; the quantization checks tie lam through eps = e E/lam."""
    p, E, lam = level.p, level.E, level.lam
    sv = standard_vars(p, E, lam)
    t = lam / p.m
    yield abs(E / p.m - math.sqrt((1.0 - t) * (1.0 + t)))
    root = p.frobenius_exponent
    yield abs(sv.a_frob - root) / root


@_check("mixing_case_identities", ("mixed1", "mixed2"), 1e-14)
def check_mixing_cases(level):
    """Angle identities of both rotation cases at every level."""
    for cid in ("1", "2"):
        c = mixing_case(cid, level.p, level.E, level.lam)
        yield abs(c.sin_a ** 2 + c.cos_a ** 2 - 1.0)
        yield abs(c.cos_half ** 2 + c.sin_half ** 2 - 1.0)
        yield abs(2.0 * c.cos_half * c.sin_half - abs(c.sin_a))


@_check("singular_point_consistency", ("mixed2",), 1e-14)
def check_singular_point_consistency(level):
    """Both printed forms of the case-2 singular point, -(e + nu sin A)/(2 m_eff cos A)
    and -(e + nu sin A)/(2E), agree: the case-2 angle condition sets m_eff cos A = E."""
    case = mixing_case("2", level.p, level.E, level.lam)
    d_a = -case.s_plus / (2.0 * level.p.m_eff * case.cos_a)
    yield abs(d_a - case.singular_point) / abs(d_a)


@_check("parameter_map_identities", ("mixed1", "mixed2", "heun"), 1e-12)
def check_parameter_map_identities(level):
    """gamma = -2 in every Heun map of the level; delta + eta = 1 - nu_s for
    the full map."""
    for hp in level.maps.values():
        yield abs(hp.gamma + 2.0)
    hp, p = level.maps["heun"], level.p
    yield abs(hp.delta + hp.eta - (1.0 - p.parity * p.nu))


@_check("spectrum_route_equality", ANALYTIC_ROUTES, 1e-12)
def check_spectrum_routes(level):
    """Each route's root-found energy matches the closed form of the level."""
    p, n, E = level.p, level.n, level.E
    for route in quantized_routes(p, n):
        yield abs(solve_quantization(p, n, route).E - E) / E


@_check("quantization_residuals_at_levels", ANALYTIC_ROUTES, 1e-10)
def check_quantization_residuals(level):
    """The level's quantization residuals vanish at the closed-form energy."""
    for value in quantization_residuals(level.p, level.E, level.lam, level.n).values():
        yield abs(value)


@_check("wavefunction_residuals", ANALYTIC_ROUTES, 1e-6)
def check_wavefunction_residuals(level):
    """Every route's (f, g) satisfies the radial system on the default grid."""
    for route in ROUTE_SOLVERS:
        yield routes.residual(level.solution(route))


@_check("cross_route_agreement", ANALYTIC_ROUTES, 1e-6)
def check_cross_route_agreement(level):
    """Normalized (f, g) agree pointwise across all four routes."""
    normed = {route: routes.normalize(level.solution(route)) for route in ROUTE_SOLVERS}
    ref = normed["standard"]
    fs, gs = np.max(np.abs(ref.f)), np.max(np.abs(ref.g))
    for sol in normed.values():
        yield float(np.max(np.abs(sol.f - ref.f)) / fs)
        yield float(np.max(np.abs(sol.g - ref.g)) / gs)


@_check("operator_closure", ("mixed1",), 1e-6, first=1)
def check_operator_closure(level):
    """Case-1 first-order maps close on the parts that the mixed1 solve
    built: F -> G pointwise, and F -> G -> F proportional to the identity."""
    p = level.p
    r, f_part, df, g_part, dg, case, _ = level.solution("mixed1")._frame
    g_implied = routes.g_from_f(case, p, r, f_part, p.m * df)
    yield float(np.max(np.abs(g_implied - g_part)) / np.max(np.abs(g_part)))
    f_back = routes.f_from_g(case, p, r, g_part, p.m * dg)
    mask = np.abs(f_part) > 1e-6 * np.max(np.abs(f_part))
    ratios = f_back[mask] / f_part[mask]
    yield float(np.max(np.abs(ratios / ratios[len(ratios) // 2] - 1.0)))


@_check("coefficient_ratio", ("standard",), 1e-12, first=1)
def check_coefficient_ratio(level):
    """Both first-order equations give the standard route's C1/C2 alike,
    (nu_s - mu_s)/n = -(a + eps)/(nu_s + mu_s), by nu^2 - mu^2 = a^2 - eps^2 (checked too)."""
    p, n = level.p, level.n
    sv = standard_vars(p, level.E, level.lam)
    mu_s, nu_s = p.parity * sv.mu, float(p.nu)
    first = (nu_s - mu_s) / n
    second = -(sv.a_frob + sv.eps) / (nu_s + mu_s)
    yield abs(first - second) / abs(second)
    rhs = sv.a_frob ** 2 - sv.eps ** 2
    yield abs(p.nu ** 2 - sv.mu ** 2 - rhs) / max(abs(rhs), 1e-30)


@_check("kummer_ode_residual", ANALYTIC_ROUTES)
def check_kummer_properties(params, n_max, tol=1e-8):
    """Kummer series satisfies its differential equation on a sample box."""
    kp = specfun.KummerParams(
        np.array([-4.5, -2.0, -0.3, 1.0, 3.7])[:, None, None],
        np.array([0.7, 1.2, 2.0 * params.frobenius_exponent + 1.0])[:, None])
    residuals = specfun.kummer_ode_residual(kp, np.array([-18.0, -5.0, -0.5, 0.5, 5.0, 18.0]))
    return _result("kummer_ode_residual", np.max(residuals), tol)


@_check("kummer_relations", ("standard",))
def check_kummer_relations(params, n_max, tol=1e-10):
    """Differentiation rule and contiguous relation for terminating series.

    For integer n1 >= 1:
        d/dy 1F1(-n1; g; y) = -(n1/y) 1F1(-n1+1; g; y) + (n1/y) 1F1(-n1; g; y)
        y 1F1(-n1+1; g+1; y) = g 1F1(-n1+1; g; y) - g 1F1(-n1; g; y)
    """
    g = np.array([0.8, 1.7, 2.0 * params.frobenius_exponent + 1.0, 5.5])[:, None]
    y = np.array([0.1, 0.7, 2.3, 5.0, 10.0])
    n1 = np.arange(max(2, n_max) + 1.0)[:, None, None]
    # 1F1(-n1; g; y) for n1 = 0..N, each the 1F1(-n1+1; g; y) of the next n1
    f_all = specfun.kummer(specfun.KummerParams(-n1, g), y)
    f_n, f_n1, n1 = f_all[1:], f_all[:-1], n1[1:]
    # lhs is d/dy 1F1(a; c; y) = (a/c) 1F1(a+1; c+1; y)
    f_up = specfun.kummer(specfun.KummerParams(-n1 + 1, g + 1.0), y)
    lhs = (-n1 / g) * f_up
    rhs = (-n1 / y) * f_n1 + (n1 / y) * f_n
    lhs2 = y * f_up
    rhs2 = g * f_n1 - g * f_n
    dev = np.max([np.abs(lhs - rhs) / np.maximum(np.maximum(abs(lhs), abs(rhs)), 1e-30),
                  np.abs(lhs2 - rhs2) / np.maximum(np.maximum(abs(lhs2), abs(rhs2)), 1e-30)])
    return _result("kummer_relations", dev, tol)


@_check("heunc_ode_residual", ("mixed1", "mixed2", "heun"), 1e-8)
def check_heunc_ode_residual(level):
    """Heun series satisfies the canonical equation at every Heun map of the
    level, all maps in one array pass."""
    maps = level.maps
    yield from np.max(specfun.heunc_ode_residual(
        list(maps.values()), _HEUNC_Z, [level.polynomial(route) for route in maps]), axis=1)


@_check("truncation_audit", ("mixed1", "mixed2", "heun"))
def check_truncation_audit(params, n_max, tol=math.inf):
    """Informational: never fails; detail records, per level and Heun map,
    the largest raw-series coefficient past order n (through n +
    COLLAPSE_WINDOW) over the largest at or below it.  The degree condition
    is one of two requirements for a polynomial; this records whether the
    second one holds numerically.  A level whose closed form, maps or series
    raise is recorded as "n=<n>: raised <Type>: <text>", and the worst ratio
    covers the maps read."""
    notes = []
    worst = 0.0
    for n in range(n_max + 1):
        try:
            level, = _levels(params, n, n)
            for name, hp in level.maps.items():
                coeffs = specfun.heunc_series_coefficients(hp, n + 1 + COLLAPSE_WINDOW)
                head = float(np.max(np.abs(coeffs[:n + 1])))
                beyond = float(np.max(np.abs(coeffs[n + 1:])))
                rel = beyond / max(head, 1e-300)
                worst = max(worst, rel)
                notes.append(f"n={n} {name}: beyond/head={rel:.2e} "
                             f"collapsed={beyond < COLLAPSE_TOL * head}")
        except HeunDiracError as exc:
            notes.append(f"n={n}: raised {type(exc).__name__}: {exc}")
    return CheckResult("truncation_audit", True, worst, tol, "; ".join(notes))


@_check("oracle_spectrum", ("oracle",), 1e-8)
def check_oracle_spectrum(level):
    """Shooting energies agree with the closed form for every level."""
    from . import oracle   # only this check shoots; verify --route all never loads it
    E = level.E
    yield abs(oracle.shoot_energy(level.p, *level_bracket(level.p, level.n)).E - E) / E


def _default_tol(check) -> float:
    """The default of the check's tol, read through a wrapper's __wrapped__;
    NaN where that default is not a number."""
    default = inspect.signature(check).parameters["tol"].default
    return float(default) if isinstance(default, (int, float)) else math.nan


def run_verification(params: SystemParams, n_max: int,
                     route: str = "all",
                     tol_override: float | None = None) -> list[CheckResult]:
    """Run the checks relevant to `route` at the configured parameters.

    route="all" runs everything except the slow oracle check (request
    route="oracle" for it).  tol_override replaces each check's tolerance,
    so an unattainable override reports the measured deviations as failures.
    Before any check, InvalidParams rejects a route other than "all", an
    analytic route or "oracle", zero coupling, which supports no bound states,
    and a request whose level n_max (the one of smallest lam) has a decay
    constant that underflows to 0, which has no answer, as spectrum says.
    """
    if route not in ("all", *ANALYTIC_ROUTES, "oracle"):
        raise InvalidParams(f"unknown route {route!r}; expected all, oracle or one of "
                            f"{ANALYTIC_ROUTES}")
    require_level(params, 1)  # level 1 is in both channels: the zero-coupling rule
    if n_max >= 0:
        _level_decay_constant(n_max, params)
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
                tol = _default_tol(fn) if tol_override is None else tol_override
                results.append(CheckResult(name, False, math.inf, tol,
                                           f"raised {type(exc).__name__}: {exc}"))
    finally:
        _store.reset(token)
    return results
