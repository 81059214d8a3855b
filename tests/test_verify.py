"""Tests of the verification driver."""

import gc
import math
import weakref
from collections import Counter

import numpy as np
import pytest

from closed_level import count_closed_forms
from heundirac import (HeunDiracError, InvalidParams, SystemParams, energy_closed_form,
                       heun_params_case1, heun_params_case2, heun_params_full, routes,
                       specfun, verify)


def test_raising_check_reports_zero_tolerance_override(monkeypatch):
    def explode(params, n_max, tol=None):
        raise HeunDiracError("synthetic check failure")

    name, _, tags = verify.ALL_CHECKS[0]
    monkeypatch.setattr(verify, "ALL_CHECKS",
                        [(name, explode, tags)] + verify.ALL_CHECKS[1:])
    results = verify.run_verification(SystemParams(0.5, 1), 0, route="standard",
                                      tol_override=0.0)
    raised = [res for res in results if res.name == name]
    assert len(raised) == 1
    assert not raised[0].passed
    assert raised[0].tolerance == 0.0
    assert "synthetic check failure" in raised[0].detail


def _count_solves(monkeypatch):
    """Wrap every ROUTE_SOLVERS entry; return the per-route call counter and
    weak references to every solution returned."""
    calls, refs = Counter(), []
    for route, solver in list(routes.ROUTE_SOLVERS.items()):
        def counted(*args, _route=route, _solver=solver, **kwargs):
            calls[_route] += 1
            sol = _solver(*args, **kwargs)
            refs.append(weakref.ref(sol))
            return sol
        monkeypatch.setitem(routes.ROUTE_SOLVERS, route, counted)
    return calls, refs


@pytest.mark.parametrize("n_max", (0, 2, 4))
def test_run_solves_each_route_once_per_level(monkeypatch, n_max):
    calls, _ = _count_solves(monkeypatch)
    verify.run_verification(SystemParams(0.5, 1), n_max, "all")
    assert calls == {route: n_max + 1 for route in routes.ROUTE_SOLVERS}


def test_run_releases_its_solutions(monkeypatch):
    _, refs = _count_solves(monkeypatch)
    verify.run_verification(SystemParams(0.5, 1), 2, "all")
    gc.collect()
    assert refs and all(ref() is None for ref in refs)
    assert verify._store.get() is None


def test_run_releases_its_solutions_when_a_check_escapes(monkeypatch):
    def escape(params, n_max, tol=None):
        raise RuntimeError("not a HeunDiracError")

    monkeypatch.setattr(verify, "ALL_CHECKS",
                        verify.ALL_CHECKS + [("escape", escape, ("standard",))])
    with pytest.raises(RuntimeError):
        verify.run_verification(SystemParams(0.5, 1), 1, "all")
    assert verify._store.get() is None


@pytest.mark.parametrize("check", (verify.check_wavefunction_residuals,
                                   verify.check_cross_route_agreement,
                                   verify.check_operator_closure))
def test_direct_check_matches_run(check, monkeypatch):
    params = SystemParams(0.5, 2)
    in_run = {res.name: res for res in verify.run_verification(params, 3, "all")}
    calls, _ = _count_solves(monkeypatch)
    direct = check(params, 3)
    assert direct == in_run[direct.name]
    if check is not verify.check_operator_closure:
        assert calls == {route: 4 for route in routes.ROUTE_SOLVERS}


@pytest.mark.parametrize("route", ("all", "standard", "oracle"))
def test_zero_coupling_is_rejected_before_any_check(route, monkeypatch):
    monkeypatch.setattr(verify, "ALL_CHECKS", [])
    with pytest.raises(InvalidParams, match="zero coupling supports no bound states"):
        verify.run_verification(SystemParams(0.0, 1), 1, route)


@pytest.mark.parametrize("route", ("Standard", "ALL", "", "kummer"))
def test_unknown_route_is_rejected_before_any_check(route):
    # no check is tagged with it: the run would report nothing, which reads as a pass
    with pytest.raises(InvalidParams, match=f"unknown route {route!r}"):
        verify.run_verification(SystemParams(0.5, 1), 2, route)


ANALYTIC = ("standard", "mixed1", "mixed2", "heun")
HEUN = ("mixed1", "mixed2", "heun")


def test_check_registry_is_pinned():
    assert [(name, fn.__name__, tags) for name, fn, tags in verify.ALL_CHECKS] == [
        ("scaled_variable_identities", "check_scaled_variable_identities", ANALYTIC),
        ("mixing_case_identities", "check_mixing_cases", ("mixed1", "mixed2")),
        ("singular_point_consistency", "check_singular_point_consistency", ("mixed2",)),
        ("parameter_map_identities", "check_parameter_map_identities", HEUN),
        ("spectrum_route_equality", "check_spectrum_routes", ANALYTIC),
        ("quantization_residuals_at_levels", "check_quantization_residuals", ANALYTIC),
        ("wavefunction_residuals", "check_wavefunction_residuals", ANALYTIC),
        ("cross_route_agreement", "check_cross_route_agreement", ANALYTIC),
        ("operator_closure", "check_operator_closure", ("mixed1",)),
        ("coefficient_ratio", "check_coefficient_ratio", ("standard",)),
        ("kummer_ode_residual", "check_kummer_properties", ANALYTIC),
        ("kummer_relations", "check_kummer_relations", ("standard",)),
        ("heunc_ode_residual", "check_heunc_ode_residual", HEUN),
        ("truncation_audit", "check_truncation_audit", HEUN),
        ("oracle_spectrum", "check_oracle_spectrum", ("oracle",)),
    ]
    # the public check_* names are the very objects the registry runs
    for _, fn, _ in verify.ALL_CHECKS:
        assert getattr(verify, fn.__name__) is fn


@pytest.mark.parametrize("check, tol", ((verify.check_operator_closure, 1e-6),
                                        (verify.check_coefficient_ratio, 1e-12)))
def test_level_one_checks_report_an_empty_range(check, tol):
    res = check(SystemParams(0.5, 1), 0)
    assert res == verify.CheckResult(res.name, True, 0.0, tol, "no n >= 1 level requested")
    assert check(SystemParams(0.5, 1), 0, tol=0.0).tolerance == 0.0


def test_scaled_variable_identities_tie_E_to_lam(monkeypatch):
    # met to rounding at every coupling, though mu^2 - eps^2 cancels to e^2
    for coupling in (1e-7, 0.0072973525693, 0.5):
        assert verify.check_scaled_variable_identities(SystemParams(coupling, 1), 4).passed
    # and a decay constant off by 1e-9 relative is seen
    exact = verify.energy_closed_form
    monkeypatch.setattr(verify, "energy_closed_form",
                        lambda n, p: exact(n, p)._replace(lam=exact(n, p).lam * (1 + 1e-9)))
    assert not verify.check_scaled_variable_identities(SystemParams(0.5, 1), 4).passed


# no mass is rejected up front: the analytic levels carry their exact lam,
# and the oracle's lam = m sqrt(1 - (E/m)^2) is scale-free
@pytest.mark.parametrize("route, mass", [
    *((route, mass) for route in ("all", "standard") for mass in (1e-300, 1e-160, 1e200)),
    ("oracle", 1e-300), ("oracle", 1e200)])
def test_extreme_mass_is_not_rejected_before_any_check(route, mass, monkeypatch):
    monkeypatch.setattr(verify, "ALL_CHECKS", [])
    assert verify.run_verification(SystemParams(0.5, 1, mass), 1, route) == []


def test_oracle_verifies_a_mass_below_the_analytic_bracket():
    # spectrum --route oracle answers at this mass, and so does verify
    results = verify.run_verification(SystemParams(0.5, 1, 1e-160), 1, "oracle")
    assert [(res.name, res.passed) for res in results] == [("oracle_spectrum", True)]


# levels with m - E below 1e-9 m (5e-15 m at e = 1e-7)
@pytest.mark.parametrize("coupling, n_max", ((1e-7, 0), (1e-7, 2), (6e-5, 1)))
@pytest.mark.parametrize("route", ("all", "standard", "mixed2"))
def test_weak_coupling_spectrum_verifies(route, coupling, n_max, monkeypatch):
    monkeypatch.setattr(verify, "ALL_CHECKS", [
        entry for entry in verify.ALL_CHECKS if entry[0] == "spectrum_route_equality"])
    [result] = verify.run_verification(SystemParams(coupling, 1), n_max, route)
    assert result.passed, result


def test_levels_just_below_the_mass_are_accepted(monkeypatch):
    # at e = 6e-5 the n = 0 level sits 1.8e-9 m below m
    monkeypatch.setattr(verify, "ALL_CHECKS", [])
    assert verify.run_verification(SystemParams(6e-5, 1), 0, "all") == []


def test_overflowing_heun_variable_is_invalid_input():
    # at e = 1e-160 the Heun variable k r of the n = 0 level overflows on its
    # default grid: the wavefunction checks report InvalidParams, and no
    # RuntimeWarning (an error under this suite) escapes
    results = {res.name: res for res in
               verify.run_verification(SystemParams(1e-160, 1, parity=-1), 2, "all")}
    for name in ("wavefunction_residuals", "cross_route_agreement"):
        assert not results[name].passed
        assert results[name].detail.startswith("raised InvalidParams: the polynomial variable")
    assert results["spectrum_route_equality"].passed


def _yield_nan_on_level(n_nan):
    exact = verify.standard_vars

    def standard_vars(params, E, lam):
        sv = exact(params, E, lam)
        return sv._replace(a_frob=math.nan) if E == verify.energy_closed_form(
            n_nan, params).E else sv
    return standard_vars


@pytest.mark.parametrize("n_nan", (1, 2))
def test_nan_deviation_of_a_level_fails_its_check(n_nan, monkeypatch):
    # a NaN is kept as the maximum, before a finite deviation and after one
    monkeypatch.setattr(verify, "standard_vars", _yield_nan_on_level(n_nan))
    res = verify.check_scaled_variable_identities(SystemParams(0.5, 1), 3)
    assert not res.passed and math.isnan(res.max_deviation)


@pytest.mark.parametrize("evaluator, check", [
    ("kummer_ode_residual", verify.check_kummer_properties),
    ("kummer", verify.check_kummer_relations),
    ("heunc_ode_residual", verify.check_heunc_ode_residual)])
def test_nan_in_an_array_check_fails_it(evaluator, check, monkeypatch):
    exact = getattr(specfun, evaluator)

    def one_nan(params, x, *coeffs):
        out = np.array(exact(params, x, *coeffs), dtype=float)
        out.flat[out.size // 2] = math.nan
        return out

    monkeypatch.setattr(specfun, evaluator, one_nan)
    res = check(SystemParams(0.5, 1), 2)
    assert not res.passed and math.isnan(res.max_deviation)


@pytest.mark.parametrize("route", ("all", "oracle"))
def test_every_body_sees_the_nodeless_level_at_parity_minus_only(route, monkeypatch):
    # no n = 0 level exists at parity +1: each body gets the level's channel
    params = SystemParams(0.5, 1)
    E0 = energy_closed_form(0, params).E
    parities = []
    for name in ("energy_closed_form", "quantized_routes", "mixing_case", "standard_vars",
                 "solve_quantization", "quantization_residuals", "level_bracket"):
        def record(*args, _exact=getattr(verify, name)):
            if any(isinstance(a, (int, float)) and a in (0, E0) for a in args):
                parities.extend(a.parity for a in args if isinstance(a, SystemParams))
            return _exact(*args)
        monkeypatch.setattr(verify, name, record)
    results = verify.run_verification(params, 1 if route == "oracle" else 2, route)
    assert all(res.passed for res in results)
    assert parities and set(parities) == {-1}


@pytest.mark.parametrize("parity", (1, -1))
def test_heunc_ode_residual_reads_every_quantized_map(parity, monkeypatch):
    # three Heun maps per level, two at the nodeless level (no mixed1 condition),
    # each checked with its own polynomial
    seen, exact = [], specfun.heunc_ode_residual

    def record(maps, z, coeffs):
        seen.extend(maps)
        for hp, c in zip(maps, coeffs, strict=True):
            assert np.array_equal(c, specfun.heunc_truncation(hp)[1])
        return exact(maps, z, coeffs)
    monkeypatch.setattr(specfun, "heunc_ode_residual", record)
    assert verify.check_heunc_ode_residual(SystemParams(0.5, 2, parity=parity), 3).passed
    expected = []
    for n in range(4):
        p = SystemParams(0.5, 2, parity=-1 if n == 0 else parity)
        level = energy_closed_form(n, p)
        maps = (heun_params_case2, heun_params_full)
        expected += [build(p, level.E, level.lam)
                     for build in ((heun_params_case1,) + maps if n else maps)]
    assert seen == expected


# work counts of one run, levels n = 0..4 (n = 0 in the parity -1 channel)
WORK_PARAMS, WORK_N_MAX = SystemParams(0.5, 2), 4


def test_run_builds_the_case1_parts_once_per_level(monkeypatch):
    # the operator closure reads the parts that the mixed1 solve built
    built, exact = Counter(), routes._case1_parts

    def counted(params, level, r):
        built[level.n] += 1
        return exact(params, level, r)
    monkeypatch.setattr(routes, "_case1_parts", counted)
    verify.run_verification(WORK_PARAMS, WORK_N_MAX, "all")
    assert built == {n: 1 for n in range(WORK_N_MAX + 1)}


def test_run_forms_each_level_once(monkeypatch):
    # counted at every binding: the route solves build the level the run
    # formed, and form none of their own
    formed = count_closed_forms(monkeypatch)
    verify.run_verification(WORK_PARAMS, WORK_N_MAX, "all")
    assert formed == {(n, -1 if n == 0 else 1): 1 for n in range(WORK_N_MAX + 1)}


def test_run_truncates_each_heun_map_once(monkeypatch):
    # the solve's polynomial serves the ODE check of its map
    truncated, exact = Counter(), specfun.heunc_truncation

    def counted(hp):
        truncated[hp] += 1
        return exact(hp)
    monkeypatch.setattr(specfun, "heunc_truncation", counted)
    monkeypatch.setattr(routes, "heunc_truncation", counted)
    verify.run_verification(WORK_PARAMS, WORK_N_MAX, "all")
    expected = []
    for n in range(WORK_N_MAX + 1):
        p = SystemParams(0.5, 2, parity=-1 if n == 0 else 1)
        level = energy_closed_form(n, p)
        maps = (heun_params_case2, heun_params_full)
        expected += [build(p, level.E, level.lam)
                     for build in ((heun_params_case1,) + maps if n else maps)]
    assert truncated == Counter(expected)


def test_mixed_solves_form_no_derivative(monkeypatch):
    # dF/dr and dG/dr are formed only where a relation reads them
    orders, inside, exact = Counter(), [], specfun.horner

    def counted(coeffs, x, order=0):
        if inside:
            orders[order] += 1
        return exact(coeffs, x, order)
    monkeypatch.setattr(routes, "horner", counted)
    for route in ("mixed1", "mixed2"):
        def solve(*args, _solver=routes.ROUTE_SOLVERS[route], **kwargs):
            inside.append(True)
            try:
                return _solver(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setitem(routes.ROUTE_SOLVERS, route, solve)
    verify.run_verification(WORK_PARAMS, WORK_N_MAX, "all")
    assert orders[0] > 0 and set(orders) == {0}
