"""Tests of the verification driver."""

import gc
import weakref
from collections import Counter

import pytest

from heundirac import HeunDiracError, InvalidParams, SystemParams, routes, verify


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
