"""Tests for the wavefunction constructions and their cross-relations."""

import dataclasses
import math
import re

import numpy as np
import pytest

from closed_level import count_closed_forms, solve_closed
from heundirac import (InvalidParams, RadialGrid, SystemParams,
                       default_grid, energy_closed_form, normalize, residual,
                       solve_heun_full, solve_mixed_case1, solve_mixed_case2,
                       solve_quantization, solve_standard, standard_vars)
from heundirac import cli, routes, verify
from heundirac.maps import mixing_case
from heundirac.model import ANALYTIC_ROUTES, level_channel, quantized_routes
from heundirac.routes import (ROUTE_SOLVERS, RadialSolution, f_from_g, g_from_f,
                              mixed1_parts, mixed2_parts)

ALL_SOLVERS = tuple(ROUTE_SOLVERS.values())


def params_for(n, nu=1, e=0.5):
    """The channel that holds level n (n=0 lives at parity -1)."""
    return level_channel(SystemParams(e, nu), n)


def test_one_route_registry():
    assert verify.ROUTE_SOLVERS is cli._SOLVERS is routes.ROUTE_SOLVERS
    assert tuple(routes.ROUTE_SOLVERS) == ANALYTIC_ROUTES
    for route, solver in ROUTE_SOLVERS.items():
        assert solve_closed(solver, params_for(1), 1).route == route


# ----------------------------------------------------------------------
# grid and container behavior
# ----------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(InvalidParams):
        RadialGrid(np.array([0.0, 1.0]))
    with pytest.raises(InvalidParams):
        RadialGrid(np.array([2.0, 1.0]))
    with pytest.raises(InvalidParams):
        RadialGrid(np.array([1.0]))
    g = RadialGrid(np.array([0.5, 1.0, 2.0]))
    assert len(g) == 3


@pytest.mark.parametrize("r", [[0.1, np.nan, 0.3], [0.1, 0.2, np.inf], [np.nan, 0.2],
                               [0.1, 0.2, np.nan]])
def test_grid_rejects_non_finite_radii(r):
    with pytest.raises(InvalidParams, match="grid radii must be finite"):
        RadialGrid(np.array(r))


def test_default_grid_spans_origin_to_tail():
    p = SystemParams(0.5, 1)
    lam = energy_closed_form(1, p).lam
    assert lam == pytest.approx(0.5 / math.hypot(1.0 + math.sqrt(0.75), 0.5), rel=1e-15)
    g = default_grid(lam)
    assert len(g) == 2000
    assert g.r[0] == pytest.approx(0.01 / lam)
    assert g.r[-1] == pytest.approx(40.0 / lam)
    narrow = default_grid(lam, points=5, r_max=15.0 / lam)
    assert narrow.r[0] == g.r[0] and narrow.r[-1] == 15.0 / lam and len(narrow) == 5
    with pytest.raises(InvalidParams, match="at least 2 points, got 1"):
        default_grid(lam, points=1)
    with pytest.raises(InvalidParams, match="0 < r_min < r_max"):
        default_grid(lam, r_min=50.0 / lam)


@pytest.mark.parametrize("lam", (0.0, -0.0, math.nan, math.inf, -1.0,
                                 # form a level, then its grid, at zero coupling
                                 energy_closed_form(1, SystemParams(0.0, 1)).lam))
def test_default_grid_needs_a_positive_finite_decay_constant(lam):
    with pytest.raises(InvalidParams, match=re.escape(f"decay constant lam, got {lam}")):
        default_grid(lam)


# ----------------------------------------------------------------------
# standard route
# ----------------------------------------------------------------------

def test_standard_nodeless_level_single_component():
    # C2 = 0 exactly: f and g are proportional everywhere, with ratio
    # -sqrt((m-E)/(m+E)) in the negative-parity channel that hosts n=0
    p = params_for(0)
    sol = solve_closed(solve_standard, p, 0)
    E = sol.E
    expected = -math.sqrt((p.m - E) / (p.m + E))
    ratios = sol.f / sol.g
    assert np.max(np.abs(ratios / expected - 1.0)) < 1e-12
    assert residual(sol) < 1e-8


def test_standard_excited_level_residual():
    sol = solve_closed(solve_standard, params_for(1), 1)
    assert residual(sol) < 1e-8


def test_standard_rejects_zero_coupling():
    p = SystemParams(0.0, 1)
    # the level's lam is 0 at zero coupling, so the grid is another level's
    grid = default_grid(energy_closed_form(1, params_for(1)).lam)
    with pytest.raises(InvalidParams, match="zero coupling"):
        solve_standard(p, energy_closed_form(1, p), grid)


def test_nodeless_level_rejected_in_positive_parity_channel():
    p = SystemParams(0.5, 1, parity=1)
    level = energy_closed_form(0, p)
    for solver in ALL_SOLVERS:
        with pytest.raises(InvalidParams, match="nodeless"):
            solver(p, level, default_grid(level.lam))


@pytest.mark.parametrize("solver", ALL_SOLVERS + (mixed1_parts, mixed2_parts),
                         ids=ANALYTIC_ROUTES + ("mixed1_parts", "mixed2_parts"))
@pytest.mark.parametrize("other", [SystemParams(0.5, 2), SystemParams(0.5, 1, parity=-1)],
                         ids=("nu", "parity"))
def test_level_of_another_channel_is_rejected(solver, other):
    # level 1 exists in both channels; built in params' channel, it is another state
    level = energy_closed_form(1, other)
    with pytest.raises(InvalidParams, match="is not in the channel nu=1, parity=1"):
        solver(params_for(1), level, default_grid(level.lam))


def test_off_level_energy_violates_system():
    sol = solve_closed(solve_standard, params_for(1), 1)
    off = dataclasses.replace(sol, E=sol.E + 1e-2)
    assert residual(off) > 1e-3


@pytest.mark.parametrize("nu", [1, 2, 3])
@pytest.mark.parametrize("parity", [1, -1])
def test_every_solver_builds_every_routes_quantized_level(nu, parity):
    # one spectrum: each route's root-found level, handed to every solver,
    # is a solution of the radial system on its default grid
    for e in (0.0072973525693, 0.25, 0.5, 0.9 * nu):
        p = SystemParams(e, nu, parity=parity)
        for n in range(0 if parity == -1 else 1, 5):
            for route in quantized_routes(p, n):
                level = solve_quantization(p, n, route)
                grid = default_grid(level.lam)
                for solver in ALL_SOLVERS:
                    assert residual(solver(p, level, grid)) < 1e-6, (e, n, route, solver)


# ----------------------------------------------------------------------
# mixed routes
# ----------------------------------------------------------------------

def test_mixed1_residual():
    assert residual(solve_closed(solve_mixed_case1, params_for(1), 1)) < 1e-7


def test_mixed1_forward_operator_reproduces_kummer_component():
    p = params_for(1)
    r, f_part, df, g_part, _, case, _ = solve_closed(mixed1_parts, p, 1)
    implied = g_from_f(case, p, r, f_part, p.m * df)
    scale = np.max(np.abs(g_part))
    assert np.max(np.abs(implied - g_part)) / scale < 1e-7


def test_mixed1_round_trip_is_proportional_to_identity():
    # forward map lands on the Kummer component (pointwise, previous
    # test); applying the inverse map to that component must come back
    # as F itself.  Derivatives are the analytic series ones.  At e = 1e-5
    # the case-1 maps divide by E -/+ m_eff cos A, one of which cancels to
    # O(e^2) in each channel unless it is factored.  Both relations hold in
    # case 2 too, where they divide by 2E + (e + nu sin A)/r and
    # (e - nu sin A)/r, and both close pointwise within 1e-12 of the peak.
    for parts in (mixed1_parts, mixed2_parts):
        for e, parity in ((0.5, 1), (0.5, -1), (1e-5, 1), (1e-5, -1)):
            p = SystemParams(e, 1, parity=parity)
            r, f_part, df, g_part, dg, case, _ = solve_closed(parts, p, 2)
            g_implied = g_from_f(case, p, r, f_part, p.m * df)
            assert np.max(np.abs(g_implied - g_part)) / np.max(np.abs(g_part)) < 1e-12
            f_back = f_from_g(case, p, r, g_part, p.m * dg)
            assert np.max(np.abs(f_back - f_part)) / np.max(np.abs(f_part)) < 1e-12
            mask = np.abs(f_part) > 1e-3 * np.max(np.abs(f_part))
            ratio = f_back[mask] / f_part[mask]
            mid = ratio[len(ratio) // 2]
            assert np.max(np.abs(ratio / mid - 1.0)) < 1e-6
            assert abs(mid - 1.0) < 1e-12


@pytest.mark.parametrize("case_id, parity", [("1", 1), ("2", 1), ("2", -1)])
def test_g_to_f_relation_degenerates_at_the_nodeless_energy(case_id, parity):
    # the F coefficient of the G equation vanishes at the n = 0 energy:
    # E - m_eff cos A in case 1 at parity +1 (E_0 = m cos A), e - nu sin A
    # in case 2 at either parity (sin A = lam_0/m = e/nu)
    p = SystemParams(0.5, 1, parity=parity)
    level = energy_closed_form(0, p)
    case = mixing_case(case_id, p, level.E, level.lam)
    r = default_grid(level.lam).r
    with pytest.raises(InvalidParams, match="degenerates at the nodeless energy"):
        f_from_g(case, p, r, np.ones_like(r), np.ones_like(r))


def test_case1_g_to_f_relation_carries_the_nodeless_level():
    # at parity -1 the case-1 F coefficient E + m cos A stays finite at E_0,
    # and the relation gives the nodeless F that mixed1 builds from G
    p = params_for(0)
    r, f_part, _, g_part, dg, case, _ = solve_closed(mixed1_parts, p, 0)
    f_back = f_from_g(case, p, r, g_part, p.m * dg)
    assert np.max(np.abs(f_back - f_part)) / np.max(np.abs(f_part)) < 1e-12


def test_mixed1_matches_standard():
    # at e = 1e-7, parity -1, the first-order relation between the two
    # pieces cancels on the grid, so their scale must come from its
    # closed-form limit to reach 1e-12
    cases = [(params_for(1), 1),
             *((SystemParams(1e-7, 1, parity=-1), n) for n in (1, 2, 5))]
    for p, n in cases:
        a = normalize(solve_closed(solve_mixed_case1, p, n))
        b = normalize(solve_closed(solve_standard, p, n, grid=a.grid))
        assert np.max(np.abs(a.f - b.f)) / np.max(np.abs(b.f)) < 1e-12, (p.e, n)
        assert np.max(np.abs(a.g - b.g)) / np.max(np.abs(b.g)) < 1e-12, (p.e, n)


@pytest.mark.parametrize("route", ["mixed1", "mixed2", "heun"])
@pytest.mark.parametrize("e, parity, n", [(0.5, 1, 2), (1e-5, 1, 2), (1e-5, -1, 2),
                                          (1e-7, -1, 1)])
def test_amplitudes_are_pointwise(route, e, parity, n):
    # the value at a radius does not depend on the rest of the grid
    p = SystemParams(e, 1, parity=parity)
    full = solve_closed(ROUTE_SOLVERS[route], p, n)
    prefix = solve_closed(ROUTE_SOLVERS[route], p, n, grid=RadialGrid(full.grid.r[:700]))
    assert np.array_equal(prefix.f, full.f[:700])
    assert np.array_equal(prefix.g, full.g[:700])


@pytest.mark.parametrize("solver", ALL_SOLVERS, ids=ANALYTIC_ROUTES)
def test_solvers_form_no_level_and_keep_the_given_energy(monkeypatch, solver):
    # the level of another route's quantization, one ulp off the closed form
    p = params_for(2)
    level = solve_quantization(p, 2, "mixed2")
    level = level._replace(E=math.nextafter(level.E, 0.0))
    grid = default_grid(level.lam)
    formed = count_closed_forms(monkeypatch)
    sol = solver(p, level, grid)
    assert not formed
    assert sol.E.hex() == level.E.hex()


def test_mixed2_residual_and_relation():
    p = params_for(1)
    assert residual(solve_closed(solve_mixed_case2, p, 1)) < 1e-7
    r, f_part, _, g_part, dg, case, _ = solve_closed(mixed2_parts, p, 1)
    implied = f_from_g(case, p, r, g_part, p.m * dg)
    scale = np.max(np.abs(f_part))
    assert np.max(np.abs(implied - f_part)) / scale < 1e-7


def test_mixed_routes_nodeless_level():
    p = params_for(0)
    for solver in (solve_mixed_case1, solve_mixed_case2):
        sol = solve_closed(solver, p, 0)
        assert residual(sol) < 1e-7
    # case 2 carries the state in its rotated F component alone
    _, f_part, _, g_part, _, _, _ = solve_closed(mixed2_parts, p, 0)
    assert np.all(g_part == 0.0)
    assert np.max(np.abs(f_part)) > 0


# ----------------------------------------------------------------------
# heun route (rotation case 0)
# ----------------------------------------------------------------------

def test_heun_full_nodeless_residual():
    sol = solve_closed(solve_heun_full, params_for(0), 0)
    assert residual(sol) < 1e-8


def test_heun_full_matches_standard():
    p = SystemParams(0.3, 2)
    a = normalize(solve_closed(solve_heun_full, p, 2))
    b = normalize(solve_closed(solve_standard, p, 2, grid=a.grid))
    assert np.max(np.abs(a.f - b.f)) / np.max(np.abs(b.f)) < 1e-6
    assert np.max(np.abs(a.g - b.g)) / np.max(np.abs(b.g)) < 1e-6


def _mp_standard_pair(mpmath, p, n, r):
    """(f, g) of level n at radii r by the standard (Kummer) construction,
    from the exact level at 40 digits."""
    with mpmath.workdps(40):
        e, m, nu = mpmath.mpf(p.e), mpmath.mpf(p.m), p.nu
        a = mpmath.sqrt(nu ** 2 - e ** 2)
        E = m / mpmath.sqrt(1 + (e / (n + a)) ** 2)
        lam = m * e / mpmath.sqrt((n + a) ** 2 + e ** 2)
        c2 = -(nu + p.parity * e * m / lam) / (a + e * E / lam)
        wide, narrow = mpmath.sqrt(m + E), mpmath.sqrt(m - E)
        pf, pg = (wide, narrow) if p.parity == 1 else (narrow, -wide)
        f, g = [], []
        for x in r:
            y = 2 * lam * mpmath.mpf(x)
            env = y ** a * mpmath.exp(-y / 2)
            one = env * mpmath.hyp1f1(-n, 2 * a + 1, y)
            two = c2 * env * mpmath.hyp1f1(1 - n, 2 * a + 1, y) if n >= 1 else 0
            f.append(float(pf * (one + two)))
            g.append(float(pg * (one - two)))
    return np.array(f), np.array(g)


@pytest.mark.parametrize("parity", [1, -1])
def test_heun_full_matches_a_40_digit_standard_wavefunction(parity):
    # 40 points of the default grid; least-squares scale, error in units of the peak
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    for nu in (1, 2):
        for e in (1e-3, 0.0072973525693, 0.5, 0.9 * nu):
            p = SystemParams(e, nu, parity=parity)
            for n in range(1 if parity == 1 else 0, 6):
                grid = RadialGrid(default_grid(energy_closed_form(n, p).lam).r[::50])
                sol = solve_closed(solve_heun_full, p, n, grid=grid)
                f, g = _mp_standard_pair(mpmath, p, n, grid.r)
                scale = (sol.f @ f + sol.g @ g) / (sol.f @ sol.f + sol.g @ sol.g)
                peak = max(np.max(np.abs(f)), np.max(np.abs(g)))
                err = max(np.max(np.abs(scale * sol.f - f)), np.max(np.abs(scale * sol.g - g)))
                worst = max(worst, err / peak)
    assert worst < 1e-12


def _nodes(y):
    """Interior zeros of a component, as sign changes among the samples above
    1e-9 of its peak, so the empty exponential tail adds no crossings."""
    signs = np.sign(y[np.abs(y) > 1e-9 * np.max(np.abs(y))])
    return int(np.sum(signs[1:] != signs[:-1]))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_node_counts_negative_parity(n):
    # kappa < 0: both components oscillate n times
    sol = solve_closed(solve_heun_full, SystemParams(0.5, 1, parity=-1), n)
    assert _nodes(sol.f) == n
    assert _nodes(sol.g) == n


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_node_counts_positive_parity(n):
    # kappa > 0 raises the orbital number of the dominant component by
    # one, costing it a radial node: (n-1, n) for (f, g)
    sol = solve_closed(solve_heun_full, SystemParams(0.5, 1, parity=1), n)
    assert _nodes(sol.f) == n - 1
    assert _nodes(sol.g) == n


# ----------------------------------------------------------------------
# coefficient ratio C1/C2 of the standard route (verify's coefficient_ratio)
# ----------------------------------------------------------------------

def test_coefficient_ratio_agreement():
    res = verify.check_coefficient_ratio(SystemParams(0.5, 1), 1)
    assert res.passed and res.max_deviation < 1e-12


@pytest.mark.parametrize("n,nu,e", [(1, 1, 0.5), (2, 2, 0.3), (4, 3, 0.9)])
def test_coefficient_ratio_sign_pattern(n, nu, e, monkeypatch):
    # (nu_s - mu_s)/n and -(a + eps)/(nu_s + mu_s) are both negative at every
    # level the check reads
    read, exact = [], verify.standard_vars

    def standard_vars(p, E, lam):
        read.append((p, exact(p, E, lam)))
        return read[-1][1]
    monkeypatch.setattr(verify, "standard_vars", standard_vars)
    assert verify.check_coefficient_ratio(SystemParams(e, nu), n).passed
    assert len(read) == n
    for level, (p, sv) in enumerate(read, start=1):
        mu_s = p.parity * sv.mu
        assert (p.nu - mu_s) / level < 0
        assert -(sv.a_frob + sv.eps) / (p.nu + mu_s) < 0


# ----------------------------------------------------------------------
# residual and normalization utilities
# ----------------------------------------------------------------------

_STEPS = (2e-3, 1e-3)   # Richardson pair of relative half-steps


def _richardson_slopes(solver, p, level):
    """(closed, richardson) of (df/dr, dg/dr) in units of m at 20 radii of the
    level: the solver's own derivatives against a Richardson-extrapolated
    central difference of its values at r (1 +- h), h in _STEPS."""
    centers = np.geomspace(0.05 / level.lam, 20.0 / level.lam, 20)
    offsets = np.array([-_STEPS[0], -_STEPS[1], 0.0, _STEPS[1], _STEPS[0]])
    sol = solver(p, level, RadialGrid((centers[:, None] * (1.0 + offsets)).ravel()))
    closed, extrapolated = [], []
    for y, dy in ((sol.f, sol.df), (sol.g, sol.dg)):
        y = y.reshape(20, 5)
        wide = (y[:, 4] - y[:, 0]) / (2.0 * _STEPS[0] * centers)
        narrow = (y[:, 3] - y[:, 1]) / (2.0 * _STEPS[1] * centers)
        closed.append(dy.reshape(20, 5)[:, 2])
        extrapolated.append((4.0 * narrow - wide) / 3.0 / p.m)
    return closed, extrapolated


@pytest.mark.parametrize("parity", (1, -1))
@pytest.mark.parametrize("nu", (1, 2, 3))
@pytest.mark.parametrize("route", ANALYTIC_ROUTES)
def test_closed_form_derivatives_match_a_richardson_difference(route, nu, parity):
    # every branch: the case-1 ratio (n = 0 at parity -1), case 2 with G = 0
    # (ibid.), the standard route's comp2 = 0 (n = 0), and the Heun polynomials
    for e in (0.0072973525693, 0.5 * nu, 0.9 * nu):
        p = SystemParams(e, nu, parity=parity)
        for n in range(0 if parity == -1 else 1, 7):
            level = energy_closed_form(n, p)
            closed, extrapolated = _richardson_slopes(ROUTE_SOLVERS[route], p, level)
            scale = max(np.max(np.abs(d)) for d in closed)
            for d, ref in zip(closed, extrapolated):
                assert np.max(np.abs(d - ref)) < 1e-7 * scale, (route, e, n)


def test_residual_zero_solution_is_zero():
    p = params_for(1)
    sol = solve_closed(solve_standard, p, 1)
    zero = RadialSolution(sol.grid, np.zeros_like(sol.f), np.zeros_like(sol.g),
                          sol.E, sol.route, p)
    assert residual(zero) == 0.0
    with pytest.raises(InvalidParams, match="norm integral is 0.0"):
        normalize(zero)


def _with_value_at(y, index, value):
    y = y.copy()
    y[index] = value
    return y


@pytest.mark.parametrize("component, value", (("f", math.nan), ("g", math.nan),
                                              ("g", math.inf), ("f", -math.inf)))
def test_residual_of_a_non_finite_solution_is_nan(component, value):
    # and no numpy RuntimeWarning: pytest's filter makes one an error
    p = SystemParams(0.5, 1)
    sol = solve_closed(solve_standard, p, 1)
    bad = dataclasses.replace(sol, **{component: _with_value_at(getattr(sol, component),
                                                                  len(sol.f) // 2, value)})
    assert math.isnan(residual(bad))


@pytest.mark.parametrize("component", ("df", "dg"))
def test_residual_carries_a_nan_of_either_equation(component):
    sol = solve_closed(solve_standard, SystemParams(0.5, 1), 1)
    finite = residual(sol)
    bad = dataclasses.replace(sol, **{component: _with_value_at(getattr(sol, component), 10,
                                                                  math.nan)})
    assert math.isfinite(finite) and math.isnan(residual(bad))


@pytest.mark.parametrize("nan_call", (0, 1), ids=("in-df", "in-dg"))
def test_oracle_residual_carries_a_nan_of_either_equation(monkeypatch, nan_call):
    # a table without closed-form derivatives takes them from the stencil
    sol = dataclasses.replace(solve_closed(solve_standard, SystemParams(0.5, 1), 1),
                              df=None, dg=None)
    finite = residual(sol)
    derivative, calls = routes._central_derivative, []

    def one_nan(grid, y):
        calls.append(y)
        d = derivative(grid, y)
        return _with_value_at(d, 10, math.nan) if len(calls) - 1 == nan_call else d

    monkeypatch.setattr(routes, "_central_derivative", one_nan)
    assert math.isfinite(finite) and math.isnan(residual(sol))


def test_wavefunction_residual_check_fails_on_a_nan_solution(monkeypatch):
    solver = ROUTE_SOLVERS["mixed2"]

    def with_a_nan(params, level, grid):
        sol = solver(params, level, grid)
        return dataclasses.replace(sol, f=_with_value_at(sol.f, 100, math.nan))

    monkeypatch.setitem(ROUTE_SOLVERS, "mixed2", with_a_nan)
    result = verify.check_wavefunction_residuals(SystemParams(0.5, 1), 1)
    assert not result.passed and math.isnan(result.max_deviation)


def test_residual_needs_enough_points():
    p = params_for(1)
    grid = RadialGrid(np.geomspace(0.1, 10.0, 4))
    sol = solve_closed(solve_standard, p, 1, grid=grid)
    with pytest.raises(InvalidParams):
        residual(sol)


def _central_derivative_reference(r, y, half):
    """The derivative as computed with weights in the grid's own units,
    rebuilt on every call and applied in the same order."""
    n = len(r)
    width = 2 * half + 1
    centers = r[half:n - half]
    nodes = [r[j:n - width + 1 + j] for j in range(width)]
    vals = [y[j:n - width + 1 + j] for j in range(width)]
    total = np.zeros_like(centers)
    wsum = np.zeros_like(centers)
    for j in range(width):
        if j == half:
            continue
        num = np.ones_like(centers)
        for k in range(width):
            if k != j and k != half:
                num *= centers - nodes[k]
        den = np.ones_like(centers)
        for k in range(width):
            if k != j:
                den *= nodes[j] - nodes[k]
        w = num / den
        total += w * vals[j]
        wsum += w
    total -= wsum * vals[half]
    return total


@pytest.mark.parametrize("points, half", ((2000, 3), (20000, 3), (7, 2)))
def test_grid_stencil_derivative_is_bit_identical(points, half):
    p = params_for(2)
    grid = default_grid(energy_closed_form(2, p).lam, points=points)
    sol = solve_closed(solve_standard, p, 2, grid=grid)
    stencil = routes._stencil(grid.r)
    assert stencil[0] == half
    for y in (sol.f, sol.g):
        assert np.array_equal(routes._central_derivative(stencil, y),
                              _central_derivative_reference(grid.r, y, half))


@pytest.mark.parametrize("k", (-900, -500, 500, 900))
def test_grid_stencil_is_exact_under_power_of_two_scaling(k):
    # radii scaled by 2**k scale every weight by exactly 2**-k, also where
    # the products of node differences would overflow or underflow
    p = params_for(2)
    grid = default_grid(energy_closed_form(2, p).lam, points=50)
    half, weights, wsum = routes._stencil(grid.r)
    s_half, s_weights, s_wsum = routes._stencil(RadialGrid(np.ldexp(grid.r, k)).r)
    assert s_half == half and s_weights.keys() == weights.keys()
    for j, w in weights.items():
        assert np.array_equal(s_weights[j], np.ldexp(w, -k))
    assert np.array_equal(s_wsum, np.ldexp(wsum, -k))


@pytest.mark.parametrize("r", (np.geomspace(1e-300, 154.5, 7), np.geomspace(1e-308, 1.0, 2000),
                               np.array([1e-300, 1e-200, 1e-100, 1.0, 1e100]),
                               # in range in the grid's own units, not in the row's
                               np.array([1e-12, 1e-11, 1e-10, 1e30, 1e70])),
                         ids=("7-points-from-1e-300", "2000-points-from-1e-308", "decades",
                              "spanning-2**272"))
def test_grid_stencil_that_overflows_is_invalid_params(r):
    # and no numpy RuntimeWarning escapes: pytest's filter makes one an error
    grid = RadialGrid(r)
    message = f"stencil overflows on the {len(r)}-point grid from r_min={r[0]} to r_max={r[-1]}"
    with pytest.raises(InvalidParams, match=re.escape(message)):
        routes._stencil(grid.r)


#: (e, nu, n) of the levels whose oracle windows the stencil tests cover
_WINDOW_LEVELS = ((1e-3, 1, 1), (0.5, 1, 0), (0.5, 1, 1), (0.5, 2, 3), (0.99, 1, 2))


def _oracle_window_grid(e, nu, n, m, points):
    """The level's grid from the oracle's seed radius R_SEED_SCALE/lam to 40/lam."""
    from heundirac.oracle import R_SEED_SCALE
    lam = energy_closed_form(n, level_channel(SystemParams(e, nu, m=m), n)).lam
    return default_grid(lam, points=points, r_min=R_SEED_SCALE / lam)


@pytest.mark.parametrize("points", (5, 7, 9, 2000, 20000))
@pytest.mark.parametrize("m", (1e-300, 1.0, 1e250))
def test_stencil_on_the_oracle_window_never_overflows(m, points):
    # integrate_radial takes only grids inside [R_SEED_SCALE/lam, 40/lam], which
    # span under 2**46, so every row forms in range; the weights, of order
    # 1/spacing in units of length, stay finite while the seed radius is normal
    for level in _WINDOW_LEVELS:
        half, weights, wsum = routes._stencil(_oracle_window_grid(*level, m, points).r)
        assert all(np.all(np.isfinite(w)) for w in weights.values())
        assert np.all(np.isfinite(wsum))


@pytest.mark.parametrize("points", (5, 7, 9, 2000, 20000))
def test_stencil_on_the_oracle_window_from_a_subnormal_seed_overflows(points):
    # at m = 1e300 the n = 0 seed radius is near 2e-312, and a weight passes
    # 1.8e308: the stencil raises, as the residual of such a table does
    with pytest.raises(InvalidParams, match="the derivative stencil overflows"):
        routes._stencil(_oracle_window_grid(0.5, 1, 0, 1e300, points).r)


def _one_pass_stencil(r):
    """The stencil as built in one pass per weight: each node difference
    formed again for every weight that reads it."""
    n = len(r)
    half = 3 if n >= 9 else 2
    width = 2 * half + 1
    exp = -np.frexp(r[half:n - half])[1]
    nodes = [np.ldexp(r[j:n - width + 1 + j], exp) for j in range(width)]
    centers = nodes[half]
    weights = {}
    wsum = np.zeros_like(centers)
    for j in range(width):
        if j == half:
            continue
        num, den = np.ones_like(centers), np.ones_like(centers)
        for k in range(width):
            if k != j and k != half:
                num *= centers - nodes[k]
            if k != j:
                den *= nodes[j] - nodes[k]
        weights[j] = np.ldexp(num / den, exp)
        wsum += weights[j]
    return half, weights, wsum


def _one_pass_residual(solution, stencil=None):
    """The system residual as formed one array expression at a time: from the
    solution's closed-form derivatives at every point, or, given a stencil,
    from finite differences at its interior points."""
    r = solution.grid.r
    peak = np.max(np.abs(solution.f) + np.abs(solution.g))
    f, g = solution.f / peak, solution.g / peak
    params, E, m = solution.params, solution.E, solution.params.m
    if stencil is None:
        inner = slice(None)
        df, dg = solution.df / peak, solution.dg / peak
    else:
        half, weights, wsum = stencil
        inner = slice(half, len(r) - half)

        def derivative(y):
            total = np.zeros_like(wsum)
            for j, w in weights.items():
                total += w * y[j:len(y) - 2 * half + j]
            total -= wsum * y[half:len(y) - half]
            return total

        df, dg = (derivative(y) / m for y in (f, g))
    mr, fi, gi = m * r[inner], f[inner], g[inner]
    w = E / m + params.e / mr
    floor = np.abs(fi) + np.abs(gi) + routes.RESIDUAL_FLOOR
    worst = 0.0
    for terms in ((df, (params.nu / mr) * fi, (w + params.parity) * gi),
                  (dg, -((params.nu / mr) * gi), -((w - params.parity) * fi))):
        scale = np.maximum(np.abs(terms[0]) + np.abs(terms[1]) + np.abs(terms[2]), floor)
        worst = max(worst, float(np.max(np.abs(terms[0] + terms[1] + terms[2]) / scale)))
    return worst


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def _assert_same_bits(stencil, ref):
    (half, weights, wsum), (ref_half, ref_weights, ref_wsum) = stencil, ref
    assert half == ref_half and list(weights) == list(ref_weights)
    for j, w in weights.items():
        assert np.array_equal(_bits(w), _bits(ref_weights[j]))
    assert np.array_equal(_bits(wsum), _bits(ref_wsum))


_MASSES = (1e-300, 1e-150, 0.51099895, 1.0, 938.272, 1e150, 1e300)


@pytest.mark.parametrize("points, r_min, m", [
    *((points, None, m) for points in (5, 8, 9, 50, 2000, 20000) for m in _MASSES),
    # starting far inside the Frobenius region, where the rows' power-of-two
    # scaling keeps the products of node differences in range
    *((2000, 1e-300, m) for m in _MASSES)])
def test_stencil_and_residual_match_the_one_pass_formulas_bit_for_bit(points, r_min, m):
    p = params_for(1)._replace(m=m)
    grid = default_grid(energy_closed_form(1, p).lam, points=points, r_min=r_min)
    half, weights, wsum = routes._stencil(grid.r)
    stencil = _one_pass_stencil(grid.r)
    _assert_same_bits((half, weights, wsum), stencil)
    for solver in ALL_SOLVERS:
        sol = solve_closed(solver, p, 1, grid=grid)
        if r_min is not None and m < 1e-8:   # m r underflows, and nu/(m r) overflows
            with pytest.raises(InvalidParams, match=f"1/m overflow at m={m} on the grid "
                                                    f"from r_min={grid.r[0]}"):
                residual(sol)
        else:
            assert _bits(residual(sol)) == _bits(_one_pass_residual(sol))
            table = dataclasses.replace(sol, df=None, dg=None)   # the oracle's residual
            assert _bits(residual(table)) == _bits(_one_pass_residual(table, stencil))


def test_grid_stencils_across_levels_match_the_one_pass_formula_bit_for_bit():
    # default grids of 300 levels drawn across channels, couplings, masses and n
    rng = np.random.default_rng(2014)
    for _ in range(300):
        nu = int(rng.integers(1, 4))
        e = 10.0 ** rng.uniform(-3.0, math.log10(0.95 * nu))
        m = 10.0 ** rng.uniform(-10.0, 10.0)
        n = int(rng.integers(0, 17))
        level = energy_closed_form(n, level_channel(SystemParams(e, nu, m=m), n))
        grid = default_grid(level.lam, points=int(rng.choice((5, 9, 300, 2000))))
        _assert_same_bits(routes._stencil(grid.r), _one_pass_stencil(grid.r))
    # masses where a product of the grid's node differences turns subnormal
    p = params_for(1)
    for m in 10.0 ** np.linspace(46.5, 50.5, 9):
        lam = energy_closed_form(1, p._replace(m=m)).lam
        for points in (2000, 20000):
            grid = default_grid(lam, points=points)
            _assert_same_bits(routes._stencil(grid.r), _one_pass_stencil(grid.r))


def _irregular_radii(rng):
    """Up to 300 increasing radii from a start between 1e-320 and 1e300: steps
    of one to three ulps, of 1e-15 to 1 relative, and jumps of up to 1e40."""
    r = [10.0 ** rng.uniform(-320, 300)]
    for _ in range(int(rng.integers(4, 300))):
        kind = rng.random()
        step = math.nextafter(r[-1], math.inf)
        if kind < 0.25:
            for _ in range(int(rng.integers(0, 3))):
                step = math.nextafter(step, math.inf)
        else:   # at least one ulp up where r[-1] is subnormal
            step = max(step, r[-1] * (1 + 10.0 ** rng.uniform(-15, 0) if kind < 0.8
                                      else 10.0 ** rng.uniform(0, 40)))
        if step == math.inf:
            break
        r.append(step)
    return np.array(r)


def test_irregular_grid_stencils_match_the_one_pass_formula_bit_for_bit():
    # every row has its own bits, also one spanning 2**62 or more; where a
    # row's formation overflows, or makes an inf/inf or x/0, the grid's
    # stencil is invalid
    rng = np.random.default_rng(36)
    outcomes = {"same": 0, "invalid": 0}
    for _ in range(250):
        r = _irregular_radii(rng)
        if len(r) < 5:
            continue
        grid = RadialGrid(r)
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                ref = _one_pass_stencil(r)
        except FloatingPointError:
            with pytest.raises(InvalidParams, match="the derivative stencil overflows"):
                routes._stencil(grid.r)
            outcomes["invalid"] += 1
        else:
            _assert_same_bits(routes._stencil(grid.r), ref)
            outcomes["same"] += 1
    assert min(outcomes.values()) >= 50, outcomes


@pytest.mark.parametrize("m", (0.51099895, 2.0, 938.272, 1e-150, 1e150, 1e-300, 1e300))
@pytest.mark.parametrize("solver", ALL_SOLVERS, ids=ANALYTIC_ROUTES)
def test_residual_is_dimensionless(solver, m):
    # each term of the system is f/length, so the residual is read in units
    # of m: the same level at another mass has the same residual
    p = SystemParams(1.0, 2)
    at_unit_mass = residual(solve_closed(solver, p, 3))
    assert residual(solve_closed(solver, p._replace(m=m), 3)) == pytest.approx(
        at_unit_mass, rel=1e-4)


def test_normalize_unit_norm_and_scaling_invariance():
    p = params_for(2)
    sol = solve_closed(solve_standard, p, 2)
    normed = normalize(sol)
    r = normed.grid.r
    total = np.trapezoid(normed.f ** 2 + normed.g ** 2, r)
    assert total == pytest.approx(1.0, abs=1e-6)
    doubled = RadialSolution(sol.grid, 2 * sol.f, 2 * sol.g, sol.E,
                             sol.route, p)
    renormed = normalize(doubled)
    assert np.allclose(renormed.f, normed.f, rtol=0, atol=1e-15)
    # idempotent on an already-normalized input
    again = normalize(normed)
    assert np.allclose(again.f, normed.f, rtol=1e-12)


@pytest.mark.parametrize("power", (-900, 900))
def test_normalize_is_exact_under_power_of_two_amplitudes(power):
    # f and g are squared in units of a power of two near their peak, so a
    # power-of-two rescaling moves no bit, also where f^2 would under- or
    # overflow
    sol = solve_closed(solve_standard, params_for(2), 2)
    ref = normalize(sol)
    scaled = normalize(dataclasses.replace(sol, f=np.ldexp(sol.f, power),
                                           g=np.ldexp(sol.g, power)))
    assert scaled.f.tobytes() == ref.f.tobytes()
    assert scaled.g.tobytes() == ref.g.tobytes()


def test_normalize_sign_convention():
    p = params_for(1)
    sol = solve_closed(solve_standard, p, 1)
    flipped = RadialSolution(sol.grid, -sol.f, -sol.g, sol.E, sol.route, p)
    a, b = normalize(sol), normalize(flipped)
    assert a.f[10] > 0 and b.f[10] > 0
    assert np.allclose(a.f, b.f)


# ----------------------------------------------------------------------
# boundary behavior
# ----------------------------------------------------------------------

def test_origin_power_law():
    p = params_for(1)
    E = energy_closed_form(1, p).E
    lam = math.sqrt(1 - E * E)
    grid = RadialGrid(np.geomspace(1e-7 / lam, 1.0 / lam, 200))
    sol = solve_closed(solve_standard, p, 1, grid=grid)
    s = p.frobenius_exponent
    ratio = sol.f / grid.r ** s
    # the reduced amplitude converges to a nonzero constant at the origin
    assert abs(ratio[1] / ratio[0] - 1.0) < 1e-5
    assert abs(ratio[0]) > 0


def test_exponential_tail_log_slope():
    p = params_for(1)
    E = energy_closed_form(1, p).E
    lam = math.sqrt(1 - E * E)
    grid = RadialGrid(np.linspace(200.0 / lam, 260.0 / lam, 400))
    sol = solve_closed(solve_standard, p, 1, grid=grid)
    slope = np.gradient(np.log(np.abs(sol.f)), grid.r)
    assert abs(np.median(slope) / (-lam) - 1.0) < 0.01


# ----------------------------------------------------------------------
# cross-route agreement (light grid; the acceptance suite runs the full one)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n,nu,e", [(0, 1, 0.5), (1, 1, 0.2), (2, 2, 0.5), (3, 3, 0.2),
                                    (2, 1, 1e-5), (2, 1, 0.0072973525693),
                                    (0, 2, 1.98), (0, 3, 2.97)])
def test_cross_route_pointwise_agreement(n, nu, e):
    # at weak coupling and parity +1 the constant Heun coefficient is
    # ~1e-16/e^2 off relative to the leading one, so a mixed-route amplitude
    # matched at the origin would miss 1e-12 by that
    p = params_for(n, nu, e)
    ref = normalize(solve_closed(solve_standard, p, n))
    for solver in (solve_mixed_case1, solve_mixed_case2, solve_heun_full):
        sol = normalize(solve_closed(solver, p, n, grid=ref.grid))
        assert np.max(np.abs(sol.f - ref.f)) / np.max(np.abs(ref.f)) < 1e-12
        assert np.max(np.abs(sol.g - ref.g)) / np.max(np.abs(ref.g)) < 1e-12
