"""Tests for the wavefunction constructions and their cross-relations."""

import dataclasses
import math

import numpy as np
import pytest

from heundirac import (InvalidParams, NoConvergence, RadialGrid,
                       SystemParams, coefficient_ratio, count_nodes,
                       default_grid, energy_closed_form, normalize, residual,
                       solve_heun_full, solve_mixed_case1, solve_mixed_case2,
                       solve_standard, standard_vars)
from heundirac import cli, routes, verify
from heundirac.model import ANALYTIC_ROUTES, level_channel
from heundirac.routes import (ROUTE_SOLVERS, RadialSolution, case1_f_from_g,
                              case1_g_from_f, case2_f_from_g, mixed1_parts,
                              mixed2_parts)

ALL_SOLVERS = tuple(ROUTE_SOLVERS.values())


def params_for(n, nu=1, e=0.5):
    """The channel that holds level n (n=0 lives at parity -1)."""
    return level_channel(SystemParams(e, nu), n)


def test_one_route_registry():
    assert verify.ROUTE_SOLVERS is cli._SOLVERS is routes.ROUTE_SOLVERS
    assert tuple(routes.ROUTE_SOLVERS) == ANALYTIC_ROUTES
    for route, solver in ROUTE_SOLVERS.items():
        assert solver(params_for(1), 1).route == route


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


def test_default_grid_spans_origin_to_tail():
    p = SystemParams(0.5, 1)
    E = energy_closed_form(1, p).E
    lam = math.sqrt(1 - E * E)
    g = default_grid(p, E)
    assert len(g) == 2000
    assert g.r[0] == pytest.approx(0.01 / lam)
    assert g.r[-1] == pytest.approx(40.0 / lam)
    narrow = default_grid(p, E, points=5, r_max=15.0 / lam)
    assert narrow.r[0] == g.r[0] and narrow.r[-1] == 15.0 / lam and len(narrow) == 5
    with pytest.raises(InvalidParams, match="at least 2 points, got 1"):
        default_grid(p, E, points=1)
    with pytest.raises(InvalidParams, match="0 < r_min < r_max"):
        default_grid(p, E, r_min=50.0 / lam)


# ----------------------------------------------------------------------
# standard route
# ----------------------------------------------------------------------

def test_standard_nodeless_level_single_component():
    # C2 = 0 exactly: f and g are proportional everywhere, with ratio
    # -sqrt((m-E)/(m+E)) in the negative-parity channel that hosts n=0
    p = params_for(0)
    sol = solve_standard(p, 0)
    E = sol.level.E
    expected = -math.sqrt((p.m - E) / (p.m + E))
    ratios = sol.f / sol.g
    assert np.max(np.abs(ratios / expected - 1.0)) < 1e-12
    assert residual(sol) < 1e-8


def test_standard_excited_level_residual():
    sol = solve_standard(params_for(1), 1)
    assert residual(sol) < 1e-8


def test_standard_rejects_zero_coupling():
    with pytest.raises(InvalidParams):
        solve_standard(SystemParams(0.0, 1), 1)


def test_nodeless_level_rejected_in_positive_parity_channel():
    p = SystemParams(0.5, 1, parity=1)
    for solver in ALL_SOLVERS:
        with pytest.raises(InvalidParams):
            solver(p, 0)


def test_off_level_energy_violates_system():
    sol = solve_standard(params_for(1), 1)
    off = dataclasses.replace(sol, level=dataclasses.replace(sol.level, E=sol.level.E + 1e-2))
    assert residual(off) > 1e-3


# ----------------------------------------------------------------------
# mixed routes
# ----------------------------------------------------------------------

def test_mixed1_residual():
    assert residual(solve_mixed_case1(params_for(1), 1)) < 1e-7


def test_mixed1_forward_operator_reproduces_kummer_component():
    p = params_for(1)
    E = energy_closed_form(1, p).E
    r, f_part, df_part, g_part, _, _ = mixed1_parts(p, 1)
    implied = case1_g_from_f(p, E, r, f_part, df_part)
    scale = np.max(np.abs(g_part))
    assert np.max(np.abs(implied - g_part)) / scale < 1e-7


def test_mixed1_round_trip_is_proportional_to_identity():
    # forward map lands on the Kummer component (pointwise, previous
    # test); applying the inverse map to that component must come back
    # proportional to F.  Derivatives are the analytic series ones.
    p = params_for(2)
    E = energy_closed_form(2, p).E
    r, f_part, df_part, g_part, dg_part, _ = mixed1_parts(p, 2)
    g_implied = case1_g_from_f(p, E, r, f_part, df_part)
    assert np.max(np.abs(g_implied - g_part)) / np.max(np.abs(g_part)) < 1e-7
    f_back = case1_f_from_g(p, E, r, g_part, dg_part)
    mask = np.abs(f_part) > 1e-3 * np.max(np.abs(f_part))
    ratio = f_back[mask] / f_part[mask]
    mid = ratio[len(ratio) // 2]
    assert np.max(np.abs(ratio / mid - 1.0)) < 1e-6


def test_mixed1_matches_standard():
    p = params_for(1)
    a = normalize(solve_mixed_case1(p, 1))
    b = normalize(solve_standard(p, 1, grid=a.grid))
    assert np.max(np.abs(a.f - b.f)) / np.max(np.abs(b.f)) < 1e-6
    assert np.max(np.abs(a.g - b.g)) / np.max(np.abs(b.g)) < 1e-6


@pytest.mark.parametrize("solver", ["solve_mixed_case1", "solve_mixed_case2"])
def test_mixed_routes_resolve_level_energy_once(monkeypatch, solver):
    calls = []

    def counted(*args):
        calls.append(args)
        return energy_closed_form(*args)

    monkeypatch.setattr(routes, "energy_closed_form", counted)
    sol = getattr(routes, solver)(params_for(2), 2)
    assert len(calls) == 1
    assert sol.level.E == energy_closed_form(2, params_for(2)).E


def test_mixed2_residual_and_relation():
    p = params_for(1)
    E = energy_closed_form(1, p).E
    assert residual(solve_mixed_case2(p, 1)) < 1e-7
    r, f_part, _, g_part, dg_part, _ = mixed2_parts(p, 1)
    implied = case2_f_from_g(p, E, r, g_part, dg_part)
    scale = np.max(np.abs(f_part))
    assert np.max(np.abs(implied - f_part)) / scale < 1e-7


def test_mixed_routes_nodeless_level():
    p = params_for(0)
    for solver in (solve_mixed_case1, solve_mixed_case2):
        sol = solver(p, 0)
        assert residual(sol) < 1e-7
    # case 2 carries the state in its rotated F component alone
    _, f_part, _, g_part, _, _ = mixed2_parts(p, 0)
    assert np.all(g_part == 0.0)
    assert np.max(np.abs(f_part)) > 0


# ----------------------------------------------------------------------
# single-function route
# ----------------------------------------------------------------------

def test_heun_full_nodeless_residual():
    sol = solve_heun_full(params_for(0), 0)
    assert residual(sol) < 1e-8


def test_heun_full_matches_standard():
    p = SystemParams(0.3, 2)
    a = normalize(solve_heun_full(p, 2))
    b = normalize(solve_standard(p, 2, grid=a.grid))
    assert np.max(np.abs(a.f - b.f)) / np.max(np.abs(b.f)) < 1e-6
    assert np.max(np.abs(a.g - b.g)) / np.max(np.abs(b.g)) < 1e-6


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_node_counts_negative_parity(n):
    # kappa < 0: both components oscillate n times
    sol = solve_heun_full(SystemParams(0.5, 1, parity=-1), n)
    assert count_nodes(sol, "f") == n
    assert count_nodes(sol, "g") == n


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_node_counts_positive_parity(n):
    # kappa > 0 raises the orbital number of the dominant component by
    # one, costing it a radial node: (n-1, n) for (f, g)
    sol = solve_heun_full(SystemParams(0.5, 1, parity=1), n)
    assert count_nodes(sol, "f") == n - 1
    assert count_nodes(sol, "g") == n


# ----------------------------------------------------------------------
# coefficient ratio
# ----------------------------------------------------------------------

def test_coefficient_ratio_agreement():
    ratio = coefficient_ratio(SystemParams(0.5, 1), 1)
    assert ratio.from_first_equation == pytest.approx(
        ratio.from_second_equation, rel=1e-12)


def test_coefficient_ratio_degenerate_at_nodeless_level():
    with pytest.raises(InvalidParams, match="C1/C2 is 0/0 at the nodeless level"):
        coefficient_ratio(SystemParams(0.5, 1), 0)


@pytest.mark.parametrize("n,nu,e", [(1, 1, 0.5), (2, 2, 0.3), (4, 3, 0.9)])
def test_coefficient_ratio_sign_pattern(n, nu, e):
    ratio = coefficient_ratio(SystemParams(e, nu), n)
    assert ratio.from_first_equation < 0
    assert ratio.from_second_equation < 0


# ----------------------------------------------------------------------
# residual and normalization utilities
# ----------------------------------------------------------------------

def test_calibration_fails_when_relation_vanishes_everywhere():
    from heundirac.routes import _calibrate
    zeros = np.zeros(64)
    with pytest.raises(NoConvergence, match="vanished at every candidate calibration"):
        _calibrate(zeros, zeros, 1.0)


def test_calibration_walks_outward_to_first_usable_index():
    from heundirac.routes import _calibrate
    target = np.full(9, 1e-13)
    implied = np.ones(9)
    # from the median index 4 the walk goes 5, 3, 6, 2, ...: index 6 ties
    # with 2 on distance and is tried first; a left-to-right scan takes 1
    target[[1, 2, 6]] = 6.0, 7.0, 8.0
    implied[6] = 2.0
    assert _calibrate(target, implied, 1.0) == 4.0


def test_calibration_fails_when_every_index_is_below_floor():
    from heundirac.routes import _calibrate
    with pytest.raises(NoConvergence, match="vanished at every candidate calibration"):
        _calibrate(np.full(9, 0.5e-12), np.ones(9), 1.0)


def test_residual_zero_solution_is_zero():
    p = params_for(1)
    sol = solve_standard(p, 1)
    zero = RadialSolution(sol.grid, np.zeros_like(sol.f), np.zeros_like(sol.g),
                          sol.level, sol.route, p)
    assert residual(zero) == 0.0
    with pytest.raises(InvalidParams, match="norm integral is 0.0"):
        normalize(zero)


def test_residual_needs_enough_points():
    p = params_for(1)
    grid = RadialGrid(np.geomspace(0.1, 10.0, 4))
    sol = solve_standard(p, 1, grid=grid)
    with pytest.raises(InvalidParams):
        residual(sol)


def _central_derivative_reference(r, y, half):
    """The derivative as computed before the stencil moved onto the grid:
    weights rebuilt on every call, applied in the same order."""
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
    E = energy_closed_form(2, p).E
    grid = default_grid(p, E, points=points)
    sol = solve_standard(p, 2, grid=grid)
    assert grid._stencil[0] == half
    for y in (sol.f, sol.g):
        assert np.array_equal(routes._central_derivative(grid, y),
                              _central_derivative_reference(grid.r, y, half))
    # built once: f, g and every later residual on this grid share it
    assert grid._stencil is grid._stencil


def test_normalize_unit_norm_and_scaling_invariance():
    p = params_for(2)
    sol = solve_standard(p, 2)
    normed = normalize(sol)
    r = normed.grid.r
    total = np.trapezoid(normed.f ** 2 + normed.g ** 2, r)
    assert total == pytest.approx(1.0, abs=1e-6)
    doubled = RadialSolution(sol.grid, 2 * sol.f, 2 * sol.g, sol.level,
                             sol.route, p)
    renormed = normalize(doubled)
    assert np.allclose(renormed.f, normed.f, rtol=0, atol=1e-15)
    # idempotent on an already-normalized input
    again = normalize(normed)
    assert np.allclose(again.f, normed.f, rtol=1e-12)


def test_normalize_sign_convention():
    p = params_for(1)
    sol = solve_standard(p, 1)
    flipped = RadialSolution(sol.grid, -sol.f, -sol.g, sol.level, sol.route, p)
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
    sol = solve_standard(p, 1, grid=grid)
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
    sol = solve_standard(p, 1, grid=grid)
    slope = np.gradient(np.log(np.abs(sol.f)), grid.r)
    assert abs(np.median(slope) / (-lam) - 1.0) < 0.01


# ----------------------------------------------------------------------
# cross-route agreement (light grid; the acceptance suite runs the full one)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n,nu,e", [(0, 1, 0.5), (1, 1, 0.2), (2, 2, 0.5), (3, 3, 0.2)])
def test_cross_route_pointwise_agreement(n, nu, e):
    p = params_for(n, nu, e)
    ref = normalize(solve_standard(p, n))
    for solver in (solve_mixed_case1, solve_mixed_case2, solve_heun_full):
        sol = normalize(solver(p, n, grid=ref.grid))
        assert np.max(np.abs(sol.f - ref.f)) / np.max(np.abs(ref.f)) < 1e-6
        assert np.max(np.abs(sol.g - ref.g)) / np.max(np.abs(ref.g)) < 1e-6
