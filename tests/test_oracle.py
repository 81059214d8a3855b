"""Tests for the shooting-method cross-check."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from heundirac import (InvalidParams, NoConvergence, SystemParams,
                       energy_closed_form, frobenius_start, integrate_radial,
                       normalize, residual, scan_brackets, shoot_energy,
                       solve_heun_full)
from heundirac import oracle
from heundirac.model import level_bracket
from heundirac.routes import RadialGrid

ALPHA = 0.0072973525693


# ----------------------------------------------------------------------
# Frobenius start
# ----------------------------------------------------------------------

def test_frobenius_exponent_value():
    p = SystemParams(0.5, 1)
    f0, g0, df0, dg0 = frobenius_start(p, 0.9, 1e-4)
    s = math.sqrt(0.75)
    assert f0 == pytest.approx(1e-4 ** s)
    assert g0 / f0 == pytest.approx(-(s + 1) / 0.5)


def test_frobenius_start_leading_order_consistency():
    # residual of the system on the start data is one power of r down
    # from the dominant 1/r terms: the scaled residual shrinks ~ r
    p = SystemParams(0.5, 1)
    E = 0.9
    prev = None
    for r0 in (1e-2, 1e-3, 1e-4):
        f0, g0, df0, dg0 = frobenius_start(p, E, r0)
        res1 = df0 + (p.nu / r0) * f0 + (E + p.e / r0 + p.m) * g0
        res2 = dg0 - (p.nu / r0) * g0 - (E + p.e / r0 - p.m) * f0
        dominant = (p.nu / r0) * abs(f0) + (p.e / r0) * abs(g0)
        scaled = max(abs(res1), abs(res2)) / dominant
        if prev is not None:
            assert scaled < 0.2 * prev  # one order in r below leading
        prev = scaled


def test_frobenius_start_small_coupling_continuity():
    # s -> nu as e -> 0, and the component ratio scales like -2 nu / e
    p_small = SystemParams(1e-6, 1)
    f0, g0, _, _ = frobenius_start(p_small, 0.9, 1e-4)
    s = p_small.frobenius_exponent
    assert s == pytest.approx(1.0, abs=1e-9)
    assert (g0 / f0) * p_small.e == pytest.approx(-(s + 1), rel=1e-9)


def test_frobenius_start_rejects_zero_coupling():
    with pytest.raises(InvalidParams):
        frobenius_start(SystemParams(0.0, 1), 0.9, 1e-4)


# ----------------------------------------------------------------------
# outward integration
# ----------------------------------------------------------------------

def test_integrated_eigenstate_decays():
    # Outward integration mixes in the growing mode at a relative size
    # set by how close E sits to the discrete eigenvalue, so integrate at
    # the shooting root and check the tail inside the double-precision
    # dichotomy window.
    p = SystemParams(0.5, 1)
    E = shoot_energy(p, *level_bracket(p, 1)).E
    lam = math.sqrt(1 - E * E)
    grid = RadialGrid(np.geomspace(0.01 / lam, 21.5 / lam, 800))
    sol = integrate_radial(p, E, grid=grid)
    assert abs(sol.f[-1]) / np.max(np.abs(sol.f)) < 1e-6


def test_integration_off_eigenvalue_grows():
    p = SystemParams(0.5, 1)
    E1 = energy_closed_form(1, p).E
    E2 = energy_closed_form(2, p).E
    E_mid = 0.5 * (E1 + E2)
    sol = integrate_radial(p, E_mid)
    interior = np.max(np.abs(sol.f[: len(sol.f) // 2]))
    assert abs(sol.f[-1]) / interior > 1e3


def test_integration_stops_at_grid_end(monkeypatch):
    # a grid ending at 15/lam is not integrated on to the 40/lam limit
    spans = []

    def spy(fun, t_span, *args, **kwargs):
        spans.append(t_span)
        return solve_ivp(fun, t_span, *args, **kwargs)

    monkeypatch.setattr(oracle, "solve_ivp", spy)
    p = SystemParams(0.5, 1)
    E = energy_closed_form(1, p).E
    lam = p.decay_constant(E)
    grid = RadialGrid(np.geomspace(0.01 / lam, 15.0 / lam, 300))
    sol = integrate_radial(p, E, grid=grid)
    assert len(spans) == 1 and spans[0][1] <= grid.r[-1]
    assert np.all(np.isfinite(sol.f)) and len(sol.f) == len(grid)


def test_integration_rejects_grid_past_r_far():
    p = SystemParams(0.5, 1)
    E = energy_closed_form(1, p).E
    lam = p.decay_constant(E)
    with pytest.raises(InvalidParams):
        integrate_radial(p, E, grid=RadialGrid(np.geomspace(0.01 / lam, 41.0 / lam, 50)))


def test_integration_matches_analytic_wavefunction():
    # common interior: inside the double-precision dichotomy window
    p = SystemParams(0.5, 1)
    E = energy_closed_form(1, p).E
    lam = math.sqrt(1 - E * E)
    grid = RadialGrid(np.geomspace(0.01 / lam, 20.0 / lam, 1500))
    oracle_sol = normalize(integrate_radial(p, E, grid=grid))
    analytic = normalize(solve_heun_full(p, 1, grid=grid))
    assert np.max(np.abs(oracle_sol.f - analytic.f)) / np.max(np.abs(analytic.f)) < 1e-5
    assert np.max(np.abs(oracle_sol.g - analytic.g)) / np.max(np.abs(analytic.g)) < 1e-5
    assert residual(oracle_sol) < 1e-6


def test_integration_determinism():
    p = SystemParams(0.5, 1)
    E = energy_closed_form(1, p).E
    a = integrate_radial(p, E)
    b = integrate_radial(p, E)
    assert np.array_equal(a.f, b.f) and np.array_equal(a.g, b.g)


def test_integration_overflow_reported_with_sign(monkeypatch):
    # off an eigenvalue the growing mode crosses a lowered cap
    monkeypatch.setattr(oracle, "OVERFLOW_CAP", 1e3)
    p = SystemParams(0.5, 1)
    E1 = energy_closed_form(1, p).E
    E2 = energy_closed_form(2, p).E
    with pytest.raises(NoConvergence, match="solution exceeded 1000"):
        integrate_radial(p, 0.5 * (E1 + E2))


# ----------------------------------------------------------------------
# energy shooting
# ----------------------------------------------------------------------

def test_shoot_ground_level():
    p = SystemParams(0.5, 1, parity=-1)
    lo, hi = level_bracket(p, 0)
    level = shoot_energy(p, lo, hi)
    assert level.E == pytest.approx(math.sqrt(3) / 2, abs=1e-8)
    assert level.n == 0
    assert level.route == "oracle"


def test_shoot_first_excited_level():
    p = SystemParams(0.5, 1)
    lo, hi = level_bracket(p, 1)
    level = shoot_energy(p, lo, hi)
    assert level.E == pytest.approx(0.9659258262890684, abs=1e-8)
    assert level.n == 1


@pytest.mark.parametrize("nu", (1, 3))
@pytest.mark.parametrize("e_over_nu", (0.25, 0.95))
@pytest.mark.parametrize("parity,n", [(-1, 0), (1, 1), (-1, 1), (1, 2), (-1, 2),
                                      (1, 5), (-1, 5)])
def test_shoot_label_from_angle_mismatch(nu, e_over_nu, parity, n):
    # the level number comes from the unwrapped mismatch, not the formula
    p = SystemParams(e_over_nu * nu, nu, parity=parity)
    level = shoot_energy(p, *level_bracket(p, n))
    assert level.n == n


def test_shoot_evaluation_budget(monkeypatch):
    # the matched functional is smooth, so Brent converges superlinearly;
    # a step-like functional degrades it to ~50 bisection steps
    calls = []

    def counted(*args):
        calls.append(args)
        return frobenius_start(*args)

    monkeypatch.setattr(oracle, "frobenius_start", counted)
    p = SystemParams(0.5, 1)
    shoot_energy(p, *level_bracket(p, 1))
    assert len(calls) <= 20


def test_shoot_small_coupling_excited_level():
    p = SystemParams(ALPHA, 2)
    level = shoot_energy(p, *level_bracket(p, 5))
    ref = energy_closed_form(5, p).E
    assert abs(level.E - ref) / ref < 1e-12
    assert level.n == 5


def test_shoot_deep_bracket_small_coupling_ground_level():
    # at E = 0.2m the inward solution grows by ~e^6600 from r_far to
    # r_match: amplitudes would overflow, the bounded angle does not
    p = SystemParams(ALPHA, 1, parity=-1)
    hi = level_bracket(p, 0)[1]
    level = shoot_energy(p, 0.2 * p.m, hi)
    ref = energy_closed_form(0, p).E
    assert abs(level.E - ref) / ref < 1e-12
    assert level.n == 0


def test_shoot_no_bracket_between_levels():
    p = SystemParams(0.5, 1)
    E1 = energy_closed_form(1, p).E
    E2 = energy_closed_form(2, p).E
    with pytest.raises(NoConvergence, match="same sign at both ends"):
        shoot_energy(p, E1 + 0.3 * (E2 - E1), E1 + 0.7 * (E2 - E1))


def test_nodeless_level_absent_in_positive_parity_channel():
    # the same interval brackets the level at parity -1 but holds no
    # sign change at parity +1
    p_minus = SystemParams(0.5, 1, parity=-1)
    p_plus = SystemParams(0.5, 1, parity=1)
    lo, hi = level_bracket(p_minus, 0)
    assert shoot_energy(p_minus, lo, hi).n == 0
    with pytest.raises(NoConvergence, match="same sign at both ends"):
        shoot_energy(p_plus, lo, hi)


def test_parity_channels_share_excited_levels():
    for n in (1, 2):
        levels = {}
        for parity in (1, -1):
            p = SystemParams(0.5, 1, parity=parity)
            lo, hi = level_bracket(p, n)
            levels[parity] = shoot_energy(p, lo, hi).E
        assert abs(levels[1] - levels[-1]) / levels[1] < 1e-8


def test_scan_brackets_counts_extra_nodeless_level():
    kwargs = dict(e_min_scale=0.5, e_max_scale=0.99, points=120)
    plus = scan_brackets(SystemParams(0.5, 1, parity=1), **kwargs)
    minus = scan_brackets(SystemParams(0.5, 1, parity=-1), **kwargs)
    assert len(minus) == len(plus) + 1
    # each bracket refines to a closed-form level
    for lo, hi in minus[:2]:
        level = shoot_energy(SystemParams(0.5, 1, parity=-1), lo, hi)
        ref = energy_closed_form(level.n, SystemParams(0.5, 1, parity=-1)).E
        assert abs(level.E - ref) / ref < 1e-8


def test_shoot_rejects_bad_interval():
    p = SystemParams(0.5, 1)
    with pytest.raises(InvalidParams):
        shoot_energy(p, 0.9, 0.5)
