"""Tests for the shooting-method cross-check."""

import math
import warnings

import numpy as np
import pytest

from closed_level import solve_closed
from heundirac import (InvalidParams, NoConvergence, SystemParams, default_grid,
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
    sol = integrate_radial(p, E_mid, default_grid(p.decay_constant(E_mid)))
    interior = np.max(np.abs(sol.f[: len(sol.f) // 2]))
    assert abs(sol.f[-1]) / interior > 1e3


def test_integration_stops_at_grid_end(monkeypatch):
    # a grid ending at 15/lam is not integrated on to the 40/lam limit
    ends = []
    steps = oracle._steps

    def spy(unit, t):
        ends.append(math.exp(t.max()))
        return steps(unit, t)

    monkeypatch.setattr(oracle, "_steps", spy)
    p = SystemParams(0.5, 1)
    E = energy_closed_form(1, p).E
    lam = p.decay_constant(E)
    grid = RadialGrid(np.geomspace(0.01 / lam, 15.0 / lam, 300))
    sol = integrate_radial(p, E, grid=grid)
    assert ends and all(end == pytest.approx(grid.r[-1], rel=1e-14) for end in ends)
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
    analytic = normalize(solve_closed(solve_heun_full, p, 1, grid=grid))
    assert np.max(np.abs(oracle_sol.f - analytic.f)) / np.max(np.abs(analytic.f)) < 1e-5
    assert np.max(np.abs(oracle_sol.g - analytic.g)) / np.max(np.abs(analytic.g)) < 1e-5
    assert residual(oracle_sol) < 1e-6


def test_integration_carries_its_energy():
    # the solution holds the energy it was integrated at, and no level label
    p = SystemParams(0.5, 1)
    E = energy_closed_form(1, p).E
    sol = integrate_radial(p, E, default_grid(p.decay_constant(E)))
    assert sol.E == E and sol.route == "oracle"
    assert not hasattr(sol, "level")


def test_integration_determinism():
    p = SystemParams(0.5, 1)
    E = energy_closed_form(1, p).E
    grid = default_grid(p.decay_constant(E))
    a = integrate_radial(p, E, grid)
    b = integrate_radial(p, E, grid)
    assert np.array_equal(a.f, b.f) and np.array_equal(a.g, b.g)


def test_integration_off_eigenvalue_stays_finite_to_r_max():
    # off an eigenvalue the growing mode fills the tail out to 40/lam; each
    # node keeps its log scale, so nothing overflows (a RuntimeWarning fails)
    p = SystemParams(0.5, 1)
    E1 = energy_closed_form(1, p).E
    E2 = energy_closed_form(2, p).E
    E_mid = 0.5 * (E1 + E2)
    lam = p.decay_constant(E_mid)
    sol = integrate_radial(p, E_mid, grid=RadialGrid(np.geomspace(0.01 / lam, 40.0 / lam, 400)))
    assert np.all(np.isfinite(sol.f)) and np.all(np.isfinite(sol.g))
    tail = np.abs(sol.f[-50:])
    assert np.all(np.diff(tail) > 0) and tail[-1] / tail[0] > 1e3


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


def test_shoot_builds_the_step_geometry_once(monkeypatch):
    # the nodes depend on params and lam_ref alone: one shoot builds the steps
    # of its two Richardson members once, however many energies Brent tries,
    # and the level label reuses them
    built, evaluations, labels = [], [], []
    steps, mismatch, node_label = oracle._steps, oracle._mismatch, oracle._node_label

    def counted_steps(unit, t):
        built.append(t.shape)
        return steps(unit, t)

    def counted_mismatch(*args):
        evaluations.append(len(built))
        return mismatch(*args)

    def counted_label(*args):
        before = len(built)
        n = node_label(*args)
        labels.append(len(built) - before)
        return n

    monkeypatch.setattr(oracle, "_steps", counted_steps)
    monkeypatch.setattr(oracle, "_mismatch", counted_mismatch)
    monkeypatch.setattr(oracle, "_node_label", counted_label)
    p = SystemParams(0.5, 1)
    assert shoot_energy(p, *level_bracket(p, 1)).n == 1
    assert built == [(2, oracle.STEPS + 1), (2, 2 * oracle.STEPS + 1)]
    assert len(evaluations) > 2 and set(evaluations) == {2}
    assert labels == [0]


def test_bracket_scan_builds_the_step_geometry_once(monkeypatch):
    built = []
    steps = oracle._steps

    def counted_steps(unit, t):
        built.append(t.shape)
        return steps(unit, t)

    monkeypatch.setattr(oracle, "_steps", counted_steps)
    assert len(scan_brackets(SystemParams(0.5, 1), points=20)) >= 1
    assert built == [(2, oracle.STEPS + 1), (2, 2 * oracle.STEPS + 1)]


def _one_pass_propagators(unit, E, t):
    """The reference for _steps + _propagators, bit for bit: every quantity
    formed from the nodes in one pass, and cos, sinc and expm1 run on every
    step, each branch picked by np.where."""
    nu, e, m_eff = unit.nu, unit.e, unit.m_eff
    h = np.diff(t)
    mid, half = t[..., :-1] + 0.5 * h, (math.sqrt(3.0) / 6.0) * h
    r1, r2 = np.exp(mid - half), np.exp(mid + half)
    rs, rd = r1 + r2, (math.sqrt(3.0) / 12.0) * h * h * (r2 - r1)
    a = -nu * h - 2.0 * e * m_eff * rd
    b = -0.5 * h * ((E + m_eff) * rs + 2.0 * e) - 2.0 * nu * (E + m_eff) * rd
    c = 0.5 * h * ((E - m_eff) * rs + 2.0 * e) - 2.0 * nu * (E - m_eff) * rd
    q2 = a * a + b * c
    q = np.sqrt(np.abs(q2))
    hyperbolic = q2 > 0.0
    ell = np.where(hyperbolic, q, 0.0)
    decay = np.expm1(-2.0 * ell)
    cosh = np.where(hyperbolic, 1.0 + 0.5 * decay, np.cos(q))
    sinh = np.where(hyperbolic, -0.5 * decay / np.where(hyperbolic, q, 1.0),
                    np.sinc(q / math.pi))
    return np.array([[cosh + sinh * a, sinh * b], [sinh * c, cosh - sinh * a]]), ell, q2


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("nu, e", [(1, 0.5), (3, ALPHA), (2, 1.9)])
@pytest.mark.parametrize("parity", (1, -1))
def test_split_steps_are_the_one_pass_propagators_bit_for_bit(nu, e, parity, monkeypatch):
    # hyperbolic and oscillatory steps on both legs at a level and off it; and
    # q = 0 (where sinc takes its stand-in for 0) on steps of length 0 and on
    # steps of +-1e-170, whose q^2 underflows to 0 while Omega does not
    nodes, steps = [], oracle._steps
    monkeypatch.setattr(oracle, "_steps", lambda unit, t: nodes.append(t) or steps(unit, t))
    p = SystemParams(e, nu, parity=parity)
    E1, E2 = energy_closed_form(1, p).E, energy_closed_form(2, p).E
    unit, _ = oracle._shooting_legs(p, p.decay_constant(E1))
    tiny = np.array([[0.0, 0.0, 1e-170, 3e-170, 3.0], [0.0, -1e-170, -1e-170, -2e-170, -3.0]])
    branches = set()
    for t in [*nodes, tiny]:
        for E in (E1, 0.7 * E1 + 0.3 * E2, 0.2):
            M, ell = oracle._propagators(unit, E, steps(unit, t))
            M_ref, ell_ref, q2 = _one_pass_propagators(unit, E, t)
            assert _bits(M) == _bits(M_ref) and _bits(ell) == _bits(ell_ref)
            branches |= {"hyperbolic"} if np.any(q2 > 0.0) else set()
            branches |= {"oscillatory"} if np.any(q2 < 0.0) else set()
            branches |= {"q = 0"} if np.any((q2 == 0.0) & (np.diff(t) != 0.0)) else set()
    assert branches == {"hyperbolic", "oscillatory", "q = 0"}


@pytest.mark.parametrize("parity", (1, -1))
@pytest.mark.parametrize("nu", (1, 2, 3))
def test_shared_richardson_product_is_two_products_bit_for_bit(nu, parity):
    # one product over both members stacked, after pairing the 2N member's
    # steps once, against a product of each member on its own
    for e in (1e-3, ALPHA, 0.5, 0.95 * nu):
        p = SystemParams(e, nu, parity=parity)
        E1, E2 = energy_closed_form(1, p).E, energy_closed_form(2, p).E
        legs = oracle._shooting_legs(p, p.decay_constant(E1))
        unit, members = legs
        for E in (E1, 0.7 * E1 + 0.3 * E2):
            coarse, fine = (oracle._propagators(unit, E, steps)[0] for steps in members)
            shared = oracle._product(np.stack((coarse, oracle._pair(fine)), 2))
            apart = oracle._product(coarse), oracle._product(fine)
            assert _bits(shared) == _bits(np.stack(apart, 2))
            seeds = oracle._seeds(unit, E)
            phi = []
            for P in apart:
                f, g = np.einsum("ij...,j...->i...", P, seeds)
                phi.append((g[0] * f[1] - f[0] * g[1])
                           / (math.hypot(f[0], g[0]) * math.hypot(f[1], g[1])))
            assert oracle._mismatch(E, p, legs).hex() == ((16.0 * phi[1] - phi[0]) / 15.0).hex()


@pytest.mark.parametrize("m", (1e-150, 1e-20, 1e-16, 0.51099895, 938.272, 1e150))
def test_shooting_is_scale_free_in_the_mass(m):
    # the shooting legs run in units of 1/m, so every mass sees the same
    # problem and the energy is as accurate as at m = 1
    p = SystemParams(0.5, 1, m)
    level = shoot_energy(p, *level_bracket(p, 2))
    ref = energy_closed_form(2, p).E
    assert level.n == 2
    assert abs(level.E - ref) / ref < 1e-12


@pytest.mark.parametrize("m", (1e-150, 1e-20, 1e150))
def test_integration_is_scale_free_in_the_mass(m):
    p = SystemParams(0.5, 1, m)
    E = energy_closed_form(1, p).E
    lam = p.decay_constant(E)
    grid = RadialGrid(np.geomspace(0.01 / lam, 20.0 / lam, 400))
    oracle_sol = normalize(integrate_radial(p, E, grid=grid))
    analytic = normalize(solve_closed(solve_heun_full, p, 1, grid=grid))
    assert np.max(np.abs(oracle_sol.f - analytic.f)) / np.max(np.abs(analytic.f)) < 1e-5
    assert np.max(np.abs(oracle_sol.g - analytic.g)) / np.max(np.abs(analytic.g)) < 1e-5


@pytest.mark.parametrize("m", (1e-150, 1e150))
def test_bracket_scan_is_scale_free_in_the_mass(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        brackets = scan_brackets(SystemParams(0.5, 1, m), points=20)
    at_unit_mass = scan_brackets(SystemParams(0.5, 1), points=20)
    assert len(brackets) == len(at_unit_mass) >= 1
    for (lo, hi), (lo1, hi1) in zip(brackets, at_unit_mass):
        assert lo / m == pytest.approx(lo1, rel=1e-14)
        assert hi / m == pytest.approx(hi1, rel=1e-14)


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


@pytest.mark.parametrize("nu, e", [(nu, e) for nu in (1, 2, 3)
                                   for e in (1e-4, 1e-3, ALPHA, 0.25 * nu, 0.5, 0.95 * nu)])
@pytest.mark.parametrize("parity", (1, -1))
def test_shoot_sweep_from_weak_to_strong_coupling(nu, e, parity):
    # every level n <= 12 of the channel to 1e-12, each labelled by its
    # node count alone (the bracket comes from the closed form, the label not)
    p = SystemParams(e, nu, parity=parity)
    for n in range(0 if parity == -1 else 1, 13):
        level = shoot_energy(p, *level_bracket(p, n))
        ref = energy_closed_form(n, p).E
        assert abs(level.E - ref) / ref < 1e-12
        assert level.n == n


@pytest.mark.parametrize("nu", (22, 50, 80))
@pytest.mark.parametrize("parity", (1, -1))
def test_shoot_at_large_nu(nu, parity):
    # the outer turning point reaches 2N/lam, past 80/lam from nu ~ 40, and
    # 1/lam lies below the inner one: the inward leg starts past the outer
    # one and the legs meet between the two
    p = SystemParams(0.5, nu, parity=parity)
    for n in range(0 if parity == -1 else 1, 4):
        level = shoot_energy(p, *level_bracket(p, n))
        ref = energy_closed_form(n, p).E
        assert abs(level.E - ref) / ref < 1e-12
        assert level.n == n


def test_shoot_no_bracket_between_levels():
    p = SystemParams(0.5, 1)
    E1 = energy_closed_form(1, p).E
    E2 = energy_closed_form(2, p).E
    with pytest.raises(NoConvergence, match="same sign at both ends"):
        shoot_energy(p, E1 + 0.3 * (E2 - E1), E1 + 0.7 * (E2 - E1))


@pytest.mark.parametrize("calls", (0, 1, 4))
def test_shoot_names_a_nan_of_the_matched_functional(monkeypatch, calls):
    # NaN at the lower end, the upper end or an inner step: not "same sign"
    mismatch, energies = oracle._mismatch, []

    def nan_after(E, params, legs):
        energies.append(E)
        return math.nan if len(energies) > calls else mismatch(E, params, legs)

    monkeypatch.setattr(oracle, "_mismatch", nan_after)
    p = SystemParams(0.5, 1)
    lo, hi = level_bracket(p, 1)
    with pytest.raises(NoConvergence) as stop:
        shoot_energy(p, lo, hi)
    assert len(energies) == calls + 1
    assert str(stop.value) == (f"the matched functional in {lo} < E < {hi}: The function "
                               f"value at x={energies[-1]} is NaN; solver cannot continue.")


# the levels shot above, each (m, nu, e, parity, n) in its level_bracket
BRENT_LEVELS = [(1.0, nu, e, parity, n) for nu in (1, 2, 3)
                for e in (1e-4, 1e-3, ALPHA, 0.25 * nu, 0.5, 0.95 * nu)
                for parity in (1, -1) for n in range(0 if parity == -1 else 1, 13)]
BRENT_LEVELS += [(1.0, nu, 0.5, parity, n) for nu in (22, 50, 80)
                 for parity in (1, -1) for n in range(0 if parity == -1 else 1, 4)]
BRENT_LEVELS += [(m, 1, 0.5, 1, 2) for m in (1e-150, 1e-20, 1e-16, 0.51099895, 938.272, 1e150)]


def test_brent_is_scipys_on_the_matched_functional(brent_against_scipy):
    outcomes = brent_against_scipy(oracle)
    for m, nu, e, parity, n in BRENT_LEVELS:
        p = SystemParams(e, nu, m, parity)
        assert shoot_energy(p, *level_bracket(p, n)).n == n
    assert len(outcomes) == len(BRENT_LEVELS)
    assert all(converged for _, converged, _ in outcomes)


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
