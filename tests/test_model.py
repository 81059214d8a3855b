"""Tests for the parameter layer: cases, maps, spectrum, quantization."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from heundirac import (InvalidParams, SystemParams,
                       energy_closed_form, heun_params_case1,
                       heun_params_case2, heun_params_full, heunc_poly_degree,
                       mixing_case, quantization_residuals,
                       singular_point_D_consistency, solve_quantization,
                       standard_vars)
from heundirac.model import (ANALYTIC_ROUTES, level_bracket, level_channel,
                             require_level)


def test_system_params_validation():
    SystemParams(0.5, 1)
    with pytest.raises(InvalidParams):
        SystemParams(1.5, 1)          # supercritical
    with pytest.raises(InvalidParams):
        SystemParams(1.0, 1)          # critical coupling rejected
    with pytest.raises(InvalidParams):
        SystemParams(-0.1, 1)
    with pytest.raises(InvalidParams):
        SystemParams(0.5, 0)
    with pytest.raises(InvalidParams):
        SystemParams(0.5, 1, m=-1.0)
    with pytest.raises(InvalidParams):
        SystemParams(0.5, 1, parity=0)


# ----------------------------------------------------------------------
# mixing cases
# ----------------------------------------------------------------------

def test_mixing_case1_zero_coupling():
    p = SystemParams(0.0, 1)
    c = mixing_case("1", p, E=0.5)
    assert c.sin_a == 0.0 and c.cos_a == 1.0
    assert c.cos_half == 1.0 and c.sin_half == 0.0
    assert c.singular_point == 0.0


def test_mixing_case1_values():
    p = SystemParams(0.6, 1)
    c = mixing_case("1", p, E=0.7)
    assert c.sin_a == pytest.approx(0.6)
    assert c.cos_a == pytest.approx(0.8)
    assert c.cos_half == pytest.approx(math.sqrt(0.9))
    assert c.sin_half == pytest.approx(math.sqrt(0.1))


def test_mixing_case2_values():
    p = SystemParams(0.3, 1)
    c = mixing_case("2", p, E=0.8)
    assert c.cos_a == pytest.approx(0.8)
    assert c.sin_a == pytest.approx(0.6)
    assert c.cos_half == pytest.approx(math.sqrt(0.9))
    assert c.sin_half == pytest.approx(math.sqrt(0.1))


def test_mixing_case_unknown_id():
    p = SystemParams(0.3, 1)
    with pytest.raises(InvalidParams):
        mixing_case("3", p, E=0.5)


def test_mixing_case2_requires_subluminal_energy():
    p = SystemParams(0.3, 1)
    with pytest.raises(InvalidParams):
        mixing_case("2", p, E=1.5)


@settings(max_examples=60, deadline=None)
@given(nu=st.integers(1, 4), efrac=st.floats(0.01, 0.95),
       Efrac=st.floats(0.05, 0.95), parity=st.sampled_from([1, -1]),
       cid=st.sampled_from(["1", "2"]))
def test_mixing_case_identities(nu, efrac, Efrac, parity, cid):
    p = SystemParams(efrac * nu, nu, parity=parity)
    c = mixing_case(cid, p, E=Efrac * p.m)
    assert abs(c.sin_a ** 2 + c.cos_a ** 2 - 1.0) < 1e-14
    assert abs(c.cos_half ** 2 + c.sin_half ** 2 - 1.0) < 1e-14
    assert abs(2.0 * c.cos_half * c.sin_half - abs(c.sin_a)) < 1e-14


def test_singular_point_consistency_values():
    p = SystemParams(0.3, 1)
    d_a, d_b = singular_point_D_consistency(p, E=0.9)
    expected = -(0.3 + math.sqrt(0.19)) / 1.8
    assert d_a == pytest.approx(expected, rel=1e-14)
    assert d_b == pytest.approx(expected, rel=1e-14)


def test_singular_point_consistency_zero_coupling():
    p = SystemParams(0.0, 1)
    d_a, d_b = singular_point_D_consistency(p, E=0.5)
    sin_a = math.sqrt(1 - 0.25)
    assert d_a == pytest.approx(-sin_a / 1.0)
    assert d_b == pytest.approx(d_a)


def test_singular_point_consistency_degenerate_at_zero_energy():
    p = SystemParams(0.3, 1)
    with pytest.raises(InvalidParams, match="both forms of D diverge at E = 0"):
        singular_point_D_consistency(p, E=0.0)


@settings(max_examples=50, deadline=None)
@given(nu=st.integers(1, 4), efrac=st.floats(0.01, 0.95),
       Efrac=st.floats(0.1, 0.95))
def test_singular_point_forms_agree(nu, efrac, Efrac):
    p = SystemParams(efrac * nu, nu)
    d_a, d_b = singular_point_D_consistency(p, E=Efrac * p.m)
    assert abs(d_a - d_b) < 1e-14 * abs(d_a)


# ----------------------------------------------------------------------
# Heun parameter maps
# ----------------------------------------------------------------------

def test_case1_map_gamma_and_zero_coupling_limit():
    p = SystemParams(0.5, 1)
    hp = heun_params_case1(p, E=0.9)
    assert hp.gamma == -2.0
    p0 = SystemParams(0.0, 1)
    hp0 = heun_params_case1(p0, E=0.9)
    assert hp0.delta == 0.0  # singular point collapses to the origin


def test_case1_map_satisfies_degree_condition_at_level():
    p = SystemParams(0.5, 1)
    E = energy_closed_form(1, p).E
    hp = heun_params_case1(p, E)
    assert heunc_poly_degree(hp, 1e-9) == 1


def test_case2_map_gamma_and_degree():
    p = SystemParams(0.5, 1)
    E = energy_closed_form(2, p).E
    hp = heun_params_case2(p, E)
    assert hp.gamma == -2.0
    assert heunc_poly_degree(hp, 1e-9) == 2
    hp0 = heun_params_case2(SystemParams(0.0, 1), E=0.9)
    assert hp0.delta == 0.0


def test_full_map_values_at_ground_level():
    p = SystemParams(0.5, 1, parity=-1)
    E = energy_closed_form(0, p).E
    assert E == pytest.approx(math.sqrt(3) / 2, rel=1e-15)
    hp = heun_params_full(p, E)
    # degree condition at n=0: E e / sqrt(m^2-E^2) = sqrt(nu^2-e^2)
    lam = math.sqrt(1 - E * E)
    assert E * 0.5 / lam == pytest.approx(math.sqrt(0.75), rel=1e-12)
    assert heunc_poly_degree(hp, 1e-9) == 0


def test_full_map_identities():
    p = SystemParams(0.37, 2)
    E = energy_closed_form(1, p).E
    hp = heun_params_full(p, E)
    assert hp.gamma == -2.0
    nu_s = p.parity * p.nu
    assert hp.delta + hp.eta == pytest.approx(1.0 - nu_s, abs=1e-15)


def test_full_map_zero_coupling_limit():
    p = SystemParams(0.0, 2)
    hp = heun_params_full(p, E=0.8)
    assert hp.alpha == 0.0
    assert hp.delta == 0.0
    assert hp.eta == 1.0 - p.nu


# ----------------------------------------------------------------------
# closed-form spectrum
# ----------------------------------------------------------------------

def test_closed_form_zero_coupling_gives_rest_energy():
    p = SystemParams(0.0, 2)
    for n in (0, 1, 5):
        assert energy_closed_form(n, p).E == p.m


def test_closed_form_ground_level():
    p = SystemParams(0.5, 1)
    assert energy_closed_form(0, p).E == pytest.approx(math.sqrt(1 - 0.25), rel=1e-15)


def test_closed_form_first_excited():
    p = SystemParams(0.5, 1)
    expected = 1.0 / math.sqrt(1.0 + 0.25 / (1.0 + math.sqrt(0.75)) ** 2)
    lvl = energy_closed_form(1, p)
    assert lvl.E == pytest.approx(expected, rel=1e-15)
    assert lvl.E == pytest.approx(0.9659258262890684, rel=1e-12)


def test_closed_form_rejects_negative_n():
    with pytest.raises(InvalidParams):
        energy_closed_form(-1, SystemParams(0.5, 1))


def test_two_index_conventions_give_identical_levels():
    # n + root and (n-1) + 1 + root describe the same level set
    p = SystemParams(0.4, 2)
    root = p.frobenius_exponent
    for n in range(1, 6):
        N1 = n + root
        N2 = (n - 1) + 1 + root
        E1 = p.m / math.sqrt(1 + (p.e / N1) ** 2)
        E2 = p.m / math.sqrt(1 + (p.e / N2) ** 2)
        assert E1 == E2


def test_spectrum_monotonicity():
    for nu in (1, 2, 3):
        p = SystemParams(0.5, nu)
        energies = [energy_closed_form(n, p).E for n in range(7)]
        assert all(b > a for a, b in zip(energies, energies[1:]))
    for n in (0, 1, 3):
        es = [energy_closed_form(n, SystemParams(0.5, nu)).E for nu in (1, 2, 3, 4)]
        assert all(b > a for a, b in zip(es, es[1:]))


def test_parity_symmetry_of_spectrum():
    plus = SystemParams(0.5, 2, parity=1)
    minus = SystemParams(0.5, 2, parity=-1)
    for n in range(5):
        assert abs(energy_closed_form(n, plus).E) == abs(energy_closed_form(n, minus).E)


@pytest.mark.parametrize("parity", [1, -1])
@pytest.mark.parametrize("n", range(6))
def test_level_channel_and_bracket(n, parity):
    p = SystemParams(0.5, 2, m=0.75, parity=parity)
    channel = level_channel(p, n)
    assert channel.parity == (-1 if n == 0 else parity)
    assert (channel.e, channel.nu, channel.m) == (p.e, p.nu, p.m)
    lo, hi = level_bracket(channel, n)
    E = energy_closed_form(n, channel).E
    assert lo < E < hi
    assert energy_closed_form(n + 1, channel).E > hi
    if n >= 1:
        assert energy_closed_form(n - 1, channel).E < lo
    else:
        assert lo == 0.5 * (0.2 * p.m + E)


@pytest.mark.parametrize("params,n,message", [
    (SystemParams(0.0, 1), 0.5, "non-negative integer"),  # n checked first
    (SystemParams(0.0, 1), 1, "zero coupling"),
    (SystemParams(0.5, 1), -1, "non-negative integer"),
    (SystemParams(0.5, 1, parity=1), 0, "nodeless n=0 level"),
])
def test_require_level_rejects_missing_levels(params, n, message):
    with pytest.raises(InvalidParams, match=message):
        require_level(params, n)


def test_require_level_accepts_existing_levels():
    require_level(SystemParams(0.5, 1, parity=-1), 0)
    require_level(SystemParams(0.5, 1, parity=1), 1)


def test_decay_constant_matches_standard_vars():
    p = SystemParams(0.5, 2, m=0.75)
    E = energy_closed_form(1, p).E
    assert p.decay_constant(E) == standard_vars(p, E).lam == math.sqrt(0.75 ** 2 - E ** 2)


# ----------------------------------------------------------------------
# scaled variables
# ----------------------------------------------------------------------

def test_standard_vars_worked_example():
    p = SystemParams(0.5, 1)
    sv = standard_vars(p, E=0.8)
    assert sv.lam == pytest.approx(0.6, rel=1e-15)
    assert sv.mu == pytest.approx(5.0 / 6.0, rel=1e-14)
    assert sv.eps == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert sv.mu ** 2 - sv.eps ** 2 == pytest.approx(0.25, rel=1e-12)


def test_standard_vars_guards_against_lambda_underflow():
    p = SystemParams(0.5, 1)
    with pytest.raises(InvalidParams):
        standard_vars(p, E=p.m * (1.0 - 1e-14))
    with pytest.raises(InvalidParams):
        standard_vars(p, E=1.2)


@settings(max_examples=50, deadline=None)
@given(nu=st.integers(1, 4), efrac=st.floats(0.05, 0.95), Efrac=st.floats(0.1, 0.95))
def test_standard_vars_identities(nu, efrac, Efrac):
    p = SystemParams(efrac * nu, nu)
    sv = standard_vars(p, Efrac * p.m)
    assert sv.mu ** 2 - sv.eps ** 2 == pytest.approx(p.e ** 2, rel=1e-12)
    assert sv.a_frob == pytest.approx(p.frobenius_exponent, rel=1e-12)


# ----------------------------------------------------------------------
# quantization
# ----------------------------------------------------------------------

def test_quantization_residuals_vanish_at_levels():
    p = SystemParams(0.5, 1)
    for n in range(4):
        E = energy_closed_form(n, p).E
        for route, res in quantization_residuals(p, E, n).items():
            assert abs(res) < 1e-10, (route, n, res)


def test_quantization_residuals_sign_consistency():
    # each route's residual flips sign with the energy perturbation and
    # the standard-route sign follows the shift of eps
    p = SystemParams(0.5, 1)
    n = 1
    E = energy_closed_form(n, p).E
    up = quantization_residuals(p, E + 1e-3, n)
    down = quantization_residuals(p, E - 1e-3, n)
    for route in ANALYTIC_ROUTES:
        assert up[route] != 0.0 and down[route] != 0.0
        assert up[route] * down[route] < 0.0, route
    assert up["standard"] > 0.0  # eps increases with E


def test_quantization_zero_coupling_is_an_error():
    p = SystemParams(0.0, 1)
    with pytest.raises(InvalidParams):
        solve_quantization(p, 0, "standard")


def test_solve_quantization_matches_closed_form():
    p = SystemParams(0.9, 2)
    for n in (0, 2):
        ref = energy_closed_form(n, p).E
        for route in ANALYTIC_ROUTES:
            E = solve_quantization(p, n, route).E
            assert abs(E - ref) / ref < 1e-12, (route, n)


def test_solve_quantization_rejects_unknown_route():
    with pytest.raises(InvalidParams):
        solve_quantization(SystemParams(0.5, 1), 0, "bogus")


# a parity -1 channel whose standard-route bisection passes through
# E = m cos A, where the case-1 singular point R diverges
SINGULAR_STEP_PARAMS = SystemParams(0.55, 1, 0.51099895, -1)


@pytest.mark.parametrize("route", ["standard", "mixed2", "heun"])
def test_solve_quantization_skips_other_routes_singular_map(route):
    p = SINGULAR_STEP_PARAMS
    for n in range(6):
        ref = energy_closed_form(n, p).E
        assert abs(solve_quantization(p, n, route).E - ref) < 1e-12, n


@pytest.mark.parametrize("e,nu,m", [(0.55, 1, 0.51099895), (0.5, 1, 1.0), (0.95, 2, 1.0)])
def test_mixed1_solves_parity_minus_levels(e, nu, m):
    # the case-1 pole E = m cos A (the n = 0 energy) lies below every n >= 1
    # level's root inside the bisection bracket
    p = SystemParams(e, nu, m, -1)
    for n in range(1, 6):
        ref = energy_closed_form(n, p).E
        assert abs(solve_quantization(p, n, "mixed1").E - ref) < 1e-12 * m, n
    with pytest.raises(InvalidParams, match="sits on the case-1 pole E = m cos A"):
        solve_quantization(p, 0, "mixed1")


def test_solve_quantization_builds_only_its_own_map(monkeypatch):
    import heundirac.model as model
    p = SystemParams(0.5, 2)
    routes = ("standard", "mixed2", "heun")
    expected = {route: solve_quantization(p, 3, route).E for route in routes}

    def broken(*args, **kwargs):
        raise AssertionError("case-1 map built for another route")

    monkeypatch.setattr(model, "heun_params_case1", broken)
    for route in routes:
        assert solve_quantization(p, 3, route).E == expected[route]
    with pytest.raises(AssertionError):
        solve_quantization(p, 3, "mixed1")


def test_quantization_residuals_selected_routes():
    p = SystemParams(0.5, 1)
    E = 0.9 * p.m
    every = quantization_residuals(p, E, 2)
    assert list(every) == list(ANALYTIC_ROUTES)
    assert quantization_residuals(p, E, 2, ("mixed2",)) == {"mixed2": every["mixed2"]}
    for route in ANALYTIC_ROUTES:
        assert quantization_residuals(p, E, 2, (route,))[route] == every[route]
    with pytest.raises(InvalidParams):
        quantization_residuals(p, E, 2, ("mixed2", "bogus"))
