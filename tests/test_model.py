"""Tests for the parameter layer: cases, maps, spectrum, quantization."""

import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings, strategies as st

from heundirac import (InvalidParams, NoConvergence, SystemParams,
                       energy_closed_form, heun_params_case1,
                       heun_params_case2, heun_params_full, heunc_truncation,
                       mixing_case, quantization_residuals, solve_quantization,
                       standard_vars)
from heundirac.model import (ANALYTIC_ROUTES, HEUN_MAPS, level_bracket, level_channel,
                             quantized_routes, require_level)


def at(p, E):
    """(E, lam) of an arbitrary bound energy E, lam from E by the oracle's formula."""
    return E, p.decay_constant(E)


def _n_real(hp):
    """The n that solves the degree condition delta = -(n + (beta+gamma+2)/2) alpha."""
    return -hp.delta / hp.alpha - 0.5 * (hp.beta + hp.gamma + 2.0)


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
    c = mixing_case("1", p, *at(p, 0.5))
    assert c.sin_a == 0.0 and c.cos_a == 1.0
    assert c.cos_half == 1.0 and c.sin_half == 0.0
    assert c.singular_point == 0.0


def test_mixing_case1_values():
    p = SystemParams(0.6, 1)
    c = mixing_case("1", p, *at(p, 0.7))
    assert c.sin_a == pytest.approx(0.6)
    assert c.cos_a == pytest.approx(0.8)
    assert c.cos_half == pytest.approx(math.sqrt(0.9))
    assert c.sin_half == pytest.approx(math.sqrt(0.1))


def test_mixing_case2_values():
    p = SystemParams(0.3, 1)
    c = mixing_case("2", p, *at(p, 0.8))
    assert c.cos_a == pytest.approx(0.8)
    assert c.sin_a == pytest.approx(0.6)
    assert c.cos_half == pytest.approx(math.sqrt(0.9))
    assert c.sin_half == pytest.approx(math.sqrt(0.1))


def test_mixing_case_unknown_id():
    p = SystemParams(0.3, 1)
    with pytest.raises(InvalidParams):
        mixing_case("3", p, *at(p, 0.5))


def test_mixing_case2_requires_subluminal_energy():
    p = SystemParams(0.3, 1)
    with pytest.raises(InvalidParams):
        mixing_case("2", p, 1.5, 0.5)


@settings(max_examples=60, deadline=None)
@given(nu=st.integers(1, 4), efrac=st.floats(0.01, 0.95),
       Efrac=st.floats(0.05, 0.95), parity=st.sampled_from([1, -1]),
       cid=st.sampled_from(["0", "1", "2"]))
def test_mixing_case_identities(nu, efrac, Efrac, parity, cid):
    p = SystemParams(efrac * nu, nu, parity=parity)
    c = mixing_case(cid, p, *at(p, Efrac * p.m))
    assert abs(c.sin_a ** 2 + c.cos_a ** 2 - 1.0) < 1e-14
    assert abs(c.cos_half ** 2 + c.sin_half ** 2 - 1.0) < 1e-14
    assert abs(2.0 * c.cos_half * c.sin_half - abs(c.sin_a)) < 1e-14


@pytest.mark.parametrize("parity", [1, -1])
@pytest.mark.parametrize("cid", ["0", "1", "2"])
def test_mixing_case_carries_the_rotated_coefficients(cid, parity):
    # E +- m_eff cos A and e +- nu sin A; the angle condition of cases 1 and 2
    # zeroes one of them exactly, and the extra singular point is -s_plus/c_plus
    p = SystemParams(0.6, 1, parity=parity)
    E, lam = at(p, 0.7)
    c = mixing_case(cid, p, E, lam)
    assert c.c_plus == pytest.approx(E + p.m_eff * c.cos_a, rel=1e-14)
    assert c.c_minus == pytest.approx(E - p.m_eff * c.cos_a, rel=1e-14, abs=1e-15)
    assert c.s_plus == pytest.approx(p.e + p.nu * c.sin_a, rel=1e-14)
    assert c.s_minus == pytest.approx(p.e - p.nu * c.sin_a, rel=1e-14, abs=1e-15)
    if cid == "0":   # unrotated: no angle condition, nothing zeroed
        assert (c.sin_a, c.cos_a, c.s_plus, c.s_minus) == (0.0, parity, p.e, p.e)
    else:
        assert (c.s_minus if cid == "1" else c.c_minus) == 0.0
    assert c.singular_point == -c.s_plus / c.c_plus


@pytest.mark.parametrize("parity", [1, -1])
def test_case0_c_minus_does_not_cancel_at_weak_coupling(parity):
    # E - m is -lam^2/(E + m), not a difference of two nearly equal numbers
    mpmath = pytest.importorskip("mpmath")
    p = SystemParams(1e-7, 1, parity=parity)
    level = energy_closed_form(1, p)
    c = mixing_case("0", p, level.E, level.lam)
    with mpmath.workdps(40):
        e, N = mpmath.mpf(p.e), 1 + mpmath.sqrt(1 - mpmath.mpf(p.e) ** 2)
        exact = 1 / mpmath.sqrt(1 + (e / N) ** 2) - 1
        assert abs(c.c_minus / exact - 1) < 1e-14


def case2_D_forms(p, E, lam):
    """The case-2 singular point D as -(e + nu sin A)/(2 m_eff cos A) and as
    mixing_case's -(e + nu sin A)/(2E)."""
    case = mixing_case("2", p, E, lam)
    return -case.s_plus / (2.0 * p.m_eff * case.cos_a), case.singular_point


def test_singular_point_consistency_values():
    p = SystemParams(0.3, 1)
    d_a, d_b = case2_D_forms(p, *at(p, 0.9))
    expected = -(0.3 + math.sqrt(0.19)) / 1.8
    assert d_a == pytest.approx(expected, rel=1e-14)
    assert d_b == pytest.approx(expected, rel=1e-14)


def test_singular_point_consistency_zero_coupling():
    p = SystemParams(0.0, 1)
    d_a, d_b = case2_D_forms(p, *at(p, 0.5))
    sin_a = math.sqrt(1 - 0.25)
    assert d_a == pytest.approx(-sin_a / 1.0)
    assert d_b == pytest.approx(d_a)


@settings(max_examples=50, deadline=None)
@given(nu=st.integers(1, 4), efrac=st.floats(0.01, 0.95),
       Efrac=st.floats(0.1, 0.95))
def test_singular_point_forms_agree(nu, efrac, Efrac):
    p = SystemParams(efrac * nu, nu)
    d_a, d_b = case2_D_forms(p, *at(p, Efrac * p.m))
    assert abs(d_a - d_b) < 1e-14 * abs(d_a)


# ----------------------------------------------------------------------
# Heun parameter maps
# ----------------------------------------------------------------------

def test_case1_map_gamma_and_zero_coupling_limit():
    p = SystemParams(0.5, 1)
    hp = heun_params_case1(p, *at(p, 0.9))
    assert hp.gamma == -2.0
    p0 = SystemParams(0.0, 1)
    hp0 = heun_params_case1(p0, *at(p0, 0.9))
    assert hp0.delta == 0.0  # singular point collapses to the origin


def test_case1_map_satisfies_degree_condition_at_level():
    p = SystemParams(0.5, 1)
    level = energy_closed_form(1, p)
    hp = heun_params_case1(p, level.E, level.lam)
    assert abs(_n_real(hp) - 1) <= 1e-9


def test_case2_map_gamma_and_degree():
    p = SystemParams(0.5, 1)
    level = energy_closed_form(2, p)
    hp = heun_params_case2(p, level.E, level.lam)
    assert hp.gamma == -2.0
    assert abs(_n_real(hp) - 2) <= 1e-9
    p0 = SystemParams(0.0, 1)
    hp0 = heun_params_case2(p0, *at(p0, 0.9))
    assert hp0.delta == 0.0


def test_full_map_values_at_ground_level():
    p = SystemParams(0.5, 1, parity=-1)
    level = energy_closed_form(0, p)
    E, lam = level.E, level.lam
    assert E == pytest.approx(math.sqrt(3) / 2, rel=1e-15)
    assert lam == pytest.approx(0.5, rel=1e-15)
    hp = heun_params_full(p, E, lam)
    # degree condition at n=0: E e / sqrt(m^2-E^2) = sqrt(nu^2-e^2)
    assert E * 0.5 / lam == pytest.approx(math.sqrt(0.75), rel=1e-12)
    assert abs(_n_real(hp)) <= 1e-9


def test_full_map_identities():
    p = SystemParams(0.37, 2)
    level = energy_closed_form(1, p)
    hp = heun_params_full(p, level.E, level.lam)
    assert hp.gamma == -2.0
    nu_s = p.parity * p.nu
    assert hp.delta + hp.eta == pytest.approx(1.0 - nu_s, abs=1e-15)


@pytest.mark.parametrize("parity", (1, -1))
@pytest.mark.parametrize("nu", (1, 2, 3))
@pytest.mark.parametrize("e", (1e-5, 1e-3, 0.0072973525693, 0.5))
def test_heun_maps_truncate_at_the_level_degree(e, nu, parity):
    # from each level's exact lam the degree condition holds to rounding
    # (lam = sqrt(m^2 - E^2) from E misses it by up to 5e-7 at e = 1e-3)
    p = SystemParams(e, nu, parity=parity)
    for n in range(1 if parity == 1 else 0, 21):
        level = energy_closed_form(n, p)
        maps = (heun_params_case2, heun_params_full) + ((heun_params_case1,) if n else ())
        for build in maps:
            hp = build(p, level.E, level.lam)
            assert abs(_n_real(hp) - n) <= 1e-13, (build.__name__, n)
            try:
                degree = heunc_truncation(hp)[0]
            except NoConvergence:
                # at e = 1e-5 the backward recurrence can lose ~1e-6 to the
                # O(e^2) parts that beta and eta carry in their last digits
                assert e == 1e-5, (build.__name__, n)
                continue
            assert degree == n, (build.__name__, n)


def test_full_map_zero_coupling_limit():
    p = SystemParams(0.0, 2)
    hp = heun_params_full(p, *at(p, 0.8))
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
        assert lo == 0.5 * E


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
    # the oracle's lam from E agrees with the level's exact lam, which
    # standard_vars carries through
    p = SystemParams(0.5, 2, m=0.75)
    level = energy_closed_form(1, p)
    assert standard_vars(p, level.E, level.lam).lam == level.lam
    assert p.decay_constant(level.E) == pytest.approx(level.lam, rel=1e-14)
    assert SystemParams(0.5, 2).decay_constant(0.6) == math.sqrt(1.0 - 0.6 ** 2)


# ----------------------------------------------------------------------
# scaled variables
# ----------------------------------------------------------------------

def test_closed_form_lam_underflow_is_rejected():
    # lam = m e / sqrt(N^2 + e^2) rounds to 0 below m e ~ 1e-323
    with pytest.raises(InvalidParams, match="underflows to 0"):
        energy_closed_form(1, SystemParams(1e-30, 1, 1e-300))
    assert energy_closed_form(1, SystemParams(1e-7, 1, 1e-300)).lam > 0.0


def test_standard_vars_worked_example():
    p = SystemParams(0.5, 1)
    sv = standard_vars(p, 0.8, 0.6)
    assert sv.lam == pytest.approx(0.6, rel=1e-15)
    assert sv.mu == pytest.approx(5.0 / 6.0, rel=1e-14)
    assert sv.eps == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert sv.mu ** 2 - sv.eps ** 2 == pytest.approx(0.25, rel=1e-12)


def test_standard_vars_guards_against_lambda_underflow():
    # mu = e m/lam and eps = e E/lam have no value at lam = 0
    p = SystemParams(0.5, 1)
    for lam in (0.0, math.nan):
        with pytest.raises(InvalidParams, match="need lam > 0"):
            standard_vars(p, p.m, lam)


@pytest.mark.parametrize("p,t", [(SystemParams(0.5, 1, 1e150), 1e-8),
                                 (SystemParams(0.5, 1, 1e150), 1e-300),
                                 (SystemParams(math.nextafter(3.0, 0.0), 3), 1e-8)])
def test_standard_vars_rejects_a_radicand_below_0_or_nan(p, t):
    # far below a level's t, eps^2 - mu^2 + nu^2 cancels below 0 (t = 1e-8)
    # or is inf - inf (t = 1e-300): no a_frob, and no bare ValueError
    with pytest.raises(InvalidParams, match="the radicand is (-|nan)"):
        standard_vars(p, p.m * math.sqrt((1.0 - t) * (1.0 + t)), p.m * t)


@settings(max_examples=50, deadline=None)
@given(nu=st.integers(1, 4), efrac=st.floats(0.05, 0.95), Efrac=st.floats(0.1, 0.95))
def test_standard_vars_identities(nu, efrac, Efrac):
    p = SystemParams(efrac * nu, nu)
    sv = standard_vars(p, *at(p, Efrac * p.m))
    assert sv.mu ** 2 - sv.eps ** 2 == pytest.approx(p.e ** 2, rel=1e-12)
    assert sv.a_frob == pytest.approx(p.frobenius_exponent, rel=1e-12)


# ----------------------------------------------------------------------
# quantization
# ----------------------------------------------------------------------

def test_quantization_residuals_vanish_at_levels():
    p = SystemParams(0.5, 1)
    for n in range(4):
        level = energy_closed_form(n, p)
        for route, res in quantization_residuals(p, level.E, level.lam, n).items():
            assert abs(res) < 1e-10, (route, n, res)


def test_quantization_residuals_sign_consistency():
    # each route's residual flips sign with the energy perturbation and
    # the standard-route sign follows the shift of eps
    p = SystemParams(0.5, 1)
    n = 1
    E = energy_closed_form(n, p).E
    up = quantization_residuals(p, *at(p, E + 1e-3), n)
    down = quantization_residuals(p, *at(p, E - 1e-3), n)
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


# a parity -1 channel whose standard-route bracket 0 < lam/m < 1 spans
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
    # the case-1 pole E = m cos A (the n = 0 energy), at lam/m = e/nu, tops
    # the bracket, and every n >= 1 level's root lies inside it
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

    build = model._route_condition

    def no_case1(params, n, route):
        step = build(params, n, route)

        def condition(E, lam):
            if route == "mixed1":
                raise AssertionError("case-1 condition evaluated for another route")
            return step(E, lam)
        return condition

    monkeypatch.setattr(model, "_route_condition", no_case1)
    for route in routes:
        assert solve_quantization(p, 3, route).E == expected[route]
    with pytest.raises(AssertionError):
        solve_quantization(p, 3, "mixed1")


# Brent's method on each route's condition, over couplings from 1e-100 to
# 0.99 nu, nu = 1..3, both parities and n <= 40
SWEEP_COUPLINGS = (1e-100, 1e-30, 1e-7, 1e-5, 1e-3, 0.0072973525693, 0.25, 0.5, 0.9)


@pytest.fixture(scope="module")
def quantization_sweep():
    """(params, n, route, E, t = lam/m of each condition evaluated) of every solve."""
    import heundirac.model as model
    build, points, values = model._route_condition, [], []

    def counted(params, n, route):
        step = build(params, n, route)

        def condition(E, lam):
            points.append(lam / params.m)
            values.append(step(E, lam))
            return values[-1]
        return condition

    solves = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_route_condition", counted)
        for nu in (1, 2, 3):
            for e in (*SWEEP_COUPLINGS, 0.99 * nu):
                for parity in (1, -1):
                    p = SystemParams(e, nu, parity=parity)
                    for n in range(0 if parity == -1 else 1, 41):
                        for route in quantized_routes(p, n):
                            points.clear()
                            values.clear()
                            E = solve_quantization(p, n, route).E
                            # a hook that misses the steps would meet every bound
                            # below; one step is a first probe on the exact root
                            assert len(points) >= 2 or values == [0.0], (p, n, route, points)
                            solves.append((p, n, route, E, list(points)))
    return solves


def test_solve_quantization_takes_few_evaluations(quantization_sweep):
    # the first probe, t = e/nu, bounds every level's t from above, so
    # weak couplings cost no more than strong ones; brentq's two opening
    # calls, at the bracket ends, reuse the probe values
    counts = [len(points) for *_, points in quantization_sweep]
    assert max(counts) <= 20
    assert sum(counts) / len(counts) <= 7.5


def test_solve_quantization_evaluates_each_point_once(quantization_sweep):
    for p, n, route, _, points in quantization_sweep:
        assert len(set(points)) == len(points), (p, n, route)


def test_heun_maps_build_no_mixing_case(monkeypatch):
    # a map reads sin A, cos A and the singular point alone
    import heundirac.model as model
    p = SystemParams(0.5, 2, parity=-1)
    level = energy_closed_form(1, p)
    maps = {route: build(p, level.E, level.lam) for route, build in HEUN_MAPS.items()}

    def refuse(*args):
        raise AssertionError("mixing_case called")

    monkeypatch.setattr(model, "mixing_case", refuse)
    assert {route: build(p, level.E, level.lam) for route, build in HEUN_MAPS.items()} == maps


def test_solve_quantization_evaluates_inside_the_bracket(quantization_sweep):
    # never t = 0 (lam = 0), t = 1 (E = 0) or the mixed1 pole t = e/nu at parity -1
    for p, n, route, _, points in quantization_sweep:
        top = p.e / p.nu if route == "mixed1" and p.parity == -1 else 1.0
        assert all(0.0 < t < top for t in points), (p, n, route)


def test_solve_quantization_is_within_4e15_of_the_closed_form(quantization_sweep):
    # E/m = 1/sqrt(1 + e^2/(n + sqrt(nu^2 - e^2))^2) at 50 digits
    worst = Decimal(0)
    with localcontext() as ctx:
        ctx.prec = 50
        for p, n, route, E, _ in quantization_sweep:
            e = Decimal(p.e)
            N = n + (p.nu * p.nu - e * e).sqrt()
            ref = 1 / (1 + e * e / (N * N)).sqrt()
            worst = max(worst, abs(Decimal(E) - ref) / ref)
    assert worst <= Decimal("4e-15")


def test_solve_quantization_raises_no_convergence_on_a_nan_condition(monkeypatch):
    import heundirac.model as model
    build, calls = model._route_condition, []

    def nan_after(count):
        def counted(params, n, route):
            step = build(params, n, route)

            def condition(E, lam):
                calls.append(lam)
                if len(calls) > count:
                    return math.nan
                return step(E, lam)
            return condition
        return counted

    # NaN from the first probe: the bracket search walks t out of (0, 1)
    monkeypatch.setattr(model, "_route_condition", nan_after(0))
    with pytest.raises(NoConvergence, match="no sign change of the standard condition"):
        solve_quantization(SystemParams(0.5, 1), 1, "standard")
    # NaN once the bracket is found: brentq stops, and so does the solve
    calls.clear()
    monkeypatch.setattr(model, "_route_condition", nan_after(3))
    with pytest.raises(NoConvergence, match="the mixed2 condition in"):
        solve_quantization(SystemParams(0.5, 1), 1, "mixed2")


def test_solve_quantization_raises_no_convergence_when_brent_does_not_converge(monkeypatch):
    import heundirac.model as model

    def stalled(f, a, b, xtol, rtol, maxiter, fa, fb):
        # the port's outcome when its budget is spent: the budget, unconverged;
        # the solve passes the probes' values at the bracket ends
        assert fa == f(a) > 0.0 > fb == f(b)
        return 0.5 * (a + b), maxiter, False

    monkeypatch.setattr(model, "_brentq", stalled)
    with pytest.raises(NoConvergence, match="did not converge in 100 steps"):
        solve_quantization(SystemParams(0.5, 1), 1, "heun")


def test_brent_is_scipys_on_every_sweep_condition(quantization_sweep, brent_against_scipy):
    import heundirac.model as model
    outcomes = brent_against_scipy(model)
    for p, n, route, E, _ in quantization_sweep:
        assert solve_quantization(p, n, route).E == E
    # a solve whose probe lands on an exact zero needs no Brent step
    assert len(outcomes) > 0.95 * len(quantization_sweep)
    assert all(converged for _, converged, _ in outcomes)


def test_quantization_residuals_selected_routes():
    p = SystemParams(0.5, 1)
    E, lam = at(p, 0.9 * p.m)
    every = quantization_residuals(p, E, lam, 2)
    assert list(every) == list(ANALYTIC_ROUTES)
    assert quantization_residuals(p, E, lam, 2, ("mixed2",)) == {"mixed2": every["mixed2"]}
    for route in ANALYTIC_ROUTES:
        assert quantization_residuals(p, E, lam, 2, (route,))[route] == every[route]
    with pytest.raises(InvalidParams):
        quantization_residuals(p, E, lam, 2, ("mixed2", "bogus"))


@pytest.mark.parametrize("E, lam, route, pole", [
    (5e-324, 1.0, "mixed2", "case-2 singular point diverges at this energy "
                            "(D = -(e + nu sin A)/(2E) overflows)"),
    (-1.0, 0.5, "heun", "case-0 singular point diverges at this energy (E + m = 0)"),
], ids=["case-2", "case-0"])
def test_a_diverging_singular_point_names_its_own_case(E, lam, route, pole):
    # the condition and the route's map both name the case and its pole
    p = SystemParams(0.5, 1)
    with pytest.raises(InvalidParams) as condition:
        quantization_residuals(p, E, lam, 1, (route,))
    with pytest.raises(InvalidParams) as built:
        HEUN_MAPS[route](p, E, lam)
    assert str(condition.value) == str(built.value) == pole


def _outcome(evaluate):
    """The float's bits, or the type and text of the error raised."""
    try:
        return evaluate().hex()
    except Exception as exc:   # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


def _map_residual(p, E, lam, n, route):
    """The route's residual read off its built map (standard: off standard_vars)."""
    if route == "standard":
        sv = standard_vars(p, E, lam)
        return sv.eps - sv.a_frob - n
    hp = HEUN_MAPS[route](p, E, lam)
    return hp.delta + (n + 0.5 * (hp.beta + hp.gamma + 2.0)) * hp.alpha


def _step_residual(p, E, lam, n, route):
    import heundirac.model as model
    return model._route_condition(p, n, route)(E, lam)


def test_each_solve_step_is_the_map_residual_bit_for_bit(quantization_sweep):
    for p, n, route, _, points in quantization_sweep:
        for t in points:
            E, lam = p.m * math.sqrt((1.0 - t) * (1.0 + t)), p.m * t
            assert (_outcome(lambda: _step_residual(p, E, lam, n, route))
                    == _outcome(lambda: _map_residual(p, E, lam, n, route))), (p, n, route, t)


# the edges of the range: tiny and huge masses, a coupling whose case-1
# c_plus underflows to 0 at parity -1, and couplings next to nu
EDGE_PARAMS = [SystemParams(0.5, 1, m, parity) for m in (1e-160, 1e150) for parity in (1, -1)]
EDGE_PARAMS += [SystemParams(1e-200, 1, parity=-1), SystemParams(1e-200, 2, parity=-1)]
EDGE_PARAMS += [SystemParams(math.nextafter(float(nu), 0.0), nu, parity=parity)
                for nu in (1, 3) for parity in (1, -1)]


def _edge_pairs(p):
    """(E, lam) at t = 0 (lam = 0), t = 1 (E = 0), the mixed1 pole t = e/nu
    and its neighbours, tiny t, where lam m underflows at m = 1e-160, and a
    grid, then off the curve, where alpha or delta is not finite."""
    ts = [0.0, 1.0, 1e-300, 1e-160, 1e-20, p.e / p.nu, *(k / 16.0 for k in range(1, 16))]
    ts += [math.nextafter(p.e / p.nu, 0.0), math.nextafter(p.e / p.nu, 1.0)]
    pairs = [(p.m * math.sqrt((1.0 - t) * (1.0 + t)), p.m * t) for t in ts]
    return pairs + [(0.5 * p.m, math.inf), (0.5 * p.m, math.nan), (math.nan, 0.5 * p.m),
                    (math.inf, 0.5 * p.m)]


@pytest.mark.parametrize("p", EDGE_PARAMS, ids=repr)
def test_the_condition_is_the_map_residual_at_the_edges(p):
    pairs = _edge_pairs(p)
    raised = set()
    for n in (0, 1, 7):
        for route in ANALYTIC_ROUTES:
            for E, lam in pairs:
                expected = _outcome(lambda: _map_residual(p, E, lam, n, route))
                assert _outcome(lambda: _step_residual(p, E, lam, n, route)) == expected, \
                    (n, route, E, lam)
                assert _outcome(lambda: quantization_residuals(p, E, lam, n, (route,))[route]) \
                    == expected, (n, route, E, lam)
                if isinstance(expected, tuple):
                    raised.add(expected[1].split(" ")[0])
    # the case-1 divergence, E = 0 in case 2, lam = 0, non-finite parameters,
    # and no real a_frob
    assert {"case-1", "case", "mu", "Heun", "a_frob"} <= raised


@pytest.mark.parametrize("p", [SystemParams(0.5, 2), SystemParams(0.5, 2, parity=-1),
                               *EDGE_PARAMS], ids=repr)
def test_each_solve_builds_its_condition_once(p, monkeypatch):
    # the solve's step, kept, gives quantization_residuals' bits, or its
    # error, at every edge point
    import heundirac.model as model
    build, steps = model._route_condition, []

    def kept(params, n, route):
        steps.append(build(params, n, route))
        return steps[-1]

    monkeypatch.setattr(model, "_route_condition", kept)
    pairs = _edge_pairs(p)
    for n in ((0, 1, 7) if p.parity == -1 else (1, 7)):
        for route in quantized_routes(p, n):
            steps.clear()
            try:
                solve_quantization(p, n, route)
            except (InvalidParams, NoConvergence):
                pass   # the case-1 divergence at e = 1e-200, no real a_frob next to nu
            assert len(steps) == 1, (n, route)
            for E, lam in pairs:
                assert (_outcome(lambda: steps[0](E, lam))
                        == _outcome(lambda: quantization_residuals(p, E, lam, n, (route,))[route])
                        ), (n, route, E, lam)
