"""Unit and property tests for the Kummer / confluent Heun evaluators."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from heundirac import (HeunCParams, InvalidParams, KummerParams, NoConvergence,
                       SystemParams, energy_closed_form, heun_params_case2,
                       heun_params_full, heunc, heunc_derivative,
                       heunc_second_derivative, heunc_series_coefficients,
                       heunc_truncation, kummer)
from heundirac import specfun
from heundirac.model import level_channel
from heundirac.specfun import (heunc_ode_residual, horner, kummer_ode_residual,
                               kummer_series_coefficients)


# ----------------------------------------------------------------------
# Kummer
# ----------------------------------------------------------------------

@pytest.mark.parametrize("order", [0, 1, 2])
def test_horner_float_and_array_are_bit_identical(order):
    long = heunc_series_coefficients(HeunCParams(0.7, 1.3, -2.0, 0.4, 0.9), 9)
    for coeffs in (long, np.array([2.5]), np.array([-1.0, 3.0])):
        ref = np.polynomial.polynomial.polyder(coeffs, order)
        for x in (-3.7, -0.31, 0.0, 0.59, 12.5):
            scalar = horner(coeffs, x, order)
            array = horner(coeffs, np.array([x]), order)
            assert array.shape == (1,)
            assert np.array([scalar]).tobytes() == array.tobytes()
            expected = np.polynomial.polynomial.polyval(x, ref)
            assert scalar == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_horner_returns_the_kind_of_its_argument():
    coeffs = np.array([-1.0, 3.0])
    for order in (0, 1, 2):
        assert type(horner(coeffs, 0.5, order)) is float
        assert isinstance(horner(coeffs, np.array([0.5]), order), np.ndarray)
    # no coefficients: the zero polynomial
    assert horner(np.array([]), 0.5) == 0.0
    assert horner(np.array([]), np.ones(3)).tolist() == [0.0, 0.0, 0.0]


def test_kummer_series_of_no_terms_is_empty():
    # the standard route's second component at n = 0: no terms, so Horner gives 0
    coeffs = kummer_series_coefficients(KummerParams(1.0, 2.0), 0)
    assert coeffs.shape == (0,)


def test_kummer_at_zero_is_one():
    assert kummer(KummerParams(3.7, 1.2), 0.0) == 1.0


def test_kummer_degree_one_polynomial():
    # 1F1(-1; 2; 1) = 1 - 1/2
    assert kummer(KummerParams(-1.0, 2.0), 1.0) == pytest.approx(0.5, abs=1e-15)


def test_kummer_reduces_to_exponential():
    assert kummer(KummerParams(1.0, 1.0), 1.0) == pytest.approx(math.e, rel=1e-15)


def test_kummer_at_negative_argument_matches_mpmath():
    # the alternating terms of x << 0 reach 1e15 times the value; summed
    # after Kummer's transformation, 1F1(3.7; 0.7; -18) was 14% off before
    mpmath = pytest.importorskip("mpmath")
    for a in (-4.5, -2.0, -0.3, 0.3, 1.0, 3.7, 5.5):
        for c in (0.7, 1.2, 2.3, 3.9):
            for x in (-30.0, -18.0, -5.0, -0.5):
                ref = float(mpmath.hyp1f1(a, c, x))
                assert kummer(KummerParams(a, c), x) == pytest.approx(ref, rel=1e-10), (a, c, x)
    ref = float(mpmath.hyp1f1(1.5, 2.0, -700.0))
    assert kummer(KummerParams(1.5, 2.0), -700.0) == pytest.approx(ref, rel=1e-13)
    # past x ~ -708 e^x is subnormal and the sum in -x overflows: no digits
    for x in (-715.0, -750.0):
        with pytest.raises(NoConvergence):
            kummer(KummerParams(1.5, 2.0), x)


def kummer_prime(kp, x):
    """d/dx 1F1(a; c; x) = (a/c) 1F1(a+1; c+1; x)."""
    return (kp.a / kp.c) * kummer(KummerParams(kp.a + 1.0, kp.c + 1.0), x)


def test_kummer_derivative_of_exponential_at_zero():
    assert kummer_prime(KummerParams(1.0, 1.0), 0.0) == 1.0


def test_kummer_derivative_linear_case():
    # d/dx (1 - x/2) = -1/2, independent of x
    assert kummer_prime(KummerParams(-1.0, 2.0), 0.7) == pytest.approx(-0.5)


def test_kummer_derivative_matches_finite_difference():
    kp = KummerParams(-2.0, 3.0)
    x, h = 1.5, 1e-5
    fd = (kummer(kp, x + h) - kummer(kp, x - h)) / (2 * h)
    assert kummer_prime(kp, x) == pytest.approx(fd, abs=1e-8)


def test_kummer_rejects_bad_denominator():
    with pytest.raises(InvalidParams):
        KummerParams(1.0, 0.0)
    with pytest.raises(InvalidParams):
        KummerParams(0.5, -2.0)
    with pytest.raises(InvalidParams):
        KummerParams(-3.0, -2.0)  # numerator does not terminate first
    KummerParams(-1.0, -2.0)  # terminates first: fine


def test_kummer_no_convergence_on_tiny_budget(monkeypatch):
    monkeypatch.setattr(specfun, "MAX_TERMS", 8)
    with pytest.raises(NoConvergence):
        kummer(KummerParams(1.0, 1.0), 50.0)


def test_kummer_determinism():
    kp = KummerParams(0.37, 2.41)
    vals = {kummer(kp, 7.123) for _ in range(5)}
    assert len(vals) == 1


@settings(max_examples=80, deadline=None)
@given(a=st.floats(-5, 5), c=st.floats(0.3, 6.0), x=st.floats(-20, 20))
def test_kummer_ode_residual_property(a, c, x):
    assert kummer_ode_residual(KummerParams(a, c), x) < 1e-8


@settings(max_examples=60, deadline=None)
@given(n1=st.integers(1, 6), g=st.floats(0.5, 6.0), y=st.floats(0.1, 10.0))
def test_kummer_differentiation_rule(n1, g, y):
    # d/dy 1F1(-n1; g; y) = -(n1/y) 1F1(-n1+1; g; y) + (n1/y) 1F1(-n1; g; y)
    lhs = kummer_prime(KummerParams(-n1, g), y)
    t1 = (-n1 / y) * kummer(KummerParams(-n1 + 1, g), y)
    t2 = (n1 / y) * kummer(KummerParams(-n1, g), y)
    # the two sides may cancel to zero; scale by the pieces that cancel
    scale = max(abs(lhs), abs(t1), abs(t2), 1e-12)
    assert abs(lhs - (t1 + t2)) / scale < 1e-10


@settings(max_examples=60, deadline=None)
@given(n1=st.integers(1, 6), g=st.floats(0.5, 6.0), y=st.floats(0.1, 10.0))
def test_kummer_contiguous_relation(n1, g, y):
    # y 1F1(-n1+1; g+1; y) = g 1F1(-n1+1; g; y) - g 1F1(-n1; g; y)
    lhs = y * kummer(KummerParams(-n1 + 1, g + 1.0), y)
    t1 = g * kummer(KummerParams(-n1 + 1, g), y)
    t2 = g * kummer(KummerParams(-n1, g), y)
    scale = max(abs(lhs), abs(t1), abs(t2), 1e-12)
    assert abs(lhs - (t1 - t2)) / scale < 1e-10


def _one_term_series(a0, c, x):
    """(value, term scale) of 1F1(a0; c; x) by the one-term-at-a-time loop
    the array passes of the evaluator reproduce bit for bit."""
    a, y, weight = a0, x, 1.0
    if x < 0.0 and not (a0 <= 0 and a0 == math.floor(a0)):
        a, y, weight = c - a0, -x, math.exp(x)
    term = total = peak = 1.0
    small = 0
    for k in range(specfun.MAX_TERMS):
        term *= (a + k) * y / ((c + k) * (k + 1))
        if term == 0.0:
            break
        total += term
        peak = max(peak, abs(term))
        if abs(term) < specfun.SERIES_REL_TOL * abs(total):
            small += 1
            if small >= 2:
                break
        else:
            small = 0
    else:
        raise NoConvergence("term budget")
    if y != x and not (weight >= sys.float_info.min and math.isfinite(total)):
        raise NoConvergence("subnormal weight")
    return weight * total, weight * peak


def _assert_matches_one_term_series(a, c, x):
    value, scale = specfun._kummer_with_term_scale(KummerParams(a, c), x)
    ref = np.array([_one_term_series(*point) for point in
                    zip(*(v.ravel().tolist() for v in np.broadcast_arrays(a, c, x)))])
    assert value.shape == scale.shape == np.broadcast_shapes(np.shape(a), np.shape(c),
                                                             np.shape(x))
    assert value.ravel().tobytes() == ref[:, 0].tobytes()
    assert scale.ravel().tobytes() == ref[:, 1].tobytes()


@settings(max_examples=60, deadline=None)
@given(points=st.lists(st.tuples(st.one_of(st.floats(-12, 12), st.integers(-12, 0).map(float)),
                                 st.floats(0.1, 12), st.floats(-60, 60)),
                       min_size=1, max_size=12))
def test_kummer_array_passes_match_the_one_term_series(points):
    # |x| up to 60 takes series across several passes of _SERIES_CHUNK terms
    a, c, x = (np.array(v) for v in zip(*points))
    _assert_matches_one_term_series(a, c, x)


def test_kummer_array_passes_cover_termination_transformation_and_broadcasting():
    # exact termination (a = -3, and x = 0), Kummer's transformation at x < 0
    # but none for a non-positive integer a, and a series of several passes
    a = np.array([-3.0, 3.7, -2.0, 1.0, 0.5])[:, None]
    x = np.array([-18.0, -0.5, 0.0, 5.0, 60.0])
    _assert_matches_one_term_series(a, np.array([0.7, 2.5]), x[:, None, None])
    # 1F1(1; 0.7; 60) needs more than two passes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(specfun, "MAX_TERMS", 2 * specfun._SERIES_CHUNK)
        with pytest.raises(NoConvergence):
            _one_term_series(1.0, 0.7, 60.0)


def test_kummer_scalar_input_gives_floats_and_arrays_broadcast():
    kp = KummerParams(np.array([-2.0, 0.37]), 2.41)
    x = np.array([[0.5], [-7.0], [0.0]])
    assert type(kummer(KummerParams(0.37, 2.41), 7.123)) is float
    assert type(kummer_ode_residual(KummerParams(0.37, 2.41), 7.123)) is float
    for fn in (kummer, kummer_prime, kummer_ode_residual):
        array = fn(kp, x)
        assert array.shape == (3, 2)
        scalars = [[fn(KummerParams(a, 2.41), xi) for a in (-2.0, 0.37)] for xi in x[:, 0]]
        assert array.tobytes() == np.array(scalars).tobytes()
    assert np.all(kummer_ode_residual(kp, x)[2] == 0.0)


def test_kummer_array_raises_as_the_one_term_series(monkeypatch):
    with pytest.raises(NoConvergence, match="e\\^x is subnormal"):
        kummer(KummerParams(np.array([1.5, 1.5]), 2.0), np.array([-1.0, -750.0]))
    with pytest.raises(NoConvergence):
        _one_term_series(1.5, 2.0, -750.0)
    monkeypatch.setattr(specfun, "MAX_TERMS", 3)
    with pytest.raises(NoConvergence, match=r"1F1\(1.0; 1.0; 50.0\) did not converge within 3"):
        kummer(KummerParams(1.0, 1.0), np.array([0.0, 50.0]))
    with pytest.raises(NoConvergence):
        _one_term_series(1.0, 1.0, 50.0)
    # a series that stops within the budget is still answered
    assert kummer(KummerParams(-1.0, 2.0), np.array([1.0])).tolist() == [0.5]


def test_kummer_params_reject_a_bad_array_element():
    with pytest.raises(InvalidParams, match=r"c=-2.0 is a non-positive integer .*\(a=0.5\)"):
        KummerParams(np.array([1.0, 0.5, -1.0]), np.array([2.0, -2.0, -2.0]))
    with pytest.raises(InvalidParams, match="must be finite"):
        KummerParams(np.array([1.0, math.nan]), 2.0)
    with pytest.raises(InvalidParams, match="must be finite"):
        KummerParams(1.0, np.array([2.0, math.inf]))
    KummerParams(np.array([-1.0, 0.5]), np.array([-2.0, 3.0]))


# ----------------------------------------------------------------------
# confluent Heun
# ----------------------------------------------------------------------

def _physical_params(n, nu, e):
    p = SystemParams(e, nu)
    level = energy_closed_form(n, p)
    return heun_params_full(p, level.E, level.lam)


def _n_real(hp):
    """The n that solves the degree condition delta = -(n + (beta+gamma+2)/2) alpha."""
    return -hp.delta / hp.alpha - 0.5 * (hp.beta + hp.gamma + 2.0)


# H = 1 + z: the degree condition delta = -(1 + (beta+gamma+2)/2) alpha and
# the accessory condition (beta+1) c_1 = -u with u = -2 hold exactly
ONE_PLUS_Z = HeunCParams(1.5, 1.0, -2.0, -2.25, 5.0)
# a parameter set whose series does not terminate
OPEN = HeunCParams(0.3, 1.3, -0.7, 0.4, 0.9)


def test_heunc_normalization_at_origin():
    for hp in (ONE_PLUS_Z, _physical_params(2, 1, 0.5)):
        assert heunc(hp, 0.0) == 1.0
    assert heunc_truncation(ONE_PLUS_Z)[1].tolist() == [1.0, 1.0]
    for z in (-2.0, 0.5, 3.0):
        assert heunc(ONE_PLUS_Z, z) == 1.0 + z


def test_heunc_all_zero_parameters_is_constant():
    hp = HeunCParams(0.0, 0.0, 0.0, 0.0, 0.0)
    for z in (-5.0, -0.5, 0.3, 7.0):
        assert heunc(hp, z) == 1.0
        assert heunc_derivative(hp, z) == 0.0


def test_heunc_slope_formula():
    hp = _physical_params(2, 1, 0.5)
    expected = -(hp.alpha * hp.beta + hp.alpha - hp.beta * hp.gamma - hp.beta
                 - hp.gamma - 2 * hp.eta) / (2 * (hp.beta + 1))
    assert heunc_derivative(hp, 0.0) == pytest.approx(expected, rel=1e-14)
    # and by finite differences of the function itself
    h = 1e-6
    fd = (heunc(hp, h) - heunc(hp, -h)) / (2 * h)
    assert heunc_derivative(hp, 0.0) == pytest.approx(fd, abs=1e-9)


def test_heunc_against_ode_integration_oracle():
    # level n=2: integrate the canonical equation from 0 to -0.5 and
    # compare with the series value
    hp = _physical_params(2, 1, 0.5)
    u = 0.5 * (hp.alpha + hp.alpha * hp.beta - hp.beta - hp.beta * hp.gamma
               - hp.gamma - 2 * hp.eta)
    v = 0.5 * (hp.alpha + hp.alpha * hp.gamma + hp.beta + hp.beta * hp.gamma
               + hp.gamma + 2 * hp.delta + 2 * hp.eta)

    def rhs(z, y):
        h, dh = y
        d2 = -(hp.alpha + (hp.beta + 1) / z + (hp.gamma + 1) / (z - 1)) * dh \
             - (u / z + v / (z - 1)) * h
        return [dh, d2]

    z0 = -1e-8  # start just off the singular point with the series data
    y0 = [heunc(hp, z0), heunc_derivative(hp, z0)]
    sol = solve_ivp(rhs, (z0, -0.5), y0, method="DOP853", rtol=1e-12, atol=1e-14)
    assert heunc(hp, -0.5) == pytest.approx(sol.y[0][-1], rel=1e-8)


def test_heunc_derivative_matches_finite_difference():
    hp = _physical_params(1, 1, 0.5)
    z, h = -0.3, 1e-5
    fd = (heunc(hp, z + h) - heunc(hp, z - h)) / (2 * h)
    assert heunc_derivative(hp, z) == pytest.approx(fd, abs=1e-7)


def test_heunc_poly_degree_direct():
    assert abs(_n_real(HeunCParams(2.0, 1.0, -2.0, -3.0, 0.0)) - 1) <= 1e-12
    off = HeunCParams(2.0, 1.0, -2.0, -2.5, 0.0)
    assert abs(_n_real(off) - round(_n_real(off))) > 1e-12
    with pytest.raises(InvalidParams, match="open"):
        heunc_truncation(off)


def test_heunc_poly_degree_at_quantized_level():
    hp = _physical_params(3, 2, 0.4)
    assert abs(_n_real(hp) - 3) <= 1e-10


def test_heunc_rejects_negative_integer_beta():
    with pytest.raises(InvalidParams):
        HeunCParams(0.3, -1.0, -2.0, 0.1, 0.2)
    with pytest.raises(InvalidParams):
        HeunCParams(0.3, -3.0, -2.0, 0.1, 0.2)


@pytest.mark.parametrize("position", range(5))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_heunc_params_reject_a_non_finite_parameter(position, bad):
    values = [0.3, 1.3, -2.0, 0.1, 0.2]
    values[position] = bad
    with pytest.raises(InvalidParams, match="Heun parameters must be finite"):
        HeunCParams(*values)


def test_heunc_params_are_a_named_tuple_with_the_dataclass_repr():
    hp = HeunCParams(0.3, beta=1.3, gamma=-0.7, delta=0.4, eta=0.9)
    assert tuple(hp) == (0.3, 1.3, -0.7, 0.4, 0.9) and hp.delta == 0.4
    assert repr(hp) == "HeunCParams(alpha=0.3, beta=1.3, gamma=-0.7, delta=0.4, eta=0.9)"
    with pytest.raises(InvalidParams, match="beta=-2.0 is a negative integer"):
        HeunCParams(0.3, -2.0, -2.0, 0.1, 0.2)


def test_heunc_outside_domain_for_nonterminating_series():
    # only polynomials are evaluated: an open series raises everywhere,
    # at the origin too, from each of the three evaluators
    with pytest.raises(InvalidParams, match="open"):
        heunc_truncation(OPEN)
    for fn in (heunc, heunc_derivative, heunc_second_derivative):
        for z in (0.0, 0.6, 1.2):
            with pytest.raises(InvalidParams):
                fn(OPEN, z)


def test_heunc_truncation_collapses_at_quantized_levels():
    hp = _physical_params(2, 1, 0.5)
    trunc = heunc_truncation(hp)
    assert trunc is not None
    degree, coeffs = trunc
    assert degree == 2 and len(coeffs) == 3
    # raw forward coefficients past the degree are roundoff-level
    raw = heunc_series_coefficients(hp, 8)
    assert np.max(np.abs(raw[3:])) < 1e-12 * np.max(np.abs(raw[:3]))


def test_heunc_truncation_raises_where_the_backward_head_disagrees():
    # no forward-head fallback: with eta nudged off the level, the degree
    # condition still picks n = 2, but the backward pass does not reproduce
    # the forward c_1, and there is no polynomial to return
    hp = _physical_params(2, 1, 0.5)
    nudged = hp._replace(eta=hp.eta + 1e-3)
    assert abs(_n_real(nudged) - 2) <= 1e-12
    with pytest.raises(NoConvergence, match="backward recurrence to degree 2"):
        heunc_truncation(nudged)


def test_heunc_truncation_overflow_raises_without_a_warning():
    hp = _physical_params(30, 1, 1e-4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence, match="gives c_1 = nan"):
            heunc_truncation(hp)


def test_heunc_truncation_rejects_a_degree_without_its_accessory_condition():
    # delta = -3 picks n = 1, but eta = 0 misses (beta+1) c_1 = -u c_0
    hp = HeunCParams(2.0, 1.0, -2.0, -3.0, 0.0)
    assert abs(_n_real(hp) - 1) <= 1e-12
    with pytest.raises(NoConvergence, match="backward recurrence to degree 1"):
        heunc_truncation(hp)


@pytest.mark.parametrize("nu,e", [(1, 0.5), (2, 1.98), (3, 2.97)])
def test_heunc_truncation_reads_both_conditions_at_degree_zero(nu, e):
    # no recurrence runs at n = 0: the accessory condition is u = 0 itself,
    # met at the parity -1 nodeless level, missed by the parity +1 map of
    # the same energy, whose series is open
    level = energy_closed_form(0, SystemParams(e, nu))
    minus, plus = (heun_params_case2(SystemParams(e, nu, parity=parity), level.E, level.lam)
                   for parity in (-1, 1))
    assert abs(_n_real(minus)) <= 1e-8 and abs(_n_real(plus)) <= 1e-8
    degree, coeffs = heunc_truncation(minus)
    assert degree == 0 and coeffs.tolist() == [1.0]
    with pytest.raises(InvalidParams, match="open"):
        heunc_truncation(plus)


def test_heunc_truncation_at_zero_alpha():
    # alpha n + u + v = 0 picks only n = 0, and only when u + v = 0
    assert heunc_truncation(HeunCParams(0.0, 1.0, -2.0, 0.0, 1.5))[1].tolist() == [1.0]
    for open_series in (HeunCParams(0.0, 1.0, -2.0, 0.0, 0.2),
                        HeunCParams(0.0, 1.0, -2.0, 0.3, 1.5)):
        with pytest.raises(InvalidParams, match="open"):
            heunc_truncation(open_series)


def test_heunc_truncation_runs_no_forward_recurrence(monkeypatch):
    # the backward pass alone decides: no forward probe of the coefficients
    monkeypatch.setattr(specfun, "heunc_series_coefficients", None)
    hp = _physical_params(4, 2, 0.5)
    degree, coeffs = heunc_truncation(hp)
    assert degree == 4 and len(coeffs) == 5
    assert np.all(np.isfinite(coeffs))


def test_heunc_polynomial_evaluates_anywhere():
    hp = _physical_params(2, 1, 0.5)
    for z in (-80.0, -3.0, 5.0):
        assert math.isfinite(heunc(hp, z))


def test_heunc_determinism():
    hp = _physical_params(2, 1, 0.5)
    assert heunc(hp, -17.25) == heunc(hp, -17.25)
    vals = {heunc(hp, 0.377) for _ in range(4)}
    assert len(vals) == 1


def test_second_derivative_consistency():
    hp = _physical_params(1, 1, 0.5)
    z, h = -0.4, 1e-4
    fd = (heunc_derivative(hp, z + h) - heunc_derivative(hp, z - h)) / (2 * h)
    assert heunc_second_derivative(hp, z) == pytest.approx(fd, rel=1e-6)


def test_heunc_slope_at_origin_is_residue_condition():
    # the 1/z residue condition on the branch with H(0) = 1 fixes H'(0) = -u/(beta+1):
    # for a polynomial it is the accessory condition
    hp = ONE_PLUS_Z
    u = 0.5 * (hp.alpha + hp.alpha * hp.beta - hp.beta - hp.beta * hp.gamma - hp.gamma
               - 2.0 * hp.eta)
    assert heunc_derivative(hp, 0.0) == -u / (hp.beta + 1.0) == 1.0


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 4), nu=st.integers(1, 3), efrac=st.floats(0.1, 0.9),
       z=st.floats(-30.0, -1.5))
def test_heunc_physical_polynomials_satisfy_equation(n, nu, efrac, z):
    # terminating parameter sets from the closed-form levels, probed
    # outside the unit disk, far from the expansion point
    p = level_channel(SystemParams(efrac * nu, nu), n)
    level = energy_closed_form(n, p)
    hp = heun_params_full(p, level.E, level.lam)
    assert heunc_ode_residual([hp], z, [heunc_truncation(hp)[1]])[0] < 1e-8


def test_heunc_ode_residual_on_an_array_matches_each_z():
    hp = _physical_params(3, 2, 0.7)
    coeffs = [heunc_truncation(hp)[1]]
    z = np.array([-0.7, -0.3, 0.3, 0.6, -12.5])
    each = np.concatenate([heunc_ode_residual([hp], zi, coeffs) for zi in z])
    assert each.shape == (5,)
    assert heunc_ode_residual([hp], z, coeffs).tobytes() == each.tobytes()
    with pytest.raises(InvalidParams, match="away from the singular points"):
        heunc_ode_residual([hp], np.array([0.3, 1.0]), coeffs)


def test_heunc_ode_residual_stacks_maps_bit_for_bit(monkeypatch):
    # maps of several degrees on a leading axis, each with the polynomial
    # given: the values of one call per map, and no truncation
    maps = [_physical_params(n, nu, e) for n, nu, e in ((1, 2, 0.5), (2, 1, 0.5), (5, 2, 0.9))]
    coeffs = [heunc_truncation(hp)[1] for hp in maps]
    z = np.array([-0.7, -0.3, 0.3, 0.6, -12.5])
    each = np.concatenate([heunc_ode_residual([hp], z, [c]) for hp, c in zip(maps, coeffs)])
    monkeypatch.setattr(specfun, "heunc_truncation", None)
    stacked = heunc_ode_residual(maps, z, coeffs)
    assert stacked.shape == (3, 5) and stacked.tobytes() == each.tobytes()
    assert heunc_ode_residual(maps, -12.5, coeffs).tobytes() == each[:, -1].tobytes()
