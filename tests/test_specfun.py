"""Unit and property tests for the Kummer / confluent Heun evaluators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from heundirac import (HeunCParams, InvalidParams, KummerParams, NoConvergence,
                       SystemParams, energy_closed_form,
                       heun_params_full, heunc, heunc_derivative,
                       heunc_poly_degree, heunc_second_derivative,
                       heunc_series_coefficients, heunc_truncation, kummer,
                       kummer_derivative)
from heundirac import specfun
from heundirac.model import level_channel
from heundirac.specfun import heunc_ode_residual, horner, kummer_ode_residual


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


def test_kummer_at_zero_is_one():
    assert kummer(KummerParams(3.7, 1.2), 0.0) == 1.0


def test_kummer_degree_one_polynomial():
    # 1F1(-1; 2; 1) = 1 - 1/2
    assert kummer(KummerParams(-1.0, 2.0), 1.0) == pytest.approx(0.5, abs=1e-15)


def test_kummer_reduces_to_exponential():
    assert kummer(KummerParams(1.0, 1.0), 1.0) == pytest.approx(math.e, rel=1e-15)


def test_kummer_derivative_of_exponential_at_zero():
    assert kummer_derivative(KummerParams(1.0, 1.0), 0.0) == 1.0


def test_kummer_derivative_linear_case():
    # d/dx (1 - x/2) = -1/2, independent of x
    assert kummer_derivative(KummerParams(-1.0, 2.0), 0.7) == pytest.approx(-0.5)


def test_kummer_derivative_matches_finite_difference():
    kp = KummerParams(-2.0, 3.0)
    x, h = 1.5, 1e-5
    fd = (kummer(kp, x + h) - kummer(kp, x - h)) / (2 * h)
    assert kummer_derivative(kp, x) == pytest.approx(fd, abs=1e-8)


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
    lhs = kummer_derivative(KummerParams(-n1, g), y)
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


# ----------------------------------------------------------------------
# confluent Heun
# ----------------------------------------------------------------------

def _physical_params(n, nu, e):
    p = SystemParams(e, nu)
    E = energy_closed_form(n, p).E
    return heun_params_full(p, E)


def test_heunc_normalization_at_origin():
    hp = HeunCParams(0.3, 1.4, -2.0, 0.2, -0.7)
    assert heunc(hp, 0.0) == 1.0


def test_heunc_all_zero_parameters_is_constant():
    hp = HeunCParams(0.0, 0.0, 0.0, 0.0, 0.0)
    for z in (-5.0, -0.5, 0.3, 7.0):
        assert heunc(hp, z) == 1.0
        assert heunc_derivative(hp, z) == 0.0


def test_heunc_slope_formula():
    hp = HeunCParams(0.4, 1.1, -2.0, -0.3, 0.9)
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
    assert heunc_poly_degree(HeunCParams(2.0, 1.0, -2.0, -3.0, 0.0), 1e-12) == 1
    assert heunc_poly_degree(HeunCParams(2.0, 1.0, -2.0, -2.5, 0.0), 1e-12) is None


def test_heunc_poly_degree_at_quantized_level():
    hp = _physical_params(3, 2, 0.4)
    assert heunc_poly_degree(hp, 1e-10) == 3


def test_heunc_poly_degree_requires_nonzero_alpha():
    with pytest.raises(InvalidParams):
        heunc_poly_degree(HeunCParams(0.0, 1.0, -2.0, 0.0, 0.0), 1e-12)


def test_heunc_rejects_negative_integer_beta():
    with pytest.raises(InvalidParams):
        HeunCParams(0.3, -1.0, -2.0, 0.1, 0.2)
    with pytest.raises(InvalidParams):
        HeunCParams(0.3, -3.0, -2.0, 0.1, 0.2)


def test_heunc_outside_domain_for_nonterminating_series():
    hp = HeunCParams(0.3, 1.3, -0.7, 0.4, 0.9)  # no degree condition
    with pytest.raises(InvalidParams, match="non-terminating confluent Heun series"):
        heunc(hp, 1.2)
    # inside the disk it evaluates fine
    assert math.isfinite(heunc(hp, 0.6))


def test_heunc_no_convergence_near_disk_edge(monkeypatch):
    monkeypatch.setattr(specfun, "MAX_TERMS", 100)
    hp = HeunCParams(0.3, 1.3, -0.7, 0.4, 0.9)
    with pytest.raises(NoConvergence):
        heunc(hp, 0.9999)


def test_heunc_truncation_collapses_at_quantized_levels():
    hp = _physical_params(2, 1, 0.5)
    trunc = heunc_truncation(hp)
    assert trunc is not None
    degree, coeffs = trunc
    assert degree == 2 and len(coeffs) == 3
    # raw forward coefficients past the degree are roundoff-level
    raw = heunc_series_coefficients(hp, 8)
    assert np.max(np.abs(raw[3:])) < 1e-12 * np.max(np.abs(raw[:3]))


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
    # the 1/z residue condition on the branch with H(0) = 1 fixes H'(0) = -u/(beta+1)
    alpha, beta, gamma, delta, eta = 0.4, 2.2, -2.0, -0.8, 0.15
    u = 0.5 * (alpha + alpha * beta - beta - beta * gamma - gamma - 2.0 * eta)
    hp = HeunCParams(alpha, beta, gamma, delta, eta)
    assert heunc_derivative(hp, 0.0) == pytest.approx(-u / (beta + 1.0), rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(-2, 2), beta=st.floats(0.2, 4.0),
    delta=st.floats(-2, 2), eta=st.floats(-2, 2),
    z=st.floats(-0.85, 0.85).filter(lambda z: abs(z) > 1e-3 and abs(z - 1) > 0.1),
)
def test_heunc_ode_residual_property(alpha, beta, delta, eta, z):
    hp = HeunCParams(alpha, beta, -2.0, delta, eta)
    assert heunc_ode_residual(hp, z) < 1e-8


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 4), nu=st.integers(1, 3), efrac=st.floats(0.1, 0.9),
       z=st.floats(-30.0, -1.5))
def test_heunc_physical_polynomials_satisfy_equation(n, nu, efrac, z):
    # terminating parameter sets from the closed-form levels, probed
    # outside the unit disk where only the polynomial path can operate
    p = level_channel(SystemParams(efrac * nu, nu), n)
    hp = heun_params_full(p, energy_closed_form(n, p).E)
    assert heunc_ode_residual(hp, z) < 1e-8


@pytest.mark.parametrize("terminating", (True, False))
def test_heunc_ode_residual_runs_one_truncation(monkeypatch, terminating):
    if terminating:
        p = SystemParams(0.5, 1)
        hp = heun_params_full(p, energy_closed_form(2, p).E)
    else:
        hp = HeunCParams(0.3, 1.2, -2.0, 0.4, -0.1)
    calls = []
    original = specfun.heunc_truncation

    def counted(params):
        calls.append(params)
        return original(params)

    monkeypatch.setattr(specfun, "heunc_truncation", counted)
    assert heunc_ode_residual(hp, 0.6) < 1e-8
    assert calls == [hp]
