"""Decoupling-rotation cases and the confluent-Heun parameter maps.

Turning the radial pair (f, g) of model's first-order system by a half
angle A/2 gives a rotated pair (F, G); each angle condition (case 1,
sin A = e/nu; case 2, cos A = E/m_eff) zeroes one coefficient of the
rotated system, and case 0 is the unrotated frame of the `heun` route.
This module resolves those cases (mixing_case), holds the one
confluent-Heun parameter map that serves the three Heun-based solution
routes (it reads only sin A, cos A and the singular point of its case)
and the scaled variables of the hypergeometric treatment (standard_vars).

The wavefunction routes and the verification checks read this layer; an
analytic spectrum never does, as model's quantization steps form each
route's condition inline and import this module only for a step where a
term is not finite.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from .errors import InvalidParams
from .model import SystemParams


class MixingCase(NamedTuple):
    """A resolved decoupling-rotation case.  Turning (f, g) by the half
    angle A/2 into (F, G) gives the rotated system

        (d/dr + nu cos A/r - m_eff sin A) F + (c_plus + s_plus/r) G = 0
        (d/dr - nu cos A/r + m_eff sin A) G - (c_minus + s_minus/r) F = 0

    with c_plus, c_minus = E +- m_eff cos A and s_plus, s_minus =
    e +- nu sin A.  Each angle condition zeroes one of the four (s_minus in
    case 1, c_minus in case 2); case 0 (sin A = 0, cos A = parity) is the
    unrotated system, turned a quarter at parity -1, and zeroes none.  The
    extra regular singular point (R, D, -e/(E + m)) of the equation for F
    is -s_plus/c_plus.
    """

    case_id: str
    sin_a: float
    cos_a: float
    cos_half: float
    sin_half: float
    singular_point: float
    c_plus: float
    c_minus: float
    s_plus: float
    s_minus: float


class StandardVars(NamedTuple):
    """Scaled variables of the hypergeometric treatment.

    lam = sqrt(m^2 - E^2), mu = e*m/lam, eps = e*E/lam, and the origin
    exponent a_frob = sqrt(eps^2 - mu^2 + nu^2), which algebraically
    equals sqrt(nu^2 - e^2).
    """

    lam: float
    mu: float
    eps: float
    a_frob: float


class HeunCParams(namedtuple("HeunCParams", "alpha beta gamma delta eta")):
    """Canonical confluent Heun parameters (alpha, beta, gamma, delta, eta).

    beta must not be a negative integer: the series recurrence (specfun)
    divides by (k+1)(k+beta+1), so beta in {-1, -2, ...} breaks the
    regular branch.
    """

    __slots__ = ()

    def __new__(cls, alpha, beta, gamma, delta, eta):
        if not (math.isfinite(alpha) and math.isfinite(beta) and math.isfinite(gamma)
                and math.isfinite(delta) and math.isfinite(eta)):
            raise InvalidParams("Heun parameters must be finite")
        if beta <= -1 and beta == math.floor(beta):
            raise InvalidParams(f"beta={beta} is a negative integer")
        return super().__new__(cls, alpha, beta, gamma, delta, eta)


#: the error of each rotation case where its singular point -s_plus/c_plus diverges
_POLES = {case_id: f"case-{case_id} singular point diverges at this energy ({where})"
          for case_id, where in (("0", "E + m = 0"), ("1", "E + m_eff cos A = 0"),
                                 ("2", "D = -(e + nu sin A)/(2E) overflows"))}


def mixing_case(case_id: str, params: SystemParams, E: float, lam: float) -> MixingCase:
    """Resolve rotation case 0 (sin A = 0, cos A = parity), 1 (sin A = e/nu)
    or 2 (cos A = E/m_eff, sin A = lam/m) at energy E with decay constant lam.

    Every Heun map is read off the case this returns (_heun_map); only the
    quantization steps (model._route_condition) form a case's terms elsewhere.
    Cases 0 and 1 need subcritical coupling only, case 2 needs 0 < E <= m
    (E may round to m where lam > 0 still resolves the level).  The angle
    conditions fix

        case 0:  c_plus = E + m, s_plus = s_minus = e,  X = -e / (E + m),
        case 1:  s_plus = 2e, s_minus = 0,   R = -2e / (E + m_eff cos A),
        case 2:  c_plus = 2E, c_minus = 0,   D = -(e + nu sin A) / (2E).

    Case 0 turns (f, g) by no angle at parity +1 and by a quarter at parity
    -1, where (f, g) = (G, -F).  No coefficient takes a difference that
    cancels at weak coupling: the case-0 E - m is -lam^2/(E + m), the
    case-1 E - m cos A is m (sin A - lam/m)(sin A + lam/m)/(E/m + cos A),
    and the case-2 half angles take m - E as lam^2/(m + E).  Each is formed
    in units of m, so no mass overflows it.  Where one of those
    denominators vanishes (E + m = 0, E/m + cos A = 0) the case's pole
    raises InvalidParams; where c_plus is 0 the singular point is inf.
    """
    e, nu, m = params.e, params.nu, params.m
    if case_id == "0":
        if E + m == 0.0:
            raise InvalidParams(_POLES[case_id])
        sin_a, cos_a = 0.0, float(params.parity)
        cos_half, sin_half = (1.0, 0.0) if params.parity == 1 else (0.0, 1.0)
        c_plus, c_minus, s_plus, s_minus = E + m, -lam * (lam / (E + m)), e, e
    elif case_id == "1":
        sin_a, cos_a = e / nu, math.sqrt(1.0 - (e / nu) ** 2)
        scale = E / m + cos_a
        if scale == 0.0:
            raise InvalidParams(_POLES[case_id])
        root = params.frobenius_exponent
        # sqrt((nu - root)/(2 nu)) with nu - root = e^2/(nu + root)
        cos_half = math.sqrt((nu + root) / (2.0 * nu))
        sin_half = e / math.sqrt(2.0 * nu * (nu + root))
        far, near = E + m * cos_a, m * (sin_a - lam / m) * (sin_a + lam / m) / scale
        c_plus, c_minus = (far, near) if params.parity == 1 else (near, far)
        s_plus, s_minus = 2.0 * e, 0.0
    elif case_id == "2":
        if not 0.0 < E <= m:
            raise InvalidParams(f"case 2 requires 0 < E <= m (cos A = E/m_eff, and D "
                                f"diverges at E = 0), got E={E}")
        sin_a, cos_a = lam / m, E / params.m_eff
        # sqrt((m + E)/(2m)) and sqrt((m - E)/(2m)) = (lam/m)/(2 sqrt((m + E)/(2m)))
        wide = math.sqrt(0.5 + 0.5 * E / m)
        narrow = 0.5 * sin_a / wide
        cos_half, sin_half = (wide, narrow) if params.parity == 1 else (narrow, wide)
        c_plus, c_minus, s_plus, s_minus = 2.0 * E, 0.0, e + nu * sin_a, e - nu * sin_a
    else:
        raise InvalidParams(f"unknown mixing case {case_id!r}; use 0, 1 or 2")
    point = -s_plus / c_plus if c_plus != 0.0 else math.inf
    return MixingCase(case_id, sin_a, cos_a, cos_half, sin_half, point,
                      c_plus, c_minus, s_plus, s_minus)


def _heun_map(params: SystemParams, E: float, lam: float, case: MixingCase) -> HeunCParams:
    """Confluent-Heun parameters of the rotated equation for F in y = r/X,
    X the singular point of the case (-e/(E + m) for case 0, R for case 1,
    D for case 2), read off the resolved case.

    With a = sqrt(nu^2-e^2) and b = -lam*X, the signs of the normalizable
    branch:

        alpha = 2b,  beta = 2a,  gamma = -2,  delta = 2eEX,
        eta = 1 + m_eff X sin A - 2eEX - nu cos A.

    Raises InvalidParams where X diverges or a parameter is not finite.
    """
    X = case.singular_point
    if not math.isfinite(X):
        raise InvalidParams(_POLES[case.case_id])
    delta = 2.0 * params.e * E * X
    return HeunCParams(2.0 * (-lam * X), 2.0 * params.frobenius_exponent, -2.0, delta,
                       1.0 + params.m_eff * X * case.sin_a - delta - params.nu * case.cos_a)


def heun_params_case1(params: SystemParams, E: float, lam: float) -> HeunCParams:
    """Confluent-Heun parameters of the case-1 equation for F in y = r/R."""
    return _heun_map(params, E, lam, mixing_case("1", params, E, lam))


def heun_params_case2(params: SystemParams, E: float, lam: float) -> HeunCParams:
    """Confluent-Heun parameters of the case-2 equation for F in y = r/D."""
    return _heun_map(params, E, lam, mixing_case("2", params, E, lam))


def heun_params_full(params: SystemParams, E: float, lam: float) -> HeunCParams:
    """Confluent-Heun parameters of the case-0 equation for F in y = -(E+m) r/e."""
    return _heun_map(params, E, lam, mixing_case("0", params, E, lam))


#: the confluent-Heun parameter map of each Heun-based route
HEUN_MAPS = {"mixed1": heun_params_case1, "mixed2": heun_params_case2,
             "heun": heun_params_full}


def standard_vars(params: SystemParams, E: float, lam: float) -> StandardVars:
    """Scaled variables (lam, mu, eps, a_frob) at energy E with decay constant lam."""
    if not lam > 0.0:
        raise InvalidParams(f"mu = e m/lam and eps = e E/lam need lam > 0, got lam={lam}")
    mu = params.e * params.m / lam
    eps = params.e * E / lam
    radicand = eps * eps - mu * mu + params.nu ** 2
    if not radicand >= 0.0:   # cancelled below 0, or inf - inf
        raise InvalidParams(f"a_frob = sqrt(eps^2 - mu^2 + nu^2) has no real value at "
                            f"eps={eps}, mu={mu}: the radicand is {radicand}")
    return StandardVars(lam, mu, eps, math.sqrt(radicand))
