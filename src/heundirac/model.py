"""Physical parameter layer for the Dirac-Coulomb bound-state problem.

The radial problem, in natural units (hbar = c = 1), is the coupled
first-order system for the two radial amplitudes f(r), g(r):

    (d/dr + nu/r) f + (E + e/r + m_eff) g = 0
    (d/dr - nu/r) g - (E + e/r - m_eff) f = 0

with nu = j + 1/2 a positive integer, e the Coulomb coupling strength and
m_eff = parity * m: the negative-parity channel is the same system with
the mass sign flipped.  In the usual kappa labelling, parity = +1 is the
kappa = +nu channel (radial quantum number n >= 1) and parity = -1 is
kappa = -nu (n >= 0, including the nodeless ground level).

This module holds the parameter containers, the decoupling-rotation
cases (case 0, the unrotated frame of the `heun` route, and the two mixed
rotations), the one confluent-Heun parameter map that serves the three
Heun-based solution routes (it reads only sin A, cos A and the singular
point of its case), the closed-form spectrum

    E = m / sqrt(1 + e^2 / (n + sqrt(nu^2 - e^2))^2),

and the quantization-condition residuals that every route must share.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import NamedTuple

from .errors import InvalidParams, NoConvergence

#: analytic solution routes, in report order
ANALYTIC_ROUTES = ("standard", "mixed1", "mixed2", "heun")
#: points of the default radial grid (routes.default_grid, --grid-points)
GRID_POINTS = 2000


@dataclass(frozen=True)
class SystemParams:
    """Mass, Coulomb coupling, angular number nu = j + 1/2 and parity.

    Subcritical coupling 0 <= e < nu is required so that the origin
    exponent sqrt(nu^2 - e^2) is real; e = nu exactly (critical coupling)
    is rejected.  e = 0 is admitted for limit checks, but supports no
    bound states.  The mass lies in [1e-300, 1e300]: near 1e305 E + m
    overflows, and near 1e-310 the radial grid does.
    """

    e: float
    nu: int
    m: float = 1.0
    parity: int = 1

    def __post_init__(self):
        if not 1e-300 <= self.m <= 1e300:
            raise InvalidParams(f"mass must be in [1e-300, 1e300], got {self.m}")
        if int(self.nu) != self.nu or self.nu < 1:
            raise InvalidParams(f"nu must be a positive integer, got {self.nu}")
        if not (0 <= self.e < self.nu):
            raise InvalidParams(
                f"supercritical coupling: need 0 <= e < nu, got e={self.e}, nu={self.nu}"
            )
        if self.parity not in (1, -1):
            raise InvalidParams(f"parity must be +1 or -1, got {self.parity}")

    @property
    def m_eff(self) -> float:
        """Signed mass realizing the parity channel."""
        return self.parity * self.m

    @property
    def frobenius_exponent(self) -> float:
        """Origin exponent s = sqrt(nu^2 - e^2) of the regular solution."""
        return math.sqrt(self.nu * self.nu - self.e * self.e)

    def decay_constant(self, E: float) -> float:
        """lam = sqrt(m^2 - E^2) from E alone, for the formula-free oracle:
        bound states fall off like exp(-lam r).  Scale-free, so it neither
        overflows nor underflows at any mass; the analytic layer carries
        each level's exact lam instead (EnergyLevel.lam)."""
        return self.m * math.sqrt(1.0 - (E / self.m) ** 2)


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


@dataclass(frozen=True)
class EnergyLevel:
    """One bound level: quantum numbers, energy, provenance route and the
    decay constant lam = sqrt(m^2 - E^2), carried rather than recomputed
    from E, where m - E cancels at weak coupling."""

    n: int
    nu: int
    parity: int
    E: float
    route: str
    lam: float


def require_bound_energy(params: SystemParams, E: float):
    """Raise InvalidParams unless 0 < E < m: the energy of a bound state."""
    if not (0.0 < E < params.m):
        raise InvalidParams(f"bound state requires 0 < E < m, got E={E}")


def _rotation(case_id: str, params: SystemParams, E: float,
              lam: float) -> tuple[float, float, float, float, float]:
    """(sin A, cos A, c_plus, s_plus, X = -s_plus/c_plus) of a rotation case,
    all that a Heun parameter map reads of it (see mixing_case)."""
    e, nu, m = params.e, params.nu, params.m
    if case_id == "0":
        sin_a, cos_a, c_plus, s_plus = 0.0, float(params.parity), E + m, e
    elif case_id == "1":
        sin_a, cos_a = e / nu, math.sqrt(1.0 - (e / nu) ** 2)
        c_plus, s_plus = _case1_c(params.parity, m, E, lam, sin_a, cos_a), 2.0 * e
    elif case_id == "2":
        if not 0.0 < E <= m:
            raise InvalidParams(f"case 2 requires 0 < E <= m (cos A = E/m_eff, and D "
                                f"diverges at E = 0), got E={E}")
        sin_a, cos_a = lam / m, E / params.m_eff
        c_plus, s_plus = 2.0 * E, e + nu * sin_a
    else:
        raise InvalidParams(f"unknown mixing case {case_id!r}; use 0, 1 or 2")
    point = -s_plus / c_plus if c_plus != 0.0 else math.inf
    return sin_a, cos_a, c_plus, s_plus, point


def _case1_c(sign: int, m: float, E: float, lam: float, sin_a: float, cos_a: float) -> float:
    """E + sign m cos A of case 1: c_plus at sign = parity, c_minus at -parity."""
    return (E + m * cos_a if sign == 1
            else m * (sin_a - lam / m) * (sin_a + lam / m) / (E / m + cos_a))


def mixing_case(case_id: str, params: SystemParams, E: float, lam: float) -> MixingCase:
    """Resolve rotation case 0 (sin A = 0, cos A = parity), 1 (sin A = e/nu)
    or 2 (cos A = E/m_eff, sin A = lam/m) at energy E with decay constant lam.

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
    in units of m, so no mass overflows it.
    """
    sin_a, cos_a, c_plus, s_plus, point = _rotation(case_id, params, E, lam)
    e, nu, m = params.e, params.nu, params.m
    if case_id == "0":
        cos_half, sin_half = (1.0, 0.0) if params.parity == 1 else (0.0, 1.0)
        c_minus, s_minus = -lam * (lam / (E + m)), e
    elif case_id == "1":
        root = params.frobenius_exponent
        # sqrt((nu - root)/(2 nu)) with nu - root = e^2/(nu + root)
        cos_half = math.sqrt((nu + root) / (2.0 * nu))
        sin_half = e / math.sqrt(2.0 * nu * (nu + root))
        c_minus, s_minus = _case1_c(-params.parity, m, E, lam, sin_a, cos_a), 0.0
    else:
        # sqrt((m + E)/(2m)) and sqrt((m - E)/(2m)) = (lam/m)/(2 sqrt((m + E)/(2m)))
        wide = math.sqrt(0.5 + 0.5 * E / m)
        narrow = 0.5 * sin_a / wide
        cos_half, sin_half = (wide, narrow) if params.parity == 1 else (narrow, wide)
        c_minus, s_minus = 0.0, e - nu * sin_a
    return MixingCase(case_id, sin_a, cos_a, cos_half, sin_half, point,
                      c_plus, c_minus, s_plus, s_minus)


#: where each rotation case's singular point -s_plus/c_plus diverges
_POLES = {"0": "E + m = 0", "1": "E + m_eff cos A = 0",
          "2": "D = -(e + nu sin A)/(2E) overflows"}


def _map_floats(case_id: str, params: SystemParams, E: float,
                lam: float) -> tuple[float, float, float]:
    """(alpha, delta, eta) of the case's rotated map (_rotated_heun_params);
    raises InvalidParams where the case's singular point diverges or a
    parameter is not finite."""
    sin_a, cos_a, _, _, X = _rotation(case_id, params, E, lam)
    if not math.isfinite(X):
        raise InvalidParams(f"case-{case_id} singular point diverges at this energy "
                            f"({_POLES[case_id]})")
    alpha = 2.0 * (-lam * X)
    delta = 2.0 * params.e * E * X
    eta = 1.0 + params.m_eff * X * sin_a - delta - params.nu * cos_a
    if not (math.isfinite(alpha) and math.isfinite(delta) and math.isfinite(eta)):
        raise InvalidParams("Heun parameters must be finite")
    return alpha, delta, eta


def _rotated_heun_params(params: SystemParams, E: float, lam: float,
                         case_id: str) -> HeunCParams:
    """Confluent-Heun parameters of the rotated equation for F in y = r/X,
    X the singular point of the case (-e/(E + m) for case 0, R for case 1,
    D for case 2).

    With a = sqrt(nu^2-e^2) and b = -lam*X, the signs of the normalizable
    branch:

        alpha = 2b,  beta = 2a,  gamma = -2,  delta = 2eEX,
        eta = 1 + m_eff X sin A - 2eEX - nu cos A.
    """
    alpha, delta, eta = _map_floats(case_id, params, E, lam)
    return HeunCParams(alpha, 2.0 * params.frobenius_exponent, -2.0, delta, eta)


def heun_params_case1(params: SystemParams, E: float, lam: float) -> HeunCParams:
    """Confluent-Heun parameters of the case-1 equation for F in y = r/R."""
    return _rotated_heun_params(params, E, lam, "1")


def heun_params_case2(params: SystemParams, E: float, lam: float) -> HeunCParams:
    """Confluent-Heun parameters of the case-2 equation for F in y = r/D."""
    return _rotated_heun_params(params, E, lam, "2")


def heun_params_full(params: SystemParams, E: float, lam: float) -> HeunCParams:
    """Confluent-Heun parameters of the case-0 equation for F in y = -(E+m) r/e."""
    return _rotated_heun_params(params, E, lam, "0")


#: the confluent-Heun parameter map of each Heun-based route
HEUN_MAPS = {"mixed1": heun_params_case1, "mixed2": heun_params_case2,
             "heun": heun_params_full}


def _require_index(n: int):
    if int(n) != n or n < 0:
        raise InvalidParams(f"n must be a non-negative integer, got {n}")


def _level_decay_constant(n: int, params: SystemParams) -> float:
    """lam = m e / sqrt(N^2 + e^2) of level n; InvalidParams where it underflows to 0."""
    lam = params.m * (params.e / math.hypot(n + params.frobenius_exponent, params.e))
    if params.e > 0.0 and lam == 0.0:
        raise InvalidParams(f"the decay constant m e / sqrt(N^2 + e^2) underflows to 0 "
                            f"at m={params.m}, e={params.e}")
    return lam


def energy_closed_form(n: int, params: SystemParams) -> EnergyLevel:
    """Closed-form bound level: with N = n + sqrt(nu^2 - e^2),

        E = m / sqrt(1 + e^2/N^2),    lam = m e / sqrt(N^2 + e^2),

    both exact (lam never passes through m^2 - E^2).  Raises InvalidParams
    where lam underflows to 0, which only m e below ~1e-323 reaches.
    """
    _require_index(n)
    E = params.m / math.sqrt(1.0 + (params.e / (n + params.frobenius_exponent)) ** 2)
    return EnergyLevel(int(n), params.nu, params.parity, E, "closed",
                       _level_decay_constant(n, params))


def require_level(params: SystemParams, n: int):
    """Raise InvalidParams unless level n exists in this channel.

    n must be a non-negative integer, the coupling nonzero, and the
    nodeless n = 0 level exists only at parity -1.
    """
    _require_index(n)
    if params.e == 0.0:
        raise InvalidParams("zero coupling supports no bound states")
    if n == 0 and params.parity == 1:
        raise InvalidParams(
            "the nodeless n=0 level exists only in the negative-parity "
            "channel (kappa < 0); use parity=-1"
        )


def level_channel(params: SystemParams, n: int) -> SystemParams:
    """The channel holding level n: the nodeless n = 0 level exists only at parity -1."""
    return replace(params, parity=-1) if n == 0 else params


def level_bracket(params: SystemParams, n: int) -> tuple[float, float]:
    """Energies (lo, hi) enclosing level n and neither closed-form neighbour.

    Each end is the midpoint between level n and its neighbour; below
    n = 0 the lower end is E_0/2, which stays below E_0 at any coupling.
    """
    E = energy_closed_form(n, params).E
    below = energy_closed_form(n - 1, params).E if n >= 1 else 0.0
    above = energy_closed_form(n + 1, params).E
    return 0.5 * (below + E), 0.5 * (E + above)


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


def quantized_routes(params: SystemParams, n: int) -> tuple[str, ...]:
    """The analytic routes with a quantization condition at level n: all of
    them but mixed1 at the nodeless level of parity -1, which sits on the
    case-1 pole E = m cos A, where R = -2e/(E + m_eff cos A) diverges."""
    if n == 0 and params.parity == -1:
        return tuple(route for route in ANALYTIC_ROUTES if route != "mixed1")
    return ANALYTIC_ROUTES


#: the rotation case of each Heun route's map, as in HEUN_MAPS
_ROUTE_CASES = {"mixed1": "1", "mixed2": "2", "heun": "0"}


def _route_condition(params: SystemParams, n: int, route: str):
    """`route`'s quantization condition at level n as a function of (E, lam)
    alone, built once per solve; InvalidParams on an unknown route.  It is the
    reference's arithmetic (standard_vars' eps - a_frob - n, or delta + (n + a)
    alpha of the route's map from _map_floats) in the same order, with the
    rotation case resolved and each term free of E bound here; where the
    reference raises, the step returns the reference, which raises its error."""
    e, nu, m, m_eff = params.e, params.nu, params.m, params.m_eff
    if route == "standard":
        em, nu2 = e * m, nu ** 2

        def condition(E: float, lam: float) -> float:
            if lam > 0.0:
                mu, eps = em / lam, e * E / lam
                radicand = eps * eps - mu * mu + nu2
                if radicand >= 0.0:
                    return eps - math.sqrt(radicand) - n
            sv = standard_vars(params, E, lam)
            return sv.eps - sv.a_frob - n
        return condition
    if route not in _ROUTE_CASES:
        raise InvalidParams(f"unknown route {route!r}; expected one of {ANALYTIC_ROUTES}")
    case_id, two_e = _ROUTE_CASES[route], 2.0 * e
    n_a = n + 0.5 * (2.0 * params.frobenius_exponent - 2.0 + 2.0)   # beta = 2a, gamma = -2

    def reference(E: float, lam: float) -> float:
        alpha, delta, _ = _map_floats(case_id, params, E, lam)
        return delta + n_a * alpha

    if case_id == "2":
        def condition(E: float, lam: float) -> float:
            if 0.0 < E <= m:
                sin_a = lam / m
                X = -(e + nu * sin_a) / (2.0 * E)   # c_plus = 2E > 0
                alpha, delta = 2.0 * (-lam * X), two_e * E * X
                eta = 1.0 + m_eff * X * sin_a - delta - nu * (E / m_eff)
                if math.isfinite(alpha + delta + eta):   # so is each term, X too
                    return delta + n_a * alpha
            return reference(E, lam)
        return condition
    # cases 0 and 1: c_plus = E + m, E + m cos A or, at parity -1, _case1_c's
    if case_id == "0":
        sin_a, cos_a, s_plus, shift, plus = 0.0, float(params.parity), e, m, True
    else:
        sin_a, cos_a = e / nu, math.sqrt(1.0 - (e / nu) ** 2)
        s_plus, shift, plus = two_e, m * cos_a, params.parity == 1
    nu_cos = nu * cos_a

    def condition(E: float, lam: float) -> float:
        c_plus = (E + shift if plus
                  else m * (sin_a - lam / m) * (sin_a + lam / m) / (E / m + cos_a))
        X = -s_plus / c_plus if c_plus != 0.0 else math.inf
        alpha, delta = 2.0 * (-lam * X), two_e * E * X
        if math.isfinite(alpha + delta + (1.0 + m_eff * X * sin_a - delta - nu_cos)):
            return delta + n_a * alpha
        return reference(E, lam)
    return condition


def quantization_residuals(params: SystemParams, E: float, lam: float, n: int,
                           routes: tuple[str, ...] = ANALYTIC_ROUTES) -> dict[str, float]:
    """Signed residual of each requested route's quantization condition at
    (E, lam) for level n.

    Only the conditions of the routes named in `routes` are evaluated, so
    one route's residual neither pays for nor fails on another route's
    map; an unknown route name raises InvalidParams.

    standard: eps - a_frob - n.  For the Heun-based routes the residual is
    delta + (n + (beta+gamma+2)/2)*alpha of the respective parameter map,
    which is exactly the coefficient whose vanishing terminates the
    series; it is formed without building the map and raises the map's
    errors.  Each is the step that solve_quantization evaluates (_route_condition).
    All four vanish simultaneously at the closed-form energy; note the
    Heun-route residuals carry route-dependent (negative) prefactors
    relative to the standard one, so their signs differ while their roots
    coincide.
    """
    return {route: _route_condition(params, n, route)(E, lam) for route in routes}


#: the error of a NaN function value at x in _brentq, scipy's text
_NAN_VALUE = "The function value at x={} is NaN; solver cannot continue."


def _brentq(f, a: float, b: float, xtol: float, rtol: float, maxiter: int,
            fa: float | None = None, fb: float | None = None) -> tuple[float, int, bool]:
    """Brent's method (Brent 1973, ch. 4), the C routine brentq.c step for step:
    (root, iterations, converged) to the bit, each value taken as a float as the C
    code does.  fa and fb, where given, are f(a) and f(b), which are then not
    evaluated again.  An exact zero at an end is the root after 0 iterations (C leaves
    the count unset).  Ends of one sign raise InvalidParams, a NaN value NoConvergence.
    Each step forms |sbis| and |spre| once and writes min and |s| > delta (delta > 0)
    as comparisons with their result, NaN included (min(p, q) is q if q < p else p)."""
    xpre, xcur = float(a), float(b)
    fpre = float(f(xpre) if fa is None else fa)
    if fpre != fpre:
        raise NoConvergence(_NAN_VALUE.format(xpre))
    fcur = float(f(xcur) if fb is None else fb)
    if fcur != fcur:
        raise NoConvergence(_NAN_VALUE.format(xcur))
    if fpre == 0.0 or fcur == 0.0:
        return (xpre if fpre == 0.0 else xcur), 0, True
    if (fpre < 0.0) == (fcur < 0.0):   # by sign, as a product of two tiny values underflows
        raise InvalidParams("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for i in range(1, maxiter + 1):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk, spre, scur = xpre, fpre, xcur - xpre, xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        abis = abs(sbis)
        if fcur == 0.0 or abis < delta:
            return xcur, i, True
        aspre = abs(spre)
        short = aspre > delta and abs(fcur) < abs(fpre)
        if short:   # try an interpolated step, else bisect
            if xpre == xblk:   # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:   # inverse quadratic; a zero divisor (inf or NaN in C) bisects
                dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            bound = 3 * abis - delta
            short = 2 * abs(stry) < (bound if bound < aspre else aspre)
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if scur > delta or -scur > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
        if fcur != fcur:
            raise NoConvergence(_NAN_VALUE.format(xcur))
    return xcur, maxiter, False


def solve_quantization(params: SystemParams, n: int, route: str) -> EnergyLevel:
    """Root-find one route's quantization condition by Brent's method in t = lam/m.

    Each trial point is E = m sqrt((1 - t)(1 + t)), lam = m t, so lam is
    never formed from E.  Every condition is a fixed-sign multiple of
    e E - (n + a) lam, a = sqrt(nu^2 - e^2): 1/lam for standard, negative for
    the three Heun maps.  So sign * condition (sign -1 for the Heun maps)
    changes sign once in 0 < t < hi and is positive as t -> 0.  A probe at
    t = min(e/nu, hi/2), then steps that quarter t (or its gap to hi) until
    the sign changes, bracket the root without evaluating either end; Brent's
    method (_brentq) closes the bracket to full double precision, in about 7
    evaluations per solve.  The route's condition is built once per solve
    (_route_condition), so each evaluation is one call that does only this
    route's arithmetic: no parameter map is built.  Non-convergence of
    either stage, or a NaN condition, raises NoConvergence.

    hi is 1 but for mixed1 at parity -1, whose multiple carries R = -2e/(E +
    m_eff cos A): its pole, the n = 0 energy m cos A at t = e/nu, is hi, and
    every n >= 1 level lies below it.  The n = 0 level itself has no mixed1
    condition (quantized_routes) and raises InvalidParams, as does a level
    whose decay constant underflows to 0.
    """
    # level_channel puts n = 0 at parity -1: only the index and coupling rules apply
    require_level(level_channel(params, n), n)
    if route in ANALYTIC_ROUTES and route not in quantized_routes(params, n):
        raise InvalidParams(
            f"{route} cannot solve n=0 at parity -1: the level sits on the case-1 "
            "pole E = m cos A, where R = -2e/(E + m_eff cos A) diverges"
        )
    _level_decay_constant(n, params)
    step = _route_condition(params, n, route)
    m = params.m
    sign = 1.0 if route == "standard" else -1.0
    hi = params.e / params.nu if route == "mixed1" and params.parity == -1 else 1.0

    def condition(t: float) -> float:   # at E = m sqrt((1 - t)(1 + t)), lam = m t
        return sign * step(m * math.sqrt((1.0 - t) * (1.0 + t)), m * t)

    # every level's t = e/sqrt(N^2 + e^2) is at most e/nu, so the first probe
    # is within a few quarterings of the root at any coupling; a NaN moves
    # neither end and walks t out of (0, hi).  Brent opens on the ends' values.
    lo, up, t = 0.0, hi, min(params.e / params.nu, 0.5 * hi)
    f_lo = f_up = 0.0
    while (lo == 0.0 or up == hi) and 0.0 < t < hi:
        value = condition(t)
        if value >= 0.0:
            lo, f_lo = t, value
        if value <= 0.0:   # both at an exact zero, which is the root
            up, f_up = t, value
        t = t / 4.0 if lo == 0.0 else hi - (hi - t) / 4.0
    if lo == 0.0 or up == hi:
        raise NoConvergence(f"no sign change of the {route} condition in 0 < lam/m < {hi}")
    t = lo
    if lo != up:
        try:
            t, steps, converged = _brentq(condition, lo, up, 1e-16, 8.9e-16, 100,
                                          f_lo, f_up)
        except NoConvergence as exc:   # Brent stops on a NaN value
            raise NoConvergence(f"the {route} condition in {lo} < lam/m < {up}: {exc}") from None
        if not converged:
            raise NoConvergence(f"Brent refinement of the {route} condition did not "
                                f"converge in {steps} steps")
    return EnergyLevel(int(n), params.nu, params.parity, m * math.sqrt((1.0 - t) * (1.0 + t)),
                       route, m * t)
