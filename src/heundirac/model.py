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

This module holds the parameter containers, the closed-form spectrum

    E = m / sqrt(1 + e^2 / (n + sqrt(nu^2 - e^2))^2),

and the quantization conditions that every route must share, with the
Brent root-finder that solves them.  The decoupling-rotation cases and the
confluent-Heun parameter maps, which the wavefunction routes and the checks
read, live in `maps`: an analytic spectrum forms each condition inline and
never loads them.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from importlib import import_module
from typing import NamedTuple

from .errors import InvalidParams, NoConvergence

#: analytic solution routes, in report order
ANALYTIC_ROUTES = ("standard", "mixed1", "mixed2", "heun")
#: points of the default radial grid (routes.default_grid, --grid-points)
GRID_POINTS = 2000


class SystemParams(namedtuple("SystemParams", "e nu m parity", defaults=(1.0, 1))):
    """Mass, Coulomb coupling, angular number nu = j + 1/2 and parity.

    Subcritical coupling 0 <= e < nu is required so that the origin
    exponent sqrt(nu^2 - e^2) is real; e = nu exactly (critical coupling)
    is rejected.  e = 0 is admitted for limit checks, but supports no
    bound states.  The mass lies in [1e-300, 1e300]: near 1e305 E + m
    overflows, and near 1e-310 the radial grid does.  `_replace` skips
    these checks: it derives a channel from values already checked.
    """

    __slots__ = ()

    def __new__(cls, e, nu, m=1.0, parity=1):
        if not 1e-300 <= m <= 1e300:
            raise InvalidParams(f"mass must be in [1e-300, 1e300], got {m}")
        if int(nu) != nu or nu < 1:
            raise InvalidParams(f"nu must be a positive integer, got {nu}")
        if not (0 <= e < nu):
            raise InvalidParams(
                f"supercritical coupling: need 0 <= e < nu, got e={e}, nu={nu}"
            )
        if parity not in (1, -1):
            raise InvalidParams(f"parity must be +1 or -1, got {parity}")
        return super().__new__(cls, e, nu, m, parity)

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


class EnergyLevel(NamedTuple):
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
    return params._replace(parity=-1) if n == 0 else params


def level_bracket(params: SystemParams, n: int) -> tuple[float, float]:
    """Energies (lo, hi) enclosing level n and neither closed-form neighbour.

    Each end is the midpoint between level n and its neighbour; below
    n = 0 the lower end is E_0/2, which stays below E_0 at any coupling.
    """
    E = energy_closed_form(n, params).E
    below = energy_closed_form(n - 1, params).E if n >= 1 else 0.0
    above = energy_closed_form(n + 1, params).E
    return 0.5 * (below + E), 0.5 * (E + above)


def quantized_routes(params: SystemParams, n: int) -> tuple[str, ...]:
    """The analytic routes with a quantization condition at level n: all of
    them but mixed1 at the nodeless level of parity -1, which sits on the
    case-1 pole E = m cos A, where R = -2e/(E + m_eff cos A) diverges."""
    if n == 0 and params.parity == -1:
        return tuple(route for route in ANALYTIC_ROUTES if route != "mixed1")
    return ANALYTIC_ROUTES


#: the rotation case of each Heun route's map, as in maps.HEUN_MAPS
_ROUTE_CASES = {"mixed1": "1", "mixed2": "2", "heun": "0"}


def _route_condition(params: SystemParams, n: int, route: str):
    """`route`'s quantization condition at level n as a function of (E, lam)
    alone, built once per solve; InvalidParams on an unknown route.  It is the
    reference's arithmetic (maps.standard_vars' eps - a_frob - n, or delta +
    (n + a) alpha of the route's map in maps.HEUN_MAPS) in the same order, with
    the rotation case's E-free terms bound here and the rest inline, so that a
    step builds no MixingCase; where the reference raises, the step returns the
    reference, which raises its error.  Only such a step imports maps."""
    e, nu, m, m_eff = params.e, params.nu, params.m, params.m_eff
    if route == "standard":
        em, nu2 = e * m, nu ** 2

        def condition(E: float, lam: float) -> float:
            if lam > 0.0:
                mu, eps = em / lam, e * E / lam
                radicand = eps * eps - mu * mu + nu2
                if radicand >= 0.0:
                    return eps - math.sqrt(radicand) - n
            from .maps import standard_vars
            sv = standard_vars(params, E, lam)
            return sv.eps - sv.a_frob - n
        return condition
    if route not in _ROUTE_CASES:
        raise InvalidParams(f"unknown route {route!r}; expected one of {ANALYTIC_ROUTES}")
    case_id, two_e = _ROUTE_CASES[route], 2.0 * e
    n_a = n + 0.5 * (2.0 * params.frobenius_exponent - 2.0 + 2.0)   # beta = 2a, gamma = -2

    def reference(E: float, lam: float) -> float:
        from .maps import HEUN_MAPS
        hp = HEUN_MAPS[route](params, E, lam)
        return hp.delta + n_a * hp.alpha

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
    # cases 0 and 1: c_plus = E + m, E + m cos A or, at parity -1, maps.mixing_case's
    # factored E - m cos A
    if case_id == "0":
        sin_a, cos_a, s_plus, shift, plus = 0.0, float(params.parity), e, m, True
    else:
        sin_a, cos_a = e / nu, math.sqrt(1.0 - (e / nu) ** 2)
        s_plus, shift, plus = two_e, m * cos_a, params.parity == 1
    nu_cos = nu * cos_a

    def condition(E: float, lam: float) -> float:
        try:
            c_plus = (E + shift if plus
                      else m * (sin_a - lam / m) * (sin_a + lam / m) / (E / m + cos_a))
        except ZeroDivisionError:   # E/m + cos A = 0, where mixing_case raises the pole
            return reference(E, lam)
        X = -s_plus / c_plus if c_plus != 0.0 else math.inf
        alpha, delta = 2.0 * (-lam * X), two_e * E * X
        if math.isfinite(alpha + delta + (1.0 + m_eff * X * sin_a - delta - nu_cos)):
            return delta + n_a * alpha
        return reference(E, lam)
    return condition


def quantization_residuals(params: SystemParams, E: float, lam: float,
                           n: int) -> dict[str, float]:
    """Signed residual of the quantization condition of each route that
    quantizes level n (quantized_routes) at (E, lam).

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
    return {route: _route_condition(params, n, route)(E, lam)
            for route in quantized_routes(params, n)}


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


#: the map-layer functions that perfbench/tracer.py reads from this module
_TRACED = ("standard_vars", "mixing_case", "heun_params_case1", "heun_params_case2",
           "heun_params_full")


def __getattr__(name: str):
    """The five _TRACED functions, read from maps (PEP 562) as maps' own
    objects, so that the tracer's wrappers replace them where maps, HEUN_MAPS,
    routes and verify hold them.  Goes once the tracer reads maps itself."""
    if name in _TRACED:
        return getattr(import_module(".maps", __package__), name)
    return object.__getattribute__(sys.modules[__name__], name)  # raises AttributeError
