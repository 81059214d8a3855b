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
cases, the confluent-Heun parameter maps of the three Heun-based solution
routes, the closed-form spectrum

    E = m / sqrt(1 + e^2 / (n + sqrt(nu^2 - e^2))^2),

and the quantization-condition residuals that every route must share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import InvalidParams
from .specfun import HeunCParams

#: analytic solution routes, in report order
ANALYTIC_ROUTES = ("standard", "mixed1", "mixed2", "heun")

# Reject energies this close to m: the scaled variables mu, eps blow up.
LAMBDA_GUARD = 1e-12


@dataclass(frozen=True)
class SystemParams:
    """Mass, Coulomb coupling, angular number nu = j + 1/2 and parity.

    Subcritical coupling 0 <= e < nu is required so that the origin
    exponent sqrt(nu^2 - e^2) is real; e = nu exactly (critical coupling)
    is rejected.  e = 0 is admitted for limit checks, but supports no
    bound states.
    """

    e: float
    nu: int
    m: float = 1.0
    parity: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.m) and self.m > 0):
            raise InvalidParams(f"mass must be positive, got {self.m}")
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
        """lam = sqrt(m^2 - E^2): bound states fall off like exp(-lam r)."""
        return math.sqrt(self.m ** 2 - E ** 2)


@dataclass(frozen=True)
class MixingCase:
    """A resolved decoupling-rotation case.

    The orthogonal rotation by angle A/2 mixes (f, g) into (F, G).  Of the
    sign choices of the angle condition, cases 1 and 2 drive the mixed
    routes; each carries an additional regular singular point (R and D) of
    the second-order equation for F.
    """

    case_id: str
    sin_a: float
    cos_a: float
    cos_half: float
    sin_half: float
    singular_point: float


@dataclass(frozen=True)
class StandardVars:
    """Scaled variables of the hypergeometric treatment.

    lam = sqrt(m^2 - E^2), mu = e*m/lam, eps = e*E/lam, and the origin
    exponent a_frob = sqrt(eps^2 - mu^2 + nu^2), which algebraically
    equals sqrt(nu^2 - e^2).
    """

    lam: float
    mu: float
    eps: float
    a_frob: float


@dataclass(frozen=True)
class EnergyLevel:
    """One bound level: quantum numbers, energy and provenance route."""

    n: int
    nu: int
    parity: int
    E: float
    route: str


def require_bound_energy(params: SystemParams, E: float, guard: float = LAMBDA_GUARD):
    """Raise InvalidParams unless 0 < E < m, and E stays `guard` (relative)
    below m, where the scaled variables mu, eps blow up."""
    if not (0.0 < E < params.m):
        raise InvalidParams(f"bound state requires 0 < E < m, got E={E}")
    if E >= params.m * (1.0 - guard):
        raise InvalidParams(
            f"E={E} is within {guard} of m: sqrt(m^2-E^2) underflows"
        )


def mixing_case(case_id: str, params: SystemParams, E: float) -> MixingCase:
    """Resolve rotation case 1 (sin A = e/nu) or 2 (cos A = E/m_eff) at energy E.

    Case 1 needs subcritical coupling only, case 2 needs 0 < |E| < m.  Each
    carries its singular point:

        R = -2e / (E + m_eff cos A),      D = -(e + nu sin A) / (2E).
    """
    e, nu, m_eff = params.e, params.nu, params.m_eff
    if case_id == "1":
        root = params.frobenius_exponent
        cos_a = math.sqrt(1.0 - (e / nu) ** 2)
        denom = E + m_eff * cos_a
        return MixingCase("1", e / nu, cos_a, math.sqrt((nu + root) / (2.0 * nu)),
                          math.sqrt((nu - root) / (2.0 * nu)),
                          -2.0 * e / denom if denom != 0.0 else math.inf)
    if case_id == "2":
        if not abs(E) < params.m:
            raise InvalidParams(f"case 2 requires |E| < m, got E={E}")
        if E == 0.0:
            raise InvalidParams("case 2 singular point diverges at E = 0")
        sin_a = math.sqrt(1.0 - (E / params.m) ** 2)
        return MixingCase("2", sin_a, E / m_eff, math.sqrt((m_eff + E) / (2.0 * m_eff)),
                          math.sqrt((m_eff - E) / (2.0 * m_eff)),
                          -(e + nu * sin_a) / (2.0 * E))
    raise InvalidParams(f"unknown mixing case {case_id!r}; use 1 or 2")


def singular_point_D_consistency(params: SystemParams, E: float) -> tuple[float, float]:
    """The case-2 singular point from both printed forms.

    D_a = -(e + nu sin A)/(2 m_eff cos A) and D_b = -(e + nu sin A)/(2E)
    coincide because the case-2 angle condition sets m_eff cos A = E.
    """
    if E == 0.0:
        raise InvalidParams("both forms of D diverge at E = 0")
    case = mixing_case("2", params, E)
    num = -(params.e + params.nu * case.sin_a)
    d_a = num / (2.0 * params.m_eff * case.cos_a)
    d_b = num / (2.0 * E)
    return d_a, d_b


def _rotated_heun_params(params: SystemParams, E: float, case_id: str) -> HeunCParams:
    """Confluent-Heun parameters of the rotated equation for F in y = r/X,
    X the singular point of the case (R for case 1, D for case 2).

    With a = sqrt(nu^2-e^2) and b = -sqrt(m^2-E^2)*X, the signs of the
    normalizable branch:

        alpha = 2b,  beta = 2a,  gamma = -2,  delta = 2eEX,
        eta = 1 + m_eff X sin A - 2eEX - nu cos A.
    """
    require_bound_energy(params, E)
    case = mixing_case(case_id, params, E)
    X = case.singular_point
    if not math.isfinite(X):
        raise InvalidParams(
            "case-1 singular point diverges at this energy (E + m_eff cos A = 0)"
        )
    b = -params.decay_constant(E) * X
    delta = 2.0 * params.e * E * X
    eta = 1.0 + params.m_eff * X * case.sin_a - delta - params.nu * case.cos_a
    return HeunCParams(2.0 * b, 2.0 * params.frobenius_exponent, -2.0, delta, eta)


def heun_params_case1(params: SystemParams, E: float) -> HeunCParams:
    """Confluent-Heun parameters of the case-1 equation for F in y = r/R."""
    return _rotated_heun_params(params, E, "1")


def heun_params_case2(params: SystemParams, E: float) -> HeunCParams:
    """Confluent-Heun parameters of the case-2 equation for F in y = r/D."""
    return _rotated_heun_params(params, E, "2")


def heun_params_full(params: SystemParams, E: float) -> HeunCParams:
    """Parameters of the single-function route in x = -(E+m) r / e.

    alpha = 2e sqrt((m-E)/(m+E)), beta = 2 sqrt(nu^2-e^2), gamma = -2,
    delta = -2Ee^2/(E+m), eta = 1 - nu_s + 2Ee^2/(E+m), where nu_s is the
    parity-signed angular number (the negative-parity channel is obtained
    by nu -> -nu together with swapping the roles of f and g).
    """
    require_bound_energy(params, E)
    lam = params.decay_constant(E)
    alpha = 2.0 * lam * params.e / (E + params.m)
    beta = 2.0 * params.frobenius_exponent
    nu_s = params.parity * params.nu
    d = 2.0 * E * params.e ** 2 / (E + params.m)
    return HeunCParams(alpha, beta, -2.0, -d, 1.0 - nu_s + d)


def _require_index(n: int):
    if int(n) != n or n < 0:
        raise InvalidParams(f"n must be a non-negative integer, got {n}")


def energy_closed_form(n: int, params: SystemParams) -> EnergyLevel:
    """Closed-form bound energy E = m / sqrt(1 + e^2/(n + sqrt(nu^2-e^2))^2)."""
    _require_index(n)
    N = n + params.frobenius_exponent
    E = params.m / math.sqrt(1.0 + (params.e / N) ** 2)
    return EnergyLevel(int(n), params.nu, params.parity, E, "closed")


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
    n = 0 the lower end is 0.2 m.
    """
    E = energy_closed_form(n, params).E
    below = energy_closed_form(n - 1, params).E if n >= 1 else 0.2 * params.m
    above = energy_closed_form(n + 1, params).E
    return 0.5 * (below + E), 0.5 * (E + above)


def standard_vars(params: SystemParams, E: float) -> StandardVars:
    """Scaled variables (lam, mu, eps, a_frob) at energy E."""
    require_bound_energy(params, E)
    lam = params.decay_constant(E)
    mu = params.e * params.m / lam
    eps = params.e * E / lam
    a_frob = math.sqrt(eps * eps - mu * mu + params.nu ** 2)
    return StandardVars(lam, mu, eps, a_frob)


def quantization_residuals(params: SystemParams, E: float, n: int,
                           routes: tuple[str, ...] = ANALYTIC_ROUTES) -> dict[str, float]:
    """Signed residual of each requested route's quantization condition at (E, n).

    Only the parameter maps of the routes named in `routes` are built, so
    one route's residual neither pays for nor fails on another route's
    map; an unknown route name raises InvalidParams.

    standard: eps - a_frob - n.  For the Heun-based routes the residual is
    delta + (n + (beta+gamma+2)/2)*alpha of the respective parameter map,
    which is exactly the coefficient whose vanishing terminates the
    series.  All four vanish simultaneously at the closed-form energy;
    note the Heun-route residuals carry route-dependent (negative)
    prefactors relative to the standard one, so their signs differ while
    their roots coincide.
    """
    require_bound_energy(params, E)
    residuals = {}
    for route in routes:
        if route == "standard":
            sv = standard_vars(params, E)
            residuals[route] = sv.eps - sv.a_frob - n
            continue
        if route == "mixed1":
            hp = heun_params_case1(params, E)
        elif route == "mixed2":
            hp = heun_params_case2(params, E)
        elif route == "heun":
            hp = heun_params_full(params, E)
        else:
            raise InvalidParams(f"unknown route {route!r}; expected one of {ANALYTIC_ROUTES}")
        residuals[route] = hp.delta + (n + 0.5 * (hp.beta + hp.gamma + 2.0)) * hp.alpha
    return residuals


def solve_quantization(params: SystemParams, n: int, route: str) -> EnergyLevel:
    """Root-find one route's quantization condition in E by bisection.

    Brackets on (0.01 m, m(1 - 1e-9)); eps(E) is strictly increasing
    there, so each condition changes sign exactly once.  Bisects down to
    a bracket of 1e-14 m.  Each step evaluates only this route's
    condition: the other routes' parameter maps are never built.

    The mixed1 condition carries R = -2e/(E + m_eff cos A), whose pole at
    parity -1 is the n = 0 energy m cos A: it is bisected times
    E + m_eff cos A, which cancels the pole and is positive at parity +1.
    The n = 0 level at parity -1, on the pole itself, raises InvalidParams.
    """
    # level_channel puts n = 0 at parity -1: only the index and coupling rules apply
    require_level(level_channel(params, n), n)
    m = params.m
    shift = None
    if route == "mixed1":
        if n == 0 and params.parity == -1:
            raise InvalidParams(
                "mixed1 cannot solve n=0 at parity -1: the level sits on the case-1 "
                "pole E = m cos A, where R = -2e/(E + m_eff cos A) diverges"
            )
        shift = params.m_eff * mixing_case("1", params, m).cos_a

    def residual(E: float) -> float:
        value = quantization_residuals(params, E, n, (route,))[route]
        return value if shift is None else value * (E + shift)

    lo, hi = 0.01 * m, m * (1.0 - 1e-9)
    f_lo, f_hi = residual(lo), residual(hi)
    if f_lo == 0.0:
        return EnergyLevel(int(n), params.nu, params.parity, lo, route)
    if f_hi == 0.0:
        return EnergyLevel(int(n), params.nu, params.parity, hi, route)
    if f_lo * f_hi > 0.0:
        raise InvalidParams(
            f"quantization condition for route {route!r} has no root in "
            f"({lo}, {hi}) at n={n}"
        )
    while hi - lo > 1e-14 * m:
        mid = 0.5 * (lo + hi)
        f_mid = residual(mid)
        if f_mid == 0.0:
            lo = hi = mid
            break
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    E = 0.5 * (lo + hi)
    return EnergyLevel(int(n), params.nu, params.parity, E, route)
