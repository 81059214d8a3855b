"""Shooting-method cross-check, free of the analytic solution formulas.

Locates bound energies by matching two integrations of the Prufer angle
theta = atan2(g, f) of the radial system,

    theta' = (nu/r) sin 2theta + E + e/r - m_eff cos 2theta,

at a fitting radius r_match: theta_out runs outward from the regular
Frobenius start near the origin, theta_in inward from the decaying
asymptotic angle at r_far.  The functional sin(theta_out - theta_in) is
smooth in E, so Brent's method converges superlinearly on it, and the
angle stays bounded where the amplitudes would grow or decay
exponentially.  The unwrapped mismatch at a root is a multiple of pi that
counts the nodes, which labels the level without the closed-form
spectrum.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.integrate import ode, solve_ivp
from scipy.optimize import brentq

from .errors import InvalidParams, NoConvergence
from .model import EnergyLevel, SystemParams, require_bound_energy
from .routes import RadialGrid, RadialSolution, default_grid

# Magnitude cap for the amplitude integration of integrate_radial.
OVERFLOW_CAP = 1e250

# Brent iteration budget of shoot_energy.
MAX_ITERATIONS = 200

# Default scan window for bracketing, in units of m.
SCAN_E_MIN = 0.2
SCAN_E_MAX = 1.0 - 1e-9
SCAN_POINTS = 200


# Shooting radii in units of 1/lam, lam = sqrt(m^2 - E^2).  The start
# radius is small enough that the truncated Frobenius seed perturbs the
# integrated shape by well under the 1e-5 agreement budget against the
# analytic routes.  Matching at 1/lam keeps the mismatch smooth in E: much
# farther out, theta_out follows the growing mode and jumps by pi within
# ~1e-8 of a root.  The inward angle leg starts at R_FAR_SCALE, which also
# bounds the grids integrate_radial accepts.
R_START_SCALE = 1e-6
R_MATCH_SCALE = 1.0
R_FAR_SCALE = 40.0

# Local error tolerance (rtol) of the dop853 legs and of integrate_radial.
LOCAL_ERROR_TOL = 1e-12


def frobenius_start(params: SystemParams, E: float, r_start: float):
    """Leading-order regular data (f, g, f', g') at r_start.

    The regular solution behaves like r^s with s = sqrt(nu^2 - e^2); the
    amplitude ratio follows from the 1/r terms of the system at order
    r^(s-1):  g/f = -(s + nu)/e.
    """
    if params.e <= 0.0:
        raise InvalidParams("the Frobenius start needs e > 0")
    require_bound_energy(params, E)
    s = params.frobenius_exponent
    kappa_ratio = -(s + params.nu) / params.e
    f0 = r_start ** s
    g0 = kappa_ratio * f0
    df0 = s * f0 / r_start
    dg0 = kappa_ratio * df0
    return f0, g0, df0, dg0


def _mismatch(params: SystemParams, E: float, lam_ref: float,
              rtol: float = LOCAL_ERROR_TOL) -> float:
    """Unwrapped angle mismatch theta_out - theta_in at r_match.

    The radii scale with lam_ref.  theta_out starts from the regular
    Frobenius data at r_start, theta_in from the decaying asymptotic angle
    atan2(lam, E + m_eff) at r_far.  Each leg runs in the direction in
    which its angle is attracted to the wanted solution, so neither needs
    an overflow guard.  Both run in units of 1/m (the system at m = 1,
    energy E/m, radius m r), so the integrator's step-size heuristics see
    the same problem at any mass.
    """
    m = params.m
    unit, E_m, lam_m = replace(params, m=1.0), E / m, lam_ref / m
    x_start = R_START_SCALE / lam_m
    x_match = R_MATCH_SCALE / lam_m
    x_far = R_FAR_SCALE / lam_m
    f0, g0, _, _ = frobenius_start(unit, E_m, x_start)
    nu, e, m_eff = unit.nu, unit.e, unit.m_eff
    lam = unit.decay_constant(E_m)

    def rhs(x, theta):
        t2 = 2.0 * theta[0]
        return [(nu / x) * math.sin(t2) + E_m + e / x - m_eff * math.cos(t2)]

    solver = ode(rhs).set_integrator("dop853", rtol=rtol, atol=1e-14,
                                     nsteps=200_000)

    def leg(theta0, x0):
        solver.set_initial_value([theta0], x0)
        theta = solver.integrate(x_match)
        if not solver.successful():
            raise NoConvergence(f"dop853 failed from r={x0 / m:g} at E={E}")
        return float(theta[0])

    return (leg(math.atan2(g0, f0), x_start)
            - leg(math.atan2(lam, E_m + m_eff), x_far))


def integrate_radial(params: SystemParams, E: float,
                     grid: RadialGrid | None = None) -> RadialSolution:
    """Integrate the radial system outward and record (f, g) on a grid.

    The integration runs from R_START_SCALE/lam to the last grid radius,
    which may not lie past R_FAR_SCALE/lam; the default grid is
    default_grid(lam).  It runs in units of 1/m (the system at
    m = 1, energy E/m, radius m r), so it needs no mass-dependent step
    size or tolerance.  Raises NoConvergence when the solution exceeds
    OVERFLOW_CAP.

    Note on tails: even at an eigenvalue, roundoff seeds the growing mode
    at relative size ~eps, which overtakes the decaying profile beyond
    lam*r ~ 18-23 in double precision.  Shooting is unaffected (it matches
    angles at r_match = 1/lam), but wavefunction comparisons should stay
    inside that window.
    """
    require_bound_energy(params, E)
    lam = params.decay_constant(E)
    r_start = R_START_SCALE / lam
    if grid is None:
        grid = default_grid(lam)
    r = grid.r
    if r[0] < r_start or r[-1] > R_FAR_SCALE / lam:
        raise InvalidParams("grid must lie within [r_start, r_far]")

    # in units of 1/m: energy E/m, radii x = m r
    m = params.m
    unit, E_m, x, x_start = replace(params, m=1.0), E / m, r * m, r_start * m
    f0, g0, _, _ = frobenius_start(unit, E_m, x_start)
    nu, e, m_eff = unit.nu, unit.e, unit.m_eff

    def rhs(x_, y):
        f, g = y
        w = E_m + e / x_
        return np.array((-(nu / x_) * f - (w + m_eff) * g,
                         (nu / x_) * g + (w - m_eff) * f))

    def overflow_event(x_, y):
        return OVERFLOW_CAP - max(abs(y[0]), abs(y[1]))

    overflow_event.terminal = True

    sol = solve_ivp(rhs, (x_start, x[-1]), np.array([f0, g0]),
                    method="DOP853", t_eval=x, rtol=LOCAL_ERROR_TOL, atol=1e-280,
                    events=overflow_event)
    if sol.status == 1:
        raise NoConvergence(f"solution exceeded {OVERFLOW_CAP:g} at E={E}")
    if not sol.success:
        raise NoConvergence(f"dop853 failed at E={E}: {sol.message}")
    level = EnergyLevel(-1, params.nu, params.parity, E, "oracle", lam)
    return RadialSolution(grid, sol.y[0], sol.y[1], level, "oracle", params)


def shoot_energy(params: SystemParams, E_lo: float, E_hi: float) -> EnergyLevel:
    """Refine one bound energy inside a bracketing interval.

    The bracket must contain exactly one sign change of the matched
    functional sin(theta_out - theta_in).  Brent's method refines to
    |dE|/m near 1e-15.  The radial quantum number of the result is read
    off the unwrapped mismatch at the root, n = round(delta/pi) + 1.
    """
    if not (0.0 < E_lo < E_hi < params.m):
        raise InvalidParams(f"need 0 < E_lo < E_hi < m, got ({E_lo}, {E_hi})")
    # scale by the smallest decay constant in the bracket (the upper end),
    # so r_far covers the full extent of every candidate state
    lam_hi = params.decay_constant(E_hi)

    # the mismatch closest to a multiple of pi is the one at the root
    best = {"phi": math.inf, "delta": 0.0}

    def phi(E):
        delta = _mismatch(params, E, lam_hi)
        value = math.sin(delta)
        if abs(value) < best["phi"]:
            best["phi"], best["delta"] = abs(value), delta
        return value

    phi_lo, phi_hi = phi(E_lo), phi(E_hi)
    if phi_lo == 0.0:
        E = E_lo
    elif phi_hi == 0.0:
        E = E_hi
    elif phi_lo * phi_hi > 0.0:
        raise NoConvergence(
            f"matched functional has the same sign at both ends: "
            f"phi({E_lo})={phi_lo:.3e}, phi({E_hi})={phi_hi:.3e}"
        )
    else:
        E, res = brentq(phi, E_lo, E_hi, xtol=1e-15 * params.m, rtol=8.9e-16,
                        maxiter=MAX_ITERATIONS, full_output=True, disp=False)
        if not res.converged:
            raise NoConvergence(
                f"Brent refinement did not converge within {MAX_ITERATIONS} steps"
            )
    n = round(best["delta"] / math.pi) + 1
    return EnergyLevel(n, params.nu, params.parity, float(E), "oracle",
                       params.decay_constant(E))


def scan_brackets(params: SystemParams, e_min_scale: float = SCAN_E_MIN,
                  e_max_scale: float = SCAN_E_MAX, points: int = SCAN_POINTS,
                  scan_tol: float = 1e-9) -> list[tuple[float, float]]:
    """Uniform energy scan for sign changes of the matched functional.

    Each returned interval brackets one eigenvalue and can seed
    shoot_energy.  A looser integration tolerance is enough for sign
    information.
    """
    energies = np.linspace(e_min_scale * params.m, e_max_scale * params.m, points)
    lam_ref = params.decay_constant(energies[len(energies) // 2])
    values = [math.sin(_mismatch(params, float(E), lam_ref, scan_tol)) for E in energies]
    brackets = []
    for i in range(len(energies) - 1):
        if values[i] == 0.0:
            continue
        if values[i] * values[i + 1] < 0.0:
            brackets.append((float(energies[i]), float(energies[i + 1])))
    return brackets
