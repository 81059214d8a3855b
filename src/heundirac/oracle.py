"""Shooting-method cross-check, free of the analytic solution formulas.

In t = ln r the radial system is dy/dt = B y, y = (f, g), with the traceless
B = [[-nu, -(E + m_eff) r - e], [(E - m_eff) r + e, nu]].  Each interval gets
the 4th-order Magnus step of two Gauss points, Omega = h/2 (B1 + B2) +
(sqrt 3/12) h^2 [B2, B1], and exp Omega = cosh q I + (sinh q/q) Omega
(q^2 = -det Omega), scaled by exp(-|Re q|); cosh and sinh run only on the
steps with q^2 > 0, cos and sinc only on the others.  B = B0 + r K, so all
that the steps read of the nodes alone (h, the Gauss radii, the commutator
weight and Omega's diagonal) is built once per shoot or scan, and each
energy forms only the off-diagonal of Omega.  All propagators are built at
once and multiplied in log depth; each result is the Richardson value
(16 x_2N - x_N)/15 (Iserles & Norsett 1999, Blanes et al. 2009), and the
shooting functional runs one product for both members.

Shooting matches a leg outward from the Frobenius direction (1, -(s + nu)/e),
the r -> 0 eigenvector of B, with one inward from the decaying direction
(E + m_eff, lam): the cross product of the unit end vectors at s/lam,
sin(theta_out - theta_in) for theta = atan2(g, f), is smooth in E, so Brent's
method converges superlinearly on it.  At the root the unwrapped mismatch
counts the nodes, which labels the level without the closed-form spectrum.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParams, NoConvergence
from .model import EnergyLevel, SystemParams, _brentq, require_bound_energy
from .routes import GRID_RMAX_SCALE, RadialGrid, RadialSolution

# Brent iteration budget of shoot_energy.
MAX_ITERATIONS = 200

# Radii in units of 1/lam, lam = sqrt(m^2 - E^2), of the seed (also of
# integrate_radial) and of the inward start past 2N/lam, N = e E/lam.  The
# turning points (N -/+ sqrt(N^2 - s^2))/lam bound the region where neither
# leg follows a growing mode; their geometric mean s/lam is the match.
R_SEED_SCALE = 1e-12
R_FAR_SCALE = 80.0

# Log-uniform Magnus intervals N per shooting leg, the steps per block of
# _march, and the longest step of integrate_radial.
STEPS = 800
BLOCK = 64
_MAX_STEP = math.log(R_FAR_SCALE) / STEPS


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
    df0 = s * f0 / r_start
    return f0, kappa_ratio * f0, df0, kappa_ratio * df0


# products of 2x2 matrices and of vectors, stacked as (2, 2, ...) and (2, ...)
_MUL, _APPLY = "ij...,jk...->ik...", "ij...,j...->i..."


def _steps(unit: SystemParams, t: np.ndarray):
    """(h, r1 + r2, rd, a): what the Magnus step of each interval of the nodes
    t = ln r (last axis) reads of the nodes alone.  B = B0 + r K, so [B2, B1]
    = (r2 - r1) [K, B0] = (r2 - r1) * [[-2 e m_eff, -2 nu (E + m_eff)],
    [-2 nu (E - m_eff), 2 e m_eff]], rd = (sqrt 3/12) h^2 (r2 - r1) its weight
    and a the diagonal of Omega, free of E."""
    h = np.diff(t)
    mid, half = t[..., :-1] + 0.5 * h, (math.sqrt(3.0) / 6.0) * h
    r1, r2 = np.exp(mid - half), np.exp(mid + half)
    rd = (math.sqrt(3.0) / 12.0) * h * h * (r2 - r1)
    return h, r1 + r2, rd, -unit.nu * h - 2.0 * unit.e * unit.m_eff * rd


def _propagators(unit: SystemParams, E: float, steps):
    """(M, ell): the propagator exp(-ell) exp(Omega) of each interval of
    _steps, stacked as (2, 2, ...), and ell = |Re q|.  A decreasing t runs
    inward: Omega changes sign with h.  cosh and sinh are formed only on the
    hyperbolic steps (q^2 > 0), cos and sinc only on the others."""
    nu, e, m_eff = unit.nu, unit.e, unit.m_eff
    h, rs, rd, a = steps
    b = -0.5 * h * ((E + m_eff) * rs + 2.0 * e) - 2.0 * nu * (E + m_eff) * rd
    c = 0.5 * h * ((E - m_eff) * rs + 2.0 * e) - 2.0 * nu * (E - m_eff) * rd
    q2 = a * a + b * c
    q = np.sqrt(np.abs(q2))
    hyperbolic = q2 > 0.0
    oscillatory = ~hyperbolic
    ell = np.where(hyperbolic, q, 0.0)
    decay = np.expm1(-2.0 * ell, out=np.zeros_like(q), where=hyperbolic)   # exp(-2q) - 1
    cosh = np.cos(q, out=1.0 + 0.5 * decay, where=oscillatory)
    x = math.pi * (q / math.pi)
    x = np.where(x, x, 1e-20)   # np.sinc(q/pi) = sin(x)/x, and sin(1e-20)/1e-20 = 1
    sinh = np.sin(x, out=np.empty_like(q), where=oscillatory)
    np.divide(sinh, x, out=sinh, where=oscillatory)
    np.divide(-0.5 * decay, q, out=sinh, where=hyperbolic)
    return np.array([[cosh + sinh * a, sinh * b], [sinh * c, cosh - sinh * a]]), ell


def _pair(M):
    """One level of _product: M_(2k+1) M_(2k) over the last axis (an odd
    last factor folded into the one before), each rescaled."""
    if M.shape[-1] % 2:
        M = np.concatenate((M[..., :-2], np.einsum(_MUL, M[..., -1:], M[..., -2:-1])), -1)
    M = np.einsum(_MUL, M[..., 1::2], M[..., 0::2])
    return M / np.abs(M).max(axis=(0, 1))


def _product(M):
    """M_(K-1) ... M_0 over the last axis by pairwise products, each rescaled:
    the end column of _march at 1/1.6 of its cost per shooting evaluation."""
    while M.shape[-1] > 1:
        M = _pair(M)
    return M[..., 0]


def _march(M, y0):
    """The vectors M_k ... M_0 y0 after every step k of the last axis, by
    prefix products (Hillis-Steele) within blocks run one after another.  One
    scan over all steps would round each node apart, at eps times the growth
    from the seed: node-to-node noise, where block by block it is smooth."""
    steps, batch = M.shape[-1], M.shape[2:-1]
    pad = [(0, 0)] * (M.ndim - 1) + [(0, -steps % BLOCK)]   # after the end: unread
    Q = np.pad(M, pad).reshape(2, 2, *batch, -1, BLOCK)
    d = 1
    while d < BLOCK:
        Q = np.concatenate((Q[..., :d], np.einsum(_MUL, Q[..., d:], Q[..., :-d])), -1)
        d *= 2
    v = [np.asarray(y0, dtype=float)]
    for b in range(Q.shape[-2] - 1):
        v.append(np.einsum(_APPLY, Q[..., b, -1], v[-1]))
    y = np.einsum(_APPLY, Q, np.stack(v, axis=-1)[..., None])
    return y.reshape(2, *batch, -1)[..., :steps]


def _shooting_legs(params: SystemParams, lam_ref: float):
    """(system at m = 1, steps) of the two legs, in units of 1/m so that they
    see the same problem at any mass: for N = STEPS and 2 STEPS intervals per
    leg, the _steps of log radii from the seed and from the far end to the
    match, one leg per row.  The radii are those of lam_ref, so one shoot or
    scan builds them once and every energy it evaluates reads them."""
    unit, lam_m = params._replace(m=1.0), lam_ref / params.m
    N = unit.e * math.sqrt(1.0 - lam_m * lam_m) / lam_m
    start = np.log(np.array([[R_SEED_SCALE], [R_FAR_SCALE + 2.0 * N]]) / lam_m)
    match = math.log(unit.frobenius_exponent / lam_m)
    return unit, [_steps(unit, start + (match - start) * np.linspace(0.0, 1.0, n + 1))
                  for n in (STEPS, 2 * STEPS)]


def _seeds(unit: SystemParams, E_m: float):
    """The outward and inward seed directions at E/m, as columns."""
    f0, g0, _, _ = frobenius_start(unit, E_m, 1.0)   # the direction (1, -(s + nu)/e)
    return np.array([[f0, E_m + unit.m_eff], [g0, unit.decay_constant(E_m)]])


def _mismatch(E: float, params: SystemParams, legs) -> float:
    """Matched functional sin(theta_out - theta_in) at r_match, Richardson
    extrapolated: the 2N member's steps are paired once, and one product
    runs both members, stacked on a batch axis."""
    unit, (coarse, fine) = legs
    E_m = E / params.m
    M = np.stack((_propagators(unit, E_m, coarse)[0], _pair(_propagators(unit, E_m, fine)[0])), 2)
    f, g = np.einsum(_APPLY, _product(M), _seeds(unit, E_m))
    phi = [(g[0] * f[1] - f[0] * g[1]) / (math.hypot(f[0], g[0]) * math.hypot(f[1], g[1]))
           for f, g in zip(f, g)]
    return (16.0 * phi[1] - phi[0]) / 15.0


def _node_label(params: SystemParams, E: float, legs) -> int:
    """n = round(delta/pi) + 1, delta = theta_out - theta_in unwrapped."""
    unit, (coarse, _) = legs
    E_m = E / params.m
    seeds = _seeds(unit, E_m)
    y = np.concatenate((seeds[..., None], _march(_propagators(unit, E_m, coarse)[0], seeds)), -1)
    theta = np.unwrap(np.arctan2(y[1], y[0]))
    return round((theta[0, -1] - theta[1, -1]) / math.pi) + 1


def integrate_radial(params: SystemParams, E: float, grid: RadialGrid) -> RadialSolution:
    """Integrate the radial system outward and record (f, g) on a grid.

    From the Frobenius seed at R_SEED_SCALE/lam, N steps reach the first
    grid radius and k steps span each grid interval (Richardson pair (N, k),
    (2N, 2k)), in units of 1/m; each node keeps its log scale, and one
    factor puts the largest at 1, so no j overflows (f, g).  The grid may
    not reach past GRID_RMAX_SCALE/lam (up to eps (m/lam)^2, the rounding of
    lam from a double E).  Even at an eigenvalue, roundoff seeds the growing
    mode at relative size ~eps, which overtakes the decaying profile beyond
    lam*r ~ 18-23."""
    require_bound_energy(params, E)
    lam = params.decay_constant(E)
    r, m = grid.r, params.m
    if r[0] < R_SEED_SCALE / lam or r[-1] * lam > GRID_RMAX_SCALE * (1.0 + 1e-15 * (m / lam) ** 2):
        raise InvalidParams("grid must lie within [r_seed, r_max] of the oracle")

    unit, E_m, x_seed = params._replace(m=1.0), E / m, R_SEED_SCALE * m / lam
    f0, g0, _, _ = frobenius_start(unit, E_m, 1.0)   # the direction (1, -(s + nu)/e)
    t = np.log(r * m)
    h = np.diff(t)
    k = math.ceil(h.max() / _MAX_STEP)
    values, top = [], None
    for j in (1, 2):
        sub = t[:-1, None] + h[:, None] * (np.arange(j * k) / (j * k))
        nodes = np.concatenate((np.linspace(math.log(x_seed), t[0], j * STEPS + 1)[:-1],
                                sub.ravel(), t[-1:]))
        M, ell = _propagators(unit, E_m, _steps(unit, nodes))
        at = j * STEPS - 1 + j * k * np.arange(len(t))  # the step ending at each radius
        scale = np.cumsum(ell)[at]
        top = scale.max() if top is None else top   # one factor for both members
        values.append(_march(M, (f0, g0))[:, at] * np.exp(scale - top))
    f, g = (16.0 * values[1] - values[0]) / 15.0
    return RadialSolution(grid, f, g, E, "oracle", params)


def shoot_energy(params: SystemParams, E_lo: float, E_hi: float) -> EnergyLevel:
    """Refine one bound energy inside a bracketing interval.

    The bracket must contain exactly one sign change of the matched
    functional sin(theta_out - theta_in).  Brent's method refines to
    |dE|/m near 1e-15; ends of one sign, a NaN functional and an unconverged
    solve each raise their own NoConvergence.  The radial quantum number of
    the result is read off the unwrapped mismatch at the root.
    """
    if not (0.0 < E_lo < E_hi < params.m):
        raise InvalidParams(f"need 0 < E_lo < E_hi < m, got ({E_lo}, {E_hi})")
    # scale by the smallest decay constant in the bracket (the upper end),
    # so r_far covers the full extent of every candidate state
    legs = _shooting_legs(params, params.decay_constant(E_hi))
    try:   # a root at either end is returned as it is
        E, _, converged = _brentq(lambda E: _mismatch(E, params, legs), E_lo, E_hi,
                                  1e-15 * params.m, 8.9e-16, MAX_ITERATIONS)
    except InvalidParams:
        raise NoConvergence(f"matched functional has the same sign at both ends "
                            f"of ({E_lo}, {E_hi})") from None
    except NoConvergence as exc:   # Brent stops on a NaN value
        raise NoConvergence(f"the matched functional in {E_lo} < E < {E_hi}: {exc}") from None
    if not converged:
        raise NoConvergence(f"Brent refinement did not converge within {MAX_ITERATIONS} steps")
    return EnergyLevel(_node_label(params, E, legs), params.nu, params.parity,
                       E, "oracle", params.decay_constant(E))


def scan_brackets(params: SystemParams, e_min_scale: float = 0.2,
                  e_max_scale: float = 1.0 - 1e-9,
                  points: int = 200) -> list[tuple[float, float]]:
    """Uniform scan of E/m in [e_min_scale, e_max_scale] for sign changes of
    the matched functional: each interval brackets one eigenvalue and can
    seed shoot_energy."""
    energies = np.linspace(e_min_scale * params.m, e_max_scale * params.m, points)
    legs = _shooting_legs(params, params.decay_constant(energies[len(energies) // 2]))
    values = [_mismatch(float(E), params, legs) for E in energies]
    return [(float(lo), float(hi)) for lo, hi, v_lo, v_hi
            in zip(energies, energies[1:], values, values[1:]) if v_lo * v_hi < 0.0]
