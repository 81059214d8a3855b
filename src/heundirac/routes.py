"""Explicit bound-state wavefunctions by four analytic routes.

Every route produces the same physical pair (f, g) on a radial grid, up
to normalization:

* standard   -- both components from terminating Kummer series in
                y = 2*lam*r (the classic hypergeometric treatment);
* mixed1     -- rotation case 1: G from a Kummer polynomial, F from a
                confluent-Heun polynomial in y = r/R;
* mixed2     -- rotation case 2: G from a Kummer polynomial with shifted
                denominator parameter, F from a confluent-Heun polynomial
                in y = r/D;
* heun       -- rotation case 0 (no turn at parity +1, a quarter turn at
                parity -1): F from a confluent-Heun polynomial in
                x = -(E+m) r/e, G recovered from the first-order system.

The three Heun routes work in the rotated frame (F, G) of maps.MixingCase,
resolved once per solve, and read their Heun map off it.  Its two
equations give one relation each, valid in every case: g_from_f reads G
off the F equation and f_from_g reads F off the G equation.

Every component is the shared envelope (2*lam*r)^a e^{-lam*r},
a = sqrt(nu^2-e^2), times a polynomial in k*r, with k = 2*lam (Kummer) or
1/X, X the case's singular point R, D or -e/(E+m) (Heun).  So the relative
scale of the mixed routes' two pieces is
the ratio of their leading terms r^(a+n) e^{-lam*r} as r -> inf, read off
one of those relations in closed form; the closure of those relations over
the whole grid is what the operator tests check.
No value at a radius depends on the rest of the grid.  (The ratio at the
origin is as exact in theory, but it reads the constant coefficient,
which the backward Heun recurrence leaves least accurate: by ~1e-16/e^2
at parity +1.)

Conventions.  The Heun-route variables y and x are negative for bound
states (the extra singular point sits at negative radius); the envelope
is taken in 2*lam*r > 0, so no branch of y^a is chosen.
Each solver builds the EnergyLevel it is given, on the grid it is given.  It
raises InvalidParams for a level of another channel (nu, parity) than params
and for the nodeless n = 0 level at parity +1 (it exists only at kappa < 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import InvalidParams
from .maps import MixingCase, _heun_map, mixing_case, standard_vars
from .model import ANALYTIC_ROUTES, GRID_POINTS, EnergyLevel, SystemParams, require_level
from .specfun import (HeunCParams, KummerParams, heunc_truncation, horner,
                      kummer_series_coefficients)

# Default radial grid: geometric spacing resolves both the r^s origin
# behavior and the exponential tail (GRID_POINTS points, from model).
GRID_RMIN_SCALE = 0.01
GRID_RMAX_SCALE = 40.0
_LAM_R_MAX = 745.0   # exp(-745) is the smallest double above 0

# Relative floor added to |f|+|g| when scaling residuals, so the empty
# far tail does not dominate the measure.
RESIDUAL_FLOOR = 1e-8


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing, positive, finite radii."""

    r: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        object.__setattr__(self, "r", r)
        if r.ndim != 1 or len(r) < 2:
            raise InvalidParams("grid needs at least 2 points")
        if not np.all(np.isfinite(r)):
            raise InvalidParams("grid radii must be finite")
        if r[0] <= 0 or np.any(np.diff(r) <= 0):
            raise InvalidParams("grid radii must be positive and strictly increasing")

    def __len__(self):
        return len(self.r)


def _stencil(r: np.ndarray):
    """(half, weights, wsum) of the central first-derivative stencil on the
    increasing radii r: 2*half+1 Lagrange nodes per interior point (half = 3
    from 9 points on, else 2), the weight of each off-center node keyed by its
    offset, and their sum (the center weight is -wsum).

    Each row is formed in units of 2**s, s the frexp exponent of its center
    node, so its products stay in range wherever its own nodes allow, and each
    weight is scaled back before it is summed.  Raises InvalidParams where a
    weight overflows (r near 1e-308, far-apart nodes).
    """
    n = len(r)
    half = 3 if n >= 9 else 2
    width = 2 * half + 1
    s = np.frexp(r[half:n - half])[1]
    weights, wsum = {}, np.zeros(n - 2 * half)
    try:   # an overflow, or the inf/inf or x/0 it makes, voids the weights
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            x = [np.ldexp(r[j:n - width + 1 + j], -s) for j in range(width)]
            for j in range(width):
                if j == half:
                    continue
                num, den = np.ones_like(wsum), np.ones_like(wsum)
                for k in range(width):
                    if k != j and k != half:
                        num *= x[half] - x[k]
                    if k != j:
                        den *= x[j] - x[k]
                weights[j] = np.ldexp(num / den, -s)
                wsum += weights[j]
    except FloatingPointError:
        raise InvalidParams(f"the derivative stencil overflows on the {n}-point "
                            f"grid from r_min={r[0]} to r_max={r[-1]}") from None
    return half, weights, wsum


class _Frame(NamedTuple):
    """A rotation case's amplitudes (F, G) of a level on the radii r, with
    dF/dr and dG/dr in closed form, in units of m (so g_from_f and f_from_g
    read m df and m dg), its MixingCase and the coefficients of the Heun
    polynomial that F is built from (None at the case-1 nodeless level, where
    F has none)."""

    r: np.ndarray
    f: np.ndarray
    df: np.ndarray
    g: np.ndarray
    dg: np.ndarray
    case: MixingCase
    heun: np.ndarray | None


@dataclass(frozen=True)
class RadialSolution:
    """A wavefunction pair on a grid, with its energy E and provenance.  An
    analytic route gives df and dg, the closed-form df/dr and dg/dr in units of
    m (so they stay in range at any mass), and a rotated-frame route keeps the
    _Frame it was rotated from; the oracle's table has neither."""

    grid: RadialGrid
    f: np.ndarray
    g: np.ndarray
    E: float
    route: str
    params: SystemParams
    df: np.ndarray | None = None
    dg: np.ndarray | None = None
    _frame: _Frame | None = field(default=None, repr=False, compare=False)


def default_grid(lam: float, points: int = GRID_POINTS,
                 r_min: float | None = None, r_max: float | None = None) -> RadialGrid:
    """Geometric grid of `points` radii from r_min (default 0.01/lam) to
    r_max (default 40/lam), lam the decay constant of the level."""
    if points < 2:
        raise InvalidParams(f"grid needs at least 2 points, got {points}")
    if not 0 < lam < math.inf:
        raise InvalidParams(f"need a positive finite decay constant lam, got {lam}")
    r_min = GRID_RMIN_SCALE / lam if r_min is None else r_min
    r_max = GRID_RMAX_SCALE / lam if r_max is None else r_max
    if not (0 < r_min < r_max < math.inf):
        raise InvalidParams(f"need 0 < r_min < r_max, got ({r_min}, {r_max})")
    if lam * r_max > _LAM_R_MAX:
        raise InvalidParams(f"need r_max <= {_LAM_R_MAX:g}/lambda = {_LAM_R_MAX / lam}, "
                            f"where exp(-lambda r) underflows; got {r_max}")
    return RadialGrid(np.geomspace(r_min, r_max, points))


# ----------------------------------------------------------------------
# polynomial coefficients and level setup
# ----------------------------------------------------------------------

def _heun_polynomial(hp: HeunCParams, n: int) -> np.ndarray:
    """Coefficients of the terminating Heun series, verified to degree n."""
    degree, coeffs = heunc_truncation(hp)
    if degree != n:
        raise InvalidParams(f"Heun series terminates at degree {degree}, not {n}; "
                            "the energy is off the quantized level")
    return coeffs


def _kummer_polynomial(n_index: int, denom: float) -> np.ndarray:
    """Coefficients of the terminating 1F1(-n_index; denom; x); none at n_index = -1."""
    return kummer_series_coefficients(KummerParams(-float(n_index), denom), n_index + 1)


def _require_channel_level(params: SystemParams, level: EnergyLevel):
    """require_level, and InvalidParams unless level is of params' channel."""
    require_level(params, level.n)
    if (level.nu, level.parity) != (params.nu, params.parity):
        raise InvalidParams(f"the level of nu={level.nu}, parity={level.parity} is not in "
                            f"the channel nu={params.nu}, parity={params.parity}")


def _envelope(lam: float, a: float, r: np.ndarray) -> np.ndarray:
    """(2 lam r)^a e^{-lam r}, the envelope every route shares."""
    y = 2.0 * lam * r
    return y ** a * np.exp(-0.5 * y)


def _enveloped(pref: np.ndarray, coeffs: np.ndarray, k: float, lam: float, a: float,
               r: np.ndarray, unit: float):
    """P = pref p(k r) and dP/dr in units of `unit`, with pref a multiple of
    _envelope(lam, a, r) and p the polynomial with coefficients `coeffs`; the
    slope reuses p's values.  In units of m the slope stays in range at any
    mass, but where a/(m r) overflows (m r_min near 2.2e-308 or below, where
    the residual's terms overflow and it raises InvalidParams) it is NaN.
    Raises InvalidParams where k r or a/r overflows on the grid (r positive
    and increasing)."""
    if not math.isfinite(abs(k) * float(r[-1])):
        raise InvalidParams(f"the polynomial variable k r overflows: k={k}, r_max={r[-1]}")
    if not math.isfinite(a / float(r[0])):
        raise InvalidParams(f"the envelope's slope a/r overflows at r_min={r[0]}")
    z = k * r
    p = horner(coeffs, z)
    with np.errstate(over="ignore", invalid="ignore"):
        slope = pref * (((a / r - lam) / unit) * p + (k / unit) * horner(coeffs, z, 1))
    if not math.isfinite(a / float(r[0]) / unit):
        slope[~np.isfinite(slope)] = math.nan
    return pref * p, slope


# ----------------------------------------------------------------------
# standard route
# ----------------------------------------------------------------------

def solve_standard(params: SystemParams, level: EnergyLevel,
                   grid: RadialGrid) -> RadialSolution:
    """Both components from terminating Kummer series.

    In y = 2*lam*r, the two auxiliary amplitudes are

        F1 = C1 y^A e^{-y/2} 1F1(-n;   2A+1; y)
        F2 = C2 y^A e^{-y/2} 1F1(-n+1; 2A+1; y),     A = sqrt(nu^2-e^2),

    coupled back to (f, g) through square-root mass-energy prefactors.
    The amplitude ratio follows from the first-order system,
    C2/C1 = -(nu_signed + mu_signed)/(A + eps), which degenerates to
    C2 = 0 exactly at the nodeless level.
    """
    _require_channel_level(params, level)
    n, E = level.n, level.E
    sv = standard_vars(params, E, level.lam)
    lam, A, eps = sv.lam, sv.a_frob, sv.eps
    mu_s = params.parity * sv.mu
    r = grid.r

    gamma_k = 2.0 * A + 1.0
    c2 = -(params.nu + mu_s) / (A + eps)
    pref = _envelope(lam, A, r)
    m = params.m
    comp1, dcomp1 = _enveloped(pref, _kummer_polynomial(n, gamma_k), 2.0 * lam, lam, A, r, m)
    # 0 at n = 0
    comp2, dcomp2 = _enveloped(c2 * pref, _kummer_polynomial(n - 1, gamma_k), 2.0 * lam, lam,
                               A, r, m)

    # sqrt(m + E) and sqrt(m - E) = lam/sqrt(m + E)
    wide = math.sqrt(params.m + E)
    p, q = (wide, lam / wide) if params.parity == 1 else (lam / wide, -wide)
    f = p * (comp1 + comp2)
    g = q * (comp1 - comp2)
    return RadialSolution(grid, f, g, E, "standard", params,
                          p * (dcomp1 + dcomp2), q * (dcomp1 - dcomp2))


# ----------------------------------------------------------------------
# rotated-frame routes: heun (case 0), mixed1, mixed2
# ----------------------------------------------------------------------

def _solve_rotated(parts, route: str, params: SystemParams, level: EnergyLevel,
                   grid: RadialGrid) -> RadialSolution:
    """Rotate a case's (F, G) back to (f, g) by the half angle A/2."""
    _require_channel_level(params, level)
    frame = parts(params, level, grid.r)
    c, s = frame.case.cos_half, frame.case.sin_half
    with np.errstate(invalid="ignore"):   # 0 * inf where case 0's dG/dr overflows
        df, dg = c * frame.df + s * frame.dg, c * frame.dg - s * frame.df
    return RadialSolution(grid, c * frame.f + s * frame.g, c * frame.g - s * frame.f,
                          level.E, route, params, df, dg, frame)


def g_from_f(case: MixingCase, params: SystemParams, r: np.ndarray,
             f_part: np.ndarray, df_part: np.ndarray) -> np.ndarray:
    """G from F through the rotated F equation of any case.

    G = -(dF/dr + (nu cos A / r) F - m_eff sin A F) / (c_plus + s_plus/r).
    """
    num = df_part + (params.nu * case.cos_a / r) * f_part - params.m_eff * case.sin_a * f_part
    return -num / (case.c_plus + case.s_plus / r)


def f_from_g(case: MixingCase, params: SystemParams, r: np.ndarray,
             g_part: np.ndarray, dg_part: np.ndarray) -> np.ndarray:
    """F from G through the rotated G equation of any case.

    F = (dG/dr - (nu cos A / r) G + m_eff sin A G) / (c_minus + s_minus/r).
    The angle condition sets one of c_minus (case 2) and s_minus (case 1)
    to 0, and the other vanishes at the n = 0 energy (in case 1 at parity
    +1 only), where this direction of the map is unusable.
    """
    if abs(case.c_minus) < 1e-13 * params.m and abs(case.s_minus) < 1e-13 * max(params.e, 1.0):
        raise InvalidParams(f"E - m_eff cos A + (e - nu sin A)/r = 0: the case-{case.case_id} "
                            "G-to-F map degenerates at the nodeless energy")
    num = dg_part - (params.nu * case.cos_a / r) * g_part + params.m_eff * case.sin_a * g_part
    return num / (case.c_minus + case.s_minus / r)


def _case0_parts(params: SystemParams, level: EnergyLevel, r: np.ndarray) -> _Frame:
    """Case-0 frame of level, G by g_from_f from dF/dr in absolute units.

    With N = r F' + nu cos A F - m_eff sin A r F, G = -N/(c_plus r + s_plus),
    so dG/dr = -(N' + c_plus G)/(c_plus r + s_plus), whose r F'' (in N') has
    no r^-2 factor: with F = pref p(z), z = k r and u = a - lam r,
    r F'' = pref ((u^2 - a)/r p + 2 u k p' + k z p'').
    Raises InvalidParams where G overflows (m near 1e300, high n); where only
    r F'' does, dG/dr is NaN or infinite, and the residual says so."""
    E, lam, a, m = level.E, level.lam, params.frobenius_exponent, params.m
    case = mixing_case("0", params, E, lam)
    heun = _heun_polynomial(_heun_map(params, E, lam, case), level.n)
    pref = _envelope(lam, a, r)
    k = 1.0 / case.singular_point
    f_part, df = _enveloped(pref, heun, k, lam, a, r, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        g_part = g_from_f(case, params, r, f_part, df)
        z = k * r
        u = a - lam * r
        r_d2f = pref * ((u * u - a) / r * horner(heun, z) + 2.0 * k * u * horner(heun, z, 1)
                        + k * z * horner(heun, z, 2))
        msa = params.m_eff * case.sin_a
        dn = (1.0 + params.nu * case.cos_a) * df + r_d2f - msa * (f_part + r * df)
        dg = -(dn + case.c_plus * g_part) / (case.c_plus * r + case.s_plus)
    if not np.isfinite(g_part).all():
        raise InvalidParams(f"the case-0 G from dF/dr overflows at m={m}, n={level.n}")
    return _Frame(r, f_part, df / m, g_part, dg / m, case, heun)


def solve_heun_full(params: SystemParams, level: EnergyLevel,
                    grid: RadialGrid) -> RadialSolution:
    """Rotation case 0: F from a Heun polynomial in -(E+m) r/e, G by g_from_f."""
    return _solve_rotated(_case0_parts, "heun", params, level, grid)


def _case1_parts(params: SystemParams, level: EnergyLevel, r: np.ndarray) -> _Frame:
    """Case-1 frame of level."""
    n, E, lam, a = level.n, level.E, level.lam, params.frobenius_exponent
    case = mixing_case("1", params, E, lam)

    pref = _envelope(lam, a, r)
    kummer = _kummer_polynomial(n, 2.0 * a)
    g_part, dg = _enveloped(pref, kummer, 2.0 * lam, lam, a, r, params.m)

    if n >= 1:
        R = case.singular_point
        heun = _heun_polynomial(_heun_map(params, E, lam, case), n)
        # as r -> inf, G = g_from_f(F) tends to F (lam + m_eff sin A)/c_plus with
        # c_plus = -s_plus/R: match the leading terms r^(a+n) e^(-lam r)
        try:   # R heun[-1] underflows at m near 1e300 and high n
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                t = (-case.s_plus * kummer[-1] * (2.0 * lam * R) ** n
                     / (R * heun[-1] * (lam + params.m_eff * case.sin_a)))
        except FloatingPointError:
            raise InvalidParams(f"the case-1 amplitude ratio of F to G overflows at "
                                f"m={params.m}, n={n}") from None
        f_part, df = _enveloped(t * pref, heun, 1.0 / R, lam, a, r, params.m)
    else:
        # nodeless level: R diverges and the series route for F is empty,
        # but the inverse relation collapses to a pure rescaling of G.
        heun = None
        ratio = (params.m_eff * case.sin_a - lam) / case.c_minus
        f_part, df = ratio * g_part, ratio * dg
    return _Frame(r, f_part, df, g_part, dg, case, heun)


def mixed1_parts(params: SystemParams, level: EnergyLevel, grid: RadialGrid) -> _Frame:
    """Case-1 frame of level on the grid, as solve_mixed_case1 rotates it."""
    _require_channel_level(params, level)
    return _case1_parts(params, level, grid.r)


def solve_mixed_case1(params: SystemParams, level: EnergyLevel,
                      grid: RadialGrid) -> RadialSolution:
    """Rotation case 1: G from Kummer, F from a Heun polynomial in r/R."""
    return _solve_rotated(_case1_parts, "mixed1", params, level, grid)


def _case2_parts(params: SystemParams, level: EnergyLevel, r: np.ndarray) -> _Frame:
    """Case-2 frame of level."""
    n, E, lam, a = level.n, level.E, level.lam, params.frobenius_exponent
    case = mixing_case("2", params, E, lam)
    D = case.singular_point
    heun = _heun_polynomial(_heun_map(params, E, lam, case), n)
    pref = _envelope(lam, a, r)

    # The G equation picks up a parity-dependent 1/r term, shifting the
    # terminating Kummer index by one in the negative-parity channel.
    n_index = n if params.parity == 1 else n - 1
    if n_index >= 0:
        kummer = _kummer_polynomial(n_index, 2.0 * a + 1.0)
        g_part, dg = _enveloped(pref, kummer, 2.0 * lam, lam, a, r, params.m)
        # as r -> inf, F = f_from_g(G) / G tends to (a + n_index - nu cos A)/s_minus at
        # parity +1 and to -2 lam r/s_minus at parity -1 (m_eff sin A = parity lam):
        # match the leading terms r^(a+n) e^(-lam r)
        lead = (a + n_index - params.nu * case.cos_a if params.parity == 1
                else -2.0 * lam * D)
        t = (kummer[-1] * (2.0 * lam * D) ** n_index * lead
             / (heun[-1] * case.s_minus))
    else:
        # nodeless level: the would-be G component is non-normalizable,
        # so its amplitude is exactly zero and F alone carries the state.
        g_part = np.zeros_like(r)
        dg = np.zeros_like(r)
        t = 1.0
    f_part, df = _enveloped(t * pref, heun, 1.0 / D, lam, a, r, params.m)
    return _Frame(r, f_part, df, g_part, dg, case, heun)


def mixed2_parts(params: SystemParams, level: EnergyLevel, grid: RadialGrid) -> _Frame:
    """Case-2 frame of level on the grid, as solve_mixed_case2 rotates it."""
    _require_channel_level(params, level)
    return _case2_parts(params, level, grid.r)


def solve_mixed_case2(params: SystemParams, level: EnergyLevel,
                      grid: RadialGrid) -> RadialSolution:
    """Rotation case 2: G from Kummer (shifted denominator), F from Heun."""
    return _solve_rotated(_case2_parts, "mixed2", params, level, grid)


#: wavefunction solver of each analytic route, keyed in ANALYTIC_ROUTES order
ROUTE_SOLVERS = dict(zip(ANALYTIC_ROUTES, (solve_standard, solve_mixed_case1,
                                           solve_mixed_case2, solve_heun_full)))


# ----------------------------------------------------------------------
# residual, normalization
# ----------------------------------------------------------------------

def _central_derivative(stencil, y: np.ndarray) -> np.ndarray:
    """First derivative of y at the interior points of the _stencil's grid."""
    half, weights, wsum = stencil
    total, term = np.zeros_like(wsum), np.empty_like(wsum)
    for j, w in weights.items():
        total += np.multiply(w, y[j:len(y) - 2 * half + j], out=term)
    total -= np.multiply(wsum, y[half:len(y) - half], out=term)
    return total


def residual(solution: RadialSolution) -> float:
    """Worst scaled residual of the radial system over the grid.

    An analytic solution carries its closed-form derivatives, read at every
    grid point; the oracle's table has none, so they are taken by central
    finite differences on its own grid (one _stencil per call), at its
    interior points.  The terms are taken in units of the peak of |f| + |g|
    and of 1/m (each term of the system is f/length), which makes the
    result dimensionless; each equation's residual is scaled by the larger
    of the sum of its terms' magnitudes and |f| + |g| plus a small relative
    floor.  A zero solution has residual 0.0, one holding a NaN or an
    infinity NaN.  Raises InvalidParams where a term overflows or divides
    by zero (m r_min underflows to 0 or near it), and where a stencil
    weight overflows.
    """
    r = solution.grid.r
    if len(r) < 5:
        raise InvalidParams("residual needs at least 5 grid points")
    peak = np.max(np.abs(solution.f) + np.abs(solution.g))
    if not math.isfinite(peak):   # a NaN or inf in f or g: no residual is defined
        return math.nan
    if peak == 0:
        return 0.0
    try:
        return _scaled_residual(solution, peak)
    except FloatingPointError:
        raise InvalidParams(f"the residual's terms in units of 1/m overflow at "
                            f"m={solution.params.m} on the grid from r_min={r[0]}") from None


@np.errstate(over="raise", invalid="raise", divide="raise")
def _scaled_residual(solution: RadialSolution, peak: float) -> float:
    """residual of a solution of finite, nonzero peak |f| + |g|."""
    params, E, m = solution.params, solution.E, solution.params.m
    f, g = solution.f / peak, solution.g / peak
    if solution.df is None:
        stencil = _stencil(solution.grid.r)
        inner = slice(stencil[0], len(f) - stencil[0])
        df = _central_derivative(stencil, f)
        df /= m
        dg = _central_derivative(stencil, g)
        dg /= m
    else:
        inner = slice(None)
        df, dg = solution.df / peak, solution.dg / peak
    fi, gi, mr = f[inner], g[inner], m * solution.grid.r[inner]
    nu_mr = params.nu / mr
    w = np.divide(params.e, mr, out=mr)
    w += E / m
    # res1 = df + (nu/mr) f + (w + parity) g, res2 = dg - (nu/mr) g - (w - parity) f,
    # each over max(|df| + |(nu/mr) f| + |(w + parity) g|, |f| + |g| + floor)
    floor = np.abs(fi)
    floor += np.abs(gi)
    floor += RESIDUAL_FLOOR
    worst = 0.0
    for d, own, other, sign in ((df, fi, gi, 1.0), (dg, gi, fi, -1.0)):
        t1 = np.multiply(nu_mr, own)
        t2 = np.multiply(np.add(w, sign * params.parity, out=np.empty_like(w)), other)
        if sign < 0:
            np.negative(t1, out=t1)
            np.negative(t2, out=t2)
        res = d + t1
        res += t2
        scale = np.abs(d)
        scale += np.abs(t1, out=t1)
        scale += np.abs(t2, out=t2)
        np.maximum(scale, floor, out=scale)
        # np.maximum, unlike max(), carries a NaN of either maximum
        worst = np.maximum(worst, np.max(np.divide(np.abs(res, out=res), scale, out=res)))
    return float(worst)


def normalize(solution: RadialSolution) -> RadialSolution:
    """Rescale so the trapezoid integral of f^2 + g^2 over the grid is 1.

    Sign convention: f > 0 as r -> 0+ (the first sample of f that is
    clearly nonzero is made positive).
    """
    r = solution.grid.r
    f, g = solution.f, solution.g
    fmax = np.max(np.abs(f))
    # f and g in units of a power of two near their peak: exact, and
    # f^2 + g^2 stays in range at any amplitude
    exp = int(np.frexp(max(fmax, np.max(np.abs(g))))[1])
    fs, gs = np.ldexp(f, -exp), np.ldexp(g, -exp)
    norm_sq = float(np.trapezoid(fs * fs + gs * gs, r))
    if not (norm_sq > 0.0 and math.isfinite(norm_sq)):
        raise InvalidParams(f"norm integral is {norm_sq}; cannot normalize")
    scale = float(np.ldexp(1.0 / math.sqrt(norm_sq), -exp))
    if fmax > 0:
        lead = np.argmax(np.abs(f) > 1e-3 * fmax)
        if f[lead] < 0:
            scale = -scale
    if solution.df is None:
        return replace(solution, f=scale * f, g=scale * g)
    return replace(solution, f=scale * f, g=scale * g, df=scale * solution.df,
                   dg=scale * solution.dg)
