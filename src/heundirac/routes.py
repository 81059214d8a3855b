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
* heun       -- single-function route: f from a confluent-Heun polynomial
                in x = -(E+m) r/e, g recovered from the first-order
                system.

The mixed routes fix the relative scale of their two pieces by enforcing
the first-order relation between F and G at one calibration radius; the
closure of those relations over the whole grid is what the operator tests
check.

Conventions.  The Heun-route variables y and x are negative for bound
states (the extra singular point sits at negative radius), so radial
prefactors use |y|^a: the real Frobenius branch on the negative axis.
The nodeless n = 0 level exists only in the negative-parity channel
(kappa < 0); requesting it at parity = +1 raises InvalidParams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import InvalidParams, NoConvergence
from .model import (ANALYTIC_ROUTES, EnergyLevel, SystemParams, energy_closed_form,
                    mixing_case, heun_params_case1, heun_params_case2,
                    heun_params_full, require_level, standard_vars)
from .specfun import (HeunCParams, KummerParams, heunc_truncation, horner,
                      kummer_series_coefficients)

# Default radial grid: geometric spacing resolves both the r^s origin
# behavior and the exponential tail.
GRID_POINTS = 2000
GRID_RMIN_SCALE = 0.01
GRID_RMAX_SCALE = 40.0

# Relative floor added to |f|+|g| when scaling residuals, so the empty
# far tail does not dominate the measure.
RESIDUAL_FLOOR = 1e-8


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing positive radii."""

    r: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        object.__setattr__(self, "r", r)
        if r.ndim != 1 or len(r) < 2:
            raise InvalidParams("grid needs at least 2 points")
        if r[0] <= 0 or np.any(np.diff(r) <= 0):
            raise InvalidParams("grid radii must be positive and strictly increasing")

    def __len__(self):
        return len(self.r)

    @cached_property
    def _stencil(self):
        """(half, weights, wsum) of the central first-derivative stencil,
        built once per grid: 2*half+1 Lagrange nodes per interior point
        (half = 3 from 9 points on, else 2), the weight of each off-center
        node keyed by its offset, and their sum (the center weight is -wsum).
        """
        r = self.r
        n = len(r)
        half = 3 if n >= 9 else 2
        width = 2 * half + 1
        centers = r[half:n - half]
        nodes = [r[j:n - width + 1 + j] for j in range(width)]
        weights = {}
        wsum = np.zeros_like(centers)
        for j in range(width):
            if j == half:
                continue
            num, den = np.ones_like(centers), np.ones_like(centers)
            for k in range(width):
                if k != j and k != half:
                    num *= centers - nodes[k]
                if k != j:
                    den *= nodes[j] - nodes[k]
            weights[j] = num / den
            wsum += weights[j]
        return half, weights, wsum


@dataclass(frozen=True)
class RadialSolution:
    """A wavefunction pair on a grid, with provenance metadata."""

    grid: RadialGrid
    f: np.ndarray
    g: np.ndarray
    level: EnergyLevel
    route: str
    params: SystemParams


@dataclass(frozen=True)
class CoefficientRatio:
    """The relative amplitude of the two standard-route components,
    computed from each of the two first-order equations."""

    from_first_equation: float
    from_second_equation: float


def default_grid(params: SystemParams, E: float, points: int = GRID_POINTS,
                 r_min: float | None = None, r_max: float | None = None) -> RadialGrid:
    """Geometric grid of `points` radii from r_min (default 0.01/lam) to
    r_max (default 40/lam)."""
    if points < 2:
        raise InvalidParams(f"grid needs at least 2 points, got {points}")
    lam = params.decay_constant(E)
    r_min = GRID_RMIN_SCALE / lam if r_min is None else r_min
    r_max = GRID_RMAX_SCALE / lam if r_max is None else r_max
    if not (0 < r_min < r_max < math.inf):
        raise InvalidParams(f"need 0 < r_min < r_max, got ({r_min}, {r_max})")
    return RadialGrid(np.geomspace(r_min, r_max, points))


# ----------------------------------------------------------------------
# polynomial coefficients and level setup
# ----------------------------------------------------------------------

def _heun_polynomial(hp: HeunCParams, n: int) -> np.ndarray:
    """Coefficients of the terminating Heun series, verified to degree n."""
    trunc = heunc_truncation(hp)
    if trunc is None or trunc[0] != n:
        got = "no termination" if trunc is None else f"degree {trunc[0]}"
        raise InvalidParams(
            f"Heun series does not terminate at degree {n} ({got}); "
            "the energy is off the quantized level"
        )
    return trunc[1]


def _kummer_polynomial(n_index: int, denom: float) -> np.ndarray:
    """Coefficients of the terminating 1F1(-n_index; denom; x)."""
    return kummer_series_coefficients(KummerParams(-float(n_index), denom), n_index + 1)


def _level_energy(params: SystemParams, n: int, energy=None) -> float:
    """Energy of level n (the closed form unless given); raises unless n exists."""
    require_level(params, n)
    if energy is not None:
        return float(energy)
    return energy_closed_form(n, params).E


def _finish(params, n, E, route, grid, f, g) -> RadialSolution:
    level = EnergyLevel(int(n), params.nu, params.parity, E, route)
    return RadialSolution(grid, f, g, level, route, params)


# ----------------------------------------------------------------------
# standard route
# ----------------------------------------------------------------------

def solve_standard(params: SystemParams, n: int,
                   grid: RadialGrid | None = None) -> RadialSolution:
    """Both components from terminating Kummer series.

    In y = 2*lam*r, the two auxiliary amplitudes are

        F1 = C1 y^A e^{-y/2} 1F1(-n;   2A+1; y)
        F2 = C2 y^A e^{-y/2} 1F1(-n+1; 2A+1; y),     A = sqrt(nu^2-e^2),

    coupled back to (f, g) through square-root mass-energy prefactors.
    The amplitude ratio follows from the first-order system,
    C2/C1 = -(nu_signed + mu_signed)/(A + eps), which degenerates to
    C2 = 0 exactly at the nodeless level.
    """
    E = _level_energy(params, n)
    sv = standard_vars(params, E)
    lam, A, eps = sv.lam, sv.a_frob, sv.eps
    mu_s = params.parity * sv.mu
    if grid is None:
        grid = default_grid(params, E)
    r = grid.r
    y = 2.0 * lam * r

    gamma_k = 2.0 * A + 1.0
    c1 = 1.0
    c2 = -c1 * (params.nu + mu_s) / (A + eps)
    k1 = _kummer_polynomial(n, gamma_k)
    pref = y ** A * np.exp(-0.5 * y)
    comp1 = c1 * pref * horner(k1, y)
    if n >= 1:
        k2 = _kummer_polynomial(n - 1, gamma_k)
        comp2 = c2 * pref * horner(k2, y)
    else:
        comp2 = np.zeros_like(y)

    if params.parity == 1:
        p, q = math.sqrt(params.m + E), math.sqrt(params.m - E)
    else:
        p, q = math.sqrt(params.m - E), -math.sqrt(params.m + E)
    f = p * (comp1 + comp2)
    g = q * (comp1 - comp2)
    return _finish(params, n, E, "standard", grid, f, g)


# ----------------------------------------------------------------------
# mixed rotation routes
# ----------------------------------------------------------------------

def _kummer_part(n_index: int, denom: float, lam: float, a: float, r: np.ndarray):
    """G = x^a e^{-x/2} 1F1(-n_index; denom; x) with x = 2*lam*r, plus dG/dr."""
    x = 2.0 * lam * r
    kc = _kummer_polynomial(n_index, denom)
    kv = horner(kc, x)
    dkv = horner(kc, x, 1)
    pref = x ** a * np.exp(-0.5 * x)
    val = pref * kv
    dval = 2.0 * lam * pref * ((a / x - 0.5) * kv + dkv)
    return val, dval


def _heun_part(hp: HeunCParams, n: int, singular_point: float, r: np.ndarray):
    """F = |y|^a e^{b y} H(y) with y = r/singular_point, a = beta/2 and
    b = alpha/2 of the rotated map, plus dF/dr."""
    coeffs = _heun_polynomial(hp, n)
    a, b = 0.5 * hp.beta, 0.5 * hp.alpha
    y = r / singular_point
    hv = horner(coeffs, y)
    dhv = horner(coeffs, y, 1)
    pref = np.abs(y) ** a * np.exp(b * y)
    val = pref * hv
    dval = (pref * ((a / y + b) * hv + dhv)) / singular_point
    return val, dval


def _rotation_frame(params: SystemParams, n: int, grid: RadialGrid | None,
                    energy, case_id: str):
    """Shared setup of the rotation routes: (E, case, lam, a, r)."""
    E = _level_energy(params, n, energy)
    case = mixing_case(case_id, params, E)
    lam = params.decay_constant(E)
    if grid is None:
        grid = default_grid(params, E)
    return E, case, lam, params.frobenius_exponent, grid.r


def _solve_rotated(parts, route: str, params: SystemParams, n: int,
                   grid: RadialGrid | None) -> RadialSolution:
    """Rotate a case's calibrated (F, G) back to (f, g) by the half angle A/2."""
    E = _level_energy(params, n)
    if grid is None:
        grid = default_grid(params, E)
    _, f_part, _, g_part, _, case = parts(params, n, grid, E)
    f = case.cos_half * f_part + case.sin_half * g_part
    g = -case.sin_half * f_part + case.cos_half * g_part
    return _finish(params, n, E, route, grid, f, g)


def _calibrate(target: np.ndarray, implied: np.ndarray, scale_hint: float):
    """Scale factor making `implied` match `target`, from one grid point.

    Starts at the median index and walks outward when both sides are too
    small to fix the ratio.
    """
    n = len(target)
    floor = 1e-12 * scale_hint
    mid = n // 2
    for k in range(n):
        for idx in (mid + k, mid - k) if k else (mid,):
            if 0 <= idx < n and abs(target[idx]) > floor and abs(implied[idx]) > floor:
                return target[idx] / implied[idx]
    raise NoConvergence(
        "first-order relation vanished at every candidate calibration radius"
    )


def case1_g_from_f(params: SystemParams, E: float, r: np.ndarray,
                   f_part: np.ndarray, df_part: np.ndarray) -> np.ndarray:
    """Map the case-1 F amplitude to G through the first-order relation.

    G = (dF/dr + (nu cos A / r) F - m_eff sin A F) / (-2e/r - E - m_eff cos A).
    """
    case = mixing_case("1", params, E)
    num = df_part + (params.nu * case.cos_a / r) * f_part \
        - params.m_eff * case.sin_a * f_part
    den = -2.0 * params.e / r - E - params.m_eff * case.cos_a
    return num / den


def case1_f_from_g(params: SystemParams, E: float, r: np.ndarray,
                   g_part: np.ndarray, dg_part: np.ndarray) -> np.ndarray:
    """Map the case-1 G amplitude back to F (constant prefactor).

    F = (dG/dr - (nu cos A / r) G + m_eff sin A G) / (E - m_eff cos A).
    The denominator vanishes identically at the nodeless level of the
    channel, where this direction of the map is unusable.
    """
    case = mixing_case("1", params, E)
    den = E - params.m_eff * case.cos_a
    if abs(den) < 1e-13 * params.m:
        raise InvalidParams(
            "E = m_eff cos A: the G-to-F map degenerates at the nodeless level"
        )
    num = dg_part - (params.nu * case.cos_a / r) * g_part \
        + params.m_eff * case.sin_a * g_part
    return num / den


def mixed1_parts(params: SystemParams, n: int, grid: RadialGrid | None = None,
                 energy: float | None = None):
    """Calibrated case-1 amplitudes: (r, F, dF/dr, G, dG/dr, case)."""
    E, case, lam, a, r = _rotation_frame(params, n, grid, energy, "1")

    g_part, dg_part = _kummer_part(n, 2.0 * a, lam, a, r)

    if n >= 1:
        hp = heun_params_case1(params, E)
        f_part, df_part = _heun_part(hp, n, case.singular_point, r)
        implied = case1_g_from_f(params, E, r, f_part, df_part)
        t = _calibrate(g_part, implied, float(np.max(np.abs(g_part))))
        f_part, df_part = t * f_part, t * df_part
    else:
        # nodeless level: R diverges and the series route for F is empty,
        # but the inverse relation collapses to a pure rescaling of G.
        den = E - params.m_eff * case.cos_a
        ratio = (params.m_eff * case.sin_a - lam) / den
        f_part, df_part = ratio * g_part, ratio * dg_part
    return r, f_part, df_part, g_part, dg_part, case


def solve_mixed_case1(params: SystemParams, n: int,
                      grid: RadialGrid | None = None) -> RadialSolution:
    """Rotation case 1: G from Kummer, F from a Heun polynomial in r/R."""
    return _solve_rotated(mixed1_parts, "mixed1", params, n, grid)


def case2_f_from_g(params: SystemParams, E: float, r: np.ndarray,
                   g_part: np.ndarray, dg_part: np.ndarray) -> np.ndarray:
    """Map the case-2 G amplitude to F through the first-order relation.

    F = r (dG/dr - (nu cos A / r) G + m_eff sin A G) / (e - nu sin A).
    The denominator vanishes exactly at the nodeless level.
    """
    case = mixing_case("2", params, E)
    den = params.e - params.nu * case.sin_a
    if abs(den) < 1e-13 * max(params.e, 1.0):
        raise InvalidParams(
            "e = nu sin A: the case-2 G-to-F map degenerates at the nodeless level"
        )
    num = dg_part - (params.nu * case.cos_a / r) * g_part \
        + params.m_eff * case.sin_a * g_part
    return r * num / den


def mixed2_parts(params: SystemParams, n: int, grid: RadialGrid | None = None,
                 energy: float | None = None):
    """Calibrated case-2 amplitudes: (r, F, dF/dr, G, dG/dr, case)."""
    E, case, lam, a, r = _rotation_frame(params, n, grid, energy, "2")

    hp = heun_params_case2(params, E)
    f_part, df_part = _heun_part(hp, n, case.singular_point, r)

    # The G equation picks up a parity-dependent 1/r term, shifting the
    # terminating Kummer index by one in the negative-parity channel.
    n_index = n if params.parity == 1 else n - 1
    if n_index >= 0:
        g_part, dg_part = _kummer_part(n_index, 2.0 * a + 1.0, lam, a, r)
        implied = case2_f_from_g(params, E, r, g_part, dg_part)
        t = _calibrate(implied, f_part, float(np.max(np.abs(implied))))
        f_part, df_part = t * f_part, t * df_part
    else:
        # nodeless level: the would-be G component is non-normalizable,
        # so its amplitude is exactly zero and F alone carries the state.
        g_part = np.zeros_like(r)
        dg_part = np.zeros_like(r)
    return r, f_part, df_part, g_part, dg_part, case


def solve_mixed_case2(params: SystemParams, n: int,
                      grid: RadialGrid | None = None) -> RadialSolution:
    """Rotation case 2: G from Kummer (shifted denominator), F from Heun."""
    return _solve_rotated(mixed2_parts, "mixed2", params, n, grid)


# ----------------------------------------------------------------------
# single-function Heun route
# ----------------------------------------------------------------------

def solve_heun_full(params: SystemParams, n: int,
                    grid: RadialGrid | None = None) -> RadialSolution:
    """Single-function route: f from one Heun polynomial, g recovered.

    Works in x = -(E+m) r / e (negative for bound states) with
    f = |x|^A e^{Cx} H(x), C = e sqrt((m-E)/(m+E)), so Cx = -lam r.  The
    companion component follows from the first equation of the system,
    whose denominator E + e/r + m is strictly positive.  The
    negative-parity channel runs the same construction with nu -> -nu and
    the roles of the two components swapped.
    """
    E = _level_energy(params, n)
    if grid is None:
        grid = default_grid(params, E)
    r = grid.r
    lam = params.decay_constant(E)
    A = params.frobenius_exponent
    nu_s = params.parity * params.nu
    m = params.m

    hp = heun_params_full(params, E)
    C = 0.5 * hp.alpha
    coeffs = _heun_polynomial(hp, n)
    x = -(E + m) * r / params.e
    hv = horner(coeffs, x)
    dhv = horner(coeffs, x, 1)
    pref = np.abs(x) ** A * np.exp(C * x)
    ft = pref * hv
    dft = (-(E + m) / params.e) * pref * ((A / x + C) * hv + dhv)
    gt = -(dft + (nu_s / r) * ft) / (E + params.e / r + m)

    if params.parity == 1:
        f, g = ft, gt
    else:
        f, g = gt, -ft
    return _finish(params, n, E, "heun", grid, f, g)


#: wavefunction solver of each analytic route, keyed in ANALYTIC_ROUTES order
ROUTE_SOLVERS = dict(zip(ANALYTIC_ROUTES, (solve_standard, solve_mixed_case1,
                                           solve_mixed_case2, solve_heun_full)))


# ----------------------------------------------------------------------
# coefficient ratio, residual, normalization
# ----------------------------------------------------------------------

def coefficient_ratio(params: SystemParams, n: int) -> CoefficientRatio:
    """The standard-route amplitude ratio C1/C2 from both first-order equations.

    First equation:  (nu_s - mu_s) / n; second: -(A + eps)/(nu_s + mu_s),
    evaluated at the closed-form level.  Both forms coincide through the
    identity nu^2 - mu^2 = A^2 - eps^2.  The nodeless level is rejected:
    there the first form is 0/0.
    """
    if n < 1:
        raise InvalidParams(
            "C1/C2 is 0/0 at the nodeless level; the construction sets C2 = 0 there"
        )
    E = energy_closed_form(n, params).E
    sv = standard_vars(params, E)
    mu_s = params.parity * sv.mu
    nu_s = float(params.nu)
    first = (nu_s - mu_s) / n
    second = -(sv.a_frob + sv.eps) / (nu_s + mu_s)
    return CoefficientRatio(first, second)


def _central_derivative(grid: RadialGrid, y: np.ndarray) -> np.ndarray:
    """First derivative of y at the grid's interior points, by its stencil."""
    half, weights, wsum = grid._stencil
    total = np.zeros_like(wsum)
    for j, w in weights.items():
        total += w * y[j:len(y) - 2 * half + j]
    total -= wsum * y[half:len(y) - half]
    return total


def residual(solution: RadialSolution) -> float:
    """Worst scaled residual of the radial system over interior grid points.

    Derivatives are taken by central finite differences on the solution's
    own grid; each equation residual is scaled by the local magnitude
    |f| + |g| plus a small relative floor.
    """
    r = solution.grid.r
    if len(r) < 5:
        raise InvalidParams("residual needs at least 5 grid points")
    half = solution.grid._stencil[0]
    f, g = solution.f, solution.g
    params, E = solution.params, solution.level.E
    df, dg = (_central_derivative(solution.grid, y) for y in (f, g))
    ri, fi, gi = (y[half:len(r) - half] for y in (r, f, g))
    m_eff = params.m_eff
    res1 = df + (params.nu / ri) * fi + (E + params.e / ri + m_eff) * gi
    res2 = dg - (params.nu / ri) * gi - (E + params.e / ri - m_eff) * fi
    scale = np.abs(fi) + np.abs(gi) + RESIDUAL_FLOOR * np.max(np.abs(f) + np.abs(g))
    if not np.any(scale > 0):
        return 0.0
    return float(max(np.max(np.abs(res1) / scale), np.max(np.abs(res2) / scale)))


def normalize(solution: RadialSolution) -> RadialSolution:
    """Rescale so the trapezoid integral of f^2 + g^2 over the grid is 1.

    Sign convention: f > 0 as r -> 0+ (the first sample of f that is
    clearly nonzero is made positive).
    """
    r = solution.grid.r
    f, g = solution.f, solution.g
    norm_sq = float(np.trapezoid(f * f + g * g, r))
    if not (norm_sq > 0.0 and math.isfinite(norm_sq)):
        raise InvalidParams(f"norm integral is {norm_sq}; cannot normalize")
    scale = 1.0 / math.sqrt(norm_sq)
    fmax = np.max(np.abs(f))
    if fmax > 0:
        lead = np.argmax(np.abs(f) > 1e-3 * fmax)
        if f[lead] < 0:
            scale = -scale
    return replace(solution, f=scale * f, g=scale * g)


def count_nodes(solution: RadialSolution, component: str = "f",
                rel_floor: float = 1e-9) -> int:
    """Interior zeros of a component, counted as sign changes.

    Samples below rel_floor of the component's maximum are ignored so the
    empty exponential tail contributes no spurious crossings.
    """
    y = solution.f if component == "f" else solution.g
    ymax = np.max(np.abs(y))
    if ymax == 0:
        return 0
    keep = y[np.abs(y) > rel_floor * ymax]
    signs = np.sign(keep)
    return int(np.sum(signs[1:] != signs[:-1]))
