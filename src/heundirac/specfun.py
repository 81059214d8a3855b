"""Series evaluators for the Kummer and confluent Heun functions.

Both functions are computed from their Frobenius series about the origin,
with plain iterative term recurrences (no gamma-function calls), so that
terminating cases stay structurally exact.  The Kummer evaluators and
heunc_ode_residual broadcast over arrays.  The confluent Heun function is
evaluated only where its series terminates: heunc_truncation returns the
polynomial, or raises InvalidParams on an open (non-terminating) series.

Kummer's confluent hypergeometric function:

    1F1(a; c; x) = sum_k (a)_k / (c)_k * x^k / k!

Confluent Heun function, canonical form with parameters (alpha, beta,
gamma, delta, eta) and regular singularities at z = 0, 1:

    H'' + (alpha + (beta+1)/z + (gamma+1)/(z-1)) H'
        + (u/z + v/(z-1)) H = 0,

    u = (alpha + alpha*beta - beta - beta*gamma - gamma - 2*eta) / 2
    v = (alpha + alpha*gamma + beta + beta*gamma + gamma + 2*delta + 2*eta) / 2

The branch computed is the Frobenius solution regular at z = 0 with
H(0) = 1.  Substituting H = sum_k c_k z^k into the equation multiplied by
z(z-1) gives the three-term recurrence

    (k+1)(k+beta+1) c_{k+1} = [k(k+beta+gamma+1-alpha) - u] c_k
                              + [alpha(k-1) + u + v] c_{k-1},

with c_0 = 1 and c_1 = -u/(beta+1).  The recurrence is validated against
the differential equation itself in the test suite (residual checks).

Polynomial truncation.  The series terminates at degree n when two
conditions hold together.  The degree condition makes the coefficient
alpha*n + u + v of the c_{n-1} coupling vanish, which is exactly

    delta = -(n + (beta+gamma+2)/2) * alpha;

it is equation k = n+1 of the recurrence with c_{n+1} = c_{n+2} = 0.  The
backward pass then imposes c_{n+1} = 0, c_n = 1, solves equations
k = n..1 downward for c_{n-1}..c_0 and divides by c_0; downward is the
stable direction for the coefficients of a terminating series (they are
the minimal solution of the forward recurrence).  Only equation k = 0 is
left: the accessory condition (beta+1) c_1 = -u c_0 on eta, accepted
within the rounding noise of u.  At n = 0 no recurrence runs, and it
reads u = 0.  heunc_truncation applies both conditions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NoConvergence
from .maps import HeunCParams

# Integer tolerance of the degree condition that heunc_truncation checks.
DEGREE_DETECT_TOL = 1e-8
# A Kummer series has converged once two consecutive terms fall below
# SERIES_REL_TOL times the partial sum (two in a row guards against
# accidental zero terms); MAX_TERMS is its term budget, and the highest
# Heun polynomial degree.
SERIES_REL_TOL = 1e-15
MAX_TERMS = 10_000
# Terms per array pass of the Kummer series.
_SERIES_CHUNK = 32


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0 and x == math.floor(x)


@dataclass(frozen=True)
class KummerParams:
    """Parameters (a, c) of 1F1(a; c; x), floats or arrays (checked elementwise).

    c must not be zero or a negative integer, unless a is a non-positive
    integer with |a| < |c| so that the series terminates strictly before
    the first vanishing denominator.
    """

    a: float
    c: float

    def __post_init__(self):
        for a, c in np.broadcast(self.a, self.c):
            if not (math.isfinite(a) and math.isfinite(c)):
                raise InvalidParams("Kummer parameters must be finite")
            if _is_nonpositive_integer(c) and not (_is_nonpositive_integer(a)
                                                   and abs(a) < abs(c)):
                raise InvalidParams(f"c={c} is a non-positive integer and the series does "
                                    f"not terminate first (a={a})")


# ----------------------------------------------------------------------
# Kummer 1F1
# ----------------------------------------------------------------------

def kummer(params: KummerParams, x):
    """Evaluate 1F1(a; c; x) by its defining series (after Kummer's transformation if x < 0)."""
    return _kummer_with_term_scale(params, x)[0]


def _kummer_with_term_scale(params: KummerParams, x):
    """Series value of 1F1(a; c; x) together with the largest term magnitude
    seen, broadcast over a, c and x: floats for scalar input, else arrays.

    `kummer` returns the value alone.  The term scale is the natural conditioning measure: for alternating
    arguments the sum cancels far below the terms, and no float summation
    can resolve the value better than eps times this scale.

    Each pass adds _SERIES_CHUNK terms to every unfinished series, as running
    products and sums: each element takes a one-term loop's operations in its
    order, and stops where that loop would.
    """
    a_in, c_in, x_in = np.broadcast_arrays(params.a, params.c, x)

    def named(i):
        return f"1F1({a_in.flat[i]}; {c_in.flat[i]}; {x_in.flat[i]})"

    a, c, x = (np.array(v, dtype=float).ravel() for v in (a_in, c_in, x_in))
    # 1F1(a; c; x) = e^x 1F1(c - a; c; -x) (DLMF 13.2.39): terms in -x keep one
    # sign past order a - c, those in x alternate far above the value
    flip = np.array([xi < 0.0 and not _is_nonpositive_integer(ai) for ai, xi in zip(a, x)],
                    dtype=bool)
    a, y = np.where(flip, c - a, a), np.where(flip, -x, x)
    weight = np.ones_like(x)
    weight[flip] = [math.exp(v) for v in x[flip]]   # np.exp is 1 ulp off at some x
    term, total, peak = np.ones_like(x), np.ones_like(x), np.ones_like(x)
    small = np.zeros(x.shape, dtype=bool)   # the last term added was small
    live = np.arange(x.size)
    with np.errstate(all="ignore"):   # terms past a series' stop are discarded
        for k0 in range(0, MAX_TERMS, _SERIES_CHUNK):
            if not live.size:
                break
            k = np.arange(k0, min(k0 + _SERIES_CHUNK, MAX_TERMS), dtype=float)
            ratio = (a[live, None] + k) * y[live, None] / ((c[live, None] + k) * (k + 1.0))
            ratio[:, 0] *= term[live]
            terms = np.multiply.accumulate(ratio, axis=1)
            sums = np.add.accumulate(np.column_stack((total[live], terms)), axis=1)
            size = np.abs(terms)
            is_small = size < SERIES_REL_TOL * np.abs(sums[:, 1:])
            stop = terms == 0.0   # exact termination (a a non-positive integer, or x == 0)
            stop[:, 0] |= is_small[:, 0] & small[live]
            stop[:, 1:] |= is_small[:, 1:] & is_small[:, :-1]
            done = stop.any(axis=1)
            # terms taken: through the stop (adding a zero term changes no sum)
            taken = np.where(done, stop.argmax(axis=1) + 1, len(k))
            total[live] = np.take_along_axis(sums, taken[:, None], axis=1)[:, 0]
            kept = np.where(np.arange(len(k)) < taken[:, None], size, 0.0)
            peak[live] = np.fmax(peak[live], np.fmax.reduce(kept, axis=1))
            term[live], small[live] = terms[:, -1], is_small[:, -1]
            live = live[~done]
    if live.size:
        raise NoConvergence(f"{named(live[0])} did not converge within {MAX_TERMS} terms")
    lost = flip & ~((weight >= sys.float_info.min) & np.isfinite(total))
    if lost.any():
        raise NoConvergence(f"{named(np.argmax(lost))}: e^x is subnormal or the series "
                            "in -x overflows under Kummer's transformation")
    value, scale = (weight * total).reshape(x_in.shape), (weight * peak).reshape(x_in.shape)
    return (float(value), float(scale)) if x_in.ndim == 0 else (value, scale)


def kummer_ode_residual(params: KummerParams, x):
    """Scaled residual of x F'' + (c - x) F' - a F = 0 at x, broadcast over
    a, c and x like `kummer` (0 where x = 0).

    All three pieces come from the series; the residual is divided by the
    largest series-term magnitude among them, so it measures consistency
    of the recurrence with the equation rather than cancellation noise.
    """
    a, c = params.a, params.c
    # the series of (a, c), (a+1, c+1) and (a+2, c+2) in one evaluation
    shift = np.arange(3.0).reshape(3, *[1] * np.broadcast(a, c, x).ndim)
    (F, F1_raw, F2_raw), (sF, sF1, sF2) = _kummer_with_term_scale(
        KummerParams(a + shift, c + shift), x)
    F1 = (a / c) * F1_raw
    F2 = (a * (a + 1.0)) / (c * (c + 1.0)) * F2_raw
    res = x * F2 + (c - x) * F1 - a * F
    scale = np.maximum(np.maximum(abs(x) * abs(a * (a + 1.0) / (c * (c + 1.0))) * sF2,
                                  abs(c - x) * abs(a / c) * sF1),
                       np.maximum(abs(a) * sF, 1e-300))
    out = np.where(np.equal(x, 0.0), 0.0, abs(res) / scale)
    return float(out) if out.ndim == 0 else out


def kummer_series_coefficients(params: KummerParams, count: int) -> np.ndarray:
    """First `count` Taylor coefficients of 1F1(a; c; x) about x = 0, none at count 0.

    Useful for vectorized evaluation of terminating (polynomial) cases.
    """
    a, c = params.a, params.c
    t = np.empty(count)
    t[:1] = 1.0
    for k in range(count - 1):
        t[k + 1] = t[k] * (a + k) / ((c + k) * (k + 1))
        if t[k + 1] == 0.0:
            t[k + 2:] = 0.0
            break
    return t


def horner(coeffs: np.ndarray, x, order: int = 0):
    """order-th derivative of sum_k coeffs[k] x^k by Horner's rule.

    x may be a float or an array, and the result is of the same kind; both
    take the same floating-point operations in the same order.  Trailing
    axes of coeffs (the degree runs along the first) stack polynomials
    that broadcast against an array x.
    """
    c = coeffs
    for _ in range(order):
        c = (c[1:].T * np.arange(1, len(c))).T
    if not isinstance(x, np.ndarray):
        acc = 0.0
        for ck in c[::-1]:
            acc = acc * x + ck
        return float(acc)
    acc = np.zeros(np.broadcast_shapes(x.shape, c.shape[1:]))
    for ck in c[::-1]:
        acc *= x
        acc += ck
    return acc


# ----------------------------------------------------------------------
# Confluent Heun
# ----------------------------------------------------------------------

def _residue_combinations(p: HeunCParams) -> tuple[float, float]:
    """Return (u, u+v) for the canonical form.

    u+v is evaluated as alpha + alpha*(beta+gamma)/2 + delta, which is
    algebraically identical to summing the two pole residues but avoids
    the cancellation that makes the summed form lose ~2 digits.
    """
    u = 0.5 * (p.alpha + p.alpha * p.beta - p.beta - p.beta * p.gamma
               - p.gamma - 2.0 * p.eta)
    s = p.alpha + 0.5 * p.alpha * (p.beta + p.gamma) + p.delta
    return u, s


def _u_magnitude(p: HeunCParams) -> float:
    """Summed magnitudes of the terms of u: the scale of its rounding noise."""
    return 0.5 * (abs(p.alpha) + abs(p.alpha * p.beta) + abs(p.beta)
                  + abs(p.beta * p.gamma) + abs(p.gamma) + 2.0 * abs(p.eta))


def heunc_series_coefficients(p: HeunCParams, count: int) -> np.ndarray:
    """First `count` Frobenius coefficients c_k by the forward recurrence.

    Raw output, no truncation handling; primarily for diagnostics such as
    the polynomial-truncation audit.
    """
    if count < 1:
        raise InvalidParams("count must be >= 1")
    u, s = _residue_combinations(p)
    c = np.empty(count)
    c[0] = 1.0
    if count == 1:
        return c
    c[1] = -u / (p.beta + 1.0)
    for k in range(1, count - 1):
        bk = k * (k + p.beta + p.gamma + 1.0 - p.alpha) - u
        ck = p.alpha * (k - 1.0) + s
        c[k + 1] = (bk * c[k] + ck * c[k - 1]) / ((k + 1.0) * (k + p.beta + 1.0))
    return c


def heunc_truncation(p: HeunCParams):
    """The polynomial the series ends in, as (degree, c_0..c_degree).

    The degree condition delta = -(n + (beta+gamma+2)/2) alpha picks n
    within DEGREE_DETECT_TOL (at alpha = 0 it can pick only n = 0, when
    u + v = 0); no n in 0 <= n < MAX_TERMS, the term budget, means an open
    series: InvalidParams.  Then the accessory condition, equation k = 0,
    (beta+1) c_1 = -u c_0, must hold within 1e-6 of the rounding noise of
    u, which exceeds u itself by ~1/e^2 at weak coupling:

    * at n = 0 no recurrence runs and c_1 = c_{n+1} = 0, so it reads u = 0
      on the parameters; off it the series is open: InvalidParams;
    * at n >= 1, c_1 comes from the backward pass (module docstring), which
      also has to stay finite.  A failure cannot tell a series that is no
      polynomial from a pass that lost its digits: NoConvergence.
    """
    u, s = _residue_combinations(p)
    if p.alpha == 0.0:
        n_real = 0.0 if s == 0.0 else math.nan
    else:
        n_real = -p.delta / p.alpha - 0.5 * (p.beta + p.gamma + 2.0)
    n = round(n_real) if math.isfinite(n_real) else -1
    bound = 1e-6 * _u_magnitude(p)
    if (not (0 <= n < MAX_TERMS and abs(n_real - n) <= DEGREE_DETECT_TOL)
            or n == 0 and not abs(u) <= bound):
        raise InvalidParams(f"the confluent Heun series of {p} is open (no polynomial); "
                            "only polynomials are evaluated")
    if n == 0:
        return 0, np.array([1.0])
    c = np.zeros(n + 1)
    c[n] = 1.0
    above = 0.0  # c_{k+1}
    with np.errstate(all="ignore"):
        for k in range(n, 0, -1):
            bk = k * (k + p.beta + p.gamma + 1.0 - p.alpha) - u
            ck = p.alpha * (k - 1.0) + s
            below = ((k + 1.0) * (k + p.beta + 1.0) * above - bk * c[k]) / ck
            above = c[k]
            c[k - 1] = below
        c = c / c[0]
    if np.all(np.isfinite(c)) and abs(c[1] + u / (p.beta + 1.0)) <= bound / abs(p.beta + 1.0):
        return n, c
    raise NoConvergence(f"backward recurrence to degree {n} gives c_1 = {c[1]:.6e}, "
                        f"the accessory condition {-u / (p.beta + 1.0):.6e}")


def heunc(p: HeunCParams, z: float) -> float:
    """Confluent Heun polynomial, the regular branch at z = 0 with H(0) = 1,
    at any finite z.  A parameter set whose series does not terminate
    raises InvalidParams, at z = 0 too."""
    return horner(heunc_truncation(p)[1], z)


def heunc_derivative(p: HeunCParams, z: float) -> float:
    """Derivative H'(z) of the same polynomial."""
    return horner(heunc_truncation(p)[1], z, 1)


def heunc_second_derivative(p: HeunCParams, z: float) -> float:
    """Second derivative H''(z) of the same polynomial, for residual checks."""
    return horner(heunc_truncation(p)[1], z, 2)


def heunc_ode_residual(maps, z, coeffs):
    """Scaled residual of the canonical equation at z, for each parameter set
    in maps along the leading axis of the result (z may be an array).

    coeffs holds the polynomial of each map, as heunc_truncation gives it.
    Plugs (H, H', H'') from the polynomial into the canonical form and
    divides by the largest term magnitude, so the result measures
    internal consistency of the recurrence against the equation.  The
    singular points z = 0 and 1 raise InvalidParams.
    """
    if np.any(z == 0.0) or np.any(z == 1.0):
        raise InvalidParams("residual is evaluated away from the singular points")
    # one map per column of the coefficients (degree down the first axis)
    # and per entry of each parameter, broadcast against z
    z_arr = np.asarray(z, dtype=float)
    column = (len(maps),) + (1,) * z_arr.ndim
    c = np.zeros((max(map(len, coeffs)),) + column)
    for i, ci in enumerate(coeffs):
        c[:len(ci), i] = ci.reshape((-1,) + column[1:])
    # the maps' fields stacked alike (each map was validated when it was built)
    p = HeunCParams._make(a.reshape(column) for a in np.array(maps, dtype=float).T)
    h, h1, h2 = (horner(c, z_arr, order) for order in range(3))
    u, s = _residue_combinations(p)
    v = s - u
    t_first = (p.alpha + (p.beta + 1.0) / z_arr + (p.gamma + 1.0) / (z_arr - 1.0)) * h1
    t_zero = (u / z_arr + v / (z_arr - 1.0)) * h
    res = h2 + t_first + t_zero
    # Backward-error scale: magnitudes of the assembled coefficient
    # pieces, so that solutions annihilating individual terms (e.g. the
    # constant polynomial) are still measured against O(1) ingredients.
    u_mag = _u_magnitude(p)
    v_mag = u_mag + abs(p.delta)
    first_mag = (abs(p.alpha) + abs(p.beta + 1.0) / abs(z_arr)
                 + abs(p.gamma + 1.0) / abs(z_arr - 1.0)) * abs(h1)
    zero_mag = (u_mag / abs(z_arr) + v_mag / abs(z_arr - 1.0)) * abs(h)
    scale = np.maximum(np.maximum(abs(h2), first_mag), np.maximum(zero_mag, 1e-300))
    return abs(res) / scale
