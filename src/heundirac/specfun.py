"""Series evaluators for the Kummer and confluent Heun functions.

Both functions are computed from their Frobenius series about the origin,
with plain iterative term recurrences (no gamma-function calls), so that
terminating cases stay structurally exact.

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
conditions hold simultaneously: the coefficient alpha*n + u + v of the
c_{n-1} coupling vanishes, which is exactly

    delta = -(n + (beta+gamma+2)/2) * alpha,

and additionally c_{n+1} = 0 (a determinant condition on eta).  Since the
first condition alone does not guarantee truncation, the evaluator never
assumes it: it runs the recurrence and accepts truncation only when the
computed coefficients actually collapse.  Because parameters are floats,
coefficients past the degree collapse to roundoff level rather than to
zero; they are treated as terminated when they fall below 1e-12 of the
largest retained coefficient (and, for exact-zero cascades, below 1e-300
of it).  Truncated coefficient sets are then recomputed by the backward
form of the recurrence: the decaying coefficients of a terminating series
are the minimal solution of the forward recurrence, so running forward
loses digits to cancellation while the backward direction is stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NoConvergence

# Collapse threshold for float-parameter polynomial detection, and the
# hard threshold for exact-zero cascades.
COLLAPSE_TOL = 1e-12
HARD_ZERO_TOL = 1e-300
# How many coefficients past the candidate degree must stay collapsed.
COLLAPSE_WINDOW = 6
# Integer tolerance used when the evaluator checks the degree condition
# internally (callers of heunc_poly_degree pass their own).
DEGREE_DETECT_TOL = 1e-8
# An open series has converged once two consecutive terms fall below
# SERIES_REL_TOL times the partial sum (two in a row guards against
# accidental zero terms); MAX_TERMS is its term budget.
SERIES_REL_TOL = 1e-15
MAX_TERMS = 10_000


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0 and x == math.floor(x)


@dataclass(frozen=True)
class KummerParams:
    """Parameters (a, c) of 1F1(a; c; x).

    c must not be zero or a negative integer, unless a is a non-positive
    integer with |a| < |c| so that the series terminates strictly before
    the first vanishing denominator.
    """

    a: float
    c: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.c)):
            raise InvalidParams("Kummer parameters must be finite")
        if _is_nonpositive_integer(self.c):
            if not (_is_nonpositive_integer(self.a) and abs(self.a) < abs(self.c)):
                raise InvalidParams(
                    f"c={self.c} is a non-positive integer and the series does "
                    f"not terminate first (a={self.a})"
                )


@dataclass(frozen=True)
class HeunCParams:
    """Canonical confluent Heun parameters (alpha, beta, gamma, delta, eta).

    beta must not be a negative integer: the recurrence divides by
    (k+1)(k+beta+1), so beta in {-1, -2, ...} breaks the regular branch.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    eta: float

    def __post_init__(self):
        vals = (self.alpha, self.beta, self.gamma, self.delta, self.eta)
        if not all(math.isfinite(x) for x in vals):
            raise InvalidParams("Heun parameters must be finite")
        if self.beta <= -1 and self.beta == math.floor(self.beta):
            raise InvalidParams(f"beta={self.beta} is a negative integer")


# ----------------------------------------------------------------------
# Kummer 1F1
# ----------------------------------------------------------------------

def kummer(params: KummerParams, x: float) -> float:
    """Evaluate 1F1(a; c; x) by direct summation of the defining series."""
    return _kummer_with_term_scale(params, x)[0]


def kummer_derivative(params: KummerParams, x: float) -> float:
    """d/dx 1F1(a; c; x) = (a/c) 1F1(a+1; c+1; x)."""
    shifted = KummerParams(params.a + 1.0, params.c + 1.0)
    return (params.a / params.c) * kummer(shifted, x)


def _kummer_with_term_scale(params: KummerParams, x: float) -> tuple[float, float]:
    """Series value of 1F1(a; c; x) together with the largest term magnitude seen.

    `kummer` returns the value alone.  The term scale is the natural conditioning measure: for alternating
    arguments the sum cancels far below the terms, and no float summation
    can resolve the value better than eps times this scale.
    """
    a, c = params.a, params.c
    term = 1.0
    total = 1.0
    peak = 1.0
    small = 0
    for k in range(MAX_TERMS):
        term *= (a + k) * x / ((c + k) * (k + 1))
        if term == 0.0:
            # exact termination (a a non-positive integer, or x == 0)
            return total, peak
        total += term
        peak = max(peak, abs(term))
        if abs(term) < SERIES_REL_TOL * abs(total):
            small += 1
            if small >= 2:
                return total, peak
        else:
            small = 0
    raise NoConvergence(
        f"1F1({a}; {c}; {x}) did not converge within {MAX_TERMS} terms"
    )


def kummer_ode_residual(params: KummerParams, x: float) -> float:
    """Scaled residual of x F'' + (c - x) F' - a F = 0 at x.

    All three pieces come from the series; the residual is divided by the
    largest series-term magnitude among them, so it measures consistency
    of the recurrence with the equation rather than cancellation noise.
    """
    a, c = params.a, params.c
    if x == 0.0:
        return 0.0
    F, sF = _kummer_with_term_scale(params, x)
    d1 = KummerParams(a + 1.0, c + 1.0)
    F1_raw, sF1 = _kummer_with_term_scale(d1, x)
    F1 = (a / c) * F1_raw
    d2 = KummerParams(a + 2.0, c + 2.0)
    F2_raw, sF2 = _kummer_with_term_scale(d2, x)
    F2 = (a * (a + 1.0)) / (c * (c + 1.0)) * F2_raw
    res = x * F2 + (c - x) * F1 - a * F
    scale = max(abs(x) * abs(a * (a + 1.0) / (c * (c + 1.0))) * sF2,
                abs(c - x) * abs(a / c) * sF1,
                abs(a) * sF,
                1e-300)
    return abs(res) / scale


def kummer_series_coefficients(params: KummerParams, count: int) -> np.ndarray:
    """First `count` Taylor coefficients of 1F1(a; c; x) about x = 0.

    Useful for vectorized evaluation of terminating (polynomial) cases.
    """
    a, c = params.a, params.c
    t = np.empty(count)
    t[0] = 1.0
    for k in range(count - 1):
        t[k + 1] = t[k] * (a + k) / ((c + k) * (k + 1))
        if t[k + 1] == 0.0:
            t[k + 2:] = 0.0
            break
    return t


def horner(coeffs: np.ndarray, x, order: int = 0):
    """order-th derivative of sum_k coeffs[k] x^k by Horner's rule.

    x may be a float or an array; both take the same floating-point
    operations in the same order.
    """
    c = coeffs
    for _ in range(order):
        c = c[1:] * np.arange(1, len(c))
    acc = np.zeros_like(x) if isinstance(x, np.ndarray) else 0.0
    for ck in c[::-1]:
        acc = acc * x + ck
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


def _backward_coefficients(p: HeunCParams, degree: int) -> np.ndarray:
    """Coefficients c_0..c_degree of a terminating series, backward recurrence.

    Imposes c_{degree+1} = 0 and runs the recurrence downward, then
    normalizes c_0 = 1.  Stable because the decaying coefficients are the
    dominant solution in this direction.
    """
    u, s = _residue_combinations(p)
    c = np.zeros(degree + 1)
    c[degree] = 1.0
    above = 0.0  # c_{k+1}
    for k in range(degree, 0, -1):
        bk = k * (k + p.beta + p.gamma + 1.0 - p.alpha) - u
        ck = p.alpha * (k - 1.0) + s
        below = ((k + 1.0) * (k + p.beta + 1.0) * above - bk * c[k]) / ck
        above = c[k]
        c[k - 1] = below
    return c / c[0]


def heunc_poly_degree(p: HeunCParams, tol: float = 1e-12):
    """Degree n if delta = -(n + (beta+gamma+2)/2)*alpha holds within tol.

    Checks only the first of the two polynomial conditions; truncation of
    the actual series additionally needs the accessory condition, which
    the evaluator verifies numerically instead of assuming.  Returns None
    when no non-negative integer satisfies the condition.
    """
    if p.alpha == 0.0:
        raise InvalidParams("degree condition requires alpha != 0")
    n_real = -p.delta / p.alpha - 0.5 * (p.beta + p.gamma + 2.0)
    if not math.isfinite(n_real):
        return None
    n = round(n_real)
    if n >= 0 and abs(n_real - n) <= tol:
        return n
    return None


def heunc_truncation(p: HeunCParams):
    """Detect numerical termination of the series.

    Returns (degree, coefficients c_0..c_degree) when the series
    terminates, else None.  Two ways to terminate:

    * hard zeros: two consecutive coefficients below 1e-300 of the
      running maximum (exact cascades, e.g. the all-zero parameter set);
    * degree-condition collapse: the degree condition picks out an
      integer n and every computed coefficient in (n, n+window] is below
      1e-12 of the maximum retained one.

    Collapsed sets are recomputed with the backward recurrence before
    being returned.
    """
    try:
        n_cond = heunc_poly_degree(p, DEGREE_DETECT_TOL)
    except InvalidParams:
        n_cond = None

    probe_len = COLLAPSE_WINDOW + 2
    if n_cond is not None:
        probe_len = min(max(n_cond + 1 + COLLAPSE_WINDOW, probe_len), MAX_TERMS)
    c = heunc_series_coefficients(p, probe_len)

    # hard-zero cascade
    running_max = np.maximum.accumulate(np.abs(c))
    for k in range(1, len(c) - 1):
        if (abs(c[k]) < HARD_ZERO_TOL * running_max[k - 1]
                and abs(c[k + 1]) < HARD_ZERO_TOL * running_max[k - 1]):
            degree = k - 1
            while degree > 0 and c[degree] == 0.0:
                degree -= 1
            return degree, c[:degree + 1].copy()

    # collapse at the degree-condition integer
    if n_cond is not None and n_cond + 1 < len(c):
        head_max = np.max(np.abs(c[:n_cond + 1]))
        tail = np.abs(c[n_cond + 1:])
        if head_max > 0 and np.all(tail < COLLAPSE_TOL * head_max):
            if n_cond == 0:
                return 0, np.array([1.0])
            back = _backward_coefficients(p, n_cond)
            # The backward pass assumes c_{n} is a genuine leading
            # coefficient; cross-check it against the forward head (whose
            # low-order entries are accurate) and fall back when the two
            # disagree beyond cancellation noise.
            if abs(back[1] - c[1]) <= 1e-6 * max(abs(c[1]), 1e-30):
                return n_cond, back
            return n_cond, c[:n_cond + 1].copy()
    return None


def _heunc_eval(p: HeunCParams, trunc, z: float, order: int) -> float:
    """Value of the series' order-th derivative at z (order 0, 1 or 2),
    given trunc = heunc_truncation(p)."""
    if trunc is not None:
        return float(horner(trunc[1], z, order))
    if abs(z) >= 1.0:
        raise InvalidParams(
            f"non-terminating confluent Heun series evaluated at |z|={abs(z)} >= 1"
        )
    return _open_series_value(p, z, order)


def _open_series_value(p: HeunCParams, z: float, order: int) -> float:
    u, s = _residue_combinations(p)
    c_prev = 1.0
    c_cur = -u / (p.beta + 1.0)

    def deriv_term(k, ck):
        if k < order:
            return 0.0
        fac = 1.0
        for j in range(order):
            fac *= (k - j)
        return ck * fac * z ** (k - order)

    total = deriv_term(0, c_prev) + deriv_term(1, c_cur)
    small = 0
    for k in range(1, MAX_TERMS):
        bk = k * (k + p.beta + p.gamma + 1.0 - p.alpha) - u
        ck_ = p.alpha * (k - 1.0) + s
        c_next = (bk * c_cur + ck_ * c_prev) / ((k + 1.0) * (k + p.beta + 1.0))
        term = deriv_term(k + 1, c_next)
        total += term
        if abs(term) < SERIES_REL_TOL * abs(total):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
        c_prev, c_cur = c_cur, c_next
    raise NoConvergence(
        f"confluent Heun series at z={z} did not converge within {MAX_TERMS} terms"
    )


def heunc(p: HeunCParams, z: float) -> float:
    """Confluent Heun function, regular branch at z = 0 with H(0) = 1.

    Terminating (polynomial) parameter sets are accepted at any finite z;
    non-terminating series require |z| < 1 (the z = 1 singularity bounds
    the disk of convergence, and analytic continuation is out of scope).
    """
    if z == 0.0:
        return 1.0
    return _heunc_eval(p, heunc_truncation(p), z, 0)


def heunc_derivative(p: HeunCParams, z: float) -> float:
    """Term-by-term derivative H'(z) of the same Frobenius branch."""
    return _heunc_eval(p, heunc_truncation(p), z, 1)


def heunc_second_derivative(p: HeunCParams, z: float) -> float:
    """Term-by-term second derivative H''(z), for residual checks."""
    return _heunc_eval(p, heunc_truncation(p), z, 2)


def heunc_ode_residual(p: HeunCParams, z: float) -> float:
    """Scaled residual of the canonical equation at z.

    Plugs (H, H', H'') from the series into the canonical form and
    divides by the largest term magnitude, so the result measures
    internal consistency of the recurrence against the equation.
    """
    if z == 0.0 or z == 1.0:
        raise InvalidParams("residual is evaluated away from the singular points")
    trunc = heunc_truncation(p)
    h, h1, h2 = (_heunc_eval(p, trunc, z, order) for order in range(3))
    u, s = _residue_combinations(p)
    v = s - u
    t_first = (p.alpha + (p.beta + 1.0) / z + (p.gamma + 1.0) / (z - 1.0)) * h1
    t_zero = (u / z + v / (z - 1.0)) * h
    res = h2 + t_first + t_zero
    # Backward-error scale: magnitudes of the assembled coefficient
    # pieces, so that solutions annihilating individual terms (e.g. the
    # constant polynomial) are still measured against O(1) ingredients.
    u_mag = 0.5 * (abs(p.alpha) + abs(p.alpha * p.beta) + abs(p.beta)
                   + abs(p.beta * p.gamma) + abs(p.gamma) + 2.0 * abs(p.eta))
    v_mag = u_mag + abs(p.delta)
    first_mag = (abs(p.alpha) + abs(p.beta + 1.0) / abs(z)
                 + abs(p.gamma + 1.0) / abs(z - 1.0)) * abs(h1)
    zero_mag = (u_mag / abs(z) + v_mag / abs(z - 1.0)) * abs(h)
    scale = max(abs(h2), first_mag, zero_mag, 1e-300)
    return abs(res) / scale
