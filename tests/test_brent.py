"""Brent's method of the package: scipy's brentq to the bit, its errors in the two families."""

import math
import random
import warnings
from collections import Counter

import pytest

from heundirac import HeunDiracError, InvalidParams, NoConvergence, SystemParams, shoot_energy
from heundirac import model, oracle
from heundirac.model import level_bracket

# root near c, scale k, offset d: smooth, flat, stiff, discontinuous,
# oscillating, of size 1e-200, and NaN in a hole around the root
FAMILIES = (
    lambda k, c, d: lambda x: math.tanh(k * (x - c)) + 1e-3 * d,
    lambda k, c, d: lambda x: (x - c) ** 3 - 1e-2 * k * (x - c),
    lambda k, c, d: lambda x: math.exp(k * x) - math.exp(k * c),
    lambda k, c, d: lambda x: math.copysign(1.0 + d, x - c),
    lambda k, c, d: lambda x: math.sin(5.0 * k * x) + d,
    lambda k, c, d: lambda x: 1e-200 * (x - c),
    lambda k, c, d: lambda x: math.nan if abs(x - c) < 1e-3 * k else x - c,
)


def _kind(outcome):
    if isinstance(outcome, str):
        return "NaN" if "NaN" in outcome else "sign"
    return "converged" if outcome[1] else "maxiter"


def test_port_matches_scipy_on_seeded_random_brackets(brent_against_scipy):
    outcomes = brent_against_scipy(model)
    rng = random.Random(20140)
    for case in range(2800):
        k, c, d = rng.uniform(0.1, 20.0), rng.uniform(-1.0, 2.0), rng.uniform(-0.5, 0.5)
        a, b = c - rng.uniform(-0.5, 3.0), c + rng.uniform(-0.5, 3.0)   # mostly around c
        if rng.random() < 0.5:
            a, b = b, a
        xtol = 10.0 ** rng.uniform(-16.0, -3.0)
        rtol = 10.0 ** rng.uniform(math.log10(8.9e-16), -6.0)
        try:
            model._brentq(FAMILIES[case % len(FAMILIES)](k, c, d), a, b, xtol, rtol,
                          rng.randint(3, 200))
        except HeunDiracError:
            pass
    kinds = Counter(map(_kind, outcomes))
    assert len(outcomes) == 2800
    assert min(kinds[kind] for kind in ("converged", "maxiter", "sign", "NaN")) >= 20


@pytest.mark.parametrize("f, a, b, root", [
    (lambda x: x, 0.0, 1.0, 0.0),
    (lambda x: x - 1.0, 0.0, 1.0, 1.0),
    (lambda x: -0.0 if x == 0.0 else 1.0, 0.0, 1.0, 0.0),
    (lambda x: x - 1.0, 1.0, 0.0, 1.0),
])
def test_an_exact_zero_at_an_end_is_the_root(brent_against_scipy, f, a, b, root):
    brent_against_scipy(model)
    assert model._brentq(f, a, b, 1e-16, 8.9e-16, 100) == (root, 0, True)


@pytest.mark.parametrize("fa, fb", [(1e-200, 2e-200), (-1.0, -3.0), (2.0, math.inf)])
def test_ends_of_one_sign_are_invalid(brent_against_scipy, fa, fb):
    # by sign, not by product: 1e-200 * 2e-200 underflows to 0
    brent_against_scipy(model)
    with pytest.raises(InvalidParams, match="^f\\(a\\) and f\\(b\\) must have different signs$"):
        model._brentq(lambda x: fa if x == 0.0 else fb, 0.0, 1.0, 1e-16, 8.9e-16, 100)


@pytest.mark.parametrize("calls", (0, 1, 3, 6))
def test_a_nan_value_stops_the_solve(brent_against_scipy, calls):
    # NaN from the first, second, fourth or seventh distinct point: an end or an inner step
    brent_against_scipy(model)
    points = []

    def f(x):
        points.append(x)
        return math.nan if len(points) > calls else math.tanh(5.0 * (x - 1 / 3))

    with pytest.raises(NoConvergence) as stop:
        model._brentq(f, 0.0, 1.0, 1e-16, 8.9e-16, 100)
    assert len(points) == calls + 1
    assert str(stop.value) == f"The function value at x={points[-1]} is NaN; solver cannot continue."


def test_an_exhausted_budget_reports_its_steps(brent_against_scipy):
    outcomes = brent_against_scipy(model)
    root, iterations, converged = model._brentq(lambda x: math.copysign(1.0, x - 1 / 3),
                                                0.0, 1.0, 1e-16, 8.9e-16, 5)
    assert (iterations, converged) == (5, False) and 0.0 < root < 1.0
    assert outcomes == [(root.hex(), False, 5)]


def test_numpy_values_are_taken_as_floats(brent_against_scipy):
    # at m = 1e-160 the slopes of the matched functional, a numpy float64, are
    # ~1e170 and their product overflows: to inf as a float, as in C, but to a
    # RuntimeWarning as a float64
    outcomes = brent_against_scipy(oracle)
    p = SystemParams(0.5, 1, 1e-160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        levels = [shoot_energy(p, *level_bracket(p, n)) for n in (1, 2)]
    assert [level.n for level in levels] == [1, 2] and len(outcomes) == 2
