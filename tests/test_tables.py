"""Bulk float formatting (heundirac.tables) against Python's own formatter.

Each cell must equal, byte for byte, what the per-number expressions it
replaces print: f"{v:.16e}" for CSV and json.dumps(v) for JSON.
"""

import json
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heundirac import tables

REFERENCE = {"e": lambda v: f"{v:.16e}", "repr": json.dumps}


def cell_texts(x, style):
    return [bytes(row).replace(b"\0", b"").decode("ascii")
            for row in tables.cells(np.asarray(x, dtype=np.float64), style)]


def assert_matches_python(values):
    values = [float(v) for v in values]
    for style, fmt in REFERENCE.items():
        assert cell_texts(values, style) == [fmt(v) for v in values], style


def _neighbours(v):
    return (v, math.nextafter(v, 0.0), math.nextafter(v, math.inf))


def _ties_at_17_digits():
    """Doubles whose exact decimal value has 18 significant digits, the last
    a 5, so that the 17-digit rounding is an exact tie: I + k/8, I 15 digits."""
    ties = [i + k / 8 for i in (100000000000001, 123456789012345, 999999999999999)
            for k in (1, 3, 5, 7)]
    assert all(len(Decimal(t).as_tuple().digits) == 18 for t in ties)
    return ties


EXPLICIT = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
    2.2250738585072014e-308, 1.7976931348623157e308, 1e-270, 1e270,
    0.1, 0.5, 1.0, 1.5, 100.0, 1e-5, 1e-4, 0.00012345678901234567,
    123456789012345.0, 1234567890123456.0, 9999999999999998.0,
    *(v for e in range(-323, 309) for v in _neighbours(float(f"1e{e}"))),
    *(v for e in range(-1074, 1024, 11) for v in _neighbours(2.0 ** e)),
    *_ties_at_17_digits(),
    *np.linspace(1e15, 1e17, 41).tolist(),
    *(float(v) for v in np.nextafter(np.linspace(1e15, 1e17, 41), 0.0)),
]


@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_explicit_edge_values(sign):
    assert_matches_python([sign * v for v in EXPLICIT])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_any_bit_pattern(bits):
    assert_matches_python(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
def test_any_float(values):
    assert_matches_python(values)


def test_a_large_random_array():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(20000) * 10.0 ** rng.integers(-30, 30, 20000)
    assert_matches_python(x)


def test_rows_and_arrays_join_like_the_per_number_expressions():
    x = np.array([0.25, -1e-300, math.nan, 3.0, 1e16])
    y = -x[::-1]
    assert tables.csv_rows(x, y) == "".join(
        f"{a:.16e},{b:.16e}\n" for a, b in zip(x.tolist(), y.tolist()))
    assert tables.json_array(x) == json.dumps(x.tolist())
    assert tables.json_array(np.array([])) == "[]"
    assert tables.csv_rows(np.array([]), np.array([])) == ""
