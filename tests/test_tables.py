"""Bulk float formatting (heundirac.tables) against Python's own formatter.

Each cell must equal, byte for byte, what the per-number expressions it
replaces print: f"{v:.16e}" for CSV and json.dumps(v) for JSON.
"""

import contextlib
import io
import json
import math
import os
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heundirac import SystemParams, energy_closed_form, tables
from heundirac.cli import EXIT_OK, main

#: examples per hypothesis property; CI's formatter fuzz step raises it
FUZZ_EXAMPLES = int(os.environ.get("HEUNDIRAC_FUZZ_EXAMPLES", "300"))

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


@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_any_bit_pattern(bits):
    assert_matches_python(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
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


def _shortest_digits(v: float) -> int:
    return len(repr(v).split("e")[0].replace("-", "").replace(".", "").strip("0"))


@pytest.mark.parametrize("order", (1, -1), ids=["ascending", "descending"])
def test_long_runs_of_every_fixed_exponent(order):
    """Each fixed-point exponent -4..15 forms a run of about 2000 rows,
    between exponential runs below 1e-4 and from 1e16."""
    x = np.geomspace(1e-6, 1e18, 50000)[::order]
    assert set(np.floor(np.log10(x)).astype(int).tolist()) == set(range(-6, 19))
    assert_matches_python(x)


def _run_column(lengths, exponents, rng):
    return np.concatenate([(1 + 9 * rng.random(k)) * 10.0 ** e
                           for k, e in zip(lengths, exponents)])


def test_runs_around_the_slice_threshold():
    """Runs one row short of, at, and one row past tables._RUN, for fixed
    exponents on both sides of the point and between exponential runs."""
    rng = np.random.default_rng(11)
    lengths = [tables._RUN - 1, tables._RUN, tables._RUN + 1] * 4
    x = _run_column(lengths, [0, -2, 3, -6, 17, -4, 15, 2, -1, 1, -3, 20], rng)
    x[[tables._RUN + 6, 3 * tables._RUN + 8]] = math.nan  # a non-fixed row splits a run
    assert_matches_python(x)
    assert_matches_python(-x[::-1])


def test_alternating_rows():
    """No run longer than one row: every fixed row takes the per-exponent gather."""
    rng = np.random.default_rng(12)
    x = _run_column([1] * 4000, [-4, 7, -7, 0, 15, 21, -1, 2] * 500, rng)
    assert_matches_python(x)
    assert_matches_python(np.where(np.arange(len(x)) % 2, -x, x))


@pytest.mark.parametrize("exponent", (-4, 0, 15, -8, 21))
def test_shortest_forms_of_17_to_1_digits(exponent):
    """Doubles whose shortest repr has 17, 16, 15 and 14 digits (rounded in
    bulk) and 13 or fewer (formatted by Python), at fixed-point exponents
    -4, 0 and 15 and in exponential form."""
    rng = np.random.default_rng(exponent + 100)
    random = ((1 + 9 * rng.random(4000)) * 10.0 ** exponent).tolist()
    by_digits = {k: [v for v in random if _shortest_digits(v) == k][:40] for k in (17, 16)}
    for k in (15, 14, 13, 12, 8, 1):
        mantissas = rng.integers(10 ** (k - 1), 10 ** k, 40) // 10 * 10 + rng.integers(1, 10, 40)
        by_digits[k] = [float(f"{m}e{exponent - k + 1}") for m in mantissas.tolist()]
    for k, values in by_digits.items():
        assert len(values) == 40 and all(_shortest_digits(v) == k for v in values), k
        assert_matches_python(values)
        assert_matches_python(np.repeat(values, 2))  # runs of two and of 80 rows


@pytest.mark.parametrize("value", (0.5, -1e-5, 123.0, 1e16, 2.0 ** -30, math.nan, -math.inf))
def test_one_element_columns(value):
    assert_matches_python([value])
    x = np.array([value])
    assert tables.json_array(x) == json.dumps([value])
    assert tables.csv_rows(x, x) == f"{value:.16e},{value:.16e}\n"


@pytest.mark.parametrize("size", (1, 64, 1000))
def test_all_nan_columns(size):
    x = np.full(size, math.nan)
    assert_matches_python(x)
    assert tables.json_array(x) == json.dumps(x.tolist())
    assert tables.csv_rows(x) == f"{math.nan:.16e}\n" * size


def test_low_digit_remainders_are_exact():
    """low mod q as low - floor(low * fl(1/q)) q, for every low < 10**4."""
    low = np.arange(10000, dtype=np.float64)
    for q, inv in zip(tables._DROP_Q.tolist(), tables._DROP_INV.tolist()):
        assert np.array_equal(low - np.floor(low * inv) * q, np.arange(10000) % int(q))


_LAM_24 = energy_closed_form(24, SystemParams(0.5, 1)).lam
TABLES = [(route, 2, ()) for route in ("standard", "mixed1", "mixed2", "heun", "oracle")]
TABLES += [(route, 24, ("--r-max", repr((40 + 3 * 24) / _LAM_24)))
           for route in ("standard", "mixed1", "mixed2", "heun")]


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize("route, n, extra", TABLES,
                         ids=[f"{route}-n{n}" for route, n, _ in TABLES])
def test_python_formats_under_one_percent_of_a_table(monkeypatch, route, n, extra, fmt):
    """A perf guard: a byte-identical rewrite could still send rows to the
    per-number fallback.  On 20000-point tables it takes under 1%."""
    calls = []
    for style, fmt_one in list(tables._FORMAT.items()):
        monkeypatch.setitem(tables._FORMAT, style,
                            lambda v, fmt_one=fmt_one: calls.append(v) or fmt_one(v))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["wavefunction", "--route", route, "--coupling", "0.5", "--n", str(n),
                     "--n-max", str(n), "--grid-points", "20000", "--format", fmt, *extra])
    assert code == EXIT_OK
    assert len(calls) < 0.01 * 3 * 20000
