"""Bit-identity of every verify check's deviation and detail.

The golden `verify_all_e0p5.txt` prints deviations to four digits, which
cannot catch a last-bit change in the verify path.  This module pins
`repr(max_deviation)` and `detail` of every check instead, for
e in {0.25, 0.5, 0.85 nu} x j in {1/2, 3/2} at n_max = 4, for
`--route all` and each analytic route.  Regenerate with

    PYTHONPATH=src python tests/test_verify_bits.py > tests/data/verify_deviations.json

only for a change that moves these numbers on purpose, and say so in
CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

from heundirac import SystemParams, verify
from heundirac.model import ANALYTIC_ROUTES

DATA = Path(__file__).parent / "data" / "verify_deviations.json"
N_MAX = 4
CASES = [(e, nu, route)
         for nu in (1, 2)
         for e in (0.25, 0.5, 0.85 * nu)
         for route in ("all", *ANALYTIC_ROUTES)]


def _key(e, nu, route):
    return f"e={e!r} nu={nu} route={route}"


def deviations(e, nu, route):
    return [{"name": res.name, "max_deviation": repr(res.max_deviation),
             "detail": res.detail}
            for res in verify.run_verification(SystemParams(e, nu), N_MAX, route)]


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text(encoding="utf-8"))


@pytest.mark.parametrize("e, nu, route", CASES)
def test_verify_deviations_are_bit_identical(golden, e, nu, route):
    assert deviations(e, nu, route) == golden[_key(e, nu, route)]


if __name__ == "__main__":
    doc = {_key(*case): deviations(*case) for case in CASES}
    sys.stdout.write(json.dumps(doc, indent=1) + "\n")
