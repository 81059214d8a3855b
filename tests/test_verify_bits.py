"""Bit-identity of every verify check's deviation and detail.

The golden `verify_all_e0p5.txt` prints deviations to four digits, which
cannot catch a last-bit change in the verify path.  This module pins
`repr(max_deviation)` and `detail` of every check instead, for
e in {0.25, 0.5, 0.85 nu} x j in {1/2, 3/2}, for `--route all` and each
analytic route: at parity +1, m = 1 and n_max = 4; at parity -1 (whose
nodeless level takes the mixed routes' n = 0 branches), m = 1 and
n_max = 8; and at parity +1, the electron mass m = 0.51099895 and
n_max = 8.  Regenerate with

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
ELECTRON_MASS = 0.51099895
# (parity, mass, n_max) of each further group of the same cases
GROUPS = ((-1, 1.0, 8), (1, ELECTRON_MASS, 8))


def _key(e, nu, route, parity=1, m=1.0, n_max=N_MAX):
    extra = "" if (parity, m, n_max) == (1, 1.0, N_MAX) else f" parity={parity} m={m!r} n_max={n_max}"
    return f"e={e!r} nu={nu} route={route}{extra}"


def deviations(e, nu, route, parity=1, m=1.0, n_max=N_MAX):
    return [{"name": res.name, "max_deviation": repr(res.max_deviation),
             "detail": res.detail}
            for res in verify.run_verification(SystemParams(e, nu, m, parity), n_max, route)]


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text(encoding="utf-8"))


@pytest.mark.parametrize("e, nu, route", CASES)
def test_verify_deviations_are_bit_identical(golden, e, nu, route):
    assert deviations(e, nu, route) == golden[_key(e, nu, route)]


@pytest.mark.parametrize("parity, m, n_max", GROUPS)
@pytest.mark.parametrize("e, nu, route", CASES)
def test_verify_deviations_are_bit_identical_at_parity_minus_and_electron_mass(
        golden, e, nu, route, parity, m, n_max):
    case = (e, nu, route, parity, m, n_max)
    assert deviations(*case) == golden[_key(*case)]


if __name__ == "__main__":
    cases = [*CASES, *((*case, *group) for group in GROUPS for case in CASES)]
    doc = {_key(*case): deviations(*case) for case in cases}
    sys.stdout.write(json.dumps(doc, indent=1) + "\n")
