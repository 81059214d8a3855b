"""Independent correctness reference for the benchmark's requests.

Nothing here imports heundirac.  Energies come from the closed form

    E = m / sqrt(1 + e^2 / (n + sqrt(nu^2 - e^2))^2)

and wavefunctions from the standard-route Kummer formula, both evaluated
with mpmath at ``DPS`` digits.  Each request's output text (what the CLI
printed) is parsed and checked against these tolerances:

* analytic energies to 1e-12 relative, oracle energies to 1e-8;
* normalized wavefunctions pointwise to 1e-6 of the peak at a fixed
  sample of grid points, after one least-squares scale (the scale itself
  is pinned by the separate norm check);
* the trapezoid integral of f^2 + g^2 over the printed grid equals 1
  to 1e-6, and on the default grid the tail at r_max is below 1e-6 of
  the peak;
* the grid runs geometrically from 0.01/lam to 40/lam (or the requested
  radii) with the requested number of points.

The program's self-reported ``system_residual`` is never consulted.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import mpmath
import numpy as np

DPS = 32
_MP = mpmath.MPContext()
_MP.dps = DPS

ENERGY_TOL = 1e-12
ORACLE_ENERGY_TOL = 1e-8
WAVE_TOL = 1e-6
NORM_TOL = 1e-6
TAIL_TOL = 1e-6
GRID_TOL = 1e-6
SAMPLE_POINTS = 16

ANALYTIC = ("standard", "mixed1", "mixed2", "heun")
VERIFY_CHECKS_ALL = (
    "scaled_variable_identities", "mixing_case_identities",
    "singular_point_consistency", "parameter_map_identities",
    "spectrum_route_equality", "quantization_residuals_at_levels",
    "wavefunction_residuals", "cross_route_agreement", "operator_closure",
    "coefficient_ratio", "kummer_ode_residual", "kummer_relations",
    "heunc_ode_residual", "truncation_audit",
)


class Mismatch(Exception):
    """An output that is outside its stated tolerance."""


def _flags(argv: list[str]) -> dict:
    """The long flags of one request as a dict (store_true flags -> True)."""
    out = {"command": argv[0]}
    i = 1
    while i < len(argv):
        key = argv[i][2:].replace("-", "_")
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[key] = argv[i + 1]
            i += 2
        else:
            out[key] = True
            i += 1
    return out


@lru_cache(maxsize=4096)
def energy(m: float, e: float, nu: int, n: int):
    """Closed-form level energy as an mpf (binary inputs taken exactly)."""
    m_, e_ = _MP.mpf(m), _MP.mpf(e)
    big_n = n + _MP.sqrt(nu * nu - e_ * e_)
    return m_ / _MP.sqrt(1 + (e_ / big_n) ** 2)


@lru_cache(maxsize=4096)
def _standard_pieces(m: float, e: float, nu: int, parity: int, n: int):
    E = energy(m, e, nu, n)
    m_, e_ = _MP.mpf(m), _MP.mpf(e)
    lam = _MP.sqrt(m_ * m_ - E * E)
    A = _MP.sqrt(nu * nu - e_ * e_)
    eps, mu = e_ * E / lam, e_ * m_ / lam
    c2 = -(nu + parity * mu) / (A + eps)
    if parity == 1:
        p, q = _MP.sqrt(m_ + E), _MP.sqrt(m_ - E)
    else:
        p, q = _MP.sqrt(m_ - E), -_MP.sqrt(m_ + E)
    return E, lam, A, c2, p, q


def standard_wavefunction(m: float, e: float, nu: int, parity: int, n: int,
                          r: float) -> tuple[float, float]:
    """Unnormalized (f, g) at radius r from the Kummer formula.

    In y = 2 lam r, with A = sqrt(nu^2 - e^2):
        F1 = y^A e^{-y/2} 1F1(-n; 2A+1; y)
        F2 = c2 y^A e^{-y/2} 1F1(-n+1; 2A+1; y),  c2 = -(nu + P mu)/(A + eps)
    and (f, g) = (p (F1 + F2), q (F1 - F2)) with (p, q) = (sqrt(m+E),
    sqrt(m-E)) at parity +1 and (sqrt(m-E), -sqrt(m+E)) at parity -1.
    """
    _, lam, A, c2, p, q = _standard_pieces(m, e, nu, parity, n)
    y = 2 * lam * _MP.mpf(r)
    pref = y ** A * _MP.exp(-y / 2)
    comp1 = pref * _MP.hyp1f1(-n, 2 * A + 1, y)
    comp2 = c2 * pref * _MP.hyp1f1(-n + 1, 2 * A + 1, y) if n >= 1 else 0
    return float(p * (comp1 + comp2)), float(q * (comp1 - comp2))


def _close(got: float, want, tol: float, what: str):
    want = float(want)
    if not (abs(got - want) <= tol * abs(want)):
        raise Mismatch(f"{what}: got {got!r}, reference {want!r} (tol {tol:g})")


# ----------------------------------------------------------------------
# per-command checks
# ----------------------------------------------------------------------

def _params(fl: dict) -> tuple[float, float, int, int]:
    m = float(fl.get("mass", 1.0))
    e = float(fl["coupling"])
    nu = int(round(float(fl.get("j", 0.5)) + 0.5))
    parity = int(fl.get("parity", 1))
    return m, e, nu, parity


def _spectrum_rows(fl: dict, text: str) -> list[dict]:
    if fl.get("format") == "csv":
        lines = text.splitlines()
        header = lines[0].split(",")
        rows = []
        for line in lines[1:]:
            cells = dict(zip(header, line.split(",")))
            row = {k: float(v) for k, v in cells.items() if k != "route"}
            row["route"] = cells["route"]
            rows.append(row)
        return rows
    return json.loads(text)["levels"]


def check_spectrum(fl: dict, text: str):
    m, e, nu, parity = _params(fl)
    k = int(fl.get("n_max", 0))
    route = fl.get("route", "all")
    routes = ANALYTIC if route == "all" else (route,)
    rows = _spectrum_rows(fl, text)
    want_keys = [(n, r) for n in range(k + 1) for r in routes]
    got_keys = [(int(row["n"]), row["route"]) for row in rows]
    if got_keys != want_keys:
        raise Mismatch(f"spectrum rows {got_keys} != expected {want_keys}")
    for row in rows:
        n = int(row["n"])
        tol = ORACLE_ENERGY_TOL if row["route"] == "oracle" else ENERGY_TOL
        want_parity = parity
        if row["route"] == "oracle" and n == 0:
            want_parity = -1  # n=0 only exists in the negative-parity channel
        if int(row["parity"]) != want_parity or float(row["j"]) != nu - 0.5:
            raise Mismatch(f"row labels {row} for n={n}")
        E_ref = energy(m, e, nu, n)
        _close(float(row["E"]), E_ref, tol, f"E(n={n}, {row['route']})")
        _close(float(row["E_over_m"]), E_ref / m, tol, f"E/m(n={n})")
        if route == "all" and not float(row["max_route_deviation"]) <= ENERGY_TOL:
            raise Mismatch(f"max_route_deviation {row['max_route_deviation']}")


def _wavefunction_table(fl: dict, text: str):
    if fl.get("format") == "csv":
        meta, body = {}, []
        lines = text.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("# "):
                key, _, val = line[2:].partition(": ")
                meta[key] = val
            elif line == "r,f,g":
                body = lines[i + 1:]
                break
        table = np.array(",".join(body).split(","), dtype=float).reshape(-1, 3)
        return float(meta["E"]), meta["route"], table[:, 0], table[:, 1], table[:, 2]
    doc = json.loads(text)
    return (float(doc["E"]), doc["route"], np.asarray(doc["r"], dtype=float),
            np.asarray(doc["f"], dtype=float), np.asarray(doc["g"], dtype=float))


def check_wavefunction(fl: dict, text: str):
    m, e, nu, parity = _params(fl)
    n = int(fl["n"])
    route = fl.get("route", "all")
    E_out, route_out, r, f, g = _wavefunction_table(fl, text)
    if route_out != ("standard" if route == "all" else route):
        raise Mismatch(f"route label {route_out!r}")
    E_ref = energy(m, e, nu, n)
    _close(E_out, E_ref, ENERGY_TOL, "E")

    lam = float(_MP.sqrt(_MP.mpf(m) ** 2 - E_ref ** 2))
    points = int(fl.get("grid_points", 2000))
    r_min = float(fl["r_min"]) if "r_min" in fl else 0.01 / lam
    r_max = float(fl["r_max"]) if "r_max" in fl else 40.0 / lam
    if len(r) != points:
        raise Mismatch(f"grid has {len(r)} points, expected {points}")
    _close(float(r[0]), r_min, GRID_TOL, "r_min")
    _close(float(r[-1]), r_max, GRID_TOL, "r_max")
    mid = points // 2
    _close(float(r[mid]), r_min * (r_max / r_min) ** (mid / (points - 1)),
           GRID_TOL, "geometric grid")

    peak = float(max(np.max(np.abs(f)), np.max(np.abs(g))))
    if not (peak > 0 and math.isfinite(peak)):
        raise Mismatch(f"peak amplitude {peak}")
    norm = float(np.trapezoid(f * f + g * g, r))
    if not abs(norm - 1.0) <= NORM_TOL:
        raise Mismatch(f"integral of f^2+g^2 is {norm!r}, expected 1")
    # the default grid claims to hold the whole state; a requested r_max
    # is a window, and the state may go on beyond it
    tail = max(abs(f[-1]), abs(g[-1])) / peak
    if "r_max" not in fl and not tail <= TAIL_TOL:
        raise Mismatch(f"tail at r_max is {tail:.3e} of the peak")

    idx = np.unique(np.linspace(0, points - 1, SAMPLE_POINTS).round().astype(int))
    ref = np.array([standard_wavefunction(m, e, nu, parity, n, float(r[i]))
                    for i in idx])
    got = np.stack([f[idx], g[idx]], axis=1)
    # orient the reference by the program's sign rule: f > 0 at the first
    # sample where |f| exceeds 1e-3 of its maximum
    lead = float(r[int(np.argmax(np.abs(f) > 1e-3 * np.max(np.abs(f))))])
    if standard_wavefunction(m, e, nu, parity, n, lead)[0] < 0:
        ref = -ref
    scale = float(np.sum(got * ref) / np.sum(ref * ref))
    if not scale > 0:
        raise Mismatch(f"wavefunction sign or shape: best scale {scale:g}")
    worst = float(np.max(np.abs(got - scale * ref))) / peak
    if not worst <= WAVE_TOL:
        raise Mismatch(f"pointwise deviation {worst:.3e} of the peak")


def check_verify(fl: dict, text: str):
    lines = text.splitlines()
    if not lines or lines[-1] != "verification PASSED":
        raise Mismatch(f"verify summary {lines[-1:]!r}")
    names = []
    for line in lines[:-1]:
        status, _, rest = line.partition("] ")
        if status != "[PASS":
            raise Mismatch(f"verify line {line!r}")
        names.append(rest.split(":", 1)[0])
    route = fl.get("route", "all")
    if route == "all":
        expected_ok = tuple(names) == VERIFY_CHECKS_ALL
    elif route == "oracle":
        expected_ok = names == ["oracle_spectrum"]
    else:
        expected_ok = bool(names) and set(names) <= set(VERIFY_CHECKS_ALL)
    if not expected_ok:
        raise Mismatch(f"verify --route {route} ran {names}")


_CHECKERS = {"spectrum": check_spectrum, "wavefunction": check_wavefunction,
             "verify": check_verify}


def check(argv: list[str], exit_code: int, text: str) -> str | None:
    """None when the request succeeded within tolerance, else the reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    fl = _flags(argv)
    try:
        _CHECKERS[fl["command"]](fl, text)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None
