"""Command-line front end: spectra, wavefunction tables, verification runs.

Subcommands:
    spectrum      bound energies for n = 0..n_max by any route
    wavefunction  tabulated (r, f, g) for one level, CSV or JSON
    verify        run the consistency checks at the configured parameters

Exit codes: 0 success, 1 verification failure, 2 invalid parameters,
3 solver non-convergence.

Flags override config-file keys, which override defaults.  The config
file is flat `key = value` text, keys named like the long flags without
the leading dashes (dashes may be written as underscores), e.g.

    coupling = 0.5
    j = 0.5
    n-max = 3
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

from . import oracle, routes, verify
from .errors import (CalibrationFailure, DegenerateCase, DegenerateGroundState,
                     HeunDiracError, InvalidParams, MaxIterations, NoBracket,
                     NoConvergence, Overflow, OutsideDomain, StepFailure,
                     ZeroNorm)
from .model import (ANALYTIC_ROUTES, SystemParams, energy_closed_form,
                    level_bracket, level_channel, require_level,
                    solve_quantization)
from .routes import ROUTE_SOLVERS as _SOLVERS

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_PARAMS = 2
EXIT_NO_CONVERGENCE = 3

_PARAM_ERRORS = (InvalidParams, OutsideDomain, DegenerateCase,
                 DegenerateGroundState, ZeroNorm)
_SOLVER_ERRORS = (NoConvergence, NoBracket, MaxIterations, StepFailure,
                  Overflow, CalibrationFailure)

ROUTE_CHOICES = (*ANALYTIC_ROUTES, "oracle", "all")


@dataclass(frozen=True)
class RunConfig:
    """Resolved command-line configuration."""

    mass: float = 1.0
    coupling: float = 0.0
    j: float = 0.5
    parity: int = 1
    n_max: int = 0
    route: str = "all"
    format: str = "json"
    out: str | None = None
    grid_points: int = routes.GRID_POINTS
    r_min: float | None = None
    r_max: float | None = None
    tol: float | None = None
    no_timestamp: bool = False

    @property
    def nu(self) -> int:
        two_j = 2 * self.j
        if abs(two_j - round(two_j)) > 1e-9 or round(two_j) % 2 == 0:
            raise InvalidParams(f"j must be half-integer (1/2, 3/2, ...), got {self.j}")
        return int(round(self.j + 0.5))

    def system_params(self) -> SystemParams:
        return SystemParams(self.coupling, self.nu, self.mass, self.parity)


def _fmt(x: float) -> str:
    """17 significant digits, scientific: bit-stable across platforms."""
    return f"{x:.16e}"


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidParams(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


_FIELD_TYPES = {
    "mass": float, "coupling": float, "j": float, "parity": int,
    "n_max": int, "route": str, "format": str, "out": str,
    "grid_points": int, "r_min": float, "r_max": float, "tol": float,
    "no_timestamp": lambda s: s.lower() in ("1", "true", "yes"),
}


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    merged: dict = {}
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            if key not in _FIELD_TYPES:
                raise InvalidParams(f"unknown config key {key!r}")
            merged[key] = _FIELD_TYPES[key](raw)
    for key in _FIELD_TYPES:
        if key == "no_timestamp":
            continue  # store_true flag: only an explicit flag overrides
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            merged[key] = flag_val
    if args.no_timestamp:
        merged["no_timestamp"] = True
    if "route" in merged and merged["route"] not in ROUTE_CHOICES:
        raise InvalidParams(f"unknown route {merged['route']!r}")
    if "coupling" not in merged:
        raise InvalidParams("coupling is required (flag --coupling or config file)")
    return RunConfig(**merged)


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--mass", type=float, default=None, help="particle mass (default 1)")
    p.add_argument("--coupling", type=float, default=None,
                   help="Coulomb coupling strength e (required)")
    p.add_argument("--j", type=float, default=None,
                   help="total angular momentum j (half-integer, default 1/2)")
    p.add_argument("--parity", type=int, choices=(1, -1), default=None,
                   help="parity channel (+1 or -1, default +1)")
    p.add_argument("--n-max", type=int, default=None, dest="n_max",
                   help="highest radial quantum number (default 0)")
    p.add_argument("--route", choices=ROUTE_CHOICES, default=None,
                   help="solution route (default all)")
    p.add_argument("--format", choices=("json", "csv"), default=None,
                   help="output format (default json)")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--grid-points", type=int, default=None, dest="grid_points",
                   help="radial grid size (default 2000)")
    p.add_argument("--r-min", type=float, default=None, dest="r_min",
                   help="grid start radius (default 0.01/lambda)")
    p.add_argument("--r-max", type=float, default=None, dest="r_max",
                   help="grid end radius (default 40/lambda)")
    p.add_argument("--tol", type=float, default=None,
                   help="tolerance override for verification checks")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp field (byte-stable reports)")


def _emit(text: str, cfg: RunConfig):
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spectrum_levels(cfg: RunConfig) -> list[dict]:
    """One entry per (n, route); route='all' covers the analytic four."""
    selected = ANALYTIC_ROUTES if cfg.route == "all" else (cfg.route,)
    params = cfg.system_params()
    rows = []
    for n in range(cfg.n_max + 1):
        per_route = {}
        for route in selected:
            if route == "oracle":
                p = level_channel(params, n)
                require_level(p, n)
                level = oracle.shoot_energy(p, *level_bracket(p, n))
            else:
                level = solve_quantization(params, n, route)
            per_route[route] = level
        deviation = None
        if len(per_route) > 1:
            energies = [lvl.E for lvl in per_route.values()]
            lo, hi = min(energies), max(energies)
            deviation = (hi - lo) / lo
        for route, level in per_route.items():
            row = {
                "n": level.n, "j": level.nu - 0.5, "parity": level.parity,
                "route": route, "E": level.E, "E_over_m": level.E / cfg.mass,
            }
            if deviation is not None:
                row["max_route_deviation"] = deviation
            rows.append(row)
    return rows


def cmd_spectrum(cfg: RunConfig) -> int:
    rows = _spectrum_levels(cfg)
    if cfg.format == "csv":
        with_dev = any("max_route_deviation" in r for r in rows)
        header = ["n", "j", "parity", "route", "E", "E_over_m"]
        if with_dev:
            header.append("max_route_deviation")
        lines = [",".join(header)]
        for r in rows:
            cells = [str(r["n"]), _fmt(r["j"]), str(r["parity"]), r["route"],
                     _fmt(r["E"]), _fmt(r["E_over_m"])]
            if with_dev:
                cells.append(_fmt(r.get("max_route_deviation", 0.0)))
            lines.append(",".join(cells))
        _emit("\n".join(lines) + "\n", cfg)
    else:
        doc = {"levels": rows}
        if not cfg.no_timestamp:
            doc["generated"] = datetime.now(timezone.utc).isoformat()
        _emit(json.dumps(doc, indent=2) + "\n", cfg)
    return EXIT_OK


def cmd_wavefunction(cfg: RunConfig, n: int) -> int:
    if n > cfg.n_max:
        raise InvalidParams(f"n={n} exceeds n_max={cfg.n_max}")
    route = "standard" if cfg.route == "all" else cfg.route
    params = cfg.system_params()
    require_level(params, n)
    E = energy_closed_form(n, params).E
    grid = routes.default_grid(params, E, cfg.grid_points, cfg.r_min, cfg.r_max)
    if route == "oracle":
        sol = oracle.integrate_radial(params, E, grid=grid)
    else:
        sol = _SOLVERS[route](params, n, grid=grid)
    sol = routes.normalize(sol)
    res = routes.residual(sol)
    if cfg.format == "csv":
        lines = [f"# route: {route}",
                 f"# n: {n}", f"# j: {params.nu - 0.5}", f"# parity: {params.parity}",
                 f"# E: {_fmt(sol.level.E)}",
                 f"# system_residual: {_fmt(res)}",
                 "r,f,g"]
        lines += [f"{r:.16e},{f:.16e},{g:.16e}" for r, f, g
                  in zip(grid.r.tolist(), sol.f.tolist(), sol.g.tolist())]
        _emit("\n".join(lines) + "\n", cfg)
    else:
        doc = {
            "route": route, "n": n, "j": params.nu - 0.5, "parity": params.parity,
            "E": sol.level.E, "system_residual": res,
            "r": grid.r.tolist(), "f": sol.f.tolist(), "g": sol.g.tolist(),
        }
        if not cfg.no_timestamp:
            doc["generated"] = datetime.now(timezone.utc).isoformat()
        _emit(json.dumps(doc) + "\n", cfg)
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    params = cfg.system_params()
    results = verify.run_verification(params, cfg.n_max, route=cfg.route,
                                      tol_override=cfg.tol)
    lines = []
    all_passed = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        all_passed &= res.passed
        line = (f"[{status}] {res.name}: max deviation {res.max_deviation:.3e}"
                f" (tolerance {res.tolerance:.3e})")
        if res.detail:
            line += f" [{res.detail}]"
        lines.append(line)
    lines.append("verification " + ("PASSED" if all_passed else "FAILED"))
    _emit("\n".join(lines) + "\n", cfg)
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heundirac",
        description="Dirac-Coulomb bound states by Kummer/Heun routes and shooting")
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="bound energies for n = 0..n_max")
    _add_common_flags(p_spec)

    p_wf = sub.add_parser("wavefunction", help="tabulate (r, f, g) for one level")
    p_wf.add_argument("--n", type=int, required=True, help="radial quantum number")
    _add_common_flags(p_wf)

    p_ver = sub.add_parser("verify", help="run consistency checks")
    _add_common_flags(p_ver)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "wavefunction":
            return cmd_wavefunction(cfg, args.n)
        if args.command == "verify":
            return cmd_verify(cfg)
        raise InvalidParams(f"unknown command {args.command!r}")
    except _PARAM_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_PARAMS
    except _SOLVER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except HeunDiracError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_PARAMS


if __name__ == "__main__":
    sys.exit(main())
