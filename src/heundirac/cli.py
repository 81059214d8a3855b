"""Command-line front end: spectra, wavefunction tables, verification runs.

Subcommands:
    spectrum      bound energies for n = 0..n_max by any route
    wavefunction  tabulated (r, f, g) for one level, CSV or JSON
    verify        run the consistency checks at the configured parameters

Exit codes: 0 success, 1 verification failure, 2 invalid parameters
(InvalidParams: the request has no answer), 3 solver non-convergence
(NoConvergence: a solver stopped without an answer).  A non-finite or
non-half-integer j, a negative n-max, a tol that is negative or not
finite, and non-finite grid radii exit 2 with a message, as flags and
as config keys alike.

Each subcommand accepts only the options it reads (`_OPTIONS`; its --help
lists them).  Flags override config-file keys, which override defaults.
The config file is flat `key = value` text, keys named like the long flags
without the leading dashes (dashes may be written as underscores), e.g.

    coupling = 0.5
    j = 0.5
    n-max = 3

It is read per subcommand, like the flags: a key the subcommand does not
read, or a value of the wrong type or outside the option's choices, exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from types import SimpleNamespace
from typing import Callable

from . import oracle, routes, verify
from .errors import HeunDiracError, InvalidParams, NoConvergence
from .model import (ANALYTIC_ROUTES, SystemParams, energy_closed_form,
                    level_bracket, level_channel, require_level,
                    solve_quantization)
from .routes import ROUTE_SOLVERS as _SOLVERS

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_PARAMS = 2
EXIT_NO_CONVERGENCE = 3

ROUTE_CHOICES = (*ANALYTIC_ROUTES, "oracle", "all")


@dataclass(frozen=True)
class _Option:
    """One setting, as flag --name-with-dashes and as config key."""

    type: Callable[[str], object]
    default: object
    help: str
    commands: tuple[str, ...]   # the subcommands that read it
    choices: tuple | None = None


def _truthy(text: str) -> bool:
    return text.lower() in ("1", "true", "yes")


def _checked(convert: Callable[[str], object], ok: Callable[[object], bool], rule: str):
    """An option type: convert the text, then raise InvalidParams(rule)
    unless ok(value).  Flags and config keys share it."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise InvalidParams(f"{rule}, got {value}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid <type> value"
    return parse


def _half_integer(j: float) -> bool:
    two_j = 2 * j
    return math.isfinite(j) and abs(two_j - round(two_j)) <= 1e-9 and round(two_j) % 2 != 0


_COMMANDS = {"spectrum": "bound energies for n = 0..n_max",
             "wavefunction": "tabulate (r, f, g) for one level",
             "verify": "run consistency checks"}
_ALL = tuple(_COMMANDS)
_TABLES = ("spectrum", "wavefunction")  # the subcommands that print JSON or CSV

_OPTIONS = {
    "mass": _Option(float, 1.0, "particle mass (default 1)", _ALL),
    "coupling": _Option(float, None, "Coulomb coupling strength e (required)", _ALL),
    "j": _Option(_checked(float, _half_integer, "j must be half-integer (1/2, 3/2, ...)"),
                 0.5, "total angular momentum j (half-integer, default 1/2)", _ALL),
    "parity": _Option(int, 1, "parity channel (+1 or -1, default +1)", _ALL, (1, -1)),
    "n_max": _Option(_checked(int, lambda n: n >= 0, "n_max must be a non-negative integer"),
                     0, "highest radial quantum number (default 0)", _ALL),
    "route": _Option(str, "all", "solution route (default all)", _ALL, ROUTE_CHOICES),
    "format": _Option(str, "json", "output format (default json)", _TABLES,
                      ("json", "csv")),
    "out": _Option(str, None, "output file (default stdout)", _ALL),
    "grid_points": _Option(int, routes.GRID_POINTS, "radial grid size (default 2000)",
                           ("wavefunction",)),
    "r_min": _Option(float, None, "grid start radius (default 0.01/lambda)",
                     ("wavefunction",)),
    "r_max": _Option(float, None, "grid end radius (default 40/lambda)",
                     ("wavefunction",)),
    "tol": _Option(_checked(float, lambda t: 0.0 <= t < math.inf,
                            "tol must be finite and >= 0"),
                   None, "tolerance override for verification checks", ("verify",)),
    "no_timestamp": _Option(_truthy, False,
                            "omit the timestamp field (byte-stable reports)", _TABLES),
}


class RunConfig(SimpleNamespace):
    """Resolved settings of one subcommand: one attribute per option it reads."""

    def system_params(self) -> SystemParams:
        return SystemParams(self.coupling, int(round(self.j + 0.5)), self.mass, self.parity)


def _fmt(x: float) -> str:
    """17 significant digits, scientific: bit-stable across platforms."""
    return f"{x:.16e}"


def _read_config_file(path: str, command: str) -> dict:
    """The file's settings, parsed and checked as `command`'s flags would be."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InvalidParams(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise InvalidParams(f"cannot read config file {path}: not UTF-8 text") from None
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParams(f"{path}:{lineno}: expected key = value")
        key, _, text = line.partition("=")
        key, text = key.strip().replace("-", "_"), text.strip()
        opt = _OPTIONS.get(key)
        if opt is None or command not in opt.commands:
            raise InvalidParams(f"{path}:{lineno}: {command} reads no config key {key!r}")
        try:
            value = opt.type(text)
        except ValueError:
            value = None
        if value is None or opt.choices is not None and value not in opt.choices:
            raise InvalidParams(f"{path}:{lineno}: invalid {key} value {text!r}")
        values[key] = value
    return values


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    merged = {key: opt.default for key, opt in _OPTIONS.items()
              if args.command in opt.commands}
    if args.config:
        merged.update(_read_config_file(args.config, args.command))
    for key in merged:
        flag_val = getattr(args, key)
        if flag_val is not None:
            merged[key] = flag_val
    if merged["coupling"] is None:
        raise InvalidParams("coupling is required (flag --coupling or config file)")
    return RunConfig(**merged)


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
    for command, text in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        if command == "wavefunction":
            p.add_argument("--n", type=int, required=True, help="radial quantum number")
        for key, opt in _OPTIONS.items():
            if command not in opt.commands:
                continue
            flag = "--" + key.replace("_", "-")
            if opt.type is _truthy:
                p.add_argument(flag, action="store_true", default=None, help=opt.help)
            else:
                p.add_argument(flag, type=opt.type, choices=opt.choices, help=opt.help)
        p.add_argument("--config", help="flat key=value config file")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; NoConvergence exits 3, any other HeunDiracError 2."""
    try:
        args = build_parser().parse_args(argv)
        cfg = _resolve_config(args)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "wavefunction":
            return cmd_wavefunction(cfg, args.n)
        if args.command == "verify":
            return cmd_verify(cfg)
        raise InvalidParams(f"unknown command {args.command!r}")
    except HeunDiracError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE if isinstance(exc, NoConvergence) else EXIT_INVALID_PARAMS


if __name__ == "__main__":
    sys.exit(main())
