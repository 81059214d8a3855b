"""Command-line front end: spectra, wavefunction tables, verification runs.

Subcommands:
    spectrum      bound energies for n = 0..n_max by any route
    wavefunction  tabulated (r, f, g) for one level, CSV or JSON
    verify        run the consistency checks at the configured parameters

Exit codes: 0 success, 1 verification failure, 2 invalid parameters
(InvalidParams: the request has no answer), 3 solver non-convergence
(NoConvergence: a solver stopped without an answer).  A non-finite or
non-half-integer j, a negative n-max, a tol that is negative or not
finite, non-finite grid radii, an r-max past 745/lambda and a level whose
decay constant m e / sqrt(N^2 + e^2) underflows to 0 exit 2 with a message,
as flags and as config keys alike.

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
import functools
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import import_module
from types import SimpleNamespace
from typing import Callable

from .errors import HeunDiracError, InvalidParams, NoConvergence
from .model import (ANALYTIC_ROUTES, GRID_POINTS, SystemParams, energy_closed_form,
                    level_bracket, level_channel, quantized_routes,
                    require_level, solve_quantization)

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


def _truthy(text: str) -> bool | None:
    return {"1": True, "true": True, "yes": True,
            "0": False, "false": False, "no": False}.get(text.lower())


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
    "grid_points": _Option(int, GRID_POINTS, f"radial grid size (default {GRID_POINTS})",
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
        try:
            with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidParams(f"cannot write output file {cfg.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


#: a list of spectrum rows as JSON, their keys on the lines of an indent=2 report
_ROWS_JSON = json.JSONEncoder(separators=(",\n      ", ": ")).encode


def cmd_spectrum(cfg: RunConfig) -> int:
    """One row per (n, route); route='all' covers the analytic routes that
    quantize level n (quantized_routes), each row with their max_route_deviation."""
    params = cfg.system_params()
    rows = []
    for n in range(cfg.n_max + 1):
        selected = quantized_routes(params, n) if cfg.route == "all" else (cfg.route,)
        per_route = {}
        for route in selected:
            if route == "oracle":
                from . import oracle
                p = level_channel(params, n)
                require_level(p, n)
                per_route[route] = oracle.shoot_energy(p, *level_bracket(p, n))
            else:
                per_route[route] = solve_quantization(params, n, route)
        energies = [level.E for level in per_route.values()]
        for route, level in per_route.items():
            row = {"n": level.n, "j": level.nu - 0.5, "parity": level.parity,
                   "route": route, "E": level.E, "E_over_m": level.E / cfg.mass}
            if cfg.route == "all":
                row["max_route_deviation"] = (max(energies) - min(energies)) / min(energies)
            rows.append(row)
    if cfg.format == "csv":
        line = "{},{:.16e},{},{},{:.16e},{:.16e}" + (",{:.16e}" if cfg.route == "all" else "")
        lines = [",".join(rows[0])] + [line.format(*row.values()) for row in rows]
        _emit("\n".join(lines) + "\n", cfg)
    else:
        # json.dumps({"levels": rows, "generated": ...}, indent=2): the C encoder
        # writes the rows in one call (json's indent= runs the Python one), and
        # one replace puts each row's braces on lines of their own
        rows_text = _ROWS_JSON(rows)[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
        text = '{\n  "levels": [\n    {\n      ' + rows_text + "\n    }\n  ]"
        if not cfg.no_timestamp:
            text += ',\n  "generated": ' + json.dumps(datetime.now(timezone.utc).isoformat())
        _emit(text + "\n}\n", cfg)
    return EXIT_OK


def cmd_wavefunction(cfg: RunConfig, n: int) -> int:
    from . import routes, tables
    if n > cfg.n_max:
        raise InvalidParams(f"n={n} exceeds n_max={cfg.n_max}")
    route = "standard" if cfg.route == "all" else cfg.route
    params = cfg.system_params()
    require_level(params, n)
    level = energy_closed_form(n, params)
    grid = routes.default_grid(level.lam, cfg.grid_points, cfg.r_min, cfg.r_max)
    if route == "oracle":
        from . import oracle
        sol = oracle.integrate_radial(params, level.E, grid=grid)
    else:
        sol = routes.ROUTE_SOLVERS[route](params, n, grid=grid)
    sol = routes.normalize(sol)
    res = routes.residual(sol)
    if cfg.format == "csv":
        lines = [f"# route: {route}",
                 f"# n: {n}", f"# j: {params.nu - 0.5}", f"# parity: {params.parity}",
                 f"# E: {_fmt(sol.E)}",
                 f"# system_residual: {_fmt(res)}",
                 "r,f,g"]
        _emit("\n".join(lines) + "\n" + tables.csv_rows(grid.r, sol.f, sol.g), cfg)
    else:
        # json.dumps(doc) with the r, f, g lists spliced in before "generated"
        doc = {"route": route, "n": n, "j": params.nu - 0.5, "parity": params.parity,
               "E": sol.E, "system_residual": res}
        text = json.dumps(doc)[:-1]
        for key, values in (("r", grid.r), ("f", sol.f), ("g", sol.g)):
            text += f', "{key}": {tables.json_array(values)}'
        if not cfg.no_timestamp:
            text += ', "generated": ' + json.dumps(datetime.now(timezone.utc).isoformat())
        _emit(text + "}\n", cfg)
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    from . import verify
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
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
        return cmd_verify(cfg)
    except HeunDiracError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE if isinstance(exc, NoConvergence) else EXIT_INVALID_PARAMS


def __getattr__(name: str):
    """oracle, routes, tables, verify and _SOLVERS (routes.ROUTE_SOLVERS),
    imported on first read (PEP 562).  They import numpy, so each subcommand
    imports them where it needs them, and an analytic spectrum never does."""
    if name == "_SOLVERS":
        return import_module(".routes", __package__).ROUTE_SOLVERS
    if name in ("oracle", "routes", "tables", "verify"):
        return import_module(f".{name}", __package__)
    return object.__getattribute__(sys.modules[__name__], name)  # raises AttributeError


if __name__ == "__main__":
    sys.exit(main())
