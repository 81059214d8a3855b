"""Command-line front end: spectra, wavefunction tables, verification runs.

Subcommands:
    spectrum      bound energies for n = 0..n_max by any route
    wavefunction  tabulated (r, f, g) for one level, CSV or JSON
    verify        run the consistency checks at the configured parameters

Exit codes: 0 success, 1 verification failure, 2 invalid parameters
(InvalidParams: the request has no answer), 3 solver non-convergence
(NoConvergence: a solver stopped without an answer).  A non-finite or
non-half-integer j, a negative n-max, a tol that is negative or not
finite, a wavefunction grid of fewer than 5 points or with an overflowing
stencil (checked before the solve), non-finite grid radii, an r-max past
745/lambda and a level whose decay constant m e / sqrt(N^2 + e^2)
underflows to 0 exit 2 with a message, as flags and as config keys alike.

Each subcommand accepts only the options it reads (`_OPTIONS`; its --help
lists them).  A request in exact long flags is read from that table; argparse
is imported only for help, an error or another spelling (`main`).  Flags
override config-file keys, which override defaults.
The config file is flat `key = value` text, keys named like the long flags
without the leading dashes (dashes may be written as underscores), e.g.

    coupling = 0.5
    j = 0.5
    n-max = 3

It is read per subcommand, like the flags: a key the subcommand does not
read, or a value of the wrong type or outside the option's choices, exits 2.
"""

from __future__ import annotations

import json
import math
import re
import sys
import time
from importlib import import_module
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .errors import HeunDiracError, InvalidParams, NoConvergence
from .model import (ANALYTIC_ROUTES, GRID_POINTS, SystemParams, energy_closed_form,
                    level_bracket, level_channel, quantized_routes,
                    require_level, solve_quantization)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_PARAMS = 2
EXIT_NO_CONVERGENCE = 3

ROUTE_CHOICES = (*ANALYTIC_ROUTES, "oracle", "all")


class _Option(NamedTuple):
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
_EXTRA_HELP = {"n": "radial quantum number", "config": "flat key=value config file"}
#: per subcommand, each long flag -> (key, type, choices) in --help's order,
#: type None for a flag that takes no value
_FLAGS = {command: {"--" + key.replace("_", "-"): (key, None if kind is _truthy else kind, choices)
                    for key, kind, choices, commands in (
                        ("n", int, None, ("wavefunction",)),
                        *((key, opt.type, opt.choices, opt.commands)
                          for key, opt in _OPTIONS.items()),
                        ("config", str, None, _ALL))
                    if command in commands}
          for command in _COMMANDS}


class RunConfig(SimpleNamespace):
    """Resolved settings of one subcommand: one attribute per option it reads."""

    def system_params(self) -> SystemParams:
        return SystemParams(self.coupling, int(round(self.j + 0.5)), self.mass, self.parity)


def _fmt(x: float) -> str:
    """17 significant digits, scientific: bit-stable across platforms."""
    return f"{x:.16e}"


def _generated() -> str:
    """A report's UTC stamp as JSON, in the text of
    datetime.now(timezone.utc).isoformat() (the clock floored to whole
    microseconds, none written when they are 0), formed without datetime."""
    seconds, nanos = divmod(time.time_ns(), 1_000_000_000)
    micros = nanos // 1000
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return json.dumps(stamp + (f".{micros:06d}" if micros else "") + "+00:00")


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


def _resolve_config(args) -> RunConfig:
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


#: a spectrum row of an indent=2 report; route all adds the deviation's line
_ROW_JSON = ('    {\n      "n": %d,\n      "j": %r,\n      "parity": %d,\n'
             '      "route": "%s",\n      "E": %r,\n      "E_over_m": %r')


def cmd_spectrum(cfg: RunConfig) -> int:
    """One row per (n, route); route='all' covers the analytic routes that
    quantize level n (quantized_routes), each row with their max_route_deviation."""
    params = cfg.system_params()
    every = cfg.route == "all"
    rows = []
    for n in range(cfg.n_max + 1):
        selected = quantized_routes(params, n) if every else (cfg.route,)
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
        deviation = ((max(energies) - min(energies)) / min(energies),) if every else ()
        rows += [(level.n, level.nu - 0.5, level.parity, route, level.E,
                  level.E / cfg.mass, *deviation) for route, level in per_route.items()]
    if cfg.format == "csv":
        head = "n,j,parity,route,E,E_over_m" + (",max_route_deviation" if every else "")
        line = "{},{:.16e},{},{},{:.16e},{:.16e}" + (",{:.16e}" if every else "")
        lines = [head] + [line.format(*row) for row in rows]
        _emit("\n".join(lines) + "\n", cfg)
    else:
        # json.dumps({"levels": rows, ...}, indent=2), which writes a finite
        # float as its repr; all are finite: m is in [1e-300, 1e300] and each
        # E in (m 2**-28, m) (t = lam/m stays below 1, the oracle above E_0/2),
        # so E/m and the spread over the smallest E are finite
        row = _ROW_JSON + (',\n      "max_route_deviation": %r' if every else "") + "\n    }"
        text = '{\n  "levels": [\n' + ",\n".join([row % v for v in rows]) + "\n  ]"
        if not cfg.no_timestamp:
            text += ',\n  "generated": ' + _generated()
        _emit(text + "\n}\n", cfg)
    return EXIT_OK


def cmd_wavefunction(cfg: RunConfig, n: int) -> int:
    from . import routes, tables
    if n > cfg.n_max:
        raise InvalidParams(f"n={n} exceeds n_max={cfg.n_max}")
    if cfg.grid_points < 5:  # the residual's five-point stencil, checked before the solve
        raise InvalidParams(f"wavefunction needs at least 5 grid points, got {cfg.grid_points}")
    route = "standard" if cfg.route == "all" else cfg.route
    params = cfg.system_params()
    require_level(params, n)
    level = energy_closed_form(n, params)
    grid = routes.default_grid(level.lam, cfg.grid_points, cfg.r_min, cfg.r_max)
    grid._stencil  # the residual's weights: InvalidParams here, before the solve, on overflow
    if route == "oracle":
        from . import oracle
        sol = oracle.integrate_radial(params, level.E, grid)
    else:
        sol = routes.ROUTE_SOLVERS[route](params, level, grid)
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
            text += ', "generated": ' + _generated()
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


def _full_parser():
    """The command-line parser with every subcommand under it, built only to
    print its help or its error, or to read a request _read_flags does not."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="heundirac",
        description="Dirac-Coulomb bound states by Kummer/Heun routes and shooting")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in _COMMANDS.items():
        options = sub.add_parser(command, help=text)
        for flag, (key, convert, choices) in _FLAGS[command].items():
            note = _OPTIONS[key].help if key in _OPTIONS else _EXTRA_HELP[key]
            if convert is None:
                options.add_argument(flag, action="store_true", default=None, help=note)
            else:
                options.add_argument(flag, type=convert, choices=choices,
                                     required=key == "n", help=note)
    return parser


_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's negative-number pattern


def _read_flags(argv: list[str]) -> SimpleNamespace | None:
    """The namespace _full_parser().parse_args(argv) returns, for a request
    of a subcommand and exact long flags, each with its one value (which
    starts with "-" only as a negative number).  None for anything else:
    help, abbreviations, --opt=value, --, unknown or unread tokens, a missing
    --n, a value that does not convert or is no choice."""
    table = _FLAGS.get(argv[0]) if argv else None
    if table is None:
        return None
    # pass 1 classifies every token, as argparse does before it converts any:
    # a later token it cannot read must fall back before an earlier value raises
    pairs, tokens = [], iter(argv[1:])
    for flag in tokens:
        entry = table.get(flag)
        if entry is None:
            return None
        text = None if entry[1] is None else next(tokens, "-")  # "-": no value left
        if text is not None and text.startswith("-") and not _NEGATIVE.match(text):
            return None
        pairs.append((entry, text))
    if "--n" in table and "--n" not in argv:   # no value is "--n" after pass 1
        return None
    args = dict.fromkeys(["command", *(key for key, _, _ in table.values())])
    args["command"] = argv[0]
    # pass 2 converts left to right: a _checked type raises at argparse's token
    for (key, convert, choices), text in pairs:
        try:
            value = True if convert is None else convert(text)
        except (TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        args[key] = value
    return SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; NoConvergence exits 3, any other HeunDiracError 2."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        # the full parser reads, or exits on, what the table reader leaves
        args = _read_flags(argv) or _full_parser().parse_args(argv)
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
    """_SOLVERS: routes.ROUTE_SOLVERS, imported on first read (PEP 562), as
    routes imports numpy, which an analytic spectrum never loads."""
    if name == "_SOLVERS":
        return import_module(".routes", __package__).ROUTE_SOLVERS
    return object.__getattribute__(sys.modules[__name__], name)  # raises AttributeError


if __name__ == "__main__":
    sys.exit(main())
