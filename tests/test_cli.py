"""End-to-end tests of the command-line interface."""

import argparse
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from closed_level import count_closed_forms
from heundirac import (ANALYTIC_ROUTES, HeunDiracError, NoConvergence, SystemParams,
                       energy_closed_form, routes)
from heundirac.cli import (_OPTIONS, EXIT_INVALID_PARAMS, EXIT_NO_CONVERGENCE, EXIT_OK,
                           EXIT_VERIFY_FAILED, ROUTE_CHOICES, _full_parser, _read_flags,
                           main)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_fine_structure_coupling(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--coupling", "0.0072973525693",
                           "--j", "0.5", "--n-max", "0", "--route", "heun",
                           "--no-timestamp")
    assert code == EXIT_OK
    doc = json.loads(out)
    level = doc["levels"][0]
    e = 0.0072973525693
    assert level["E_over_m"] == pytest.approx(math.sqrt(1 - e * e), rel=1e-12)
    assert set(level) >= {"n", "j", "parity", "route", "E", "E_over_m"}


def test_spectrum_all_routes_deviation_column(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--coupling", "0.5", "--j", "0.5",
                           "--n-max", "3", "--route", "all", "--no-timestamp")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["levels"]) == 4 * 4
    for level in doc["levels"]:
        assert level["max_route_deviation"] < 1e-10


def test_spectrum_supercritical_coupling_exits_2(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--coupling", "1.5", "--j", "0.5")
    assert code == EXIT_INVALID_PARAMS
    assert "supercritical" in err


def test_spectrum_rejects_non_half_integer_j(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--coupling", "0.5", "--j", "0.7")
    assert code == EXIT_INVALID_PARAMS


@pytest.mark.parametrize("route", ANALYTIC_ROUTES)
def test_spectrum_where_the_decay_constant_underflows_exits_2(capsys, route):
    # lam = m e / sqrt(N^2 + e^2) rounds to 0 from n = 1 on: no level to solve for
    code, out, err = run_cli(capsys, "spectrum", "--route", route, "--coupling", "5e-324",
                             "--n-max", "2")
    assert (code, out) == (EXIT_INVALID_PARAMS, "")
    assert "the decay constant m e / sqrt(N^2 + e^2) underflows to 0" in err


@pytest.mark.parametrize("route", ("mixed2", "heun"))
def test_wavefunction_where_the_heun_variable_overflows_exits_2(capsys, route):
    # k r = r/X, |X| of order e/m, overflows on the n = 0 grid at e = 1e-160
    code, out, err = run_cli(capsys, "wavefunction", "--route", route, "--coupling", "1e-160",
                             "--parity", "-1", "--n", "0", "--n-max", "0")
    assert (code, out) == (EXIT_INVALID_PARAMS, "")
    assert "the polynomial variable k r overflows" in err


def test_single_route_parity_minus_spectrum_exits_0(capsys):
    # the standard route's bracket 0 < lam/m < 1 spans E = m cos A, where
    # only the (unused) case-1 map is singular
    code, out, err = run_cli(capsys, "spectrum", "--route", "standard",
                             "--coupling", "0.55", "--parity", "-1", "--n-max", "5",
                             "--mass", "0.51099895", "--no-timestamp")
    assert code == EXIT_OK, err
    assert [lvl["n"] for lvl in json.loads(out)["levels"]] == list(range(6))


def test_all_routes_parity_minus_spectrum_leaves_out_the_mixed1_pole_row(capsys):
    # the nodeless level sits on the case-1 pole: route all reports the three
    # routes that quantize it, and all four at every n >= 1
    code, out, err = run_cli(capsys, "spectrum", "--route", "all", "--coupling", "0.5",
                             "--parity", "-1", "--n-max", "5", "--no-timestamp")
    assert code == EXIT_OK, err
    rows = [(lvl["n"], lvl["route"]) for lvl in json.loads(out)["levels"]]
    assert rows == ([(0, route) for route in ANALYTIC_ROUTES if route != "mixed1"]
                    + [(n, route) for n in range(1, 6) for route in ANALYTIC_ROUTES])
    for lvl in json.loads(out)["levels"]:
        exact = energy_closed_form(lvl["n"], SystemParams(0.5, 1, parity=-1)).E
        assert lvl["E"] == pytest.approx(exact, rel=1e-14)
        assert lvl["max_route_deviation"] < 1e-14


def test_mixed1_parity_minus_spectrum_still_exits_2_at_the_nodeless_level(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--route", "mixed1", "--coupling", "0.5",
                           "--parity", "-1", "--n-max", "5", "--no-timestamp")
    assert code == EXIT_INVALID_PARAMS
    assert "sits on the case-1 pole E = m cos A" in err


def test_all_routes_spectrum_where_the_case1_pole_is_reached_exits_2(capsys):
    # at e = 1e-200, parity -1 the case-1 c_plus underflows to 0 inside the bracket
    code, out, err = run_cli(capsys, "spectrum", "--route", "all", "--coupling", "1e-200",
                             "--parity", "-1", "--n-max", "2")
    assert (code, out) == (EXIT_INVALID_PARAMS, "")
    assert err == "error: case-1 singular point diverges at this energy (E + m_eff cos A = 0)\n"


def test_spectrum_csv_determinism(capsys):
    args = ("spectrum", "--coupling", "0.3", "--j", "1.5", "--n-max", "2",
            "--route", "standard", "--format", "csv", "--no-timestamp")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert "\r" not in out1
    header = out1.splitlines()[0]
    assert header.startswith("n,j,parity,route,E,E_over_m")


def test_spectrum_oracle_route(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--coupling", "0.5", "--j", "0.5",
                           "--n-max", "1", "--route", "oracle", "--no-timestamp")
    assert code == EXIT_OK
    doc = json.loads(out)
    by_n = {lvl["n"]: lvl for lvl in doc["levels"]}
    # the nodeless level is reported from the channel that hosts it
    assert by_n[0]["parity"] == -1
    assert by_n[0]["E"] == pytest.approx(math.sqrt(3) / 2, abs=1e-8)
    assert by_n[1]["E"] == pytest.approx(0.9659258262890684, abs=1e-8)


def test_wavefunction_ground_state_nodeless(capsys, tmp_path):
    out_file = tmp_path / "wf.csv"
    code, _, _ = run_cli(capsys, "wavefunction", "--n", "0", "--coupling", "0.5",
                         "--j", "0.5", "--parity", "-1", "--route", "heun",
                         "--format", "csv", "--out", str(out_file),
                         "--no-timestamp")
    assert code == EXIT_OK
    lines = out_file.read_text().splitlines()
    data = [line.split(",") for line in lines if not line.startswith("#")][1:]
    f_vals = [float(row[1]) for row in data]
    signs = {math.copysign(1.0, v) for v in f_vals if abs(v) > 1e-9 * max(map(abs, f_vals))}
    assert len(signs) == 1  # no interior sign change
    meta = {line.split(":")[0] for line in lines if line.startswith("#")}
    assert "# system_residual" in meta


def test_wavefunction_two_nodes(capsys):
    code, out, _ = run_cli(capsys, "wavefunction", "--n", "2", "--n-max", "2",
                           "--coupling", "0.5", "--j", "0.5", "--parity", "-1",
                           "--no-timestamp")
    assert code == EXIT_OK
    doc = json.loads(out)
    f_vals = doc["f"]
    fmax = max(abs(v) for v in f_vals)
    kept = [v for v in f_vals if abs(v) > 1e-9 * fmax]
    flips = sum(1 for a, b in zip(kept, kept[1:])
                if math.copysign(1, a) != math.copysign(1, b))
    assert flips == 2
    assert doc["system_residual"] < 1e-6


@pytest.mark.parametrize("route", ANALYTIC_ROUTES)
def test_wavefunction_forms_its_level_once(capsys, monkeypatch, route):
    # counted at every binding: the route builds the level the request formed
    formed = count_closed_forms(monkeypatch)
    code, _, _ = run_cli(capsys, "wavefunction", "--route", route, "--n", "1", "--n-max", "1",
                         "--coupling", "0.5", "--grid-points", "50", "--no-timestamp")
    assert code == EXIT_OK
    assert formed == {(1, 1): 1}


def test_wavefunction_empty_grid_exits_2(capsys):
    code, _, _ = run_cli(capsys, "wavefunction", "--n", "1", "--n-max", "1",
                         "--coupling", "0.5", "--j", "0.5", "--grid-points", "1")
    assert code == EXIT_INVALID_PARAMS


@pytest.mark.parametrize("points", (1, 2, 4))
def test_wavefunction_grid_below_five_points_exits_2_before_the_solve(capsys, monkeypatch,
                                                                       points):
    def unreachable(*args, **kwargs):
        raise AssertionError("solved a grid the residual cannot check")
    monkeypatch.setitem(routes.ROUTE_SOLVERS, "standard", unreachable)
    code, out, err = run_cli(capsys, "wavefunction", "--n", "1", "--n-max", "1",
                             "--coupling", "0.5", "--grid-points", str(points))
    assert code == EXIT_INVALID_PARAMS
    assert out == ""
    assert err == f"error: wavefunction needs at least 5 grid points, got {points}\n"


@pytest.mark.parametrize("argv, formed", (
    (("wavefunction", "--route", "standard", "--n", "2", "--n-max", "2"), 0),
    (("wavefunction", "--route", "heun", "--n", "2", "--n-max", "2", "--grid-points", "20000"),
     0),
    (("verify", "--route", "all", "--n-max", "3"), 0),
    (("wavefunction", "--route", "oracle", "--n", "1", "--n-max", "1"), 1)))
def test_only_the_oracle_residual_forms_the_stencil(capsys, monkeypatch, argv, formed):
    # an analytic solution carries its closed-form derivatives; the oracle's
    # residual forms its grid's stencil once
    calls, exact = [], routes._stencil

    def counted(*args):
        calls.append(args)
        return exact(*args)
    monkeypatch.setattr(routes, "_stencil", counted)
    code, _, _ = run_cli(capsys, *argv, "--coupling", "0.5")
    assert code == EXIT_OK
    assert len(calls) == formed


@pytest.mark.parametrize("points,r_min", ((5, "1e-300"), (7, "1e-300"), (12, "1e-300"),
                                          (2000, "1e-308")))
def test_oracle_wavefunction_grid_whose_stencil_overflows_exits_2_before_the_solve(
        capsys, monkeypatch, points, r_min):
    # the stencil's weights would overflow: across the few points of a 1e-300
    # grid, and from the near-1e-308 spacings of the 2000-point one; the oracle
    # rejects both grids, which start below its seed radius, before its first
    # propagator, and an analytic route, which carries its derivatives,
    # answers on the same grid
    from heundirac import oracle

    def unreachable(*args, **kwargs):
        raise AssertionError("integrated a grid outside the oracle's window")
    monkeypatch.setattr(oracle, "_propagators", unreachable)
    argv = ("wavefunction", "--coupling", "0.5", "--n", "1", "--n-max", "1",
            "--grid-points", str(points), "--r-min", r_min, "--no-timestamp")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, *argv, "--route", "oracle")
        analytic_code, analytic_out, _ = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_INVALID_PARAMS, "")
    assert err == "error: grid must lie within [r_seed, r_max] of the oracle\n"
    assert analytic_code == EXIT_OK
    assert json.loads(analytic_out)["system_residual"] < 1e-8


def test_oracle_wavefunction_whose_stencil_overflows_in_the_window_exits_2(capsys):
    # at m = 1e300 the oracle's window reaches below 1e-308, where the residual's
    # weights, in units of length, overflow: the table is solved, then refused
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "wavefunction", "--route", "oracle", "--coupling",
                                 "0.5", "--n", "1", "--n-max", "1", "--mass", "1e300",
                                 "--r-min", "1e-311", "--grid-points", "50")
    r_max = 40 / energy_closed_form(1, SystemParams(0.5, 1, m=1e300)).lam
    assert (code, out) == (EXIT_INVALID_PARAMS, "")
    assert err == ("error: the derivative stencil overflows on the 50-point grid "
                   f"from r_min=1e-311 to r_max={r_max}\n")


def test_wavefunction_on_a_20_point_grid_from_1e_300_keeps_its_table(capsys):
    # served, its residual at the rounding floor (4.7e84 by the stencil)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = run_cli(capsys, "wavefunction", "--coupling", "0.5", "--n", "1",
                               "--n-max", "1", "--grid-points", "20", "--r-min", "1e-300",
                               "--no-timestamp")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["r"]) == 20 and doc["system_residual"] == 1.3801333693349587e-15


def test_wavefunction_on_five_grid_points_exits_0(capsys):
    code, out, _ = run_cli(capsys, "wavefunction", "--n", "1", "--n-max", "1",
                           "--coupling", "0.5", "--grid-points", "5")
    assert code == EXIT_OK
    assert len(json.loads(out)["r"]) == 5


def test_wavefunction_n_above_n_max_exits_2(capsys):
    code, _, _ = run_cli(capsys, "wavefunction", "--n", "3", "--n-max", "1",
                         "--coupling", "0.5", "--j", "0.5")
    assert code == EXIT_INVALID_PARAMS


def test_wavefunction_inverted_radii_exits_2(capsys):
    code, _, err = run_cli(capsys, "wavefunction", "--n", "1", "--n-max", "1",
                           "--coupling", "0.5", "--r-min", "5", "--r-max", "1")
    assert code == EXIT_INVALID_PARAMS
    assert "need 0 < r_min < r_max, got (5.0, 1.0)" in err


@pytest.mark.parametrize("route", ("standard", "oracle"))
@pytest.mark.parametrize("r_max", (None, "30"))
def test_wavefunction_zero_coupling_exits_2(capsys, route, r_max):
    argv = ["wavefunction", "--route", route, "--coupling", "0", "--n", "1",
            "--n-max", "1"]
    if r_max is not None:
        argv += ["--r-max", r_max]
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_INVALID_PARAMS
    assert "zero coupling supports no bound states" in err


@pytest.mark.parametrize("parity,expected", (("1", EXIT_INVALID_PARAMS), ("-1", EXIT_OK)))
def test_oracle_wavefunction_nodeless_level_needs_parity_minus(capsys, parity, expected):
    p = SystemParams(0.5, 1, parity=int(parity))
    lam = p.decay_constant(energy_closed_form(0, p).E)
    code, out, err = run_cli(capsys, "wavefunction", "--route", "oracle",
                             "--coupling", "0.5", "--parity", parity, "--n", "0",
                             "--r-max", repr(15.0 / lam), "--no-timestamp")
    assert code == expected, err
    if expected == EXIT_OK:
        f = json.loads(out)["f"]
        assert abs(f[-1]) < 1e-4 * max(abs(v) for v in f)
    else:
        assert "nodeless n=0 level" in err


def test_oracle_wavefunction_inside_window_exits_0(capsys):
    E = energy_closed_form(1, SystemParams(0.5, 1)).E
    lam = math.sqrt(1.0 - E * E)
    code, out, err = run_cli(capsys, "wavefunction", "--route", "oracle",
                             "--coupling", "0.5", "--n", "1", "--n-max", "1",
                             "--r-max", repr(15.0 / lam), "--no-timestamp")
    assert code == EXIT_OK, err
    doc = json.loads(out)
    assert doc["E"] == E
    assert abs(doc["f"][-1]) < 1e-4 * max(abs(v) for v in doc["f"])


def test_verify_default_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--coupling", "0.5", "--j", "0.5",
                           "--n-max", "2")
    assert code == EXIT_OK
    assert "verification PASSED" in out
    assert "[FAIL]" not in out


def test_verify_unattainable_tolerance_reports_failures(capsys):
    code, out, _ = run_cli(capsys, "verify", "--coupling", "0.5", "--j", "0.5",
                           "--n-max", "1", "--tol", "1e-20")
    assert code == EXIT_VERIFY_FAILED
    assert "[FAIL]" in out
    assert "max deviation" in out


def test_verify_oracle_subset(capsys):
    code, out, _ = run_cli(capsys, "verify", "--coupling", "0.5", "--j", "0.5",
                           "--n-max", "1", "--route", "oracle")
    assert code == EXIT_OK
    assert "oracle_spectrum" in out
    assert "spectrum_route_equality" not in out


@pytest.mark.parametrize("route", ("all", "standard", "mixed1", "oracle"))
def test_verify_zero_coupling_exits_2(capsys, route):
    code, out, err = run_cli(capsys, "verify", "--coupling", "0", "--n-max", "1",
                             "--route", route)
    assert code == EXIT_INVALID_PARAMS
    assert out == ""
    assert err == "error: zero coupling supports no bound states\n"


def test_oracle_spectrum_zero_coupling_names_the_coupling(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--route", "oracle", "--coupling", "0",
                           "--n-max", "1")
    assert code == EXIT_INVALID_PARAMS
    assert err == "error: zero coupling supports no bound states\n"


def test_config_file_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sample configuration\ncoupling = 0.3\nj = 0.5\nn-max = 1\n"
                   "route = standard\nno-timestamp = true\n")
    code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["levels"]) == 2
    assert "generated" not in doc
    # flag overrides the file
    code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg),
                           "--n-max", "0")
    assert len(json.loads(out)["levels"]) == 1


def test_config_file_unknown_key_exits_2(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("couplingg = 0.3\n")
    code, _, _ = run_cli(capsys, "spectrum", "--config", str(cfg))
    assert code == EXIT_INVALID_PARAMS


def test_missing_coupling_exits_2(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--j", "0.5")
    assert code == EXIT_INVALID_PARAMS
    assert "coupling" in err


def test_solver_failure_maps_to_exit_3(capsys, monkeypatch):
    from heundirac import oracle

    def explode(*args, **kwargs):
        raise NoConvergence("synthetic bracket failure")

    monkeypatch.setattr(oracle, "shoot_energy", explode)
    code, _, err = run_cli(capsys, "spectrum", "--coupling", "0.5", "--j", "0.5",
                           "--n-max", "0", "--route", "oracle")
    assert code == EXIT_NO_CONVERGENCE
    assert "bracket" in err


@pytest.mark.parametrize("instant", (1_700_000_000 * 10**9, 1_700_000_000_999_999_999,
                                     1_709_210_096_500_000_000, 0),
                         ids=("whole second", "999999 us", "leap day", "epoch"))
def test_stamp_is_the_text_datetime_writes(monkeypatch, instant):
    # datetime.now(timezone.utc).isoformat() at the clock floored to a microsecond
    import time
    from datetime import datetime, timedelta, timezone

    import heundirac.cli as cli
    monkeypatch.setattr(time, "time_ns", lambda: instant)
    expected = datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(microseconds=instant // 1000)
    assert cli._generated() == json.dumps(expected.isoformat())


def test_json_timestamp_present_by_default(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--coupling", "0.5", "--j", "0.5",
                           "--n-max", "0", "--route", "standard")
    assert code == EXIT_OK
    assert "generated" in json.loads(out)


# the options each subcommand reads, besides --help and --config
SUBCOMMAND_OPTIONS = {
    "spectrum": {"mass", "coupling", "j", "parity", "n-max", "route", "format", "out",
                 "no-timestamp"},
    "wavefunction": {"mass", "coupling", "j", "parity", "n-max", "route", "format",
                     "out", "no-timestamp", "n", "grid-points", "r-min", "r-max"},
    "verify": {"mass", "coupling", "j", "parity", "n-max", "route", "out", "tol"},
}
BASE_ARGV = {
    "spectrum": ("spectrum", "--coupling", "0.5"),
    "wavefunction": ("wavefunction", "--coupling", "0.5", "--n", "1", "--n-max", "1"),
    "verify": ("verify", "--coupling", "0.5", "--n-max", "0"),
}
UNREAD_VALUES = {"grid-points": "50", "r-min": "0.1", "r-max": "30", "tol": "1e-8",
                 "format": "csv", "no-timestamp": None}
UNREAD = [*(("spectrum", o) for o in ("grid-points", "r-min", "r-max", "tol")),
          ("wavefunction", "tol"),
          *(("verify", o) for o in ("format", "grid-points", "r-min", "r-max",
                                    "no-timestamp"))]


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_OPTIONS))
def test_subcommand_lists_exactly_its_options(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == EXIT_OK
    listed = set(re.findall(r"^  (?:-h, )?--([\w-]+)", capsys.readouterr().out, re.M))
    assert listed == SUBCOMMAND_OPTIONS[command] | {"help", "config"}


def test_grid_points_default_is_the_default_grid_size(capsys):
    # one constant: the --grid-points default, default_grid's and the help text
    points = inspect.signature(routes.default_grid).parameters["points"].default
    assert _OPTIONS["grid_points"].default == points == routes.GRID_POINTS == 2000
    with pytest.raises(SystemExit):
        main(["wavefunction", "--help"])
    assert ("  --grid-points GRID_POINTS\n                        radial grid size "
            "(default 2000)\n") in capsys.readouterr().out


@pytest.mark.parametrize("command,option", UNREAD)
def test_option_the_subcommand_does_not_read_exits_2(capsys, tmp_path, command, option):
    value = UNREAD_VALUES[option]
    with pytest.raises(SystemExit) as exc:
        main([*BASE_ARGV[command], f"--{option}", *([value] if value else [])])
    assert exc.value.code == EXIT_INVALID_PARAMS
    assert f"unrecognized arguments: --{option}" in capsys.readouterr().err

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{option} = {value or 'true'}\n")
    code, out, err = run_cli(capsys, *BASE_ARGV[command], "--config", str(cfg))
    assert (code, out) == (EXIT_INVALID_PARAMS, "")
    assert err == (f"error: {cfg}:1: {command} reads no config key "
                   f"{option.replace('-', '_')!r}\n")


@pytest.mark.parametrize("text,key", ((b"coupling = abc\n", "coupling"),
                                      (b"coupling =\n", "coupling"),
                                      (b"coupling = 0.5\nn-max = 1.5\n", "n_max"),
                                      (b"coupling = 0.5  # \xff\n", None),
                                      (None, None),
                                      # a boolean reads only 1/true/yes and 0/false/no
                                      *((b"coupling = 0.5\nno-timestamp = " + word + b"\n",
                                         "no_timestamp")
                                        for word in (b"maybe", b"2", b"on", b"off", b""))))
def test_malformed_config_exits_2(capsys, tmp_path, text, key):
    cfg = tmp_path / "run.cfg"
    if text is not None:
        cfg.write_bytes(text)
    code, out, err = run_cli(capsys, "spectrum", "--config", str(cfg))
    assert (code, out) == (EXIT_INVALID_PARAMS, "")
    assert err.startswith("error: ") and str(cfg) in err
    if key is not None:
        assert f"invalid {key} value" in err


@pytest.mark.parametrize("line", ("route = bogus", "parity = 2", "format = xml"))
def test_config_value_outside_choices_exits_2(capsys, tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"coupling = 0.5\n{line}\n")
    code, out, err = run_cli(capsys, "spectrum", "--config", str(cfg))
    assert (code, out) == (EXIT_INVALID_PARAMS, "")
    assert f"invalid {line.split()[0]} value" in err


@pytest.mark.parametrize("text,value", (("1", True), ("true", True), ("Yes", True),
                                        ("TRUE", True), ("0", False), ("false", False),
                                        ("No", False)))
def test_config_boolean_spellings(capsys, tmp_path, text, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"coupling = 0.5\nno-timestamp = {text}\n")
    code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg))
    assert code == EXIT_OK
    assert ("generated" in json.loads(out)) is not value


@pytest.mark.parametrize("command", (("spectrum", "--coupling", "0.5"),
                                     ("verify", "--coupling", "0.5", "--n-max", "1")))
@pytest.mark.parametrize("target", ("directory", "missing parent"))
def test_unwritable_out_exits_2(capsys, tmp_path, command, target):
    out_path = tmp_path if target == "directory" else tmp_path / "no_such_dir" / "x.txt"
    code, out, err = run_cli(capsys, *command, "--out", str(out_path))
    assert (code, out) == (EXIT_INVALID_PARAMS, "")
    assert err.startswith(f"error: cannot write output file {out_path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def _fresh_python(*args):
    """Run `python *args` in a new interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})


def test_no_request_loads_scipy():
    # a fresh interpreter serves an analytic spectrum, a verify run and an
    # oracle spectrum without importing scipy: it would cost ~0.5 s a start
    script = """import contextlib, io, sys
import heundirac.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["spectrum", "--route", "all", "--n-max", "3"],
                 ["verify", "--n-max", "2"],
                 ["spectrum", "--route", "oracle", "--n-max", "2"]):
        assert cli.main([*argv, "--coupling", "0.5"]) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    proc = _fresh_python("-c", script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_analytic_spectrum_loads_no_numpy(tmp_path):
    # numpy's import is about half of a spectrum shell call; dataclasses (which
    # loads inspect), datetime and the rotation-case and Heun-map layer (maps)
    # cost milliseconds more.  A CSV, an unstamped and a stamped JSON report
    # load none of them; only a quantization step whose inline terms are not
    # finite loads maps, for the error its reference raises.  The numpy
    # modules load on first use, also after a numpy-free start
    cfg = tmp_path / "run.cfg"
    cfg.write_text("coupling = 0.25\nroute = mixed2\nn-max = 3\n")
    script = f"""import contextlib, io, json, sys
import heundirac.model
assert "numpy" not in sys.modules
import heundirac.cli as cli
spared = ("numpy", "dataclasses", "inspect", "datetime", "heundirac.maps")
unstamped = [["spectrum", "--route", "all", "--coupling", "0.5", "--format", "csv"],
             ["spectrum", "--route", "all", "--coupling", "0.5", "--n-max", "4",
              "--no-timestamp"]]
stamped = [["spectrum", "--route", "all", "--coupling", "0.5", "--n-max", "4"],
           ["spectrum", "--route", "heun", "--coupling", "0.5", "--parity", "-1",
            "--n-max", "3"],
           ["spectrum", "--config", {str(cfg)!r}]]
numpy_served = [(0, ["wavefunction", "--coupling", "0.5", "--n", "1", "--n-max", "1"]),
                (0, ["verify", "--coupling", "0.5", "--n-max", "1"]),
                (0, ["spectrum", "--route", "oracle", "--coupling", "0.5", "--n-max", "1"])]
for argv in unstamped + stamped:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0, argv
    if argv in stamped:
        assert "generated" in json.loads(out.getvalue()), argv
    loaded = [name for name in spared if name in sys.modules]
    assert not loaded, (argv, loaded)
# at e = 1e-200, parity -1 the case-1 c_plus underflows to 0: the step's fallback
with contextlib.redirect_stdout(io.StringIO()) as out, \\
        contextlib.redirect_stderr(io.StringIO()) as err:
    code = cli.main(["spectrum", "--route", "all", "--coupling", "1e-200", "--parity", "-1",
                     "--n-max", "2"])
assert (code, out.getvalue(), err.getvalue()) == (
    2, "", "error: case-1 singular point diverges at this energy (E + m_eff cos A = 0)\\n")
loaded = [name for name in spared if name in sys.modules]
assert loaded == ["heundirac.maps"], loaded
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        cli.main(["spectrum", "--help"])
    except SystemExit as exc:
        help_code = exc.code
    assert help_code == 0 and "numpy" not in sys.modules
    for code, argv in numpy_served:
        assert cli.main(argv) == code, argv
print("numpy" in sys.modules)
"""
    proc = _fresh_python("-c", script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")


def test_analytic_spectrum_loads_no_argparse():
    # the option table reads these requests: argparse, with the gettext and
    # locale its messages load, is imported for help, errors and other spellings
    script = """import contextlib, io, json, sys
import heundirac.cli as cli
spared = ("argparse", "gettext", "locale")
for argv in (["spectrum", "--route", "all", "--coupling", "0.5", "--n-max", "8",
              "--format", "csv"],
             ["spectrum", "--route", "all", "--coupling", "0.5", "--n-max", "8"]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0, argv
    loaded = [name for name in spared if name in sys.modules]
    assert not loaded, (argv, loaded)
assert "generated" in json.loads(out.getvalue())
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert cli.main(["spectrum", "--coup", "0.5", "--route=all", "--n-max", "8",
                     "--format", "csv", "--no-timestamp"]) == 0
print("argparse" in sys.modules, out.getvalue() == open(sys.argv[1]).read())
"""
    golden = Path(__file__).parent / "data" / "spectrum_all_e0p5.csv"
    proc = _fresh_python("-c", script, str(golden))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True True\n", "")


def test_analytic_wavefunction_loads_no_oracle():
    # the shooting oracle is imported by the oracle route alone
    script = """import contextlib, io, sys
import heundirac.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["wavefunction", "--route", "standard", "--coupling", "0.5", "--n", "1",
                     "--n-max", "1", "--grid-points", "50"])
assert code == 0 and "heundirac.oracle" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["wavefunction", "--route", "oracle", "--coupling", "0.5", "--n", "1",
                     "--n-max", "1", "--grid-points", "50"])
print(code, "heundirac.oracle" in sys.modules)
"""
    proc = _fresh_python("-c", script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 True\n", "")


def test_verify_route_all_loads_no_oracle():
    # only the oracle check shoots; verify --route all leaves it out
    script = """import contextlib, io, sys
import heundirac.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "--route", "all", "--coupling", "0.5", "--n-max", "1"])
assert code == 0 and "heundirac.oracle" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "--route", "oracle", "--coupling", "0.5", "--n-max", "1"])
print(code, "heundirac.oracle" in sys.modules)
"""
    proc = _fresh_python("-c", script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 True\n", "")


def test_module_entry_point_rejects_unread_option():
    proc = _fresh_python("-m", "heundirac", "verify", "--coupling", "0.5", "--n-max", "1",
                         "--format", "csv")
    assert (proc.returncode, proc.stdout) == (EXIT_INVALID_PARAMS, "")
    assert "unrecognized arguments: --format csv" in proc.stderr


# inputs outside the contract of one option: (subcommand base argv, option,
# value, stderr fragment); each exits 2 as a flag and as a config key
CONTRACT_BREAKS = [
    (("spectrum", "--coupling", "0.5"), "j", "inf", "j must be half-integer"),
    (("spectrum", "--coupling", "0.5"), "j", "nan", "j must be half-integer"),
    (("spectrum", "--coupling", "0.5"), "n-max", "-1",
     "n_max must be a non-negative integer"),
    (("verify", "--coupling", "0.5"), "n-max", "-1",
     "n_max must be a non-negative integer"),
    (("verify", "--coupling", "0.5", "--n-max", "1"), "tol", "nan",
     "tol must be finite and >= 0"),
    (("verify", "--coupling", "0.5", "--n-max", "1"), "tol", "-1",
     "tol must be finite and >= 0"),
    (("verify", "--coupling", "0.5", "--n-max", "1"), "tol", "inf",
     "tol must be finite and >= 0"),
    (BASE_ARGV["wavefunction"], "r-max", "inf", "need 0 < r_min < r_max"),
    (BASE_ARGV["wavefunction"], "r-max", "1e300", "need r_max <= 745/lambda"),
    (BASE_ARGV["wavefunction"], "r-max", "1e20", "need r_max <= 745/lambda"),
    # lam = m e / sqrt(N^2 + e^2) underflows to 0: the level has no grid
    (("wavefunction", "--coupling", "1e-30", "--n", "1", "--n-max", "1"), "mass", "1e-300",
     "the decay constant m e / sqrt(N^2 + e^2) underflows to 0"),
    # masses past the admitted range: E + m overflows near 1e305, and the
    # radial grid near 1e-310
    (("spectrum", "--coupling", "0.5", "--n-max", "3"), "mass", "1e308",
     "mass must be in [1e-300, 1e300]"),
    (("verify", "--coupling", "0.5", "--n-max", "1"), "mass", "1e308",
     "mass must be in [1e-300, 1e300]"),
    (BASE_ARGV["wavefunction"], "mass", "1e305", "mass must be in [1e-300, 1e300]"),
    (BASE_ARGV["spectrum"], "mass", "1e-310", "mass must be in [1e-300, 1e300]"),
]


def _with_option(tmp_path, base, option, value, as_config):
    if as_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{option} = {value}\n")
        return (*base, "--config", str(cfg))
    return (*base, f"--{option}", value)


@pytest.mark.parametrize("as_config", (False, True), ids=("flag", "config"))
@pytest.mark.parametrize("base,option,value,message", CONTRACT_BREAKS,
                         ids=[f"{b[0]}-{o}={v}" for b, o, v, _ in CONTRACT_BREAKS])
def test_input_outside_the_contract_exits_2(capsys, tmp_path, base, option, value,
                                            message, as_config):
    code, out, err = run_cli(capsys, *_with_option(tmp_path, base, option, value, as_config))
    assert (code, out) == (EXIT_INVALID_PARAMS, "")
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


# Masses at which m^2 - E^2 is no normal double, the two ends of the mass
# range, and a coupling at which m - E is 5e-15 m: each level carries its
# exact lam, so each answers.
EDGE_OF_RANGE = [
    *((base, "mass", m) for base in (("spectrum", "--coupling", "0.5"),
                                     ("verify", "--coupling", "0.5", "--n-max", "1"))
      for m in ("1e-300", "1e-160", "1e200", "1e300")),
    *((base, "coupling", "1e-7") for base in (("spectrum", "--n-max", "1", "--route", "standard"),
                                            ("verify", "--n-max", "1"))),
]


@pytest.mark.parametrize("as_config", (False, True), ids=("flag", "config"))
@pytest.mark.parametrize("base,option,value", EDGE_OF_RANGE,
                         ids=[f"{b[0]}-{o}={v}" for b, o, v in EDGE_OF_RANGE])
def test_input_at_the_edge_of_the_range_answers(capsys, tmp_path, base, option, value,
                                                as_config):
    code, out, err = run_cli(capsys, *_with_option(tmp_path, base, option, value, as_config))
    if option == "mass":
        # the same answer as at m = 1: E/m within 1e-14, since the solve is
        # scale-free in t = lam/m, and the same verdict from every check
        ref_code, ref, _ = run_cli(capsys, *base)
        assert code == ref_code == EXIT_OK, err
        if base[0] == "spectrum":
            rows, ref_rows = json.loads(out)["levels"], json.loads(ref)["levels"]
            assert [r["route"] for r in rows] == [r["route"] for r in ref_rows]
            for row, ref_row in zip(rows, ref_rows):
                assert row["E_over_m"] == pytest.approx(ref_row["E_over_m"], rel=1e-14)
        else:
            assert ([line.split(":")[0] for line in out.splitlines()]
                    == [line.split(":")[0] for line in ref.splitlines()])
    elif base[0] == "spectrum":
        assert code == EXIT_OK, err
        p = SystemParams(1e-7, 1)
        for row in json.loads(out)["levels"]:
            exact = energy_closed_form(row["n"], p).E
            assert abs(row["E"] - exact) < 1e-12
    else:
        # every check runs; the quantization checks and the scaled-variable
        # identity (in its conditioned form) pass, while the wavefunction
        # checks fail on the weak-coupling backward Heun recurrence
        assert code == EXIT_VERIFY_FAILED, err
        status = {line[7:].split(":")[0]: line[1:5] for line in out.splitlines()[:-1]}
        assert status["spectrum_route_equality"] == "PASS"
        assert status["quantization_residuals_at_levels"] == "PASS"
        assert status["scaled_variable_identities"] == "PASS"


@pytest.mark.parametrize("route, message", (
    ("heun", "the case-0 G from dF/dr overflows at m=1e+300, n=24"),
    ("mixed1", "the case-1 amplitude ratio of F to G overflows at m=1e+300, n=24")))
def test_heavy_mass_high_n_wavefunction_overflow_exits_2_naming_it(capsys, route, message):
    # case 0 forms its slopes in units of 1/length, and case 1's ratio divides
    # by R times the Heun polynomial's top coefficient, which underflows; the
    # standard and mixed2 routes answer the same request
    argv = ("wavefunction", "--coupling", "0.5", "--n", "24", "--n-max", "24",
            "--mass", "1e300", "--no-timestamp")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv, "--route", route)
        answers = [run_cli(capsys, *argv, "--route", other)[0] for other in ("standard", "mixed2")]
    assert (code, out, err) == (EXIT_INVALID_PARAMS, "", f"error: {message}\n")
    assert answers == [EXIT_OK, EXIT_OK]


ALPHA = "0.0072973525693"


# weak-coupling Heun series, which terminate only from the level's exact lam
# (sqrt(m^2 - E^2) from E misses the degree condition)
@pytest.mark.parametrize("argv", (
    ("--route", "heun", "--coupling", ALPHA, "--n", "16", "--n-max", "16"),
    ("--route", "mixed1", "--coupling", ALPHA, "--parity", "-1", "--n", "2", "--n-max", "2"),
    ("--route", "mixed1", "--coupling", "0.75", "--j", "2.5", "--parity", "-1", "--n", "1",
     "--n-max", "1")), ids=("heun_alpha_n16", "mixed1_alpha_parity_minus",
                            "mixed1_parity_minus_isolated"))
def test_weak_coupling_heun_wavefunctions_terminate(capsys, argv):
    code, out, err = run_cli(capsys, "wavefunction", *argv, "--no-timestamp")
    assert code == EXIT_OK, err
    assert json.loads(out)["system_residual"] < 1e-6


def test_spectrum_at_tiny_coupling_matches_the_closed_form(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--coupling", "1e-7", "--n-max", "1",
                             "--route", "all", "--no-timestamp")
    assert code == EXIT_OK, err
    rows = json.loads(out)["levels"]
    assert [r["route"] for r in rows] == [*ANALYTIC_ROUTES] * 2
    for row in rows:
        assert abs(row["E"] - energy_closed_form(row["n"], SystemParams(1e-7, 1)).E) < 1e-12


def test_route_deviation_at_a_tiny_mass_is_no_larger_than_at_unit_mass(capsys):
    deviations = {}
    for mass in ("1", "1e-155"):
        code, out, _ = run_cli(capsys, "spectrum", "--coupling", "0.5", "--n-max", "1",
                               "--mass", mass, "--no-timestamp")
        assert code == EXIT_OK
        deviations[mass] = max(r["max_route_deviation"] for r in json.loads(out)["levels"])
    assert deviations["1e-155"] <= deviations["1"]


@pytest.mark.parametrize("route,coupling,parity,n", [
    ("heun", "1e-4", "1", 30),
    # c_0 alone overflows here: its coefficients must be finite, not just c_1
    ("mixed2", "1e-5", "-1", 25),
    ("heun", "1e-7", "-1", 19),
])
def test_overflowing_backward_recurrence_exits_3_without_a_warning(capsys, route, coupling,
                                                                  parity, n):
    # the backward pass overflows at this weak coupling and high degree: no
    # forward-head fallback stands in for it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "wavefunction", "--route", route, "--coupling",
                                 coupling, "--j", "0.5", "--parity", parity, "--n", str(n),
                                 "--n-max", str(n))
    assert (code, out) == (EXIT_NO_CONVERGENCE, "")
    assert f"backward recurrence to degree {n}" in err


@pytest.mark.parametrize("route", ANALYTIC_ROUTES)
def test_wavefunction_at_high_angular_momentum_normalizes(capsys, route):
    # f^2 + g^2 overflows at j = 99.5 (|g| ~ 1e173): normalize scales first
    code, out, err = run_cli(capsys, "wavefunction", "--route", route, "--coupling", "0.5",
                             "--j", "99.5", "--n", "0", "--n-max", "0", "--parity", "-1",
                             "--no-timestamp")
    assert code == EXIT_OK, err
    doc = json.loads(out)
    assert all(math.isfinite(v) for v in doc["f"] + doc["g"])
    assert doc["system_residual"] < 1e-7


@pytest.mark.parametrize("coupling", ("1e-5", "0.5", "0.9"))
def test_verify_passes_in_the_parity_minus_channel(capsys, coupling):
    # mixed1 has no quantization condition at the nodeless level: the checks
    # that read quantized_routes leave it out instead of failing on the pole
    code, out, _ = run_cli(capsys, "verify", "--route", "all", "--coupling", coupling,
                           "--parity", "-1", "--n-max", "2")
    assert code == EXIT_OK, out
    assert "[FAIL]" not in out


def test_heavy_mass_verify_passes(capsys):
    # the system residual is dimensionless: the same level at m = 938.272
    # reports a residual at the rounding floor, as at m = 1
    for mass in ("1", "938.272"):
        code, out, _ = run_cli(capsys, "verify", "--coupling", "1.0", "--j", "1.5",
                               "--n-max", "3", "--mass", mass)
        assert code == EXIT_OK
        [line] = [line for line in out.splitlines()
                  if line.startswith("[PASS] wavefunction_residuals")]
        assert float(line.split()[4]) < 1e-13, line


@pytest.mark.parametrize("extra", (("--mass", "1e-150", "--grid-points", "5"),
                                   ("--mass", "1e150"), ("--r-min", "1e-300")),
                         ids=("mass=1e-150", "mass=1e150", "r-min=1e-300"))
def test_wavefunction_at_extreme_radii_has_a_finite_residual(capsys, extra):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = run_cli(capsys, "wavefunction", "--coupling", "0.5", "--n", "1",
                               "--n-max", "1", *extra, "--no-timestamp")
    assert code == EXIT_OK
    assert math.isfinite(json.loads(out)["system_residual"])


@pytest.mark.parametrize("as_config", (False, True), ids=("flag", "config"))
def test_oracle_verify_answers_where_spectrum_does(capsys, tmp_path, as_config):
    # the oracle's formula-free lam = m sqrt(1 - (E/m)^2) stays representable
    # at this mass
    argv = ("--coupling", "0.5", "--n-max", "1", "--route", "oracle")
    if as_config:
        (tmp_path / "run.cfg").write_text("mass = 1e-160\n")
        extra = ("--config", str(tmp_path / "run.cfg"))
    else:
        extra = ("--mass", "1e-160")
    assert run_cli(capsys, "spectrum", *argv, *extra)[0] == EXIT_OK
    code, out, _ = run_cli(capsys, "verify", *argv, *extra)
    assert code == EXIT_OK and out.startswith("[PASS] oracle_spectrum")


@pytest.mark.parametrize("mass", ("1e-150", "1e-20", "1e150"))
def test_oracle_spectrum_at_extreme_masses(capsys, mass):
    code, out, _ = run_cli(capsys, "spectrum", "--route", "oracle", "--coupling", "0.5",
                           "--n-max", "1", "--mass", mass, "--format", "csv")
    assert code == EXIT_OK
    for row in out.splitlines()[1:]:
        n, E_over_m = int(row.split(",")[0]), float(row.split(",")[5])
        ref = energy_closed_form(n, SystemParams(0.5, 1)).E
        assert abs(E_over_m - ref) / ref < 1e-12


def test_oracle_answers_at_weak_coupling(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--route", "oracle", "--coupling", "1e-3",
                             "--n-max", "1", "--format", "csv")
    assert code == EXIT_OK, err
    for row in out.splitlines()[1:]:
        n, E = int(row.split(",")[0]), float(row.split(",")[4])
        ref = energy_closed_form(n, SystemParams(1e-3, 1)).E
        assert abs(E - ref) / ref < 1e-12
    code, out, _ = run_cli(capsys, "verify", "--route", "oracle", "--coupling", "1e-3",
                           "--n-max", "1")
    assert code == EXIT_OK and out.startswith("[PASS] oracle_spectrum")


@pytest.mark.parametrize("coupling,j,n_max", (("0.99", "0.5", "3"), ("2.99", "2.5", "1")))
def test_oracle_brackets_the_nodeless_level_near_critical_coupling(capsys, coupling, j,
                                                                  n_max):
    # E_0 < 0.2 m here: the n = 0 bracket starts at E_0/2, below the level
    code, out, err = run_cli(capsys, "spectrum", "--route", "oracle", "--coupling", coupling,
                             "--j", j, "--n-max", n_max, "--format", "csv")
    assert code == EXIT_OK, err
    rows = [row.split(",") for row in out.splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(int(n_max) + 1))
    for row in rows:
        p = SystemParams(float(coupling), int(float(j) + 0.5), parity=int(row[2]))
        ref = energy_closed_form(int(row[0]), p).E
        assert abs(float(row[4]) - ref) / ref < 2e-14


@pytest.mark.parametrize("j", (24.5, 34.5))
def test_oracle_answers_at_large_j(capsys, j):
    # at these j the seed's size x^s (x = 1e-12 lam/m) underflows and the
    # growth from it overflows: both stay log scales, never formed
    nu = j + 0.5
    code, out, err = run_cli(capsys, "spectrum", "--route", "oracle", "--coupling", "0.5",
                             "--j", str(j), "--n-max", "3", "--format", "csv")
    assert code == EXIT_OK, err
    rows = [row.split(",") for row in out.splitlines()[1:]]
    assert [int(row[0]) for row in rows] == [0, 1, 2, 3]
    for row in rows:
        ref = energy_closed_form(int(row[0]), SystemParams(0.5, nu, parity=int(row[2]))).E
        assert abs(float(row[4]) - ref) / ref < 1e-12
    code, out, err = run_cli(capsys, "wavefunction", "--route", "oracle", "--coupling", "0.5",
                             "--j", str(j), "--n", "2", "--n-max", "2", "--format", "json")
    assert code == EXIT_OK, err
    doc = json.loads(out)
    assert all(math.isfinite(v) for v in doc["f"] + doc["g"])
    assert doc["system_residual"] < 1e-6


def test_operator_closure_passes_at_weak_coupling_parity_minus(capsys):
    # both case-1 maps divide by E -/+ m_eff cos A, one of which cancels to
    # O(e^2) unless factored (maps.mixing_case)
    _, out, _ = run_cli(capsys, "verify", "--coupling", "1e-5", "--parity", "-1",
                        "--n-max", "3")
    assert re.search(r"^\[PASS\] operator_closure:", out, re.M)


def test_a_raising_check_prints_its_own_tolerance(capsys):
    # at e = 1e-7 the level-1 Heun recurrences stop on the accessory condition:
    # each check that solves or truncates them raises and fails at its default tol
    code, out, _ = run_cli(capsys, "verify", "--coupling", "1e-7", "--n-max", "4")
    assert code == EXIT_VERIFY_FAILED
    failed = [line.split(" [raised")[0] for line in out.splitlines()
              if line.startswith("[FAIL]")]
    assert failed == [
        "[FAIL] wavefunction_residuals: max deviation inf (tolerance 1.000e-06)",
        "[FAIL] cross_route_agreement: max deviation inf (tolerance 1.000e-06)",
        "[FAIL] operator_closure: max deviation inf (tolerance 1.000e-06)",
        "[FAIL] heunc_ode_residual: max deviation inf (tolerance 1.000e-08)"]


@pytest.mark.parametrize("route", ("all", "standard", "oracle"))
def test_verify_whose_decay_constant_underflows_exits_2_before_any_check(capsys, route):
    # lam = m e / sqrt(N^2 + e^2) of levels 1-3 underflows to 0 at e = 5e-324: no
    # level has an answer, so the request is invalid input, as for spectrum
    code, out, err = run_cli(capsys, "verify", "--route", route, "--coupling", "5e-324",
                             "--parity", "-1", "--n-max", "3")
    assert (code, out) == (EXIT_INVALID_PARAMS, "")
    assert err == ("error: the decay constant m e / sqrt(N^2 + e^2) underflows to 0 "
                   "at m=1.0, e=5e-324\n")


@pytest.mark.parametrize("coupling,message", (
    ("1e-200", "case-1 singular point diverges at this energy (E + m_eff cos A = 0)"),))
def test_truncation_audit_notes_a_raising_level_and_passes(capsys, coupling, message):
    # informational: a level whose closed form or maps raise is noted, not failed;
    # the request still exits 1 on the checks that do fail there
    code, out, _ = run_cli(capsys, "verify", "--route", "all", "--coupling", coupling,
                           "--parity", "-1", "--n-max", "3")
    assert code == EXIT_VERIFY_FAILED
    audit = [line for line in out.splitlines() if "truncation_audit" in line]
    assert audit == [
        "[PASS] truncation_audit: max deviation 0.000e+00 (tolerance inf) ["
        "n=0 mixed2: beyond/head=0.00e+00 collapsed=True; "
        "n=0 heun: beyond/head=0.00e+00 collapsed=True; "
        + "; ".join(f"n={n}: raised InvalidParams: {message}" for n in (1, 2, 3)) + "]"]


def test_zero_tolerance_stays_the_unattainable_override(capsys):
    code, out, _ = run_cli(capsys, "verify", "--coupling", "0.5", "--n-max", "0",
                           "--route", "standard", "--tol", "0")
    assert code == EXIT_VERIFY_FAILED
    assert "(tolerance 0.000e+00)" in out and "[FAIL]" in out


def test_parser_is_built_once_and_stays_reusable(capsys):
    for argv, stream in ((["wavefunction", "--help"], "out"),
                         (["spectrum", "--coupling", "0.5", "--parity", "2"], "err")):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit):
                main(argv)
            texts.append(getattr(capsys.readouterr(), stream))
        assert texts[0] == texts[1] and texts[0]


def test_a_request_builds_one_parser_and_help_or_an_error_the_full_one(capsys, monkeypatch):
    built = []   # the prog of each ArgumentParser made
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    # a plain request is read from the option table: no parser at all
    full = ["heundirac", "heundirac spectrum", "heundirac wavefunction", "heundirac verify"]
    for argv, code, want in (
            (["spectrum", "--coupling", "0.5", "--no-timestamp"], EXIT_OK, []),
            (["spectrum", "--coupling", "0.25", "--format", "csv"], EXIT_OK, []),
            (["verify", "--coupling", "0.5", "--n-max", "0"], EXIT_OK, []),
            (["wavefunction", "--coupling", "0.5", "--n", "0", "--parity", "-1",
              "--grid-points", "5", "--no-timestamp"], EXIT_OK, []),
            (["--help"], 0, full),
            (["bogus", "--coupling", "0.5"], 2, full),
            (["spectrum", "--coupling", "0.5", "--grid-points", "5"], 2, full),
            (["spectrum", "--coup", "0.25", "--format", "csv"], EXIT_OK, full),
            (["spectrum", "--coupling=0.25", "--format", "csv"], EXIT_OK, full)):
        built.clear()
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        capsys.readouterr()
        assert (got, built) == (code, want), argv


# values for every option, as flags; the corpus sets each one on each
# subcommand that reads it
OPTION_VALUES = {"mass": "2", "coupling": "0.25", "j": "1.5", "parity": "-1", "n_max": "3",
                 "route": "mixed2", "format": "csv", "out": "report.txt",
                 "grid_points": "50", "r_min": "0.1", "r_max": "30", "tol": "1e-9",
                 "no_timestamp": None}
UNREAD_TAILS = {"spectrum --grid-points 5": ("spectrum", "--coupling", "0.5",
                                             "--grid-points", "5"),
                "stray positional": ("spectrum", "--coupling", "0.5", "stray"),
                "verify --format csv": ("verify", "--coupling", "0.5", "--format", "csv")}
PARSE_CORPUS = {
    **{f"{command} --{key.replace('_', '-')}": (
        *BASE_ARGV[command], "--" + key.replace("_", "-"),
        *([OPTION_VALUES[key]] if OPTION_VALUES[key] else []))
       for key, opt in _OPTIONS.items() for command in opt.commands},
    **{f"{command} every option": (
        command, *[arg for key, opt in _OPTIONS.items() if command in opt.commands
                   for arg in ("--" + key.replace("_", "-"), OPTION_VALUES[key])
                   if arg is not None], *(("--n", "2") if command == "wavefunction" else ()))
       for command in BASE_ARGV},
    "--opt=value": ("spectrum", "--coupling=0.5", "--n-max=2", "--route=heun"),
    "abbreviated --coup": ("spectrum", "--coup", "0.5"),
    "negative --n-max": ("spectrum", "--coupling", "0.5", "--n-max", "-1"),
    "--config": ("spectrum", "--config", "{cfg}"),
    "--config and flags": ("wavefunction", "--config", "{cfg}", "--n", "1", "--mass", "4"),
    "--config on verify": ("verify", "--n-max", "1", "--config", "{cfg}"),
    "no arguments": (),
    "-h": ("-h",),
    "--help": ("--help",),
    **{f"{command} {flag}": (command, flag) for command in BASE_ARGV
       for flag in ("-h", "--help")},
    "help after options": ("wavefunction", "--coupling", "0.5", "--help"),
    "unknown subcommand": ("bogus", "--coupling", "0.5"),
    "abbreviated subcommand": ("spec", "--coupling", "0.5"),
    "option before the subcommand": ("--coupling=0.5", "spectrum"),
    "-- before the subcommand": ("--", "spectrum", "--coupling", "0.5"),
    **UNREAD_TAILS,
    "wavefunction without --n": ("wavefunction", "--coupling", "0.5"),
    "invalid float": ("spectrum", "--coupling", "x"),
    "invalid choice": ("spectrum", "--coupling", "0.5", "--route", "nope"),
    "invalid j, then unread": ("spectrum", "--coupling", "0.5", "--j", "0.7", "--tol", "1"),
    "no coupling": ("verify", "--n-max", "1"),
    # argparse reads "-.5" as a negative number, "-1e-3" and "-h x" as options
    "--coupling -.5": ("spectrum", "--coupling", "-.5"),
    "--coupling -1e-3": ("spectrum", "--coupling", "-1e-3"),
    "--out '-h x'": ("spectrum", "--coupling", "0.5", "--out", "-h x"),
    "empty --out": ("spectrum", "--coupling", "0.5", "--out", ""),
    "empty --coupling": ("spectrum", "--coupling", ""),
    "value missing at the end": ("spectrum", "--n-max", "2", "--coupling"),
    "repeated flag": ("spectrum", "--coupling", "0.5", "--n-max", "2", "--coupling", "0.25"),
    "--no-timestamp twice": ("spectrum", "--coupling", "0.5", "--no-timestamp",
                             "--no-timestamp"),
    "--parity +1": ("spectrum", "--coupling", "0.5", "--parity", "+1"),
    "--n next to --n-max": ("wavefunction", "--coupling", "0.5", "--n-max", "2", "--n", "1"),
    "--n on spectrum": ("spectrum", "--coupling", "0.5", "--n", "2"),
    "--j 0.7 --coupling abc": ("spectrum", "--j", "0.7", "--coupling", "abc"),
    "ambiguous --r after --j 0.7": ("wavefunction", "--coupling", "0.5", "--n", "1",
                                    "--j", "0.7", "--r", "5"),
}
# the requests the table reader leaves to the full parser; it reads every other one
FULL_PARSER_READS = {
    "--opt=value", "abbreviated --coup", "no arguments", "-h", "--help",
    *(f"{command} {flag}" for command in BASE_ARGV for flag in ("-h", "--help")),
    "help after options", "unknown subcommand", "abbreviated subcommand",
    "option before the subcommand", "-- before the subcommand", *UNREAD_TAILS,
    "wavefunction without --n", "invalid float", "invalid choice", "invalid j, then unread",
    "--coupling -1e-3", "--out '-h x'", "empty --coupling", "value missing at the end",
    "--n on spectrum", "ambiguous --r after --j 0.7",
}


def _capture(capsys, read):
    """(exit code, stdout, stderr, what read() returned) of one reading of argv."""
    try:
        code, result = read()
    except SystemExit as exc:
        code, result = exc.code, None
    captured = capsys.readouterr()
    return code, captured.out, captured.err, result


@pytest.mark.parametrize("argv", PARSE_CORPUS.values(), ids=PARSE_CORPUS)
def test_main_parses_as_the_full_parser_does(capsys, monkeypatch, tmp_path, argv):
    import heundirac.cli as cli
    cfg = tmp_path / "run.cfg"
    cfg.write_text("coupling = 0.5\nn-max = 2\nmass = 3\n")
    argv = [str(cfg) if arg == "{cfg}" else arg for arg in argv]

    def full_parse():   # the reading main served every request by before
        try:
            args = _full_parser().parse_args(argv)
            return EXIT_OK, (cli._resolve_config(args), getattr(args, "n", None))
        except HeunDiracError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID_PARAMS, None

    served = []   # each subcommand records its resolved settings instead of running
    monkeypatch.setattr(cli, "cmd_spectrum", lambda cfg: served.append((cfg, None)))
    monkeypatch.setattr(cli, "cmd_verify", lambda cfg: served.append((cfg, None)))
    monkeypatch.setattr(cli, "cmd_wavefunction", lambda cfg, n: served.append((cfg, n)))
    want = _capture(capsys, full_parse)
    got = _capture(capsys, lambda: (main(list(argv)) or EXIT_OK, (served or [None])[0]))
    assert got == want


def _reading(capsys, read):
    """vars() of the namespace read() returns, None, or how it ended: its
    HeunDiracError, or a SystemExit with the code and text argparse printed."""
    try:
        args = read()
        got = None if args is None else vars(args)
    except HeunDiracError as exc:
        got = (type(exc), str(exc))
    except SystemExit as exc:
        got = (SystemExit, exc.code)
    captured = capsys.readouterr()
    return got, captured.out, captured.err


# every option of every subcommand at each of a few valid values, the rest of
# its base request kept: the table reader must read each of them
VALID_VALUES = {"mass": ("2", "-.5", "-3", "1e-300", "+1", " 4 "),
                "coupling": ("0.25", "-1", "nan", "1_0.5"),
                "j": ("0.5", "-1.5", "99.5", "-.5"), "parity": ("1", "-1", "+1"),
                "n_max": ("0", "3", "16", "+2"), "route": ROUTE_CHOICES,
                "format": ("json", "csv"), "out": ("report.txt", "", "a b", "x=-h"),
                "grid_points": ("5", "-1", "20000"), "r_min": ("0.1", "-.5", "inf"),
                "r_max": ("30", "-2"), "tol": ("0", "1e-9", ".5"), "no_timestamp": (None,)}
READ_BY_TABLE = {
    f"{command} --{key.replace('_', '-')} {value!r}": (
        *BASE_ARGV[command], "--" + key.replace("_", "-"), *([] if value is None else [value]))
    for key, opt in _OPTIONS.items() for command in opt.commands
    for value in VALID_VALUES[key]}


@pytest.mark.parametrize("name", [*PARSE_CORPUS, *READ_BY_TABLE])
def test_read_flags_returns_the_full_parsers_namespace_or_none(capsys, name):
    # None hands the request to the full parser; anything else must be what
    # that parser returns or raises (repr: a NaN value equals itself), in its
    # order, with nothing printed
    argv = list({**PARSE_CORPUS, **READ_BY_TABLE}[name])
    got = _reading(capsys, lambda: _read_flags(argv))
    want = _reading(capsys, lambda: _full_parser().parse_args(argv))
    if name in FULL_PARSER_READS:
        assert got == (None, "", "")
    else:
        assert want[0] is not None and repr(got) == repr((want[0], "", ""))


@pytest.mark.parametrize("argv", UNREAD_TAILS.values(), ids=UNREAD_TAILS)
def test_unread_arguments_get_the_top_level_error(capsys, monkeypatch, argv):
    # with argv=None main reads sys.argv, as the console script calls it
    for call in (lambda: main(list(argv)), main):
        monkeypatch.setattr(sys, "argv", ["heundirac", *argv])
        with pytest.raises(SystemExit) as exc:
            call()
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_INVALID_PARAMS
        assert err.startswith("usage: heundirac [-h] {spectrum,wavefunction,verify} ...\n")
        assert err.endswith("\nheundirac: error: unrecognized arguments: "
                            f"{' '.join(argv[3:])}\n")


def test_main_reads_sys_argv_by_default(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["heundirac", "spectrum", "--coupling", "0.5",
                                      "--format", "csv", "--no-timestamp"])
    assert main() == EXIT_OK
    assert capsys.readouterr().out == run_cli(capsys, *sys.argv[1:])[1]
    monkeypatch.setattr(sys, "argv", ["heundirac"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == EXIT_INVALID_PARAMS
    assert "heundirac: error: the following arguments are required: command" in \
        capsys.readouterr().err


def _per_number_table(fmt, route, n, points):
    """The wavefunction output as the per-number expressions printed it."""
    params = SystemParams(0.5, 1)
    level = energy_closed_form(n, params)
    grid = routes.default_grid(level.lam, points)
    sol = routes.normalize(routes.ROUTE_SOLVERS[route](params, level, grid))
    res = routes.residual(sol)
    r, f, g = grid.r.tolist(), sol.f.tolist(), sol.g.tolist()
    if fmt == "csv":
        lines = [f"# route: {route}", f"# n: {n}", "# j: 0.5", "# parity: 1",
                 f"# E: {sol.E:.16e}", f"# system_residual: {res:.16e}", "r,f,g"]
        lines += [f"{a:.16e},{b:.16e},{c:.16e}" for a, b, c in zip(r, f, g)]
        return "\n".join(lines) + "\n"
    return json.dumps({"route": route, "n": n, "j": 0.5, "parity": 1, "E": sol.E,
                       "system_residual": res, "r": r, "f": f, "g": g}) + "\n"


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_20000_point_table_matches_the_per_number_expressions(capsys, fmt):
    code, out, _ = run_cli(capsys, "wavefunction", "--route", "mixed1", "--coupling", "0.5",
                           "--n", "3", "--n-max", "3", "--grid-points", "20000",
                           "--format", fmt, "--no-timestamp")
    assert code == EXIT_OK
    assert out == _per_number_table(fmt, "mixed1", 3, 20000)


def test_json_timestamp_follows_the_arrays(capsys):
    code, out, _ = run_cli(capsys, *BASE_ARGV["wavefunction"], "--grid-points", "5")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert list(doc) == ["route", "n", "j", "parity", "E", "system_residual", "r", "f",
                         "g", "generated"]
    assert out == json.dumps(doc) + "\n"


SPECTRUM_REPORTS = pytest.mark.parametrize("argv", [
    ("--route", "all", "--n-max", "3"),
    ("--route", "mixed2", "--n-max", "2"),
    ("--route", "oracle", "--n-max", "1"),
    ("--route", "all", "--n-max", "2", "--parity", "-1"),
    ("--route", "all", "--j", "1.5", "--n-max", "16"),
    ("--route", "all", "--n-max", "0"),
    ("--route", "all", "--n-max", "3", "--mass", "0.51099895"),
    ("--parity", "-1", "--route", "all"),
], ids=["all", "mixed2", "oracle", "all-parity-minus", "all-j1.5-n16", "all-n0",
        "all-electron-mass", "parity-minus-all"])
SPECTRUM_STAMPS = pytest.mark.parametrize("stamp", [(), ("--no-timestamp",)],
                                          ids=["generated", "no-timestamp"])


@SPECTRUM_REPORTS
@SPECTRUM_STAMPS
def test_spectrum_json_report_is_the_indent_2_layout(capsys, argv, stamp):
    # the C encoder writes the rows in one call; the whole must be json.dumps(doc, indent=2)
    code, out, _ = run_cli(capsys, "spectrum", "--coupling", "0.5", *argv, *stamp)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"
    assert list(doc) == (["levels"] if stamp else ["levels", "generated"])


@SPECTRUM_REPORTS
@SPECTRUM_STAMPS
def test_spectrum_csv_report_is_the_per_value_join_of_the_json_rows(capsys, argv, stamp):
    code, out, _ = run_cli(capsys, "spectrum", "--coupling", "0.5", *argv, *stamp)
    assert code == EXIT_OK
    rows = json.loads(out)["levels"]
    code, out, _ = run_cli(capsys, "spectrum", "--coupling", "0.5", *argv, *stamp,
                           "--format", "csv")
    assert code == EXIT_OK
    lines = [",".join(rows[0])] + [
        ",".join(f"{v:.16e}" if isinstance(v, float) else str(v) for v in row.values())
        for row in rows]
    assert out == "\n".join(lines) + "\n"


# finite floats whose repr json must print: the smallest subnormal, ones
# repr writes in exponent form (1e-05, 1e+16, 2.5e-16) and the largest double
REPR_FLOATS = (5e-324, 1e-5, 0.1, 1e16, 2.5e-16, 1.7976931348623157e308)


@pytest.mark.parametrize("argv", [("--route", "all", "--n-max", "5"),
                                  ("--route", "all", "--n-max", "5", "--parity", "-1"),
                                  ("--route", "all", "--n-max", "5", "--mass", "3"),
                                  ("--route", "heun", "--n-max", "5"),
                                  ("--route", "oracle", "--n-max", "5"),
                                  ("--route", "all", "--n-max", "0")],
                         ids=["all", "all-parity-minus", "all-mass-3", "heun", "oracle",
                              "all-n0"])
@SPECTRUM_STAMPS
def test_spectrum_json_row_template_is_json_dumps(capsys, monkeypatch, argv, stamp):
    import heundirac.cli as cli
    from heundirac import oracle
    from heundirac.model import EnergyLevel

    def level(params, n, route):
        # route standard sits on the float, the others a step toward 1, so
        # max_route_deviation is a float of its own (1.0 at 5e-324)
        E = REPR_FLOATS[n % len(REPR_FLOATS)]
        E = E if route == "standard" else math.nextafter(E, 1.0)
        return EnergyLevel(n, params.nu, params.parity, E, route, 1.0)

    shots = iter(range(6))
    monkeypatch.setattr(cli, "solve_quantization", level)
    monkeypatch.setattr(oracle, "shoot_energy",
                        lambda params, lo, hi: level(params, next(shots), "standard"))
    code, out, _ = run_cli(capsys, "spectrum", "--coupling", "0.5", *argv, *stamp)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"
    mass = float(argv[argv.index("--mass") + 1]) if "--mass" in argv else 1.0
    rows = doc["levels"]
    assert len({row["E"] for row in rows}) >= len(rows) // 4
    for row in rows:
        E = REPR_FLOATS[row["n"]]
        assert row["E"] == (E if row["route"] in ("standard", "oracle")
                            else math.nextafter(E, 1.0))
        assert row["E_over_m"] == row["E"] / mass
        if argv[1] == "all":
            same = [other["E"] for other in rows if other["n"] == row["n"]]
            assert row["max_route_deviation"] == (max(same) - min(same)) / min(same)
        else:
            assert "max_route_deviation" not in row
