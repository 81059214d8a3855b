"""End-to-end tests of the command-line interface."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from heundirac import NoConvergence, SystemParams, energy_closed_form
from heundirac.cli import (EXIT_INVALID_PARAMS, EXIT_NO_CONVERGENCE, EXIT_OK,
                           EXIT_VERIFY_FAILED, main)


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


def test_single_route_parity_minus_spectrum_exits_0(capsys):
    # the standard-route bisection passes through E = m cos A, where only
    # the (unused) case-1 map is singular
    code, out, err = run_cli(capsys, "spectrum", "--route", "standard",
                             "--coupling", "0.55", "--parity", "-1", "--n-max", "5",
                             "--mass", "0.51099895", "--no-timestamp")
    assert code == EXIT_OK, err
    assert [lvl["n"] for lvl in json.loads(out)["levels"]] == list(range(6))


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


def test_wavefunction_empty_grid_exits_2(capsys):
    code, _, _ = run_cli(capsys, "wavefunction", "--n", "1", "--n-max", "1",
                         "--coupling", "0.5", "--j", "0.5", "--grid-points", "1")
    assert code == EXIT_INVALID_PARAMS


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
    import heundirac.cli as cli_mod

    def explode(*args, **kwargs):
        raise NoConvergence("synthetic bracket failure")

    monkeypatch.setattr(cli_mod.oracle, "shoot_energy", explode)
    code, _, err = run_cli(capsys, "spectrum", "--coupling", "0.5", "--j", "0.5",
                           "--n-max", "0", "--route", "oracle")
    assert code == EXIT_NO_CONVERGENCE
    assert "bracket" in err


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
                                      (None, None)))
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


def test_module_entry_point_rejects_unread_option():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "heundirac", "verify", "--coupling",
                           "0.5", "--n-max", "1", "--format", "csv"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
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
]


@pytest.mark.parametrize("as_config", (False, True), ids=("flag", "config"))
@pytest.mark.parametrize("base,option,value,message", CONTRACT_BREAKS,
                         ids=[f"{b[0]}-{o}={v}" for b, o, v, _ in CONTRACT_BREAKS])
def test_input_outside_the_contract_exits_2(capsys, tmp_path, base, option, value,
                                            message, as_config):
    if as_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{option} = {value}\n")
        argv = (*base, "--config", str(cfg))
    else:
        argv = (*base, f"--{option}", value)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_INVALID_PARAMS, "")
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_zero_tolerance_stays_the_unattainable_override(capsys):
    code, out, _ = run_cli(capsys, "verify", "--coupling", "0.5", "--n-max", "0",
                           "--route", "standard", "--tol", "0")
    assert code == EXIT_VERIFY_FAILED
    assert "(tolerance 0.000e+00)" in out and "[FAIL]" in out
