"""Byte-identity of the --no-timestamp outputs against committed goldens.

Each file under tests/data is the output of

    python -m heundirac <argv below> [--no-timestamp] --out tests/data/<name>

with --no-timestamp on every golden but verify's, whose report carries no
timestamp and which rejects the flag.

A change that alters one of these bytes on purpose (a correctness fix)
regenerates the file the same way and says so in CHANGES.md.
"""

from decimal import Decimal, localcontext
from pathlib import Path

import pytest

from heundirac.cli import EXIT_OK, main

DATA = Path(__file__).parent / "data"
ALPHA = "0.0072973525693"

GOLDENS = {
    "spectrum_all_e0p25.csv": ("spectrum", "--route", "all", "--n-max", "8",
                               "--coupling", "0.25", "--format", "csv"),
    "spectrum_all_e0p5.csv": ("spectrum", "--route", "all", "--n-max", "8",
                              "--coupling", "0.5", "--format", "csv"),
    "spectrum_all_alpha.csv": ("spectrum", "--route", "all", "--n-max", "8",
                               "--coupling", ALPHA, "--format", "csv"),
    "spectrum_all_e0p5.json": ("spectrum", "--route", "all", "--n-max", "8",
                               "--coupling", "0.5", "--format", "json"),
    "spectrum_mixed2_parity_minus.csv": ("spectrum", "--route", "mixed2", "--n-max", "5",
                                         "--coupling", "0.5", "--parity", "-1",
                                         "--format", "csv"),
    "spectrum_mixed2_parity_minus.json": ("spectrum", "--route", "mixed2", "--n-max", "5",
                                          "--coupling", "0.5", "--parity", "-1",
                                          "--format", "json"),
    # route all at parity -1: case 1 at parity -1, and three rows at n = 0
    "spectrum_all_parity_minus.csv": ("spectrum", "--route", "all", "--n-max", "5",
                                      "--coupling", "0.5", "--parity", "-1",
                                      "--format", "csv"),
    # a coupling where the case-0 and case-2 terms cancel
    "spectrum_all_e1e-7.csv": ("spectrum", "--route", "all", "--n-max", "1",
                               "--coupling", "1e-7", "--format", "csv"),
    "spectrum_oracle_e0p5.csv": ("spectrum", "--route", "oracle", "--n-max", "3",
                                 "--coupling", "0.5", "--format", "csv"),
    "verify_all_e0p5.txt": ("verify", "--route", "all", "--n-max", "2",
                            "--coupling", "0.5"),
    **{f"wavefunction_{route}_n2.{fmt}": ("wavefunction", "--route", route, "--n", "2",
                                          "--n-max", "2", "--grid-points", "50",
                                          "--coupling", "0.5", "--format", fmt)
       for route in ("standard", "mixed1", "mixed2", "heun") for fmt in ("csv", "json")},
    # the nodeless level, where the standard route's second component is 0
    "wavefunction_standard_n0.csv": ("wavefunction", "--route", "standard", "--n", "0",
                                     "--n-max", "0", "--parity", "-1", "--grid-points", "50",
                                     "--coupling", "0.5", "--format", "csv"),
    # the Heun routes at parity -1: the nodeless level, where mixed1 builds F
    # from G and mixed2 carries the state in F alone, and n = 2
    **{f"wavefunction_{route}_parity_minus_n{n}.csv": (
        "wavefunction", "--route", route, "--parity", "-1", "--n", str(n), "--n-max", str(n),
        "--coupling", "0.5", "--grid-points", "50", "--format", "csv")
       for route in ("mixed1", "mixed2", "heun") for n in (0, 2)},
    # the shooting oracle's amplitudes, on a grid cut at 15/lam_1 (repr), inside
    # the window where the growing mode has not overtaken the bound state
    "wavefunction_oracle_n1.csv": ("wavefunction", "--route", "oracle", "--coupling", "0.5",
                                   "--n", "1", "--n-max", "1", "--r-max", "57.9555495773441",
                                   "--grid-points", "50", "--format", "csv"),
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    argv = list(GOLDENS[name])
    if argv[0] != "verify":
        argv.append("--no-timestamp")
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (DATA / name).read_bytes()


def test_oracle_golden_is_within_1e13_of_the_closed_form():
    # E/m = 1/sqrt(1 + e^2/(n + sqrt(nu^2 - e^2))^2) at 50 digits, e = 1/2, nu = 1
    lines = (DATA / "spectrum_oracle_e0p5.csv").read_text().splitlines()[1:]
    with localcontext() as ctx:
        ctx.prec = 50
        e = Decimal("0.5")
        for line in lines:
            cells = line.split(",")
            N = int(cells[0]) + (1 - e * e).sqrt()
            ref = 1 / (1 + e * e / (N * N)).sqrt()
            assert abs(Decimal(cells[4]) - ref) / ref < Decimal("1e-13")


def test_oracle_wavefunction_golden_is_within_1e9_of_the_standard_route(tmp_path):
    # the oracle integrates the system without the analytic formulas: on the
    # same grid its normalized table is the standard route's, to 6e-11
    def table(path):
        rows = [line.split(",") for line in path.read_text().splitlines()
                if not line.startswith(("#", "r,"))]
        return [[float(cell) for cell in row] for row in rows]

    argv = list(GOLDENS["wavefunction_oracle_n1.csv"])
    argv[argv.index("oracle")] = "standard"
    assert main([*argv, "--no-timestamp", "--out", str(tmp_path / "standard.csv")]) == EXIT_OK
    oracle, standard = table(DATA / "wavefunction_oracle_n1.csv"), table(tmp_path / "standard.csv")
    assert [row[0] for row in oracle] == [row[0] for row in standard] and len(oracle) == 50
    for column in (1, 2):
        peak = max(abs(row[column]) for row in standard)
        assert max(abs(a[column] - b[column]) for a, b in zip(oracle, standard)) < 1e-9 * peak
