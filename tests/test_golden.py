"""Byte-identity of the --no-timestamp outputs against committed goldens.

Each file under tests/data is the output of

    python -m heundirac <argv below> [--no-timestamp] --out tests/data/<name>

with --no-timestamp on every golden but verify's, whose report carries no
timestamp and which rejects the flag.

A change that alters one of these bytes on purpose (a correctness fix)
regenerates the file the same way and says so in CHANGES.md.
"""

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
    "spectrum_mixed2_parity_minus.csv": ("spectrum", "--route", "mixed2", "--n-max", "5",
                                         "--coupling", "0.5", "--parity", "-1",
                                         "--format", "csv"),
    "spectrum_oracle_e0p5.csv": ("spectrum", "--route", "oracle", "--n-max", "3",
                                 "--coupling", "0.5", "--format", "csv"),
    "verify_all_e0p5.txt": ("verify", "--route", "all", "--n-max", "2",
                            "--coupling", "0.5"),
    **{f"wavefunction_{route}_n2.{fmt}": ("wavefunction", "--route", route, "--n", "2",
                                          "--n-max", "2", "--grid-points", "50",
                                          "--coupling", "0.5", "--format", fmt)
       for route in ("standard", "mixed1", "mixed2", "heun") for fmt in ("csv", "json")},
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    argv = list(GOLDENS[name])
    if argv[0] != "verify":
        argv.append("--no-timestamp")
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (DATA / name).read_bytes()
