"""Tests of the benchmark's own parts: reference checker, tracer, workloads.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import heundirac.cli  # noqa: E402,F401
import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WAVE = ["wavefunction", "--route", "mixed2", "--coupling", "0.5", "--j", "1.5",
        "--parity", "-1", "--n", "3", "--n-max", "3", "--format", "json",
        "--no-timestamp"]
SPECTRUM = ["spectrum", "--route", "all", "--coupling", "0.3", "--n-max", "2",
            "--format", "csv", "--no-timestamp"]


def _serve(argv):
    code, text, _ = worker.call(argv)
    return code, text


@pytest.mark.parametrize("argv", [
    WAVE,
    WAVE[:-3] + ["--format", "csv"],
    ["wavefunction", "--route", "heun", "--coupling", "0.7", "--n", "8", "--n-max", "8",
     "--r-max", "200", "--grid-points", "3000", "--mass", "2"],
    SPECTRUM,
    ["spectrum", "--route", "oracle", "--coupling", "0.5", "--j", "1.5", "--n-max", "0"],
    ["verify", "--coupling", "0.5", "--n-max", "2"],
])
def test_reference_accepts_correct_outputs(argv):
    code, text = _serve(argv)
    assert reference.check(argv, code, text) is None


def _perturb_wave(text, how):
    doc = json.loads(text)
    if how == "point":
        # one of the grid points the reference samples
        i = int(np.linspace(0, len(doc["f"]) - 1, reference.SAMPLE_POINTS).round()[5])
        doc["f"][i] += 1e-5 * max(abs(x) for x in doc["f"] + doc["g"])
    elif how == "sign":
        doc["g"] = [-x for x in doc["g"]]
    elif how == "energy":
        doc["E"] *= 1 + 1e-11
    elif how == "scale":
        doc["f"] = [1.001 * x for x in doc["f"]]
    return json.dumps(doc)


@pytest.mark.parametrize("how", ["point", "sign", "energy", "scale"])
def test_injected_wrong_wavefunction_is_a_failure(how):
    code, text = _serve(WAVE)
    reason = reference.check(WAVE, code, _perturb_wave(text, how))
    assert reason is not None


def test_injected_wrong_spectrum_and_verify_are_failures():
    code, text = _serve(SPECTRUM)
    lines = text.splitlines()
    cells = lines[2].split(",")
    cells[4] = f"{float(cells[4]) * (1 + 1e-11):.16e}"
    bad = "\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n"
    assert "E(n=0" in reference.check(SPECTRUM, code, bad)
    assert reference.check(SPECTRUM, code, "\n".join(lines[:-1]) + "\n") is not None

    argv = ["verify", "--coupling", "0.5", "--n-max", "1"]
    code, text = _serve(argv)
    flipped = text.replace("[PASS] kummer_relations", "[FAIL] kummer_relations")
    assert reference.check(argv, code, flipped) is not None
    assert reference.check(argv, 1, text) == "exit code 1"


def test_oracle_tail_defect_is_caught():
    argv = ["wavefunction", "--route", "oracle", "--coupling", "0.5", "--n", "1",
            "--n-max", "1"]
    code, text = _serve(argv)
    assert code == 0
    assert "tail at r_max" in reference.check(argv, code, text)


def test_wrong_output_is_counted_failed_and_unexpected():
    tally = worker.Tally(WORKLOADS["wavefunction"])
    code, text = _serve(WAVE)
    tally.add("low_n", WAVE, code, text, 0.01)
    tally.add("low_n", WAVE, code, _perturb_wave(text, "point"), 0.01)
    assert tally.failed == 1
    assert tally.latencies == [0.01, math.inf]
    assert [u["class"] for u in tally.unexpected] == ["low_n"]
    # a failure of an inventory class is counted but expected
    tally.add("heun_alpha_n16", ["wavefunction"], 2, "", 0.01)
    assert tally.failed == 2 and len(tally.unexpected) == 1


def test_reference_solves_the_radial_system():
    """The mpmath reference satisfies both first-order equations."""
    mp = reference._MP
    m, e, nu, n = 1.0, 0.6, 2, 3
    for parity in (1, -1):
        E = reference.energy(m, e, nu, n)

        def fg(r, k):
            return mp.mpf(reference.standard_wavefunction(m, e, nu, parity, n, float(r))[k])

        for r in (0.7, 3.0, 9.0):
            f, g = fg(r, 0), fg(r, 1)
            df = mp.diff(lambda x: fg(x, 0), r, h=mp.mpf("1e-6"))
            dg = mp.diff(lambda x: fg(x, 1), r, h=mp.mpf("1e-6"))
            res1 = df + nu / r * f + (E + e / r + parity * m) * g
            res2 = dg - nu / r * g - (E + e / r - parity * m) * f
            scale = abs(f) + abs(g)
            assert abs(res1) < 1e-6 * scale and abs(res2) < 1e-6 * scale


def test_tracer_rebinds_every_holder_and_restores():
    import heundirac.routes as routes
    import heundirac.verify as verify

    originals = {(layer, fn): getattr(sys.modules[mod], fn)
                 for layer, (mod, fns) in LAYERS.items() for fn in fns}
    tracer = Tracer()
    tracer.install()
    try:
        assert not tracer.holders({id(f) for f in originals.values()})
        assert verify.ROUTE_SOLVERS["mixed1"].__wrapped__ is originals[
            ("routes", "solve_mixed_case1")]
        assert heundirac.cli._SOLVERS["heun"] is routes.solve_heun_full
        assert all(hasattr(fn, "__wrapped__") for _, fn, _ in verify.ALL_CHECKS)
        code, _ = _serve(["verify", "--coupling", "0.5", "--n-max", "1"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert all(getattr(sys.modules[LAYERS[layer][0]], fn) is f
               for (layer, fn), f in originals.items())
    assert verify.ROUTE_SOLVERS["standard"] is originals[("routes", "solve_standard")]
    counts, times = tracer.metrics()
    assert counts["verify.run_verification.calls"] == 1
    assert counts["routes.grid_points"] > 0 and counts["specfun.kummer.calls"] > 0
    assert times["verify.run_verification.busy_s"] >= times["verify.self_s"] >= 0


def test_tracer_counts_repeat_exactly():
    def traced_counts():
        tracer = Tracer()
        tracer.install()
        try:
            _serve(["spectrum", "--route", "all", "--coupling", "0.4", "--n-max", "1"])
        finally:
            tracer.uninstall()
        return tracer.metrics()[0]

    first, second = traced_counts(), traced_counts()
    assert first == second
    assert first["model.solve_quantization.calls"] == 8   # 2 levels x 4 routes
    assert first["model.quantization_residuals.calls"] > 8 * 40


def test_workloads_are_seeded_with_fixed_composition():
    for w in WORKLOADS.values():
        a, b, c = next(w.cycles(5)), next(w.cycles(5)), next(w.cycles(6))
        assert a == b and a != c
        want = {cls.name: cls.count for cls in w.classes}
        assert Counter(name for name, _ in a) == want == Counter(name for name, _ in c)
        assert w.defects(), "every workload keeps its failure inventory"


def test_percentile_counts_failures_as_infinite():
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert run.percentile([1.0, 2.0, math.inf, math.inf], 50) == math.inf
    assert run.percentile([1.0, 2.0, 3.0, math.inf], 50) == 2.5


def test_reference_energy_is_high_precision():
    mp = reference._MP
    E = reference.energy(1.0, 0.5, 1, 0)
    assert abs(E - mp.sqrt(mp.mpf("0.75"))) < mp.mpf(10) ** -30


def test_benchmark_json_names_every_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    counts, times = Tracer().metrics()
    assert [m["name"] for m in doc["per_layer"]] == [*counts, *times, "trace_overhead_ratio"]
    assert [m["name"] for m in doc["end_to_end"]] == [
        "setup_s", "requests_per_s", "latency_p50_s", "latency_tail_s", "fail_ratio",
        "peak_rss_mb"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in WORKLOADS.values()]
