"""heundirac benchmark: four seeded CLI workloads, checked against mpmath.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0

Run from the repository root (the program is imported from ``src``).
Each run drives the public entry point ``heundirac.cli.main(argv)``
in-process, one client in a closed loop (the next request is sent when
the previous one returns), with the BLAS/OpenMP pools pinned to one
thread.  Workloads, their mixes and the failure inventory are in
``workloads.py``; the correctness reference is ``reference.py``.

--trace 0 prints the end-to-end metrics:
    setup_s         median over 5 fresh processes of importing heundirac.cli
                    plus one untimed warm-up request
    requests_per_s  requests that passed the check / summed request time
    latency_p50_s   median request latency, a failed request counted as +inf
    latency_tail_s  the workload's tail percentile (the highest of p75, p90,
                    p99 with >= 10 requests beyond it at the planned run
                    size), failures as +inf
    fail_ratio      failed / attempted; a request fails on a non-zero exit
                    or on any output outside its tolerance
    peak_rss_mb     ru_maxrss of the measuring process
--trace 1 sends the workload's first cycles untraced and then traced,
checks that both give the same outputs and failures, and prints the
per-layer metrics of ``tracer.py`` plus trace_overhead_ratio (traced over
untraced summed request time).

Times are scaled to a reference machine speed.  Shared hosts drift in
speed by tens of percent over seconds, so the measuring process times a
fixed calibration kernel (``worker.calibration_sample``, independent of
heundirac) every 0.25 s of request time; each request's time is divided
by the median of the nine kernel times taken nearest to it over
CALIBRATION_REF_S, and each set-up sample by the kernel time measured in
its own process.  The unscaled values are in the report line.

Before the final JSON line the run prints a report line with the
environment stamp, the mix, and the measured share of every class in the
failure inventory.  ``correct`` is false when a request outside the
inventory fails, or when the traced and untraced runs differ.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
CALIBRATION_REF_S = 0.005   # kernel time that defines the reference speed
CALIBRATION_WINDOW = 9      # kernel samples that scale one request
CHILD_TIMEOUT_S = 160
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = p / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    a, b = xs[lo], xs[min(lo + 1, len(xs) - 1)]
    if pos == lo:
        return a
    return math.inf if math.isinf(b) else a + (b - a) * (pos - lo)


def slowdowns(samples: list, n: int) -> list[float]:
    """Per request, the median kernel time of the CALIBRATION_WINDOW samples
    taken nearest to it, over CALIBRATION_REF_S.  samples holds
    (requests served before the sample, kernel seconds)."""
    out = []
    for j in range(n):
        near = sorted(samples, key=lambda s: abs(s[0] - j))[:CALIBRATION_WINDOW]
        out.append(statistics.median(t for _, t in near) / CALIBRATION_REF_S)
    return out


def _scaled(res: dict) -> tuple[list[float], float]:
    """(latencies with +inf for failures, summed request time), scaled."""
    slow = slowdowns(res["calibration_s"], res["attempted"])
    lat = [x / f for x, f in zip(res["latencies"], slow)]
    return lat, sum(x / f for x, f in zip(res["raw_latencies"], slow))


def _finite(x: float) -> float:
    # +inf means failures reached the percentile; JSON needs a number
    return x if math.isfinite(x) else sys.float_info.max


def _env_stamp(workload, seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"git_sha": sha, "python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "thread_pins": THREAD_PINS,
            "seed": seed, "workload": workload.name,
            "requests_per_cycle": workload.cycle_size(),
            "mix": {c.name: c.count for c in workload.classes}}


def _inventory(workload, summary: dict) -> dict:
    out = {}
    for name, defect in workload.defects().items():
        failed = summary["by_class"].get(name, [0, 0])[1]
        out[name] = {"defect": defect, "failed": failed,
                     "share": failed / summary["attempted"]}
    return out


def run_measure(workload, seed: int, seconds: float) -> tuple[dict, dict]:
    probes = [_worker(["--workload", workload.name, "--mode", "setup"], 60)
              for _ in range(SETUP_PROBES)]
    setups = [p["setup_s"] * CALIBRATION_REF_S / statistics.median(p["calibration_s"])
              for p in probes]
    res = _worker(["--workload", workload.name, "--seed", str(seed),
                   "--seconds", str(seconds), "--mode", "measure"], CHILD_TIMEOUT_S)
    lat, busy = _scaled(res)
    passed = res["attempted"] - res["failed"]
    p_tail = workload.tail_percentile
    tail = percentile(lat, p_tail)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "requests_per_s": (passed / busy, "1/s"),
        "latency_p50_s": (_finite(percentile(lat, 50.0)), "s"),
        "latency_tail_s": (_finite(tail), "s"),
        "fail_ratio": (res["failed"] / res["attempted"], "1"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    report = {
        "attempted": res["attempted"], "failed": res["failed"],
        "correct": not res["unexpected"],
        "cycles": res["cycles"],
        "latency_tail_percentile": p_tail,
        "requests_beyond_tail": sum(1 for x in lat if x > tail),
        "setup_samples_s": setups,
        "machine_slowdown": statistics.median(t for _, t in res["calibration_s"])
        / CALIBRATION_REF_S,
        "unscaled": {"setup_s": statistics.median(p["setup_s"] for p in probes),
                     "requests_per_s": passed / res["busy_s"],
                     "latency_p50_s": _finite(percentile(res["latencies"], 50.0))},
        "failure_inventory": _inventory(workload, res),
        "unexpected_failures": res["unexpected"],
    }
    return metrics, report


def run_trace(workload, seed: int) -> tuple[dict, dict]:
    res = _worker(["--workload", workload.name, "--seed", str(seed), "--mode", "trace"],
                  CHILD_TIMEOUT_S)
    plain, traced = res["plain"], res["traced"]
    metrics = {name: (value, "count") for name, value in res["counts"].items()}
    metrics.update({name: (value, "s") for name, value in res["times"].items()})
    metrics["trace_overhead_ratio"] = (_scaled(traced)[1] / _scaled(plain)[1], "1")
    same = res["same_outputs"] and plain["by_class"] == traced["by_class"]
    report = {
        "attempted": traced["attempted"], "failed": traced["failed"],
        "correct": same and not plain["unexpected"] and not traced["unexpected"],
        "traced_matches_untraced": same,
        "exact_counts": res["counts"], "timings_s": res["times"],
        "failure_inventory": _inventory(workload, traced),
        "unexpected_failures": plain["unexpected"] + traced["unexpected"],
    }
    return metrics, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="heundirac CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "heundirac" / "cli.py").is_file():
        print(f"error: no heundirac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        metrics, report = run_trace(workload, args.seed)
    else:
        metrics, report = run_measure(workload, args.seed, args.seconds)

    report["env"] = _env_stamp(workload, args.seed)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.9g} {unit}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
