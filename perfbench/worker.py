"""One benchmark process: set-up, a closed request loop, output checks.

Run by ``run.py`` in a fresh interpreter with ``src`` on the path and the
BLAS/OpenMP pools pinned to one thread:

    python3 perfbench/worker.py --workload spectrum --seed 1 --seconds 20 --mode measure

Modes:
    setup    import heundirac.cli and serve the warm-up request, timed
             from just before the import (one set-up sample);
    measure  set up, then send whole cycles of the workload's requests
             until the summed request time reaches --seconds;
    trace    set up, send the workload's first trace_cycles cycles
             untraced, then the same requests with the tracer installed.

The last stdout line is one JSON object.  Request output goes to buffers,
never to this process's stdout.  One client sends each request when the
previous one has returned (closed loop).  Checking an output and taking
a calibration sample happen between requests, outside the timed spans.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402

_STAMP = re.compile(r'"generated": "[^"]*"')
CALIBRATE_EVERY_S = 0.25  # request time between two calibration samples


def _kernel() -> int:
    """Fixed mix of interpreter, numpy and number-formatting work that does
    not touch heundirac, so a change to the program cannot change it."""
    import numpy as np

    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    x = np.geomspace(1e-2, 40.0, 20_000)
    y = np.exp(-x) * x ** 1.5
    return acc + len(",".join(f"{v:.16e}" for v in y[:1500]))


def calibration_sample() -> float:
    """Mean time of two runs of _kernel: how slow the machine is right now."""
    t0 = time.perf_counter()
    _kernel()
    _kernel()
    return (time.perf_counter() - t0) / 2


def _setup(workload) -> float:
    t0 = time.perf_counter()
    import heundirac.cli  # noqa: F401  (timed: this import is set-up work)
    call(workload.warmup)
    return time.perf_counter() - t0


def call(argv) -> tuple[int, str, float]:
    """Serve one request in-process: (exit code, stdout text, seconds)."""
    cli = sys.modules["heundirac.cli"]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects a malformed request
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), time.perf_counter() - t0


class Tally:
    """Latencies and check outcomes of one pass over a request list."""

    def __init__(self, workload):
        self.defects = workload.defects()
        self.latencies = []        # +inf for a failed request
        self.raw = []              # measured seconds, failed or not
        self.busy = 0.0            # summed request time of the pass
        self.by_class = {}         # class -> [attempted, failed]
        self.unexpected = []       # failures outside the inventory
        self.digests = []          # (code, sha1 of stamp-free output)
        self.calibration = []      # (requests served, calibration_sample())
        self.next_sample = 0.0     # busy time at which to sample again

    def add(self, cls: str, argv, code: int, text: str, seconds: float):
        import reference  # after set-up, so its numpy import is not timed there

        reason = reference.check(argv, code, text)
        self.busy += seconds
        self.latencies.append(seconds if reason is None else math.inf)
        self.raw.append(seconds)
        entry = self.by_class.setdefault(cls, [0, 0])
        entry[0] += 1
        if reason is not None:
            entry[1] += 1
            if cls not in self.defects and len(self.unexpected) < 20:
                self.unexpected.append({"class": cls, "argv": list(argv),
                                        "reason": reason})
        digest = hashlib.sha1(_STAMP.sub("", text).encode()).hexdigest()
        self.digests.append((code, digest))

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.by_class.values())

    def summary(self) -> dict:
        return {"attempted": len(self.latencies), "failed": self.failed,
                "busy_s": self.busy, "latencies": self.latencies,
                "raw_latencies": self.raw, "calibration_s": self.calibration,
                "by_class": self.by_class, "unexpected": self.unexpected}


def _serve(requests, tally: Tally):
    """Send requests in order, and between two of them, every
    CALIBRATE_EVERY_S of request time, take a calibration sample."""
    for cls, argv in requests:
        if tally.busy >= tally.next_sample:
            tally.calibration.append((len(tally.raw), calibration_sample()))
            tally.next_sample = tally.busy + CALIBRATE_EVERY_S
        code, text, seconds = call(argv)
        tally.add(cls, argv, code, text, seconds)


def measure(workload, seed: int, seconds: float) -> dict:
    tally = Tally(workload)
    cycles = 0
    for requests in workload.cycles(seed):
        _serve(requests, tally)
        cycles += 1
        if tally.busy >= seconds:
            break
    out = tally.summary()
    out["cycles"] = cycles
    return out


def trace(workload, seed: int) -> dict:
    from tracer import Tracer

    gen = workload.cycles(seed)
    requests = [r for _ in range(workload.trace_cycles) for r in next(gen)]
    plain, traced = Tally(workload), Tally(workload)
    _serve(requests, plain)
    tracer = Tracer()
    tracer.install()
    try:
        _serve(requests, traced)
    finally:
        tracer.uninstall()
    counts, times = tracer.metrics()
    return {"plain": plain.summary(), "traced": traced.summary(),
            "same_outputs": plain.digests == traced.digests,
            "counts": counts, "times": times}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    result = {"setup_s": _setup(workload)}
    if args.mode == "setup":
        result["calibration_s"] = [calibration_sample() for _ in range(3)]
    elif args.mode == "measure":
        result.update(measure(workload, args.seed, args.seconds))
    elif args.mode == "trace":
        result.update(trace(workload, args.seed))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
