"""Check every request domain of the workloads against the reference.

    PYTHONPATH=src python3 perfbench/validate.py [--workload NAME ...]

Runs each argument list of each passing class once and each
known-failing class once, and prints the lists
that do not behave as the workload says: a passing-class request that
fails, or an inventory request that now passes.  Exit code 1 if any.
This is the check behind the claim in ``workloads.py`` that the seed can
only pick passing requests from the passing classes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
from worker import call  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    import heundirac.cli  # noqa: F401  (worker.call looks it up)

    surprises = 0
    for name in args.workload or list(WORKLOADS):
        for cls in WORKLOADS[name].classes:
            fails = 0
            for req in cls.domain:
                code, text, _ = call(req)
                reason = reference.check(req, code, text)
                fails += reason is not None
                if (reason is None) == (cls.defect is not None):
                    surprises += 1
                    print(f"  {name}/{cls.name}: {' '.join(req)} -> {reason or 'passes'}")
            print(f"{name}/{cls.name}: {len(cls.domain)} requests, {fails} failed"
                  f"{' (inventory)' if cls.defect else ''}", flush=True)
    return 1 if surprises else 0


if __name__ == "__main__":
    sys.exit(main())
