"""One fresh-process execution of a workload, started by run.py.

    python bench/worker.py --workload many-blocks --seed 7 --tasks 8

Set-up is importing nclp (with its command line) and building the inputs:
the seeded instance pool for an API workload, the shipped demo inputs for
`cli`.  The worker prints one JSON line with the monotonic time at which
set-up finished, and for an API workload the latency of each task over the
pool (start and end on the monotonic clock, which all processes share) and
every failed task.  `cli` stops after set-up: its work runs
through the real command line, not here.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_pass(pool, call=None):
    """Run the task mix once over `pool`; return (intervals, failures).

    Each interval is the (start, end) monotonic time of a task that
    returned.  A failure is a task that raised or whose result missed its
    check.
    """
    import tasks

    call = call or tasks.direct
    intervals, failures = [], []
    for i, inst in enumerate(pool):
        t0 = time.monotonic()
        try:
            result = tasks.run_task(inst, call)
        except Exception as exc:  # a crash is a failed item, not a crashed run
            failures.append({"item": i, "error": f"{type(exc).__name__}: {exc}"})
            continue
        intervals.append((t0, time.monotonic()))
        misses = tasks.check_task(inst, result)
        if misses:
            failures.append({"item": i, "misses": misses})
    return intervals, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tasks", type=int, default=0)
    args = parser.parse_args(argv)

    import nclp.cli  # noqa: F401  (the command line is part of what users load)

    if args.workload == "cli":
        from nclp import serialize

        for path in sorted((ROOT / "demos" / "inputs").glob("*.json")):
            obj = json.loads(path.read_text())
            for key, value in obj.items():
                if key in ("mu", "nu") and isinstance(value, dict):  # the oracle's mu is a list
                    serialize.weight_from_obj(value)
                elif key in ("x", "y", "zeta"):
                    (serialize.graded_from_obj if "grading" in value
                     else serialize.element_from_obj)(value)
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    import tasks

    pool = tasks.draw_pool(args.workload, args.seed, args.tasks)
    ready = time.monotonic()
    intervals, failures = run_pass(pool)
    print(json.dumps({"ready": ready, "tasks": intervals, "failures": failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
