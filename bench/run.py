"""nclp benchmark: three workloads, end-to-end metrics, or one traced run.

    python3 bench/run.py --workload cli --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; nclp is imported from its `src/`, nothing
needs installing.  The last line of stdout is the result object; the full
result (every sample summary plus the machine details) is also written to
`bench/out/`.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEMO_INPUTS = ROOT / "demos" / "inputs"
OUT = HERE / "out"

WORKLOADS = ("cli", "many-blocks", "big-block")
# tasks per fresh-process pass: about three seconds of work each
POOL = {"many-blocks": 8, "big-block": 16}
SETUPS = 5        # set-up-only processes per cli run
DEMO_ROUNDS = 2   # passes over the shipped demo inputs per timed cli verify
SEEDED_TRIALS = 10  # trials per property of the untimed seeded cli verify
VERIFIES = 2      # timed cli verifies per run, at least
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIMEOUT = 170     # no child may outlive the run's own limit

# shipped input -> (command line after `nclp`, expected exit code)
CLI_COMMANDS = {
    "cocycle_pair.json": (["demo", "cocycle"], 0),
    "comultiply_diag.json": (["demo", "comultiply"], 0),
    "douglas_solvable.json": (["demo", "douglas"], 0),
    "douglas_unsolvable.json": (["demo", "douglas"], 1),
    "holder_identity.json": (["demo", "holder"], 0),
    "oracle_345.json": (["oracle"], 0),
    "polar_shear.json": (["demo", "polar"], 0),
    "pushforward_partial_trace.json": (["demo", "pushforward"], 0),
}


# -- child processes ---------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("NCLP_SEED", None)  # a bare `nclp verify` must run the default config
    return env


def spawn(argv):
    """Run one child to completion; return its timings, output and peak RSS.

    os.wait4 gives this child's own resource usage, so the peak RSS is that
    of the measured process and of nothing else.
    """
    out_path = OUT / f"child-{os.getpid()}.out"
    with open(out_path, "wb") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = out_path.read_text(encoding="utf-8", errors="replace")
    out_path.unlink()
    return {"start": t0, "end": t1, "code": proc.returncode, "stdout": text,
            "rss_mb": usage.ru_maxrss / 1024.0}


def nclp_argv(*args):
    return [sys.executable, "-m", "nclp.cli", *args]


def worker_argv(workload, seed, tasks=0):
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--tasks", str(tasks)]


def strict_json(text):
    """Parse JSON, rejecting NaN and Infinity as the CLI contract requires."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


# -- correctness checks on command-line output ---------------------------------


def input_scale(obj):
    """Generous operator-norm scale of an input: n * largest |entry|, plus 1."""
    nums, dims = [], [1]

    def walk(v, key=None):
        if isinstance(v, dict):
            for k, w in v.items():
                walk(w, k)
        elif isinstance(v, list):
            if key in ("block_dims", "source_dims", "target_dims"):
                dims.extend(v)
            else:
                for w in v:
                    walk(w, key)
        elif isinstance(v, (int, float)):
            nums.append(abs(v))

    walk(obj)
    return 1.0 + max(dims) * max(nums, default=0.0)


def demo_misses(out, code, expected, scale):
    """Reasons a demo or oracle invocation is wrong; empty when it is right."""
    from nclp.matcore import DEFAULT_TOL

    if code != expected:
        return [f"exit {code}, expected {expected}"]
    try:
        obj = strict_json(out)
    except ValueError as exc:
        return [f"stdout is not strict JSON: {exc}"]
    if code != 0:
        return [] if "error" in obj else ["error exit without an error object"]
    misses = []
    bound = DEFAULT_TOL.eq_bound(scale)
    for key, value in obj.items():
        if "residual" in key and not value <= bound:
            misses.append(f"{key} = {value}")
    if obj.get("identity_passed") is False:
        misses.append("cocycle identity failed")
    if "margin" in obj and not obj["margin"] >= -DEFAULT_TOL.eq_bound(scale * scale):
        misses.append(f"Hölder margin {obj['margin']}")
    if "norm_product" in obj and "norm" in obj:
        if not abs(obj["norm_product"] - obj["norm"]) <= max(1e-8 * obj["norm"], bound):
            misses.append("comultiply norms do not multiply")
    if "value" in obj and not obj["value"] > 0.0:
        misses.append(f"oracle value {obj['value']}")
    return misses


def verify_misses(out, code):
    """Check one `nclp verify` report; return (report, reasons it is wrong)."""
    try:
        report = strict_json(out)
    except ValueError as exc:
        return None, [f"report is not strict JSON: {exc}"]
    misses = [] if code == 0 else [f"exit {code}"]
    if report.get("all_passed") is not True:
        misses.append("all_passed is not true")
    for name, prop in report.get("properties", {}).items():
        if prop["passed"] != report["trials"]:
            misses.append(f"{name}: {prop['passed']}/{report['trials']} passed")
    return report, misses


def without_duration(text):
    return re.sub(r'"duration_seconds": [^,\n}]*', '"duration_seconds": _', text)


# -- statistics --------------------------------------------------------------


def tail(values):
    """Highest percentile with at least ten samples beyond it: the 11th largest.

    With ten samples or fewer no percentile qualifies, and the maximum is
    reported.  Returns (value, percentile, sample count).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def metric(value, unit):
    return {"value": float(value), "unit": unit}


# -- machine-speed calibration ------------------------------------------------

PROBE_REF_MS = 5.0     # probe time of the reference machine all timings are scaled to
PROBE_UNITS = 16       # a probe times this many short units of the kernel
PROBE_INTERVAL_S = 0.2  # one ~5 ms probe per interval: about 3 % of the shared core
PROBE_WINDOW_S = 0.5    # probes this close to a sample's interval calibrate it
START_REF_MS = 80.0    # bare-interpreter start time of the reference machine


def bare_start_ms():
    """Wall time of a bare interpreter that starts and exits at once, in ms."""
    c = spawn([sys.executable, "-c", "pass"])
    return (c["end"] - c["start"]) * 1e3


class Samples:
    """The timings of one run, each scaled to the reference machine speed.

    This machine's speed drifts by up to 1.8x over seconds to minutes, and
    the drift moves every timing.  So while the run measures, a background
    thread of this (otherwise idle) process times a fixed numpy kernel, the
    probe, every PROBE_INTERVAL_S, on the core that runs the measured child
    (see main).  The probe is PROBE_UNITS times its median unit: a unit the
    scheduler hands to the child part-way is an outlier, so the probe reads
    the core's speed and not the child's time slices.  A time measured over
    [t0, t1] is then multiplied by PROBE_REF_MS over the median probe taken
    within PROBE_WINDOW_S of that interval.

    Process start-up (set-up and demo times) is mostly loading files and
    libraries, which the numpy probe follows poorly.  Each start-up time is
    instead measured right after a bare interpreter start and multiplied by
    START_REF_MS over that start's time.  Raw medians go to the result file.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        # one unit: four 2x2 and one 16x16 eigh + svd, about 0.3 ms
        self._units = [([rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                         for _ in range(4)]
                        + [rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))])
                       for _ in range(PROBE_UNITS)]
        self._samples = {}      # name -> [(raw value, scale factor as a thunk)]
        self._probe_t, self._probe_ms = [], []
        self._start_ms = []     # the bare interpreter starts of add_start
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._probe_loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _probe_loop(self):
        import numpy as np

        while not self._stop.wait(PROBE_INTERVAL_S):
            unit_ms = []
            for unit in self._units:
                t0 = time.perf_counter()
                for a in unit:
                    np.linalg.eigh(a @ a.conj().T)
                    np.linalg.svd(a, compute_uv=False)
                unit_ms.append((time.perf_counter() - t0) * 1e3)
            self._probe_ms.append(PROBE_UNITS * statistics.median(unit_ms))
            self._probe_t.append(time.monotonic())

    def add(self, name, value, t0, t1):
        """Record a time `value` measured between monotonic times t0 and t1."""
        self._samples.setdefault(name, []).append((value, lambda: self._factor(t0, t1)))

    def add_start(self, name, value, start_ms):
        """Record a start-up time `value` measured next to a bare interpreter
        start that took `start_ms`."""
        self._start_ms.append(start_ms)
        self._samples.setdefault(name, []).append((value, lambda: START_REF_MS / start_ms))

    def _factor(self, t0, t1):
        lo = bisect.bisect_left(self._probe_t, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self._probe_t, t1 + PROBE_WINDOW_S)
        if lo == hi:  # no probe that close: take the nearest one
            lo = min(max(lo - 1, 0), len(self._probe_t) - 1)
            hi = lo + 1
        return PROBE_REF_MS / statistics.median(self._probe_ms[lo:hi])

    def scaled(self, name):
        return [v * factor() for v, factor in self._samples[name]]

    def median(self, name):
        return statistics.median(self.scaled(name))

    def count(self, name):
        return len(self._samples[name])

    def detail(self):
        return {"probe_ref_ms": PROBE_REF_MS, "probes": len(self._probe_ms),
                "probe_ms_median": statistics.median(self._probe_ms),
                "start_ref_ms": START_REF_MS,
                "bare_start_ms_median": statistics.median(self._start_ms),
                "raw_medians": {k: statistics.median(v for v, _ in vs)
                                for k, vs in self._samples.items()}}


# -- workloads ---------------------------------------------------------------


def measure_cli(seed, seconds):
    inputs = sorted(DEMO_INPUTS.glob("*.json"))
    if {p.name for p in inputs} != set(CLI_COMMANDS):
        raise SystemExit(f"error: {DEMO_INPUTS} does not hold the shipped demo inputs")
    scales = {p.name: input_scale(json.loads(p.read_text())) for p in inputs}
    failures, attempted = [], 0
    start = time.monotonic()

    def verify(*args):
        nonlocal attempted
        c = spawn(nclp_argv("verify", *args))
        report, misses = verify_misses(c["stdout"], c["code"])
        n = report["trials"] * len(report["properties"]) if report else 1
        attempted += n
        if misses:
            failed = n if report is None else sum(p["failed"] for p in report["properties"].values())
            failures.append({"verify": list(args), "failed": max(failed, 1), "misses": misses})
        return c, report, n

    # correctness on the seed's own instances; not timed, and short, so
    # that VERIFIES timed verifies fit in a 30-second run: see README.md
    seeded, _, _ = verify("--seed", str(seed), "--trials", str(SEEDED_TRIALS))

    runs, trials, rss, reports = 0, [], [], []
    with Samples() as t:
        for _ in range(SETUPS):
            ref = bare_start_ms()
            c = spawn(worker_argv("cli", seed))
            if c["code"] != 0:
                raise SystemExit("error: cli set-up failed")
            ready = json.loads(c["stdout"])["ready"]
            t.add_start("setup_s", ready - c["start"], ref)
        while runs < VERIFIES or time.monotonic() - start < seconds:
            runs += 1
            c, report, n = verify()
            t.add("wall_s", c["end"] - c["start"], c["start"], c["end"])
            rss.append(c["rss_mb"])
            if report is not None:
                reports.append(without_duration(c["stdout"]))
                d = report["duration_seconds"]
                t.add("duration_s", d, c["start"], c["end"])
                t.add("item_ms", 1e3 * d / n, c["start"], c["end"])
                trials.append(n)
            for p in inputs * DEMO_ROUNDS:
                args, expected = CLI_COMMANDS[p.name]
                ref = bare_start_ms()
                d = spawn(nclp_argv(*args, "--input", str(p)))
                attempted += 1
                misses = demo_misses(d["stdout"], d["code"], expected, scales[p.name])
                if misses:
                    failures.append({"demo": p.name, "failed": 1, "misses": misses})
                t.add_start("demo_ms", (d["end"] - d["start"]) * 1e3, ref)
    if len(set(reports)) > 1:
        # every timed invocation ran the same config: any difference is a failure
        failures.append({"verify": "reports differ beyond duration_seconds",
                         "failed": trials[0]})

    tail_ms, pct, count = tail(t.scaled("item_ms"))
    failed = sum(f["failed"] for f in failures)
    return attempted, failed, {
        "setup_s": metric(t.median("setup_s"), "s"),
        "wall_s": metric(t.median("wall_s"), "s"),
        "items_per_s": metric(sum(trials) / sum(t.scaled("duration_s")), "1/s"),
        "item_ms_p50": metric(t.median("item_ms"), "ms"),
        "item_ms_tail": metric(tail_ms, "ms"),
        "demo_ms_p50": metric(t.median("demo_ms"), "ms"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
        "passed_frac": metric(1.0 - failed / attempted, "ratio"),
    }, {"item_ms_tail": {"percentile": pct, "samples": count},
        "verify_invocations": runs, "demo_invocations": t.count("demo_ms"),
        "seeded_verify_s": seeded["end"] - seeded["start"], "setups": SETUPS,
        **t.detail(), "failures": failures}


def demo_plan(workload, seed):
    """[(command args, input path, scale)] for the workload's generated demos."""
    import tasks

    demos = tasks.write_demo_inputs(workload, seed, OUT / f"inputs-{workload}-seed{seed}")
    return [(args, path, input_scale(json.loads(path.read_text()))) for args, path in demos]


def measure_api(workload, seed, seconds):
    demos = demo_plan(workload, seed)
    failures, attempted, rss = [], 0, []
    start = time.monotonic()
    with Samples() as t:
        while len(rss) < 3 or time.monotonic() - start < seconds:
            ref = bare_start_ms()
            c = spawn(worker_argv(workload, seed, POOL[workload]))
            if c["code"] != 0:
                raise SystemExit(f"error: {workload} worker exited {c['code']}")
            res = json.loads(c["stdout"])
            t.add_start("setup_s", res["ready"] - c["start"], ref)
            t.add("wall_s", c["end"] - c["start"], c["start"], c["end"])
            for t0, t1 in res["tasks"]:
                t.add("item_ms", (t1 - t0) * 1e3, t0, t1)
            rss.append(c["rss_mb"])
            attempted += POOL[workload]
            failures.extend(dict(f, failed=1, pass_=len(rss)) for f in res["failures"])
            for args, path, scale in demos:
                ref = bare_start_ms()
                d = spawn(nclp_argv(*args, "--input", str(path)))
                attempted += 1
                misses = demo_misses(d["stdout"], d["code"], 0, scale)
                if misses:
                    failures.append({"demo": args[-1], "failed": 1, "misses": misses})
                t.add_start("demo_ms", (d["end"] - d["start"]) * 1e3, ref)

    latencies = t.scaled("item_ms")
    tail_ms, pct, count = tail(latencies)
    failed = sum(f["failed"] for f in failures)
    return attempted, failed, {
        "setup_s": metric(t.median("setup_s"), "s"),
        "wall_s": metric(t.median("wall_s"), "s"),
        "items_per_s": metric(1e3 * len(latencies) / sum(latencies), "1/s"),
        "item_ms_p50": metric(t.median("item_ms"), "ms"),
        "item_ms_tail": metric(tail_ms, "ms"),
        "demo_ms_p50": metric(t.median("demo_ms"), "ms"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
        "passed_frac": metric(1.0 - failed / attempted, "ratio"),
    }, {"item_ms_tail": {"percentile": pct, "samples": count},
        "passes": len(rss), "tasks_per_pass": POOL[workload],
        "demo_invocations": t.count("demo_ms"), **t.detail(), "failures": failures}


# -- machine details -----------------------------------------------------------


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine(seed, cpus):
    import numpy as np

    config = np.show_config(mode="dicts")
    return {
        "nproc": len(cpus),
        "pinned_cpu": max(cpus),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": config.get("Build Dependencies", {}).get("blas"),
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
        "seed": seed,
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nclp" / "__init__.py").is_file():
        print(f"error: no nclp sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread in every process, set before numpy loads: with two, a
    # big-block task slowed from 0.12 s to 5.7 s while any other process
    # was busy, and blocks this small gain nothing from threads.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    # This process, its probe thread and every child share one core.  The
    # drift is partly per core: a probe on the other core did not follow
    # the task times, while one on the same core halved their spread.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    # SIGTERM unwinds like Ctrl-C, so spawn() kills the running child
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    if args.trace:
        import trace_run

        attempted, failed, metrics, detail = trace_run.run_traced(args.workload, args.seed, OUT)
    elif args.workload == "cli":
        attempted, failed, metrics, detail = measure_cli(args.seed, args.seconds)
    else:
        attempted, failed, metrics, detail = measure_api(args.workload, args.seed, args.seconds)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  machine=machine(args.seed, cpus), detail=detail)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
