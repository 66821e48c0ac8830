"""The traced run: per-layer metrics from spans around the benchmark's calls.

It does a fixed amount of work for the seed, so its counts repeat exactly:

* `cli`: imports nclp, then runs every registered property at the default
  config of `nclp verify`, on the same `spawn_rng(seed, name)` streams as
  `run_suite`, once untraced and once with a span per trial attributed to
  the layer in the property's name prefix; then every shipped input
  through `cli.main`.
* API workloads: imports nclp, runs the instance pool once to warm up,
  once untraced and once traced, then the generated demo inputs through
  `cli.main`.

The untraced and traced passes do the same work, so their time difference
is the tracing overhead.  Spans are written to `<out>/spans-*.jsonl`.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time

import run
from tracing import LINALG, Tracer

LAYERS = ("matcore", "weights", "decomp", "lpspace", "cli")


def _demo(tracer, argv, expected, scale):
    """One in-process CLI call, traced and checked like its subprocess twin."""
    from nclp import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = tracer.call("cli", "main", cli.main, argv)
        except Exception as exc:  # noqa: BLE001 - counted as a failed item
            return [f"{type(exc).__name__}: {exc}"]
    return run.demo_misses(buf.getvalue(), code, expected, scale)


def _trace_cli(tracer, failures):
    from nclp.properties import PROPERTIES, SuiteConfig
    from nclp.sampling import spawn_rng

    cfg = SuiteConfig()  # the config a bare `nclp verify` runs
    untraced = traced = 0.0
    tracer.install()
    for name in sorted(PROPERTIES):
        prop, layer = PROPERTIES[name], name.split(".")[0]
        # the same stream twice: untraced, then traced, so the two passes
        # do identical work and their time difference is the tracing cost
        results = []
        for traced_pass in (False, True):
            rng = spawn_rng(cfg.seed, name)
            t0 = time.perf_counter()
            for _ in range(cfg.trials):
                if traced_pass:
                    tracer.begin_item()
                    tracer.open("suite." + name, layer)
                try:
                    ok, resid = prop(rng, cfg)
                except Exception:  # noqa: BLE001 - run_suite counts a crash as a failure
                    ok, resid = False, float("inf")
                if traced_pass:
                    tracer.close(error=not ok)
                    tracer.end_item()
                results.append((bool(ok), float(resid)))
            elapsed = time.perf_counter() - t0
            if traced_pass:
                traced += elapsed
            else:
                untraced += elapsed
        passed = sum(ok for ok, _ in results)
        if passed != 2 * cfg.trials or results[:cfg.trials] != results[cfg.trials:]:
            failures.append({"property": name, "passed": passed,
                             "failed": max(2 * cfg.trials - passed, 1)})
    for p in sorted(run.DEMO_INPUTS.glob("*.json")):
        args, expected = run.CLI_COMMANDS[p.name]
        misses = _demo(tracer, [*args, "--input", str(p)], expected,
                       run.input_scale(json.loads(p.read_text())))
        if misses:
            failures.append({"demo": p.name, "failed": 1, "misses": misses})
    tracer.uninstall()
    return 2 * cfg.trials * len(PROPERTIES) + len(run.CLI_COMMANDS), traced / untraced - 1.0


def _trace_api(tracer, workload, seed, failures):
    import tasks
    from worker import run_pass

    pool = tasks.draw_pool(workload, seed, run.POOL[workload])
    demos = run.demo_plan(workload, seed)
    run_pass(pool)  # warm-up: the first pass pays for lazy initialisation
    untraced, _ = run_pass(pool)

    tracer.install()
    traced = []
    for inst in pool:
        tracer.begin_item()
        done, fails = run_pass([inst], tracer.call)
        tracer.end_item()
        traced.extend(done)
        failures.extend(dict(f, failed=1) for f in fails)
    for args, path, scale in demos:
        misses = _demo(tracer, [*args, "--input", str(path)], 0, scale)
        if misses:
            failures.append({"demo": args[-1], "failed": 1, "misses": misses})
    tracer.uninstall()
    def busy(intervals):
        return sum(t1 - t0 for t0, t1 in intervals)

    return len(pool) + len(demos), busy(traced) / busy(untraced) - 1.0


def summarize(tracer, overhead):
    """Every per-layer metric, zero where the workload never reaches it."""
    from nclp.properties import PROPERTIES
    from tasks import TASK_FUNCTIONS

    spans = tracer.spans
    durations = [s.end - s.start for s in spans]
    self_times = tracer.self_times()
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    def p50_ms(values, ids):
        return statistics.median(values[i] for i in ids) * 1e3 if ids else 0.0

    for name in sorted(PROPERTIES):
        put(f"suite.{name}.s", sum(durations[i] for i in by_name.get("suite." + name, ())), "s")
    for layer in LAYERS:
        ids = [i for i, s in enumerate(spans) if s.layer == layer]
        put(f"{layer}.calls", len(ids), "count")
        put(f"{layer}.errors", sum(spans[i].error for i in ids), "count")
        put(f"{layer}.busy_s", sum(durations[i] for i in ids), "s")
        put(f"{layer}.self_s", sum(self_times[i] for i in ids), "s")
    put("linalg.busy_s", sum(d for s, d in zip(spans, durations) if s.layer == "linalg"), "s")
    items = max(tracer.items, 1)
    for kind in LINALG:
        put(f"linalg.{kind}_calls", tracer.item_counts[kind] / items, "count")
    total = sum(tracer.item_counts.values())
    put("linalg.distinct_ratio", tracer.distinct / total if total else 1.0, "ratio")
    for layer, fn in TASK_FUNCTIONS:
        ids = by_name.get(f"{layer}.{fn}", [])
        put(f"{layer}.{fn}.ms_p50", p50_ms(durations, ids), "ms")
        put(f"{layer}.{fn}.self_ms_p50", p50_ms(self_times, ids), "ms")
        calls = sum(sum((spans[i].counts or {}).values()) for i in ids)
        put(f"{layer}.{fn}.factorizations", calls / len(ids) if ids else 0.0, "count")
    put("trace.overhead_frac", overhead, "ratio")
    return m


def run_traced(workload, seed, out):
    """(attempted, failed, per-layer metrics, detail) of one traced run."""
    tracer = Tracer()
    failures = []
    tracer.open("cli.import", "cli")
    import nclp.cli  # noqa: F401
    tracer.close()
    if workload == "cli":
        attempted, overhead = _trace_cli(tracer, failures)
    else:
        attempted, overhead = _trace_api(tracer, workload, seed, failures)
    metrics = summarize(tracer, overhead)
    path = out / f"spans-{workload}-seed{seed}.jsonl"
    tracer.dump(path)
    failed = sum(f["failed"] for f in failures)
    return attempted, failed, metrics, {"spans": str(path.relative_to(run.ROOT)),
                                        "items": tracer.items, "failures": failures}
