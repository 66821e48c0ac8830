"""Self-test of the benchmark.  Run from the checkout root:

    python3 -m pytest -q bench/test_bench.py

It is not part of the library's test suite (pytest's testpaths name only
`tests/`) and takes about half a minute.
"""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tasks  # noqa: E402
import trace_run  # noqa: E402
from worker import run_pass  # noqa: E402

from nclp import decomp  # noqa: E402


@pytest.fixture
def small_pools(monkeypatch):
    monkeypatch.setattr(run, "POOL", {"many-blocks": 2, "big-block": 2})


def _counts(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if k.startswith("linalg.") and k.endswith("_calls") or k.endswith(".factorizations")
            or k == "linalg.distinct_ratio"}


@pytest.mark.parametrize("workload", ["many-blocks", "big-block"])
def test_traced_counts_repeat_exactly(small_pools, workload):
    first = trace_run.run_traced(workload, 11, run.OUT)
    second = trace_run.run_traced(workload, 11, run.OUT)
    assert first[1] == second[1] == 0
    counts = _counts(first[2])
    assert counts == _counts(second[2])
    assert counts["decomp.douglas_ladder.factorizations"] > 0
    assert counts["linalg.svd_calls"] > 0


def test_injected_failure_is_counted(small_pools, monkeypatch):
    real = decomp.douglas_divide

    def wrong(x, y, tol=decomp.DEFAULT_TOL):
        out = real(x, y, tol)
        return decomp.DivisionResult(out.quotient * 1.01, out.minimal_c, out.residual)

    monkeypatch.setattr(decomp, "douglas_divide", wrong)
    pool = tasks.draw_pool("many-blocks", 11, 2)
    _, failures = run_pass(pool)
    # the ladder and the cyclic generator divide through it too
    assert [f["item"] for f in failures] == [0, 1]
    assert all("douglas_divide" in f["misses"] for f in failures)

    attempted, failed, _, _ = trace_run.run_traced("many-blocks", 11, run.OUT)
    assert failed == 2 and attempted > failed


def test_crash_is_a_failed_item(monkeypatch):
    def boom(*args):
        raise FloatingPointError("injected")

    monkeypatch.setattr(decomp, "polar_left", boom)
    _, failures = run_pass(tasks.draw_pool("big-block", 11, 1))
    assert failures == [{"item": 0, "error": "FloatingPointError: injected"}]


def test_cli_output_checks():
    assert run.demo_misses('{"value": 5.0}', 0, 0, 1.0) == []
    assert run.demo_misses('{"value": NaN}', 0, 0, 1.0)
    assert run.demo_misses('{"value": 5.0}', 0, 1, 1.0)
    assert run.demo_misses('{"error": {"type": "UnsolvableError"}}', 1, 1, 1.0) == []
    assert run.demo_misses('{"residual": 1.0}', 0, 0, 1.0)
    report = '{"all_passed": true, "trials": 2, "properties": {"p": {"passed": 1, "failed": 1}}}'
    assert run.verify_misses(report, 0)[1] == ["p: 1/2 passed"]
    text = '{\n  "all_passed": true,\n  "duration_seconds": 1.25,\n  "seed": 42\n}\n'
    assert run.without_duration(text) == run.without_duration(text.replace("1.25", "9.5"))


def test_tail_keeps_ten_samples_beyond():
    assert run.tail(list(range(1, 101))) == (90, 90.0, 100)
    value, pct, n = run.tail([3.0, 1.0, 2.0])
    assert (value, pct, n) == (3.0, 100.0, 3)
    assert math.isclose(run.tail(list(range(40)))[1], 75.0)
