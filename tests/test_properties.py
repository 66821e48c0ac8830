"""The seeded property registry: every property passes and refuses a broken
result, and reports add up."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from nclp import (DivisionResult, GradingError, NotModuleMapError, decomp, lpspace,
                  operator_norm, properties)
from nclp.properties import PROPERTIES, SuiteConfig, run_suite
from nclp.sampling import spawn_rng
from nclp.serialize import dumps


@pytest.fixture(scope="module")
def report():
    return run_suite(SuiteConfig(seed=42, trials=6))


def test_all_properties_pass(report):
    failing = {name: r for name, r in report["properties"].items() if r["failed"]}
    assert not failing, f"failing properties: {failing}"
    assert report["all_passed"]


def test_counts_sum_to_trials(report):
    for name, r in report["properties"].items():
        assert r["passed"] + r["failed"] == report["trials"], name


def test_registry_covers_every_module():
    prefixes = {name.split(".")[0] for name in PROPERTIES}
    assert prefixes == {"matcore", "weights", "decomp", "lpspace", "cli"}


@pytest.mark.parametrize("name", sorted(PROPERTIES))
def test_property_is_deterministic(name):
    cfg = SuiteConfig(seed=7, trials=2)
    runs = []
    for _ in range(2):
        rng = spawn_rng(cfg.seed, name)
        runs.append([PROPERTIES[name](rng, cfg) for _ in range(cfg.trials)])
    assert runs[0] == runs[1]


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(trials=0)
    with pytest.raises(ValueError):
        SuiteConfig(gradings=(((-0.5 + 0j), 0.5 + 0j),))
    for bad in (complex(float("nan"), 0.0), complex(0.5, float("inf"))):
        with pytest.raises(ValueError):
            SuiteConfig(gradings=((bad, 0.5 + 0j),))


def test_config_obj_roundtrip():
    cfg = SuiteConfig(seed=9, trials=3)
    again = SuiteConfig.from_obj(cfg.to_obj())
    assert again == cfg


def test_a_crashed_trial_is_reported_with_its_reason(monkeypatch):
    calls = []

    def flaky(rng, cfg):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("injected at trial 2")
        return True, 0.0

    def steady(rng, cfg):
        return True, 0.0

    monkeypatch.setattr(properties, "PROPERTIES", {"a.flaky": flaky, "b.steady": steady})
    report = run_suite(SuiteConfig(seed=1, trials=4))
    assert report["properties"] == {
        "a.flaky": {"passed": 3, "failed": 1, "worst_residual": None,
                    "first_crash": {"trial": 2, "type": "RuntimeError",
                                    "message": "injected at trial 2"}},
        "b.steady": {"passed": 4, "failed": 0, "worst_residual": 0.0},
    }
    assert not report["all_passed"]


def test_a_nan_residual_is_reported_as_null(monkeypatch):
    residuals = iter([1.0, float("nan"), 2.0])
    monkeypatch.setattr(properties, "PROPERTIES",
                        {"a.nan": lambda rng, cfg: (False, next(residuals))})
    report = run_suite(SuiteConfig(seed=1, trials=3))
    assert report["properties"]["a.nan"]["worst_residual"] is None
    assert '"worst_residual": null' in dumps(report)
    with pytest.raises(ValueError):
        dumps({"worst_residual": float("inf")})


def test_suite_run_imports_no_masked_arrays():
    # importing numpy.ma adds time and memory to every fresh `nclp verify`
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    # and the ladder, the cyclic generator and the cocycle check on many
    # blocks and on one big block, whose ladder has many rung widths
    code = ("import sys\n"
            "from nclp import BlockAlgebra, DEFAULT_TOL, decomp, weights\n"
            "from nclp.properties import SuiteConfig, run_suite\n"
            "from nclp.sampling import (make_rng, random_conditioned, random_element,\n"
            "                           random_graded, random_weight)\n"
            "run_suite(SuiteConfig(trials=1))\n"
            "rng = make_rng(0)\n"
            "for dims in ((2,) * 64, (64,)):\n"
            "    M = BlockAlgebra(dims)\n"
            "    x = random_conditioned(rng, M, DEFAULT_TOL)\n"
            "    decomp.douglas_ladder(x, random_element(rng, M) @ x)\n"
            "    mu, nu = random_weight(rng, M), random_weight(rng, M)\n"
            "    decomp.cyclic_generator([random_graded(rng, M, 0.5 + 0.3j) for _ in range(2)], mu)\n"
            "    weights.cocycle_identity_check(mu, nu, 0.3j, -0.7j)\n"
            "print('numpy.ma' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def _run(name, cfg):
    return PROPERTIES[name](spawn_rng(cfg.seed, name), cfg)


def test_holder_witness_equality_falls_back_to_a_real_left_grading(monkeypatch):
    # no configured grading has Re a > eq_abs: the property draws its own pair
    seen = []
    real = lpspace.holder_witness

    def spy(xi, b, tol):
        seen.append((xi.grading, b))
        return real(xi, b, tol)

    monkeypatch.setattr(lpspace, "holder_witness", spy)
    cfg = SuiteConfig(seed=3, trials=1, gradings=((0.4j, 0.5),))
    passed, residual = _run("lpspace.holder_witness_equality", cfg)
    assert seen == [(0.5 + 0.3j, 0.5 - 0.2j)]
    assert passed and 0.0 <= residual <= 1e-8


def test_douglas_minimal_constant_refuses_a_constant_that_is_not_minimal(monkeypatch):
    # twice the minimal constant majorizes, but so does 0.999 of it; on 1 x 1
    # blocks a nonzero x is invertible, so no kernel leaves that to rounding
    real = decomp.douglas_divide

    def doubled(x, y, tol):
        result = real(x, y, tol)
        return DivisionResult(result.quotient, 2.0 * result.minimal_c, result.residual)

    monkeypatch.setattr(decomp, "douglas_divide", doubled)
    cfg = SuiteConfig(seed=1, trials=1, block_shapes=((1,),))
    assert _run("decomp.douglas_minimal_constant", cfg) == (False, 1.0)


def test_graded_division_grading_refuses_an_accepted_mismatch(monkeypatch):
    real = decomp.graded_divide

    def lenient(x, y, tol):
        try:
            return real(x, y, tol)
        except GradingError:
            return None

    monkeypatch.setattr(decomp, "graded_divide", lenient)
    cfg = SuiteConfig(seed=3, trials=1)
    assert _run("decomp.graded_division_grading", cfg) == (False, 1.0)


def test_holder_witness_ladder_refuses_a_ratio_below_c(monkeypatch):
    # a witness that ignores c: on Re b = 1/2 its ratio is the root mean
    # square of the singular values, below 0.9 of the largest
    calls = []
    real = lpspace.holder_witness_imaginary

    def ignores_c(xi, b, c, tol):
        calls.append((xi, c, real(xi, b, 0.0, tol)))
        return calls[-1][2]

    monkeypatch.setattr(lpspace, "holder_witness_imaginary", ignores_c)
    cfg = SuiteConfig(seed=3, trials=1, block_shapes=((3,),), gradings=((0.5, 0.5),))
    passed, residual = _run("lpspace.holder_witness_ladder", cfg)
    [(xi, c, y)] = calls     # the first rung already fails
    tol = cfg.tolerances
    ratio = lpspace.lnorm(lpspace.gmul(xi, y), tol) / lpspace.lnorm(y, tol)
    assert c == operator_norm(xi.data) * 0.9
    assert not passed and residual == c - ratio > 0.0


def test_hom_roundtrip_refuses_an_accepted_corrupted_map(monkeypatch):
    real = lpspace.hom_to_element

    def lenient(T, tol):
        try:
            return real(T, tol)
        except NotModuleMapError:
            return None

    monkeypatch.setattr(lpspace, "hom_to_element", lenient)
    cfg = SuiteConfig(seed=3, trials=1, block_shapes=((2,),))
    assert _run("lpspace.hom_roundtrip", cfg) == (False, 1.0)
