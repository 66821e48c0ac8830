"""The seeded property registry: every property passes and refuses a broken
result, and reports add up."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nclp import (DivisionResult, Element, GradingError, NotModuleMapError, ToleranceReport,
                  Tolerances, decomp, flatten_element, left_support, lpspace, operator_norm,
                  properties, serialize, trace, unflatten_element, weights)
from nclp.properties import LAWS, PROPERTIES, SuiteConfig, run_suite
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


def test_every_law_is_a_property():
    assert PROPERTIES.keys() == LAWS.keys()


@pytest.mark.parametrize("shapes", [properties.DEFAULT_SHAPES, [[2] * 32, [3, 1, 2, 1, 3]]],
                         ids=["default", "many-blocks"])
@pytest.mark.parametrize("name", sorted(LAWS))
def test_a_draw_leaves_the_generator_where_a_full_trial_leaves_it(name, shapes):
    # every read of the generator is the draw's, so a check that raises
    # cannot shift the instance the next trial draws
    cfg = SuiteConfig(trials=2, block_shapes=shapes)
    draw = LAWS[name][0]
    drawn, run = spawn_rng(cfg.seed, name), spawn_rng(cfg.seed, name)
    for _ in range(cfg.trials):
        draw(drawn, cfg)
        PROPERTIES[name](run, cfg)
        assert drawn.bit_generator.state == run.bit_generator.state


def test_a_crashed_check_leaves_the_next_trial_its_instance(monkeypatch):
    # a division that raises once: trial 0 crashes, and trial 1 still
    # measures the instance it measures in a clean run
    name, cfg = "decomp.douglas_uniqueness", SuiteConfig()
    clean = spawn_rng(cfg.seed, name)
    want = [PROPERTIES[name](clean, cfg) for _ in range(2)][1]
    real, calls = decomp.douglas_divide, []

    def fails_once(x, y, tol):
        calls.append(None)
        if len(calls) == 1:
            raise RuntimeError("injected at the first division")
        return real(x, y, tol)

    monkeypatch.setattr(decomp, "douglas_divide", fails_once)
    rng = spawn_rng(cfg.seed, name)
    with pytest.raises(RuntimeError, match="^injected at the first division$"):
        PROPERTIES[name](rng, cfg)
    assert PROPERTIES[name](rng, cfg) == want


def test_the_verdict_fails_a_nan_residual():
    for resid, bound, ok in ((0.5, 0.5, True), (0.6, 0.5, False), (float("nan"), 0.5, False)):
        trial = properties._trial(lambda rng, cfg: (), lambda tol: (resid, bound))
        assert trial(None, SuiteConfig())[0] is ok


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(trials=0)
    with pytest.raises(ValueError):
        SuiteConfig(gradings=(((-0.5 + 0j), 0.5 + 0j),))
    for bad in (complex(float("nan"), 0.0), complex(0.5, float("inf"))):
        with pytest.raises(ValueError):
            SuiteConfig(gradings=((bad, 0.5 + 0j),))


def test_config_reads_gradings_and_tolerances():
    cfg = SuiteConfig.from_obj({
        "seed": 9, "trials": 3, "block_shapes": [[2, 1]],
        "gradings": [[[0.5, 0.0], [1.0, -0.25]], [[0.0, 0.7], [2.0, 0.0]]],
        "tolerances": {"rank_rel": 1e-9, "eq_abs": 1e-10, "eq_rel": 2e-10}})
    assert cfg == SuiteConfig(seed=9, trials=3, block_shapes=((2, 1),),
                              gradings=((0.5, 1.0 - 0.25j), (0.7j, 2.0)),
                              tolerances=Tolerances(1e-9, 1e-10, 2e-10))


@pytest.mark.parametrize("shapes", [properties.DEFAULT_SHAPES, [[2] * 32, [3, 1, 2, 1, 3]]],
                         ids=["default", "many-blocks"])
def test_every_element_the_suite_builds_takes_fresh_complex_stacks(shapes, monkeypatch):
    # Element._of converts and copies nothing: every call site must hand it
    # one complex128 (k, n, n) array per size class, which it makes read-only
    of = Element._of.__func__
    calls, faults = [], []

    def checked(cls, algebra, stacks):
        stacks = tuple(stacks)
        out = of(cls, algebra, stacks)
        calls.append(algebra)
        got = [(type(s).__name__, s.dtype.name, s.shape) for s in stacks]
        if (got != [("ndarray", "complex128", shape) for shape in algebra._shapes()]
                or any(a is not b or a.flags.writeable for a, b in zip(out.stacks, stacks))):
            faults.append((algebra.block_dims, got))
        return out

    monkeypatch.setattr(Element, "_of", classmethod(checked))
    report = run_suite(SuiteConfig(trials=2, block_shapes=shapes))
    assert report["all_passed"]
    assert len(calls) > 1000 and not faults, faults[:3]


def test_a_crashed_trial_is_reported_with_its_reason(monkeypatch):
    calls = []

    def flaky(rng, cfg):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("injected at trial 2")
        return True, 0.0

    def steady(rng, cfg):
        return True, 0.0

    def broken(rng, cfg):
        # a law that no residual measures fails by naming itself
        raise AssertionError("a mismatched grading is accepted")

    monkeypatch.setattr(properties, "PROPERTIES",
                        {"a.flaky": flaky, "b.steady": steady, "c.law": broken})
    report = run_suite(SuiteConfig(seed=1, trials=4))
    assert report["properties"] == {
        "a.flaky": {"passed": 3, "failed": 1, "worst_residual": None,
                    "first_crash": {"trial": 2, "type": "RuntimeError",
                                    "message": "injected at trial 2"}},
        "b.steady": {"passed": 4, "failed": 0, "worst_residual": 0.0},
        "c.law": {"passed": 0, "failed": 4, "worst_residual": None,
                  "first_crash": {"trial": 0, "type": "AssertionError",
                                  "message": "a mismatched grading is accepted"}},
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


MINIMAL = "a constant below the minimal one still majorizes"


def test_douglas_minimal_constant_refuses_a_constant_that_is_not_minimal(monkeypatch):
    # twice the minimal constant majorizes, but so does 0.999 of it; on 1 x 1
    # blocks a nonzero x is invertible, so no kernel leaves that to rounding
    real = decomp.douglas_divide

    def doubled(x, y, tol):
        result = real(x, y, tol)
        return DivisionResult(result.quotient, 2.0 * result.minimal_c, result.residual)

    monkeypatch.setattr(decomp, "douglas_divide", doubled)
    cfg = SuiteConfig(seed=1, trials=1, block_shapes=((1,),))
    with pytest.raises(AssertionError, match=f"^{MINIMAL}$"):
        _run("decomp.douglas_minimal_constant", cfg)


def test_douglas_minimal_constant_refuses_a_doubled_constant_on_any_kernel(monkeypatch):
    # on the default shapes x is mostly rank-deficient; on the common kernel
    # of the two Gram matrices every constant holds, so the refusal must come
    # from the support of x, in every trial that reaches the division
    real, reached = decomp.douglas_divide, []

    def doubled(x, y, tol):
        result = real(x, y, tol)
        reached.append(x)
        return DivisionResult(result.quotient, 2.0 * result.minimal_c, result.residual)

    monkeypatch.setattr(decomp, "douglas_divide", doubled)
    cfg = SuiteConfig()
    rng = spawn_rng(cfg.seed, "decomp.douglas_minimal_constant")
    refusals = []
    for _ in range(cfg.trials):
        try:
            PROPERTIES["decomp.douglas_minimal_constant"](rng, cfg)
        except AssertionError as exc:
            refusals.append(str(exc))
        assert len(refusals) == len(reached)   # every trial that divides refuses
    ranks = [round(trace(left_support(x)).real) for x in reached]
    deficient = sum(r < x.algebra.matrix_dim for r, x in zip(ranks, reached))
    assert refusals == [MINIMAL] * 32 and deficient > len(refusals) // 2


def test_graded_division_grading_refuses_an_accepted_mismatch(monkeypatch):
    real = decomp.graded_divide

    def lenient(x, y, tol):
        try:
            return real(x, y, tol)
        except GradingError:
            return None

    monkeypatch.setattr(decomp, "graded_divide", lenient)
    cfg = SuiteConfig(seed=3, trials=1)
    with pytest.raises(AssertionError, match="^a division across real gradings is accepted$"):
        _run("decomp.graded_division_grading", cfg)


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
    real = lpspace._multiplier

    def lenient(algebra, matrix, tol):
        # the constructor's check keeps T(1) of a map that is not left
        # multiplication by it
        try:
            return real(algebra, matrix, tol)
        except NotModuleMapError:
            return unflatten_element(algebra, matrix @ flatten_element(algebra.identity()))

    monkeypatch.setattr(lpspace, "_multiplier", lenient)
    cfg = SuiteConfig(seed=3, trials=1, block_shapes=((2,),))
    with pytest.raises(AssertionError,
                       match="^a map that is no left multiplication is accepted$"):
        _run("lpspace.hom_roundtrip", cfg)


def test_modular_trivial_iff_central_refuses_a_flow_that_moves_nothing(monkeypatch):
    # the central density passes with residual 0, so only the noncentral one fails
    monkeypatch.setattr(weights, "modular_automorphism", lambda mu, a, p, tol: p)
    cfg = SuiteConfig(seed=3, trials=1, block_shapes=((2,),))
    with pytest.raises(AssertionError, match="^the flow of a noncentral density moves nothing$"):
        _run("weights.modular_trivial_iff_central", cfg)


def test_douglas_ladder_refuses_gaps_that_increase(monkeypatch):
    # the last gap is exact, so only the order of the rungs fails
    monkeypatch.setattr(decomp, "douglas_ladder",
                        lambda x, y, tol: [(1.0, 0.0), (0.5, 1.0), (0.25, 0.0)])
    with pytest.raises(AssertionError, match="^the gaps of the Douglas ladder increase$"):
        _run("decomp.douglas_ladder", SuiteConfig(seed=3, trials=1))


def test_serialization_roundtrip_refuses_a_reprint_that_differs(monkeypatch):
    # a printer that stamps each print with its serial number
    real, serial = serialize.dumps, itertools.count()
    monkeypatch.setattr(serialize, "dumps", lambda obj: real({**obj, "serial": next(serial)}))
    with pytest.raises(AssertionError, match="^a reprint of the JSON differs from the print$"):
        _run("cli.serialization_roundtrip", SuiteConfig(seed=3, trials=1))


def test_cocycle_identity_fails_a_residual_over_the_checks_bound(monkeypatch):
    # a check off by 1 on partial isometries, whose bound is a rounding
    # error at scale 1
    real = weights.cocycle_identity_check

    def lenient(mu, nu, a, b, tol):
        report = real(mu, nu, a, b, tol)
        return ToleranceReport(report.max_residual + 1.0, report.bound)

    monkeypatch.setattr(weights, "cocycle_identity_check", lenient)
    passed, residual = _run("weights.cocycle_identity", SuiteConfig(seed=3, trials=1))
    assert not passed and residual >= 1.0
