"""CLI contract: exit codes, JSON output, determinism, seed resolution."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nclp import DEFAULT_TOL, BlockAlgebra, NonFiniteError, OutOfRangeError, douglas_divide
from nclp.cli import main
from nclp.properties import SuiteConfig, run_suite
from nclp.sampling import (
    make_rng,
    random_conditioned,
    random_element,
    random_graded,
    random_weight,
)
from nclp.serialize import dumps, element_from_obj, element_to_obj, graded_to_obj, weight_to_obj


ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


ELEMENT_X = {"block_dims": [2], "blocks": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]}
ELEMENT_Y = {"block_dims": [2], "blocks": [[[[2, 0], [0, 0]], [[0, 0], [0, 0]]]]}
BAD_X = {"block_dims": [2], "blocks": [[[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]}


def test_verify_default_passes(capsys):
    code, report = run_cli(capsys, "verify", "--trials", "2", "--seed", "5")
    assert code == 0
    assert report["all_passed"] is True
    assert report["seed"] == 5
    for r in report["properties"].values():
        assert r["passed"] + r["failed"] == 2


def test_verify_reports_are_deterministic():
    cfg = SuiteConfig(seed=42, trials=3)
    one, two = run_suite(cfg), run_suite(cfg)
    one.pop("duration_seconds"), two.pop("duration_seconds")
    assert dumps(one) == dumps(two)


def test_verify_zero_trials_is_config_error(capsys, tmp_path):
    cfg = write(tmp_path, "cfg.json", {"trials": 0})
    code, err = run_cli(capsys, "verify", "--config", cfg)
    assert code == 2
    assert err["error"]["type"] == "config"


def test_verify_malformed_config_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, err = run_cli(capsys, "verify", "--config", str(path))
    assert code == 2


def test_verify_unreachable_tolerance_fails(capsys, tmp_path):
    cfg = write(tmp_path, "tight.json", {
        "trials": 2,
        "tolerances": {"rank_rel": 1e-10, "eq_abs": 1e-300, "eq_rel": 1e-300},
    })
    code = main(["verify", "--config", cfg])
    report = _strict_json(capsys.readouterr().out)
    assert code == 1
    assert report["all_passed"] is False
    crashed = [r for r in report["properties"].values() if "first_crash" in r]
    assert crashed and all(r["worst_residual"] is None for r in crashed)
    worst = max(r["worst_residual"] or 0.0 for r in report["properties"].values())
    assert worst > 0.0


def test_verify_ignores_the_nclp_seed_variable(capsys, monkeypatch):
    # the seed comes from --seed, then the config, then 42: nothing else
    monkeypatch.setenv("NCLP_SEED", "123")
    code, report = run_cli(capsys, "verify", "--trials", "1")
    assert code == 0 and report["seed"] == 42
    code, report = run_cli(capsys, "verify", "--trials", "1", "--seed", "9")
    assert code == 0 and report["seed"] == 9


def test_demo_douglas_solvable(capsys, tmp_path):
    path = write(tmp_path, "div.json", {"x": ELEMENT_X, "y": ELEMENT_Y})
    code, out = run_cli(capsys, "demo", "douglas", "--input", path)
    assert code == 0
    assert out["minimal_c"] == pytest.approx(2.0)
    assert out["residual"] < 1e-12


def test_demo_douglas_unsolvable_error_object(capsys, tmp_path):
    path = write(tmp_path, "bad.json", {"x": BAD_X, "y": ELEMENT_Y})
    code, out = run_cli(capsys, "demo", "douglas", "--input", path)
    assert code == 1
    assert out["error"]["type"] == "UnsolvableError"
    assert out["error"]["residual"] == pytest.approx(2.0)


def test_shipped_unsolvable_division_writes_type_message_and_residual_only(capsys):
    # the bound an UnsolvableError carries stays out of the CLI's error object
    path = ROOT / "demos" / "inputs" / "douglas_unsolvable.json"
    code, out = run_cli(capsys, "demo", "douglas", "--input", str(path))
    assert code == 1
    assert out == {"error": {"type": "UnsolvableError",
                             "message": "no c satisfies c^2 x*x >= y*y: residual 1.000e+00",
                             "residual": 1.0}}


def test_demo_holder_identity(capsys, tmp_path):
    graded_id = {"block_dims": [2],
                 "blocks": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]],
                 "grading": [0.5, 0.0]}
    path = write(tmp_path, "holder.json", {"x": graded_id, "y": graded_id})
    code, out = run_cli(capsys, "demo", "holder", "--input", path)
    assert code == 0
    assert out["norm_product"] == pytest.approx(2.0)
    assert out["margin"] >= -1e-12


def test_demo_comultiply(capsys, tmp_path):
    zeta = {"block_dims": [2],
            "blocks": [[[[1, 0], [0, 0]], [[0, 0], [2, 0]]]],
            "grading": [1.0, 0.0]}
    path = write(tmp_path, "co.json", {"zeta": zeta, "split": [[0.5, 0], [0.5, 0]]})
    code, out = run_cli(capsys, "demo", "comultiply", "--input", path)
    assert code == 0
    assert out["norm_product"] == pytest.approx(3.0)
    assert out["residual"] < 1e-12


def test_demo_cocycle(capsys, tmp_path):
    mu = {"density": {"block_dims": [2],
                      "blocks": [[[[1, 0], [0, 0]], [[0, 0], [2, 0]]]]}}
    nu = {"density": {"block_dims": [2],
                      "blocks": [[[[3, 0], [0, 0]], [[0, 0], [1, 0]]]]}}
    path = write(tmp_path, "cc.json", {"mu": mu, "nu": nu, "a": [0, 0.8]})
    code, out = run_cli(capsys, "demo", "cocycle", "--input", path)
    assert code == 0
    assert out["inputs"] == {"mu": mu, "nu": nu, "a": [0, 0.8]}   # no default b echoed
    assert out["operator_norm"] == pytest.approx(1.0)
    assert out["identity_passed"] is True


def test_demo_pushforward(capsys, tmp_path):
    mu = {"density": {"block_dims": [2],
                      "blocks": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}}
    embedding = {"source_dims": [2], "target_dims": [4], "assignment": [[0, 0]]}
    for obj in ({"mu": mu, "embedding": embedding},
                {"mu": mu, "embedding": embedding, "slot_weights": [0.5, 2.0]}):
        code, out = run_cli(capsys, "demo", "pushforward", "--input", write(tmp_path, "pf.json", obj))
        assert code == 0
        assert out["agreement_residual"] < 1e-12
        assert out["faithful"] is True
        assert out["inputs"] == obj   # slot_weights changes the result, so it is echoed


def test_demo_pushforward_wrong_number_of_slot_weights_is_parse_error(capsys, tmp_path):
    mu = {"density": {"block_dims": [2],
                      "blocks": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}}
    embedding = {"source_dims": [2], "target_dims": [4], "assignment": [[0, 0]]}
    for given in ([1.0], [1.0, 1.0, 1.0]):
        path = write(tmp_path, "pf.json",
                     {"mu": mu, "embedding": embedding, "slot_weights": given})
        code, out = run_cli(capsys, "demo", "pushforward", "--input", path)
        assert code == 2
        assert out["error"] == {"type": "parse",
                                "message": f"expected 2 slot weights, got {len(given)}"}


def test_demo_parse_error(capsys, tmp_path):
    path = write(tmp_path, "junk.json", {"x": {"block_dims": [2], "blocks": []}})
    code, out = run_cli(capsys, "demo", "polar", "--input", path)
    assert code == 2
    assert "error" in out


def test_oracle_command(capsys, tmp_path):
    path = write(tmp_path, "oracle.json",
                 {"f": [[3, 0], [4, 0]], "a": [0.5, 0], "mu": [1, 1]})
    code, out = run_cli(capsys, "oracle", "--input", path)
    assert code == 0
    assert out["value"] == pytest.approx(5.0)


def test_oracle_domain_error(capsys, tmp_path):
    path = write(tmp_path, "oracle_bad.json", {"f": [1.0], "a": [0.0, 0.0]})
    code, out = run_cli(capsys, "oracle", "--input", path)
    assert code == 1
    assert out["error"]["type"] == "domain"


def test_shipped_demo_inputs_stay_valid(capsys):
    from pathlib import Path
    inputs = Path(__file__).resolve().parent.parent / "demos" / "inputs"
    cases = {
        "holder_identity.json": ("demo", "holder", 0),
        "polar_shear.json": ("demo", "polar", 0),
        "douglas_solvable.json": ("demo", "douglas", 0),
        "douglas_unsolvable.json": ("demo", "douglas", 1),
        "comultiply_diag.json": ("demo", "comultiply", 0),
        "cocycle_pair.json": ("demo", "cocycle", 0),
        "pushforward_partial_trace.json": ("demo", "pushforward", 0),
        "oracle_345.json": ("oracle", None, 0),
    }
    for name, (command, sub, expected) in cases.items():
        argv = [command] + ([sub] if sub else []) + ["--input", str(inputs / name)]
        code, out = run_cli(capsys, *argv)
        assert code == expected, f"{name}: exit {code} != {expected}"
        assert out is not None
        if command == "demo" and code == 0:
            # every key read from the input is echoed back, and nothing else
            assert out["inputs"] == json.loads((inputs / name).read_text()), name


def test_oracle_agrees_with_matrix_path(capsys, tmp_path):
    rng = np.random.Generator(np.random.PCG64(17))
    f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    mu = rng.uniform(0.2, 2.0, size=4)
    a = 0.8
    path = write(tmp_path, "agree.json", {
        "f": [[v.real, v.imag] for v in f],
        "a": [a, 0.0],
        "mu": mu.tolist(),
    })
    code, out = run_cli(capsys, "oracle", "--input", path)
    assert code == 0
    from nclp import BlockAlgebra, Element, GradedElement, lnorm, power_pos
    D = BlockAlgebra((1,) * 4)
    h = Element(D, tuple(np.array([[m]], dtype=complex) for m in mu))
    x = Element(D, tuple(np.array([[v]], dtype=complex) for v in f))
    matrix_path = lnorm(GradedElement(x @ power_pos(h, a), a))
    assert abs(out["value"] - matrix_path) <= 1e-12 * matrix_path


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_demo_result_that_overflows_is_a_numerical_error(capsys, tmp_path):
    # the product x @ y overflows: the demo stops there, and says so
    huge = {"block_dims": [2], "blocks": [[[[1e200, 0], [0, 0]], [[0, 0], [1e200, 0]]]],
            "grading": [0.5, 0.0]}
    path = write(tmp_path, "huge.json", {"x": huge, "y": huge})
    code = main(["demo", "holder", "--input", path])
    captured = capsys.readouterr()
    assert code == 1 and not captured.err
    assert _strict_json(captured.out)["error"] == {
        "type": "numerical", "message": "overflow encountered in matmul"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_pushforward_past_the_float_range_is_a_typed_error(capsys, tmp_path):
    # the shipped pushforward input with a density of 1e308 I and slot weight 2
    obj = json.loads((ROOT / "demos" / "inputs" / "pushforward_partial_trace.json").read_text())
    obj["mu"]["density"]["blocks"] = [[[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]]
    obj["slot_weights"] = [1, 2]
    code = main(["demo", "pushforward", "--input", write(tmp_path, "push.json", obj)])
    captured = capsys.readouterr()
    assert code == 1 and not captured.err
    assert _strict_json(captured.out)["error"] == {
        "type": "OutOfRangeError", "message": "pushforward: the density exceeds the float range"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_singular_value_past_the_float_range_is_a_typed_error(capsys, tmp_path):
    # finite entries of 1e308: the singular value 2e308 is past the float range
    row = [[1e308, 0], [1e308, 0]]
    path = write(tmp_path, "huge_polar.json", {"x": {"block_dims": [2], "blocks": [[row, row]]}})
    code = main(["demo", "polar", "--input", path])
    captured = capsys.readouterr()
    assert code == 1 and not captured.err
    assert _strict_json(captured.out)["error"] == {"type": "OutOfRangeError", "message":
        "singular value decomposition: a singular value exceeds the float range"}


def _holder_past_the_float_range(tmp_path):
    # the shipped holder input with x at grading 1e300: its norm is 2^1e300
    obj = json.loads((ROOT / "demos" / "inputs" / "holder_identity.json").read_text())
    obj["x"]["grading"] = [1e300, 0.0]
    return write(tmp_path, "holder.json", obj)


HOLDER_OVERFLOW = {"type": "OutOfRangeError", "message":
                   "lnorm: the norm at grading real part 1e+300 exceeds the float range"}


def test_a_norm_past_the_float_range_is_a_typed_error(capsys, tmp_path):
    code = main(["demo", "holder", "--input", _holder_past_the_float_range(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1 and not captured.err
    assert _strict_json(captured.out)["error"] == HOLDER_OVERFLOW


def test_a_norm_past_the_float_range_exits_1_with_json_from_the_console(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONWARNINGS": "error"}
    done = subprocess.run([sys.executable, "-m", "nclp.cli", "demo", "holder", "--input",
                           _holder_past_the_float_range(tmp_path)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (1, "")
    assert _strict_json(done.stdout)["error"] == HOLDER_OVERFLOW


# the finite pairs whose quotient y @ pinv(x) is past the float range: a
# diagonal one, and a rank-one x under a y of 1e300 entries, where p @ x
# would be inf * 0 = NaN
def _pair(x, y):
    return tuple({"block_dims": [2], "blocks": [b]} for b in (x, y))


OVERFLOWING_DIVISIONS = {
    "diagonal": _pair([[[1e-200, 0], [0, 0]], [[0, 0], [2e-200, 0]]],
                      [[[1e200, 0], [0, 0]], [[0, 0], [1e200, 0]]]),
    "rank one": _pair([[[1e-300, 0], [0, 0]], [[0, 1e-300], [0, 0]]],
                      [[[1e300, 0], [1e300, 0]], [[1e300, 0], [1e300, 0]]]),
}
DIVISION_OVERFLOW = "division: the quotient y @ pinv(x) or its remainder exceeds the float range"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(OVERFLOWING_DIVISIONS))
def test_a_division_that_overflows_is_out_of_range(name, capsys, tmp_path):
    # the API and the demo stop at the product that overflows, with the same
    # typed error and no numpy warning
    x, y = OVERFLOWING_DIVISIONS[name]
    with pytest.raises(OutOfRangeError, match=f"^{re.escape(DIVISION_OVERFLOW)}$"):
        douglas_divide(element_from_obj(x), element_from_obj(y))
    code = main(["demo", "douglas", "--input", write(tmp_path, "overflow.json", {"x": x, "y": y})])
    captured = capsys.readouterr()
    assert code == 1 and not captured.err
    assert _strict_json(captured.out)["error"] == {"type": "OutOfRangeError",
                                                   "message": DIVISION_OVERFLOW}


def test_a_subnormal_singular_value_is_a_typed_error(capsys, tmp_path):
    # x keeps the singular value 1e-310, whose inverse is past the float range
    x = {"block_dims": [2], "blocks": [[[[1e-305, 0], [0, 0]], [[0, 0], [1e-310, 0]]]]}
    code = main(["demo", "douglas", "--input", write(tmp_path, "subnormal.json", {"x": x, "y": x})])
    captured = capsys.readouterr()
    assert code == 1 and not captured.err
    assert _strict_json(captured.out)["error"] == {"type": "OutOfRangeError", "message":
        "pseudo-inverse: the inverse of a kept singular value exceeds the float range"}


def test_an_overflowed_figure_is_reported_with_json_s_message(capsys, tmp_path, monkeypatch):
    import nclp.cli as cli

    monkeypatch.setitem(cli._DEMOS, "polar", lambda obj: {"residual": float("inf")})
    path = write(tmp_path, "x.json", {"x": ELEMENT_X})
    code = main(["demo", "polar", "--input", path])
    out = _strict_json(capsys.readouterr().out)
    assert code == 1
    assert out["error"] == {"type": "numerical", "message":
                            "Out of range float values are not JSON compliant: inf"}


NAN = float("nan")


@pytest.mark.parametrize("command, obj", [
    (("demo", "polar"), {"x": {"block_dims": [2],
                               "blocks": [[[[1, 0], [NAN, 0]], [[0, 0], [1, 0]]]]}}),
    (("demo", "holder"), {"x": dict(ELEMENT_X, grading=[0.5, 0]),
                          "y": dict(ELEMENT_Y, grading=[NAN, 0])}),
    (("demo", "cocycle"), {"mu": {"density": ELEMENT_Y}, "nu": {"density": ELEMENT_Y},
                           "a": [0.0, float("inf")]}),
    (("oracle",), {"f": [[1.0, 0.0], [NAN, 0.0]], "a": [0.5, 0]}),
    (("oracle",), {"f": [1.0], "a": [0.5, 0], "mu": [float("inf")]}),
    (("demo", "comultiply"), {"zeta": dict(ELEMENT_X, grading=[1.0, 0]),
                              "split": [[float("inf"), 0], [0.5, 0]]}),
])
def test_non_finite_input_is_a_typed_input_error(capsys, tmp_path, command, obj):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))   # writes the NaN / Infinity literals
    code = main([*command, "--input", str(path)])
    out = _strict_json(capsys.readouterr().out)
    assert code == 2
    assert out["error"]["type"] == "NonFiniteError"


@pytest.mark.parametrize("cfg", [
    {"trials": 1, "gradings": [[[NAN, 0], [0.5, 0]]]},
    {"trials": 1, "gradings": [[[0.5, 0], [float("inf"), 0]]]},
    {"trials": 1, "tolerances": {"eq_abs": NAN}},
    {"trials": 1, "tolerances": {"eq_rel": float("inf")}},
    {"trials": 1, "seed": float("inf")},
    {"trials": float("inf")},
])
def test_non_finite_config_is_a_config_error(capsys, tmp_path, cfg):
    code = main(["verify", "--config", write(tmp_path, "cfg.json", cfg)])
    out = _strict_json(capsys.readouterr().out)
    assert code == 2
    assert out["error"]["type"] == "config"


HUGE = 10 ** 400   # json writes it as a 401-digit integer literal
MU = {"density": ELEMENT_Y}
EMBEDDING = {"source_dims": [2], "target_dims": [4], "assignment": [[0, 0]]}


@pytest.mark.parametrize("command, obj, kind", [
    (("oracle",), {"f": [[3, 0], [4, 0]], "a": [0.5]}, "parse"),
    (("verify",), {"gradings": [[[0.5], [0.5, 0]]], "trials": 1}, "config"),
    (("demo", "polar"), {"x": {"block_dims": [1], "blocks": [[[[HUGE, 0]]]]}},
     "NonFiniteError"),
    (("oracle",), {"f": [[HUGE, 0]], "a": [0.5, 0]}, "NonFiniteError"),
    (("demo", "polar"), {"x": dict(ELEMENT_X, block_dims=[2.9])}, "parse"),
    (("demo", "pushforward"), {"mu": MU, "embedding": dict(EMBEDDING, target_dims=[4.5])},
     "parse"),
    (("demo", "pushforward"), {"mu": MU, "embedding": dict(EMBEDDING, assignment=[[0.9, 0]])},
     "parse"),
    (("demo", "pushforward"), {"mu": MU, "embedding": EMBEDDING, "slot_weights": ["1", "2"]},
     "parse"),
    (("verify",), {"trials": 2.5}, "config"),
    (("verify",), {"seed": 42.9}, "config"),
    (("verify",), {"block_shapes": [[2.7]]}, "config"),
    (("demo", "polar"), {"x": {"block_dims": [1], "blocks": [[[["1", 0]]]]}}, "parse"),
    (("oracle",), {"f": ["3", "4"], "a": "0.5"}, "parse"),
    (("demo", "comultiply"), {"zeta": dict(ELEMENT_X, grading=[1.0, 0]),
                              "split": [[0.5, 0, 9], [0.5, 0]]}, "parse"),
    (("verify",), [], "config"),
    (("verify",), {"trails": 1}, "config"),
    (("verify",), {"block_shapes": [], "trials": 1}, "config"),
    (("verify",), {"gradings": [], "trials": 1}, "config"),
    (("verify",), {"trials": 1, "block_shapes": [[1]], "tolerances": {"eq_abs": HUGE}},
     "config"),
    (("verify",), {"trials": 1, "tolerances": {"eq_abs": True}}, "config"),
    (("demo", "polar"), {"x": {"block_dims": [2],
                               "blocks": [[[[True, 0], [0, 0]], [[0, 0], [1, 0]]]]}}, "parse"),
    (("oracle",), {"f": [True, 4], "a": 0.5}, "parse"),
    # a size or count is an integer, and Python's True is 1
    (("verify",), {"trials": True}, "config"),
    (("verify",), {"trials": 1, "seed": False}, "config"),
    (("verify",), {"trials": 1, "block_shapes": [[True]]}, "config"),
    (("demo", "polar"), {"x": {"block_dims": [True], "blocks": [[[[1, 0]]]]}}, "parse"),
    (("demo", "pushforward"),
     {"mu": {"density": {"block_dims": [1], "blocks": [[[[1, 0]]]]}},
      "embedding": {"source_dims": [1], "target_dims": [2], "assignment": [[False, False]]}},
     "parse"),
])
def test_malformed_input_exits_2_with_a_typed_error(capsys, tmp_path, command, obj, kind):
    flag = "--config" if command == ("verify",) else "--input"
    code = main([*command, flag, write(tmp_path, "bad.json", obj)])
    captured = capsys.readouterr()
    assert code == 2
    assert _strict_json(captured.out)["error"]["type"] == kind
    assert captured.err == ""


def test_a_huge_block_dim_is_refused_before_any_layout_is_built(capsys, tmp_path):
    # one 1x1 block against block_dims [100000]: the shapes are compared
    # before anything of size sum n^2 (10^10 here) is allocated
    obj = {"x": {"block_dims": [100000], "blocks": [[[[1, 0]]]]}}
    path = write(tmp_path, "huge.json", obj)
    tracemalloc.start()
    try:
        code = main(["demo", "polar", "--input", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert _strict_json(capsys.readouterr().out)["error"]["type"] == "parse"
    assert peak < 16 * 2 ** 20


def _large_demo_inputs():
    """Inputs for five demos on one 64x64 block, drawn as the bench draws them."""
    rng = make_rng(64)
    M = BlockAlgebra((64,))
    xc = random_conditioned(rng, M, DEFAULT_TOL)
    return {
        "polar": {"x": element_to_obj(xc)},
        "douglas": {"x": element_to_obj(xc),
                    "y": element_to_obj(random_element(rng, M) @ xc)},
        "holder": {"x": graded_to_obj(random_graded(rng, M, 0.5)),
                   "y": graded_to_obj(random_graded(rng, M, 1.0 + 0.5j))},
        "comultiply": {"zeta": graded_to_obj(random_graded(rng, M, 1.5)),
                       "split": [[1.0, 0.0], [0.5, 0.0]]},
        "cocycle": {"mu": weight_to_obj(random_weight(rng, M)),
                    "nu": weight_to_obj(random_weight(rng, M)), "a": [0.0, 0.7]},
    }


def test_large_demo_output_is_json_dumps_byte_for_byte(capsys, tmp_path):
    for name, obj in _large_demo_inputs().items():
        code = main(["demo", name, "--input", write(tmp_path, f"{name}.json", obj)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n", name


def test_linalg_failure_is_a_numerical_error(capsys, tmp_path, monkeypatch):
    import nclp.cli as cli

    def fail(obj):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setitem(cli._DEMOS, "polar", fail)
    path = write(tmp_path, "x.json", {"x": ELEMENT_X})
    code = main(["demo", "polar", "--input", path])
    out = _strict_json(capsys.readouterr().out)
    assert code == 1
    assert out["error"] == {"type": "numerical", "message": "SVD did not converge"}
