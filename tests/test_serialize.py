"""Round-trip tests for the JSON persistence layer."""

import json
from pathlib import Path

import numpy as np
import pytest

from nclp import BlockAlgebra, Element, GradedElement, NonFiniteError, distance
from nclp.sampling import make_rng, random_element, random_graded, random_weight
from nclp.serialize import (
    _read_array,
    dumps,
    element_from_obj,
    element_to_obj,
    graded_from_obj,
    graded_to_obj,
    weight_from_obj,
    weight_to_obj,
)

M = BlockAlgebra((2, 3))


def test_element_roundtrip_is_byte_identical():
    rng = make_rng(0)
    x = random_element(rng, M)
    text = dumps(element_to_obj(x))
    again = dumps(element_to_obj(element_from_obj(json.loads(text))))
    assert text == again


def test_element_values_survive():
    rng = make_rng(1)
    x = random_element(rng, M)
    assert distance(element_from_obj(element_to_obj(x)), x) == 0.0


def test_graded_roundtrip():
    rng = make_rng(2)
    xi = random_graded(rng, M, complex(0.5, -1.25))
    back = graded_from_obj(graded_to_obj(xi))
    assert distance(back.data, xi.data) == 0.0
    assert back.grading == xi.grading
    text = dumps(graded_to_obj(xi))
    assert dumps(graded_to_obj(graded_from_obj(json.loads(text)))) == text


def test_weight_roundtrip():
    rng = make_rng(3)
    mu = random_weight(rng, M)
    back = weight_from_obj(weight_to_obj(mu))
    assert distance(back.density, mu.density) == 0.0
    text = dumps(weight_to_obj(mu))
    assert dumps(weight_to_obj(weight_from_obj(json.loads(text)))) == text


def test_element_to_obj_matches_the_per_entry_build():
    x = random_element(make_rng(4), M)
    b0, b1 = x.blocks
    b1 = b1.copy()
    b1[0, 0], b1[1, 2], b1[2, 1] = complex(-0.0, 0.0), complex(1.5, -0.0), 5e-324j
    x = Element(M, (b0, b1))
    reference = {
        "block_dims": list(x.algebra.block_dims),
        "blocks": [[[[complex(v).real, complex(v).imag] for v in row] for row in b]
                   for b in x.blocks],
    }
    obj = element_to_obj(x)
    assert obj == reference
    assert dumps(obj) == dumps(reference)
    assert "-0.0" in dumps(obj) and np.signbit(obj["blocks"][1][0][0][0])


def test_dumps_is_canonical():
    assert dumps({"b": 1, "a": 2}) == dumps({"a": 2, "b": 1})


def test_non_finite_data_is_rejected_where_it_enters():
    obj = element_to_obj(random_element(make_rng(9), M))
    for bad in (float("nan"), float("inf"), -float("inf")):
        broken = json.loads(json.dumps(obj))
        broken["blocks"][1][2][0] = [0.5, bad]
        with pytest.raises(NonFiniteError, match="block 1"):
            element_from_obj(broken)
        with pytest.raises(NonFiniteError):
            weight_from_obj({"density": broken})
        graded = dict(obj, grading=[bad, 0.0])
        with pytest.raises(NonFiniteError, match="grading"):
            graded_from_obj(graded)
    with pytest.raises(NonFiniteError):
        GradedElement(M.identity(), complex(0.5, float("nan")))


def _per_entry(nest):
    """The per-entry parser _read_array replaced: complex(float(re), float(im))."""
    if not isinstance(nest[0], list):
        re, im = nest
        return complex(float(re), float(im))
    return [_per_entry(v) for v in nest]


def _pair_nests(obj):
    """(depth, nest) for every [re, im] nest of a demo or oracle input."""
    depths = {"grading": 0, "a": 0, "b": 0, "split": 1, "f": 1}
    for key, value in obj.items():
        if key == "blocks":
            yield from ((2, b) for b in value)
        elif key in depths:
            yield depths[key], value
        elif isinstance(value, dict):
            yield from _pair_nests(value)


SHIPPED = sorted((Path(__file__).resolve().parent.parent / "demos" / "inputs").glob("*.json"))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_reader_keeps_the_bits_of_the_per_entry_parser_on_shipped_inputs(path):
    nests = list(_pair_nests(json.loads(path.read_text())))
    assert nests
    for depth, nest in nests:
        old = np.array(_per_entry(nest), dtype=complex)
        new = _read_array(nest, "nest", depth)
        assert new.shape == old.shape and new.tobytes() == old.tobytes()


def test_reader_keeps_signed_zeros_integers_and_subnormals():
    block = [[[-0.0, 0.0], [3, -0.0], [-5e-324, 5e-324]],
             [[2 ** 53 + 1, -7], [2 ** 70 + 1, 0], [-0.0, -0.0]],
             [[1, 2], [2.2250738585072014e-308, -1e-310], [0, 0]]]
    old = np.array(_per_entry(block), dtype=complex)
    new = _read_array(block, "block", 2)
    assert new.tobytes() == old.tobytes()
    assert np.signbit(new[0, 0].real) and np.signbit(new[0, 1].imag)
    ints = [[1, 0], [-2 ** 63, 2 ** 64 - 1]]   # int64 and uint64 extremes
    assert _read_array(ints, "ints", 1).tobytes() == np.array(_per_entry(ints)).tobytes()
    assert _read_array([10 ** 400, -10 ** 400], "huge", 1, pairs=False).tolist() == \
        [np.inf, -np.inf]


@pytest.mark.parametrize("nest, depth, pairs", [
    ([True, 0], 0, True),
    ([[1.5, 0], [False, 0]], 1, True),
    ([[[1, 0], [0, 0]], [[0, 0], [0, True]]], 2, True),
    ([3.0, True], 1, False),
    ([10 ** 400, True], 1, False),   # the object path of integers past int64
    (True, 0, False),
])
def test_reader_rejects_booleans_among_numbers(nest, depth, pairs):
    with pytest.raises(ValueError, match="must hold JSON numbers only"):
        _read_array(nest, "nest", depth, pairs)
