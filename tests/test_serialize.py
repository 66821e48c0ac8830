"""Round-trip tests for the JSON persistence layer."""

import json

import numpy as np
import pytest

from nclp import BlockAlgebra, Element, GradedElement, NonFiniteError, distance
from nclp.sampling import make_rng, random_element, random_graded, random_weight
from nclp.serialize import (
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
