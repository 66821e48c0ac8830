"""serialize.dumps against json.dumps, on drawn JSON trees."""

import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nclp.serialize import dumps  # noqa: E402

SPECIAL = [0.0, -0.0, 1e16, 1e-5, 5e-324, 1e-310, 1.7976931348623157e308,
           2**63, -(10**40)]
NON_FINITE = [float("nan"), float("inf"), -float("inf"),
              np.float64("nan"), np.float64("-inf")]

plain = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(),
    st.integers(min_value=-(10**80), max_value=10**80),
    st.sampled_from(SPECIAL),
)
leaves = st.one_of(
    plain,
    st.booleans(),
    st.none(),
    st.text(max_size=8),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)


def _nest(shape, flat):
    if len(shape) == 1:
        return list(flat)
    step = len(flat) // shape[0] if shape[0] else 0
    return [_nest(shape[1:], flat[i * step:(i + 1) * step]) for i in range(shape[0])]


@st.composite
def rectangular(draw, fill):
    """A nested list of a drawn shape, zero-length axes included."""
    shape = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    size = math.prod(shape)
    return _nest(shape, draw(st.lists(fill, min_size=size, max_size=size)))


trees = st.recursive(
    st.one_of(leaves, rectangular(plain), rectangular(leaves),
              st.lists(rectangular(plain), min_size=2, max_size=3)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
    ),
    max_leaves=12,
)


@st.composite
def with_non_finite(draw):
    """A tree with one or two leaves replaced by NaN or an infinity."""
    def place(o, bad):
        if isinstance(o, dict) and o:
            key = draw(st.sampled_from(sorted(o)))
            return {**o, key: place(o[key], bad)}
        if isinstance(o, (list, tuple)) and o:
            i = draw(st.integers(0, len(o) - 1))
            return [*o[:i], place(o[i], bad), *o[i + 1:]]
        return bad

    tree = place(draw(trees), draw(st.sampled_from(NON_FINITE)))
    if draw(st.booleans()):
        tree = place(tree, draw(st.sampled_from(NON_FINITE)))
    return tree


def _reference(obj):
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(trees)
def test_dumps_matches_json_dumps(obj):
    assert dumps(obj) == _reference(obj)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(with_non_finite())
def test_non_finite_values_raise_json_dumps_error(obj):
    with pytest.raises(ValueError) as expected:
        _reference(obj)
    with pytest.raises(ValueError) as got:
        dumps(obj)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("obj", [[np.int64(1)], [np.bool_(True)], {"a": {1, 2}}])
def test_other_types_raise_json_dumps_type_error(obj):
    with pytest.raises(TypeError) as expected:
        _reference(obj)
    with pytest.raises(TypeError) as got:
        dumps(obj)
    assert str(got.value) == str(expected.value)


def test_keys_must_be_str():
    with pytest.raises(TypeError):
        dumps({1: 2.0})
