"""Unit tests for the scalar-path commutative norm."""

import pytest

from nclp import NonFiniteError, oracle_commutative


def test_flat_counting():
    assert oracle_commutative([1.0, 1.0], 1.0, [1.0, 1.0]) == pytest.approx(2.0)


def test_euclidean_case():
    assert oracle_commutative([3.0, 4.0], 0.5, [1.0, 1.0]) == pytest.approx(5.0)


def test_weighted_sum():
    assert oracle_commutative([2.0, 0.0], 1.0, [1.0, 5.0]) == pytest.approx(2.0)


def test_imaginary_part_of_grading_is_ignored():
    plain = oracle_commutative([1 + 2j, -0.5], 0.75, [1.0, 2.0])
    twisted = oracle_commutative([1 + 2j, -0.5], complex(0.75, -1.4), [1.0, 2.0])
    assert plain == twisted


def test_rejections():
    with pytest.raises(ValueError, match="length mismatch"):
        oracle_commutative([1.0], 1.0, [1.0, 2.0])
    with pytest.raises(ValueError, match="Re a > 0"):
        oracle_commutative([1.0], 0.0, [1.0])
    with pytest.raises(ValueError, match="strictly positive"):
        oracle_commutative([1.0], 1.0, [0.0])


def test_stays_scalar():
    # the oracle must not import numpy, keeping the code path independent
    import importlib

    import nclp.oracle as mod
    importlib.reload(mod)
    assert "numpy" not in mod.__dict__
    assert "np" not in mod.__dict__


def test_no_overflow_on_huge_samples():
    # |f|^3 would be about 1e600: the scale-free sum never forms it
    f = [3e200, 4e200j, 1e200 + 1e200j]
    mu = [1.0, 2.0, 0.5]
    value = oracle_commutative(f, 1.0 / 3.0, mu)
    scaled = oracle_commutative([v / 1e200 for v in f], 1.0 / 3.0, mu)
    assert value == pytest.approx(1e200 * scaled, rel=1e-14, abs=0.0)
    # and |f|^3 would underflow to 0 here
    tiny = oracle_commutative([v / 1e200 * 1e-200 for v in f], 1.0 / 3.0, mu)
    assert tiny == pytest.approx(1e-200 * scaled, rel=1e-14, abs=0.0)


def test_zero_samples_give_zero():
    assert oracle_commutative([0.0, 0j], 0.5, [1.0, 3.0]) == 0.0
    assert oracle_commutative([], 0.5, []) == 0.0


def test_rejects_non_finite_data():
    nan, inf = float("nan"), float("inf")
    for f, a, mu in (([nan], 1.0, [1.0]), ([complex(1.0, inf)], 1.0, [1.0]),
                     ([1.0], 1.0, [nan]), ([1.0], complex(nan, 0.0), [1.0])):
        with pytest.raises(NonFiniteError):
            oracle_commutative(f, a, mu)
