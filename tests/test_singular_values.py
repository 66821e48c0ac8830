"""Singular values carried by the elements built from a factorization.

Every element the library builds as u @ diag(d) @ vh, with u and vh
unitary, goes through matcore._spectral and knows that its singular values
are |d|.  These tests hold each such builder to three things: the carried
values are floats, each row descends with a NaN first, and they agree with
a fresh values-only SVD of the stored matrix within a bound derived from
Weyl's inequality.  They also count the SVDs that norms of built elements
and turpin_upper still take, and hold turpin_upper's closed-form rank-one
bound to the comultiply-then-lnorm bound it replaces.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nclp import (  # noqa: E402
    DEFAULT_TOL,
    BlockAlgebra,
    Element,
    GradedElement,
    NonFiniteError,
    TensorElement,
    Weight,
    comultiply,
    func_calc,
    holder_witness,
    holder_witness_imaginary,
    left_support,
    lnorm,
    operator_norm,
    polar_left,
    polar_right,
    power_pos,
    pseudo_inverse,
    right_support,
    spectral_projection,
    tensor_multiply,
    turpin_upper,
)
from nclp.matcore import _spectral, _svals  # noqa: E402
from nclp.properties import DEFAULT_GRADINGS, DEFAULT_SHAPES  # noqa: E402
from nclp.sampling import (  # noqa: E402
    make_rng,
    random_element,
    random_graded,
    random_positive,
    random_projection,
)

EPS = np.finfo(float).eps
SHAPES = [(1, 2, 3, 2, 3, 1), (64,)]


def _built(rng, M):
    """{builder: element} for every library path that builds through _spectral."""
    x = random_element(rng, M) @ random_projection(rng, M)   # rank-deficient
    h = random_positive(rng, M)
    p = random_projection(rng, M)
    mu = Weight(p @ random_positive(rng, M) @ p)              # not faithful
    pol_r, pol_l = polar_right(x), polar_left(x)
    first, second = comultiply(GradedElement(random_element(rng, M), 1.2 - 0.3j),
                               (0.5, 0.7 - 0.3j))
    _, support = comultiply(GradedElement(x, 0.2j), (0.5j, -0.3j))
    phase, power = mu.powers((0.4j, 1.5))
    return {
        "func_calc": func_calc(h, np.sqrt),
        "power_pos": power_pos(h, -0.5 + 0.3j),
        "spectral_projection": spectral_projection(h, 0.5 * operator_norm(h)),
        "Weight.powers imaginary": phase,
        "Weight.powers real": power,
        "Weight.support": mu.support,
        "right_support": right_support(x),
        "left_support": left_support(x),
        "pseudo_inverse": pseudo_inverse(x),
        "polar_right isometry": pol_r.isometry,
        "polar_right positive": pol_r.positive,
        "polar_left isometry": pol_l.isometry,
        "polar_left positive": pol_l.positive,
        "holder_witness": holder_witness(GradedElement(x, 0.7 + 0.2j), 0.5 + 0.1j).data,
        "holder_witness_imaginary": holder_witness_imaginary(
            GradedElement(x, 0.3j), 0.2j, 0.5 * operator_norm(x)).data,
        "comultiply first": first.data,
        "comultiply second": second.data,
        "comultiply support": support.data,
    }


def _weyl_bound(n: int, top: np.ndarray) -> np.ndarray:
    """How far LAPACK's singular values of a stored u diag(d) vh may lie from
    the sorted |d|, per n x n block whose largest |d| is top.

    By Weyl's inequality each singular value moves by at most the 2-norm
    of a perturbation, and three of them separate what LAPACK factorizes
    from exact unitaries around diag(|d|):
    * forming (u * d) @ vh rounds each entry within (n + 2) eps times the
      entry of |u| |diag(d)| |vh| (Higham, Accuracy and Stability, Thm 3.5
      and section 3.6 for complex arithmetic, one more rounding for u * d),
      whose 2-norm is at most ||u||_F top ||vh||_F = n top;
    * u and vh are unitary to within p(n) eps each, and
    * LAPACK's values-only SVD is backward stable with p(n) eps ||.||,
    with p(n) = n for LAPACK's modestly growing function.  In all,
    ((n + 2) n + 3 n) eps top.
    """
    return n * (n + 5) * EPS * top


@pytest.mark.parametrize("dims", SHAPES, ids=str)
def test_carried_values_are_sorted_floats_within_weyl_of_lapack(dims):
    M = BlockAlgebra(dims)
    for name, x in _built(make_rng(120 + len(dims)), M).items():
        assert x._d is not None, name   # built by _spectral, so it carries d
        svals = _svals(x, "operator norm")
        assert len(svals) == len(x.stacks), name
        for s, stack in zip(svals, x.stacks):
            n = stack.shape[-1]
            assert s.dtype == np.float64 and s.shape == stack.shape[:-1], name
            assert not s.flags.writeable, name
            assert (np.diff(s, axis=-1) <= 0.0).all(), name
            lapack = np.linalg.svd(stack, compute_uv=False)
            gap = np.abs(lapack - s).max(axis=-1)
            assert (gap <= _weyl_bound(n, s[:, 0])).all(), (name, gap.max())


def test_the_norm_of_a_projection_is_the_float_one():
    rng = make_rng(130)
    M = BlockAlgebra((1, 2, 3, 2, 3, 1))
    x, h = random_element(rng, M), random_positive(rng, M)
    for p in (spectral_projection(h, 0.0), left_support(x), right_support(x),
              polar_right(x).isometry, Weight(h).support,
              comultiply(GradedElement(x, 0.3j), (0.1j, 0.2j))[1].data):
        for nrm in (operator_norm(p), lnorm(GradedElement(p, 0.2j))):
            assert type(nrm) is float and nrm == 1.0


def test_carried_values_put_a_nan_first():
    M = BlockAlgebra((3, 3))
    u = np.broadcast_to(np.eye(3, dtype=complex), (2, 3, 3))
    d = np.array([[1.0, np.nan, -3.0], [2.0, 0.5, -np.inf]])
    with np.errstate(invalid="ignore"):   # 0 * inf off the diagonal
        (s,) = _svals(_spectral(M, [(u, d, u)]), "operator norm")
    assert np.isnan(s[0, 0]) and s[0, 1:].tolist() == [3.0, 1.0]
    assert s[1].tolist() == [np.inf, 2.0, 0.5]
    # the calculus carries no such NaN: func_calc refuses it before building
    h = random_positive(make_rng(131), BlockAlgebra((3, 2)))
    with pytest.raises(NonFiniteError, match="^func_calc: "):
        func_calc(h, lambda w: np.where(w < w.max(), w, np.nan))


@pytest.mark.parametrize("dims", SHAPES, ids=str)
def test_norms_of_built_elements_take_no_svd(dims, lapack):
    built = _built(make_rng(140 + len(dims)), BlockAlgebra(dims))
    lapack.reset()
    for x in built.values():
        operator_norm(x)
        for a in (0.3j, 0.5, 1.5 - 0.2j):
            lnorm(GradedElement(x, a))
    assert lapack.calls == []


@pytest.mark.parametrize("dims", SHAPES, ids=str)
def test_turpin_upper_on_a_comultiply_pair_takes_one_values_only_svd(dims, lapack):
    M = BlockAlgebra(dims)
    rng = make_rng(150 + len(dims))
    for a, b in DEFAULT_GRADINGS:
        zeta = random_graded(rng, M, a + b)
        # at Re(a + b) = 0 the first factor is zeta itself, with zeta's values
        operator_norm(zeta.data)
        first, second = comultiply(zeta, (a, b))
        lapack.calls.clear()
        turpin_upper(TensorElement(M, a, b, ((first, second),)))
        assert lapack.names() == ["svdvals"] * len(M.classes)   # one per size class


def _fresh(xi: GradedElement) -> GradedElement:
    """xi on a copy of its matrix, which carries no singular values."""
    return GradedElement(Element(xi.algebra, xi.data.blocks), xi.grading)


def _comultiplied_bound(z: TensorElement) -> float:
    """turpin_upper as it was first written: comultiply the product, then
    take the norms of both factors from values-only SVDs of their matrices."""
    r = max(1.0, float((z.grading_left + z.grading_right).real))
    given = sum((lnorm(_fresh(l)) * lnorm(_fresh(rr))) ** (1.0 / r)
                for l, rr in z.pairs) ** r
    first, second = comultiply(tensor_multiply(z), (z.grading_left, z.grading_right))
    return min(given, lnorm(_fresh(first)) * lnorm(_fresh(second)))


def _lnorm_rounding(re: float, n: int, kappa: float) -> float:
    """Relative change of lnorm at grading re of an element whose n x n
    blocks have condition number kappa, when each singular value moves by
    at most delta = n (n + 5) eps times the largest (_weyl_bound).

    At Re = 0 the norm is the largest singular value, which moves by delta
    relative.  Otherwise each singular value moves by delta kappa relative
    at most, and so does the norm, which is monotone and homogeneous in
    the singular values.  delta is at least 6 eps, also on 1 x 1 blocks,
    whose SVD is an abs: that share covers the few roundings of the scalar
    exp, log and powers behind the factors and the norm.
    """
    delta = n * (n + 5) * EPS
    return delta if re <= DEFAULT_TOL.eq_abs else delta * kappa


KINDS = ("pairs", "comultiplied", "zero")


@st.composite
def tensor_elements(draw, pair, kind):
    """On a default shape: 1 to 3 random pairs, the comultiplied pair of a
    random element, or two pairs whose products cancel to zeta = 0."""
    M = BlockAlgebra(draw(st.sampled_from(DEFAULT_SHAPES)))
    a, b = pair
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "comultiplied":
        pairs = (comultiply(random_graded(rng, M, a + b), (a, b)),)
    elif kind == "zero":
        xi, eta = random_graded(rng, M, a), random_graded(rng, M, b)
        pairs = ((xi, eta), ((-1.0) * xi, eta))
    else:
        pairs = tuple((random_graded(rng, M, a), random_graded(rng, M, b))
                      for _ in range(draw(st.integers(1, 3))))
    return TensorElement(M, a, b, pairs)


# the default pairs include Re a = 0, Re b = 0 and Re(a + b) = 0
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("pair", DEFAULT_GRADINGS, ids=str)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_turpin_upper_takes_the_comultiplied_bound_in_closed_form(pair, kind, data):
    z = data.draw(tensor_elements(pair, kind))
    got, old = turpin_upper(z), _comultiplied_bound(z)
    if kind == "zero":
        assert got == old == 0.0   # both factors of zeta = 0 are 0
        return
    # the closed form is exact, so only the rounding of the factors' SVDs
    # separates it from the old bound, plus that of the SVD of zeta itself;
    # the factors have the singular values s^(Re a / Re(a+b)) and
    # s^(Re b / Re(a+b)) of those s of zeta, or are zeta and a projection
    a, b = (g.real for g in pair)
    n = max(z.algebra.block_dims)
    s = np.concatenate([np.linalg.svd(blk, compute_uv=False)
                        for blk in tensor_multiply(z).data.blocks])
    kappa = s.max() / s.min()
    first, second = (kappa, 1.0) if a + b <= DEFAULT_TOL.eq_abs else (
        kappa ** (a / (a + b)), kappa ** (b / (a + b)))
    slack = ((1.0 + _lnorm_rounding(a, n, first)) * (1.0 + _lnorm_rounding(b, n, second))
             * (1.0 + _lnorm_rounding(a + b, n, kappa))) - 1.0
    assert abs(got - old) <= slack * old
