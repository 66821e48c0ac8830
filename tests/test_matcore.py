"""Unit tests for the block-matrix substrate."""

import json
import math
import numbers
import pickle
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nclp import (
    DEFAULT_TOL,
    AlgebraMismatchError,
    BlockAlgebra,
    BlockEmbedding,
    ConditionViolatedError,
    DivisionResult,
    Element,
    GradedElement,
    ModuleHom,
    NonFiniteError,
    NotModuleMapError,
    NotPositiveError,
    OperatorValuedWeight,
    OutOfRangeError,
    PolarDecomposition,
    ShapeError,
    ToleranceReport,
    Tolerances,
    UnsolvableError,
    Weight,
    allclose,
    comultiply,
    distance,
    douglas_divide,
    flatten_element,
    func_calc,
    holder_witness,
    hom_from_element,
    hom_to_element,
    isometry_divide,
    left_support,
    operator_norm,
    polar_left,
    polar_right,
    power_pos,
    pseudo_inverse,
    right_support,
    spectral_projection,
    trace,
    unflatten_element,
)
from nclp.lpspace import lnorm
from nclp.matcore import (
    FACTOR_CACHE,
    _eig_classes,
    _svals,
    _svds,
)
from nclp.properties import DEFAULT_SHAPES, PROPERTIES, SuiteConfig, run_suite
from nclp.sampling import make_rng, random_element, random_positive, random_projection
from nclp.serialize import element_from_obj

from conftest import unchecked

ROOT = Path(__file__).resolve().parent.parent
M2 = BlockAlgebra((2,))
DIAG2 = BlockAlgebra((1, 1))


def e(i, j):
    m = np.zeros((2, 2), dtype=complex)
    m[i - 1, j - 1] = 1.0
    return Element(M2, [m])


def test_make_element_identity():
    x = Element(M2, [np.eye(2)])
    assert distance(x, M2.identity()) == 0.0


def test_make_element_scalar_blocks():
    x = Element(DIAG2, [np.array([[2.0]]), np.array([[3.0]])])
    assert trace(x) == 5.0


def test_make_element_shape_mismatch_names_block():
    with pytest.raises(ShapeError, match="block 0"):
        Element(M2, [np.zeros((3, 3))])
    with pytest.raises(ShapeError, match="block 1"):
        Element(DIAG2, [np.zeros((1, 1)), np.zeros((2, 2))])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)],
                         ids=["nan", "inf", "-inf", "inf-imag"])
def test_element_refuses_a_non_finite_block_naming_the_first(bad):
    # the data of every public operation enters through Element(...), so no
    # operation (allclose, douglas_divide, isometry_divide...) meets a NaN
    # or an infinity in its arithmetic, where numpy would warn
    with pytest.raises(NonFiniteError, match="^block 0 has a NaN or infinite entry$"):
        Element(M2, [np.diag([bad, 1.0])])
    # blocks 2 and 5 hold it: the first in block order, though 5's size
    # class comes first in MIXED.classes
    blocks = [np.eye(n, dtype=complex) for n in MIXED.block_dims]
    blocks[2][1, 2] = blocks[5][0, 0] = bad
    assert MIXED.classes[0] == (0, 5)
    with pytest.raises(NonFiniteError, match="^block 2 has a NaN or infinite entry$"):
        Element(MIXED, blocks)
    # past the constructor, an element holding one (Element._of) still
    # meets the typed checks downstream
    with pytest.raises(NonFiniteError, match="^operator norm: "):
        allclose(unchecked(MIXED, blocks), MIXED.identity())


@pytest.mark.parametrize("build, error, match", [
    (lambda: BlockAlgebra(()), ValueError, "nonempty"),
    (lambda: BlockAlgebra((0,)), ValueError, ">= 1"),
    (lambda: BlockAlgebra((2, 0)), ValueError, ">= 1"),
    (lambda: unflatten_element(M2, np.zeros(3)), ShapeError, "length 4, got 3"),
    (lambda: unflatten_element(DIAG2, np.zeros((2, 2))), ShapeError, "length 2, got 4"),
], ids=["no blocks", "empty block", "empty second block", "short vector", "long vector"])
def test_malformed_algebras_and_vectors_are_refused(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_arithmetic_rejects_incompatible_algebras():
    rng = make_rng(6)
    x = random_element(rng, M2)
    y = random_element(rng, DIAG2)
    with pytest.raises(AlgebraMismatchError):
        x @ y
    with pytest.raises(AlgebraMismatchError):
        x + y


def test_unit_law_and_involution():
    rng = make_rng(0)
    x = random_element(rng, M2)
    assert distance(M2.identity() @ x, x) == 0.0
    assert distance(x.adjoint().adjoint(), x) == 0.0


def test_matrix_units_multiply():
    assert distance(e(1, 2) @ e(2, 1), e(1, 1)) == 0.0


def test_trace_examples():
    assert trace(M2.identity()) == 2.0
    assert trace(e(1, 2)) == 0.0
    d = Element(M2, [np.diag([3.0, 4.0])])
    assert trace(d @ d.adjoint()) == 25.0


def test_trace_is_cyclic():
    rng = make_rng(1)
    x, y = random_element(rng, M2), random_element(rng, M2)
    assert abs(trace(x @ y) - trace(y @ x)) < 1e-12


def test_power_pos_scalar_sqrt():
    h = Element(BlockAlgebra((1,)), [np.array([[4.0]])])
    assert distance(power_pos(h, 0.5), Element(h.algebra, [np.array([[2.0]])])) < 1e-14


def test_power_pos_zero_is_zero():
    z = M2.zero()
    for a in (0.5, 1.0, 1j, 0.0, 2 - 0.3j):
        assert operator_norm(power_pos(z, a)) == 0.0


def test_power_pos_complex_exponent():
    h = Element(M2, [np.diag([1.0, 4.0])])
    expected = Element(M2, [np.diag([1.0, np.exp(1j * np.log(4.0))])])
    assert distance(power_pos(h, 1j), expected) < 1e-14


def test_power_pos_negative_power_on_support():
    h = Element(M2, [np.diag([4.0, 0.0])])
    assert distance(power_pos(h, -1.0), Element(M2, [np.diag([0.25, 0.0])])) < 1e-14


def test_power_pos_rejects_nonpositive():
    with pytest.raises(NotPositiveError, match="negative eigenvalue"):
        power_pos(Element(M2, [np.diag([1.0, -1.0])]), 0.5)
    with pytest.raises(NotPositiveError, match="not Hermitian"):
        power_pos(e(1, 2), 0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_non_finite_exponent_is_no_range_error():
    h = Element(M2, [np.diag([4.0, 0.5])])
    for a in (math.nan, math.inf, -math.inf, complex(0.0, math.inf), complex(0.5, math.nan)):
        with pytest.raises(NonFiniteError, match="^power_pos: the exponent .* is not finite$"):
            power_pos(h, a)
    with pytest.raises(NonFiniteError, match="^weight power: the exponent .* is not finite$"):
        Weight(h).power(complex(math.nan))
    # a finite exponent past the range is still a range error
    with pytest.raises(OutOfRangeError, match="^power_pos: a power at exponent"):
        power_pos(h, 1e300)


@pytest.mark.parametrize("c, error", [(math.nan, NonFiniteError), (-0.5, ValueError),
                                      (-math.inf, ValueError)],
                         ids=["nan", "negative", "-inf"])
def test_spectral_projection_refuses_a_nan_or_negative_threshold(c, error):
    h = Element(M2, [np.diag([2.0, 0.5])])
    with pytest.raises(error, match="threshold"):
        spectral_projection(h, c)


def test_power_addition_and_adjoint():
    rng = make_rng(2)
    h = random_positive(rng, BlockAlgebra((3, 2)))
    for a, b in [(0.5, 0.5), (1.5 + 0.7j, 0.25 - 1.1j), (1j, -1j)]:
        lhs = power_pos(h, a) @ power_pos(h, b)
        assert distance(lhs, power_pos(h, a + b)) < 1e-11
        assert distance(power_pos(h, a).adjoint(),
                        power_pos(h, np.conj(a))) < 1e-12


def test_power_pos_imaginary_is_unitary_on_support():
    rng = make_rng(7)
    h = random_positive(rng, M2)
    p = Element(M2, [np.diag([1.0, 0.0])])
    hp = p @ h @ p  # rank-deficient positive
    u = power_pos(hp, -1.3j)
    assert distance(u @ u.adjoint(), spectral_projection(hp, 0.0)) < 1e-12


def test_func_calc_identity_and_clip():
    h = Element(M2, [np.diag([0.5, 2.0])])
    assert distance(func_calc(h, lambda w: w), h) < 1e-14
    clipped = func_calc(h, lambda w: np.divide(1.0, w, out=np.zeros_like(w), where=w >= 1.0))
    assert distance(clipped, Element(M2, [np.diag([0.0, 0.5])])) < 1e-14


def test_func_calc_agrees_with_power_map():
    rng = make_rng(8)
    h = random_positive(rng, BlockAlgebra((3,)))
    for a in (0.5, 2.0):
        assert distance(func_calc(h, lambda w: w ** a), power_pos(h, a)) < 1e-11


def test_func_calc_support_vs_identity():
    h = Element(M2, [np.diag([3.0, 0.0])])
    assert distance(func_calc(h, np.ones_like), M2.identity()) < 1e-14
    support = func_calc(h, lambda w: np.where(w > 0, 1.0, 0.0))
    assert distance(support, Element(M2, [np.diag([1.0, 0.0])])) < 1e-14


def test_spectral_projection_examples():
    h = Element(M2, [np.diag([1.0, 3.0])])
    assert distance(spectral_projection(h, 2.0),
                    Element(M2, [np.diag([0.0, 1.0])])) < 1e-14
    hp = Element(M2, [np.diag([2.0, 0.0])])
    assert distance(spectral_projection(hp, 0.0),
                    Element(M2, [np.diag([1.0, 0.0])])) < 1e-14
    assert operator_norm(spectral_projection(h, 10.0)) == 0.0


def test_spectral_projection_commutes_and_dominates():
    rng = make_rng(3)
    h = random_positive(rng, BlockAlgebra((4,)))
    c = 0.5 * operator_norm(h)
    p = spectral_projection(h, c)
    assert distance(p @ h, h @ p) < 1e-12
    low = p @ h @ p - c * p
    assert min(np.linalg.eigvalsh(low.blocks[0]).min(), 0.0) > -1e-12


def test_operator_norm_examples():
    assert operator_norm(M2.identity()) == 1.0
    assert operator_norm(Element(M2, [np.diag([3.0, -4.0])])) == 4.0
    assert abs(operator_norm(e(1, 2) + e(2, 1)) - 1.0) < 1e-14


def test_elements_are_immutable():
    x = M2.identity()
    with pytest.raises(ValueError):
        x.blocks[0][0, 0] = 5.0


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(rank_rel=2.0)
    with pytest.raises(ValueError):
        Tolerances(eq_abs=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            Tolerances(eq_abs=bad)
        with pytest.raises(ValueError):
            Tolerances(eq_rel=bad)
    # every field is read as a float, so equal policies are one cache key
    tol = Tolerances(rank_rel=np.float32(0.25), eq_abs=1, eq_rel=np.int64(2))
    assert [type(v) for v in (tol.rank_rel, tol.eq_abs, tol.eq_rel)] == [float] * 3
    with pytest.raises(ValueError, match="eq_abs is out of the float range"):
        Tolerances(eq_abs=10 ** 400)
    for bad in (True, "1e-9", None, 1j):
        with pytest.raises(TypeError, match="eq_rel must be a real number"):
            Tolerances(eq_rel=bad)


def test_flatten_roundtrip():
    rng = make_rng(4)
    M = BlockAlgebra((2, 3, 1))
    x = random_element(rng, M)
    assert distance(unflatten_element(M, flatten_element(x)), x) == 0.0


def test_coords_are_the_flat_layout_of_each_block():
    # blocks concatenated row-major: entry (i, j) of block k sits at coords[k][i, j]
    M = BlockAlgebra((2, 3, 1, 3))
    x = random_element(make_rng(6), M)
    vec = flatten_element(x)
    assert all(np.array_equal(vec[c], b) for c, b in zip(M.coords, x.blocks))
    assert np.array_equal(np.concatenate([c.ravel() for c in M.coords]), np.arange(M.total_dim))
    back = pickle.loads(pickle.dumps(M))
    assert back == M and hash(back) == hash(M) and back.classes == M.classes
    for c, d in zip(M.coords, back.coords):
        assert np.array_equal(c, d) and not c.flags.writeable and not d.flags.writeable
    with pytest.raises(ValueError):
        M.coords[0][0, 0] = 5


def test_allclose_scales():
    rng = make_rng(5)
    x = random_element(rng, M2)
    assert allclose(x, x + 1e-12 * M2.identity())
    assert not allclose(x, x + M2.identity())


# -- the stacked storage format -------------------------------------------

MIXED = BlockAlgebra((1, 2, 3, 2, 3, 1))



def _per_block(classes):
    """{block index: its slice of every stacked factor}, from factors per MIXED class."""
    out = {}
    for idx, factors in zip(MIXED.classes, classes):
        parts = factors if isinstance(factors, tuple) else (factors,)
        for j, k in enumerate(idx):
            out[k] = tuple(p[j] for p in parts)
    return out


def test_ring_operations_equal_per_block_numpy_ops_bit_for_bit():
    rng = make_rng(35)
    x, y = random_element(rng, MIXED), random_element(rng, MIXED)
    c = 0.3 - 1.7j
    cases = [
        (x + y, [a + b for a, b in zip(x.blocks, y.blocks)]),
        (x - y, [a - b for a, b in zip(x.blocks, y.blocks)]),
        (-x, [-a for a in x.blocks]),
        (x @ y, [a @ b for a, b in zip(x.blocks, y.blocks)]),
        (c * x, [c * a for a in x.blocks]),
        (x * c, [c * a for a in x.blocks]),
        (x.adjoint(), [a.conj().T for a in x.blocks]),
        (MIXED.identity(), [np.eye(n) for n in MIXED.block_dims]),
        (MIXED.zero(), [np.zeros((n, n)) for n in MIXED.block_dims]),
    ]
    for got, want in cases:
        assert len(got.blocks) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got.blocks, want))
    units = list(MIXED.basis())
    assert len(units) == MIXED.total_dim
    assert all(np.array_equal(flatten_element(unit), v)
               for unit, v in zip(units, np.eye(MIXED.total_dim)))


def test_elements_copy_their_input_once_and_stay_read_only():
    for algebra, shapes in ((MIXED, [(2, 1, 1), (2, 2, 2), (2, 3, 3)]),
                            (BlockAlgebra((3, 1)), [(1, 3, 3), (1, 1, 1)])):
        blocks = [np.full((n, n), 1.0 + 2.0j) for n in algebra.block_dims]
        x = Element(algebra, blocks)
        for b in blocks:
            b[...] = 0.0
        assert all(np.all(b == 1.0 + 2.0j) for b in x.blocks)
        assert [s.shape for s in x.stacks] == shapes
        assert all(s.dtype == complex for s in x.stacks)
        for arr in (*x.blocks, *x.stacks):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 5.0


def test_unpickled_elements_stay_read_only():
    x = random_element(make_rng(31), MIXED)
    x.blocks   # a cached view tuple must not travel with the pickle
    y = pickle.loads(pickle.dumps(x))
    assert y.algebra == x.algebra and y.algebra.classes == MIXED.classes
    assert all(np.array_equal(a, b) for a, b in zip(x.stacks, y.stacks))
    for arr in (*y.stacks, *y.blocks):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 5.0
    assert y.blocks[1].base is not None   # still views into the stacks


def test_unpickled_operator_valued_weights_stay_read_only():
    ovw = OperatorValuedWeight.from_compression(
        BlockEmbedding(M2, BlockAlgebra((4,)), ((0, 0),)), [1.0, 2.0])
    back = pickle.loads(pickle.dumps(ovw))
    assert back.embedding == ovw.embedding
    assert back.K.keys() == ovw.K.keys()
    for k, kept in zip(back.K.values(), ovw.K.values()):
        assert np.array_equal(k, kept) and not k.flags.writeable
        with pytest.raises(ValueError):
            k[0, 0] = 5.0
    # nor can a matrix be put in or taken out: a float one put in would be
    # read as complex by validate
    for T in (ovw, back):
        with pytest.raises(TypeError):
            T.K[0, 0] = np.array([[-5.0, 0.0], [0.0, 1.0]])
        with pytest.raises(TypeError):
            del T.K[0, 0]
        assert T.validate().passed


def test_unpickled_module_homs_stay_read_only():
    hom = hom_from_element(GradedElement(random_element(make_rng(35), MIXED), 0.5), 0.5)
    back = pickle.loads(pickle.dumps(hom))
    assert back.algebra == hom.algebra
    assert (back.grading_in, back.grading_out) == (hom.grading_in, hom.grading_out)
    for b, kept in zip(back.multiplier.stacks, hom.multiplier.stacks):
        assert np.array_equal(b, kept) and not b.flags.writeable
        with pytest.raises(ValueError):
            b[0, 0, 0] = 5.0


@pytest.mark.parametrize("error", [UnsolvableError, ConditionViolatedError, NotModuleMapError])
def test_residual_errors_survive_pickling(error):
    back = pickle.loads(pickle.dumps(error("no solution", 0.25, 0.125)))
    assert type(back) is error
    assert str(back) == "no solution" and (back.residual, back.bound) == (0.25, 0.125)


def _douglas_refusal():
    obj = json.loads((ROOT / "demos" / "inputs" / "douglas_unsolvable.json").read_text())
    x, y = element_from_obj(obj["x"]), element_from_obj(obj["y"])
    with pytest.raises(UnsolvableError) as refused:
        douglas_divide(x, y)
    law = DEFAULT_TOL.eq_bound(operator_norm(y))
    return refused.value, law, law


def _gram_refusal():
    x = random_element(make_rng(40), MIXED)
    y = x * 1.5
    with pytest.raises(ConditionViolatedError) as refused:
        isometry_divide(x, y)
    law = DEFAULT_TOL.eq_bound(max(operator_norm(x.adjoint() @ x), operator_norm(y.adjoint() @ y)))
    return refused.value, law, law


def _module_refusal():
    # no multiplication: the bound carried is the high end of the bracket
    # ||T||_2 <= ||T(1)|| + r, never below the law's bound at ||T||_2 itself
    mat = make_rng(41).standard_normal((M2.total_dim,) * 2)
    with pytest.raises(NotModuleMapError) as refused:
        ModuleHom(M2, 0.5, 1.0, mat)
    xi = unflatten_element(M2, mat @ flatten_element(M2.identity()))
    stated = DEFAULT_TOL.eq_bound(max(operator_norm(xi) + refused.value.residual, 1.0))
    return refused.value, stated, DEFAULT_TOL.eq_bound(max(float(np.linalg.norm(mat, 2)), 1.0))


@pytest.mark.parametrize("refusal", [_douglas_refusal, _gram_refusal, _module_refusal])
def test_residual_errors_carry_the_bound_their_residual_exceeds(refusal):
    error, stated, law = refusal()
    assert error.bound == pytest.approx(stated, rel=1e-14, abs=0.0)
    assert error.residual > error.bound >= law


def test_a_report_passes_only_a_residual_within_its_bound():
    assert ToleranceReport(0.5, 0.5).passed and not ToleranceReport(0.5, 0.25).passed
    assert ToleranceReport(float("nan"), 1.0).passed is False


def test_stacked_factorizations_equal_per_block_calls_bit_for_bit():
    rng = make_rng(30)
    x = random_element(rng, MIXED)
    h = random_positive(rng, MIXED)
    svd = _per_block([np.linalg.svd(a) for a in x.stacks])
    assert MIXED.classes == ((0, 5), (1, 3), (2, 4))
    for k, b in enumerate(x.blocks):
        (u, s, vh), ref = svd[k], np.linalg.svd(b)
        assert np.array_equal(u, ref[0]) and np.array_equal(s, ref[1])
        assert np.array_equal(vh, ref[2])
    svals = _per_block([np.linalg.svd(a, compute_uv=False) for a in x.stacks])
    for k, b in enumerate(x.blocks):
        assert np.array_equal(svals[k][0], np.linalg.svd(b, compute_uv=False))
    eig = _per_block([np.linalg.eigh(a) for a in h.stacks])
    for k, b in enumerate(h.blocks):
        (w, v), ref = eig[k], np.linalg.eigh(b)
        assert np.array_equal(w, ref[0]) and np.array_equal(v, ref[1])
    back = Element(MIXED, x.blocks)
    assert all(np.array_equal(g, b) for g, b in zip(back.stacks, x.stacks))
    assert all(np.array_equal(g, b) for g, b in zip(back.blocks, x.blocks))
    assert operator_norm(x) == max(float(np.linalg.norm(b, 2)) for b in x.blocks)


def test_eig_classes_match_per_block_eigh_and_keep_diagonal_blocks_exact():
    rng = make_rng(31)
    h = random_positive(rng, MIXED)
    blocks = list(h.blocks)
    blocks[3] = np.diag([2.0, 0.5]).astype(complex)   # exactly diagonal, size 2
    h = Element(MIXED, blocks)
    pairs = _per_block(_eig_classes(h, DEFAULT_TOL))
    refs = [np.linalg.eigh((b + b.conj().T) / 2.0) for b in h.blocks]
    lmax = max(float(np.abs(ref_w).max()) for ref_w, _ in refs)
    for k, (ref_w, ref_u) in enumerate(refs):
        w, u = pairs[k]
        cutoff = DEFAULT_TOL.rank_rel * lmax * ref_w.size
        assert np.array_equal(w, np.where(ref_w > cutoff, ref_w, 0.0))
        assert np.array_equal(u, ref_u)
    # a diagonal block's eigenvalues are its diagonal, sorted, and its
    # eigenvectors a signed permutation of I
    w, u = pairs[3]
    assert w.tolist() == [0.5, 2.0] and np.array_equal(np.abs(u), [[0.0, 1.0], [1.0, 0.0]])


def _reference_eighs(h):
    """Per size class, the raw eigensystem (w, U) of its blocks, one block
    at a time: the eigh of its Hermitian part.
    """
    raw = []
    for a in h.stacks:
        pairs = [np.linalg.eigh((b + b.conj().T) / 2.0) for b in a]
        raw.append((np.array([w for w, _ in pairs]), np.array([u for _, u in pairs])))
    return raw


NON_FINITE = "eigendecomposition: the matrix holds a NaN or an infinity"


def _reference_eig_classes(h, tol):
    """_eig_classes as first written: every check block by block, after
    the finiteness gate."""
    if not all(np.isfinite(b).all() for b in h.blocks):
        raise NonFiniteError(NON_FINITE)
    asym = [np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) for a in h.stacks]
    over = [s > tol.eq_abs + tol.eq_rel * np.abs(a).max(axis=(-2, -1))
            for s, a in zip(asym, h.stacks)]
    offenders = [(idx[j], v[j]) for idx, f, v in zip(h.algebra.classes, over, asym)
                 for j in np.flatnonzero(f)]
    if offenders:
        k, worst = min(offenders)
        raise NotPositiveError(f"block {k} is not Hermitian: asymmetry {worst:.3e}")
    raw = _reference_eighs(h)
    lmax = max(float(np.abs(w).max()) for w, _ in raw)
    floor = -tol.eq_bound(lmax)
    lows = [w.min(axis=-1) for w, _ in raw]
    offenders = [(idx[j], v[j]) for idx, v in zip(h.algebra.classes, lows)
                 for j in np.flatnonzero(v < floor)]
    if offenders:
        k, low = min(offenders)
        raise NotPositiveError(f"block {k} has negative eigenvalue {low:.3e}")
    return tuple((np.where(w > tol.rank_rel * lmax * w.shape[-1], w, 0.0), u) for w, u in raw)


def _eig_cases():
    """{name: (element, tol, verdict)}: definite, semidefinite, near the
    edges, failing in two size classes at once, and holding a NaN or an
    infinity.
    """
    rng = make_rng(46)
    M = BlockAlgebra((1, 2, 3, 2, 3, 1))   # classes: blocks 0, 5 | 1, 3 | 2, 4
    tight = Tolerances(eq_abs=1e-14, eq_rel=1e-14)
    definite = random_positive(rng, M) + M.identity()
    proj = random_projection(rng, M)
    semidefinite = proj @ random_positive(rng, M) @ proj

    def edit(**changes):
        blocks = [np.array(b) for b in definite.blocks]
        for k, change in changes.items():
            blocks[int(k[1:])] = change(blocks[int(k[1:])])
        return unchecked(M, blocks)

    def nudge(i, j, by):
        def change(b):
            b[i, j] += by
            return b
        return change

    return {
        "definite": (definite, DEFAULT_TOL, "ok"),
        "semidefinite": (semidefinite, DEFAULT_TOL, "ok"),
        "semidefinite tight": (semidefinite, tight, "ok"),
        "zero": (M.zero(), DEFAULT_TOL, "ok"),
        "identity": (M.identity(), DEFAULT_TOL, "ok"),
        # asymmetry above eq_abs, within eq_rel of the scale
        "large scale": (1e12 * definite, DEFAULT_TOL, "ok"),
        "skew": (random_element(rng, M), DEFAULT_TOL, "block 0 is not Hermitian"),
        "asymmetric in two classes": (edit(b4=nudge(2, 0, 1e-3), b1=nudge(0, 1, 1e-3j)),
                                      DEFAULT_TOL, "block 1 is not Hermitian"),
        "asymmetric within tolerance": (edit(b4=nudge(2, 0, 1e-10)), DEFAULT_TOL, "ok"),
        "asymmetric beyond a tight tolerance": (edit(b4=nudge(2, 0, 1e-10)), tight,
                                                "block 4 is not Hermitian"),
        "negative in two classes": (edit(b4=lambda b: b - 30.0 * np.eye(3),
                                         b1=lambda b: np.diag([1.0, -1e-6])),
                                    DEFAULT_TOL, "block 1 has negative eigenvalue"),
        "negative within tolerance": (edit(b3=lambda b: np.diag([1.0, -1e-12])),
                                      DEFAULT_TOL, "ok"),
        # a NaN or an infinity is refused before any check
        "nan": (edit(b3=lambda b: np.full((2, 2), np.nan)), DEFAULT_TOL, NON_FINITE),
        "inf": (edit(b2=nudge(1, 1, np.inf)), DEFAULT_TOL, NON_FINITE),
        "nan beside a negative class": (edit(b3=lambda b: np.full((2, 2), np.nan),
                                             b4=lambda b: b - 30.0 * np.eye(3)),
                                        DEFAULT_TOL, NON_FINITE),
        "nan beside a negative block": (edit(b3=lambda b: np.full((2, 2), np.nan),
                                             b1=lambda b: np.diag([1.0, -1e-6])),
                                        DEFAULT_TOL, NON_FINITE),
        "-inf beside an asymmetric block": (edit(b0=lambda b: np.array([[-np.inf]]),
                                                 b4=nudge(2, 0, 1e-3)),
                                            DEFAULT_TOL, NON_FINITE),
    }


@pytest.mark.parametrize("case", sorted(_eig_cases()))
def test_eig_classes_keep_the_bits_and_errors_of_the_block_by_block_checks(case):
    h, tol, verdict = _eig_cases()[case]
    outcomes = []
    for check in (_reference_eig_classes, _eig_classes):
        try:
            outcomes.append(check(h, tol))
        except (NotPositiveError, NonFiniteError) as err:
            outcomes.append(str(err))
    want, got = outcomes
    if verdict == "ok":
        assert not isinstance(want, str) and len(got) == len(want)
        for (w1, u1), (w2, u2) in zip(got, want):
            assert w1.tobytes() == w2.tobytes() and u1.tobytes() == u2.tobytes()
            assert not w1.flags.writeable and not u1.flags.writeable
    else:
        assert want.startswith(verdict) and got == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(1, 1), (0, 2)])
def test_a_non_finite_entry_is_refused_before_any_eigh(lapack, value, entry):
    # eigh returned NaN or failed on a NaN, and an infinity made the
    # Hermitian check NaN with a RuntimeWarning
    M = BlockAlgebra((3,))
    b = 2.0 * np.eye(3, dtype=complex)
    b[entry] = b[entry[::-1]] = value
    h = unchecked(M, [b])
    lapack.forbid("eigh")
    for run in (lambda: Weight(h), lambda: power_pos(h, 0.5),
                lambda: spectral_projection(h, 0.5), lambda: func_calc(h, np.sqrt)):
        with pytest.raises(NonFiniteError, match="^" + NON_FINITE + "$"):
            run()


def test_pos_eig_names_the_first_offending_block():
    blocks = [np.eye(n, dtype=complex) for n in MIXED.block_dims]
    blocks[4] = np.array([[1, 5, 0], [0, 1, 0], [0, 0, 1]], dtype=complex)
    blocks[1] = np.array([[1, 2], [0, 1]], dtype=complex)
    with pytest.raises(NotPositiveError, match="block 1 is not Hermitian"):
        power_pos(Element(MIXED, blocks), 0.5)
    blocks = [np.eye(n, dtype=complex) for n in MIXED.block_dims]
    blocks[4] = -np.eye(3, dtype=complex)
    blocks[2] = np.diag([1.0, -1.0, 1.0]).astype(complex)
    with pytest.raises(NotPositiveError, match="block 2 has negative eigenvalue"):
        power_pos(Element(MIXED, blocks), 0.5)


def test_powers_equal_power_pos_bit_for_bit():
    rng = make_rng(32)
    h = random_positive(rng, MIXED)
    exponents = (0.5, 1j, -1j, 1.5 - 0.2j)
    for got, a in zip(Weight(h).powers(exponents), exponents):
        assert all(np.array_equal(g, r) for g, r in zip(got.blocks, power_pos(h, a).blocks))


def _reference_eig(h, tol=DEFAULT_TOL):
    """Per-block eigensystems with the support clamp, one eigh per block."""
    pairs = [np.linalg.eigh((b + b.conj().T) / 2.0) for b in h.blocks]
    lmax = max(float(np.abs(w).max()) for w, _ in pairs)
    return [(np.where(w > tol.rank_rel * lmax * w.size, w, 0.0), u) for w, u in pairs]


def test_stacked_functional_calculus_matches_per_block_references():
    rng = make_rng(33)
    for _ in range(4):
        p = random_projection(rng, MIXED)
        h = p @ random_positive(rng, MIXED) @ p       # kernels of every rank
        c = 0.3 * operator_norm(h)
        pairs = _reference_eig(h)
        refs = []
        for t in (0.0, c):
            blocks = []
            for w, u in pairs:
                sel = u[:, (w >= t) & (w > 0.0)]
                blocks.append(sel @ sel.conj().T)
            refs.append((spectral_projection(h, t), Element(MIXED, blocks)))
        for f in (np.sqrt, lambda t: 1.0 / (1.0 + t)):
            blocks = [(u * np.array([f(lam) for lam in w])) @ u.conj().T for w, u in pairs]
            refs.append((func_calc(h, f), Element(MIXED, blocks)))
        for got, ref in refs:
            assert distance(got, ref) <= DEFAULT_TOL.eq_bound(operator_norm(ref))


def test_func_calc_calls_f_once_per_size_class():
    seen = []
    h = random_positive(make_rng(34), MIXED)
    got = func_calc(h, lambda w: seen.append(w) or w)
    assert [w.shape for w in seen] == [(2, 1), (2, 2), (2, 3)]
    assert all(w.dtype == float for w in seen)
    assert distance(got, h) <= DEFAULT_TOL.eq_bound(operator_norm(h))


def test_calculus_takes_one_eigh_per_size_class(lapack):
    blocks = random_positive(make_rng(36), MIXED).blocks   # the 1x1 class is diagonal
    for build in (lambda h: func_calc(h, np.sqrt), lambda h: power_pos(h, 0.5j),
                  lambda h: spectral_projection(h, 0.5), Weight):
        h = Element(MIXED, blocks)
        lapack.calls.clear()
        build(h)
        assert lapack.of("eigh") == [(None, a.shape) for a in h.stacks]
        lapack.calls.clear()
        build(h)
        assert lapack.calls == []
    # a weight's powers read the eigensystem its density was checked with
    mu = Weight(Element(MIXED, blocks))
    lapack.calls.clear()
    mu.powers((0.5j,)), mu.powers((0.5j, -0.5j, 1.5, 2.0 - 1j, 0.25))
    assert lapack.calls == []


def _leaves(result):
    """Every array and number in a result, in order.

    A result record is walked field by field; anything that is neither a
    known record nor an array, number or string fails the walk, so no
    record is ever compared as one opaque object.
    """
    if isinstance(result, Element):
        return list(result.stacks)
    if isinstance(result, GradedElement):
        return [*_leaves(result.data), result.grading]
    if isinstance(result, (list, tuple)):
        return [v for item in result for v in _leaves(item)]
    if isinstance(result, (PolarDecomposition, DivisionResult, ToleranceReport)):
        return _leaves([getattr(result, name) for name in result._fields])
    assert isinstance(result, (np.ndarray, numbers.Number, str)), type(result)
    return [result]


def test_cached_factorizations_give_bit_identical_results(lapack):
    rng = make_rng(37)
    x0 = random_element(rng, MIXED)
    y0 = random_element(rng, MIXED) @ x0
    h0 = random_positive(rng, MIXED)
    runs = (lambda x, y, h: polar_right(x), lambda x, y, h: polar_left(x),
            lambda x, y, h: left_support(x), lambda x, y, h: right_support(x),
            lambda x, y, h: douglas_divide(x, y),
            lambda x, y, h: holder_witness(GradedElement(x, 0.7 + 0.2j), 0.5),
            lambda x, y, h: comultiply(GradedElement(x, 1.2 - 0.3j), (0.5, 0.7 - 0.3j)),
            lambda x, y, h: Weight(h).powers((0.5j, -0.5j, 1.5)),
            lambda x, y, h: operator_norm(x), lambda x, y, h: lnorm(GradedElement(x, 0.7 + 0.2j)),
            lambda x, y, h: func_calc(h, np.sqrt),
            lambda x, y, h: Weight(h).support)
    for run in runs:
        # fresh elements, so that the first run factorizes them cold
        fresh = [Element(MIXED, z.blocks) for z in (x0, y0, h0)]
        lapack.reset()
        cold = _leaves(run(*fresh))
        for other in runs:      # factorize them from every caller
            other(*fresh)
        lapack.calls.clear()
        warm = _leaves(run(*fresh))
        assert "svd" not in lapack.names() and "eigh" not in lapack.names()
        assert len(cold) == len(warm)
        assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes()
                   for a, b in zip(cold, warm))


def test_cached_factors_are_read_only():
    rng = make_rng(38)
    x, h = random_element(rng, MIXED), random_positive(rng, MIXED)
    factors = [a for triple in _svds(x) for a in triple] + list(_svals(x, "operator norm"))
    factors += [a for pair in _eig_classes(h, DEFAULT_TOL) for a in pair]
    assert len(factors) == 3 * 3 + 3 + 3 * 2
    for a in factors:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0.0


def test_factor_cache_is_keyed_by_identity(lapack):
    rng = make_rng(39)
    x, h = random_element(rng, M2), random_positive(rng, M2)
    twin_x, twin_h = Element(M2, x.blocks), Element(M2, h.blocks)
    for z in (x, twin_x, x, twin_x):
        left_support(z)
    assert lapack.names() == ["svd", "svd"]
    lapack.calls.clear()
    for z in (h, twin_h, h, twin_h):
        power_pos(z, 0.5)
    assert lapack.names() == ["eigh", "eigh"]


def test_factor_cache_holds_the_last_factor_cache_elements(lapack):
    rng = make_rng(40)
    xs = [random_element(rng, M2) for _ in range(FACTOR_CACHE + 1)]
    hs = [random_positive(rng, M2) for _ in range(FACTOR_CACHE + 1)]
    # the full SVDs of the last FACTOR_CACHE elements are kept
    for z in xs:
        left_support(z)
    assert lapack.names() == ["svd"] * len(xs)
    lapack.calls.clear()
    for z in xs[1:]:
        left_support(z)
    assert lapack.calls == []
    left_support(xs[0])       # the oldest was dropped
    assert lapack.names() == ["svd"]
    # eigensystems and singular values live on each element, so none is
    # ever dropped
    for run, name, items in ((lambda z: power_pos(z, 0.5), "eigh", hs),
                             (operator_norm, "svdvals", xs)):
        lapack.calls.clear()
        for z in items:
            run(z)
        assert lapack.names() == [name] * len(items)
        lapack.calls.clear()
        for z in items:
            run(z)
        assert lapack.calls == []
    assert all(z._sv is not None for z in xs)


def test_lnorm_after_operator_norm_takes_no_svd(lapack):
    x = random_element(make_rng(41), MIXED)
    nrm = operator_norm(x)
    assert lapack.names() == ["svdvals"] * 3   # one per size class
    for a in (0.0, 0.3j, 0.7 + 0.2j, 2.0):
        got = lnorm(GradedElement(x, a))
        assert got == nrm if a.real == 0.0 else got > 0.0
    assert lapack.names() == ["svdvals"] * 3


def test_suite_report_is_the_same_with_the_caches_bypassed(lapack, monkeypatch):
    cfg = SuiteConfig(seed=7, trials=5)
    cached = run_suite(cfg)
    counts = [lapack.names().count(name) for name in ("svd", "eigh", "svdvals")]
    bare = _svds.__wrapped__
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "nclp"]:
        for name, value in list(vars(module).items()):
            if value is _svds:
                monkeypatch.setattr(module, name, bare)
    # no element keeps its singular values or eigensystems: every read
    # takes them again
    kept = {"_sv": [], "_eig": []}
    for field, log in kept.items():
        forgetful = property(lambda self: None, lambda self, value, log=log: log.append(value))
        monkeypatch.setattr(Element, field, forgetful)
    lapack.reset()
    uncached = run_suite(cfg)
    assert all(kept.values())
    # every kind of factorization is taken more often without the caches
    assert all(lapack.names().count(name) > count
               for name, count in zip(("svd", "eigh", "svdvals"), counts))
    cached.pop("duration_seconds"), uncached.pop("duration_seconds")
    assert cached == uncached


def test_algebra_construction_builds_no_coords():
    tracemalloc.start()
    try:
        M = BlockAlgebra((3000,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert M._coords is None and M.classes == ((0,),)


def _coords_up_front(dims):
    """An algebra whose coords are written before first use, by the flat-layout formula."""
    M = BlockAlgebra(dims)
    starts = np.cumsum([0, *(n * n for n in dims)])
    object.__setattr__(M, "_coords", tuple(np.arange(s, s + n * n).reshape(n, n)
                                           for s, n in zip(starts, dims)))
    return M


def _same_bits(a, b):
    return len(a) == len(b) and all(np.asarray(p).tobytes() == np.asarray(q).tobytes()
                                    for p, q in zip(a, b))


def test_unflatten_gives_the_bits_of_the_public_constructor():
    vec = flatten_element(random_element(make_rng(77), MIXED))
    got = unflatten_element(MIXED, vec)
    want = Element(MIXED, [vec[c] for c in MIXED.coords])
    assert _same_bits(got.stacks, want.stacks)
    assert all(s.dtype == complex and s.flags.c_contiguous and not s.flags.writeable
               for s in got.stacks)
    assert _same_bits(unflatten_element(MIXED, vec.real).stacks,
                      Element(MIXED, [vec.real[c] for c in MIXED.coords]).stacks)


def test_pushforward_laws_build_no_element_through_the_public_constructor(monkeypatch):
    calls = []
    init = Element.__init__
    monkeypatch.setattr(Element, "__init__",
                        lambda self, *args: calls.append(args) or init(self, *args))
    rng = make_rng(78)
    for _ in range(5):
        assert PROPERTIES["weights.pushforward_laws"](rng, SuiteConfig())[0]
    assert calls == []


def test_lazy_coords_give_the_bits_of_coords_built_up_front():
    dims = (2, 3, 1, 3)
    lazy, eager = BlockAlgebra(dims), _coords_up_front(dims)
    rng = make_rng(42)
    x = random_element(rng, lazy)
    x_up = Element(eager, x.blocks)
    vec = flatten_element(x)
    assert vec.tobytes() == flatten_element(x_up).tobytes()
    assert _same_bits(unflatten_element(lazy, vec).stacks, unflatten_element(eager, vec).stacks)
    dense = [np.stack([flatten_element(z @ e) for e in z.algebra.basis()], axis=1)
             for z in (x, x_up)]
    assert dense[0].tobytes() == dense[1].tobytes()
    homs = [ModuleHom(z.algebra, 0.3j, 0.5 + 0.5j, m) for z, m in zip((x, x_up), dense)]
    assert _same_bits(*(_leaves(hom_to_element(T)) for T in homs))
    source = BlockAlgebra((2, 1))
    maps = [OperatorValuedWeight.from_compression(
                BlockEmbedding(source, target, [[0, 1], [0, 0, 1]]), [1.0, 2.0, 0.5, 3.0, 1.5])
            for target in (BlockAlgebra((3, 5)), _coords_up_front((3, 5)))]
    q = random_element(rng, maps[0].source)
    assert _same_bits(*(_leaves(T.apply(q)) for T in maps))
    assert maps[0].validate() == maps[1].validate()
    for M in (lazy, pickle.loads(pickle.dumps(lazy))):
        assert _same_bits(M.coords, eager.coords)
        assert not any(c.flags.writeable for c in M.coords)
    back = pickle.loads(pickle.dumps(x))
    assert back.algebra._coords is None
    assert _same_bits(flatten_element(back), vec)


@pytest.mark.parametrize("dims", [*DEFAULT_SHAPES, (2,) * 32], ids=str)
def test_distance_is_the_norm_of_the_difference_and_builds_nothing(dims, lapack, monkeypatch):
    # distance takes, on the stacks of x - y, the values-only SVDs that
    # operator_norm(x - y) takes: the same bits, with no element built and no
    # singular values kept on x or y (x keeps its own, y none)
    M = BlockAlgebra(dims)
    rng = make_rng(43)
    x, y = random_element(rng, M), random_element(rng, M)
    kept = _svals(x, "operator norm")
    built = []
    of = Element._of.__func__
    monkeypatch.setattr(Element, "_of", classmethod(
        lambda cls, algebra, stacks: built.append(algebra) or of(cls, algebra, stacks)))
    lapack.calls.clear()
    got = distance(x, y)
    assert built == []
    assert lapack.names() == ["svdvals"] * len(M.classes)   # no full SVD, so none kept
    assert x._sv is kept and y._sv is None
    assert got.hex() == operator_norm(x - y).hex()
    assert distance(x, y) == got and len(built) == 1   # x - y alone was built
    with pytest.raises(AlgebraMismatchError, match="^incompatible algebras: "):
        distance(x, BlockAlgebra((*dims, 1)).identity())
    for bad in (np.nan, np.inf):
        blocks = [np.array(b) for b in x.blocks]
        blocks[-1][0, -1] = bad
        with pytest.raises(NonFiniteError, match="^distance: the matrix holds a NaN"):
            distance(unchecked(M, blocks), y)


SVD = "singular value decomposition"
SVD_PATHS = [
    ("operator norm", lambda x, y: operator_norm(x)),
    ("distance", lambda x, y: distance(y, x)),
    ("lnorm", lambda x, y: lnorm(GradedElement(x, 0.3j))),
    ("lnorm", lambda x, y: lnorm(GradedElement(x, 0.5))),
    (SVD, lambda x, y: polar_right(x)),
    (SVD, lambda x, y: left_support(x)),
    (SVD, lambda x, y: pseudo_inverse(x)),
    (SVD, lambda x, y: holder_witness(GradedElement(x, 0.5), 0.3)),
    (SVD, lambda x, y: comultiply(GradedElement(x, 0.5), (0.2, 0.3))),
]


@pytest.mark.parametrize("dims", [(3,), (2,) * 32], ids=str)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_every_svd_path_refuses_a_non_finite_block_before_factorizing(dims, bad, lapack):
    # matcore._svd tests its stack before anything is recorded or factorized,
    # so neither LAPACK (on (3,), whose full SVD of a block holding an
    # infinity may never return) nor the 2 x 2 kernel (on (2,) * 32) sees it
    M = BlockAlgebra(dims)
    rng = make_rng(75)
    x, y = random_element(rng, M), random_element(rng, M)
    blocks = [np.array(b) for b in x.blocks]
    blocks[len(dims) // 2][1, 0] = bad
    x = unchecked(M, blocks)
    lapack.forbid("svd")
    for operation, call in SVD_PATHS:
        with pytest.raises(NonFiniteError,
                           match=f"^{operation}: the matrix holds a NaN or an infinity$"):
            call(x, y)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dims", [(2,), (2,) * 32], ids=["lapack", "kernel"])
def test_a_spectrum_past_the_float_range_is_refused_on_both_sides_of_the_kernel_gate(dims):
    # the finite blocks full(1e308) have singular values and eigenvalues 2e308
    # and 0: LAPACK and the SVD kernel both come back with inf, and so does
    # LAPACK's eigh on either side, which the funnel refuses, so no norm
    # reads inf and no support or power reads 0
    M = BlockAlgebra(dims)
    x = Element(M, [np.full((2, 2), 1e308)] * len(dims))
    svd = "a singular value exceeds the float range$"
    for match, call in (
            (f"^operator norm: {svd}", operator_norm),
            (f"^singular value decomposition: {svd}", lambda x: polar_right(x).positive),
            (f"^singular value decomposition: {svd}", right_support),
            ("^eigendecomposition: an eigenvalue exceeds the float range$", Weight),
            ("^eigendecomposition: an eigenvalue exceeds the float range$",
             lambda x: power_pos(x, 1))):
        with pytest.raises(OutOfRangeError, match=match):
            call(Element(M, x.blocks))   # a new element, which keeps nothing yet
    # half the scale is in range, and both sides agree with the exact figures
    half = Element(M, [np.full((2, 2), 0.5e308)] * len(dims))
    assert operator_norm(half) == 1e308
    assert operator_norm(polar_right(half).positive) == 1e308
    assert operator_norm(power_pos(half, 1)) == pytest.approx(1e308, rel=1e-13)
    assert Weight(half).support.blocks[0] == pytest.approx(np.full((2, 2), 0.5))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_func_calc_refuses_a_non_finite_value_of_f(bad):
    # the result would carry f's values as its singular values, which no SVD tests
    h = random_positive(make_rng(76), MIXED)
    with pytest.raises(NonFiniteError, match="^func_calc: f returned a NaN or an infinity$"):
        func_calc(h, lambda w: np.where(w < w.max(), w, bad))




def test_identity_is_one_shared_read_only_element():
    M = BlockAlgebra((1, 2, 3, 2))
    one = M.identity()
    assert M.identity() is one
    assert all(not a.flags.writeable for a in one.stacks)
    assert all(np.array_equal(b, np.eye(n)) and b.dtype == complex
               for b, n in zip(one.blocks, M.block_dims))
    with pytest.raises(ValueError):
        one.stacks[0][0, 0, 0] = 2.0
    assert pickle.loads(pickle.dumps(M)).identity() is not one


def test_fields_built_on_first_use_are_built_once_and_stay_frozen():
    # coords, the identity, blocks and a weight's support are placeholders
    # filled on first read; every later read returns the same object
    M = BlockAlgebra((1, 2, 3, 2))
    x = random_element(make_rng(47), M)
    p = random_projection(make_rng(48), M)
    mu = Weight(p @ random_positive(make_rng(49), M) @ p)
    reads = {"coords": lambda: M.coords, "identity": M.identity,
             "blocks": lambda: x.blocks, "support": lambda: mu.support}
    for name, read in reads.items():
        first = read()
        assert read() is first and read() is first, name
    for obj, name in ((M, "_coords"), (M, "_identity"), (x, "_blocks"), (mu, "_support")):
        assert getattr(obj, name) is not None
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    assert all(not c.flags.writeable for c in M.coords)
    assert all(not b.flags.writeable for b in x.blocks)
    back = pickle.loads(pickle.dumps(mu))
    assert back.support is back.support
    assert all(np.array_equal(a, b) for a, b in zip(back.support.stacks, mu.support.stacks))


def test_trace_sums_the_block_traces_in_block_order():
    x = random_element(make_rng(45), MIXED)
    ref = 0
    for b in x.blocks:
        ref = ref + np.trace(b)
    got = trace(x)
    assert type(got) is complex and got == complex(ref)
    assert trace(MIXED.identity()) == sum(MIXED.block_dims)
    # in block order 1e16 - 1e16 + 1 = 1; class by class, 1 + 1e16 - 1e16 = 0
    blocks = [np.zeros((n, n)) for n in MIXED.block_dims]
    blocks[1][0, 0], blocks[2][0, 0], blocks[5][0, 0] = 1e16, -1e16, 1.0
    assert trace(Element(MIXED, blocks)) == 1.0
