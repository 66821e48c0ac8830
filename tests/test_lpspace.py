"""Unit tests for graded norms, witnesses, tensors, and homs."""

import tracemalloc

import numpy as np
import pytest

from nclp import (
    DEFAULT_TOL,
    AlgebraMismatchError,
    BlockAlgebra,
    Element,
    GradedElement,
    GradingError,
    ModuleHom,
    NclpError,
    NonFiniteError,
    NotModuleMapError,
    OutOfRangeError,
    TensorElement,
    Tolerances,
    Weight,
    comultiply,
    cyclic_generator,
    distance,
    flatten_element,
    gmul,
    graded_divide,
    holder_witness,
    holder_witness_imaginary,
    hom_from_element,
    hom_norm,
    hom_norm_certificate,
    hom_to_element,
    isometry_divide,
    lnorm,
    lpspace,
    operator_norm,
    polar_right,
    power_pos,
    rank1_reduce,
    spectral_projection,
    tensor_multiply,
    trace_weight,
    turpin_upper,
    unflatten_element,
)
from nclp.matcore import KERNEL_BLOCKS
from nclp.sampling import (
    make_rng,
    random_element,
    random_graded,
    random_positive,
    random_projection,
)

M2 = BlockAlgebra((2,))
M3 = BlockAlgebra((3,))


def e(i, j):
    m = np.zeros((2, 2), dtype=complex)
    m[i - 1, j - 1] = 1.0
    return Element(M2, [m])


def diag(*vals):
    return Element(M2, [np.diag(np.asarray(vals, dtype=complex))])


def test_lnorm_examples():
    assert abs(lnorm(GradedElement(M2.identity(), 1.0)) - 2.0) < 1e-14
    assert abs(lnorm(GradedElement(diag(3, 4), 0.5)) - 5.0) < 1e-14
    rng = make_rng(0)
    x = random_element(rng, M2)
    assert lnorm(GradedElement(x, 0.7j)) == operator_norm(x)


def test_lnorm_definite():
    assert lnorm(GradedElement(M2.zero(), 1.5)) == 0.0
    assert lnorm(GradedElement(M2.identity(), 1.5)) > 0.0


def test_gmul_unit_and_power_addition():
    rng = make_rng(1)
    xi = random_graded(rng, M2, 0.5 + 0.2j)
    unit = GradedElement(M2.identity(), 0.0)
    out = gmul(unit, xi)
    assert distance(out.data, xi.data) == 0.0 and out.grading == xi.grading
    h = random_positive(rng, M2)
    from nclp import power_pos
    root = GradedElement(power_pos(h, 0.5), 0.5)
    prod = gmul(root, root)
    assert distance(prod.data, h) < 1e-12 and prod.grading == 1.0


def test_holder_inequality_random():
    rng = make_rng(2)
    for _ in range(50):
        a = complex(rng.choice([0.0, 1 / 3, 0.5, 1.0, 1.5]), rng.uniform(-2, 2))
        b = complex(rng.choice([0.0, 1 / 3, 0.5, 1.0, 1.5]), rng.uniform(-2, 2))
        xi, eta = random_graded(rng, M3, a), random_graded(rng, M3, b)
        bound = lnorm(xi) * lnorm(eta)
        assert lnorm(gmul(xi, eta)) <= bound + 1e-9 * (bound + 1.0)


def test_holder_witness_positive_case():
    rng = make_rng(3)
    h = random_positive(rng, M2)
    xi = GradedElement(h, 0.5)
    y = holder_witness(xi, 0.5)
    assert distance(y.data, h) < 1e-11
    assert abs(lnorm(gmul(xi, y)) - lnorm(xi) ** 2) < 1e-10 * lnorm(xi) ** 2


def test_holder_witness_matrix_unit():
    xi = GradedElement(e(1, 2), 1.0)
    y = holder_witness(xi, 1.0)
    assert distance(y.data, e(2, 2)) < 1e-13
    assert abs(lnorm(gmul(xi, y)) - lnorm(xi) * lnorm(y)) < 1e-12


def test_holder_witness_random_equality():
    rng = make_rng(4)
    xi = random_graded(rng, M3, complex(1 / 3, 0.8))
    y = holder_witness(xi, complex(2 / 3, -0.5))
    lhs, rhs = lnorm(gmul(xi, y)), lnorm(xi) * lnorm(y)
    assert abs(lhs - rhs) <= 1e-9 * rhs


def test_holder_witness_rejections():
    rng = make_rng(5)
    with pytest.raises(NclpError):
        holder_witness(GradedElement(M2.zero(), 0.5), 0.5)
    with pytest.raises(GradingError):
        holder_witness(random_graded(rng, M2, 0.9j), 0.5)


def test_holder_witness_imaginary_unitary():
    rng = make_rng(6)
    from nclp import polar_right
    u = polar_right(random_element(rng, M2)).isometry
    xi = GradedElement(u, 0.4j)
    y = holder_witness_imaginary(xi, 0.5, 0.9)
    assert abs(lnorm(gmul(xi, y)) - lnorm(y)) < 1e-11


def test_holder_witness_imaginary_diagonal():
    xi = GradedElement(diag(1, 3), 0.0)
    y = holder_witness_imaginary(xi, 0.5, 2.0)
    assert lnorm(gmul(xi, y)) >= 2.0 * lnorm(y) - 1e-12
    assert distance(y.data @ y.data.adjoint(), e(2, 2)) < 1e-12


def test_holder_witness_imaginary_ladder_reaches_norm():
    rng = make_rng(7)
    xi = random_graded(rng, M3, -1.3j)
    target = operator_norm(xi.data)
    best = 0.0
    for k in range(1, 8):
        c = target * (1 - 10.0 ** (-k))
        y = holder_witness_imaginary(xi, 1.0, c)
        best = max(best, lnorm(gmul(xi, y)) / lnorm(y))
    assert target - best <= 1e-6 * target


def test_holder_witness_imaginary_rejects_large_threshold():
    rng = make_rng(8)
    xi = random_graded(rng, M2, 0.2j)
    with pytest.raises(NclpError):
        holder_witness_imaginary(xi, 0.5, operator_norm(xi.data) * 1.5)


def test_holder_witness_imaginary_refuses_a_nan_threshold_as_spectral_projection_does():
    xi = random_graded(make_rng(8), M2, 0.2j)
    for refuse in (lambda c: holder_witness_imaginary(xi, 0.5, c),
                   lambda c: spectral_projection(xi.data.adjoint() @ xi.data, c)):
        with pytest.raises(NonFiniteError, match="^threshold must not be NaN$"):
            refuse(float("nan"))


def test_holder_witness_imaginary_threshold_reads_the_callers_norm():
    # the full SVD behind the witness and the values-only SVD behind
    # operator_norm disagree on the top singular value of a 64 x 64 block by
    # a few ulps, either way; c at and just below operator_norm must get the
    # verdict c < operator_norm, and an accepted witness must be nonzero
    M64 = BlockAlgebra((64,))
    gaps = []
    for seed in range(6):
        x = random_element(make_rng(90 + seed), M64)
        nrm = operator_norm(x)
        gaps.append(nrm - float(np.linalg.svd(x.stacks[0])[1].max()))
        xi = GradedElement(x, 0.3j)
        for k in range(4):
            c = nrm - k * np.spacing(nrm)
            if k == 0:
                with pytest.raises(NclpError):
                    holder_witness_imaginary(xi, 0.5, c)
                continue
            y = holder_witness_imaginary(xi, 0.5, c)
            ny = lnorm(y)
            assert ny > 0.0
            assert lnorm(gmul(xi, y)) >= c * ny - DEFAULT_TOL.eq_bound(nrm)
    assert min(gaps) < 0.0 < max(gaps)


def test_comultiply_positive_diagonal():
    zeta = GradedElement(diag(1, 2), 1.0)
    f, s = comultiply(zeta, (0.5, 0.5))
    root = diag(1, np.sqrt(2))
    assert distance(f.data, root) < 1e-12
    assert distance(s.data, root) < 1e-12
    assert abs(lnorm(f) * lnorm(s) - 3.0) < 1e-12


def test_comultiply_imaginary_grading():
    rng = make_rng(9)
    zeta = random_graded(rng, M3, 0.0)
    f, s = comultiply(zeta, (0.0, 0.0))
    assert distance(gmul(f, s).data, zeta.data) < 1e-13
    assert abs(lnorm(f) * lnorm(s) - lnorm(zeta)) < 1e-12


def test_comultiply_matrix_unit_mixed_split():
    zeta = GradedElement(e(1, 2), 1.0)
    f, s = comultiply(zeta, (1.0, 0.0))
    assert distance(f.data, e(1, 2)) < 1e-13
    assert distance(s.data, e(2, 2)) < 1e-13
    assert distance(gmul(f, s).data, e(1, 2)) < 1e-13


def test_comultiply_rejects_bad_split():
    rng = make_rng(10)
    zeta = random_graded(rng, M2, 1.0)
    with pytest.raises(GradingError):
        comultiply(zeta, (0.5, 0.25))


def test_tensor_multiply_empty_and_balanced():
    z = TensorElement(M2, 0.5, 0.5, ())
    assert operator_norm(tensor_multiply(z).data) == 0.0
    rng = make_rng(11)
    xi, eta = random_graded(rng, M2, 0.5), random_graded(rng, M2, 0.5)
    p = random_element(rng, M2)
    balanced_left = TensorElement(M2, 0.5, 0.5,
                                  ((GradedElement(xi.data @ p, 0.5), eta),))
    balanced_right = TensorElement(M2, 0.5, 0.5,
                                   ((xi, GradedElement(p @ eta.data, 0.5)),))
    assert distance(tensor_multiply(balanced_left).data,
                    tensor_multiply(balanced_right).data) < 1e-12


def test_turpin_rank1_is_exact():
    rng = make_rng(12)
    zeta = random_graded(rng, M3, 1.0 + 0.3j)
    f, s = comultiply(zeta, (0.5 + 0.1j, 0.5 + 0.2j))
    z = TensorElement(M3, f.grading, s.grading, ((f, s),))
    assert abs(turpin_upper(z) - lnorm(zeta)) <= 1e-9 * lnorm(zeta)


def test_turpin_cancellation():
    rng = make_rng(13)
    xi, eta = random_graded(rng, M2, 0.5), random_graded(rng, M2, 0.5)
    z = TensorElement(M2, 0.5, 0.5, ((xi, eta), ((-1.0) * xi, eta)))
    assert turpin_upper(z) < 1e-12


def test_turpin_matches_product_norm_on_sums():
    rng = make_rng(14)
    pairs = tuple((random_graded(rng, M2, 0.5), random_graded(rng, M2, 0.5))
                  for _ in range(5))
    z = TensorElement(M2, 0.5, 0.5, pairs)
    target = lnorm(tensor_multiply(z))
    assert abs(turpin_upper(z) - target) <= 1e-8 * target
    assert turpin_upper(z) >= target - 1e-9 * (target + 1.0)


def test_tensor_element_validates_gradings():
    rng = make_rng(15)
    with pytest.raises(GradingError):
        TensorElement(M2, 0.5, 0.5,
                      ((random_graded(rng, M2, 1.0), random_graded(rng, M2, 0.5)),))
    here, there = random_graded(rng, M2, 0.5), random_graded(rng, M3, 0.5)
    for pair in ((there, here), (here, there)):
        with pytest.raises(AlgebraMismatchError):
            TensorElement(M2, 0.5, 0.5, (pair,))


def test_tensor_element_grading_check_reads_the_tolerance():
    rng = make_rng(25)
    left, right = random_graded(rng, M2, 0.5), random_graded(rng, M2, 0.5 + 1e-7)
    with pytest.raises(GradingError):
        TensorElement(M2, 0.5, 0.5, ((left, right),))
    z = TensorElement(M2, 0.5, 0.5, ((left, right),), Tolerances(eq_abs=1e-6))
    assert z.pairs == ((left, right),)


def test_hom_identity():
    unit = GradedElement(M2.identity(), 0.0)
    T = hom_from_element(unit, 0.0)
    assert abs(hom_norm(T) - 1.0) < 1e-12
    back = hom_to_element(T)
    assert distance(back.data, M2.identity()) < 1e-13


def test_hom_explicit_matrix_unit():
    xi = GradedElement(e(1, 2), 0.5)
    T = hom_from_element(xi, 0.5)
    rng = make_rng(16)
    y = random_element(rng, M2)
    assert distance(T.apply(y), e(1, 2) @ y) < 1e-13


def test_hom_roundtrip_random():
    rng = make_rng(17)
    xi = random_graded(rng, M3, 1.5 - 0.7j)
    T = hom_from_element(xi, 0.5 + 0.4j)
    back = hom_to_element(T)
    assert distance(back.data, xi.data) <= 1e-10 * (1 + operator_norm(xi.data))
    assert abs(back.grading - xi.grading) < 1e-12


def test_hom_rejects_non_module_map():
    rng = make_rng(18)
    with pytest.raises(NotModuleMapError):
        ModuleHom(M2, 0.5, 1.0, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))


@pytest.mark.parametrize("dims, entry", [((3,), (1, 5)), ((2, 2), (4, 4))])
def test_hom_to_element_single_entry_perturbation(dims, entry):
    M = BlockAlgebra(dims)
    rng = make_rng(24)
    xi = random_graded(rng, M, 0.5 + 0.2j)
    # the matrix of x -> xi @ x, column by column
    dense = np.stack([flatten_element(xi.data @ e) for e in M.basis()], axis=1)
    for eps, rejected in ((1e-6, True), (1e-14, False)):
        mat = np.array(dense)
        mat[entry] += eps
        if not rejected:
            ModuleHom(M, 0.5, 1.0 + 0.2j, mat)
            continue
        with pytest.raises(NotModuleMapError) as exc:
            ModuleHom(M, 0.5, 1.0 + 0.2j, mat)
        unit = unflatten_element(M, mat @ flatten_element(M.identity()))
        # left multiplication by T(1), one flattened basis image per column
        multiply = np.stack([flatten_element(unit @ e) for e in M.basis()], axis=1)
        assert exc.value.residual == np.linalg.norm(mat - multiply)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_module_hom_residual_is_scale_free(scale):
    # the squares of entries of 1e200 overflow a plain Frobenius norm; the
    # residual scales with the matrix and stays finite
    mat = make_rng(18).standard_normal((4, 4))
    with pytest.raises(NotModuleMapError) as unit:
        ModuleHom(M2, 0.5, 1.0, mat)
    with pytest.raises(NotModuleMapError) as exc:
        ModuleHom(M2, 0.5, 1.0, scale * mat)
    assert np.isfinite(exc.value.residual)
    assert exc.value.residual == pytest.approx(scale * unit.value.residual, rel=1e-14)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_module_hom_refuses_a_unit_image_past_the_float_range():
    # T(1) sums two entries of 1e308 in each row
    with pytest.raises(OutOfRangeError, match=r"^module map: T\(1\) exceeds the float range$"):
        ModuleHom(M2, 0.5, 1.0, np.full((4, 4), 1e308))


@pytest.mark.parametrize("shape", [(3, 3), (4, 5), (4,), (2, 2, 4)], ids=str)
def test_module_hom_rejects_a_matrix_of_the_wrong_shape(shape):
    with pytest.raises(ValueError, match=r"hom matrix must have shape \(4, 4\)"):
        ModuleHom(M2, 0.5, 0.5, np.ones(shape, dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_module_hom_rejects_non_finite_matrices(bad):
    mat = np.eye(M2.total_dim, dtype=complex)
    mat[1, 2] = bad
    with pytest.raises(NonFiniteError):
        ModuleHom(M2, 0.5, 0.5, mat)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gradings_are_rejected(bad):
    xi = random_graded(make_rng(33), M2, 0.5)
    for call in (lambda: hom_from_element(xi, bad),
                 lambda: comultiply(xi, (bad, 0.5)),
                 lambda: comultiply(xi, (0.5, bad)),
                 lambda: holder_witness(xi, bad),
                 lambda: TensorElement(M2, bad, 0.5, ()),
                 lambda: TensorElement(M2, 0.5, bad, ()),
                 lambda: ModuleHom(M2, bad, 0.5, np.eye(M2.total_dim)),
                 lambda: ModuleHom(M2, 0.5, bad, np.eye(M2.total_dim))):
        with pytest.raises(NonFiniteError):
            call()


def _witnessed_by_hom_norm(rng, tol, grading, monkeypatch):
    """Every graded element hom_norm_certificate measures, the witnesses included."""
    seen = []

    def spy(xi, tol=DEFAULT_TOL, _real=lpspace.lnorm):
        seen.append(xi)
        return _real(xi, tol)

    monkeypatch.setattr(lpspace, "lnorm", spy)
    hom_norm_certificate(hom_from_element(random_graded(rng, M2, grading), 0.5), tol)
    return seen


_BUILT_GRADED = {
    "graded_divide": lambda rng, tol, mp: [graded_divide(
        random_graded(rng, M2, 0.5 + 0.3j), random_graded(rng, M2, 0.5 - 0.9j), tol)],
    "graded_divide_zero": lambda rng, tol, mp: [
        graded_divide(random_graded(rng, M2, 0.5), GradedElement(M2.zero(), 1.0), tol)],
    "cyclic_generator": lambda rng, tol, mp: [cyclic_generator(
        [random_graded(rng, M2, 0.5) for _ in range(2)], trace_weight(M2), tol)[0]],
    "rank1_reduce": lambda rng, tol, mp: list(rank1_reduce(
        [(random_graded(rng, M2, 1.0), random_graded(rng, M2, 0.5)) for _ in range(2)],
        trace_weight(M2), tol)),
    "holder_witness": lambda rng, tol, mp: [
        holder_witness(random_graded(rng, M2, 0.5), 0.5, tol)],
    "holder_witness_imaginary": lambda rng, tol, mp: [
        holder_witness_imaginary(random_graded(rng, M2, 0.3j), 0.5, 0.1, tol)],
    "comultiply": lambda rng, tol, mp: list(
        comultiply(random_graded(rng, M2, 1.0), (0.5, 0.5), tol)),
    "comultiply_imaginary": lambda rng, tol, mp: list(
        comultiply(random_graded(rng, M2, 0.2j), (0.1j, 0.1j), tol)),
    "hom_to_element": lambda rng, tol, mp: [
        hom_to_element(hom_from_element(random_graded(rng, M2, 0.5), 0.5), tol)],
    "module_hom_call": lambda rng, tol, mp: [
        hom_from_element(random_graded(rng, M2, 0.5), 1.0)(random_graded(rng, M2, 1.0), tol)],
    "hom_norm_certificate": lambda rng, tol, mp: _witnessed_by_hom_norm(rng, tol, 0.5, mp),
    "hom_norm_certificate_ladder": lambda rng, tol, mp: _witnessed_by_hom_norm(rng, tol, 0.3j, mp),
}


@pytest.mark.parametrize("name", sorted(_BUILT_GRADED))
def test_built_graded_elements_carry_the_tolerance(name, monkeypatch):
    loose = Tolerances(eq_abs=1e-6)
    built = _BUILT_GRADED[name](make_rng(31), loose, monkeypatch)
    assert built and all(isinstance(g, GradedElement) and g.tol is loose for g in built)


def test_graded_sum_reads_the_tolerance():
    rng = make_rng(29)
    x, y = random_element(rng, M2), random_element(rng, M2)
    with pytest.raises(GradingError):
        GradedElement(x, 0.5) + GradedElement(y, 0.5 + 1e-7)
    loose = Tolerances(eq_abs=1e-6)
    total = GradedElement(x, 0.5, loose) + GradedElement(y, 0.5 + 1e-7)
    assert total.grading == 0.5 and total.tol is loose
    assert np.array_equal(total.data.stacks[0], (x + y).stacks[0])
    for derived in (total.adjoint(), 2.0 * total, total - total):
        assert derived.tol is loose


def test_products_keep_the_tolerance_of_their_factors():
    # each factor and the product lie within 1e-6 of Re >= 0, but not within 1e-9
    rng = make_rng(32)
    loose = Tolerances(eq_abs=1e-6)
    xi, eta = (GradedElement(random_element(rng, M2), -4e-7, loose) for _ in range(2))
    with pytest.raises(GradingError):
        GradedElement(xi.data @ eta.data, -8e-7)
    z = TensorElement(M2, -4e-7, -4e-7, ((xi, eta),), loose)
    for product in (gmul(xi, eta), tensor_multiply(z)):
        assert product.tol is loose and product.grading == -8e-7
        assert np.array_equal(product.data.stacks[0], (xi.data @ eta.data).stacks[0])


def test_graded_element_grading_check_reads_the_tolerance():
    x = random_element(make_rng(30), M2)
    with pytest.raises(GradingError):
        GradedElement(x, -1e-7)
    assert GradedElement(x, -1e-7, Tolerances(eq_abs=1e-6)).grading == -1e-7


def test_hom_rejects_negative_multiplier_grading():
    # the identity map is right-linear, but gradings 1 -> 1/2 would need
    # a multiplier below the allowed half-plane
    T = ModuleHom(M2, 1.0, 0.5, np.eye(M2.total_dim, dtype=complex))
    with pytest.raises(GradingError):
        hom_to_element(T)


def test_hom_call_checks_grading():
    rng = make_rng(23)
    xi = random_graded(rng, M2, 0.5)
    T = hom_from_element(xi, 1.0)
    out = T(random_graded(rng, M2, 1.0))
    assert out.grading == 1.5
    with pytest.raises(GradingError):
        T(random_graded(rng, M2, 0.25))
    # the map is 4 x 4 like one on (1, 1, 1, 1), but still checks the algebra
    for other in (BlockAlgebra((1, 1, 1, 1)), M3):
        with pytest.raises(AlgebraMismatchError):
            T.apply(random_element(rng, other))
        with pytest.raises(AlgebraMismatchError):
            T(random_graded(rng, other, 1.0))


def test_hom_call_grading_check_reads_the_tolerance():
    rng = make_rng(26)
    T = hom_from_element(random_graded(rng, M2, 0.5), 1.0)
    eta = random_graded(rng, M2, 1.0 + 1e-7)
    with pytest.raises(GradingError):
        T(eta)
    assert T(eta, Tolerances(eq_abs=1e-6)).grading == 1.5


def _dense_norms(lapack, algebra):
    """"norm2" for each values-only SVD of one D x D matrix, D = algebra.total_dim
    (the dense norm of ModuleHom(...)'s check), "svd" for each other SVD of D x D matrices.
    No block of the algebra is D x D, so no norm of an element is counted."""
    d = algebra.total_dim
    assert d not in algebra.block_dims
    return ["norm2" if (option, shape) == (False, (1, d, d)) else "svd"
            for option, shape in lapack.of("svd") if shape[-2:] == (d, d)]


def test_module_maps_of_an_element_build_no_dense_matrix(lapack):
    # on (64,) one D x D matrix, D = 4096, would take 256 MiB: the round trip,
    # the norm certificate and T(y) read the 64 x 64 multiplier and witnesses
    M = BlockAlgebra((64,))
    rng = make_rng(27)
    xi, y = random_graded(rng, M, 0.5 + 0.2j), random_element(rng, M)
    lapack.calls.clear()
    tracemalloc.start()
    try:
        T = hom_from_element(xi, 0.5)
        back = hom_to_element(T)
        reported, certified = hom_norm_certificate(T)
        image = T.apply(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert _dense_norms(lapack, M) == []
    assert back.data is xi.data and back.grading == xi.grading
    assert reported - certified <= 1e-10 * reported
    assert distance(image, xi.data @ y) == 0.0


def test_hom_to_element_takes_the_dense_norm_inside_the_bracket(lapack):
    # T = L_xi + c E_01 with xi = 10: r = c and ||T||_2 = (sqrt(c^2 + 400) + c) / 2.
    # Under eq_rel = 0.1 both c lie in the bracket (0.1 (10 - c), 0.1 (10 + c)],
    # and only ||T||_2 separates them: 1.05 <= 0.1 * 10.539 but 1.06 > 0.1 * 10.544
    tol = Tolerances(eq_abs=1e-12, eq_rel=0.1)
    for c, accepted in ((1.05, True), (1.06, False)):
        mat = 10.0 * np.eye(M2.total_dim, dtype=complex)
        mat[0, 1] = c       # column 1 is not read by T(1)
        lapack.calls.clear()
        if accepted:
            T = ModuleHom(M2, 0.5, 0.5, mat, tol)
            assert distance(hom_to_element(T, tol).data, 10.0 * M2.identity()) == 0.0
        else:
            with pytest.raises(NotModuleMapError) as exc:
                ModuleHom(M2, 0.5, 0.5, mat, tol)
            assert exc.value.residual == c
            law = tol.eq_bound(float(np.linalg.norm(mat, 2)))
            assert exc.value.bound == pytest.approx(law, rel=1e-14, abs=0.0)
        assert _dense_norms(lapack, M2) == ["norm2"]


def test_hom_norm_diagonal_witness():
    xi = GradedElement(diag(3, 4), 0.5)
    T = hom_from_element(xi, 0.5)
    assert abs(hom_norm(T) - 5.0) < 1e-10
    reported, certified = hom_norm_certificate(T)
    assert abs(reported - certified) <= 1e-10 * reported


def test_hom_norm_zero():
    T = hom_from_element(GradedElement(M2.zero(), 0.5), 0.5)
    assert hom_norm(T) == 0.0


def test_hom_norm_refuses_a_value_its_witnesses_do_not_reach(monkeypatch):
    T = hom_from_element(GradedElement(diag(3, 4), 0.5), 0.5)
    reported, certified = hom_norm_certificate(T)
    # the witnesses reach 5 to within 1e-10; one that reached only 1 - 1e-7 of
    # it would miss the 1e-8 slack of a real grading difference
    for short in (1e-7, 0.5):
        monkeypatch.setattr(lpspace, "hom_norm_certificate",
                            lambda T, tol, got=certified * (1.0 - short): (reported, got))
        with pytest.raises(NclpError, match="witness certification failed"):
            hom_norm(T)
    monkeypatch.setattr(lpspace, "hom_norm_certificate",
                        lambda T, tol: (reported, certified * (1.0 - 1e-9)))
    assert hom_norm(T) == reported


def test_hom_norm_imaginary_ladder():
    rng = make_rng(19)
    xi = random_graded(rng, M3, 1.1j)
    T = hom_from_element(xi, 0.5)
    reported, certified = hom_norm_certificate(T)
    assert reported - certified <= 1e-6 * reported
    assert abs(hom_norm(T) - operator_norm(xi.data)) < 1e-12


def test_quasinorm_triangle_and_crude_bound():
    rng = make_rng(20)
    for a in (0.5, 1.0, 1.5, complex(1.5, 0.8)):
        a = complex(a)
        xi, eta = random_graded(rng, M3, a), random_graded(rng, M3, a)
        nx, ny, ns = lnorm(xi), lnorm(eta), lnorm(xi + eta)
        r = max(1.0, a.real)
        assert ns ** (1 / r) <= nx ** (1 / r) + ny ** (1 / r) + 1e-9
        if a.real >= 1.0:
            assert ns <= 2.0 ** (a.real - 1.0) * (nx + ny) + 1e-9


def test_grading_adjoint_antihomomorphism():
    rng = make_rng(21)
    xi = random_graded(rng, M2, 0.5 + 0.7j)
    eta = random_graded(rng, M2, 1.0 - 0.1j)
    lhs = gmul(xi, eta).adjoint()
    rhs = gmul(eta.adjoint(), xi.adjoint())
    assert distance(lhs.data, rhs.data) < 1e-13
    assert lhs.grading == (xi.grading + eta.grading).conjugate()


def test_witness_equality_survives_tiny_singular_values():
    # directions far below the support cutoff must not break the equality:
    # the witness is built from one SVD, so the norms telescope
    rng = make_rng(24)
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    v = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    M4 = BlockAlgebra((4,))
    x = Element(M4, [u @ np.diag([1.0, 1e-4, 1e-8, 1e-12]) @ v.conj().T])
    for a, b in [(1 / 3, 1.5), (1.5, 1 / 3), (0.5, 0.5)]:
        xi = GradedElement(x, complex(a))
        y = holder_witness(xi, complex(b))
        rhs = lnorm(xi) * lnorm(y)
        # the product's rounding floor enters at exponent 1/Re(a+b)
        envelope = 10.0 * np.finfo(float).eps ** (1.0 / (a + b)) + 1e-12
        assert abs(lnorm(gmul(xi, y)) - rhs) <= envelope * rhs


def test_quasinorm_noise_floor_amplification_envelope():
    # forming a product introduces a ~1e-16 rounding floor; a quasinorm sum
    # at exponent 1/Re(a+b) amplifies it on exactly rank-deficient inputs.
    # This characterizes the documented envelope rather than hiding it.
    rng = make_rng(25)
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    v = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    M4 = BlockAlgebra((4,))
    x = Element(M4, [u @ np.diag([1.0, 0.3, 0.0, 0.0]) @ v.conj().T])
    xi = GradedElement(x, 1.5)
    y = holder_witness(xi, 1.5)
    rhs = lnorm(xi) * lnorm(y)
    gap = abs(lnorm(gmul(xi, y)) - rhs) / rhs
    assert gap <= 1e-4  # (eps)^(1/3) envelope at Re(a+b) = 3
    xi1 = GradedElement(x, 0.5)
    y1 = holder_witness(xi1, 0.5)
    rhs1 = lnorm(xi1) * lnorm(y1)
    assert abs(lnorm(gmul(xi1, y1)) - rhs1) <= 1e-12 * rhs1


def test_norm_homogeneity_and_orthogonal_pin():
    rng = make_rng(22)
    for a in (0.5, 1.5, complex(1.0, 0.9)):
        a = complex(a)
        xi = random_graded(rng, M2, a)
        lam = complex(1.3, -2.1)
        assert abs(lnorm(lam * xi) - abs(lam) * lnorm(xi)) < 1e-10
        p = GradedElement(e(1, 1), a)
        q = GradedElement(e(2, 2), a)
        assert abs(lnorm(p + q) - 2.0 ** a.real) < 1e-12


def test_lnorm_is_scale_free_across_the_float_range():
    # at Re a = 1/3 the singular values enter cubed: s^3 alone overflows
    # from s ~ 1e103 and underflows below s ~ 1e-103
    rng = make_rng(60)
    x = random_element(rng, BlockAlgebra((2, 3, 1)))
    a = complex(1.0 / 3.0, 0.4)
    base = lnorm(GradedElement(x, a))
    for k in range(-150, 151, 15):
        for phase in (1.0, np.exp(0.7j)):
            c = phase * 10.0 ** k
            got = lnorm(GradedElement(x * c, a))
            assert np.isfinite(got) and got > 0.0
            assert got == pytest.approx(abs(c) * base, rel=1e-12, abs=0.0)
    assert lnorm(GradedElement(x * 0.0, a)) == 0.0


def test_a_norm_past_the_float_range_is_a_typed_error():
    # rank 2 gives the factor 2^(Re a): 2^1e300 is past the float range, and
    # so is 2 * 1e308 at Re a = 1; rank 1 keeps the norm at smax whatever Re a
    one = BlockAlgebra((2,)).identity()
    for x, a in ((one, 1e300), (one * 1e308, 1.0)):
        with pytest.raises(OutOfRangeError, match="^lnorm: .* exceeds the float range$"):
            lnorm(GradedElement(x, a))
    rank_one = Element(BlockAlgebra((2,)), [np.diag([1e308, 0.0])])
    assert lnorm(GradedElement(rank_one, 1e300)) == 1e308


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_power_past_the_float_range_is_a_typed_error():
    # x = diag(1, 2): x^1e300 holds 2^1e300; at grading 1/2, its witness of
    # grading 1e300 holds 2^2e300, and at grading 1e-300 (under eq_abs 1e-305)
    # that of grading 1/2 holds 2^5e299.  comultiply's exponents have real
    # parts within [-1, 1] up to eq_abs, so only a subnormal singular value
    # takes one past the range, at a first factor of real grading -eq_abs
    M = BlockAlgebra((2,))
    x = Element(M, [np.diag([1.0, 2.0])])
    tiny = Tolerances(eq_abs=1e-305)
    edge = Tolerances(eq_abs=1e-300)
    subnormal = Element(M, [np.diag([1.0, 5e-324])])
    overflows = {
        "holder_witness": [lambda: holder_witness(GradedElement(x, 0.5), 1e300),
                           lambda: holder_witness(GradedElement(x, 1e-300, tiny), 0.5, tiny)],
        "power_pos": [lambda: power_pos(x, 1e300)],
        "weight power": [lambda: Weight(x).power(1e300)],
        "comultiply": [lambda: comultiply(GradedElement(subnormal, 1.04e-300, edge),
                                          (-1e-300, 2.04e-300), edge)],
    }
    for what, calls in overflows.items():
        for call in calls:
            with pytest.raises(OutOfRangeError, match=f"^{what}: .* exceeds the float range$"):
                call()
    # the same operations in range: gradings 1e300 and 1e-300 that keep the
    # exponents small, and powers that underflow to 0 or round to 1
    support = np.eye(2)
    fine = [holder_witness(GradedElement(x, 1e300), 0.5).data,
            holder_witness(GradedElement(x, 0.5), 1e-300).data,
            power_pos(x, 1e-300), power_pos(x, -1e300),
            *(f.data for f in comultiply(GradedElement(x, 1e300), (5e299, 5e299))),
            *(f.data for f in comultiply(GradedElement(x, 1e-300, tiny), (0.0, 1e-300), tiny))]
    expected = [support, support, support, np.diag([1.0, 0.0]),
                np.diag([1.0, 2.0 ** 0.5]), np.diag([1.0, 2.0 ** 0.5]), support, x.blocks[0]]
    for y, want in zip(fine, expected, strict=True):
        assert np.allclose(y.blocks[0], want, rtol=1e-15, atol=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_product_past_the_float_range_is_a_typed_error():
    # at scale 1e160, the Gram product x*x of isometry_divide and the image
    # T(y) of hom_norm's Hölder witness (y of the scale of x at grading 1/2)
    # hold entries of about 1e320; at 1e150 they hold about 1e300, and both
    # calls return
    w = polar_right(random_element(make_rng(4), M2)).isometry
    for scale, fails in ((1e160, True), (1e150, False)):
        x = random_element(make_rng(3), M2) * scale
        calls = {"isometry division": lambda: isometry_divide(x, w @ x),
                 "module map": lambda: hom_norm(hom_from_element(GradedElement(x, 0.5), 0.5))}
        if fails:
            for what, call in calls.items():
                with pytest.raises(OutOfRangeError, match=f"^{what}: .* exceeds the float range$"):
                    call()
        else:
            assert distance(calls["isometry division"](), w) < 1e-12
            assert calls["module map"]() == pytest.approx(lnorm(GradedElement(x, 0.5)), rel=1e-12)


MIXED = BlockAlgebra((1, 2, 3, 2, 3, 1))


def test_holder_witness_imaginary_factorizes_once(lapack):
    xi = random_graded(make_rng(61), BlockAlgebra((2,) * 64), 0.7j)
    c = 0.5 * operator_norm(xi.data)
    lapack.calls.clear()
    holder_witness_imaginary(xi, 0.5, c)
    assert lapack.names() == ["svd"]


# On a rank-deficient draw x = r @ p, p = v v* a projection, a singular value
# that is 0 in exact arithmetic comes out at a rounding floor, on each side.
# Forming p and then r @ p leaves at most n^2 u ||r|| each on the null space
# of p (n <= 3): 9 eps ||r|| together.  Each SVD adds its backward error, at
# most 37 eps ||x|| <= 37 eps ||r|| on the kernel (VALUES in test_kernels.py)
# and less on LAPACK: FLOOR = 46 eps ||r||.  A witness or factor raises the
# singular values to an exponent of real part rho and keeps the singular
# vectors, so a floor enters it as at most FLOOR^rho on each side, and the
# two sides differ by at most 2 FLOOR^rho beyond the full-rank bound.  At
# comultiply's second factor, rho = 1/3: README's eps^(1/3) envelope, here
# 2 (46 eps)^(1/3) ~ 4e-5 of ||r||^(1/3).  The imaginary witness keeps no
# singular value below the support cutoff, so it needs no envelope.
FLOOR = 46 * np.finfo(float).eps


@pytest.mark.parametrize("count", [KERNEL_BLOCKS - 1, KERNEL_BLOCKS])
@pytest.mark.parametrize("deficient", [False, True], ids=["full rank", "rank deficient"])
def test_stacked_witnesses_match_per_block_column_selection(deficient, count):
    # the 2 x 2 blocks take LAPACK below KERNEL_BLOCKS and the kernels from it
    M = BlockAlgebra(MIXED.block_dims + (2,) * (count - 2))
    rng = make_rng(62)
    for _ in range(4):
        r = random_element(rng, M)
        x = r @ random_projection(rng, M) if deficient else r
        svds = [np.linalg.svd(blk) for blk in x.blocks]
        smax = max(float(s.max()) for _, s, _ in svds)

        def ref(build, m_of):
            return Element(M, [build(u[:, m], s[m], vh[m])
                               for u, s, vh in svds for m in [m_of(s)]])

        a, b = 0.6 - 0.4j, 0.3 + 0.9j
        e1, e2 = complex(a.real, -b.imag) / (a + b).real, b / (a + b).real
        first, second = comultiply(GradedElement(x, a + b), (a, b))
        # (got, want, rho)
        triples = [
            (holder_witness(GradedElement(x, a), b).data,
             ref(lambda u, s, vh: (vh.conj().T * s ** (b / a.real)) @ vh, lambda s: s > 0.0),
             (b / a.real).real),
            (first.data, ref(lambda u, s, vh: (u * s ** e1) @ vh, lambda s: s > 0.0), e1.real),
            (second.data, ref(lambda u, s, vh: (vh.conj().T * s ** e2) @ vh, lambda s: s > 0.0),
             e2.real),
        ]
        for c in (0.0, 0.4 * smax):
            triples.append((holder_witness_imaginary(GradedElement(x, 0.2j), b, c).data,
                            ref(lambda u, s, vh: vh.conj().T @ u.conj().T,
                                lambda s: (s > DEFAULT_TOL.rank_rel * smax * s.size) & (s >= c)),
                            None))
        for got, want, rho in triples:
            envelope = 2 * (FLOOR * operator_norm(r)) ** rho if deficient and rho else 0.0
            assert distance(got, want) <= DEFAULT_TOL.eq_bound(operator_norm(want)) + envelope
