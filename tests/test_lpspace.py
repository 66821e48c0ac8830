"""Unit tests for graded norms, witnesses, tensors, and homs."""

import tracemalloc

import numpy as np
import pytest

from nclp import (
    DEFAULT_TOL,
    BlockAlgebra,
    GradedElement,
    GradingError,
    ModuleHom,
    NclpError,
    NonFiniteError,
    NotModuleMapError,
    TensorElement,
    Tolerances,
    comultiply,
    distance,
    flatten_element,
    gmul,
    holder_witness,
    holder_witness_imaginary,
    hom_from_element,
    hom_norm,
    hom_norm_certificate,
    hom_to_element,
    lnorm,
    make_element,
    operator_norm,
    tensor_multiply,
    turpin_upper,
)
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
    return make_element(M2, [m])


def diag(*vals):
    return make_element(M2, [np.diag(np.asarray(vals, dtype=complex))])


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
    bad = ModuleHom(M2, 0.5, 1.0,
                    rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    with pytest.raises(NotModuleMapError):
        hom_to_element(bad)


@pytest.mark.parametrize("dims, entry", [((3,), (1, 5)), ((2, 2), (4, 4))])
def test_hom_to_element_single_entry_perturbation(dims, entry):
    M = BlockAlgebra(dims)
    rng = make_rng(24)
    xi = random_graded(rng, M, 0.5 + 0.2j)
    T = hom_from_element(xi, 0.5)
    # the Kronecker form is exactly the matrix of x -> xi @ x, column by column
    assert np.array_equal(T.matrix, np.stack(
        [flatten_element(xi.data @ e) for e in M.basis()], axis=1))
    for eps, rejected in ((1e-6, True), (1e-14, False)):
        mat = np.array(T.matrix)
        mat[entry] += eps
        moved = ModuleHom(M, T.grading_in, T.grading_out, mat)
        if not rejected:
            hom_to_element(moved)
            continue
        with pytest.raises(NotModuleMapError) as exc:
            hom_to_element(moved)
        unit = moved.apply(M.identity())
        # left multiplication by T(1), one flattened basis image per column
        multiply = np.stack([flatten_element(unit @ e) for e in M.basis()], axis=1)
        assert exc.value.residual == np.linalg.norm(mat - multiply)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_module_hom_rejects_non_finite_matrices(bad):
    mat = np.eye(M2.total_dim, dtype=complex)
    mat[1, 2] = bad
    with pytest.raises(NonFiniteError):
        ModuleHom(M2, 0.5, 0.5, mat)


def test_hom_from_element_owns_its_matrix():
    # the D x D matrix (1 MiB at (16,)) is built once and not copied again
    M = BlockAlgebra((16,))
    xi = random_graded(make_rng(28), M, 0.5)
    tracemalloc.start()
    try:
        T = hom_from_element(xi, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert T.matrix.nbytes == 2 ** 20
    assert peak < 1.5 * 2 ** 20
    assert not T.matrix.flags.writeable
    with pytest.raises(ValueError):
        T.matrix[0, 0] = 5.0


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


def test_hom_call_grading_check_reads_the_tolerance():
    rng = make_rng(26)
    T = hom_from_element(random_graded(rng, M2, 0.5), 1.0)
    eta = random_graded(rng, M2, 1.0 + 1e-7)
    with pytest.raises(GradingError):
        T(eta)
    assert T(eta, Tolerances(eq_abs=1e-6)).grading == 1.5


def _count_dense_norms(monkeypatch, d):
    """Record every norm(., 2) and every SVD of a d x d matrix."""
    calls = []
    real_norm, real_svd = np.linalg.norm, np.linalg.svd

    def norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append("norm2")
        return real_norm(x, ord, *args, **kwargs)

    def svd(a, *args, **kwargs):
        if np.shape(a)[-2:] == (d, d):
            calls.append("svd")
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", norm)
    monkeypatch.setattr(np.linalg, "svd", svd)
    return calls


def test_hom_to_element_brackets_the_norm_of_a_module_map(monkeypatch):
    M = BlockAlgebra((16,))
    xi = random_graded(make_rng(27), M, 0.5 + 0.2j)
    T = hom_from_element(xi, 0.5)
    calls = _count_dense_norms(monkeypatch, M.total_dim)
    back = hom_to_element(T)
    assert calls == []
    assert distance(back.data, xi.data) <= 1e-10 * (1 + operator_norm(xi.data))


def test_hom_to_element_takes_the_dense_norm_inside_the_bracket(monkeypatch):
    # T = L_xi + c E_01 with xi = 10: r = c and ||T||_2 = (sqrt(c^2 + 400) + c) / 2.
    # Under eq_rel = 0.1 both c lie in the bracket (0.1 (10 - c), 0.1 (10 + c)],
    # and only ||T||_2 separates them: 1.05 <= 0.1 * 10.539 but 1.06 > 0.1 * 10.544
    tol = Tolerances(eq_abs=1e-12, eq_rel=0.1)
    calls = _count_dense_norms(monkeypatch, M2.total_dim)
    for c, accepted in ((1.05, True), (1.06, False)):
        mat = 10.0 * np.eye(M2.total_dim, dtype=complex)
        mat[0, 1] = c       # column 1 is not read by T(1)
        T = ModuleHom(M2, 0.5, 0.5, mat)
        calls.clear()
        if accepted:
            assert distance(hom_to_element(T, tol).data, 10.0 * M2.identity()) == 0.0
        else:
            with pytest.raises(NotModuleMapError) as exc:
                hom_to_element(T, tol)
            assert exc.value.residual == c
        assert calls == ["norm2"]


def test_hom_norm_diagonal_witness():
    xi = GradedElement(diag(3, 4), 0.5)
    T = hom_from_element(xi, 0.5)
    assert abs(hom_norm(T) - 5.0) < 1e-10
    reported, certified = hom_norm_certificate(T)
    assert abs(reported - certified) <= 1e-10 * reported


def test_hom_norm_zero():
    T = hom_from_element(GradedElement(M2.zero(), 0.5), 0.5)
    assert hom_norm(T) == 0.0


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
    x = make_element(M4, [u @ np.diag([1.0, 1e-4, 1e-8, 1e-12]) @ v.conj().T])
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
    x = make_element(M4, [u @ np.diag([1.0, 0.3, 0.0, 0.0]) @ v.conj().T])
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


MIXED = BlockAlgebra((1, 2, 3, 2, 3, 1))


def test_holder_witness_imaginary_factorizes_once(monkeypatch):
    xi = random_graded(make_rng(61), BlockAlgebra((2,) * 64), 0.7j)
    c = 0.5 * operator_norm(xi.data)
    calls = []
    for name in ("svd", "eigh", "eigvalsh", "norm"):
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append((_name, kwargs.get("compute_uv", True)))
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    holder_witness_imaginary(xi, 0.5, c)
    assert calls == [("svd", True)]


def test_stacked_witnesses_match_per_block_column_selection():
    rng = make_rng(62)
    for _ in range(4):
        x = random_element(rng, MIXED) @ random_projection(rng, MIXED)
        svds = [np.linalg.svd(blk) for blk in x.blocks]
        smax = max(float(s.max()) for _, s, _ in svds)

        def ref(build, m_of):
            return make_element(MIXED, [build(u[:, m], s[m], vh[m])
                                        for u, s, vh in svds for m in [m_of(s)]])

        a, b = 0.6 - 0.4j, 0.3 + 0.9j
        e1, e2 = complex(a.real, -b.imag) / (a + b).real, b / (a + b).real
        first, second = comultiply(GradedElement(x, a + b), (a, b))
        pairs = [
            (holder_witness(GradedElement(x, a), b).data,
             ref(lambda u, s, vh: (vh.conj().T * s ** (b / a.real)) @ vh, lambda s: s > 0.0)),
            (first.data, ref(lambda u, s, vh: (u * s ** e1) @ vh, lambda s: s > 0.0)),
            (second.data, ref(lambda u, s, vh: (vh.conj().T * s ** e2) @ vh, lambda s: s > 0.0)),
        ]
        for c in (0.0, 0.4 * smax):
            pairs.append((holder_witness_imaginary(GradedElement(x, 0.2j), b, c).data,
                          ref(lambda u, s, vh: vh.conj().T @ u.conj().T,
                              lambda s: (s > DEFAULT_TOL.rank_rel * smax * s.size) & (s >= c))))
        for got, want in pairs:
            assert distance(got, want) <= DEFAULT_TOL.eq_bound(operator_norm(want))
