"""Unit tests for supports, polar decompositions, and division."""

import numpy as np
import pytest

from nclp import (
    DEFAULT_TOL,
    BlockAlgebra,
    ConditionViolatedError,
    Element,
    GradedElement,
    GradingError,
    NonFaithfulError,
    NonFiniteError,
    OutOfRangeError,
    UnsolvableError,
    cyclic_generator,
    distance,
    douglas_divide,
    douglas_ladder,
    func_calc,
    graded_divide,
    isometry_divide,
    left_support,
    operator_norm,
    polar_left,
    polar_right,
    power_pos,
    pseudo_inverse,
    rank1_reduce,
    right_support,
    trace_weight,
)
from nclp.matcore import _first_over
from nclp.sampling import (
    make_rng,
    random_conditioned,
    random_element,
    random_graded,
    random_positive,
    random_projection,
    random_weight,
)

from conftest import unchecked

M2 = BlockAlgebra((2,))


def e(i, j):
    m = np.zeros((2, 2), dtype=complex)
    m[i - 1, j - 1] = 1.0
    return Element(M2, [m])


def diag(*vals):
    return Element(M2, [np.diag(np.asarray(vals, dtype=complex))])


def test_support_examples():
    assert distance(right_support(M2.identity()), M2.identity()) == 0.0
    assert distance(right_support(e(1, 2)), e(2, 2)) < 1e-14
    assert distance(left_support(e(1, 2)), e(1, 1)) < 1e-14
    assert operator_norm(right_support(M2.zero())) == 0.0


def test_left_support_is_right_support_of_adjoint():
    rng = make_rng(0)
    x = random_element(rng, BlockAlgebra((3, 2))) @ random_projection(
        rng, BlockAlgebra((3, 2)))
    assert distance(left_support(x), right_support(x.adjoint())) < 1e-12


def test_polar_matrix_unit():
    pol = polar_right(e(1, 2))
    assert distance(pol.isometry, e(1, 2)) < 1e-14
    assert distance(pol.positive, e(2, 2)) < 1e-14


def test_polar_positive_and_unitary_cases():
    rng = make_rng(1)
    h = random_positive(rng, M2)
    pol = polar_right(h)
    assert distance(pol.positive, h) < 1e-12
    assert distance(pol.isometry, right_support(h)) < 1e-12
    u = polar_right(random_element(rng, M2)).isometry  # generically unitary
    pu = polar_right(u)
    assert distance(pu.isometry, u) < 1e-12
    assert distance(pu.positive, M2.identity()) < 1e-12


def test_polar_laws_random():
    rng = make_rng(2)
    M = BlockAlgebra((3, 1))
    x = random_element(rng, M) @ random_projection(rng, M)
    r, l = polar_right(x), polar_left(x)
    u, z = r.isometry, r.positive
    assert distance(u @ z, x) < 1e-12
    assert distance(l.positive @ l.isometry, x) < 1e-12
    assert distance(l.isometry, u) < 1e-12
    assert distance(u.adjoint() @ u, right_support(x)) < 1e-12
    assert distance(u @ u.adjoint(), left_support(x)) < 1e-12


def test_douglas_scalar_division_on_support():
    result = douglas_divide(diag(1, 0), diag(2, 0))
    assert distance(result.quotient, diag(2, 0)) < 1e-13
    assert abs(result.minimal_c - 2.0) < 1e-13


def test_douglas_disjoint_supports_unsolvable():
    with pytest.raises(UnsolvableError) as err:
        douglas_divide(diag(0, 1), diag(1, 0))
    assert err.value.residual == pytest.approx(1.0)


def test_douglas_unitary_case():
    rng = make_rng(3)
    u = polar_right(random_element(rng, M2)).isometry
    y = random_element(rng, M2)
    result = douglas_divide(u, y)
    assert distance(result.quotient, y @ u.adjoint()) < 1e-12
    assert abs(result.minimal_c - operator_norm(y)) < 1e-12


def test_douglas_uniqueness_canonicalization():
    rng = make_rng(4)
    M = BlockAlgebra((3,))
    p_proj = random_projection(rng, M)
    x = random_element(rng, M) @ p_proj
    y = random_element(rng, M) @ x
    p = douglas_divide(x, y).quotient
    w = random_element(rng, M)
    other = p + w @ (M.identity() - left_support(x))
    assert distance(other @ x, y) < 1e-11
    assert distance(other @ left_support(x), p) < 1e-11


def test_douglas_supports():
    rng = make_rng(5)
    M = BlockAlgebra((3,))
    x = random_element(rng, M) @ random_projection(rng, M)
    y = random_element(rng, M) @ x
    p = douglas_divide(x, y).quotient
    assert distance(p @ left_support(x), p) < 1e-12
    assert distance(left_support(p), left_support(y)) < 1e-11


def test_douglas_ladder_monotone_convergence():
    rng = make_rng(6)
    M = BlockAlgebra((3,))
    x = random_element(rng, M)
    y = random_element(rng, M) @ x
    ladder = douglas_ladder(x, y)
    gaps = [g for _, g in ladder]
    assert all(gaps[k + 1] <= gaps[k] + 1e-12 for k in range(len(gaps) - 1))
    assert gaps[-1] < 1e-10


def _reference_ladder(x, y, epsilons, tol=DEFAULT_TOL):
    """The ladder as first written: one func_calc and one norm per rung."""
    exact = douglas_divide(x, y, tol).quotient
    pol = polar_right(x, tol)

    def clipped_inverse(eps):   # f_eps(t) = 1/t for t >= eps, 0 below
        return lambda w: np.divide(1.0, w, out=np.zeros_like(w), where=(w >= eps) & (w > 0.0))

    return [(float(eps), operator_norm(
                y @ func_calc(pol.positive, clipped_inverse(eps), tol)
                @ pol.isometry.adjoint() - exact))
            for eps in epsilons]


def _ladder_instance(seed, dims):
    rng = make_rng(seed)
    M = BlockAlgebra(dims)
    x = random_conditioned(rng, M, DEFAULT_TOL)
    return x, random_element(rng, M) @ x


@pytest.mark.parametrize("dims", [(3,), (1, 2, 3, 2, 3, 1), (2,) * 16, (5, 5)])
def test_closed_form_ladder_agrees_with_func_calc_ladder(dims):
    for seed in range(4):
        x, y = _ladder_instance(40 + seed, dims)
        smax = operator_norm(x)
        # off the singular values: at eps = s_i exactly the old ladder's
        # verdict hung on the rounding of an eigenvalue against eps
        epsilons = [1.5 * smax * 2.0 ** (-k) for k in range(14)]
        bound = DEFAULT_TOL.eq_bound(operator_norm(y) + 1.0)
        for (e1, g1), (e2, g2) in zip(douglas_ladder(x, y, epsilons),
                                      _reference_ladder(x, y, epsilons)):
            assert e1 == e2 and abs(g1 - g2) <= bound


def _rotated(seed, d):
    """(x, y) on one block: x = w diag(d) v for random unitaries w, v; y = r x."""
    rng = make_rng(seed)
    M = BlockAlgebra((len(d),))
    w = polar_right(random_element(rng, M)).isometry
    v = polar_right(random_element(rng, M)).isometry
    x = w @ Element(M, [np.diag(d)]) @ v
    return x, random_element(rng, M) @ x


LADDER_EDGES = {
    "64 full rank": (_rotated(80, np.geomspace(4.0, 0.05, 64)), None),
    "64 rank deficient": (_rotated(81, np.r_[np.geomspace(4.0, 0.05, 44), np.zeros(20)]), None),
    "64 rank 0": ((BlockAlgebra((64,)).zero(), BlockAlgebra((64,)).zero()), [4.0, 1.0, 0.25]),
    "3,1,2,1,3": (_ladder_instance(82, (3, 1, 2, 1, 3)), None),
    # eps at each singular value of a diagonal x: no rounding moves the verdict
    "at a singular value": ((Element(BlockAlgebra((3,)), [np.diag([4.0, 2.0, 1.0])]),
                             Element(BlockAlgebra((3,)), [np.array([[4.0, 4.0, 0.0],
                                                                    [0.0, 2.0, 3.0],
                                                                    [4.0, 0.0, 1.0]])])),
                            [8.0, 4.0, 3.0, 2.0, 1.5, 1.0, 0.5]),
    "unsorted and repeated": (_ladder_instance(86, (3, 1, 2, 1, 3)),
                              [0.5, 6.0, 0.5, 0.1, 2.0, 6.0, 0.1, 1.0, 3.0]),
}


@pytest.mark.parametrize("case", sorted(LADDER_EDGES))
def test_ladder_agrees_with_func_calc_ladder_at_the_edges(case):
    (x, y), epsilons = LADDER_EDGES[case]
    if epsilons is None:   # between the singular values, as above
        epsilons = [1.5 * operator_norm(x) * 2.0 ** (-k) for k in range(14)]
    bound = DEFAULT_TOL.eq_bound(operator_norm(y) + 1.0)
    ladder = douglas_ladder(x, y, epsilons)
    assert [e for e, _ in ladder] == [float(e) for e in epsilons]
    for (_, g1), (_, g2) in zip(ladder, _reference_ladder(x, y, epsilons)):
        assert abs(g1 - g2) <= bound
    if case == "64 rank 0":
        assert [g for _, g in ladder] == [0.0] * 3


@pytest.mark.parametrize("epsilons", [[1.0, np.nan], [np.nan], np.array([0.5, np.nan, 0.1])],
                         ids=["last", "only", "array"])
def test_douglas_ladder_refuses_a_nan_epsilon(epsilons):
    x = diag(2.0, 1.0)
    with pytest.raises(NonFiniteError, match="epsilons"):
        douglas_ladder(x, e(1, 2) @ x, epsilons)
    ladder = douglas_ladder(x, e(1, 2) @ x, [np.inf, 1.5, 0.5])
    assert ladder[0][1] == operator_norm(e(1, 2)) and ladder[-1] == (0.5, 0.0)


def test_ladder_rung_at_a_singular_value_inverts_it():
    x = Element(BlockAlgebra((3,)), [np.diag([4.0, 2.0, 1.0])])
    gaps = [g for _, g in douglas_ladder(x, x)]
    assert gaps[:4] == pytest.approx([1.0, 1.0, 0.0, 0.0], abs=1e-15)
    assert gaps[2:] == [0.0] * 24


def _rung_pairs(x, epsilons, tol=DEFAULT_TOL):
    """{(block, first live column, end)} over the rungs, from one SVD per block.

    At eps the live columns of a block are its kept singular values below
    eps: from the first s_i < eps up to end, the number of kept ones.
    """
    pairs = set()
    for j, (_, s, _, keep) in enumerate(_reference_svd_support(x, tol)):
        end = int(keep.sum())
        for eps in epsilons:
            first = next((i for i, v in enumerate(s) if v < eps), len(s))
            if first < end:
                pairs.add((j, first, end))
    return pairs


def test_douglas_ladder_factorizes_once_per_size_class(lapack):
    # one SVD of x, then one values-only SVD per distinct rung width, each
    # on exactly the live columns of every (block, first column) pair of
    # that width; the solvability check is decided by entry brackets
    instances = [_ladder_instance(50, (2,) * 8), _ladder_instance(51, (2,) * 64),
                 _ladder_instance(52, (2,) * 64), _ladder_instance(53, (64,))]
    ladders = [None, None, np.geomspace(8.0, 1e-9, 200), None]
    counts = []
    lapack.forbid("eigh", "eigvalsh")
    for (x, y), epsilons in zip(instances, ladders):
        rungs = [e for e, _ in douglas_ladder(x, y, epsilons)]
        pairs = _rung_pairs(x, rungs)
        widths = sorted({end - first for _, first, end in pairs})
        n = x.algebra.block_dims[0]
        lapack.reset()
        douglas_ladder(x, y, epsilons)
        seen = lapack.of("svd")
        assert seen[0] == (True, x.stacks[0].shape)
        assert [(uv, shape[1:]) for uv, shape in seen[1:]] == [(False, (n, w)) for w in widths]
        assert sum(shape[0] for _, shape in seen[1:]) == len(pairs)
        counts.append(len(widths))
    assert counts[1] == 2 and counts[3] > 2   # (2,) blocks: widths 1 and 2


def test_isometry_divide_examples():
    rng = make_rng(7)
    x = random_element(rng, M2)
    p = isometry_divide(x, x)
    assert distance(p, left_support(x)) < 1e-12
    q = isometry_divide(Element(M2, [np.diag([1.0, 0.0])]), e(2, 1))
    assert distance(q, e(2, 1)) < 1e-13


def test_isometry_divide_recovers_polar_isometry():
    rng = make_rng(8)
    M = BlockAlgebra((3,))
    x = random_element(rng, M)
    pol = polar_right(x)
    assert distance(isometry_divide(pol.positive, x), pol.isometry) < 1e-11


def test_isometry_divide_rejects_mismatched_grams():
    rng = make_rng(9)
    x = random_element(rng, M2)
    with pytest.raises(ConditionViolatedError):
        isometry_divide(x, 2.0 * x)


def test_isometry_divide_refuses_a_gram_check_it_cannot_decide():
    # y*y is inf, so x*x - y*y has no finite norm: the check raises, never passes
    M1 = BlockAlgebra((1,))
    x = Element(M1, [np.array([[2.0]])])
    with pytest.raises(NonFiniteError, match="^operator norm: "), np.errstate(invalid="ignore"):
        isometry_divide(x, unchecked(M1, [np.array([[np.inf]])]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dims", [(2,), (3, 1), (2,) * 32], ids=str)
def test_a_subnormal_singular_value_has_no_finite_inverse(dims):
    # at scale 1e-310 some kept singular value is subnormal and 1/s overflows;
    # at 1e-300 every inverse is finite
    M = BlockAlgebra(dims)
    rng = make_rng(11)
    for scale, fails in ((1e-310, True), (1e-300, False)):
        x = random_element(rng, M) * scale
        y = random_element(rng, M) @ x
        calls = (lambda: pseudo_inverse(x).stacks,
                 lambda: douglas_divide(x, y).quotient.stacks,
                 lambda: graded_divide(GradedElement(x, 0.5), GradedElement(y, 0.5)).data.stacks,
                 lambda: [gap for _, gap in douglas_ladder(x, y)])
        for call in calls:
            if fails:
                with pytest.raises(OutOfRangeError, match="^pseudo-inverse: .* float range$"):
                    call()
            else:
                assert all(np.isfinite(f).all() for f in call())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_quotient_past_the_float_range_is_out_of_range():
    # finite x = diag(1e-200, 2e-200) and y = diag(1e200, 1e200): the quotient
    # y @ pinv(x) and the Gram matrix y* y are 1e400, refused where they are formed
    x = Element(M2, [np.diag([1e-200, 2e-200])])
    y = Element(M2, [np.diag([1e200, 1e200])])
    division = "^division: the quotient y @ pinv\\(x\\) or its remainder exceeds the float range$"
    for call in (lambda: douglas_divide(x, y), lambda: douglas_ladder(x, y),
                 lambda: graded_divide(GradedElement(x, 0.5), GradedElement(y, 0.5))):
        with pytest.raises(OutOfRangeError, match=division):
            call()
    with pytest.raises(OutOfRangeError, match="^cyclic generator: the Gram matrix .* float range$"):
        cyclic_generator([GradedElement(y, 0.5)], trace_weight(M2))


def test_cyclic_generator_single_real_grading():
    rng = make_rng(10)
    u = random_graded(rng, M2, 0.5)
    y, qs, cert = cyclic_generator([u], trace_weight(M2))
    absval = power_pos(u.data.adjoint() @ u.data, 0.5)
    assert distance(y.data, absval) < 1e-12
    assert distance(qs[0], polar_right(u.data).isometry) < 1e-11
    assert distance(cert[0] @ u.data, y.data) < 1e-11


def test_cyclic_generator_matrix_units():
    u1 = GradedElement(e(1, 1), 0.0)
    u2 = GradedElement(e(1, 2), 0.0)
    y, qs, cert = cyclic_generator([u1, u2], trace_weight(M2))
    assert distance(y.data, M2.identity()) < 1e-12
    assert distance(qs[0], e(1, 1)) < 1e-12
    assert distance(qs[1], e(1, 2)) < 1e-12
    rebuilt = cert[0] @ u1.data + cert[1] @ u2.data
    assert distance(rebuilt, M2.identity()) < 1e-11


def test_cyclic_generator_proportional_pair():
    rng = make_rng(11)
    u = random_graded(rng, M2, 1.0)
    y, qs, _ = cyclic_generator([u, 2.0 * u], trace_weight(M2))
    expected = power_pos(5.0 * (u.data.adjoint() @ u.data), 0.5)
    assert distance(y.data, expected) < 1e-11
    assert distance(qs[0] @ y.data, u.data) < 1e-11
    assert distance(qs[1] @ y.data, 2.0 * u.data) < 1e-11


def test_cyclic_generator_errors():
    rng = make_rng(12)
    with pytest.raises(ValueError):
        cyclic_generator([], trace_weight(M2))
    mixed = [random_graded(rng, M2, 0.5), random_graded(rng, M2, 1.0)]
    with pytest.raises(GradingError):
        cyclic_generator(mixed, trace_weight(M2))
    from nclp import Weight
    nonfaithful = Weight(diag(1, 0))
    with pytest.raises(NonFaithfulError):
        cyclic_generator([random_graded(rng, M2, 0.5)], nonfaithful)


def test_cyclic_generator_weight_independence_of_submodule_facts():
    rng = make_rng(13)
    M = BlockAlgebra((2, 2))
    gens = [random_graded(rng, M, 0.5 + 0.9j) for _ in range(3)]
    for mu in (random_weight(rng, M), random_weight(rng, M)):
        y, qs, cert = cyclic_generator(gens, mu)
        for g, q in zip(gens, qs):
            assert distance(q @ y.data, g.data) < 1e-10
        rebuilt = M.zero()
        for c, g in zip(cert, gens):
            rebuilt = rebuilt + c @ g.data
        assert distance(rebuilt, y.data) < 1e-10


def _reference_certificate(gens, y):
    """The membership certificate from an amplification, built as it once was.

    In the m-fold amplification, the isometry quotient taking the column
    [u_1 ... u_m] to y in the corner has first row [cert_1 ... cert_m].
    """
    M, m = y.algebra, len(gens)

    def place(entries):
        blocks = []
        for k, n in enumerate(M.block_dims):
            out = np.zeros((n * m, n * m), dtype=complex)
            for (i, j), el in entries:
                out[i * n:(i + 1) * n, j * n:(j + 1) * n] = el.blocks[k]
            blocks.append(out)
        return Element(BlockAlgebra(tuple(n * m for n in M.block_dims)), blocks)

    big = isometry_divide(place([((i, 0), g.data) for i, g in enumerate(gens)]),
                          place([((0, 0), y)]))
    return [Element(M, [b[:n, i * n:(i + 1) * n] for b, n in zip(big.blocks, M.block_dims)])
            for i in range(m)]


def test_closed_form_certificate_matches_the_amplified_one():
    rng = make_rng(61)
    for trial in range(40):
        M = BlockAlgebra(((1,), (2,), (1, 1), (3,), (2, 2))[int(rng.integers(0, 5))])
        a = complex((0.0, 1 / 3, 0.5, 1.0, 1.5)[int(rng.integers(0, 5))],
                    float(rng.uniform(-2.0, 2.0)))
        p = random_projection(rng, M) if trial % 2 else M.identity()   # a common kernel
        gens = [GradedElement(random_element(rng, M) @ p, a)
                for _ in range(int(rng.integers(1, 5)))]
        y, qs, cert = cyclic_generator(gens, random_weight(rng, M))
        scale = max(operator_norm(g.data) for g in gens) + 1.0
        for got, want in zip(cert, _reference_certificate(gens, y.data)):
            assert distance(got, want) <= DEFAULT_TOL.eq_bound(scale)
        row = M.zero()
        for q in qs:
            row = row + q.adjoint() @ q
        assert distance(row, left_support(y.data)) <= DEFAULT_TOL.eq_bound(1.0)


def _gram_pinv(gens, mu):
    """G^(-1/2) h^(-i Im a), the pseudo-inverse of the cyclic generator."""
    gram = gens[0].algebra.zero()
    for g in gens:
        gram = gram + g.data.adjoint() @ g.data
    return power_pos(gram, -0.5) @ mu.power(complex(0.0, -gens[0].grading.imag))


def test_cyclic_generator_decides_every_division_in_one_norm_call(lapack):
    # one eigh for G^(1/2) and G^(-1/2), none for mu's density, which mu
    # keeps, and no factorization of y; the entry brackets accept every
    # division, so no values-only SVD
    rng = make_rng(62)
    M = BlockAlgebra((2,) * 8)
    gens = [random_graded(rng, M, 0.5 + 0.3j) for _ in range(2)]
    mu = random_weight(rng, M)
    lapack.reset()
    y, qs, _ = cyclic_generator(gens, mu)
    assert lapack.names() == ["eigh"]
    pinv = _gram_pinv(gens, mu)
    for g, q in zip(gens, qs):   # u_i y^+, bit for bit
        assert all(np.array_equal(a, b) for a, b in zip(q.stacks, (g.data @ pinv).stacks))
        divided = douglas_divide(y.data, g.data).quotient
        assert distance(q, divided) <= DEFAULT_TOL.eq_bound(operator_norm(divided))


def test_cyclic_generator_takes_no_svd_when_the_weight_is_warm(lapack):
    rng = make_rng(64)
    for dims in ((2,), (3, 1), (64,)):
        M = BlockAlgebra(dims)
        gens = [random_graded(rng, M, 1.0 - 0.4j) for _ in range(3)]
        mu = random_weight(rng, M)   # a weight keeps its eigensystem
        lapack.reset()
        cyclic_generator(gens, mu)
        assert lapack.names() == ["eigh"] * len(M.classes)   # G's alone, one per size class


def test_failing_cyclic_generator_decides_on_its_first_generator(lapack):
    # every block of u keeps a direction at 1e-6 that G^(1/2) drops, so the
    # brackets leave the first division open, and one values-only SVD each of
    # its remainder and its generator decides, raising with the exact residual
    rng = make_rng(63)
    M = BlockAlgebra((2,) * 8)
    v = polar_right(random_element(rng, M)).isometry
    gens = []
    for scale in (1.0, 0.5):
        w = polar_right(random_element(rng, M)).isometry
        d = Element(M, [np.diag([scale, 1e-6])] * 8)
        gens.append(GradedElement(w @ d @ v, 0.5 + 0.3j))
    mu = random_weight(rng, M)
    lapack.reset()
    with pytest.raises(UnsolvableError) as exc:
        cyclic_generator(gens, mu)
    assert lapack.calls == [("eigh", None, (8, 2, 2))] + [("svd", False, (8, 2, 2))] * 2
    y_mat = mu.power(0.3j) @ power_pos(
        gens[0].data.adjoint() @ gens[0].data + gens[1].data.adjoint() @ gens[1].data, 0.5)
    u = gens[0].data
    assert exc.value.residual == operator_norm(u - u @ _gram_pinv(gens, mu) @ y_mat)
    assert exc.value.residual == pytest.approx(1e-6, rel=1e-6)
    assert str(exc.value) == f"no c satisfies c^2 x*x >= y*y: residual {exc.value.residual:.3e}"
    with pytest.raises(UnsolvableError) as divided:
        douglas_divide(y_mat, u)
    assert abs(exc.value.residual - divided.value.residual) <= DEFAULT_TOL.eq_bound(operator_norm(u))


def test_cyclic_generator_reports_a_direction_below_the_support_cutoff():
    # G = u*u has eigenvalues 1 and 1e-12, below the cutoff of G^(1/2), so
    # y loses the direction that u keeps at 1e-6 and u = q y has no solution
    u = GradedElement(Element(M2, [np.diag([1.0, 1e-6])]), 0.5)
    with pytest.raises(UnsolvableError) as exc:
        cyclic_generator([u], trace_weight(M2))
    assert exc.value.residual == pytest.approx(1e-6, rel=1e-6)


def test_rank1_reduce_requires_a_pair():
    with pytest.raises(ValueError, match="at least one pair"):
        rank1_reduce([], trace_weight(M2))
    with pytest.raises(ValueError, match="at least one pair"):
        rank1_reduce(iter(()), trace_weight(M2))


def test_rank1_matrix_units():
    pairs = [(GradedElement(e(1, 1), 0.0), GradedElement(e(1, 1), 0.0)),
             (GradedElement(e(1, 2), 0.0), GradedElement(e(2, 1), 0.0))]
    x, y = rank1_reduce(pairs, trace_weight(M2))
    assert distance(x.data @ y.data, 2.0 * e(1, 1)) < 1e-12


def test_rank1_zero_right_factors():
    rng = make_rng(14)
    pairs = [(random_graded(rng, M2, 1.0), GradedElement(M2.zero(), 0.5))
             for _ in range(2)]
    x, y = rank1_reduce(pairs, trace_weight(M2))
    assert operator_norm(y.data) == 0.0
    assert operator_norm(x.data @ y.data) == 0.0


def test_graded_divide_grading_bookkeeping():
    rng = make_rng(15)
    x = random_graded(rng, M2, 0.5 + 0.3j)
    q = random_element(rng, M2)
    y = GradedElement(q @ x.data, 0.5 - 0.9j)
    out = graded_divide(x, y)
    assert out.grading == y.grading - x.grading
    assert distance(out.data @ x.data, y.data) < 1e-11


def test_graded_divide_rejects_real_part_mismatch():
    rng = make_rng(16)
    x = random_graded(rng, M2, 0.5)
    y = random_graded(rng, M2, 1.0)
    with pytest.raises(GradingError):
        graded_divide(x, y)
    zero = graded_divide(x, GradedElement(M2.zero(), 1.0))
    assert operator_norm(zero.data) == 0.0
    assert zero.grading.real >= 0.0
    # the grading is checked before solvability
    singular = GradedElement(Element(M2, [np.diag([1.0, 0.0])]), 0.5)
    with pytest.raises(GradingError):
        graded_divide(singular, GradedElement(e(2, 2), 1.0))
    with pytest.raises(UnsolvableError):
        graded_divide(singular, GradedElement(e(2, 2), 0.5))


def test_graded_divide_takes_the_norm_of_y_once(lapack):
    # across real parts only ||y|| is needed; otherwise one full SVD of x,
    # and the entry brackets decide solvability, even for y = 0, so the one
    # values-only SVD is that of ||y||
    rng = make_rng(17)
    M = BlockAlgebra((2,) * 8)
    x = random_graded(rng, M, 0.5 + 0.3j)
    y = GradedElement(random_element(rng, M) @ x.data, 0.5 - 0.9j)
    divide = ["svd", "svdvals"]
    norms = ["svdvals"]
    for target, expected, again in ((y, divide, []),
                                    (GradedElement(M.zero(), 0.5), divide, []),
                                    (GradedElement(M.zero(), 1.5), norms, [])):
        lapack.reset()
        graded_divide(x, target)
        assert lapack.names() == expected
        # again on the same x and y: x's SVD comes from the cache, and y
        # keeps its singular values
        lapack.calls.clear()
        graded_divide(x, target)
        assert lapack.names() == again
    for data, expected in ((Element(M, y.data.blocks), ["svdvals"]), (y.data, [])):
        lapack.calls.clear()
        with pytest.raises(GradingError):
            graded_divide(x, GradedElement(data, 1.5))
        assert lapack.names() == expected


def _undecided_division():
    """(x, y) on one 64 x 64 block, solvable, whose entry brackets decide nothing.

    x drops 8 directions; y = r x plus 3e-11 in those directions, so its
    remainder is far inside the exact bound but 64 times its largest entry is not.
    """
    rng = make_rng(71)
    M = BlockAlgebra((64,))
    v = polar_right(random_element(rng, M)).isometry
    w = polar_right(random_element(rng, M)).isometry
    d = np.r_[np.geomspace(1.0, 1e-3, 56), np.zeros(8)]
    x = w @ Element(M, [np.diag(d)]) @ v
    kernel = v.adjoint() @ Element(M, [np.diag((d == 0.0).astype(float))]) @ v
    return x, random_element(rng, M) @ x + 3e-11 * (random_element(rng, M) @ kernel)


def test_undecided_division_reports_the_exact_figures(lapack):
    # the verdict takes the norms of the remainder and y, one values-only SVD
    # each, and both elements keep them: douglas_divide reads the remainder's
    # again and takes only that of the quotient, and graded_divide on the
    # same y takes only that of its own remainder
    x, y = _undecided_division()

    def seen():
        return [(shape[0], uv) for uv, shape in lapack.of("svd")]

    lapack.reset()
    result = douglas_divide(x, y)
    assert seen() == [(1, True), (1, False), (1, False), (1, False)]   # x; remainder; y; p
    lapack.calls.clear()
    quotient = graded_divide(GradedElement(x, 0.5), GradedElement(y, 0.5 + 0.2j))
    assert seen() == [(1, False)]   # its remainder; x's SVD is cached, y keeps its norm
    # the reported figures are the norms of the remainder and the quotient,
    # bit for bit
    p = y @ pseudo_inverse(x)
    rem = y - p @ x
    assert rem.stacks[0].tobytes() == (y - result.quotient @ x).stacks[0].tobytes()
    assert (result.residual, result.minimal_c) == (operator_norm(rem), operator_norm(p))
    assert result.residual > 0.0
    assert p.stacks[0].tobytes() == result.quotient.stacks[0].tobytes()
    assert p.stacks[0].tobytes() == quotient.data.stacks[0].tobytes()
    # open checks that share elements take each norm once
    rem, y = (Element(e.algebra, e.blocks) for e in (rem, y))
    lapack.calls.clear()
    assert _first_over([(rem, (y,)), (rem, (y, y))], DEFAULT_TOL) is None
    assert seen() == [(1, False), (1, False)]   # remainder; y


MIXED = BlockAlgebra((1, 2, 3, 2, 3, 1))


def _reference_svd_support(x, tol=DEFAULT_TOL):
    """Per-block (u, s, vh, m), one SVD per block, m the kept singular values."""
    svds = [np.linalg.svd(b) for b in x.blocks]
    smax = max(float(s.max()) for _, s, _ in svds)
    return [(u, s, vh, s > tol.rank_rel * smax * s.size) for u, s, vh in svds]


def test_stacked_rebuilds_match_per_block_column_selection():
    rng = make_rng(60)
    for _ in range(4):
        x = random_element(rng, MIXED) @ random_projection(rng, MIXED)
        svd = _reference_svd_support(x)

        def ref(build):
            return Element(MIXED, [build(u[:, m], s[m], vh[m]) for u, s, vh, m in svd])

        pol_r, pol_l = polar_right(x), polar_left(x)
        pairs = [
            (right_support(x), ref(lambda u, s, vh: vh.conj().T @ vh)),
            (left_support(x), ref(lambda u, s, vh: u @ u.conj().T)),
            (pseudo_inverse(x), ref(lambda u, s, vh: (vh.conj().T / s) @ u.conj().T)),
            (pol_r.isometry, ref(lambda u, s, vh: u @ vh)),
            (pol_r.positive, ref(lambda u, s, vh: (vh.conj().T * s) @ vh)),
            (pol_l.isometry, ref(lambda u, s, vh: u @ vh)),
            (pol_l.positive, ref(lambda u, s, vh: (u * s) @ u.conj().T)),
        ]
        for got, want in pairs:
            assert distance(got, want) <= DEFAULT_TOL.eq_bound(operator_norm(want))
