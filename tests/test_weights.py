"""Unit tests for weights, modular flows, cocycles, and pushforwards."""

import copy as copy_module
import pickle

import numpy as np
import pytest

from nclp import (
    DEFAULT_TOL,
    BlockAlgebra,
    BlockEmbedding,
    GradingError,
    Element,
    GradedElement,
    NonFaithfulError,
    NonFiniteError,
    NotPositiveError,
    OperatorValuedWeight,
    Tolerances,
    ToleranceReport,
    ValidationError,
    Weight,
    change_of_weight,
    cocycle_identity_check,
    connes_cocycle,
    cyclic_generator,
    distance,
    evaluate,
    left_support,
    modular_automorphism,
    operator_norm,
    power_pos,
    pushforward_weight,
    trace,
    trace_weight,
)
from nclp.matcore import (
    FACTOR_CACHE,
    _eig_classes,
    _operator_norms,
    flatten_element as flatten,
)
from nclp.sampling import make_rng, random_element, random_positive, random_weight

M2 = BlockAlgebra((2,))
M3 = BlockAlgebra((3,))


def test_evaluate_trace_weight():
    rng = make_rng(0)
    x = random_element(rng, M2)
    assert abs(evaluate(trace_weight(M2), x) - trace(x)) < 1e-14


def test_a_weight_called_on_an_element_evaluates_it():
    rng = make_rng(1)
    mu, x = random_weight(rng, M3), random_element(rng, M3)
    assert mu(x) == evaluate(mu, x) == trace(mu.density @ x)


def test_evaluate_examples():
    mu = Weight(Element(M2, [np.diag([1.0, 2.0])]))
    assert abs(evaluate(mu, M2.identity()) - 3.0) < 1e-14
    rng = make_rng(1)
    x = random_element(rng, M2)
    val = evaluate(mu, x @ x.adjoint())
    assert abs(val.imag) < 1e-12 and val.real >= 0.0


def test_modular_flow_of_trace_is_identity_exactly():
    rng = make_rng(2)
    tau = trace_weight(M3)
    p = random_element(rng, M3)
    for a in (0.7j, -1.9j, 0.0):
        moved = modular_automorphism(tau, a, p)
        assert all(np.array_equal(m, b) for m, b in zip(moved.blocks, p.blocks))


def test_modular_flow_diagonal_density():
    mu = Weight(Element(M2, [np.diag([1.0, 2.0])]))
    e12 = Element(M2, [np.array([[0, 1], [0, 0]], dtype=complex)])
    a = 0.6j
    moved = modular_automorphism(mu, a, e12)
    assert distance(moved, complex(np.exp(-a * np.log(2.0))) * e12) < 1e-13


def test_modular_flow_at_zero_is_identity():
    rng = make_rng(14)
    mu = random_weight(rng, M3)
    p = random_element(rng, M3)
    assert distance(modular_automorphism(mu, 0.0, p), p) < 1e-13


def test_modular_flow_rejections():
    rng = make_rng(3)
    p = random_element(rng, M2)
    nonfaithful = Weight(Element(M2, [np.diag([1.0, 0.0])]))
    with pytest.raises(NonFaithfulError):
        modular_automorphism(nonfaithful, 1j, p)
    with pytest.raises(GradingError):
        modular_automorphism(trace_weight(M2), 0.5, p)


def test_cocycle_of_weight_with_itself():
    rng = make_rng(4)
    mu = random_weight(rng, M3)
    for a in (0.3j, -1.2j):
        assert distance(connes_cocycle(mu, mu, a), M3.identity()) < 1e-12


def test_cocycle_against_trace_is_power():
    rng = make_rng(5)
    mu = random_weight(rng, M3)
    a = 0.9j
    assert distance(connes_cocycle(mu, trace_weight(M3), a),
                    power_pos(mu.density, a)) < 1e-13


def test_cocycle_chain_rule():
    rng = make_rng(6)
    mu, nu, rho = (random_weight(rng, M3) for _ in range(3))
    a = -0.4j
    lhs = connes_cocycle(mu, nu, a) @ connes_cocycle(nu, rho, a)
    assert distance(lhs, connes_cocycle(mu, rho, a)) < 1e-12


def test_cocycle_rejects_nonfaithful_denominator():
    nonfaithful = Weight(Element(M2, [np.diag([1.0, 0.0])]))
    with pytest.raises(NonFaithfulError):
        connes_cocycle(trace_weight(M2), nonfaithful, 1j)


_NONFAITHFUL = Weight(Element(M2, [np.diag([1.0, 0.0])]))


@pytest.mark.parametrize("run", [
    lambda: cocycle_identity_check(trace_weight(M2), _NONFAITHFUL, 0.5j, -0.5j),
    lambda: change_of_weight(M2.identity(), 0.5, _NONFAITHFUL, trace_weight(M2)),
    lambda: change_of_weight(M2.identity(), 0.5, trace_weight(M2), _NONFAITHFUL),
], ids=["cocycle identity", "change from", "change to"])
def test_non_faithful_weights_are_refused(run):
    with pytest.raises(NonFaithfulError):
        run()


def test_cocycle_identity_check():
    rng = make_rng(7)
    mu, nu = random_weight(rng, M3), random_weight(rng, M3)
    assert cocycle_identity_check(mu, nu, 0.0, 0.0).max_residual < 1e-14
    commuting = cocycle_identity_check(
        Weight(Element(M2, [np.diag([1.0, 2.0])])),
        Weight(Element(M2, [np.diag([3.0, 0.5])])), 0.8j, -0.2j)
    assert commuting.max_residual < 1e-13
    report = cocycle_identity_check(mu, nu, 1.1j, -0.7j)
    assert report.passed and report.max_residual < 1e-9


def test_change_of_weight_identities():
    rng = make_rng(8)
    mu, nu = random_weight(rng, M3), random_weight(rng, M3)
    x = random_element(rng, M3)
    assert distance(change_of_weight(x, 0.7 + 0.2j, mu, mu), x) < 1e-12
    assert distance(change_of_weight(x, 0.0, mu, nu), x) < 1e-12


def test_change_of_weight_matches_scalar_radon_nikodym():
    # on a diagonal algebra the conversion is multiplication by (h/k)^a
    D = BlockAlgebra((1, 1, 1))
    h = [2.0, 0.5, 3.0]
    k = [1.0, 4.0, 0.25]
    mu = Weight(Element(D, [np.array([[v]]) for v in h]))
    nu = Weight(Element(D, [np.array([[v]]) for v in k]))
    rng = make_rng(9)
    y = random_element(rng, D)
    a = 0.75 - 0.3j
    converted = change_of_weight(y, a, mu, nu)
    expected = Element(D, [
        y.blocks[i] * np.exp(a * (np.log(h[i]) - np.log(k[i]))) for i in range(3)])
    assert distance(converted, expected) < 1e-13


def test_change_of_weight_coherence():
    rng = make_rng(10)
    mu, nu, rho = (random_weight(rng, M3) for _ in range(3))
    x = random_element(rng, M3)
    a = 1.25 + 0.6j
    via = change_of_weight(change_of_weight(x, a, mu, nu), a, nu, rho)
    assert distance(via, change_of_weight(x, a, mu, rho)) < 1e-10


def test_embedding_validation():
    with pytest.raises(ValueError, match="fills"):
        BlockEmbedding(M2, BlockAlgebra((3,)), ((0,),))
    with pytest.raises(ValueError, match="source block"):
        BlockEmbedding(BlockAlgebra((1, 1)), M2, ((0, 0),))
    with pytest.raises(ValueError, match="one row per target block"):
        BlockEmbedding(M2, BlockAlgebra((2, 2)), ((0,),))
    for index in (1, -1):
        with pytest.raises(ValueError, match=f"row 0 references block {index}"):
            BlockEmbedding(M2, M2, ((index,),))


def test_embedding_places_blocks_on_the_target_diagonal():
    emb = BlockEmbedding(BlockAlgebra((1, 2)), BlockAlgebra((3, 2, 4)),
                         ((0, 1), (1,), (1, 0, 0)))
    rng = make_rng(23)
    x, y = random_element(rng, emb.source), random_element(rng, emb.source)
    fx = emb.apply(x)
    for j, row in enumerate(emb.assignment):
        want = np.zeros_like(fx.blocks[j])
        pos = 0
        for i in row:
            d = emb.source.block_dims[i]
            want[pos:pos + d, pos:pos + d] = x.blocks[i]
            pos += d
        assert np.array_equal(fx.blocks[j], want)
    assert distance(emb.apply(x @ y), fx @ emb.apply(y)) < 1e-13
    assert distance(emb.apply(emb.source.identity()), emb.target.identity()) == 0.0


def test_pushforward_identity():
    rng = make_rng(11)
    mu = random_weight(rng, M2)
    ovw = OperatorValuedWeight.from_compression(BlockEmbedding(M2, M2, ((0,),)))
    assert distance(pushforward_weight(mu, ovw).density, mu.density) < 1e-13


def test_pushforward_partial_trace():
    # tensor-square embedding of M_2 into M_4: trace pushes to trace
    M4 = BlockAlgebra((4,))
    ovw = OperatorValuedWeight.from_compression(BlockEmbedding(M2, M4, ((0, 0),)))
    push = pushforward_weight(trace_weight(M2), ovw)
    assert distance(push.density, M4.identity()) < 1e-13
    worst = max(abs(evaluate(push, q) - evaluate(trace_weight(M2), ovw.apply(q)))
                for q in M4.basis())
    assert worst < 1e-13


def test_pushforward_homogeneity():
    M4 = BlockAlgebra((4,))
    emb = BlockEmbedding(M2, M4, ((0, 0),))
    base = OperatorValuedWeight.from_compression(emb)
    doubled = OperatorValuedWeight(emb, 2.0 * np.asarray(base.matrix))
    rng = make_rng(12)
    mu = random_weight(rng, M2)
    assert distance(pushforward_weight(mu, doubled).density,
                    2.0 * pushforward_weight(mu, base).density) < 1e-12


def test_ovw_validation_rejects_bad_maps():
    M4 = BlockAlgebra((4,))
    emb = BlockEmbedding(M2, M4, ((0, 0),))
    good = OperatorValuedWeight.from_compression(emb)
    assert good.validate().passed
    rng = make_rng(13)
    bad = OperatorValuedWeight(
        emb, np.asarray(good.matrix) + 0.5 * (
            rng.standard_normal(good.matrix.shape)
            + 1j * rng.standard_normal(good.matrix.shape)))
    with pytest.raises(ValidationError):
        bad.validate()
    with pytest.raises(ValidationError):
        pushforward_weight(random_weight(rng, M2), bad)
    for value in (np.nan, np.inf):
        mat = np.array(good.matrix)
        mat[0, 0] = value
        with pytest.raises(NonFiniteError):
            OperatorValuedWeight(emb, mat)
    for mat in (good.matrix.T, good.matrix[:, :-1], good.matrix[0]):
        with pytest.raises(ValueError, match=r"matrix must have shape \(4, 16\)"):
            OperatorValuedWeight(emb, mat)


def _partial_trace_map():
    return OperatorValuedWeight.from_compression(
        BlockEmbedding(M2, BlockAlgebra((4,)), ((0, 0),)))


def test_ovw_validation_of_compression_is_exact():
    assert _partial_trace_map().validate().max_residual == 0.0


def test_ovw_validation_adjoint_branch():
    # adding the anti-Hermitian-valued map q -> 1e-3j T(q) keeps the
    # bimodule law and breaks T(q*) = T(q)*, the first law checked
    good = _partial_trace_map()
    skewed = OperatorValuedWeight(good.embedding, (1 + 1e-3j) * good.matrix)
    with pytest.raises(ValidationError, match="^adjoint law violated"):
        skewed.validate()


def test_ovw_validation_positivity_branch():
    # -T is bimodular and *-preserving but sends 1 to a negative element
    good = _partial_trace_map()
    negated = OperatorValuedWeight(good.embedding, -good.matrix)
    with pytest.raises(ValidationError, match="^positivity violated"):
        negated.validate()


def test_ovw_validation_bimodule_branch():
    # q -> tr(q)/2 * 1 from M_4 to M_2 is positive and *-preserving, and
    # T(f(p) q) = p T(q) fails for p = E_12
    M4 = BlockAlgebra((4,))
    mat = np.zeros((M2.total_dim, M4.total_dim), dtype=complex)
    for i in range(4):
        mat[0, 5 * i] = mat[3, 5 * i] = 0.5
    average = OperatorValuedWeight(BlockEmbedding(M2, M4, ((0, 0),)), mat)
    with pytest.raises(ValidationError, match="^bimodule law violated"):
        average.validate()


def test_ovw_validation_rejects_the_missed_negative_direction():
    # q -> q11 - 0.1 q22 from M_2 to C is a *-preserving bimodule map over
    # x -> diag(x, x) with K = diag(1, -0.1): it sends E_22 to -0.1, and the
    # sampled check in _reference_validate misses that direction
    emb = BlockEmbedding(BlockAlgebra((1,)), M2, ((0, 0),))
    defect = OperatorValuedWeight(emb, np.array([[1.0, 0.0, 0.0, -0.1]]))
    assert defect.apply(Element(M2, [np.diag([0.0, 1.0])])).blocks[0][0, 0] == -0.1
    assert _reference_validate(defect)
    with pytest.raises(ValidationError, match="^positivity violated"):
        defect.validate()


def test_ovw_validation_names_a_positive_non_bimodule_map_by_its_bimodule_law():
    # q -> tr(q) 1 - q on M_2 over the identity embedding is positive, but
    # its projection onto the bimodule maps is -1/2 q: the negative K alone
    # does not show that T is not positive, so the bimodule law reports it
    emb = BlockEmbedding(M2, M2, ((0,),))
    mat = np.stack([flatten(Element(M2, [np.trace(e.blocks[0]) * np.eye(2) - e.blocks[0]]))
                    for e in M2.basis()], axis=1)
    reduction = OperatorValuedWeight(emb, mat)
    rng = make_rng(22)
    for _ in range(20):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        out = reduction.apply(Element(M2, [np.outer(v, v.conj())])).blocks[0]
        assert np.linalg.eigvalsh(out).min() > -1e-12
    with pytest.raises(ValidationError, match="^bimodule law violated"):
        reduction.validate()
    # a clearly negative map off the bimodule maps is still caught as such
    with pytest.raises(ValidationError, match="^positivity violated"):
        OperatorValuedWeight(emb, mat - 4.0 * np.eye(4)).validate()


def test_ovw_validation_is_closed_form_in_the_relative_commutant(lapack):
    # (16,) -> (32,): no dense SVD or spectral norm of the 256 x 1024
    # matrix, one eigvalsh on the 2 x 2 matrix K and nothing else
    ovw = OperatorValuedWeight.from_compression(
        BlockEmbedding(BlockAlgebra((16,)), BlockAlgebra((32,)), ((0, 0),)))
    lapack.calls.clear()
    report = ovw.validate()
    assert report.passed and report.max_residual == 0.0
    assert [(name, shape) for name, _, shape in lapack.calls] == [("eigvalsh", (2, 2))]
    mat = np.array(ovw.matrix)
    mat[-1, 0] += 1e-3j   # in the last slab of rows the adjoint law reads
    with pytest.raises(ValidationError, match="^adjoint law violated"):
        OperatorValuedWeight(ovw.embedding, mat).validate()


def test_ovw_residual_inside_the_norm_bracket_takes_the_dense_norm(lapack):
    # T = (1 + i eps) T_K + E for the partial trace T_K and a unit E that is
    # orthogonal to the bimodule maps and *-preserving: ||T_K||_2 = sqrt(2),
    # ||T - T_K||_F = 1, and the adjoint residual is 2 eps ||T_K||_F.  An
    # adjoint residual between eq_bound(||T_K||_2) and eq_bound(||T_K||_2 + 1)
    # needs the dense norm, and eq_bound(||T||_2) decides which law fails first
    base = _partial_trace_map().matrix
    e = np.zeros(base.shape)
    for a, b in np.ndindex(2, 2):
        e[2 * a + b, 4 * a + b] = -0.25   # the four positions of K[0, 0]
    e[0, 0] = 0.75
    e /= np.linalg.norm(e)
    top = np.sqrt(2.0)
    low, exact, high = (DEFAULT_TOL.eq_bound(s) for s in
                        (top, np.linalg.norm(base + e, 2), top + 1.0))
    assert low < exact < high
    for adjoint, law in (((low + exact) / 2, "bimodule"), ((exact + high) / 2, "adjoint")):
        eps = adjoint / (2.0 * np.linalg.norm(base))
        T = OperatorValuedWeight(_partial_trace_map().embedding, (1 + 1j * eps) * base + e)
        lapack.calls.clear()
        with pytest.raises(ValidationError, match=f"^{law} law violated"):
            T.validate()
        assert [option for option, _ in lapack.of("norm")] == [2]


def _reference_validate(T, tol=DEFAULT_TOL, positivity_samples=8,
                        polarized_samples=8):
    """The basis-pair loop that validate() replaced; True when T passes.

    Adjoint law on every matrix unit of N, T(f(p) q f(p)*) = p T(q) p* on
    every pair of matrix units, and seeded random polarized triples.  It
    keeps the sampled positivity check that validate() used before the
    exact test on the relative-commutant matrices K_ij: T(q) must be
    positive on the identity and on positivity_samples rank-one positives
    drawn from PCG64(0).  So it accepts a bimodule map whose K_ij has a
    negative eigenvalue that those samples miss, such as the q11 - 0.1 q22
    map of test_ovw_validation_rejects_the_missed_negative_direction.
    """
    scale = max(float(np.linalg.norm(T.matrix, 2)), 1.0)
    bound = tol.eq_bound(scale)
    rng = np.random.Generator(np.random.PCG64(0))
    source_basis = list(T.source.basis())
    applied = [T.apply(q) for q in source_basis]
    for q, tq in zip(source_basis, applied):
        if operator_norm(T.apply(q.adjoint()) - tq.adjoint()) > bound:
            return False
    positives = [T.source.identity()]
    for _ in range(positivity_samples):
        blocks = []
        for n in T.source.block_dims:
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            blocks.append(np.outer(v, v.conj()))
        positives.append(Element(T.source, tuple(blocks)))
    for q in positives:
        try:
            _eig_classes(T.apply(q), Tolerances(
                rank_rel=tol.rank_rel, eq_abs=bound, eq_rel=tol.eq_rel))
        except NotPositiveError:
            return False

    def holds(p, fp, q, tq, r, fr):
        return operator_norm(
            T.apply(fp @ q @ fr.adjoint()) - p @ tq @ r.adjoint()) <= bound

    def rand(alg):
        return Element(alg, tuple(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for n in alg.block_dims))

    for p in T.target.basis():
        fp = T.embedding.apply(p)
        for q, tq in zip(source_basis, applied):
            if not holds(p, fp, q, tq, p, fp):
                return False
    for _ in range(polarized_samples):
        q = rand(T.source)
        p, r = rand(T.target), rand(T.target)
        if not holds(p, T.embedding.apply(p), q, T.apply(q),
                     r, T.embedding.apply(r)):
            return False
    return True


def _pushforward_law_compressions():
    """Every embedding shape that weights.pushforward_laws can draw.

    T: M -> N repeats each block of M once or twice along one block of N,
    S: N -> N (+) N is the diagonal copy, and T o S is their composite.
    """
    rng = make_rng(16)
    seen = {}
    for dims in ((1,), (2,), (1, 1), (3,)):
        M = BlockAlgebra(dims)
        for reps in np.ndindex(*(2,) * len(dims)):
            row = tuple(i for i, r in enumerate(reps) for _ in range(r + 1))
            N = BlockAlgebra((sum(M.block_dims[i] for i in row),))
            T = OperatorValuedWeight.from_compression(
                BlockEmbedding(M, N, (row,)), rng.uniform(0.5, 2.0, size=len(row)))
            S = OperatorValuedWeight.from_compression(
                BlockEmbedding(N, BlockAlgebra((2 * N.block_dims[0],)), ((0, 0),)))
            for ovw in (T, S, T.compose(S)):
                emb = ovw.embedding
                seen.setdefault(
                    (emb.source.block_dims, emb.target.block_dims, emb.assignment), ovw)
    return list(seen.values())


def _adjoint_conjugate(T):
    """The matrix of q -> T(q*)*, so that T + this map is *-preserving."""
    cols = [flatten(T.apply(e.adjoint()).adjoint()) for e in T.source.basis()]
    return np.stack(cols, axis=1)


def test_ovw_validation_agrees_with_basis_pair_loop():
    # the first two maps move entries far below the bound (1e-13), the rest
    # far above it (1e-6), so both checkers must reach the same verdict;
    # every other map keeps T(q*) = T(q)* so that the bimodule law decides
    rng = make_rng(17)
    verdicts = []
    for ovw in _pushforward_law_compressions():
        candidates = [ovw]
        for k in range(20):
            shape = ovw.matrix.shape
            g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            if k % 2:
                g = g + _adjoint_conjugate(OperatorValuedWeight(ovw.embedding, g))
            eps = 1e-13 if k < 2 else 1e-6
            candidates.append(OperatorValuedWeight(ovw.embedding, ovw.matrix + eps * g))
        for cand in candidates:
            try:
                cand.validate()
                new = True
            except ValidationError:
                new = False
            assert new == _reference_validate(cand), cand.embedding
            verdicts.append(new)
    assert any(verdicts) and not all(verdicts)


def _reference_compression(embedding, slot_weights=None):
    """from_compression as first written: one closure call per matrix unit of N."""

    def compress(q):
        out = [np.zeros((n, n), dtype=complex) for n in embedding.source.block_dims]
        slot = 0
        for j, row in enumerate(embedding.assignment):
            pos = 0
            for i in row:
                d = embedding.source.block_dims[i]
                w = 1.0 if slot_weights is None else float(slot_weights[slot])
                out[i] += w * q.blocks[j][pos:pos + d, pos:pos + d]
                pos += d
                slot += 1
        return Element(embedding.source, out)

    cols = [flatten(compress(e)) for e in embedding.target.basis()]
    return np.stack(cols, axis=1)


def test_from_compression_equals_closure_build_entry_for_entry():
    rng = make_rng(18)
    embeddings = [ovw.embedding for ovw in _pushforward_law_compressions()]
    embeddings.append(BlockEmbedding(BlockAlgebra((1, 2)), BlockAlgebra((3, 2, 4)),
                                     ((0, 1), (1,), (1, 0, 0))))
    for emb in embeddings:
        slots = sum(len(row) for row in emb.assignment)
        for weights in (None, rng.uniform(0.5, 2.0, size=slots)):
            got = OperatorValuedWeight.from_compression(emb, weights).matrix
            assert np.array_equal(got, _reference_compression(emb, weights))


def test_from_compression_rejects_bad_slot_weights():
    emb = BlockEmbedding(M2, BlockAlgebra((4,)), ((0, 0),))
    with pytest.raises(NonFiniteError):
        OperatorValuedWeight.from_compression(emb, [1.0, float("nan")])
    with pytest.raises(NonFiniteError):
        OperatorValuedWeight.from_compression(emb, [float("inf"), 1.0])
    with pytest.raises(ValueError, match="strictly positive"):
        OperatorValuedWeight.from_compression(emb, [1.0, 0.0])
    for given in ([1.0], [1.0, 1.0, 1.0]):
        with pytest.raises(ValueError, match=f"expected 2 slot weights, got {len(given)}"):
            OperatorValuedWeight.from_compression(emb, given)


def test_pushforward_keeps_the_callers_tolerance():
    tight = Tolerances(rank_rel=1e-15, eq_abs=1e-9, eq_rel=1e-9)
    mu = Weight(Element(M2, [np.diag([1.0, 1e-12])]), tight)
    ovw = OperatorValuedWeight.from_compression(BlockEmbedding(M2, M2, ((0,),)))
    assert mu.faithful
    push = pushforward_weight(mu, ovw, tight)
    assert push.tol == tight and push.faithful
    assert not pushforward_weight(mu, ovw).faithful


def test_weight_operations_take_one_eigh_per_density(lapack):
    # construction takes the one eigh of each density; after more than
    # FACTOR_CACHE other elements have been factorized, the seven operations
    # built on the weights still take no eigh of either density
    M = BlockAlgebra((2,) * 8)
    rng = make_rng(22)
    h, k = random_weight(rng, M).density, random_weight(rng, M).density
    x = random_element(rng, M)
    # an exactly real diagonal Gram matrix takes no eigh of its own
    gens = [GradedElement(M.identity() * c, 0.5 + 0.3j) for c in (1.0, 2.0)]
    lapack.reset()
    mu, nu = Weight(Element(M, h.blocks)), Weight(Element(M, k.blocks))
    assert lapack.names() == ["eigh", "eigh"]
    for _ in range(FACTOR_CACHE + 1):
        power_pos(random_positive(rng, M), 0.5)
        left_support(random_element(rng, M))
    assert lapack.names()[2:] == ["eigh", "svd"] * (FACTOR_CACHE + 1)
    lapack.forbid("eigh")
    mu.powers((0.5, 0.3j)), mu.support
    modular_automorphism(mu, 0.3j, x)
    connes_cocycle(mu, nu, 0.3j)
    cocycle_identity_check(mu, nu, 0.3j, -0.7j)
    change_of_weight(x, 0.5 + 0.2j, mu, nu)
    cyclic_generator(gens, mu)


def test_weight_checks_its_density_once_per_tolerance(lapack):
    # Weight(h) checks h once; powers, support and the modular flow at the
    # weight's own tol, or an equal one, read the kept eigensystem; another
    # policy checks h again, once
    M = BlockAlgebra((2,) * 8)
    rng = make_rng(23)
    h, x = random_weight(rng, M).density, random_element(rng, M)
    lapack.calls.clear()
    mu = Weight(Element(M, h.blocks))
    assert lapack.names() == ["eigh"]
    mu.powers((0.5, 0.3j))
    mu.support
    modular_automorphism(mu, 0.3j, x)
    modular_automorphism(mu, 0.3j, x, mu.tol)
    mu.powers((0.5,), Tolerances())   # an equal policy
    assert lapack.names() == ["eigh"]
    # another policy is one key, 1 and 1.0 included
    mu.powers((0.5,), Tolerances(eq_abs=1))
    mu.powers((0.5,), Tolerances(eq_abs=1.0))
    assert lapack.names() == ["eigh", "eigh"]


def test_a_weight_at_another_policy_takes_that_policys_check(lapack):
    # eigenvalue -1e-10 is within the default floor -eq_bound(1), not within
    # a stricter one: that policy takes one eigh and refuses on every call
    h = Element(M2, [np.array([[0.5, 0.5 + 1e-10], [0.5 + 1e-10, 0.5]])])
    mu = Weight(h)
    assert not mu.faithful and lapack.names() == ["eigh"]
    strict = Tolerances(eq_abs=1e-12, eq_rel=1e-12)
    lapack.calls.clear()
    for _ in range(2):
        with pytest.raises(NotPositiveError, match="negative eigenvalue"):
            mu.powers((0.5,), strict)
    with pytest.raises(NotPositiveError, match="negative eigenvalue"):
        connes_cocycle(mu, trace_weight(M2), 0.3j, strict)
    assert lapack.names() == ["eigh"] * 3   # a failed check is not kept
    lapack.calls.clear()
    mu.support, mu.powers((0.5,)), mu.powers((0.5,), DEFAULT_TOL)
    assert lapack.calls == []
    with pytest.raises(NonFaithfulError):
        modular_automorphism(mu, 0.3j, h)


def test_a_copied_weight_rebuilds_its_eigensystem_read_only(lapack):
    # a pickled or deep copy holds a copy of the density, which takes one
    # eigh on first use; a shallow copy shares the density and takes none
    mu = random_weight(make_rng(26), M3)
    kept, powers = _eig_classes(mu.density, mu.tol), mu.powers((0.5, 0.3j))
    for copy, eighs in ((pickle.loads(pickle.dumps(mu)), ["eigh"]),
                        (copy_module.deepcopy(mu), ["eigh"]), (copy_module.copy(mu), [])):
        assert type(copy) is Weight and copy.tol == mu.tol and copy.faithful
        lapack.calls.clear()
        again = copy.powers((0.5, 0.3j))
        assert lapack.names() == eighs
        for (w, u), (w0, u0) in zip(_eig_classes(copy.density, copy.tol), kept):
            assert not (w.flags.writeable or u.flags.writeable)
            assert w.tobytes() == w0.tobytes() and u.tobytes() == u0.tobytes()
        assert all(p.stacks[0].tobytes() == q.stacks[0].tobytes()
                   for p, q in zip(again, powers))
        assert lapack.names() == eighs


def test_non_positive_density_raises_on_every_call(lapack):
    # a failed check is never kept: each call takes its eigh again
    blocks = [np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)]
    h = Element(M2, blocks)
    for _ in range(3):
        with pytest.raises(NotPositiveError, match="negative eigenvalue"):
            Weight(h)
        with pytest.raises(NotPositiveError, match="negative eigenvalue"):
            power_pos(h, 0.5)
    assert lapack.names() == ["eigh"] * 6
    diagonal = Element(M2, [np.diag([1.0, -1.0]).astype(complex)])
    asym = Element(M2, [np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)])
    for _ in range(2):
        with pytest.raises(NotPositiveError, match="negative eigenvalue"):
            Weight(diagonal)
        with pytest.raises(NotPositiveError, match="not Hermitian"):
            Weight(asym)


def test_flow_parameters_must_be_finite():
    mu = random_weight(make_rng(19), M2)
    x = random_element(make_rng(20), M2)
    with pytest.raises(NonFiniteError):
        modular_automorphism(mu, complex(0.0, float("nan")), x)
    with pytest.raises(NonFiniteError):
        connes_cocycle(mu, mu, complex(0.0, float("inf")))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(NonFiniteError):
            change_of_weight(x, bad, mu, mu)


def test_weight_functions_match_separate_powers_bit_for_bit():
    # one eigensystem per density gives the same matrices as one per power
    rng = make_rng(21)
    M = BlockAlgebra((1, 2, 3, 2))
    mu, nu = random_weight(rng, M), random_weight(rng, M)
    x = random_element(rng, M)
    a, b = 0.7j, -1.3j

    def same(u, v):
        return all(np.array_equal(p, q) for p, q in zip(u.blocks, v.blocks))

    assert same(modular_automorphism(mu, a, x), mu.power(a) @ x @ mu.power(-a))
    cocycle = lambda c: mu.power(c) @ nu.power(-c)   # noqa: E731
    lhs = cocycle(a + b)
    rhs = cocycle(a) @ (nu.power(a) @ cocycle(b) @ nu.power(-a))
    report = cocycle_identity_check(mu, nu, a, b)
    assert report.max_residual == operator_norm(lhs - rhs)
    assert report.passed


def _eager_cocycle_report(mu, nu, a, b, tol):
    """The cocycle check as first written: ||lhs|| taken on every call."""
    h_ab, h_a, h_b = mu.powers((a + b, a, b), tol)
    k_ab, k_a, k_b, k_up = nu.powers((-(a + b), -a, -b, a), tol)
    lhs = h_ab @ k_ab
    rhs = (h_a @ k_a) @ (k_up @ (h_b @ k_b) @ k_a)
    residual, norm_lhs = _operator_norms(lhs - rhs, lhs)
    return ToleranceReport(residual, residual <= tol.eq_bound(max(norm_lhs, 1.0)),
                           f"cocycle identity at a={a}, b={b}")


def test_cocycle_check_takes_the_norm_of_lhs_only_to_refuse(lapack):
    # a residual within eq_bound(1) passes whatever ||lhs|| is; a tolerance
    # far below rounding makes every check refuse and take ||lhs||
    rng = make_rng(24)
    strict = Tolerances(eq_abs=1e-30, eq_rel=1e-30)
    verdicts = []

    def hermitian(h):   # exactly, so that the strict policy accepts it
        return (h + h.adjoint()) * 0.5

    for dims in ((1,), (2,), (3,), (2, 2), (1, 2, 3, 2)):
        M = BlockAlgebra(dims)
        for faithful in (True, False):
            if faithful:
                mu = Weight(hermitian(random_weight(rng, M).density))
            else:   # exact zeros in the spectrum
                mu = Weight(Element(M, [np.diag(rng.uniform(0.0, 2.0, n) * (np.arange(n) > 0))
                                        for n in dims]))
            nu = Weight(hermitian(random_weight(rng, M).density))
            a, b = complex(0.0, rng.uniform(-2, 2)), complex(0.0, rng.uniform(-2, 2))
            for tol in (DEFAULT_TOL, strict):
                want = _eager_cocycle_report(mu, nu, a, b, tol)
                mu.powers((a,), tol), nu.powers((a,), tol)   # warm eigensystems
                lapack.calls.clear()
                got = cocycle_identity_check(mu, nu, a, b, tol)
                assert got == want and repr(got.max_residual) == repr(want.max_residual)
                verdicts.append((tol, got.passed))
                # one matrix per block for the residual, and as many for ||lhs||
                svds = lapack.of("svd")
                assert sum(shape[0] for _, shape in svds) == (1 if got.passed else 2) * len(dims)
    assert verdicts.count((DEFAULT_TOL, True)) == 10
    assert verdicts.count((strict, False)) >= 8   # a (1,) residual can be exactly 0


def test_weight_rejects_indefinite_density():
    with pytest.raises(NotPositiveError):
        Weight(Element(M2, [np.diag([1.0, -2.0])]))


def test_faithful_flag():
    assert Weight(Element(M2, [np.diag([1.0, 2.0])])).faithful
    assert not Weight(Element(M2, [np.diag([1.0, 0.0])])).faithful


def test_weight_tolerance_policy_controls_support():
    # spectrum spanning 1e12 falls under the default relative cutoff
    wide = Element(M2, [np.diag([1e8, 1e-4])])
    assert not Weight(wide).faithful
    tight = Weight(wide, Tolerances(rank_rel=1e-15, eq_abs=1e-9, eq_rel=1e-9))
    assert tight.faithful
    rng = make_rng(15)
    p = random_element(rng, M2)
    group_gap = distance(
        modular_automorphism(tight, 0.9j, modular_automorphism(tight, -0.4j, p)),
        modular_automorphism(tight, 0.5j, p))
    assert group_gap < 1e-10
