"""Unit tests for weights, modular flows, cocycles, and pushforwards."""

import copy as copy_module
import json
import pickle
import tracemalloc

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
    OutOfRangeError,
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
    flatten_element as flatten,
)
from nclp.cli import main
from nclp.serialize import weight_to_obj
from nclp.weights import _pushforward_residual
from nclp.sampling import make_rng, random_element, random_positive, random_weight

from conftest import _commutant_map

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
    doubled = OperatorValuedWeight(emb, {ij: 2.0 * k for ij, k in base.K.items()})
    rng = make_rng(12)
    mu = random_weight(rng, M2)
    assert distance(pushforward_weight(mu, doubled).density,
                    2.0 * pushforward_weight(mu, base).density) < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_operator_valued_weight_products_past_the_float_range_are_typed_errors():
    # each product that overflows raises OutOfRangeError naming it, with no
    # numpy warning and no infinity handed on
    M4 = BlockAlgebra((4,))
    T = OperatorValuedWeight.from_compression(BlockEmbedding(M2, M4, ((0, 0),)), [1.5, 2.0])
    with pytest.raises(OutOfRangeError,
                       match=r"^operator-valued weight: T\(q\) exceeds the float range$"):
        T.apply(Element(M4, [np.full((4, 4), 1e308)]))
    with pytest.raises(OutOfRangeError,
                       match="^pushforward: the density exceeds the float range$"):
        pushforward_weight(Weight(Element(M2, [1e308 * np.eye(2)])), T)
    huge = OperatorValuedWeight.from_compression(BlockEmbedding(M2, M4, ((0, 0),)), [1e200] * 2)
    inner = OperatorValuedWeight.from_compression(
        BlockEmbedding(M4, BlockAlgebra((8,)), ((0, 0),)), [1e200] * 2)
    with pytest.raises(OutOfRangeError, match="^operator-valued weight: the composed matrix "
                                              "exceeds the float range$"):
        huge.compose(inner)
    # below the range, each gives what it gave before
    q = Element(M4, [np.full((4, 4), 1e300)])
    assert (T.apply(q).stacks[0] == (1.5e300 + 2e300) * np.ones((2, 2))).all()


def test_ovw_validation_rejects_bad_maps():
    M4 = BlockAlgebra((4,))
    emb = BlockEmbedding(M2, M4, ((0, 0),))
    good = OperatorValuedWeight.from_compression(emb)
    assert good.validate().passed
    rng = make_rng(13)
    k = good.K[0, 0]
    bad = OperatorValuedWeight(
        emb, {(0, 0): k + 0.5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))})
    with pytest.raises(ValidationError):
        bad.validate()
    with pytest.raises(ValidationError):
        pushforward_weight(random_weight(rng, M2), bad)
    for value in (np.nan, np.inf, -np.inf):
        K = np.array(k)
        K[1, 0] = value
        with pytest.raises(NonFiniteError, match="^operator-valued weight matrix must be finite$"):
            OperatorValuedWeight(emb, {(0, 0): K})
    for K in (k[:1], k[0], np.eye(3)):
        with pytest.raises(ValueError, match=r"^K\(0, 0\) must have shape \(2, 2\), got"):
            OperatorValuedWeight(emb, {(0, 0): K})
    for K in ({}, {(0, 1): k}, {(0, 0): k, (1, 0): k}):
        with pytest.raises(ValueError, match=r"^K must have one matrix per key \[\(0, 0\)\]"):
            OperatorValuedWeight(emb, K)
    # the matrices are copied, complex and read-only
    given = np.eye(2)
    copied = OperatorValuedWeight(emb, {(0, 0): given})
    given[0, 0] = 5.0
    assert copied.K[0, 0].dtype == complex and copied.K[0, 0][0, 0] == 1.0
    with pytest.raises(ValueError):
        copied.K[0, 0][0, 0] = 5.0


def _partial_trace_map():
    return OperatorValuedWeight.from_compression(
        BlockEmbedding(M2, BlockAlgebra((4,)), ((0, 0),)))


def test_ovw_validation_of_compression_is_exact():
    assert _partial_trace_map().validate().max_residual == 0.0


def test_ovw_validation_adjoint_branch():
    # adding the anti-Hermitian-valued map q -> 1e-3j T(q) breaks
    # T(q*) = T(q)*, the first law checked
    good = _partial_trace_map()
    skewed = OperatorValuedWeight(good.embedding, {(0, 0): (1 + 1e-3j) * good.K[0, 0]})
    with pytest.raises(ValidationError, match="^adjoint law violated"):
        skewed.validate()


def test_ovw_validation_positivity_branch():
    # -T is bimodular and *-preserving but sends 1 to a negative element
    good = _partial_trace_map()
    negated = OperatorValuedWeight(good.embedding, {(0, 0): -good.K[0, 0]})
    with pytest.raises(ValidationError, match="^positivity violated"):
        negated.validate()


def test_ovw_validation_bound_is_at_the_exact_norm_of_T():
    # over (1,) -> (2,), T is the 1 x 4 row of K's entries, so ||T||_2 = ||K||_F:
    # K = diag(3e3, 4e3) with K[1, 0] = x gives the bound 1e-9 + 1e-9 * 5e3
    # and the adjoint residual ||K - K*||_F = sqrt(2) x
    emb = BlockEmbedding(BlockAlgebra((1,)), M2, ((0, 0),))
    for x, passed in ((3.5e-6, True), (3.6e-6, False)):
        T = OperatorValuedWeight(emb, {(0, 0): np.array([[3e3, 0.0], [x, 4e3]])})
        if passed:
            assert T.validate().max_residual == pytest.approx(np.sqrt(2.0) * x, rel=1e-15)
        else:
            with pytest.raises(ValidationError, match=r"^adjoint law violated: residual "
                                                      r"5\.091e-06 > 5\.001e-06$"):
                T.validate()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ovw_validation_is_scale_free():
    # squares of entries of 1e200 and 1e300 overflow: the norms of K are
    # summed at a power-of-two scale, so the skew K is refused, with the
    # residual ||K - K*||_F = sqrt(2) 1e200 against 1e-9 ||K||_F, and the
    # Hermitian one passes
    emb = BlockEmbedding(BlockAlgebra((1,)), M2, ((0, 0),))
    skew = OperatorValuedWeight(emb, {(0, 0): [[1e200, 1e200], [0, 1e200]]})
    with pytest.raises(ValidationError, match=r"^adjoint law violated: residual "
                                              r"1\.414e\+200 > 1\.732e\+191$"):
        skew.validate()
    report = OperatorValuedWeight(emb, {(0, 0): np.diag([1e300, 2e300])}).validate()
    assert report.passed and report.max_residual == 0.0


def test_ovw_operations_at_scale_never_build_the_dense_matrix(capsys, tmp_path):
    # (64,) -> (128,): the dense matrix would be 4096 x 16384 complex, 1 GiB;
    # from_compression, validate, pushforward_weight and the residual of the
    # pushforward law work on the two 2 x 2 matrices K and the (128, 128)
    # densities only
    emb = BlockEmbedding(BlockAlgebra((64,)), BlockAlgebra((128,)), ((0, 0),))
    mu = random_weight(make_rng(23), emb.source)
    tracemalloc.start()
    try:
        T = OperatorValuedWeight.from_compression(emb, [1.0, 2.0])
        report = T.validate()
        push = pushforward_weight(mu, T)
        agreement = _pushforward_residual(mu, push, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert report.passed and report.max_residual == 0.0
    assert agreement == 0.0
    h = mu.density.blocks[0]
    assert np.array_equal(push.density.blocks[0], np.kron(np.diag([1.0, 2.0]), h))
    # the same tower through the command line, in-process
    path = tmp_path / "tower.json"
    path.write_text(json.dumps({
        "mu": weight_to_obj(mu), "slot_weights": [1.0, 2.0],
        "embedding": {"source_dims": [64], "target_dims": [128], "assignment": [[0, 0]]}}))
    tracemalloc.start()
    try:
        code = main(["demo", "pushforward", "--input", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and peak < 16 * 2 ** 20
    assert out["agreement_residual"] == 0.0 and out["faithful"] is True


def test_ovw_validation_rejects_the_missed_negative_direction():
    # q -> q11 - 0.1 q22 from M_2 to C is a *-preserving bimodule map over
    # x -> diag(x, x) with K = diag(1, -0.1): it sends E_22 to -0.1, and the
    # sampled check in _reference_validate misses that direction
    emb = BlockEmbedding(BlockAlgebra((1,)), M2, ((0, 0),))
    defect = OperatorValuedWeight(emb, {(0, 0): np.diag([1.0, -0.1])})
    assert defect.apply(Element(M2, [np.diag([0.0, 1.0])])).blocks[0][0, 0] == -0.1
    assert _reference_validate(defect)
    with pytest.raises(ValidationError, match="^positivity violated"):
        defect.validate()


def test_ovw_validation_is_closed_form_in_the_relative_commutant(lapack):
    # (16,) -> (32,): no dense matrix, one eigvalsh on the 2 x 2 matrix K
    # and nothing else
    ovw = OperatorValuedWeight.from_compression(
        BlockEmbedding(BlockAlgebra((16,)), BlockAlgebra((32,)), ((0, 0),)))
    lapack.calls.clear()
    report = ovw.validate()
    assert report.passed and report.max_residual == 0.0
    assert [(name, shape) for name, _, shape in lapack.calls] == [("eigvalsh", (2, 2))]
    K = np.array(ovw.K[0, 0])
    K[1, 0] += 1e-3j
    with pytest.raises(ValidationError, match=r"^adjoint law violated: residual 2\.263e-02 "):
        OperatorValuedWeight(ovw.embedding, {(0, 0): K}).validate()   # 16 * 1e-3 * sqrt(2)


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
    scale = max(float(np.linalg.norm(_commutant_map(T.embedding, T.K), 2)), 1.0)
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


def _perturbation(rng, r, kind):
    """A random r x r matrix: "general" (not Hermitian), "psd" (G G*) or
    "indefinite" (Hermitian, with a negative eigenvalue, and a positive one
    when r > 1)."""
    g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    if kind == "psd":
        return g @ g.conj().T
    if kind == "indefinite":
        w, u = np.linalg.eigh(g + g.conj().T)
        w[0] = -1.0 - abs(w[0])
        if r > 1:
            w[-1] = 1.0 + abs(w[-1])
        return (u * w) @ u.conj().T
    return g


def test_ovw_validation_agrees_with_basis_pair_loop():
    # every map of weights.pushforward_laws, its negation (not positive), and
    # its K moved far below the bound (1e-13) and far above it (1e-6), by
    # non-Hermitian, positive semidefinite and indefinite perturbations, the
    # Hermitian kinds taken in turn from map to map, so both checkers must
    # reach the same verdict
    rng = make_rng(17)
    kinds = ("general", "psd", "indefinite")
    verdicts = []
    for n, ovw in enumerate(_pushforward_law_compressions()):
        candidates = [ovw, OperatorValuedWeight(ovw.embedding, {ij: -k for ij, k in ovw.K.items()})]
        for eps, kind in ((1e-13, kinds[n % 3]), (1e-6, "general"), (1e-6, kinds[1 + n % 2])):
            candidates.append(OperatorValuedWeight(ovw.embedding, {
                ij: k + eps * _perturbation(rng, len(k), kind) for ij, k in ovw.K.items()}))
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
            T = OperatorValuedWeight.from_compression(emb, weights)
            assert np.array_equal(_commutant_map(emb, T.K), _reference_compression(emb, weights))


def _pushforward_gaps_by_basis(mu, push, ovw):
    """Reference for weights._pushforward_residual: the loop over the matrix units."""
    return max(abs(evaluate(push, q) - evaluate(mu, ovw.apply(q))) for q in ovw.source.basis())


def test_pushforward_residual_in_closed_form_agrees_with_the_basis_loop():
    # Bound.  For a matrix unit q_t the basis loop reads push(q_t) as f(k)_t
    # exactly (one product with 1, the rest exact zeros), and T(q_t) as column
    # t of T, the dense matrix of the commutant map; so it sums the
    # d = dim M products f(h)_m T[m, t], as the dense product f(h) @ T does
    # in another order, and the residual from K forms the one of them that
    # can be nonzero.  A complex sum of at most d products lies within
    # gamma_{d+2} S_t of its exact value, S_t = sum_m |f(h)_m T[m, t]| and
    # gamma_n = n u / (1 - n u) with u = 2^-53; the subtraction from f(k)_t
    # and the modulus add a relative u each.  So each gap lies within
    # gamma_{d+4} (|f(k)_t| + S_t) of the exact gap, each way, and any two
    # maxima within twice the largest of these.  A column of a compression
    # map holds at most one nonzero entry, with a real K, so there every sum
    # is one product and all three agree to the bit.
    rng = make_rng(20)
    u = np.finfo(float).eps / 2
    embeddings = [ovw.embedding for ovw in _pushforward_law_compressions()]
    embeddings.append(BlockEmbedding(BlockAlgebra((1, 2)), BlockAlgebra((3, 2, 4)),
                                     ((0, 1), (1,), (1, 0, 0))))
    for emb in embeddings:
        M, N = emb.source, emb.target
        slots = sum(len(row) for row in emb.assignment)
        g = {ij: rng.standard_normal(k.shape) * (1.0 + 1j)
             for ij, k in OperatorValuedWeight.from_compression(emb).K.items()}
        maps = [OperatorValuedWeight.from_compression(emb, w)
                for w in (None, rng.uniform(0.5, 2.0, size=slots))]
        gamma = (M.total_dim + 4) * u / (1 - (M.total_dim + 4) * u)
        for T in [*maps, OperatorValuedWeight(emb, g)]:
            mu = random_weight(rng, M)
            f_h = np.concatenate([b.T.reshape(-1) for b in mu.density.blocks])
            pushes = [random_weight(rng, N)]
            if T in maps:
                pushes.append(pushforward_weight(mu, T))
            mat = _commutant_map(emb, T.K)
            for push in pushes:
                got, ref = _pushforward_residual(mu, push, T), _pushforward_gaps_by_basis(mu, push, T)
                f_k = np.concatenate([b.T.reshape(-1) for b in push.density.blocks])
                dense = max(map(abs, (f_k - f_h @ mat).tolist()))
                bound = 2 * gamma * float(np.max(np.abs(f_k) + np.abs(f_h) @ np.abs(mat)))
                assert abs(got - ref) <= bound and abs(got - dense) <= bound
                if T in maps:
                    assert got.hex() == ref.hex() == dense.hex()


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
    gens = [GradedElement(M.identity() * c, 0.5 + 0.3j) for c in (1.0, 2.0)]
    lapack.reset()
    mu, nu = Weight(Element(M, h.blocks)), Weight(Element(M, k.blocks))
    assert lapack.names() == ["eigh", "eigh"]
    for _ in range(FACTOR_CACHE + 1):
        power_pos(random_positive(rng, M), 0.5)
        left_support(random_element(rng, M))
    assert lapack.names()[2:] == ["eigh", "svd"] * (FACTOR_CACHE + 1)
    lapack.calls.clear()
    mu.powers((0.5, 0.3j)), mu.support
    modular_automorphism(mu, 0.3j, x)
    connes_cocycle(mu, nu, 0.3j)
    cocycle_identity_check(mu, nu, 0.3j, -0.7j)
    change_of_weight(x, 0.5 + 0.2j, mu, nu)
    assert "eigh" not in lapack.names()
    cyclic_generator(gens, mu)
    assert lapack.names().count("eigh") == 1   # the Gram matrix's alone


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_asymmetry_past_the_float_range_is_not_hermitian():
    # finite blocks whose asymmetry |a - a*| (and, in the second, whose
    # entries' moduli) lie past the float range
    for block in ([[0, 1e308], [-1e308, 0]],
                  [[0, 1.5e308 * (1 + 1j)], [-1.5e308 * (1 - 1j), 0]]):
        with pytest.raises(NotPositiveError, match="^block 0 is not Hermitian: asymmetry inf$"):
            Weight(Element(M2, [block]))


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
    residual, norm_lhs = operator_norm(lhs - rhs), operator_norm(lhs)
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
