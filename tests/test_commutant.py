"""Property tests: bimodule maps built from random relative-commutant matrices.

Every bimodule map N -> M over an embedding is T_K(q)_i =
sum_j sum_{s,t} K_ij[s, t] q_j[copy t, copy s], and it is positive exactly
when every K_ij is positive semidefinite.  OperatorValuedWeight stores a
map by its K; conftest._commutant_map builds the dense matrix from that
formula one basis element at a time, independently of the library, as the
referee of apply, validate, compose, the pushforward and its residual.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from nclp import (  # noqa: E402
    DEFAULT_TOL,
    BlockAlgebra,
    BlockEmbedding,
    OperatorValuedWeight,
    ValidationError,
    distance,
    flatten_element,
    operator_norm,
    pushforward_weight,
    unflatten_element,
)
from nclp.sampling import make_rng, random_element, random_weight  # noqa: E402

from conftest import _commutant_map, _copies  # noqa: E402

EMBEDDINGS = [
    BlockEmbedding(BlockAlgebra((1,)), BlockAlgebra((2,)), ((0, 0),)),
    BlockEmbedding(BlockAlgebra((2,)), BlockAlgebra((6,)), ((0, 0, 0),)),
    BlockEmbedding(BlockAlgebra((1, 1)), BlockAlgebra((3,)), ((0, 1, 0),)),
    BlockEmbedding(BlockAlgebra((1, 2)), BlockAlgebra((3, 2, 4)),
                   ((0, 1), (1,), (1, 0, 0))),
]


def _bound(mat):
    return DEFAULT_TOL.eq_bound(max(float(np.linalg.norm(mat, 2)), 1.0))


@st.composite
def positive_commutants(draw):
    """An embedding and K_ij = G G*, of random rank and scale, for every (i, j)."""
    embedding = draw(st.sampled_from(EMBEDDINGS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    K = {}
    for ij, offsets in _copies(embedding).items():
        r = len(offsets)
        rank = draw(st.integers(1, r))
        g = rng.standard_normal((r, rank)) + 1j * rng.standard_normal((r, rank))
        K[ij] = scale * (g @ g.conj().T)
    return embedding, K


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(positive_commutants())
def test_positive_commutant_matrices_validate(drawn):
    embedding, K = drawn
    report = OperatorValuedWeight(embedding, K).validate()
    assert report.passed and report.max_residual <= _bound(_commutant_map(embedding, K))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(positive_commutants(), st.data())
def test_one_eigenvalue_below_twice_the_bound_is_a_positivity_violation(drawn, data):
    embedding, K = drawn
    ij = data.draw(st.sampled_from(sorted(K)))
    w, u = np.linalg.eigh(K[ij])
    w[0] = -3.0 * _bound(_commutant_map(embedding, K))
    K[ij] = (u * w) @ u.conj().T
    mat = _commutant_map(embedding, K)
    assume(np.linalg.eigvalsh(K[ij])[0] < -2.0 * _bound(mat))
    with pytest.raises(ValidationError, match="^positivity violated"):
        OperatorValuedWeight(embedding, K).validate()


def _random_commutants(rng, embedding, kind):
    """A random, non-diagonal K_ij for every (i, j): "general" (neither
    Hermitian nor positive), "psd" (G G*) or "indefinite" (Hermitian, with
    eigenvalues of both signs when r > 1, and negative when r = 1)."""
    K = {}
    for ij, offsets in _copies(embedding).items():
        r = len(offsets)
        g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        if kind == "psd":
            g = g @ g.conj().T
        elif kind == "indefinite":
            w, u = np.linalg.eigh(g + g.conj().T)
            w[0] = -1.0 - abs(w[0])
            if r > 1:
                w[-1] = 1.0 + abs(w[-1])
            g = (u * w) @ u.conj().T
        K[ij] = g
    return K


def _dense_adjoint_residual(embedding, mat):
    """||T - T#||_F for T# the matrix of q -> T(q*)*, by the transposes of
    the flat coordinates of both algebras."""
    def transpose(alg):
        return np.concatenate([idx.T.reshape(-1) for idx in alg.coords])
    conj = np.conj(mat[transpose(embedding.source)][:, transpose(embedding.target)])
    return float(np.linalg.norm(mat - conj))


@pytest.mark.parametrize("kind", ["general", "psd", "indefinite"])
def test_maps_built_from_K_agree_with_the_commutant_map(kind):
    rng = np.random.default_rng(5)
    for embedding in EMBEDDINGS:
        K = _random_commutants(rng, embedding, kind)
        T = OperatorValuedWeight(embedding, K)
        mat = _commutant_map(embedding, K)
        q = random_element(make_rng(6), embedding.target)
        got = flatten_element(T.apply(q))
        assert np.abs(got - mat @ flatten_element(q)).max() <= 1e-14 * np.abs(mat).sum()
        adjoint = _dense_adjoint_residual(embedding, mat)
        if kind == "general":
            with pytest.raises(ValidationError, match="^adjoint law violated"):
                T.validate()
            assert adjoint > _bound(mat)
        elif kind == "indefinite":
            with pytest.raises(ValidationError, match="^positivity violated"):
                T.validate()
        else:
            assert T.validate().passed
            # the pushforward density is the trace-adjoint of the dense map
            mu = random_weight(make_rng(8), embedding.source)
            k = unflatten_element(embedding.target, mat.conj().T @ flatten_element(mu.density))
            assert distance(pushforward_weight(mu, T).density, (k + k.adjoint()) * 0.5) <= (
                1e-14 * np.abs(mat).sum() * operator_norm(mu.density))
        if kind != "general":
            assert adjoint <= _bound(mat)


# each pair (f, g) composes to g o f: M -> N -> O
CHAINS = [
    (EMBEDDINGS[0], BlockEmbedding(BlockAlgebra((2,)), BlockAlgebra((6,)), ((0, 0, 0),))),
    (EMBEDDINGS[2], BlockEmbedding(BlockAlgebra((3,)), BlockAlgebra((3, 6)), ((0,), (0, 0)))),
    (EMBEDDINGS[3], BlockEmbedding(BlockAlgebra((3, 2, 4)), BlockAlgebra((5, 7, 4)),
                                   ((0, 1), (0, 2), (1, 1)))),
]


@pytest.mark.parametrize("chain", range(len(CHAINS)))
def test_compose_agrees_with_the_product_of_commutant_maps(chain):
    f, g = CHAINS[chain]
    rng = np.random.default_rng(7)
    T_K, S_K = (_random_commutants(rng, e, "general") for e in (f, g))
    T, S = OperatorValuedWeight(f, T_K), OperatorValuedWeight(g, S_K)
    composed = T.compose(S)
    assert composed.embedding == g.compose(f)
    want = _commutant_map(f, T_K) @ _commutant_map(g, S_K)
    got = _commutant_map(composed.embedding, composed.K)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
