"""Property tests: bimodule maps built from random relative-commutant matrices.

Every bimodule map N -> M over an embedding is T_K(q)_i =
sum_j sum_{s,t} K_ij[s, t] q_j[copy t, copy s], and it is positive exactly
when every K_ij is positive semidefinite.  The maps here are built from
that formula one basis element at a time, independently of validate().
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from nclp import (  # noqa: E402
    DEFAULT_TOL,
    BlockAlgebra,
    BlockEmbedding,
    Element,
    OperatorValuedWeight,
    ValidationError,
    flatten_element,
)

EMBEDDINGS = [
    BlockEmbedding(BlockAlgebra((1,)), BlockAlgebra((2,)), ((0, 0),)),
    BlockEmbedding(BlockAlgebra((2,)), BlockAlgebra((6,)), ((0, 0, 0),)),
    BlockEmbedding(BlockAlgebra((1, 1)), BlockAlgebra((3,)), ((0, 1, 0),)),
    BlockEmbedding(BlockAlgebra((1, 2)), BlockAlgebra((3, 2, 4)),
                   ((0, 1), (1,), (1, 0, 0))),
]


def _copies(embedding):
    """(i, j) -> offsets of the copies of source block i in target block j."""
    out = {}
    for j, row in enumerate(embedding.assignment):
        pos = 0
        for i in row:
            out.setdefault((i, j), []).append(pos)
            pos += embedding.source.block_dims[i]
    return out


def _commutant_map(embedding, K):
    """The matrix of T_K, applied to every matrix unit of N."""
    dims = embedding.source.block_dims

    def apply(q):
        out = [np.zeros((d, d), dtype=complex) for d in dims]
        for (i, j), offsets in _copies(embedding).items():
            d = dims[i]
            for s, ps in enumerate(offsets):
                for t, pt in enumerate(offsets):
                    out[i] += K[i, j][s, t] * q.blocks[j][pt:pt + d, ps:ps + d]
        return Element(embedding.source, out)

    return np.stack([flatten_element(apply(e)) for e in embedding.target.basis()], axis=1)


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
    report = OperatorValuedWeight(embedding, _commutant_map(embedding, K)).validate()
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
        OperatorValuedWeight(embedding, mat).validate()
