"""The lapack fixture: the factorizations a test makes, as matcore's funnel
records them; unchecked, the element of blocks that may hold a NaN or an
infinity; and _commutant_map, the dense matrix of a bimodule map built
independently of the library."""

import numpy as np
import pytest

from nclp import matcore
from nclp.matcore import Element, _svds, flatten_element


def unchecked(algebra, blocks) -> Element:
    """The element of blocks, built as the library builds its results
    (Element._of), past Element(...)'s finiteness check: so that a test can
    probe the checks downstream of the constructor with a NaN or an infinity."""
    return Element._of(algebra, [np.array([blocks[k] for k in idx], dtype=complex)
                                 for idx in algebra.classes])


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
    """The dense (dim M, dim N) matrix of the bimodule map T_K over embedding,
    T_K(q)_i = sum_j sum_{s,t} K_ij[s, t] q_j[copy t, copy s], applied to every
    matrix unit of N one at a time: the referee of every operation that
    OperatorValuedWeight carries out on K alone."""
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


class Lapack:
    """Installed as matcore's recorder, which sees every factorization the
    library takes: each SVD, eigh and eigvalsh, on LAPACK or on the 2 x 2
    kernels, a kernel call recorded, forbidden and failed as the LAPACK call
    it replaces.  calls holds one record (kind, compute_uv, shape) per call,
    in order: compute_uv is None but for an svd, and shape is that of the
    matrix or stack factorized.
    """

    def __init__(self):
        self.calls = []
        self._forbidden = set()
        self._errors = {}
        self.reset()

    def __call__(self, kind, compute_uv, shape):
        if kind in self._forbidden:
            pytest.fail(f"a forbidden {kind} was taken")
        self.calls.append((kind, compute_uv, shape))
        if kind in self._errors:
            raise self._errors[kind]

    def reset(self):
        """Forget the recorded calls and the full SVDs of the _svds LRU.

        An element keeps its singular values and its eigensystems for as
        long as it lives, which no reset empties: count on fresh elements,
        or on elements whose factorizations the test means to reuse.
        """
        self.calls.clear()
        _svds.cache_clear()

    def names(self) -> list:
        """The kind of each recorded call, "svdvals" for a values-only svd."""
        return ["svdvals" if kind == "svd" and not uv else kind for kind, uv, _ in self.calls]

    def of(self, kind) -> list:
        """(compute_uv, shape) of each recorded call of kind."""
        return [(uv, shape) for k, uv, shape in self.calls if k == kind]

    def forbid(self, *kinds):
        """Fail the test at any later call of one of kinds."""
        self._forbidden.update(kinds)

    def fail(self, kind, error):
        """Raise error in place of every later call of kind."""
        self._errors[kind] = error


@pytest.fixture
def lapack(monkeypatch):
    """A Lapack for one test, which starts with an empty full-SVD LRU; an
    element built earlier keeps its singular values and eigensystems."""
    recorder = Lapack()
    monkeypatch.setattr(matcore, "_recorder", recorder)
    return recorder
