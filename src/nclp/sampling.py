"""Seeded random generators for elements, weights, and graded elements.

All randomness flows through numpy's PCG64 bit generator, so a seed pins
the entire stream across platforms.  Conventions: generic elements are
entrywise standard complex Gaussian, positives are g @ g*, and faithful
weight densities are g @ g* plus a small multiple of the identity.

The draw layout is part of the stream.  A random element is one
standard_normal(2 * total_dim) draw, read block after block as the n * n
real parts of the block, row-major, then its n * n imaginary parts: the
same values as two standard_normal((n, n)) draws per block.  A random
projection draws, block after block, its g in that layout and then its
rank.  Both are built straight into the size-class stacks of Element.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

import numpy as np

from .decomp import polar_right
from .graded import GradedElement
from .matcore import BlockAlgebra, Element, Tolerances, _h
from .weights import Weight

FAITHFUL_FLOOR = 1e-2


def make_rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def spawn_rng(seed, key: str) -> np.random.Generator:
    """Independent deterministic stream for a named suite property."""
    digest = np.frombuffer(key.encode(), dtype=np.uint8)
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([int(seed), *digest.tolist()])))


def _gaussian_stacks(algebra: BlockAlgebra, flat: np.ndarray) -> list:
    """Per size class, the (k, n, n) stack of the blocks re + 1j * im whose
    n * n real parts and then n * n imaginary parts follow one another in
    flat, block after block.  A class of consecutive blocks is read through
    a view of flat; the blocks of an interleaved class are gathered first.
    """
    dims = algebra.block_dims
    starts = list(accumulate((2 * n * n for n in dims), initial=0))
    out = []
    for idx in algebra.classes:
        n, k = dims[idx[0]], len(idx)
        if idx[-1] - idx[0] == k - 1:
            parts = flat[starts[idx[0]]:starts[idx[-1] + 1]]
        else:
            parts = np.concatenate([flat[starts[j]:starts[j + 1]] for j in idx])
        parts = parts.reshape(k, 2, n, n)
        out.append(parts[:, 0] + 1j * parts[:, 1])
    return out


def random_element(rng: np.random.Generator, algebra: BlockAlgebra) -> Element:
    flat = rng.standard_normal(2 * algebra.total_dim)
    return Element._of(algebra, [g / np.sqrt(2.0) for g in _gaussian_stacks(algebra, flat)])


def random_positive(rng: np.random.Generator, algebra: BlockAlgebra) -> Element:
    g = random_element(rng, algebra)
    return g @ g.adjoint()


def random_projection(rng: np.random.Generator, algebra: BlockAlgebra,
                      full_rank_ok: bool = True) -> Element:
    """Projection with a random rank per block (possibly 0 or full).

    Each block draws its g and then its rank, whose draw takes a number of
    bits that depends on its value; the rank-r block is the projection onto
    the first r eigenvectors of g + g*, from one batched eigh per class.
    """
    draws, ranks = [], []
    for n in algebra.block_dims:
        draws.append(rng.standard_normal(2 * n * n))
        hi = n if full_rank_ok else n - 1
        ranks.append(int(rng.integers(0, hi + 1)))
    stacks = []
    for idx, g in zip(algebra.classes, _gaussian_stacks(algebra, np.concatenate(draws))):
        _, u = np.linalg.eigh(g + _h(g))
        p = np.empty_like(u)
        for j, k in enumerate(idx):
            v = u[j, :, :ranks[k]]
            p[j] = v @ v.conj().T
        stacks.append(p)
    return Element._of(algebra, stacks)


def random_conditioned(rng: np.random.Generator, algebra: BlockAlgebra,
                       tol: Tolerances) -> Element:
    """x = u @ z with z >= 0.2 on its support: rank-deficient but not ill."""
    p = random_projection(rng, algebra)
    z = p @ random_positive(rng, algebra) @ p + 0.2 * p
    u = polar_right(random_element(rng, algebra) @ p, tol).isometry
    return u @ z


def random_weight(rng: np.random.Generator, algebra: BlockAlgebra,
                  faithful: bool = True) -> Weight:
    h = random_positive(rng, algebra)
    if faithful:
        h = h + FAITHFUL_FLOOR * algebra.identity()
    else:
        p = random_projection(rng, algebra)
        h = p @ h @ p
    return Weight(h)


def random_graded(rng: np.random.Generator, algebra: BlockAlgebra,
                  grading) -> GradedElement:
    return GradedElement(random_element(rng, algebra), complex(grading))


def random_shape(rng: np.random.Generator, shapes) -> BlockAlgebra:
    return _shape_algebra(tuple(shapes[int(rng.integers(0, len(shapes)))]))


@lru_cache(maxsize=64)
def _shape_algebra(block_dims: tuple) -> BlockAlgebra:
    """One BlockAlgebra per drawn shape, so its identity is built once."""
    return BlockAlgebra(block_dims)
