"""Seeded random generators for elements, weights, and graded elements.

All randomness flows through numpy's PCG64 bit generator, so a seed pins
the entire stream across platforms.  Conventions: generic elements are
entrywise standard complex Gaussian, positives are g @ g*, and faithful
weight densities are g @ g* plus a small multiple of the identity.
"""

from __future__ import annotations

import numpy as np

from .decomp import polar_right
from .graded import GradedElement
from .matcore import BlockAlgebra, Element, Tolerances
from .weights import Weight

FAITHFUL_FLOOR = 1e-2


def make_rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def spawn_rng(seed, key: str) -> np.random.Generator:
    """Independent deterministic stream for a named suite property."""
    digest = np.frombuffer(key.encode(), dtype=np.uint8)
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([int(seed), *digest.tolist()])))


def random_element(rng: np.random.Generator, algebra: BlockAlgebra) -> Element:
    blocks = []
    for n in algebra.block_dims:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks.append(g / np.sqrt(2.0))
    return Element(algebra, tuple(blocks))


def random_positive(rng: np.random.Generator, algebra: BlockAlgebra) -> Element:
    g = random_element(rng, algebra)
    return g @ g.adjoint()


def random_projection(rng: np.random.Generator, algebra: BlockAlgebra,
                      full_rank_ok: bool = True) -> Element:
    """Projection with a random rank per block (possibly 0 or full)."""
    blocks = []
    for n in algebra.block_dims:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        _, u = np.linalg.eigh(g + g.conj().T)
        hi = n if full_rank_ok else n - 1
        r = int(rng.integers(0, hi + 1))
        blocks.append(u[:, :r] @ u[:, :r].conj().T)
    return Element(algebra, tuple(blocks))


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
    return BlockAlgebra(tuple(shapes[int(rng.integers(0, len(shapes)))]))
