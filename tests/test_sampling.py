"""The seeded streams of nclp.sampling, pinned against per-block references.

Every trial, acceptance test and bench instance is drawn here, so a change
to how the samplers consume the generator would silently change every
seeded report.  The references below are the per-block samplers the
stacked ones replaced, kept verbatim.
"""

import hashlib

import numpy as np
import pytest

from nclp import DEFAULT_TOL, BlockAlgebra, Element, GradedElement, Weight, polar_right
from nclp.sampling import (
    FAITHFUL_FLOOR,
    make_rng,
    random_conditioned,
    random_element,
    random_graded,
    random_positive,
    random_projection,
    random_weight,
)


def ref_element(rng: np.random.Generator, algebra: BlockAlgebra) -> Element:
    blocks = []
    for n in algebra.block_dims:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks.append(g / np.sqrt(2.0))
    return Element(algebra, tuple(blocks))


def ref_projection(rng: np.random.Generator, algebra: BlockAlgebra,
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


def ref_positive(rng, algebra):
    g = ref_element(rng, algebra)
    return g @ g.adjoint()


def ref_conditioned(rng, algebra, tol):
    p = ref_projection(rng, algebra)
    z = p @ ref_positive(rng, algebra) @ p + 0.2 * p
    u = polar_right(ref_element(rng, algebra) @ p, tol).isometry
    return u @ z


def ref_weight(rng, algebra, faithful=True):
    h = ref_positive(rng, algebra)
    if faithful:
        h = h + FAITHFUL_FLOOR * algebra.identity()
    else:
        p = ref_projection(rng, algebra)
        h = p @ h @ p
    return Weight(h)


# name -> (sampler, reference), both called as f(rng, algebra)
SAMPLERS = {
    "element": (random_element, ref_element),
    "positive": (random_positive, ref_positive),
    "projection": (random_projection, ref_projection),
    "projection_not_full": (lambda rng, m: random_projection(rng, m, full_rank_ok=False),
                            lambda rng, m: ref_projection(rng, m, full_rank_ok=False)),
    "conditioned": (lambda rng, m: random_conditioned(rng, m, DEFAULT_TOL),
                    lambda rng, m: ref_conditioned(rng, m, DEFAULT_TOL)),
    "weight": (random_weight, ref_weight),
    "weight_not_faithful": (lambda rng, m: random_weight(rng, m, faithful=False),
                            lambda rng, m: ref_weight(rng, m, faithful=False)),
    "graded": (lambda rng, m: random_graded(rng, m, 0.5 + 0.25j),
               lambda rng, m: GradedElement(ref_element(rng, m), 0.5 + 0.25j)),
}

ALGEBRAS = [(1,), (2,), (1, 1), (3,), (2, 2), (2,) * 64, (3, 1, 2, 1, 3), (64,)]


def _stacks(value):
    if isinstance(value, Weight):
        return value.density.stacks
    if isinstance(value, GradedElement):
        return value.data.stacks
    return value.stacks


@pytest.mark.parametrize("name", sorted(SAMPLERS))
@pytest.mark.parametrize("dims", ALGEBRAS, ids=lambda d: "x".join(map(str, d))[:24])
def test_sampler_keeps_the_per_block_stream_bit_for_bit(name, dims):
    sampler, reference = SAMPLERS[name]
    algebra = BlockAlgebra(dims)
    for seed in (0, 7, 42):
        rng, ref_rng = make_rng(seed), make_rng(seed)
        got, want = sampler(rng, algebra), reference(ref_rng, algebra)
        # later draws of a trial read the generator where the reference left it
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        stacks = _stacks(got)
        assert len(stacks) == len(algebra.classes)
        for s, r in zip(stacks, _stacks(want)):
            assert s.dtype == np.complex128 and not s.flags.writeable
            assert s.shape == r.shape and s.tobytes() == r.tobytes()
        if isinstance(got, GradedElement):
            assert got.grading == want.grading


def test_random_element_stream_is_pinned():
    # PCG64 and elementwise arithmetic only, so this digest holds on any platform
    x = random_element(make_rng(42), BlockAlgebra((2, 1, 3)))
    digest = hashlib.sha256(b"".join(s.tobytes() for s in x.stacks)).hexdigest()
    assert digest == "3c90099519922c33a148832e54ed61c203db2998ca6a29876898e9c754d48a6c"
