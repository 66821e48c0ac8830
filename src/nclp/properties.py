"""Seeded property suite shared by ``nclp verify`` and the test harness.

Each law is a draw and a check.  ``draw_<law>(rng, cfg)`` makes every read
of the trial's generator and returns the random instance; it reads
``cfg.tolerances`` only where a sampler needs a policy.  Laws with the
same instances share a draw.  ``check_<law>(tol, *instance)`` runs the
library on the instance and returns (residual, bound), with a bound it
states: the configured tolerance, the library's own (the cocycle identity),
or a named slack (e.g. the imaginary-grading witness ladder at
lpspace.LADDER_SLACK).  A law that no residual measures, such as "a
mismatched grading is refused", raises an AssertionError that names the
law, which run_suite reports as the trial's first_crash.  As the check
reads no generator, a trial that raises leaves it where a passing one
does, and the next trial draws the same instance either way.

LAWS maps each name to its (draw, check) pair.  PROPERTIES holds the same
laws as trials (rng, cfg) -> (passed, residual), and _trial, which builds
them, is the one place a residual meets its bound: passed is
residual <= bound, so a NaN residual fails.  Identical configs produce
identical reports.
"""

from __future__ import annotations

import cmath
import json
import math
import time

import numpy as np

from . import decomp, lpspace, serialize, weights
from .errors import GradingError, NotModuleMapError
from .graded import GradedElement
from .matcore import (
    DEFAULT_TOL,
    BlockAlgebra,
    Element,
    Tolerances,
    _eigvalsh,
    _index,
    _setfield,
    _Value,
    distance,
    operator_norm,
    power_pos,
    spectral_projection,
    trace,
)
from .oracle import oracle_commutative
from .sampling import (
    random_conditioned,
    random_element,
    random_graded,
    random_positive,
    random_projection,
    random_shape,
    random_weight,
    spawn_rng,
)

DEFAULT_SHAPES = ((1,), (2,), (1, 1), (3,), (2, 2))

DEFAULT_GRADINGS = (
    (complex(0.5, 0.0), complex(0.5, 0.0)),
    (complex(1 / 3, 0.7), complex(2 / 3, -0.4)),
    (complex(0.0, 1.1), complex(1.0, 0.3)),
    (complex(1.5, -0.8), complex(0.0, 0.9)),
    (complex(1.0, 0.2), complex(0.5, -1.0)),
    (complex(0.0, 0.6), complex(0.0, -0.6)),
    (complex(1.5, 0.4), complex(1.5, -0.3)),
)


class SuiteConfig(_Value):
    """Seed, trial count, instance space, and tolerances for one run."""

    _fields = ("seed", "trials", "block_shapes", "gradings", "tolerances")

    def __init__(self, seed: int = 42, trials: int = 50, block_shapes: tuple = DEFAULT_SHAPES,
                 gradings: tuple = DEFAULT_GRADINGS, tolerances: Tolerances = DEFAULT_TOL):
        seed = _index(seed, "seed") & (2 ** 64 - 1)
        trials = _index(trials, "trials")
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        shapes = tuple(BlockAlgebra(s).block_dims for s in block_shapes)
        pairs = tuple((complex(a), complex(b)) for a, b in gradings)
        if not (shapes and pairs):
            raise ValueError("block_shapes and gradings must be nonempty")
        for a, b in pairs:
            if not (cmath.isfinite(a) and cmath.isfinite(b) and a.real >= 0 and b.real >= 0):
                raise ValueError(f"gradings must be finite with Re >= 0, got ({a}, {b})")
        _setfield(self, "seed", seed)
        _setfield(self, "trials", trials)
        _setfield(self, "block_shapes", shapes)
        _setfield(self, "gradings", pairs)
        _setfield(self, "tolerances", tolerances)

    @classmethod
    def from_obj(cls, obj: dict) -> SuiteConfig:
        kwargs = {**obj}   # TypeError on a non-object, and in cls() on an unknown key
        if "gradings" in kwargs:
            kwargs["gradings"] = serialize._read_array(kwargs["gradings"], "gradings", 2)
        if "tolerances" in kwargs:
            kwargs["tolerances"] = Tolerances(**kwargs["tolerances"])
        return cls(**kwargs)


# shrink below the minimal Douglas constant c: a miss of about 2e-3 c^2 0.2^2 on random_conditioned
DOUGLAS_SHRINK = 1e-3
# a noncentral flow moves a random element by O(1), where rounding moves it by ~1e-16
FLOW_MOVES = 1e-6
# relative slack between the matrix path and the oracle's closed form: rounding alone
ORACLE_SLACK = 1e-12


# -- instance helpers ------------------------------------------------------


def _algebra(rng, cfg) -> BlockAlgebra:
    return random_shape(rng, cfg.block_shapes)


def _algebra_with_room(rng, cfg) -> BlockAlgebra:
    shapes = [s for s in cfg.block_shapes if sum(s) >= 2]
    return random_shape(rng, shapes) if shapes else BlockAlgebra((2,))


def _pair(rng, cfg):
    return cfg.gradings[int(rng.integers(0, len(cfg.gradings)))]


def _pair_real_left(rng, cfg):
    pairs = [p for p in cfg.gradings if p[0].real > cfg.tolerances.eq_abs]
    if not pairs:
        return complex(0.5, 0.3), complex(0.5, -0.2)
    return pairs[int(rng.integers(0, len(pairs)))]


def _imaginary(rng) -> complex:
    return complex(0.0, float(rng.uniform(-2.0, 2.0)))


def _exponent(rng) -> complex:
    return complex(rng.uniform(0.0, 1.5), rng.uniform(-2.0, 2.0))


def _min_eig(blocks) -> float:
    """The lowest eigenvalue of the Hermitian parts of the matrices in blocks."""
    return min(float(_eigvalsh((b + b.conj().T) / 2).min()) for b in blocks)


# -- matcore laws ----------------------------------------------------------


def draw_power_addition(rng, cfg):
    return random_positive(rng, _algebra(rng, cfg)), _exponent(rng), _exponent(rng)


def check_power_addition(tol, h, a, b):
    lhs = power_pos(h, a, tol) @ power_pos(h, b, tol)
    rhs = power_pos(h, a + b, tol)
    return distance(lhs, rhs), tol.eq_bound(operator_norm(rhs))


def draw_power_adjoint(rng, cfg):
    return random_positive(rng, _algebra(rng, cfg)), _exponent(rng)


def check_power_adjoint(tol, h, a):
    p = power_pos(h, a, tol)
    return distance(p.adjoint(), power_pos(h, a.conjugate(), tol)), tol.eq_bound(operator_norm(p))


def draw_element_pair(rng, cfg):
    M = _algebra(rng, cfg)
    return random_element(rng, M), random_element(rng, M)


def check_operator_norm_laws(tol, x, y):
    nx, ny = operator_norm(x), operator_norm(y)
    resid = max(0.0, operator_norm(x @ y) - nx * ny, operator_norm(x + y) - nx - ny)
    return resid, tol.eq_bound(nx * ny + 1.0)


def check_trace_cyclicity(tol, x, y):
    # an exact identity: only the absolute tolerance applies
    return abs(trace(x @ y) - trace(y @ x)), tol.eq_abs


def draw_spectral_projection_laws(rng, cfg):
    h = random_positive(rng, _algebra(rng, cfg))
    return h, float(rng.uniform(0.0, 1.1 * operator_norm(h)))


def check_spectral_projection_laws(tol, h, c):
    p = spectral_projection(h, c, tol)
    resid = max(distance(p @ h, h @ p),
                distance(p @ p, p),
                distance(p.adjoint(), p))
    low = p @ h @ p - c * p
    return max(resid, 0.0, -_min_eig(low.blocks)), tol.eq_bound(operator_norm(h))


# -- weight laws -------------------------------------------------------------


def draw_modular_group_law(rng, cfg):
    M = _algebra(rng, cfg)
    mu = random_weight(rng, M)
    a, b = _imaginary(rng), _imaginary(rng)
    return mu, a, b, random_element(rng, M), random_element(rng, M)


def check_modular_group_law(tol, mu, a, b, p, q):
    sig = weights.modular_automorphism
    resid = max(
        distance(sig(mu, a, sig(mu, b, p, tol), tol), sig(mu, a + b, p, tol)),
        distance(sig(mu, a, p @ q, tol), sig(mu, a, p, tol) @ sig(mu, a, q, tol)),
        distance(sig(mu, a, p.adjoint(), tol), sig(mu, a, p, tol).adjoint()))
    return resid, tol.eq_bound(operator_norm(p) * (1 + operator_norm(q)))


def draw_modular_invariance(rng, cfg):
    M = _algebra(rng, cfg)
    return random_weight(rng, M), random_element(rng, M), _imaginary(rng)


def check_modular_invariance(tol, mu, p, a):
    moved = weights.modular_automorphism(mu, a, p, tol)
    resid = abs(weights.evaluate(mu, moved) - weights.evaluate(mu, p))
    return resid, tol.eq_bound(abs(weights.evaluate(mu, p)) + 1.0)


def draw_modular_trivial_iff_central(rng, cfg):
    M = _algebra(rng, cfg)
    return random_element(rng, M), 0.5 + rng.uniform(0.0, 2.0, size=len(M.block_dims))


def check_modular_trivial_iff_central(tol, p, lams):
    M = p.algebra
    central = weights.Weight(Element(M, tuple(
        lam * np.eye(n, dtype=complex) for lam, n in zip(lams, M.block_dims))))
    resid = max(distance(weights.modular_automorphism(central, a, p, tol), p)
                for a in (1j, -0.7j, 0.33j))
    if any(n >= 2 for n in M.block_dims):
        # a noncentral density must move some element
        skew = weights.Weight(Element(M, tuple(
            np.diag(1.0 + np.arange(n)).astype(complex) for n in M.block_dims)))
        moved = max(distance(weights.modular_automorphism(skew, a, p, tol), p)
                    for a in (1j, -0.7j))
        if not moved > FLOW_MOVES:
            raise AssertionError("the flow of a noncentral density moves nothing")
    return resid, tol.eq_bound(operator_norm(p))


def draw_cocycle_supports(rng, cfg):
    M = _algebra(rng, cfg)
    nu, a = random_weight(rng, M), _imaginary(rng)
    return nu, a, random_weight(rng, M), random_weight(rng, M, faithful=False)


def check_cocycle_supports(tol, nu, a, mu_faithful, mu_partial):
    u = weights.connes_cocycle(mu_faithful, nu, a, tol)
    v = weights.connes_cocycle(nu, mu_faithful, a, tol)
    w = weights.connes_cocycle(mu_partial, nu, a, tol)
    resid = max(distance(u @ v, mu_faithful.support),
                distance(w @ w.adjoint(), mu_partial.support),
                max(0.0, operator_norm(w.adjoint() @ w) - 1.0))
    return resid, tol.eq_bound(1.0)


def draw_cocycle_chain_rule(rng, cfg):
    M = _algebra(rng, cfg)
    return (*(random_weight(rng, M) for _ in range(3)), _imaginary(rng))


def check_cocycle_chain_rule(tol, mu, nu, rho, a):
    lhs = weights.connes_cocycle(mu, nu, a, tol) @ weights.connes_cocycle(nu, rho, a, tol)
    return distance(lhs, weights.connes_cocycle(mu, rho, a, tol)), tol.eq_bound(1.0)


def draw_cocycle_identity(rng, cfg):
    M = _algebra(rng, cfg)
    mu = random_weight(rng, M, faithful=bool(rng.integers(0, 2)))
    return mu, random_weight(rng, M), _imaginary(rng), _imaginary(rng)


def check_cocycle_identity(tol, mu, nu, a, b):
    report = weights.cocycle_identity_check(mu, nu, a, b, tol)
    return report.max_residual, report.bound


def draw_change_of_weight_coherence(rng, cfg):
    M = _algebra(rng, cfg)
    mu, nu, rho = (random_weight(rng, M) for _ in range(3))
    a, _ = _pair(rng, cfg)
    return mu, nu, rho, a, random_element(rng, M)


def check_change_of_weight_coherence(tol, mu, nu, rho, a, x):
    via = weights.change_of_weight(
        weights.change_of_weight(x, a, mu, nu, tol), a, nu, rho, tol)
    direct = weights.change_of_weight(x, a, mu, rho, tol)
    resid = max(distance(via, direct),
                distance(weights.change_of_weight(x, a, mu, mu, tol), x),
                distance(weights.change_of_weight(x, 0.0, mu, nu, tol), x))
    return resid, tol.eq_bound(operator_norm(direct) + operator_norm(x))


def draw_pushforward_laws(rng, cfg):
    # towers over blocks of size <= 3 only: widening the draw would change
    # the seeded stream, and with it every report of this property
    shapes = [s for s in cfg.block_shapes if sum(s) <= 3]
    M = random_shape(rng, shapes) if shapes else BlockAlgebra((2,))
    reps = [int(rng.integers(1, 3)) for _ in M.block_dims]
    slot_weights = [float(w) for w in rng.uniform(0.5, 2.0, size=sum(reps))]
    return random_weight(rng, M), reps, slot_weights


def check_pushforward_laws(tol, mu, reps, slot_weights):
    M = mu.density.algebra
    row = tuple(i for i, r in enumerate(reps) for _ in range(r))
    N = BlockAlgebra((sum(r * n for r, n in zip(reps, M.block_dims)),))
    T = weights.OperatorValuedWeight.from_compression(
        weights.BlockEmbedding(M, N, (row,)), slot_weights)
    push = weights.pushforward_weight(mu, T, tol)
    resid = weights._pushforward_residual(mu, push, T)
    S = weights.OperatorValuedWeight.from_compression(
        weights.BlockEmbedding(N, BlockAlgebra((2 * N.block_dims[0],)), ((0, 0),)))
    stacked = weights.pushforward_weight(push, S, tol)
    direct = weights.pushforward_weight(mu, T.compose(S), tol)
    resid = max(resid, distance(stacked.density, direct.density))
    return resid, tol.eq_bound(operator_norm(mu.density) * max(slot_weights) * 2)


# -- decomposition laws ------------------------------------------------------


def draw_polar_laws(rng, cfg):
    M = _algebra(rng, cfg)
    return (random_element(rng, M) @ random_projection(rng, M),)


def check_polar_laws(tol, x):
    right = decomp.polar_right(x, tol)
    left = decomp.polar_left(x, tol)
    u, z = right.isometry, right.positive
    resid = max(
        distance(u @ z, x),
        distance(left.positive @ left.isometry, x),
        distance(left.isometry, u),
        distance(u.adjoint() @ u, decomp.right_support(x, tol)),
        distance(u @ u.adjoint(), decomp.left_support(x, tol)),
        distance(u.adjoint() @ u, decomp.right_support(z, tol)),
        distance(u @ u.adjoint() @ u, u))
    return resid, tol.eq_bound(operator_norm(x) + 1.0)


def draw_douglas(rng, cfg):
    M = _algebra(rng, cfg)
    x = random_conditioned(rng, M, cfg.tolerances)
    return x, random_element(rng, M) @ x


def check_douglas_division(tol, x, y):
    result = decomp.douglas_divide(x, y, tol)
    p = result.quotient
    resid = max(
        distance(p @ x, y),
        distance(p @ decomp.left_support(x, tol), p),
        distance(decomp.left_support(p, tol), decomp.left_support(y, tol)),
        abs(result.minimal_c - operator_norm(p)))
    return resid, tol.eq_bound(operator_norm(y) + 1.0)


def draw_douglas_uniqueness(rng, cfg):
    x, y = draw_douglas(rng, cfg)
    return x, y, random_element(rng, x.algebra)


def check_douglas_uniqueness(tol, x, y, r):
    p = decomp.douglas_divide(x, y, tol).quotient
    lsup = decomp.left_support(x, tol)
    other = p + r @ (x.algebra.identity() - lsup)
    resid = max(distance(other @ x, y),
                distance(other @ lsup, p))
    return resid, tol.eq_bound(operator_norm(y) + operator_norm(other))


def check_douglas_minimal_constant(tol, x, y):
    if operator_norm(y) == 0.0:   # y = r @ x vanishes exactly when the drawn x does
        return 0.0, tol.eq_bound(1.0)   # the bound below, at y*y = 0
    c = decomp.douglas_divide(x, y, tol).minimal_c
    gram_x, gram_y = x.adjoint() @ x, y.adjoint() @ y
    low_at_c = _min_eig((c ** 2 * gram_x - gram_y).blocks)
    # a smaller constant fails on the support of x: y = r @ x vanishes on
    # its kernel, where every constant holds and only rounding decides, so
    # the difference is compressed to the kept right singular vectors of x
    shrunk = (c * (1.0 - DOUGLAS_SHRINK)) ** 2
    compressed = [v[kept] @ b @ v[kept].conj().T
                  for (_, _, vh, keep), diff in zip(decomp._svd_support(x, tol),
                                                    (shrunk * gram_x - gram_y).stacks)
                  for v, kept, b in zip(vh, keep, diff) if kept.any()]
    if not _min_eig(compressed) < 0.0:
        raise AssertionError("a constant below the minimal one still majorizes")
    # max keeps a NaN only in first place, so it fails
    return max(-low_at_c, 0.0), tol.eq_bound(operator_norm(gram_y) + 1.0)


def check_douglas_ladder(tol, x, y):
    gaps = [g for _, g in decomp.douglas_ladder(x, y, tol=tol)]
    slack = tol.eq_bound(operator_norm(y) + 1.0)
    if not all(gaps[i + 1] <= gaps[i] + slack for i in range(len(gaps) - 1)):
        raise AssertionError("the gaps of the Douglas ladder increase")
    return gaps[-1], slack


def draw_isometry_division(rng, cfg):
    x, = draw_polar_laws(rng, cfg)
    return x, random_element(rng, x.algebra)


def check_isometry_division(tol, x, w):
    y = decomp.polar_right(w, tol).isometry @ x  # same Gram as x
    p = decomp.isometry_divide(x, y, tol)
    resid = max(
        distance(p @ x, y),
        distance(p.adjoint() @ p, decomp.left_support(x, tol)),
        distance(p.adjoint() @ y, x))
    return resid, tol.eq_bound(operator_norm(x) + 1.0)


def draw_cyclic_generator_membership(rng, cfg):
    M = _algebra(rng, cfg)
    a, _ = _pair(rng, cfg)
    gens = [random_graded(rng, M, a) for _ in range(int(rng.integers(1, 5)))]
    return gens, (random_weight(rng, M), random_weight(rng, M))


def check_cyclic_generator_membership(tol, gens, mus):
    worst = 0.0
    scale = max(operator_norm(g.data) for g in gens) + 1.0
    for mu in mus:
        y, qs, cert = decomp.cyclic_generator(gens, mu, tol)
        worst = max(worst, *(distance(g.data, q @ y.data) for g, q in zip(gens, qs)))
        rebuilt = y.algebra.zero()
        for c, g in zip(cert, gens):
            rebuilt = rebuilt + c @ g.data
        worst = max(worst, distance(rebuilt, y.data))
    return worst, tol.eq_bound(scale)


def draw_graded_division_grading(rng, cfg):
    M = _algebra(rng, cfg)
    a, _ = _pair(rng, cfg)
    b = complex(a.real, float(rng.uniform(-2.0, 2.0)))
    x = GradedElement(random_conditioned(rng, M, cfg.tolerances), a)
    y = GradedElement(random_element(rng, M) @ x.data, b)
    return x, y, random_element(rng, M)


def check_graded_division_grading(tol, x, y, other):
    a, b = x.grading, y.grading
    q = decomp.graded_divide(x, y, tol)
    resid = max(distance(q.data @ x.data, y.data), abs(q.grading - (b - a)))
    try:
        decomp.graded_divide(x, GradedElement(other, complex(a.real + 0.25, 0.0)), tol)
    except GradingError:
        pass
    else:
        raise AssertionError("a division across real gradings is accepted")
    zero = decomp.graded_divide(
        x, GradedElement(x.algebra.zero(), complex(a.real + 0.25, 0.0)), tol)
    resid = max(resid, operator_norm(zero.data))
    return resid, tol.eq_bound(operator_norm(y.data) + 1.0)


# -- graded-space laws -------------------------------------------------------


def draw_quasinorm_triangle(rng, cfg):
    M = _algebra(rng, cfg)
    a, _ = _pair(rng, cfg)
    return random_graded(rng, M, a), random_graded(rng, M, a)


def check_quasinorm_triangle(tol, xi, eta):
    a = xi.grading
    nx, ny = lpspace.lnorm(xi, tol), lpspace.lnorm(eta, tol)
    ns = lpspace.lnorm(xi + eta, tol)
    r = max(1.0, a.real)
    resid = max(0.0, ns ** (1.0 / r) - nx ** (1.0 / r) - ny ** (1.0 / r))
    if a.real >= 1.0:
        crude = ns - 2.0 ** (a.real - 1.0) * (nx + ny)
        resid = max(resid, crude)
    return resid, tol.eq_bound(nx + ny + 1.0)


def draw_graded_pair(rng, cfg):
    M = _algebra(rng, cfg)
    a, b = _pair(rng, cfg)
    return random_graded(rng, M, a), random_graded(rng, M, b)


def check_holder_inequality(tol, xi, eta):
    bound_val = lpspace.lnorm(xi, tol) * lpspace.lnorm(eta, tol)
    resid = max(0.0, lpspace.lnorm(lpspace.gmul(xi, eta), tol) - bound_val)
    return resid, tol.eq_bound(bound_val + 1.0)


def draw_holder_witness_equality(rng, cfg):
    M = _algebra(rng, cfg)
    a, b = _pair_real_left(rng, cfg)
    return random_graded(rng, M, a), b


def check_holder_witness_equality(tol, xi, b):
    y = lpspace.holder_witness(xi, b, tol)
    lhs = lpspace.lnorm(lpspace.gmul(xi, y), tol)
    rhs = lpspace.lnorm(xi, tol) * lpspace.lnorm(y, tol)
    return abs(lhs - rhs), max(lpspace.HOLDER_SLACK * rhs, tol.eq_bound(rhs))


def draw_holder_witness_ladder(rng, cfg):
    M = _algebra(rng, cfg)
    _, b = _pair(rng, cfg)
    return random_graded(rng, M, _imaginary(rng)), b


def check_holder_witness_ladder(tol, xi, b):
    nrm = operator_norm(xi.data)
    best = 0.0
    for k in range(1, lpspace.HOM_LADDER_STEPS + 1):
        c = nrm * (1.0 - 10.0 ** (-k))
        y = lpspace.holder_witness_imaginary(xi, b, c, tol)
        ny = lpspace.lnorm(y, tol)
        ratio = lpspace.lnorm(lpspace.gmul(xi, y), tol) / ny
        if ratio < c - tol.eq_bound(nrm):
            return c - ratio, tol.eq_bound(nrm)
        best = max(best, ratio)
    resid = max(0.0, nrm - best)
    return resid, max(lpspace._hom_norm_slack(xi.grading, tol) * nrm, tol.eq_bound(nrm))


def draw_tensor_isometry_sandwich(rng, cfg):
    M = _algebra(rng, cfg)
    a, b = _pair(rng, cfg)
    return random_graded(rng, M, a + b), a, b


def check_tensor_isometry_sandwich(tol, zeta, a, b):
    first, second = lpspace.comultiply(zeta, (a, b), tol)
    z = lpspace.TensorElement(zeta.algebra, a, b, ((first, second),))
    upper = lpspace.turpin_upper(z, tol)
    target = lpspace.lnorm(zeta, tol)
    return abs(upper - target), max(lpspace.HOLDER_SLACK * target, tol.eq_bound(target + 1.0))


def draw_tensor_roundtrip(rng, cfg):
    M = _algebra(rng, cfg)
    a, b = _pair(rng, cfg)
    pairs = tuple((random_graded(rng, M, a), random_graded(rng, M, b))
                  for _ in range(int(rng.integers(1, 4))))
    return M, a, b, pairs


def check_tensor_roundtrip(tol, M, a, b, pairs):
    prod = lpspace.tensor_multiply(lpspace.TensorElement(M, a, b, pairs))
    back = lpspace.tensor_multiply(lpspace.TensorElement(
        M, a, b, (lpspace.comultiply(prod, (a, b), tol),)))
    return lpspace.lnorm(back - prod, tol), tol.eq_bound(lpspace.lnorm(prod, tol) + 1.0)


def draw_multiplication_injectivity(rng, cfg):
    M = _algebra_with_room(rng, cfg)
    a, b = _pair(rng, cfg)
    h = random_positive(rng, M)
    return a, b, h, random_element(rng, M), random_element(rng, M), random_weight(rng, M)


def check_multiplication_injectivity(tol, a, b, h, r, s, mu):
    # orthogonal projections force gmul(xi, eta) = 0
    lams = sorted(lam for blk in h.blocks for lam in _eigvalsh(blk).tolist())
    mid = (lams[(len(lams) - 1) // 2] + lams[len(lams) // 2]) / 2.0   # their median
    p = spectral_projection(h, max(mid, 1e-6), tol)
    xi = GradedElement(r @ p, a)
    eta = GradedElement((h.algebra.identity() - p) @ s, b)
    x1, y1 = decomp.rank1_reduce([(xi, eta)], mu, tol)
    # the rank-1 form must be provably zero: either the left factor vanishes
    # outright or its right support annihilates the right factor
    vanishing = min(operator_norm(x1.data),
                    operator_norm(decomp.right_support(x1.data, tol) @ y1.data))
    resid = max(operator_norm(xi.data @ eta.data),
                operator_norm(x1.data @ y1.data),
                vanishing)
    return resid, tol.eq_bound(operator_norm(xi.data) * operator_norm(eta.data) + 1.0)


def draw_hom(rng, cfg):
    M = _algebra(rng, cfg)
    a, b = _pair(rng, cfg)
    return random_graded(rng, M, a), b


def draw_hom_roundtrip(rng, cfg):
    xi, b = draw_hom(rng, cfg)
    # a random (D, D) matrix N is no multiplication: its residual is that of
    # the perturbed map L_xi + N, with no D x D complex array beside it
    D = xi.algebra.total_dim
    return xi, b, rng.standard_normal((D, D))


def check_hom_roundtrip(tol, xi, b, noise):
    M, a = xi.algebra, xi.grading
    back = lpspace.hom_to_element(lpspace.hom_from_element(xi, b, tol), tol)
    resid = max(distance(back.data, xi.data), abs(back.grading - a))
    try:
        lpspace.hom_to_element(lpspace.ModuleHom(M, b, a + b, noise, tol), tol)
    except NotModuleMapError:
        pass
    else:
        if M.total_dim > 1:  # on C every linear map is a multiplication
            raise AssertionError("a map that is no left multiplication is accepted")
    return resid, tol.eq_bound(operator_norm(xi.data) + 1.0)


def check_hom_norm_agreement(tol, xi, b):
    T = lpspace.hom_from_element(xi, b, tol)
    target = lpspace.lnorm(xi, tol)
    reported, certified = lpspace.hom_norm_certificate(T, tol)
    resid = max(abs(reported - target), max(0.0, reported - certified))
    slack = lpspace._hom_norm_slack(xi.grading, tol)
    return resid, max(slack * (target + 1.0), tol.eq_bound(target + 1.0))


def check_grading_adjoint(tol, xi, eta):
    lhs = lpspace.gmul(xi, eta).adjoint()
    rhs = lpspace.gmul(eta.adjoint(), xi.adjoint())
    resid = max(distance(lhs.data, rhs.data),
                abs(lhs.grading - (xi.grading + eta.grading).conjugate()))
    return resid, tol.eq_bound(operator_norm(lhs.data) + 1.0)


def draw_norm_grading_link(rng, cfg):
    M = _algebra_with_room(rng, cfg)
    a, _ = _pair(rng, cfg)
    return random_graded(rng, M, a), complex(rng.standard_normal(), rng.standard_normal())


def check_norm_grading_link(tol, xi, lam):
    M, a = xi.algebra, xi.grading
    resid = abs(lpspace.lnorm(lam * xi, tol) - abs(lam) * lpspace.lnorm(xi, tol))
    # two orthogonally supported unit positives pin Re a through 2^Re a
    flat = np.zeros(M.matrix_dim)
    flat[0] = 1.0
    other = np.zeros(M.matrix_dim)
    other[1] = 1.0
    blocks_p, blocks_q, pos = [], [], 0
    for n in M.block_dims:
        blocks_p.append(np.diag(flat[pos:pos + n]).astype(complex))
        blocks_q.append(np.diag(other[pos:pos + n]).astype(complex))
        pos += n
    p = GradedElement(Element(M, tuple(blocks_p)), a)
    q = GradedElement(Element(M, tuple(blocks_q)), a)
    expected = 2.0 ** a.real if a.real > tol.eq_abs else 1.0
    resid = max(resid, abs(lpspace.lnorm(p + q, tol) - expected))
    return resid, tol.eq_bound(lpspace.lnorm(xi, tol) + expected)


# -- harness laws ------------------------------------------------------------


def draw_oracle_agreement(rng, cfg):
    k = int(rng.integers(1, 7))
    f = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    mu = rng.uniform(0.1, 3.0, size=k)
    return f, mu, complex(rng.uniform(0.05, 2.0), rng.uniform(-2.0, 2.0))


def check_oracle_agreement(tol, f, mu, a):
    M = BlockAlgebra((1,) * len(f))
    h = Element(M, tuple(np.array([[m]], dtype=complex) for m in mu))
    x = Element(M, tuple(np.array([[v]], dtype=complex) for v in f))
    matrix_path = lpspace.lnorm(GradedElement(x @ power_pos(h, a, tol), a), tol)
    scalar_path = oracle_commutative(f.tolist(), a, mu.tolist())
    return abs(matrix_path - scalar_path), ORACLE_SLACK * max(scalar_path, 1.0)


def draw_serialization_roundtrip(rng, cfg):
    M = _algebra(rng, cfg)
    a, _ = _pair(rng, cfg)
    return random_graded(rng, M, a), random_weight(rng, M)


def check_serialization_roundtrip(tol, xi, mu):
    for obj in (serialize.element_to_obj(xi.data),
                serialize.graded_to_obj(xi),
                serialize.weight_to_obj(mu)):
        text = serialize.dumps(obj)
        if serialize.dumps(json.loads(text)) != text:
            raise AssertionError("a reprint of the JSON differs from the print")
    back = serialize.graded_from_obj(serialize.graded_to_obj(xi))
    return distance(back.data, xi.data) + abs(back.grading - xi.grading), 0.0


LAWS = {
    "matcore.power_addition": (draw_power_addition, check_power_addition),
    "matcore.power_adjoint": (draw_power_adjoint, check_power_adjoint),
    "matcore.operator_norm_laws": (draw_element_pair, check_operator_norm_laws),
    "matcore.spectral_projection_laws": (draw_spectral_projection_laws,
                                         check_spectral_projection_laws),
    "matcore.trace_cyclicity": (draw_element_pair, check_trace_cyclicity),
    "weights.modular_group_law": (draw_modular_group_law, check_modular_group_law),
    "weights.modular_invariance": (draw_modular_invariance, check_modular_invariance),
    "weights.modular_trivial_iff_central": (draw_modular_trivial_iff_central,
                                            check_modular_trivial_iff_central),
    "weights.cocycle_supports": (draw_cocycle_supports, check_cocycle_supports),
    "weights.cocycle_chain_rule": (draw_cocycle_chain_rule, check_cocycle_chain_rule),
    "weights.cocycle_identity": (draw_cocycle_identity, check_cocycle_identity),
    "weights.change_of_weight_coherence": (draw_change_of_weight_coherence,
                                           check_change_of_weight_coherence),
    "weights.pushforward_laws": (draw_pushforward_laws, check_pushforward_laws),
    "decomp.polar_laws": (draw_polar_laws, check_polar_laws),
    "decomp.douglas_division": (draw_douglas, check_douglas_division),
    "decomp.douglas_uniqueness": (draw_douglas_uniqueness, check_douglas_uniqueness),
    "decomp.douglas_minimal_constant": (draw_douglas, check_douglas_minimal_constant),
    "decomp.douglas_ladder": (draw_douglas, check_douglas_ladder),
    "decomp.isometry_division": (draw_isometry_division, check_isometry_division),
    "decomp.cyclic_generator_membership": (draw_cyclic_generator_membership,
                                           check_cyclic_generator_membership),
    "decomp.graded_division_grading": (draw_graded_division_grading,
                                       check_graded_division_grading),
    "lpspace.quasinorm_triangle": (draw_quasinorm_triangle, check_quasinorm_triangle),
    "lpspace.holder_inequality": (draw_graded_pair, check_holder_inequality),
    "lpspace.holder_witness_equality": (draw_holder_witness_equality,
                                        check_holder_witness_equality),
    "lpspace.holder_witness_ladder": (draw_holder_witness_ladder, check_holder_witness_ladder),
    "lpspace.tensor_isometry_sandwich": (draw_tensor_isometry_sandwich,
                                         check_tensor_isometry_sandwich),
    "lpspace.tensor_roundtrip": (draw_tensor_roundtrip, check_tensor_roundtrip),
    "lpspace.multiplication_injectivity": (draw_multiplication_injectivity,
                                           check_multiplication_injectivity),
    "lpspace.hom_roundtrip": (draw_hom_roundtrip, check_hom_roundtrip),
    "lpspace.hom_norm_agreement": (draw_hom, check_hom_norm_agreement),
    "lpspace.grading_adjoint": (draw_graded_pair, check_grading_adjoint),
    "lpspace.norm_grading_link": (draw_norm_grading_link, check_norm_grading_link),
    "cli.oracle_agreement": (draw_oracle_agreement, check_oracle_agreement),
    "cli.serialization_roundtrip": (draw_serialization_roundtrip, check_serialization_roundtrip),
}


def _trial(draw, check):
    """One trial of a law as (rng, cfg) -> (passed, residual): the one place
    a residual meets its bound, where a NaN residual fails."""
    def trial(rng, cfg):
        resid, bound = check(cfg.tolerances, *draw(rng, cfg))
        return resid <= bound, resid
    return trial


PROPERTIES = {name: _trial(draw, check) for name, (draw, check) in LAWS.items()}


def run_suite(cfg: SuiteConfig) -> dict:
    """Run every property cfg.trials times; deterministic given the config.

    Returns the report nclp verify prints: seed, trials, properties (name ->
    passed, failed, worst_residual and, if a trial crashed, first_crash),
    all_passed and duration_seconds.
    """
    start = time.monotonic()
    properties = {}
    for name in sorted(PROPERTIES):
        prop = PROPERTIES[name]
        rng = spawn_rng(cfg.seed, name)
        passed = failed = 0
        worst = 0.0
        crash = None
        for trial in range(cfg.trials):
            try:
                ok, resid = prop(rng, cfg)
            except Exception as exc:  # a crash counts as a failed trial
                ok, resid = False, float("inf")
                if crash is None:
                    crash = {"trial": trial, "type": type(exc).__name__,
                             "message": str(exc)}
            if ok:
                passed += 1
            else:
                failed += 1
            resid = float(resid)
            worst = max(worst, resid if math.isfinite(resid) else math.inf)
        properties[name] = {
            "passed": passed,
            "failed": failed,
            # null, as JSON has no inf: a trial crashed or gave a NaN or inf
            "worst_residual": worst if math.isfinite(worst) else None,
        }
        if crash is not None:
            properties[name]["first_crash"] = crash
    return {
        "seed": cfg.seed,
        "trials": cfg.trials,
        "properties": properties,
        "all_passed": not any(r["failed"] for r in properties.values()),
        "duration_seconds": time.monotonic() - start,
    }
