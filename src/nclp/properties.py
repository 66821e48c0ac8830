"""Seeded property suite shared by ``nclp verify`` and the test harness.

Every property draws one random instance from the configured shapes and
gradings, computes a residual, and passes when the residual clears the
configured tolerance (a handful carry their own stated slack, e.g. the
imaginary-grading witness ladder at 1e-6).  Identical configs produce
identical reports.
"""

from __future__ import annotations

import cmath
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


# -- instance helpers ------------------------------------------------------


def _algebra(rng, cfg) -> BlockAlgebra:
    return random_shape(rng, cfg.block_shapes)


def _algebra_with_room(rng, cfg) -> BlockAlgebra:
    shapes = [s for s in cfg.block_shapes if sum(s) >= 2]
    return random_shape(rng, shapes) if shapes else BlockAlgebra((2,))


def _pair(rng, cfg):
    a, b = cfg.gradings[int(rng.integers(0, len(cfg.gradings)))]
    return a, b


def _pair_real_left(rng, cfg):
    pairs = [p for p in cfg.gradings if p[0].real > cfg.tolerances.eq_abs]
    if not pairs:
        return complex(0.5, 0.3), complex(0.5, -0.2)
    return pairs[int(rng.integers(0, len(pairs)))]


def _imaginary(rng) -> complex:
    return complex(0.0, float(rng.uniform(-2.0, 2.0)))


def _min_eig(blocks) -> float:
    """The lowest eigenvalue of the Hermitian parts of the matrices in blocks."""
    return min(float(_eigvalsh((b + b.conj().T) / 2).min()) for b in blocks)


# -- matcore properties ----------------------------------------------------


def prop_power_addition(rng, cfg):
    tol = cfg.tolerances
    h = random_positive(rng, _algebra(rng, cfg))
    a = complex(rng.uniform(0.0, 1.5), rng.uniform(-2.0, 2.0))
    b = complex(rng.uniform(0.0, 1.5), rng.uniform(-2.0, 2.0))
    lhs = power_pos(h, a, tol) @ power_pos(h, b, tol)
    rhs = power_pos(h, a + b, tol)
    resid = distance(lhs, rhs)
    return resid <= tol.eq_bound(operator_norm(rhs)), resid


def prop_power_adjoint(rng, cfg):
    tol = cfg.tolerances
    h = random_positive(rng, _algebra(rng, cfg))
    a = complex(rng.uniform(0.0, 1.5), rng.uniform(-2.0, 2.0))
    resid = distance(power_pos(h, a, tol).adjoint(), power_pos(h, a.conjugate(), tol))
    return resid <= tol.eq_bound(operator_norm(power_pos(h, a, tol))), resid


def prop_operator_norm_laws(rng, cfg):
    tol = cfg.tolerances
    M = _algebra(rng, cfg)
    x, y = random_element(rng, M), random_element(rng, M)
    sub = operator_norm(x @ y) - operator_norm(x) * operator_norm(y)
    tri = operator_norm(x + y) - operator_norm(x) - operator_norm(y)
    resid = max(0.0, sub, tri)
    return resid <= tol.eq_bound(operator_norm(x) * operator_norm(y) + 1.0), resid


def prop_spectral_projection_laws(rng, cfg):
    tol = cfg.tolerances
    h = random_positive(rng, _algebra(rng, cfg))
    c = float(rng.uniform(0.0, 1.1 * operator_norm(h)))
    p = spectral_projection(h, c, tol)
    resid = max(distance(p @ h, h @ p),
                distance(p @ p, p),
                distance(p.adjoint(), p))
    low = p @ h @ p - c * p
    resid = max(resid, 0.0, -_min_eig(low.blocks))
    return resid <= tol.eq_bound(operator_norm(h)), resid


def prop_trace_cyclicity(rng, cfg):
    # an exact identity: only the absolute tolerance applies
    M = _algebra(rng, cfg)
    x, y = random_element(rng, M), random_element(rng, M)
    resid = abs(trace(x @ y) - trace(y @ x))
    return resid <= cfg.tolerances.eq_abs, resid


# -- weight properties -----------------------------------------------------


def prop_modular_group_law(rng, cfg):
    tol = cfg.tolerances
    M = _algebra(rng, cfg)
    mu = random_weight(rng, M)
    a, b = _imaginary(rng), _imaginary(rng)
    p, q = random_element(rng, M), random_element(rng, M)
    sig = weights.modular_automorphism
    resid = max(
        distance(sig(mu, a, sig(mu, b, p, tol), tol), sig(mu, a + b, p, tol)),
        distance(sig(mu, a, p @ q, tol), sig(mu, a, p, tol) @ sig(mu, a, q, tol)),
        distance(sig(mu, a, p.adjoint(), tol), sig(mu, a, p, tol).adjoint()))
    return resid <= tol.eq_bound(operator_norm(p) * (1 + operator_norm(q))), resid


def prop_modular_invariance(rng, cfg):
    tol = cfg.tolerances
    M = _algebra(rng, cfg)
    mu = random_weight(rng, M)
    p = random_element(rng, M)
    moved = weights.modular_automorphism(mu, _imaginary(rng), p, tol)
    resid = abs(weights.evaluate(mu, moved) - weights.evaluate(mu, p))
    return resid <= tol.eq_bound(abs(weights.evaluate(mu, p)) + 1.0), resid


def prop_modular_trivial_iff_central(rng, cfg):
    tol = cfg.tolerances
    M = _algebra(rng, cfg)
    p = random_element(rng, M)
    lams = 0.5 + rng.uniform(0.0, 2.0, size=len(M.block_dims))
    central = weights.Weight(Element(M, tuple(
        lam * np.eye(n, dtype=complex) for lam, n in zip(lams, M.block_dims))))
    resid = max(distance(weights.modular_automorphism(central, a, p, tol), p)
                for a in (1j, -0.7j, 0.33j))
    ok = resid <= tol.eq_bound(operator_norm(p))
    if any(n >= 2 for n in M.block_dims):
        # a noncentral density must move some element
        blocks = []
        for n in M.block_dims:
            blocks.append(np.diag(1.0 + np.arange(n)).astype(complex))
        skew = weights.Weight(Element(M, tuple(blocks)))
        moved = max(distance(weights.modular_automorphism(skew, a, p, tol), p)
                    for a in (1j, -0.7j))
        ok = ok and moved > 1e-6
        resid = resid if moved > 1e-6 else max(resid, 1.0)
    return ok, resid


def prop_cocycle_supports(rng, cfg):
    tol = cfg.tolerances
    M = _algebra(rng, cfg)
    nu = random_weight(rng, M)
    a = _imaginary(rng)
    mu_faithful = random_weight(rng, M)
    u = weights.connes_cocycle(mu_faithful, nu, a, tol)
    v = weights.connes_cocycle(nu, mu_faithful, a, tol)
    resid = distance(u @ v, mu_faithful.support)
    mu_partial = random_weight(rng, M, faithful=False)
    w = weights.connes_cocycle(mu_partial, nu, a, tol)
    resid = max(resid,
                distance(w @ w.adjoint(), mu_partial.support),
                max(0.0, operator_norm(w.adjoint() @ w) - 1.0))
    return resid <= tol.eq_bound(1.0), resid


def prop_cocycle_chain_rule(rng, cfg):
    tol = cfg.tolerances
    M = _algebra(rng, cfg)
    mu, nu, rho = (random_weight(rng, M) for _ in range(3))
    a = _imaginary(rng)
    lhs = weights.connes_cocycle(mu, nu, a, tol) @ weights.connes_cocycle(nu, rho, a, tol)
    rhs = weights.connes_cocycle(mu, rho, a, tol)
    resid = distance(lhs, rhs)
    return resid <= tol.eq_bound(1.0), resid


def prop_cocycle_identity(rng, cfg):
    tol = cfg.tolerances
    M = _algebra(rng, cfg)
    mu = random_weight(rng, M, faithful=bool(rng.integers(0, 2)))
    nu = random_weight(rng, M)
    report = weights.cocycle_identity_check(mu, nu, _imaginary(rng), _imaginary(rng), tol)
    return report.passed, report.max_residual


def prop_change_of_weight_coherence(rng, cfg):
    tol = cfg.tolerances
    M = _algebra(rng, cfg)
    mu, nu, rho = (random_weight(rng, M) for _ in range(3))
    a, _ = _pair(rng, cfg)
    x = random_element(rng, M)
    via = weights.change_of_weight(
        weights.change_of_weight(x, a, mu, nu, tol), a, nu, rho, tol)
    direct = weights.change_of_weight(x, a, mu, rho, tol)
    resid = max(distance(via, direct),
                distance(weights.change_of_weight(x, a, mu, mu, tol), x),
                distance(weights.change_of_weight(x, 0.0, mu, nu, tol), x))
    return resid <= tol.eq_bound(operator_norm(direct) + operator_norm(x)), resid


def prop_pushforward_laws(rng, cfg):
    tol = cfg.tolerances
    # towers over blocks of size <= 3 only: widening the draw would change
    # the seeded stream, and with it every report of this property
    shapes = [s for s in cfg.block_shapes if sum(s) <= 3]
    M = random_shape(rng, shapes) if shapes else BlockAlgebra((2,))
    reps = [int(rng.integers(1, 3)) for _ in M.block_dims]
    row = tuple(i for i, r in enumerate(reps) for _ in range(r))
    N = BlockAlgebra((sum(r * n for r, n in zip(reps, M.block_dims)),))
    slot_weights = [float(w) for w in rng.uniform(0.5, 2.0, size=len(row))]
    T = weights.OperatorValuedWeight.from_compression(
        weights.BlockEmbedding(M, N, (row,)), slot_weights)
    mu = random_weight(rng, M)
    push = weights.pushforward_weight(mu, T, tol)
    resid = weights._pushforward_residual(mu, push, T)
    S = weights.OperatorValuedWeight.from_compression(
        weights.BlockEmbedding(N, BlockAlgebra((2 * N.block_dims[0],)), ((0, 0),)))
    stacked = weights.pushforward_weight(push, S, tol)
    direct = weights.pushforward_weight(mu, T.compose(S), tol)
    resid = max(resid, distance(stacked.density, direct.density))
    return resid <= tol.eq_bound(operator_norm(mu.density) * max(slot_weights) * 2), resid


# -- decomposition properties ----------------------------------------------


def prop_polar_laws(rng, cfg):
    tol = cfg.tolerances
    M = _algebra(rng, cfg)
    x = random_element(rng, M) @ random_projection(rng, M)
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
    return resid <= tol.eq_bound(operator_norm(x) + 1.0), resid


def prop_douglas_division(rng, cfg):
    tol = cfg.tolerances
    M = _algebra(rng, cfg)
    x = random_conditioned(rng, M, tol)
    y = random_element(rng, M) @ x
    result = decomp.douglas_divide(x, y, tol)
    p = result.quotient
    lsup_x = decomp.left_support(x, tol)
    resid = max(
        distance(p @ x, y),
        distance(p @ lsup_x, p),
        distance(decomp.left_support(p, tol), decomp.left_support(y, tol)),
        abs(result.minimal_c - operator_norm(p)))
    return resid <= tol.eq_bound(operator_norm(y) + 1.0), resid


def prop_douglas_uniqueness(rng, cfg):
    tol = cfg.tolerances
    M = _algebra(rng, cfg)
    x = random_conditioned(rng, M, tol)
    y = random_element(rng, M) @ x
    p = decomp.douglas_divide(x, y, tol).quotient
    lsup = decomp.left_support(x, tol)
    other = p + random_element(rng, M) @ (M.identity() - lsup)
    resid = max(distance(other @ x, y),
                distance(other @ lsup, p))
    return resid <= tol.eq_bound(operator_norm(y) + operator_norm(other)), resid


def prop_douglas_minimal_constant(rng, cfg):
    tol = cfg.tolerances
    M = _algebra(rng, cfg)
    x = random_conditioned(rng, M, tol)
    y = random_element(rng, M) @ x
    if operator_norm(y) < 1e-6:
        return True, 0.0
    c = decomp.douglas_divide(x, y, tol).minimal_c
    gram_x = x.adjoint() @ x
    gram_y = y.adjoint() @ y
    low_at_c = _min_eig((c ** 2 * gram_x - gram_y).blocks)
    ok_at_c = low_at_c >= -tol.eq_bound(operator_norm(gram_y) + 1.0)
    # a smaller constant fails on the support of x: y = r @ x vanishes on
    # its kernel, where every constant holds and only rounding decides, so
    # the difference is compressed to the kept right singular vectors of x
    shrunk = (c * (1.0 - 1e-3)) ** 2
    compressed = [v[kept] @ b @ v[kept].conj().T
                  for (_, _, vh, keep), diff in zip(decomp._svd_support(x, tol),
                                                    (shrunk * gram_x - gram_y).stacks)
                  for v, kept, b in zip(vh, keep, diff) if kept.any()]
    fails_below = _min_eig(compressed) < 0.0
    resid = max(0.0, -low_at_c)
    if not fails_below:
        resid = max(resid, 1.0)
    return ok_at_c and fails_below, resid


def prop_douglas_ladder(rng, cfg):
    tol = cfg.tolerances
    M = _algebra(rng, cfg)
    x = random_conditioned(rng, M, tol)
    y = random_element(rng, M) @ x
    ladder = decomp.douglas_ladder(x, y, tol=tol)
    gaps = [g for _, g in ladder]
    slack = tol.eq_bound(operator_norm(y) + 1.0)
    monotone = all(gaps[i + 1] <= gaps[i] + slack for i in range(len(gaps) - 1))
    resid = gaps[-1] if monotone else max(gaps[-1], 1.0)
    return monotone and gaps[-1] <= slack, resid


def prop_isometry_division(rng, cfg):
    tol = cfg.tolerances
    M = _algebra(rng, cfg)
    x = random_element(rng, M) @ random_projection(rng, M)
    u = decomp.polar_right(random_element(rng, M), tol).isometry
    y = u @ x  # same Gram as x
    p = decomp.isometry_divide(x, y, tol)
    resid = max(
        distance(p @ x, y),
        distance(p.adjoint() @ p, decomp.left_support(x, tol)),
        distance(p.adjoint() @ y, x))
    return resid <= tol.eq_bound(operator_norm(x) + 1.0), resid


def prop_cyclic_generator_membership(rng, cfg):
    tol = cfg.tolerances
    M = _algebra(rng, cfg)
    a, _ = _pair(rng, cfg)
    gens = [random_graded(rng, M, a) for _ in range(int(rng.integers(1, 5)))]
    worst = 0.0
    scale = max(operator_norm(g.data) for g in gens) + 1.0
    for mu in (random_weight(rng, M), random_weight(rng, M)):
        y, qs, cert = decomp.cyclic_generator(gens, mu, tol)
        worst = max(worst, *(distance(g.data, q @ y.data) for g, q in zip(gens, qs)))
        rebuilt = M.zero()
        for c, g in zip(cert, gens):
            rebuilt = rebuilt + c @ g.data
        worst = max(worst, distance(rebuilt, y.data))
    return worst <= tol.eq_bound(scale), worst


def prop_graded_division_grading(rng, cfg):
    tol = cfg.tolerances
    M = _algebra(rng, cfg)
    a, _ = _pair(rng, cfg)
    b = complex(a.real, float(rng.uniform(-2.0, 2.0)))
    x = GradedElement(random_conditioned(rng, M, tol), a)
    y = GradedElement(random_element(rng, M) @ x.data, b)
    q = decomp.graded_divide(x, y, tol)
    resid = max(distance(q.data @ x.data, y.data), abs(q.grading - (b - a)))
    mismatched = GradedElement(random_element(rng, M), complex(a.real + 0.25, 0.0))
    try:
        decomp.graded_divide(x, mismatched, tol)
        return False, 1.0
    except GradingError:
        pass
    zero = decomp.graded_divide(x, GradedElement(M.zero(), complex(a.real + 0.25, 0.0)), tol)
    resid = max(resid, operator_norm(zero.data))
    return resid <= tol.eq_bound(operator_norm(y.data) + 1.0), resid


# -- graded-space properties -------------------------------------------------


def prop_quasinorm_triangle(rng, cfg):
    tol = cfg.tolerances
    M = _algebra(rng, cfg)
    a, _ = _pair(rng, cfg)
    xi, eta = random_graded(rng, M, a), random_graded(rng, M, a)
    nx, ny = lpspace.lnorm(xi, tol), lpspace.lnorm(eta, tol)
    ns = lpspace.lnorm(xi + eta, tol)
    r = max(1.0, a.real)
    resid = max(0.0, ns ** (1.0 / r) - nx ** (1.0 / r) - ny ** (1.0 / r))
    if a.real >= 1.0:
        crude = ns - 2.0 ** (a.real - 1.0) * (nx + ny)
        resid = max(resid, crude)
    return resid <= tol.eq_bound(nx + ny + 1.0), resid


def prop_holder_inequality(rng, cfg):
    tol = cfg.tolerances
    M = _algebra(rng, cfg)
    a, b = _pair(rng, cfg)
    xi, eta = random_graded(rng, M, a), random_graded(rng, M, b)
    bound_val = lpspace.lnorm(xi, tol) * lpspace.lnorm(eta, tol)
    resid = max(0.0, lpspace.lnorm(lpspace.gmul(xi, eta), tol) - bound_val)
    return resid <= tol.eq_bound(bound_val + 1.0), resid


def prop_holder_witness_equality(rng, cfg):
    tol = cfg.tolerances
    M = _algebra(rng, cfg)
    a, b = _pair_real_left(rng, cfg)
    xi = random_graded(rng, M, a)
    y = lpspace.holder_witness(xi, b, tol)
    lhs = lpspace.lnorm(lpspace.gmul(xi, y), tol)
    rhs = lpspace.lnorm(xi, tol) * lpspace.lnorm(y, tol)
    resid = abs(lhs - rhs)
    return resid <= max(1e-8 * rhs, tol.eq_bound(rhs)), resid


def prop_holder_witness_ladder(rng, cfg):
    tol = cfg.tolerances
    M = _algebra(rng, cfg)
    _, b = _pair(rng, cfg)
    xi = random_graded(rng, M, _imaginary(rng))
    nrm = operator_norm(xi.data)
    best = 0.0
    for k in range(1, 8):
        c = nrm * (1.0 - 10.0 ** (-k))
        y = lpspace.holder_witness_imaginary(xi, b, c, tol)
        ny = lpspace.lnorm(y, tol)
        ratio = lpspace.lnorm(lpspace.gmul(xi, y), tol) / ny
        if ratio < c - tol.eq_bound(nrm):
            return False, c - ratio
        best = max(best, ratio)
    resid = max(0.0, nrm - best)
    return resid <= max(1e-6 * nrm, tol.eq_bound(nrm)), resid


def prop_tensor_isometry_sandwich(rng, cfg):
    tol = cfg.tolerances
    M = _algebra(rng, cfg)
    a, b = _pair(rng, cfg)
    zeta = random_graded(rng, M, a + b)
    first, second = lpspace.comultiply(zeta, (a, b), tol)
    z = lpspace.TensorElement(M, a, b, ((first, second),))
    upper = lpspace.turpin_upper(z, tol)
    target = lpspace.lnorm(zeta, tol)
    resid = abs(upper - target)
    return resid <= max(1e-8 * target, tol.eq_bound(target + 1.0)), resid


def prop_tensor_roundtrip(rng, cfg):
    tol = cfg.tolerances
    M = _algebra(rng, cfg)
    a, b = _pair(rng, cfg)
    pairs = tuple((random_graded(rng, M, a), random_graded(rng, M, b))
                  for _ in range(int(rng.integers(1, 4))))
    z = lpspace.TensorElement(M, a, b, pairs)
    prod = lpspace.tensor_multiply(z)
    back = lpspace.tensor_multiply(lpspace.TensorElement(
        M, a, b, (lpspace.comultiply(prod, (a, b), tol),)))
    resid = lpspace.lnorm(back - prod, tol)
    return resid <= tol.eq_bound(lpspace.lnorm(prod, tol) + 1.0), resid


def prop_multiplication_injectivity(rng, cfg):
    tol = cfg.tolerances
    M = _algebra_with_room(rng, cfg)
    a, b = _pair(rng, cfg)
    # orthogonal projections force gmul(xi, eta) = 0
    h = random_positive(rng, M)
    lams = sorted(lam for blk in h.blocks for lam in _eigvalsh(blk).tolist())
    mid = (lams[(len(lams) - 1) // 2] + lams[len(lams) // 2]) / 2.0   # their median
    p = spectral_projection(h, max(mid, 1e-6), tol)
    q = M.identity() - p
    xi = GradedElement(random_element(rng, M) @ p, a)
    eta = GradedElement(q @ random_element(rng, M), b)
    mu = random_weight(rng, M)
    x1, y1 = decomp.rank1_reduce([(xi, eta)], mu, tol)
    # the rank-1 form must be provably zero: either the left factor vanishes
    # outright or its right support annihilates the right factor
    vanishing = min(operator_norm(x1.data),
                    operator_norm(decomp.right_support(x1.data, tol) @ y1.data))
    resid = max(operator_norm(xi.data @ eta.data),
                operator_norm(x1.data @ y1.data),
                vanishing)
    scale = operator_norm(xi.data) * operator_norm(eta.data) + 1.0
    return resid <= tol.eq_bound(scale), resid


def prop_hom_roundtrip(rng, cfg):
    tol = cfg.tolerances
    M = _algebra(rng, cfg)
    a, b = _pair(rng, cfg)
    xi = random_graded(rng, M, a)
    T = lpspace.hom_from_element(xi, b, tol)
    back = lpspace.hom_to_element(T, tol)
    resid = max(distance(back.data, xi.data), abs(back.grading - a))
    # a random (D, D) matrix N is no multiplication: its residual is that of
    # the perturbed map L_xi + N, with no D x D complex array beside it
    noise = rng.standard_normal((M.total_dim, M.total_dim))
    try:
        lpspace.hom_to_element(lpspace.ModuleHom(M, b, a + b, noise, tol), tol)
        if M.total_dim > 1:  # on C every linear map is a multiplication
            return False, 1.0
    except NotModuleMapError:
        pass
    return resid <= tol.eq_bound(operator_norm(xi.data) + 1.0), resid


def prop_hom_norm_agreement(rng, cfg):
    tol = cfg.tolerances
    M = _algebra(rng, cfg)
    a, b = _pair(rng, cfg)
    xi = random_graded(rng, M, a)
    T = lpspace.hom_from_element(xi, b, tol)
    target = lpspace.lnorm(xi, tol)
    reported, certified = lpspace.hom_norm_certificate(T, tol)
    resid = abs(reported - target)
    slack = 1e-8 if a.real > tol.eq_abs else 1e-6
    resid = max(resid, max(0.0, reported - certified))
    return resid <= max(slack * (target + 1.0), tol.eq_bound(target + 1.0)), resid


def prop_grading_adjoint(rng, cfg):
    tol = cfg.tolerances
    M = _algebra(rng, cfg)
    a, b = _pair(rng, cfg)
    xi, eta = random_graded(rng, M, a), random_graded(rng, M, b)
    lhs = lpspace.gmul(xi, eta).adjoint()
    rhs = lpspace.gmul(eta.adjoint(), xi.adjoint())
    resid = max(distance(lhs.data, rhs.data), abs(lhs.grading - (a + b).conjugate()))
    return resid <= tol.eq_bound(operator_norm(lhs.data) + 1.0), resid


def prop_norm_grading_link(rng, cfg):
    tol = cfg.tolerances
    M = _algebra_with_room(rng, cfg)
    a, _ = _pair(rng, cfg)
    xi = random_graded(rng, M, a)
    lam = complex(rng.standard_normal(), rng.standard_normal())
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
    return resid <= tol.eq_bound(lpspace.lnorm(xi, tol) + expected), resid


# -- harness properties ------------------------------------------------------


def prop_oracle_agreement(rng, cfg):
    tol = cfg.tolerances
    k = int(rng.integers(1, 7))
    M = BlockAlgebra((1,) * k)
    f = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    mu = rng.uniform(0.1, 3.0, size=k)
    a = complex(rng.uniform(0.05, 2.0), rng.uniform(-2.0, 2.0))
    h = Element(M, tuple(np.array([[m]], dtype=complex) for m in mu))
    x = Element(M, tuple(np.array([[v]], dtype=complex) for v in f))
    matrix_path = lpspace.lnorm(GradedElement(x @ power_pos(h, a, tol), a), tol)
    scalar_path = oracle_commutative(f.tolist(), a, mu.tolist())
    resid = abs(matrix_path - scalar_path)
    return resid <= 1e-12 * max(scalar_path, 1.0), resid


def prop_serialization_roundtrip(rng, cfg):
    M = _algebra(rng, cfg)
    a, _ = _pair(rng, cfg)
    xi = random_graded(rng, M, a)
    mu = random_weight(rng, M)
    ok = True
    for obj in (serialize.element_to_obj(xi.data),
                serialize.graded_to_obj(xi),
                serialize.weight_to_obj(mu)):
        import json
        text = serialize.dumps(obj)
        ok = ok and serialize.dumps(json.loads(text)) == text
    back = serialize.graded_from_obj(serialize.graded_to_obj(xi))
    resid = distance(back.data, xi.data) + abs(back.grading - xi.grading)
    return ok and resid == 0.0, resid


PROPERTIES = {
    "matcore.power_addition": prop_power_addition,
    "matcore.power_adjoint": prop_power_adjoint,
    "matcore.operator_norm_laws": prop_operator_norm_laws,
    "matcore.spectral_projection_laws": prop_spectral_projection_laws,
    "matcore.trace_cyclicity": prop_trace_cyclicity,
    "weights.modular_group_law": prop_modular_group_law,
    "weights.modular_invariance": prop_modular_invariance,
    "weights.modular_trivial_iff_central": prop_modular_trivial_iff_central,
    "weights.cocycle_supports": prop_cocycle_supports,
    "weights.cocycle_chain_rule": prop_cocycle_chain_rule,
    "weights.cocycle_identity": prop_cocycle_identity,
    "weights.change_of_weight_coherence": prop_change_of_weight_coherence,
    "weights.pushforward_laws": prop_pushforward_laws,
    "decomp.polar_laws": prop_polar_laws,
    "decomp.douglas_division": prop_douglas_division,
    "decomp.douglas_uniqueness": prop_douglas_uniqueness,
    "decomp.douglas_minimal_constant": prop_douglas_minimal_constant,
    "decomp.douglas_ladder": prop_douglas_ladder,
    "decomp.isometry_division": prop_isometry_division,
    "decomp.cyclic_generator_membership": prop_cyclic_generator_membership,
    "decomp.graded_division_grading": prop_graded_division_grading,
    "lpspace.quasinorm_triangle": prop_quasinorm_triangle,
    "lpspace.holder_inequality": prop_holder_inequality,
    "lpspace.holder_witness_equality": prop_holder_witness_equality,
    "lpspace.holder_witness_ladder": prop_holder_witness_ladder,
    "lpspace.tensor_isometry_sandwich": prop_tensor_isometry_sandwich,
    "lpspace.tensor_roundtrip": prop_tensor_roundtrip,
    "lpspace.multiplication_injectivity": prop_multiplication_injectivity,
    "lpspace.hom_roundtrip": prop_hom_roundtrip,
    "lpspace.hom_norm_agreement": prop_hom_norm_agreement,
    "lpspace.grading_adjoint": prop_grading_adjoint,
    "lpspace.norm_grading_link": prop_norm_grading_link,
    "cli.oracle_agreement": prop_oracle_agreement,
    "cli.serialization_roundtrip": prop_serialization_roundtrip,
}


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
