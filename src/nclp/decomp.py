"""Supports, polar decompositions, Douglas division, cyclic generators.

Division here means solving p @ x = y.  In finite dimension the solvability
condition (some c with c^2 x*x >= y*y) is exactly the kernel inclusion
ker(x) <= ker(y), decided through support projections, and the canonical
quotient is y times the pseudoinverse of x.  Everything else in this module
is built from that: partial-isometry division, the single generator of a
finitely generated submodule, and the rank-one form of a finite tensor sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AlgebraMismatchError,
    ConditionViolatedError,
    GradingError,
    NonFaithfulError,
    UnsolvableError,
)
from .graded import GradedElement
from .matcore import (
    DEFAULT_TOL,
    Element,
    Tolerances,
    _h,
    _operator_norms,
    _surely_within,
    _svd_support,
    _udv,
    operator_norm,
    power_pos,
)
from .weights import Weight


def right_support(x: Element, tol: Tolerances = DEFAULT_TOL) -> Element:
    """Smallest projection p with x @ p = x (projection onto the row space)."""
    return Element._of(x.algebra, [_udv(_h(vh), keep, vh)
                                   for _, _, vh, keep in _svd_support(x, tol)])


def left_support(x: Element, tol: Tolerances = DEFAULT_TOL) -> Element:
    """Smallest projection p with p @ x = x; equals right_support(x*)."""
    return Element._of(x.algebra, [_udv(u, keep, _h(u))
                                   for u, _, _, keep in _svd_support(x, tol)])


def _inv(s: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """1/s on the kept singular values, 0 elsewhere."""
    return np.divide(1.0, s, out=np.zeros_like(s), where=keep)


def _pinv(x: Element, svd) -> Element:
    return Element._of(x.algebra, [_udv(_h(vh), _inv(s, keep), _h(u))
                                   for u, s, vh, keep in svd])


def pseudo_inverse(x: Element, tol: Tolerances = DEFAULT_TOL) -> Element:
    """Moore-Penrose inverse with the library's support cutoff."""
    return _pinv(x, _svd_support(x, tol))


@dataclass(frozen=True)
class PolarDecomposition:
    """x = isometry @ positive (side="right") or positive @ isometry ("left")."""

    isometry: Element
    positive: Element
    side: str

    def reconstruct(self) -> Element:
        if self.side == "right":
            return self.isometry @ self.positive
        return self.positive @ self.isometry


def _isometry(x: Element, svd) -> Element:
    return Element._of(x.algebra, [_udv(u, keep, vh) for u, _, vh, keep in svd])


def polar_right(x: Element, tol: Tolerances = DEFAULT_TOL) -> PolarDecomposition:
    """x = u @ z with z = (x*x)^(1/2) and u a partial isometry.

    Singular directions below the support cutoff are excluded from u, so
    u*u is exactly the support of z and uu* the left support of x.
    """
    svd = _svd_support(x, tol)
    pos = Element._of(x.algebra, [_udv(_h(vh), np.where(keep, s, 0.0), vh)
                                  for _, s, vh, keep in svd])
    return PolarDecomposition(_isometry(x, svd), pos, "right")


def polar_left(x: Element, tol: Tolerances = DEFAULT_TOL) -> PolarDecomposition:
    """x = z @ u with z = (xx*)^(1/2); u is the same partial isometry part."""
    svd = _svd_support(x, tol)
    pos = Element._of(x.algebra, [_udv(u, np.where(keep, s, 0.0), _h(u))
                                  for u, s, _, keep in svd])
    return PolarDecomposition(_isometry(x, svd), pos, "left")


@dataclass(frozen=True)
class DivisionResult:
    """Quotient of p @ x = y with its norm (the optimal majorization constant)."""

    quotient: Element
    minimal_c: float
    residual: float


def _quotient(x: Element, y: Element, svd):
    """(p, y - p @ x) for p = y @ pinv(x), from an _svd_support of x."""
    p = y @ _pinv(x, svd)
    return p, y - p @ x


def _check_solvable(residual: float, norm_y: float, tol: Tolerances):
    if residual > tol.eq_bound(norm_y):
        raise UnsolvableError(
            f"no c satisfies c^2 x*x >= y*y: residual {residual:.3e}",
            residual)


def _require_solvable(remainders, ys, tol: Tolerances):
    """_check_solvable on each pair (y - p @ x, y), in order.

    The Frobenius brackets accept most solvable families outright; only an
    undecided family takes the exact norms, all in one values-only SVD per
    size class, so the error carries the exact residual.
    """
    if _surely_within(remainders, ys, tol):
        return
    norms = _operator_norms(*remainders, *ys)
    for residual, norm_y in zip(norms, norms[len(remainders):]):
        _check_solvable(residual, norm_y, tol)


def _divide(x: Element, y: Element, svd, tol: Tolerances) -> DivisionResult:
    """douglas_divide on a precomputed _svd_support of x.

    The residual and ||p|| are reported, so they are always exact norms;
    ||y|| only feeds the solvability verdict, and is taken only when the
    Frobenius brackets leave that verdict open.
    """
    p, rem = _quotient(x, y, svd)
    if _surely_within([rem], [y], tol):
        residual, norm_p = _operator_norms(rem, p)
    else:
        residual, norm_y, norm_p = _operator_norms(rem, y, p)
        _check_solvable(residual, norm_y, tol)
    return DivisionResult(p, norm_p, residual)


def douglas_divide(x: Element, y: Element,
                   tol: Tolerances = DEFAULT_TOL) -> DivisionResult:
    """Solve p @ x = y with right support of p inside the left support of x.

    Solvable exactly when ker(x) <= ker(y); the returned quotient is
    y @ pinv(x), its operator norm is the smallest constant c with
    c^2 x*x >= y*y, and its left support equals the left support of y.

    Raises UnsolvableError carrying the best-approximation residual when
    the kernel inclusion fails.
    """
    x._check_compatible(y)
    return _divide(x, y, _svd_support(x, tol), tol)


def douglas_ladder(x: Element, y: Element, epsilons=None,
                   tol: Tolerances = DEFAULT_TOL):
    """Approximate the Douglas quotient by y @ f_eps(|x|) @ u* down a ladder.

    Returns [(eps, gap)] with gap the operator-norm distance to the exact
    quotient; the gaps are nonincreasing and reach 0 once eps drops below
    the smallest positive singular value of x.  The default ladder is
    smax * 2^-k for k = 0..25, smax the largest singular value of x.

    Everything comes from one SVD x = U S V*.  The exact quotient is
    y V S^+ U* and the rung at eps is y V f_eps(S) U*, so their difference
    is y V diag(d_eps) U*, where d_i = 1/s_i for kept s_i < eps and 0
    otherwise.  The kept columns of U are orthonormal, so the gap is
    ||y V diag(d_eps)||: one values-only SVD per size class covers every
    rung, and a rung with d_eps = 0 has gap exactly 0.  Raises
    UnsolvableError as douglas_divide does; its check needs no norm of the
    quotient and, on a solvable pair, usually no SVD at all.
    """
    x._check_compatible(y)
    svd = _svd_support(x, tol)
    _require_solvable([_quotient(x, y, svd)[1]], [y], tol)
    if epsilons is None:
        smax = max(float(s.max()) for _, s, _, _ in svd)
        top = smax if smax > 0.0 else 1.0
        epsilons = [top * 2.0 ** (-k) for k in range(26)]
    eps = np.array([float(e) for e in epsilons])
    gaps = np.zeros(eps.size)
    for (_, s, vh, keep), b in zip(svd, y.stacks):                   # s: (k, n)
        yv = b @ _h(vh)                                              # (k, n, n)
        d = np.where(s < eps[:, None, None], _inv(s, keep), 0.0)     # (rungs, k, n)
        live = np.flatnonzero(d.any(axis=(1, 2)))
        if live.size:
            scaled = (yv * d[live, :, None, :]).reshape(-1, *yv.shape[1:])
            svals = np.linalg.svd(scaled, compute_uv=False)
            worst = svals[:, 0].reshape(live.size, len(s)).max(axis=1)
            gaps[live] = np.maximum(gaps[live], worst)
    return [(float(e), float(g)) for e, g in zip(eps, gaps)]


def isometry_divide(x: Element, y: Element,
                    tol: Tolerances = DEFAULT_TOL) -> Element:
    """Partial-isometry quotient when x*x = y*y.

    Returns p with p @ x = y, p*p the left support of x, and p* @ y = x.
    Built from the two polar decompositions, which keeps it well defined
    on degenerate spectra.  The Gram check ||x*x - y*y|| against
    max(||x*x||, ||y*y||) is accepted from Frobenius brackets when they
    decide it, and otherwise takes the exact norms.
    """
    gram_x = x.adjoint() @ x
    gram_y = y.adjoint() @ y
    gap = gram_x - gram_y
    if not _surely_within([gap], [gram_x], tol):
        residual, norm_x, norm_y = _operator_norms(gap, gram_x, gram_y)
        if residual > tol.eq_bound(max(norm_x, norm_y)):
            raise ConditionViolatedError(
                f"x*x != y*y: residual {residual:.3e}", residual)
    u_y = _isometry(y, _svd_support(y, tol))
    return u_y @ _isometry(x, _svd_support(x, tol)).adjoint()


def graded_divide(x: GradedElement, y: GradedElement,
                  tol: Tolerances = DEFAULT_TOL) -> GradedElement:
    """Graded division: solve p * x = y, with p landing in grading b - a.

    Real parts of the gradings must agree unless y = 0 (a nonzero quotient
    cannot change the real part); the zero quotient is returned with its
    real part clamped into the allowed half-plane.
    """
    a, b = x.grading, y.grading
    g = b - a
    if abs(g.real) > tol.eq_abs:   # only y = 0 divides across real parts
        norm_y = operator_norm(y.data)
        if norm_y > tol.eq_abs:
            raise GradingError(
                f"cannot divide grading {b} data by grading {a} data: "
                "real parts differ and y != 0")
    else:   # the division's own norms decide y = 0, ahead of its solvability
        p, rem = _quotient(x.data, y.data, _svd_support(x.data, tol))
        residual, norm_y = _operator_norms(rem, y.data)
    if norm_y <= tol.eq_abs:
        return GradedElement(y.algebra.zero(), complex(max(g.real, 0.0), g.imag))
    _check_solvable(residual, norm_y, tol)
    return GradedElement(p, g)


def cyclic_generator(generators, mu: Weight, tol: Tolerances = DEFAULT_TOL):
    """One element generating the same left submodule as a finite family.

    Given u_1..u_m of a common grading a and a faithful weight mu, returns
    (y, q, certificate) where

    * y has grading a, with matrix h^(i Im a) @ G^(1/2), G = sum u_i* u_i,
    * q_i are plain algebra elements with u_i = q_i @ y,
    * certificate_i = q_i* reproduce y = sum_i certificate_i @ u_i, so
      membership of y in the generated submodule is witnessed, not just
      division.

    The certificate is closed form: q_i = u_i y^+, so sum q_i* u_i =
    (y^+)* G = (y^+)* y* y = y, as y*y = G.  Likewise sum q_i* q_i is
    the left support of y, so the row [q_1* ... q_m*] is a partial
    isometry.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    a = gens[0].grading
    algebra = gens[0].algebra
    for g in gens[1:]:
        if abs(complex(g.grading) - a) > tol.eq_abs:
            raise GradingError(
                f"generators must share a grading: {g.grading} != {a}")
        if g.algebra.block_dims != algebra.block_dims:
            raise AlgebraMismatchError("generators live in different algebras")
    if mu.algebra.block_dims != algebra.block_dims:
        raise AlgebraMismatchError("weight lives in a different algebra")
    if not mu.faithful:
        raise NonFaithfulError("cyclic generator requires a faithful weight")

    gram = algebra.zero()
    for g in gens:
        gram = gram + g.data.adjoint() @ g.data
    x = power_pos(gram, 0.5, tol)
    y_mat = mu.power(complex(0.0, a.imag), tol) @ x
    y = GradedElement(y_mat, a)

    # q_i = u_i y^+ from one pseudoinverse; every division is decided as
    # the residual ||u_i - q_i y|| against ||u_i||, from Frobenius brackets
    # or, if they leave it open, one values-only SVD per class for them all
    inv = _pinv(y_mat, _svd_support(y_mat, tol))
    quotients = [g.data @ inv for g in gens]
    _require_solvable([g.data - q @ y_mat for g, q in zip(gens, quotients)],
                      [g.data for g in gens], tol)
    return y, quotients, [q.adjoint() for q in quotients]


def rank1_reduce(pairs, mu: Weight, tol: Tolerances = DEFAULT_TOL):
    """Collapse a finite sum of graded tensor pairs to a single pair.

    For pairs (u_i, v_i) with common gradings (c, a), returns (x, y) with
    x = sum u_i @ q_i at grading c and y the cyclic generator of the right
    factors, so that x @ y = sum u_i @ v_i.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("at least one pair is required")
    lefts = [p[0] for p in pairs]
    rights = [p[1] for p in pairs]
    c = lefts[0].grading
    for u in lefts[1:]:
        if abs(complex(u.grading) - c) > tol.eq_abs:
            raise GradingError(
                f"left factors must share a grading: {u.grading} != {c}")
    y, quotients, _ = cyclic_generator(rights, mu, tol)
    x_mat = lefts[0].algebra.zero()
    for u, q in zip(lefts, quotients):
        x_mat = x_mat + u.data @ q
    return GradedElement(x_mat, c), y
