"""Supports, polar decompositions, Douglas division, cyclic generators.

Division here means solving p @ x = y.  In finite dimension the solvability
condition (some c with c^2 x*x >= y*y) is exactly the kernel inclusion
ker(x) <= ker(y), decided through support projections, and the canonical
quotient is y times the pseudoinverse of x.  Everything else in this module
is built from that: partial-isometry division, the single generator of a
finitely generated submodule, and the rank-one form of a finite tensor sum.
"""

from __future__ import annotations

from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ConditionViolatedError,
    GradingError,
    NonFaithfulError,
    NonFiniteError,
    UnsolvableError,
)
from .graded import GradedElement, _same_grading
from .matcore import (
    DEFAULT_TOL,
    Element,
    Tolerances,
    _first_over,
    _h,
    _matmul,
    _overflow,
    _same_algebra,
    _svd,
    _svd_support,
    _setfield,
    _spectral,
    _Value,
    operator_norm,
    power_pos,
)

if TYPE_CHECKING:   # annotations only: division loads no weight code
    from .weights import Weight


def right_support(x: Element, tol: Tolerances = DEFAULT_TOL) -> Element:
    """Smallest projection p with x @ p = x (projection onto the row space)."""
    return _spectral(x.algebra, [(_h(vh), keep, vh) for _, _, vh, keep in _svd_support(x, tol)])


def left_support(x: Element, tol: Tolerances = DEFAULT_TOL) -> Element:
    """Smallest projection p with p @ x = x; equals right_support(x*)."""
    return _spectral(x.algebra, [(u, keep, _h(u)) for u, _, _, keep in _svd_support(x, tol)])


def _inv(s: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """1/s on the kept singular values, 0 elsewhere.

    OutOfRangeError when a kept s is below about 5.6e-309 (subnormal), whose
    inverse exceeds the float range: the pseudo-inverse of x has no finite
    figure, and every quotient built from it would carry infinities.
    """
    with _overflow("pseudo-inverse: the inverse of a kept singular value"):
        return np.divide(1.0, s, out=np.zeros_like(s), where=keep)


def _pinv(x: Element, svd) -> Element:
    return _spectral(x.algebra, [(_h(vh), _inv(s, keep), _h(u)) for u, s, vh, keep in svd])


def pseudo_inverse(x: Element, tol: Tolerances = DEFAULT_TOL) -> Element:
    """Moore-Penrose inverse with the library's support cutoff."""
    return _pinv(x, _svd_support(x, tol))


class PolarDecomposition(_Value):
    """x = isometry @ positive (side="right") or positive @ isometry ("left")."""

    _fields = ("isometry", "positive", "side")

    def __init__(self, isometry: Element, positive: Element, side: str):
        _setfield(self, "isometry", isometry)
        _setfield(self, "positive", positive)
        _setfield(self, "side", side)

    def reconstruct(self) -> Element:
        if self.side == "right":
            return self.isometry @ self.positive
        return self.positive @ self.isometry


def _isometry(x: Element, svd) -> Element:
    return _spectral(x.algebra, [(u, keep, vh) for u, _, vh, keep in svd])


def polar_right(x: Element, tol: Tolerances = DEFAULT_TOL) -> PolarDecomposition:
    """x = u @ z with z = (x*x)^(1/2) and u a partial isometry.

    Singular directions below the support cutoff are excluded from u, so
    u*u is exactly the support of z and uu* the left support of x.
    """
    svd = _svd_support(x, tol)
    pos = _spectral(x.algebra, [(_h(vh), np.where(keep, s, 0.0), vh) for _, s, vh, keep in svd])
    return PolarDecomposition(_isometry(x, svd), pos, "right")


def polar_left(x: Element, tol: Tolerances = DEFAULT_TOL) -> PolarDecomposition:
    """x = z @ u with z = (xx*)^(1/2); u is the same partial isometry part."""
    svd = _svd_support(x, tol)
    pos = _spectral(x.algebra, [(u, np.where(keep, s, 0.0), _h(u)) for u, s, _, keep in svd])
    return PolarDecomposition(_isometry(x, svd), pos, "left")


class DivisionResult(_Value):
    """Quotient of p @ x = y with its norm (the optimal majorization constant)."""

    _fields = ("quotient", "minimal_c", "residual")

    def __init__(self, quotient: Element, minimal_c: float, residual: float):
        _setfield(self, "quotient", quotient)
        _setfield(self, "minimal_c", minimal_c)
        _setfield(self, "residual", residual)


def _solve(x: Element, ys, tol: Tolerances, pinv=None):
    """(quotients, remainders) of p @ x = y_k, each checked solvable.

    The quotients are p_k = y_k @ pinv(x), pinv the pseudo-inverse of x,
    taken here from its SVD when not given.  p @ x = y is solvable when
    ||y - p @ x|| <= tol.eq_bound(||y||), decided by matcore._first_over;
    else UnsolvableError carries the exact residual and bound of the first
    failing y_k.  The remainders are always taken against x itself, so a
    pseudo-inverse built another way is checked, not trusted.  A remainder
    whose verdict read its exact norm keeps it, so douglas_divide reports
    the same figure without a second SVD.  OutOfRangeError when a quotient
    or a remainder overflows, as y @ pinv(x) does for a large y over a tiny x.
    """
    if pinv is None:
        pinv = _pinv(x, _svd_support(x, tol))
    with _overflow("division: the quotient y @ pinv(x) or its remainder"):
        ps = [y @ pinv for y in ys]
        rems = [y - p @ x for y, p in zip(ys, ps)]
    over = _first_over([(r, (y,)) for r, y in zip(rems, ys)], tol)
    if over is not None:
        raise UnsolvableError(f"no c satisfies c^2 x*x >= y*y: residual {over[0]:.3e}", *over)
    return ps, rems


def douglas_divide(x: Element, y: Element,
                   tol: Tolerances = DEFAULT_TOL) -> DivisionResult:
    """Solve p @ x = y with right support of p inside the left support of x.

    Solvable exactly when ker(x) <= ker(y); the returned quotient is
    y @ pinv(x), its operator norm is the smallest constant c with
    c^2 x*x >= y*y, and its left support equals the left support of y.

    Raises UnsolvableError carrying the best-approximation residual and its
    bound tol.eq_bound(||y||) when the kernel inclusion fails, and
    OutOfRangeError when the quotient is past the float range.
    """
    _same_algebra(x.algebra, y.algebra, "incompatible algebras")
    (p,), (rem,) = _solve(x, [y], tol)
    residual = operator_norm(rem)
    return DivisionResult(p, operator_norm(p), residual)


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
    ||y V diag(d_eps)||, the largest norm over the blocks of the columns
    of y V S^+ that d_eps keeps.  The kept s_i come first and descend, so
    in each block those columns run from the first s_i < eps to the last
    kept one, and their count fixes the first.  Each distinct (block, first
    column) pair is factorized once on exactly its columns, in one
    values-only SVD per distinct width and size class; a rung that keeps no
    column has gap exactly 0.  Raises UnsolvableError as douglas_divide
    does; its check needs no norm of the quotient and, on a solvable pair,
    usually no SVD at all.  A NaN epsilon raises NonFiniteError.
    """
    _same_algebra(x.algebra, y.algebra, "incompatible algebras")
    svd = _svd_support(x, tol)
    _solve(x, [y], tol, _pinv(x, svd))
    if epsilons is None:
        smax = max(float(s.max()) for _, s, _, _ in svd)
        eps = np.ldexp(smax if smax > 0.0 else 1.0, -np.arange(26))
    else:
        eps = np.array([float(e) for e in epsilons])
        if np.isnan(eps).any():
            raise NonFiniteError("ladder epsilons must not be NaN")
    below, per_class = eps[:, None, None], []
    for (_, s, vh, keep), b in zip(svd, y.stacks):                  # s: (k, n)
        k, n = s.shape
        blocks, rows = np.arange(k), np.arange(n)[:, None]
        widths = ((s < below) & keep).sum(axis=-1)                   # (rungs, k)
        met = np.zeros((n + 1, k), dtype=bool)                       # (width, block)
        met[widths, blocks] = True
        met[0] = False
        # per block, the indices of its last 1..n kept columns: cols[:, :, n - w:]
        cols = keep.sum(axis=-1)[:, None, None] - np.arange(n, 0, -1)  # (k, 1, n)
        scaled = _matmul(b, _h(vh)) * _inv(s, keep)[:, None, :]      # y V S^+
        tops = np.zeros((n + 1, k))                                  # width 0: gap 0
        for w in np.flatnonzero(met.any(axis=1)):
            j = np.flatnonzero(met[w])
            tops[w, j] = _svd(scaled[j[:, None, None], rows, cols[j, :, n - w:]], k,
                              "douglas ladder", compute_uv=False)[:, 0]
        per_class.append(tops[widths, blocks].max(axis=-1))
    return list(zip(eps.tolist(), reduce(np.maximum, per_class).tolist()))


def isometry_divide(x: Element, y: Element,
                    tol: Tolerances = DEFAULT_TOL) -> Element:
    """Partial-isometry quotient when x*x = y*y.

    Returns p with p @ x = y, p*p the left support of x, and p* @ y = x.
    Built from the two polar decompositions, which keeps it well defined
    on degenerate spectra.  The Gram check is ||x*x - y*y|| against
    tol.eq_bound(max(||x*x||, ||y*y||)), decided by matcore._first_over.
    OutOfRangeError when x*x or y*y overflows (entries past about 1e154).
    """
    with _overflow("isometry division: the Gram matrix x*x or y*y"):
        gram_x = x.adjoint() @ x
        gram_y = y.adjoint() @ y
    over = _first_over([(gram_x - gram_y, (gram_x, gram_y))], tol)
    if over is not None:
        raise ConditionViolatedError(f"x*x != y*y: residual {over[0]:.3e}", *over)
    u_y = _isometry(y, _svd_support(y, tol))
    return u_y @ _isometry(x, _svd_support(x, tol)).adjoint()


def graded_divide(x: GradedElement, y: GradedElement,
                  tol: Tolerances = DEFAULT_TOL) -> GradedElement:
    """Graded division: solve p * x = y, with p landing in grading b - a.

    Real parts of the gradings must agree unless y = 0 (a nonzero quotient
    cannot change the real part); the zero quotient is returned with its
    real part clamped into the allowed half-plane.  A y with ||y|| <= eq_abs
    is always solvable, its remainder being no larger than y, so the
    division decides y = 0 after its solvability.
    """
    a, b = x.grading, y.grading
    g = b - a
    across = abs(g.real) > tol.eq_abs   # only y = 0 divides across real parts
    if not across:
        (p,), _ = _solve(x.data, [y.data], tol)
    if operator_norm(y.data) <= tol.eq_abs:
        return GradedElement(y.algebra.zero(), complex(max(g.real, 0.0), g.imag), tol)
    if across:
        raise GradingError(f"cannot divide grading {b} data by grading {a} data: "
                           "real parts differ and y != 0")
    return GradedElement(p, g, tol)


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

    mu is faithful, so h^(i Im a) is unitary and y^+ = G^(-1/2) h^(-i Im a):
    y is never factorized, as the eigensystems of G and of mu's density
    give both y and y^+.  Each remainder u_i - q_i y is still checked
    against y, as douglas_divide checks it.  OutOfRangeError when G or a
    quotient is past the float range.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    a = gens[0].grading
    algebra = gens[0].algebra
    for g in gens[1:]:
        _same_grading(g.grading, a, tol, "generators must share a grading")
        _same_algebra(g.algebra, algebra, "generators live in different algebras")
    _same_algebra(mu.algebra, algebra, "weight lives in a different algebra")
    if not mu.faithful:
        raise NonFaithfulError("cyclic generator requires a faithful weight")

    with _overflow("cyclic generator: the Gram matrix sum u_i* u_i"):
        gram = algebra.zero()
        for g in gens:
            gram = gram + g.data.adjoint() @ g.data
    phase, unphase = mu.powers((complex(0.0, a.imag), complex(0.0, -a.imag)), tol)
    y_mat = phase @ power_pos(gram, 0.5, tol)
    y = GradedElement(y_mat, a, tol)
    quotients, _ = _solve(y_mat, [g.data for g in gens], tol,
                          power_pos(gram, -0.5, tol) @ unphase)
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
        _same_grading(u.grading, c, tol, "left factors must share a grading")
    y, quotients, _ = cyclic_generator(rights, mu, tol)
    x_mat = lefts[0].algebra.zero()
    for u, q in zip(lefts, quotients):
        x_mat = x_mat + u.data @ q
    return GradedElement(x_mat, c, tol), y
