"""Graded norms, Hölder witnesses, and the tensor / hom isometry pair.

The norm of a grading-a element with matrix x is the operator norm when
Re a = 0 and otherwise trace((x*x)^(1/(2 Re a)))^(Re a), i.e. the singular
values enter at exponent 1/Re a.  Multiplication of graded elements is
contractive for these norms (Hölder), and this module carries the
constructive converses: witnesses that saturate Hölder, a comultiplication
splitting any element into two factors with multiplying norms, and the
translation between graded elements and right-module homomorphisms.
"""

from __future__ import annotations

import math

import numpy as np

from .decomp import right_support
from .errors import (
    GradingError,
    NclpError,
    NonFiniteError,
    NotModuleMapError,
    OutOfRangeError,
)
from .graded import GradedElement, _grading, _require_imaginary, _same_grading
from .matcore import (
    DEFAULT_TOL,
    BlockAlgebra,
    Element,
    Tolerances,
    _h,
    _ldexp,
    _overflow,
    _same_algebra,
    _spectral,
    _spectral_power,
    _svals,
    _svd,
    _svd_support,
    _svds,
    _top,
    _Frozen,
    _setfield,
    flatten_element,
    operator_norm,
    unflatten_element,
)

# rungs of the spectral-threshold ladder that certifies imaginary-grading norms
HOM_LADDER_STEPS = 7
# relative slack where graded norms meet the Hölder bound, a witness's or a factorization's
HOLDER_SLACK = 1e-8
# relative slack of the ladder: ten times the 10^-HOM_LADDER_STEPS its last rung may miss
LADDER_SLACK = 1e-6


def lnorm(xi: GradedElement, tol: Tolerances = DEFAULT_TOL) -> float:
    """(Quasi)norm of a graded element.

    Re a = 0 gives the operator norm; Re a > 0 gives the singular values
    summed at exponent 1/Re a and the total raised back to Re a.  This is
    a norm for Re a <= 1 and a quasinorm beyond.

    Every singular value counts: the norm is a continuous function of the
    matrix and must agree with the scalar-path oracle on diagonal algebras,
    so the support cutoff used by divisions has no business here.

    The sum is taken scale-free, as smax * (sum (s/smax)^(1/Re a))^(Re a),
    so that lnorm(c x) = |c| lnorm(x) holds wherever s^(1/Re a) alone
    would overflow or underflow.  OutOfRangeError when the norm itself lies
    past the float range: rank r alone gives a factor r^(Re a), and
    NonFiniteError when the matrix holds a NaN or an infinity.
    """
    re = float(xi.grading.real)
    svals = _svals(xi.data, "lnorm")
    smax = _top(svals)
    if re <= tol.eq_abs:
        return smax
    s = np.concatenate([v.ravel() for v in svals])
    if smax == 0.0:
        return 0.0
    try:
        norm = smax * float(np.sum((s / smax) ** (1.0 / re))) ** re
    except OverflowError:
        norm = math.inf
    if norm == math.inf:
        raise OutOfRangeError(f"lnorm: the norm at grading real part {re!r} "
                              "exceeds the float range")
    return norm


def gmul(xi: GradedElement, eta: GradedElement) -> GradedElement:
    """Multiply graded elements: matrices multiply, gradings add.

    The product keeps the tolerance of its left operand, as sums do.
    """
    return GradedElement(xi.data @ eta.data, xi.grading + eta.grading, xi.tol)


def holder_witness(xi: GradedElement, b,
                   tol: Tolerances = DEFAULT_TOL) -> GradedElement:
    """A grading-b element y with ||xi @ y|| = ||xi|| * ||y||, for Re a > 0.

    Takes z = (x*x)^(1/(2 Re a)) and returns z^b, computed in one pass from
    the singular triples of x: y = V diag(s^(b/Re a)) V* with 0^e = 0.
    Staging the two powers separately would re-derive a support cutoff on
    a rescaled spectrum and lose directions that the norm of x still sees;
    built this way, ||xi @ y||, ||xi|| and ||y|| telescope over the same
    singular values and the equality holds to rounding for any x.
    """
    a = xi.grading
    if a.real <= tol.eq_abs:
        raise GradingError("equality witness needs Re a > 0; "
                           "use the spectral-threshold witness on imaginary gradings")
    b = _grading(b, tol, "witness grading")
    svd = _svds(xi.data)
    if max(float(s.max()) for _, s, _ in svd) <= tol.eq_abs:
        raise NclpError("the zero element has no Hölder witness")
    e = b / a.real
    y = _spectral(xi.algebra, [(_h(vh), _spectral_power(s, e, "holder_witness"), vh)
                               for _, s, vh in svd])
    return GradedElement(y, b, tol)


def holder_witness_imaginary(xi: GradedElement, b, c,
                             tol: Tolerances = DEFAULT_TOL) -> GradedElement:
    """A grading-b element y with ||xi @ y|| >= c * ||y||, for Re a = 0.

    Here c must lie in [0, ||xi||), with ||xi|| the number operator_norm and
    lnorm return, and a NaN c raises NonFiniteError, as in
    spectral_projection.  y is u* @ p where xi = z @ u is the left polar
    decomposition and p the spectral projection of z on [c, inf).
    Sweeping c toward ||xi|| makes the ratio approach the norm.  Both come
    from one SVD xi = U S V*: u* p = V diag(m) U*, with m marking the
    singular values that are above the support cutoff and at least c.
    """
    c = float(c)
    if math.isnan(c):
        raise NonFiniteError("threshold must not be NaN")
    _require_imaginary(xi.grading, tol, "spectral-threshold witness input grading")
    b = _grading(b, tol, "witness grading")
    svd = _svd_support(xi.data, tol)
    top = max(float(s.max()) for _, s, _, _ in svd)
    # operator_norm's figure (a values-only SVD, or the values xi carries) may
    # differ from this one by ulps (13 on 64 x 64 blocks, at most 2.3 eps top
    # on 2 x 2 blocks, on LAPACK or the kernels): near the top, decide with it
    # and keep the top direction
    near = abs(c - top) <= 16.0 * np.finfo(float).eps * max(xi.algebra.block_dims) * top
    nrm = operator_norm(xi.data) if near else top
    if not 0.0 <= c < nrm:
        raise NclpError(f"threshold {c} must lie in [0, {nrm})")
    y = _spectral(xi.algebra, [(_h(vh), keep & (s >= min(c, top)), _h(u))
                               for u, s, vh, keep in svd])
    return GradedElement(y, b, tol)


def comultiply(zeta: GradedElement, split,
               tol: Tolerances = DEFAULT_TOL) -> tuple[GradedElement, GradedElement]:
    """Split a grading-(a+b) element into grading-a and grading-b factors.

    Through the graded right polar decomposition zeta = t @ h^(Re(a+b))
    with h positive at grading 1, the factors are t @ h^(Re a - Im b) and
    h^b.  Their product reconstructs zeta and their norms multiply to
    ||zeta||, which is the comultiplication half of the tensor isometry.

    When Re(a+b) = 0 there is no positive part to distribute: the first
    factor is zeta itself and the second its right support projection.
    """
    a, b = _grading(split[0], tol, "split grading"), _grading(split[1], tol, "split grading")
    _same_grading(a + b, zeta.grading, tol, f"split {a} + {b} does not sum to the grading")
    re_sum = float(zeta.grading.real)
    if re_sum <= tol.eq_abs:
        supp = right_support(zeta.data, tol)
        return GradedElement(zeta.data, a, tol), GradedElement(supp, b, tol)
    # both factors from one set of singular triples: with t = U V*,
    # h = V diag(s^(1/Re(a+b))) V*, the factors are U diag(w1) V* and
    # V diag(w2) V* for w1 w2 = s, so reconstruction and the norm product
    # are scalar identities in the singular values
    e1 = complex(a.real, -b.imag) / re_sum
    e2 = b / re_sum
    svd = _svds(zeta.data)
    first = _spectral(zeta.algebra, [(u, _spectral_power(s, e1, "comultiply"), vh)
                                     for u, s, vh in svd])
    second = _spectral(zeta.algebra, [(_h(vh), _spectral_power(s, e2, "comultiply"), vh)
                                      for _, s, vh in svd])
    return GradedElement(first, a, tol), GradedElement(second, b, tol)


class TensorElement(_Frozen):
    """A finite formal sum of grading-(a, b) pairs over the algebra.

    Tensor elements compare and hash by identity.
    """

    def __init__(self, algebra: BlockAlgebra, grading_left: complex, grading_right: complex,
                 pairs: tuple[tuple[GradedElement, GradedElement], ...],
                 tol: Tolerances = DEFAULT_TOL):
        a = _grading(grading_left, tol, "left grading")
        b = _grading(grading_right, tol, "right grading")
        pairs = tuple((l, r) for l, r in pairs)
        for l, r in pairs:
            _same_algebra(l.algebra, algebra, "left factor lives in another algebra")
            _same_algebra(r.algebra, algebra, "right factor lives in another algebra")
            _same_grading(l.grading, a, tol, "left factor grading")
            _same_grading(r.grading, b, tol, "right factor grading")
        _setfield(self, "algebra", algebra)
        _setfield(self, "grading_left", a)
        _setfield(self, "grading_right", b)
        _setfield(self, "pairs", pairs)
        _setfield(self, "tol", tol)

    def __repr__(self):
        return (f"TensorElement({len(self.pairs)} pairs, gradings "
                f"({self.grading_left}, {self.grading_right}))")


def tensor_multiply(z: TensorElement) -> GradedElement:
    """The multiplication map: sum of the pairwise products.

    Linear in the formal sum and constant on the balancing relations
    (xi @ p, eta) ~ (xi, p @ eta), so it is well defined on the tensor
    product over the algebra.
    """
    acc = z.algebra.zero()
    for l, r in z.pairs:
        acc = acc + l.data @ r.data
    return GradedElement(acc, z.grading_left + z.grading_right, z.tol)


def turpin_upper(z: TensorElement, tol: Tolerances = DEFAULT_TOL) -> float:
    """Upper bound for the projective tensor r-norm, r = max(1, Re(a+b)).

    Minimizes the representation bound (sum of (||xi_i|| ||eta_i||)^(1/r))^r
    over the given representation and the rank-one form obtained by
    comultiplying the product.  By the isometry of multiplication this
    meets the norm of the product from above.

    The rank-one form is never built: its bound is ||zeta||, zeta the
    product, exactly.  comultiply gives U diag(s^e1) V* and V diag(s^e2) V*
    from the singular values s of zeta, with Re e1 = Re a / Re(a+b) and
    Re e2 = Re b / Re(a+b), so their norms are (sum s^(1/Re(a+b)))^Re a
    and (sum s^(1/Re(a+b)))^Re b, whose product is ||zeta||.  A factor of
    imaginary grading has singular values s^0 = 1 on the support of zeta
    and 0 off it, so its norm is 1 (0 for zeta = 0), and the other factor
    alone carries ||zeta||.  When Re(a+b) = 0 the factors are zeta and its
    right support, of norms ||zeta|| and 1 (0 and 0 for zeta = 0).
    """
    r = max(1.0, float((z.grading_left + z.grading_right).real))
    given = sum((lnorm(l, tol) * lnorm(rr, tol)) ** (1.0 / r)
                for l, rr in z.pairs) ** r
    reduced = lnorm(tensor_multiply(z), tol)
    return min(given, reduced)


class ModuleHom(_Frozen):
    """A right-module map from grading-b data to grading-(a+b) data.

    A right-linear map, T(y @ p) = T(y) @ p, is left multiplication by
    its multiplier T(1), so a map is stored as that Element and nothing
    else.  ModuleHom(algebra, grading_in, grading_out, matrix, tol) takes
    a linear map on the flattened coordinates of the algebra, a finite
    (D, D) matrix for D = total_dim, and keeps T(1) once _multiplier has
    found the matrix to be left multiplication by it; NotModuleMapError
    otherwise.  The internal _of takes the multiplier unchecked.
    Maps compare and hash by identity.
    """

    _fields = ("algebra", "grading_in", "grading_out", "multiplier")

    def __init__(self, algebra: BlockAlgebra, grading_in: complex, grading_out: complex,
                 matrix: np.ndarray, tol: Tolerances = DEFAULT_TOL):
        gin, gout = complex(grading_in), complex(grading_out)
        if not np.all(np.isfinite([gin, gout])):
            raise NonFiniteError(f"hom gradings must be finite, got {gin} and {gout}")
        self._set(algebra, gin, gout, _multiplier(algebra, matrix, tol))

    def _set(self, algebra: BlockAlgebra, grading_in, grading_out, multiplier: Element):
        _setfield(self, "algebra", algebra)
        _setfield(self, "grading_in", grading_in)
        _setfield(self, "grading_out", grading_out)
        _setfield(self, "multiplier", multiplier)

    @classmethod
    def _of(cls, algebra: BlockAlgebra, grading_in: complex, grading_out: complex,
            multiplier: Element) -> ModuleHom:
        """Left multiplication by multiplier, an element of algebra, between
        finite complex gradings: no check."""
        out = object.__new__(cls)
        out._set(algebra, grading_in, grading_out, multiplier)
        return out

    def apply(self, y: Element) -> Element:
        """T(y); OutOfRangeError when the product overflows."""
        _same_algebra(y.algebra, self.algebra, "hom applied to an element of another algebra")
        with _overflow("module map: T(y)"):
            return self.multiplier @ y

    def __call__(self, eta: GradedElement, tol: Tolerances = DEFAULT_TOL) -> GradedElement:
        _same_grading(eta.grading, self.grading_in, tol, "hom input grading")
        return GradedElement(self.apply(eta.data), self.grading_out, tol)


def _slabs(matrix: np.ndarray, algebra: BlockAlgebra):
    """(c, i, slab) for each block, of coords c, and each row i of c: slab
    holds the rows i of the dense map on the flat coordinates, as a complex
    array.  In order, the slabs tile its total_dim rows."""
    for c in algebra.coords:
        for i in c:
            yield c, i, np.ascontiguousarray(matrix[i[0]:i[-1] + 1], dtype=complex)


def _multiplier(algebra: BlockAlgebra, matrix, tol: Tolerances) -> Element:
    """T(1) for the linear map T of the (D, D) matrix, once T is found to be
    left multiplication by it: the check of ModuleHom(...).

    ValueError for another shape, NonFiniteError for a NaN or an infinity,
    OutOfRangeError when T(1) overflows, and NotModuleMapError, carrying
    r = ||T - L_xi||_F for xi = T(1) and the bound it exceeds, when r exceeds
    tol.eq_bound(max(||T||_2, 1)).  ||T||_2 lies within r of
    ||L_xi||_2 = ||xi||_op, and the bounds at the two ends of that bracket
    decide unless r falls between them; only then is the dense norm of the
    matrix taken, by the funnel, and its bound carried; else the error
    carries the high end, tol.eq_bound(max(||xi||_op + r, 1)), never below it.
    The floor of 1 moves no verdict of a map of norm 1 or more; below, it
    grants the slack of a map of norm 1, at most eq_rel more than eq_abs
    grants the zero map.

    The matrix is read twice, in the slabs of _slabs: once for finiteness,
    its largest real or imaginary part and the rows of T(1); then each slab
    and xi, scaled exactly by one 2^-e to parts below 1, give the gap to
    the rows of L_xi (xi_k[i, j] at row c[i, r] and column c[j, r] for each
    r), whose squares are summed.  So no square overflows or underflows,
    and no (D, D) array is built.
    """
    mat = np.asarray(matrix)
    d = algebra.total_dim
    if mat.shape != (d, d):
        raise ValueError(f"hom matrix must have shape ({d}, {d}), got {mat.shape}")
    one = flatten_element(algebra.identity())
    flat = np.empty(d, dtype=complex)
    top = 0.0
    for _, i, slab in _slabs(mat, algebra):
        m = float(np.abs(slab.view(np.float64)).max())
        if not m < math.inf:
            raise NonFiniteError("hom matrix must be finite")
        top = max(top, m)
        with _overflow("module map: T(1)"):
            flat[i] = slab @ one
    e = math.frexp(max(top, float(np.abs(flat.view(np.float64)).max())))[1]
    scaled = np.ldexp(flat.view(np.float64), -e).view(complex)
    square = 0.0
    for c, i, slab in _slabs(mat, algebra):
        gap = np.ldexp(slab.view(np.float64), -e)
        gap.view(complex)[np.arange(len(c))[:, None], c.T] -= scaled[i]
        square += float(np.dot(gap.ravel(), gap.ravel()))
    residual = _ldexp(math.sqrt(square), e)
    xi = unflatten_element(algebra, flat)
    lo, bound = (tol.eq_bound(max(operator_norm(xi) + gap, 1.0)) for gap in (-residual, residual))
    if lo < residual <= bound:
        bound = tol.eq_bound(max(float(_svd(mat[None], 1, "norm", False)[0, 0]), 1.0))
    if residual > bound:
        raise NotModuleMapError(
            f"right-linearity fails: residual {residual:.3e} against left "
            "multiplication by T(1)", residual, bound)
    return xi


def hom_from_element(xi: GradedElement, b,
                     tol: Tolerances = DEFAULT_TOL) -> ModuleHom:
    """Left multiplication by xi as a module map on grading-b data: the map
    with multiplier xi.data, taken as it is."""
    b = _grading(b, tol, "input grading")
    return ModuleHom._of(xi.algebra, b, xi.grading + b, xi.data)


def hom_to_element(T: ModuleHom, tol: Tolerances = DEFAULT_TOL) -> GradedElement:
    """The multiplier xi = T(1) of a right-module map, graded by the
    difference of its gradings.

    Every ModuleHom is left multiplication by its multiplier, which
    ModuleHom(...) checks where a matrix enters; what is left to check is
    that the grading difference lies in the allowed half-plane, within tol.
    """
    a = _grading(T.grading_out - T.grading_in, tol,
                 f"multiplier grading of the hom {T.grading_in} -> {T.grading_out}")
    return GradedElement(T.multiplier, complex(max(a.real, 0.0), a.imag), tol)


def _hom_norm_slack(a: complex, tol: Tolerances) -> float:
    """The relative shortfall hom_norm allows its witnesses at multiplier
    grading a: HOLDER_SLACK for the Hölder witness (Re a > 0), LADDER_SLACK
    for the ladder."""
    return HOLDER_SLACK if a.real > tol.eq_abs else LADDER_SLACK


def hom_norm_certificate(T: ModuleHom,
                         tol: Tolerances = DEFAULT_TOL) -> tuple[float, float]:
    """(reported, certified) pair for the operator norm of a module map.

    reported is the graded norm of the recovered multiplier; certified is
    a lower bound on sup ||T(y)|| / ||y|| obtained by actually evaluating
    T on a Hölder witness (Re a > 0) or on a spectral-threshold ladder
    (Re a = 0).  The isometry of left multiplication makes them meet.
    """
    xi = hom_to_element(T, tol)
    reported = lnorm(xi, tol)
    if reported <= tol.eq_abs:
        return reported, 0.0
    if xi.grading.real > tol.eq_abs:
        y = holder_witness(xi, T.grading_in, tol)
        out = T(y, tol)
        certified = lnorm(out, tol) / lnorm(y, tol)
    else:
        certified = 0.0
        for k in range(1, HOM_LADDER_STEPS + 1):
            c = reported * (1.0 - 10.0 ** (-k))
            y = holder_witness_imaginary(xi, T.grading_in, c, tol)
            out = T(y, tol)
            certified = max(certified, lnorm(out, tol) / lnorm(y, tol))
    return reported, certified


def hom_norm(T: ModuleHom, tol: Tolerances = DEFAULT_TOL) -> float:
    """Operator norm of a module map, certified from below by witnesses.

    The witness evaluation must reach the reported value (within
    HOLDER_SLACK relative for Re a > 0, within LADDER_SLACK for the
    imaginary-grading ladder: _hom_norm_slack) or the computation refuses
    to answer.
    """
    reported, certified = hom_norm_certificate(T, tol)
    if reported <= tol.eq_abs:
        return reported
    slack = _hom_norm_slack(T.grading_out - T.grading_in, tol)
    if certified < reported * (1.0 - slack) - tol.eq_abs:
        raise NclpError(
            f"witness certification failed: certified {certified:.12e} "
            f"< reported {reported:.12e}")
    return reported
