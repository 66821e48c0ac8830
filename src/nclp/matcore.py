"""Block-diagonal complex matrix algebras with functional calculus.

A finite-dimensional von Neumann algebra is a direct sum of full complex
matrix blocks.  Everything downstream (weights, divisions, graded norms)
is built on the types and operations in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import AlgebraMismatchError, NotPositiveError, ShapeError


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy shared by every operation.

    rank_rel
        Relative cutoff for singular values / eigenvalues: anything below
        ``rank_rel * largest * block_dim`` counts as zero (support cutoff).
    eq_abs, eq_rel
        Absolute and relative slack for equality and positivity checks;
        the usual bound for a quantity of size ``s`` is ``eq_abs + eq_rel*s``.
    """

    rank_rel: float = 1e-10
    eq_abs: float = 1e-9
    eq_rel: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.rank_rel < 1.0):
            raise ValueError(f"rank_rel must be in (0, 1), got {self.rank_rel}")
        if self.eq_abs <= 0.0 or self.eq_rel <= 0.0:
            raise ValueError("eq_abs and eq_rel must be strictly positive")

    def eq_bound(self, scale: float) -> float:
        return self.eq_abs + self.eq_rel * float(scale)


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class ToleranceReport:
    """Outcome of a tolerance-governed identity check."""

    max_residual: float
    passed: bool
    context: str = ""


@dataclass(frozen=True)
class BlockAlgebra:
    """Direct sum of full matrix blocks, recorded by their dimensions.

    classes holds the block indices of each size, in order of first
    appearance; elements store one (k, n, n) stack per class.
    """

    block_dims: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = tuple(int(n) for n in self.block_dims)
        if len(dims) == 0:
            raise ValueError("block_dims must be nonempty")
        if any(n < 1 for n in dims):
            raise ValueError(f"block dimensions must be >= 1, got {dims}")
        object.__setattr__(self, "block_dims", dims)
        classes = {}
        for k, n in enumerate(dims):
            classes.setdefault(n, []).append(k)
        object.__setattr__(self, "classes", tuple(tuple(idx) for idx in classes.values()))

    @property
    def total_dim(self) -> int:
        """Complex dimension of the underlying vector space, sum of n_k^2."""
        return sum(n * n for n in self.block_dims)

    @property
    def matrix_dim(self) -> int:
        """Total matrix size, sum of n_k (the algebra acts on C^matrix_dim)."""
        return sum(self.block_dims)

    def _shapes(self):
        return [(len(idx), self.block_dims[idx[0]], self.block_dims[idx[0]])
                for idx in self.classes]

    def identity(self) -> Element:
        return Element._of(self, [np.broadcast_to(np.eye(shape[-1], dtype=complex), shape).copy()
                                  for shape in self._shapes()])

    def zero(self) -> Element:
        return Element._of(self, [np.zeros(shape, dtype=complex) for shape in self._shapes()])

    def basis(self):
        """Yield the matrix-unit basis E_ij of every block, in flattening order."""
        for t in range(self.total_dim):
            vec = np.zeros(self.total_dim, dtype=complex)
            vec[t] = 1.0
            yield unflatten_element(self, vec)


@dataclass(frozen=True, eq=False, init=False)
class Element:
    """An element of a BlockAlgebra: one complex matrix per block.

    Stored as stacks, one read-only (k, n, n) array per class of the
    algebra, so every ring operation and factorization is one numpy call
    per class.  Element(algebra, blocks) copies the blocks once into these
    stacks; blocks gives them back as read-only per-block views.
    Immutable after construction; all arithmetic returns new elements.
    """

    algebra: BlockAlgebra
    stacks: tuple[np.ndarray, ...]

    def __init__(self, algebra: BlockAlgebra, blocks):
        dims = algebra.block_dims
        blocks = [np.asarray(b) for b in blocks]
        if len(blocks) != len(dims):
            raise ShapeError(f"expected {len(dims)} blocks, got {len(blocks)}")
        for k, (arr, n) in enumerate(zip(blocks, dims)):
            if arr.shape != (n, n):
                raise ShapeError(
                    f"block {k} must have shape ({n}, {n}), got {arr.shape}")
        self._set(algebra, [np.array([blocks[k] for k in idx], dtype=complex)
                            for idx in algebra.classes])

    def _set(self, algebra: BlockAlgebra, stacks):
        for s in stacks:
            s.setflags(write=False)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "stacks", tuple(stacks))

    @classmethod
    def _of(cls, algebra: BlockAlgebra, stacks) -> Element:
        """The element with the given stacks, freshly computed and not copied."""
        out = object.__new__(cls)
        out._set(algebra, [np.asarray(s, dtype=complex) for s in stacks])
        return out

    def __reduce__(self):
        # numpy does not pickle the read-only flag, so rebuild through _of
        return Element._of, (self.algebra, self.stacks)

    @cached_property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """The blocks in algebra order, as read-only views into the stacks."""
        out = [None] * len(self.algebra.block_dims)
        for idx, stack in zip(self.algebra.classes, self.stacks):
            for k, b in zip(idx, stack):
                out[k] = b
        return tuple(out)

    # -- ring structure -------------------------------------------------

    def _check_compatible(self, other: Element):
        if self.algebra.block_dims != other.algebra.block_dims:
            raise AlgebraMismatchError(
                f"incompatible algebras: {self.algebra.block_dims} vs "
                f"{other.algebra.block_dims}")

    def _zip(self, op, other: Element) -> Element:
        self._check_compatible(other)
        return Element._of(self.algebra, [op(a, b) for a, b in zip(self.stacks, other.stacks)])

    def __add__(self, other: Element) -> Element:
        return self._zip(np.add, other)

    def __sub__(self, other: Element) -> Element:
        return self._zip(np.subtract, other)

    def __matmul__(self, other: Element) -> Element:
        return self._zip(np.matmul, other)

    def __neg__(self) -> Element:
        return Element._of(self.algebra, [-a for a in self.stacks])

    def __mul__(self, scalar) -> Element:
        c = complex(scalar)
        return Element._of(self.algebra, [c * a for a in self.stacks])

    __rmul__ = __mul__

    def adjoint(self) -> Element:
        return Element._of(self.algebra, [_h(a) for a in self.stacks])

    def __repr__(self):
        return f"Element(dims={self.algebra.block_dims})"


def make_element(algebra: BlockAlgebra, blocks) -> Element:
    """Validate a list of matrices against the algebra and wrap it."""
    return Element(algebra, blocks)


def trace(x: Element) -> complex:
    """Unnormalized blockwise matrix trace, the reference trace everywhere."""
    return complex(sum(np.trace(b) for b in x.blocks))


def _h(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


# -- factorizations stacked by size class ----------------------------------
#
# Every spectral quantity is one formula per block, U diag(f(s)) V* or
# U diag(f(w)) U*.  Each factorization therefore runs on x.stacks, one
# batched LAPACK call per size class whose results equal the per-block
# calls bit for bit, and its results are plain lists aligned with
# algebra.classes, rebuilt with Element._of.  numpy.linalg is looked up at
# call time throughout, so it can be wrapped to count factorizations.
#
# The full SVDs and eigensystems of the last FACTOR_CACHE elements are
# kept, so the supports, polar parts, quotients and powers of one element
# share one factorization across calls.  The key is the element itself:
# Element hashes by identity and its stacks are read-only, so a key never
# outlives or changes its factors.  The cache holds its keys alive, which
# bounds it by FACTOR_CACHE factorizations, whatever callers keep.

FACTOR_CACHE = 4


def _frozen(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _udv(u: np.ndarray, d: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """u @ diag(d) @ vh for every matrix in the stacks; d has shape (k, n)."""
    return (u * d[:, None, :]) @ vh


def _spectral_power(s: np.ndarray, a) -> np.ndarray:
    """s^a = exp(a log s) entrywise for s >= 0, with 0^a := 0."""
    out = np.zeros(s.shape, dtype=complex)
    mask = s > 0.0
    out[mask] = np.exp(complex(a) * np.log(s[mask]))
    return out


@lru_cache(maxsize=FACTOR_CACHE)
def _svds(x: Element) -> tuple:
    """The full SVD (u, s, vh) of each size-class stack of x, read-only."""
    return tuple(_frozen(*np.linalg.svd(a)) for a in x.stacks)


def _svd_support(x: Element, tol: Tolerances) -> list:
    """[(u, s, vh, keep)] per size class, keep masking the support.

    keep marks the singular values above the cutoff rank_rel * smax * n,
    with smax the largest singular value over all blocks and n the size of
    the class.  The triples are _svds(x), shared with every other caller
    on the same element; only keep depends on tol.
    """
    svds = _svds(x)
    smax = max(float(s.max()) for _, s, _ in svds)
    return [(u, s, vh, s > tol.rank_rel * smax * s.shape[-1]) for u, s, vh in svds]


def _operator_norms(*xs: Element) -> list[float]:
    """operator_norm of each element of one algebra, one values-only SVD per class."""
    tops = [np.linalg.svd(np.concatenate(stacks), compute_uv=False)[:, 0]
            .reshape(len(xs), -1).max(axis=1)
            for stacks in zip(*(x.stacks for x in xs))]
    return [float(t) for t in np.max(tops, axis=0)]


def operator_norm(x: Element) -> float:
    """Largest singular value over all blocks."""
    return _operator_norms(x)[0]


def distance(x: Element, y: Element) -> float:
    """operator_norm(x - y), the metric used by all closeness checks."""
    return operator_norm(x - y)


def _frobenius_bracket(x: Element) -> tuple[float, float]:
    """(lo, hi) with lo <= operator_norm(x) <= hi, from per-block Frobenius norms.

    An n x n block b has ||b||_F / sqrt(n) <= ||b||_2 <= ||b||_F, so
    lo = max_k ||x_k||_F / sqrt(n_k) and hi = max_k ||x_k||_F.  One
    reduction per size class, taken scale-free as m sqrt(sum (|a|/m)^2)
    with m the largest entry of the class: the block of largest norm has
    sum >= 1, so no square that counts overflows or underflows.  A NaN or
    inf entry makes both ends NaN.
    """
    lo = hi = 0.0
    for a in x.stacks:
        mag = np.abs(a)
        m = float(mag.max())
        if not 0.0 < m < math.inf:
            if m == 0.0:
                continue
            return math.nan, math.nan
        top = m * math.sqrt(float(np.square(mag / m).sum(axis=(-2, -1)).max()))
        lo = max(lo, top / math.sqrt(a.shape[-1]))
        hi = max(hi, top)
    return lo, hi


def _surely_within(residuals, scales, tol: Tolerances) -> bool:
    """True only if ||r|| <= tol.eq_bound(||s||) for every pair (r, s).

    Decided from Frobenius brackets alone: each pair must satisfy
    2 hi(r) <= tol.eq_bound(lo(s)).  The factor 2 absorbs the rounding of
    the Frobenius sums and of the SVD, so an accept here is never refused
    by the exact operator norms.  False means undecided, not failed: the
    caller then takes the exact norms.  Non-finite brackets never accept.
    """
    for r, s in zip(residuals, scales, strict=True):
        hi = _frobenius_bracket(r)[1]
        lo = _frobenius_bracket(s)[0]
        if not (math.isfinite(hi) and math.isfinite(lo) and 2.0 * hi <= tol.eq_bound(lo)):
            return False
    return True


def allclose(x: Element, y: Element, tol: Tolerances = DEFAULT_TOL) -> bool:
    gap = x - y
    if _surely_within([gap], [x], tol):
        return True
    nx, ny, gap_norm = _operator_norms(x, y, gap)
    return gap_norm <= tol.eq_bound(max(nx, ny))


def flatten_element(x: Element) -> np.ndarray:
    """Row-major concatenation of all blocks into a vector of length total_dim."""
    return np.concatenate([b.reshape(-1) for b in x.blocks])


def unflatten_element(algebra: BlockAlgebra, vec: np.ndarray) -> Element:
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    if vec.size != algebra.total_dim:
        raise ShapeError(f"expected vector of length {algebra.total_dim}, got {vec.size}")
    blocks, pos = [], 0
    for n in algebra.block_dims:
        blocks.append(vec[pos:pos + n * n].reshape(n, n))
        pos += n * n
    return Element(algebra, blocks)


# -- Hermitian eigensystems and functional calculus ----------------------


@lru_cache(maxsize=FACTOR_CACHE)
def _eighs(h: Element) -> tuple:
    """The raw eigensystem (w, U) of each size-class stack of h, read-only.

    Blocks that are exactly diagonal with real entries get the trivial
    eigensystem, which keeps identity densities bit-exact through powers;
    the rest of each class shares one batched eigh of its Hermitian part.
    """
    raw = []
    for a in h.stacks:
        n = a.shape[-1]
        w = np.diagonal(a, axis1=-2, axis2=-1).real.copy()
        u = np.broadcast_to(np.eye(n, dtype=complex), a.shape).copy()
        general = (np.any(a[:, ~np.eye(n, dtype=bool)], axis=-1)
                   | np.any(a.imag, axis=(-2, -1)))
        if general.any():
            g = a[general]
            w[general], u[general] = np.linalg.eigh((g + _h(g)) / 2.0)
        raw.append(_frozen(w, u))
    return tuple(raw)


def _eig_classes(h: Element, tol: Tolerances) -> list:
    """Stacked eigensystems of a positive element, one per size class.

    Returns a list of (w, U) aligned with h.algebra.classes: eigenvalues
    w (k, n) clamped to 0 below the support cutoff, and eigenvectors
    U (k, n, n).  The eigensystem is _eighs(h), shared with every other
    caller on the same element; the checks and the clamp depend on tol and
    run on every call.  Raises NotPositiveError, naming the first
    offending block, if h is not Hermitian PSD within tolerance.
    """
    bad = []
    for idx, a in zip(h.algebra.classes, h.stacks):
        asym = np.abs(a - _h(a)).max(axis=(-2, -1))
        bound = tol.eq_abs + tol.eq_rel * np.abs(a).max(axis=(-2, -1))
        bad += [(idx[j], asym[j]) for j in np.flatnonzero(asym > bound)]
    if bad:
        k, asym = min(bad)
        raise NotPositiveError(f"block {k} is not Hermitian: asymmetry {asym:.3e}")
    raw = _eighs(h)
    lmax = max(float(np.abs(w).max()) for w, _ in raw)
    floor = -tol.eq_bound(lmax)
    neg = [(idx[j], w[j].min()) for idx, (w, _) in zip(h.algebra.classes, raw)
           for j in np.flatnonzero(w.min(axis=-1) < floor)]
    if neg:
        k, low = min(neg)
        raise NotPositiveError(f"block {k} has negative eigenvalue {low:.3e}")
    return [(np.where(w > tol.rank_rel * lmax * w.shape[-1], w, 0.0), u) for w, u in raw]


def _calc(algebra: BlockAlgebra, classes, f) -> Element:
    """U diag(f(w)) U* for every size class of an _eig_classes result."""
    return Element._of(algebra, [_udv(u, f(w), _h(u)) for w, u in classes])


def func_calc(h: Element, f, tol: Tolerances = DEFAULT_TOL) -> Element:
    """Apply an array function to a positive element through its spectrum.

    f is called once per size class of the algebra with the (k, n) array
    of the eigenvalues of its k blocks of size n, and must return an array
    of the same shape.  Eigenvalues below the support cutoff are passed as
    exactly 0, so the support convention is decided by f at 0.
    """
    return _calc(h.algebra, _eig_classes(h, tol), f)


def power_pos(h: Element, a, tol: Tolerances = DEFAULT_TOL) -> Element:
    """Complex power of a positive element, with 0^a := 0.

    Eigenvalues above the support cutoff map to exp(a*log(lam)) with the
    principal real logarithm; the kernel is carried along as 0.  Negative
    real parts therefore act as pseudo-powers on the support.
    """
    return func_calc(h, lambda w: _spectral_power(w, a), tol)


def spectral_projection(h: Element, c: float, tol: Tolerances = DEFAULT_TOL) -> Element:
    """Projection onto the part of the spectrum in [c, inf).

    For c = 0 this is the support projection (the kernel never counts).
    """
    c = float(c)
    if c < 0.0:
        raise ValueError(f"threshold must be nonnegative, got {c}")
    return func_calc(h, lambda w: (w >= c) & (w > 0.0), tol)
