"""Block-diagonal complex matrix algebras with functional calculus.

A finite-dimensional von Neumann algebra is a direct sum of full complex
matrix blocks.  Everything downstream (weights, divisions, graded norms)
is built on the types and operations in this module.
"""

from __future__ import annotations

import math
import numbers
import operator
from functools import lru_cache, reduce

import numpy as np

from .errors import AlgebraMismatchError, NonFiniteError, NotPositiveError, ShapeError


# Sets a field of a _Frozen record, as a frozen dataclass sets it.  Writing
# through vars(self) instead would turn the instance's compact attribute
# storage into a dict, and every later read of a field (x.stacks, tol.eq_abs)
# would cost about 2.5 times as much on CPython 3.11.  A functools
# cached_property writes through vars(self) too, so a field built on first
# use is a placeholder set to None in __init__ and filled with _setfield.
_setfield = object.__setattr__


class _Frozen:
    """Base of the library's immutable records.

    Each subclass sets its fields with _setfield in its own __init__; after
    that, assignment and deletion raise AttributeError.  _fields names the
    fields, in order, for the repr.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"


class _Value(_Frozen):
    """A _Frozen record that compares and hashes by its _fields."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class Tolerances(_Value):
    """Numerical policy shared by every operation.

    rank_rel
        Relative cutoff for singular values / eigenvalues: anything below
        ``rank_rel * largest * block_dim`` counts as zero (support cutoff).
    eq_abs, eq_rel
        Absolute and relative slack for equality and positivity checks;
        the usual bound for a quantity of size ``s`` is ``eq_abs + eq_rel*s``.
    """

    _fields = ("rank_rel", "eq_abs", "eq_rel")

    def __init__(self, rank_rel: float = 1e-10, eq_abs: float = 1e-9, eq_rel: float = 1e-9):
        # read as floats, so equal policies are one policy and one cache key
        for name, value in zip(self._fields, (rank_rel, eq_abs, eq_rel)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a real number, got {value!r}")
            try:
                _setfield(self, name, float(value))
            except OverflowError:
                raise ValueError(f"{name} is out of the float range") from None
        if not (0.0 < self.rank_rel < 1.0):
            raise ValueError(f"rank_rel must be in (0, 1), got {self.rank_rel}")
        if not (0.0 < self.eq_abs < math.inf and 0.0 < self.eq_rel < math.inf):
            raise ValueError("eq_abs and eq_rel must be finite and strictly positive")
        # a policy keys every eigensystem an element keeps, so its hash is kept
        _setfield(self, "_hash", hash(self._key()))

    def __hash__(self):
        return self._hash

    def eq_bound(self, scale: float) -> float:
        return self.eq_abs + self.eq_rel * float(scale)


DEFAULT_TOL = Tolerances()


class ToleranceReport(_Value):
    """Outcome of a tolerance-governed identity check."""

    _fields = ("max_residual", "passed", "context")

    def __init__(self, max_residual: float, passed: bool, context: str = ""):
        _setfield(self, "max_residual", max_residual)
        _setfield(self, "passed", passed)
        _setfield(self, "context", context)


class BlockAlgebra(_Value):
    """Direct sum of full matrix blocks, recorded by their dimensions.

    classes holds the block indices of each size, in order of first
    appearance; elements store one (k, n, n) stack per class.  Algebras
    compare, hash and print by block_dims alone.
    """

    _fields = ("block_dims",)

    def __init__(self, block_dims: tuple[int, ...]):
        dims = tuple(map(operator.index, block_dims))
        if len(dims) == 0:
            raise ValueError("block_dims must be nonempty")
        if any(n < 1 for n in dims):
            raise ValueError(f"block dimensions must be >= 1, got {dims}")
        classes = {}
        for k, n in enumerate(dims):
            classes.setdefault(n, []).append(k)
        _setfield(self, "block_dims", dims)
        _setfield(self, "classes", tuple(tuple(idx) for idx in classes.values()))
        _setfield(self, "_coords", None)
        _setfield(self, "_identity", None)

    @property
    def coords(self) -> tuple[np.ndarray, ...]:
        """Per block, the read-only (n, n) array of the flat coordinates of its
        entries: the blocks are concatenated row-major into vectors of length
        total_dim, the layout of flatten_element and of every dense map on it.
        Built on first use, as only the dense maps read it.
        """
        if self._coords is None:
            starts = np.cumsum([0, *(n * n for n in self.block_dims)])
            _setfield(self, "_coords", _frozen(*(np.arange(s, s + n * n).reshape(n, n)
                                                 for s, n in zip(starts, self.block_dims))))
        return self._coords

    def __reduce__(self):
        # rebuild the derived fields, read-only again, from the dimensions
        return BlockAlgebra, (self.block_dims,)

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
        """The unit of the algebra: one read-only element, shared by every call."""
        if self._identity is None:
            _setfield(self, "_identity", Element._of(
                self, [np.broadcast_to(np.eye(shape[-1], dtype=complex), shape).copy()
                       for shape in self._shapes()]))
        return self._identity

    def zero(self) -> Element:
        return Element._of(self, [np.zeros(shape, dtype=complex) for shape in self._shapes()])

    def basis(self):
        """Yield the matrix-unit basis E_ij of every block, in flattening order."""
        for t in range(self.total_dim):
            vec = np.zeros(self.total_dim, dtype=complex)
            vec[t] = 1.0
            yield unflatten_element(self, vec)


def _same_algebra(a: BlockAlgebra, b: BlockAlgebra, what: str):
    """Raise AlgebraMismatchError unless a and b have the same block_dims."""
    if a.block_dims != b.block_dims:
        raise AlgebraMismatchError(f"{what}: {a.block_dims} vs {b.block_dims}")


class Element(_Frozen):
    """An element of a BlockAlgebra: one complex matrix per block.

    Stored as stacks, one read-only (k, n, n) array per class of the
    algebra, so every ring operation and factorization is one numpy call
    per class.  Element(algebra, blocks) copies the blocks once into these
    stacks; blocks gives them back as read-only per-block views.
    Immutable after construction; all arithmetic returns new elements.
    Elements compare and hash by identity.
    """

    # Placeholders, class-level so that building an element sets none: _d
    # holds the diagonal factors of an element built by _spectral, _sv the
    # singular values once a norm has read them (both read by _svals), and
    # _eig a dict of the eigensystems of _eig_classes, keyed by Tolerances.
    _d = _sv = _eig = None

    def __init__(self, algebra: BlockAlgebra, blocks):
        dims = algebra.block_dims
        blocks = [np.asarray(b) for b in blocks]
        if len(blocks) != len(dims):
            raise ShapeError(f"expected {len(dims)} blocks, got {len(blocks)}")
        for k, (arr, n) in enumerate(zip(blocks, dims)):
            if arr.shape != (n, n):
                raise ShapeError(
                    f"block {k} must have shape ({n}, {n}), got {arr.shape}")
        self._set(algebra, tuple([np.array([blocks[k] for k in idx], dtype=complex)
                                  for idx in algebra.classes]))

    def _set(self, algebra: BlockAlgebra, stacks: tuple):
        for s in stacks:
            s.setflags(write=False)
        _setfield(self, "algebra", algebra)
        _setfield(self, "stacks", stacks)
        _setfield(self, "_blocks", None)

    @classmethod
    def _of(cls, algebra: BlockAlgebra, stacks) -> Element:
        """The element with the given stacks, freshly computed and not copied."""
        out = object.__new__(cls)
        out._set(algebra, tuple([np.asarray(s, dtype=complex) for s in stacks]))
        return out

    def __reduce__(self):
        # numpy does not pickle the read-only flag, so rebuild through _of
        return Element._of, (self.algebra, self.stacks)

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """The blocks in algebra order, as read-only views into the stacks."""
        if self._blocks is None:
            out = [None] * len(self.algebra.block_dims)
            for idx, stack in zip(self.algebra.classes, self.stacks):
                for k, b in zip(idx, stack):
                    out[k] = b
            _setfield(self, "_blocks", tuple(out))
        return self._blocks

    # -- ring structure -------------------------------------------------

    def _zip(self, op, other: Element) -> Element:
        _same_algebra(self.algebra, other.algebra, "incompatible algebras")
        return Element._of(self.algebra, [op(a, b) for a, b in zip(self.stacks, other.stacks)])

    def __add__(self, other: Element) -> Element:
        return self._zip(np.add, other)

    def __sub__(self, other: Element) -> Element:
        return self._zip(np.subtract, other)

    def __matmul__(self, other: Element) -> Element:
        return self._zip(_matmul, other)

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


def trace(x: Element) -> complex:
    """Unnormalized blockwise matrix trace, the reference trace everywhere.

    One np.trace per stack; the block traces are summed in block order.
    """
    traces = [0j] * len(x.algebra.block_dims)
    for idx, a in zip(x.algebra.classes, x.stacks):
        for k, t in zip(idx, np.trace(a, axis1=-2, axis2=-1).tolist()):
            traces[k] = t
    return complex(sum(traces))


def _h(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


# -- factorizations stacked by size class ----------------------------------
#
# Every spectral quantity is one formula per block, U diag(f(s)) V* or
# U diag(f(w)) U*.  Each factorization therefore runs on x.stacks, one
# batched call per size class through the funnel, _svd or _eigh, and its
# results are plain lists aligned with algebra.classes, rebuilt with
# _spectral.  The funnel picks LAPACK or the closed-form 2 x 2 kernels by the
# block count of the size class (KERNEL_BLOCKS), so within one algebra the
# results of a block are the same bit for bit however its blocks are
# batched.  Products of whole size-class stacks (Element @, _spectral, the
# ladder) go through the same gate, _matmul, to BLAS or the kernel.
# numpy.linalg and nclp.kernels are looked up at call time throughout, so
# they can be wrapped to count factorizations.
#
# Factorizations have two homes.  An element keeps what it owns: its
# singular values (_svals), and its validated, clamped eigensystem per
# Tolerances (_eig_classes), each filled on first use.  An element that
# _spectral builds as U diag(d) V*, with U and V unitary, carries |d|, and
# any other element takes one values-only SVD the first time a norm reads
# its singular values.  So the powers and spectral projections of one
# positive element share one eigensystem, its positivity is checked once
# per policy, and a weight's modular operations never factorize its density
# again, whatever was factorized in between.  Eigensystems live as long as
# their element: the 16-task pool of the big-block bench workload keeps 48
# positive (64,) elements, with 64 KB of eigenvectors each, and its peak
# RSS is 55.6 MB with them kept, 52.5 MB with none kept (x86-64, Python
# 3.11, numpy 2.4).  Errors are not kept, so a failed check raises on
# every call.
#
# The full SVDs (_svds) of the last FACTOR_CACHE elements are kept in an
# LRU instead, keyed by the element itself: Element hashes by identity and
# its stacks are read-only, so a key never outlives or changes its results,
# which are read-only too.  Kept on the element, every live element would
# keep its u and vh: with the eigensystems, that raised the peak RSS of the
# big-block workload from 53 to 63 MB.  The LRU costs it 0.25 MB (55.35 MB
# with no entry).  Two entries are the fewest with which no element's full
# SVD is taken twice (tests/test_traffic.py): isometry_divide(x, y)
# factorizes y and then x, so with one entry an x decomposed just before
# the division would be factorized again.

FACTOR_CACHE = 2


def _frozen(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _spectral(algebra: BlockAlgebra, triples) -> Element:
    """The element u @ diag(d) @ vh, from one triple (u, d, vh) per size class.

    u and vh are (k, n, n) stacks of unitaries and d is (k, n), so the
    singular values of each block are |d|: the element keeps d, and _svals
    sorts it only when a norm reads it.
    """
    ds = []
    stacks = []
    for u, d, vh in triples:
        ds.append(d)
        stacks.append(_matmul(u * d[:, None, :], vh))
    out = Element._of(algebra, stacks)
    _setfield(out, "_d", ds)
    return out


# A size class of KERNEL_BLOCKS or more 2 x 2 blocks is factorized and
# multiplied by the closed-form kernels of nclp.kernels, which cost a fixed
# 22-50 us per factorization and 7-14 us per product, where LAPACK pays 1-2 us
# per matrix and BLAS about 0.4 us.  Per call, in us, LAPACK or BLAS ->
# kernel, on a (k, 2, 2) complex stack (2-vCPU Intel Xeon, Python 3.11.7,
# numpy 2.4.6, one BLAS thread; median of 5 alternating rounds, each the
# best of 7 x 200 calls):
#
#     k          1          8          16         24          32         64
#     full SVD   8.2 -> 47  22 -> 48   39 -> 50   110 -> 52   68 -> 52   131 -> 65
#     values     6.0 -> 22  14 -> 23   25 -> 25   34 -> 24    44 -> 24   90 -> 26
#     eigh       5.7 -> 28  12 -> 29   27 -> 31   25 -> 30    31 -> 30   57 -> 33
#     product    3.3 -> 6.7 7.2 -> 7.9 11 -> 8.9  13 -> 10    16 -> 11    30 -> 14
#
# A first run read 54 for LAPACK's full SVD at k = 24, with the same
# crossovers: the SVDs win from 16-24 blocks, the product from 16, eigh from
# 32, and one gate serves them all.  The choice follows the block count of
# the size class, never the length of the stack handed in, so that batching
# never changes a bit: _operator_norms stacks the class of several elements,
# _eig_classes hands in the general blocks of a class, and douglas_ladder the
# blocks that share a rung width.  The kernels are imported on first use
# (about 3 ms when no bytecode is cached), so that a process that factorizes
# and multiplies only smaller classes (every shipped demo input, the default
# verify) never loads them.

KERNEL_BLOCKS = 32

# nclp.kernels, bound on first use: an import statement in the funnel would
# cost an importlib lookup per call.  Its functions are read through the
# module at call time, so that they can be wrapped to count factorizations.
_kernels = None


def _load_kernels():
    global _kernels
    from . import kernels
    _kernels = kernels
    return kernels


def _svd(a: np.ndarray, blocks: int, what: str, compute_uv: bool = True):
    """The SVD (u, s, vh), or s alone, of the stack a, whose blocks come from
    a size class of blocks blocks in their algebra: a may be that class, a
    part of it, or the class of several elements stacked.  NonFiniteError,
    naming the operation what, when the factorization fails on an a that
    holds a NaN or an infinity.

    Finiteness is tested only after a failure, so a factorization that
    succeeds pays nothing for it.  A values-only SVD fails on a NaN and
    returns NaN on an infinity, on LAPACK and on the kernel alike; a full one
    may never return, so _svds tests first.
    """
    try:
        if blocks >= KERNEL_BLOCKS and a.shape[-2:] == (2, 2):
            return (_kernels or _load_kernels()).svd2(a, compute_uv)
        return np.linalg.svd(a, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        if np.isfinite(a).all():
            raise
        raise NonFiniteError(f"{what}: the matrix holds a NaN or an infinity") from None


def _eigh(a: np.ndarray, blocks: int):
    """(w, u), the eigensystems of the finite Hermitian stack a, whose blocks
    come from a size class of blocks blocks in their algebra."""
    if blocks >= KERNEL_BLOCKS and a.shape[-2:] == (2, 2):
        return (_kernels or _load_kernels()).eigh2(a)
    return np.linalg.eigh(a)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product a @ b of two stacks that each hold one whole size class of
    their algebra, so that the stack's length is the class's block count."""
    if len(a) >= KERNEL_BLOCKS and a.shape[-2:] == (2, 2):
        return (_kernels or _load_kernels()).matmul2(a, b)
    return np.matmul(a, b)


def _spectral_power(s: np.ndarray, a) -> np.ndarray:
    """s^a = exp(a log s) entrywise for s >= 0, with 0^a := 0."""
    out = np.zeros(s.shape, dtype=complex)
    mask = s > 0.0
    out[mask] = np.exp(complex(a) * np.log(s[mask]))
    return out


@lru_cache(maxsize=FACTOR_CACHE)
def _svds(x: Element) -> tuple:
    """The full SVD (u, s, vh) of each size-class stack of x, read-only.

    Finiteness is tested first: on a block of size 3 or more that holds an
    infinity, LAPACK's full SVD may never return.
    """
    what = "singular value decomposition"
    if not all(np.isfinite(a).all() for a in x.stacks):
        raise NonFiniteError(f"{what}: the matrix holds a NaN or an infinity")
    return tuple(_frozen(*_svd(a, len(a), what)) for a in x.stacks)


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


def _svals(x: Element) -> tuple:
    """The singular values (k, n) of each size-class stack of x, read-only.

    Each row descends, with a NaN first, where _top sees it.  An element
    built by _spectral sorts its |d| as floats; any other takes one
    values-only SVD per class, on LAPACK or on the kernel by the class's
    block count, never taken from _svds, as the two can differ by a few ulps.
    Either way the values are kept on x, filled on first read.
    """
    sv = x._sv
    if sv is None:
        if x._d is None:
            sv = _frozen(*(_svd(a, len(a), "singular values", compute_uv=False)
                           for a in x.stacks))
        else:
            sv = _frozen(*(np.sort(np.abs(d).astype(float, copy=False), axis=-1)[:, ::-1]
                           for d in x._d))
        _setfield(x, "_sv", sv)
    return sv


def _top(svals) -> float:
    """The largest leading singular value of (k, n) arrays of singular values;
    NaN if any is NaN, as np.max gives it (max alone would skip it).
    """
    tops = [t for s in svals for t in s[:, 0].tolist()]
    return math.nan if any(map(math.isnan, tops)) else max(tops)


def _operator_norms(*xs: Element) -> list[float]:
    """operator_norm of each element of one algebra, one values-only SVD per class."""
    tops = [_svd(np.concatenate(stacks), len(stacks[0]), "operator norm", compute_uv=False)[:, 0]
            .reshape(len(xs), -1).max(axis=1)
            for stacks in zip(*(x.stacks for x in xs))]
    return reduce(np.maximum, tops).tolist()


def operator_norm(x: Element) -> float:
    """Largest singular value over all blocks; NaN if any block has one."""
    return _top(_svals(x))


def distance(x: Element, y: Element) -> float:
    """operator_norm(x - y), the metric used by all closeness checks.

    x - y is used once, so its values-only SVD is taken here, on the
    stacks, and no element is built to keep it.
    """
    _same_algebra(x.algebra, y.algebra, "incompatible algebras")
    return _top([_svd(a - b, len(a), "distance", compute_uv=False)
                 for a, b in zip(x.stacks, y.stacks)])


def _entry_bracket(x: Element) -> tuple[float, float]:
    """(lo, hi) with lo <= operator_norm(x) <= hi, from the largest entries.

    An n x n block b has max |b_ij| <= ||b||_2 <= ||b||_F <= n max |b_ij|,
    so with m the largest entry of a size class, lo = max m and
    hi = max n m over the classes.  One abs and one argmax per class, and
    scale-free, as nothing is squared.  argmax skips the setup of a ufunc
    reduction, and finds a NaN as max does.  A NaN or inf entry makes both
    ends NaN.
    """
    lo = hi = 0.0
    for a in x.stacks:
        mag = np.abs(a).ravel()
        m = float(mag[mag.argmax()])
        if not m < math.inf:
            return math.nan, math.nan
        lo = max(lo, m)
        hi = max(hi, a.shape[-1] * m)
    return lo, hi


def _first_over(checks, tol: Tolerances):
    """The first residual norm over its bound, or None: the one pass/fail verdict.

    checks holds pairs (r, scales) of a residual r and a tuple of elements,
    and a check passes when ||r|| <= tol.eq_bound(max of ||s|| over scales).
    The entry brackets decide first: a check passes at once when
    2 hi(r) <= tol.eq_bound(lo(s)) for some s in scales.  The factor 2
    absorbs the rounding of the brackets and of the SVD, so a pass here is
    never refused by the exact operator norms; non-finite brackets never
    pass.  The checks left open take their exact norms, in one values-only
    SVD per size class over their distinct elements (Element hashes by
    identity), and a NaN residual is over its bound.
    """
    open_checks = []
    for r, scales in checks:
        hi = _entry_bracket(r)[1]
        if not (hi < math.inf
                and any(2.0 * hi <= tol.eq_bound(_entry_bracket(s)[0]) for s in scales)):
            open_checks.append((r, scales))
    if not open_checks:
        return None
    distinct = list(dict.fromkeys(e for r, scales in open_checks for e in (r, *scales)))
    norm_of = dict(zip(distinct, _operator_norms(*distinct)))
    for r, scales in open_checks:
        residual = norm_of[r]
        if not residual <= tol.eq_bound(max(norm_of[s] for s in scales)):
            return residual
    return None


def allclose(x: Element, y: Element, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether ||x - y|| <= tol.eq_bound(max(||x||, ||y||))."""
    return _first_over([(x - y, (x, y))], tol) is None


def _norm2_bound(matrix: np.ndarray, top: float, gap: float, values,
                 tol: Tolerances) -> float:
    """tol.eq_bound(max(||matrix||_2, 1)), as far as the checks of values see it.

    ||matrix||_2 lies within gap of top.  The bound at the low end of that
    bracket gives every v in values the verdict v > bound of the exact
    bound, unless v falls between the bounds at the two ends; only then is
    the dense norm of matrix taken.

    The floor of 1 matters only for a matrix of norm below 1, where the
    bound is absolute with or without it: eq_abs + eq_rel * ||matrix||_2
    becomes eq_abs + eq_rel, so the floor adds at most eq_rel (equal to
    eq_abs under the default policy).  A residual of such a matrix rounds
    at a scale below 1, so the floor grants it the slack of a map of norm
    1, as eq_abs alone grants that of the zero map; it moves no verdict of
    a matrix of norm 1 or more.
    """
    lo, hi = (tol.eq_bound(max(top + e, 1.0)) for e in (-gap, gap))
    if any(lo < v <= hi for v in values):
        return tol.eq_bound(max(float(np.linalg.norm(matrix, 2)), 1.0))
    return lo


def flatten_element(x: Element) -> np.ndarray:
    """Row-major concatenation of all blocks into a vector of length total_dim."""
    return np.concatenate([b.reshape(-1) for b in x.blocks])


def unflatten_element(algebra: BlockAlgebra, vec: np.ndarray) -> Element:
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    if vec.size != algebra.total_dim:
        raise ShapeError(f"expected vector of length {algebra.total_dim}, got {vec.size}")
    return Element(algebra, [vec[c] for c in algebra.coords])


# -- Hermitian eigensystems and functional calculus ----------------------


@lru_cache(maxsize=64)
def _off_real_diagonal(n: int) -> np.ndarray:
    """Read-only mask of the 2 n^2 float parts of an n x n complex matrix, in
    memory order, that are not the real part of a diagonal entry.
    """
    mask = np.ones((n, n, 2), dtype=bool)
    mask[range(n), range(n), 0] = False
    mask = mask.ravel()
    mask.setflags(write=False)
    return mask


def _general_blocks(a: np.ndarray) -> np.ndarray:
    """Per block of the stack a, whether it is not exactly diagonal and real:
    whether any part that _off_real_diagonal marks is nonzero (or NaN).
    """
    parts = np.ascontiguousarray(a).view(np.float64).reshape(len(a), -1)
    return parts[:, _off_real_diagonal(a.shape[-1])].any(axis=-1)


def _eig_classes(h: Element, tol: Tolerances) -> tuple:
    """Stacked eigensystems of a positive element, one per size class.

    Returns a tuple of read-only (w, U) aligned with h.algebra.classes:
    eigenvalues w (k, n) clamped to 0 below the support cutoff, and
    eigenvectors U (k, n, n).  Blocks that are exactly diagonal with real
    entries get the trivial eigensystem, which keeps identity densities
    bit-exact through powers; the rest of each class shares one batched
    eigh of its Hermitian part.  The result is kept on h, one per tol.
    Raises NotPositiveError, naming the first offending block, if h is not
    Hermitian PSD within tolerance, on every call.

    Each check and the clamp first look at a whole class through one
    reduction: asymmetry within eq_abs is within every block's bound, no
    eigenvalue below the floor leaves no block below it, and none below the
    cutoff leaves nothing to clamp.  Only when this leaves a class open (a
    larger asymmetry, a lower eigenvalue, a NaN) is that check taken block
    by block, with the per-block values that its error names.

    Finiteness is tested first, and raises NonFiniteError: eigh returns NaN
    or fails on a NaN, and an infinity makes the Hermitian check NaN.
    """
    if h._eig and tol in h._eig:
        return h._eig[tol]
    if not all(np.isfinite(a).all() for a in h.stacks):
        raise NonFiniteError("eigendecomposition: the matrix holds a NaN or an infinity")
    gaps = [np.abs(a - _h(a)) for a in h.stacks]
    if not all(g.max() <= tol.eq_abs for g in gaps):
        asym = [g.max(axis=(-2, -1)) for g in gaps]
        over = [s > tol.eq_abs + tol.eq_rel * np.abs(a).max(axis=(-2, -1))
                for s, a in zip(asym, h.stacks)]
        if any(o.any() for o in over):
            k, worst = min(_offenders(h, over, asym))
            raise NotPositiveError(f"block {k} is not Hermitian: asymmetry {worst:.3e}")
    raw = []
    for a in h.stacks:
        general = _general_blocks(a)
        count = np.count_nonzero(general)
        if count == len(a):
            raw.append(_eigh((a + _h(a)) / 2.0, len(a)))
            continue
        w = np.diagonal(a, axis1=-2, axis2=-1).real.copy()
        u = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape).copy()
        if count:
            g = a[general]
            w[general], u[general] = _eigh((g + _h(g)) / 2.0, len(a))
        raw.append((w, u))
    lows = [float(w.min()) for w, _ in raw]
    # max |w| per class, NaN if the class holds one, as np.abs(w).max() gives it
    lmax = max(max(float(w.max()), -low) for (w, _), low in zip(raw, lows))
    floor = -tol.eq_bound(lmax)
    if not all(low >= floor for low in lows):
        block_lows = [w.min(axis=-1) for w, _ in raw]
        under = [low < floor for low in block_lows]
        if any(u.any() for u in under):
            k, low = min(_offenders(h, under, block_lows))
            raise NotPositiveError(f"block {k} has negative eigenvalue {low:.3e}")
    clamped = []
    for (w, _), low in zip(raw, lows):
        cutoff = tol.rank_rel * lmax * w.shape[-1]
        clamped.append(w if low > cutoff else np.where(w > cutoff, w, 0.0))
    classes = tuple(zip(_frozen(*clamped), _frozen(*(u for _, u in raw))))
    _setfield(h, "_eig", {**(h._eig or {}), tol: classes})
    return classes


def _offenders(h: Element, flags, values) -> list:
    """[(block index, value)] of every flagged block; flags and values hold
    one (k,) array per size class of h.
    """
    return [(idx[j], v[j]) for idx, f, v in zip(h.algebra.classes, flags, values)
            for j in np.flatnonzero(f)]


def _calc(algebra: BlockAlgebra, classes, f) -> Element:
    """U diag(f(w)) U* for every size class of an _eig_classes result."""
    return _spectral(algebra, [(u, f(w), _h(u)) for w, u in classes])


def func_calc(h: Element, f, tol: Tolerances = DEFAULT_TOL) -> Element:
    """Apply an array function to a positive element through its spectrum.

    f is called once per size class of the algebra with the (k, n) array
    of the eigenvalues of its k blocks of size n, and must return an array
    of the same shape.  Eigenvalues below the support cutoff are passed as
    exactly 0, so the support convention is decided by f at 0.  The array
    is read-only, as it is kept with the eigensystem: f returns a new one.
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
    if math.isnan(c):
        raise NonFiniteError("threshold must not be NaN")
    if c < 0.0:
        raise ValueError(f"threshold must be nonnegative, got {c}")
    return func_calc(h, lambda w: (w >= c) & (w > 0.0), tol)
