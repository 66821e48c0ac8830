"""Block-diagonal complex matrix algebras with functional calculus.

A finite-dimensional von Neumann algebra is a direct sum of full complex
matrix blocks.  Everything downstream (weights, divisions, graded norms)
is built on the types and operations in this module.
"""

from __future__ import annotations

import math
import numbers
import operator
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .errors import (AlgebraMismatchError, NonFiniteError, NotPositiveError, OutOfRangeError,
                     ShapeError)


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


def _index(value, what: str) -> int:
    """operator.index(value), refusing a bool: JSON's true and false are no
    sizes or counts, though Python takes them for 1 and 0."""
    if isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


class BlockAlgebra(_Value):
    """Direct sum of full matrix blocks, recorded by their dimensions.

    classes holds the block indices of each size, in order of first
    appearance; elements store one (k, n, n) stack per class.  Algebras
    compare, hash and print by block_dims alone.
    """

    _fields = ("block_dims",)

    def __init__(self, block_dims: tuple[int, ...]):
        dims = tuple(_index(n, "block dimension") for n in block_dims)
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
        _setfield(self, "_gathers", None)
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

    def _gather(self) -> tuple[np.ndarray, ...]:
        """Per size class, the read-only (k, n, n) coords of its blocks: one
        fancy index of a flat vector gathers its stack.  Built on first use."""
        if self._gathers is None:
            _setfield(self, "_gathers", _frozen(*(np.stack([self.coords[k] for k in idx])
                                                  for idx in self.classes)))
        return self._gathers

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
    stacks, and refuses a block that holds a NaN or an infinity with
    NonFiniteError; blocks gives them back as read-only per-block views.
    Immutable after construction; all arithmetic returns new elements.
    Elements compare and hash by identity.
    """

    # Placeholders, class-level so that building an element sets none: _d
    # holds the diagonal factors of an element built by _spectral, _sv the
    # singular values once a norm has read them (both read by _svals), _eig
    # a dict of the eigensystems of _eig_classes, keyed by Tolerances, and
    # _blocks the per-block views once blocks has been read.
    _d = _sv = _eig = _blocks = None

    def __init__(self, algebra: BlockAlgebra, blocks):
        dims = algebra.block_dims
        blocks = [np.asarray(b) for b in blocks]
        if len(blocks) != len(dims):
            raise ShapeError(f"expected {len(dims)} blocks, got {len(blocks)}")
        for k, (arr, n) in enumerate(zip(blocks, dims)):
            if arr.shape != (n, n):
                raise ShapeError(
                    f"block {k} must have shape ({n}, {n}), got {arr.shape}")
        stacks = tuple([np.array([blocks[k] for k in idx], dtype=complex)
                        for idx in algebra.classes])
        if not all(np.isfinite(s).all() for s in stacks):
            k = min(idx[j] for idx, s in zip(algebra.classes, stacks)
                    for j in np.flatnonzero(~np.isfinite(s).all(axis=(-2, -1))))
            raise NonFiniteError(f"block {k} has a NaN or infinite entry")
        self._set(algebra, stacks)

    def _set(self, algebra: BlockAlgebra, stacks: tuple):
        for s in stacks:
            s.setflags(write=False)
        _setfield(self, "algebra", algebra)
        _setfield(self, "stacks", stacks)

    @classmethod
    def _of(cls, algebra: BlockAlgebra, stacks) -> Element:
        """The element with the given stacks, taken as they are: no copy, no check.

        Every caller hands in stacks the library has just computed, one
        complex128 (k, n, n) array per size class of algebra, which no one
        else holds; _of only makes them read-only.
        """
        out = object.__new__(cls)
        out._set(algebra, tuple(stacks))
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
        if self.algebra is not other.algebra:
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


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a*) / 2 for every matrix in a stack, halved before the sum, so
    that the part of a finite stack is finite (the same bits above the
    subnormal range)."""
    half = a / 2.0
    return half + _h(half)


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
# ladder) go through the same gate, _matmul, to BLAS or the kernel.  The
# funnel (with _eigvalsh) takes and records every factorization in the
# library.  numpy.linalg and nclp.kernels are read through their modules at
# call time, because tests/test_traffic.py wraps them to check that no
# factorization escapes the recorder.
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
# never changes a bit: douglas_ladder hands in the blocks of a class that
# share a rung width.  Both sides give a real diagonal block its diagonal as
# eigenvalues, exactly, so diagonal densities stay exact through powers.
# The kernels are imported on first use (about 3 ms when no bytecode is
# cached), so that a process that factorizes and multiplies only smaller
# classes (every shipped demo input, the default verify) never loads them.

KERNEL_BLOCKS = 32

# nclp.kernels, bound on first use: an import statement in the funnel would
# cost an importlib lookup per call.  Its functions are read through the
# module at call time, so that tests can wrap them (see the funnel comment).
_kernels = None

# None, or what the funnel calls as _recorder(kind, compute_uv, shape) before
# each factorization: "svd", "eigh" or "eigvalsh", a kernel call as the LAPACK
# call it replaces.  An error it raises fails the factorization.
# The tests' lapack fixture (tests/conftest.py) installs one.
_recorder = None


def _load_kernels():
    global _kernels
    from . import kernels
    _kernels = kernels
    return kernels


@contextmanager
def _overflow(what: str):
    """Run the body under np.errstate(over="raise"): OutOfRangeError, naming
    what, when an operation in it overflows, with no numpy warning."""
    with np.errstate(over="raise"):
        try:
            yield
        except FloatingPointError:
            raise OutOfRangeError(f"{what} exceeds the float range") from None


def _svd(a: np.ndarray, blocks: int, what: str, compute_uv: bool = True):
    """The SVD (u, s, vh), or s alone, of the stack a, whose blocks come from
    a size class of blocks blocks in their algebra: a may be that class or a
    part of it.  NonFiniteError, naming the operation what, when a holds a
    NaN or an infinity, tested before anything is recorded or factorized:
    the one finiteness rule of every SVD, as LAPACK's full SVD may never
    return on a block of size 3 or more that holds an infinity.
    OutOfRangeError, naming what, when a singular value of the finite a is
    past the float range: LAPACK and the kernel both return it as inf, and
    the leading value of each block, its largest, is tested.
    """
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{what}: the matrix holds a NaN or an infinity")
    if _recorder is not None:
        _recorder("svd", compute_uv, a.shape)
    if blocks >= KERNEL_BLOCKS and a.shape[-2:] == (2, 2):
        out = (_kernels or _load_kernels()).svd2(a, compute_uv)
    else:
        out = np.linalg.svd(a, compute_uv=compute_uv)
    if not (out[1] if compute_uv else out)[..., 0].max() < math.inf:
        raise OutOfRangeError(f"{what}: a singular value exceeds the float range")
    return out


def _eigh(a: np.ndarray, blocks: int):
    """(w, u), the eigensystems of the finite Hermitian stack a, whose blocks
    come from a size class of blocks blocks in their algebra.
    OutOfRangeError when an eigenvalue is past the float range, as _svd
    tests it: w ascends, so the values at its two ends are tested."""
    if _recorder is not None:
        _recorder("eigh", None, a.shape)
    if blocks >= KERNEL_BLOCKS and a.shape[-2:] == (2, 2):
        w, u = (_kernels or _load_kernels()).eigh2(a)
    else:
        w, u = np.linalg.eigh(a)
    if not (w[:, -1].max() < math.inf and w[:, 0].min() > -math.inf):
        raise OutOfRangeError("eigendecomposition: an eigenvalue exceeds the float range")
    return w, u


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """The eigenvalues, ascending, of the finite Hermitian matrix a, on LAPACK."""
    if _recorder is not None:
        _recorder("eigvalsh", None, a.shape)
    return np.linalg.eigvalsh(a)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product a @ b of two stacks that each hold one whole size class of
    their algebra, so that the stack's length is the class's block count."""
    if len(a) >= KERNEL_BLOCKS and a.shape[-2:] == (2, 2):
        return (_kernels or _load_kernels()).matmul2(a, b)
    return np.matmul(a, b)


def _spectral_power(s: np.ndarray, a, what: str) -> np.ndarray:
    """s^a = exp(a log s) entrywise for finite s >= 0, with 0^a := 0.

    OutOfRangeError, naming the operation what, when a power lies past the
    float range.  Every positive float s has log s in [-744.5, 709.8], so no
    power overflows while -0.95 <= Re a <= 1 and |Im a| <= 1e300; only an a
    outside that range pays for the test.
    """
    a = complex(a)
    out = np.zeros(s.shape, dtype=complex)
    mask = s > 0.0
    if -0.95 <= a.real <= 1.0 and abs(a.imag) <= 1e300:
        out[mask] = np.exp(a * np.log(s[mask]))
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            out[mask] = np.exp(a * np.log(s[mask]))
        if not np.isfinite(out).all():
            raise OutOfRangeError(f"{what}: a power at exponent {a} exceeds the float range")
    return out


@lru_cache(maxsize=FACTOR_CACHE)
def _svds(x: Element) -> tuple:
    """The full SVD (u, s, vh) of each size-class stack of x, read-only;
    NonFiniteError from _svd when a stack holds a NaN or an infinity."""
    return tuple(_frozen(*_svd(a, len(a), "singular value decomposition")) for a in x.stacks)


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


def _svals(x: Element, what: str) -> tuple:
    """The singular values (k, n) of each size-class stack of x, read-only.

    Each row descends.  An element built by _spectral sorts its finite |d|
    as floats; any other takes one values-only SVD per class (_svd, naming
    what), on LAPACK or on the kernel by the class's block count, never
    taken from _svds, as the two can differ by a few ulps.  Either way the
    values are kept on x, filled on first read, so every norm of x reads
    one factorization.
    """
    sv = x._sv
    if sv is None:
        if x._d is None:
            sv = _frozen(*(_svd(a, len(a), what, compute_uv=False) for a in x.stacks))
        else:
            sv = _frozen(*(np.sort(np.abs(d).astype(float, copy=False), axis=-1)[:, ::-1]
                           for d in x._d))
        _setfield(x, "_sv", sv)
    return sv


def _top(svals) -> float:
    """The largest leading singular value of (k, n) arrays of singular values."""
    return max([t for s in svals for t in s[:, 0].tolist()])


def operator_norm(x: Element) -> float:
    """Largest singular value over all blocks; NonFiniteError if a block holds
    a NaN or an infinity."""
    return _top(_svals(x, "operator norm"))


def distance(x: Element, y: Element) -> float:
    """operator_norm(x - y), the metric used by all closeness checks.

    The values-only SVD of each stack of the difference, as _svals takes it
    for x - y, with no element built and nothing kept.
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
    ends NaN, so that a residual or scale formed by overflowing arithmetic
    never passes on its bracket: it goes on to the exact norm, which refuses it.
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
    pass.  A check left open reads the exact operator norms of r and its
    scales, which each element keeps for any later reader, so NonFiniteError
    when one holds a NaN or an infinity.
    """
    for r, scales in checks:
        hi = _entry_bracket(r)[1]
        if hi < math.inf and any(2.0 * hi <= tol.eq_bound(_entry_bracket(s)[0]) for s in scales):
            continue
        residual = operator_norm(r)
        if residual > tol.eq_bound(max(map(operator_norm, scales))):
            return residual
    return None


def allclose(x: Element, y: Element, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether ||x - y|| <= tol.eq_bound(max(||x||, ||y||))."""
    return _first_over([(x - y, (x, y))], tol) is None


def _ldexp(v: float, e: int) -> float:
    """v 2^e, as math.ldexp, but inf past the float range: a norm summed on
    data scaled by 2^-e, brought back to scale."""
    try:
        return math.ldexp(v, e)
    except OverflowError:
        return math.inf


def flatten_element(x: Element) -> np.ndarray:
    """Row-major concatenation of all blocks into a vector of length total_dim."""
    return np.concatenate([b.reshape(-1) for b in x.blocks])


def unflatten_element(algebra: BlockAlgebra, vec: np.ndarray) -> Element:
    """The element whose flat coordinates are vec: one gather per size class,
    which makes the fresh complex stack that Element._of takes."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    if vec.size != algebra.total_dim:
        raise ShapeError(f"expected vector of length {algebra.total_dim}, got {vec.size}")
    return Element._of(algebra, [vec[g] for g in algebra._gather()])


# -- Hermitian eigensystems and functional calculus ----------------------


def _eig_classes(h: Element, tol: Tolerances) -> tuple:
    """Stacked eigensystems of a positive element, one per size class.

    Returns a tuple of read-only (w, U) aligned with h.algebra.classes:
    eigenvalues w (k, n) clamped to 0 below the support cutoff, and
    eigenvectors U (k, n, n).  Each class takes one batched eigh of its
    Hermitian part through _eigh, which returns an exactly diagonal real
    block's diagonal exactly (the funnel comment), so diagonal densities
    stay bit-exact through powers.  The result is kept on h, one per tol.
    Raises NotPositiveError, naming the first offending block, if h is not
    Hermitian PSD within tolerance, on every call.

    Each check and the clamp first look at a whole class through one
    reduction: asymmetry within eq_abs is within every block's bound, no
    eigenvalue below the floor leaves no block below it, and none below the
    cutoff leaves nothing to clamp.  Only when this leaves a class open (a
    larger asymmetry, a lower eigenvalue, a NaN) is that check taken block
    by block, with the per-block values that its error names.

    Finiteness is tested first, and raises NonFiniteError, as the Hermitian
    check subtracts before any factorization, where an infinity would warn;
    with sampling.random_projection's test, _eigh sees finite stacks only.
    """
    if h._eig and tol in h._eig:
        return h._eig[tol]
    if not all(np.isfinite(a).all() for a in h.stacks):
        raise NonFiniteError("eigendecomposition: the matrix holds a NaN or an infinity")
    # the Hermitian check reads a quarter of each stack, exact above the
    # subnormal range, where no difference or modulus of finite parts
    # overflows; its verdicts and figures are those of the whole stack
    quarters = [0.25 * a for a in h.stacks]
    gaps = [np.abs(q - _h(q)) for q in quarters]
    if not all(g.max() <= 0.25 * tol.eq_abs for g in gaps):
        asym = [g.max(axis=(-2, -1)) for g in gaps]
        over = [s > 0.25 * tol.eq_abs + tol.eq_rel * np.abs(q).max(axis=(-2, -1))
                for s, q in zip(asym, quarters)]
        if any(o.any() for o in over):
            k, worst = min(_offenders(h, over, asym))
            raise NotPositiveError(
                f"block {k} is not Hermitian: asymmetry {4.0 * float(worst):.3e}")
    raw = [_eigh(_hermitian_part(a), len(a)) for a in h.stacks]
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
    NonFiniteError when f returns a NaN or an infinity, which the result
    would keep as singular values (_svals) that no SVD tests.
    """
    classes = _eig_classes(h, tol)
    values = [f(w) for w, _ in classes]
    if not all(np.isfinite(d).all() for d in values):
        raise NonFiniteError("func_calc: f returned a NaN or an infinity")
    return _spectral(h.algebra, [(u, d, _h(u)) for d, (_, u) in zip(values, classes)])


def power_pos(h: Element, a, tol: Tolerances = DEFAULT_TOL) -> Element:
    """Complex power of a positive element, with 0^a := 0.

    Eigenvalues above the support cutoff map to exp(a*log(lam)) with the
    principal real logarithm; the kernel is carried along as 0.  Negative
    real parts therefore act as pseudo-powers on the support.
    OutOfRangeError when a power lies past the float range.
    """
    return _calc(h.algebra, _eig_classes(h, tol), lambda w: _spectral_power(w, a, "power_pos"))


def spectral_projection(h: Element, c: float, tol: Tolerances = DEFAULT_TOL) -> Element:
    """Projection onto the part of the spectrum in [c, inf).

    For c = 0 this is the support projection (the kernel never counts).
    """
    c = float(c)
    if math.isnan(c):
        raise NonFiniteError("threshold must not be NaN")
    if c < 0.0:
        raise ValueError(f"threshold must be nonnegative, got {c}")
    return _calc(h.algebra, _eig_classes(h, tol), lambda w: (w >= c) & (w > 0.0))
