"""Block-diagonal complex matrix algebras with functional calculus.

A finite-dimensional von Neumann algebra is a direct sum of full complex
matrix blocks.  Everything downstream (weights, divisions, graded norms)
is built on the types and operations in this module.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Direct sum of full matrix blocks, recorded by their dimensions."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.block_dims)
        if len(dims) == 0:
            raise ValueError("block_dims must be nonempty")
        if any(n < 1 for n in dims):
            raise ValueError(f"block dimensions must be >= 1, got {dims}")
        object.__setattr__(self, "block_dims", dims)

    @property
    def total_dim(self) -> int:
        """Complex dimension of the underlying vector space, sum of n_k^2."""
        return sum(n * n for n in self.block_dims)

    @property
    def matrix_dim(self) -> int:
        """Total matrix size, sum of n_k (the algebra acts on C^matrix_dim)."""
        return sum(self.block_dims)

    def identity(self) -> Element:
        return Element(self, tuple(np.eye(n, dtype=complex) for n in self.block_dims))

    def zero(self) -> Element:
        return Element(self, tuple(np.zeros((n, n), dtype=complex) for n in self.block_dims))

    def basis(self):
        """Yield the matrix-unit basis E_ij of every block, in flattening order."""
        for k, n in enumerate(self.block_dims):
            for i in range(n):
                for j in range(n):
                    blocks = [np.zeros((m, m), dtype=complex) for m in self.block_dims]
                    blocks[k][i, j] = 1.0
                    yield Element(self, tuple(blocks))


def _freeze(block: np.ndarray) -> np.ndarray:
    out = np.array(block, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Element:
    """An element of a BlockAlgebra: one complex matrix per block.

    Immutable after construction; all arithmetic returns new elements.
    """

    algebra: BlockAlgebra
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        dims = self.algebra.block_dims
        if len(self.blocks) != len(dims):
            raise ShapeError(
                f"expected {len(dims)} blocks, got {len(self.blocks)}")
        frozen = []
        for k, (block, n) in enumerate(zip(self.blocks, dims)):
            arr = np.asarray(block)
            if arr.shape != (n, n):
                raise ShapeError(
                    f"block {k} must have shape ({n}, {n}), got {arr.shape}")
            frozen.append(_freeze(arr))
        object.__setattr__(self, "blocks", tuple(frozen))

    # -- ring structure -------------------------------------------------

    def _check_compatible(self, other: Element):
        if self.algebra.block_dims != other.algebra.block_dims:
            raise AlgebraMismatchError(
                f"incompatible algebras: {self.algebra.block_dims} vs "
                f"{other.algebra.block_dims}")

    def __add__(self, other: Element) -> Element:
        self._check_compatible(other)
        return Element(self.algebra, tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other: Element) -> Element:
        self._check_compatible(other)
        return Element(self.algebra, tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __neg__(self) -> Element:
        return Element(self.algebra, tuple(-a for a in self.blocks))

    def __matmul__(self, other: Element) -> Element:
        self._check_compatible(other)
        return Element(self.algebra, tuple(a @ b for a, b in zip(self.blocks, other.blocks)))

    def __mul__(self, scalar) -> Element:
        c = complex(scalar)
        return Element(self.algebra, tuple(c * a for a in self.blocks))

    __rmul__ = __mul__

    def adjoint(self) -> Element:
        return Element(self.algebra, tuple(a.conj().T for a in self.blocks))

    @property
    def H(self) -> Element:
        return self.adjoint()

    def __repr__(self):
        return f"Element(dims={self.algebra.block_dims})"


def make_element(algebra: BlockAlgebra, blocks) -> Element:
    """Validate a list of matrices against the algebra and wrap it."""
    return Element(algebra, tuple(blocks))


def trace(x: Element) -> complex:
    """Unnormalized blockwise matrix trace, the reference trace everywhere."""
    return complex(sum(np.trace(b) for b in x.blocks))


# -- factorizations stacked by size class ----------------------------------
#
# Every spectral quantity is one formula per block, U diag(f(s)) V* or
# U diag(f(w)) U*.  Factorizations are therefore kept as a list of
# (idx, stacked factors), one entry per class of equal-size blocks idx,
# from numpy's batched LAPACK through to _assemble, which scatters the
# rebuilt (k, n, n) stacks back into an Element.  numpy.linalg is looked
# up at call time throughout, so it can be wrapped to count factorizations.


def _classes(routine, blocks) -> list:
    """[(idx, routine(stack))] for each class idx of equal-size blocks.

    The classes come in order of first appearance, and stack holds the
    blocks idx as one (k, n, n) array, so numpy's batched LAPACK factorizes
    a whole class in one call; its results equal the per-block calls bit
    for bit.
    """
    classes = {}
    for k, b in enumerate(blocks):
        classes.setdefault(b.shape, []).append(k)
    return [(idx, routine(np.stack([blocks[k] for k in idx])))
            for idx in classes.values()]


def _assemble(algebra: BlockAlgebra, classes) -> Element:
    """The Element whose blocks idx are the matrices of stack, for each (idx, stack)."""
    blocks = [None] * len(algebra.block_dims)
    for idx, stack in classes:
        for k, b in zip(idx, stack):
            blocks[k] = b
    return Element(algebra, tuple(blocks))


def _h(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _udv(u: np.ndarray, d: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """u @ diag(d) @ vh for every matrix in the stacks; d has shape (k, n)."""
    return (u * d[:, None, :]) @ vh


def _spectral_power(s: np.ndarray, a) -> np.ndarray:
    """s^a = exp(a log s) entrywise for s >= 0, with 0^a := 0."""
    out = np.zeros(s.shape, dtype=complex)
    mask = s > 0.0
    out[mask] = np.exp(a * np.log(s[mask]))
    return out


def _svdvals(blocks) -> list:
    """[(idx, s)], s the descending singular values of each class, values only."""
    return _classes(lambda a: np.linalg.svd(a, compute_uv=False), blocks)


def _svd_support(x: Element, tol: Tolerances) -> list:
    """[(idx, (u, s, vh, keep))] per size class, keep masking the support.

    keep marks the singular values above the cutoff rank_rel * smax * n,
    with smax the largest singular value over all blocks and n the size of
    the class.
    """
    svds = _classes(np.linalg.svd, x.blocks)
    smax = max(float(s.max()) for _, (_, s, _) in svds)
    return [(idx, (u, s, vh, s > tol.rank_rel * smax * s.shape[-1]))
            for idx, (u, s, vh) in svds]


def _operator_norms(*xs: Element) -> list[float]:
    """operator_norm of each element, from one values-only SVD per size class."""
    blocks = [b for x in xs for b in x.blocks]
    top = np.empty(len(blocks))
    for idx, s in _svdvals(blocks):
        top[idx] = s[:, 0]
    out, pos = [], 0
    for x in xs:
        out.append(float(top[pos:pos + len(x.blocks)].max()))
        pos += len(x.blocks)
    return out


def operator_norm(x: Element) -> float:
    """Largest singular value over all blocks."""
    return _operator_norms(x)[0]


def distance(x: Element, y: Element) -> float:
    """operator_norm(x - y), the metric used by all closeness checks."""
    return operator_norm(x - y)


def allclose(x: Element, y: Element, tol: Tolerances = DEFAULT_TOL) -> bool:
    nx, ny, gap = _operator_norms(x, y, x - y)
    return gap <= tol.eq_bound(max(nx, ny))


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
    return Element(algebra, tuple(blocks))


# -- Hermitian eigensystems and functional calculus ----------------------


def _eig_classes(h: Element, tol: Tolerances):
    """Stacked eigensystems of a positive element, one per size class.

    Returns (classes, lmax) with classes a list of (idx, (w, U)): the
    blocks idx of one size, their eigenvalues w (k, n) clamped to 0 below
    the support cutoff, and eigenvectors U (k, n, n).  The blocks that are
    not exactly real diagonal share one batched eigh per class.  Raises
    NotPositiveError, naming the first offending block, if h is not
    Hermitian PSD within tolerance.
    """
    stacks = _classes(np.asarray, h.blocks)
    bad = []
    for idx, a in stacks:
        asym = np.abs(a - _h(a)).max(axis=(-2, -1))
        bound = tol.eq_abs + tol.eq_rel * np.abs(a).max(axis=(-2, -1))
        bad += [(idx[j], asym[j]) for j in np.flatnonzero(asym > bound)]
    if bad:
        k, asym = min(bad)
        raise NotPositiveError(f"block {k} is not Hermitian: asymmetry {asym:.3e}")
    raw = []
    for idx, a in stacks:
        n = a.shape[-1]
        # exactly diagonal with real entries: trivial eigensystem,
        # which keeps identity densities bit-exact through powers
        w = np.diagonal(a, axis1=-2, axis2=-1).real.copy()
        u = np.broadcast_to(np.eye(n, dtype=complex), a.shape).copy()
        general = (np.any(a[:, ~np.eye(n, dtype=bool)], axis=-1)
                   | np.any(a.imag, axis=(-2, -1)))
        if general.any():
            g = a[general]
            w[general], u[general] = np.linalg.eigh((g + _h(g)) / 2.0)
        raw.append((idx, w, u))
    lmax = max(float(np.abs(w).max()) for _, w, _ in raw)
    floor = -tol.eq_bound(lmax)
    neg = [(idx[j], w[j].min()) for idx, w, _ in raw
           for j in np.flatnonzero(w.min(axis=-1) < floor)]
    if neg:
        k, low = min(neg)
        raise NotPositiveError(f"block {k} has negative eigenvalue {low:.3e}")
    classes = [(idx, (np.where(w > tol.rank_rel * lmax * w.shape[-1], w, 0.0), u))
               for idx, w, u in raw]
    return classes, lmax


def func_calc(h: Element, f, tol: Tolerances = DEFAULT_TOL) -> Element:
    """Apply a scalar function to a positive element through its spectrum.

    Eigenvalues below the support cutoff are passed to ``f`` as exactly 0,
    so the support convention is decided by ``f(0)``.
    """
    classes, _ = _eig_classes(h, tol)
    out = []
    for idx, (w, u) in classes:
        fw = np.array([f(float(lam)) for lam in w.ravel()], dtype=complex)
        out.append((idx, _udv(u, fw.reshape(w.shape), _h(u))))
    return _assemble(h.algebra, out)


def _powers(h: Element, exponents, tol: Tolerances) -> list[Element]:
    """power_pos(h, a, tol) for every a in exponents, from one eigensystem."""
    classes, _ = _eig_classes(h, tol)
    return [_assemble(h.algebra, [(idx, _udv(u, _spectral_power(w, complex(a)), _h(u)))
                                  for idx, (w, u) in classes])
            for a in exponents]


def power_pos(h: Element, a, tol: Tolerances = DEFAULT_TOL) -> Element:
    """Complex power of a positive element, with 0^a := 0.

    Eigenvalues above the support cutoff map to exp(a*log(lam)) with the
    principal real logarithm; the kernel is carried along as 0.  Negative
    real parts therefore act as pseudo-powers on the support.
    """
    return _powers(h, (a,), tol)[0]


def spectral_projection(h: Element, c: float, tol: Tolerances = DEFAULT_TOL) -> Element:
    """Projection onto the part of the spectrum in [c, inf).

    For c = 0 this is the support projection (the kernel never counts).
    """
    c = float(c)
    if c < 0.0:
        raise ValueError(f"threshold must be nonnegative, got {c}")
    classes, _ = _eig_classes(h, tol)
    # the kernel never counts, so c = 0 gives the support projection
    return _assemble(h.algebra, [(idx, _udv(u, (w >= c) & (w > 0.0), _h(u)))
                                 for idx, (w, u) in classes])
