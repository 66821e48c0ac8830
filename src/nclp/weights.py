"""Weights as density matrices, modular flows, cocycles, pushforwards.

Every weight on a finite-dimensional block algebra is trace against a
positive semidefinite density h: mu(x) = trace(h @ x).  Faithful means
h is positive definite.  The modular automorphism group and the cocycle
derivative then become explicit matrix formulas, h^a p h^-a and h^a k^-a,
with complex powers taken through the positive functional calculus.
"""

from __future__ import annotations

import operator
from functools import partial

import numpy as np

from .errors import NonFaithfulError, NonFiniteError, ValidationError
from .graded import _grading, _require_imaginary
from .matcore import (
    DEFAULT_TOL,
    BlockAlgebra,
    Element,
    Tolerances,
    ToleranceReport,
    distance,
    flatten_element,
    _calc,
    _eig_classes,
    _norm2_bound,
    _operator_norms,
    _same_algebra,
    _spectral_power,
    _Frozen,
    _setfield,
    _Value,
    trace,
    unflatten_element,
)


class Weight(_Frozen):
    """A weight mu(x) = trace(density @ x); faithful iff density is definite.

    The tolerance decides the support cutoff: a density whose spectrum spans
    more than about 1/rank_rel reports as nonfaithful unless constructed
    with a tighter policy (pass the same policy to the modular operations).

    The density keeps its validated eigensystem, one per policy, as every
    element does (matcore._eig_classes): construction checks positivity
    once, and the support and every power at that policy read the kept
    eigensystem, however many other elements have been factorized since.
    Another policy checks the density again, once.  Weights compare and
    hash by identity; a pickled or deep-copied weight holds a copy of the
    density, which takes its eigensystem again on first use.
    """

    def __init__(self, density: Element, tol: Tolerances = DEFAULT_TOL):
        # the eigensystem that checks positivity (or raises NotPositiveError)
        # also decides faithfulness
        _setfield(self, "faithful", all((w > 0.0).all() for w, _ in _eig_classes(density, tol)))
        _setfield(self, "density", density)
        _setfield(self, "tol", tol)
        _setfield(self, "_support", None)

    @property
    def algebra(self) -> BlockAlgebra:
        return self.density.algebra

    @property
    def support(self) -> Element:
        """The support projection of the density, built on first use."""
        if self._support is None:
            _setfield(self, "_support", _calc(self.algebra, _eig_classes(self.density, self.tol),
                                              lambda w: w > 0.0))
        return self._support

    def __call__(self, x: Element) -> complex:
        return evaluate(self, x)

    def power(self, a, tol: Tolerances | None = None) -> Element:
        """Matrix of the grading-a symbol of this weight, density^a."""
        return self.powers((a,), tol)[0]

    def powers(self, exponents, tol: Tolerances | None = None) -> list[Element]:
        """density^a for every a in exponents, from one eigensystem of the
        density at tol, the weight's own policy by default."""
        classes = _eig_classes(self.density, self.tol if tol is None else tol)
        return [_calc(self.algebra, classes, partial(_spectral_power, a=a)) for a in exponents]

    def __repr__(self):
        return f"Weight(dims={self.algebra.block_dims}, faithful={self.faithful})"


def trace_weight(algebra: BlockAlgebra) -> Weight:
    """The reference trace as a weight (identity density)."""
    return Weight(algebra.identity())


def evaluate(mu: Weight, x: Element) -> complex:
    """mu(x) = trace(density @ x); real and >= 0 on positive x."""
    _same_algebra(mu.algebra, x.algebra, "weight applied to an element of another algebra")
    return trace(mu.density @ x)


def modular_automorphism(mu: Weight, a, p: Element,
                         tol: Tolerances | None = None) -> Element:
    """Modular flow of a faithful weight: h^a @ p @ h^-a for imaginary a.

    A *-automorphism for every imaginary a; the flow of the trace is the
    identity because the identity density commutes with everything.
    Defaults to the weight's own tolerance policy.
    """
    tol = mu.tol if tol is None else tol
    a = _require_imaginary(a, tol, "parameter")
    if not mu.faithful:
        raise NonFaithfulError("modular automorphisms require a faithful weight")
    forward, backward = mu.powers((a, -a), tol)
    return forward @ p @ backward


def connes_cocycle(mu: Weight, nu: Weight, a,
                   tol: Tolerances | None = None) -> Element:
    """Cocycle derivative of mu against faithful nu: h^a @ k^-a, a imaginary.

    mu may be nonfaithful; its kernel rides along through 0^a = 0, making
    the result a partial isometry with left support equal to the support
    of mu's density.  Defaults to the denominator's tolerance policy.
    """
    tol = nu.tol if tol is None else tol
    a = _require_imaginary(a, tol, "parameter")
    if not nu.faithful:
        raise NonFaithfulError("cocycle derivative requires a faithful denominator")
    return mu.power(a, tol) @ nu.power(-a, tol)


def cocycle_identity_check(mu: Weight, nu: Weight, a, b,
                           tol: Tolerances | None = None) -> ToleranceReport:
    """Residual of (Dmu:Dnu)_{a+b} = (Dmu:Dnu)_a sigma^nu_a((Dmu:Dnu)_b).

    The bound is tol.eq_bound(max(||lhs||, 1)).  A residual within
    tol.eq_bound(1) passes whatever ||lhs|| is, so the norm of lhs is taken
    only for a larger residual.  The floor of 1 is the scale of the
    factors: for imaginary a and faithful nu, k^a and k^-a are unitaries,
    so rhs is formed from products of norm 1 and rounds at that scale, and
    lhs is a partial isometry of norm 1 (0 only when mu is zero, where the
    rounding of rhs is still at scale 1).
    """
    tol = nu.tol if tol is None else tol
    a = _require_imaginary(a, tol, "parameter")
    b = _require_imaginary(b, tol, "parameter")
    if not nu.faithful:
        raise NonFaithfulError("cocycle derivative requires a faithful denominator")
    # every power from one eigensystem of each density:
    # u_c = h^c k^-c and sigma^nu_a(z) = k^a z k^-a
    h_ab, h_a, h_b = mu.powers((a + b, a, b), tol)
    k_ab, k_a, k_b, k_up = nu.powers((-(a + b), -a, -b, a), tol)
    lhs = h_ab @ k_ab
    rhs = (h_a @ k_a) @ (k_up @ (h_b @ k_b) @ k_a)
    residual = distance(lhs, rhs)
    bound = tol.eq_bound(1.0)
    if residual > bound:
        bound = tol.eq_bound(max(_operator_norms(lhs)[0], 1.0))
    return ToleranceReport(
        max_residual=residual,
        passed=residual <= bound,
        context=f"cocycle identity at a={a}, b={b}")


def change_of_weight(x: Element, a, mu: Weight, nu: Weight,
                     tol: Tolerances | None = None) -> Element:
    """Convert the mu-coordinates of a grading-a element to nu-coordinates.

    The element y * mu^a is rewritten as y' * nu^a, which in densities
    means y' = y @ h^a @ k^-a.  Converting mu -> nu -> rho agrees with
    converting mu -> rho directly.
    """
    tol = mu.tol if tol is None else tol
    a = _grading(a, tol, "grading")
    if not (mu.faithful and nu.faithful):
        raise NonFaithfulError("change of weight requires faithful weights")
    return x @ mu.power(a, tol) @ nu.power(-a, tol)


# -- operator-valued weights ---------------------------------------------


class BlockEmbedding(_Value):
    """A unital *-homomorphism f: M -> N given by block assignment data.

    assignment[j] lists the source blocks whose direct sum fills target
    block j, in order; every source block must be used at least once so
    that f is injective.
    """

    _fields = ("source", "target", "assignment")

    def __init__(self, source: BlockAlgebra, target: BlockAlgebra,
                 assignment: tuple[tuple[int, ...], ...]):
        rows = tuple(tuple(map(operator.index, row)) for row in assignment)
        if len(rows) != len(target.block_dims):
            raise ValueError("assignment must have one row per target block")
        used = set()
        for j, row in enumerate(rows):
            total = 0
            for i in row:
                if not 0 <= i < len(source.block_dims):
                    raise ValueError(f"assignment row {j} references block {i}")
                total += source.block_dims[i]
                used.add(i)
            if total != target.block_dims[j]:
                raise ValueError(
                    f"assignment row {j} fills {total} of "
                    f"{target.block_dims[j]} dimensions")
        if used != set(range(len(source.block_dims))):
            raise ValueError("every source block must appear in the assignment")
        _setfield(self, "source", source)
        _setfield(self, "target", target)
        _setfield(self, "assignment", rows)

    def apply(self, x: Element) -> Element:
        """f(x): place the assigned source blocks on the target diagonal."""
        _same_algebra(x.algebra, self.source, "element does not live in the source algebra")
        out = np.zeros(self.target.total_dim, dtype=complex)
        for (i, _), (cols, copies) in _commutant_columns(self).items():
            out[cols[np.diag_indices(len(copies))]] = x.blocks[i]   # diagonal sub-blocks
        return unflatten_element(self.target, out)

    def compose(self, inner: BlockEmbedding) -> BlockEmbedding:
        """self o inner, for inner: L -> M and self: M -> N."""
        _same_algebra(inner.target, self.source, "embeddings do not compose")
        rows = tuple(
            tuple(i for m in row for i in inner.assignment[m])
            for row in self.assignment)
        return BlockEmbedding(inner.source, self.target, rows)


def _commutant_columns(embedding: BlockEmbedding) -> dict:
    """(i, j) -> (cols, slots) for the r copies of source block i in target block j.

    The bimodule maps N -> M are T_K(q)_i = sum_j sum_{s,t} K_ij[s, t] q_j[t, s]
    over the d x d sub-blocks q_j[t, s] between copies t and s; cols[s, t] holds
    the flat coordinates of q_j[t, s], and slots numbers the copies in order.
    """
    idx_n = embedding.target.coords
    copies, slot = {}, 0
    for j, row in enumerate(embedding.assignment):
        starts = np.cumsum([0, *(embedding.source.block_dims[i] for i in row)])
        for k, i in enumerate(row):
            copies.setdefault((i, j), []).append((slot + k, starts[k]))
        slot += len(row)
    out = {}
    for (i, j), pairs in copies.items():
        slots, offsets = zip(*pairs)
        p = np.array(offsets)[:, None] + np.arange(embedding.source.block_dims[i])
        out[i, j] = idx_n[j][p[None, :, :, None], p[:, None, None, :]], list(slots)
    return out


class OperatorValuedWeight(_Frozen):
    """A positive bimodule map T: N -> M over an embedding f: M -> N.

    Stored as an explicit linear map on the flattened coordinates of N, of
    shape (dim M, dim N); constructors guarantee nothing, use validate()
    before trusting it.  Maps compare and hash by identity.
    """

    _fields = ("embedding", "matrix")

    def __init__(self, embedding: BlockEmbedding, matrix: np.ndarray):
        mat = np.array(matrix, dtype=complex, copy=True)
        expected = (embedding.source.total_dim, embedding.target.total_dim)
        if mat.shape != expected:
            raise ValueError(f"matrix must have shape {expected}, got {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise NonFiniteError("operator-valued weight matrix must be finite")
        mat.setflags(write=False)
        _setfield(self, "embedding", embedding)
        _setfield(self, "matrix", mat)

    def __reduce__(self):
        # numpy does not pickle the read-only flag, so rebuild through __init__
        return OperatorValuedWeight, (self.embedding, self.matrix)

    @property
    def source(self) -> BlockAlgebra:
        return self.embedding.target   # N, where arguments live

    @property
    def target(self) -> BlockAlgebra:
        return self.embedding.source   # M, where values land

    def apply(self, q: Element) -> Element:
        _same_algebra(q.algebra, self.source, "argument does not live in the source algebra")
        return unflatten_element(self.target, self.matrix @ flatten_element(q))

    @classmethod
    def from_compression(cls, embedding: BlockEmbedding,
                         slot_weights=None) -> OperatorValuedWeight:
        """Canonical bimodule map: sum the diagonal sub-blocks cut by f.

        With the left-factor embedding of a tensor square this is the
        partial trace; slot_weights rescales the diagonal sub-blocks, one per
        copy, and must be strictly positive to keep the map faithful.
        """
        slots = sum(map(len, embedding.assignment))
        w = np.ones(slots) if slot_weights is None else np.array(slot_weights, dtype=float)
        if w.shape != (slots,):
            raise ValueError(f"expected {slots} slot weights, got {w.size}")
        if not np.all(np.isfinite(w)):
            raise NonFiniteError("slot_weights must be finite")
        if np.any(w <= 0.0):
            raise ValueError("slot_weights must be strictly positive")
        idx_m = embedding.source.coords
        mat = np.zeros((embedding.source.total_dim, embedding.target.total_dim),
                       dtype=complex)
        for (i, j), (cols, copies) in _commutant_columns(embedding).items():
            mat[idx_m[i], cols] = np.diag(w[copies])[:, :, None, None]   # K_ij diagonal
        return cls(embedding, mat)

    def validate(self, tol: Tolerances = DEFAULT_TOL) -> ToleranceReport:
        """Check the adjoint law, positivity and the bimodule law, in that order.

        Raises ValidationError at the first law that fails, against the bound
        eq_bound(max(||T||_2, 1)).  Averaging the d_i^2 positions of each
        K_ij[s, t] (see _commutant_columns) is the orthogonal projection
        T -> T_K onto the bimodule maps.  As T_K(vv*)_i = V K_ij^T V* for v in
        block j and V its copies side by side, T_K is positive (indeed
        completely positive) exactly when every K_ij is positive semidefinite.

        - adjoint law: T against its conjugate under the per-block
          transposes, in Frobenius norm;
        - positivity: lambda_min(K_ij) >= -bound; off the bimodule maps,
          lambda_min + ||T - T_K||_F >= -bound, since the lowest eigenvector
          of K_ij gives a positive q with a diagonal entry of T(q) at most that;
        - bimodule law: ||T - T_K||_F.

        The rows of T_K have disjoint supports, so ||T_K||_2 is
        max_i (sum_j ||K_ij||_F^2)^(1/2), within ||T - T_K||_F of ||T||_2; only a
        residual between the bounds at the ends of that bracket takes the dense
        norm.  Reports the worse of the adjoint and bimodule residuals.
        """
        mat = self.matrix
        idx_m = self.target.coords
        # conj(mat[t_M][:, t_N]) = mat for the per-block transposes t_M of
        # values (a row gather) and t_N of arguments (a swap per block of N)
        rest, square = mat[np.concatenate([idx.T.reshape(-1) for idx in idx_m])], 0.0
        for idx in self.source.coords:
            n, cols = len(idx), slice(idx[0, 0], idx[-1, -1] + 1)
            for r in range(0, len(mat), 64):   # slabs keep the temporaries small
                diff = np.conj(rest[r:r + 64, cols].reshape(-1, n, n).swapaxes(1, 2), order="C")
                diff -= mat[r:r + 64, cols].reshape(-1, n, n)
                square += np.vdot(diff, diff).real
        adjoint = float(np.sqrt(square))
        np.copyto(rest, mat)   # becomes T - T_K as K is gathered
        lows, row_norms = {}, np.zeros(len(idx_m))
        for (i, j), (cols, _) in _commutant_columns(self.embedding).items():
            k = mat[idx_m[i], cols].mean(axis=(-2, -1))
            rest[idx_m[i], cols] -= k[..., None, None]
            row_norms[i] += np.vdot(k, k).real
            lows[i, j] = float(np.linalg.eigvalsh((k + k.conj().T) / 2.0)[0])
        resid = float(np.sqrt(np.vdot(rest, rest).real))
        top = float(np.sqrt(row_norms.max()))   # ||T_K||_2
        checked = (adjoint, resid, *(-low - e for low in lows.values() for e in (0.0, resid)))
        bound = _norm2_bound(mat, top, resid, checked, tol)
        if adjoint > bound:
            raise ValidationError(
                f"adjoint law violated: residual {adjoint:.3e} > {bound:.3e}")
        slack = 0.0 if resid <= bound else resid
        for (i, j), low in lows.items():
            if -(low + slack) > bound:
                raise ValidationError(
                    f"positivity violated: T(vv*) has a diagonal entry <= {low + slack:.3e} "
                    f"< {-bound:.3e}, v from the lowest eigenvector of K_ij at {(i, j)}")
        if slack:
            raise ValidationError(f"bimodule law violated: residual {resid:.3e} > {bound:.3e}")
        return ToleranceReport(max(adjoint, resid), True, "operator-valued weight validation")

    def compose(self, inner: OperatorValuedWeight) -> OperatorValuedWeight:
        """self o inner for stacked maps O -> N -> M."""
        _same_algebra(inner.target, self.source, "operator-valued weights do not compose")
        return OperatorValuedWeight(
            inner.embedding.compose(self.embedding),
            self.matrix @ inner.matrix)


def pushforward_weight(mu: Weight, ovw: OperatorValuedWeight,
                       tol: Tolerances = DEFAULT_TOL) -> Weight:
    """The weight mu o T on the source algebra of T.

    The density is the trace-adjoint of T applied to mu's density, so that
    trace(k @ q) = trace(h @ T(q)) for every q.
    """
    _same_algebra(mu.algebra, ovw.target, "weight does not live on the target algebra")
    ovw.validate(tol)
    k = unflatten_element(ovw.source, ovw.matrix.conj().T @ flatten_element(mu.density))
    k = (k + k.adjoint()) * 0.5
    return Weight(k, tol)
