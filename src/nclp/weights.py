"""Weights as density matrices, modular flows, cocycles, pushforwards.

Every weight on a finite-dimensional block algebra is trace against a
positive semidefinite density h: mu(x) = trace(h @ x).  Faithful means
h is positive definite.  The modular automorphism group and the cocycle
derivative then become explicit matrix formulas, h^a p h^-a and h^a k^-a,
with complex powers taken through the positive functional calculus.
"""

from __future__ import annotations

import math
from functools import partial
from types import MappingProxyType

import numpy as np

from .errors import NonFaithfulError, NonFiniteError, OutOfRangeError, ValidationError
from .graded import _grading, _require_imaginary
from .matcore import (
    DEFAULT_TOL,
    BlockAlgebra,
    Element,
    Tolerances,
    ToleranceReport,
    distance,
    flatten_element,
    operator_norm,
    _calc,
    _eig_classes,
    _eigvalsh,
    _hermitian_part,
    _ldexp,
    _overflow,
    _same_algebra,
    _spectral_power,
    _Frozen,
    _frozen,
    _index,
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
        return [_calc(self.algebra, classes, partial(_spectral_power, a=a, what="weight power"))
                for a in exponents]

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
    """Residual of (Dmu:Dnu)_{a+b} = (Dmu:Dnu)_a sigma^nu_a((Dmu:Dnu)_b), and its bound.

    The bound is tol.eq_bound(max(||lhs||, 1)).  A residual within
    tol.eq_bound(1) passes whatever ||lhs|| is, with that bound, so the
    norm of lhs is taken only for a larger residual.  The floor of 1 is the
    scale of the factors: for imaginary a and faithful nu, k^a and k^-a are
    unitaries, so rhs is formed from products of norm 1 and rounds at that
    scale, and lhs is a partial isometry of norm 1 (0 only when mu is zero,
    where the rounding of rhs is still at scale 1).
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
        bound = tol.eq_bound(max(operator_norm(lhs), 1.0))
    return ToleranceReport(residual, bound)


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
        rows = tuple(tuple(_index(i, "assignment entry") for i in row) for row in assignment)
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
        _setfield(self, "_columns", None)   # filled by _commutant_columns

    def __reduce__(self):
        # rebuild the kept columns, read-only again, from the assignment
        return BlockEmbedding, (self.source, self.target, self.assignment)

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
    Built on first use and kept on the embedding, with read-only arrays.
    """
    if embedding._columns is not None:
        return embedding._columns
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
        out[i, j] = _frozen(idx_n[j][p[None, :, :, None], p[:, None, None, :]], np.array(slots))
    _setfield(embedding, "_columns", out)
    return out


class OperatorValuedWeight(_Frozen):
    """A positive bimodule map T: N -> M over an embedding f: M -> N.

    Stored as T_K (see _commutant_columns) and nothing else: K maps each key
    (i, j) to the read-only (r, r) matrix of the r copies of source block i in
    target block j, and is itself read-only, so every map is a bimodule map
    and stays the one it was built as; use validate() for the rest before
    trusting it.  No operation builds the dense (dim M, dim N) matrix of T.
    Compares by identity.
    """

    _fields = ("embedding", "K")

    def __init__(self, embedding: BlockEmbedding, K: dict):
        columns = _commutant_columns(embedding)
        if set(K) != set(columns):
            raise ValueError(f"K must have one matrix per key {sorted(columns)}, got {sorted(K)}")
        kept = {}
        for ij, (_, slots) in columns.items():
            k = np.array(K[ij], dtype=complex, copy=True)
            if k.shape != (len(slots),) * 2:
                raise ValueError(f"K{ij} must have shape {(len(slots),) * 2}, got {k.shape}")
            if not np.isfinite(k).all():
                raise NonFiniteError("operator-valued weight matrix must be finite")
            kept[ij] = _frozen(k)[0]
        _setfield(self, "embedding", embedding)
        _setfield(self, "K", MappingProxyType(kept))

    def __reduce__(self):
        # numpy does not pickle the read-only flag, nor Python a mapping proxy,
        # so rebuild through __init__ from a plain dict
        return OperatorValuedWeight, (self.embedding, dict(self.K))

    @property
    def source(self) -> BlockAlgebra:
        return self.embedding.target   # N, where arguments live

    @property
    def target(self) -> BlockAlgebra:
        return self.embedding.source   # M, where values land

    def apply(self, q: Element) -> Element:
        """T(q); OutOfRangeError when the product overflows."""
        _same_algebra(q.algebra, self.source, "argument does not live in the source algebra")
        vec = flatten_element(q)
        out = [np.zeros(d * d, dtype=complex) for d in self.target.block_dims]
        with _overflow("operator-valued weight: T(q)"):
            for (i, j), (cols, slots) in _commutant_columns(self.embedding).items():
                out[i] += self.K[i, j].reshape(-1) @ vec[cols].reshape(len(slots) ** 2, -1)
        return unflatten_element(self.target, np.concatenate(out))

    @classmethod
    def from_compression(cls, embedding: BlockEmbedding,
                         slot_weights=None) -> OperatorValuedWeight:
        """Canonical bimodule map: the sum of the diagonal sub-blocks cut by f,
        each times its copy's slot weight (strictly positive, to keep T faithful;
        1 by default, a partial trace on a tensor square): each K_ij is diagonal."""
        slots = sum(map(len, embedding.assignment))
        w = np.ones(slots) if slot_weights is None else np.array(slot_weights, dtype=float)
        if w.shape != (slots,):
            raise ValueError(f"expected {slots} slot weights, got {w.size}")
        if not np.all(np.isfinite(w)):
            raise NonFiniteError("slot_weights must be finite")
        if np.any(w <= 0.0):
            raise ValueError("slot_weights must be strictly positive")
        return cls(embedding, {ij: np.diag(w[copies])
                               for ij, (_, copies) in _commutant_columns(embedding).items()})

    def validate(self, tol: Tolerances = DEFAULT_TOL) -> ToleranceReport:
        """Check the adjoint law, then positivity, against eq_bound(max(||T||_2, 1)).

        Returns the adjoint residual with that bound.  Raises ValidationError
        at the first law that fails, and OutOfRangeError when the bound is
        past the float range, where no residual exceeds it.  The rows of T
        have disjoint supports, so ||T||_2 = max_i (sum_j ||K_ij||_F^2)^(1/2).
        - adjoint law: T against its conjugate under the per-block transposes
          differs by K_ij - K_ij* at d_i^2 places: the Frobenius residual, the
          one reported, is (sum d_i^2 ||K_ij - K_ij*||_F^2)^(1/2);
        - positivity: T(vv*)_i = V K_ij^T V* for v in block j and V its copies
          side by side, so T is positive (indeed completely positive) exactly
          when every K_ij is positive semidefinite (M.-D. Choi, 1975).
        Both norms are summed on K scaled by 2^-e, exactly, to parts below 1,
        so no square overflows or underflows: they are those of K wherever
        they are finite, and inf past the float range.
        """
        e = math.frexp(max(float(np.abs(k.view(np.float64)).max()) for k in self.K.values()))[1]
        square, rows = 0.0, np.zeros(len(self.target.block_dims))
        for (i, _), k in self.K.items():
            k = np.ldexp(k.view(np.float64), -e).view(complex)
            diff = k - k.conj().T
            square += self.target.block_dims[i] ** 2 * np.vdot(diff, diff).real
            rows[i] += np.vdot(k, k).real
        adjoint = _ldexp(math.sqrt(square), e)
        bound = tol.eq_bound(max(_ldexp(math.sqrt(rows.max()), e), 1.0))
        if bound == math.inf:
            raise OutOfRangeError("operator-valued weight: the bound of validation "
                                  "exceeds the float range")
        if adjoint > bound:
            raise ValidationError(f"adjoint law violated: residual {adjoint:.3e} > {bound:.3e}")
        for (i, j), k in self.K.items():
            low = float(_eigvalsh(_hermitian_part(k))[0])
            if -low > bound:
                raise ValidationError(
                    f"positivity violated: T(vv*) has a diagonal entry <= {low:.3e} "
                    f"< {-bound:.3e}, v from the lowest eigenvector of K_ij at {(i, j)}")
        return ToleranceReport(adjoint, bound)

    def compose(self, inner: OperatorValuedWeight) -> OperatorValuedWeight:
        """self o inner for stacked maps O -> N -> M; OutOfRangeError when a
        product of their matrices K overflows.

        The copies of block i of M in block k of O are the pairs (u, s), copy u
        of a block j of N in k, then copy s of i in j, in that order: the
        composed K_ik is kron(K^inner_jk, K^self_ij) on the pairs of each j.
        """
        _same_algebra(inner.target, self.source, "operator-valued weights do not compose")
        embedding = inner.embedding.compose(self.embedding)
        K = {}
        with _overflow("operator-valued weight: the composed matrix"):
            for (i, k), (_, slots) in _commutant_columns(embedding).items():
                at, end = {}, 0   # j -> the places of its pairs (u, s)
                for j in inner.embedding.assignment[k]:
                    if (i, j) in self.K:
                        at.setdefault(j, []).extend(range(end, end + len(self.K[i, j])))
                        end += len(self.K[i, j])
                K[i, k] = np.zeros((len(slots),) * 2, dtype=complex)
                for j, p in at.items():   # kron(K^inner_jk, K^self_ij) on the places p
                    kron = inner.K[j, k][:, None, :, None] * self.K[i, j][None, :, None, :]
                    K[i, k][np.array(p)[:, None], p] = kron.reshape(len(p), len(p))
        return OperatorValuedWeight(embedding, K)


def pushforward_weight(mu: Weight, ovw: OperatorValuedWeight,
                       tol: Tolerances = DEFAULT_TOL) -> Weight:
    """The weight mu o T on the source algebra of T; OutOfRangeError when its
    density overflows.  The density k, with trace(k @ q) = trace(h @ T(q))
    for mu's density h, holds conj(K_ij[t, s]) h_i in its sub-block (s, t)
    between copies s and t of block i in block j, Hermitian-symmetrized."""
    _same_algebra(mu.algebra, ovw.target, "weight does not live on the target algebra")
    ovw.validate(tol)
    flat, h = np.zeros(ovw.source.total_dim, dtype=complex), mu.density.blocks
    with _overflow("pushforward: the density"):
        for (i, j), (cols, _) in _commutant_columns(ovw.embedding).items():
            flat[cols] = ovw.K[i, j].conj()[:, :, None, None] * h[i]   # cols[s, t] is q_j[t, s]
        k = unflatten_element(ovw.source, flat)
        k = (k + k.adjoint()) * 0.5
    return Weight(k, tol)


def _trace_row(x: Element) -> np.ndarray:
    """f(x), the transposed blocks of x flattened in turn, so that
    trace(x @ q) = f(x) . flatten_element(q) for every q."""
    return np.concatenate([b.T.reshape(-1) for b in x.blocks])


def _pushforward_residual(mu: Weight, push: Weight, ovw: OperatorValuedWeight) -> float:
    """max |push(q) - mu(T(q))| over the matrix units q of the source algebra of T.

    With k and h the densities of push and mu, push(q) - mu(T(q)) is
    f(k) . vec(q) - f(h) . (T vec(q)) (see _trace_row), so over the basis the
    gaps are the entries of f(k) - T^T f(h).  A column of T holds one entry at
    most, K_ij[s, t] in row (a, b) of block i for the column cols[s, t, a, b]
    (see _commutant_columns), so T^T f(h) is one product per coordinate,
    K_ij[s, t] h_i[b, a], scattered once per key (i, j).  With the real K of
    a compression each gap rounds as the traces do, to the bit.
    """
    row, h = np.zeros(ovw.source.total_dim, dtype=complex), mu.density.blocks
    for (i, j), (cols, _) in _commutant_columns(ovw.embedding).items():
        row[cols] = ovw.K[i, j][:, :, None, None] * h[i].T
    gaps = _trace_row(push.density) - row
    return max(map(abs, gaps.tolist()))
