"""Weights as density matrices, modular flows, cocycles, pushforwards.

Every weight on a finite-dimensional block algebra is trace against a
positive semidefinite density h: mu(x) = trace(h @ x).  Faithful means
h is positive definite.  The modular automorphism group and the cocycle
derivative then become explicit matrix formulas, h^a p h^-a and h^a k^-a,
with complex powers taken through the positive functional calculus.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AlgebraMismatchError,
    GradingError,
    NonFaithfulError,
    NonFiniteError,
    NotPositiveError,
    ValidationError,
)
from .matcore import (
    DEFAULT_TOL,
    BlockAlgebra,
    Element,
    Tolerances,
    ToleranceReport,
    flatten_element,
    _eig_classes,
    _operator_norms,
    _powers,
    power_pos,
    spectral_projection,
    trace,
    unflatten_element,
)


@dataclass(frozen=True, eq=False)
class Weight:
    """A weight mu(x) = trace(density @ x); faithful iff density is definite.

    The tolerance decides the support cutoff: a density whose spectrum spans
    more than about 1/rank_rel reports as nonfaithful unless constructed
    with a tighter policy (pass the same policy to the modular operations).
    """

    density: Element
    tol: Tolerances = DEFAULT_TOL

    def __post_init__(self):
        # the eigensystem that checks positivity also decides faithfulness
        classes, _ = _eig_classes(self.density, self.tol)  # raises NotPositiveError
        object.__setattr__(self, "faithful",
                           all(np.all(w > 0.0) for w, _ in classes))

    @property
    def algebra(self) -> BlockAlgebra:
        return self.density.algebra

    @cached_property
    def support(self) -> Element:
        return spectral_projection(self.density, 0.0, self.tol)

    def __call__(self, x: Element) -> complex:
        return evaluate(self, x)

    def power(self, a, tol: Tolerances | None = None) -> Element:
        """Matrix of the grading-a symbol of this weight, density^a."""
        return power_pos(self.density, a, self.tol if tol is None else tol)

    def powers(self, exponents, tol: Tolerances | None = None) -> list[Element]:
        """density^a for every a in exponents, from one eigensystem."""
        return _powers(self.density, exponents, self.tol if tol is None else tol)

    def __repr__(self):
        return f"Weight(dims={self.algebra.block_dims}, faithful={self.faithful})"


def trace_weight(algebra: BlockAlgebra) -> Weight:
    """The reference trace as a weight (identity density)."""
    return Weight(algebra.identity())


def evaluate(mu: Weight, x: Element) -> complex:
    """mu(x) = trace(density @ x); real and >= 0 on positive x."""
    if mu.algebra.block_dims != x.algebra.block_dims:
        raise AlgebraMismatchError(
            f"weight on {mu.algebra.block_dims} applied to element of "
            f"{x.algebra.block_dims}")
    return trace(mu.density @ x)


def _require_imaginary(a, tol: Tolerances):
    a = complex(a)
    if not cmath.isfinite(a):
        raise NonFiniteError(f"parameter must be finite, got {a}")
    if abs(a.real) > tol.eq_abs:
        raise GradingError(f"parameter must be imaginary, got {a}")
    return a


def modular_automorphism(mu: Weight, a, p: Element,
                         tol: Tolerances | None = None) -> Element:
    """Modular flow of a faithful weight: h^a @ p @ h^-a for imaginary a.

    A *-automorphism for every imaginary a; the flow of the trace is the
    identity because the identity density commutes with everything.
    Defaults to the weight's own tolerance policy.
    """
    tol = mu.tol if tol is None else tol
    a = _require_imaginary(a, tol)
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
    a = _require_imaginary(a, tol)
    if not nu.faithful:
        raise NonFaithfulError("cocycle derivative requires a faithful denominator")
    return mu.power(a, tol) @ nu.power(-a, tol)


def cocycle_identity_check(mu: Weight, nu: Weight, a, b,
                           tol: Tolerances | None = None) -> ToleranceReport:
    """Residual of (Dmu:Dnu)_{a+b} = (Dmu:Dnu)_a sigma^nu_a((Dmu:Dnu)_b)."""
    tol = nu.tol if tol is None else tol
    a = _require_imaginary(a, tol)
    b = _require_imaginary(b, tol)
    if not nu.faithful:
        raise NonFaithfulError("cocycle derivative requires a faithful denominator")
    # every power from one eigensystem of each density:
    # u_c = h^c k^-c and sigma^nu_a(z) = k^a z k^-a
    h_ab, h_a, h_b = mu.powers((a + b, a, b), tol)
    k_ab, k_a, k_b, k_up = nu.powers((-(a + b), -a, -b, a), tol)
    lhs = h_ab @ k_ab
    rhs = (h_a @ k_a) @ (k_up @ (h_b @ k_b) @ k_a)
    residual, norm_lhs = _operator_norms(lhs - rhs, lhs)
    bound = tol.eq_bound(max(norm_lhs, 1.0))
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
    a = complex(a)
    if a.real < -tol.eq_abs:
        raise GradingError(f"grading must have Re >= 0, got {a}")
    if not (mu.faithful and nu.faithful):
        raise NonFaithfulError("change of weight requires faithful weights")
    return x @ mu.power(a, tol) @ nu.power(-a, tol)


# -- operator-valued weights ---------------------------------------------


@dataclass(frozen=True)
class BlockEmbedding:
    """A unital *-homomorphism f: M -> N given by block assignment data.

    assignment[j] lists the source blocks whose direct sum fills target
    block j, in order; every source block must be used at least once so
    that f is injective.
    """

    source: BlockAlgebra
    target: BlockAlgebra
    assignment: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(i) for i in row) for row in self.assignment)
        object.__setattr__(self, "assignment", rows)
        if len(rows) != len(self.target.block_dims):
            raise ValueError("assignment must have one row per target block")
        used = set()
        for j, row in enumerate(rows):
            total = 0
            for i in row:
                if not 0 <= i < len(self.source.block_dims):
                    raise ValueError(f"assignment row {j} references block {i}")
                total += self.source.block_dims[i]
                used.add(i)
            if total != self.target.block_dims[j]:
                raise ValueError(
                    f"assignment row {j} fills {total} of "
                    f"{self.target.block_dims[j]} dimensions")
        if used != set(range(len(self.source.block_dims))):
            raise ValueError("every source block must appear in the assignment")

    def apply(self, x: Element) -> Element:
        """f(x): place the assigned source blocks on the target diagonal."""
        if x.algebra.block_dims != self.source.block_dims:
            raise AlgebraMismatchError("element does not live in the source algebra")
        blocks = []
        for j, row in enumerate(self.assignment):
            n = self.target.block_dims[j]
            out = np.zeros((n, n), dtype=complex)
            pos = 0
            for i in row:
                d = self.source.block_dims[i]
                out[pos:pos + d, pos:pos + d] = x.blocks[i]
                pos += d
            blocks.append(out)
        return Element(self.target, tuple(blocks))

    def compose(self, inner: BlockEmbedding) -> BlockEmbedding:
        """self o inner, for inner: L -> M and self: M -> N."""
        if inner.target.block_dims != self.source.block_dims:
            raise AlgebraMismatchError("embeddings do not compose")
        rows = tuple(
            tuple(i for m in row for i in inner.assignment[m])
            for row in self.assignment)
        return BlockEmbedding(inner.source, self.target, rows)


def _flat_indices(algebra: BlockAlgebra) -> list[np.ndarray]:
    """Per block, the (n, n) array of flattened coordinates of its entries."""
    out, pos = [], 0
    for n in algebra.block_dims:
        out.append(np.arange(pos, pos + n * n).reshape(n, n))
        pos += n * n
    return out


def _transpose_permutation(indices: list[np.ndarray]) -> np.ndarray:
    """Flattened coordinate permutation taking every block to its transpose."""
    return np.concatenate([idx.T.reshape(-1) for idx in indices])


# seeded random rank-one positives on which validate() checks positivity
POSITIVITY_SAMPLES = 8


@dataclass(frozen=True, eq=False)
class OperatorValuedWeight:
    """A positive bimodule map T: N -> M over an embedding f: M -> N.

    Stored as an explicit linear map on the flattened coordinates of N;
    constructors guarantee nothing, use validate() before trusting it.
    """

    embedding: BlockEmbedding
    matrix: np.ndarray  # shape (dim M, dim N), acts on flattened elements

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex, copy=True)
        expected = (self.embedding.source.total_dim, self.embedding.target.total_dim)
        if mat.shape != expected:
            raise ValueError(f"matrix must have shape {expected}, got {mat.shape}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def source(self) -> BlockAlgebra:
        return self.embedding.target   # N, where arguments live

    @property
    def target(self) -> BlockAlgebra:
        return self.embedding.source   # M, where values land

    def apply(self, q: Element) -> Element:
        if q.algebra.block_dims != self.source.block_dims:
            raise AlgebraMismatchError("argument does not live in the source algebra")
        return unflatten_element(self.target, self.matrix @ flatten_element(q))

    @classmethod
    def from_compression(cls, embedding: BlockEmbedding,
                         slot_weights=None) -> OperatorValuedWeight:
        """Canonical bimodule map: sum the diagonal sub-blocks cut by f.

        With the left-factor embedding of a tensor square this is the
        partial trace; slot_weights rescales each diagonal sub-block and
        must be strictly positive to keep the map faithful.
        """
        if slot_weights is not None:
            if not all(np.isfinite(float(w)) for w in slot_weights):
                raise NonFiniteError("slot_weights must be finite")
            if any(float(w) <= 0.0 for w in slot_weights):
                raise ValueError("slot_weights must be strictly positive")
        # the diagonal sub-block of target block j at offset pos, filled by
        # source block i, lands entry by entry on block i
        idx_m = _flat_indices(embedding.source)
        idx_n = _flat_indices(embedding.target)
        mat = np.zeros((embedding.source.total_dim, embedding.target.total_dim),
                       dtype=complex)
        slot = 0
        for j, row in enumerate(embedding.assignment):
            pos = 0
            for i in row:
                d = embedding.source.block_dims[i]
                w = 1.0 if slot_weights is None else float(slot_weights[slot])
                mat[idx_m[i], idx_n[j][pos:pos + d, pos:pos + d]] = w
                pos += d
                slot += 1
        return cls(embedding, mat)

    def validate(self, tol: Tolerances = DEFAULT_TOL) -> ToleranceReport:
        """Check the adjoint law, positivity and the bimodule law, in that order.

        Raises ValidationError at the first law that fails.  The laws are
        linear, so they are checked in closed form on the stored matrix.
        The adjoint law T(q*) = T(q)* compares T with its conjugate under the
        per-block transpose permutations.  As f is unital, the bimodule law
        T(f(p) q f(r)*) = p T(q) r* holds exactly when T(f(p) q) = p T(q) and
        T(q f(p)) = T(q) p hold for every matrix unit p of M.  Multiplying by
        a matrix unit only moves rows or columns, so each residual map is
        gathered from the matrix itself.  Every residual is the Frobenius
        norm of its residual map, which bounds the residual at each
        matrix-unit argument, and the reported residual is the worst of them.
        Positivity is checked on the identity and on seeded random rank-one
        positives.
        """
        mat = self.matrix
        scale = max(float(np.linalg.norm(mat, 2)), 1.0)
        bound = tol.eq_bound(scale)
        idx_m = _flat_indices(self.target)
        idx_n = _flat_indices(self.source)

        worst = float(np.linalg.norm(
            mat[:, _transpose_permutation(idx_n)]
            - mat[_transpose_permutation(idx_m)].conj()))
        if worst > bound:
            raise ValidationError(
                f"adjoint law violated: residual {worst:.3e} > {bound:.3e}")

        rng = np.random.Generator(np.random.PCG64(0))
        positives = [self.source.identity()]
        for _ in range(POSITIVITY_SAMPLES):
            blocks = []
            for n in self.source.block_dims:
                v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                blocks.append(np.outer(v, v.conj()))
            positives.append(Element(self.source, tuple(blocks)))
        for q in positives:
            try:
                _eig_classes(self.apply(q), Tolerances(
                    rank_rel=tol.rank_rel, eq_abs=bound, eq_rel=tol.eq_rel))
            except NotPositiveError as exc:
                raise ValidationError(f"positivity violated: {exc}") from exc

        copies = [[] for _ in self.target.block_dims]  # (block of N, offset)
        for k, row in enumerate(self.embedding.assignment):
            pos = 0
            for m in row:
                copies[m].append((k, pos))
                pos += self.target.block_dims[m]
        for m, n in enumerate(self.target.block_dims):
            # flat indices of N moved by f(E_ij): row i of rows_n holds row i
            # of every copy of block m, and likewise for columns
            rows_n = np.hstack([idx_n[k][o:o + n, :] for k, o in copies[m]])
            cols_n = np.hstack([idx_n[k][:, o:o + n].T for k, o in copies[m]])
            rows_m, cols_m = idx_m[m], idx_m[m].T
            for i in range(n):
                for j in range(n):
                    left = np.zeros_like(mat)    # T(f(E_ij) q) - E_ij T(q)
                    left[:, rows_n[j]] = mat[:, rows_n[i]]
                    left[rows_m[i]] -= mat[rows_m[j]]
                    right = np.zeros_like(mat)   # T(q f(E_ij)) - T(q) E_ij
                    right[:, cols_n[i]] = mat[:, cols_n[j]]
                    right[cols_m[j]] -= mat[cols_m[i]]
                    resid = max(float(np.linalg.norm(left)),
                                float(np.linalg.norm(right)))
                    if resid > bound:
                        raise ValidationError(
                            f"bimodule law violated: residual {resid:.3e} "
                            f"> {bound:.3e}")
                    worst = max(worst, resid)
        return ToleranceReport(worst, True, "operator-valued weight validation")

    def compose(self, inner: OperatorValuedWeight) -> OperatorValuedWeight:
        """self o inner for stacked maps O -> N -> M."""
        if inner.target.block_dims != self.source.block_dims:
            raise AlgebraMismatchError("operator-valued weights do not compose")
        return OperatorValuedWeight(
            inner.embedding.compose(self.embedding),
            self.matrix @ inner.matrix)


def pushforward_weight(mu: Weight, ovw: OperatorValuedWeight,
                       tol: Tolerances = DEFAULT_TOL) -> Weight:
    """The weight mu o T on the source algebra of T.

    The density is the trace-adjoint of T applied to mu's density, so that
    trace(k @ q) = trace(h @ T(q)) for every q.
    """
    if mu.algebra.block_dims != ovw.target.block_dims:
        raise AlgebraMismatchError("weight does not live on the target algebra")
    ovw.validate(tol)
    k = unflatten_element(ovw.source, ovw.matrix.conj().T @ flatten_element(mu.density))
    k = (k + k.adjoint()) * 0.5
    return Weight(k)
