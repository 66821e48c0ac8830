"""Graded elements: a block matrix in tracial coordinates plus a grading.

With the block trace as reference weight the modular flow is trivial, so
an element of the grading-a space is stored as the plain matrix x with
xi = x * tau^a.  Multiplication of graded elements is then ordinary matrix
multiplication while the gradings add, and the adjoint conjugates the
grading.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import GradingError, NonFiniteError
from .matcore import DEFAULT_TOL, Element, Tolerances


@dataclass(frozen=True, eq=False)
class GradedElement:
    """An element of the grading-a space, Re a >= 0.

    tol decides Re a >= 0 here and the grading match of a sum; adjoints,
    scalar multiples and sums keep the tolerance of their left operand.
    """

    data: Element
    grading: complex
    tol: Tolerances = DEFAULT_TOL

    def __post_init__(self):
        a = complex(self.grading)
        if not cmath.isfinite(a):
            raise NonFiniteError(f"grading must be finite, got {a}")
        if a.real < -self.tol.eq_abs:
            raise GradingError(f"grading must have Re >= 0, got {a}")
        object.__setattr__(self, "grading", a)

    @property
    def algebra(self):
        return self.data.algebra

    def adjoint(self) -> GradedElement:
        return GradedElement(self.data.adjoint(), self.grading.conjugate(), self.tol)

    def __mul__(self, scalar) -> GradedElement:
        return GradedElement(self.data * scalar, self.grading, self.tol)

    __rmul__ = __mul__

    def __add__(self, other: GradedElement) -> GradedElement:
        if abs(self.grading - other.grading) > self.tol.eq_abs:
            raise GradingError(
                f"cannot add gradings {self.grading} and {other.grading}")
        return GradedElement(self.data + other.data, self.grading, self.tol)

    def __sub__(self, other: GradedElement) -> GradedElement:
        return self + (-1.0) * other

    def __repr__(self):
        return f"GradedElement(grading={self.grading}, dims={self.algebra.block_dims})"
