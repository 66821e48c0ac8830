"""Scalar-arithmetic norm on diagonal algebras, kept free of matrix code.

This is the independent cross-check for the matrix-path graded norm: on an
algebra of 1x1 blocks the two must agree, and the whole point is that this
file never touches numpy, SVDs, or eigendecompositions.
"""

from __future__ import annotations

import cmath
import math

from .errors import NonFiniteError


def oracle_commutative(f, a, mu_diag) -> float:
    """Weighted commutative norm (sum_k mu_k |f_k|^(1/Re a))^(Re a).

    f is a sequence of complex samples, mu_diag the strictly positive
    diagonal of the weight; requires Re a > 0.  NaN or infinite data
    raises NonFiniteError.  The sum is taken scale-free, as
    smax * (sum_k mu_k (|f_k|/smax)^(1/Re a))^(Re a) with smax the largest
    |f_k|, so no power overflows or underflows on its own.
    """
    a = complex(a)
    f = [complex(fk) for fk in f]
    mu = [float(m) for m in mu_diag]
    if not (cmath.isfinite(a) and all(cmath.isfinite(fk) for fk in f)
            and all(math.isfinite(m) for m in mu)):
        raise NonFiniteError("the scalar oracle needs finite samples, weights and grading")
    if a.real <= 0.0:
        raise ValueError(f"the scalar oracle needs Re a > 0, got {a}")
    if len(f) != len(mu):
        raise ValueError(f"length mismatch: {len(f)} samples vs {len(mu)} weights")
    if any(m <= 0.0 for m in mu):
        raise ValueError("weights must be strictly positive")
    p = 1.0 / a.real
    mags = [abs(fk) for fk in f]
    smax = max(mags, default=0.0)
    if smax == 0.0:
        return 0.0
    total = 0.0
    for s, mk in zip(mags, mu):
        total += mk * (s / smax) ** p
    return smax * total ** a.real
