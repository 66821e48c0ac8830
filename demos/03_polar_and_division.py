"""Polar decompositions and Douglas division.

Every element factors as a partial isometry times a positive part, with
the isometry shared between the left and right decompositions.  Division
solves p @ x = y exactly when ker(x) <= ker(y); the canonical quotient has
the smallest possible norm, and a clipped-inverse ladder approximates it
from bounded pieces with monotone error.
"""

import numpy as np

from nclp import (
    BlockAlgebra,
    Element,
    UnsolvableError,
    distance,
    douglas_divide,
    douglas_ladder,
    isometry_divide,
    left_support,
    operator_norm,
    polar_left,
    polar_right,
    right_support,
)
from nclp.sampling import make_rng, random_element, random_projection

M = BlockAlgebra((3,))
rng = make_rng(2)

x = random_element(rng, M) @ random_projection(rng, M)
right = polar_right(x)
left = polar_left(x)
print("reconstruction ||u z - x|| =", distance(right.reconstruct(), x))
print("left/right isometries coincide:", distance(left.isometry, right.isometry))
print("u*u = right support:", distance(right.isometry.adjoint() @ right.isometry,
                                        right_support(x)))

# solvable division: y = q x guarantees the kernel inclusion
q = random_element(rng, M)
y = q @ x
result = douglas_divide(x, y)
print("\ndivision residual ||p x - y|| =", result.residual)
print("minimal constant c = ||p|| =", result.minimal_c)
gram = result.minimal_c ** 2 * (x.adjoint() @ x) - y.adjoint() @ y
print("smallest eigenvalue of c^2 x*x - y*y =",
      min(np.linalg.eigvalsh(b).min() for b in gram.blocks), "(>= 0 up to rounding)")

# the quotient is canonical: junk outside the left support is irrelevant
other = result.quotient + random_element(rng, M) @ (M.identity() - left_support(x))
print("canonicalized perturbed quotient recovers p:",
      distance(other @ left_support(x), result.quotient))

# clipped-inverse ladder: bounded approximants converge monotonically
print("\nladder of ||p_eps - p||:")
for eps, gap in douglas_ladder(x, y)[:8]:
    print(f"  eps = {eps:9.3e}   gap = {gap:9.3e}")

# disjoint supports make division impossible
bad_x = Element(M, [np.diag([0.0, 1.0, 1.0])])
bad_y = Element(M, [np.diag([1.0, 0.0, 0.0])])
try:
    douglas_divide(bad_x, bad_y)
except UnsolvableError as err:
    print("\nunsolvable instance rejected, residual =", err.residual)

# equal Grams produce a partial-isometry quotient
u = polar_right(random_element(rng, M)).isometry
p = isometry_divide(x, u @ x)
print("partial isometry quotient, ||p* p - left support|| =",
      distance(p.adjoint() @ p, left_support(x)))
print("p* recovers the numerator: ||p*(u x) - x|| =", distance(p.adjoint() @ (u @ x), x))
print("quotient norm:", operator_norm(p))
