"""Block algebras and the positive functional calculus.

A finite-dimensional von Neumann algebra is a direct sum of full matrix
blocks; an element is one complex matrix per block.  This script walks
through the arithmetic, the complex power maps on positive elements, and
spectral projections.
"""

import numpy as np

from nclp import (
    BlockAlgebra,
    Element,
    func_calc,
    operator_norm,
    power_pos,
    spectral_projection,
    trace,
)

# M_2 ⊕ M_1: a 2x2 block and a scalar block
M = BlockAlgebra((2, 1))
x = Element(M, [np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([[3.0]])])

print("algebra:", M.block_dims, "total (vector-space) dimension:", M.total_dim)
print("trace(x) =", trace(x))
print("operator norm of x =", operator_norm(x))

# positive elements admit complex powers through their eigenvalues
h = Element(M, [np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([[4.0]])])
root = power_pos(h, 0.5)
print("\n||h^(1/2) @ h^(1/2) - h|| =", operator_norm(root @ root - h))

# purely imaginary powers are unitary on the support
u = power_pos(h, 0.7j)
print("||h^(0.7i) (h^(0.7i))* - 1|| =", operator_norm(u @ u.adjoint() - M.identity()))

# powers on singular elements: the kernel rides along as 0
hs = Element(M, [np.diag([3.0, 0.0]), np.array([[0.0]])])
print("\nsingular h, h^(-1) on its support:")
print(power_pos(hs, -1.0).blocks[0].real)

# spectral projections cut the spectrum at a threshold
p = spectral_projection(h, 2.5)
print("\nprojection onto spectrum >= 2.5 (block 0):")
print(p.blocks[0].real.round(12))
print("support projection (threshold 0) of singular h:")
print(spectral_projection(hs, 0.0).blocks[0].real)

# general functions of a positive element, applied to the eigenvalues of
# each size class of blocks as one array, e.g. a clipped inverse
clipped = func_calc(h, lambda w: np.divide(1.0, w, out=np.zeros_like(w), where=w >= 1.0))
print("\nclipped inverse applied to h (block 1):", clipped.blocks[1].real)
