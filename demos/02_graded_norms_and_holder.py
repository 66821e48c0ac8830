"""Graded elements, their (quasi)norms, and sharp Hölder witnesses.

A graded element is a matrix x together with a grading a (Re a >= 0); its
norm feeds the singular values in at exponent 1/Re a, so grading 0 is the
operator norm, 1/2 the Hilbert-Schmidt norm, 1 the trace norm, and beyond
grading 1 only a quasinorm survives.  Multiplication is contractive
(Hölder), and for Re a > 0 a witness element turns the inequality into an
equality.
"""

import numpy as np

from nclp import BlockAlgebra, Element, GradedElement, gmul, holder_witness, lnorm
from nclp.sampling import make_rng, random_graded

M = BlockAlgebra((3,))
rng = make_rng(1)

d = Element(M, [np.diag([3.0, 4.0, 0.0])])
for a, name in [(0.0, "operator"), (0.5, "Hilbert-Schmidt"), (1.0, "trace"), (1.5, "quasi")]:
    print(f"grading {a:<4}: norm = {lnorm(GradedElement(d, a)):.6f}  ({name})")

# Hölder: ||xy|| <= ||x|| ||y|| across gradings, imaginary parts included
print("\nHölder margins on random pairs:")
for a, b in [(0.5, 0.5), (1 / 3 + 0.8j, 2 / 3 - 0.2j), (0.9j, 1.5 + 0.4j)]:
    xi, eta = random_graded(rng, M, a), random_graded(rng, M, b)
    margin = lnorm(xi) * lnorm(eta) - lnorm(gmul(xi, eta))
    print(f"  gradings ({a}, {b}): margin = {margin:.6f} (>= 0)")

# the witness y = ((x*x)^(1/(2 Re a)))^b makes Hölder an equality
xi = random_graded(rng, M, 0.5 + 0.7j)
y = holder_witness(xi, 1.0 - 0.3j)
lhs, rhs = lnorm(gmul(xi, y)), lnorm(xi) * lnorm(y)
print(f"\nwitness equality: ||xi y|| = {lhs:.12f}, ||xi|| ||y|| = {rhs:.12f}")
print(f"relative gap = {abs(lhs - rhs) / rhs:.2e}")

# homogeneity and the two-projection pin: orthogonal unit positives add to 2^Re a
p = GradedElement(Element(M, [np.diag([1.0, 0.0, 0.0])]), 1.5)
q = GradedElement(Element(M, [np.diag([0.0, 1.0, 0.0])]), 1.5)
print(f"\n||p + q|| at grading 1.5 = {lnorm(p + q):.6f} = 2^1.5 = {2**1.5:.6f}")
