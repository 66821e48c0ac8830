"""Weights, modular flows, and cocycle derivatives.

A weight is trace against a positive density; a faithful weight generates
a one-parameter automorphism group h^a (.) h^-a over imaginary a, trivial
exactly when the density is central.  Two weights are compared by the
partial-isometry-valued cocycle h^a k^-a, which satisfies the chain rule
and the defining cocycle identity.
"""

import numpy as np

from nclp import (
    BlockAlgebra,
    Element,
    Weight,
    change_of_weight,
    cocycle_identity_check,
    connes_cocycle,
    distance,
    evaluate,
    modular_automorphism,
    trace_weight,
)
from nclp.sampling import make_rng, random_element, random_weight

M = BlockAlgebra((2, 2))
rng = make_rng(3)

tau = trace_weight(M)
mu, nu, rho = (random_weight(rng, M) for _ in range(3))
p = random_element(rng, M)

# the trace has trivial modular flow, bit-for-bit
moved = modular_automorphism(tau, 1.3j, p)
print("trace flow is the identity exactly:",
      all(np.array_equal(a, b) for a, b in zip(moved.blocks, p.blocks)))

# generic weights move things, but preserve their own expectation values
a, b = 0.8j, -0.5j
print("\n||sigma_a(p) - p|| =", distance(modular_automorphism(mu, a, p), p))
print("modular invariance |mu(sigma_a(p)) - mu(p)| =",
      abs(evaluate(mu, modular_automorphism(mu, a, p)) - evaluate(mu, p)))
group_gap = distance(
    modular_automorphism(mu, a, modular_automorphism(mu, b, p)),
    modular_automorphism(mu, a + b, p))
print("one-parameter group law residual =", group_gap)

# cocycles: chain rule and the defining identity
chain = distance(connes_cocycle(mu, nu, a) @ connes_cocycle(nu, rho, a),
                 connes_cocycle(mu, rho, a))
print("\ncocycle chain rule residual =", chain)
print(cocycle_identity_check(mu, nu, a, b))

# a nonfaithful numerator rides on its support
partial = Weight(Element(M, [np.diag([2.0, 0.0]), np.eye(2)]))
u = connes_cocycle(partial, nu, a)
print("\ncocycle of a nonfaithful weight: uu* = its support?",
      distance(u @ u.adjoint(), partial.support))

# converting graded coordinates between weights composes coherently
x = random_element(rng, M)
g = 0.75 + 0.4j
via = change_of_weight(change_of_weight(x, g, mu, nu), g, nu, rho)
print("change-of-weight coherence residual =",
      distance(via, change_of_weight(x, g, mu, rho)))
