"""One element generates any finitely generated submodule.

Given generators u_1..u_m of a common grading, the square root of the
summed Grams yields a single element y with every u_i a left multiple
u_i = q_i y of it.  The adjoints q_i* certify that y lies inside the
submodule the u_i generate: y = sum_i q_i* u_i, and the row
[q_1* ... q_m*] is a partial isometry.  Collapsing a formal sum of tensor
pairs to a single pair is the same construction applied to the right
factors.
"""

from nclp import (
    BlockAlgebra,
    cyclic_generator,
    distance,
    operator_norm,
    rank1_reduce,
)
from nclp.sampling import make_rng, random_graded, random_weight

M = BlockAlgebra((2, 2))
rng = make_rng(5)

a = 0.5 + 1.1j
gens = [random_graded(rng, M, a) for _ in range(3)]
mu = random_weight(rng, M)

y, quotients, certificate = cyclic_generator(gens, mu)
print("generator grading:", y.grading)
for i, (g, q) in enumerate(zip(gens, quotients)):
    print(f"  ||u_{i} - q_{i} y|| = {distance(q @ y.data, g.data):.3e}")

rebuilt = M.zero()
for c, g in zip(certificate, gens):
    rebuilt = rebuilt + c @ g.data
print("membership: ||y - sum_i cert_i u_i|| =", distance(rebuilt, y.data))

# the submodule facts do not depend on which faithful weight was chosen
other = random_weight(rng, M)
y2, q2, cert2 = cyclic_generator(gens, other)
print("\nwith a different weight, division still works:",
      max(distance(q @ y2.data, g.data) for g, q in zip(gens, q2)))

# rank-one reduction of a 4-term formal tensor sum
pairs = [(random_graded(rng, M, 1.0 - 0.4j), random_graded(rng, M, a))
         for _ in range(4)]
x, y = rank1_reduce(pairs, mu)
target = M.zero()
for u, v in pairs:
    target = target + u.data @ v.data
print("\nrank-1 form: ||x y - sum u_i v_i|| =", distance(x.data @ y.data, target))
print("left factor norm:", operator_norm(x.data), " right factor grading:", y.grading)
