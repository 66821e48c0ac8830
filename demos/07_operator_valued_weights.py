"""Operator-valued weights and pushing weights forward.

A positive bimodule map over a unital embedding generalizes both the
partial trace and conditional expectations; composing a weight with such
a map produces a weight on the bigger algebra, implemented here through
the trace-adjoint of the stored linear map.
"""

import numpy as np

from nclp import (
    BlockAlgebra,
    BlockEmbedding,
    Element,
    OperatorValuedWeight,
    Weight,
    distance,
    evaluate,
    pushforward_weight,
    trace_weight,
)
from nclp.sampling import make_rng, random_weight

rng = make_rng(6)
M2 = BlockAlgebra((2,))
M4 = BlockAlgebra((4,))

# the tensor-square embedding x -> diag(x, x) of M_2 into M_4
embed = BlockEmbedding(M2, M4, ((0, 0),))
x = Element(M2, [np.array([[1.0, 2.0], [3.0, 4.0]])])
print("embedded element:\n", embed.apply(x).blocks[0].real)

# its canonical bimodule partner is the partial trace
ptrace = OperatorValuedWeight.from_compression(embed)
print("\nvalidation:", ptrace.validate())
q = M4.identity()
print("T(1_4) =", ptrace.apply(q).blocks[0].real.round(12).tolist())

# the trace pushes forward to the trace
push = pushforward_weight(trace_weight(M2), ptrace)
print("\npushforward of the trace has density:\n", push.density.blocks[0].real)
worst = max(abs(evaluate(push, e) - evaluate(trace_weight(M2), ptrace.apply(e)))
            for e in M4.basis())
print("agreement with mu o T on the full basis:", worst)

# a generic faithful weight pushes to a faithful weight
mu = random_weight(rng, M2)
print("\nrandom faithful weight pushes to faithful:",
      pushforward_weight(mu, ptrace).faithful)

# weighting the two slots differently still satisfies the bimodule law
skew = OperatorValuedWeight.from_compression(embed, slot_weights=[1.0, 3.0])
print("slot-weighted map validates:", skew.validate().passed)
print("pushforward density now reflects the slots:\n",
      pushforward_weight(trace_weight(M2), skew).density.blocks[0].real)

# stacking embeddings composes the maps and the pushforwards agree
M8 = BlockAlgebra((8,))
next_embed = BlockEmbedding(M4, M8, ((0, 0),))
S = OperatorValuedWeight.from_compression(next_embed)
two_step = pushforward_weight(pushforward_weight(mu, ptrace), S)
one_step = pushforward_weight(mu, ptrace.compose(S))
print("\ncomposition coherence:", distance(two_step.density, one_step.density))
