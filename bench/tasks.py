"""Seeded instances, the API task mix, and the checks on its results.

One task draws nothing itself: it takes an `Instance` built from the
workload seed and calls each of the 18 task functions once, through a
`call(layer, name, fn, *args)` hook so that the traced run can wrap every
call in a span.  `check_task` then tests every result against its defining
identity, with the residuals and bounds of the matching registry property.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from nclp import decomp, lpspace, matcore, serialize, weights
from nclp.graded import GradedElement
from nclp.matcore import DEFAULT_TOL, BlockAlgebra, distance, operator_norm
from nclp.properties import DEFAULT_GRADINGS
from nclp.sampling import (
    random_element,
    random_graded,
    random_positive,
    random_projection,
    random_weight,
    spawn_rng,
)

# block shape of each API workload; `cli` runs its tiny-algebra tasks on the
# suite's default shapes (see trace.py)
SHAPES = {
    "many-blocks": (2,) * 64,
    "big-block": (64,),
}

# the holder witness needs Re a > 0, so draw from those default pairs only
PAIRS = tuple(p for p in DEFAULT_GRADINGS if p[0].real > DEFAULT_TOL.eq_abs)

GENERATORS = 2  # family size handed to cyclic_generator

TASK_FUNCTIONS = (
    ("matcore", "power_pos"),
    ("matcore", "spectral_projection"),
    ("matcore", "operator_norm"),
    ("weights", "modular_automorphism"),
    ("weights", "connes_cocycle"),
    ("weights", "cocycle_identity_check"),
    ("decomp", "polar_right"),
    ("decomp", "polar_left"),
    ("decomp", "left_support"),
    ("decomp", "right_support"),
    ("decomp", "douglas_divide"),
    ("decomp", "douglas_ladder"),
    ("decomp", "isometry_divide"),
    ("decomp", "cyclic_generator"),
    ("lpspace", "lnorm"),
    ("lpspace", "holder_witness"),
    ("lpspace", "comultiply"),
    ("lpspace", "turpin_upper"),
)


@dataclass(frozen=True)
class Instance:
    """Everything one task needs, drawn from a seeded stream."""

    x: object          # generic element
    h: object          # positive element
    c: float           # spectral threshold for h
    mu: object         # faithful weight
    nu: object         # faithful weight
    t: complex         # imaginary flow parameters
    s: complex
    a: complex         # grading pair, Re a > 0
    b: complex
    xc: object         # conditioned, rank-deficient divisor
    y: object          # r @ xc, so p @ xc = y is solvable
    yw: object         # w @ xc for a unitary w, so xc*xc = yw*yw
    gens: tuple        # graded family for cyclic_generator
    zeta: object       # grading a+b element for comultiply


def conditioned(rng, M, tol=DEFAULT_TOL):
    """x = u @ z with z >= 0.2 on its support: rank-deficient but not ill.

    The same construction as the registry's division properties.
    """
    p = random_projection(rng, M)
    z = p @ random_positive(rng, M) @ p + 0.2 * p
    u = decomp.polar_right(random_element(rng, M) @ p, tol).isometry
    return u @ z


def draw_instance(rng, M: BlockAlgebra) -> Instance:
    a, b = PAIRS[int(rng.integers(0, len(PAIRS)))]
    h = random_positive(rng, M)
    xc = conditioned(rng, M)
    return Instance(
        x=random_element(rng, M),
        h=h,
        c=float(rng.uniform(0.0, operator_norm(h))),
        mu=random_weight(rng, M),
        nu=random_weight(rng, M),
        t=complex(0.0, float(rng.uniform(-2.0, 2.0))),
        s=complex(0.0, float(rng.uniform(-2.0, 2.0))),
        a=a,
        b=b,
        xc=xc,
        y=random_element(rng, M) @ xc,
        yw=decomp.polar_right(random_element(rng, M)).isometry @ xc,
        gens=tuple(random_graded(rng, M, a) for _ in range(GENERATORS)),
        zeta=random_graded(rng, M, a + b),
    )


def draw_pool(workload: str, seed: int, size: int) -> list:
    """`size` instances for `workload`, fixed by the seed alone."""
    rng = spawn_rng(seed, "bench." + workload)
    M = BlockAlgebra(SHAPES[workload])
    return [draw_instance(rng, M) for _ in range(size)]


def direct(layer, name, fn, *args):
    """The untraced call hook."""
    return fn(*args)


def run_task(inst: Instance, call=direct) -> dict:
    """Call every task function once; return the raw results by name."""
    xi = GradedElement(inst.x, inst.a)
    r = {}
    r["power_pos"] = call("matcore", "power_pos", matcore.power_pos, inst.h, 0.5)
    r["spectral_projection"] = call("matcore", "spectral_projection",
                                    matcore.spectral_projection, inst.h, inst.c)
    r["operator_norm"] = call("matcore", "operator_norm", matcore.operator_norm, inst.x)
    r["modular_automorphism"] = call("weights", "modular_automorphism",
                                     weights.modular_automorphism, inst.mu, inst.t, inst.x)
    r["connes_cocycle"] = call("weights", "connes_cocycle",
                               weights.connes_cocycle, inst.mu, inst.nu, inst.t)
    r["cocycle_identity_check"] = call("weights", "cocycle_identity_check",
                                       weights.cocycle_identity_check,
                                       inst.mu, inst.nu, inst.t, inst.s)
    r["polar_right"] = call("decomp", "polar_right", decomp.polar_right, inst.xc)
    r["polar_left"] = call("decomp", "polar_left", decomp.polar_left, inst.xc)
    r["left_support"] = call("decomp", "left_support", decomp.left_support, inst.xc)
    r["right_support"] = call("decomp", "right_support", decomp.right_support, inst.xc)
    r["douglas_divide"] = call("decomp", "douglas_divide",
                               decomp.douglas_divide, inst.xc, inst.y)
    r["douglas_ladder"] = call("decomp", "douglas_ladder",
                               decomp.douglas_ladder, inst.xc, inst.y)
    r["isometry_divide"] = call("decomp", "isometry_divide",
                                decomp.isometry_divide, inst.xc, inst.yw)
    r["cyclic_generator"] = call("decomp", "cyclic_generator",
                                 decomp.cyclic_generator, inst.gens, inst.mu)
    r["lnorm"] = call("lpspace", "lnorm", lpspace.lnorm, xi)
    r["holder_witness"] = call("lpspace", "holder_witness",
                               lpspace.holder_witness, xi, inst.b)
    r["comultiply"] = call("lpspace", "comultiply",
                           lpspace.comultiply, inst.zeta, (inst.a, inst.b))
    first, second = r["comultiply"]
    r["turpin_upper"] = call("lpspace", "turpin_upper", lpspace.turpin_upper,
                             lpspace.TensorElement(inst.x.algebra, inst.a, inst.b,
                                                   ((first, second),)))
    return r


def _min_eig(el) -> float:
    return min(float(np.linalg.eigvalsh((b + b.conj().T) / 2).min()) for b in el.blocks)


def check_task(inst: Instance, r: dict, tol=DEFAULT_TOL) -> list:
    """Names of the results that miss their defining identity."""
    misses = []

    def need(name, resid, bound):
        if not resid <= bound:  # NaN misses too
            misses.append(name)

    M = inst.x.algebra
    one = M.identity()
    nxc, ny = operator_norm(inst.xc), operator_norm(inst.y)

    q = r["power_pos"]
    need("power_pos", max(distance(q @ q, inst.h), distance(q.adjoint(), q)),
         tol.eq_bound(operator_norm(inst.h)))

    p = r["spectral_projection"]
    low = p @ inst.h @ p - inst.c * p
    need("spectral_projection",
         max(distance(p @ inst.h, inst.h @ p), distance(p @ p, p),
             distance(p.adjoint(), p), max(0.0, -_min_eig(low))),
         tol.eq_bound(operator_norm(inst.h)))

    top = max(float(np.sqrt(np.linalg.eigvalsh(b.conj().T @ b).max())) for b in inst.x.blocks)
    need("operator_norm", abs(r["operator_norm"] - top), tol.eq_bound(top))

    moved = r["modular_automorphism"]
    before = weights.evaluate(inst.mu, inst.x)
    need("modular_automorphism", abs(weights.evaluate(inst.mu, moved) - before),
         tol.eq_bound(abs(before) + 1.0))

    u = r["connes_cocycle"]  # both weights faithful, so u is unitary
    need("connes_cocycle", max(distance(u @ u.adjoint(), one), distance(u.adjoint() @ u, one)),
         tol.eq_bound(1.0))

    if not r["cocycle_identity_check"].passed:
        misses.append("cocycle_identity_check")

    right, left = r["polar_right"], r["polar_left"]
    rs, ls = r["right_support"], r["left_support"]
    v = right.isometry
    bound = tol.eq_bound(nxc + 1.0)
    need("polar_right", max(distance(v @ right.positive, inst.xc), distance(v @ v.adjoint() @ v, v)),
         bound)
    need("polar_left", max(distance(left.positive @ left.isometry, inst.xc),
                           distance(left.isometry, v)), bound)
    need("right_support", max(distance(v.adjoint() @ v, rs), distance(inst.xc @ rs, inst.xc),
                              distance(rs @ rs, rs)), bound)
    need("left_support", max(distance(v @ v.adjoint(), ls), distance(ls @ inst.xc, inst.xc),
                             distance(ls @ ls, ls)), bound)

    div = r["douglas_divide"]
    need("douglas_divide", max(distance(div.quotient @ inst.xc, inst.y),
                               distance(div.quotient @ ls, div.quotient),
                               abs(div.minimal_c - operator_norm(div.quotient))),
         tol.eq_bound(ny + 1.0))

    gaps = [g for _, g in r["douglas_ladder"]]
    slack = tol.eq_bound(ny + 1.0)
    monotone = all(gaps[i + 1] <= gaps[i] + slack for i in range(len(gaps) - 1))
    need("douglas_ladder", gaps[-1] if monotone else np.inf, slack)

    iso = r["isometry_divide"]
    need("isometry_divide", max(distance(iso @ inst.xc, inst.yw), distance(iso.adjoint() @ iso, ls),
                                distance(iso.adjoint() @ inst.yw, inst.xc)), bound)

    gen, quotients, cert = r["cyclic_generator"]
    rebuilt = M.zero()
    for cc, g in zip(cert, inst.gens):
        rebuilt = rebuilt + cc @ g.data
    need("cyclic_generator",
         max(distance(rebuilt, gen.data),
             *(distance(g.data, qq @ gen.data) for g, qq in zip(inst.gens, quotients))),
         tol.eq_bound(max(operator_norm(g.data) for g in inst.gens) + 1.0))

    re = inst.a.real
    svals = np.concatenate([np.linalg.svd(b, compute_uv=False) for b in inst.x.blocks])
    expected = float(np.sum(svals ** (1.0 / re))) ** re
    need("lnorm", abs(r["lnorm"] - expected), tol.eq_bound(expected))

    xi = GradedElement(inst.x, inst.a)
    wit = r["holder_witness"]
    rhs = lpspace.lnorm(xi, tol) * lpspace.lnorm(wit, tol)
    need("holder_witness", abs(lpspace.lnorm(lpspace.gmul(xi, wit), tol) - rhs),
         max(1e-8 * rhs, tol.eq_bound(rhs)))

    first, second = r["comultiply"]
    target = lpspace.lnorm(inst.zeta, tol)
    sandwich = max(1e-8 * target, tol.eq_bound(target + 1.0))
    need("comultiply", distance(first.data @ second.data, inst.zeta.data),
         tol.eq_bound(operator_norm(inst.zeta.data) + 1.0))
    need("comultiply", abs(lpspace.lnorm(first, tol) * lpspace.lnorm(second, tol) - target),
         sandwich)
    need("turpin_upper", abs(r["turpin_upper"] - target), sandwich)
    return sorted(set(misses))


def write_demo_inputs(workload: str, seed: int, directory) -> list:
    """Inputs for `nclp demo` on the workload's algebra, drawn from the seed.

    Returns [(command args after `nclp`, path)]; every demo must exit 0.
    """
    inst = draw_instance(spawn_rng(seed, "bench.demo." + workload),
                         BlockAlgebra(SHAPES[workload]))
    pair = [[inst.a.real, inst.a.imag], [inst.b.real, inst.b.imag]]
    demos = {
        "polar": {"x": serialize.element_to_obj(inst.xc)},
        "douglas": {"x": serialize.element_to_obj(inst.xc),
                    "y": serialize.element_to_obj(inst.y)},
        "holder": {"x": serialize.graded_to_obj(GradedElement(inst.x, inst.a)),
                   "y": serialize.graded_to_obj(GradedElement(inst.y, inst.b))},
        "comultiply": {"zeta": serialize.graded_to_obj(inst.zeta), "split": pair},
        "cocycle": {"mu": serialize.weight_to_obj(inst.mu),
                    "nu": serialize.weight_to_obj(inst.nu),
                    "a": [0.0, inst.t.imag], "b": [0.0, inst.s.imag]},
    }
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for sub, obj in demos.items():
        path = directory / f"{sub}.json"
        path.write_text(json.dumps(obj))
        out.append((["demo", sub], path))
    return out
