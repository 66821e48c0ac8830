"""Command-line harness: seeded verification suite and one-shot demos.

Exit codes: 0 success, 1 property failure, domain error or numerical
failure (a report or a machine-readable error object is still emitted),
2 malformed config or input, NaN and infinities included.  All I/O is
JSON on files and stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import serialize
from .errors import AlgebraMismatchError, NclpError, NonFiniteError, ShapeError


def _emit(obj: dict, code: int = 0) -> int:
    try:
        text = serialize.dumps(obj)
    except ValueError as exc:  # a NaN or inf result, from overflow
        return _fail("numerical", exc, 1)
    sys.stdout.write(text)
    return code


def _fail(kind: str, exc: Exception, code: int) -> int:
    err = {"error": {"type": kind, "message": str(exc)}}
    residual = getattr(exc, "residual", None)
    if residual is not None:
        err["error"]["residual"] = float(residual)
    return _emit(err, code)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cmd_verify(args) -> int:
    # the property registry loads here, so demo and oracle processes skip it
    from .properties import SuiteConfig, run_suite

    try:
        obj = _load_json(args.config) if args.config else {}
        if args.seed is not None:
            obj["seed"] = args.seed
        if args.trials is not None:
            obj["trials"] = args.trials
        cfg = SuiteConfig.from_obj(obj)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _fail("config", exc, 2)
    report = run_suite(cfg)
    return _emit(report, 0 if report["all_passed"] else 1)


# each demo imports the modules it runs, so a process loads only those

def _demo_holder(obj: dict) -> dict:
    from . import lpspace

    x = serialize.graded_from_obj(obj["x"])
    y = serialize.graded_from_obj(obj["y"])
    nx, ny = lpspace.lnorm(x), lpspace.lnorm(y)
    nprod = lpspace.lnorm(lpspace.gmul(x, y))
    return {
        "inputs": {"x": obj["x"], "y": obj["y"]},
        "norm_x": nx,
        "norm_y": ny,
        "norm_product": nprod,
        "margin": nx * ny - nprod,
    }


def _demo_polar(obj: dict) -> dict:
    from . import decomp
    from .matcore import distance

    x = serialize.element_from_obj(obj["x"])
    right = decomp.polar_right(x)
    left = decomp.polar_left(x)
    return {
        "inputs": {"x": obj["x"]},
        "isometry": serialize.element_to_obj(right.isometry),
        "positive_right": serialize.element_to_obj(right.positive),
        "positive_left": serialize.element_to_obj(left.positive),
        "right_support": serialize.element_to_obj(decomp.right_support(x)),
        "left_support": serialize.element_to_obj(decomp.left_support(x)),
        "residual_right": distance(right.reconstruct(), x),
        "residual_left": distance(left.reconstruct(), x),
    }


def _demo_douglas(obj: dict) -> dict:
    from . import decomp

    x = serialize.element_from_obj(obj["x"])
    y = serialize.element_from_obj(obj["y"])
    result = decomp.douglas_divide(x, y)
    return {
        "inputs": {"x": obj["x"], "y": obj["y"]},
        "quotient": serialize.element_to_obj(result.quotient),
        "minimal_c": result.minimal_c,
        "residual": result.residual,
    }


def _demo_comultiply(obj: dict) -> dict:
    from . import lpspace
    from .matcore import distance

    zeta = serialize.graded_from_obj(obj["zeta"])
    a, b = serialize._read_array(obj["split"], "split", 1).tolist()
    first, second = lpspace.comultiply(zeta, (a, b))
    rebuilt = lpspace.gmul(first, second)
    return {
        "inputs": {"zeta": obj["zeta"], "split": obj["split"]},
        "first": serialize.graded_to_obj(first),
        "second": serialize.graded_to_obj(second),
        "norm": lpspace.lnorm(zeta),
        "norm_product": lpspace.lnorm(first) * lpspace.lnorm(second),
        "residual": distance(rebuilt.data, zeta.data),
    }


def _demo_cocycle(obj: dict) -> dict:
    from . import weights
    from .matcore import operator_norm

    mu = serialize.weight_from_obj(obj["mu"])
    nu = serialize.weight_from_obj(obj["nu"])
    a = complex(serialize._read_array(obj["a"], "a", 0))
    b = complex(serialize._read_array(obj["b"], "b", 0)) if "b" in obj else complex(0.0, 1.0)
    u = weights.connes_cocycle(mu, nu, a)
    report = weights.cocycle_identity_check(mu, nu, a, b)
    return {
        "inputs": {k: obj[k] for k in ("mu", "nu", "a", "b") if k in obj},
        "cocycle": serialize.element_to_obj(u),
        "operator_norm": operator_norm(u),
        "identity_residual": report.max_residual,
        "identity_passed": report.passed,
    }


def _demo_pushforward(obj: dict) -> dict:
    from . import weights
    from .matcore import BlockAlgebra

    mu = serialize.weight_from_obj(obj["mu"])
    emb = obj["embedding"]
    embedding = weights.BlockEmbedding(BlockAlgebra(emb["source_dims"]),
                                       BlockAlgebra(emb["target_dims"]), emb["assignment"])
    slot_weights = obj.get("slot_weights")
    if slot_weights is not None:
        slot_weights = serialize._read_array(slot_weights, "slot_weights", 1, pairs=False)
    ovw = weights.OperatorValuedWeight.from_compression(embedding, slot_weights)
    push = weights.pushforward_weight(mu, ovw)
    agreement = weights._pushforward_residual(mu, push, ovw)
    return {
        "inputs": {k: obj[k] for k in ("mu", "embedding", "slot_weights") if k in obj},
        "pushforward": serialize.weight_to_obj(push),
        "agreement_residual": agreement,
        "faithful": push.faithful,
    }


_DEMOS = {
    "holder": _demo_holder,
    "polar": _demo_polar,
    "douglas": _demo_douglas,
    "comultiply": _demo_comultiply,
    "cocycle": _demo_cocycle,
    "pushforward": _demo_pushforward,
}


def cmd_demo(args) -> int:
    try:
        # an overflow or invalid operation raises where it happens, and names it
        with np.errstate(over="raise", invalid="raise"):
            out = _DEMOS[args.subcommand](_load_json(args.input))
    except FloatingPointError as exc:
        return _fail("numerical", exc, 1)
    except (ShapeError, AlgebraMismatchError) as exc:
        # structurally invalid input data, not a failed computation
        return _fail("parse", exc, 2)
    except NonFiniteError as exc:
        return _fail(type(exc).__name__, exc, 2)
    except NclpError as exc:
        return _fail(type(exc).__name__, exc, 1)
    except np.linalg.LinAlgError as exc:
        # a subclass of ValueError, but a failed computation, not bad input
        return _fail("numerical", exc, 1)
    except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        return _fail("parse", exc, 2)
    return _emit(out)


def cmd_oracle(args) -> int:
    from .oracle import oracle_commutative   # scalar code only: no matrix module loads

    try:
        obj = _load_json(args.input)
        f = serialize._read_array(obj["f"], "f", 1, pairs=None)
        a = serialize._read_array(obj["a"], "a", 0, pairs=None)
        mu = serialize._read_array(obj.get("mu", [1.0] * len(f)), "mu", 1, pairs=False)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _fail("parse", exc, 2)
    try:
        value = oracle_commutative(f, a, mu)
    except NonFiniteError as exc:
        return _fail(type(exc).__name__, exc, 2)
    except ValueError as exc:
        return _fail("domain", exc, 1)
    return _emit({"value": value})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nclp",
        description="verification harness for graded L-spaces of block algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the seeded property suite")
    verify.add_argument("--config", help="JSON suite configuration file")
    verify.add_argument("--seed", type=int, help="overrides the config's seed")
    verify.add_argument("--trials", type=int, help="trials per property")
    verify.set_defaults(func=cmd_verify)

    demo = sub.add_parser("demo", help="one-shot computation on a JSON input")
    demo.add_argument("subcommand", choices=sorted(_DEMOS))
    demo.add_argument("--input", required=True, help="JSON input file")
    demo.set_defaults(func=cmd_demo)

    oracle = sub.add_parser("oracle", help="scalar-path commutative norm")
    oracle.add_argument("--input", required=True, help="JSON input file")
    oracle.set_defaults(func=cmd_oracle)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
