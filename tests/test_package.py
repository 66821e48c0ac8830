"""The package surface: lazy exports, per-command imports, immutable records."""

import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

import nclp
from nclp import (
    BlockAlgebra,
    BlockEmbedding,
    DivisionResult,
    Element,
    GradedElement,
    ModuleHom,
    OperatorValuedWeight,
    PolarDecomposition,
    TensorElement,
    ToleranceReport,
    Tolerances,
    Weight,
)
from nclp.properties import SuiteConfig
from nclp.sampling import make_rng, random_element

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(nclp.__file__).resolve().parent.parent

# the names `import nclp` bound when it imported every module up front, and
# OutOfRangeError, added since
EAGER_EXPORTS = {
    "errors": ("AlgebraMismatchError", "ConditionViolatedError", "GradingError", "NclpError",
               "NonFaithfulError", "NonFiniteError", "NotModuleMapError", "NotPositiveError",
               "OutOfRangeError", "ShapeError", "UnsolvableError", "ValidationError"),
    "matcore": ("DEFAULT_TOL", "BlockAlgebra", "Element", "Tolerances", "ToleranceReport",
                "allclose", "distance", "flatten_element", "func_calc", "operator_norm",
                "power_pos", "spectral_projection", "trace", "unflatten_element"),
    "weights": ("BlockEmbedding", "OperatorValuedWeight", "Weight", "change_of_weight",
                "cocycle_identity_check", "connes_cocycle", "evaluate", "modular_automorphism",
                "pushforward_weight", "trace_weight"),
    "decomp": ("DivisionResult", "PolarDecomposition", "cyclic_generator", "douglas_divide",
               "douglas_ladder", "graded_divide", "isometry_divide", "left_support",
               "polar_left", "polar_right", "pseudo_inverse", "rank1_reduce", "right_support"),
    "graded": ("GradedElement",),
    "lpspace": ("ModuleHom", "TensorElement", "comultiply", "gmul", "holder_witness",
                "holder_witness_imaginary", "hom_from_element", "hom_norm",
                "hom_norm_certificate", "hom_to_element", "lnorm", "tensor_multiply",
                "turpin_upper"),
    "oracle": ("oracle_commutative",),
}

_PROBE = """
import contextlib, io, json, sys
{body}
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("nclp."))]))
"""

_MAIN = """
from nclp import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
"""


def _loaded(body, *argv):
    """(exit code, nclp submodules loaded) of body run in a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", _PROBE.format(body=body), *argv], env=env,
                          cwd=ROOT, capture_output=True, text=True, check=True)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, {m.removeprefix("nclp.") for m in modules}


def test_all_is_the_eager_export_list():
    assert len(nclp.__all__) == len(set(nclp.__all__))
    assert set(nclp.__all__) == {n for names in EAGER_EXPORTS.values() for n in names}


def test_each_name_is_its_module_s_object():
    # in a fresh process, as a test of the oracle reloads its module
    body = ("import importlib, nclp\n"
            f"code = [n for m, names in {EAGER_EXPORTS!r}.items() for n in names\n"
            "        if getattr(nclp, n) is not getattr(importlib.import_module('nclp.' + m), n)]")
    assert _loaded(body) == ([], set(EAGER_EXPORTS))


def test_dir_star_import_and_unknown_names():
    assert set(nclp.__all__) <= set(dir(nclp))
    assert "sys" not in dir(nclp)
    namespace = {}
    exec("from nclp import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(nclp.__all__)
    assert nclp.sampling is importlib.import_module("nclp.sampling")
    with pytest.raises(AttributeError, match="module 'nclp' has no attribute 'no_such_name'"):
        nclp.no_such_name
    assert not hasattr(nclp, "importlib")


# -- what each command loads ---------------------------------------------------

_COMMAND = {"cli", "errors", "serialize"}
_MATRIX = _COMMAND | {"matcore", "graded"}
# demo polar and douglas: no weights, lpspace, oracle, properties or sampling;
# cocycle and pushforward: no decomp or lpspace; oracle: no matrix code at all
LOADS = {
    "polar": _MATRIX | {"decomp"},
    "douglas": _MATRIX | {"decomp"},
    "holder": _MATRIX | {"decomp", "lpspace"},
    "comultiply": _MATRIX | {"decomp", "lpspace"},
    "cocycle": _MATRIX | {"weights"},
    "pushforward": _MATRIX | {"weights"},
    "oracle": _COMMAND | {"oracle"},
}
# every module but kernels, which only a size class of matcore.KERNEL_BLOCKS
# (32) blocks of size 2 loads; no default shape has more than two
ALL_MODULES = {"cli", "decomp", "errors", "graded", "lpspace", "matcore", "oracle",
               "properties", "sampling", "serialize", "weights"}


def test_importing_the_package_loads_no_module():
    assert _loaded("code = 0; import nclp") == (0, set())


@pytest.mark.parametrize("path", sorted((ROOT / "demos" / "inputs").glob("*.json")),
                         ids=lambda p: p.stem)
def test_each_shipped_input_loads_only_its_modules(path):
    kind = path.stem.split("_")[0]
    argv = ["oracle"] if kind == "oracle" else ["demo", kind]
    code, modules = _loaded(_MAIN, *argv, "--input", str(path))
    assert code == (1 if path.stem == "douglas_unsolvable" else 0)
    assert modules == LOADS[kind]


def test_verify_loads_every_module():
    assert _loaded(_MAIN, "verify", "--trials", "1") == (0, ALL_MODULES)


@pytest.mark.parametrize("count, loads", [(31, set()), (32, {"kernels"})])
@pytest.mark.parametrize("call", ["operator_norm(one)", "trace(one @ one).real / trace(one).real"],
                         ids=["factorization", "product"])
def test_only_a_class_of_kernel_size_loads_the_kernels(call, count, loads):
    # trace reads no singular value, so the product is the one kernel call
    body = ("from nclp import BlockAlgebra, operator_norm, trace\n"
            f"one = BlockAlgebra((2,) * {count}).identity()\n"
            f"code = {call}")
    code, modules = _loaded(body)
    assert code == 1.0 and modules == {"errors", "matcore"} | loads


# -- the former dataclasses ----------------------------------------------------

M, N = BlockAlgebra((1,)), BlockAlgebra((2,))
X = random_element(make_rng(5), N)
G = GradedElement(X, 0.5)
EMBEDDING = BlockEmbedding(M, N, ((0, 0),))
TOL_REPR = "Tolerances(rank_rel=1e-10, eq_abs=1e-09, eq_rel=1e-09)"

# name -> (build a fresh instance, compares by value, a field, repr)
RECORDS = {
    "Tolerances": (lambda: Tolerances(1e-10, 1e-9, 1e-9), True, "eq_abs", TOL_REPR),
    "ToleranceReport": (lambda: ToleranceReport(0.25, 0.5), True, "bound",
                        "ToleranceReport(max_residual=0.25, bound=0.5)"),
    "BlockAlgebra": (lambda: BlockAlgebra([2, 1, 2]), True, "block_dims",
                     "BlockAlgebra(block_dims=(2, 1, 2))"),
    "BlockEmbedding": (lambda: BlockEmbedding(M, N, [[0, 0]]), True, "assignment",
                       "BlockEmbedding(source=BlockAlgebra(block_dims=(1,)), "
                       "target=BlockAlgebra(block_dims=(2,)), assignment=((0, 0),))"),
    "PolarDecomposition": (lambda: PolarDecomposition(X, X, "right"), True, "side",
                           "PolarDecomposition(isometry=Element(dims=(2,)), "
                           "positive=Element(dims=(2,)), side='right')"),
    "DivisionResult": (lambda: DivisionResult(X, 1.5, 0.0), True, "minimal_c",
                       "DivisionResult(quotient=Element(dims=(2,)), minimal_c=1.5, residual=0.0)"),
    "SuiteConfig": (lambda: SuiteConfig(seed=3, trials=2, block_shapes=[[1]],
                                        gradings=[[0.5, 0.5]]), True, "trials",
                    "SuiteConfig(seed=3, trials=2, block_shapes=((1,),), "
                    f"gradings=(((0.5+0j), (0.5+0j)),), tolerances={TOL_REPR})"),
    "Element": (lambda: Element(N, X.blocks), False, "stacks", "Element(dims=(2,))"),
    "GradedElement": (lambda: GradedElement(X, 0.5), False, "grading",
                      "GradedElement(grading=(0.5+0j), dims=(2,))"),
    "Weight": (lambda: Weight(N.identity()), False, "faithful", "Weight(dims=(2,), faithful=True)"),
    "OperatorValuedWeight": (lambda: OperatorValuedWeight.from_compression(EMBEDDING), False,
                             "K",
                             "OperatorValuedWeight(embedding=BlockEmbedding(source=BlockAlgebra("
                             "block_dims=(1,)), target=BlockAlgebra(block_dims=(2,)), "
                             "assignment=((0, 0),)), K=mappingproxy({(0, 0): "
                             "array([[1.+0.j, 0.+0.j],\n"
                             "       [0.+0.j, 1.+0.j]])}))"),
    "TensorElement": (lambda: TensorElement(N, 0.5, 0.5, [(G, G)]), False, "pairs",
                      "TensorElement(1 pairs, gradings ((0.5+0j), (0.5+0j)))"),
    "ModuleHom": (lambda: ModuleHom(M, 0.5, 1.0, np.eye(1)), False, "multiplier",
                  "ModuleHom(algebra=BlockAlgebra(block_dims=(1,)), grading_in=(0.5+0j), "
                  "grading_out=(1+0j), multiplier=Element(dims=(1,)))"),
}


def _same(u, v) -> bool:
    """Equal contents, arrays bit for bit and with their read-only flag."""
    if isinstance(u, np.ndarray):
        return (type(v) is np.ndarray and u.dtype == v.dtype and u.shape == v.shape
                and u.tobytes() == v.tobytes() and u.flags.writeable == v.flags.writeable)
    if isinstance(u, Element):
        return type(v) is Element and _same((u.algebra, u.stacks), (v.algebra, v.stacks))
    if isinstance(u, GradedElement):
        return type(v) is GradedElement and _same((u.data, u.grading, u.tol),
                                                  (v.data, v.grading, v.tol))
    if isinstance(u, (dict, MappingProxyType)):
        return (type(v) is type(u) and u.keys() == v.keys()
                and all(_same(u[k], v[k]) for k in u))
    if isinstance(u, tuple):
        return type(v) is tuple and len(u) == len(v) and all(map(_same, u, v))
    return type(u) is type(v) and u == v


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_former_dataclass_keeps_its_semantics(name):
    build, by_value, field, text = RECORDS[name]
    a, b = build(), build()
    assert type(a) is getattr(nclp, name, SuiteConfig)
    assert repr(a) == text
    assert a == a and hash(a) == hash(a)
    if by_value:
        assert a == b and not a != b and hash(a) == hash(b)
    else:
        assert a != b and hash(a) == object.__hash__(a)
    assert a != object()
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = None
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is type(a) and repr(copy) == repr(a)
    assert _same(vars(copy), vars(a))
    # a record holding elements holds copies of them now, and elements
    # compare by identity, so only records of plain values stay equal
    if by_value and not any(isinstance(v, Element) for v in vars(a).values()):
        assert copy == a and hash(copy) == hash(a)
