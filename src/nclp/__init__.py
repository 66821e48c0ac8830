"""Graded L-spaces of finite-dimensional von Neumann algebras.

Block-diagonal matrix algebras in tracial coordinates, with weights and
modular structure, Douglas division and polar decompositions, graded
(quasi)norms with Hölder witnesses, and the tensor-product / internal-hom
isometry pair, all verified by a seeded property suite (`nclp verify`).

Importing the package loads none of its modules.  Each public name below,
and each module that holds them read as an attribute (nclp.decomp), is
imported on first use (PEP 562), so a command pays only for the code it runs.
"""

import sys as _sys

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "AlgebraMismatchError",
        "ConditionViolatedError",
        "GradingError",
        "NclpError",
        "NonFaithfulError",
        "NonFiniteError",
        "NotModuleMapError",
        "NotPositiveError",
        "ShapeError",
        "UnsolvableError",
        "ValidationError",
    ),
    "matcore": (
        "DEFAULT_TOL",
        "BlockAlgebra",
        "Element",
        "Tolerances",
        "ToleranceReport",
        "allclose",
        "distance",
        "flatten_element",
        "func_calc",
        "operator_norm",
        "power_pos",
        "spectral_projection",
        "trace",
        "unflatten_element",
    ),
    "weights": (
        "BlockEmbedding",
        "OperatorValuedWeight",
        "Weight",
        "change_of_weight",
        "cocycle_identity_check",
        "connes_cocycle",
        "evaluate",
        "modular_automorphism",
        "pushforward_weight",
        "trace_weight",
    ),
    "decomp": (
        "DivisionResult",
        "PolarDecomposition",
        "cyclic_generator",
        "douglas_divide",
        "douglas_ladder",
        "graded_divide",
        "isometry_divide",
        "left_support",
        "polar_left",
        "polar_right",
        "pseudo_inverse",
        "rank1_reduce",
        "right_support",
    ),
    "graded": ("GradedElement",),
    "lpspace": (
        "ModuleHom",
        "TensorElement",
        "comultiply",
        "gmul",
        "holder_witness",
        "holder_witness_imaginary",
        "hom_from_element",
        "hom_norm",
        "hom_norm_certificate",
        "hom_to_element",
        "lnorm",
        "tensor_multiply",
        "turpin_upper",
    ),
    "oracle": ("oracle_commutative",),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path: it binds the submodule as an attribute
    # here, and -X importtime logs it (importlib.import_module is not logged)
    __import__(f"{__name__}.{module}")
    value = _sys.modules[f"{__name__}.{module}"]
    if name in _HOME:
        value = getattr(value, name)
        globals()[name] = value   # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
