"""Graded L-spaces of finite-dimensional von Neumann algebras.

Block-diagonal matrix algebras in tracial coordinates, with weights and
modular structure, Douglas division and polar decompositions, graded
(quasi)norms with Hölder witnesses, and the tensor-product / internal-hom
isometry pair, all verified by a seeded property suite (`nclp verify`).
"""

from .errors import (
    AlgebraMismatchError,
    ConditionViolatedError,
    GradingError,
    NclpError,
    NonFaithfulError,
    NonFiniteError,
    NotModuleMapError,
    NotPositiveError,
    ShapeError,
    UnsolvableError,
    ValidationError,
)
from .matcore import (
    DEFAULT_TOL,
    BlockAlgebra,
    Element,
    Tolerances,
    ToleranceReport,
    allclose,
    distance,
    flatten_element,
    func_calc,
    operator_norm,
    power_pos,
    spectral_projection,
    trace,
    unflatten_element,
)
from .weights import (
    BlockEmbedding,
    OperatorValuedWeight,
    Weight,
    change_of_weight,
    cocycle_identity_check,
    connes_cocycle,
    evaluate,
    modular_automorphism,
    pushforward_weight,
    trace_weight,
)
from .decomp import (
    DivisionResult,
    PolarDecomposition,
    cyclic_generator,
    douglas_divide,
    douglas_ladder,
    graded_divide,
    isometry_divide,
    left_support,
    polar_left,
    polar_right,
    pseudo_inverse,
    rank1_reduce,
    right_support,
)
from .graded import GradedElement
from .lpspace import (
    ModuleHom,
    TensorElement,
    comultiply,
    gmul,
    holder_witness,
    holder_witness_imaginary,
    hom_from_element,
    hom_norm,
    hom_norm_certificate,
    hom_to_element,
    lnorm,
    tensor_multiply,
    turpin_upper,
)
from .oracle import oracle_commutative

__version__ = "0.1.0"
