"""JSON persistence for elements, graded elements, and weights.

Complex entries are stored as [re, im] 2-arrays in row-major order, so the
files are lossless, language-neutral, and diffable:

    Element       {"block_dims": [2], "blocks": [[[[1,0],[0,0]], ...]]}
    GradedElement adds "grading": [re, im]
    Weight        {"density": <element>}
"""

from __future__ import annotations

import json

import numpy as np

from .errors import NonFiniteError
from .graded import GradedElement
from .matcore import BlockAlgebra, Element
from .weights import Weight


def _complex_out(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _complex_in(pair) -> complex:
    re, im = pair
    return complex(float(re), float(im))


def element_to_obj(x: Element) -> dict:
    return {
        "block_dims": list(x.algebra.block_dims),
        "blocks": [[[_complex_out(v) for v in row] for row in b] for b in x.blocks],
    }


def element_from_obj(obj: dict) -> Element:
    algebra = BlockAlgebra(tuple(obj["block_dims"]))
    blocks = [np.array([[_complex_in(v) for v in row] for row in b], dtype=complex)
              for b in obj["blocks"]]
    for k, b in enumerate(blocks):
        if not np.all(np.isfinite(b)):
            raise NonFiniteError(f"block {k} has a NaN or infinite entry")
    return Element(algebra, tuple(blocks))


def graded_to_obj(xi: GradedElement) -> dict:
    obj = element_to_obj(xi.data)
    obj["grading"] = _complex_out(xi.grading)
    return obj


def graded_from_obj(obj: dict) -> GradedElement:
    return GradedElement(element_from_obj(obj), _complex_in(obj["grading"]))


def weight_to_obj(mu: Weight) -> dict:
    return {"density": element_to_obj(mu.density)}


def weight_from_obj(obj: dict) -> Weight:
    return Weight(element_from_obj(obj["density"]))


def dumps(obj: dict) -> str:
    """Canonical JSON: sorted keys, stable float repr, trailing newline.

    Strict: NaN and infinities raise ValueError instead of printing the
    non-standard NaN and Infinity literals.
    """
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
