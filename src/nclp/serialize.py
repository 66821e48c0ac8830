"""JSON persistence for elements, graded elements, and weights.

Complex entries are stored as [re, im] 2-arrays in row-major order, so the
files are lossless, language-neutral, and diffable:

    Element       {"block_dims": [2], "blocks": [[[[1,0],[0,0]], ...]]}
    GradedElement adds "grading": [re, im]
    Weight        {"density": <element>}

Output is canonical JSON, byte for byte what
json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) prints.  It is
written here rather than by json.dumps because, with indent set, CPython
skips its C encoder and walks the tree in the pure-Python encoder, one
generator step per number.  A 64x64 demo output holds about 49k floats,
and that walk costs more than the demo's linear algebra.  dumps writes each
rectangular array of plain floats and ints in one pass instead: repr over
the flattened leaves, interleaved with the separators the array's shape
fixes, joined once.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

import numpy as np

from .errors import NonFiniteError

# The readers import the types they build, so a command loads only the
# modules of the objects it reads: `nclp oracle` loads no matrix code.
if TYPE_CHECKING:
    from .graded import GradedElement
    from .matcore import Element
    from .weights import Weight


def _complex_out(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _read_array(obj, what: str, depth: int, pairs: bool | None = True) -> np.ndarray:
    """A rectangular nest of JSON numbers as a float array with depth axes, or of
    [re, im] pairs as a complex one (pairs=None: either).  Anything else, true
    and false included, raises ValueError.  An integer past the float range
    reads as infinity, as 1e400 does.
    """
    a = np.asarray(obj)   # a ragged nest raises ValueError
    if a.dtype == object and _NUMBERS.issuperset(map(type, a.flat)):
        a = a.astype(str).astype(float)   # integers past int64, read from their digits
    if a.dtype.kind not in "iuf" or bool in set(map(type, _leaves(obj, a.ndim))):
        raise ValueError(f"{what} must hold JSON numbers only")
    pairs = a.ndim > depth if pairs is None else pairs
    if a.ndim != depth + pairs or pairs and a.shape[-1] != 2:
        raise ValueError(f"{what} must have {depth} axes of "
                         f"{'[re, im] pairs' if pairs else 'numbers'}, got shape {a.shape}")
    a = a.astype(float, copy=False)
    # the float view keeps the bits of both parts; re + 1j*im would not (1j * -0.0)
    return a.view(complex)[..., 0] if pairs else a


def _leaves(obj, depth: int):
    """The leaves of a rectangular list nest with depth axes; numpy promotes a
    bool among numbers to 1 or 0, so only the nest still knows it was one."""
    leaves = [obj]
    for _ in range(depth):
        leaves = chain.from_iterable(leaves)
    return leaves


def element_to_obj(x: Element) -> dict:
    return {
        "block_dims": list(x.algebra.block_dims),
        "blocks": [np.stack([b.real, b.imag], -1).tolist() for b in x.blocks],
    }


def element_from_obj(obj: dict) -> Element:
    from .matcore import BlockAlgebra, Element

    algebra = BlockAlgebra(tuple(obj["block_dims"]))
    blocks = [_read_array(b, f"block {k}", 2) for k, b in enumerate(obj["blocks"])]
    for k, b in enumerate(blocks):
        if not np.all(np.isfinite(b)):
            raise NonFiniteError(f"block {k} has a NaN or infinite entry")
    return Element(algebra, tuple(blocks))


def graded_to_obj(xi: GradedElement) -> dict:
    obj = element_to_obj(xi.data)
    obj["grading"] = _complex_out(xi.grading)
    return obj


def graded_from_obj(obj: dict) -> GradedElement:
    from .graded import GradedElement

    return GradedElement(element_from_obj(obj), complex(_read_array(obj["grading"], "grading", 0)))


def weight_to_obj(mu: Weight) -> dict:
    return {"density": element_to_obj(mu.density)}


def weight_from_obj(obj: dict) -> Weight:
    from .weights import Weight

    return Weight(element_from_obj(obj["density"]))


_NONFINITE = frozenset(("nan", "inf", "-inf"))   # float reprs JSON cannot hold
_NUMBERS = frozenset((float, int))


def _out_of_range(text: str) -> ValueError:
    return ValueError("Out of range float values are not JSON compliant: " + text)


def _array_text(lst: list, level: int):
    """The text of a rectangular list nest of plain floats and ints, else None.

    Bools, numpy scalars, tuples, empty lists and ragged nests return None
    and are written item by item.
    """
    shape = []
    x = lst
    while type(x) is list and x:
        shape.append(len(x))
        x = x[0]
    if type(x) not in _NUMBERS:
        return None
    leaves = lst
    for n in shape[1:]:
        if set(map(type, leaves)) != {list} or set(map(len, leaves)) != {n}:
            return None
        leaves = list(chain.from_iterable(leaves))
    if not _NUMBERS.issuperset(map(type, leaves)):
        return None
    text = list(map(repr, leaves))
    if not _NONFINITE.isdisjoint(text):
        raise _out_of_range(next(t for t in text if t in _NONFINITE))
    # breaks[j]: a newline and the indent of the items of the depth-j lists
    depth = len(shape)
    breaks = ["\n" + "  " * (level + j) for j in range(depth + 1)]
    seps = ["," + breaks[depth]] * (shape[-1] - 1)
    for m in range(depth - 1, 0, -1):
        # between two items of a depth-m list: close the inner lists, open the next
        close = "".join(breaks[j - 1] + "]" for j in range(depth, m, -1))
        reopen = "".join("[" + breaks[j] for j in range(m + 1, depth + 1))
        seps = (seps + [close + "," + breaks[m] + reopen]) * shape[m - 1]
        seps.pop()
    parts = [""] * (2 * len(text) - 1)
    parts[::2] = text
    parts[1::2] = seps
    head = "".join("[" + breaks[j] for j in range(1, depth + 1))
    tail = "".join(breaks[j - 1] + "]" for j in range(depth, 0, -1))
    return head + "".join(parts) + tail


def _write(o, level: int, out: list) -> None:
    """Append the text of o, as json's encoder orders its type tests."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        text = float.__repr__(o)
        if text in _NONFINITE:
            raise _out_of_range(repr(o))
        out.append(text)
    elif isinstance(o, (list, tuple)):
        text = _array_text(o, level) if type(o) is list else None
        if text is not None:
            out.append(text)
        elif not o:
            out.append("[]")
        else:
            brk = "\n" + "  " * (level + 1)
            out.append("[" + brk)
            for i, v in enumerate(o):
                if i:
                    out.append("," + brk)
                _write(v, level + 1, out)
            out.append("\n" + "  " * level + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
        else:
            brk = "\n" + "  " * (level + 1)
            out.append("{" + brk)
            for i, key in enumerate(sorted(o)):
                # a key that is not a str raises TypeError here
                out.append(("," + brk if i else "") + encode_basestring_ascii(key) + ": ")
                _write(o[key], level + 1, out)
            out.append("\n" + "  " * level + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def dumps(obj: dict) -> str:
    """Canonical JSON: sorted keys, two-space indent, shortest float repr,
    trailing newline; the bytes of json.dumps(obj, sort_keys=True, indent=2,
    allow_nan=False) + "\n".

    Not written by json.dumps, whose indented output runs CPython's
    pure-Python encoder item by item (see the module docstring).  Strict:
    NaN and infinities raise json's ValueError instead of printing the
    non-standard NaN and Infinity literals; keys must be str.
    """
    out = []
    _write(obj, 0, out)
    out.append("\n")
    return "".join(out)
