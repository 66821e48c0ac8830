"""The lapack fixture: the factorizations a test makes, on LAPACK or the 2 x 2 kernels."""

import inspect

import numpy as np
import pytest

from nclp import kernels
from nclp.matcore import _svds

# the functions wrapped, each with the argument recorded as its option
OPTIONS = {"svd": "compute_uv", "norm": "ord", "eigh": None, "eigvalsh": None}
# the closed-form 2 x 2 kernels, each recorded as the LAPACK call it stands for
KERNELS = {"svd": "svd2", "eigh": "eigh2"}


class Lapack:
    """Records every call to numpy.linalg's svd, eigh, eigvalsh and norm.

    The library looks numpy.linalg and nclp.kernels up at call time,
    so the wrappers see each of its factorizations; a kernel call is
    recorded, forbidden and failed as the LAPACK call it replaces.  calls
    holds one record (name, option, shape) per call, in order: option is
    compute_uv for svd, ord for norm and None otherwise, and shape is that
    of the matrix argument.
    """

    def __init__(self, monkeypatch):
        self.calls = []
        self._forbidden = set()
        self._errors = {}
        for name in OPTIONS:
            monkeypatch.setattr(np.linalg, name, self._wrap(name, getattr(np.linalg, name)))
        for name, kernel in KERNELS.items():
            monkeypatch.setattr(kernels, kernel, self._wrap(name, getattr(kernels, kernel)))
        self.reset()

    def _wrap(self, name, real):
        signature, option = inspect.signature(real), OPTIONS[name]

        def call(*args, **kwargs):
            if name in self._forbidden:
                pytest.fail(f"numpy.linalg.{name} was called, or its kernel")
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.calls.append((name, bound.arguments[option] if option else None,
                               np.shape(bound.args[0])))
            if name in self._errors:
                raise self._errors[name]
            return real(*args, **kwargs)

        return call

    def reset(self):
        """Forget the recorded calls and the full SVDs of the _svds LRU.

        An element keeps its singular values and its eigensystems for as
        long as it lives, which no reset empties: count on fresh elements,
        or on elements whose factorizations the test means to reuse.
        """
        self.calls.clear()
        _svds.cache_clear()

    def names(self) -> list:
        """The name of each recorded call, "svdvals" for a values-only svd."""
        return ["svdvals" if name == "svd" and not option else name
                for name, option, _ in self.calls]

    def of(self, name) -> list:
        """(option, shape) of each recorded call to name."""
        return [(option, shape) for n, option, shape in self.calls if n == name]

    def forbid(self, *names):
        """Fail the test at any later call to one of names."""
        self._forbidden.update(names)

    def fail(self, name, error):
        """Raise error in place of every later call to name."""
        self._errors[name] = error


@pytest.fixture
def lapack(monkeypatch):
    """A Lapack for one test, which starts with an empty full-SVD LRU; an
    element built earlier keeps its singular values and eigensystems."""
    return Lapack(monkeypatch)
