"""The lapack fixture: the calls a test makes to numpy.linalg's factorizations."""

import inspect

import numpy as np
import pytest

from nclp.matcore import _eig_classes, _svds

# the functions wrapped, each with the argument recorded as its option
OPTIONS = {"svd": "compute_uv", "norm": "ord", "eigh": None, "eigvalsh": None}


class Lapack:
    """Records every call to numpy.linalg's svd, eigh, eigvalsh and norm.

    The library looks numpy.linalg up at call time, so the wrappers see
    each of its factorizations.  calls holds one record (name, option,
    shape) per call, in order: option is compute_uv for svd, ord for norm
    and None otherwise, and shape is that of the matrix argument.
    """

    caches = (_svds, _eig_classes)

    def __init__(self, monkeypatch):
        self.calls = []
        self._forbidden = set()
        self._errors = {}
        for name in OPTIONS:
            monkeypatch.setattr(np.linalg, name, self._wrap(name, getattr(np.linalg, name)))
        self.reset()

    def _wrap(self, name, real):
        signature, option = inspect.signature(real), OPTIONS[name]

        def call(*args, **kwargs):
            if name in self._forbidden:
                pytest.fail(f"numpy.linalg.{name} was called")
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.calls.append((name, bound.arguments[option] if option else None,
                               np.shape(bound.args[0])))
            if name in self._errors:
                raise self._errors[name]
            return real(*args, **kwargs)

        return call

    def reset(self):
        """Forget the recorded calls and every cached factorization.

        The caches serve bare elements only: a live Weight keeps the
        eigensystem of its density, which no reset empties, so its
        operations at its own policy still take no eigh.
        """
        self.calls.clear()
        for cached in self.caches:
            cached.cache_clear()

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
    """A Lapack for one test, which starts with cold factorization caches;
    a weight built earlier keeps its eigensystem all the same."""
    return Lapack(monkeypatch)
