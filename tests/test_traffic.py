"""Factorization traffic of the property suite: nothing is factorized twice.

Each full SVD is counted per element and each eigensystem per (element,
policy), by the LAPACK calls the lapack fixture records while the entry
points _svds and _eig_classes run.  The counters key on the elements
themselves, which holds every counted element alive: a freed element's id
would be reused by a later one and read as a repeat.
"""

import collections
import sys

import pytest

from nclp import (
    DEFAULT_TOL,
    BlockAlgebra,
    douglas_divide,
    douglas_ladder,
    isometry_divide,
    left_support,
    polar_left,
    polar_right,
    right_support,
)
from nclp.matcore import Tolerances, _eig_classes, _svds
from nclp.properties import SuiteConfig, run_suite
from nclp.sampling import make_rng, random_conditioned, random_element

# the default config and the CI verify configs, less the 64-block one
# (about 2.5 s and 830 MB); eigensystems held in an LRU of two would
# factorize some element twice in each
CONFIGS = {
    "default": SuiteConfig(trials=5),
    "many blocks": SuiteConfig(trials=2, block_shapes=[[2] * 31, [2] * 64, [3, 1, 2, 1, 3]]),
    "wide blocks": SuiteConfig(trials=2, block_shapes=[[16], [5, 1, 5], [12, 3]]),
    "another policy": SuiteConfig(trials=2, tolerances=Tolerances(
        rank_rel=1e-9, eq_abs=1e-10, eq_rel=1e-10)),
}


def _count(monkeypatch, lapack, entry, call, key) -> collections.Counter:
    """Wrap entry in every nclp module; count key(*args) whenever a call to
    it makes a LAPACK call matching call(name, option)."""
    taken = collections.Counter()

    def spy(*args):
        before = len(lapack.calls)
        out = entry(*args)
        if any(call(name, option) for name, option, _ in lapack.calls[before:]):
            taken[key(*args)] += 1
        return out

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "nclp"]:
        for name, value in list(vars(module).items()):
            if value is entry:
                monkeypatch.setattr(module, name, spy)
    return taken


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_the_suite_takes_no_factorization_twice(config, lapack, monkeypatch):
    svds = _count(monkeypatch, lapack, _svds, lambda name, uv: name == "svd" and uv,
                  lambda x: x)
    eigs = _count(monkeypatch, lapack, _eig_classes, lambda name, _: name == "eigh",
                  lambda h, tol: (h, tol))
    assert run_suite(CONFIGS[config])["all_passed"]
    assert svds and eigs
    assert [n for n in svds.values() if n > 1] == []
    assert [n for n in eigs.values() if n > 1] == []


@pytest.mark.parametrize("dims", [(2,) * 64, (64,)])
def test_dividing_by_a_decomposed_element_takes_its_svd_once(dims, lapack, monkeypatch):
    # the division calls of one task of the API bench workloads: the polar
    # parts and supports of x, then three divisions by it.  isometry_divide
    # factorizes yw before x, so a full-SVD LRU of one entry takes x's twice
    svds = _count(monkeypatch, lapack, _svds, lambda name, uv: name == "svd" and uv,
                  lambda x: x)
    rng, M = make_rng(61), BlockAlgebra(dims)
    for _ in range(3):
        x = random_conditioned(rng, M, DEFAULT_TOL)
        y = random_element(rng, M) @ x
        yw = polar_right(random_element(rng, M)).isometry @ x
        for run in (polar_right, polar_left, left_support, right_support):
            run(x)
        douglas_divide(x, y), douglas_ladder(x, y), isometry_divide(x, yw)
    # x, yw and two polar parts taken to draw them, per instance
    assert len(svds) == 4 * 3 and set(svds.values()) == {1}
