"""The entry-bracket fast path of the one pass/fail norm verdict.

isometry_divide, douglas_divide, douglas_ladder, cyclic_generator and
allclose decide their checks through matcore._first_over, which first asks
the entry brackets whether a residual is surely inside its bound, and takes
the exact operator norms only when they cannot tell.  These tests hold
every call to the outcome of the exact decision alone: the same value bit
for bit, or the same error type, residual and message.
"""

import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from nclp import (
    DEFAULT_TOL,
    BlockAlgebra,
    DivisionResult,
    GradedElement,
    NclpError,
    NonFiniteError,
    allclose,
    cyclic_generator,
    decomp,
    distance,
    douglas_divide,
    douglas_ladder,
    isometry_divide,
    matcore,
    operator_norm,
    polar_right,
    power_pos,
    trace_weight,
)
from nclp.matcore import (
    Element,
    _entry_bracket,
    _first_over,
    _svds,
)
from nclp.sampling import make_rng, random_element, random_positive, random_weight

from conftest import unchecked

SHAPES = [(1,), (2, 2), (3,), (2,) * 8, (16,)]
PERTURBATIONS = (1e-13, 1e-6)
PLACEMENTS = (0.3, 0.6, 0.99, 1.01)   # residual as a multiple of its bound


def _key(value):
    """A comparable form of a result, exact to the last bit."""
    if isinstance(value, Element):
        return tuple(a.tobytes() for a in value.stacks)
    if isinstance(value, GradedElement):
        return _key(value.data), value.grading
    if isinstance(value, DivisionResult):
        return _key(value.quotient), _key(value.minimal_c), _key(value.residual)
    if isinstance(value, (list, tuple)):
        return tuple(_key(v) for v in value)
    if isinstance(value, float):
        return value.hex()
    return value


def _outcome(call):
    try:
        return "ok", _key(call())
    except Exception as exc:   # noqa: BLE001 -- the error is the outcome
        numbers = getattr(exc, "residual", None), getattr(exc, "bound", None)
        return type(exc), _key(numbers), str(exc)


def _no_bracket(x):
    return math.nan, math.nan


def _both(call, accepted):
    """(fast, exact) outcomes of call.

    The exact outcome has every entry bracket NaN, which never passes, so
    every check takes its exact norms.  accepted collects, per verdict of
    the fast call, whether the brackets decided it: whether it took no
    exact norm.
    """
    exact_norms = []
    operator_norm = matcore.operator_norm

    def norm(x):
        exact_norms.append(x)
        return operator_norm(x)

    def spy(checks, tol):
        before = len(exact_norms)
        try:
            return _first_over(checks, tol)
        finally:   # the exact norms may raise, as on a NaN
            accepted.append(len(exact_norms) == before)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decomp, "_first_over", spy)
        mp.setattr(matcore, "_first_over", spy)
        mp.setattr(matcore, "operator_norm", norm)
        fast = _outcome(call)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matcore, "_entry_bracket", _no_bracket)
        exact = _outcome(call)
    return fast, exact


def _unit(x: Element) -> Element:
    return x * (1.0 / operator_norm(x))


def _rank_one(rng, M, right=None) -> Element:
    """u v* in the first block, unit norm; v is right @ v when right is given."""
    blocks = [np.zeros((n, n), dtype=complex) for n in M.block_dims]
    n = M.block_dims[0]
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if right is not None:
        v = right.blocks[0] @ v
    blocks[0] = np.outer(u, v.conj())
    return _unit(Element(M, blocks))


def _kernel_projection(M) -> Element:
    """Onto the last n - n // 2 coordinates of every block: all of a 1 x 1 block."""
    return Element(M, [np.diag((np.arange(n) >= n // 2).astype(float))
                       for n in M.block_dims])


def _douglas_cases(rng, M):
    """(x, y, expected_pass or None) for the Douglas solvability check."""
    kernel = _kernel_projection(M)
    x = random_element(rng, M) @ (M.identity() - kernel)
    base = random_element(rng, M) @ x
    for eps in PERTURBATIONS:
        yield x, base + eps * _unit(random_element(rng, M)), None
    for shape in ("rank-one", "spread"):
        if shape == "rank-one":
            direction = _rank_one(rng, M, right=kernel)
        else:
            direction = _unit(random_element(rng, M) @ kernel)
        for t in PLACEMENTS:
            # ||y (1 - supp x)|| = t ||direction|| bound, up to rounding far below 1 %
            bound = DEFAULT_TOL.eq_bound(operator_norm(base))
            for _ in range(3):
                y = base + (t * bound) * direction
                bound = DEFAULT_TOL.eq_bound(operator_norm(y))
            yield x, y, t < 1.0


def _isometry_cases(rng, M):
    x = random_element(rng, M)
    w = polar_right(random_element(rng, M)).isometry
    for eps in PERTURBATIONS:
        yield x, w @ x + eps * _unit(random_element(rng, M)), None
    x = M.identity() + random_positive(rng, M)
    gram = x.adjoint() @ x
    for shape in ("rank-one", "full"):
        if shape == "rank-one":
            r = _rank_one(rng, M)
            r = r @ r.adjoint()
        else:
            r = _unit(random_positive(rng, M))
        for t in PLACEMENTS:
            bound = DEFAULT_TOL.eq_bound(operator_norm(gram))
            yield x, power_pos(gram + (t * bound) * r, 0.5), t < 1.0


def _cyclic_cases(rng, M):
    """([u], mu, expected) with u = w diag(1, delta...) v; delta is the residual."""
    w = polar_right(random_element(rng, M)).isometry
    v = polar_right(random_element(rng, M)).isometry
    mu = random_weight(rng, M)

    def generator(small, spread):
        blocks = []
        for k, n in enumerate(M.block_dims):
            d = np.full(n, small)
            if spread:   # the largest small direction stays at small
                d[1:-1] *= rng.uniform(0.5, 1.0, max(n - 2, 0))
            if k == 0 or n > 1:
                d[0] = 1.0
            blocks.append(np.diag(d))
        return GradedElement(w @ Element(M, blocks) @ v, 0.5 + 0.3j)

    for eps in PERTURBATIONS:
        yield [generator(eps, False)], mu, None
    if max(M.block_dims) == 1 and len(M.block_dims) == 1:
        return   # a lone 1 x 1 block has no direction for G^(1/2) to drop
    for spread in (False, True):
        for t in PLACEMENTS:
            u = generator(1.0, spread)
            bound = DEFAULT_TOL.eq_bound(operator_norm(u.data))
            yield [generator(t * bound, spread)], mu, t < 1.0


def _allclose_cases(rng, M):
    x = random_element(rng, M)
    for eps in PERTURBATIONS:
        yield x, x + eps * _unit(random_element(rng, M)), None
    for shape in ("rank-one", "full"):
        r = _rank_one(rng, M) if shape == "rank-one" else _unit(random_element(rng, M))
        for t in PLACEMENTS:
            bound = DEFAULT_TOL.eq_bound(operator_norm(x))
            yield x, x + (t * bound) * r, t < 1.0


@pytest.mark.parametrize("dims", SHAPES, ids=str)
def test_fast_and_exact_deciders_agree(dims):
    M = BlockAlgebra(dims)
    rng = make_rng(90 + len(dims))
    accepted = []
    calls = []
    for x, y, expected in _douglas_cases(rng, M):
        calls.append((lambda x=x, y=y: douglas_divide(x, y), expected))
        calls.append((lambda x=x, y=y: douglas_ladder(x, y), expected))
    for x, y, expected in _isometry_cases(rng, M):
        calls.append((lambda x=x, y=y: isometry_divide(x, y), expected))
    for gens, mu, expected in _cyclic_cases(rng, M):
        calls.append((lambda gens=gens, mu=mu: cyclic_generator(gens, mu), expected))
    for x, y, expected in _allclose_cases(rng, M):
        calls.append((lambda x=x, y=y: allclose(x, y), expected))
    for call, expected in calls:
        fast, exact = _both(call, accepted)
        assert fast == exact
        if expected is not None:   # the placement sits on the side it names
            passed = exact[0] == "ok" and exact[1] is not False
            assert passed == expected
    assert any(accepted) and not all(accepted)


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_extreme_scales_decide_without_warnings(scale):
    rng = make_rng(95)
    M = BlockAlgebra((2,) * 8)
    x = random_element(rng, M)
    w = polar_right(random_element(rng, M)).isometry
    r = random_element(rng, M)
    xs, ys = scale * x, scale * (w @ x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (x, 1e-200 * x, 1e200 * x):
            ratio = operator_norm(z) / operator_norm(x)
            lo, hi = _entry_bracket(z)
            lo1, hi1 = _entry_bracket(x)
            assert lo == pytest.approx(ratio * lo1, rel=1e-14)
            assert hi == pytest.approx(ratio * hi1, rel=1e-14)
        assert _first_over([(1e-14 * xs, (xs,))], DEFAULT_TOL) is None
        isometry_divide(xs, ys)
        douglas_divide(xs, r @ xs)
        douglas_ladder(xs, r @ xs)
        cyclic_generator([GradedElement(xs, 0.5)], trace_weight(M))
        assert allclose(xs, xs + (1e-14 * scale) * x)


def test_brackets_enclose_the_operator_norm():
    rng = make_rng(96)
    for dims in SHAPES + [(1, 3, 2, 3)]:
        M = BlockAlgebra(dims)
        for x in (random_element(rng, M), _rank_one(rng, M), M.identity()):
            lo, hi = _entry_bracket(x)
            nrm = operator_norm(x)
            assert lo <= nrm * (1 + 1e-14) and nrm <= hi * (1 + 1e-14)
    assert _entry_bracket(M.zero()) == (0.0, 0.0)


# a non-finite residual never passes on its bracket, and the exact norm
# refuses it before any factorization
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_residuals_take_the_exact_path(bad, lapack):
    rng = make_rng(97)
    M = BlockAlgebra((2, 2))
    x = random_element(rng, M)
    blocks = [np.array(b) for b in x.blocks]
    blocks[1][0, 1] = bad
    y = unchecked(M, blocks)
    assert math.isnan(_entry_bracket(y - x)[1]) and math.isnan(_entry_bracket(y)[0])
    accepted = []
    fast, exact = _both(lambda: allclose(x, y), accepted)
    assert fast == exact and accepted == [False]
    assert fast[:1] == (NonFiniteError,) and fast[2].startswith("operator norm: ")
    lapack.reset()
    _outcome(lambda: allclose(x, y))
    assert lapack.names() == []


def test_valid_checks_take_no_values_only_svd(lapack):
    rng = make_rng(98)
    M = BlockAlgebra((2,) * 8)
    x = random_element(rng, M)
    y = polar_right(random_element(rng, M)).isometry @ x
    xc = polar_right(random_element(rng, M) @ _kernel_projection(M)).positive
    yc = random_element(rng, M) @ xc
    lapack.reset()
    _svds(x)   # a warm x: only y is factorized
    lapack.calls.clear()
    isometry_divide(x, y)
    assert lapack.names() == ["svd"]
    lapack.calls.clear()
    assert allclose(x, x + 1e-14 * y)
    assert lapack.calls == []
    douglas_ladder(xc, yc)   # one SVD of x and one values-only SVD for its rungs
    assert lapack.names() == ["svd", "svdvals"]
    lapack.calls.clear()
    douglas_divide(xc, yc)   # x is warm; the residual and ||p|| stay exact
    assert lapack.names() == ["svdvals", "svdvals"]


def test_exact_fallback_keeps_the_reported_figures(lapack, monkeypatch):
    # x = 0 and y at 0.99 of its bound: hi(y) = 16 ||y||_2 leaves the verdict
    # to the exact norms, which stay on the remainder and y; douglas_divide
    # reads the remainder's again beside that of p, so each of the three
    # takes exactly one values-only SVD, in that order
    M = BlockAlgebra((16,))
    y = (0.99 * DEFAULT_TOL.eq_abs) * M.identity()
    factorized, checks = [], []
    svd, first_over = matcore._svd, decomp._first_over

    def spy_svd(a, blocks, what, compute_uv=True):
        if not compute_uv:
            factorized.append(a)
        return svd(a, blocks, what, compute_uv)

    def spy_first_over(pairs, tol):
        checks.extend(pairs)
        return first_over(pairs, tol)

    monkeypatch.setattr(matcore, "_svd", spy_svd)
    monkeypatch.setattr(decomp, "_first_over", spy_first_over)
    result = douglas_divide(M.zero(), y)
    assert lapack.names() == ["svd", "svdvals", "svdvals", "svdvals"]
    [(rem, _)] = checks
    assert len(factorized) == 3
    assert all(a is e.stacks[0] for a, e in zip(factorized, (rem, y, result.quotient)))
    assert result.residual == operator_norm(y) and result.minimal_c == 0.0
    with pytest.raises(NclpError):
        douglas_divide(M.zero(), y * 1.02)


NAN_PAIR = (BlockAlgebra((1,)), [[2.0]], [[np.nan]])


@pytest.mark.parametrize("call, operation", [
    (lambda x, y: allclose(x, y), "operator norm"),
    (lambda x, y: douglas_divide(x, y), "operator norm"),
    (lambda x, y: isometry_divide(x, y), "operator norm"),
    (lambda x, y: douglas_divide(y, x), "singular value decomposition"),
    (lambda x, y: operator_norm(y), "operator norm"),
    (lambda x, y: distance(x, y), "distance"),
], ids=["allclose", "douglas_divide", "isometry_divide", "douglas_divide_by_nan",
        "operator_norm", "distance"])
def test_a_nan_operand_is_a_non_finite_error_naming_the_operation(call, operation):
    M, x, y = NAN_PAIR
    x, y = unchecked(M, [np.array(x)]), unchecked(M, [np.array(y)])
    with pytest.raises(NonFiniteError, match=f"^{operation}: "):
        call(x, y)


def test_a_finite_svd_failure_is_left_to_lapack(lapack):
    lapack.fail("svd", np.linalg.LinAlgError("SVD did not converge"))
    x = random_element(make_rng(99), BlockAlgebra((2,)))
    for call in (lambda: operator_norm(x), lambda: polar_right(x)):
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            call()


def test_an_infinity_is_refused_before_any_full_svd():
    # LAPACK's full SVD of a 3 x 3 block that holds an infinity may never
    # return, so every caller of matcore._svds runs in a child with a timeout
    code = textwrap.dedent("""
        import numpy as np
        from nclp import (BlockAlgebra, Element, GradedElement, NonFiniteError, comultiply,
                          douglas_divide, douglas_ladder, holder_witness,
                          holder_witness_imaginary, left_support, polar_left, polar_right,
                          pseudo_inverse, right_support)
        M = BlockAlgebra((3,))
        x = Element._of(M, [np.diag([np.inf, 1.0, 1.0]).astype(complex)[None]])
        y = M.identity()
        for call in (lambda: left_support(x), lambda: right_support(x),
                     lambda: polar_right(x), lambda: polar_left(x),
                     lambda: pseudo_inverse(x), lambda: douglas_divide(x, y),
                     lambda: douglas_ladder(x, y),
                     lambda: holder_witness(GradedElement(x, 0.5), 0.5),
                     lambda: holder_witness_imaginary(GradedElement(x, 0.3j), 0.5, 0.5),
                     lambda: comultiply(GradedElement(x, 1.0), (0.5, 0.5))):
            try:
                call()
            except NonFiniteError as err:
                print(err)
        """)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    message = "singular value decomposition: the matrix holds a NaN or an infinity"
    assert done.stdout.splitlines() == [message] * 10
