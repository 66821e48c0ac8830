"""The closed-form 2 x 2 kernels of nclp.kernels, against LAPACK and BLAS,
and the rule that routes a size class to them: its block count, never the
stack length."""

import math

import numpy as np
import pytest

from nclp import (DEFAULT_TOL, BlockAlgebra, Element, GradedElement, NonFiniteError, Weight,
                  distance, kernels, lnorm, power_pos, spectral_projection)
from nclp.kernels import matmul2, svd2
from nclp.lpspace import holder_witness_imaginary
from nclp.matcore import (KERNEL_BLOCKS, _eig_classes, _spectral, _spectral_power, _svds,
                          operator_norm)
from nclp.properties import SuiteConfig, run_suite
from nclp.sampling import make_rng, random_element, random_graded, random_positive

from conftest import unchecked

K = KERNEL_BLOCKS
EPS = np.finfo(float).eps

# The bounds, derived to first order in units of u = eps / 2 and of smax, the
# block's largest singular value; each rounding of an operation on
# quantities of size at most smax adds at most u smax.
# - Scaling by 2^-e is exact.
# - The Gram entries p, r and q carry at most 5u smax^2: two squares or
#   products and a sum, per part.
# - The rotation's c, s and phase carry at most 8u each: abs, hypot, divide,
#   subtract, hypot, divide.  So V is unitary to 10u; u1 = x1 / |x1| is a unit
#   vector to 5u (two abs, hypot, divide), and u2 is built from it, so u is
#   unitary to 10u too.  Forming u* u or V V* adds 3u: UNITARY = 16u.
# - x = b V carries 4u smax, and s1 u1 = x1 to 3u smax.  s2 u2 drops the part
#   u1* x2 of x2, at most (5u + 8u) smax from the rotation's residual on the
#   Gram matrix, and carries 3u smax of its own.  Undoing V costs its
#   unitarity, 10u smax, and forming u diag(s) vh - a adds 4u smax:
#   RESIDUAL = 37u smax.
# - The singular values of u diag(s) vh are s to within the unitarity of u
#   and vh (2 x 16u smax); by Weyl's inequality those of a are within the
#   residual of them; LAPACK's are within p(n) eps smax of exact, taken as
#   2 eps = 4u for n = 2: VALUES = (32 + 37 + 4)u smax.
# Measured on the stacks below, the largest were 4 eps, 3.2 eps and 3.7 eps.
# - Products, entry by entry, in units of (|a| |b|)_ij = sum_l |a_il| |b_lj|:
#   each part of a complex product x y is two real products and a sum, within
#   2u (|x_r y_r| + |x_i y_i|) or 2u (|x_r y_i| + |x_i y_r|), so the product
#   is within 2 sqrt(2) u |x| |y| (Cauchy-Schwarz), and the kernel's sum of
#   the two adds u of their total: (2 sqrt(2) + 1)u.  BLAS may sum the four
#   real products of a part in any order, with or without fused multiply-adds,
#   each rounding at most u of the terms' sum: 4 sqrt(2) u.  So the two
#   differ by at most PRODUCT = (6 sqrt(2) + 1)u, on entries whose products
#   stay normal.  Measured below, the largest was 2.04u.
UNITARY = 16 * EPS / 2
RESIDUAL = 37 * EPS / 2
VALUES = 73 * EPS / 2
PRODUCT = (6 * math.sqrt(2) + 1) * EPS / 2


def _stacks():
    rng = make_rng(5)
    k = 60

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    g = gaussian(k, 2, 2)
    q1, q2 = np.linalg.qr(g)[0], np.linalg.qr(gaussian(k, 2, 2))[0]
    return {
        "gaussian": g,
        "zero": np.zeros((3, 2, 2), dtype=complex),
        "rank one": gaussian(k, 2, 1) @ gaussian(k, 1, 2),
        "diagonal": np.stack([np.diag(d) for d in rng.standard_normal((k, 2))]).astype(complex),
        "signed diagonal": np.array([np.diag(d) for d in ([0.0, 3.0], [-2.0, 0.0], [1.0, 1.0],
                                                          [-1.0, -4.0])], dtype=complex),
        "signed zeros": np.array([[[-0.0, 1.0], [1.0, -0.0]], [[-0.0, 1j], [-1j, -0.0]],
                                  [[-0.0, -0.0], [-0.0, -0.0]], [[0.0, -1.0], [1.0, -0.0]]]),
        "unitary multiples": q1 * rng.standard_normal(k)[:, None, None],
        "nearly equal": (q1 * np.array([1.0, 1.0 + 1e-9])) @ q2,
        "pure phases": np.exp(2j * np.pi * rng.random((k, 2, 2))),
        "1e-150": 1e-150 * g,
        "1e150": 1e150 * g,
        # squares of entries past 1e154 overflow, and below 1e-154 lose digits
        "1e-200": 1e-200 * g,
        "1e200": 1e200 * g,
        "mixed scales": g * np.array([1e-200, 1.0, 1e200])[rng.integers(0, 3, k), None, None],
    }


STACKS = _stacks()
BAD = [np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.inf, np.nan)]


def _norm2(m):
    return np.linalg.norm(m, 2, axis=(-2, -1))


def _gap(m):
    """||m* m - I||_2 per matrix of a stack."""
    return _norm2(m.conj().swapaxes(-1, -2) @ m - np.eye(2))


@pytest.mark.parametrize("name", sorted(STACKS))
def test_svd_kernel_agrees_with_lapack(name):
    a = STACKS[name]
    u, s, vh = svd2(a)
    values = svd2(a, compute_uv=False)
    want = np.linalg.svd(a, compute_uv=False)
    smax = want[:, :1]
    assert (np.diff(s, axis=-1) <= 0.0).all() and (np.diff(values, axis=-1) <= 0.0).all()
    assert (_norm2((u * s[:, None, :]) @ vh - a) <= RESIDUAL * smax[:, 0]).all()
    assert (_gap(u) <= UNITARY).all() and (_gap(vh.conj().swapaxes(-1, -2)) <= UNITARY).all()
    assert (np.abs(s - want) <= VALUES * smax).all()
    assert (np.abs(values - want) <= VALUES * smax).all()
    zero = smax[:, 0] == 0.0
    assert (u[zero] == np.eye(2)).all() and (vh[zero] == np.eye(2)).all()


def test_the_kernels_see_their_scale_exactly():
    # scaling is by powers of two, so scaling a block by one changes no bit
    a = STACKS["gaussian"]
    for c in (2.0 ** -600, 2.0 ** 600):
        for got, want in zip(svd2(c * a), svd2(a)):
            assert (got == want * (c if got.ndim == 2 else 1.0)).all()


# the stacks whose products stay in the normal range
NORMAL = sorted(set(STACKS) - {"1e-200", "1e200", "mixed scales"})


@pytest.mark.parametrize("name", NORMAL)
def test_product_kernel_agrees_with_blas(name):
    a = STACKS[name]
    b = make_rng(75).standard_normal((len(a), 2, 2, 2)) @ np.array([1.0, 1j])
    for x, y in ((a, b), (b, a), (a, a.conj().swapaxes(-1, -2))):
        got = matmul2(x, y)
        assert got.flags.c_contiguous and got.shape == x.shape and got.dtype == complex
        assert (np.abs(got - x @ y) <= PRODUCT * (np.abs(x) @ np.abs(y))).all()


def test_a_block_s_product_does_not_depend_on_its_stack():
    a, b = STACKS["gaussian"], STACKS["unitary multiples"]
    whole = matmul2(a, b)
    perm = make_rng(76).permutation(len(a))
    assert (matmul2(a[perm], b[perm]) == whole[perm]).all()
    for j in (0, 17, len(a) - 1):
        assert (matmul2(a[j:j + 1], b[j:j + 1])[0] == whole[j]).all()


@pytest.mark.parametrize("entry", range(4))
@pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "-inf", "inf-imag", "inf-nan"])
def test_a_non_finite_entry_spreads_as_it_does_on_blas(entry, bad):
    j = len(STACKS["gaussian"]) // 2
    for side in range(2):
        pair = [STACKS["gaussian"].copy(), STACKS["pure phases"].copy()]
        pair[side][j][divmod(entry, 2)] = bad
        with np.errstate(invalid="ignore"):
            got, want = matmul2(*pair), np.matmul(*pair)
        assert (np.isfinite(got) == np.isfinite(want)).all()
        assert not np.isfinite(got[j]).all() and np.isfinite(np.delete(got, j, axis=0)).all()


@pytest.mark.parametrize("count", [K - 1, K])
def test_products_take_the_kernel_by_the_class_s_block_count(count, monkeypatch):
    calls = []

    def spy(a, b):
        calls.append(a.shape)
        return matmul2(a, b)

    monkeypatch.setattr(kernels, "matmul2", spy)
    M = BlockAlgebra((2,) * count)
    rng = make_rng(77)
    x, y = random_element(rng, M), random_element(rng, M)
    u, s, vh = np.linalg.svd(x.stacks[0])
    got = [(x @ y).stacks[0], _spectral(M, [(u, s, vh)]).stacks[0]]
    want = [(x.stacks[0], y.stacks[0]), (u * s[:, None, :], vh)]
    step = matmul2 if count >= K else np.matmul
    assert calls == [(count, 2, 2)] * 2 * (count >= K)
    assert all((g == step(*w)).all() for g, w in zip(got, want))


def _positive_blocks(name):
    """K positive 2x2 blocks: random_positive's, every third made diagonal,
    or b b* s of STACKS[name], cycled to K blocks, with s the power of two
    that takes each block's largest entry into [1, 2): of the stack's scale
    and signs, and finite at 1e200."""
    if name == "positive":
        rng = make_rng(71)
        return [np.diag(rng.uniform(0.1, 2.0, 2)).astype(complex) if j % 3 == 0 else b
                for j, b in enumerate(random_positive(rng, BlockAlgebra((2,) * K)).blocks)]
    a = np.resize(STACKS[name], (K, 2, 2))
    s = np.ldexp(1.0, np.frexp(np.abs(a).max(axis=(-2, -1)))[1] - 1)[:, None, None]
    b = a / s
    return list(s * (b @ b.conj().swapaxes(-1, -2)))


@pytest.mark.parametrize("name", ["positive"] + sorted(STACKS))
def test_every_eigensystem_is_lapack_s_on_both_sides_of_the_crossover(name, lapack):
    # the same blocks, in a class below and at the kernels' block count, take
    # one eigh per class, and each block gets the eigensystem LAPACK gives its
    # Hermitian part alone, bit for bit, with its eigenvalues below the
    # support cutoff read as 0
    blocks = _positive_blocks(name)
    for count in (K - 1, K):
        lapack.reset()
        (w, u), = _eig_classes(Element(BlockAlgebra((2,) * count), blocks[:count]), DEFAULT_TOL)
        assert lapack.calls == [("eigh", None, (count, 2, 2))]
        alone = [np.linalg.eigh((b + b.conj().T) / 2.0) for b in blocks[:count]]
        cutoff = DEFAULT_TOL.rank_rel * 2 * max(np.abs(w_alone).max() for w_alone, _ in alone)
        for j, (w_alone, u_alone) in enumerate(alone):
            want = np.where(w_alone > cutoff, w_alone, 0.0)
            assert w[j].tobytes() == want.tobytes() and u[j].tobytes() == u_alone.tobytes()


EXPONENTS = (0.5, -1.0, 2.0, 0.3j, 0.5 - 0.7j)


def test_diagonal_densities_stay_exact_on_both_sides_of_the_crossover():
    # LAPACK returns a diagonal block's diagonal as its eigenvalues, exactly,
    # below the kernels' block count and from it, where the product kernel
    # rebuilds the powers: so the powers and spectral projections of a real
    # diagonal density are those of its diagonal, bit for bit
    rng = make_rng(78)
    lam = rng.uniform(0.1, 10.0)
    for dims in ((1,), (3,), (1, 2, 3, 2, 3, 1), (2,) * (K - 1), (2,) * K):
        M = BlockAlgebra(dims)
        diagonals = {
            "identity": [np.ones(n) for n in dims],
            "scalar": [np.full(n, lam) for n in dims],
            "blockwise scalars": [np.full(n, rng.uniform(0.1, 10.0)) for n in dims],
            # a zero in every other block, where every power is 0
            "general": [rng.uniform(0.1, 10.0, n) * (k % 2 == 0 or np.arange(n) > 0)
                        for k, n in enumerate(dims)],
        }
        for name, diags in diagonals.items():
            h = Element(M, [np.diag(d) for d in diags])
            weight_powers = Weight(Element(M, h.blocks)).powers(EXPONENTS)
            for a, via_weight in zip(EXPONENTS, weight_powers):
                want = [np.diag(_spectral_power(d, a, "power")) for d in diags]
                for got in (power_pos(h, a), via_weight):
                    assert all(map(np.array_equal, got.blocks, want)), (dims, name, a)
            for c in (0.0, lam, 5.0):
                want = [np.diag(((d >= c) & (d > 0.0)).astype(float)) for d in diags]
                got = spectral_projection(h, c)
                assert all(map(np.array_equal, got.blocks, want)), (dims, name, c)


@pytest.mark.parametrize("count", [K - 1, K])
@pytest.mark.parametrize("entry", range(4))
@pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "-inf", "inf-imag", "inf-nan"])
def test_non_finite_entries_are_refused_on_both_sides_of_the_crossover(count, entry, bad):
    # on LAPACK and on the kernel alike, the funnel refuses a block holding a
    # NaN or an infinity before it factorizes: the same NonFiniteError, naming the norm
    M = BlockAlgebra((2,) * count)
    rng = make_rng(72)
    blocks = [np.array(b) for b in random_element(rng, M).blocks]
    blocks[count // 2][divmod(entry, 2)] = bad
    x, y = unchecked(M, blocks), random_element(rng, M)
    calls = [("operator norm", lambda: operator_norm(x)), ("distance", lambda: distance(x, y)),
             ("lnorm", lambda: lnorm(GradedElement(x, 0.3j))),
             ("lnorm", lambda: lnorm(GradedElement(x, 0.5)))]
    for operation, call in calls:
        with pytest.raises(NonFiniteError, match=f"^{operation}: the matrix holds a NaN"):
            call()


@pytest.mark.parametrize("count", [K - 1, K])
def test_non_finite_elements_are_refused_before_any_factorization(count, lapack):
    M = BlockAlgebra((2,) * count)
    blocks = [np.eye(2)] * count
    blocks[1] = np.diag([np.inf, 1.0])
    x = unchecked(M, blocks)
    lapack.forbid("svd", "eigh")
    with pytest.raises(NonFiniteError, match="^singular value decomposition: "):
        _svds(x)
    with pytest.raises(NonFiniteError, match="^eigendecomposition: "):
        _eig_classes(x, DEFAULT_TOL)


def test_the_fixture_records_forbids_and_fails_the_kernels(lapack):
    x = random_element(make_rng(73), BlockAlgebra((2,) * K))
    operator_norm(x)
    _svds(x)
    _eig_classes(x @ x.adjoint(), DEFAULT_TOL)
    assert lapack.calls == [("svd", False, (K, 2, 2)), ("svd", True, (K, 2, 2)),
                            ("eigh", None, (K, 2, 2))]
    lapack.fail("svd", np.linalg.LinAlgError("SVD did not converge"))
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        distance(x, x.adjoint())
    lapack.forbid("svd")
    with pytest.raises(pytest.fail.Exception):
        distance(x, x.adjoint())


def test_a_threshold_one_ulp_below_the_norm_is_accepted():
    # the full SVD's top and the values-only one differ by ulps; the
    # witness decides near the top with the values-only figure
    rng = make_rng(74)
    M = BlockAlgebra((2,) * K)
    for _ in range(20):
        xi = random_graded(rng, M, 0.4j)
        top = operator_norm(xi.data)
        gap = abs(top - max(float(s.max()) for _, s, _ in _svds(xi.data)))
        assert gap <= 16.0 * EPS * 2 * top
        y = holder_witness_imaginary(xi, 0.5, np.nextafter(top, 0.0))
        assert operator_norm(y.data) > 0.0


def test_the_suite_passes_on_both_sides_of_the_crossover():
    report = run_suite(SuiteConfig(trials=1, block_shapes=[[2] * (K - 1), [2] * K]))
    failing = {name: r for name, r in report["properties"].items() if r["failed"]}
    assert not failing and report["all_passed"]
