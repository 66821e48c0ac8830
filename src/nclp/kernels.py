"""Closed-form factorizations and products of stacks of 2 x 2 complex matrices.

A 2 x 2 block is diagonalized by one Jacobi rotation, in a few dozen
elementwise numpy operations on the whole stack, where LAPACK pays 1-2 us
per matrix.  One-sided Jacobi on the Gram matrix b*b gives the SVD to the
accuracy of LAPACK's (J. Demmel and K. Veselic, SIAM J. Matrix Anal. Appl.
13, 1992; tests/test_kernels.py derives the bound).  Every operation is
elementwise or reduces within one block, so the results of a block do not
depend on the stack it is handed in.  svd2, eigh2 and matmul2 return what
numpy.linalg's svd and eigh and numpy's matmul do; matcore's funnel (_svd,
_eigh, _matmul) decides which stacks they take, and imports this module on
first use.  The factorizations take finite stacks only: the funnel
refuses a NaN or an infinity before any factorization.
"""

from __future__ import annotations

import numpy as np


def _scaled(a: np.ndarray):
    """(b, e): each block of the finite (k, 2, 2) stack a times 2^-e, exactly,
    which brings its largest real or imaginary part into [0.5, 1), so that no
    square of an entry of b overflows or underflows; a zero block keeps e = 0.
    """
    parts = np.ascontiguousarray(a).view(np.float64).reshape(len(a), -1)
    # the maximum over the first axis of the transposed copy is one
    # vectorized pass per part, where one over the last axis is a pass per block
    e = np.frexp(np.abs(np.ascontiguousarray(parts.T)).max(axis=0))[1]
    return np.ldexp(parts, -e[:, None]).view(complex).reshape(a.shape), e


def _unscaled(v: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The values v (k, 2) of the blocks _scaled made, times 2^e again; a
    value past the float range comes back as inf, with no warning, as from
    LAPACK, for the funnel to refuse."""
    with np.errstate(over="ignore"):
        return np.ldexp(v, e[:, None])


def _nonzero(x: np.ndarray) -> bool:
    """Whether every entry of the 1-d x is nonzero (NaN counts as nonzero);
    count_nonzero skips the setup of a ufunc reduction."""
    return np.count_nonzero(x) == len(x)


def _or_one(m: np.ndarray) -> np.ndarray:
    """m with 1 in place of each 0: a divisor that leaves 0 / 0 at 0."""
    return m if _nonzero(m) else np.where(m == 0.0, 1.0, m)


def _phase(z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """z / m for m = |z|: the phase of z, and 1 where z = 0."""
    ph = z / _or_one(m)
    if not _nonzero(m):
        ph[m == 0.0] = 1.0
    return ph


def _rotation(d, beta):
    """(c, s, ph, h): the unitaries [[c, s], [-ph s, ph c]] diagonalize the
    Hermitian blocks [[m + d, beta], [conj(beta), m - d]], for any real m,
    with their eigenvalues m - h and m + h in that order.

    With beta = g conj(ph), g = |beta| and ph a phase (1 when beta = 0), the
    block is D S D* for D = diag(1, ph) and the real S = [[m + d, g],
    [g, m - d]].  The eigenvector of S for m - h is (c, -s) with c, s >= 0,
    taken from the column of S - (m - h) free of cancellation; on a multiple
    of the identity it is (1, 0), so that the unitary is I there.
    """
    g = np.abs(beta)
    ph = _phase(beta.conj(), g)
    h = np.hypot(d, g)
    up = d > 0.0
    c = np.where(up, g, h - d)
    s = np.where(up, d + h, g)
    r = np.hypot(c, s)
    if not _nonzero(r):
        c[r == 0.0] = r[r == 0.0] = 1.0
    return c / r, s / r, ph, h


def eigh2(a: np.ndarray):
    """np.linalg.eigh of a finite Hermitian (k, 2, 2) stack, in closed form.

    Reads the lower triangle, as LAPACK does, and w ascends.  The eigenvalue
    of larger magnitude is mean + h or mean - h, by the sign of the mean;
    the other is det / big, as in LAPACK's dlaev2, which keeps it accurate
    when it is tiny.  A diagonal block (beta = 0), whose u is I or the
    signed swap, returns its real diagonal, sorted and exact, where det /
    big may lose an ulp: as LAPACK does on a block it does not rescale,
    whose largest entry lies between about 1e-146 and 1e146.
    """
    b, e = _scaled(a)
    alpha, gamma, beta = b[:, 0, 0].real, b[:, 1, 1].real, b[:, 1, 0].conj()
    c, s, ph, h = _rotation(0.5 * (alpha - gamma), beta)
    mean = 0.5 * (alpha + gamma)
    det = alpha * gamma - (beta.real ** 2 + beta.imag ** 2)
    low = np.signbit(mean)                  # as copysign reads it, -0 included
    big = mean + np.copysign(h, mean)
    small = det / _or_one(big)
    w = np.empty((len(a), 2))
    w[:, 0], w[:, 1] = np.where(low, big, small), np.where(low, small, big)
    u = np.empty_like(b)
    u[:, 0, 0], u[:, 0, 1], u[:, 1, 0], u[:, 1, 1] = c, s, -ph * s, ph * c
    w = _unscaled(w, e)
    if not _nonzero(a[:, 1, 0]):
        flat = a[:, 1, 0] == 0.0
        w[flat] = np.sort(np.diagonal(a[flat], axis1=1, axis2=2).real)
    return w, u


def svd2(a: np.ndarray, compute_uv: bool = True):
    """np.linalg.svd of a finite (k, 2, 2) stack, in closed form: (u, s, vh), or s.

    s[:, 0] is the root of the larger eigenvalue of the Gram matrix b*b.
    Values only, s[:, 1] is |det b| / s[:, 0].  In full, the rotation V of
    b*b with its eigenvalues descending (that of -b*b) makes the columns x1
    and x2 of b V orthogonal: s[:, 0] = |x1| and u1 = x1 / |x1|, and u2 is
    the unit vector orthogonal to u1 whose phase makes s[:, 1] = u2* x2 real
    and nonnegative.  A zero block gives u = vh = I.  Each row of s
    descends: where rounding inverts the two, they swap with their vectors.
    """
    b, e = _scaled(a)
    b0, b1 = b[:, :, 0], b[:, :, 1]                            # the columns
    sq = b.real ** 2 + b.imag ** 2
    p, r = sq[:, 0, 0] + sq[:, 1, 0], sq[:, 0, 1] + sq[:, 1, 1]
    q = b0[:, 0].conj() * b1[:, 0] + b0[:, 1].conj() * b1[:, 1]  # b*b = [[p, q], [q*, r]]
    if compute_uv:
        c, s, ph, _ = _rotation(0.5 * (r - p), -q)
        phs, phc = ph * s, ph * c                                # V = [[c, s], [-phs, phc]]
        x1 = b0 * c[:, None] - b1 * phs[:, None]
        x2 = b0 * s[:, None] + b1 * phc[:, None]
        s1 = np.hypot(*np.abs(x1).T)
        u = np.empty_like(b)
        u1 = u[:, :, 0]
        np.divide(x1, _or_one(s1)[:, None], out=u1)
        if not _nonzero(s1):
            u1[s1 == 0.0] = (1.0, 0.0)
        z = u1[:, 0] * x2[:, 1] - u1[:, 1] * x2[:, 0]          # (-conj u1_1, conj u1_0)* x2
        s2 = np.abs(z)
        z = _phase(z, s2)
        u[:, 0, 1], u[:, 1, 1] = -z * u1[:, 1].conj(), z * u1[:, 0].conj()
        vh = np.empty_like(b)
        vh[:, 0, 0], vh[:, 0, 1], vh[:, 1, 0], vh[:, 1, 1] = c, -phs.conj(), s, phc.conj()
    else:
        s1 = np.sqrt(0.5 * (p + r) + np.hypot(0.5 * (p - r), np.abs(q)))
        det = np.abs(b0[:, 0] * b1[:, 1] - b1[:, 0] * b0[:, 1])
        s2 = det / _or_one(s1)
    if not _nonzero(s1 >= s2):
        flip = s2 > s1
        s1, s2 = np.where(flip, s2, s1), np.where(flip, s1, s2)
        if compute_uv:
            u[flip], vh[flip] = u[flip][:, :, ::-1], vh[flip][:, ::-1]
    sv = np.empty((len(a), 2))
    sv[:, 0], sv[:, 1] = s1, s2
    sv = _unscaled(sv, e)
    return (u, sv, vh) if compute_uv else sv


def matmul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.matmul of two (k, 2, 2) stacks, entry by entry: a C-contiguous
    (k, 2, 2) stack.

    Entry (i, j) of every block is a_i0 b_0j + a_i1 b_1j: the columns of a,
    (k, 2, 1), times the rows of b, (k, 1, 2), broadcast over the whole
    stack, where BLAS pays a call per block.
    """
    return np.add(a[:, :, :1] * b[:, :1], a[:, :, 1:] * b[:, 1:], order="C")
