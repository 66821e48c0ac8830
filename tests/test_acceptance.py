"""Acceptance suite: the exit criteria, at their stated sizes and tolerances.

Each test prints one PASS/FAIL line; run with ``pytest -s tests/test_acceptance.py``
to see them stream.
"""

import numpy as np
import pytest

from nclp import (
    DEFAULT_TOL,
    BlockAlgebra,
    GradedElement,
    TensorElement,
    UnsolvableError,
    comultiply,
    connes_cocycle,
    cyclic_generator,
    distance,
    douglas_divide,
    douglas_ladder,
    evaluate,
    gmul,
    holder_witness,
    hom_from_element,
    hom_norm_certificate,
    hom_to_element,
    left_support,
    lnorm,
    modular_automorphism,
    oracle_commutative,
    operator_norm,
    polar_left,
    polar_right,
    power_pos,
    right_support,
    tensor_multiply,
    trace_weight,
    turpin_upper,
    Element,
    cocycle_identity_check,
)
from nclp.sampling import (
    random_conditioned,
    random_element,
    random_graded,
    random_projection,
    random_weight,
    spawn_rng,
)

SHAPES = ((1,), (2,), (1, 1), (3,), (2, 2))
RE_VALUES = (0.0, 1 / 3, 0.5, 1.0, 1.5)


def _rng(tag):
    return spawn_rng(2026, "acceptance." + tag)


def _shape(rng):
    return BlockAlgebra(SHAPES[int(rng.integers(0, len(SHAPES)))])


def _grading(rng, re_values=RE_VALUES):
    return complex(re_values[int(rng.integers(0, len(re_values)))],
                   float(rng.uniform(-2.0, 2.0)))


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_holder_kosaki():
    rng = _rng("holder")
    worst = -np.inf
    for _ in range(2000):
        M = _shape(rng)
        xi = random_graded(rng, M, _grading(rng))
        eta = random_graded(rng, M, _grading(rng))
        bound = lnorm(xi) * lnorm(eta)
        worst = max(worst, lnorm(gmul(xi, eta)) - bound - 1e-9 * (bound + 1.0))
    _report("1 Hölder–Kosaki (2000 pairs)", worst <= 0.0,
            f"worst excess {worst:.3e}")


def test_criterion_2_holder_equality_witness():
    rng = _rng("witness")
    positive_res = (1 / 3, 0.5, 1.0, 1.5)
    worst = 0.0
    for _ in range(500):
        M = _shape(rng)
        xi = random_graded(rng, M, _grading(rng, positive_res))
        y = holder_witness(xi, _grading(rng))
        rhs = lnorm(xi) * lnorm(y)
        worst = max(worst, abs(lnorm(gmul(xi, y)) - rhs) / rhs)
    _report("2 Hölder equality witness (500)", worst <= 1e-8,
            f"worst relative gap {worst:.3e}")


def test_criterion_3_tensor_isometry_certificate():
    rng = _rng("tensor")
    worst_iso = worst_round = 0.0
    for _ in range(1000):
        M = _shape(rng)
        a, b = _grading(rng), _grading(rng)
        zeta = random_graded(rng, M, a + b)
        first, second = comultiply(zeta, (a, b))
        z = TensorElement(M, a, b, ((first, second),))
        target = lnorm(zeta)
        worst_iso = max(worst_iso,
                        abs(turpin_upper(z) - target) / max(target, 1e-30))
        rebuilt = tensor_multiply(z)
        worst_round = max(worst_round,
                          lnorm(rebuilt - zeta) / (1.0 + target))
    ok = worst_iso <= 1e-8 and worst_round <= 1e-9
    _report("3 tensor isometry certificate (1000)", ok,
            f"worst isometry gap {worst_iso:.3e}, worst roundtrip {worst_round:.3e}")


def test_criterion_4_douglas_division():
    rng = _rng("douglas")
    worst_solve = worst_opt = worst_ladder = 0.0
    strict_fail = True
    for _ in range(1000):
        M = _shape(rng)
        x = random_conditioned(rng, M, DEFAULT_TOL)
        y = random_element(rng, M) @ x
        res = douglas_divide(x, y)
        worst_solve = max(worst_solve,
                          operator_norm(res.quotient @ x - y) / (1.0 + operator_norm(y)))
        assert res.minimal_c == operator_norm(res.quotient)
        c = res.minimal_c
        if c > 1e-6:
            gram_x = x.adjoint() @ x
            gram_y = y.adjoint() @ y
            scale = operator_norm(gram_y) + 1.0

            def min_eig(el):
                return min(float(np.linalg.eigvalsh((b + b.conj().T) / 2).min())
                           for b in el.blocks)

            worst_opt = max(worst_opt, -min_eig(c ** 2 * gram_x - gram_y) / scale)
            strict_fail &= min_eig((c * (1 - 1e-3)) ** 2 * gram_x - gram_y) < 0.0
        smax = max(operator_norm(x), 1e-6)
        ladder = douglas_ladder(x, y, [smax * 2.0 ** (-k) for k in range(12)])
        gaps = [g for _, g in ladder]
        monotone = all(gaps[k + 1] <= gaps[k] + 1e-12 for k in range(len(gaps) - 1))
        strict_fail &= monotone
        worst_ladder = max(worst_ladder, gaps[-1] / (1.0 + operator_norm(y)))
    unsderived = 0
    for _ in range(200):
        M = _shape(rng)
        p = random_projection(rng, M, full_rank_ok=False)
        x = random_element(rng, M) @ p
        while True:
            y_bad = random_element(rng, M) @ (M.identity() - right_support(x))
            if operator_norm(y_bad) > 1e-3:
                break
        with pytest.raises(UnsolvableError):
            douglas_divide(x, random_element(rng, M) @ x + y_bad)
        unsderived += 1
    ok = (worst_solve <= 1e-9 and worst_opt <= 1e-9 and strict_fail
          and worst_ladder <= 1e-9 and unsderived == 200)
    _report("4 Douglas division (1000 solvable + 200 unsolvable)", ok,
            f"worst solve {worst_solve:.3e}, optimality slack {worst_opt:.3e}, "
            f"ladder tail {worst_ladder:.3e}, unsolvable caught {unsderived}")


def test_criterion_5_graded_polar_decomposition():
    rng = _rng("polar")
    worst = 0.0
    for _ in range(1000):
        M = _shape(rng)
        x = random_element(rng, M) @ random_projection(rng, M)
        scale = operator_norm(x) + 1.0
        right = polar_right(x)
        left = polar_left(x)
        u, z = right.isometry, right.positive
        worst = max(worst, max(
            distance(u @ z, x),
            distance(left.positive @ left.isometry, x),
            distance(left.isometry, u),
            distance(u @ u.adjoint() @ u, u),
            distance(u.adjoint() @ u, right_support(x)),
            distance(u.adjoint() @ u, right_support(z)),
            distance(u @ u.adjoint(), left_support(x))) / scale)
    _report("5 graded polar decomposition (1000)", worst <= 1e-9,
            f"worst scaled residual {worst:.3e}")


def test_criterion_6_cyclic_generator_membership():
    rng = _rng("cyclic")
    worst = 0.0
    for _ in range(500):
        M = _shape(rng)
        a = _grading(rng)
        gens = [random_graded(rng, M, a) for _ in range(int(rng.integers(1, 5)))]
        mu = random_weight(rng, M)
        y, qs, cert = cyclic_generator(gens, mu)
        for g, q in zip(gens, qs):
            worst = max(worst, distance(q @ y.data, g.data) / (1.0 + operator_norm(g.data)))
        rebuilt = M.zero()
        for c, g in zip(cert, gens):
            rebuilt = rebuilt + c @ g.data
        worst = max(worst, distance(rebuilt, y.data) / (1.0 + operator_norm(y.data)))
    _report("6 cyclic generator + membership (500)", worst <= 1e-8,
            f"worst scaled residual {worst:.3e}")


def test_criterion_7_internal_hom():
    rng = _rng("hom")
    worst_round = worst_real = worst_imag = 0.0
    for k in range(300):
        M = _shape(rng)
        real_case = k % 2 == 0
        a = _grading(rng, (1 / 3, 0.5, 1.0, 1.5)) if real_case \
            else complex(0.0, float(rng.uniform(-2.0, 2.0)))
        b = _grading(rng)
        xi = random_graded(rng, M, a)
        T = hom_from_element(xi, b)
        back = hom_to_element(T)
        worst_round = max(worst_round,
                          distance(back.data, xi.data) / (1.0 + operator_norm(xi.data)))
        reported, certified = hom_norm_certificate(T)
        target = lnorm(xi)
        if real_case:
            worst_real = max(worst_real,
                             abs(reported - target) / (1.0 + target),
                             (reported - certified) / (1.0 + target))
        else:
            worst_imag = max(worst_imag,
                             abs(reported - target) / (1.0 + target),
                             (reported - certified) / max(reported, 1e-30))
    ok = worst_round <= 1e-10 and worst_real <= 1e-8 and worst_imag <= 1e-6
    _report("7 internal hom (300)", ok,
            f"worst roundtrip {worst_round:.3e}, real-grading gap {worst_real:.3e}, "
            f"imaginary ladder gap {worst_imag:.3e}")


def test_criterion_8_modular_structure():
    rng = _rng("modular")
    worst = 0.0
    exact = True
    for _ in range(500):
        M = _shape(rng)
        mu, nu = random_weight(rng, M), random_weight(rng, M)
        a = complex(0.0, float(rng.uniform(-2.0, 2.0)))
        b = complex(0.0, float(rng.uniform(-2.0, 2.0)))
        p = random_element(rng, M)
        scale = operator_norm(p) + 1.0
        group = distance(
            modular_automorphism(mu, a, modular_automorphism(mu, b, p)),
            modular_automorphism(mu, a + b, p)) / scale
        invariance = abs(evaluate(mu, modular_automorphism(mu, a, p))
                         - evaluate(mu, p)) / (abs(evaluate(mu, p)) + 1.0)
        rho = random_weight(rng, M)
        chain = distance(connes_cocycle(mu, nu, a) @ connes_cocycle(nu, rho, a),
                         connes_cocycle(mu, rho, a))
        identity = cocycle_identity_check(mu, nu, a, b).max_residual
        worst = max(worst, group, invariance, chain, identity)
        moved = modular_automorphism(trace_weight(M), a, p)
        exact &= all(np.array_equal(m, q) for m, q in zip(moved.blocks, p.blocks))
    ok = worst <= 1e-9 and exact
    _report("8 modular structure (500 pairs)", ok,
            f"worst residual {worst:.3e}, trace flow exact: {exact}")


def test_criterion_9_commutative_oracle():
    rng = _rng("oracle")
    worst = 0.0
    for _ in range(2000):
        k = int(rng.integers(1, 7))
        D = BlockAlgebra((1,) * k)
        f = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        mu = rng.uniform(0.1, 3.0, size=k)
        a = complex(rng.uniform(0.05, 2.0), rng.uniform(-2.0, 2.0))
        h = Element(D, tuple(np.array([[m]], dtype=complex) for m in mu))
        x = Element(D, tuple(np.array([[v]], dtype=complex) for v in f))
        matrix_path = lnorm(GradedElement(x @ power_pos(h, a), a))
        scalar_path = oracle_commutative(f.tolist(), a, mu.tolist())
        worst = max(worst, abs(matrix_path - scalar_path) / max(scalar_path, 1.0))
    _report("9 commutative oracle (2000)", worst <= 1e-12,
            f"worst relative gap {worst:.3e}")


def test_criterion_10_quasinorm_laws():
    rng = _rng("quasinorm")
    worst = -np.inf
    for _ in range(2000):
        M = _shape(rng)
        a = _grading(rng)
        xi, eta = random_graded(rng, M, a), random_graded(rng, M, a)
        nx, ny, ns = lnorm(xi), lnorm(eta), lnorm(xi + eta)
        r = max(1.0, a.real)
        excess = ns ** (1 / r) - nx ** (1 / r) - ny ** (1 / r)
        worst = max(worst, excess - 1e-9 * (nx ** (1 / r) + ny ** (1 / r) + 1.0))
        if a.real >= 1.0:
            crude = ns - 2.0 ** (a.real - 1.0) * (nx + ny)
            worst = max(worst, crude - 1e-9 * (nx + ny + 1.0))
    _report("10 quasinorm laws (2000 pairs)", worst <= 0.0,
            f"worst excess {worst:.3e}")
