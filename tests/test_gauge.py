import random
from fractions import Fraction

import pytest

from dynrx import linalg
from dynrx.exchange import embed3, hecke_report
from dynrx.gauge import (
    FormScalar,
    MultForm,
    NotClosedError,
    apply_gauge,
    closed_form_hecke,
    conjugation_identity_check,
    d_operator,
    exact_one_form,
    exact_two_form,
    example_hecke,
    gauge_sequence_report,
    is_closed,
    random_one_form,
    rho_shift,
)
from dynrx.lam import Lambda
from dynrx.liealg import AlgebraSpec, vector_rep_gln
from dynrx.scalars import QParam, RatFunc, classical_q


def pts(qp, N, n, bits=8):
    return [Lambda.sample(AlgebraSpec("gln", N, qp), s, bits) for s in range(n)]


def test_form_antisymmetry(qp4):
    phi = exact_two_form(3, qp4)
    for a in range(3):
        for b in range(3):
            if a != b:
                assert (phi.value((a, b)) * phi.value((b, a))).is_one()


def test_constant_form_trivial_d(qp4):
    ones = MultForm.build(3, 1, qp4, {})
    assert d_operator(ones).is_trivial()


def test_d_squared_zero(qp4, qpc):
    for qp in (qp4, qpc):
        rng = random.Random(5)
        for _ in range(30):
            xi = random_one_form(3, qp, rng)
            assert d_operator(d_operator(xi)).is_trivial()
            assert is_closed(d_operator(xi))


def test_exact_pair(qp4, qpc):
    for qp in (qp4, qpc):
        for N in (2, 3, 4):
            xi = exact_one_form(N, qp)
            phi = exact_two_form(N, qp)
            dxi = d_operator(xi)
            assert all(dxi.value(k) == phi.value(k) for k, _ in phi.values)
            assert is_closed(phi)


def test_three_step_sequence(qp4, qpc):
    for qp in (qp4, qpc):
        for N in (2, 3):
            R, target, ok = gauge_sequence_report(N, qp)
            assert ok


def test_identity_transforms(qp4):
    R = example_hecke(2, qp4)
    R3 = apply_gauge(R, ("III", Fraction(1)))
    R4 = apply_gauge(R, ("IV", (Fraction(0), Fraction(0))))
    assert R.equals(R3) and R.equals(R4)


def test_type_three_rescales_hecke_params(qp4):
    R = example_hecke(3, qp4)
    c = Fraction(7, 2)
    R3 = apply_gauge(R, ("III", c))
    assert (R3.hq, R3.hp) == (c * R.hq, c * R.hp)
    # spectrum of R-check blocks rescales by c: trace and det of each V_ab block
    pt = pts(qp4, 3, 1)[0]
    M, M3 = R.to_matrix(pt), R3.to_matrix(pt)
    N = 3
    for a in range(N):
        for b in range(a + 1, N):
            i1, i2 = a * N + b, b * N + a
            tr = M[i2][i1] + M[i1][i2]
            tr3 = M3[i2][i1] + M3[i1][i2]
            assert tr3 == c * tr


def test_type_two_permutation(qp4):
    R = closed_form_hecke(3, qp4)
    sigma = (1, 2, 0)
    R2 = apply_gauge(R, ("II", sigma))
    pt = pts(qp4, 3, 1)[0]
    M = R.to_matrix(pt)
    # R2(lambda) = (s (x) s) R(s^{-1} lambda) (s^{-1} (x) s^{-1})
    inv = [0] * 3
    for i, s in enumerate(sigma):
        inv[s] = i
    pt_inv = Lambda(pt.spec, tuple(pt.coords[sigma[i]] for i in range(3)))
    Minv = R.to_matrix(pt_inv)
    M2 = R2.to_matrix(pt)
    N = 3
    for a in range(N):
        for b in range(N):
            for c2 in range(N):
                for d2 in range(N):
                    lhs = M2[a * N + b][c2 * N + d2]
                    rhs = Minv[inv[a] * N + inv[b]][inv[c2] * N + inv[d2]]
                    assert lhs == rhs


def test_type_one_requires_closed(qp4):
    # a 2-form violating closedness must be rejected; build one with a
    # same-coordinate factor that breaks the cocycle condition
    x = RatFunc.x()
    g = x * x - RatFunc.const(1)
    bad = MultForm.build(3, 2, qp4, {
        (0, 1): FormScalar.of_pair(qp4, 0, 1, g) * FormScalar.of_mono(qp4, {2: 1}),
    })
    if not is_closed(bad):
        with pytest.raises(NotClosedError):
            apply_gauge(example_hecke(3, qp4), ("I", bad))
    else:
        pytest.skip("constructed form unexpectedly closed")


def test_gauge_preserves_qdyb(qp4, qpc):
    # the reference solution satisfies QDYB at samples; each gauge type preserves it
    for qp in (qp4, qpc):
        N = 2
        W = vector_rep_gln(N, qp)
        R = example_hecke(N, qp)
        steps = [
            ("IV", rho_shift(N)),
            ("III", Fraction(1) if qp.classical else qp.q),
            ("I", exact_two_form(N, qp)),
        ]
        current = R
        for step in [None] + steps:
            if step is not None:
                current = apply_gauge(current, step)
            for lam in pts(qp, N, 3, bits=6):
                fn = lambda lh, cur=current: cur.to_matrix(lh)
                reps3 = [W, W, W]
                lhs = linalg.mat_mul(
                    embed3(fn, reps3, 0, 1, lam, True),
                    linalg.mat_mul(embed3(fn, reps3, 0, 2, lam, False),
                                   embed3(fn, reps3, 1, 2, lam, True)))
                rhs = linalg.mat_mul(
                    embed3(fn, reps3, 1, 2, lam, False),
                    linalg.mat_mul(embed3(fn, reps3, 0, 2, lam, True),
                                   embed3(fn, reps3, 0, 1, lam, False)))
                assert linalg.mat_eq(lhs, rhs), (qp.classical, step)


def test_hecke_spectrum_preserved_by_gauges(qp4):
    N = 2
    W = vector_rep_gln(N, qp4)
    R = closed_form_hecke(N, qp4)
    for step in (("IV", rho_shift(N)), ("I", exact_two_form(N, qp4)), ("II", (1, 0))):
        R2 = apply_gauge(R, step)
        for pt in pts(qp4, N, 2):
            assert hecke_report(R2.to_matrix(pt), W, qp4).passed


def test_conjugation_identity(qp4, qpc):
    for qp in (qp4, qpc):
        points = pts(qp, 2, 20, bits=6)
        rep = conjugation_identity_check(closed_form_hecke(2, qp), exact_one_form(2, qp), points)
        assert rep["pass"]
        rng = random.Random(1)
        rep = conjugation_identity_check(closed_form_hecke(2, qp),
                                         random_one_form(2, qp, rng), points)
        assert rep["pass"]
        # xi == 1 leaves R unchanged
        ones = MultForm.build(2, 1, qp, {})
        rep = conjugation_identity_check(closed_form_hecke(2, qp), ones, points[:3])
        assert rep["pass"]
