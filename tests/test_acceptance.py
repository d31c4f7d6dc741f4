"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every identity is exact (tolerance zero) unless the criterion itself is a
property (geometric decrease); runtime bounds are asserted as stated.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from dynrx import linalg
from dynrx.exchange import (
    asymptotic_alcove,
    asymptotic_leading,
    exchange_matrix,
    fusion_matrix,
    hecke_report,
    kmat,
    kprime,
    r00_cross_check,
    r00_scalar_check,
    two_point,
    verify_cocycle,
    verify_qdyb,
)
from dynrx.dynrep import (
    verify_antipode,
    verify_coproduct_compat,
    verify_product_relation,
    verify_rll,
)
from dynrx.gauge import (
    apply_gauge,
    closed_form_fusion,
    closed_form_hecke,
    d_operator,
    exact_one_form,
    exact_two_form,
    example_hecke,
    gauge_sequence_report,
    random_one_form,
)
from dynrx.lam import Lambda
from dynrx.liealg import irrep_sl2, tensor, vector_rep_gln
from dynrx.scalars import QParam, RatFunc
from dynrx.sixj import pentagon_residuals, sixj_table

QP = QParam(4)
QPC = QParam(1)
QP_SMALL = QParam(Fraction(1, 4))


def report_line(num, name, ok, dt, bound):
    status = "PASS" if ok and dt < bound else "FAIL"
    print(f"{status}  criterion {num}: {name}  ({dt:.2f}s < {bound}s)")
    assert ok, f"criterion {num} failed mathematically"
    assert dt < bound, f"criterion {num} exceeded its runtime bound"


def sym_eq(A, B):
    return all(
        RatFunc.coerce(a) == RatFunc.coerce(b)
        for ra, rb in zip(A, B) for a, b in zip(ra, rb)
    )


def sampled(spec, seed, bits=12):
    return Lambda.sample(spec, seed, bits)


def test_criterion_1_closed_form_reproduction():
    t0 = time.perf_counter()
    ok = True
    for qp in (QP, QPC):
        W2 = vector_rep_gln(2, qp)
        ok = ok and sym_eq(
            linalg.dense(exchange_matrix(W2, W2, Lambda.symbolic(W2.spec)), 4),
            closed_form_hecke(2, qp).to_matrix(Lambda.symbolic(W2.spec)),
        )
        W3 = vector_rep_gln(3, qp)
        cf = closed_form_hecke(3, qp)
        for seed in range(20):
            lam = sampled(W3.spec, seed)
            ok = ok and linalg.dense(exchange_matrix(W3, W3, lam), 9) == cf.to_matrix(lam)
    report_line(1, "exchange matrix equals the closed gl_N forms", ok, time.perf_counter() - t0, 10)


def test_criterion_2_fusion_closed_form():
    t0 = time.perf_counter()
    ok = True
    for qp in (QP, QPC):
        W2 = vector_rep_gln(2, qp)
        ok = ok and sym_eq(
            linalg.dense(fusion_matrix(W2, W2, Lambda.symbolic(W2.spec)), 4),
            closed_form_fusion(2, qp).to_matrix(Lambda.symbolic(W2.spec)),
        )
    report_line(2, "gl2 fusion matrix equals the closed form, symbolically", ok,
                time.perf_counter() - t0, 5)


def test_criterion_3_two_method_agreement():
    t0 = time.perf_counter()
    ok = True
    spins = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    spec = irrep_sl2(0, QP).spec
    lams = [sampled(spec, s) for s in range(20)]
    for sa, sb in itertools.product(spins, repeat=2):
        A, B = irrep_sl2(sa, QP), irrep_sl2(sb, QP)
        for lam in lams:
            ok = ok and fusion_matrix(A, B, lam, "verma") == fusion_matrix(A, B, lam, "abrr")
    for N in (2, 3):
        W = vector_rep_gln(N, QP)
        for s in range(20):
            lam = sampled(W.spec, s)
            ok = ok and fusion_matrix(W, W, lam, "verma") == fusion_matrix(W, W, lam, "abrr")
    report_line(3, "Verma fusion = ABRR fixed point (sl2 spins <= 3/2, gl2/gl3)", ok,
                time.perf_counter() - t0, 60)


def test_criterion_4_cocycle_and_qdyb():
    t0 = time.perf_counter()
    ok = True
    spins = [Fraction(0), Fraction(1, 2), Fraction(1)]
    spec = irrep_sl2(0, QP).spec
    lams = [sampled(spec, 100 + s) for s in range(20)]
    for tr in itertools.product(spins, repeat=3):
        reps = [irrep_sl2(s, QP) for s in tr]
        ok = ok and verify_cocycle(*reps, lams).passed
        ok = ok and verify_qdyb(*reps, lams).passed
    for N in (2, 3):
        W = vector_rep_gln(N, QP)
        lamsN = [sampled(W.spec, 100 + s) for s in range(20)]
        ok = ok and verify_cocycle(W, W, W, lamsN).passed
        ok = ok and verify_qdyb(W, W, W, lamsN).passed
    report_line(4, "2-cocycle and QDYB residuals exactly zero", ok, time.perf_counter() - t0, 120)


def test_criterion_5_hecke_spectrum():
    t0 = time.perf_counter()
    ok = True
    for qp in (QP, QPC):
        for N in (2, 3):
            W = vector_rep_gln(N, qp)
            lam = sampled(W.spec, 7)
            R = exchange_matrix(W, W, lam)
            ok = ok and hecke_report(linalg.dense(R, len(R)), W, qp).passed
        # symbolic for N = 2
        W2 = vector_rep_gln(2, qp)
        R = linalg.dense(exchange_matrix(W2, W2, Lambda.symbolic(W2.spec)), 4)
        ok = ok and hecke_report(R, W2, qp).passed
    report_line(5, "Hecke spectrum {q} on V_aa and {q, -1/q} on V_ab", ok,
                time.perf_counter() - t0, 5)


def test_criterion_6_k_matrix_identities():
    t0 = time.perf_counter()
    ok = True
    for spin in (Fraction(1, 2), Fraction(1)):
        V = irrep_sl2(spin, QP)
        for s in range(10):
            lam = sampled(V.spec, 200 + s)
            K, Kp, B = kmat(V, lam), kprime(V, lam), two_point(V, lam)
            ok = ok and K == Kp
            ok = ok and B == Kp
            ok = ok and linalg.mat_det(B) != 0
    report_line(6, "K = K', B = <v, K' v*>, det B != 0 (10 samples)", ok,
                time.perf_counter() - t0, 30)


def test_criterion_7_sixj():
    t0 = time.perf_counter()
    ok = True
    for qp in (QPC, QParam(2)):
        tf = sixj_table(qp, Fraction(1), "fusion")
        to = sixj_table(qp, Fraction(1), "oracle")
        keys = set(tf.values) | set(to.values)
        ok = ok and all(tf.get(*k) == to.get(*k) for k in keys)
        ok = ok and len(tf.values) > 0
        ok = ok and not pentagon_residuals(qp, Fraction(1))
    report_line(7, "6j from J = CG recoupling oracle; pentagon exact (classical, q=2)", ok,
                time.perf_counter() - t0, 60)


def test_criterion_8_dynamical_representation_relations():
    t0 = time.perf_counter()
    ok = True
    h, one = Fraction(1, 2), Fraction(1)
    combos = [
        tuple(irrep_sl2(s, QP) for s in (h, h, h)),
        tuple(irrep_sl2(s, QP) for s in (one, one, one)),
        tuple(irrep_sl2(s, QP) for s in (h, one, h)),
    ]
    Wg = vector_rep_gln(2, QP)
    combos.append((Wg, Wg, Wg))
    for V, W, U in combos:
        lams = [sampled(V.spec, 300 + s) for s in range(10)]
        ok = ok and verify_rll(V, W, U, lams).passed
        ok = ok and verify_product_relation(V, W, U, lams).passed
        ok = ok and verify_coproduct_compat(V, W, U, lams).passed
        ok = ok and verify_antipode(V, U, lams).passed
    report_line(8, "RLL, product, coproduct, antipode relations in pi_U", ok,
                time.perf_counter() - t0, 120)


def test_criterion_9_gauge_calculus():
    t0 = time.perf_counter()
    ok = True
    for qp in (QP, QPC):
        rng = random.Random(17)
        for _ in range(30):
            ok = ok and d_operator(d_operator(random_one_form(3, qp, rng))).is_trivial()
        for N in (2, 3):
            xi, phi = exact_one_form(N, qp), exact_two_form(N, qp)
            dxi = d_operator(xi)
            ok = ok and all(dxi.value(k) == phi.value(k) for k in phi.values)
            ok = ok and gauge_sequence_report(N, qp)[2]
        R = example_hecke(2, qp)
        c = Fraction(3)
        R3 = apply_gauge(R, ("III", c))
        ok = ok and (R3.hq, R3.hp) == (c * R.hq, c * R.hp)
    report_line(9, "d^2 = 0, d xi* = exact form, three-step gauge sequence, (cq, cp)", ok,
                time.perf_counter() - t0, 10)


def test_criterion_10_asymptotics():
    t0 = time.perf_counter()
    ok = True
    for pair in ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1)),
                 (Fraction(1), Fraction(1))):
        ok = ok and asymptotic_leading(irrep_sl2(pair[0], QPC), irrep_sl2(pair[1], QPC)).passed
    A = irrep_sl2(Fraction(1, 2), QP_SMALL)
    B = irrep_sl2(1, QP_SMALL)
    for direction in ("positive", "negative"):
        ok = ok and asymptotic_alcove(A, A, direction, range(5, 21)).passed
        ok = ok and asymptotic_alcove(A, B, direction, range(5, 21)).passed
    report_line(10, "classical 1/lambda term exact; alcove decrease <= q^2(1+1/m)", ok,
                time.perf_counter() - t0, 30)


def test_criterion_11_r00_scalarity():
    t0 = time.perf_counter()
    A = irrep_sl2(Fraction(1, 2), QP)
    W1 = irrep_sl2(1, QP)
    W2 = tensor(A, A)
    lams = [sampled(A.spec, 400 + s) for s in range(10)]
    ok = r00_scalar_check(A, W1, lams).passed
    ok = ok and r00_scalar_check(A, W2, lams).passed
    ok = ok and r00_cross_check(A, W1, W2, lams).passed
    report_line(11, "R00 scalar per weight space, matching across modules", ok,
                time.perf_counter() - t0, 10)
