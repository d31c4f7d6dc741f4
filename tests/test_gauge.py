import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from dynrx import linalg
from dynrx.exchange import embed3_rows, hecke_report
from dynrx.gauge import (
    FormScalar,
    MultForm,
    NotClosedError,
    _pairpow_ratfunc,
    _shift_pair,
    apply_gauge,
    closed_form_fusion,
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
from dynrx.scalars import QParam, RatFunc


def pts(qp, N, n, bits=8):
    return [Lambda.sample(AlgebraSpec("gln", N, qp), s, bits) for s in range(n)]


def test_form_antisymmetry(qp4):
    phi = exact_two_form(3, qp4)
    for a in range(3):
        for b in range(3):
            if a != b:
                assert (phi.value((a, b)) * phi.value((b, a))).is_one()


def test_form_values_compare_by_value_and_do_not_hash(qp4):
    two, pair_two = FormScalar.of_const(qp4, 2), FormScalar.of_pair(qp4, 0, 1, RatFunc.const(2))
    assert two == pair_two
    with pytest.raises(TypeError):
        hash(two)


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
            assert all(dxi.value(k) == phi.value(k) for k in phi.values)
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
    assert R == R3 and R == R4


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


def embed3(matfn, reps, s0, s1, lam, shift_spectator):
    """The dense matrix on the triple of reps that `embed3_rows` places."""
    return linalg.dense(embed3_rows(matfn, reps, s0, s1, lam, shift_spectator),
                        reps[0].dim * reps[1].dim * reps[2].dim)


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
                fn = lambda lh, cur=current: linalg.rows(cur.to_matrix(lh))
                reps3 = [W, W, W]
                lhs = linalg.mat_mul(
                    embed3(fn, reps3, 0, 1, lam, True),
                    linalg.mat_mul(embed3(fn, reps3, 0, 2, lam, False),
                                   embed3(fn, reps3, 1, 2, lam, True)))
                rhs = linalg.mat_mul(
                    embed3(fn, reps3, 1, 2, lam, False),
                    linalg.mat_mul(embed3(fn, reps3, 0, 2, lam, True),
                                   embed3(fn, reps3, 0, 1, lam, False)))
                assert lhs == rhs, (qp.classical, step)


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
        assert rep.passed
        rng = random.Random(1)
        rep = conjugation_identity_check(closed_form_hecke(2, qp),
                                         random_one_form(2, qp, rng), points)
        assert rep.passed
        # xi == 1 leaves R unchanged
        ones = MultForm.build(2, 1, qp, {})
        rep = conjugation_identity_check(closed_form_hecke(2, qp), ones, points[:3])
        assert rep.passed


# ---------------------------------------------------------------------------
# Reference: the Hecke literals and gauge transformations written on the
# earlier encoding, each coefficient table a tuple of ((a, b), RatFunc) pairs
# and each literal its own a != b loop.


@dataclass(frozen=True)
class TupleHecke:
    N: int
    qp: QParam
    alpha_diag: tuple
    alpha: tuple
    beta: tuple
    hq: Fraction = Fraction(1)
    hp: Fraction = Fraction(1)

    def _get(self, table, a, b):
        for k, v in table:
            if k == (a, b):
                return v
        raise KeyError((a, b))

    def alpha_ab(self, a, b):
        return self._get(self.alpha, a, b)

    def beta_ab(self, a, b):
        return self._get(self.beta, a, b)


def ref_example_hecke(N, qp):
    alpha, beta = [], []
    one = RatFunc.const(1)
    for a in range(N):
        for b in range(N):
            if a == b:
                continue
            if qp.classical:
                bb = one / RatFunc.x()
                aa = bb + one
            else:
                u = _pairpow_ratfunc(qp, 0, forward=False)
                bb = RatFunc.const(qp.qpow(-2) - 1) / (u - one)
                aa = bb + RatFunc.const(qp.qpow(-2))
            alpha.append(((a, b), aa))
            beta.append(((a, b), bb))
    hq = Fraction(1)
    hp = Fraction(1) if qp.classical else qp.qpow(-2)
    return TupleHecke(N, qp, tuple(Fraction(1) for _ in range(N)),
                      tuple(alpha), tuple(beta), hq, hp)


def ref_closed_form_hecke(N, qp):
    alpha, beta = [], []
    one = RatFunc.const(1)
    for a in range(N):
        for b in range(N):
            if a == b:
                continue
            u = _pairpow_ratfunc(qp, a - b, forward=False)
            if qp.classical:
                bb = one / (RatFunc.const(0) - u)
                aa = one if a < b else (u - one) * (u + one) / (u * u)
            else:
                bb = RatFunc.const(qp.qpow(-1) - qp.q) / (u - one)
                if a < b:
                    aa = one
                else:
                    aa = ((u - RatFunc.const(qp.qpow(2))) * (u - RatFunc.const(qp.qpow(-2)))
                          / ((u - one) * (u - one)))
            alpha.append(((a, b), aa))
            beta.append(((a, b), bb))
    diag = Fraction(1) if qp.classical else qp.q
    hq = diag
    hp = Fraction(1) if qp.classical else qp.qpow(-1)
    return TupleHecke(N, qp, tuple(diag for _ in range(N)), tuple(alpha), tuple(beta), hq, hp)


def ref_closed_form_fusion(N, qp):
    alpha, beta = [], []
    one, zero = RatFunc.const(1), RatFunc.const(0)
    for a in range(N):
        for b in range(N):
            if a == b:
                continue
            if a > b:
                bb = zero
            else:
                u = _pairpow_ratfunc(qp, b - a, forward=True)
                if qp.classical:
                    bb = (zero - one) / u
                else:
                    bb = RatFunc.const(qp.qpow(-1) - qp.q) / (u - one)
            alpha.append(((a, b), one))
            beta.append(((a, b), bb))
    return TupleHecke(N, qp, tuple(Fraction(1) for _ in range(N)), tuple(alpha), tuple(beta))


def ref_apply_gauge(R, transform):
    kind = transform[0]
    qp = R.qp
    if kind == "I":
        phi = transform[1]
        if not is_closed(phi):
            raise NotClosedError("type I requires a closed 2-form")
        alpha = []
        for (a, b), g in R.alpha:
            f = phi.value((a, b)).single_pair_ratfunc(a, b)
            alpha.append(((a, b), g * f))
        return TupleHecke(R.N, qp, R.alpha_diag, tuple(alpha), R.beta, R.hq, R.hp)
    if kind == "II":
        sigma = transform[1]
        inv = [0] * R.N
        for i, s in enumerate(sigma):
            inv[s] = i
        alpha = []
        beta = []
        for a in range(R.N):
            for b in range(R.N):
                if a != b:
                    alpha.append(((a, b), R.alpha_ab(inv[a], inv[b])))
                    beta.append(((a, b), R.beta_ab(inv[a], inv[b])))
        diag = tuple(R.alpha_diag[inv[a]] for a in range(R.N))
        return TupleHecke(R.N, qp, diag, tuple(alpha), tuple(beta), R.hq, R.hp)
    if kind == "III":
        c = Fraction(transform[1])
        alpha = tuple((k, g * RatFunc.const(c)) for k, g in R.alpha)
        beta = tuple((k, g * RatFunc.const(c)) for k, g in R.beta)
        diag = tuple(x * c for x in R.alpha_diag)
        return TupleHecke(R.N, qp, diag, alpha, beta, c * R.hq, c * R.hp)
    mu = transform[1]  # "IV"
    alpha = []
    beta = []
    for (a, b), g in R.alpha:
        alpha.append(((a, b), _shift_pair(qp, g, mu[a] - mu[b])))
    for (a, b), g in R.beta:
        beta.append(((a, b), _shift_pair(qp, g, mu[a] - mu[b])))
    return TupleHecke(R.N, qp, R.alpha_diag, tuple(alpha), tuple(beta), R.hq, R.hp)


def ref_delta(f, c):
    """delta_c with the shift of x_ab written out per case: lambda_c -> lambda_c - 1
    sends x_ab to x_ab / q (c = a) or x_ab q (c = b), classically to x_ab -/+ 1."""
    qp = f.qp
    out = FormScalar.of_const(qp, qp.qpow(f.mono[c]) if c in f.mono else 1)
    for (a, b), g in f.pairs.items():
        if c == a:
            gs = g.subst_translate(-1) if qp.classical else g.subst_scale(1 / qp.q)
        elif c == b:
            gs = g.subst_translate(1) if qp.classical else g.subst_scale(qp.q)
        else:
            continue
        out = out * FormScalar(qp, Fraction(1), {}, {(a, b): g / gs})
    return out


def assert_same_coefficients(R, ref):
    assert (R.N, R.qp, R.alpha_diag, R.hq, R.hp) == (ref.N, ref.qp, ref.alpha_diag, ref.hq, ref.hp)
    assert list(R.alpha) == [k for k, _ in ref.alpha]
    assert R.alpha == dict(ref.alpha) and R.beta == dict(ref.beta)


REF_QPS = [QParam(4), QParam(Fraction(1, 3)), QParam(1)]


@pytest.mark.parametrize("qp", REF_QPS, ids=["q4", "q1/3", "classical"])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_hecke_literals_and_gauges_match_the_tuple_reference(N, qp):
    cycle = tuple((i + 1) % N for i in range(N))  # (1, 2, 0) at N = 3
    steps = [("IV", rho_shift(N)), ("III", Fraction(1) if qp.classical else qp.q),
             ("I", exact_two_form(N, qp)), ("II", cycle)]
    for make, ref_make in ((example_hecke, ref_example_hecke),
                           (closed_form_hecke, ref_closed_form_hecke),
                           (closed_form_fusion, ref_closed_form_fusion)):
        R, ref = make(N, qp), ref_make(N, qp)
        assert_same_coefficients(R, ref)
        for step in steps:
            R, ref = apply_gauge(R, step), ref_apply_gauge(ref, step)
            assert_same_coefficients(R, ref)


@pytest.mark.parametrize("qp", REF_QPS, ids=["q4", "q1/3", "classical"])
def test_delta_matches_the_written_out_shift(qp):
    rng = random.Random(3)
    forms = [random_one_form(3, qp, rng) for _ in range(10)] + [exact_one_form(4, qp)]
    for form in forms:
        for f in form.values.values():
            for c in range(form.N):
                assert f.delta(c) == ref_delta(f, c)
