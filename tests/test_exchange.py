import itertools
from fractions import Fraction

import pytest

from dynrx import linalg
from dynrx.exchange import (
    NotUnipotent,
    asymptotic_alcove,
    asymptotic_leading,
    exchange_matrix,
    fusion_matrix,
    fusion_matrix_abrr,
    hecke_report,
    invert_unipotent,
    kmat,
    kprime,
    r00_block,
    r00_cross_check,
    r00_scalar_check,
    two_point,
    verify_cocycle,
    verify_qdyb,
)
from dynrx.gauge import closed_form_fusion, closed_form_hecke
from dynrx.intertwine import compose_intertwiners
from dynrx.lam import Lambda
from dynrx.liealg import (
    dual_rep,
    irrep_sl2,
    r_zero_part,
    tensor,
    trivial_rep,
    vector_rep_gln,
    wt_sub,
)
from dynrx.scalars import (
    NonGenericLambda,
    QParam,
    RatFunc,
)


def sampled(spec, seed, bits=10):
    return Lambda.sample(spec, seed, bits)


def dense(M):
    """The lists of the square row form M, as the `fusion`, `fusion_inverse`
    and `exchange` tables hold it."""
    return linalg.dense(M, len(M))


def mats_equal(A, B):
    return all(
        RatFunc.coerce(a) == RatFunc.coerce(b) if isinstance(a, RatFunc) or isinstance(b, RatFunc)
        else a == b
        for ra, rb in zip(A, B) for a, b in zip(ra, rb)
    )


def test_fusion_trivial_slots(qp4):
    V = irrep_sl2(1, qp4)
    T = trivial_rep(V.spec)
    lam = sampled(V.spec, 0)
    assert dense(fusion_matrix(T, V, lam)) == linalg.eye(3)
    assert dense(fusion_matrix(V, T, lam)) == linalg.eye(3)


def test_fusion_unipotent_and_weight_zero(qp4):
    V = irrep_sl2(Fraction(1, 2), qp4)
    W = irrep_sl2(1, qp4)
    lam = sampled(V.spec, 1)
    J = dense(fusion_matrix(W, V, lam))
    d = W.dim * V.dim
    for r in range(d):
        for c in range(d):
            rw, rv = divmod(r, V.dim)
            cw, cv = divmod(c, V.dim)
            if r == c:
                assert J[r][c] == 1
            elif J[r][c] != 0:
                # strictly lower first-slot degree, same total weight
                assert W.zdeg[rw] < W.zdeg[cw]
                assert (
                    W.weights[rw][0] + V.weights[rv][0]
                    == W.weights[cw][0] + V.weights[cv][0]
                )


def test_closed_form_symbolic_gl2(qp4, qpc):
    for qp in (qp4, qpc):
        W = vector_rep_gln(2, qp)
        lam = Lambda.symbolic(W.spec)
        assert mats_equal(dense(fusion_matrix(W, W, lam)), closed_form_fusion(2, qp).to_matrix(lam))
        assert mats_equal(dense(exchange_matrix(W, W, lam)),
                          closed_form_hecke(2, qp).to_matrix(lam))


def test_closed_form_gl3_samples(qp4, qpc):
    for qp in (qp4, qpc):
        W = vector_rep_gln(3, qp)
        for seed in range(5):
            lam = sampled(W.spec, seed)
            assert dense(exchange_matrix(W, W, lam)) == closed_form_hecke(3, qp).to_matrix(lam)
            assert dense(fusion_matrix(W, W, lam)) == closed_form_fusion(3, qp).to_matrix(lam)


def test_two_method_agreement_symbolic(qp4):
    spins = [Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    lam = Lambda.symbolic(irrep_sl2(0, qp4).spec)
    for sa, sb in itertools.product(spins, repeat=2):
        A, B = irrep_sl2(sa, qp4), irrep_sl2(sb, qp4)
        assert mats_equal(dense(fusion_matrix(A, B, lam)), fusion_matrix_abrr(A, B, lam))


def test_abrr_trivial_and_classical_rejection(qp4, qpc):
    V = irrep_sl2(1, qp4)
    T = trivial_rep(V.spec)
    lam = sampled(V.spec, 4)
    assert fusion_matrix_abrr(T, V, lam) == linalg.eye(3)
    with pytest.raises(ValueError):
        Vc = irrep_sl2(1, qpc)
        fusion_matrix_abrr(Vc, Vc, sampled(Vc.spec, 0))


def flip_permutation(dA, dB):
    """P: A (x) B -> B (x) A as a permutation matrix."""
    P = [[Fraction(0)] * (dA * dB) for _ in range(dA * dB)]
    for a in range(dA):
        for b in range(dB):
            P[b * dA + a][a * dB + b] = Fraction(1)
    return P


def abrr_bucketed(W, V, lam):
    """Reference ABRR solve, one first-slot drop k at a time: R0^21 is split into
    one masked matrix per drop, each J part is scaled by Theta as a whole
    matrix, and J^(k) = (sum_m R0^(m) Theta(J^(k-m))) / (1 - theta) entrywise."""
    spec = W.spec
    dW, dV = W.dim, V.dim
    d = dW * dV
    R021 = linalg.mat_mul(flip_permutation(dV, dW),
                          linalg.mat_mul(r_zero_part(V, W), flip_permutation(dW, dV)))
    zero, one = lam.zero(), lam.one()

    def drop(row, col):
        return W.zdeg[col // dV] - W.zdeg[row // dV]

    def theta(row, col):
        jV, lV = row % dV, col % dV
        beta = wt_sub(V.weights[jV], V.weights[lV])
        exp = (spec.rho_pairing2(beta) - spec.pairing2(V.weights[lV], beta)
               - spec.pairing2(beta, beta) // 2)
        return lam.root_qpow2(beta) * lam.scalar(spec.qp.qpow(exp))

    maxdrop = max(W.zdeg) - min(W.zdeg)
    Rparts = [[[R021[r][c] if drop(r, c) == m else Fraction(0) for c in range(d)]
               for r in range(d)] for m in range(maxdrop + 1)]
    assert Rparts[0] == linalg.eye(d)
    Jparts = [linalg.eye(d)]
    for k in range(1, maxdrop + 1):
        rhs = [[zero] * d for _ in range(d)]
        for m in range(1, k + 1):
            Jt = Jparts[k - m]
            Th = [[Jt[r][c] * theta(r, c) if Jt[r][c] else zero for c in range(d)]
                  for r in range(d)]
            rhs = linalg.mat_add(rhs, linalg.mat_mul(Rparts[m], Th))
        Jk = [[zero] * d for _ in range(d)]
        for r in range(d):
            for c in range(d):
                if drop(r, c) != k or not rhs[r][c]:
                    continue
                den = one - theta(r, c)
                if not den:
                    raise NonGenericLambda(f"ABRR step {k}: 1 - theta vanishes at this lambda")
                Jk[r][c] = rhs[r][c] / den
        Jparts.append(Jk)
    J = Jparts[0]
    for Jk in Jparts[1:]:
        J = linalg.mat_add(J, Jk)
    return J


def assert_same_entries(A, B):
    assert A == B
    assert [[type(x) for x in row] for row in A] == [[type(x) for x in row] for row in B]


def test_abrr_matches_bucketed_reference(qp4, qp_half):
    half = Fraction(1, 2)
    spins = [half, Fraction(1), Fraction(3, 2)]
    for qp in (qp4, qp_half):
        pairs = [(irrep_sl2(a, qp), irrep_sl2(b, qp)) for a, b in itertools.product(spins, repeat=2)]
        h = irrep_sl2(half, qp)
        pairs += [(tensor(h, h), h), (h, tensor(h, h))]
        for W, V in pairs:
            for seed in (1, 2):
                lam = sampled(W.spec, seed)
                assert_same_entries(fusion_matrix_abrr(W, V, lam), abrr_bucketed(W, V, lam))
    for q in (Fraction(4), Fraction(1, 3)):
        qp = QParam(q)
        for N in (2, 3, 4):
            W = vector_rep_gln(N, qp)
            lam = sampled(W.spec, N)
            assert_same_entries(fusion_matrix_abrr(W, W, lam), abrr_bucketed(W, W, lam))
    for W, V in [(irrep_sl2(a, qp4), irrep_sl2(b, qp4)) for a, b in [(half, half), (1, half), (1, 1)]] \
            + [(vector_rep_gln(2, qp4), vector_rep_gln(2, qp4))]:
        lam = Lambda.symbolic(W.spec)
        assert_same_entries(fusion_matrix_abrr(W, V, lam), abrr_bucketed(W, V, lam))


@pytest.mark.parametrize("spin, x, step", [
    # spin 1/2: J[2][1] = R0^21[2][1] / (1 - theta(2, 1)) with R0^21[2][1] = 15/4 and
    # 1 - theta(2, 1) = 1 - 16 x^2, which vanishes at x = q^lambda = 1/4
    (Fraction(1, 2), Fraction(1, 4), 1),
    # spin 1: every drop-1 entry is finite at x = 1/4, a drop-2 denominator is not
    (Fraction(1), Fraction(1, 4), 2),
])
def test_abrr_nongeneric_point_matches_bucketed_reference(qp4, spin, x, step):
    V = irrep_sl2(spin, qp4)
    lam = Lambda(V.spec, (x,))
    messages = []
    for solve in (fusion_matrix_abrr, abrr_bucketed):
        with pytest.raises(NonGenericLambda) as exc:
            solve(V, V, lam)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] == f"ABRR step {step}: 1 - theta vanishes at this lambda"


def test_abrr_plan_built_once_per_pair(monkeypatch):
    from dynrx import exchange, memo

    real, calls = exchange.r_zero_part, []

    def counted(V, W):
        calls.append((V, W))
        return real(V, W)

    monkeypatch.setattr(exchange, "r_zero_part", counted)
    memo.clear()
    V = vector_rep_gln(4, QParam(4))
    Js = [fusion_matrix_abrr(V, V, sampled(V.spec, seed)) for seed in (1, 2, 3)]
    assert len(calls) == 1
    assert memo.stats()["abrr_plan"] == {"hits": 2, "misses": 1, "size": 1}
    assert Js[0] != Js[1] != Js[2]


def test_abrr_plan_rejects_non_unipotent_r0(qp4, monkeypatch):
    from dynrx import exchange, memo

    def doubled(V, W):
        return linalg.mat_scale(r_zero_part(V, W), Fraction(2))

    monkeypatch.setattr(exchange, "r_zero_part", doubled)
    memo.clear()
    V = irrep_sl2(Fraction(1, 2), qp4)
    for seed in (1, 2):  # nothing is kept, so every lambda raises again
        with pytest.raises(ArithmeticError, match="R0 is not unipotent"):
            fusion_matrix_abrr(V, V, sampled(V.spec, seed))
    assert memo.stats()["abrr_plan"]["size"] == 0


def loop_first_difference(lhs, rhs):
    """The first difference of two dense matrices as the cocycle and QDYB checks
    once found it: every pair compared, zeros included."""
    for r, (lrow, rrow) in enumerate(zip(lhs, rhs)):
        for c, (x, y) in enumerate(zip(lrow, rrow)):
            if x != y:
                return r, c, str(x - y)
    return None


def test_first_difference_matches_loop():
    def with_entry(M, r, c, v):
        M = [row[:] for row in M]
        M[r][c] = v
        return M

    sym = RatFunc.x()
    base = [[Fraction(0), Fraction(3, 4), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(0)],
            [Fraction(-1), Fraction(0), sym]]
    cases = [
        (base, [row[:] for row in base], None),  # equal
        (base, with_entry(base, 1, 1, Fraction(5)), (1, 1, "-5")),  # zero against nonzero
        (with_entry(base, 1, 2, Fraction(2)), base, (1, 2, "2")),  # nonzero against zero
        (base, with_entry(base, 0, 1, Fraction(1, 4)), (0, 1, "1/2")),  # two nonzeros
        (base, with_entry(base, 1, 0, RatFunc.const(0)), None),  # RatFunc zero, Fraction zero
        (with_entry(base, 0, 0, RatFunc.const(0)), base, None),
    ]
    for lhs, rhs, want in cases:
        got = next(linalg.differences(linalg.rows(lhs), linalg.rows(rhs)), None)
        got = got and (got[0], got[1], str(got[2] - got[3]))
        assert got == loop_first_difference(lhs, rhs) == want


def test_invert_unipotent(qp4):
    W = vector_rep_gln(2, qp4)
    lam = Lambda.symbolic(W.spec)
    J = dense(fusion_matrix(W, W, lam))
    Ji = dense(invert_unipotent(fusion_matrix(W, W, lam), W, W))
    # rank-one nilpotent: J^{-1} = 2 Id - J entrywise
    N = linalg.mat_sub(J, linalg.eye(4))
    assert mats_equal(Ji, linalg.mat_sub(linalg.eye(4), N))
    assert mats_equal(linalg.mat_mul(J, Ji), linalg.eye(4))
    # evaluated check on a bigger pair
    A = irrep_sl2(Fraction(1, 2), qp4)
    B = irrep_sl2(1, qp4)
    lam2 = sampled(A.spec, 5)
    J2 = fusion_matrix(A, B, lam2)
    assert dense(linalg.row_mul(J2, invert_unipotent(J2, A, B))) == linalg.eye(6)
    with pytest.raises(NotUnipotent):
        invert_unipotent(linalg.rows(linalg.mat_scale(linalg.eye(4), Fraction(2))), W, W)


def test_exchange_weight_zero_invariant(qp4):
    V = irrep_sl2(Fraction(1, 2), qp4)
    W = irrep_sl2(1, qp4)
    lam = sampled(V.spec, 6)
    R = dense(exchange_matrix(V, W, lam))
    DK = linalg.kron(V.K_mat(0), W.K_mat(0))
    assert linalg.mat_mul(R, DK) == linalg.mat_mul(DK, R)


def test_hecke_spectrum(qp4, qpc):
    for qp in (qp4, qpc):
        for N in (2, 3):
            W = vector_rep_gln(N, qp)
            for seed in range(3 if N == 3 else 1):
                lam = sampled(W.spec, seed)
                R = dense(exchange_matrix(W, W, lam))
                assert hecke_report(R, W, qp).passed


def test_cocycle_qdyb_trivial_slot(qp4):
    V = irrep_sl2(Fraction(1, 2), qp4)
    T = trivial_rep(V.spec)
    lams = [sampled(V.spec, 7)]
    assert verify_cocycle(V, V, T, lams).passed
    assert verify_qdyb(V, T, V, lams).passed


def test_cocycle_qdyb_symbolic_gl2(qp4):
    W = vector_rep_gln(2, qp4)
    lam = Lambda.symbolic(W.spec)
    assert verify_cocycle(W, W, W, [lam]).passed
    assert verify_qdyb(W, W, W, [lam]).passed


def test_qdyb_mixed_sl2_triple(qp4):
    A = irrep_sl2(Fraction(1, 2), qp4)
    B = irrep_sl2(1, qp4)
    lams = [sampled(A.spec, s) for s in range(3)]
    assert verify_qdyb(A, A, B, lams).passed
    assert verify_cocycle(A, B, A, lams).passed


def test_k_matrices(qp4):
    for spin in (Fraction(1, 2), Fraction(1)):
        V = irrep_sl2(spin, qp4)
        lam = Lambda.symbolic(V.spec)
        K, Kp, B = kmat(V, lam), kprime(V, lam), two_point(V, lam)
        assert mats_equal(K, Kp)
        assert mats_equal(B, Kp)
        T = trivial_rep(V.spec)
        lam0 = sampled(V.spec, 8)
        assert kmat(T, lam0) == linalg.eye(1)
        assert kprime(T, lam0) == linalg.eye(1)
        assert two_point(T, lam0) == linalg.eye(1)
        for seed in range(3):
            lam1 = sampled(V.spec, seed + 20)
            assert kmat(V, lam1) == kprime(V, lam1)
            assert linalg.mat_det(two_point(V, lam1)) != 0


def test_two_point_classical_limit():
    # B_{t rho, V} approaches the canonical pairing as t grows: entries differ
    # from delta by O(1/t)
    qp = QParam(1)
    V = irrep_sl2(Fraction(1, 2), qp)
    spec = V.spec
    prev = None
    for t in (40, 80, 160):
        lam = Lambda(spec, (Fraction(t),))
        B = two_point(V, lam)
        dev = max(abs(B[i][j] - (1 if i == j else 0)) for i in range(2) for j in range(2))
        if prev is not None:
            assert dev <= prev / Fraction(3, 2)
        prev = dev


def test_r00(qp4, qpc):
    A = irrep_sl2(Fraction(1, 2), qp4)
    W = irrep_sl2(1, qp4)
    lams = [sampled(A.spec, s) for s in range(3)]
    assert r00_scalar_check(A, W, lams).passed
    T = tensor(A, A)
    assert r00_cross_check(A, W, T, lams).passed
    # classical: R00 = Id
    Ac = irrep_sl2(Fraction(1, 2), qpc)
    Wc = irrep_sl2(1, qpc)
    lamc = sampled(Ac.spec, 0)
    assert r00_block(Ac, Wc, lamc) == linalg.eye(3)
    # trivial W: scalar 1
    assert r00_block(A, trivial_rep(A.spec), lams[0]) == linalg.eye(1)


def test_asymptotic_leading_classical(qpc):
    A = irrep_sl2(Fraction(1, 2), qpc)
    B = irrep_sl2(1, qpc)
    assert asymptotic_leading(A, A).passed
    assert asymptotic_leading(A, B).passed
    Wg = vector_rep_gln(2, qpc)
    assert asymptotic_leading(Wg, Wg).passed
    with pytest.raises(ValueError):
        asymptotic_leading(irrep_sl2(1, QParam(4)), irrep_sl2(1, QParam(4)))


def test_asymptotic_alcove(qp_half):
    A = irrep_sl2(Fraction(1, 2), qp_half)
    for direction in ("positive", "negative"):
        assert asymptotic_alcove(A, A, direction, range(5, 12)).passed
    W = vector_rep_gln(2, qp_half)
    assert asymptotic_alcove(W, W, "positive", range(5, 10)).passed
    with pytest.raises(ValueError):
        asymptotic_alcove(irrep_sl2(1, QParam(4)), irrep_sl2(1, QParam(4)),
                          "positive", range(5, 8))


def test_sampled_and_symbolic_direct_calls(qp4):
    # J through a fresh lambda on the same coordinates, and R against the gl2 closed form
    W = vector_rep_gln(2, qp4)
    lam = sampled(W.spec, 30)
    J = dense(fusion_matrix(W, W, lam))
    assert dense(fusion_matrix(W, W, Lambda(W.spec, lam.coords))) == J
    cf = closed_form_hecke(2, qp4)
    assert dense(exchange_matrix(W, W, lam)) == cf.to_matrix(lam)
    assert mats_equal(dense(exchange_matrix(W, W, Lambda.symbolic(W.spec))),
                      cf.to_matrix(Lambda.symbolic(W.spec)))


@pytest.mark.parametrize("a, b, c", [
    ("1/2", "1/2", Fraction(1)),
    ("1/2", "1/2", Fraction(-1, 16)),
    ("1", "1/2", Fraction(4)),
    ("1/2", "1", Fraction(1, 64)),
])
def test_verma_fusion_finite_where_only_outer_solve_is_singular(qp4, a, b, c):
    # at these lambda some Phi^w at mu = lambda - wt v is singular, so the full
    # composition raises; J reads only the inner Phi^v and is finite there
    W, V = irrep_sl2(Fraction(a), qp4), irrep_sl2(Fraction(b), qp4)
    lam = Lambda(W.spec, (c,))
    raised = 0
    for iW in range(W.dim):
        for iV in range(V.dim):
            w = [Fraction(int(t == iW)) for t in range(W.dim)]
            v = [Fraction(int(t == iV)) for t in range(V.dim)]
            try:
                compose_intertwiners(lam, W, w, V, v)
            except NonGenericLambda:
                raised += 1
    assert raised > 0
    J = dense(fusion_matrix(W, V, lam))
    Jx = dense(fusion_matrix(W, V, Lambda.symbolic(W.spec)))
    assert J == [[RatFunc.coerce(x).eval(c) for x in row] for row in Jx]


def _corrupted(fn):
    """fn returning a copy with its last nonzero entry (row-major order) raised by 1."""
    def wrapped(*args):
        M = dense(fn(*args))
        r, c = [(r, c) for r, row in enumerate(M) for c, x in enumerate(row) if x][-1]
        M[r][c] += 1
        return linalg.rows(M)
    return wrapped


_SYMBOLIC_QDYB_VALUE = (
    "RatFunc(num=Poly(coeffs=(Fraction(0, 1), Fraction(0, 1), Fraction(225, 1024))), "
    "den=Poly(coeffs=(Fraction(1, 4096), Fraction(0, 1), Fraction(-17, 256), "
    "Fraction(0, 1), Fraction(1, 1))))"
)


# Failure records under a one-entry corruption, captured on the implementation
# that subtracted whole matrices: the first differing entry (row-major) and
# the string of lhs - rhs there must not change.
@pytest.mark.parametrize("name, verify, want_sampled, want_symbolic", [
    ("fusion_matrix", verify_cocycle,
     [dict(sample=s, entry=(5, 5), value="-1") for s in range(2)],
     [dict(sample=0, entry=(3, 3), value="RatFunc(num=Poly(coeffs=(Fraction(-1, 1),)), "
                                         "den=Poly(coeffs=(Fraction(1, 1),)))")]),
    ("exchange_matrix", verify_qdyb,
     [dict(sample=0, entry=(3, 7), value="-185761/5169604"),
      dict(sample=1, entry=(3, 7), value="-63375/57500156")],
     [dict(sample=0, entry=(3, 5), value=_SYMBOLIC_QDYB_VALUE)]),
])
def test_cocycle_qdyb_failure_records_under_corruption(name, verify, want_sampled, want_symbolic,
                                                       qp4, monkeypatch):
    import dynrx.exchange as exchange

    monkeypatch.setattr(exchange, name, _corrupted(getattr(exchange, name)))
    A, B = irrep_sl2(Fraction(1, 2), qp4), irrep_sl2(1, qp4)
    assert verify(A, B, A, [sampled(A.spec, s) for s in range(2)]).failures == want_sampled
    G = vector_rep_gln(2, qp4)
    assert verify(G, G, G, [Lambda.symbolic(G.spec)]).failures == want_symbolic


_LEAK_QDYB_SYMBOLIC = (
    "RatFunc(num=Poly(coeffs=(Fraction(0, 1), Fraction(0, 1), Fraction(15, 2))), "
    "den=Poly(coeffs=(Fraction(-1, 16), Fraction(0, 1), Fraction(1, 1))))"
)


# One entry outside the weight-zero pattern, M[0][-1] (top weight to bottom
# weight), raised by 1 on the 1/2 (x) 1 pair only.  The records were captured
# on the dense checks, which compared every entry of the triple products; a
# check that skips entries by weight would lose them.
@pytest.mark.parametrize("name, verify, want", [
    ("exchange_matrix", verify_qdyb,
     [dict(sample=0, entry=(0, 5), value="611618/69165"),
      dict(sample=1, entry=(0, 5), value="6740280/894479"),
      dict(sample=2, entry=(0, 5), value=_LEAK_QDYB_SYMBOLIC)]),
    ("fusion_matrix", verify_cocycle,
     [dict(sample=0, entry=(0, 10), value="1"),
      dict(sample=1, entry=(0, 10), value="1"),
      dict(sample=2, entry=(0, 10), value="RatFunc(num=Poly(coeffs=(Fraction(1, 1),)), "
                                          "den=Poly(coeffs=(Fraction(1, 1),)))")]),
])
def test_cocycle_qdyb_report_an_entry_outside_the_weight_pattern(name, verify, want, qp4,
                                                                 monkeypatch):
    import dynrx.exchange as exchange

    A, B = irrep_sl2(Fraction(1, 2), qp4), irrep_sl2(1, qp4)
    real = getattr(exchange, name)

    def leaking(V, W, *rest):
        M = real(V, W, *rest)
        if (V.key, W.key) == (A.key, B.key):
            M = dense(M)
            assert V.weights[0] != V.weights[-1] and not M[0][-1]  # off the weight-zero pattern
            M[0][-1] += 1
            M = linalg.rows(M)
        return M

    monkeypatch.setattr(exchange, name, leaking)
    lams = [sampled(A.spec, s) for s in range(2)] + [Lambda.symbolic(A.spec)]
    assert verify(A, B, A, lams).failures == want


@pytest.mark.parametrize("verify", [verify_cocycle, verify_qdyb])
@pytest.mark.parametrize("method", ["verma", "abrr"])
def test_cocycle_qdyb_build_no_dense_triple_matrix(verify, method, qp4, no_dense_on):
    G = vector_rep_gln(2, qp4)
    lams = [sampled(G.spec, 3), Lambda.symbolic(G.spec)]
    assert verify(G, G, G, lams, method).passed  # fills the memo tables, J_{V (x) W, U} included
    no_dense_on(G.dim ** 3)
    rep = verify(G, G, G, lams, method)
    assert rep.passed and not rep.failures


@pytest.mark.parametrize("corrupt", [
    lambda B: B[1].__setitem__(2, B[1][2] + 1),  # off-diagonal, inside the weight-0 space
    lambda B: B[0].__setitem__(1, B[0][1] + 1),  # weight 0 leaking to weight 2
    lambda B: B[2].__setitem__(2, B[2][2] + 1),  # unequal diagonal on the weight-0 space
], ids=["off-diagonal", "leak", "unequal-diagonal"])
def test_r00_scalar_check_rejects_non_scalar_blocks(corrupt, qp4, monkeypatch):
    import dynrx.exchange as exchange

    A = irrep_sl2(Fraction(1, 2), qp4)
    W = tensor(A, A)  # weights 2, 0, 0, -2: one two-dimensional weight space
    lams = [sampled(A.spec, 0)]
    assert r00_scalar_check(A, W, lams).passed
    real = exchange.r00_block

    def patched(*args):
        B = [list(row) for row in real(*args)]
        corrupt(B)
        return B

    monkeypatch.setattr(exchange, "r00_block", patched)
    rep = r00_scalar_check(A, W, lams)
    assert rep.failures == [dict(sample=0, reason="not scalar on a weight space")]
