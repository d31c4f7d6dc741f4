import itertools
import random
from fractions import Fraction

import pytest

from dynrx import linalg
from dynrx.lam import Lambda
from dynrx.liealg import (
    NotCompletelyReducible,
    _cartan_diag,
    cg_decompose,
    AlgebraSpec,
    chevalley_residuals,
    dual_rep,
    flip,
    generate_subrep,
    highest_weight_vectors,
    irrep_sl2,
    r_zero_part,
    tensor,
    trivial_rep,
    universal_r,
    vector_rep_gln,
)
from dynrx.scalars import IrrationalHalfPower, QParam, RatFunc


def mat_is_zero(A):
    return not any(x for row in A for x in row)


def all_zero(mats):
    return all(mat_is_zero(m) for m in mats)


def typed(M):
    """M's entries with their types, so that equality also compares types."""
    return [[(type(x), x) for x in row] for row in M]


def transpose(M):
    return [list(col) for col in zip(*M)]


# Reference for the coproduct, kept from before `tensor` became the only place
# it is written: D(x) and D^op(x) on V (x) W, each written out.


def coproduct_op(V, W, i, gen, opposite=False):
    """Matrix of D(e_i)/D(f_i)/D(K_i) (or the opposite coproduct) on V (x) W."""
    idV, idW = linalg.eye(V.dim), linalg.eye(W.dim)
    kron = linalg.kron
    if gen == "K":
        return kron(V.K_mat(i), W.K_mat(i))
    if gen == "e":
        if opposite:
            return linalg.mat_add(kron(V.K_mat(i), W.e[i]), kron(V.e[i], idW))
        return linalg.mat_add(kron(V.e[i], W.K_mat(i)), kron(idV, W.e[i]))
    if gen == "f":
        if opposite:
            return linalg.mat_add(kron(V.f[i], W.K_mat(i, -1)), kron(idV, W.f[i]))
        return linalg.mat_add(kron(V.f[i], idW), kron(V.K_mat(i, -1), W.f[i]))
    raise ValueError(gen)


def test_irrep_sl2_examples(qp4, qpc):
    V0 = irrep_sl2(0, qp4)
    assert V0.dim == 1 and mat_is_zero(V0.e[0]) and mat_is_zero(V0.f[0])
    V = irrep_sl2(Fraction(1, 2), QParam(2))
    assert V.K_diag(0) == [Fraction(2), Fraction(1, 2)]
    assert all_zero(chevalley_residuals(V))
    # classical spin 1: ef - fe = h = diag(2, 0, -2)
    W = irrep_sl2(1, qpc)
    comm = linalg.mat_sub(linalg.mat_mul(W.e[0], W.f[0]), linalg.mat_mul(W.f[0], W.e[0]))
    assert comm == [[2, 0, 0], [0, 0, 0], [0, 0, -2]]
    with pytest.raises(ValueError):
        irrep_sl2(Fraction(1, 3), qp4)
    with pytest.raises(ValueError):
        irrep_sl2(100, qp4)


def test_vector_rep_gln(qp4):
    V = vector_rep_gln(2, qp4)
    # f1 v1 = v2, e1 v2 = v1
    assert V.f[0][1][0] == 1 and V.e[0][0][1] == 1
    V3 = vector_rep_gln(3, qp4)
    assert V3.weights[1] == (0, 1, 0)
    assert all_zero(chevalley_residuals(V3))
    with pytest.raises(ValueError):
        vector_rep_gln(5, qp4)
    # [e1, f1] = (K - K^-1)/(q - q^-1) acts as diag(1, -1) on the weight pairing
    q = QParam(3)
    V = vector_rep_gln(2, q)
    comm = linalg.mat_sub(linalg.mat_mul(V.e[0], V.f[0]), linalg.mat_mul(V.f[0], V.e[0]))
    dK = V.K_diag(0)
    dKi = V.K_diag(0, -1)
    c = q.q - 1 / q.q
    tgt = [[(dK[a] - dKi[a]) / c if a == b else Fraction(0) for b in range(2)] for a in range(2)]
    assert comm == tgt


def test_tensor(qp4):
    V = irrep_sl2(Fraction(1, 2), qp4)
    T = tensor(V, trivial_rep(V.spec))
    assert T.e[0] == V.e[0] and T.f[0] == V.f[0]
    TT = tensor(V, V)
    q = qp4.q
    assert sorted(qp4.qpow(TT.spec.cartan_int(0, w)) for w in TT.weights) == sorted(
        [q * q, Fraction(1), Fraction(1), 1 / (q * q)]
    )
    # coproduct Chevalley relations hold exactly on V_{1/2} (x) V_1 at q = 4
    W = tensor(V, irrep_sl2(1, qp4))
    assert all_zero(chevalley_residuals(W))
    # the generators of V (x) W are the coproduct's
    g3 = vector_rep_gln(3, qp4)
    for A, B in ((V, irrep_sl2(1, qp4)), (irrep_sl2(1, qp4), V), (g3, dual_rep(g3))):
        T = tensor(A, B)
        for i in range(A.spec.nsimple):
            assert typed(T.e[i]) == typed(coproduct_op(A, B, i, "e"))
            assert typed(T.f[i]) == typed(coproduct_op(A, B, i, "f"))


def test_tensor_and_its_flip_are_the_written_out_coproducts(qp4):
    # D(x) on A (x) B is tensor(A, B)'s; D^op(x) = tau D(x) is tensor(B, A)'s, flipped
    half, one = irrep_sl2(Fraction(1, 2), qp4), irrep_sl2(1, qp4)
    g3, g4 = vector_rep_gln(3, qp4), vector_rep_gln(4, qp4)
    pairs = [(half, one), (one, half), (g3, dual_rep(g3)), (tensor(g3, g3), g3),
             (g4, dual_rep(g4))]
    for A, B in pairs:
        T, Top = tensor(A, B), tensor(B, A)
        for i in range(A.spec.nsimple):
            for gen, X, Xop in (("e", T.e[i], Top.e[i]), ("f", T.f[i], Top.f[i])):
                assert typed(X) == typed(coproduct_op(A, B, i, gen))
                assert typed(flip(Xop, B.dim, A.dim)) == typed(
                    coproduct_op(A, B, i, gen, opposite=True))


# References for AlgebraSpec.height, kept from before it returned None off the
# positive cone: the partial-sum height and the separate cone test.


def reference_height(spec, beta):
    if spec.kind == "sl2":
        if beta[0] % 2:
            raise ValueError("not in the root lattice")
        return beta[0] // 2
    ns = []
    acc = 0
    for a in range(spec.n - 1):
        acc += beta[a]
        ns.append(acc)
    if acc + beta[-1] != 0:
        raise ValueError("not in the root lattice")
    return sum(ns)


def reference_in_positive_cone(spec, beta):
    if spec.kind == "sl2":
        return beta[0] >= 0 and beta[0] % 2 == 0
    acc = 0
    for a in range(spec.n - 1):
        acc += beta[a]
        if acc < 0:
            return False
    return acc + beta[-1] == 0


def test_height_matches_the_references(qp4):
    specs = [AlgebraSpec("sl2", 1, qp4)] + [AlgebraSpec("gln", N, qp4) for N in (2, 3, 4)]
    checked = 0
    for spec in specs:
        for beta in itertools.product(range(-4, 5), repeat=spec.ncoords):
            want = reference_height(spec, beta) if reference_in_positive_cone(spec, beta) else None
            assert spec.height(beta) == want, (spec.kind, spec.n, beta)
            checked += 1
    assert checked == 9 + 9 ** 2 + 9 ** 3 + 9 ** 4


def test_universal_r(qp4, qpc):
    # gl_N closed form structure
    for N in (2, 3):
        V = vector_rep_gln(N, qp4)
        R = universal_r(V, V)
        q = qp4.q
        for a in range(N):
            assert R[a * N + a][a * N + a] == q
            for b in range(N):
                if a != b:
                    assert R[a * N + b][a * N + b] == 1
            for b in range(a + 1, N):
                assert R[a * N + b][b * N + a] == q - 1 / q
    # classical: identity
    Vc = irrep_sl2(1, qpc)
    assert universal_r(Vc, Vc) == linalg.eye(9)
    # QTS residual for sl2 V_{1/2} at q = 4 (all generators)
    V = irrep_sl2(Fraction(1, 2), qp4)
    R = universal_r(V, V)
    for gen in ("e", "f", "K"):
        D = coproduct_op(V, V, 0, gen)
        Dop = coproduct_op(V, V, 0, gen, opposite=True)
        assert mat_is_zero(
            linalg.mat_sub(linalg.mat_mul(R, D), linalg.mat_mul(Dop, R))
        )
    # invertible, and weight preserving
    assert linalg.mat_det(R) != 0


def commutes_with_every_generator(R, V, W):
    """R D(x) = D^op(x) R for x = e_i, f_i, K_i on every simple root, and det R != 0."""
    for i in range(V.spec.nsimple):
        for gen in ("e", "f", "K"):
            D = coproduct_op(V, W, i, gen)
            Dop = coproduct_op(V, W, i, gen, opposite=True)
            if linalg.mat_mul(R, D) != linalg.mat_mul(Dop, R):
                return False
    return linalg.mat_det(R) != 0


def test_universal_r_on_gln_pairs_beyond_the_vector_pair(qp4):
    # the word ansatz covers every pair: no gl_N pair is special-cased
    V3, V4 = vector_rep_gln(3, qp4), vector_rep_gln(4, qp4)
    for V, W in ((tensor(V3, V3), V3), (V3, dual_rep(V3)), (V4, dual_rep(V4))):
        R = universal_r(V, W)
        assert len(R) == V.dim * W.dim
        assert commutes_with_every_generator(R, V, W)


# References for universal_r, kept from before the word ansatz: the sl2/gl2
# series solve and the transcribed gl_N vector-pair literal.


def reference_single_root_r(V, W):
    """R = Q (sum_n c_n e^n (x) f^n), c_0 = 1, solved from R D(x) = D^op(x) R
    for x = e and f."""
    Q = _cartan_diag(V, W)
    terms = []
    En, Fn = linalg.eye(V.dim), linalg.eye(W.dim)
    while not (mat_is_zero(En) or mat_is_zero(Fn)):
        terms.append([[Q[r] * x for x in row] for r, row in enumerate(linalg.kron(En, Fn))])
        En = linalg.mat_mul(En, V.e[0])
        Fn = linalg.mat_mul(Fn, W.f[0])
    nun = len(terms) - 1
    if nun == 0:
        return terms[0]
    rows, rhs = [], []
    d = V.dim * W.dim
    for gen in ("e", "f"):
        D = coproduct_op(V, W, 0, gen)
        Dop = coproduct_op(V, W, 0, gen, opposite=True)
        mats = [linalg.mat_sub(linalg.mat_mul(T, D), linalg.mat_mul(Dop, T)) for T in terms]
        for r in range(d):
            for c in range(d):
                row = [mats[n][r][c] for n in range(1, nun + 1)]
                if any(x != 0 for x in row) or mats[0][r][c] != 0:
                    rows.append(row)
                    rhs.append([-mats[0][r][c]])
    sol = linalg.solve_linear(rows, rhs)
    R = terms[0]
    for n in range(1, nun + 1):
        R = linalg.mat_add(R, linalg.mat_scale(terms[n], sol[n - 1][0]))
    return R


def reference_gln_vector_r(N, qp):
    """q on v_a (x) v_a, 1 on v_a (x) v_b, and (q - q^-1) E_ab (x) E_ba for a < b."""
    q = qp.q
    R = linalg.zeros(N * N, N * N)
    for a in range(N):
        for b in range(N):
            R[a * N + b][a * N + b] = q if a == b else Fraction(1)
    for a in range(N):
        for b in range(a + 1, N):
            R[a * N + b][b * N + a] = q - 1 / q
    return R


def reference_pairs(qp):
    """(V, W, reference R builder) for every pair the references support."""
    half, one, three_half = (irrep_sl2(Fraction(s), qp) for s in ("1/2", "1", "3/2"))
    out = [(V, W, reference_single_root_r)
           for V, W in ((half, half), (one, half), (half, one), (three_half, one), (one, one),
                        (irrep_sl2(0, qp), one), (half, three_half))]
    V2 = vector_rep_gln(2, qp)
    gl2 = [(V2, V2), (V2, dual_rep(V2)), (dual_rep(V2), V2), (tensor(V2, V2), V2),
           (V2, tensor(V2, dual_rep(V2)))]
    out += [(V, W, reference_single_root_r) for V, W in gl2]
    for N in (3, 4):
        VN = vector_rep_gln(N, qp)
        out.append((VN, VN, lambda V, W: reference_gln_vector_r(V.spec.n, qp)))
    return out


@pytest.mark.parametrize("qval", ["4", "1/3", "1/4"])
def test_universal_r_matches_the_references(qval):
    from dynrx import memo

    memo.clear()
    qp = QParam(Fraction(qval))
    for V, W, reference in reference_pairs(qp):
        try:
            want = reference(V, W)
        except IrrationalHalfPower:
            # an odd half-power of q at q = 1/3 (sl2 spin 1/2 (x) 1/2): the same from both
            with pytest.raises(IrrationalHalfPower):
                universal_r(V, W)
            continue
        assert typed(universal_r(V, W)) == typed(want), (V.name, W.name)


def test_universal_r_checks_every_simple_root(qp4, monkeypatch):
    from dynrx import liealg, memo

    V = vector_rep_gln(3, qp4)
    good = universal_r(V, V)
    bad = [list(row) for row in good]
    bad[2 * 3 + 2][2 * 3 + 2] += 1  # v_3 (x) v_3: only e_2, f_2 reach it
    memo.clear()
    monkeypatch.setattr(liealg, "_word_ansatz_r", lambda *args: bad)
    with pytest.raises(ArithmeticError, match="_2$"):
        universal_r(V, V)
    monkeypatch.setattr(liealg, "_word_ansatz_r", lambda *args: good)
    assert universal_r(V, V) == good


def test_universal_r_builds_each_tensor_product_once(qp4, monkeypatch):
    # D is read from tensor(V, W) and D^op from tensor(W, V), one build each
    from dynrx import liealg, memo

    V = vector_rep_gln(4, qp4)
    W = dual_rep(V)
    calls = []
    real = liealg.tensor

    def counted(*args):
        calls.append(args)
        return real(*args)

    memo.clear()
    monkeypatch.setattr(liealg, "tensor", counted)
    universal_r(V, W)
    assert calls == [(V, W), (W, V)]


def test_universal_r_mixed_pairs_consistent(qp4):
    # the per-pair ansatz solve restricts one universal element: the series
    # coefficient read off V_{1/2} (x) V_{1/2} matches the one on V_1 (x) V_{1/2}
    A = irrep_sl2(Fraction(1, 2), qp4)
    B = irrep_sl2(1, qp4)
    RAA = universal_r(A, A)
    RBA = universal_r(B, A)
    q = qp4.q
    # coefficient of e (x) f: entry mapping v1 (x) v0 -> v0 (x) v1 over the Q part
    c_aa = RAA[0 * 2 + 1][1 * 2 + 0] / qp4.spow(A.spec.pairing2(A.weights[0], A.weights[1]))
    c_ba = RBA[0 * 2 + 1][1 * 2 + 0] / qp4.spow(
        B.spec.pairing2(B.weights[0], A.weights[1])
    ) / B.e[0][0][1]
    assert c_aa == c_ba == q - 1 / q


def test_cg_decompose(qp4):
    V = irrep_sl2(Fraction(1, 2), qp4)
    parts = cg_decompose(V, V)
    assert sorted(U.dim for U, _, _ in parts) == [1, 3]
    T = tensor(V, V)
    total = [[Fraction(0)] * 4 for _ in range(4)]
    for U, tau, taubar in parts:
        assert linalg.mat_mul(taubar, tau) == linalg.eye(U.dim)
        total = linalg.mat_add(total, linalg.mat_mul(tau, taubar))
        # tau intertwines the action
        for i in range(V.spec.nsimple):
            for X_T, X_U in ((T.e[i], U.e[i]), (T.f[i], U.f[i])):
                assert linalg.mat_mul(X_T, tau) == linalg.mat_mul(tau, X_U)
    assert total == linalg.eye(4)
    # V_{1/2} (x) V_1 = V_{3/2} + V_{1/2}
    parts = cg_decompose(V, irrep_sl2(1, qp4))
    assert sorted(U.dim for U, _, _ in parts) == [2, 4]
    # q = 3 exactness
    V3 = irrep_sl2(Fraction(1, 2), QParam(3))
    for U, tau, taubar in cg_decompose(V3, V3):
        assert linalg.mat_mul(taubar, tau) == linalg.eye(U.dim)


def test_generate_subrep_rejects_orbit_that_is_not_e_stable(qp4, qpc):
    # the f-orbit of a vector that is not highest weight misses its own e-image
    for qp in (qp4, qpc):
        V = irrep_sl2(Fraction(1, 2), qp)
        with pytest.raises(NotCompletelyReducible):
            generate_subrep(V, [Fraction(0), Fraction(1)])
        T = tensor(V, V)
        top_bottom = [Fraction(int(i == 1)) for i in range(T.dim)]  # v0 (x) v1
        with pytest.raises(NotCompletelyReducible):
            generate_subrep(T, top_bottom)
        U, tau = generate_subrep(T, [Fraction(int(i == 0)) for i in range(T.dim)])
        assert U.dim == 3 and len(tau) == T.dim


def test_dual_rep_pairing(qp4):
    # the canonical pairing V (x) *V -> C kills Delta(x) for all generators:
    # <x_(1) v, x_(2) phi> = eps(x) <v, phi>
    V = irrep_sl2(1, qp4)
    sV = dual_rep(V)
    T = tensor(V, sV)
    d = V.dim
    for i in range(V.spec.nsimple):
        for gen in ("e", "f"):
            M = coproduct_op(V, sV, i, gen)
            # contraction row: sum over diagonal pairs
            for col in range(d * d):
                s = sum(M[p * d + p][col] for p in range(d))
                assert s == 0
    assert all_zero(chevalley_residuals(sV))


@pytest.mark.parametrize("qval", ["4", "1/4", "classical"])
def test_r_zero_part_is_r_times_inverse_cartan_factor(qval):
    # reference: R times the inverse of the dense diagonal q^{sum x_i (x) x_i}
    qp = QParam(1) if qval == "classical" else QParam(Fraction(qval))
    spins = [Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    pairs = [(irrep_sl2(a, qp), irrep_sl2(b, qp))
             for a in spins for b in spins if a * b <= Fraction(3, 2)]  # up to 3/2 (x) 1
    pairs += [(vector_rep_gln(N, qp),) * 2 for N in (2, 3, 4)]
    for V, W in pairs:
        d = V.dim * W.dim
        diag = [qp.spow(V.spec.pairing2(mu, nu)) for mu in V.weights for nu in W.weights]
        Qinv = [[1 / diag[r] if r == c else Fraction(0) for c in range(d)] for r in range(d)]
        assert typed(r_zero_part(V, W)) == typed(linalg.mat_mul(universal_r(V, W), Qinv))


@pytest.mark.parametrize("qval", ["4", "1/4", "classical"])
def test_dual_rep_generators_are_transposed_inverse_antipodes(qval):
    # *V acts through S^{-1}: e -> (-K^{-1} e)^t and f -> (-f K)^t
    qp = QParam(1) if qval == "classical" else QParam(Fraction(qval))
    half = irrep_sl2(Fraction(1, 2), qp)
    reps = [irrep_sl2(s, qp) for s in (0, Fraction(1, 2), 1, Fraction(3, 2))]
    reps += [tensor(half, irrep_sl2(1, qp))] + [vector_rep_gln(N, qp) for N in (2, 3, 4)]
    minus = Fraction(-1)
    for V in reps:
        sV = dual_rep(V)
        for i in range(V.spec.nsimple):
            Kinv_e = linalg.mat_mul(V.K_mat(i, -1), V.e[i])
            f_K = linalg.mat_mul(V.f[i], V.K_mat(i))
            assert typed(sV.e[i]) == typed(transpose(linalg.mat_scale(Kinv_e, minus)))
            assert typed(sV.f[i]) == typed(transpose(linalg.mat_scale(f_K, minus)))


@pytest.mark.parametrize("a, b", [(1, 3), (2, 3), (3, 2), (4, 4)])
def test_flip_is_conjugation_by_the_flip_permutation(a, b):
    # P: e_i (x) e_j -> e_j (x) e_i, written out; its inverse is its transpose
    d = a * b
    P = [[Fraction(0)] * d for _ in range(d)]
    for i in range(a):
        for j in range(b):
            P[j * a + i][i * b + j] = Fraction(1)
    Pinv = transpose(P)
    rng = random.Random(f"flip-{a}-{b}")
    x = RatFunc.x()
    for entry in (lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 5)),
                  lambda: x * rng.randint(-2, 2) + rng.randint(-2, 2)):
        M = [[entry() for _ in range(d)] for _ in range(d)]
        F = flip(M, a, b)
        assert F == linalg.mat_mul(P, linalg.mat_mul(M, Pinv))
        assert all(type(v) is type(M[0][0]) for row in F for v in row)
        assert flip(F, b, a) == M


# References for the root data, kept from before AlgebraSpec read its kind
# once: the per-kind methods, Lambda.simple and root_qpow2, and the Serre
# relations written by adjacency.

QVALS = ["4", "2", "1/3", "classical"]


def parse_qval(qval):
    return QParam(1) if qval == "classical" else QParam(Fraction(qval))


def all_specs(qp):
    return [AlgebraSpec("sl2", 1, qp)] + [AlgebraSpec("gln", N, qp) for N in (2, 3, 4)]


def reference_nsimple(spec):
    return 1 if spec.kind == "sl2" else spec.n - 1


def reference_ncoords(spec):
    return 1 if spec.kind == "sl2" else spec.n


def reference_simple_root(spec, i):
    if spec.kind == "sl2":
        return (2,)
    r = [0] * spec.n
    r[i], r[i + 1] = 1, -1
    return tuple(r)


def reference_cartan_int(spec, i, mu):
    if spec.kind == "sl2":
        return mu[0]
    return mu[i] - mu[i + 1]


def reference_pairing2(spec, mu, nu):
    if spec.kind == "sl2":
        return mu[0] * nu[0]  # (mu,nu) = m n / 2
    return 2 * sum(a * b for a, b in zip(mu, nu))


def reference_rho2(spec):
    if spec.kind == "sl2":
        return (2,)
    return tuple(spec.n + 1 - 2 * a for a in range(1, spec.n + 1))


def reference_lambda_simple(lam, i):
    return lam.coords[0] if lam.spec.kind == "sl2" else lam.pair(i, i + 1)


def reference_root_qpow2(lam, beta):
    c = lam.coords
    if lam.spec.kind == "sl2":
        return c[0] ** beta[0]
    out = lam.one()
    for a, b in zip(c, beta):
        if b:
            out *= a ** (2 * b)
    return out


def reference_serre_relations(r, qnum2):
    rels = []
    for i in range(r):
        for j in range(r):
            if i == j:
                continue
            if abs(i - j) >= 2:
                rels.append((((i, j), (j, i)), (Fraction(1), Fraction(-1))))
            else:
                rels.append((
                    ((i, i, j), (i, j, i), (j, i, i)),
                    (Fraction(1), -qnum2, Fraction(1)),
                ))
    return rels


def typed_value(x):
    """x with the types of its entries, nested through tuples."""
    return tuple(typed_value(y) for y in x) if isinstance(x, tuple) else (type(x), x)


@pytest.mark.parametrize("qval", QVALS)
def test_root_data_matches_the_per_kind_references(qval):
    qp = parse_qval(qval)
    for spec in all_specs(qp):
        rng = random.Random(f"root-data-{spec.kind}-{spec.n}-{qval}")
        assert typed_value(spec.nsimple) == typed_value(reference_nsimple(spec))
        assert typed_value(spec.ncoords) == typed_value(reference_ncoords(spec))
        assert typed_value(spec.rho2) == typed_value(reference_rho2(spec))
        weights = list(itertools.product(range(-3, 4), repeat=spec.ncoords))
        for i in range(spec.nsimple):
            assert typed_value(spec.simple_root(i)) == typed_value(reference_simple_root(spec, i))
            for mu in weights:
                assert typed_value(spec.cartan_int(i, mu)) == typed_value(
                    reference_cartan_int(spec, i, mu))
        for _ in range(200):
            mu, nu = rng.choice(weights), rng.choice(weights)
            assert typed_value(spec.pairing2(mu, nu)) == typed_value(reference_pairing2(spec, mu, nu))
        got = tuple(spec.serre_relations())
        want = tuple(reference_serre_relations(spec.nsimple, qp.qnum(2)))
        assert typed_value(got) == typed_value(want)
        assert typed_value(spec.qnum2) == typed_value(qp.qnum(2))
        # equality and hashing read kind, n and qp alone, also after the
        # derived data above have been read
        twin = AlgebraSpec(spec.kind, spec.n, parse_qval(qval))
        assert twin == spec and hash(twin) == hash(spec)
        others = [AlgebraSpec(spec.kind, spec.n, parse_qval(q)) for q in QVALS if q != qval]
        others += [o for o in all_specs(qp) if (o.kind, o.n) != (spec.kind, spec.n)]
        assert all(other != spec for other in others)


def symbolic_lambdas(spec):
    """Lambda.symbolic where it exists, and RatFunc coordinates for gl3 and gl4."""
    if spec.kind == "sl2" or spec.n == 2:
        return [Lambda.symbolic(spec)]
    x = RatFunc.x()
    return [Lambda(spec, tuple(x * (a + 2) + a + 1 for a in range(spec.n)))]


@pytest.mark.parametrize("qval", QVALS)
def test_lambda_reads_the_coroot_like_the_per_kind_references(qval):
    qp = parse_qval(qval)
    for spec in all_specs(qp):
        rng = random.Random(f"lambda-coroot-{spec.kind}-{spec.n}-{qval}")
        lams = [Lambda.sample(spec, seed) for seed in range(3)] + symbolic_lambdas(spec)
        betas = [tuple(sum(n * a for n, a in zip(ns, col))
                       for col in zip(*(spec.simple_root(i) for i in range(spec.nsimple))))
                 for ns in itertools.product(range(-1, 2), repeat=spec.nsimple)]
        for lam in lams:
            mu = tuple(rng.randint(-3, 3) for _ in range(spec.ncoords))
            for lm in (lam, lam.shifted(mu)):
                for i in range(spec.nsimple):
                    assert typed_value(lm.simple(i)) == typed_value(reference_lambda_simple(lm, i))
                if not qp.classical:
                    for beta in betas:
                        assert typed_value(lm.root_qpow2(beta)) == typed_value(
                            reference_root_qpow2(lm, beta))


@pytest.mark.parametrize("qval", QVALS)
def test_chevalley_residuals_vanish_on_the_reference_reps(qval):
    # the reps the Chevalley and Serre checks above run on, at every q
    qp = parse_qval(qval)
    half, one = irrep_sl2(Fraction(1, 2), qp), irrep_sl2(1, qp)
    g3, g4 = vector_rep_gln(3, qp), vector_rep_gln(4, qp)
    for V in (half, tensor(half, one), dual_rep(one), g3, dual_rep(g3), tensor(g3, g3), g4):
        assert all_zero(chevalley_residuals(V)), V.name


# Reference for generate_subrep, kept from before its f-images skipped zero
# products: each f-image is the dense mat-vec.


def reference_generate_subrep(T, hw, name=""):
    span = linalg.Echelon(T.dim, [hw])
    frontier = [hw]
    order = [list(hw)]
    while frontier:
        new = []
        for v in frontier:
            for i in range(T.spec.nsimple):
                img = [sum(T.f[i][r][c] * v[c] for c in range(T.dim)) for r in range(T.dim)]
                if any(x != 0 for x in img) and span.add(img):
                    new.append(img)
                    order.append(img)
        frontier = new
    dimU = len(order)
    tau = [[order[k][r] for k in range(dimU)] for r in range(T.dim)]
    es, fs = [], []
    for i in range(T.spec.nsimple):
        es.append(linalg.solve_linear(tau, linalg.mat_mul(T.e[i], tau)))
        fs.append(linalg.solve_linear(tau, linalg.mat_mul(T.f[i], tau)))
    weights, zdeg = [], []
    for v in order:
        sup = next(c for c in range(T.dim) if v[c] != 0)
        weights.append(T.weights[sup])
        zdeg.append(T.zdeg[sup])
    return weights, zdeg, es, fs, tau


@pytest.mark.parametrize("qval", ["4", "3", "1/3", "classical"])
def test_generate_subrep_matches_the_dense_reference(qval):
    qp = parse_qval(qval)
    spins = [Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    pairs = [(irrep_sl2(a, qp), irrep_sl2(b, qp)) for a in spins for b in spins]
    g3 = vector_rep_gln(3, qp)
    pairs += [(g3, g3), (g3, dual_rep(g3))]
    for V, W in pairs:
        T = tensor(V, W)
        for hw in highest_weight_vectors(T):
            U, tau = generate_subrep(T, hw)
            weights, zdeg, es, fs, ref_tau = reference_generate_subrep(T, hw)
            assert (U.weights, U.zdeg) == (weights, zdeg)
            assert [typed(M) for M in U.e + U.f + [tau]] == [typed(M) for M in es + fs + [ref_tau]]
