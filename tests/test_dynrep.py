from fractions import Fraction

import pytest

from dynrx import linalg
from dynrx.dynrep import (
    _bad_blocks,
    antipode_generator,
    compose,
    pi_generator,
    verify_antipode,
    verify_coproduct_compat,
    verify_product_relation,
    verify_rll,
)
from dynrx.exchange import (Report, exchange_matrix, kmat, kprime, r00_block, verify_cocycle,
                            verify_qdyb)
from dynrx.lam import Lambda
from dynrx.liealg import cg_decompose, irrep_sl2, tensor, trivial_rep, vector_rep_gln
from dynrx.scalars import RatFunc


def sampled(spec, seed, bits=8):
    return Lambda.sample(spec, seed, bits)


def mat_is_zero(A):
    return not any(x for row in A for x in row)


def op_rows(op):
    """The operator {shift: dense matrix} in the row form of `linalg`."""
    return {b: linalg.rows(M) for b, M in op.items()}


def ops_equal(A, B, m):
    """Operators {shift: row form with m columns} are equal: every shift's
    coefficients agree."""
    A, B = ({b: linalg.dense(M, m) for b, M in op.items()} for op in (A, B))
    for b in A.keys() | B.keys():
        if b in A and b in B:
            if A[b] != B[b]:
                return False
        elif not mat_is_zero(A[b] if b in A else B[b]):
            return False
    return True


def diag(entries):
    return [[x if r == c else Fraction(0) for c in range(len(entries))]
            for r, x in enumerate(entries)]


def test_bad_blocks_compares_entries_and_one_sided_shifts():
    # 2 x 2 grid of 2 x 2 blocks; a shift on one side only counts against zero
    eye, zero = linalg.eye(4), [[Fraction(0)] * 4 for _ in range(4)]

    def with_entry(M, r, c, v):
        M = [row[:] for row in M]
        M[r][c] = v
        return M

    def bad(A, B):
        return _bad_blocks(op_rows(A), op_rows(B), 2)

    assert bad({}, {}) == [] and bad({(0,): eye}, {(0,): eye}) == []
    assert bad({(0,): eye}, {(0,): with_entry(eye, 1, 2, Fraction(5))}) == [(0, 1)]
    assert bad({(0,): eye, (2,): zero}, {(0,): eye}) == []
    off = with_entry(with_entry(zero, 3, 0, Fraction(1)), 0, 3, Fraction(-2))
    assert bad({(0,): eye, (2,): off}, {(0,): eye}) == [(0, 1), (1, 0)]
    assert bad({(0,): eye}, {(0,): eye, (-2,): off}) == [(0, 1), (1, 0)]
    assert bad({(2,): off}, {(-2,): off}) == [(0, 1), (1, 0)]


def loop_bad_blocks(A, B, n):
    """_bad_blocks as it was on dense operators: every pair compared, zeros
    included."""
    if not (A or B):
        return
    d = len(next(iter((A or B).values())))
    zero = [[0] * d] * d
    pairs = [(A.get(b, zero), B.get(b, zero)) for b in A.keys() | B.keys()]
    k = d // n
    for r in range(n):
        for c in range(n):
            if any(X[i][j] != Y[i][j] for X, Y in pairs
                   for i in range(r * k, r * k + k) for j in range(c * k, c * k + k)):
                yield r, c


def test_bad_blocks_matches_loop():
    sym = RatFunc.x()
    base = [[Fraction(0)] * 4 for _ in range(4)]
    base[0][1], base[2][2], base[3][0] = Fraction(3, 4), sym, Fraction(-1)

    def with_entry(M, r, c, v):
        M = [row[:] for row in M]
        M[r][c] = v
        return M

    cases = [
        ({(0,): base}, {(0,): [row[:] for row in base]}, []),  # equal
        ({(0,): base}, {(0,): with_entry(base, 1, 2, Fraction(5))}, [(0, 1)]),  # zero, nonzero
        ({(0,): with_entry(base, 3, 3, Fraction(2))}, {(0,): base}, [(1, 1)]),  # nonzero, zero
        ({(0,): base}, {(0,): with_entry(base, 0, 1, Fraction(1, 4))}, [(0, 0)]),  # two nonzeros
        ({(0,): base}, {(0,): with_entry(base, 1, 0, RatFunc.const(0))}, []),  # RatFunc zero
        # a shift on one side only, against the other side's zero blocks
        ({(0,): with_entry(base, 1, 3, RatFunc.const(0))}, {(0,): base, (2,): base},
         [(0, 0), (1, 0), (1, 1)]),
        # an integer row (row 0 of base) against a RatFunc row of equal values, and of
        # one value that differs
        ({(0,): base}, {(0,): with_entry(base, 0, 3, RatFunc.const(0))}, []),
        ({(0,): base}, {(0,): with_entry(base, 0, 1, RatFunc.const(Fraction(3, 4)))}, []),
        ({(0,): with_entry(base, 0, 2, RatFunc.const(1))}, {(0,): base}, [(0, 1)]),
        ({(0,): base}, {(0,): with_entry(base, 0, 1, sym)}, [(0, 0)]),
    ]
    for A, B, want in cases:
        assert _bad_blocks(op_rows(A), op_rows(B), 2) == list(loop_bad_blocks(A, B, 2)) == want


def test_diffop_composition_shifts(qp4):
    # (f T_b)(g T_d) = f g(.-b) T_{b+d}: check against hand substitution
    V = irrep_sl2(Fraction(1, 2), qp4)
    lam = sampled(V.spec, 0)

    def fco(lh):
        return diag([lh.simple(0), Fraction(1)])

    C = compose({(2,): linalg.rows(fco(lam))}, lambda lh: {(-2,): linalg.rows(fco(lh))}, lam)
    assert set(C) == {(0,)}
    got = linalg.dense(C[(0,)], 2)
    x = lam.simple(0)
    xs = lam.shifted((2,)).simple(0)
    assert got[0][0] == x * xs and got[1][1] == 1
    assert got[0][1] == got[1][0] == 0


def test_diffop_associativity(qp4):
    V = irrep_sl2(Fraction(1, 2), qp4)
    U = irrep_sl2(1, qp4)
    lam = sampled(V.spec, 1)

    def L(lh):
        return pi_generator(V, U, lh)

    lhs = compose(compose(L(lam), L, lam), L, lam)
    rhs = compose(L(lam), lambda lh: compose(L(lh), L, lh), lam)
    assert ops_equal(lhs, rhs, V.dim * U.dim)


def test_bigrading_relations(qp4):
    # f(lambda^1) L_ab = L_ab f(lambda^1 + wt a) and f(lambda^2) L_ab = L_ab f(lambda^2 + wt b)
    V = irrep_sl2(Fraction(1, 2), qp4)
    U = irrep_sl2(1, qp4)
    lam = sampled(V.spec, 2)
    dU, n = U.dim, V.dim * U.dim
    L = pi_generator(V, U, lam)

    def f(lh):
        return lh.simple(0) + 3  # an arbitrary rational function of lambda

    def up(lh, wt):  # lambda + wt
        return lh.shifted(tuple(-x for x in wt))

    def f_h(lh):  # f(lambda^1) on V (x) U: f(lambda - h^(U)), weight-diagonal in U
        return diag([f(lh.shifted(U.weights[i % dU])) for i in range(n)])

    lhs = {b: linalg.row_mul(linalg.rows(f_h(lam)), M) for b, M in L.items()}
    for a, alpha in enumerate(V.weights):
        # the shift by wt a depends on the row a, so compare the rows of block row a
        rhs = compose(L, lambda lh: {(0,): linalg.rows(f_h(up(lh, alpha)))}, lam)
        rows = slice(a * dU, (a + 1) * dU)
        assert ops_equal({b: M[rows] for b, M in lhs.items()},
                         {b: M[rows] for b, M in rhs.items()}, n), (a, "lambda1")
    for b, M in L.items():
        # the shift of L_ab is wt b, the key of its coefficient
        rhs2 = compose({b: M}, lambda lh: {(0,): linalg.rows(
            linalg.mat_scale(linalg.eye(n), f(up(lh, b))))}, lam)
        scaled = linalg.rows(linalg.mat_scale(linalg.dense(M, n), f(lam)))
        assert ops_equal({b: scaled}, rhs2, n), (b, "lambda2")


def test_counit_is_pi_trivial(qp4):
    # the counit: L_ab -> delta_ab T^{-1}_{wt b}, on V (x) C
    V = irrep_sl2(1, qp4)
    triv = trivial_rep(V.spec)
    lam = sampled(V.spec, 3)
    counit = {beta: diag([Fraction(w == beta) for w in V.weights]) for beta in V.weights}
    assert ops_equal(pi_generator(V, triv, lam), op_rows(counit), V.dim)


def test_trivial_v_is_unit(qp4):
    U = irrep_sl2(Fraction(1, 2), qp4)
    T = trivial_rep(U.spec)
    lam = sampled(U.spec, 4)
    assert ops_equal(pi_generator(T, U, lam), op_rows({(0,): linalg.eye(U.dim)}), U.dim)


@pytest.mark.parametrize("case", ["sl2-half", "sl2-one", "gl2"])
def test_relations(case, qp4):
    if case == "sl2-half":
        V = W = U = irrep_sl2(Fraction(1, 2), qp4)
    elif case == "sl2-one":
        V = irrep_sl2(Fraction(1, 2), qp4)
        W = U = irrep_sl2(1, qp4)
    else:
        V = W = U = vector_rep_gln(2, qp4)
    lams = [sampled(V.spec, s) for s in range(3)]
    assert verify_rll(V, W, U, lams).passed
    assert verify_product_relation(V, W, U, lams).passed
    assert verify_coproduct_compat(V, W, U, lams).passed
    assert verify_antipode(V, U, lams).passed


def test_rll_trivial_u_reduces_to_counit(qp4):
    V = W = irrep_sl2(Fraction(1, 2), qp4)
    T = trivial_rep(V.spec)
    lams = [sampled(V.spec, 9)]
    assert verify_rll(V, W, T, lams).passed


def test_product_trivial_v(qp4):
    # V trivial: both sides are (L^W)^{13}
    W = irrep_sl2(Fraction(1, 2), qp4)
    T = trivial_rep(W.spec)
    lams = [sampled(W.spec, 10)]
    assert verify_product_relation(T, W, W, lams).passed


def test_antipode_via_kprime_matches(qp4):
    V = U = irrep_sl2(Fraction(1, 2), qp4)
    lam = sampled(V.spec, 11)
    A = antipode_generator(V, U, lam, lambda lh: kmat(V, lh), "verma")
    B = antipode_generator(V, U, lam, lambda lh: kprime(V, lh), "verma")
    assert ops_equal(A, B, V.dim * U.dim)


def morphism_rigidity_check(W, U, b, Vs, lams, method="verma"):
    """Necessary conditions for b(lambda): W -> U to be a morphism of dynamical
    representations: it intertwines the highest-component difference operators
    (forcing lambda-independence), and classically it intertwines the e/f
    action extracted from the first-order asymptotics."""
    rep = Report("morphism", {"W": W.name, "U": U.name})
    bmat = b if callable(b) else (lambda lh, b=b: b)
    for idx, lam in enumerate(lams):
        for V in Vs:
            top = max(range(V.dim), key=lambda i: V.zdeg[i])
            wt0 = V.weights[top]
            B1 = r00_block(V, W, lam, method)
            B2 = r00_block(V, U, lam, method)
            lhsM = linalg.mat_mul(bmat(lam), B1)
            rhsM = linalg.mat_mul(B2, bmat(lam.shifted(wt0)))
            if lhsM != rhsM:
                rep.fail(sample=idx, V=V.name, condition="L00 intertwining")
            # full generator-block intertwining (necessary for any morphism):
            # b(lambda) R^{V,W}_{ab}(lambda) = R^{V,U}_{ab}(lambda) b(lambda - wt_V(b))
            RW = linalg.dense(exchange_matrix(V, W, lam, method), V.dim * W.dim)
            RU = linalg.dense(exchange_matrix(V, U, lam, method), V.dim * U.dim)
            for a in range(V.dim):
                for bb in range(V.dim):
                    blkW = [[RW[a * W.dim + y][bb * W.dim + x] for x in range(W.dim)]
                            for y in range(W.dim)]
                    blkU = [[RU[a * U.dim + y][bb * U.dim + x] for x in range(U.dim)]
                            for y in range(U.dim)]
                    lhsM = linalg.mat_mul(bmat(lam), blkW)
                    rhsM = linalg.mat_mul(blkU, bmat(lam.shifted(V.weights[bb])))
                    if lhsM != rhsM:
                        rep.fail(sample=idx, V=V.name, block=(a, bb),
                                 condition="generator-block intertwining")
                        break
                else:
                    continue
                break
    if W.spec.qp.classical:
        for i in range(W.spec.nsimple):
            for X_W, X_U, nm in ((W.e[i], U.e[i], "e"), (W.f[i], U.f[i], "f")):
                lhsM = linalg.mat_mul(bmat(lams[0]), X_W)
                rhsM = linalg.mat_mul(X_U, bmat(lams[0]))
                if lhsM != rhsM:
                    rep.fail(condition=f"classical {nm}-intertwining", index=i)
    return rep


def test_morphism_rigidity(qp4, qpc):
    for qp in (qp4, qpc):
        A = irrep_sl2(Fraction(1, 2), qp)
        T = tensor(A, A)
        lams = [sampled(A.spec, s) for s in range(2)]
        Vs = [A]
        assert morphism_rigidity_check(T, T, linalg.eye(T.dim), Vs, lams).passed
        U3, tau, taubar = next(s for s in cg_decompose(A, A) if s[0].dim == 3)
        proj = linalg.mat_mul(tau, taubar)
        assert morphism_rigidity_check(T, T, proj, Vs, lams).passed
        bad = [[Fraction(1 if (r, c) == (0, 0) else 0) for c in range(T.dim)]
               for r in range(T.dim)]
        assert not morphism_rigidity_check(T, T, bad, Vs, lams).passed


def _corrupted(fn, row_form):
    """fn returning a copy with its last nonzero entry (row-major order) raised
    by 1; row_form says fn returns a row form, not lists."""
    def wrapped(*args):
        M = fn(*args)
        M = linalg.dense(M, len(M)) if row_form else [list(row) for row in M]
        r, c = [(r, c) for r, row in enumerate(M) for c, x in enumerate(row) if x != 0][-1]
        M[r][c] += 1
        return linalg.rows(M) if row_form else M
    return wrapped


def _relation_failures(qp):
    V, W, U = irrep_sl2(Fraction(1, 2), qp), irrep_sl2(1, qp), irrep_sl2(1, qp)
    lams = [sampled(V.spec, s) for s in range(2)]
    reports = (verify_rll(V, W, U, lams), verify_product_relation(V, W, U, lams),
               verify_coproduct_compat(V, W, U, lams), verify_antipode(V, U, lams))
    return [r.to_json()["failures"] for r in reports]


def _samples(**rec):
    return [dict(sample=s, **rec) for s in range(2)]


# Failure records under a one-entry corruption, captured on the closure-based
# implementation: a rewrite must name the same first failing generator block
# (row-major), the same per-(a, c) coproduct records and the same order labels.
@pytest.mark.parametrize("name, want", [
    ("exchange_matrix", [
        _samples(entry=(1, 3)),
        _samples(entry=(1, 1)),
        [dict(sample=s, entry=e) for s in range(2) for e in ((0, 1), (1, 0), (1, 1))],
        [dict(sample=s, order=o, entry=(1, 1)) for s in range(2) for o in ("L.SL", "SL.L")],
    ]),
    ("kprime", [[], [], [], _samples(order="K vs K'", entry=(0, 1))]),
])
def test_failure_records_under_corruption(name, want, qp4, monkeypatch):
    import dynrx.dynrep as dynrep

    row_form = name == "exchange_matrix"  # kprime, as the whole K family, is dense
    monkeypatch.setattr(dynrep, name, _corrupted(getattr(dynrep, name), row_form))
    assert _relation_failures(qp4) == want


@pytest.mark.parametrize("suite", ["rll", "product", "coproduct", "antipode"])
@pytest.mark.parametrize("method", ["verma", "abrr"])
def test_relation_suites_build_no_dense_triple_matrix(suite, method, qp4, no_dense_on):
    G = vector_rep_gln(2, qp4)
    lams = [sampled(G.spec, 3), Lambda.symbolic(G.spec)]
    verify = {"rll": verify_rll, "product": verify_product_relation,
              "coproduct": verify_coproduct_compat, "antipode": verify_antipode}[suite]
    args = (G, G) if suite == "antipode" else (G, G, G)
    assert verify(*args, lams, method).passed  # fills the memo tables
    no_dense_on(G.dim ** 3 if suite != "antipode" else G.dim ** 2)
    rep = verify(*args, lams, method)
    assert rep.passed and not rep.failures


# One entry outside the weight-zero pattern, R[0][-1] (top weight to bottom
# weight), raised by 1 on the 1/2 (x) 1 pair only.  The records were captured
# on the dense suites, which compared every entry of both sides; a check that
# skips entries by weight would lose them.
def test_relation_suites_report_an_entry_outside_the_weight_pattern(qp4, monkeypatch):
    import dynrx.dynrep as dynrep

    A, B = irrep_sl2(Fraction(1, 2), qp4), irrep_sl2(1, qp4)
    real = dynrep.exchange_matrix

    def leaking(V, W, *rest):
        M = real(V, W, *rest)
        if (V.key, W.key) == (A.key, B.key):
            M = linalg.dense(M, len(M))
            assert V.weights[0] != V.weights[-1] and not M[0][-1]  # off the weight-zero pattern
            M[0][-1] += 1
            M = linalg.rows(M)
        return M

    monkeypatch.setattr(dynrep, "exchange_matrix", leaking)
    lams = [sampled(A.spec, s) for s in range(2)] + [Lambda.symbolic(A.spec)]
    reports = (verify_rll(A, B, B, lams), verify_product_relation(A, B, B, lams),
               verify_coproduct_compat(A, B, B, lams), verify_antipode(A, B, lams))
    every = range(3)
    assert [r.failures for r in reports] == [
        [dict(sample=s, entry=(0, 1)) for s in every],
        [dict(sample=s, entry=(0, 1)) for s in every],
        [dict(sample=s, entry=e) for s in every for e in ((0, 0), (0, 1), (1, 1))],
        [dict(sample=s, order=o, entry=(0, 1)) for s in every for o in ("L.SL", "SL.L")],
    ]


@pytest.mark.parametrize("suite", ["cocycle", "qdyb", "rll", "product", "coproduct", "antipode"])
@pytest.mark.parametrize("method", ["verma", "abrr"])
def test_checks_convert_no_matrix_of_the_pair_or_triple_size(suite, method, qp4,
                                                             no_conversion_on):
    # the fusion, fusion_inverse and exchange tables hold row forms, and every
    # check reads them, places them and compares them in that form
    G = vector_rep_gln(2, qp4)
    lams = [sampled(G.spec, 3), Lambda.symbolic(G.spec)]
    verify = {"cocycle": verify_cocycle, "qdyb": verify_qdyb, "rll": verify_rll,
              "product": verify_product_relation, "coproduct": verify_coproduct_compat,
              "antipode": verify_antipode}[suite]
    args = (G, G) if suite == "antipode" else (G, G, G)
    assert verify(*args, lams, method).passed  # fills the memo tables
    no_conversion_on(G.dim ** 2, G.dim ** 3)
    rep = verify(*args, lams, method)
    assert rep.passed and not rep.failures


def test_antipode_with_an_identity_of_the_wrong_size_does_not_pass(qp4):
    # verify_antipode rebuilt with its identity on V.dim // U.dim rows, not on
    # V (x) U: the comparison of the products with that identity must not pass
    import inspect

    import dynrx.dynrep as dynrep

    source = inspect.getsource(dynrep.verify_antipode)
    assert source.count("V.dim * U.dim") == 1
    namespace = dict(vars(dynrep))
    exec(source.replace("V.dim * U.dim", "V.dim // U.dim"), namespace)
    mutant = namespace["verify_antipode"]
    half, G = irrep_sl2(Fraction(1, 2), qp4), vector_rep_gln(2, qp4)
    for V, U in ((half, half), (half, irrep_sl2(1, qp4)), (G, G)):
        lams = [sampled(V.spec, s) for s in range(2)]
        assert verify_antipode(V, U, lams).passed
        with pytest.raises(ValueError, match="row"):
            mutant(V, U, lams)
