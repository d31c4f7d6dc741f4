import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynrx import exchange, linalg
from dynrx.exchange import exchange_matrix, fusion_inverse, fusion_matrix, invert_unipotent
from dynrx.lam import Lambda
from dynrx.liealg import flip, irrep_sl2, universal_r, vector_rep_gln
from dynrx.linalg import mat_mul, row_reduce_basis
from dynrx.scalars import Poly, QParam, RatFunc


def naive_mul(A, B, zero):
    return [[sum((A[i][r] * B[r][c] for r in range(len(B))), zero) for c in range(len(B[0]))]
            for i in range(len(A))]


def random_fractions(rng, n, m, density):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if rng.random() < density
             else Fraction(0) for _ in range(m)] for _ in range(n)]


def random_ratfuncs(rng, n, m, density):
    def entry():
        if rng.random() >= density:
            return RatFunc.const(0)
        num = Poly.of(*(rng.randint(-3, 3) for _ in range(3)))
        den = Poly.of(rng.randint(1, 3), rng.randint(-2, 2))
        return RatFunc.make(num, den)
    return [[entry() for _ in range(m)] for _ in range(n)]


SHAPES = [(5, 5, 5), (3, 7, 4), (1, 6, 1), (4, 1, 5), (6, 2, 3)]


@pytest.mark.parametrize("n, k, m", SHAPES)
@pytest.mark.parametrize("density", [0.2, 0.6, 1.0])
def test_mat_mul_fractions_match_naive(n, k, m, density):
    rng = random.Random(f"{n}{k}{m}{density}")
    for _ in range(5):
        A = random_fractions(rng, n, k, density)
        B = random_fractions(rng, k, m, density)
        C = mat_mul(A, B)
        assert C == naive_mul(A, B, Fraction(0))
        assert all(type(x) is Fraction for row in C for x in row)


@pytest.mark.parametrize("n, k, m", SHAPES)
def test_mat_mul_ratfuncs_match_naive(n, k, m):
    rng = random.Random(f"rf{n}{k}{m}")
    A = random_ratfuncs(rng, n, k, 0.5)
    B = random_ratfuncs(rng, k, m, 0.5)
    F = random_fractions(rng, n, k, 0.5)
    for X, Y in ((A, B), (F, B)):
        C = mat_mul(X, Y)
        assert C == naive_mul(X, Y, RatFunc.const(0))
        assert all(type(x) is RatFunc for row in C for x in row)


def test_mat_mul_all_zero_product_stays_ratfunc():
    z, x = RatFunc.const(0), RatFunc.x()
    zeros = [[z, z], [z, z]]
    for A, B in (([[x, z], [z, x]], zeros), (zeros, [[x, x], [x, x]]),
                 ([[Fraction(3), Fraction(0)]], zeros), (zeros, zeros)):
        C = mat_mul(A, B)
        assert len(C) == len(A) and all(len(row) == 2 for row in C)
        assert all(type(v) is RatFunc and not v for row in C for v in row)


def dense_row_reduce(vectors):
    """Reference: subtract each basis row over every column."""
    basis, pivcols = [], []
    for v in vectors:
        w = list(v)
        for b, pc in zip(basis, pivcols):
            if w[pc]:
                c = w[pc]
                w = [x - c * y for x, y in zip(w, b)]
        pc = next((j for j, x in enumerate(w) if x), None)
        if pc is not None:
            basis.append([x / w[pc] for x in w])
            pivcols.append(pc)
    return basis, pivcols


def with_dependent_rows(rng, rows, zero):
    """rows, plus combinations of pairs of them and a zero row, shuffled."""
    out = list(rows)
    for _ in range(len(rows)):
        r1, r2 = rng.sample(rows, 2)
        c1, c2 = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(1, 3), rng.randint(1, 4))
        out.append([x * c1 + y * c2 for x, y in zip(r1, r2)])
    out.append([zero] * len(rows[0]))
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("n, m", [(4, 9), (8, 6), (12, 30)])
@pytest.mark.parametrize("density", [0.15, 0.4, 1.0])
def test_row_reduce_basis_fractions_match_dense(n, m, density):
    rng = random.Random(f"rr{n}{m}{density}")
    for _ in range(4):
        rows = with_dependent_rows(rng, random_fractions(rng, n, m, density), Fraction(0))
        basis, piv = row_reduce_basis(rows)
        assert (basis, piv) == dense_row_reduce(rows)
        assert all(type(x) is Fraction for row in basis for x in row)


def test_row_reduce_basis_ratfuncs_match_dense():
    rng = random.Random("rr-ratfunc")
    for _ in range(3):
        rows = with_dependent_rows(rng, random_ratfuncs(rng, 4, 6, 0.5), RatFunc.const(0))
        basis, piv = row_reduce_basis(rows)
        want_basis, want_piv = dense_row_reduce(rows)
        assert piv == want_piv and basis == want_basis
        assert all(type(x) is RatFunc for row in basis for x in row)


# ---------------------------------------------------------------------------
# solve_linear, mat_det and nullspace against definitions that use no
# elimination: A X = B by multiplication, det by the Leibniz sum, and A v = 0.


def nonzero_fraction(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))


def nonzero_ratfunc(rng):
    return RatFunc.make(Poly.of(rng.choice([-2, -1, 1, 2]), rng.randint(-2, 2)),
                        Poly.of(rng.randint(1, 3), rng.randint(-2, 2)))


KINDS = {
    "fraction": (Fraction(0), random_fractions, nonzero_fraction),
    "ratfunc": (RatFunc.const(0), random_ratfuncs, nonzero_ratfunc),
}


def full_column_rank(rng, kind, n, m, density):
    """An n x m matrix (n >= m) of rank m: a triangular block with a nonzero
    diagonal and random rows below it, with rows and columns shuffled."""
    zero, rand, nonzero = KINDS[kind]
    T = rand(rng, n, m, density)
    for i in range(m):
        T[i][i] = nonzero(rng)
        for j in range(i + 1, m):
            T[i][j] = zero
    rng.shuffle(T)
    cols = list(range(m))
    rng.shuffle(cols)
    return [[row[c] for c in cols] for row in T]


def entry_type(kind):
    return Fraction if kind == "fraction" else RatFunc


SOLVE_SHAPES = [(1, 1, 1), (3, 3, 2), (4, 4, 1), (6, 3, 2), (5, 2, 3)]


@pytest.mark.parametrize("n, m, k", SOLVE_SHAPES)
@pytest.mark.parametrize("density", [0.3, 1.0])
def test_solve_linear_fractions(n, m, k, density):
    rng = random.Random(f"solve{n}{m}{k}{density}")
    for _ in range(6):
        A = full_column_rank(rng, "fraction", n, m, density)
        X = random_fractions(rng, m, k, density)
        B = naive_mul(A, X, Fraction(0))
        got = linalg.solve_linear(A, B)
        assert got == X
        assert all(type(x) is Fraction for row in got for x in row)


@pytest.mark.parametrize("n, m, k", [(2, 2, 1), (3, 3, 2), (4, 2, 1)])
@pytest.mark.parametrize("density", [0.4, 1.0])
def test_solve_linear_ratfuncs(n, m, k, density):
    rng = random.Random(f"solve-rf{n}{m}{k}{density}")
    for _ in range(2):
        A = full_column_rank(rng, "ratfunc", n, m, density)
        X = random_ratfuncs(rng, m, k, density)
        B = naive_mul(A, X, RatFunc.const(0))
        got = linalg.solve_linear(A, B)
        assert got == X
        assert all(type(x) is RatFunc for row in got for x in row)


@pytest.mark.parametrize("kind", ["fraction", "ratfunc"])
def test_solve_linear_rejects_inconsistent_and_underdetermined(kind):
    rng = random.Random(f"solve-bad-{kind}")
    zero, rand, nonzero = KINDS[kind]
    for _ in range(3):
        A = full_column_rank(rng, kind, 4, 3, 0.5)
        B = naive_mul(A, rand(rng, 3, 2, 0.7), zero)
        # a repeated equation with a different right-hand side
        bad_B = B + [[B[0][0] + nonzero(rng), B[0][1]]]
        with pytest.raises(linalg.SingularMatrixError):
            linalg.solve_linear(A + [list(A[0])], bad_B)
        # more unknowns than independent equations: a repeated column
        wide = [row + [row[0]] for row in A]
        with pytest.raises(linalg.SingularMatrixError):
            linalg.solve_linear(wide, B)
        # fewer equations than unknowns
        with pytest.raises(linalg.SingularMatrixError):
            linalg.solve_linear(A[:2], B[:2])


def leibniz_det(A, zero):
    n = len(A)
    total = zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = zero + 1
        for i in range(n):
            term = term * A[i][perm[i]]
        total = total - term if inversions % 2 else total + term
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("density", [0.3, 0.7, 1.0])
def test_mat_det_fractions_match_leibniz(n, density):
    rng = random.Random(f"det{n}{density}")
    for _ in range(6):
        A = random_fractions(rng, n, n, density)
        det = linalg.mat_det(A)
        assert det == leibniz_det(A, Fraction(0))
        assert type(det) is Fraction


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mat_det_ratfuncs_match_leibniz(n):
    rng = random.Random(f"det-rf{n}")
    for density in (0.5, 1.0):
        A = random_ratfuncs(rng, n, n, density)
        det = linalg.mat_det(A)
        assert det == leibniz_det(A, RatFunc.const(0))
        assert type(det) is RatFunc


@pytest.mark.parametrize("kind", ["fraction", "ratfunc"])
def test_mat_det_singular_is_typed_zero(kind):
    rng = random.Random(f"det-singular-{kind}")
    zero, rand, _ = KINDS[kind]
    for n in (2, 3, 4):
        A = rand(rng, n, n, 1.0)
        for singular in (A[:-1] + [list(A[0])], A[:-1] + [[zero] * n],
                         [row[:-1] + [row[0] + row[0]] for row in A]):
            det = linalg.mat_det(singular)
            assert not det and type(det) is entry_type(kind)


def known_rank(rng, kind, n, m, r, density):
    """(A, free columns): A = L M with L an n x r matrix of rank r and M an r x m
    reduced echelon matrix whose pivot columns are a random r-subset."""
    zero, rand, _ = KINDS[kind]
    L = full_column_rank(rng, kind, n, r, density)
    pivots = sorted(rng.sample(range(m), r))
    M = rand(rng, r, m, density)
    for i, p in enumerate(pivots):
        for j in range(m):
            if j < p or j in pivots:
                M[i][j] = zero
        M[i][p] = zero + 1
    return naive_mul(L, M, zero), [j for j in range(m) if j not in pivots]


@pytest.mark.parametrize("kind, n, m, r", [
    ("fraction", 3, 5, 2), ("fraction", 5, 5, 3), ("fraction", 6, 4, 4),
    ("fraction", 2, 6, 1), ("fraction", 4, 4, 4), ("ratfunc", 3, 4, 2), ("ratfunc", 2, 3, 1),
])
@pytest.mark.parametrize("density", [0.4, 1.0])
def test_nullspace_spans_kernel_with_unit_free_columns(kind, n, m, r, density):
    rng = random.Random(f"null{kind}{n}{m}{r}{density}")
    zero = KINDS[kind][0]
    for _ in range(3 if kind == "fraction" else 1):
        A, free = known_rank(rng, kind, n, m, r, density)
        basis = linalg.nullspace(A)
        assert len(basis) == m - r == len(free)
        for fc, v in zip(free, basis):
            assert len(v) == m
            assert all(type(x) is entry_type(kind) for x in v)
            assert [v[c] for c in free] == [zero + (1 if c == fc else 0) for c in free]
            assert all(not row[0] for row in naive_mul(A, [[x] for x in v], zero))


# References: the dense kernels as they were before they skipped arithmetic on
# exact zeros.  The kernels must give every entry the same value and the same
# type (Fraction or RatFunc) as these.


def mat_is_zero(A):
    return not any(x for row in A for x in row)


def ref_mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def ref_mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def ref_mat_mul(A, B):
    m = len(B[0])
    B_nz = [[(c, b) for c, b in enumerate(row) if b] for row in B]
    out = []
    for Ai in A:
        acc = [None] * m
        for a, Br in zip(Ai, B_nz):
            if not Br or not a:
                continue
            for c, b in Br:
                s = acc[c]
                acc[c] = a * b if s is None else s + a * b
        out.append([Ai[0] * B[0][c] if s is None else s for c, s in enumerate(acc)])
    return out


def ref_invert_unipotent(J):
    """The Neumann series over whole matrices, from a Fraction identity."""
    one_mat = linalg.eye(len(J))
    N = ref_mat_sub(J, one_mat)
    out, P, sign = one_mat, N, -1
    while not mat_is_zero(P):
        out = ref_mat_add(out, [[x * Fraction(sign) for x in row] for row in P])
        P = ref_mat_mul(P, N)
        sign = -sign
    return out


def assert_same_entries(got, want):
    assert len(got) == len(want)
    for rg, rw in zip(got, want):
        assert len(rg) == len(rw)
        for g, w in zip(rg, rw):
            assert type(g) is type(w) and g == w, (g, w)


def kind_matrix(rng, kind, n, m, density):
    """Random sparse matrix: all Fraction, all RatFunc, or each entry of either type."""
    F = random_fractions(rng, n, m, density)
    R = random_ratfuncs(rng, n, m, density)
    pick = {"fraction": lambda: False, "ratfunc": lambda: True,
            "patch": lambda: rng.random() < 0.5}[kind]
    return [[r if pick() else f for f, r in zip(rf, rr)] for rf, rr in zip(F, R)]


def with_zero_lines(rng, M, rows=(), cols=()):
    """M with the given rows and columns replaced by zeros of random type."""
    def zero():
        return RatFunc.const(0) if rng.random() < 0.5 else Fraction(0)
    return [[zero() if i in rows or j in cols else x for j, x in enumerate(row)]
            for i, row in enumerate(M)]


KIND_PAIRS = [("fraction", "fraction"), ("ratfunc", "ratfunc"), ("fraction", "ratfunc"),
              ("ratfunc", "fraction"), ("patch", "patch"), ("patch", "fraction")]


@pytest.mark.parametrize("ka, kb", KIND_PAIRS)
@pytest.mark.parametrize("density", [0.3, 0.7])
def test_mat_mul_matches_reference_values_and_types(ka, kb, density):
    rng = random.Random(f"mul{ka}{kb}{density}")
    for n, k, m in SHAPES:
        for _ in range(2):
            A = kind_matrix(rng, ka, n, k, density)
            B = kind_matrix(rng, kb, k, m, density)
            cases = [(A, B),
                     (with_zero_lines(rng, A, cols={0}), B),  # zero first column of A
                     (A, with_zero_lines(rng, B, rows={0})),  # zero first row of B
                     (with_zero_lines(rng, A, rows={n - 1}, cols={k - 1}),
                      with_zero_lines(rng, B, rows={0}, cols={0, m - 1}))]
            for X, Y in cases:
                assert_same_entries(mat_mul(X, Y), ref_mat_mul(X, Y))


@pytest.mark.parametrize("ka, kb", KIND_PAIRS)
def test_mat_add_and_sub_match_reference_values_and_types(ka, kb):
    rng = random.Random(f"add{ka}{kb}")
    for n, m in [(4, 4), (3, 6), (1, 5), (6, 1)]:
        for density in (0.3, 0.8):
            A = with_zero_lines(rng, kind_matrix(rng, ka, n, m, density), rows={0})
            B = with_zero_lines(rng, kind_matrix(rng, kb, n, m, density), cols={0})
            for X, Y in ((A, B), (B, A), (A, A)):
                assert_same_entries(linalg.mat_add(X, Y), ref_mat_add(X, Y))
                assert_same_entries(linalg.mat_sub(X, Y), ref_mat_sub(X, Y))


def ref_kron(A, B):
    """kron as it was: each nonzero a of A times every entry of B."""
    n, m = len(A), len(A[0])
    p, q = len(B), len(B[0])
    out = linalg.zeros(n * p, m * q, A[0][0] - A[0][0])
    for i, j in itertools.product(range(n), range(m)):
        if A[i][j]:
            for r, c in itertools.product(range(p), range(q)):
                out[i * p + r][j * q + c] = A[i][j] * B[r][c]
    return out


def ref_echelon(m, vectors):
    """Echelon.add as it was: every entry of a kept row divided by its pivot.
    Returns (rows, pivot columns, pivot values)."""
    rows, pivcols, pivvals, supports = [], [], [], []
    for v in vectors:
        w = list(v)
        for b, pc, support in zip(rows, pivcols, supports):
            c = w[pc]
            if c:
                for j in support:
                    w[j] = w[j] - c * b[j]
        pc = next((j for j in range(m) if w[j]), None)
        if pc is None:
            continue
        p = w[pc]
        w = [x / p for x in w]
        rows.append(w)
        pivcols.append(pc)
        pivvals.append(p)
        supports.append([j for j, x in enumerate(w) if x])
    return rows, pivcols, pivvals


@pytest.mark.parametrize("ka, kb", KIND_PAIRS)
def test_kron_matches_reference_values_and_types(ka, kb):
    rng = random.Random(f"kron{ka}{kb}")
    for (n, m), (p, q) in [((2, 2), (2, 2)), ((3, 1), (2, 4)), ((1, 3), (3, 2))]:
        for density in (0.3, 0.8):
            A = with_zero_lines(rng, kind_matrix(rng, ka, n, m, density), rows={0})
            B = with_zero_lines(rng, kind_matrix(rng, kb, p, q, density), cols={0})
            for X, Y in ((A, B), (B, A)):
                assert_same_entries(linalg.kron(X, Y), ref_kron(X, Y))


@pytest.mark.parametrize("kind", ["fraction", "ratfunc", "patch"])
def test_echelon_rows_match_reference_values_and_types(kind):
    rng = random.Random(f"echelon{kind}")
    for n, m in [(4, 6), (6, 4), (8, 8)]:
        for density in (0.3, 0.8):
            M = with_zero_lines(rng, kind_matrix(rng, kind, n, m, density), cols={m - 1})
            rows = with_dependent_rows(rng, M, Fraction(0))
            ech = linalg.Echelon(m, rows)
            want_rows, want_piv, want_vals = ref_echelon(m, rows)
            assert ech.pivcols == want_piv
            assert_same_entries(ech.rows, want_rows)
            assert_same_entries([ech.pivvals], [want_vals])


def real_fusion_matrices():
    qp4 = QParam(4)
    out = []
    A, B = irrep_sl2(Fraction(1, 2), qp4), irrep_sl2(1, qp4)
    out.append(("sl2 1/2 (x) 1 sampled", A, B, fusion_matrix(A, B, Lambda.sample(A.spec, 5, 10))))
    for qp in (qp4, QParam(1)):
        W = vector_rep_gln(2, qp)
        out.append((f"gl2 symbolic q={qp.q}", W, W, fusion_matrix(W, W, Lambda.symbolic(W.spec))))
    W = vector_rep_gln(3, qp4)
    out.append(("gl3 V (x) V sampled", W, W, fusion_matrix(W, W, Lambda.sample(W.spec, 3, 10))))
    # first slots with three and four weights, so that N^2 and N^3 are nonzero
    A, B = irrep_sl2(1, qp4), irrep_sl2(Fraction(1, 2), qp4)
    out.append(("sl2 1 (x) 1/2 symbolic", A, B, fusion_matrix(A, B, Lambda.symbolic(A.spec))))
    A, B = irrep_sl2(Fraction(3, 2), qp4), irrep_sl2(1, qp4)
    out.append(("sl2 3/2 (x) 1 sampled", A, B, fusion_matrix(A, B, Lambda.sample(A.spec, 7, 10))))
    return out


def in_other_type(x):
    """A Fraction as a constant RatFunc; a RatFunc zero as Fraction(0)."""
    if isinstance(x, Fraction):
        return RatFunc.const(x)
    return x if x else Fraction(0)


def test_invert_unipotent_matches_reference_on_real_fusion_matrices():
    squares_zero = []
    for name, W, V, J in real_fusion_matrices():
        d = len(J)
        J = linalg.dense(J, d)
        # the same J with every other entry in the other type where that type can hold it
        mixed = [[in_other_type(x) if (r + c) % 2 else x for c, x in enumerate(row)]
                 for r, row in enumerate(J)]
        for M in (J, mixed):
            Ji = linalg.dense(invert_unipotent(linalg.rows(M), W, V), d)
            assert_same_entries(Ji, ref_invert_unipotent(M))
            assert linalg.mat_mul(M, Ji) == linalg.eye(d), name
        N = ref_mat_sub(J, linalg.eye(d))
        squares_zero.append(mat_is_zero(ref_mat_mul(N, N)))
    assert not all(squares_zero)  # the series is longer than 1 - N somewhere


def boundary_cases():
    """(W, V, lambda): sl2 1/2 (x) 1 and gl2 V (x) V, at a sampled and at the
    symbolic lambda, at q = 4, 1/4 and classically."""
    for q in (4, Fraction(1, 4), 1):
        qp = QParam(q)
        G = vector_rep_gln(2, qp)
        for W, V in ((irrep_sl2(Fraction(1, 2), qp), irrep_sl2(1, qp)), (G, G)):
            for lam in (Lambda.sample(W.spec, 2, 10), Lambda.symbolic(W.spec)):
                yield W, V, lam


def test_tables_give_the_entries_of_the_list_formulas():
    """The fusion, fusion_inverse and exchange tables hold row forms.  At the
    dense boundary every entry of J, J^-1 and R has the value and the type
    that the formulas on lists give: J as its builder makes it, J^-1 as the
    Neumann series over lists, and R = J^-1 R21 J21 as the row products of
    the lists J^-1 and flip(J)."""
    build = {"verma": exchange._fusion_verma, "abrr": exchange.fusion_matrix_abrr}
    for W, V, lam in boundary_cases():
        for method in ["verma"] if W.spec.qp.classical else ["verma", "abrr"]:
            d = W.dim * V.dim
            for X, Y in ((W, V), (V, W)):
                J = build[method](X, Y, lam)
                assert_same_entries(linalg.dense(fusion_matrix(X, Y, lam, method), d), J)
                assert_same_entries(linalg.dense(fusion_inverse(X, Y, lam, method), d),
                                    ref_invert_unipotent(J))
                R21 = linalg.rows(flip(universal_r(Y, X), Y.dim, X.dim))
                J21 = linalg.rows(flip(build[method](Y, X, lam), Y.dim, X.dim))
                Jinv = linalg.rows(ref_invert_unipotent(J))
                want = linalg.dense(linalg.row_mul(Jinv, linalg.row_mul(R21, J21)), d)
                assert_same_entries(linalg.dense(exchange_matrix(X, Y, lam, method), d), want)


def loop_mat_mul(A, B):
    """mat_mul as it was before its integer path: the nonzero pairs of any
    field type, with a no-term entry typed like A[i][0] * B[0][c]."""
    m = len(B[0])
    B_nz = [[(c, b) for c, b in enumerate(row) if b] for row in B]
    zero_rows = {}
    out = []
    for Ai in A:
        acc = [None] * m
        for a, Br in zip(Ai, B_nz):
            if not Br or not a:
                continue
            for c, b in Br:
                s = acc[c]
                acc[c] = a * b if s is None else s + a * b
        zr = zero_rows.get(type(Ai[0]))
        if zr is None:
            za = Ai[0] - Ai[0]
            zr = zero_rows[type(Ai[0])] = [za * b for b in B[0]]
        out.append([z if s is None else s for s, z in zip(acc, zr)])
    return out


# Sparse Fractions: mostly zero, either sign, denominators up to 10^12.
sparse_fraction = st.one_of(
    st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 12)))

# Sparse RatFuncs: mostly zero, (a + b x) / (c + d x) with small coefficients.
sparse_ratfunc = st.one_of(
    st.just(RatFunc.const(0)), st.just(RatFunc.const(0)), st.just(RatFunc.const(0)),
    st.builds(lambda a, b, c, d: RatFunc.make(Poly.of(a, b), Poly.of(c, d)),
              st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3), st.integers(-2, 2)))

OPERAND_KINDS = {
    "fraction": sparse_fraction,
    "ratfunc": sparse_ratfunc,
    "mixed": st.one_of(sparse_fraction, sparse_ratfunc),
}


def sparse_matrix(draw, rows, cols, kinds=tuple(OPERAND_KINDS)):
    """A rows x cols matrix of one of kinds (all Fraction, all RatFunc or
    mixed), with some rows and columns made all zero, in zeros of either type
    unless all Fraction."""
    kind = draw(st.sampled_from(kinds))
    M = draw(st.lists(st.lists(OPERAND_KINDS[kind], min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    zero = st.just(Fraction(0)) if kind == "fraction" else st.sampled_from(
        [Fraction(0), RatFunc.const(0)])
    zr = draw(st.sets(st.integers(0, rows - 1), max_size=rows))
    zc = draw(st.sets(st.integers(0, cols - 1), max_size=cols))
    return [[draw(zero) if i in zr or j in zc else x for j, x in enumerate(row)]
            for i, row in enumerate(M)]


@st.composite
def sparse_pair(draw, kinds):
    """(A, B) with A n x k and B k x m (1 x 1, 1 x n and n x 1 shapes
    included), each of a kind drawn from kinds."""
    n, k, m = (draw(st.integers(1, 6)) for _ in range(3))
    return sparse_matrix(draw, n, k, kinds), sparse_matrix(draw, k, m, kinds)


@st.composite
def same_shape_pair(draw):
    """(A, B) of one shape, B agreeing with A on a drawn set of entries."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    A, B = sparse_matrix(draw, n, m), sparse_matrix(draw, n, m)
    same = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))))
    return A, [[A[i][j] if (i, j) in same else x for j, x in enumerate(row)]
               for i, row in enumerate(B)]


def check_products(A, B):
    """mat_mul, the row product and the rows round trip against the loop."""
    want = loop_mat_mul(A, B)
    assert_same_entries(mat_mul(A, B), want)
    assert_same_entries(linalg.dense(linalg.row_mul(linalg.rows(A), linalg.rows(B)), len(B[0])),
                        want)
    assert_same_entries(linalg.dense(linalg.rows(A), len(A[0])), A)


@settings(max_examples=300, deadline=None)
@given(sparse_pair(["fraction"]))
def test_mat_mul_integer_path_matches_loop(pair):
    check_products(*pair)


@settings(max_examples=300, deadline=None)
@given(sparse_pair(sorted(OPERAND_KINDS)))
def test_row_mul_matches_loop_on_every_operand_kind(pair):
    check_products(*pair)


@settings(max_examples=200, deadline=None)
@given(same_shape_pair())
def test_row_difference_and_comparison_match_dense(pair):
    A, B = pair
    Ar, Br = linalg.rows(A), linalg.rows(B)
    assert_same_entries(linalg.dense(linalg.rows_add(Ar, Br), len(A[0])), ref_mat_add(A, B))
    assert_same_entries(linalg.dense(linalg.rows_add(Ar, Br, -1), len(A[0])), ref_mat_sub(A, B))
    want = [(r, c, x, y) for r, (ra, rb) in enumerate(zip(A, B))
            for c, (x, y) in enumerate(zip(ra, rb)) if x != y]
    got = list(linalg.differences(Ar, Br))
    assert got == want
    assert [tuple(map(type, d)) for d in got] == [tuple(map(type, d)) for d in want]
    assert next(linalg.differences(Ar, Ar), None) is None


def transpose_slot(M, n):
    """Transpose the n x n grid of blocks of the dense M, leaving each block
    as it is: the reference for `transpose_blocks`."""
    k = len(M) // n
    return [[M[c // k * k + r % k][r // k * k + c % k] for c in range(len(M))]
            for r in range(len(M))]


@st.composite
def block_grid(draw):
    """(M, n): M square with an n x n grid of square blocks."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return sparse_matrix(draw, n * k, n * k), n


@settings(max_examples=100, deadline=None)
@given(block_grid())
def test_transpose_blocks_matches_dense(grid):
    M, n = grid
    assert_same_entries(linalg.dense(linalg.transpose_blocks(linalg.rows(M), n), len(M)),
                        transpose_slot(M, n))


@st.composite
def square_matrix(draw):
    k = draw(st.integers(1, 5))
    return sparse_matrix(draw, k, k)


@settings(max_examples=100, deadline=None)
@given(square_matrix())
def test_support_and_place_match_dense(A):
    """support lists a row's nonzero columns; place at index 2i and offsets 0,
    1 puts entry (i, j) of A at (2i + off, 2j + off) and zeros elsewhere."""
    k = len(A)
    Ar = linalg.rows(A)
    assert [linalg.support(row) for row in Ar] == [[c for c, x in enumerate(row) if x]
                                                   for row in A]
    out = [None] * (2 * k)
    linalg.place(out, Ar, [2 * i for i in range(k)], [0, 1])
    placed, dA = linalg.dense(out, 2 * k), linalg.dense(Ar, k)
    for r, row in enumerate(placed):
        for c, x in enumerate(row):
            if r % 2 == c % 2:
                want = dA[r // 2][c // 2]
                assert x == want and type(x) is type(want)
            else:
                assert not x


def test_mat_mul_integer_path_only_for_all_fraction_operands(monkeypatch):
    """The integer kernel runs once per all-Fraction row of A, and only when
    every entry of B is a Fraction."""
    calls = []
    real = linalg._int_row_mul

    def counted(*args):
        calls.append(1)
        return real(*args)

    def all_fraction(row):
        return all(type(x) is Fraction for x in row)

    monkeypatch.setattr(linalg, "_int_row_mul", counted)
    rng = random.Random("paths")
    F = random_fractions(rng, 3, 3, 0.6)
    G = random_fractions(rng, 3, 3, 0.6)
    R = random_ratfuncs(rng, 3, 3, 0.6)
    patch = kind_matrix(rng, "patch", 3, 3, 0.6)
    ints = [[1, 0, Fraction(2, 3)], [0, -2, 0], [Fraction(0), 3, 1]]
    for X, Y in ((F, G), (F, R), (R, F), (patch, G), (F, patch), (ints, G), (F, ints),
                 (ints, ints)):
        calls.clear()
        assert_same_entries(mat_mul(X, Y), loop_mat_mul(X, Y))
        assert len(calls) == (sum(map(all_fraction, X)) if all(map(all_fraction, Y)) else 0)


def test_fraction_private_fields_equal_public_ones():
    # the integer path of mat_mul reads _numerator and _denominator directly
    for x in (Fraction(0), Fraction(-3, 4), Fraction(6, -8), Fraction(5), Fraction("7/21"),
              Fraction(1, 3) + Fraction(1, 6), Fraction(-2, 9) * Fraction(3, 4),
              Fraction(10 ** 20 + 1, 10 ** 13)):
        assert (x._numerator, x._denominator) == (x.numerator, x.denominator)
        assert type(x._numerator) is int and type(x._denominator) is int


@pytest.mark.parametrize("na, nb", [(6, 1), (6, 0), (1, 6), (0, 6)])
def test_operands_of_unequal_row_counts_raise(na, nb):
    """differences, rows_add, mat_add and mat_sub reject operands whose row
    counts differ; differences does so when called, before its first item,
    since the identity checks read only that item."""
    A, B = linalg.eye(na), linalg.eye(nb)
    Ar, Br = linalg.rows(A), linalg.rows(B)
    with pytest.raises(ValueError):
        linalg.differences(Ar, Br)
    for sign in (1, -1):
        with pytest.raises(ValueError):
            linalg.rows_add(Ar, Br, sign)
    for fn in (linalg.mat_add, linalg.mat_sub):
        with pytest.raises(ValueError):
            fn(A, B)


@settings(max_examples=100, deadline=None)
@given(square_matrix(), st.sets(st.integers(0, 4)))
def test_mask_and_eye_rows_match_dense(A, cols):
    """mask keeps the entries in the columns cols and makes every other entry
    a zero; eye_rows is the row form of eye."""
    k = len(A)
    got = linalg.dense(linalg.mask(linalg.rows(A), cols), k)
    for row, grow in zip(A, got):
        for c, (x, y) in enumerate(zip(row, grow)):
            assert (x == y and type(x) is type(y)) if c in cols else not y
    assert linalg.eye_rows(k) == linalg.rows(linalg.eye(k))
