import random
from fractions import Fraction

import pytest

from dynrx.linalg import is_zero_elem, mat_mul, row_reduce_basis
from dynrx.scalars import Poly, RatFunc


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
        assert all(type(v) is RatFunc and v.is_zero() for row in C for v in row)


def dense_row_reduce(vectors):
    """Reference: subtract each basis row over every column."""
    basis, pivcols = [], []
    for v in vectors:
        w = list(v)
        for b, pc in zip(basis, pivcols):
            if not is_zero_elem(w[pc]):
                c = w[pc]
                w = [x - c * y for x, y in zip(w, b)]
        pc = next((j for j, x in enumerate(w) if not is_zero_elem(x)), None)
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
