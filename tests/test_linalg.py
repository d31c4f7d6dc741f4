import random
from fractions import Fraction

import pytest

from dynrx.linalg import mat_mul
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
