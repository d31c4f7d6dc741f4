import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynrx.lam import Lambda
from dynrx.liealg import AlgebraSpec
from dynrx.scalars import (
    Poly,
    PoleError,
    QParam,
    RatFunc,
    ScalarDivisionError,
    scalar_to_str,
)

fracs = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 20))


def ratfuncs(max_deg=3):
    coeffs = st.lists(fracs, min_size=0, max_size=max_deg + 1)
    def build(num, den):
        d = Poly.of(*den)
        if d.is_zero():
            d = Poly.of(1)
        return RatFunc.make(Poly.of(*num), d)
    return st.builds(build, coeffs, coeffs)


def test_field_ops_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    # (t^2 - 1)/(t - 1) normalizes to t + 1
    f = RatFunc.make(Poly.of(-1, 0, 1), Poly.of(-1, 1))
    assert f == RatFunc.make(Poly.of(1, 1), Poly.of(1))
    # eval((q^-1 - q)/(t-1)) at q=4, t=9 -> (1/4 - 4)/8 = -15/32
    q = Fraction(4)
    g = RatFunc.make(Poly.of(1 / q - q), Poly.of(-1, 1))
    assert g.eval(Fraction(9)) == Fraction(-15, 32)


def test_division_by_zero_is_explicit():
    with pytest.raises(ScalarDivisionError):
        RatFunc.const(1) / RatFunc.const(0)
    with pytest.raises(PoleError):
        (RatFunc.const(1) / RatFunc.x()).eval(Fraction(0))


def test_qnum_examples():
    assert QParam(25).qnum(1) == 1
    # n=2, q=2: [2] = q + 1/q = 5/2
    assert QParam(2).qnum(2) == Fraction(5, 2)
    assert QParam(1).qnum(3) == 3


def test_qparam_validation():
    with pytest.raises(ValueError):
        QParam(Fraction(0))
    with pytest.raises(ValueError):
        QParam(-1)
    assert QParam(1).classical and not QParam(4).classical
    assert QParam(1) == QParam(Fraction(2, 2)) and hash(QParam(1)) == hash(QParam("1"))
    with pytest.raises(ValueError):
        QParam(2).spow(1)  # sqrt(2) irrational
    with pytest.raises(ValueError, match="not real for q = -1/4"):
        QParam(Fraction(-1, 4)).spow(1)
    assert QParam(2).spow(4) == 4
    assert QParam(Fraction(9, 4)).s == Fraction(3, 2)


@settings(max_examples=100, deadline=None)
@given(ratfuncs())
def test_ratfunc_normalization_roundtrip(f):
    # den monic and num/den coprime, and num/den reproduce the value
    if not f:
        assert f.den == Poly.of(1)
        return
    assert f.den.leading() == 1
    assert f.num.gcd(f.den).degree == 0


@settings(max_examples=100, deadline=None)
@given(ratfuncs(), ratfuncs(), fracs)
def test_eval_respects_field_ops(f, g, x):
    try:
        fv, gv = f.eval(x), g.eval(x)
        assert (f + g).eval(x) == fv + gv
        assert (f * g).eval(x) == fv * gv
        assert (f - g).eval(x) == fv - gv
        if gv != 0 and g:
            assert (f / g).eval(x) == fv / gv
    except PoleError:
        pass


@settings(max_examples=50, deadline=None)
@given(ratfuncs(), fracs, fracs)
def test_substitutions(f, c, k):
    if c == 0:
        return
    try:
        x0 = Fraction(7, 3)
        assert f.subst_scale(c).eval(x0) == f.eval(c * x0)
        assert f.subst_translate(k).eval(x0) == f.eval(x0 + k)
        if x0 != 0:
            assert f.subst_inv().eval(x0) == f.eval(1 / x0)
    except PoleError:
        pass


# References: the RatFunc operators as they were, each ending in a full
# normalisation (gcd, two divisions, monic scaling).  The operators must give
# the same num and den coefficients, with the same types.


def ref_make(num, den):
    if num.is_zero():
        return RatFunc(Poly(()), Poly.of(1))
    g = num.gcd(den)
    num, den = num.divmod(g)[0], den.divmod(g)[0]
    lc = den.leading()
    return RatFunc(num.scale(1 / lc), den.scale(1 / lc))


def ref_add(f, g):
    f, g = RatFunc.coerce(f), RatFunc.coerce(g)
    return ref_make(f.num * g.den + g.num * f.den, f.den * g.den)


def ref_sub(f, g):
    return ref_add(f, -RatFunc.coerce(g))


def ref_mul(f, g):
    f, g = RatFunc.coerce(f), RatFunc.coerce(g)
    return ref_make(f.num * g.num, f.den * g.den)


def ref_div(f, g):
    f, g = RatFunc.coerce(f), RatFunc.coerce(g)
    return ref_make(f.num * g.den, f.den * g.num)


def ref_pow(f, k):
    if k < 0:
        return ref_pow(ref_div(RatFunc.const(1), f), -k)
    out = RatFunc.const(1)
    for _ in range(k):
        out = ref_mul(out, f)
    return out


def assert_same_ratfunc(got, want):
    assert type(got) is RatFunc and type(want) is RatFunc
    assert got.num.coeffs == want.num.coeffs and got.den.coeffs == want.den.coeffs, (got, want)
    assert [type(c) for c in got.num.coeffs + got.den.coeffs] == \
        [type(c) for c in want.num.coeffs + want.den.coeffs]


polys = st.lists(fracs, max_size=3).map(lambda cs: Poly.of(*cs))
nonzero_polys = polys.filter(lambda p: not p.is_zero())
# a product of 0-2 linear or quadratic factors, shared across the two operands
shared = st.lists(st.sampled_from([Poly.of(1, 1), Poly.of(-2, 1), Poly.of(1, 0, 1),
                                   Poly.of(Fraction(1, 3), 2)]), max_size=2).map(
    lambda fs: functools.reduce(Poly.__mul__, fs, Poly.of(1)))
constants = st.sampled_from([RatFunc.const(0), RatFunc.const(1)]) | fracs.map(RatFunc.const)


@st.composite
def operand_pairs(draw):
    """(f, g) biased to the operators' cases: zero, one and constant operands,
    polynomials, equal denominators, and f = a/b, g = c/d with a factor of a
    in d and one of c in b."""
    s, t = draw(shared), draw(shared)
    f = ref_make(draw(polys) * s, draw(nonzero_polys) * t)
    g = ref_make(draw(polys) * t, draw(nonzero_polys) * s)
    case = draw(st.sampled_from(["shared", "constant", "polynomial", "same den", "negated"]))
    if case == "constant":
        g = draw(constants)
    elif case == "polynomial":
        g = ref_make(draw(polys) * t, Poly.of(1))
    elif case == "same den":
        g = ref_make(f.num + draw(polys) * f.den, f.den)  # den exactly f.den
    elif case == "negated":
        g = -f
    return (g, f) if draw(st.booleans()) else (f, g)


@settings(max_examples=400, deadline=None)
@given(operand_pairs(), fracs, st.integers(-3, 3))
def test_operators_match_make_reference(pair, c, k):
    f, g = pair
    cases = [(f + g, ref_add(f, g)), (f - g, ref_sub(f, g)), (f * g, ref_mul(f, g)),
             (f + c, ref_add(f, c)), (c + f, ref_add(c, f)), (f - c, ref_sub(f, c)),
             (c - f, ref_sub(c, f)), (f * c, ref_mul(f, c)), (c * f, ref_mul(c, f)),
             (f.subst_translate(c), ref_make(f.num.subst_translate(c), f.den.subst_translate(c)))]
    if g:
        cases += [(f / g, ref_div(f, g))]
    if f:
        cases += [(c / f, ref_div(c, f))]
    if c:
        cases += [(f / c, ref_div(f, c)),
                  (f.subst_scale(c), ref_make(f.num.subst_scale(c), f.den.subst_scale(c)))]
    if f or k >= 0:
        cases += [(f ** k, ref_pow(f, k))]
    for got, want in cases:
        assert_same_ratfunc(got, want)


def test_zero_over_ratfunc_is_zero_over_one():
    r = RatFunc.make(Poly.of(1, 1), Poly.of(2, 0, 1))
    for zero in (RatFunc.const(0), Fraction(0), 0):
        assert_same_ratfunc(zero / r, ref_div(zero, r))
        assert (zero / r).den == Poly.of(1)


def test_ratfunc_truthiness_and_const():
    x = RatFunc.x()
    assert not RatFunc.const(0) and not x - x
    assert RatFunc.const(Fraction(-3, 7)) and x and x - 1
    for c in (0, 1, Fraction(-3, 7)):
        a, b = RatFunc.const(c), RatFunc.make(Poly.const(c), Poly.of(1))
        assert a.num == b.num and a.den == b.den
        assert [type(v) for v in a.num.coeffs + a.den.coeffs] == \
            [type(v) for v in b.num.coeffs + b.den.coeffs]


def test_serialization():
    assert scalar_to_str(Fraction(5, 6)) == "5/6"
    f = RatFunc.make(Poly.of(1, 2), Poly.of(Fraction(1, 3), 1))
    assert f.to_json() == {"num": ["1", "2"], "den": ["1/3", "1"]}


def test_sample_point_basics(qp4):
    pt = Lambda(AlgebraSpec("sl2", 1, qp4), (Fraction(3, 2),))
    assert pt.to_json()["z"] == ["9/4"]
    sh = pt.shifted((2,))
    assert sh.coords[0] == Fraction(3, 2) / 16  # q^{-2} = 1/16
    with pytest.raises(ValueError):
        Lambda(AlgebraSpec("sl2", 1, qp4), (Fraction(0),))
    ptc = Lambda(AlgebraSpec("sl2", 1, QParam(1)), (Fraction(5),))
    assert ptc.shifted((2,)).coords[0] == 3


def test_sample_point_json_s_is_null_when_irrational(qp4):
    assert Lambda(AlgebraSpec("sl2", 1, qp4), (Fraction(3, 2),)).to_json()["s"] == "2"
    # q = 2: q^{1/2} is irrational, written as JSON null
    assert Lambda(AlgebraSpec("sl2", 1, QParam(2)), (Fraction(3, 2),)).to_json()["s"] is None


def test_random_regular_point_reproducible(qp4):
    spec = AlgebraSpec("gln", 2, qp4)
    a = Lambda.sample(spec, 42)
    b = Lambda.sample(spec, 42)
    assert a.coords == b.coords
    c = Lambda.sample(spec, 43)
    assert a.coords != c.coords


# Reference: Poly as it was with Fraction coefficients, Euclid's gcd over Q
# and Fraction Horner.  The integer Poly must give the same coefficients, with
# the same types, the same repr and the same JSON, for every operation.


def _ref_trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class RefPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = coeffs

    def __repr__(self):
        return f"Poly(coeffs={self.coeffs!r})"

    @staticmethod
    def of(*cs):
        return RefPoly(_ref_trim([Fraction(c) for c in cs]))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        return self.coeffs[-1]

    def __add__(self, other):
        cs = [Fraction(0)] * max(len(self.coeffs), len(other.coeffs))
        for i, c in enumerate(self.coeffs):
            cs[i] += c
        for i, c in enumerate(other.coeffs):
            cs[i] += c
        return RefPoly(_ref_trim(cs))

    def __neg__(self):
        return RefPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return RefPoly(())
        cs = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    cs[i + j] += a * b
        return RefPoly(_ref_trim(cs))

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return RefPoly(())
        return RefPoly(tuple(a * c for a in self.coeffs))

    def divmod(self, other):
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return RefPoly(()), self
        quot = [Fraction(0)] * (dq + 1)
        inv_lead = 1 / other.leading()
        for k in range(dq, -1, -1):
            c = rem[k + len(other.coeffs) - 1] * inv_lead
            quot[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return RefPoly(_ref_trim(quot)), RefPoly(_ref_trim(rem))

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def eval(self, x):
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def subst_scale(self, c):
        c = Fraction(c)
        return RefPoly(_ref_trim([a * c ** i for i, a in enumerate(self.coeffs)]))

    def subst_translate(self, k):
        out, xk, pw = RefPoly(()), RefPoly.of(k, 1), RefPoly.of(1)
        for a in self.coeffs:
            out = out + pw.scale(a)
            pw = pw * xk
        return out


def assert_same_poly(got, want):
    assert type(got) is Poly
    assert got.coeffs == want.coeffs, (got, want)
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
    assert type(got.coeffs) is tuple
    assert repr(got) == repr(want)
    assert RatFunc(got, Poly.of(1)).to_json()["num"] == [scalar_to_str(c) for c in want.coeffs]
    assert got.degree == want.degree and got.is_zero() == want.is_zero()
    assert got == Poly(want.coeffs) and hash(got) == hash(Poly(want.coeffs))


def assert_same_value(got, want):
    assert type(got) is type(want) and got == want, (got, want)
    assert repr(got) == repr(want)


small = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 9]))
coeff_lists = st.lists(fracs | small, max_size=5)
factors = st.lists(st.lists(small, min_size=1, max_size=3), max_size=2)


@st.composite
def ref_pairs(draw):
    """(a, b) as reference polynomials, half the time with a common factor of
    positive degree, so that gcd and divmod see nontrivial quotients."""
    a, b = RefPoly.of(*draw(coeff_lists)), RefPoly.of(*draw(coeff_lists))
    if draw(st.booleans()):
        for cs in draw(factors):
            f = RefPoly.of(*cs, draw(st.sampled_from([1, 2, -3, Fraction(1, 2)])))
            a, b = a * f, b * f
    return a, b


def _int(p: RefPoly) -> Poly:
    return Poly(p.coeffs)


@settings(max_examples=500, deadline=None)
@given(ref_pairs(), small, fracs, st.integers(-4, 4))
def test_integer_poly_matches_fraction_reference(pair, c, x, n):
    a, b = pair
    A, B = _int(a), _int(b)
    assert_same_poly(A, a)
    assert_same_poly(Poly.of(*a.coeffs), a)
    cases = [(A + B, a + b), (A - B, a - b), (-A, -a), (A * B, a * b), (A.scale(c), a.scale(c)),
             (A.monic(), a.monic()), (A.gcd(B), a.gcd(b)), (B.gcd(A), b.gcd(a)),
             (A.gcd(A), a.gcd(a)), (A.subst_translate(c), a.subst_translate(c)),
             (A.subst_scale(c), a.subst_scale(c))]
    if not b.is_zero():
        q, r = A.divmod(B)
        rq, rr = a.divmod(b)
        cases += [(q, rq), (r, rr), ((A * B).divmod(B)[0], (a * b).divmod(b)[0])]
        assert_same_value(B.leading(), b.leading())
    for got, want in cases:
        assert_same_poly(got, want)
    for at in (x, c, n, Fraction(n)):
        assert_same_value(A.eval(at), a.eval(at))
    g = a.gcd(b)
    if not a.is_zero() and not b.is_zero() and g.degree > 0:
        assert a.divmod(g)[1].is_zero() and A.divmod(_int(g))[1].is_zero()


@settings(max_examples=200, deadline=None)
@given(ref_pairs(), ref_pairs(), fracs)
def test_ratfunc_eval_matches_fraction_reference(pair, at, x):
    # RatFunc.eval at a Fraction (integer Horner) and at a RatFunc (the generic
    # Horner, as gauge.to_matrix evaluates at the symbolic gl2 lambda)
    a, b = pair
    if b.is_zero():
        b = RefPoly.of(1)
    f = RatFunc.make(_int(a), _int(b))
    u, v = at
    if v.is_zero():
        v = RefPoly.of(1, 1)
    y = RatFunc.make(_int(u), _int(v))
    for point in (x, y):
        ref_num = RefPoly(f.num.coeffs).eval(point)
        ref_den = RefPoly(f.den.coeffs).eval(point)
        try:
            got = f.eval(point)
        except PoleError:
            assert ref_den == 0
            continue
        want = ref_num / ref_den
        assert type(got) is type(want) and got == want
        if isinstance(got, RatFunc):
            assert_same_ratfunc(got, want)
            assert got.to_json() == want.to_json() and repr(got) == repr(want)


def test_poly_gcd_with_a_large_common_factor():
    # coefficient growth in the remainder sequence: a degree-6 common factor
    # with large, mixed-sign rational coefficients
    rng = random.Random(5)
    for _ in range(20):
        f = RefPoly.of(*(Fraction(rng.randint(-999, 999), rng.randint(1, 99)) for _ in range(6)), 1)
        a = f * RefPoly.of(*(rng.randint(-50, 50) for _ in range(4)), 3)
        b = f * RefPoly.of(Fraction(rng.randint(-50, 50), 7), 1, Fraction(1, 5))
        assert_same_poly(_int(a).gcd(_int(b)), a.gcd(b))
        assert _int(a).gcd(_int(b)) == _int(f.monic())
