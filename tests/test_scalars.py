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
    classical_q,
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
    assert QParam(Fraction(5)).qnum(1) == 1
    # n=2, q=2: [2] = q + 1/q = 5/2
    assert QParam.from_q(2).qnum(2) == Fraction(5, 2)
    assert classical_q().qnum(3) == 3


def test_qparam_validation():
    with pytest.raises(ValueError):
        QParam(Fraction(0))
    with pytest.raises(ValueError):
        QParam(Fraction(1))  # q = 1 needs classical flag
    with pytest.raises(ValueError):
        QParam.from_q(2).spow(1)  # sqrt(2) irrational
    assert QParam.from_q(2).spow(4) == 4
    assert QParam.from_q(Fraction(9, 4)).s == Fraction(3, 2)


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
    ptc = Lambda(AlgebraSpec("sl2", 1, classical_q()), (Fraction(5),))
    assert ptc.shifted((2,)).coords[0] == 3


def test_sample_point_json_s_is_null_when_irrational(qp4):
    assert Lambda(AlgebraSpec("sl2", 1, qp4), (Fraction(3, 2),)).to_json()["s"] == "2"
    # q = 2: q^{1/2} is irrational, written as JSON null
    assert Lambda(AlgebraSpec("sl2", 1, QParam.from_q(2)), (Fraction(3, 2),)).to_json()["s"] is None


def test_random_regular_point_reproducible(qp4):
    spec = AlgebraSpec("gln", 2, qp4)
    a = Lambda.sample(spec, 42)
    b = Lambda.sample(spec, 42)
    assert a.coords == b.coords
    c = Lambda.sample(spec, 43)
    assert a.coords != c.coords
