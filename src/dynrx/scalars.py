"""Exact coefficient arithmetic: rationals, q = s^2 and univariate rational
functions.

All lambda-dependence in this package is either numeric (one rational per
torus coordinate) or univariate symbolic (a RatFunc in one formal variable x);
`lam.Lambda` holds either kind of coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

Scalar = Fraction  # exact big rationals; gcd-reduced with positive denominator by construction


class ScalarDivisionError(ArithmeticError):
    """Division by an exact zero."""


class PoleError(ArithmeticError):
    """Evaluation of a rational function at a pole."""


class NonGenericLambda(ValueError):
    """A lambda value hit the zero set of a required determinant/denominator."""


class IrrationalHalfPower(ValueError):
    """An odd power of s = q^{1/2} was asked for at a q whose square root is
    irrational or, for q < 0, not real."""


def scalar_to_str(a: Fraction) -> str:
    return str(a)  # "p/q" with q > 0, "/1" omitted


def _exact_sqrt(q: Fraction) -> Fraction | None:
    if q <= 0:
        return None
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class QParam:
    """Deformation parameter: a rational q other than 0 and -1.  s = q^{1/2} is
    its positive rational square root, or None where there is none (the half
    power is needed because q^{h (x) h / 2} produces s-powers on integer
    weights; an operation that genuinely needs an odd s-power then raises).
    q = 1 is the classical degeneration: q-numbers collapse to plain integers.
    """

    __slots__ = ("q", "s", "classical", "_hash")

    def __init__(self, q):
        q = Fraction(q)
        if q == 0 or q == -1:
            raise ValueError(f"q must be nonzero and not -1, got {q}")
        self.q, self.s, self.classical = q, _exact_sqrt(q), q == 1
        self._hash = hash(q)  # memo keys end in a QParam

    def __eq__(self, other):
        if other.__class__ is not QParam:
            return NotImplemented
        return self.q == other.q

    def __hash__(self):
        return self._hash

    def qpow(self, k: int) -> Fraction:
        """q^k, exact (k may be negative)."""
        return self.q ** k

    def spow(self, k: int) -> Fraction:
        """s^k = q^{k/2}; exact for even k, needs rational s for odd k."""
        if k % 2 == 0:
            return self.q ** (k // 2)
        if self.s is None:
            kind = "not real" if self.q < 0 else "irrational"
            raise IrrationalHalfPower(f"q^{{1/2}} is {kind} for q = {self.q}; "
                                      "odd half-powers unavailable")
        return self.s ** k

    def qnum(self, n: int) -> Fraction:
        """The q-integer [n] = (q^n - q^-n)/(q - q^-1); equals n at q = 1."""
        if self.classical:
            return Fraction(n)
        q = self.q
        return (q ** n - q ** -n) / (q - 1 / q)


# ---------------------------------------------------------------------------
# dense univariate polynomials over Q, held as integers over one denominator


class Poly:
    """Dense univariate polynomial over Q, low degree first, held as integer
    numerators `nums` over one positive integer `denom`: trimmed, with
    gcd(content of nums, denom) = 1, and zero as () over 1.  The form is
    unique, so == and hash read the pair; `coeffs` gives the coefficients as
    Fractions."""

    __slots__ = ("nums", "denom")

    @staticmethod
    def _new(nums: tuple, denom: int) -> "Poly":
        """The Poly nums/denom, for a pair already in normal form."""
        p = object.__new__(Poly)
        p.nums, p.denom = nums, denom
        return p

    @staticmethod
    def _make(nums: list, denom: int) -> "Poly":
        """The Poly nums/denom for integers nums (low degree first) and a nonzero
        integer denom, brought to normal form."""
        while nums and not nums[-1]:
            nums.pop()
        if not nums:
            return Poly._new((), 1)
        if denom < 0:
            denom, nums = -denom, [-n for n in nums]
        if denom != 1:
            g = gcd(denom, *nums)
            if g != 1:
                denom //= g
                nums = [n // g for n in nums]
        return Poly._new(tuple(nums), denom)

    @staticmethod
    def _pdiv(a: tuple, b: tuple) -> tuple[list, list, int]:
        """Pseudo-division over Z: (quot, rem, m) with m a = quot b + rem and
        deg rem < deg b, for len(a) >= len(b) > 0.  Each step scales by the part of
        lc(b) that the leading term does not already carry, so m divides
        lc(b)^(deg a - deg b + 1)."""
        rem, quot, m = list(a), [0] * (len(a) - len(b) + 1), 1
        nb, lb = len(b), b[-1]
        for k in range(len(quot) - 1, -1, -1):
            c = rem.pop()
            if c:
                g = gcd(c, lb)
                s, t = lb // g, c // g
                if s != 1:
                    rem = [x * s for x in rem]
                    quot = [x * s for x in quot]
                    m *= s
                quot[k] = t
                for j in range(nb - 1):
                    rem[k + j] -= t * b[j]
        return quot, rem, m

    @staticmethod
    def _primitive(nums: list) -> tuple:
        """nums, trimmed and divided by their content (the gcd of the entries)."""
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(*nums)
        return tuple(nums) if g <= 1 else tuple(n // g for n in nums)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        denom = lcm(*(c.denominator for c in cs))
        p = Poly._make([c.numerator * (denom // c.denominator) for c in cs], denom)
        self.nums, self.denom = p.nums, p.denom

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        d = self.denom
        return tuple(Fraction(n, d) for n in self.nums)

    def __eq__(self, other):
        if other.__class__ is not Poly:
            return NotImplemented
        return self.nums == other.nums and self.denom == other.denom

    def __hash__(self):
        return hash((self.nums, self.denom))

    def __repr__(self):
        return f"Poly(coeffs={self.coeffs!r})"

    @staticmethod
    def of(*cs) -> "Poly":
        return Poly(cs)

    @staticmethod
    def const(c) -> "Poly":
        c = Fraction(c)
        return Poly._new((c.numerator,), c.denominator) if c else Poly._new((), 1)

    @staticmethod
    def x() -> "Poly":
        return Poly._new((0, 1), 1)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.nums

    def leading(self) -> Fraction:
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.denom)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.nums, other.nums
        if not b:
            return self
        if not a:
            return other
        da, db = self.denom, other.denom
        if da != db:
            g = gcd(da, db)
            a, b = [x * (db // g) for x in a], [x * (da // g) for x in b]
            da *= db // g
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, x in enumerate(b):
            cs[i] += x
        return Poly._make(cs, da)

    def __neg__(self) -> "Poly":
        return Poly._new(tuple(-n for n in self.nums), self.denom)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.nums, other.nums
        if not a or not b:
            return Poly._new((), 1)
        cs = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    cs[i + j] += x * y
        return Poly._make(cs, self.denom * other.denom)

    def scale(self, c: Fraction) -> "Poly":
        c = Fraction(c)
        n = c.numerator
        return Poly._make([x * n for x in self.nums], self.denom * c.denominator)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not other.nums:
            raise ScalarDivisionError("polynomial division by zero")
        if len(self.nums) < len(other.nums):
            return Poly._new((), 1), self
        quot, rem, m = Poly._pdiv(self.nums, other.nums)
        # m A = quot B + rem for self = A/da and other = B/db, so
        # self = (quot db / (m da)) other + rem / (m da)
        db, md = other.denom, m * self.denom
        return Poly._make([x * db for x in quot], md), Poly._make(rem, md)

    def monic(self) -> "Poly":
        if not self.nums or self.nums[-1] == self.denom:
            return self
        return Poly._make(list(self.nums), self.nums[-1])  # (n_i / d) / (n_top / d)

    def gcd(self, other: "Poly") -> "Poly":
        """The monic gcd, by the primitive polynomial remainder sequence over Z
        (Collins 1967, Brown 1971): each remainder is a pseudo-remainder
        divided by its content."""
        a, b = Poly._primitive(list(self.nums)), Poly._primitive(list(other.nums))
        if len(a) < len(b):
            a, b = b, a
        while b:
            a, b = b, Poly._primitive(Poly._pdiv(a, b)[1])
        return Poly._make(list(a), a[-1]) if a else Poly._new((), 1)

    def eval(self, x):
        """The value at x: Horner on integers at an int or a Fraction, the
        generic Horner on the Fraction coefficients at anything else."""
        if isinstance(x, (int, Fraction)):
            nums = self.nums
            if not nums:
                return Fraction(0)
            p, q = x.numerator, x.denominator
            acc, qk = nums[-1], 1
            for n in reversed(nums[:-1]):
                qk *= q
                acc = acc * p + n * qk
            return Fraction(acc, self.denom * qk)
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def subst_scale(self, c: Fraction) -> "Poly":
        """p(x) -> p(c*x)."""
        c = Fraction(c)
        u, v = c.numerator, c.denominator
        top = len(self.nums) - 1
        return Poly._make([n * u ** i * v ** (top - i) for i, n in enumerate(self.nums)],
                          self.denom * v ** max(top, 0))

    def subst_translate(self, k: Fraction) -> "Poly":
        """p(x) -> p(x + k): for k = u/v, Horner in (v x + u) on the integers
        v^deg p(x + u/v)."""
        if not self.nums:
            return self
        k = Fraction(k)
        u, v = k.numerator, k.denominator
        acc, vk = [self.nums[-1]], 1
        for n in reversed(self.nums[:-1]):
            vk *= v
            nxt = [a * u for a in acc] + [0]
            for i, a in enumerate(acc):
                nxt[i + 1] += a * v
            nxt[0] += n * vk
            acc = nxt
        return Poly._make(acc, self.denom * vk)


_ONE = Poly.const(1)


# ---------------------------------------------------------------------------
# rational functions


def _cofactors(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly | None]:
    """(p/g, q/g, g) for g = gcd(p, q), or (p, q, None) when g is constant.
    The gcd runs only when both p and q have positive degree."""
    if p.degree > 0 and q.degree > 0:
        g = p.gcd(q)
        if g.degree > 0:
            return p.divmod(g)[0], q.divmod(g)[0], g
    return p, q, None


class RatFunc:
    """Quotient of two Polys, normalized: den monic and gcd(num, den) = 1; zero
    is 0/1.  The form is unique, so == compares num and den.

    `make` is the one full normalisation.  The operators take normal operands
    and cancel only the factors that can be common (Henrici's reduced-operand
    arithmetic): a gcd of two polynomials runs only when both have positive
    degree, and a zero, unit or constant operand costs no gcd at all."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        self.num, self.den = num, den

    def __repr__(self):
        return f"RatFunc(num={self.num!r}, den={self.den!r})"

    @staticmethod
    def make(num: Poly, den: Poly) -> "RatFunc":
        if den.is_zero():
            raise ScalarDivisionError("rational function with zero denominator")
        if num.is_zero():
            return RatFunc(num, _ONE)
        num, den, _ = _cofactors(num, den)
        return RatFunc._monic(num, den)

    @staticmethod
    def _monic(num: Poly, den: Poly) -> "RatFunc":
        """num/den for coprime num and den: only scales den monic."""
        lc = den.leading()
        if lc == 1:
            return RatFunc(num, den)
        return RatFunc(num.scale(1 / lc), den.monic())

    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc(Poly.const(c), _ONE)  # already normal: no gcd

    @staticmethod
    def x() -> "RatFunc":
        return RatFunc(Poly.x(), _ONE)  # already normal: no gcd

    @staticmethod
    def coerce(v) -> "RatFunc":
        if isinstance(v, RatFunc):
            return v
        return RatFunc.const(v)

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def _const(self) -> Fraction | None:
        """The value of a nonzero constant, else None."""
        if self.den.degree == 0 and self.num.degree == 0:
            return Fraction(self.num.nums[0], self.num.denom)
        return None

    def __add__(self, other):
        other = RatFunc.coerce(other)
        if not other:
            return self
        if not self:
            return other
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            s = a + c
            if s.is_zero():
                return RatFunc.const(0)
            s, b, _ = _cofactors(s, b)
            return RatFunc(s, b)
        # b = g b', d = g d': s = a d' + c b' is prime to b' and d', so only a
        # factor of g can cancel; s is nonzero, since a/b = -c/d would force
        # b = d
        b, d, g = _cofactors(b, d)
        s = a * d + c * b
        if g is not None:
            s, g, _ = _cofactors(s, g)
            d = d * g
        return RatFunc(s, b * d)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-RatFunc.coerce(other))

    def __rsub__(self, other):
        return RatFunc.coerce(other) + (-self)

    def __mul__(self, other):
        other = RatFunc.coerce(other)
        if not self:
            return self
        if not other:
            return other
        for k, f in ((other._const(), self), (self._const(), other)):
            if k is not None:
                return f if k == 1 else RatFunc(f.num.scale(k), f.den)
        # a/b * c/d: only gcd(a, d) and gcd(c, b) can cancel
        a, d, _ = _cofactors(self.num, other.den)
        c, b, _ = _cofactors(other.num, self.den)
        return RatFunc(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatFunc.coerce(other)
        if not other:
            raise ScalarDivisionError("division by zero rational function")
        return self * RatFunc._monic(other.den, other.num)

    def __rtruediv__(self, other):
        return RatFunc.coerce(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return (RatFunc.const(1) / self) ** (-k)
        out = RatFunc.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def eval(self, x: Fraction) -> Fraction:
        d = self.den.eval(x)
        if d == 0:
            raise PoleError(f"pole at x = {x}")
        return self.num.eval(x) / d

    # x -> c x and x -> x + k are ring automorphisms: they keep num and den
    # coprime, so only den's leading coefficient needs fixing

    def subst_scale(self, c: Fraction) -> "RatFunc":
        """f(x) -> f(c x), for c != 0."""
        return RatFunc._monic(self.num.subst_scale(c), self.den.subst_scale(c))

    def subst_translate(self, k: Fraction) -> "RatFunc":
        return RatFunc._monic(self.num.subst_translate(k), self.den.subst_translate(k))

    def subst_inv(self) -> "RatFunc":
        """f(x) -> f(1/x): num(1/x)/den(1/x) cleared to polynomials by x^L."""
        if not self:
            return self
        dn, dd = self.num.degree, self.den.degree
        L = max(dn, dd)
        rn = [0] * (L - dn) + list(self.num.nums[::-1])
        rd = [0] * (L - dd) + list(self.den.nums[::-1])
        return RatFunc.make(Poly._make(rn, self.num.denom), Poly._make(rd, self.den.denom))

    def inf_coeff(self) -> Fraction:
        """Coefficient of 1/x in the expansion at infinity, for functions
        vanishing there (deg num < deg den): lc(num)/lc(den) where the degrees
        differ by one, else 0.  Exact; used for 1/lambda asymptotics."""
        if not self:
            return Fraction(0)
        gap = self.den.degree - self.num.degree
        if gap <= 0:
            raise ValueError("function does not vanish at infinity")
        return self.num.leading() / self.den.leading() if gap == 1 else Fraction(0)

    def to_json(self) -> dict:
        return {
            "num": [scalar_to_str(c) for c in self.num.coeffs],
            "den": [scalar_to_str(c) for c in self.den.coeffs],
        }
