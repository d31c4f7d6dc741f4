"""Lambda handles: the two ways a highest weight enters exact formulas.

A SampledLambda wraps a SamplePoint (all scalars are Fractions).  A
SymbolicLambda carries one formal variable x (RatFunc scalars): x = q^{lambda}
for sl2, x = q^{lambda_1 - lambda_2} for gl2 in the trigonometric case, and
the plain linear coordinate classically.  Shifts lambda -> lambda - mu act on
x by a q-power scale (trig) or a translation (classical), so every quantity
built downstream stays a rational function of the original x.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import memo
from .liealg import AlgebraSpec, Weight
from .scalars import QParam, RatFunc, SamplePoint


class LambdaHandle:
    spec: AlgebraSpec

    @property
    def qp(self) -> QParam:
        return self.spec.qp

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def scalar(self, c):
        """Embed a Fraction into the scalar field of this handle."""
        raise NotImplementedError

    def simple_qpow(self, i: int):
        """q^{<lambda, alpha_i^vee>} (trigonometric case)."""
        raise NotImplementedError

    def simple_lin(self, i: int):
        """<lambda, alpha_i^vee> (classical case)."""
        raise NotImplementedError

    def bracket(self, i: int, extra: int = 0):
        """[<lambda, alpha_i^vee> + extra]: the q-number in the trigonometric case,
        the plain value classically."""
        if self.qp.classical:
            return self.simple_lin(i) + Fraction(extra)
        q = self.qp.q
        s = self.simple_qpow(i)
        return (q ** extra * s - q ** (-extra) / s) / (q - 1 / q)

    def shifted(self, mu: Weight) -> "LambdaHandle":
        """Handle for lambda - mu."""
        raise NotImplementedError

    def root_qpow2(self, beta: Weight):
        """q^{2 (lambda, beta)} for beta in the root lattice (trigonometric)."""
        raise NotImplementedError

    def key(self) -> int:
        """Interned memo key, computed once per handle; handles for the same
        lambda share it."""
        try:
            return self._key
        except AttributeError:
            k = memo.intern(self._identity())
            object.__setattr__(self, "_key", k)  # the dataclass subclasses are frozen
            return k

    def _identity(self):
        """Hashable value identifying this lambda (and its q)."""
        raise NotImplementedError


@dataclass(frozen=True)
class SampledLambda(LambdaHandle):
    spec: AlgebraSpec
    point: SamplePoint

    def __post_init__(self):
        if self.point.ncoords != self.spec.ncoords:
            raise ValueError("sample point has wrong number of coordinates")
        if self.point.qp != self.spec.qp:
            raise ValueError("sample point q-parameter mismatch")

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def scalar(self, c):
        return Fraction(c)

    def simple_qpow(self, i: int):
        c = self.point.coords
        if self.spec.kind == "sl2":
            return c[0]
        return c[i] / c[i + 1]

    def simple_lin(self, i: int):
        c = self.point.coords
        if self.spec.kind == "sl2":
            return c[0]
        return c[i] - c[i + 1]

    def shifted(self, mu: Weight) -> "SampledLambda":
        return SampledLambda(self.spec, self.point.shift(mu))

    def root_qpow2(self, beta: Weight):
        qp = self.qp
        c = self.point.coords
        if self.spec.kind == "sl2":
            # (lambda, beta) = lambda(h) * beta[0] / 2; q^{2(lambda,beta)} = x^{beta[0]}
            return c[0] ** beta[0]
        out = Fraction(1)
        for a, b in zip(c, beta):
            out *= a ** (2 * b)
        return out

    def _identity(self):
        return ("pt", self.point.coords, self.qp)


@dataclass(frozen=True)
class SymbolicLambda(LambdaHandle):
    """Univariate symbolic lambda; only sl2 and gl2 are supported symbolically.

    mult accumulates trigonometric shifts (x -> mult * x), add the classical
    ones; entries produced under a shifted handle remain RatFuncs in the
    original variable.
    """

    spec: AlgebraSpec
    mult: Fraction = Fraction(1)
    add: Fraction = Fraction(0)

    def __post_init__(self):
        if self.spec.kind == "gln" and self.spec.n != 2:
            raise ValueError("symbolic lambda supports sl2 and gl2 only (use sample points)")

    def _x(self) -> RatFunc:
        x = RatFunc.x()
        if self.qp.classical:
            return x + RatFunc.const(self.add)
        return x * RatFunc.const(self.mult)

    def zero(self):
        return RatFunc.const(0)

    def one(self):
        return RatFunc.const(1)

    def scalar(self, c):
        return RatFunc.const(c)

    def simple_qpow(self, i: int):
        return self._x()

    def simple_lin(self, i: int):
        return self._x()

    def _diff1(self, mu: Weight) -> int:
        """<mu, alpha^vee> for the single simple root."""
        return self.spec.cartan_int(0, mu)

    def shifted(self, mu: Weight) -> "SymbolicLambda":
        d = self._diff1(mu)
        if self.qp.classical:
            return SymbolicLambda(self.spec, self.mult, self.add - d)
        return SymbolicLambda(self.spec, self.mult * self.qp.qpow(-d), self.add)

    def root_qpow2(self, beta: Weight):
        # beta = n * alpha: q^{2(lambda,beta)} = x^{2n} for gl2, x^{beta[0]} for sl2
        if self.spec.kind == "sl2":
            n2 = beta[0]
        else:
            n2 = 2 * beta[0]
        x = self._x()
        out = RatFunc.const(1)
        for _ in range(abs(n2)):
            out = out * x if n2 > 0 else out / x
        return out

    def _identity(self):
        return ("sym", self.mult, self.add, self.qp)
