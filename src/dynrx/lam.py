"""The highest weight lambda, as coordinates on the lambda-torus.

coords[a] is q^{lambda_a} in the trigonometric case and lambda_a classically
(sl2 has the one coordinate q^{<lambda, alpha^vee>}, resp. <lambda, alpha^vee>).
A sampled lambda has Fraction coordinates.  The symbolic lambda has RatFunc
coordinates in one formal variable x: (x,) for sl2, (x, 1) for gl2 and (x, 0)
for classical gl2, so x is q^{lambda}, q^{lambda_1 - lambda_2}, or the plain
linear coordinate.  A shift lambda -> lambda - mu scales (trig) or translates
(classical) the coordinates, so one set of formulas serves both kinds and every
quantity built downstream stays a rational function of the original x.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import memo
from .liealg import AlgebraSpec, Weight
from .scalars import QParam, RatFunc, scalar_to_str


class Lambda:
    __slots__ = ("spec", "coords", "seed", "_key")

    def __init__(self, spec: AlgebraSpec, coords: tuple, seed: int | None = None):
        if len(coords) != spec.ncoords:
            raise ValueError("lambda has the wrong number of coordinates")
        if not spec.qp.classical and not all(coords):
            raise ValueError("trigonometric coordinates must be nonzero")
        self.spec, self.coords = spec, coords
        self.seed = seed  # the draw's seed, for replaying a sampled lambda

    @staticmethod
    def sample(spec: AlgebraSpec, seed: int, bits: int = 16) -> "Lambda":
        """A reproducible random lambda: coordinates num/den with
        0 < |num| <= 2^bits and 1 <= den <= 2^bits, drawn once from `seed`."""
        rng = random.Random(seed)
        coords = []
        for _ in range(spec.ncoords):
            num = 0
            while num == 0:
                num = rng.randint(-(2 ** bits), 2 ** bits)
            den = rng.randint(1, 2 ** bits)
            coords.append(Fraction(num, den))
        return Lambda(spec, tuple(coords), seed)

    @staticmethod
    def symbolic(spec: AlgebraSpec) -> "Lambda":
        """The univariate symbolic lambda; sl2 and gl2 only."""
        if spec.kind == "gln" and spec.n != 2:
            raise ValueError("symbolic lambda supports sl2 and gl2 only (use sample points)")
        x = RatFunc.x()
        if spec.kind == "sl2":
            return Lambda(spec, (x,))
        return Lambda(spec, (x, RatFunc.const(0 if spec.qp.classical else 1)))

    @property
    def qp(self) -> QParam:
        return self.spec.qp

    def scalar(self, c):
        """Embed a Fraction into the scalar field of the coordinates."""
        return RatFunc.const(c) if isinstance(self.coords[0], RatFunc) else Fraction(c)

    def zero(self):
        return self.scalar(0)

    def one(self):
        return self.scalar(1)

    def pair(self, a: int, b: int):
        """x_ab = q^{lambda_a - lambda_b} (trigonometric) or lambda_a - lambda_b."""
        c = self.coords
        return c[a] - c[b] if self.qp.classical else c[a] / c[b]

    def simple(self, i: int):
        """q^{<lambda, alpha_i^vee>} (trigonometric) or <lambda, alpha_i^vee>, read
        off the coroot: its +1 coordinate, over (minus) its -1 coordinate if any."""
        co = self.spec.coroots[i]
        if -1 in co:
            return self.pair(co.index(1), co.index(-1))
        return self.coords[co.index(1)]

    def bracket(self, i: int, extra: int = 0):
        """[<lambda, alpha_i^vee> + extra]: the q-number in the trigonometric case,
        the plain value classically."""
        if self.qp.classical:
            return self.simple(i) + Fraction(extra)
        q = self.qp.q
        s = self.simple(i)
        return (q ** extra * s - q ** (-extra) / s) / (q - 1 / q)

    def shifted(self, mu: Weight) -> "Lambda":
        """lambda - mu: coords[a] scaled by q^{-mu_a} (trig) or translated by
        -mu_a (classical).  A coordinate with mu_a = 0 is kept as it is, so a
        symbolic one costs no RatFunc normalization."""
        qp = self.qp
        cs = tuple(c if not m else c - m if qp.classical else c * qp.qpow(-m)
                   for c, m in zip(self.coords, mu, strict=True))
        return Lambda(self.spec, cs, self.seed)

    def root_qpow2(self, beta: Weight):
        """q^{2 (lambda, beta)} = prod_a coords[a]^{gram2[a] beta_a} for beta in the
        root lattice (trigonometric)."""
        out = None
        for a, g, b in zip(self.coords, self.spec.gram2, beta):
            if b:
                out = a ** (g * b) if out is None else out * a ** (g * b)
        return self.one() if out is None else out

    def key(self) -> int:
        """Interned memo key, computed once per lambda; equal lambdas share it."""
        try:
            return self._key
        except AttributeError:
            k = memo.intern((self.coords, self.qp))
            self._key = k
            return k

    def to_json(self) -> dict:
        qp = self.qp
        return {
            "case": "classical" if qp.classical else "trigonometric",
            "s": None if qp.s is None else scalar_to_str(qp.s),
            "coords": [scalar_to_str(c) for c in self.coords],
            "z": [scalar_to_str(c if qp.classical else c * c) for c in self.coords],
            "seed": self.seed,
            "draw_index": 0,  # kept for the schema: every lambda is drawn once
        }
