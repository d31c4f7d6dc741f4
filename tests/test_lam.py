"""lam.Lambda against independent references: the univariate symbolic lambda
as an x -> mult * x / x + add substitution, the symbolic gl2 matrix view of a
Hecke R-matrix by reorienting x_ab, and sampled coordinates pinned per seed."""

import random
from fractions import Fraction

import pytest

from dynrx.gauge import (
    apply_gauge,
    closed_form_fusion,
    closed_form_hecke,
    example_hecke,
    exact_two_form,
    rho_shift,
)
from dynrx.lam import Lambda
from dynrx.liealg import AlgebraSpec
from dynrx.scalars import QParam, RatFunc

QPS = [QParam(4), QParam(Fraction(1, 3)), QParam(1)]
QP_IDS = ["q=4", "q=1/3", "classical"]


class RefSymbolicLambda:
    """Reference: one variable x for the single simple root, with shifts kept
    as a factor (x -> mult * x, trigonometric) or an offset (x -> x + add)."""

    def __init__(self, spec, mult=Fraction(1), add=Fraction(0)):
        self.spec, self.mult, self.add = spec, mult, add

    def x(self):
        x = RatFunc.x()
        if self.spec.qp.classical:
            return x + RatFunc.const(self.add)
        return x * RatFunc.const(self.mult)

    def bracket(self, extra):
        if self.spec.qp.classical:
            return self.x() + Fraction(extra)
        q, s = self.spec.qp.q, self.x()
        return (q ** extra * s - q ** (-extra) / s) / (q - 1 / q)

    def shifted(self, mu):
        d = self.spec.cartan_int(0, mu)
        if self.spec.qp.classical:
            return RefSymbolicLambda(self.spec, self.mult, self.add - d)
        return RefSymbolicLambda(self.spec, self.mult * self.spec.qp.qpow(-d), self.add)

    def root_qpow2(self, beta):
        # beta = n alpha: x^{beta[0]} for sl2, x^{2n} for gl2
        n2 = beta[0] if self.spec.kind == "sl2" else 2 * beta[0]
        out, x = RatFunc.const(1), self.x()
        for _ in range(abs(n2)):
            out = out * x if n2 > 0 else out / x
        return out

    def identity(self):
        return (self.mult, self.add, self.spec.qp)


def weight_chains(spec, rng, count=12, length=4):
    """Random chains of integer weights (sl2: h-eigenvalues; gl2: eps-basis)."""
    ncoords = spec.ncoords
    return [[tuple(rng.randint(-3, 3) for _ in range(ncoords)) for _ in range(rng.randint(1, length))]
            for _ in range(count)]


@pytest.mark.parametrize("kind", ["sl2", "gl2"])
@pytest.mark.parametrize("qp", QPS, ids=QP_IDS)
def test_symbolic_lambda_matches_reference(kind, qp):
    spec = AlgebraSpec("sl2", 1, qp) if kind == "sl2" else AlgebraSpec("gln", 2, qp)
    root = (2,) if kind == "sl2" else (1, -1)
    rng = random.Random(f"lam-{kind}-{qp.q}")
    seen = {}  # key -> (reference identity, coordinates)
    for chain in weight_chains(spec, rng):
        lam, ref = Lambda.symbolic(spec), RefSymbolicLambda(spec)
        for mu in chain:
            lam, ref = lam.shifted(mu), ref.shifted(mu)
            assert lam.simple(0) == ref.x() and type(lam.simple(0)) is RatFunc
            for extra in (-2, 0, 1, 3):
                assert lam.bracket(0, extra) == ref.bracket(extra)
            if not qp.classical:
                for n in (-2, -1, 1, 2):
                    beta = tuple(n * r for r in root)
                    got = lam.root_qpow2(beta)
                    assert type(got) is RatFunc and got == ref.root_qpow2(beta)
            # lambdas that share a key are equal, both here and in the reference
            prev = seen.setdefault(lam.key(), (ref.identity(), lam.coords))
            assert prev == (ref.identity(), lam.coords)
        # the same lambda reached in one step shares the key
        total = tuple(sum(c) for c in zip(*chain))
        assert Lambda.symbolic(spec).shifted(total).key() == lam.key()
    assert Lambda.symbolic(spec).key() == Lambda.symbolic(spec).key()


def _ref_symbolic_matrix(R):
    """Reference N = 2 matrix view: a coefficient g(x_ab) is g itself on
    a < b, and g reoriented by x_ba = 1/x_ab (trig) or -x_ab on a > b."""
    N, qp = R.N, R.qp

    def at(g, a, b):
        if a < b:
            return g
        return g.subst_scale(Fraction(-1)) if qp.classical else g.subst_inv()

    d = N * N
    M = [[RatFunc.const(0)] * d for _ in range(d)]
    for a in range(N):
        M[a * N + a][a * N + a] = RatFunc.const(R.alpha_diag[a])
    for a in range(N):
        for b in range(N):
            if a != b:
                M[a * N + b][a * N + b] = at(R.alpha[(a, b)], a, b)
                M[b * N + a][a * N + b] = at(R.beta[(a, b)], a, b)
    return M


@pytest.mark.parametrize("qp", QPS, ids=QP_IDS)
def test_symbolic_matrix_view_matches_reoriented_reference(qp):
    lam = Lambda.symbolic(AlgebraSpec("gln", 2, qp))
    mats = [closed_form_hecke(2, qp), closed_form_fusion(2, qp)]
    R = example_hecke(2, qp)
    mats.append(R)
    for step in (("IV", rho_shift(2)), ("III", Fraction(1) if qp.classical else qp.q),
                 ("I", exact_two_form(2, qp)), ("II", (1, 0))):
        R = apply_gauge(R, step)
        mats.append(R)
    for R in mats:
        got = R.to_matrix(lam)
        assert got == _ref_symbolic_matrix(R)
        assert all(type(v) is RatFunc for row in got for v in row)


# (seed, bits, ncoords) -> coordinates, as the sampler has always drawn them
PINNED = [
    ((0, 16, 1), ["35453/55126"]),
    ((42, 16, 2), ["-36352/3279", "6561/32099"]),
    ((7, 8, 3), ["25/26", "148/25", "-26/7"]),
    ((123, 4, 4), ["-13/9", "-11/14", "1/4", "-14/13"]),
    ((5, 1, 2), ["1", "2"]),
    ((99, 0, 3), ["-1", "-1", "-1"]),
]


@pytest.mark.parametrize("draw, coords", PINNED, ids=[str(d) for d, _ in PINNED])
def test_sample_coordinates_are_pinned(draw, coords):
    seed, bits, n = draw
    qp = QParam(4)
    spec = AlgebraSpec("sl2", 1, qp) if n == 1 else AlgebraSpec("gln", n, qp)
    lam = Lambda.sample(spec, seed, bits)
    assert lam.coords == tuple(Fraction(c) for c in coords)
    assert lam.seed == seed


def test_sample_json():
    lam = Lambda.sample(AlgebraSpec("gln", 2, QParam(4)), 42)
    assert lam.to_json() == {
        "case": "trigonometric", "s": "2", "coords": ["-36352/3279", "6561/32099"],
        "z": ["1321467904/10751841", "43046721/1030345801"], "seed": 42, "draw_index": 0}
    assert lam.shifted((1, 0)).seed == 42
