"""Multiplicative k-forms on the lambda-torus, the difference d (d^2 = 0),
gauge transformations I-IV of Hecke-type dynamical R-matrices, and the closed
gl_N forms of the vector-pair J and R.

J and R are each written once, in Hecke-coefficient form (`closed_form_fusion`,
`closed_form_hecke`); `HeckeRMatrix.to_matrix` is their matrix view at a
lambda: sampled, or the symbolic gl2 lambda (entries rational in x = x_01).

Form values live in a small exact multiplicative algebra (FormScalar): a
rational constant, a monomial prod_c q^{e_c lambda_c} (trigonometric case), and
per-pair factors g(x_ab) with x_ab = q^{lambda_a - lambda_b} (or the plain
difference classically).  This family is closed under products, inverses and
the shift operators delta_a, so d, d^2 and closedness are decided by exact
symbolic identities.

Sign conventions used here: delta_a f = f(lambda) / f(lambda with lambda_a -> lambda_a - 1),

    (d phi)_{a_1..a_{k+1}} = prod_i (delta_{a_i} phi_{..without a_i..})^{(-1)^i},

(so for a 1-form, (d xi)_{ab} = delta_b xi_a / delta_a xi_b), and type I
multiplies the E_aa (x) E_bb coefficient by phi_ab.  With these choices,
conjugating a Hecke R-matrix by the diagonal xi-sandwich realizes exactly the
type-I transformation by d xi.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .exchange import Report
from .lam import Lambda
from .scalars import QParam, RatFunc


def _flip_var(qp: QParam, g: RatFunc) -> RatFunc:
    """Reorient a pair function: x_ba = 1/x_ab (trig) or -x_ab (classical)."""
    return g.subst_scale(Fraction(-1)) if qp.classical else g.subst_inv()


def _shift_pair(qp: QParam, g: RatFunc, dmu) -> RatFunc:
    """g(x_ab) under lambda -> lambda + mu: x_ab -> x_ab q^{dmu} (trig) or
    x_ab + dmu (classical), with dmu = mu_a - mu_b."""
    dmu = Fraction(dmu)
    if qp.classical:
        return g.subst_translate(dmu)
    if dmu.denominator != 1:
        raise ValueError("type IV shift needs integer coordinate differences")
    return g.subst_scale(qp.qpow(int(dmu)))


class FormScalar:
    """const * prod_c q^{mono[c] * lambda_c} * prod_{(a,b)} pairs[(a,b)](x_ab),
    with pairs keyed by sorted index pairs a < b.  Equality is equality of
    values, so a FormScalar is not hashable."""

    __slots__ = ("qp", "const", "mono", "pairs")

    def __init__(self, qp: QParam, const: Fraction = Fraction(1), mono: dict | None = None,
                 pairs: dict | None = None):
        self.qp, self.const = qp, const
        self.mono = {} if mono is None else mono      # coord -> nonzero exponent, trig only
        self.pairs = {} if pairs is None else pairs   # (a, b) with a < b -> RatFunc in x_ab

    @staticmethod
    def one(qp: QParam) -> "FormScalar":
        return FormScalar(qp)

    @staticmethod
    def of_const(qp: QParam, c) -> "FormScalar":
        return FormScalar(qp, Fraction(c))

    @staticmethod
    def of_pair(qp: QParam, a: int, b: int, g: RatFunc) -> "FormScalar":
        """The factor g(x_ab); stored on the sorted pair via x_ba = 1/x_ab."""
        if a == b:
            raise ValueError("pair needs distinct indices")
        if a > b:
            a, b, g = b, a, _flip_var(qp, g)
        return FormScalar(qp, Fraction(1), {}, {(a, b): g})

    @staticmethod
    def of_mono(qp: QParam, exps: dict) -> "FormScalar":
        if qp.classical:
            raise ValueError("monomial factors q^{e lambda_c} are trigonometric only")
        return FormScalar(qp, Fraction(1), {c: e for c, e in exps.items() if e != 0})

    def __mul__(self, other: "FormScalar") -> "FormScalar":
        mono = dict(self.mono)
        for c, e in other.mono.items():
            mono[c] = mono.get(c, 0) + e
        pairs = dict(self.pairs)
        for k, g in other.pairs.items():
            pairs[k] = pairs[k] * g if k in pairs else g
        return FormScalar(
            self.qp,
            self.const * other.const,
            {c: e for c, e in mono.items() if e != 0},
            {k: g for k, g in pairs.items() if g != RatFunc.const(1)},
        )

    def inv(self) -> "FormScalar":
        if self.const == 0:
            raise ZeroDivisionError("inverting zero form value")
        return FormScalar(
            self.qp,
            1 / self.const,
            {c: -e for c, e in self.mono.items()},
            {k: RatFunc.const(1) / g for k, g in self.pairs.items()},
        )

    def delta(self, c: int) -> "FormScalar":
        """delta_c: value(lambda) / value(lambda with lambda_c -> lambda_c - 1)."""
        qp = self.qp
        out = FormScalar.of_const(qp, self.const / self.const)  # exact one
        if c in self.mono:
            out = out * FormScalar.of_const(qp, qp.qpow(self.mono[c]))
        for (a, b), g in self.pairs.items():
            if c in (a, b):
                # lambda_c -> lambda_c - 1 shifts x_ab by mu_a - mu_b = -1 (c = a) or +1 (c = b)
                gs = _shift_pair(qp, g, -1 if c == a else 1)
                out = out * FormScalar(qp, Fraction(1), {}, {(a, b): g / gs})
        return out

    def is_one(self) -> bool:
        if self.mono:
            return False
        acc = self.const
        for g in self.pairs.values():
            if g.num.degree != 0 or g.den.degree != 0:  # not a nonzero constant
                return False
            acc *= g.num.coeffs[0] / g.den.coeffs[0]
        return acc == 1

    def __eq__(self, other):
        if not isinstance(other, FormScalar):
            return NotImplemented
        return (self * other.inv()).is_one()

    def eval(self, lam: Lambda) -> Fraction:
        out = self.const
        for c, e in self.mono.items():
            out *= lam.coords[c] ** e
        for (a, b), g in self.pairs.items():
            out *= g.eval(lam.pair(a, b))
        return out

    def single_pair_ratfunc(self, a: int, b: int) -> RatFunc:
        """The value as a RatFunc in x_ab; requires support on exactly that pair."""
        if self.mono:
            raise ValueError("form value has monomial lambda-dependence")
        key = (min(a, b), max(a, b))
        g = RatFunc.const(self.const)
        for k, h in self.pairs.items():
            if k == key:
                g = g * (h if a < b else _flip_var(self.qp, h))
            elif h != RatFunc.const(1):
                raise ValueError("form value involves another coordinate pair")
        return g


class MultForm:
    """Degree-k multiplicative form: values on sorted k-subsets of {0..N-1};
    values on permuted index tuples follow from multiplicative antisymmetry."""

    __slots__ = ("N", "degree", "qp", "values")

    def __init__(self, N: int, degree: int, qp: QParam, values: dict):
        self.N, self.degree, self.qp = N, degree, qp
        self.values = values  # sorted k-subset -> FormScalar

    @staticmethod
    def build(N: int, degree: int, qp: QParam, mapping: dict) -> "MultForm":
        return MultForm(N, degree, qp, {
            subset: mapping.get(subset, FormScalar.one(qp))
            for subset in itertools.combinations(range(N), degree)})

    def value(self, idxs) -> FormScalar:
        idxs = tuple(idxs)
        if len(set(idxs)) != len(idxs):
            raise ValueError("repeated indices")
        srt = tuple(sorted(idxs))
        v = self.values[srt]
        # parity of the permutation sorting idxs
        perm = [srt.index(i) for i in idxs]
        inversions = sum(
            1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
        )
        return v if inversions % 2 == 0 else v.inv()

    def is_trivial(self) -> bool:
        return all(v.is_one() for v in self.values.values())


def d_operator(phi: MultForm) -> MultForm:
    """(d phi)_{a_1..a_{k+1}} = prod_i (delta_{a_i} phi_{..hat a_i..})^{(-1)^i}."""
    out = {}
    for subset in itertools.combinations(range(phi.N), phi.degree + 1):
        acc = FormScalar.one(phi.qp)
        for i, a in enumerate(subset):
            rest = tuple(x for x in subset if x != a)
            f = phi.values[rest].delta(a)
            acc = acc * (f.inv() if i % 2 == 0 else f)  # exponent (-1)^{i+1} with i 1-based
        out[subset] = acc
    return MultForm.build(phi.N, phi.degree + 1, phi.qp, out)


def is_closed(phi: MultForm) -> bool:
    if phi.degree >= phi.N:
        return True
    return d_operator(phi).is_trivial()


def random_one_form(N: int, qp: QParam, rng: random.Random) -> MultForm:
    """Monomial-times-rational random 1-form (for d^2 = 0 property tests)."""
    vals = {}
    for a in range(N):
        f = FormScalar.one(qp)
        if not qp.classical:
            f = f * FormScalar.of_mono(qp, {c: rng.randint(-2, 2) for c in range(N)})
        f = f * FormScalar.of_const(qp, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        for _ in range(rng.randint(0, 2)):
            b, c = rng.sample(range(N), 2)
            u = _pairpow_ratfunc(qp, rng.randint(-2, 2), forward=True)
            f = f * FormScalar.of_pair(qp, b, c, u if qp.classical else u - RatFunc.const(1))
        vals[(a,)] = f
    return MultForm.build(N, 1, qp, vals)


# ---------------------------------------------------------------------------
# Hecke-type R-matrices and gauge transformations


class HeckeRMatrix:
    """R(lambda) = sum_a alpha_aa E_aa (x) E_aa + sum_{a!=b} alpha_ab E_aa (x) E_bb
    + sum_{a!=b} beta_ab E_ba (x) E_ab, with coefficients rational in the pair
    difference variable x_ab; Hecke parameters (hq, hp) tracked through gauges.
    Equality compares every coefficient."""

    __slots__ = ("N", "qp", "alpha_diag", "alpha", "beta", "hq", "hp")

    def __init__(self, N: int, qp: QParam, alpha_diag: tuple, alpha: dict, beta: dict,
                 hq: Fraction = Fraction(1), hp: Fraction = Fraction(1)):
        self.N, self.qp = N, qp
        self.alpha_diag = alpha_diag  # length N, Fractions
        self.alpha = alpha            # (a, b) -> RatFunc in x_ab, for a != b
        self.beta = beta              # (a, b) -> RatFunc in x_ab, for a != b
        self.hq, self.hp = hq, hp

    def _fields(self) -> tuple:
        return (self.N, self.qp, self.alpha_diag, self.alpha, self.beta, self.hq, self.hp)

    def __eq__(self, other):
        if other.__class__ is not HeckeRMatrix:
            return NotImplemented
        return self._fields() == other._fields()

    def to_matrix(self, lam: Lambda):
        """The matrix at lam, each coefficient evaluated at x_ab = lam.pair(a, b):
        Fractions at a sampled lambda, RatFuncs in x at the symbolic gl2 one."""
        N = self.N
        d = N * N
        M = [[lam.zero()] * d for _ in range(d)]
        for a in range(N):
            M[a * N + a][a * N + a] = lam.scalar(self.alpha_diag[a])
        for a in range(N):
            for b in range(N):
                if a != b:
                    x = lam.pair(a, b)
                    M[a * N + b][a * N + b] = self.alpha[(a, b)].eval(x)
                    M[b * N + a][a * N + b] = self.beta[(a, b)].eval(x)
        return M


def _hecke(N: int, qp: QParam, coeffs, diag: tuple, hq=Fraction(1), hp=Fraction(1)):
    """The HeckeRMatrix with alpha_aa = diag[a] and (alpha_ab, beta_ab) = coeffs(a, b)
    for a != b."""
    alpha, beta = {}, {}
    for a in range(N):
        for b in range(N):
            if a != b:
                alpha[(a, b)], beta[(a, b)] = coeffs(a, b)
    return HeckeRMatrix(N, qp, diag, alpha, beta, hq, hp)


def _pairpow_ratfunc(qp: QParam, shift: int, forward: bool) -> RatFunc:
    """q^{2(lambda_a - lambda_b + shift)} as RatFunc in x_ab (forward) or the
    classical difference."""
    x = RatFunc.x()
    if qp.classical:
        return (x + RatFunc.const(shift)) if forward else (RatFunc.const(shift) - x)
    out = x * x if forward else RatFunc.const(1) / (x * x)
    return out * RatFunc.const(qp.qpow(2 * shift))


def example_hecke(N: int, qp: QParam) -> HeckeRMatrix:
    """The reference Hecke solution: beta_ab = (q^-2 - 1)/(q^{2(lambda_b-lambda_a)} - 1),
    alpha_aa = 1, alpha_ab = beta_ab + q^-2 (classically beta_ab = 1/(lambda_a-lambda_b),
    alpha_ab = beta_ab + 1)."""
    one = RatFunc.const(1)

    def coeffs(a, b):
        if qp.classical:
            bb = one / RatFunc.x()  # 1/(lambda_a - lambda_b)
            return bb + one, bb
        u = _pairpow_ratfunc(qp, 0, forward=False)  # q^{2(lambda_b-lambda_a)}
        bb = RatFunc.const(qp.qpow(-2) - 1) / (u - one)
        return bb + RatFunc.const(qp.qpow(-2)), bb

    hp = Fraction(1) if qp.classical else qp.qpow(-2)
    return _hecke(N, qp, coeffs, (Fraction(1),) * N, Fraction(1), hp)


def closed_form_hecke(N: int, qp: QParam) -> HeckeRMatrix:
    """The closed gl_N exchange matrix R of the vector pair, in Hecke-coefficient form."""
    one = RatFunc.const(1)

    def coeffs(a, b):
        u = _pairpow_ratfunc(qp, a - b, forward=False)  # q^{2(lambda_b-lambda_a+a-b)} in x_ab
        if qp.classical:
            bb = one / (RatFunc.const(0) - u)  # 1/(lambda_a-lambda_b+b-a)
            return (one if a < b else (u - one) * (u + one) / (u * u)), bb
        bb = RatFunc.const(qp.qpow(-1) - qp.q) / (u - one)
        if a < b:
            return one, bb
        q2, qm2 = RatFunc.const(qp.qpow(2)), RatFunc.const(qp.qpow(-2))
        return (u - q2) * (u - qm2) / ((u - one) * (u - one)), bb

    diag = Fraction(1) if qp.classical else qp.q
    hp = Fraction(1) if qp.classical else qp.qpow(-1)
    return _hecke(N, qp, coeffs, (diag,) * N, diag, hp)


def closed_form_fusion(N: int, qp: QParam) -> HeckeRMatrix:
    """The closed gl_N fusion matrix J of the vector pair, in the same form:
    diagonal 1, alpha_ab = 1, and beta_ab = (q^-1 - q)/(u - 1) with
    u = q^{2(lambda_a-lambda_b+b-a)} for a < b (classically
    -1/(lambda_a-lambda_b+b-a)); beta_ab = 0 for a > b."""
    one, zero = RatFunc.const(1), RatFunc.const(0)

    def coeffs(a, b):
        if a > b:
            return one, zero
        u = _pairpow_ratfunc(qp, b - a, forward=True)  # q^{2(lambda_a-lambda_b+b-a)}
        if qp.classical:
            return one, (zero - one) / u
        return one, RatFunc.const(qp.qpow(-1) - qp.q) / (u - one)

    return _hecke(N, qp, coeffs, (Fraction(1),) * N)


class NotClosedError(ValueError):
    pass


def apply_gauge(R: HeckeRMatrix, transform) -> HeckeRMatrix:
    kind = transform[0]
    qp = R.qp
    if kind == "I":
        phi: MultForm = transform[1]
        if phi.degree != 2:
            raise ValueError("type I needs a 2-form")
        if not is_closed(phi):
            raise NotClosedError("type I requires a closed 2-form")
        alpha = {(a, b): g * phi.value((a, b)).single_pair_ratfunc(a, b)
                 for (a, b), g in R.alpha.items()}
        return HeckeRMatrix(R.N, qp, R.alpha_diag, alpha, R.beta, R.hq, R.hp)
    if kind == "II":
        sigma = transform[1]  # sigma[i] = image of i
        inv = [0] * R.N
        for i, s in enumerate(sigma):
            inv[s] = i
        return _hecke(R.N, qp,
                      lambda a, b: (R.alpha[(inv[a], inv[b])], R.beta[(inv[a], inv[b])]),
                      tuple(R.alpha_diag[i] for i in inv), R.hq, R.hp)
    if kind == "III":
        c = Fraction(transform[1])
        return HeckeRMatrix(R.N, qp, tuple(x * c for x in R.alpha_diag),
                            {k: g * RatFunc.const(c) for k, g in R.alpha.items()},
                            {k: g * RatFunc.const(c) for k, g in R.beta.items()},
                            c * R.hq, c * R.hp)
    if kind == "IV":
        mu = transform[1]

        def shift(table):
            return {(a, b): _shift_pair(qp, g, mu[a] - mu[b]) for (a, b), g in table.items()}

        return HeckeRMatrix(R.N, qp, R.alpha_diag, shift(R.alpha), shift(R.beta), R.hq, R.hp)
    raise ValueError(f"unknown gauge transformation {kind!r}")


def rho_shift(N: int) -> tuple:
    """The half-sum-of-positive-roots shift (pairwise differences rho_a - rho_b = b - a)."""
    return tuple(Fraction(N + 1 - 2 * (a + 1), 2) for a in range(N))


def exact_one_form(N: int, qp: QParam) -> MultForm:
    """xi*_a = prod_{b<a} q^{-lambda_b} (q^{2(lambda_b - lambda_a + a - b + 1)} - 1)
    (classically prod_{b<a} (lambda_b - lambda_a + a - b + 1)); d xi* is the
    2-form of the rational-equivalence lemma."""
    vals = {}
    for a in range(N):
        f = FormScalar.one(qp)
        for b in range(a):
            g = _pairpow_ratfunc(qp, a - b + 1, forward=True)  # in x_{ba}
            if not qp.classical:
                g = g - RatFunc.const(1)
                f = f * FormScalar.of_mono(qp, {b: -1})
            f = f * FormScalar.of_pair(qp, b, a, g)
        vals[(a,)] = f
    return MultForm.build(N, 1, qp, vals)


def exact_two_form(N: int, qp: QParam) -> MultForm:
    """The closed 2-form phi* with phi*_ab = q (u_ab - q^{-2})/(u_ab - 1) for a > b
    (classically (v+1)/v, v = lambda_b - lambda_a + a - b), u_ab = q^{2(lambda_b-lambda_a+a-b)};
    equals d xi* and carries the reference Hecke solution to the computed exchange matrix."""
    vals = {}
    one = RatFunc.const(1)
    for b in range(N):
        for a in range(b + 1, N):
            # build phi_ab (ordered, a > b) as a function of x_{ba} = difference for
            # the sorted pair (b, a); the stored value is phi_{ba} = phi_ab^{-1}
            u = _pairpow_ratfunc(qp, a - b, forward=True)  # q^{2(lambda_b-lambda_a+a-b)}
            if qp.classical:
                phi_ab = (u + one) / u  # u = lambda_b - lambda_a + a - b
            else:
                phi_ab = RatFunc.const(qp.q) * (u - RatFunc.const(qp.qpow(-2))) / (u - one)
            vals[(b, a)] = FormScalar.of_pair(qp, b, a, one / phi_ab)
    return MultForm.build(N, 2, qp, vals)


def gauge_sequence_report(N: int, qp: QParam):
    """Run the three-step sequence (IV by rho, III by q, I by the exact 2-form)
    on the reference Hecke solution and compare with the closed-form exchange
    matrix, coefficientwise as rational functions."""
    R = example_hecke(N, qp)
    R = apply_gauge(R, ("IV", rho_shift(N)))
    R = apply_gauge(R, ("III", Fraction(1) if qp.classical else qp.q))
    R = apply_gauge(R, ("I", exact_two_form(N, qp)))
    target = closed_form_hecke(N, qp)
    return R, target, R == target


def conjugation_identity_check(R: HeckeRMatrix, xi: MultForm, points) -> Report:
    """Two-path check: the diagonal sandwich
    (xi^(1)(lambda-h^(2)))^{-1} (xi^(2)(lambda))^{-1} R(lambda) xi^(1)(lambda) xi^(2)(lambda-h^(1))
    equals the type-I transformation of R by d xi, exactly at each sample point."""
    dxi = d_operator(xi)
    N = R.N
    d = N * N
    xs = [xi.value((a,)) for a in range(N)]
    rep = Report("conjugation", {"N": N, "samples": len(points)})
    for idx, pt in enumerate(points):
        M = R.to_matrix(pt)
        conj = [[Fraction(0)] * d for _ in range(d)]

        # weight of v_c is eps_c: lambda - h^{(2)} on v_c (x) v_d shifts lambda_d by -1 etc.
        def xi_at(a, shifted_coord):
            p = pt if shifted_coord is None else pt.shifted(
                tuple(1 if t == shifted_coord else 0 for t in range(N)))
            return xs[a].eval(p)

        for r in range(d):
            c, dd = divmod(r, N)
            for col in range(d):
                a, b = divmod(col, N)
                if M[r][col] == 0:
                    continue
                left = Fraction(1) / (xi_at(c, dd) * xi_at(dd, None))
                right = xi_at(a, None) * xi_at(b, a)
                conj[r][col] = left * M[r][col] * right
        # type-I transform by d xi applied pointwise (general forms allowed)
        T = [row[:] for row in M]
        for a in range(N):
            for b in range(N):
                if a != b:
                    T[a * N + b][a * N + b] = M[a * N + b][a * N + b] * dxi.value((a, b)).eval(pt)
        for r in range(d):
            for col in range(d):
                if conj[r][col] != T[r][col]:
                    rep.fail(sample=idx, entry=(r, col),
                             conjugated=str(conj[r][col]), gauged=str(T[r][col]))
    return rep
