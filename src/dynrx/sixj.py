"""6j-symbols for (quantum) sl2 from fusion matrices, with a brute-force
Clebsch-Gordan recoupling oracle and the Elliott-Biedenharn pentagon check.

Every spin label below is a doubled spin 2j held as an int: V_a has dimension
a + 1 and basis v_{a,m} (m = 0..a).  Fraction spins appear only at the public
edge: the `max_spin` arguments of `sixj_table` and `pentagon_residuals`, the
keys of `SixJTable` and the labels of a pentagon failure.

Normalization: phi_a^{bc} : V_a -> V_b (x) V_c is the intertwiner with
phi(v_a) = v_b (x) v_{c, (b+c-a)/2} + lower first-slot terms.  It is built
from one vector: phi(v_a) spans the kernel of e on the weight-a space of
V_b (x) V_c (one line, as the product is multiplicity-free), scaled to 1 on
v_b (x) v_{c, (b+c-a)/2}; phi(v_{a,m}) = f^m phi(v_a).  The 6j-symbol is the
recoupling coefficient

    (1 (x) phi_j^{bc}) phi_k^{aj} = sum_n sixj(a,b,n,c,k,j) (phi_n^{ab} (x) 1) phi_k^{nc}.

Inadmissible tuples give 0.  The fusion route evaluates J_{bc}^{-1} at the
half-integer point lambda = k/2 applied to phi_j^{bc} v_{j, (j-k+a)/2} and reads
the coefficients on v_{b,(b-n+a)/2} (x) v_{c,(c-k+n)/2}.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from . import linalg, memo
from .liealg import irrep_sl2, tensor
from .lam import Lambda
from .exchange import fusion_inverse
from .scalars import PoleError, QParam, RatFunc


_sixj = memo.table("sixj")
_phi = memo.table("phi")  # (b, c, qp) -> V_b, V_c and phi_a^{bc} for every admissible a
_sixj_entry = memo.table("sixj_entry")  # (b, c, j, ib, ic, m, qp) -> one row of J_bc^(-1) phi_j
_sixj_oracle = memo.table("sixj_oracle")  # (a, b, c, k, qp) -> one recoupling solve; oracle only


class ResonanceError(ArithmeticError):
    """J singular exactly at the evaluation point lambda = k/2."""


def admissible(a: int, b: int, c: int) -> bool:
    """Triangle rule with integer total for the doubled-spin triple."""
    return (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b


def cg_range(b: int, c: int) -> range:
    """The doubled spins of the summands of V_b (x) V_c."""
    return range(abs(b - c), b + c + 1, 2)


def spin_range(max_spin) -> range:
    """The doubled spins 0, 1, ..., 2 * max_spin for a spin bound."""
    return range(int(2 * Fraction(max_spin)) + 1)


def normalized_intertwiner(b: int, c: int, a: int, qp: QParam):
    """phi_a^{bc}: V_a -> V_b (x) V_c normalized on v_b (x) v_{c,(b+c-a)/2};
    columns are the images of the basis v_{a,m}."""
    Vb, Vc, phis = _phi.get((b, c, qp), _normalized_intertwiners, b, c, qp)
    if a not in phis:
        raise ValueError(f"inadmissible triple {(a, b, c)}")
    return Vb, Vc, phis[a]


def _normalized_intertwiners(b: int, c: int, qp: QParam):
    """V_b, V_c and {a: phi_a^{bc}} over every summand V_a of V_b (x) V_c."""
    Vb, Vc = irrep_sl2(Fraction(b, 2), qp), irrep_sl2(Fraction(c, 2), qp)
    T = tensor(Vb, Vc)
    spaces = T.weight_spaces()
    # each column of f on V_b (x) V_c has at most two nonzeros
    fnz = [(r, s, x) for r, row in enumerate(T.f[0]) for s, x in enumerate(row) if x]
    phis = {}
    for a in cg_range(b, c):
        # V_b (x) V_c is multiplicity-free, so e kills exactly one line in the
        # weight-a space; the pin below fixes the scalar
        idxs = spaces[(a,)]
        (kernel,) = linalg.nullspace([[row[s] for s in idxs] for row in T.e[0]])
        hw = [Fraction(0)] * T.dim
        for s, x in zip(idxs, kernel):
            hw[s] = x
        pin = (b + c - a) // 2  # index of v_b (x) v_{c,(b+c-a)/2}
        if hw[pin] == 0:
            raise ArithmeticError("normalization coefficient vanishes")
        scale = 1 / hw[pin]
        cols = [[x * scale for x in hw]]
        for _ in range(a):
            prev = cols[-1]
            img = [Fraction(0)] * T.dim
            for r, s, x in fnz:
                if prev[s]:
                    img[r] += x * prev[s]
            cols.append(img)
        phis[a] = [list(col) for col in zip(*cols)]  # (dim T) x (dim V_a)
    return Vb, Vc, phis


def sixj_fusion(a: int, b: int, n: int, c: int, k: int, j: int, qp: QParam):
    """6j-symbol extracted from the symbolic fusion matrix J_{bc} at lambda = k/2."""
    return _sixj.get((a, b, n, c, k, j, qp), _sixj_fusion_impl, a, b, n, c, k, j, qp)


def _sixj_fusion_impl(a, b, n, c, k, j, qp: QParam):
    if not (admissible(a, b, n) and admissible(n, c, k) and admissible(b, c, j)
            and admissible(a, j, k)):
        return Fraction(0)
    # the four triangle rules keep m, ib and ic inside their bases
    m, ib, ic = (j - k + a) // 2, (b - n + a) // 2, (c - k + n) // 2
    # the coefficient on v_{b,ib} (x) v_{c,ic}: that row of J_bc^(-1) phi at
    # lambda = k/2 (h-eigenvalue k), x = q^k (classically x = k)
    entry = _sixj_entry.get((b, c, j, ib, ic, m, qp), _sixj_entry_impl, b, c, j, ib, ic, m, qp)
    x0 = Fraction(k) if qp.classical else qp.spow(2 * k)
    try:
        return entry.eval(x0)
    except PoleError as exc:
        raise ResonanceError(f"J_bc^(-1) singular at lambda = {Fraction(k, 2)}") from exc


def _sixj_entry_impl(b, c, j, ib, ic, m, qp: QParam) -> RatFunc:
    """(J_bc^(-1) phi_j^{bc})[ib * (c + 1) + ic][m] as a function of x: the row
    is combined symbolically, before any evaluation, so that removable entry
    poles cancel."""
    Vb, Vc, phi = normalized_intertwiner(b, c, j, qp)
    Ji = fusion_inverse(Vb, Vc, Lambda.symbolic(Vb.spec))
    row = linalg.dense([Ji[ib * Vc.dim + ic]], len(Ji))[0]
    return _combine(row, [r[m] for r in phi])


def _combine(row, col) -> RatFunc:
    """sum_r row[r] * col[r] for RatFunc or Fraction row entries and Fraction
    col entries, summed term by term with the reduced-operand RatFunc `+`, so
    that every partial sum stays in lowest terms."""
    acc = RatFunc.const(0)
    for e, cs in zip(row, col):
        if e and cs:
            acc = acc + RatFunc.coerce(e) * cs
    return acc


def sixj_oracle(a: int, b: int, n: int, c: int, k: int, j: int, qp: QParam):
    """Independent value by brute-force recoupling: expand (1 (x) phi_j^{bc}) phi_k^{aj}
    over the basis (phi_n^{ab} (x) 1) phi_k^{nc} by an exact linear solve.  One
    solve per (a, b, c, k) serves every admissible n and j; the fusion route
    never reads its table."""
    if not (admissible(b, c, j) and admissible(a, j, k)):
        return Fraction(0)
    ns = [nn for nn in cg_range(a, b) if admissible(nn, c, k)]
    if n not in ns:
        return Fraction(0)
    js, sol = _sixj_oracle.get((a, b, c, k, qp), _recouple, a, b, c, k, ns, qp)
    return sol[ns.index(n)][js.index(j)]


def _recouple(a: int, b: int, c: int, k: int, ns: list, qp: QParam):
    """(js, X) for the admissible j in js: X[t][s] is the coefficient of the
    basis lift of ns[t] in the target lift of js[s]."""
    da, db, dc, dk = a + 1, b + 1, c + 1, k + 1
    d3 = da * db * dc

    def lift_right(jj):
        # (1 (x) phi_j^{bc}) phi_k^{aj}: V_k -> V_a (x) V_b (x) V_c
        _, _, phi1 = normalized_intertwiner(a, jj, k, qp)   # V_k -> V_a (x) V_j
        _, _, phi2 = normalized_intertwiner(b, c, jj, qp)   # V_j -> V_b (x) V_c
        out = [[Fraction(0)] * dk for _ in range(d3)]
        for col in range(dk):
            for ia in range(da):
                for ij in range(jj + 1):
                    cv = phi1[ia * (jj + 1) + ij][col]
                    if cv:
                        for r2 in range(db * dc):  # r2 = ib * dc + ic
                            if phi2[r2][ij]:
                                out[ia * db * dc + r2][col] += cv * phi2[r2][ij]
        return out

    def lift_left(nn):
        # (phi_n^{ab} (x) 1) phi_k^{nc}: V_k -> V_a (x) V_b (x) V_c
        _, _, phi1 = normalized_intertwiner(nn, c, k, qp)   # V_k -> V_n (x) V_c
        _, _, phi2 = normalized_intertwiner(a, b, nn, qp)   # V_n -> V_a (x) V_b
        out = [[Fraction(0)] * dk for _ in range(d3)]
        for col in range(dk):
            for i_n in range(nn + 1):
                for ic in range(dc):
                    cv = phi1[i_n * dc + ic][col]
                    if cv:
                        for r2 in range(da * db):  # r2 = ia * db + ib
                            if phi2[r2][i_n]:
                                out[r2 * dc + ic][col] += cv * phi2[r2][i_n]
        return out

    js = [jj for jj in cg_range(b, c) if admissible(a, jj, k)]
    targets = [lift_right(jj) for jj in js]
    basis = [lift_left(nn) for nn in ns]
    rows, rhs = [], []
    for r in range(d3):
        for col in range(dk):
            row = [lift[r][col] for lift in basis]
            targ = [lift[r][col] for lift in targets]
            # every nonzero row is kept, so the solve also checks consistency
            if any(row) or any(targ):
                rows.append(row)
                rhs.append(targ)
    return js, linalg.solve_linear(rows, rhs)


def _spins(labels) -> tuple:
    return tuple(Fraction(x, 2) for x in labels)


class SixJTable:
    __slots__ = ("qp", "max_spin", "values")

    def __init__(self, qp: QParam, max_spin: Fraction, values: dict):
        self.qp, self.max_spin = qp, max_spin
        self.values = values  # (a,b,n,c,k,j) as Fraction spins -> Fraction

    def get(self, a, b, n, c, k, j):
        return self.values.get(tuple(map(Fraction, (a, b, n, c, k, j))), Fraction(0))

    def rows(self):
        for key in sorted(self.values):
            yield key + (self.values[key],)


def sixj_table(qp: QParam, max_spin=Fraction(1), method: str = "fusion") -> SixJTable:
    """The nonzero 6j-symbols with a, b, c at most the spin `max_spin`."""
    fn = sixj_fusion if method == "fusion" else sixj_oracle
    values = {}
    for a, b, c in product(spin_range(max_spin), repeat=3):
        for j in cg_range(b, c):
            for k in cg_range(a, j):
                for n in cg_range(a, b):
                    if admissible(n, c, k):
                        v = fn(a, b, n, c, k, j, qp)
                        if v != 0:
                            values[_spins((a, b, n, c, k, j))] = v
    return SixJTable(qp, Fraction(max_spin), values)


def pentagon_residuals(qp: QParam, max_spin=Fraction(1)):
    """Elliott-Biedenharn identity:
    sixj(a,b,n1;u,k,w) sixj(n1,c,y;d,k,u) =
      sum_v sixj(b,c,v;d,w,u) sixj(a,v,y;d,k,w) sixj(a,b,n1;c,y,v),
    over all label assignments with the four outer spins a,b,c,d bounded by
    the spin max_spin (intermediate labels run over their full admissible
    ranges, so no truncation enters the v-sum).  A failure is (the nine
    labels as Fraction spins, lhs, rhs)."""
    S = sixj_fusion
    bad = []
    for a, b, c, d in product(spin_range(max_spin), repeat=4):
        for u in cg_range(c, d):
            for w in cg_range(b, u):
                for k in cg_range(a, w):
                    for n1 in cg_range(a, b):
                        for y in cg_range(n1, c):
                            if not admissible(y, d, k):
                                continue
                            lhs = S(a, b, n1, u, k, w, qp) * S(n1, c, y, d, k, u, qp)
                            rhs = Fraction(0)
                            for v in cg_range(b, c):
                                rhs += (S(b, c, v, d, w, u, qp) * S(a, v, y, d, k, w, qp)
                                        * S(a, b, n1, c, y, v, qp))
                            if lhs != rhs:
                                bad.append((_spins((a, b, c, d, u, w, k, n1, y)), lhs, rhs))
    return bad
