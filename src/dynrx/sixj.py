"""6j-symbols for (quantum) sl2 from fusion matrices, with a brute-force
Clebsch-Gordan recoupling oracle and the Elliott-Biedenharn pentagon check.

Normalization: phi_a^{bc} : V_a -> V_b (x) V_c is the intertwiner with
phi(v_a) = v_b (x) v_{c, b+c-a} + lower first-slot terms.  It is built from
one vector: phi(v_a) spans the kernel of e on the weight-2a space of
V_b (x) V_c (one line, as the product is multiplicity-free), scaled to 1 on
v_b (x) v_{c, b+c-a}; phi(v_{a,m}) = f^m phi(v_a).  The 6j-symbol is the
recoupling coefficient

    (1 (x) phi_j^{bc}) phi_k^{aj} = sum_n sixj(a,b,n,c,k,j) (phi_n^{ab} (x) 1) phi_k^{nc}.

Inadmissible tuples give 0.  The fusion route evaluates J_{bc}^{-1} at the
half-integer point lambda = k applied to phi_j^{bc} v_{j, j-k+a} and reads the
coefficients on v_{b,b-n+a} (x) v_{c,c-k+n}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg, memo
from .liealg import irrep_sl2, tensor
from .lam import Lambda
from .exchange import fusion_inverse
from .scalars import PoleError, QParam, RatFunc


_sixj = memo.table("sixj")
_phi = memo.table("phi")


class ResonanceError(ArithmeticError):
    """J singular exactly at the evaluation point lambda = k."""


def admissible(a, b, c) -> bool:
    """Triangle rule with integer total for the spin triple."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return (a + b + c).denominator == 1 and abs(a - b) <= c <= a + b


def cg_range(b, c):
    b, c = Fraction(b), Fraction(c)
    j = abs(b - c)
    out = []
    while j <= b + c:
        out.append(j)
        j += 1
    return out


def normalized_intertwiner(b, c, a, qp: QParam):
    """phi_a^{bc}: V_a -> V_b (x) V_c normalized on v_b (x) v_{c,b+c-a}; columns
    are the images of the basis v_{a,m}."""
    return _phi.get((Fraction(b), Fraction(c), Fraction(a), qp.q, qp.classical),
                    _normalized_intertwiner_impl, b, c, a, qp)


def _normalized_intertwiner_impl(b, c, a, qp: QParam):
    if not admissible(a, b, c):
        raise ValueError(f"inadmissible triple {(a, b, c)}")
    Vb, Vc = irrep_sl2(b, qp), irrep_sl2(c, qp)
    T = tensor(Vb, Vc)
    # V_b (x) V_c is multiplicity-free, so e kills exactly one line in the
    # weight-2a space; the pin below fixes the scalar
    idxs = T.weight_spaces()[(int(2 * Fraction(a)),)]
    (kernel,) = linalg.nullspace([[row[s] for s in idxs] for row in T.e[0]])
    hw = [Fraction(0)] * T.dim
    for s, x in zip(idxs, kernel):
        hw[s] = x
    m = int(Fraction(b) + Fraction(c) - Fraction(a))
    pin = 0 * Vc.dim + m  # index of v_b (x) v_{c,m}
    if hw[pin] == 0:
        raise ArithmeticError("normalization coefficient vanishes")
    scale = 1 / hw[pin]
    cols = [[x * scale for x in hw]]
    for _ in range(int(2 * Fraction(a))):
        prev = cols[-1]
        img = [sum(T.f[0][r][s] * prev[s] for s in range(T.dim)) for r in range(T.dim)]
        cols.append(img)
    return Vb, Vc, [list(col) for col in zip(*cols)]  # (dim T) x (dim V_a)


def sixj_fusion(a, b, n, c, k, j, qp: QParam):
    """6j-symbol extracted from the symbolic fusion matrix J_{bc} at lambda = k."""
    a, b, n, c, k, j = map(Fraction, (a, b, n, c, k, j))
    return _sixj.get((a, b, n, c, k, j, qp.q, qp.classical), _sixj_fusion_impl,
                     a, b, n, c, k, j, qp)


def _sixj_fusion_impl(a, b, n, c, k, j, qp: QParam):
    if not (admissible(a, b, n) and admissible(n, c, k) and admissible(b, c, j)
            and admissible(a, j, k)):
        return Fraction(0)
    m = j - k + a
    if m.denominator != 1 or not 0 <= m <= 2 * j:
        return Fraction(0)
    ib = int(b - n + a)
    ic = int(c - k + n)
    Vb, Vc, phi = normalized_intertwiner(b, c, j, qp)
    if not (0 <= ib < Vb.dim and 0 <= ic < Vc.dim):
        return Fraction(0)
    col = [phi[r][int(m)] for r in range(Vb.dim * Vc.dim)]
    # the coefficient on v_{b,b-n+a} (x) v_{c,c-k+n}: row ib (x) ic of J_bc^(-1) phi
    # at lambda = k (h-eigenvalue 2k), x = q^{2k} (classically x = 2k); the row
    # is combined symbolically first so that removable entry poles cancel
    row = fusion_inverse(Vb, Vc, Lambda.symbolic(Vb.spec))[ib * Vc.dim + ic]
    x0 = Fraction(2 * k) if qp.classical else qp.spow(int(4 * k))
    acc = RatFunc.const(0)
    for e, cs in zip(row, col):
        if e:
            acc = acc + RatFunc.coerce(e) * RatFunc.const(cs)
    try:
        return acc.eval(x0)
    except PoleError as exc:
        raise ResonanceError(f"J_bc^(-1) singular at lambda = {k}") from exc


def sixj_oracle(a, b, n, c, k, j, qp: QParam):
    """Independent value by brute-force recoupling: expand (1 (x) phi_j^{bc}) phi_k^{aj}
    over the basis (phi_n^{ab} (x) 1) phi_k^{nc} by an exact linear solve."""
    a, b, n, c, k, j = map(Fraction, (a, b, n, c, k, j))
    if not (admissible(b, c, j) and admissible(a, j, k)):
        return Fraction(0)
    Va, Vb, Vc, Vk = (irrep_sl2(s, qp) for s in (a, b, c, k))
    da, db, dc, dk = Va.dim, Vb.dim, Vc.dim, Vk.dim
    d3 = da * db * dc

    def lift_right(jspin):
        # (1 (x) phi_j^{bc}) phi_k^{aj}: V_k -> V_a (x) V_b (x) V_c
        _, _, phi1 = normalized_intertwiner(a, jspin, k, qp)   # V_k -> V_a (x) V_j
        _, _, phi2 = normalized_intertwiner(b, c, jspin, qp)   # V_j -> V_b (x) V_c
        dj = int(2 * Fraction(jspin)) + 1
        out = [[Fraction(0)] * dk for _ in range(d3)]
        for col in range(dk):
            for ia in range(da):
                for ij in range(dj):
                    cv = phi1[ia * dj + ij][col]
                    if cv == 0:
                        continue
                    for ib in range(db):
                        for ic in range(dc):
                            out[(ia * db + ib) * dc + ic][col] += cv * phi2[ib * dc + ic][ij]
        return out

    def lift_left(nspin):
        # (phi_n^{ab} (x) 1) phi_k^{nc}: V_k -> V_a (x) V_b (x) V_c
        _, _, phi1 = normalized_intertwiner(nspin, c, k, qp)   # V_k -> V_n (x) V_c
        _, _, phi2 = normalized_intertwiner(a, b, nspin, qp)   # V_n -> V_a (x) V_b
        dn = int(2 * Fraction(nspin)) + 1
        out = [[Fraction(0)] * dk for _ in range(d3)]
        for col in range(dk):
            for i_n in range(dn):
                for ic in range(dc):
                    cv = phi1[i_n * dc + ic][col]
                    if cv == 0:
                        continue
                    for ia in range(da):
                        for ib in range(db):
                            out[(ia * db + ib) * dc + ic][col] += cv * phi2[ia * db + ib][i_n]
        return out

    ns = [nn for nn in cg_range(a, b) if admissible(nn, c, k)]
    if n not in ns:
        return Fraction(0)
    target = lift_right(j)
    basis = [lift_left(nn) for nn in ns]
    rows, rhs = [], []
    for r in range(d3):
        for col in range(dk):
            row = [basis[t][r][col] for t in range(len(ns))]
            if any(x != 0 for x in row) or target[r][col] != 0:
                rows.append(row)
                rhs.append([target[r][col]])
    sol = linalg.solve_linear(rows, rhs)
    return sol[ns.index(n)][0]


@dataclass
class SixJTable:
    qp: QParam
    max_spin: Fraction
    values: dict  # (a,b,n,c,k,j) -> Fraction

    def get(self, a, b, n, c, k, j):
        return self.values.get(tuple(map(Fraction, (a, b, n, c, k, j))), Fraction(0))

    def rows(self):
        for key in sorted(self.values):
            yield key + (self.values[key],)


def spin_range(max_spin):
    out = []
    s = Fraction(0)
    while s <= Fraction(max_spin):
        out.append(s)
        s += Fraction(1, 2)
    return out


def sixj_table(qp: QParam, max_spin=Fraction(1), method: str = "fusion") -> SixJTable:
    fn = sixj_fusion if method == "fusion" else sixj_oracle
    values = {}
    spins = spin_range(max_spin)
    for a in spins:
        for b in spins:
            for c in spins:
                for j in cg_range(b, c):
                    if j > Fraction(max_spin) * 2 or not admissible(b, c, j):
                        continue
                    for k in cg_range(a, j):
                        for n in cg_range(a, b):
                            if not admissible(n, c, k):
                                continue
                            v = fn(a, b, n, c, k, j, qp)
                            if v != 0:
                                values[(a, b, n, c, k, j)] = v
    return SixJTable(qp, Fraction(max_spin), values)


def pentagon_residuals(qp: QParam, max_spin=Fraction(1)):
    """Elliott-Biedenharn identity:
    sixj(a,b,n1;u,k,w) sixj(n1,c,y;d,k,u) =
      sum_v sixj(b,c,v;d,w,u) sixj(a,v,y;d,k,w) sixj(a,b,n1;c,y,v),
    over all label assignments with the four outer spins a,b,c,d bounded by
    max_spin (intermediate labels run over their full admissible ranges, so no
    truncation enters the v-sum)."""

    cache: dict = {}

    def S(a, b, n, c, k, j):
        key = (a, b, n, c, k, j)
        if key not in cache:
            cache[key] = sixj_fusion(*key, qp)
        return cache[key]

    bad = []
    spins = spin_range(max_spin)
    for a in spins:
        for b in spins:
            for c in spins:
                for d in spins:
                    for u in cg_range(c, d):
                        for w in cg_range(b, u):
                            for k in cg_range(a, w):
                                for n1 in cg_range(a, b):
                                    for y in cg_range(n1, c):
                                        if not admissible(y, d, k):
                                            continue
                                        lhs = S(a, b, n1, u, k, w) * S(n1, c, y, d, k, u)
                                        rhs = Fraction(0)
                                        for v in cg_range(b, c):
                                            rhs += (
                                                S(b, c, v, d, w, u)
                                                * S(a, v, y, d, k, w)
                                                * S(a, b, n1, c, y, v)
                                            )
                                        if lhs != rhs:
                                            bad.append(((a, b, c, d, u, w, k, n1, y), lhs, rhs))
    return bad
