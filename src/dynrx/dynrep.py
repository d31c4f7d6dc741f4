"""Dynamical representations by difference operators, and in-representation
verification of the algebroid relations (RLL, the product relation through
Clebsch-Gordan data, coproduct compatibility, the antipode through K-matrices).

An operator is a dict {beta: M_beta} meaning sum_beta M_beta T_beta^{-1}: each
M_beta is one exact matrix on (matrix slots) (x) U, the module U last,
evaluated at one lambda and held in the row form of `linalg`.  Composition
shifts the right factor,
(A B)_gamma = sum_{b1 + b2 = gamma} A_b1(lambda) B_b2(lambda - b1), so the
right factor is passed as a function of lambda.

Moment maps inside normal-ordered expressions: a matrix of lambda^1
multiplies on the left as the weight-diagonal f(lambda - h^{(U)}); a matrix of
lambda^2 multiplies on the right as the plain f(lambda).
`exchange.embed3_rows` makes both placements.  (This is forced by the
bigrading relations: with it, the RLL relation in a representation is
literally the QDYB equation.)  So the suites run as the cocycle and QDYB
checks do: they read J, J^-1 and R in row form from their tables and convert
none of them, multiply by `linalg.row_mul` and compare by `linalg.differences`.
"""

from __future__ import annotations

from . import linalg
from .liealg import FinRep, cg_decompose, dual_rep, tensor, trivial_rep, wt_add
from .lam import Lambda
from .exchange import (
    Report,
    embed3_rows,
    exchange_matrix,
    fusion_inverse,
    fusion_matrix,
    kmat,
    kprime,
)


def compose(A: dict, B, lam: Lambda) -> dict:
    """The operator A B at lambda, from A at lambda and B as a function of lambda."""
    out: dict = {}
    for b1, M in A.items():
        for b2, N in B(lam.shifted(b1)).items():
            _add_term(out, wt_add(b1, b2), linalg.row_mul(M, N))
    return out


def _add_term(op: dict, beta, M) -> None:
    op[beta] = linalg.rows_add(op[beta], M) if beta in op else M


def _bad_blocks(A: dict, B: dict, n: int) -> list:
    """The (r, c), sorted, of each block of the n x n grid (one block per
    matrix-slot entry) where the operators A and B differ.  A pair of zeros is
    never compared."""
    if not (A or B):
        return []
    M = next(iter((A or B).values()))
    zero = linalg.mask(M, ())  # a shift on one side only is compared against zero
    k = len(M) // n
    return sorted({(r // k, c // k) for b in A.keys() | B.keys()
                   for r, c, _, _ in linalg.differences(A.get(b, zero), B.get(b, zero))})


def _placed(op: dict, reps, s0: int, s1: int, lam: Lambda) -> dict:
    """The operator op on reps[s0] (x) reps[s1], acting on those slots of the
    triple."""
    return {b: embed3_rows(lambda lh, M=M: M, reps, s0, s1, lam, False) for b, M in op.items()}


# ---------------------------------------------------------------------------
# the representation pi_U


def pi_generator(V: FinRep, U: FinRep, lam: Lambda, method: str = "verma") -> dict:
    """pi_U(L^V) on V (x) U: pi(L^V_ab) = (R_{V,U}(lambda) block ab) T^{-1}_{wt b}."""
    R = exchange_matrix(V, U, lam, method)
    return {beta: linalg.mask(R, {c for c in range(len(R)) if V.weights[c // U.dim] == beta})
            for beta in dict.fromkeys(V.weights)}


# ---------------------------------------------------------------------------
# relation suites


def verify_rll(V: FinRep, W: FinRep, U: FinRep, lams, method: str = "verma") -> Report:
    """R12_{V,W}(lambda^1) L^V13 L^W23 = :L^W23 L^V13 R12_{V,W}(lambda^2): in pi_U."""
    rep = Report("rll", {"V": V.name, "W": W.name, "U": U.name, "method": method})
    reps = [V, W, U]

    def R12(lh):
        return exchange_matrix(V, W, lh, method)

    def L13(lh):
        return _placed(pi_generator(V, U, lh, method), reps, 0, 2, lh)

    def L23(lh):
        return _placed(pi_generator(W, U, lh, method), reps, 1, 2, lh)

    for idx, lam in enumerate(lams):
        left = embed3_rows(R12, reps, 0, 1, lam, True)
        right = embed3_rows(R12, reps, 0, 1, lam, False)
        lhs = {b: linalg.row_mul(left, M) for b, M in compose(L13(lam), L23, lam).items()}
        rhs = {b: linalg.row_mul(M, right) for b, M in compose(L23(lam), L13, lam).items()}
        bad = _bad_blocks(lhs, rhs, V.dim * W.dim)
        if bad:
            rep.fail(sample=idx, entry=bad[0])
    return rep


def verify_product_relation(V: FinRep, W: FinRep, U0: FinRep, lams, method: str = "verma") -> Report:
    """(L^V)^23 (L^W)^13 = :(J12_{W,V}(l^1))^{-1} sum_Y tau (Id (x) L^Y) taubar J12_{W,V}(l^2):
    evaluated in pi_{U0}, with the Y-sum over the summands of W (x) V."""
    rep = Report("product", {"V": V.name, "W": W.name, "U": U0.name, "method": method})
    reps = [W, V, U0]
    one = linalg.eye(U0.dim)
    summands = [(Y, linalg.rows(linalg.kron(tau, one)), linalg.rows(linalg.kron(taubar, one)))
                for Y, tau, taubar in cg_decompose(W, V)]

    def LW13(lh):
        return _placed(pi_generator(W, U0, lh, method), reps, 0, 2, lh)

    for idx, lam in enumerate(lams):
        lhs = compose(_placed(pi_generator(V, U0, lam, method), reps, 1, 2, lam), LW13, lam)
        mid: dict = {}
        for Y, tau, taubar in summands:
            for b, M in pi_generator(Y, U0, lam, method).items():
                _add_term(mid, b, linalg.row_mul(tau, linalg.row_mul(M, taubar)))
        left = embed3_rows(lambda lh: fusion_inverse(W, V, lh, method), reps, 0, 1, lam, True)
        right = embed3_rows(lambda lh: fusion_matrix(W, V, lh, method), reps, 0, 1, lam, False)
        rhs = {b: linalg.row_mul(left, linalg.row_mul(M, right)) for b, M in mid.items()}
        bad = _bad_blocks(lhs, rhs, W.dim * V.dim)
        if bad:
            rep.fail(sample=idx, entry=bad[0])
    return rep


def verify_coproduct_compat(V: FinRep, W: FinRep, U: FinRep, lams, method: str = "verma") -> Report:
    """J_{W,U}(lambda) intertwines the barred product of pi_W and pi_U,
    R12_{V,W}(lambda - h3) R13_{V,U}(lambda) T^{-1}, with pi_{W (x) U}."""
    rep = Report("coproduct", {"V": V.name, "W": W.name, "U": U.name, "method": method})
    reps = [V, W, U]
    WU = tensor(W, U)
    origin = tuple(0 for _ in WU.weights[0])

    def J23(lh):
        return _placed({origin: fusion_matrix(W, U, lh, method)}, reps, 1, 2, lh)

    for idx, lam in enumerate(lams):
        J = J23(lam)[origin]
        R12 = embed3_rows(lambda lh: exchange_matrix(V, W, lh, method), reps, 0, 1, lam, True)
        barred = _placed(pi_generator(V, U, lam, method), reps, 0, 2, lam)
        lhs = {b: linalg.row_mul(J, linalg.row_mul(R12, M)) for b, M in barred.items()}
        rhs = compose(pi_generator(V, WU, lam, method), J23, lam)
        for a, c in _bad_blocks(lhs, rhs, V.dim):
            rep.fail(sample=idx, entry=(a, c))
    return rep


def antipode_generator(V: FinRep, U: FinRep, lam: Lambda, K, method: str = "verma") -> dict:
    """pi_U of the antipode image of L^V:
    Lbar^V = (:K^(1)(l^1) L^{*V} (K^(1)(l^2))^{-1}:)^{t1}, K(lambda) a K-matrix
    on *V (the fused K or K') given as a function of lambda."""
    sV = dual_rep(V)
    reps = [sV, trivial_rep(V.spec), U]  # *V (x) C (x) U: embed3_rows places the one-slot K
    left = embed3_rows(lambda lh: linalg.rows(K(lh)), reps, 0, 1, lam, True)
    right = embed3_rows(lambda lh: linalg.rows(linalg.mat_inv(K(lh))), reps, 0, 1, lam, False)
    return {b: linalg.transpose_blocks(linalg.row_mul(left, linalg.row_mul(M, right)), V.dim)
            for b, M in pi_generator(sV, U, lam, method).items()}


def verify_antipode(V: FinRep, U: FinRep, lams, method: str = "verma") -> Report:
    """pi(L^V) pi(S L^V) = Id (x) 1 = pi(S L^V) pi(L^V), with S L^V built from the
    K-matrix; also checks the K'-built variant gives the same operator."""
    rep = Report("antipode", {"V": V.name, "U": U.name, "method": method})
    ident = {tuple(0 for _ in U.weights[0]): linalg.eye_rows(V.dim * U.dim)}

    def L(lh):
        return pi_generator(V, U, lh, method)

    def Lbar(lh):
        return antipode_generator(V, U, lh, lambda lk: kmat(V, lk, method), method)

    for idx, lam in enumerate(lams):
        S = Lbar(lam)
        for label, prod in (("L.SL", compose(L(lam), Lbar, lam)), ("SL.L", compose(S, L, lam))):
            bad = _bad_blocks(prod, ident, V.dim)
            if bad:
                rep.fail(sample=idx, order=label, entry=bad[0])
        Sp = antipode_generator(V, U, lam, lambda lh: kprime(V, lh, method), method)
        bad = _bad_blocks(S, Sp, V.dim)
        if bad:
            rep.fail(sample=idx, order="K vs K'", entry=bad[0])
    return rep
