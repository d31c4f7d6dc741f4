"""Intertwining operators Phi^v_lambda : M_lambda -> M_mu (x) V and their compositions.

Phi is pinned down by: (i) leading term v_mu (x) v, (ii) annihilation by every
raising generator through the coproduct.  The solve proceeds degree by degree;
the degree-k linear system is invertible exactly when the level-k Shapovalov
determinant is nonzero at mu.
"""

from __future__ import annotations

from . import linalg
from .liealg import AlgebraSpec, FinRep, Weight, wt_add, wt_sub
from .lam import Lambda
from .scalars import NonGenericLambda
from .verma import VermaSlice, Word


def vector_weight(V: FinRep, vec: list) -> Weight:
    """Weight of a homogeneous vector; raises if mixed."""
    wts = {V.weights[i] for i, c in enumerate(vec) if c}
    if len(wts) != 1:
        raise ValueError("vector is not weight-homogeneous")
    return wts.pop()


class IntertwinerExpansion:
    """terms[(word, j)] = coefficient of (word . v_mu) (x) x_j in Phi^v_lambda v_lambda."""

    __slots__ = ("spec", "lam", "V", "v", "wt_v", "mu", "verma", "terms")

    def __init__(self, spec: AlgebraSpec, lam: Lambda, V: FinRep, v: list, wt_v: Weight,
                 mu: Lambda, verma: VermaSlice, terms: dict):
        self.spec, self.lam, self.V, self.v, self.wt_v = spec, lam, V, v, wt_v
        self.mu = mu          # lambda - wt(v)
        self.verma = verma    # slice at mu
        self.terms = terms


def solve_intertwiner(lam: Lambda, v: list, V: FinRep) -> IntertwinerExpansion:
    """The unique expansion with leading term v_mu (x) v killed by all D(e_i)."""
    spec = V.spec
    wt_v = vector_weight(V, v)
    mu = lam.shifted(wt_v)
    # the largest simple-root height by which a V-weight exceeds wt_v
    depth = max(spec.height(wt_sub(nu, wt_v)) or 0 for nu in V.weights)
    verma = VermaSlice(spec, mu, depth)
    zero = lam.zero()
    terms: dict[tuple[Word, int], object] = {}
    for j, c in enumerate(v):
        if c:
            terms[((), j)] = c + zero
    prev: dict[tuple[Word, int], object] = dict(terms)
    K = [[lam.scalar(x) for x in V.K_diag(i)] for i in range(spec.nsimple)]
    for k in range(1, depth + 1):
        unknowns = []
        for w in verma.basis(k):
            bw = verma.word_weight(w)
            target = wt_add(wt_v, bw)
            for j in range(V.dim):
                if V.weights[j] == target:
                    unknowns.append((w, j))
        if not unknowns:
            prev = {}
            continue
        # residual rows are indexed by (i, word at level k-1, V-index)
        rows: dict[tuple, list] = {}
        rhs: dict[tuple, object] = {}

        def row_of(key):
            if key not in rows:
                rows[key] = [zero] * len(unknowns)
                rhs[key] = zero
            return rows[key]

        for col, (w, j) in enumerate(unknowns):
            for i in range(spec.nsimple):
                eimg = verma._e_on_word(i, w)
                if not eimg:
                    continue
                for w2, c2 in eimg.items():
                    row_of((i, w2, j))[col] = row_of((i, w2, j))[col] + c2 * K[i][j]
        for (w2, j0), c in prev.items():
            for i in range(spec.nsimple):
                col_e = V.e[i]
                for j1 in range(V.dim):
                    if col_e[j1][j0]:
                        key = (i, w2, j1)
                        row_of(key)
                        rhs[key] = rhs[key] - c * col_e[j1][j0]
        keys = sorted(rows.keys())
        A = [rows[kk] for kk in keys]
        B = [[rhs[kk]] for kk in keys]
        try:
            sol = linalg.solve_linear(A, B)
        except linalg.SingularMatrixError as exc:
            raise NonGenericLambda(
                f"intertwiner solve singular at level {k} (Shapovalov determinant D_{k} vanishes)"
            ) from exc
        prev = {}
        for col, (w, j) in enumerate(unknowns):
            val = sol[col][0]
            if val:
                terms[(w, j)] = val
                prev[(w, j)] = val
    return IntertwinerExpansion(spec, lam, V, list(v), wt_v, mu, verma, terms)


def raising_residual(exp: IntertwinerExpansion) -> dict:
    """D(e_i) applied to the expansion, per generator: must be exactly empty."""
    out = {}
    for i in range(exp.spec.nsimple):
        K = [exp.lam.scalar(x) for x in exp.V.K_diag(i)]
        res: dict[tuple[Word, int], object] = {}
        for (w, j), c in exp.terms.items():
            eimg = exp.verma._e_on_word(i, w)
            for w2, c2 in eimg.items():
                key = (w2, j)
                res[key] = res.get(key, exp.lam.zero()) + c * c2 * K[j]
            for j1 in range(exp.V.dim):
                if exp.V.e[i][j1][j]:
                    key = (w, j1)
                    res[key] = res.get(key, exp.lam.zero()) + c * exp.V.e[i][j1][j]
        res = {k: v for k, v in res.items() if v}
        if res:
            out[i] = res
    return out


def compose_intertwiners(lam: Lambda, W: FinRep, w: list, V: FinRep, v: list) -> dict:
    """(Phi^w_{lambda - wt v} (x) 1) Phi^v_lambda applied to v_lambda, in
    M_nu (x) W (x) V: {(word, jW, jV): coefficient of (word . v_nu) (x) w_jW (x) v_jV}."""
    spec = V.spec
    inner = solve_intertwiner(lam, v, V)
    mu = inner.mu
    outer = solve_intertwiner(mu, w, W)
    nu = mu.shifted(outer.wt_v)
    # depth needed for Delta(f_word) applications: inner words have height <= depth_inner
    depth = inner.verma.cutoff + outer.verma.cutoff
    bigv = VermaSlice(spec, nu, depth)
    # group inner terms by word
    by_word: dict[Word, dict[int, object]] = {}
    for (wd, jV), c in inner.terms.items():
        by_word.setdefault(wd, {})[jV] = c
    # cache Delta(f)-applications of outer expansion per inner word
    out_terms: dict[tuple[Word, int, int], object] = {}
    base = {(wd, jW): c for (wd, jW), c in outer.terms.items()}
    applied_cache: dict[Word, dict] = {(): base}

    def apply_word(u: Word) -> dict:
        """Delta(f_{u_1}) ... Delta(f_{u_k}) applied to the outer expansion, in M_nu (x) W."""
        if u in applied_cache:
            return applied_cache[u]
        head, rest = u[0], u[1:]
        cur = apply_word(rest)
        nxt: dict[tuple[Word, int], object] = {}
        i = head
        for (wd, jW), c in cur.items():
            # f_i (x) 1
            for w2, c2 in bigv.wb.reduce_word((i,) + wd).items():
                key = (w2, jW)
                nxt[key] = nxt.get(key, lam.zero()) + c * c2
            # K_i^{-1} (x) f_i   (1 (x) f_i classically)
            kfac = bigv.k_eigen(i, wd, -1)
            for j2 in range(W.dim):
                if W.f[i][j2][jW]:
                    key = (wd, j2)
                    nxt[key] = nxt.get(key, lam.zero()) + c * kfac * W.f[i][j2][jW]
        nxt = {k: v for k, v in nxt.items() if v}
        applied_cache[u] = nxt
        return nxt

    for u, vparts in by_word.items():
        img = apply_word(u)
        for (wd, jW), c in img.items():
            for jV, cv in vparts.items():
                key = (wd, jW, jV)
                val = out_terms.get(key, lam.zero()) + c * cv
                out_terms[key] = val
    return {k: v for k, v in out_terms.items() if v}
