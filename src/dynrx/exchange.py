"""Fusion matrices J_{W,V}(lambda) by two independent methods, exchange matrices
R_{V,W}(lambda), K-matrices, two-point functions, asymptotics, and the
identity-verification suites (2-cocycle, QDYB, Hecke, R00).  The closed gl_N
forms of J and R that these are checked against live in `gauge`.

Conventions (fixed package-wide):
  J_{W,V}(lambda) w (x) v = degree-0 coefficient of the composed intertwiner
  (Phi^w_{lambda - wt v} (x) 1) Phi^v_lambda.  Only the leading term of Phi^w
  reaches degree 0, so the Verma route reads J off the inner expansion
  Phi^v v_lambda = sum c_{u,j} f_u v_mu (x) v_j alone:
  J(w (x) v) = sum c_{u,j} prod_{i in u} k_i(nu)^{-1} pi_W(f_u) w (x) v_j,
  with nu = lambda - wt v - wt w and k_i(nu) the K_i eigenvalue on v_nu (the
  factor is 1 classically).
  R_{V,W} = J_{V,W}^{-1} R21 J21_{W,V};
  lambda - h^{(k)} acts on a slot-k vector of weight mu by lambda -> lambda - mu.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg, memo
from .liealg import (
    FinRep,
    dual_rep,
    flip,
    r_zero_part,
    tensor,
    universal_r,
    wt_add,
    wt_sub,
)
from .lam import Lambda
from .intertwine import compose_intertwiners, solve_intertwiner
from .scalars import NonGenericLambda, QParam, RatFunc


def rep_fingerprint(V: FinRep):
    """Structural content of V; `FinRep.key` interns it once per rep."""
    return (
        V.spec,
        V.dim,
        tuple(V.weights),
        tuple(V.zdeg),
        tuple(tuple(tuple(r) for r in m) for m in V.e),
        tuple(tuple(tuple(r) for r in m) for m in V.f),
    )


# Memo tables.  The fusion method is part of every J, J^-1, R and K key, so
# the Verma and ABRR routes never serve each other's results.
_fusion = memo.table("fusion")
_fusion_inverse = memo.table("fusion_inverse")
_exchange = memo.table("exchange")
_kmat = memo.table("kmat")
_abrr_plan = memo.table("abrr_plan")  # (W, V) -> the lambda-free part of the ABRR sweep
# (V, lambda, i) -> the expansion of Phi^{v_i}_lambda; the Verma route alone reads it
_intertwiner = memo.table("intertwiner")


def fusion_matrix(W: FinRep, V: FinRep, lam: Lambda, method: str = "verma"):
    """J_{W,V}(lambda) on W (x) V (W is the first slot)."""
    return _fusion.get((W.key, V.key, lam.key(), method), _fusion_impl, W, V, lam, method)


def _fusion_impl(W: FinRep, V: FinRep, lam: Lambda, method: str):
    if method == "verma":
        return _fusion_verma(W, V, lam)
    if method == "abrr":
        return fusion_matrix_abrr(W, V, lam)
    raise ValueError(f"unknown fusion method {method!r}")


def _fusion_verma(W: FinRep, V: FinRep, lam: Lambda):
    """J read off the inner expansion alone, by the formula in the module
    docstring: D(f_i) = f_i (x) 1 + K_i^{-1} (x) f_i and f_i never shortens a
    Verma word, so only the leading term v_nu (x) w of Phi^w reaches degree 0.
    One intertwiner solve per basis vector of V, none for W; J_{W,V} for every
    W reads the same solves from the `intertwiner` table."""
    spec = W.spec
    dW, dV = W.dim, V.dim
    zero, one = lam.zero(), lam.one()
    J = [[zero] * (dW * dV) for _ in range(dW * dV)]
    f_images: dict = {}  # (u, iW) -> pi_W(f_u) applied to basis vector iW, as {jW: c}

    def f_image(u, iW):
        key = (u, iW)
        if key not in f_images:
            if not u:
                f_images[key] = {iW: Fraction(1)}
            else:
                f = W.f[u[0]]
                out = {}
                for j, c in f_image(u[1:], iW).items():
                    for j2 in range(dW):
                        if f[j2][j]:
                            out[j2] = out.get(j2, 0) + c * f[j2][j]
                f_images[key] = {j: c for j, c in out.items() if c}
        return f_images[key]

    for iV in range(dV):
        v = [Fraction(1) if t == iV else Fraction(0) for t in range(dV)]
        inner = _intertwiner.get((V.key, lam.key(), iV), solve_intertwiner, lam, v, V)
        for iW in range(dW):
            if spec.qp.classical:
                kinv = [one] * spec.nsimple
            else:
                nu = inner.mu.shifted(W.weights[iW])
                kinv = [one / nu.simple(i) for i in range(spec.nsimple)]
            col = iW * dV + iV
            for (u, jV), c in inner.terms.items():
                img = f_image(u, iW)
                if not img:
                    continue
                for i in u:
                    c = c * kinv[i]
                for jW, a in img.items():
                    J[jW * dV + jV][col] = J[jW * dV + jV][col] + c * a
    return J


def fusion_matrix_abrr(W: FinRep, V: FinRep, lam: Lambda):
    """J_{W,V} as the unique unipotent weight-zero solution of the ABRR equation
    J = R0^{21} . Theta(J), Theta(X) = D X D^{-1} (trigonometric case only; D
    carries q^{2(lambda+rho)} minus Cartan-square factors).  Theta scales the
    matrix unit (r <- c) by theta(r, c), and the first-slot drop of r <- c is the
    sum of the drops along any product, so the equation is read entry by entry:
    with J starting as the identity and entries visited in increasing drop k,

        J[r][c] = sum_{s: drop(r, s) >= 1} R0^{21}[r][s] theta(s, c) J[s][c]
                  / (1 - theta(r, c)),

    where every J[s][c] on the right has drop below k and is already final.
    Only theta depends on lambda; the rest is the pair's `abrr_plan` entry."""
    if W.spec.qp.classical:
        raise ValueError("ABRR applies to the trigonometric case; classical J uses Verma fusion")
    strict, order, factors = _abrr_plan.get((W.key, V.key), _abrr_plan_impl, W, V)
    dV = V.dim
    d = W.dim * dV
    zero, one = lam.zero(), lam.one()
    # theta of the matrix unit (row <- col) reads only jV = row % dV, lV = col % dV
    theta = [[lam.root_qpow2(beta) * lam.scalar(c) for beta, c in row] for row in factors]
    J = [[one if r == c else zero for c in range(d)] for r in range(d)]
    for k, r, c in order:
        val = zero
        for s, a in strict[r]:
            if J[s][c]:
                val = val + a * theta[s % dV][c % dV] * J[s][c]
        if not val:
            continue
        den = one - theta[r % dV][c % dV]
        if not den:
            raise NonGenericLambda(f"ABRR step {k}: 1 - theta vanishes at this lambda")
        J[r][c] = val / den
    return J


def _abrr_plan_impl(W: FinRep, V: FinRep):
    """The lambda-free part of the ABRR sweep on W (x) V: the rows of the
    strictly triangular part of R0^{21} = flip(R0 on V (x) W), the sorted
    (drop, r, c) visit order of the entries those rows can reach, and the
    factors[jV][lV] = (beta, q^exp) of theta = q^{2 (lambda, beta)} q^exp on the
    matrix units whose second-slot indices are jV <- lV."""
    spec = W.spec
    dW, dV = W.dim, V.dim
    d = dW * dV
    R021 = flip(r_zero_part(V, W), dV, dW)  # acts on W (x) V

    def drop(row, col):
        return W.zdeg[col // dV] - W.zdeg[row // dV]

    if any(R021[r][c] != (1 if r == c else 0)
           for r in range(d) for c in range(d) if drop(r, c) == 0):
        raise ArithmeticError("R0 is not unipotent in the first-slot filtration")
    strict = [[(s, R021[r][s]) for s in range(d) if drop(r, s) >= 1 and R021[r][s]]
              for r in range(d)]
    order = sorted((drop(r, c), r, c) for r in range(d) if strict[r] for c in range(d)
                   if drop(r, c) >= 1)

    def factor(jV, lV):
        beta = wt_sub(V.weights[jV], V.weights[lV])
        exp = (spec.rho_pairing2(beta) - spec.pairing2(V.weights[lV], beta)
               - spec.pairing2(beta, beta) // 2)
        return beta, spec.qp.qpow(exp)

    return strict, order, [[factor(jV, lV) for lV in range(dV)] for jV in range(dV)]


class NotUnipotent(ValueError):
    pass


def invert_unipotent(J, W: FinRep, V: FinRep):
    """Exact inverse via the terminating Neumann series; input must be unipotent
    strictly triangular in the first-slot Z-degree."""
    d = len(J)
    dV = V.dim
    N = [[x - 1 if r == c else x for c, x in enumerate(row)] for r, row in enumerate(J)]
    for r in range(d):
        for c in range(d):
            if N[r][c] and W.zdeg[r // dV] >= W.zdeg[c // dV]:
                raise NotUnipotent("J - Id is not strictly first-slot triangular")
    # the identity typed entry by entry like N, so that the sum adds only nonzero
    # entries of each power and every entry ends with the type of 1 - N + N^2 - ...
    units = {}  # type -> (its zero, its one)
    for row in N:
        for x in row:
            if type(x) not in units:
                z = x - x
                units[type(x)] = (z, z + 1)
    out = [[units[type(x)][r == c] for c, x in enumerate(row)] for r, row in enumerate(N)]
    P = N
    step = linalg.mat_sub
    while not linalg.mat_is_zero(P):
        out = step(out, P)
        P = linalg.mat_mul(P, N)
        step = linalg.mat_add if step is linalg.mat_sub else linalg.mat_sub
    return out


def fusion_inverse(W: FinRep, V: FinRep, lam: Lambda, method: str = "verma"):
    """Cached J_{W,V}(lambda)^{-1} (Neumann series of the unipotent part)."""
    return _fusion_inverse.get((W.key, V.key, lam.key(), method), _fusion_inverse_impl,
                               W, V, lam, method)


def _fusion_inverse_impl(W: FinRep, V: FinRep, lam: Lambda, method: str):
    return invert_unipotent(fusion_matrix(W, V, lam, method), W, V)


def exchange_matrix(V: FinRep, W: FinRep, lam: Lambda, method: str = "verma"):
    """R_{V,W}(lambda) = J_{V,W}^{-1}(lambda) R21|_{V(x)W} J21_{W,V}(lambda) on V (x) W."""
    return _exchange.get((V.key, W.key, lam.key(), method), _exchange_matrix_impl,
                         V, W, lam, method)


def _exchange_matrix_impl(V: FinRep, W: FinRep, lam: Lambda, method: str):
    Jvw = fusion_matrix(V, W, lam, method)
    R21 = flip(universal_r(W, V), W.dim, V.dim)
    J21 = flip(fusion_matrix(W, V, lam, method), W.dim, V.dim)
    Jinv = fusion_inverse(V, W, lam, method)
    return linalg.mat_mul(Jinv, linalg.mat_mul(R21, J21))


# ---------------------------------------------------------------------------
# reports


class Report:
    __slots__ = ("suite", "config", "passed", "failures")

    def __init__(self, suite: str, config: dict):
        self.suite, self.config = suite, config
        self.passed = True
        self.failures = []

    def fail(self, **info):
        self.passed = False
        self.failures.append(info)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config,
            "pass": self.passed,
            "failures": self.failures,
        }


def _first_difference(lhs, rhs):
    """(r, c, str(lhs - rhs)) at the first entry, in row-major order, where lhs
    and rhs differ; None if they are equal.  A pair of zeros is never compared."""
    for r, (lrow, rrow) in enumerate(zip(lhs, rhs)):
        for c, (x, y) in enumerate(zip(lrow, rrow)):
            if (x or y) and x != y:
                return r, c, str(x - y)
    return None


# ---------------------------------------------------------------------------
# triple-slot embedding with weight shifts


def embed3(matfn, reps, s0: int, s1: int, lam: Lambda, shift_spectator: bool):
    """Matrix on reps[0](x)reps[1](x)reps[2] acting by matfn(lam') in slots (s0,s1),
    identity in the spectator slot t; lam' = lam - (weight of the spectator vector)
    when shift_spectator is set."""
    t = ({0, 1, 2} - {s0, s1}).pop()
    dims = [r.dim for r in reps]
    d = dims[0] * dims[1] * dims[2]
    zero = lam.zero()
    out = [[zero for _ in range(d)] for _ in range(d)]
    if shift_spectator:
        blocks = [(matfn(lam.shifted(wt)), its) for wt, its in reps[t].weight_spaces().items()]
    else:
        blocks = [(matfn(lam), range(dims[t]))]
    # base[a * dims[s1] + b]: the basis index of (a in slot s0, b in slot s1, 0 in slot t)
    stride = [dims[1] * dims[2], dims[2], 1]
    base = [a * stride[s0] + b * stride[s1] for a in range(dims[s0]) for b in range(dims[s1])]
    for M, its in blocks:
        nonzero = [(base[i], base[j], v) for i, row in enumerate(M) for j, v in enumerate(row) if v]
        for it in its:
            off = it * stride[t]
            for r, c, v in nonzero:
                out[r + off][c + off] = v
    return out


def verify_cocycle(V: FinRep, W: FinRep, U: FinRep, lams, method: str = "verma") -> Report:
    """J_{V(x)W,U}(lambda)(J_{V,W}(lambda-h^(3)) (x) 1) =
    J_{V,W(x)U}(lambda)(1 (x) J_{W,U}(lambda)), exactly."""
    rep = Report("cocycle", {"V": V.name, "W": W.name, "U": U.name, "method": method})
    VW = tensor(V, W)
    WU = tensor(W, U)
    for idx, lam in enumerate(lams):
        A = fusion_matrix(VW, U, lam, method)
        B = embed3(lambda lh: fusion_matrix(V, W, lh, method), [V, W, U], 0, 1, lam, True)
        C = fusion_matrix(V, WU, lam, method)
        D = embed3(lambda lh: fusion_matrix(W, U, lh, method), [V, W, U], 1, 2, lam, False)
        bad = _first_difference(linalg.mat_mul(A, B), linalg.mat_mul(C, D))
        if bad is not None:
            rep.fail(sample=idx, entry=bad[:2], value=bad[2])
    return rep


def verify_qdyb(V: FinRep, W: FinRep, U: FinRep, lams, method: str = "verma") -> Report:
    """R12(lambda-h3) R13(lambda) R23(lambda-h1) = R23(lambda) R13(lambda-h2) R12(lambda)."""
    rep = Report("qdyb", {"V": V.name, "W": W.name, "U": U.name, "method": method})
    reps = [V, W, U]

    def Rfn(A, B):
        return lambda lh: exchange_matrix(A, B, lh, method)

    for idx, lam in enumerate(lams):
        R12s = embed3(Rfn(V, W), reps, 0, 1, lam, True)
        R13 = embed3(Rfn(V, U), reps, 0, 2, lam, False)
        R23s = embed3(Rfn(W, U), reps, 1, 2, lam, True)
        lhs = linalg.mat_mul(R12s, linalg.mat_mul(R13, R23s))
        R23 = embed3(Rfn(W, U), reps, 1, 2, lam, False)
        R13s = embed3(Rfn(V, U), reps, 0, 2, lam, True)
        R12 = embed3(Rfn(V, W), reps, 0, 1, lam, False)
        rhs = linalg.mat_mul(R23, linalg.mat_mul(R13s, R12))
        bad = _first_difference(lhs, rhs)
        if bad is not None:
            rep.fail(sample=idx, entry=bad[:2], value=bad[2])
    return rep


# ---------------------------------------------------------------------------
# Hecke spectrum


def hecke_report(Rmat, V: FinRep, qp: QParam) -> Report:
    """R-check = P R preserves the weight decomposition of V (x) V, acts by q on
    v_a (x) v_a, and has characteristic polynomial (x-q)(x+q^{-1}) on each V_ab."""
    rep = Report("hecke", {"V": V.name})
    N = V.dim
    Rv = [Rmat[(r % N) * N + r // N] for r in range(N * N)]  # rows of P R
    q = qp.q
    for a in range(N):
        idx = a * N + a
        for r in range(N * N):
            want = q if r == idx else Fraction(0)
            got = Rv[r][idx]
            if got != want:
                rep.fail(block=f"V_{a}{a}", entry=(r, idx), value=str(got))
    for a in range(N):
        for b in range(a + 1, N):
            i1, i2 = a * N + b, b * N + a
            block = [[Rv[i1][i1], Rv[i1][i2]], [Rv[i2][i1], Rv[i2][i2]]]
            # off-block entries must vanish
            for r in range(N * N):
                if r not in (i1, i2):
                    for c in (i1, i2):
                        if Rv[r][c]:
                            rep.fail(block=f"V_{a}{b}", leak=(r, c), value=str(Rv[r][c]))
            tr = block[0][0] + block[1][1]
            det = block[0][0] * block[1][1] - block[0][1] * block[1][0]
            want_tr = q - 1 / q
            want_det = Fraction(-1)
            if tr - want_tr or det - want_det:
                rep.fail(block=f"V_{a}{b}", trace=str(tr), det=str(det))
    return rep


# ---------------------------------------------------------------------------
# K-matrices and the two-point function


def kprime(V: FinRep, lam: Lambda, method: str = "verma"):
    """K'(lambda) = m(J^{t1}_{V,*V}(lambda)) on *V: K'[r][s] = sum_p J[(p,p)][(r,s)],
    so that <v, K'(lambda) v*> is the two-point pairing.  Not memoized: J comes
    from the `fusion` table, and the partial trace is rarely asked for twice."""
    J = fusion_matrix(V, dual_rep(V), lam, method)
    d = V.dim
    zero = lam.zero()
    K = [[zero for _ in range(d)] for _ in range(d)]
    for r in range(d):
        for s in range(d):
            acc = zero
            for p in range(d):
                acc = acc + J[p * d + p][r * d + s]
            K[r][s] = acc
    return K


def kmat(V: FinRep, lam: Lambda, method: str = "verma"):
    """K(lambda) = (Ktilde(lambda - h))^{-1} on *V (h = the *V weight acted on),
    Ktilde(lambda) = m((J_{*V,V}(lambda)^{-1})^{t2}): the *V columns of weight mu
    are those of the partial trace of J_{*V,V}(lambda - mu)^{-1}.

    With this package's dual convention (*V acts through S^{-1}, so the plain
    pairing V (x) *V -> C is a module map) the inverse fusion matrix is the one
    whose partial dualization satisfies K = K'; the antipode suite re-checks
    this choice independently.
    """
    return _kmat.get((V.key, lam.key(), method), _kmat_impl, V, lam, method)


def _kmat_impl(V: FinRep, lam: Lambda, method: str):
    sV = dual_rep(V)
    d = V.dim
    zero = lam.zero()
    M = [[zero for _ in range(d)] for _ in range(d)]
    for mu, ks in sV.weight_spaces().items():
        Ji = fusion_inverse(sV, V, lam.shifted(mu), method)
        for k in ks:
            for i in range(d):
                acc = zero
                for j in range(d):
                    acc = acc + Ji[i * d + k][j * d + j]
                M[i][k] = acc
    try:
        return linalg.mat_inv(M)
    except linalg.SingularMatrixError as exc:
        raise NonGenericLambda("Ktilde(lambda - h) is singular at this lambda") from exc


def two_point(V: FinRep, lam: Lambda) -> list:
    """Matrix of B_{lambda,V}: B[i][j] = B(v_i, phi_j), computed from the composed
    intertwiner Phi^{v_i, phi_j} contracted with the canonical pairing."""
    sV = dual_rep(V)
    d = V.dim
    zero = lam.zero()
    B = [[zero for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            if wt_add(V.weights[i], sV.weights[j]) != tuple([0] * len(V.weights[i])):
                continue
            w = [Fraction(1) if t == i else Fraction(0) for t in range(d)]
            v = [Fraction(1) if t == j else Fraction(0) for t in range(d)]
            terms = compose_intertwiners(lam, V, w, sV, v)
            for wd in {wd for (wd, _, _) in terms}:
                s = zero  # the contraction <x_a, phi_b> = delta_ab of the wd part
                for jj in range(d):
                    s = s + terms.get((wd, jj, jj), zero)
                if wd == ():
                    B[i][j] = s
                elif s:
                    # higher contractions must cancel exactly for B Id to be an intertwiner
                    raise ArithmeticError("two-point contraction is not proportional to Id")
    return B


# ---------------------------------------------------------------------------
# R^{00} scalarity


def r00_block(V: FinRep, W: FinRep, lam: Lambda, method: str = "verma"):
    """End(W) matrix <(v0)* (x) y*, R_{V,W} v0 (x) x> with v0 the highest vector of V."""
    top = max(range(V.dim), key=lambda i: V.zdeg[i])
    R = exchange_matrix(V, W, lam, method)
    d = W.dim
    return [[R[top * d + y][top * d + x] for x in range(d)] for y in range(d)]


def r00_scalar_check(V: FinRep, W: FinRep, lams, method: str = "verma") -> Report:
    rep = Report("r00", {"V": V.name, "W": W.name})
    for idx, lam in enumerate(lams):
        B = r00_block(V, W, lam, method)
        scal = _scalar_per_weight(B, W)
        if scal is None:
            rep.fail(sample=idx, reason="not scalar on a weight space")
            continue
        for wt, s in scal.items():
            if not s:
                rep.fail(sample=idx, weight=list(wt), reason="zero scalar")
    return rep


def _scalar_per_weight(B, W: FinRep):
    """{weight: s} if B acts on each weight space of W as the scalar s (every
    column x of that space is s at row x and 0 elsewhere); None otherwise."""
    out = {}
    for wt, idxs in W.weight_spaces().items():
        s = B[idxs[0]][idxs[0]]
        if any(B[y][x] != (s if y == x else 0) for x in idxs for y in range(W.dim)):
            return None
        out[wt] = s
    return out


def r00_cross_check(V: FinRep, W1: FinRep, W2: FinRep, lams, method: str = "verma") -> Report:
    """The R^{00} scalar depends only on the weight: compare across two W's."""
    rep = Report("r00-cross", {"V": V.name, "W1": W1.name, "W2": W2.name})
    for idx, lam in enumerate(lams):
        s1 = _scalar_per_weight(r00_block(V, W1, lam, method), W1)
        s2 = _scalar_per_weight(r00_block(V, W2, lam, method), W2)
        if s1 is None or s2 is None:
            rep.fail(sample=idx, reason="not scalar")
            continue
        shared = set(s1) & set(s2)
        if not shared:
            rep.fail(sample=idx, reason="no shared weights")
        for wt in shared:
            if s1[wt] - s2[wt]:
                rep.fail(sample=idx, weight=list(wt), v1=str(s1[wt]), v2=str(s2[wt]))
    return rep


# ---------------------------------------------------------------------------
# asymptotics


def asymptotic_leading(V: FinRep, W: FinRep) -> Report:
    """Classical case: the 1/lambda coefficient of J_{V,W} equals
    -(f_alpha (x) e_alpha)/(lambda, alpha) summed over positive roots, and the
    R-matrix first order is sum (f (x) e - e (x) f)/(lambda, alpha).  Exact,
    via symbolic expansion in the sl2/gl2 variable."""
    spec = V.spec
    if not spec.qp.classical:
        raise ValueError("asymptotic_leading applies to the classical case")
    if spec.nsimple != 1:
        raise ValueError("symbolic expansion supports one simple root (sl2/gl2)")
    rep = Report("asymptotic-leading", {"V": V.name, "W": W.name})
    lam = Lambda.symbolic(spec)
    J = fusion_matrix(V, W, lam)
    R = exchange_matrix(V, W, lam)
    fe = linalg.kron(V.f[0], W.e[0])
    ef = linalg.kron(V.e[0], W.f[0])
    d = V.dim * W.dim
    for r in range(d):
        for c in range(d):
            for name, M, want in (("J", J, -fe[r][c]), ("R", R, fe[r][c] - ef[r][c])):
                entry = RatFunc.coerce(M[r][c])
                coeff = (entry - RatFunc.const(1) if r == c else entry).inf_coeff()
                if coeff != want:
                    rep.fail(matrix=name, entry=(r, c), got=str(coeff), want=str(want))
    return rep


def asymptotic_alcove(V: FinRep, W: FinRep, direction: str, mgrid, method: str = "verma") -> Report:
    """J(m rho) approaches R0^21 (direction 'positive', m -> +infinity) or the
    identity (direction 'negative'), with entrywise distances shrinking
    geometrically; requires |q| < 1.

    With this package's coproduct the positive-alcove limit is R0^21 and the
    negative-alcove limit is 1 (the two limits trade places relative to other
    conventions; both limits and the geometric rate are what is verified).
    """
    spec = V.spec
    qp = spec.qp
    if qp.classical or abs(qp.q) >= 1:
        raise ValueError("alcove asymptotics need |q| < 1")
    rep = Report("alcove", {"V": V.name, "W": W.name, "direction": direction})
    d = V.dim * W.dim
    if direction == "positive":
        limit = flip(r_zero_part(W, V), W.dim, V.dim)
        sgn = 1
    elif direction == "negative":
        limit = linalg.eye(d)
        sgn = -1
    else:
        raise ValueError("direction must be 'positive' or 'negative'")
    prev = None
    q2 = qp.q ** 2
    for m in mgrid:
        lam = Lambda(spec, tuple(qp.spow(sgn * m * r2) for r2 in spec.rho2))  # sgn m rho
        J = fusion_matrix(V, W, lam, method)
        dist = [[abs(J[r][c] - limit[r][c]) for c in range(d)] for r in range(d)]
        if prev is not None:
            bound = abs(q2) * (1 + Fraction(1, m))
            for r in range(d):
                for c in range(d):
                    if prev[r][c] != 0:
                        ratio = dist[r][c] / prev[r][c]
                        if ratio > bound:
                            rep.fail(m=m, entry=(r, c), ratio=str(ratio), bound=str(bound))
                    elif dist[r][c] != 0:
                        rep.fail(m=m, entry=(r, c), reason="distance grew from zero")
        prev = dist
    return rep
