"""Finite-dimensional representations of U_q(sl2) and U_q(gl_N) with exact matrices.

Coproduct convention, fixed once for the whole package:
    D(e_i) = e_i (x) K_i + 1 (x) e_i,
    D(f_i) = f_i (x) 1 + K_i^{-1} (x) f_i,
    D(K_i) = K_i (x) K_i,
antipode S(e_i) = -e_i K_i^{-1}, S(f_i) = -K_i f_i, S(K_i) = K_i^{-1}.
D is written once, in `tensor`; D^op = tau D is D on the flipped pair.
Everything downstream (universal R, fusion, exchange) is consistent with this
choice; consistency is enforced by tests, not trusted.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg, memo
from .linalg import (Matrix, dense, differences, entry, eye, kron, mat_mul, mat_sub, row_mul,
                     eye_rows, rows, rows_add, rows_is_zero, support, zeros)
from .scalars import QParam

Weight = tuple  # integer tuples; length 1 for sl2 (h-eigenvalue), N for gl_N (eps basis)

MAX_GLN = 4
MAX_SL2_DIM = 64


def wt_add(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def wt_sub(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def wt_neg(a: Weight) -> Weight:
    return tuple(-x for x in a)


class AlgebraSpec:
    """kind 'sl2' or 'gln'; for gln, n is N (2 <= N <= 4).  The kind is read once,
    into root data: `roots` (the simple roots in weight coordinates, in echelon
    form), `gram2` (the diagonal of 2( , )) and `rho2` (2 rho); the `coroots` and
    the `cartan` matrix a_ij are derived from them, and the rest from all five.
    `qnum2` holds [2]_q.  Equality and hashing read kind, n and qp alone: the
    rest follows from them."""

    __slots__ = ("kind", "n", "qp", "roots", "gram2", "rho2", "coroots", "cartan", "qnum2")

    def __init__(self, kind: str, n: int, qp: QParam):
        if kind == "sl2":
            if n != 1:
                raise ValueError("sl2 has rank 1")
            roots, gram2, rho2 = ((2,),), (1,), (2,)  # (mu, nu) = m n / 2
        elif kind == "gln":
            if not 2 <= n <= MAX_GLN:
                raise ValueError(f"gl_N supported only for 2 <= N <= {MAX_GLN}")
            roots = tuple(tuple(int(a == i) - int(a == i + 1) for a in range(n))
                          for i in range(n - 1))  # eps_i - eps_{i+1}
            gram2, rho2 = (2,) * n, tuple(n + 1 - 2 * a for a in range(1, n + 1))
        else:
            raise ValueError(f"unknown algebra kind {kind!r}")
        self.kind, self.n, self.qp = kind, n, qp
        self.roots, self.gram2, self.rho2 = roots, gram2, rho2
        # alpha^vee = 2 alpha / (alpha, alpha), in the coordinates dual to the weights
        self.coroots = tuple(tuple(2 * g * x // self.pairing2(al, al) for g, x in zip(gram2, al))
                             for al in roots)
        self.cartan = tuple(tuple(self.cartan_int(i, al) for al in roots)
                            for i in range(len(roots)))  # <alpha_j, alpha_i^vee>
        self.qnum2 = qp.qnum(2)  # [2]_q; with `cartan` it fixes the Serre relations

    def __eq__(self, other):
        if other.__class__ is not AlgebraSpec:
            return NotImplemented
        return (self.kind, self.n, self.qp) == (other.kind, other.n, other.qp)

    def __hash__(self):
        return hash((self.kind, self.n, self.qp))

    @property
    def nsimple(self) -> int:
        return len(self.roots)

    @property
    def ncoords(self) -> int:
        """Number of lambda-torus coordinates."""
        return len(self.gram2)

    def simple_root(self, i: int) -> Weight:
        return self.roots[i]

    def cartan_int(self, i: int, mu: Weight) -> int:
        """<mu, alpha_i^vee>, read off the coroot."""
        return sum(m * c for m, c in zip(mu, self.coroots[i]))

    def pairing2(self, mu: Weight, nu: Weight) -> int:
        """2*(mu, nu) under the standard invariant form; always an integer."""
        return sum(g * a * b for g, a, b in zip(self.gram2, mu, nu))

    def rho_pairing2(self, beta: Weight) -> int:
        """2*(rho, beta); integer for beta in the root lattice."""
        return self.pairing2(self.rho2, beta) // 2

    def height(self, beta: Weight) -> int | None:
        """sum n_i when beta = sum n_i alpha_i with every n_i >= 0, else None.
        The roots are in echelon form, so the n_i follow by forward substitution."""
        rest, total = list(beta), 0
        for i, root in enumerate(self.roots):
            n, r = divmod(rest[i], root[i])
            if r or n < 0:
                return None
            total += n
            rest = [x - n * a for x, a in zip(rest, root)]
        return None if any(rest) else total

    def serre_relations(self):
        """The quantum Serre relations sum_k (-1)^k [1 - a_ij choose k] x_i^{1-a_ij-k} x_j x_i^k
        (x = e or f) for every i != j, as (words, coefficients)."""
        qnum = self.qp.qnum
        for i, row in enumerate(self.cartan):
            for j, aij in enumerate(row):
                if i != j:
                    m = 1 - aij
                    coeffs, c = [], Fraction(1)  # c = [m choose k]
                    for k in range(m + 1):
                        coeffs.append((-1) ** k * c)
                        c = c * qnum(m - k) / qnum(k + 1)
                    words = tuple((i,) * (m - k) + (j,) + (i,) * k for k in range(m + 1))
                    yield words, tuple(coeffs)


class FinRep:
    """Weight-graded module with exact generator matrices.

    e[i], f[i] are dim x dim matrices (Fraction entries) for each simple root;
    K_i^{+-1} act diagonally through the weights.  zdeg is the Z-grading
    (deg e_i = +1), used for triangularity of fusion matrices.  A rep is not
    changed after it is built: its memo key is taken from its content once.
    """

    def __init__(self, spec: AlgebraSpec, weights, zdeg, e, f, name=""):
        self.spec = spec
        self.dim = len(weights)
        self.weights = [tuple(w) for w in weights]
        self.zdeg = list(zdeg)
        self.e = e
        self.f = f
        self.name = name
        self._key = None

    @property
    def key(self) -> int:
        """Interned structural key, computed once: content-equal reps share it."""
        if self._key is None:
            from .exchange import rep_fingerprint  # a module-level import would be circular

            self._key = memo.intern(rep_fingerprint(self))
        return self._key

    def K_diag(self, i: int, sign: int = 1):
        qp = self.spec.qp
        return [qp.qpow(sign * self.spec.cartan_int(i, w)) for w in self.weights]

    def K_mat(self, i: int, sign: int = 1) -> Matrix:
        d, zero = self.K_diag(i, sign), Fraction(0)
        return [[d[r] if r == c else zero for c in range(self.dim)] for r in range(self.dim)]

    def h_diag(self, i: int):
        return [Fraction(self.spec.cartan_int(i, w)) for w in self.weights]

    def weight_spaces(self) -> dict:
        out: dict[Weight, list[int]] = {}
        for idx, w in enumerate(self.weights):
            out.setdefault(w, []).append(idx)
        return out


def trivial_rep(spec: AlgebraSpec) -> FinRep:
    z = (0,) * spec.ncoords
    zero = [[Fraction(0)]]
    return FinRep(spec, [z], [0], [zero] * spec.nsimple, [zero] * spec.nsimple, name="triv")


def irrep_sl2(spin, qp: QParam) -> FinRep:
    """The (2a+1)-dimensional irreducible of U_q(sl2): basis v_n = f^n v (n = 0..2a),
    e v_n = [n][2a-n+1] v_{n-1}, K v_n = q^{2a-2n} v_n."""
    a2 = Fraction(spin) * 2
    if a2.denominator != 1 or a2 < 0:
        raise ValueError("spin must be a nonnegative half-integer")
    a2 = int(a2)
    dim = a2 + 1
    if dim > MAX_SL2_DIM:
        raise ValueError(f"spin {spin} exceeds the configured dimension bound")
    spec = AlgebraSpec("sl2", 1, qp)
    weights = [(a2 - 2 * n,) for n in range(dim)]
    zdeg = [-n for n in range(dim)]
    f = zeros(dim, dim)
    e = zeros(dim, dim)
    for n in range(dim - 1):
        f[n + 1][n] = Fraction(1)
    for n in range(1, dim):
        e[n - 1][n] = qp.qnum(n) * qp.qnum(a2 - n + 1)
    return FinRep(spec, weights, zdeg, [e], [f], name=f"V_{Fraction(spin)}")


def vector_rep_gln(N: int, qp: QParam) -> FinRep:
    """The N-dimensional vector representation: f_i v_i = v_{i+1}, e_i v_{i+1} = v_i,
    k_a v_b = q^{delta_ab} v_b (weight of v_a is eps_a)."""
    spec = AlgebraSpec("gln", N, qp)
    weights = [tuple(1 if b == a else 0 for b in range(N)) for a in range(N)]
    zdeg = [-a for a in range(N)]
    es, fs = [], []
    for i in range(N - 1):
        e = zeros(N, N)
        f = zeros(N, N)
        e[i][i + 1] = Fraction(1)
        f[i + 1][i] = Fraction(1)
        es.append(e)
        fs.append(f)
    return FinRep(spec, weights, zdeg, es, fs, name=f"vec_gl{N}")


def tensor(V: FinRep, W: FinRep) -> FinRep:
    """V (x) W with the fixed coproduct; basis index (i,j) -> i*dim(W)+j."""
    if V.spec != W.spec:
        raise ValueError("mismatched algebras")
    spec = V.spec
    weights = [wt_add(v, w) for v in V.weights for w in W.weights]
    zdeg = [dv + dw for dv in V.zdeg for dw in W.zdeg]
    idV, idW = eye(V.dim), eye(W.dim)
    es = [linalg.mat_add(kron(V.e[i], W.K_mat(i)), kron(idV, W.e[i])) for i in range(spec.nsimple)]
    fs = [linalg.mat_add(kron(V.f[i], idW), kron(V.K_mat(i, -1), W.f[i]))
          for i in range(spec.nsimple)]
    return FinRep(spec, weights, zdeg, es, fs, name=f"{V.name}(x){W.name}")


_dual_rep = memo.table("dual_rep")


def dual_rep(V: FinRep) -> FinRep:
    """Left dual *V on V^*: x . phi = phi(S^{-1}(x) .), so the canonical pairing
    <v, phi> = phi(v) is a module map V (x) *V -> C.  Built once per V; the key
    ignores names, so *V is named after the first V it was built from."""
    return _dual_rep.get(V.key, _dual_rep_impl, V)


def _dual_rep_impl(V: FinRep) -> FinRep:
    spec = V.spec
    weights = [wt_neg(w) for w in V.weights]
    zdeg = [-d for d in V.zdeg]
    es, fs = [], []
    rng = range(V.dim)
    for i in range(spec.nsimple):
        K, Kinv = V.K_diag(i), V.K_diag(i, -1)
        e, f = V.e[i], V.f[i]
        # the transposes of S^{-1}(e) = -K^{-1} e and S^{-1}(f) = -f K
        es.append([[-(Kinv[r] * e[r][c]) for r in rng] for c in rng])
        fs.append([[-(f[r][c] * K[c]) for r in rng] for c in rng])
    return FinRep(spec, weights, zdeg, es, fs, name=f"*{V.name}")


def flip(M: Matrix, dA: int, dB: int) -> Matrix:
    """The operator M on A (x) B re-indexed to B (x) A: P M P^{-1} for the flip
    P: a (x) b -> b (x) a, with M's own entries."""
    idx = [a * dB + b for b in range(dB) for a in range(dA)]  # B (x) A index -> A (x) B index
    return [[M[r][c] for c in idx] for r in idx]


def chevalley_residuals(V: FinRep) -> list:
    """Exact residual matrices of the Chevalley and Serre relations; all must be zero."""
    spec, qp = V.spec, V.spec.qp
    out = []
    r = spec.nsimple
    for i in range(r):
        for j in range(r):
            # K_i e_j K_i^{-1} = q^{a_ij} e_j
            aij = spec.cartan[i][j]
            lhs = mat_mul(V.K_mat(i), mat_mul(V.e[j], V.K_mat(i, -1)))
            out.append(mat_sub(lhs, linalg.mat_scale(V.e[j], qp.qpow(aij))))
            lhs = mat_mul(V.K_mat(i), mat_mul(V.f[j], V.K_mat(i, -1)))
            out.append(mat_sub(lhs, linalg.mat_scale(V.f[j], qp.qpow(-aij))))
            # [e_i, f_j] = delta_ij (K_i - K_i^{-1})/(q - q^{-1})   (= delta_ij h_i at q=1)
            comm = mat_sub(mat_mul(V.e[i], V.f[j]), mat_mul(V.f[j], V.e[i]))
            if i == j:
                if qp.classical:
                    h = V.h_diag(i)
                    tgt = [[h[a] if a == b else Fraction(0) for b in range(V.dim)] for a in range(V.dim)]
                else:
                    dK = V.K_diag(i)
                    dKi = V.K_diag(i, -1)
                    c = qp.q - 1 / qp.q
                    tgt = [[(dK[a] - dKi[a]) / c if a == b else Fraction(0) for b in range(V.dim)]
                           for a in range(V.dim)]
                comm = mat_sub(comm, tgt)
            out.append(comm)
    for words, coeffs in spec.serre_relations():
        for X in (V.e, V.f):
            total = zeros(V.dim, V.dim)  # sum_k c_k X_{w_k}, X_w the product along w
            for w, c in zip(words, coeffs):
                P = eye(V.dim)
                for i in w:
                    P = mat_mul(P, X[i])
                total = linalg.mat_add(total, linalg.mat_scale(P, c))
            out.append(total)
    return out


# ---------------------------------------------------------------------------
# universal R-matrix


def _cartan_diag(V: FinRep, W: FinRep) -> list:
    """Diagonal of the Cartan factor Q = q^{sum x_i (x) x_i} on V (x) W:
    s^{2(mu,nu)} on the (mu,nu) weight pair."""
    spec = V.spec
    return [spec.qp.spow(spec.pairing2(mu, nu)) for mu in V.weights for nu in W.weights]


_universal_r = memo.table("universal_r")


def universal_r(V: FinRep, W: FinRep) -> Matrix:
    """The universal R-matrix restricted to V (x) W, built once per rep pair.

    classical: identity.  Otherwise R = Q (1 + sum_beta Theta_beta), with Q the
    Cartan factor and Theta_beta in U_q(n+)_beta (x) U_q(n-)_{-beta}, so on
    V (x) W it lies in span{e_u} (x) span{f_w} over the words u, w of letter
    content beta; its coefficients are solved from R D(f_i) = D^op(f_i) R
    (`_word_ansatz_r`), with no root vectors or series coefficients transcribed.
    Every build is checked exactly: R D(x) = D^op(x) R for x = e_i, f_i, K_i
    on every simple root i, and det R != 0.
    """
    if V.spec != W.spec:
        raise ValueError("mismatched algebras")
    return _universal_r.get((V.key, W.key), _universal_r_impl, V, W)


def _universal_r_impl(V: FinRep, W: FinRep) -> Matrix:
    """D(x) is read from V (x) W, and D^op(x) = tau D(x) from W (x) V, flipped;
    both in the row form of `linalg`, as the products read them."""
    spec = V.spec
    T = tensor(V, W)
    Top = T if V.key == W.key else tensor(W, V)

    def d_pair(X, Xop):
        return rows(X), rows(flip(Xop, W.dim, V.dim))

    fs = [d_pair(T.f[i], Top.f[i]) for i in range(spec.nsimple)]
    R = eye(V.dim * W.dim) if spec.qp.classical else _word_ansatz_r(V, W, fs)
    Rr = rows(R)
    for i in range(spec.nsimple):
        K = rows(T.K_mat(i))  # D(K_i) = D^op(K_i)
        for gen, (D, Dop) in (("e", d_pair(T.e[i], Top.e[i])), ("f", fs[i]), ("K", (K, K))):
            if next(differences(row_mul(Rr, D), row_mul(Dop, Rr)), None) is not None:
                raise ArithmeticError(f"universal R fails R D(x) = D^op(x) R for {gen}_{i + 1}")
    if linalg.mat_det(R) == 0:
        raise ArithmeticError("universal R not invertible")
    return R


def _word_spans(X: list, dim: int) -> dict:
    """{beta: a basis of span{X_u : u a word of letter content beta}} for every
    content beta != 0 with a nonzero word, X_u the product of the X_i along u.
    Each level is the previous level's basis times each X_i, zero products
    dropped, row-reduced per content on the flattened matrices."""
    spans = {}
    Xr = [rows(Xi) for Xi in X]
    level = {(0,) * len(X): [eye_rows(dim)]}
    while level:
        products = {}
        for beta, mats in level.items():
            for i, Xi in enumerate(Xr):
                gamma = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                for M in mats:
                    P = row_mul(M, Xi)
                    if not rows_is_zero(P):
                        products.setdefault(gamma, []).append([x for row in dense(P, dim)
                                                               for x in row])
        level = {}
        for gamma, flat in products.items():
            basis, _ = linalg.row_reduce_basis(flat)
            spans[gamma] = [[b[r * dim:(r + 1) * dim] for r in range(dim)] for b in basis]
            level[gamma] = [rows(B) for B in spans[gamma]]
    return spans


def _word_ansatz_r(V: FinRep, W: FinRep, fs: list) -> Matrix:
    """R = Q (1 + sum_beta sum_{A, B} c_{A,B} A (x) B), A and B over the bases of
    span{e_u} on V and span{f_w} on W for each letter content beta; the c_{A,B}
    are solved from R D(f_i) = D^op(f_i) R, fs holding the (D(f_i), D^op(f_i))
    pair on V (x) W, in row form, for every simple root i.  The Cartan factor
    sits on the left, so each term is kron(A, B) with row r scaled by Q's
    diagonal entry r."""
    Q = _cartan_diag(V, W)
    d = V.dim * W.dim

    def cartan_times(M):
        return [[Q[r] * x if x else x for x in row] for r, row in enumerate(M)]

    R = cartan_times(eye(d))
    Es, Fs = _word_spans(V.e, V.dim), _word_spans(W.f, W.dim)
    terms = [cartan_times(kron(A, B)) for beta in Es if beta in Fs
             for A in Es[beta] for B in Fs[beta]]
    if not terms:
        return R
    Ts = [rows(T) for T in [R] + terms]
    eqs, rhs = [], []
    for D, Dop in fs:
        Ms = [rows_add(row_mul(T, D), row_mul(Dop, T), -1) for T in Ts]  # T D - D^op T
        for r in range(d):
            for c in sorted({c for M in Ms for c in support(M[r])}):
                eq = [entry(M[r], c) for M in Ms]
                eqs.append(eq[1:])
                rhs.append([-eq[0]])
    sol = linalg.solve_linear(eqs, rhs)
    # sum_k c_k T_k as one product: the row (c_k) times the flattened terms
    S = mat_mul([[c for (c,) in sol]], [[x for row in T for x in row] for T in terms])[0]
    return linalg.mat_add(R, [S[r * d:(r + 1) * d] for r in range(d)])


def r_zero_part(V: FinRep, W: FinRep) -> Matrix:
    """R_0 = R Q^{-1}, the unipotent factor of R = R_0 Q (R from the universal_r table)."""
    Q = _cartan_diag(V, W)
    return [[x / Q[c] for c, x in enumerate(row)] for row in universal_r(V, W)]


# ---------------------------------------------------------------------------
# Clebsch-Gordan decomposition


class NotCompletelyReducible(ValueError):
    pass


def highest_weight_vectors(T: FinRep) -> list[list]:
    """Basis of the joint kernel of all raising operators, grouped deterministically."""
    out = []
    byw = T.weight_spaces()
    # deterministic order: weights sorted descending lexicographically
    for w in sorted(byw, reverse=True):
        idxs = byw[w]
        rows = []
        for i in range(T.spec.nsimple):
            for r in range(T.dim):
                row = [T.e[i][r][c] for c in idxs]
                if any(x != 0 for x in row):
                    rows.append(row)
        if rows:
            null = linalg.nullspace(rows)
        else:
            null = [[Fraction(1) if k == t else Fraction(0) for t in range(len(idxs))]
                    for k in range(len(idxs))]
        for vec in null:
            full = [Fraction(0)] * T.dim
            for c, idx in zip(vec, idxs):
                full[idx] = c
            out.append(full)
    return out


def generate_subrep(T: FinRep, hw: list, name="") -> tuple[FinRep, Matrix]:
    """Submodule generated by a highest-weight vector hw inside T.

    Returns (U, tau) where tau (dim T x dim U) has the chosen basis vectors of U
    as columns; the basis is the f-word orbit of hw in BFS order, so the first
    basis vector is hw itself.
    """
    span = linalg.Echelon(T.dim, [hw])
    frontier = [hw]
    order = [list(hw)]
    while frontier:
        new = []
        for v in frontier:
            for i in range(T.spec.nsimple):
                nz = [c for c in range(T.dim) if v[c]]
                img = [sum((row[c] * v[c] for c in nz if row[c]), Fraction(0)) for row in T.f[i]]
                if any(x != 0 for x in img) and span.add(img):
                    new.append(img)
                    order.append(img)
        frontier = new
    dimU = len(order)
    tau = [[order[k][r] for k in range(dimU)] for r in range(T.dim)]
    # action matrices in the generated basis: X tau = tau X_U
    es, fs = [], []
    try:
        for i in range(T.spec.nsimple):
            es.append(linalg.solve_linear(tau, mat_mul(T.e[i], tau)))
            fs.append(linalg.solve_linear(tau, mat_mul(T.f[i], tau)))
    except linalg.SingularMatrixError as exc:
        raise NotCompletelyReducible("generated subspace not e/f-stable") from exc
    weights = []
    zdeg = []
    for v in order:
        sup = next(c for c in range(T.dim) if v[c] != 0)
        weights.append(T.weights[sup])
        zdeg.append(T.zdeg[sup])
    U = FinRep(T.spec, weights, zdeg, es, fs, name=name)
    return U, tau


def cg_decompose(V: FinRep, W: FinRep) -> list[tuple[FinRep, Matrix, Matrix]]:
    """Isotypic decomposition of V (x) W into (U, tau_U, taubar_U) triples with
    taubar_U tau_U = Id_U and sum_U tau_U taubar_U = Id."""
    T = tensor(V, W)
    hws = highest_weight_vectors(T)
    summands = []
    total = 0
    for k, hw in enumerate(hws):
        U, tau = generate_subrep(T, hw, name=f"U{k}")
        summands.append((U, tau))
        total += U.dim
    if total != T.dim:
        raise NotCompletelyReducible(
            f"summand dimensions {total} != {T.dim}; non-generic q?"
        )
    # stack all bases; invert once to get all projections
    S = [[Fraction(0)] * T.dim for _ in range(T.dim)]
    col = 0
    for U, tau in summands:
        for k in range(U.dim):
            for r in range(T.dim):
                S[r][col] = tau[r][k]
            col += 1
    Sinv = linalg.mat_inv(S)
    out = []
    row = 0
    for U, tau in summands:
        taubar = [Sinv[row + k] for k in range(U.dim)]
        out.append((U, tau, [list(r) for r in taubar]))
        row += U.dim
    return out
