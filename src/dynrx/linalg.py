"""Field-generic exact dense matrices (lists of lists).

Works over any field type supporting +, -, *, /, == 0-testing through
`is_zero_elem`; in practice Fraction and RatFunc.  No pivoting heuristics
beyond "first nonzero": everything is exact.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import RatFunc

Matrix = list  # list[list[field element]]


def is_zero_elem(x) -> bool:
    if isinstance(x, RatFunc):
        return x.is_zero()
    return x == 0


def zeros(n: int, m: int, zero=Fraction(0)) -> Matrix:
    return [[zero for _ in range(m)] for _ in range(n)]


def eye(n: int, one=Fraction(1), zero=Fraction(0)) -> Matrix:
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_add(A: Matrix, B: Matrix) -> Matrix:
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A: Matrix, B: Matrix) -> Matrix:
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A: Matrix, c) -> Matrix:
    return [[a * c for a in row] for row in A]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    """A B, multiplying only nonzero pairs; each entry sums its terms in
    increasing inner index."""
    m = len(B[0])
    B_nz = [[(c, b) for c, b in enumerate(row) if not is_zero_elem(b)] for row in B]
    out = []
    for Ai in A:
        acc = [None] * m
        for a, Br in zip(Ai, B_nz):
            if not Br or is_zero_elem(a):
                continue
            for c, b in Br:
                s = acc[c]
                acc[c] = a * b if s is None else s + a * b
        # an entry with no nonzero term gets a zero of the right type
        out.append([Ai[0] * B[0][c] if s is None else s for c, s in enumerate(acc)])
    return out


def mat_transpose(A: Matrix) -> Matrix:
    return [list(col) for col in zip(*A)]


def kron(A: Matrix, B: Matrix) -> Matrix:
    n, m = len(A), len(A[0])
    p, q = len(B), len(B[0])
    out = zeros(n * p, m * q, A[0][0] - A[0][0])
    for i in range(n):
        for j in range(m):
            a = A[i][j]
            if is_zero_elem(a):
                continue
            for r in range(p):
                for c in range(q):
                    out[i * p + r][j * q + c] = a * B[r][c]
    return out


def mat_is_zero(A: Matrix) -> bool:
    return all(is_zero_elem(x) for row in A for x in row)


def mat_eq(A: Matrix, B: Matrix) -> bool:
    return mat_is_zero(mat_sub(A, B))


class SingularMatrixError(ValueError):
    pass


def solve_linear(A: Matrix, B: Matrix) -> Matrix:
    """Solve A X = B exactly for possibly rectangular consistent systems.

    Returns the unique solution; raises SingularMatrixError if the system is
    inconsistent or underdetermined (solution not unique).
    """
    n = len(A)
    m = len(A[0]) if n else 0
    k = len(B[0])
    aug = [list(A[i]) + list(B[i]) for i in range(n)]
    pivots = []
    row = 0
    for col in range(m):
        piv = None
        for r in range(row, n):
            if not is_zero_elem(aug[r][col]):
                piv = r
                break
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = aug[row][col]
        aug[row] = [x / inv for x in aug[row]]
        for r in range(n):
            if r != row and not is_zero_elem(aug[r][col]):
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == n:
            break
    for r in range(row, n):
        if any(not is_zero_elem(x) for x in aug[r][m:]):
            raise SingularMatrixError("inconsistent linear system")
    if len(pivots) < m:
        raise SingularMatrixError("underdetermined linear system")
    X = [[None] * k for _ in range(m)]
    for r, col in enumerate(pivots):
        X[col] = aug[r][m:]
    return X


def mat_inv(A: Matrix) -> Matrix:
    n = len(A)
    # build identity of matching element type
    zero = A[0][0] - A[0][0]
    unit = zero + 1 if not isinstance(A[0][0], RatFunc) else RatFunc.const(1)
    I = [[unit if i == j else zero for j in range(n)] for i in range(n)]
    return solve_linear(A, I)


def mat_det(A: Matrix):
    n = len(A)
    M = [list(r) for r in A]
    zero = A[0][0] - A[0][0]
    det = zero + 1 if not isinstance(A[0][0], RatFunc) else RatFunc.const(1)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not is_zero_elem(M[r][col]):
                piv = r
                break
        if piv is None:
            return zero
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = zero - det
        det = det * M[col][col]
        inv = M[col][col]
        for r in range(col + 1, n):
            if not is_zero_elem(M[r][col]):
                c = M[r][col] / inv
                M[r] = [x - c * y for x, y in zip(M[r], M[col])]
    return det


def nullspace(A: Matrix) -> list[list]:
    """Basis of the right nullspace (exact RREF)."""
    n = len(A)
    m = len(A[0]) if n else 0
    M = [list(r) for r in A]
    zero = A[0][0] - A[0][0] if n else Fraction(0)
    one = zero + 1 if not isinstance(zero, RatFunc) else RatFunc.const(1)
    pivots = []
    row = 0
    for col in range(m):
        piv = None
        for r in range(row, n):
            if not is_zero_elem(M[r][col]):
                piv = r
                break
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        inv = M[row][col]
        M[row] = [x / inv for x in M[row]]
        for r in range(n):
            if r != row and not is_zero_elem(M[r][col]):
                c = M[r][col]
                M[r] = [x - c * y for x, y in zip(M[r], M[row])]
        pivots.append(col)
        row += 1
        if row == n:
            break
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * m
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = zero - M[r][fc]
        basis.append(v)
    return basis


def row_reduce_basis(vectors: list[list]) -> tuple[list[list], list[int]]:
    """Extract a row-echelon basis from a spanning list; returns (basis, pivot columns).
    A basis row is subtracted only over its own nonzero columns."""
    if not vectors:
        return [], []
    m = len(vectors[0])
    basis = []
    pivcols = []
    supports = []
    for v in vectors:
        w = list(v)
        for b, pc, support in zip(basis, pivcols, supports):
            c = w[pc]
            if not is_zero_elem(c):
                for j in support:
                    w[j] = w[j] - c * b[j]
        pc = next((j for j in range(m) if not is_zero_elem(w[j])), None)
        if pc is None:
            continue
        w = [x / w[pc] for x in w]
        basis.append(w)
        pivcols.append(pc)
        supports.append([j for j, x in enumerate(w) if not is_zero_elem(x)])
    return basis, pivcols
