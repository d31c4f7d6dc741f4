"""Field-generic exact dense matrices (lists of lists).

Works over any field type supporting +, -, * and /, in practice Fraction and
RatFunc.  A zero test is truthiness: `not x` holds exactly when x is zero, for
both types.  A typed one is `zero + 1`.  No pivoting heuristics beyond "first
nonzero": everything is exact.

`mat_mul`, `mat_add`, `mat_sub` and `kron` do no arithmetic on an exact zero,
and `Echelon.add` divides no zero by its pivot; each entry keeps the type that
plain arithmetic gives it (a RatFunc operand makes a RatFunc).  `mat_mul` and
`kron` multiply only nonzero pairs.  An entry of `mat_mul` with no nonzero
term gets a zero of the type of A[i][0] * B[0][c]; a zero entry of `kron` gets
a zero of the type of a * b, and one of an `Echelon` row a zero of the type of
x / pivot.  Each such zero is made once per pair of types per call.
`mat_add` and `mat_sub` return the other operand (negated for 0 - b) where
one operand is a zero of the other's type, and add or subtract otherwise.

`mat_mul` makes one type test per call, over the entries of both operands at
C speed.  Where every entry is a Fraction, the product runs on integers: each
row of B as numerators over the lcm of its denominators, each row of A over
one common denominator, zero tests on `_numerator`, and one Fraction per
nonzero output entry; every other entry is Fraction(0), as the loop gives.
Any other operands take the generic loop.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Matrix = list  # list[list[field element]]


def zeros(n: int, m: int, zero=Fraction(0)) -> Matrix:
    return [[zero for _ in range(m)] for _ in range(n)]


def eye(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _add(a, b):
    if type(a) is type(b):
        if not b:
            return a
        if not a:
            return b
    return a + b


def _sub(a, b):
    if type(a) is type(b):
        if not b:
            return a
        if not a:
            return -b
    return a - b


def mat_add(A: Matrix, B: Matrix) -> Matrix:
    return [[_add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A: Matrix, B: Matrix) -> Matrix:
    return [[_sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A: Matrix, c) -> Matrix:
    return [[a * c for a in row] for row in A]


def _zero_row(a, row):
    """Per entry b of row, a zero of the type of a * b: (a - a) * b, one
    product per type of b."""
    za = a - a
    by_type = {}
    for b in row:
        if type(b) not in by_type:
            by_type[type(b)] = za * b
    return [by_type[type(b)] for b in row]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    """A B, multiplying only nonzero pairs; each entry sums its terms in
    increasing inner index.  Fraction operands take `_mat_mul_fractions`."""
    types = set()
    for row in A:
        types.update(map(type, row))
    for row in B:
        types.update(map(type, row))
    if types == {Fraction}:
        return _mat_mul_fractions(A, B)
    m = len(B[0])
    B_nz = [[(c, b) for c, b in enumerate(row) if b] for row in B]
    zero_rows = {}  # type(A[i][0]) -> the zero of each column c, typed like A[i][0] * B[0][c]
    out = []
    for Ai in A:
        acc = [None] * m
        for a, Br in zip(Ai, B_nz):
            if not Br or not a:
                continue
            for c, b in Br:
                s = acc[c]
                acc[c] = a * b if s is None else s + a * b
        zr = zero_rows.get(type(Ai[0]))
        if zr is None:
            zr = zero_rows[type(Ai[0])] = _zero_row(Ai[0], B[0])
        out.append([z if s is None else s for s, z in zip(acc, zr)])
    return out


def _mat_mul_fractions(A: Matrix, B: Matrix) -> Matrix:
    """A B for Fraction matrices, on integers: each row of B as numerators over
    the lcm of its denominators, each row of A over one common denominator of
    its terms, and one Fraction per nonzero entry."""
    B_int = []  # per row of B: (its lcm denominator, [(c, numerator over it)])
    for row in B:
        nz = [(c, b) for c, b in enumerate(row) if b._numerator]
        den = lcm(*[b._denominator for _, b in nz])
        B_int.append((den, [(c, b._numerator * (den // b._denominator)) for c, b in nz]))
    zero = Fraction(0)
    m = len(B[0])
    out = []
    for Ai in A:
        terms = [(a, Bk) for a, Bk in zip(Ai, B_int) if a._numerator and Bk[1]]
        den = lcm(*[a._denominator * Bk[0] for a, Bk in terms])
        acc = [0] * m
        for a, (bden, nums) in terms:
            f = a._numerator * (den // (a._denominator * bden))
            for c, n in nums:
                acc[c] += f * n
        out.append([Fraction(x, den) if x else zero for x in acc])
    return out


def kron(A: Matrix, B: Matrix) -> Matrix:
    n, m = len(A), len(A[0])
    p, q = len(B), len(B[0])
    out = zeros(n * p, m * q, A[0][0] - A[0][0])
    typed_zero = {}  # (type(a), type(b)) -> (a - a) * b, the zero typed like a * b
    for i in range(n):
        for j in range(m):
            a = A[i][j]
            if not a:
                continue
            for r, Br in enumerate(B):
                row = out[i * p + r]
                for c, b in enumerate(Br):
                    if b:
                        row[j * q + c] = a * b
                        continue
                    t = (type(a), type(b))
                    if t not in typed_zero:
                        typed_zero[t] = (a - a) * b
                    row[j * q + c] = typed_zero[t]
    return out


def mat_is_zero(A: Matrix) -> bool:
    return not any(x for row in A for x in row)


def mat_eq(A: Matrix, B: Matrix) -> bool:
    return A == B


class SingularMatrixError(ValueError):
    pass


class Echelon:
    """The one elimination kernel: an incremental row-echelon basis.

    `add` reduces a vector against the kept rows, each subtracted only over its
    own nonzero columns, and keeps the remainder if it is nonzero, normalised
    at its first nonzero column (the pivot).  Kept row k is zero left of its
    pivot and at the pivots of rows 0..k-1; `pivvals` holds each pivot's
    value before normalising."""

    def __init__(self, m: int, vectors=()):
        self.m = m
        self.rows: list[list] = []
        self.pivcols: list[int] = []
        self.pivvals: list = []
        self.supports: list[list[int]] = []  # nonzero columns of each row, pivot first
        for v in vectors:
            self.add(v)

    def add(self, v) -> bool:
        """Reduce v and keep it; False (nothing kept) if v is in the span."""
        w = list(v)
        for b, pc, support in zip(self.rows, self.pivcols, self.supports):
            c = w[pc]
            if c:
                for j in support:
                    w[j] = w[j] - c * b[j]
        pc = next((j for j in range(self.m) if w[j]), None)
        if pc is None:
            return False
        p = w[pc]
        typed_zero = {}  # type(x) -> 0 / p, the zero typed like x / p
        for j, x in enumerate(w):
            if x:
                w[j] = x / p
                continue
            if type(x) not in typed_zero:
                typed_zero[type(x)] = x / p
            w[j] = typed_zero[type(x)]
        self.rows.append(w)
        self.pivcols.append(pc)
        self.pivvals.append(p)
        self.supports.append([j for j, x in enumerate(w) if x])
        return True

    def reversed_rows(self):
        return zip(reversed(self.rows), reversed(self.pivcols), reversed(self.supports))


def solve_linear(A: Matrix, B: Matrix) -> Matrix:
    """Solve A X = B exactly for possibly rectangular consistent systems.

    Returns the unique solution; raises SingularMatrixError if the system is
    inconsistent or underdetermined (solution not unique).
    """
    m = len(A[0]) if A else 0
    ech = Echelon(m + len(B[0]), (list(a) + list(b) for a, b in zip(A, B)))
    if any(pc >= m for pc in ech.pivcols):
        raise SingularMatrixError("inconsistent linear system")
    if len(ech.pivcols) < m:
        raise SingularMatrixError("underdetermined linear system")
    # every column of A is a pivot, so row k's A-part lies on later rows' pivots
    X = [None] * m
    for row, pc, support in ech.reversed_rows():
        x = row[m:]
        for j in support[1:]:
            if j >= m:
                break
            c = row[j]
            x = [a - c * b for a, b in zip(x, X[j])]
        X[pc] = x
    return X


def mat_inv(A: Matrix) -> Matrix:
    n = len(A)
    zero = A[0][0] - A[0][0]
    unit = zero + 1
    I = [[unit if i == j else zero for j in range(n)] for i in range(n)]
    return solve_linear(A, I)


def mat_det(A: Matrix):
    """The product of the pivot values, signed by the pivot-column permutation."""
    n = len(A)
    zero = A[0][0] - A[0][0]
    ech = Echelon(n)
    if not all(ech.add(row) for row in A):
        return zero
    det = zero + 1
    for p in ech.pivvals:
        det = det * p
    perm = ech.pivcols
    inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
    return zero - det if inversions % 2 else det


def nullspace(A: Matrix) -> list[list]:
    """Basis of the right nullspace: one vector per free (non-pivot) column,
    1 there and 0 at the other free columns."""
    m = len(A[0]) if A else 0
    zero = A[0][0] - A[0][0] if A else Fraction(0)
    ech = Echelon(m, A)
    pivots = set(ech.pivcols)
    basis = []
    for fc in range(m):
        if fc in pivots:
            continue
        v = {fc: zero + 1}
        for row, pc, support in ech.reversed_rows():
            acc = zero
            for j in support[1:]:
                if j in v:
                    acc = acc + row[j] * v[j]
            v[pc] = zero - acc
        basis.append([v.get(c, zero) for c in range(m)])
    return basis


def row_reduce_basis(vectors: list[list]) -> tuple[list[list], list[int]]:
    """Extract a row-echelon basis from a spanning list; returns (basis, pivot columns)."""
    if not vectors:
        return [], []
    ech = Echelon(len(vectors[0]), vectors)
    return ech.rows, ech.pivcols
