"""Field-generic exact dense matrices (lists of lists), and their row form.

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

The row form (`rows`, `eye_rows`) holds a matrix as one pair per row.  A
row whose entries are all Fractions is an integer row (den, {c: n}): the
nonzero numerators over one positive int den, which `rows` makes the lcm of
the row's denominators and which products and sums do not reduce.  Any
other row is (zero, {c: x}): a typed zero (never a den, as an int zero is
0), and every entry that is not a zero of zero's type.  `row_mul` is the one
product: an integer row of A times integer rows of B runs on integers, and
any other row multiplies the nonzero values and follows the zero-typing rule
above.  `rows_add` adds as `mat_add` and `mat_sub` do.  `dense` gives back
the lists, entry types included, so `mat_mul` is rows -> `row_mul` ->
`dense`.  `differences` compares two row forms entry by entry, integer rows
by cross-multiplied numerators, and is the one comparator of the identity
checks.  It, `rows_add`, `mat_add` and `mat_sub` raise ValueError on
operands with unequal row counts.  `entry`, `support`, `mask`, `place` and
`transpose_blocks` read and move rows, so no other module reads the pairs.
The J, J^-1 and R of `exchange` are held in this form; only readers that
need lists call `dense`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Matrix = list  # list[list[field element]]
_ZERO = Fraction(0)
_FRACTION = frozenset([Fraction])


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
    return [[_add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B, strict=True)]


def mat_sub(A: Matrix, B: Matrix) -> Matrix:
    return [[_sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B, strict=True)]


def mat_scale(A: Matrix, c) -> Matrix:
    return [[a * c for a in row] for row in A]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    """A B through the row form, multiplying only nonzero pairs."""
    return dense(row_mul(rows(A), rows(B)), len(B[0]))


# ---------------------------------------------------------------------------
# the row form


def _int_row(nz):
    """The integer row of the pairs (c, x), each x a Fraction."""
    den = lcm(*[x._denominator for _, x in nz])
    return den, {c: x._numerator * (den // x._denominator) for c, x in nz if x._numerator}


def _row_of(zero, ents: dict):
    """The row whose entries are ents and zero elsewhere: an integer row when
    zero and every value are Fractions, (zero, ents) otherwise."""
    if type(zero) is Fraction and _FRACTION.issuperset(map(type, ents.values())):
        return _int_row(ents.items())
    return zero, ents


def rows(A: Matrix) -> list:
    """The row form of A."""
    out = []
    for row in A:
        if _FRACTION.issuperset(map(type, row)):
            out.append(_int_row([(c, x) for c, x in enumerate(row) if x._numerator]))
        else:
            z = next((x for x in row if not x), row[0] - row[0])
            out.append(_row_of(z, {c: x for c, x in enumerate(row) if x or type(x) is not type(z)}))
    return out


def eye_rows(n: int) -> list:
    """The row form of eye(n)."""
    return [(1, {r: 1}) for r in range(n)]


def eye_like(A: list) -> list:
    """The row form of the identity typed entry by entry like the row form A:
    entry (r, c) is a zero, or for c = r a one, of the type of A's entry."""
    out = []
    units = {}  # type -> (its zero, its one)
    for r, (d, ents) in enumerate(A):
        if type(d) is int and d:
            out.append((1, {r: 1}))
            continue
        for x in (d, *ents.values()):
            if type(x) not in units:
                units[type(x)] = (x - x, x - x + 1)
        row = {c: units[type(x)][c == r] for c, x in ents.items()}
        row.setdefault(r, units[type(d)][1])
        out.append(_row_of(d, row))
    return out


def entry(row, c):
    """The entry in column c of a row."""
    d, ents = row
    if type(d) is int and d:
        return Fraction(ents[c], d) if c in ents else _ZERO
    return ents.get(c, d)


def _values(row) -> dict:
    """{c: x} over the nonzero entries of a row."""
    d, ents = row
    if type(d) is int and d:
        return {c: Fraction(n, d) for c, n in ents.items()}
    return {c: x for c, x in ents.items() if x}


def dense(A: list, m: int) -> Matrix:
    """The lists of a row form with m columns."""
    out = []
    for d, ents in A:
        if type(d) is int and d:
            row = [_ZERO] * m
            for c, n in ents.items():
                row[c] = Fraction(n, d)
        else:
            row = [d] * m
            for c, x in ents.items():
                row[c] = x
        out.append(row)
    return out


def rows_is_zero(A: list) -> bool:
    return not any(x for _, ents in A for x in ents.values())


def support(row) -> list:
    """The columns of a row's nonzero entries."""
    d, ents = row
    if type(d) is int and d:
        return list(ents)
    return [c for c, x in ents.items() if x]


def mask(A: list, cols) -> list:
    """A with every entry outside the columns cols made its row's zero."""
    return [(d, {c: x for c, x in ents.items() if c in cols}) for d, ents in A]


def place(out: list, A: list, index, offsets) -> None:
    """Write the row form A into the row form out once per offset off: row i
    of A becomes row index[i] + off, its column c column index[c] + off."""
    moved = [(index[i], d, {index[c]: x for c, x in ents.items()})
             for i, (d, ents) in enumerate(A)]
    for off in offsets:
        for r, d, ents in moved:
            out[r + off] = (d, {c + off: x for c, x in ents.items()} if off else ents)


def _int_row_mul(d: int, ents: dict, B: list):
    """The integer row (d, ents) times the integer rows B: numerators summed
    over d times the lcm of the denominators of the rows of B it reaches."""
    terms = [(n, B[k]) for k, n in ents.items() if B[k][1]]
    den = lcm(*[bd for _, (bd, _) in terms])
    acc = {}
    for n, (bd, bents) in terms:
        f = n * (den // bd)
        for c, x in bents.items():
            acc[c] = acc[c] + f * x if c in acc else f * x
    return den * d, {c: x for c, x in acc.items() if x}


def row_mul(A: list, B: list) -> list:
    """The row form of A B, from the row forms of A and B."""
    b_int = all(type(d) is int and d for d, _ in B)
    Bv = None  # each row of B as {c: nonzero value}, made for the first non-integer row
    fills = {}  # type(A[i][0]) -> (the zero of row i, {c: its zeros of another type})
    out = []
    for d, ents in A:
        if b_int and type(d) is int and d:
            out.append(_int_row_mul(d, ents, B))
            continue
        if Bv is None:
            Bv = [_values(row) for row in B]
        acc = {}
        for k, a in _values((d, ents)).items():
            for c, b in Bv[k].items():
                acc[c] = acc[c] + a * b if c in acc else a * b
        a0 = entry((d, ents), 0)
        fill = fills.get(type(a0))
        if fill is None:
            # a no-term entry is a zero typed like A[i][0] * B[0][c]
            za = a0 - a0
            d0, e0 = B[0]
            if type(d0) is int and d0:
                d0, e0 = _ZERO, {}
            zero, by_type = za * d0, {}
            for b in e0.values():
                if type(b) not in by_type:
                    by_type[type(b)] = za * b
            fill = fills[type(a0)] = (zero, {c: by_type[type(b)] for c, b in e0.items()
                                             if type(by_type[type(b)]) is not type(zero)})
        zero, other = fill
        out.append(_row_of(zero, {**other, **acc}))
    return out


def rows_add(A: list, B: list, sign: int = 1) -> list:
    """The row form of A + sign B (sign 1 or -1), each entry as `mat_add` or
    `mat_sub` makes it."""
    step = _add if sign > 0 else _sub
    out = []
    for ra, rb in zip(A, B, strict=True):
        (da, ea), (db, eb) = ra, rb
        if type(da) is int and da and type(db) is int and db:
            if not eb or not ea:
                out.append(ra if not eb else rb if sign > 0 else
                           (db, {c: -y for c, y in eb.items()}))
                continue
            den = lcm(da, db)
            fa, fb = den // da, sign * (den // db)
            acc = {c: x * fa for c, x in ea.items()}
            for c, y in eb.items():
                acc[c] = acc[c] + y * fb if c in acc else y * fb
            out.append((den, {c: x for c, x in acc.items() if x}))
            continue
        za = _ZERO if type(da) is int and da else da
        zb = _ZERO if type(db) is int and db else db
        ents = {c: step(entry(ra, c), entry(rb, c)) for c in ea.keys() | eb.keys()}
        out.append(_row_of(step(za, zb), ents))
    return out


def differences(A: list, B: list):
    """An iterator of (r, c, x, y), in row-major order, at every entry where
    the row forms A and B differ, x and y their entries there; a pair of zeros
    is never compared.  Integer rows compare cross-multiplied numerators.
    Raises ValueError, when called, on forms with unequal row counts."""
    if len(A) != len(B):
        raise ValueError(f"cannot compare a {len(A)}-row and a {len(B)}-row matrix")
    return _differences(A, B)


def _differences(A: list, B: list):
    for r, (ra, rb) in enumerate(zip(A, B)):
        (da, ea), (db, eb) = ra, rb
        if type(da) is int and da and type(db) is int and db:
            if da == db and ea == eb:
                continue
            for c in sorted(ea.keys() | eb.keys()):
                x, y = ea.get(c, 0), eb.get(c, 0)
                if x * db != y * da:
                    yield r, c, Fraction(x, da), Fraction(y, db)
            continue
        for c in sorted(ea.keys() | eb.keys()):
            x, y = entry(ra, c), entry(rb, c)
            if (x or y) and x != y:
                yield r, c, x, y


def transpose_blocks(A: list, n: int) -> list:
    """The row form of the square A with its n x n grid of blocks transposed,
    each block left as it is; every entry keeps its type."""
    k = len(A) // n
    return rows([[entry(A[c // k * k + r % k], r // k * k + c % k) for c in range(len(A))]
                 for r in range(len(A))])


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
