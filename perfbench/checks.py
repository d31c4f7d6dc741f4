"""Output checks computed apart from dynrx, in the benchmark's own Fraction
arithmetic on the emitted JSON.

Every check returns a list of problems (strings); an empty list means the
output passed.  The checks know the representations only through their
weights, written out here from the definitions:

* the sl2 irrep of spin a has basis v_0 .. v_2a with v_n of weight 2a - 2n;
* the gl_N vector representation has basis v_0 .. v_{N-1} with v_a of weight
  the a-th unit vector.

The first-slot grading of W (x) V is the index of the W factor: J - 1 may
only map w_i (x) v to w_k (x) v' with k > i (each step lowers W by an f).
"""

from __future__ import annotations

from fractions import Fraction


def sl2_weights(spin: str) -> list:
    a2 = int(2 * Fraction(spin))
    return [(a2 - 2 * n,) for n in range(a2 + 1)]


def gln_weights(n: int) -> list:
    return [tuple(1 if b == a else 0 for b in range(n)) for a in range(n)]


def _add(u: tuple, v: tuple) -> tuple:
    return tuple(x + y for x, y in zip(u, v))


def scalar_matrix(mat: dict) -> list:
    """The entries of a matrix JSON object whose entries are "p/q" strings."""
    return [[Fraction(x) for x in row] for row in mat["entries"]]


def _poly_eval(coeffs: list, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + Fraction(c)
    return acc


def eval_ratfunc(entry: dict, x: Fraction) -> Fraction | None:
    """Value at x of a {"num": [...], "den": [...]} entry (coefficients from the
    constant term up); None at a pole."""
    den = _poly_eval(entry["den"], x)
    if den == 0:
        return None
    return _poly_eval(entry["num"], x) / den


def eval_symbolic_matrix(mat: dict, x: Fraction) -> list | None:
    out = []
    for row in mat["entries"]:
        vals = [eval_ratfunc(e, x) for e in row]
        if any(v is None for v in vals):
            return None
        out.append(vals)
    return out


def check_config(out: dict, expected: dict) -> list:
    """The echoed configuration names what was asked for."""
    cfg = out.get("config", {})
    return [f"config {k}: expected {v!r}, got {cfg.get(k)!r}"
            for k, v in expected.items() if cfg.get(k) != v]


def check_verify(out: dict, suites: list) -> list:
    """A verify payload passed overall and in every report, and ran the suites
    asked for."""
    problems = []
    if out.get("pass") is not True:
        problems.append("verify: top-level pass is not true")
    reports = out.get("reports") or []
    if not reports:
        problems.append("verify: no reports")
    for rep in reports:
        if rep.get("pass") is not True or rep.get("failures"):
            problems.append(f"verify: suite {rep.get('suite')!r} failed: "
                            f"{str(rep.get('failures'))[:200]}")
    ran = {rep.get("suite") for rep in reports}
    missing = [s for s in suites if s not in ran]
    if missing:
        problems.append(f"verify: no report for suites {missing}")
    return problems


def check_lambda(point, q: Fraction) -> list:
    """A sampled lambda: trigonometric coordinates c_a != 0 with z_a = c_a^2,
    and s^2 = q."""
    problems = []
    if not isinstance(point, dict) or point.get("case") != "trigonometric":
        return [f"lambda: not a trigonometric sample point: {point!r}"]
    s = point.get("s")
    try:
        if Fraction(s) ** 2 != q:
            problems.append(f"lambda: s = {s} but q = {q}")
    except (TypeError, ValueError):
        problems.append(f"lambda: s = {s!r} is not a rational number")
    coords = [Fraction(c) for c in point["coords"]]
    zs = [Fraction(z) for z in point["z"]]
    if len(coords) != len(zs) or any(c == 0 for c in coords):
        problems.append("lambda: bad coordinates")
    elif any(z != c * c for c, z in zip(coords, zs)):
        problems.append("lambda: z is not the square of the coordinates")
    return problems


def check_fusion(J: list, wW: list, wV: list) -> list:
    """J on W (x) V is unipotent (J - 1 strictly triangular in the first-slot
    grading) and weight-zero."""
    problems = []
    dW, dV = len(wW), len(wV)
    d = dW * dV
    if len(J) != d or any(len(row) != d for row in J):
        return [f"fusion: expected a {d}x{d} matrix"]
    wt = [_add(wW[r // dV], wV[r % dV]) for r in range(d)]
    for r in range(d):
        for c in range(d):
            x = J[r][c]
            if x == 0:
                continue
            if wt[r] != wt[c]:
                problems.append(f"fusion: entry ({r},{c}) = {x} joins weights {wt[c]} -> {wt[r]}")
            n = x - 1 if r == c else x
            if n != 0 and r // dV <= c // dV:
                problems.append(f"fusion: J - 1 has entry ({r},{c}) = {n} on or above "
                                f"the first-slot diagonal")
    return problems


def check_same_results(a: dict, b: dict, label: str) -> list:
    """Two compute payloads hold the same lambda points and the same matrices,
    entry by entry."""
    ra, rb = a.get("results") or [], b.get("results") or []
    if len(ra) != len(rb) or not ra:
        return [f"{label}: {len(ra)} vs {len(rb)} results"]
    problems = []
    for k, (x, y) in enumerate(zip(ra, rb)):
        if x["lambda"] != y["lambda"]:
            problems.append(f"{label}: sample {k} has different lambda points")
            continue
        A, B = scalar_matrix(x["matrix"]), scalar_matrix(y["matrix"])
        diff = [(r, c) for r in range(len(A)) for c in range(len(A[r]))
                if len(B) != len(A) or len(B[r]) != len(A[r]) or A[r][c] != B[r][c]]
        if diff:
            problems.append(f"{label}: sample {k} differs at entries {diff[:4]}")
    return problems


def check_hecke(R: list, n: int, q: Fraction) -> list:
    """P.R for the gl_N vector pair acts by q on every v_a (x) v_a, keeps each
    span {v_a (x) v_b, v_b (x) v_a} (a < b), and has trace q - 1/q and
    determinant -1 there: the Hecke spectrum {q, -1/q}."""
    d = n * n
    if len(R) != d or any(len(row) != d for row in R):
        return [f"hecke: expected a {d}x{d} matrix"]

    def flip(i):
        return (i % n) * n + i // n

    pr = [R[flip(r)] for r in range(d)]
    problems = []
    for a in range(n):
        i = a * n + a
        col = [pr[r][i] for r in range(d)]
        want = [q if r == i else Fraction(0) for r in range(d)]
        if col != want:
            problems.append(f"hecke: P.R does not act by q on v_{a} (x) v_{a}")
    for a in range(n):
        for b in range(a + 1, n):
            i, j = a * n + b, b * n + a
            leak = [(r, c) for c in (i, j) for r in range(d)
                    if r not in (i, j) and pr[r][c] != 0]
            if leak:
                problems.append(f"hecke: P.R leaves the block ({a},{b}) at {leak[:4]}")
            tr = pr[i][i] + pr[j][j]
            det = pr[i][i] * pr[j][j] - pr[i][j] * pr[j][i]
            if tr != q - 1 / q or det != -1:
                problems.append(f"hecke: block ({a},{b}) has trace {tr} and det {det}")
    return problems


def check_symbolic_hecke(mat: dict, n: int, q: Fraction, points: list) -> list:
    """check_hecke on a symbolic R evaluated at each x in points.  Points at
    a pole of some entry are skipped; at least three must remain."""
    problems, used = [], 0
    for x in points:
        R = eval_symbolic_matrix(mat, x)
        if R is None:
            continue
        used += 1
        problems += [f"at x = {x}: {p}" for p in check_hecke(R, n, q)]
    if used < 3:
        problems.append(f"symbolic hecke: only {used} of {len(points)} points are not poles")
    return problems
