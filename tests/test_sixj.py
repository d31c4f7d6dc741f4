import hashlib
from fractions import Fraction

import pytest

from dynrx import linalg, memo
from dynrx.exchange import fusion_inverse
from dynrx.lam import Lambda
from dynrx.liealg import cg_decompose, irrep_sl2, tensor
from dynrx.scalars import Poly, QParam, RatFunc
from dynrx.sixj import (
    _combine,
    admissible,
    cg_range,
    normalized_intertwiner,
    pentagon_residuals,
    sixj_fusion,
    sixj_oracle,
    sixj_table,
    spin_range,
)


def test_admissibility():
    # labels are doubled spins: 1 is spin 1/2, 2 is spin 1
    assert admissible(1, 1, 2)
    assert not admissible(1, 1, 3)
    assert not admissible(0, 1, 0)
    assert list(cg_range(1, 2)) == [1, 3]


def test_normalized_intertwiner_leading_term(qp4):
    Vb, Vc, phi = normalized_intertwiner(1, 1, 0, qp4)
    # phi(v_0) = v_b (x) v_{c, b+c-a} + lower: coefficient at (0, m=1) is 1
    assert phi[0 * 2 + 1][0] == 1


def _cg_reference_intertwiners(b, c, qp):
    """{a: phi_a^{bc}} by the full Clebsch-Gordan decomposition of V_b (x) V_c
    (doubled spins): each summand's top vector, pinned to 1 at
    v_b (x) v_{c,(b+c-a)/2}, and its f-chain."""
    Vb, Vc = irrep_sl2(Fraction(b, 2), qp), irrep_sl2(Fraction(c, 2), qp)
    T = tensor(Vb, Vc)
    out = {}
    for U, tau, _ in cg_decompose(Vb, Vc):
        a = U.weights[0][0]
        hw = [tau[r][0] for r in range(T.dim)]
        scale = 1 / hw[(b + c - a) // 2]
        cols = [[x * scale for x in hw]]
        for _ in range(a):
            prev = cols[-1]
            cols.append([sum(T.f[0][r][s] * prev[s] for s in range(T.dim)) for r in range(T.dim)])
        out[a] = [list(col) for col in zip(*cols)]
    return out


@pytest.mark.parametrize("qval", ["2", "4", "1/3", "classical"])
def test_normalized_intertwiner_matches_cg_reference(qval):
    qp = QParam(1) if qval == "classical" else QParam(Fraction(qval))
    spins = spin_range(Fraction(5, 2))
    for b in spins:
        for c in spins:
            ref = _cg_reference_intertwiners(b, c, qp)
            for a in spins:
                if not admissible(a, b, c):
                    continue
                _, _, phi = normalized_intertwiner(b, c, a, qp)
                typed = [[(type(x), x) for x in row] for row in phi]
                assert typed == [[(type(x), x) for x in row] for row in ref[a]], (a, b, c)


def test_trivial_recoupling():
    # b = 0 forces n = a, j = c, and the coefficient is 1
    qp = QParam(1)
    assert sixj_fusion(1, 0, 1, 2, 3, 2, qp) == 1
    assert sixj_fusion(1, 0, 1, 2, 3, 1, qp) == 0


def test_inadmissible_is_zero(qp4):
    assert sixj_fusion(2, 2, 6, 2, 2, 2, QParam(2)) == 0
    assert sixj_oracle(2, 2, 6, 2, 2, 2, QParam(1)) == 0


@pytest.mark.parametrize("qval", ["classical", "2"])
def test_fusion_equals_oracle_spot(qval):
    qp = QParam(1) if qval == "classical" else QParam(Fraction(qval))
    # spot checks across the table (the full sweep runs in the acceptance suite)
    tuples = [
        (1, 1, 2, 1, 2, 2),
        (1, 1, 0, 1, 2, 2),
        (2, 1, 1, 1, 2, 2),
        (1, 2, 1, 2, 1, 2),
        (2, 2, 2, 2, 2, 2),
    ]
    for t in tuples:
        assert sixj_fusion(*t, qp) == sixj_oracle(*t, qp), t


def test_classical_sixj_rational_values():
    qp = QParam(1)
    # an admissible tuple with all four triangles integral
    v = sixj_fusion(1, 1, 2, 1, 1, 2, qp)
    assert v != 0
    assert v == sixj_oracle(1, 1, 2, 1, 1, 2, qp)


def test_pentagon_small():
    # tiny-domain pentagon run (spins <= 1/2); the full desk-spin sweep is in acceptance
    assert pentagon_residuals(QParam(1), Fraction(1, 2)) == []
    assert pentagon_residuals(QParam(2), Fraction(1, 2)) == []


def test_table_structure(qp4):
    tab = sixj_table(QParam(2), Fraction(1, 2))
    for key, val in tab.values.items():
        a, b, n, c, k, j = (int(2 * x) for x in key)  # keys are Fraction spins
        assert admissible(a, b, n) and admissible(b, c, j)
        assert val != 0
    rows = list(tab.rows())
    assert rows == sorted(rows)
    assert list(spin_range(1)) == [0, 1, 2]


# The Fraction-spin label rules and the per-term row combination of the
# implementation before labels became doubled-spin ints, kept as references.
def _admissible_ref(a, b, c) -> bool:
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return (a + b + c).denominator == 1 and abs(a - b) <= c <= a + b


def _cg_range_ref(b, c):
    b, c = Fraction(b), Fraction(c)
    j = abs(b - c)
    out = []
    while j <= b + c:
        out.append(j)
        j += 1
    return out


def _combine_ref(row, col):
    """The row summed over the plain product of its denominators, then
    normalised by one `RatFunc.make`."""
    num, den = Poly(()), Poly.of(1)
    for e, cs in zip(row, col):
        if e and cs:
            e = RatFunc.coerce(e)
            num, den = num * e.den + e.num.scale(cs) * den, den * e.den
    return RatFunc.make(num, den)


def _qp(qval):
    return QParam(1) if qval == "classical" else QParam(Fraction(qval))


def test_int_labels_match_fraction_labels():
    spins = [Fraction(s, 2) for s in range(6)]  # every spin <= 5/2
    assert [Fraction(x, 2) for x in spin_range(Fraction(5, 2))] == spins
    for a in spins:
        for b in spins:
            assert [Fraction(x, 2) for x in cg_range(int(2 * a), int(2 * b))] == _cg_range_ref(a, b)
            for c in spins:
                assert admissible(int(2 * a), int(2 * b), int(2 * c)) == _admissible_ref(a, b, c)


@pytest.mark.parametrize("qval", ["2", "classical"])
def test_one_normalisation_equals_per_term_sum(qval):
    # every row of J^-1 that the max-spin-1 table and pentagon read, with the
    # intertwiner column it is paired with
    qp = _qp(qval)
    memo.clear()
    sixj_table(qp, 1)
    pentagon_residuals(qp, 1)
    reads = set()
    for a, b, n, c, k, j, *_ in memo.table("sixj").data:
        if admissible(a, b, n) and admissible(n, c, k) and admissible(b, c, j) and admissible(a, j, k):
            reads.add((b, c, j, (b - n + a) // 2, (c - k + n) // 2, (j - k + a) // 2))
    assert len(reads) > 100
    for b, c, j, ib, ic, m in sorted(reads):
        Vb, Vc, phi = normalized_intertwiner(b, c, j, qp)
        Ji = fusion_inverse(Vb, Vc, Lambda.symbolic(Vb.spec))
        row = linalg.dense(Ji, len(Ji))[ib * Vc.dim + ic]
        col = [r[m] for r in phi]
        assert _combine(row, col) == _combine_ref(row, col), (b, c, j, ib, ic, m)


# sha256 of the sorted (key, type name, value) triples of the max-spin-1 table,
# recorded on the Fraction-label implementation; there the fusion and oracle
# tables were equal, so one digest per q serves both
_TABLE_DIGESTS = {
    "2": "d694fa42a908f7df241092f6fb7dcefaf6be083876b44c95d5c39aa128623ad1",
    "1/3": "dadc6a3294f993a2ca1195cace0cf95fb36466d44acce0ba58ee673eee97d68e",
    "classical": "fac830667bbcdec1247216d38719ecf57e0438d465a4065c886e219c05aa468c",
}


@pytest.mark.parametrize("qval", sorted(_TABLE_DIGESTS))
@pytest.mark.parametrize("method", ["fusion", "oracle"])
def test_tables_keep_fraction_label_values_and_types(qval, method):
    values = sixj_table(_qp(qval), Fraction(1), method).values
    assert len(values) == 99
    text = repr(sorted((key, type(v).__name__, v) for key, v in values.items()))
    assert hashlib.sha256(text.encode()).hexdigest() == _TABLE_DIGESTS[qval]
