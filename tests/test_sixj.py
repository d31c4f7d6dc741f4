from fractions import Fraction

import pytest

from dynrx.liealg import cg_decompose, irrep_sl2, tensor
from dynrx.scalars import QParam, classical_q
from dynrx.sixj import (
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
    assert admissible(Fraction(1, 2), Fraction(1, 2), 1)
    assert not admissible(Fraction(1, 2), Fraction(1, 2), Fraction(3, 2))
    assert not admissible(0, Fraction(1, 2), 0)
    assert cg_range(Fraction(1, 2), 1) == [Fraction(1, 2), Fraction(3, 2)]


def test_normalized_intertwiner_leading_term(qp4):
    Vb, Vc, phi = normalized_intertwiner(Fraction(1, 2), Fraction(1, 2), 0, qp4)
    # phi(v_0) = v_b (x) v_{c, b+c-a} + lower: coefficient at (0, m=1) is 1
    assert phi[0 * 2 + 1][0] == 1


def _cg_reference_intertwiners(b, c, qp):
    """{a: phi_a^{bc}} by the full Clebsch-Gordan decomposition of V_b (x) V_c:
    each summand's top vector, pinned to 1 at v_b (x) v_{c,b+c-a}, and its f-chain."""
    Vb, Vc = irrep_sl2(b, qp), irrep_sl2(c, qp)
    T = tensor(Vb, Vc)
    out = {}
    for U, tau, _ in cg_decompose(Vb, Vc):
        a = Fraction(U.weights[0][0], 2)
        hw = [tau[r][0] for r in range(T.dim)]
        scale = 1 / hw[int(b + c - a)]
        cols = [[x * scale for x in hw]]
        for _ in range(int(2 * a)):
            prev = cols[-1]
            cols.append([sum(T.f[0][r][s] * prev[s] for s in range(T.dim)) for r in range(T.dim)])
        out[a] = [list(col) for col in zip(*cols)]
    return out


@pytest.mark.parametrize("qval", ["2", "4", "1/3", "classical"])
def test_normalized_intertwiner_matches_cg_reference(qval):
    qp = classical_q() if qval == "classical" else QParam.from_q(Fraction(qval))
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
    qp = classical_q()
    assert sixj_fusion(Fraction(1, 2), 0, Fraction(1, 2), 1, Fraction(3, 2), 1, qp) == 1
    assert sixj_fusion(Fraction(1, 2), 0, Fraction(1, 2), 1, Fraction(3, 2), Fraction(1, 2), qp) == 0


def test_inadmissible_is_zero(qp4):
    assert sixj_fusion(1, 1, 3, 1, 1, 1, QParam.from_q(2)) == 0
    assert sixj_oracle(1, 1, 3, 1, 1, 1, classical_q()) == 0


@pytest.mark.parametrize("qval", ["classical", "2"])
def test_fusion_equals_oracle_spot(qval):
    qp = classical_q() if qval == "classical" else QParam.from_q(Fraction(qval))
    # spot checks across the table (the full sweep runs in the acceptance suite)
    tuples = [
        (Fraction(1, 2), Fraction(1, 2), 1, Fraction(1, 2), 1, 1),
        (Fraction(1, 2), Fraction(1, 2), 0, Fraction(1, 2), 1, 1),
        (1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 1, 1),
        (Fraction(1, 2), 1, Fraction(1, 2), 1, Fraction(1, 2), 1),
        (1, 1, 1, 1, 1, 1),
    ]
    for t in tuples:
        assert sixj_fusion(*t, qp) == sixj_oracle(*t, qp), t


def test_classical_sixj_rational_values():
    qp = classical_q()
    # an admissible tuple with all four triangles integral
    v = sixj_fusion(Fraction(1, 2), Fraction(1, 2), 1, Fraction(1, 2), Fraction(1, 2), 1, qp)
    assert v != 0
    assert v == sixj_oracle(Fraction(1, 2), Fraction(1, 2), 1, Fraction(1, 2), Fraction(1, 2), 1, qp)


def test_pentagon_small():
    # tiny-domain pentagon run (spins <= 1/2); the full desk-spin sweep is in acceptance
    assert pentagon_residuals(classical_q(), Fraction(1, 2)) == []
    assert pentagon_residuals(QParam.from_q(2), Fraction(1, 2)) == []


def test_table_structure(qp4):
    tab = sixj_table(QParam.from_q(2), Fraction(1, 2))
    for key, val in tab.values.items():
        a, b, n, c, k, j = key
        assert admissible(a, b, n) and admissible(b, c, j)
        assert val != 0
    rows = list(tab.rows())
    assert rows == sorted(rows)
    assert spin_range(1) == [0, Fraction(1, 2), Fraction(1)]
