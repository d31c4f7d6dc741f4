from fractions import Fraction

import pytest

from dynrx import linalg
from dynrx.lam import Lambda
from dynrx.liealg import AlgebraSpec
from dynrx.scalars import Poly, QParam, RatFunc
from dynrx.verma import CutoffExceeded, VermaSlice, word_basis


def transpose(M):
    return [list(col) for col in zip(*M)]


def act_f(M, i, elem):
    """f_i on an element of the slice M, reduced in its word basis."""
    out = {}
    for w, c in elem.items():
        for w2, c2 in M.wb.reduce_word((i,) + w).items():
            out[w2] = out.get(w2, M.lam.zero()) + c * c2
    return {w: c for w, c in out.items() if c}


def sl2_slice(qp, lam_coord=None, cutoff=3):
    spec = AlgebraSpec("sl2", 1, qp)
    if lam_coord is None:
        lam = Lambda.symbolic(spec)
    else:
        lam = Lambda(spec, (Fraction(lam_coord),))
    return VermaSlice(spec, lam, cutoff)


def test_highest_weight_annihilation(qp4):
    M = sl2_slice(qp4)
    assert M.act_e(0, {(): M.lam.one()}) == {}


def test_e_f_bracket_sl2(qp4):
    # e (f v) = [lambda(h)] v
    M = sl2_slice(qp4)
    out = M.act_e(0, act_f(M, 0, {(): M.lam.one()}))
    expected = M.lam.bracket(0)
    assert out == {(): expected}


def test_classical_level2_action():
    # classical, lambda(h) = 5: e f^2 v = 2(5 - 1) f v = 8 f v
    M = sl2_slice(QParam(1), lam_coord=5)
    el = {(): M.lam.one()}
    el = act_f(M, 0, act_f(M, 0, el))
    out = M.act_e(0, el)
    assert out == {(0,): Fraction(8)}


def test_gram_level0_and_sign(qpc):
    M = sl2_slice(qpc, lam_coord=7)
    assert M.shapovalov_gram(0) == [[Fraction(1)]]
    # classical level 1 is -lambda(h) (sign fixed by S(e) = -e)
    assert M.shapovalov_gram(1) == [[Fraction(-7)]]


def test_gram_level2_vanishes_at_singular_weight():
    # at q = 4 the level-2 singular vector sits at lambda(h) = 1 (bracket [l-1] = 0);
    # locate it by solving e (a f^2 + b f) v = 0 and compare with the determinant zero set
    qp = QParam(4)
    spec = AlgebraSpec("sl2", 1, qp)
    x = RatFunc.x()
    lam = Lambda.symbolic(spec)
    M = VermaSlice(spec, lam, 2)
    det2 = M.shapovalov_det(2)
    # singular-vector solve: e f^2 v = [2][l-1] f v, e f v = [l] v; a nontrivial
    # kernel of e on level 2 needs [l-1] = 0, i.e. x = q^l with l = 1
    x0 = qp.q  # q^1
    assert RatFunc.coerce(det2).eval(x0) == 0
    # and the level-1 determinant does not vanish there
    assert RatFunc.coerce(M.shapovalov_det(1)).eval(x0) != 0


def test_gram_invertible_at_regular_points(qp4):
    spec = AlgebraSpec("sl2", 1, qp4)
    for seed in range(5):
        M = VermaSlice(spec, Lambda.sample(spec, seed), 3)
        for n in range(4):
            assert linalg.mat_det(M.shapovalov_gram(n)) != 0


def test_gram_symmetric_classical():
    spec = AlgebraSpec("gln", 3, QParam(1))
    M = VermaSlice(spec, Lambda.sample(spec, 1), 3)
    for n in range(4):
        G = M.shapovalov_gram(n)
        assert G == transpose(G)


def test_word_basis_dims_match_poincare():
    # dim A_-[-n] for gl_N: generating function prod_{alpha>0} 1/(1 - z^{ht alpha})
    cutoff = 6
    dims = {}
    for N in (2, 3, 4):
        heights = [b - a for a in range(1, N + 1) for b in range(a + 1, N + 1)]
        coeffs = [0] * (cutoff + 1)
        coeffs[0] = 1
        for h in heights:
            new = [0] * (cutoff + 1)
            for i in range(cutoff + 1):
                k = 0
                while i - k * h >= 0:
                    new[i] += coeffs[i - k * h]
                    k += 1
            coeffs = new
        wb = word_basis(AlgebraSpec("gln", N, QParam(4)), cutoff)
        dims[N] = [len(wb.basis[n]) for n in range(cutoff + 1)]
        assert dims[N] == coeffs, N
    assert dims[3] == [1, 2, 4, 6, 9, 12, 16]
    assert dims[4] == [1, 3, 8, 17, 33, 58, 97]


def _content(w, nsimple):
    return tuple(w.count(i) for i in range(nsimple))


def _serre(nsimple, qnum2):
    """The quantum Serre relations of U_q(n_-) for gl_{nsimple+1}, written out
    independently of verma.py: f_i f_j - f_j f_i for |i - j| >= 2 and
    f_i^2 f_j - [2] f_i f_j f_i + f_j f_i^2 for |i - j| = 1."""
    for i in range(nsimple):
        for j in range(nsimple):
            if abs(i - j) >= 2:
                yield {(i, j): Fraction(1), (j, i): Fraction(-1)}
            elif abs(i - j) == 1:
                yield {(i, i, j): Fraction(1), (i, j, i): -qnum2, (j, i, i): Fraction(1)}


@pytest.mark.parametrize("N, q", [(3, 4), (4, 4), (4, 2)])
def test_word_basis_reducers_and_serre(N, q):
    import itertools

    nsimple, cutoff = N - 1, 6
    qp = QParam(q)
    qnum2 = qp.qnum(2)
    wb = word_basis(AlgebraSpec("gln", N, qp), cutoff)
    # every reducer is weight-homogeneous and expands in basis words or other reducers
    for n in range(cutoff + 1):
        for w, expansion in wb.reducers[n].items():
            assert w not in wb.basis[n]
            for w2 in expansion:
                assert len(w2) == n and _content(w2, nsimple) == _content(w, nsimple)
    # every Serre relation, padded on both sides to each level, reduces to zero
    for rel in _serre(nsimple, qnum2):
        L = len(next(iter(rel)))
        for n in range(L, cutoff + 1):
            for k in range(n - L + 1):
                for left in itertools.product(range(nsimple), repeat=k):
                    for right in itertools.product(range(nsimple), repeat=n - L - k):
                        total = {}
                        for core, c in rel.items():
                            for w2, c2 in wb.reduce_word(left + core + right).items():
                                total[w2] = total.get(w2, 0) + c * c2
                        assert all(v == 0 for v in total.values()), (left, rel, right)


def test_word_basis_levels_shared_across_cutoffs():
    from dynrx import memo

    spec = AlgebraSpec("gln", 4, QParam(4))
    wb6 = word_basis(spec, 6)
    misses = memo.stats()["word_basis"]["misses"]
    wb3 = word_basis(spec, 3)
    assert memo.stats()["word_basis"]["misses"] == misses  # one entry per level
    assert wb3.cutoff == 3 and len(wb3.basis) == 4
    for n in range(4):
        assert wb3.basis[n] == wb6.basis[n]
        assert wb3.reducers[n] == wb6.reducers[n]
    with pytest.raises(CutoffExceeded):
        wb3.reduce_word((0,) * 4)


def test_positive_side_dimensions_match(qp4):
    # dim A_+[n] = dim A_-[-n]: the positive/negative word quotients share the
    # same Serre relations, so the Gram matrices are genuinely square for gl3
    spec = AlgebraSpec("gln", 3, qp4)
    M = VermaSlice(spec, Lambda.sample(spec, 2), 3)
    for n in range(4):
        G = M.shapovalov_gram(n)
        assert len(G) == len(M.basis(n))
        assert all(len(row) == len(G) for row in G)


def test_gl2_determinant_matches_sl2_under_difference():
    # gl2 level-1 determinant equals the sl2 one under lambda -> lambda_1 - lambda_2
    qp = QParam(4)
    sl2 = AlgebraSpec("sl2", 1, qp)
    gl2 = AlgebraSpec("gln", 2, qp)
    d_sl2 = VermaSlice(sl2, Lambda.symbolic(sl2), 1).shapovalov_det(1)
    d_gl2 = VermaSlice(gl2, Lambda.symbolic(gl2), 1).shapovalov_det(1)
    assert RatFunc.coerce(d_sl2) == RatFunc.coerce(d_gl2)


def test_cutoff_errors(qp4):
    M = sl2_slice(qp4, cutoff=1)
    with pytest.raises(CutoffExceeded):
        M.basis(2)
    with pytest.raises(CutoffExceeded):
        act_f(M, 0, act_f(M, 0, {(): M.lam.one()}))


def test_serre_reduction_in_action(qp4):
    # gl3: f_0 f_1 f_0 acting via words stays inside the reduced basis and the
    # quantum Serre relation holds: f0^2 f1 - [2] f0 f1 f0 + f1 f0^2 = 0 on v
    spec = AlgebraSpec("gln", 3, qp4)
    M = VermaSlice(spec, Lambda.sample(spec, 5), 3)
    v = {(): M.lam.one()}
    f0, f1 = (lambda e: act_f(M, 0, e)), (lambda e: act_f(M, 1, e))
    lhs = f0(f0(f1(v)))
    mid = f0(f1(f0(v)))
    rhs = f1(f0(f0(v)))
    two = M.lam.scalar(qp4.qnum(2))
    allw = set(lhs) | set(mid) | set(rhs)
    for w in allw:
        val = lhs.get(w, M.lam.zero()) - two * mid.get(w, M.lam.zero()) + rhs.get(w, M.lam.zero())
        assert not val
