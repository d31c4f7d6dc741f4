from fractions import Fraction

import pytest

from dynrx import linalg
from dynrx.intertwine import compose_intertwiners, raising_residual, solve_intertwiner
from dynrx.lam import Lambda
from dynrx.liealg import AlgebraSpec, dual_rep, irrep_sl2, tensor, trivial_rep, vector_rep_gln
from dynrx.scalars import (
    NonGenericLambda,
    Poly,
    QParam,
    RatFunc,
)
from dynrx.verma import VermaSlice


def unit(dim, i):
    return [Fraction(1) if t == i else Fraction(0) for t in range(dim)]


def degree0(comp):
    """The degree-0 part of a composition: {(jW, jV): coefficient}."""
    return {(jW, jV): c for (wd, jW, jV), c in comp.items() if wd == ()}


def test_trivial_module_embedding(qp4):
    spec = AlgebraSpec("sl2", 1, qp4)
    lam = Lambda.symbolic(spec)
    V = trivial_rep(spec)
    exp = solve_intertwiner(lam, unit(1, 0), V)
    assert set(exp.terms) == {((), 0)}


def test_two_term_expansion_and_residual(qp4):
    # V = V_{1/2}, v = lowest vector, q = 4, sampled lambda with x = q^lambda = 4
    spec = AlgebraSpec("sl2", 1, qp4)
    lam = Lambda(spec, (Fraction(4),))  # t = x^2 = 16
    V = irrep_sl2(Fraction(1, 2), qp4)
    exp = solve_intertwiner(lam, unit(2, 1), V)
    assert set(exp.terms) == {((), 1), ((0,), 0)}
    # c = -1/(q [l+1]) with q^l = 4, q = 4: [l+1] = (q x - 1/(q x))/(q - 1/q)
    x = Fraction(4)
    q = qp4.q
    br = (q * x - 1 / (q * x)) / (q - 1 / q)
    assert exp.terms[((0,), 0)] == -1 / (q * br)
    assert raising_residual(exp) == {}


def test_residual_zero_at_random_points(qp4):
    spec = AlgebraSpec("sl2", 1, qp4)
    V = tensor(irrep_sl2(Fraction(1, 2), qp4), irrep_sl2(1, qp4))
    for seed in range(20):
        lam = Lambda.sample(spec, seed)
        for i in range(V.dim):
            exp = solve_intertwiner(lam, unit(V.dim, i), V)
            assert raising_residual(exp) == {}


def test_gl3_residual_zero(qp4):
    spec = AlgebraSpec("gln", 3, qp4)
    V = vector_rep_gln(3, qp4)
    for seed in range(5):
        lam = Lambda.sample(spec, seed)
        for i in range(3):
            exp = solve_intertwiner(lam, unit(3, i), V)
            assert raising_residual(exp) == {}


def test_linearity_in_normalization_vector(qp4):
    spec = AlgebraSpec("sl2", 1, qp4)
    lam = Lambda.sample(spec, 9)
    V = irrep_sl2(1, qp4)
    e1 = solve_intertwiner(lam, unit(3, 1), V)
    scaled = solve_intertwiner(lam, [Fraction(0), Fraction(5), Fraction(0)], V)
    assert set(scaled.terms) == set(e1.terms)
    for k, v in e1.terms.items():
        assert scaled.terms[k] == 5 * v


def test_coefficient_denominators_divide_shapovalov(qp4):
    # symbolic sl2: every coefficient's denominator divides a power of the
    # product of the Shapovalov determinants up to the depth
    spec = AlgebraSpec("sl2", 1, qp4)
    lam = Lambda.symbolic(spec)
    V = irrep_sl2(Fraction(3, 2), qp4)
    exp = solve_intertwiner(lam, unit(4, 3), V)
    depth = 3
    prod = RatFunc.const(1)
    for n in range(1, depth + 1):
        # determinant at the shifted weight mu = lambda - wt(v); build a fresh slice
        dets = VermaSlice(spec, exp.mu, depth).shapovalov_det(n)
        prod = prod * RatFunc.coerce(dets)
    dpoly = prod.num
    for coeff in exp.terms.values():
        r = RatFunc.coerce(coeff).den
        for _ in range(8):
            g = r.gcd(dpoly)
            if g.degree <= 0:
                break
            r = r.divmod(g)[0]
        assert r.degree <= 0, "denominator has a factor outside the Shapovalov zero set"


def test_classical_large_lambda_asymptotics():
    # leading behavior: coefficient of f v_mu (x) e w is -1/(lambda, alpha) + O(1/lambda^2)
    qp = QParam(1)
    spec = AlgebraSpec("sl2", 1, qp)
    lam = Lambda.symbolic(spec)
    V = irrep_sl2(1, qp)
    exp = solve_intertwiner(lam, unit(3, 1), V)  # middle vector
    c = RatFunc.coerce(exp.terms[((0,), 0)])
    # e v_1 = [1][2] v_0 = 2 v_0 classically; coefficient ~ -2/(lambda,alpha)
    assert c.inf_coeff() == -V.e[0][0][1]


def test_nongeneric_lambda_raises():
    # classical lambda(h) = 0 makes the level-1 solve singular for V_{1/2}
    qp = QParam(1)
    spec = AlgebraSpec("sl2", 1, qp)
    lam = Lambda(spec, (Fraction(-1),))
    V = irrep_sl2(Fraction(1, 2), qp)
    # mu = lambda - wt(v) with v lowest: mu(h) = lambda + 1 = 0 kills [mu(h)]
    with pytest.raises(NonGenericLambda):
        solve_intertwiner(lam, unit(2, 1), V)


def test_compose_with_trivial(qp4):
    spec = AlgebraSpec("sl2", 1, qp4)
    lam = Lambda.sample(spec, 1)
    V = irrep_sl2(Fraction(1, 2), qp4)
    T = trivial_rep(spec)
    comp = compose_intertwiners(lam, T, unit(1, 0), V, unit(2, 1))
    inner = solve_intertwiner(lam, unit(2, 1), V)
    assert {(w, jv): c for (w, jw, jv), c in comp.items()} == inner.terms


def test_compose_degree0_defines_fusion_column(qp4):
    # degree-0 coefficient of the composition is the fusion-matrix column
    from dynrx.exchange import fusion_matrix

    spec = AlgebraSpec("sl2", 1, qp4)
    lam = Lambda.sample(spec, 2)
    V = irrep_sl2(Fraction(1, 2), qp4)
    J = linalg.dense(fusion_matrix(V, V, lam), 4)
    comp = compose_intertwiners(lam, V, unit(2, 0), V, unit(2, 1))
    col = {k: v for k, v in degree0(comp).items()}
    for (jw, jv), c in col.items():
        assert J[jw * 2 + jv][0 * 2 + 1] == c


def _oracle_cases():
    qp4, qpc = QParam(4), QParam(1)
    sl2 = AlgebraSpec("sl2", 1, qp4)
    half, one = irrep_sl2(Fraction(1, 2), qp4), irrep_sl2(1, qp4)
    g3, g4 = vector_rep_gln(3, qp4), vector_rep_gln(4, qp4)

    def at(V, seed):
        return Lambda.sample(V.spec, seed)

    return {
        "sl2 1/2(x)1": (half, one, at(half, 1)),
        "sl2 1(x)1/2": (one, half, at(half, 2)),
        "sl2 1(x)1": (one, one, at(one, 3)),
        "gl3 V(x)V": (g3, g3, at(g3, 4)),
        "gl3 V(x)V*": (g3, dual_rep(g3), at(g3, 5)),
        "gl4 V(x)V": (g4, g4, at(g4, 6)),
        "sl2 1/2(x)(1/2(x)1/2)": (half, tensor(half, half), at(half, 7)),
        "sl2 symbolic 1(x)1/2": (one, half, Lambda.symbolic(sl2)),
        "sl2 symbolic classical 1/2(x)1": (
            irrep_sl2(Fraction(1, 2), qpc), irrep_sl2(1, qpc),
            Lambda.symbolic(AlgebraSpec("sl2", 1, qpc))),
    }


@pytest.mark.parametrize("case", list(_oracle_cases()))
def test_fusion_column_equals_composition_degree0(case):
    # the full composition (outer solve included) is the oracle for every column of J
    from dynrx.exchange import fusion_matrix

    W, V, lam = _oracle_cases()[case]
    J = fusion_matrix(W, V, lam)
    J = linalg.dense(J, len(J))
    for iW in range(W.dim):
        for iV in range(V.dim):
            col = degree0(compose_intertwiners(lam, W, unit(W.dim, iW), V, unit(V.dim, iV)))
            for jW in range(W.dim):
                for jV in range(V.dim):
                    assert J[jW * V.dim + jV][iW * V.dim + iV] == col.get((jW, jV), lam.zero())


def test_fusion_miss_makes_one_inner_solve_per_basis_vector(qp4, monkeypatch):
    from dynrx import exchange, memo

    calls = {"solve": 0, "compose": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(exchange, "solve_intertwiner",
                        counting("solve", exchange.solve_intertwiner))
    monkeypatch.setattr(exchange, "compose_intertwiners",
                        counting("compose", exchange.compose_intertwiners))
    for W, V in [(irrep_sl2(1, qp4), irrep_sl2(Fraction(3, 2), qp4)),
                 (vector_rep_gln(3, qp4), vector_rep_gln(3, qp4))]:
        lam = Lambda.sample(V.spec, 31)
        memo.clear()
        calls.update(solve=0, compose=0)
        exchange.fusion_matrix(W, V, lam)
        assert memo.stats()["fusion"]["misses"] == 1
        assert calls == {"solve": V.dim, "compose": 0}
