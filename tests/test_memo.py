import copy
import sys
import threading
from fractions import Fraction

from dynrx import memo
from dynrx.exchange import exchange_matrix, fusion_matrix
from dynrx.lam import Lambda
from dynrx.liealg import irrep_sl2, vector_rep_gln
from dynrx.scalars import QParam
from dynrx.sixj import pentagon_residuals, sixj_table


def test_sixj_inverts_each_fusion_matrix_once():
    memo.clear()
    qp = QParam(2)
    sixj_table(qp, Fraction(1))
    assert pentagon_residuals(qp, Fraction(1)) == []
    st = memo.stats()
    assert st["fusion"]["misses"] > 0
    assert st["fusion_inverse"]["misses"] == st["fusion"]["misses"]
    assert st["fusion_inverse"]["hits"] > 0


def test_pentagon_reads_every_symbol_through_the_sixj_table(monkeypatch):
    from dynrx import sixj

    real, calls = sixj.sixj_fusion, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sixj, "sixj_fusion", counted)
    memo.clear()
    qp = QParam(2)
    sixj_table(qp, Fraction(1))
    assert memo.stats()["sixj"] == {"hits": 0, "misses": 99, "size": 99}
    assert pentagon_residuals(qp, Fraction(1)) == []
    st = memo.stats()["sixj"]
    # no cache in front of the table: each lookup is one hit or one miss
    assert st["misses"] == 727 and st["hits"] == 6746
    assert st["hits"] + st["misses"] == len(calls)
    for name in ("sixj", "phi"):
        keys = memo.table(name).data
        assert keys and all(type(x) is int for key in keys for x in key[:-1])
        assert all(key[-1] is qp for key in keys)


def test_sixj_suite_builds_each_ingredient_once(monkeypatch):
    # the sixj suite at q = 2, max-spin 1 (fusion table, oracle table and
    # pentagon): 15 distinct intertwiner solves, 58 oracle solves (one per
    # (a, b, c, k)), 182 distinct J^-1 phi entries and 21 tensor pairs
    from dynrx import exchange, sixj

    counts = {"solve": 0, "combine": 0, "tensor": 0}

    def counted(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(exchange, "solve_intertwiner", counted("solve", exchange.solve_intertwiner))
    monkeypatch.setattr(sixj, "_combine", counted("combine", sixj._combine))
    monkeypatch.setattr(sixj, "tensor", counted("tensor", sixj.tensor))
    memo.clear()
    qp = QParam(2)
    assert len(sixj_table(qp, Fraction(1)).values) == 99
    assert len(sixj_table(qp, Fraction(1), "oracle").values) == 99
    assert pentagon_residuals(qp, Fraction(1)) == []
    assert counts == {"solve": 15, "combine": 182, "tensor": 21}
    st = memo.stats()
    assert st["intertwiner"] == {"hits": 42, "misses": 15, "size": 15}
    assert st["sixj_oracle"]["misses"] == st["sixj_oracle"]["size"] == 58
    assert st["sixj_entry"]["misses"] == st["sixj_entry"]["size"] == 182
    assert st["phi"]["misses"] == st["phi"]["size"] == 21
    assert st["sixj"] == {"hits": 6746, "misses": 727, "size": 727}


def test_oracle_table_is_read_by_the_oracle_alone(monkeypatch):
    from dynrx import sixj

    def forbidden(*args):
        raise AssertionError("the fusion route reached the oracle")

    monkeypatch.setattr(sixj, "_recouple", forbidden)
    memo.clear()
    qp = QParam(2)
    assert len(sixj_table(qp, Fraction(1)).values) == 99
    assert pentagon_residuals(qp, Fraction(1)) == []
    assert memo.stats()["sixj_oracle"] == {"hits": 0, "misses": 0, "size": 0}


def test_content_equal_reps_share_a_key(qp4):
    A, B = irrep_sl2(1, qp4), irrep_sl2(1, qp4)
    assert A is not B and A.key == B.key
    C = irrep_sl2(1, qp4)
    C.e[0][0][1] += 1  # changed before it is first keyed
    assert C.key != A.key
    assert irrep_sl2(1, QParam(9)).key != A.key
    lam = Lambda(A.spec, (Fraction(3, 5),))
    again = Lambda(A.spec, (Fraction(3, 5),))
    assert lam.key() == again.key() != lam.shifted((2,)).key()


def test_clear_then_recompute_gives_equal_values(qp4):
    V = irrep_sl2(Fraction(1, 2), qp4)
    W = irrep_sl2(1, qp4)
    lam = Lambda(V.spec, (Fraction(7, 3),))
    qp2 = QParam(2)

    def compute():
        return (fusion_matrix(V, W, lam), fusion_matrix(V, W, lam, "abrr"),
                exchange_matrix(V, W, lam), exchange_matrix(V, V, Lambda.symbolic(V.spec)),
                sixj_table(qp2, Fraction(1, 2)).values)

    first = copy.deepcopy(compute())
    # callers read the shared values; none may change them in place
    exchange_matrix(W, V, lam)
    pentagon_residuals(qp2, Fraction(1, 2))
    assert compute() == first
    memo.clear()
    assert all(t["size"] == 0 and t["hits"] == 0 for t in memo.stats().values())
    assert compute() == first


def test_abrr_lookup_never_served_from_verma(qp4):
    memo.clear()
    V = irrep_sl2(Fraction(1, 2), qp4)
    lam = Lambda(V.spec, (Fraction(5, 7),))
    J = fusion_matrix(V, V, lam, "verma")
    before = memo.stats()["fusion"]
    assert fusion_matrix(V, V, lam, "abrr") == J
    after = memo.stats()["fusion"]
    assert after["misses"] == before["misses"] + 1
    assert after["hits"] == before["hits"]


def test_verma_fusion_reads_no_universal_r_and_no_abrr(monkeypatch):
    # the Verma route must stay independent of the ABRR route it is checked against
    from dynrx import exchange

    def forbidden(*args):
        raise AssertionError("the Verma route reached the ABRR route")

    monkeypatch.setattr(exchange, "fusion_matrix_abrr", forbidden)
    monkeypatch.setattr(exchange, "_abrr_plan_impl", forbidden)
    monkeypatch.setattr(exchange, "r_zero_part", forbidden)
    memo.clear()
    qp = QParam(4)
    for V in (irrep_sl2(1, qp), vector_rep_gln(3, qp)):
        lam = Lambda.sample(V.spec, 12)
        fusion_matrix(V, V, lam)
    st = memo.stats()
    assert st["fusion"]["misses"] == 2
    assert st["universal_r"]["hits"] == st["universal_r"]["misses"] == 0
    assert st["abrr_plan"]["hits"] == st["abrr_plan"]["misses"] == 0
    assert st["intertwiner"]["misses"] == 3 + 3  # one solve per basis vector of V


def test_abrr_route_reads_no_intertwiner(monkeypatch):
    # the ABRR route must not read the Verma route's intertwiner table
    from dynrx import exchange, intertwine

    def forbidden(*args):
        raise AssertionError("the ABRR route reached an intertwiner solve")

    monkeypatch.setattr(exchange, "solve_intertwiner", forbidden)
    monkeypatch.setattr(intertwine, "solve_intertwiner", forbidden)
    memo.clear()
    qp = QParam(4)
    for V in (irrep_sl2(1, qp), vector_rep_gln(3, qp)):
        lam = Lambda.sample(V.spec, 12)
        fusion_matrix(V, V, lam, "abrr")
        exchange_matrix(V, V, lam, "abrr")
    st = memo.stats()
    assert st["fusion"]["misses"] == 2 and st["exchange"]["misses"] == 2
    assert st["intertwiner"] == {"hits": 0, "misses": 0, "size": 0}


def test_threads_share_tables_without_lost_updates():
    t = memo.Table("threads")
    nthreads, rounds, nkeys = 8, 300, 50
    ids = [[] for _ in range(nthreads)]
    barrier = threading.Barrier(nthreads)

    def work(slot):
        barrier.wait(timeout=30)
        for r in range(rounds):
            k = r % nkeys
            ids[slot].append(memo.intern(("test-threads", k)))
            assert t.get(k, lambda: [k]) == [k]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in range(nthreads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(old)
    assert t.hits + t.misses == nthreads * rounds
    assert len(t.data) == nkeys
    # one int per distinct value, the same int in every thread
    assert all(row == ids[0] for row in ids)
    assert len(set(ids[0])) == nkeys
