import pytest
from fractions import Fraction

from dynrx.scalars import QParam


@pytest.fixture
def qp4():
    return QParam(4)


@pytest.fixture
def qp_half():
    return QParam(Fraction(1, 4))


@pytest.fixture
def qpc():
    return QParam(1)


@pytest.fixture
def no_dense_on(monkeypatch):
    """no_dense_on(d) makes `linalg.dense`, `mat_mul` and `mat_add` raise on a
    d-row or d-column matrix, so a check that builds a dense product or
    embedding of that size fails."""
    from dynrx import linalg

    def guard(d):
        for name in ("dense", "mat_mul", "mat_add"):
            def raising(*args, real=getattr(linalg, name), name=name):
                if any(a == d if type(a) is int else len(a) == d or len(a[0]) == d
                       for a in args):
                    raise AssertionError(f"linalg.{name} built a dense {d}-row matrix")
                return real(*args)
            monkeypatch.setattr(linalg, name, raising)
    return guard


@pytest.fixture
def no_conversion_on(monkeypatch):
    """no_conversion_on(*sizes) makes `linalg.rows` and `linalg.dense`, as the
    check paths of `exchange` and `dynrep` call them, raise on a square matrix
    of any of those sizes, so a check that converts a J, J^-1 or R, or a
    placement of one, fails."""
    import types

    from dynrx import dynrep, exchange, linalg

    def guard(*sizes):
        guarded = types.SimpleNamespace(**vars(linalg))
        for name in ("rows", "dense"):
            def raising(A, *m, real=getattr(linalg, name), name=name):
                if len(A) in sizes and (m[0] if m else len(A[0])) == len(A):
                    raise AssertionError(f"linalg.{name} converted a {len(A)}-square matrix")
                return real(A, *m)
            setattr(guarded, name, raising)
        for module in (exchange, dynrep):
            monkeypatch.setattr(module, "linalg", guarded)
    return guard
