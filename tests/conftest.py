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
