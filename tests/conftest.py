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
