from fractions import Fraction

import pytest

from forestnull import QQ, AcyclicMatrix, SparseVector, build_forest


def F(a, b=1):
    return Fraction(a, b)


def sv(n, mapping, field=QQ):
    return SparseVector(n, field, mapping)


@pytest.fixture
def p3():
    """Path 0-1-2."""
    return build_forest(3, [(0, 1), (1, 2)])


@pytest.fixture
def m_p3():
    """Path-patterned fixture used throughout: entries 2,3 on the first
    edge and 5,7 on the second; Null = span{(5, 0, -3)}."""
    return AcyclicMatrix.from_entries(3, [(0, 1, 2), (1, 0, 3), (1, 2, 5), (2, 1, 7)])


@pytest.fixture
def m_star():
    """Star 0-{1,2,3} with asymmetric values; Null is 2-dimensional."""
    return AcyclicMatrix.from_entries(
        4, [(0, 1, 1), (1, 0, 1), (0, 2, 2), (2, 0, 4), (0, 3, 3), (3, 0, 9)])
