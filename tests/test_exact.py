from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dense import ExactMatrix, bareiss_rank
from oracles import naive_rank

entry = st.fractions(
    max_denominator=6,
    min_value=Fraction(-9),
    max_value=Fraction(9),
)


@st.composite
def matrix_strategy(draw):
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    data = draw(
        st.lists(
            st.lists(entry, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return ExactMatrix(data)


def test_constructor_validation():
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        ExactMatrix([])


def test_arithmetic_basics():
    a = ExactMatrix([[1, 2], [3, 4]])
    b = ExactMatrix([[0, 1], [1, 0]])
    assert a @ b == ExactMatrix([[2, 1], [4, 3]])
    assert a + b - b == a
    assert (Fraction(1, 2) * a).entry(1, 1) == 2
    assert a.transpose().entry(0, 1) == 3
    assert a.trace() == 5
    assert ExactMatrix.zeros(2, 3).is_zero()
    assert not a.is_zero()


def test_known_ranks():
    assert ExactMatrix.identity(4).rank() == 4
    assert ExactMatrix.zeros(3, 5).rank() == 0
    assert ExactMatrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]]).rank() == 2
    assert ExactMatrix([[Fraction(1, 3), Fraction(2, 3)], [1, 2]]).rank() == 1


def test_bareiss_handles_rank_deficient_columns():
    grid = [
        [0, 2, 0, 1],
        [0, 4, 0, 2],
        [0, 0, 0, 3],
        [0, 0, 0, 0],
    ]
    assert bareiss_rank(grid) == 2


@given(matrix_strategy())
def test_rank_matches_naive_gaussian_elimination(m):
    assert m.rank() == naive_rank(m.data)


@given(matrix_strategy())
def test_rank_of_transpose(m):
    assert m.rank() == m.transpose().rank()


def test_inverse_round_trip():
    m = ExactMatrix([[2, 1, 0], [1, 1, 1], [0, 3, 1]])
    assert m @ m.inverse() == ExactMatrix.identity(3)
    assert m.inverse() @ m == ExactMatrix.identity(3)
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [2, 4]]).inverse()


def test_submatrix_and_kron():
    m = ExactMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    sub = m.submatrix([0, 2], [1, 2])
    assert sub == ExactMatrix([[2, 3], [8, 9]])
    k = ExactMatrix([[1, 2], [3, 4]]).kron(ExactMatrix([[0, 1], [1, 0]]))
    assert k.shape == (4, 4)
    assert k.entry(0, 1) == 1 and k.entry(0, 3) == 2


def test_matrices_are_immutable():
    m = ExactMatrix([[1]])
    with pytest.raises(AttributeError):
        m.rows = 2
