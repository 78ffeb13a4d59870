from fractions import Fraction

import pytest

from localp2.linalg import LinearSystemError, solve_unique

F = Fraction


def test_consistent_overdetermined_system():
    # the zero leading entry makes column 0 take its pivot from row 1
    rows = [[0, 3, -1], [2, 1, 0], [1, 0, 4], [3, 4, 3], [0, 0, 5]]
    x0 = [F(1, 2), F(-2, 3), F(5, 7)]
    rhs = [sum(a * b for a, b in zip(r, x0)) for r in rows]
    x = solve_unique(rows, rhs)
    assert [sum(a * b for a, b in zip(r, x)) for r in rows] == rhs


@pytest.mark.parametrize("rows, rhs, message", [
    # column 1 has no pivot below row 1
    ([[1, 2, 0], [2, 4, 1], [3, 6, 5]], [1, 2, 3], "rank deficient at column 1"),
    # two rows for three unknowns, both pivots found
    ([[1, 0, 1], [0, 1, 1]], [1, 1], "rank deficient system"),
    # a missing pivot in the rows there are is reported first
    ([[1, 1, 1], [2, 2, 2]], [1, 2], "rank deficient at column 1"),
    # full column rank, but the surplus row disagrees
    ([[1, 0], [0, 1], [1, 1]], [1, 2, 4], "inconsistent system"),
])
def test_errors(rows, rhs, message):
    with pytest.raises(LinearSystemError) as err:
        solve_unique(rows, rhs)
    assert str(err.value) == message
