from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from localp2.linalg import solve_unique
from localp2.series import Localp2Error

from oracles import solve_unique_oracle

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
    with pytest.raises(Localp2Error) as err:
        solve_unique(rows, rhs)
    assert str(err.value) == message


entries = st.sampled_from([0, 1, -1, 2, 3, -5]) | st.builds(
    F, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 3))


@st.composite
def systems(draw):
    """Square, over-determined, rank-deficient or inconsistent systems."""
    kind = draw(st.sampled_from(["square", "over", "deficient",
                                 "inconsistent"]))
    ncols = draw(st.integers(1, 5))
    nrows = {"square": ncols, "deficient": draw(st.integers(1, 7))}.get(
        kind, ncols + draw(st.integers(1, 3)))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    if kind == "deficient":
        # one column in the span of those before it (zero for column 0)
        j = draw(st.integers(0, ncols - 1))
        mults = [draw(entries) for _ in range(j)]
        for r in rows:
            r[j] = sum((m * x for m, x in zip(mults, r)), F(0))
    x = [draw(entries) for _ in range(ncols)]
    rhs = [sum((a * b for a, b in zip(r, x)), F(0)) for r in rows]
    if kind == "inconsistent":
        rhs[draw(st.integers(0, nrows - 1))] += draw(entries) or 1
    return rows, rhs


@given(systems())
@settings(max_examples=300, deadline=None)
def test_against_fraction_elimination_oracle(system):
    rows, rhs = system
    expect = solve_unique_oracle(rows, rhs)
    if isinstance(expect, str):
        with pytest.raises(Localp2Error) as err:
            solve_unique(rows, rhs)
        assert str(err.value) == expect
    else:
        assert solve_unique(rows, rhs) == expect
