"""Exact linear algebra over Fraction, small dense systems only."""

from fractions import Fraction

from .series import Localp2Error


class LinearSystemError(Localp2Error):
    pass


def solve_unique(rows, rhs):
    """Solve an (over)determined system rows * x = rhs exactly.

    Requires full column rank and global consistency; raises
    LinearSystemError otherwise.  rows: list of coefficient lists.
    """
    m = [list(map(Fraction, r)) + [Fraction(v)] for r, v in zip(rows, rhs)]
    nrows = len(m)
    ncols = len(m[0]) - 1 if m else 0
    # a column without a pivot raises, so column c pivots in row c
    for c in range(ncols):
        if c == nrows:
            raise LinearSystemError("rank deficient system")
        piv = next((i for i in range(c, nrows) if m[i][c]), None)
        if piv is None:
            raise LinearSystemError(f"rank deficient at column {c}")
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(nrows):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    if any(row[-1] for row in m[ncols:]):
        raise LinearSystemError("inconsistent system")
    return [row[-1] for row in m[:ncols]]
