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
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            raise LinearSystemError(f"rank deficient at column {c}")
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if len(pivots) < ncols:
        raise LinearSystemError("rank deficient system")
    for i in range(r, nrows):
        if m[i][-1]:
            raise LinearSystemError("inconsistent system")
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = m[i][-1]
    return x
