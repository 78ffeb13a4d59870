"""Exact linear algebra for small dense systems, fraction-free.

Each row is scaled to integers and eliminated by Bareiss's integer-
preserving Gauss-Jordan: every entry stays an integer minor, so the one
division per entry and step is exact, and a Fraction is made only for
each entry of the solution."""

from fractions import Fraction

from .series import Localp2Error, over_lcm


def solve_unique(rows, rhs):
    """Solve an (over)determined system rows * x = rhs exactly.

    Requires full column rank and global consistency; raises
    Localp2Error otherwise.  rows: list of coefficient lists, entries
    int or Fraction.
    """
    m = [over_lcm([*r, v])[0] for r, v in zip(rows, rhs)]
    nrows = len(m)
    ncols = len(m[0]) - 1 if m else 0
    # a column without a pivot raises, so column c pivots in row c.  Each
    # row stays a nonzero multiple of its Fraction Gauss-Jordan
    # counterpart, so the pivots and errors are the same.  Columns left of
    # c are zero off the diagonal and are not updated; every diagonal
    # entry would equal the last pivot.
    last = 1
    for c in range(ncols):
        if c == nrows:
            raise Localp2Error("rank deficient system")
        piv = next((i for i in range(c, nrows) if m[i][c]), None)
        if piv is None:
            raise Localp2Error(f"rank deficient at column {c}")
        m[c], m[piv] = m[piv], m[c]
        prow = m[c][c:]
        p = prow[0]
        for i in range(nrows):
            if i != c:
                row = m[i]
                f = row[c]
                row[c:] = [(p * a - f * b) // last
                           for a, b in zip(row[c:], prow)]
        last = p
    if any(row[-1] for row in m[ncols:]):
        raise Localp2Error("inconsistent system")
    return [Fraction(row[-1], last) for row in m[:ncols]]
