"""Graded polynomial rings over Q: the arithmetic shared by Q[E2, E4, E6]
(elliptic), C^-p Q[A, B, C] (quasimod) and I11^-d Q[S, X, 1/X] (mirror).

An element maps exponent tuples to nonzero Fractions and carries an
integer ``shift``: the power of a factor outside the numerator (the C-pole,
the I11-degree) that products add.  Subclasses name the generators, give
their weights, and keep their own bookkeeping in ``_settle`` (checks and
normalisation of every new element) and ``_aligned`` (how two shifts meet
in a sum).  Products run on integer numerators over one denominator per
operand, as the series store theirs.  Coefficients pass the gate of
series, ``exact``: an int or a Fraction, never a float, a Decimal or a
string.

Generator images (series or ring elements) are substituted into ring
monomials through a ``series.Powers`` table of them, which its caller
owns: ``evaluate`` sums over its entries, and ``recognize`` reads its
columns from them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add, mul

from . import linalg
from .series import Localp2Error, Powers, RatSeries, _exponent, exact, over_lcm


class Graded:
    __slots__ = ("shift", "terms")
    names: tuple = ()             # generator names, in exponent order
    weights: tuple | None = None  # generator weights, if homogeneous
    header: tuple = ()            # fields printed before the terms (cli)

    def __init__(self, shift: int, terms: dict):
        self.shift = shift
        self.terms = {tuple(k): f for k, v in terms.items()
                      if (f := Fraction(exact(v)))}
        self._settle()

    @classmethod
    def _from(cls, shift: int, terms: dict):
        """An element from terms that are already nonzero Fractions."""
        out = cls.__new__(cls)
        out.shift, out.terms = shift, terms
        out._settle()
        return out

    def _settle(self):
        if self.weights and len({self._weight(k) for k in self.terms}) > 1:
            raise ValueError(f"mixed weights: "
                             f"{sorted({self._weight(k) for k in self.terms})}")

    def _weight(self, key) -> int:
        return sum(map(mul, self.weights, key))

    def _aligned(self, other):
        """(shift, terms, other's terms) of a sum: a zero summand takes the
        other's shift, and nonzero summands must agree."""
        if self.shift == other.shift or not other.terms:
            return self.shift, self.terms, other.terms
        if not self.terms:
            return other.shift, self.terms, other.terms
        raise ValueError(f"{type(self).__name__} shifts differ: "
                         f"{self.shift} vs {other.shift}")

    @classmethod
    def zero(cls):
        return cls._from(0, {})

    @classmethod
    def const(cls, v):
        v = Fraction(exact(v))
        return cls._from(0, {(0,) * len(cls.names): v} if v else {})

    @classmethod
    def gen(cls, name: str):
        if name not in cls.names:
            raise ValueError(f"no generator {name!r} among {cls.names}")
        return cls._from(0, {tuple(int(n == name) for n in cls.names):
                             Fraction(1)})

    @property
    def weight(self) -> int:
        return self._weight(next(iter(self.terms))) if self.terms else 0

    def is_zero(self) -> bool:
        return not self.terms

    def _monomials(self) -> str:
        return " + ".join(
            f"({v})*" + "".join(f"{n}^{e}" for n, e in zip(self.names, key))
            for key, v in sorted(self.terms.items())) or "0"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms and (
            self.shift == other.shift or not self.terms)

    def __add__(self, other):
        if type(other) is not type(self):
            other = self.const(other)
        shift, mine, theirs = self._aligned(other)
        terms = dict(mine)
        for k, v in theirs.items():
            if s := terms.get(k, 0) + v:
                terms[k] = s
            else:
                del terms[k]
        return self._from(shift, terms)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if type(other) is not type(self):
            return self._from(self.shift, {k: v * other for k, v in self.terms.items()}
                              if exact(other) else {})
        na, da = over_lcm(self.terms.values())
        nb, db = over_lcm(other.terms.values())
        acc: dict = {}
        for k1, x in zip(self.terms, na):
            for k2, y in zip(other.terms, nb):
                k = tuple(map(add, k1, k2))
                acc[k] = acc.get(k, 0) + x * y
        return self._from(self.shift + other.shift,
                          {k: Fraction(c, da * db) for k, c in acc.items() if c})

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (1 / Fraction(exact(other)))

    def __pow__(self, n: int):
        n = _exponent(n)
        if n < 0:
            raise ValueError(f"negative power {n} of a polynomial")
        return reduce(mul, [self] * n, self.const(1))

    def partial(self, name: str):
        """Formal partial derivative in the named generator."""
        i = self.names.index(name)
        return self._from(self.shift, {
            k[:i] + (k[i] - 1,) + k[i + 1:]: k[i] * v
            for k, v in self.terms.items() if k[i]})

    def derive(self, images, log_shift):
        """The derivation that sends each generator to its image and the
        outside factor U^-shift to -shift * log_shift * U^-shift."""
        out = self * log_shift * -self.shift if self.shift else self.zero()
        for name, image in zip(self.names, images):
            out = out + self.partial(name) * image
        return out


def weight_monomials(weights: tuple, w: int) -> list:
    """Every exponent tuple e with sum_i weights[i] * e[i] == w, the last
    exponent varying slowest."""
    if w < 0:
        return []
    if len(weights) == 1:
        return [(w // weights[0],)] if w % weights[0] == 0 else []
    *rest, last = weights
    return [head + (k,) for k in range(w // last + 1)
            for head in weight_monomials(rest, w - k * last)]


def evaluate(terms: dict, table: Powers):
    """sum v * table[e] over the terms {e: v}: the generators replaced by
    the bases of the table (series or ring elements)."""
    return sum((table[key] * v for key, v in terms.items()),
               table.bases[0] ** 0 * 0)


def recognize(series: RatSeries, weights: tuple, w: int,
              table: Powers) -> dict:
    """The terms of the unique weight-w polynomial that expands to
    ``series`` when generator i becomes table.bases[i], read as given (each
    known at least as far as ``series``).  The exact solve is over every
    coefficient the series carries, so one outside the span is rejected."""
    monos = weight_monomials(weights, w)
    if (series.valuation() or 0) < 0 or series.log_coeff:
        raise ValueError("a series with poles or logs is not a polynomial")
    have = series.trunc_order + 1
    if have < len(monos):
        raise ValueError(f"insufficient coefficients: need {len(monos)}, "
                         f"have {have}")
    cols = [table[m] for m in monos]
    try:
        sol = linalg.solve_unique([[c.coeff(k) for c in cols] for k in range(have)],
                                  series.coeff_list(0, have - 1))
    except Localp2Error as exc:
        raise Localp2Error(f"series not in the weight-{w} span: {exc}") from exc
    return {m: v for m, v in zip(monos, sol) if v}
