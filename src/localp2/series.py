"""Truncated univariate Laurent series over exact rationals.

A :class:`RatSeries` stores coefficients for exponents ``min_exp..trunc_order``
inclusive.  ``trunc_order`` is the last exponent at which the value is fully
determined; every arithmetic operation recomputes the largest order at which
its result is exact and truncates there.  No floating point is used anywhere.

An optional ``log_coeff`` slot holds a single rational multiple of the formal
symbol log(variable).  It participates in addition, scalar multiplication,
the theta derivative (theta log v = 1) and exponentiation with integer
log_coeff (a monomial shift); everything else rejects it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

Rat = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _over_lcm(fracs) -> tuple[list, int]:
    """Integer numerators of ``fracs`` over the lcm of their denominators."""
    den = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _fracs_over(nums, den: int) -> list:
    """``num / den`` for each integer numerator, sharing ``_ZERO``."""
    return [Fraction(c, den) if c else _ZERO for c in nums]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class Localp2Error(ValueError):
    """Base of every error localp2 raises for bad input or a failed exact
    computation; anything else escaping the library is a bug."""


class SeriesError(Localp2Error):
    pass


class RatSeries:
    """Truncated Laurent series with exact rational coefficients."""

    __slots__ = ("var", "min_exp", "coeffs", "log_coeff")

    def __init__(self, var: str, min_exp: int, coeffs: Iterable, log_coeff=0):
        self.var = var
        self.min_exp = int(min_exp)
        self.coeffs = tuple(_frac(c) for c in coeffs)
        self.log_coeff = _frac(log_coeff)
        if not self.coeffs:
            raise SeriesError("series needs at least one stored coefficient")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero(var: str, order: int) -> "RatSeries":
        return RatSeries(var, 0, [_ZERO] * (order + 1))

    @staticmethod
    def const(var: str, value, order: int) -> "RatSeries":
        return RatSeries(var, 0, [_frac(value)] + [_ZERO] * order)

    @staticmethod
    def one(var: str, order: int) -> "RatSeries":
        return RatSeries.const(var, 1, order)

    @staticmethod
    def gen(var: str, order: int) -> "RatSeries":
        """The series ``v`` itself, known through ``order``."""
        c = [_ZERO] * (order + 1)
        if order >= 1:
            c[1] = _ONE
        return RatSeries(var, 0, c)

    @staticmethod
    def from_pairs(var: str, pairs, trunc_order: int, log_coeff=0) -> "RatSeries":
        pairs = dict(pairs)
        lo = min(list(pairs) + [0])
        c = [_ZERO] * (trunc_order - lo + 1)
        for e, v in pairs.items():
            if e > trunc_order:
                raise SeriesError("exponent beyond truncation order")
            c[e - lo] = _frac(v)
        return RatSeries(var, lo, c, log_coeff)

    # -- basic accessors -------------------------------------------------------

    @property
    def trunc_order(self) -> int:
        return self.min_exp + len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        if k < self.min_exp:
            return _ZERO
        if k > self.trunc_order:
            raise SeriesError(f"coefficient of {self.var}^{k} beyond truncation "
                              f"order {self.trunc_order}")
        return self.coeffs[k - self.min_exp]

    def coeff_list(self, lo: int, hi: int) -> list:
        return [self.coeff(k) for k in range(lo, hi + 1)]

    def valuation(self) -> int | None:
        """Exponent of the first nonzero coefficient, or None for zero series."""
        for i, c in enumerate(self.coeffs):
            if c:
                return self.min_exp + i
        return None

    def is_zero(self) -> bool:
        return self.valuation() is None and self.log_coeff == 0

    def constant_term(self) -> Fraction:
        return self.coeff(0) if self.min_exp <= 0 <= self.trunc_order else _ZERO

    def truncate(self, order: int) -> "RatSeries":
        if order > self.trunc_order:
            raise SeriesError("cannot extend truncation order")
        if order < self.min_exp:
            return RatSeries(self.var, order, [_ZERO], self.log_coeff)
        return RatSeries(self.var, self.min_exp,
                         self.coeffs[: order - self.min_exp + 1], self.log_coeff)

    def trim(self) -> "RatSeries":
        """Drop leading zero coefficients (raises the declared floor)."""
        v = self.valuation()
        if v is None or v == self.min_exp:
            return self
        return RatSeries(self.var, v, self.coeffs[v - self.min_exp:], self.log_coeff)

    def shift(self, k: int) -> "RatSeries":
        """Multiply by variable**k."""
        if self.log_coeff:
            raise SeriesError("cannot shift a log-extended series")
        return RatSeries(self.var, self.min_exp + k, self.coeffs)

    # -- representation --------------------------------------------------------

    def __repr__(self):
        bits = []
        if self.log_coeff:
            bits.append(f"({self.log_coeff})*log({self.var})")
        shown = 0
        for i, c in enumerate(self.coeffs):
            if c and shown < 8:
                e = self.min_exp + i
                bits.append(f"({c})*{self.var}^{e}" if e else f"({c})")
                shown += 1
        if not bits:
            bits.append("0")
        return " + ".join(bits) + f" + O({self.var}^{self.trunc_order + 1})"

    def __eq__(self, other):
        if not isinstance(other, RatSeries):
            return NotImplemented
        if self.var != other.var or self.log_coeff != other.log_coeff:
            return False
        if self.trunc_order != other.trunc_order:
            return False
        lo = min(self.min_exp, other.min_exp)
        return (self.coeff_list(lo, self.trunc_order)
                == other.coeff_list(lo, other.trunc_order))

    def __hash__(self):
        # what __eq__ compares: leading zeros and the declared floor do not count
        v = self.valuation()
        tail = () if v is None else self.coeffs[v - self.min_exp:]
        return hash((self.var, self.trunc_order, self.log_coeff, tail))

    def agrees_with(self, other: "RatSeries", through: int) -> bool:
        """Exact coefficient equality through the given order (log slots too)."""
        if self.var != other.var or self.log_coeff != other.log_coeff:
            return False
        lo = min(self.min_exp, other.min_exp)
        return self.coeff_list(lo, through) == other.coeff_list(lo, through)

    # -- ring operations -------------------------------------------------------

    def _check_var(self, other: "RatSeries"):
        if self.var != other.var:
            raise SeriesError(f"variable mismatch: {self.var} vs {other.var}")

    def __neg__(self):
        return RatSeries(self.var, self.min_exp, [-c for c in self.coeffs],
                         -self.log_coeff)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatSeries.const(self.var, other, max(self.trunc_order, 0))
        if not isinstance(other, RatSeries):
            return NotImplemented
        self._check_var(other)
        order = min(self.trunc_order, other.trunc_order)
        lo = min(self.min_exp, other.min_exp)
        c = [self.coeff(k) + other.coeff(k) for k in range(lo, order + 1)]
        return RatSeries(self.var, lo, c, self.log_coeff + other.log_coeff)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-_frac(other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            s = _frac(other)
            return RatSeries(self.var, self.min_exp, [c * s for c in self.coeffs],
                             self.log_coeff * s)
        if not isinstance(other, RatSeries):
            return NotImplemented
        self._check_var(other)
        a, b = self, other
        if a.log_coeff or b.log_coeff:
            # Only scalar-like factors may multiply a log-extended series.
            if a.log_coeff and b.log_coeff:
                raise SeriesError("unsupported log_coeff combination in mul")
            if b.log_coeff:
                a, b = b, a
            if not (b.min_exp <= 0 and all(c == 0 for i, c in enumerate(b.coeffs)
                                           if b.min_exp + i != 0)):
                raise SeriesError("unsupported log_coeff combination in mul")
            return a * b.constant_term() + RatSeries.zero(a.var, min(a.trunc_order,
                                                                     b.trunc_order))
        order = min(a.trunc_order + b.min_exp, b.trunc_order + a.min_exp)
        lo = a.min_exp + b.min_exp
        n = order - lo + 1
        if n <= 0:
            return RatSeries(a.var, lo, [_ZERO])
        # schoolbook convolution of integer numerators over one denominator
        na, da = _over_lcm(a.coeffs[:n])
        nb, db = _over_lcm(b.coeffs[:n])
        nonzero_b = [(j, y) for j, y in enumerate(nb) if y]
        out = [0] * n
        for i, x in enumerate(na):
            if x:
                top = n - i
                for j, y in nonzero_b:
                    if j >= top:
                        break
                    out[i + j] += x * y
        return RatSeries(a.var, lo, _fracs_over(out, da * db))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            s = _frac(other)
            if s == 0:
                raise ZeroDivisionError("division by zero scalar")
            return self * (1 / s)
        if not isinstance(other, RatSeries):
            return NotImplemented
        self._check_var(other)
        if other.log_coeff:
            raise SeriesError("cannot divide by a log-extended series")
        if self.log_coeff:
            raise SeriesError("cannot divide a log-extended series")
        vb = other.valuation()
        if vb is None:
            raise SeriesError("division by series with zero leading coefficient")
        b0 = other.coeff(vb)
        self = self.trim()
        va = self.min_exp
        lo = va - vb
        order = min(self.trunc_order - vb, other.trunc_order - 2 * vb + va)
        n = order - lo + 1
        if n <= 0:
            return RatSeries(self.var, lo, [_ZERO])
        out = [_ZERO] * n
        for k in range(n):
            acc = self.coeff(lo + k + vb)
            for j in range(k):
                cb = other.coeff(vb + k - j)
                if cb and out[j]:
                    acc -= out[j] * cb
            out[k] = acc / b0
        return RatSeries(self.var, lo, out)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise SeriesError("only integer powers supported")
        if n < 0:
            return RatSeries.one(self.var, self.trunc_order - self.min_exp) / self ** (-n)
        result = RatSeries.one(self.var, self.trunc_order - min(self.min_exp, 0))
        base = self
        e = n
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- transcendental-style operations (exact on units) ----------------------

    def log(self) -> "RatSeries":
        """log of a series with constant term 1 (unit, no log slot)."""
        if self.log_coeff:
            raise SeriesError("log of a log-extended series")
        if self.valuation() != 0 or self.coeff(0) != 1:
            raise SeriesError("log requires constant term 1")
        n = self.trunc_order
        f = [self.coeff(k) for k in range(n + 1)]
        out = [_ZERO] * (n + 1)
        for k in range(1, n + 1):
            acc = k * f[k]
            for j in range(1, k):
                if out[j] and f[k - j]:
                    acc -= j * out[j] * f[k - j]
            out[k] = acc / k
        return RatSeries(self.var, 0, out)

    def exp(self) -> "RatSeries":
        """exp of a series with zero constant term; an integer log slot
        contributes a monomial shift (exp(c log v) = v**c)."""
        shift = 0
        if self.log_coeff:
            if self.log_coeff.denominator != 1:
                raise SeriesError("exp needs an integer log_coeff")
            shift = int(self.log_coeff)
        v = self.valuation()
        if v is not None and v < 0:
            raise SeriesError("exp of a Laurent series")
        if self.constant_term() != 0:
            raise SeriesError("exp requires zero constant term")
        n = self.trunc_order
        f = [self.coeff(k) for k in range(n + 1)]
        out = [_ZERO] * (n + 1)
        out[0] = _ONE
        for k in range(1, n + 1):
            acc = _ZERO
            for j in range(1, k + 1):
                if f[j] and out[k - j]:
                    acc += j * f[j] * out[k - j]
            out[k] = acc / k
        return RatSeries(self.var, shift, out)

    def nth_root(self, n: int) -> "RatSeries":
        """n-th root of a series with constant term 1, exact over Q."""
        if n <= 0:
            raise SeriesError("root index must be positive")
        return (self.log() / n).exp()

    def theta(self) -> "RatSeries":
        """theta = v d/dv; a log slot contributes its coefficient at v^0."""
        c = [k * self.coeffs[k - self.min_exp]
             for k in range(self.min_exp, self.trunc_order + 1)]
        out = RatSeries(self.var, self.min_exp, c)
        if self.log_coeff:
            out = out + RatSeries.const(self.var, self.log_coeff,
                                        max(out.trunc_order, 0))
        return out

    def compose(self, inner: "RatSeries") -> "RatSeries":
        """Substitute ``inner`` (zero constant term) for the variable.

        If the outer series has a log slot, ``inner`` must be
        variable*(unit with constant term 1) and the slot expands as
        log(inner) = log v + log(unit).
        """
        if self.min_exp < 0:
            raise SeriesError("compose with Laurent outer unsupported")
        v = inner.valuation()
        if inner.constant_term() != 0 or (v is not None and v < 1):
            raise SeriesError("inner series must have zero constant term")
        log_part = None
        if self.log_coeff:
            unit = inner.shift(-1)
            if unit.constant_term() != 1:
                raise SeriesError("log slot composition needs inner = v*(1+O(v))")
            log_part = unit.log() * self.log_coeff
        if v is None:
            out = RatSeries.const(inner.var, self.coeff(0), inner.trunc_order)
        else:
            bound = min(inner.trunc_order, (self.trunc_order + 1) * v - 1)
            out = RatSeries.const(inner.var, self.coeff(self.trunc_order), bound)
            for k in range(self.trunc_order - 1, -1, -1):
                out = (out * inner.truncate(bound)).truncate(bound) + self.coeff(k)
        if log_part is not None:
            out = out + log_part
            return RatSeries(out.var, out.min_exp, out.coeffs, self.log_coeff)
        return out

    def revert(self, new_var: str | None = None) -> "RatSeries":
        """Compositional inverse of c1*v + O(v^2), c1 nonzero, by Lagrange
        inversion: g_k = (1/k) [v^(k-1)] h^k with h = v/f, one running
        product of h per coefficient."""
        if self.log_coeff:
            raise SeriesError("revert of a log-extended series")
        if self.valuation() != 1:
            raise SeriesError("revert needs valuation exactly 1")
        n = self.trunc_order
        h = RatSeries.one(self.var, n - 1) / self.shift(-1)
        g = [_ZERO] * (n + 1)
        h_pow = h
        for k in range(1, n + 1):
            g[k] = h_pow.coeff(k - 1) / k
            if k < n:
                h_pow = h_pow * h
        return RatSeries(new_var or self.var, 0, g)


def extend_powers(table: list, base: RatSeries, top: int) -> list:
    """Extend ``table`` = [base**0, base**1, ...] in place to base**top."""
    while len(table) <= top:
        table.append(table[-1] * base)
    return table


def lincomb(pairs, var: str | None = None,
             order: int | None = None) -> RatSeries:
    """sum c * f over (scalar c, series f) pairs, with the floor and the
    truncation order of repeated ``+``; a zero scalar still truncates.
    Given ``var`` and ``order``, the sum starts from ``RatSeries.zero(var,
    order)`` as a running total would, so its floor is at most 0 and its
    truncation order at most ``order``.
    Exact on integer numerators: the scalars over one denominator, the
    series coefficients over another."""
    pairs = [(_frac(c), f) for c, f in pairs]
    if var is not None:
        pairs.insert(0, (_ONE, RatSeries.zero(var, order)))
    if not pairs:
        raise SeriesError("lincomb needs at least one series")
    first = pairs[0][1]
    for _, f in pairs:
        first._check_var(f)
        if f.log_coeff:
            raise SeriesError("lincomb of a log-extended series")
    lo = min(f.min_exp for _, f in pairs)
    order = min(f.trunc_order for _, f in pairs)
    live = [(f.coeffs[:max(order - f.min_exp + 1, 0)], f.min_exp - lo)
            for c, f in pairs if c]
    scalars, dc = _over_lcm([c for c, _ in pairs if c])
    df = lcm(*(x.denominator for cs, _ in live for x in cs))
    out = [0] * (order - lo + 1)
    for s, (cs, base) in zip(scalars, live):
        for k, x in enumerate(cs, base):
            if x:
                out[k] += s * x.numerator * (df // x.denominator)
    return RatSeries(first.var, lo, _fracs_over(out, dc * df))


# -- JSON serialization --------------------------------------------------------

def _frac_json(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def series_to_json(s: RatSeries) -> dict:
    return {
        "variable": s.var,
        "min_exp": s.min_exp,
        "trunc_order": s.trunc_order,
        "log_coeff": _frac_json(s.log_coeff),
        "coeffs": [{"exp": k, **_frac_json(s.coeff(k))}
                   for k in range(s.min_exp, s.trunc_order + 1) if s.coeff(k)],
    }
