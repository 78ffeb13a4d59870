"""Truncated univariate Laurent series over exact rationals.

A :class:`RatSeries` stores the coefficients of exponents
``min_exp..trunc_order`` as integer numerators ``nums`` over one positive
denominator ``den``, in lowest terms, so equal series store equal integers.
The kernels work on those integers (division, exp and log over a running
least common denominator); a Fraction is made only when a coefficient is
read.  ``trunc_order`` is the last exponent at which the value is fully
determined; every operation recomputes the largest order at which its
result is exact and truncates there.  No floating point is used anywhere.

An optional ``log_coeff`` slot holds a single rational multiple of the formal
symbol log(variable).  It participates in addition, scalar multiplication,
and the theta derivative (theta log v = 1); everything else rejects it.

Two gates own exact input.  ``exact`` passes an int or a Fraction, not a
bool, and raises TypeError for anything else: every scalar of a series or
a ``graded`` ring element goes through it.  ``integer`` reads ASCII -?[0-9]+
from the command line's flags, its config file and the sheaf table.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import gcd, lcm
from operator import index, mul

_ZERO = Fraction(0)


def exact(x):
    """An int or a Fraction as it is; anything else, a bool among them,
    raises TypeError."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x
    raise TypeError(f"not an exact rational: {x!r}")


def _exponent(n) -> int:
    """An integer exponent: any index but a bool, which raises TypeError
    as a float or a string does."""
    if isinstance(n, bool):
        raise TypeError(f"not an integer exponent: {n!r}")
    return index(n)


def integer(text) -> int:
    """The int a str spells as ASCII -?[0-9]+; anything else raises
    ValueError."""
    digits = text.removeprefix("-") if isinstance(text, str) else ""
    if digits.isascii() and digits.isdigit():
        return int(text)
    raise ValueError(f"not an integer: {text!r}")


def over_lcm(fracs) -> tuple[list, int]:
    """Integer numerators of the ints or reduced Fractions ``fracs`` over
    the lcm of their denominators."""
    den = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _make(var: str, min_exp: int, nums, den: int, log_coeff) -> "RatSeries":
    """The series sum nums[i]/den var^(min_exp + i), den > 0, put in lowest
    terms by one gcd."""
    if not nums:
        raise ValueError("series needs at least one stored coefficient")
    g = gcd(den, *nums)
    if g != 1:
        nums = [x // g for x in nums]
        den //= g
    s = object.__new__(RatSeries)
    s.var, s.min_exp, s.nums, s.den, s.log_coeff = (var, min_exp, tuple(nums),
                                                    den, log_coeff)
    return s


def _push(out: list, den: int, num: int, div: int) -> int:
    """Append num/div (div > 0) to the numerators ``out`` over ``den``;
    return the least denominator that holds every entry."""
    m = div // gcd(num, div)  # the denominator of num/div in lowest terms
    m //= gcd(den, m)
    if m != 1:
        out[:] = [x * m for x in out]
        den *= m
    out.append(num * den // div)
    return den


def _sum(var: str, terms, den: int, lo: int, order: int, log_coeff):
    """sum m * f over (integer m, series f) with the result over ``den``,
    exponents lo..order; each f.den must divide ``den``."""
    out = [0] * (order - lo + 1)
    for m, f in terms:
        base = f.min_exp - lo
        seg = f.nums[:max(order - f.min_exp + 1, 0)]
        out[base:base + len(seg)] = [o + m * x for o, x in
                                     zip(out[base:base + len(seg)], seg)]
    return _make(var, lo, out, den, log_coeff)


class Localp2Error(ValueError):
    """The one error localp2 raises on purpose: bad data from outside the
    program (the sheaf table; flags and the config file as its subclass
    ``cli.UsageError``, exit 2) or a failed exact check of the mathematics
    (exit 1).  A broken precondition, such as a read past a truncation
    order, raises Python's own ValueError, TypeError or IndexError: it is
    a bug, and the command line exits 3 with its traceback."""


class RatSeries:
    """Truncated Laurent series with exact rational coefficients."""

    __slots__ = ("var", "min_exp", "nums", "den", "log_coeff")

    def __new__(cls, var: str, min_exp: int, coeffs: Iterable, log_coeff=0):
        nums, den = over_lcm([exact(c) for c in coeffs])
        return _make(var, _exponent(min_exp), nums, den, Fraction(exact(log_coeff)))

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def over(var: str, min_exp: int, nums, den: int) -> "RatSeries":
        """The series sum nums[i]/den var^(min_exp + i) from integers, den > 0."""
        return _make(var, min_exp, nums, den, _ZERO)

    @staticmethod
    def const(var: str, value, order: int) -> "RatSeries":
        v = exact(value)
        return _make(var, 0, [v.numerator] + [0] * order, v.denominator, _ZERO)

    @staticmethod
    def one(var: str, order: int) -> "RatSeries":
        return RatSeries.const(var, 1, order)

    @staticmethod
    def gen(var: str, order: int) -> "RatSeries":
        """The series ``v`` itself, known through ``order``."""
        return RatSeries.from_pairs(var, {1: 1} if order >= 1 else {}, order)

    @staticmethod
    def from_pairs(var: str, pairs, trunc_order: int) -> "RatSeries":
        pairs = dict(pairs)
        lo = min(list(pairs) + [0])
        c = [0] * (trunc_order - lo + 1)
        for e, v in pairs.items():
            if e > trunc_order:
                raise ValueError("exponent beyond truncation order")
            c[e - lo] = v
        return RatSeries(var, lo, c)

    def with_log(self, c) -> "RatSeries":
        """The same coefficients with the log slot set to ``c``."""
        return _make(self.var, self.min_exp, self.nums, self.den, Fraction(exact(c)))

    # -- basic accessors -------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The stored coefficients as reduced Fractions."""
        d = self.den
        return tuple(Fraction(x, d) if x else _ZERO for x in self.nums)

    @property
    def trunc_order(self) -> int:
        return self.min_exp + len(self.nums) - 1

    def coeff(self, k: int) -> Fraction:
        if k < self.min_exp:
            return _ZERO
        if k > self.trunc_order:
            raise IndexError(f"coefficient of {self.var}^{k} beyond "
                             f"truncation order {self.trunc_order}")
        x = self.nums[k - self.min_exp]
        return Fraction(x, self.den) if x else _ZERO

    def coeff_list(self, lo: int, hi: int) -> list:
        return [self.coeff(k) for k in range(lo, hi + 1)]

    def valuation(self) -> int | None:
        """Exponent of the first nonzero coefficient, or None for zero series."""
        for i, x in enumerate(self.nums):
            if x:
                return self.min_exp + i
        return None

    def constant_term(self) -> Fraction:
        return self.coeff(0) if self.min_exp <= 0 <= self.trunc_order else _ZERO

    def _from0(self) -> list:
        """Numerators of the coefficients of v^0..v^trunc_order."""
        lo = self.min_exp
        return [0] * lo + list(self.nums) if lo > 0 else list(self.nums[-lo:])

    def truncate(self, order: int) -> "RatSeries":
        if order > self.trunc_order:
            raise ValueError("cannot extend truncation order")
        if order < self.min_exp:
            return _make(self.var, order, [0], 1, self.log_coeff)
        return _make(self.var, self.min_exp, self.nums[: order - self.min_exp + 1],
                     self.den, self.log_coeff)

    def trim(self) -> "RatSeries":
        """Drop leading zero coefficients (raises the declared floor)."""
        v = self.valuation()
        if v is None or v == self.min_exp:
            return self
        return _make(self.var, v, self.nums[v - self.min_exp:], self.den,
                     self.log_coeff)

    def shift(self, k: int) -> "RatSeries":
        """Multiply by variable**k."""
        if self.log_coeff:
            raise ValueError("cannot shift a log-extended series")
        return _make(self.var, self.min_exp + k, self.nums, self.den, _ZERO)

    # -- representation --------------------------------------------------------

    def __repr__(self):
        bits = []
        if self.log_coeff:
            bits.append(f"({self.log_coeff})*log({self.var})")
        shown = 0
        for e, x in enumerate(self.nums, self.min_exp):
            if x and shown < 8:
                c = Fraction(x, self.den)
                bits.append(f"({c})*{self.var}^{e}" if e else f"({c})")
                shown += 1
        if not bits:
            bits.append("0")
        return " + ".join(bits) + f" + O({self.var}^{self.trunc_order + 1})"

    def __eq__(self, other):
        if not isinstance(other, RatSeries):
            return NotImplemented
        if (self.var, self.log_coeff, self.trunc_order, self.den) != \
                (other.var, other.log_coeff, other.trunc_order, other.den):
            return False
        lo = min(self.min_exp, other.min_exp)
        return ((0,) * (self.min_exp - lo) + self.nums
                == (0,) * (other.min_exp - lo) + other.nums)

    def agrees_with(self, other: "RatSeries", through: int) -> bool:
        """Exact coefficient equality through the given order (log slots too)."""
        return self.truncate(through) == other.truncate(through)

    # -- ring operations -------------------------------------------------------

    def _check_var(self, other: "RatSeries"):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def __neg__(self):
        return _make(self.var, self.min_exp, [-x for x in self.nums], self.den,
                     -self.log_coeff)

    def __add__(self, other):
        if not isinstance(other, RatSeries):
            other = RatSeries.const(self.var, other, max(self.trunc_order, 0))
        self._check_var(other)
        d = lcm(self.den, other.den)
        return _sum(self.var, [(d // self.den, self), (d // other.den, other)], d,
                    min(self.min_exp, other.min_exp),
                    min(self.trunc_order, other.trunc_order),
                    self.log_coeff + other.log_coeff)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RatSeries):
            s = exact(other)
            return _make(self.var, self.min_exp,
                         [x * s.numerator for x in self.nums],
                         self.den * s.denominator, self.log_coeff * s)
        self._check_var(other)
        a, b = self, other
        if a.log_coeff or b.log_coeff:
            raise ValueError("cannot multiply a log-extended series")
        order = min(a.trunc_order + b.min_exp, b.trunc_order + a.min_exp)
        lo = a.min_exp + b.min_exp
        n = order - lo + 1
        if n <= 0:
            return _make(a.var, lo, [0], 1, _ZERO)
        # schoolbook convolution of the numerators, one pass per nonzero of
        # the sparser factor; the denominators multiply
        na, nb = a.nums[:n], b.nums[:n]
        if na.count(0) > nb.count(0):
            na, nb = nb, na
        out = [0] * n
        for j, y in enumerate(nb):
            if y:
                out[j:] = [o + y * x for o, x in zip(out[j:], na)]
        return _make(a.var, lo, out, a.den * b.den, _ZERO)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, RatSeries):
            return self * (1 / Fraction(exact(other)))
        self._check_var(other)
        if other.log_coeff:
            raise ValueError("cannot divide by a log-extended series")
        if self.log_coeff:
            raise ValueError("cannot divide a log-extended series")
        vb = other.valuation()
        if vb is None:
            raise ValueError("division by series with zero leading coefficient")
        self = self.trim()
        va = self.min_exp
        lo = va - vb
        order = min(self.trunc_order - vb, other.trunc_order - 2 * vb + va)
        n = order - lo + 1
        if n <= 0:
            return _make(self.var, lo, [0], 1, _ZERO)
        # q = A/B on the numerators, then self/other = q * other.den/self.den
        a = self.nums[:n]
        b = other.nums[vb - other.min_exp:][:n]
        if b[0] < 0:  # a positive pivot keeps the running denominator positive
            a, b = [-x for x in a], [-x for x in b]
        q, d = [], 1
        for k in range(n):
            s = d * a[k] - sum(map(mul, q, b[k:0:-1]))
            d = _push(q, d, s, d * b[0])
        return _make(self.var, lo, [x * other.den for x in q], d * self.den,
                     _ZERO)

    def __pow__(self, n: int):
        n = _exponent(n)
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
        """log of a series with constant term 1 (unit, no log slot):
        k out_k = k f_k - sum_{0<j<k} j out_j f_(k-j)."""
        if self.log_coeff:
            raise ValueError("log of a log-extended series")
        if self.valuation() != 0 or self.coeff(0) != 1:
            raise ValueError("log requires constant term 1")
        f, df = self._from0(), self.den
        out, d = [0], 1
        for k in range(1, len(f)):
            s = d * k * f[k] - sum(map(mul, map(mul, out[1:], range(1, k)),
                                       f[k - 1:0:-1]))
            d = _push(out, d, s, k * d * df)
        return _make(self.var, 0, out, d, _ZERO)

    def exp(self) -> "RatSeries":
        """exp of a series with zero constant term and no log slot,
        k out_k = sum_{j=1..k} j f_j out_(k-j)."""
        if self.log_coeff:
            raise ValueError("exp of a log-extended series")
        v = self.valuation()
        if v is not None and v < 0:
            raise ValueError("exp of a Laurent series")
        if self.trunc_order < 0 or self.constant_term() != 0:
            raise ValueError("exp requires zero constant term")
        jf = [j * x for j, x in enumerate(self._from0())]
        out, d = [1], 1
        for k in range(1, len(jf)):
            d = _push(out, d, sum(map(mul, jf[1:k + 1], reversed(out))),
                      k * self.den * d)
        return _make(self.var, 0, out, d, _ZERO)

    def theta(self) -> "RatSeries":
        """theta = v d/dv; a log slot contributes its coefficient at v^0."""
        out = _make(self.var, self.min_exp,
                    [k * x for k, x in enumerate(self.nums, self.min_exp)],
                    self.den, _ZERO)
        if self.log_coeff:
            out = out + RatSeries.const(self.var, self.log_coeff,
                                        max(out.trunc_order, 0))
        return out

    def compose(self, powers: "Powers") -> "RatSeries":
        """Substitute the first base of the table ``powers`` (a nonzero series
        of valuation >= 1) for the variable of a power series without a log
        slot: sum c_k powers[k] from the unit at k = 0, so from v^0, cut at
        the order through which the result is known."""
        if self.log_coeff:
            raise ValueError("compose of a log-extended series")
        if self.min_exp < 0:
            raise ValueError("compose with Laurent outer unsupported")
        inner = powers.bases[0]
        v = inner.valuation()
        if v is None or v < 1:
            raise ValueError("inner series must have valuation >= 1")
        bound = min(inner.trunc_order, (self.trunc_order + 1) * v - 1)
        # only the k with k v <= bound (so k <= trunc_order) reach that order
        return lincomb([(self.coeff(k), powers[k])
                        for k in range(bound // v + 1)]).truncate(bound)

    def revert(self, new_var: str | None = None) -> "RatSeries":
        """Compositional inverse of c1*v + O(v^2), c1 nonzero, by Lagrange
        inversion: g_k = (1/k) [v^(k-1)] h^k with h = v/f, read from a
        table of the powers of h."""
        if self.log_coeff:
            raise ValueError("revert of a log-extended series")
        if self.valuation() != 1:
            raise ValueError("revert needs valuation exactly 1")
        n = self.trunc_order
        h = Powers(RatSeries.one(self.var, n - 1) / self.shift(-1))
        return RatSeries(new_var or self.var, 0,
                         [0, *(h[k].coeff(k - 1) / k for k in range(1, n + 1))])


class Powers:
    """The table of the powers and monomials of its bases, which every
    substitution reads: composition, reversion, the mirror and conifold
    substitutions, and ``graded.evaluate`` and ``graded.recognize`` into
    ring monomials.  ``table[k1, ..., kn]`` is prod_i bases[i]**k_i (one
    base reads ``table[k]``, the same entry as ``table[(k,)]``), made once,
    the first time it is read, as the entry with its first nonzero exponent
    lowered by one times that base, from the unit bases[0]**0 (known as far
    as the bases' powers are)."""

    __slots__ = ("bases", "_made")

    def __init__(self, *bases):
        self.bases, self._made = bases, {(0,) * len(bases): bases[0] ** 0}

    def __getitem__(self, key):
        key = (key,) if isinstance(key, int) else key
        if key not in self._made:
            i = next(i for i, e in enumerate(key) if e)
            self._made[key] = self[key[:i] + (key[i] - 1,) + key[i + 1:]] * self.bases[i]
        return self._made[key]


def lincomb(pairs) -> RatSeries:
    """sum c * f over (scalar c, series f) pairs, with the floor and the
    truncation order of repeated ``+``; a zero scalar still truncates.
    Exact on integer numerators: the scalars over one denominator, the
    series numerators over another."""
    pairs = [(exact(c), f) for c, f in pairs]
    if not pairs:
        raise ValueError("lincomb needs at least one series")
    first = pairs[0][1]
    for _, f in pairs:
        first._check_var(f)
        if f.log_coeff:
            raise ValueError("lincomb of a log-extended series")
    live = [(c, f) for c, f in pairs if c]
    dc = lcm(*(c.denominator for c, _ in live))
    df = lcm(*(f.den for _, f in live))
    return _sum(first.var, [(c.numerator * (dc // c.denominator) * (df // f.den),
                             f) for c, f in live], dc * df,
                min(f.min_exp for _, f in pairs),
                min(f.trunc_order for _, f in pairs), _ZERO)
