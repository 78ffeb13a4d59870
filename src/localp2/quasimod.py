"""Quasimodular forms for Gamma_1(3).

The graded ring Q[A, B, C] with weights (1, 2, 3), where A = a(q) is
Borwein's cubic theta series (a divisor sum), C = b(q)^3 the weight-3 eta
quotient eta(tau)^9 / eta(3 tau)^3 read through Borwein's second cubic
theta series b(q), and B the depth-1 combination of weight-2 Eisenstein
series at levels 1 and 3.
Elements may carry a pole in C (membership in C^{-c_pole} * Q[A,B,C]).

Expansions use the nome variable tagged "cQ".  The ring arithmetic is the
shared core in :mod:`localp2.graded`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt

from .graded import Graded, evaluate
from .series import Powers, RatSeries

CQ = "cQ"  # nome for Gamma_1(3) expansions


# -- Bernoulli numbers and Eisenstein series ------------------------------------

@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """B_n, computed by the defining recurrence (B_1 = -1/2)."""
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    binom = 1
    for j in range(n):
        acc += binom * bernoulli(j)
        binom = binom * (n + 1 - j) // (j + 1)
    return -acc / (n + 1)


@lru_cache(maxsize=None)
def inv_2sinh(j: int) -> Fraction:
    """[z^j] 1/(2 sinh(z/2)) = (2^-j - 1) B_{j+1}/(j+1)!, for j >= -1."""
    return (Fraction(2) ** -j - 1) * bernoulli(j + 1) / factorial(j + 1)


def _divisors(n: int):
    """The divisors of n >= 1, in pairs (i, n // i) over i <= sqrt(n)."""
    for i in range(1, isqrt(n) + 1):
        if n % i == 0:
            yield i
            if i * i != n:
                yield n // i


def eisenstein_series(k: int, level_multiplier: int, order: int,
                      var: str = CQ) -> RatSeries:
    """E_k(m*tau) = 1 - (2k/B_k) sum_n sigma_{k-1}(n) v^{mn}, k even."""
    if k % 2 or k <= 0:
        raise ValueError("Eisenstein series needs positive even weight")
    m = level_multiplier
    pref = -Fraction(2 * k) / bernoulli(k)
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[0] = Fraction(1)
    for n in range(1, order // m + 1):
        coeffs[m * n] = pref * sum(d ** (k - 1) for d in _divisors(n))
    return RatSeries(var, 0, coeffs)


# -- the three generators --------------------------------------------------------

@lru_cache(maxsize=None)
def generator_series(name: str, order: int) -> RatSeries:
    """Exact nome expansion of A, B or C."""
    if name == "C":
        # b(q) = eta(tau)^3 / eta(3 tau) = (3 a(q^3) - a(q))/2 (Borwein-Borwein-
        # Garvan, Some cubic modular identities of Ramanujan, 1994), cubed
        a = generator_series("A", order)
        return RatSeries(CQ, 0, [
            ((0 if n % 3 else 3 * a.coeff(n // 3)) - a.coeff(n)) / 2
            for n in range(order + 1)]) ** 3
    if name == "A":
        # Borwein's cubic theta: 1 + 6 sum_n (sum_{d | n} chi_-3(d)) v^n
        return RatSeries(CQ, 0, [1] + [
            6 * sum((0, 1, -1)[d % 3] for d in _divisors(n))
            for n in range(1, order + 1)])
    if name == "B":
        # B printed expansions elsewhere are unreliable; the definition rules.
        e2 = eisenstein_series(2, 1, order)
        e2_3 = eisenstein_series(2, 3, order)
        return (e2 + e2_3 * 3) / 4
    raise ValueError(f"unknown generator {name!r}")


# -- ring elements ---------------------------------------------------------------

class QModElement(Graded):
    """Element of C^{-c_pole} * Q[A, B, C], homogeneous of fixed weight.

    terms maps (a_exp, b_exp, c_exp) of the numerator monomials to rational
    coefficients; weight = a + 2b + 3(c - c_pole) is constant across terms.
    The pole is kept minimal, so equal elements have equal numerators.
    """

    __slots__ = ()
    names = ("A", "B", "C")
    weights = (1, 2, 3)
    header = ("c_pole", "weight")

    @property
    def c_pole(self) -> int:
        return self.shift

    def _settle(self):
        """Check, then make c_pole minimal: cancel common C factors."""
        if self.shift < 0:
            raise ValueError("c_pole must be non-negative")
        super()._settle()
        while self.shift > 0 and self.terms and \
                all(c > 0 for _, _, c in self.terms):
            self.terms = {(a, b, c - 1): v for (a, b, c), v in self.terms.items()}
            self.shift -= 1
        if not self.terms:
            self.shift = 0

    def _aligned(self, other):
        """Bring both numerators over the larger pole."""
        p = max(self.shift, other.shift)
        return p, self._over_pole(p), other._over_pole(p)

    def _over_pole(self, p: int) -> dict:
        d = p - self.shift
        return {(a, b, c + d): v for (a, b, c), v in self.terms.items()} \
            if d else self.terms

    @property
    def weight(self) -> int:
        return super().weight - 3 * self.shift

    def __repr__(self):
        return f"C^-{self.c_pole} * [{self._monomials()}]"


# the Ramanujan-type derivation on the generators, and D(C)/C
_D_ABC = (QModElement(0, {(1, 1, 0): Fraction(1, 6), (3, 0, 0): Fraction(1, 6),
                          (0, 0, 1): Fraction(-1, 3)}),
          QModElement(0, {(0, 2, 0): Fraction(1, 6), (4, 0, 0): Fraction(-1, 6)}),
          QModElement(0, {(0, 1, 1): Fraction(1, 2), (2, 0, 1): Fraction(-1, 2)}))
_D_LOG_C = QModElement(0, {(0, 1, 0): Fraction(1, 2), (2, 0, 0): Fraction(-1, 2)})


def qm_derive(e: QModElement) -> QModElement:
    """Image under the nome derivative v d/dv, via the Ramanujan identities.

    Raises the weight by 2; the C-pole is unchanged because dC is divisible
    by C.
    """
    return e.derive(_D_ABC, _D_LOG_C)


def qm_to_qseries(e: QModElement, order: int) -> RatSeries:
    """Substitute the generator expansions; exact through ``order``."""
    table = Powers(*(generator_series(name, order) for name in QModElement.names))
    num = evaluate(e.terms, table)
    if e.c_pole:
        num = num / table[0, 0, e.c_pole]
    return num


def derivation_identities(order: int) -> dict:
    """For each generator A, B, C: whether the q-expansion of its
    Ramanujan derivative is theta of its q-expansion through q^order."""
    out = {}
    for name in "ABC":
        e = QModElement.gen(name)
        lhs = qm_to_qseries(qm_derive(e), order)
        out[name] = lhs.agrees_with(qm_to_qseries(e, order).theta(), order)
    return out
