"""Quasimodular forms for Gamma_1(3).

The graded ring Q[A, B, C] with weights (1, 2, 3), where A and C are the
weight-1 and weight-3 modular generators built from eta quotients and B is
the depth-1 combination of weight-2 Eisenstein series at levels 1 and 3.
Elements may carry a pole in C (membership in C^{-c_pole} * Q[A,B,C]).

Expansions use the nome variable tagged "cQ"; recognition of a q-expansion
as a ring element is by exact linear solve with a verification margin.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .linalg import LinearSystemError, solve_unique
from .series import Localp2Error, RatSeries, SeriesError

CQ = "cQ"  # nome for Gamma_1(3) expansions

DEFAULT_MARGIN = 10


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


def _sigma(n: int, k: int) -> int:
    s = 0
    i = 1
    while i * i <= n:
        if n % i == 0:
            s += i ** k
            j = n // i
            if j != i:
                s += j ** k
        i += 1
    return s


@lru_cache(maxsize=None)
def eisenstein_series(k: int, level_multiplier: int = 1, order: int = 20,
                      var: str = CQ) -> RatSeries:
    """E_k(m*tau) = 1 - (2k/B_k) sum_n sigma_{k-1}(n) v^{mn}, k even."""
    if k % 2 or k <= 0:
        raise SeriesError("Eisenstein series needs positive even weight")
    m = level_multiplier
    pref = -Fraction(2 * k) / bernoulli(k)
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[0] = Fraction(1)
    for n in range(1, order // m + 1):
        coeffs[m * n] = pref * _sigma(n, k - 1)
    return RatSeries(var, 0, coeffs)


# -- eta quotients ---------------------------------------------------------------

def eta_quotient_series(spec, order: int, var: str = CQ) -> RatSeries:
    """q-expansion of prod eta(m*tau)^e for (m, e) pairs in ``spec``.

    The eta prefactors combine to v^(sum m*e/24), which must be integral.
    """
    pref24 = sum(m * e for m, e in spec)
    if pref24 % 24:
        raise SeriesError("eta quotient with fractional leading exponent")
    shift = pref24 // 24
    out = RatSeries.one(var, order)
    for m, e in spec:
        factor = RatSeries.one(var, order)
        for n in range(1, order // m + 1):
            term = RatSeries.from_pairs(var, {0: 1, m * n: -1}, order)
            factor = factor * term
        out = out * factor ** e if e >= 0 else out / factor ** (-e)
    return out.shift(shift)


# -- the three generators --------------------------------------------------------

@lru_cache(maxsize=None)
def generator_series(name: str, order: int) -> RatSeries:
    """Exact nome expansion of A, B or C."""
    if name == "C":
        return eta_quotient_series(((1, 9), (3, -3)), order)
    if name == "A":
        # A^3 = C + 27 * eta(3 tau)^9 / eta(tau)^3, a unit series
        cusp = eta_quotient_series(((3, 9), (1, -3)), order)
        radicand = generator_series("C", order) + cusp * 27
        return radicand.nth_root(3)
    if name == "B":
        # B printed expansions elsewhere are unreliable; the definition rules.
        e2 = eisenstein_series(2, 1, order)
        e2_3 = eisenstein_series(2, 3, order)
        return (e2 + e2_3 * 3) / 4
    raise SeriesError(f"unknown generator {name!r}")


# -- ring elements ---------------------------------------------------------------

class QModError(Localp2Error):
    pass


class QModElement:
    """Element of C^{-c_pole} * Q[A, B, C], homogeneous of fixed weight.

    terms maps (a_exp, b_exp, c_exp) of the numerator monomials to rational
    coefficients; weight = a + 2b + 3(c - c_pole) is constant across terms.
    """

    __slots__ = ("c_pole", "terms")

    def __init__(self, c_pole: int, terms: dict, normalize: bool = True):
        if c_pole < 0:
            raise QModError("c_pole must be non-negative")
        self.c_pole = c_pole
        self.terms = {tuple(k): Fraction(v) for k, v in terms.items()
                      if Fraction(v) != 0}
        ws = {a + 2 * b + 3 * c for a, b, c in self.terms}
        if len(ws) > 1:
            raise QModError(f"mixed weights in numerator: {sorted(ws)}")
        if normalize:
            self._normalize()

    def _normalize(self):
        """Make c_pole minimal: cancel common C factors."""
        while self.c_pole > 0 and self.terms and \
                all(c > 0 for _, _, c in self.terms):
            self.terms = {(a, b, c - 1): v for (a, b, c), v in self.terms.items()}
            self.c_pole -= 1
        if not self.terms:
            self.c_pole = 0

    @property
    def weight(self) -> int:
        for a, b, c in self.terms:
            return a + 2 * b + 3 * c - 3 * self.c_pole
        return 0

    @staticmethod
    def zero() -> "QModElement":
        return QModElement(0, {})

    @staticmethod
    def const(v) -> "QModElement":
        return QModElement(0, {(0, 0, 0): Fraction(v)})

    @staticmethod
    def gen(name: str) -> "QModElement":
        idx = "ABC".index(name)
        key = tuple(1 if i == idx else 0 for i in range(3))
        return QModElement(0, {key: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, QModElement):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.c_pole, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        mono = " + ".join(f"({v})*A^{a}B^{b}C^{c}"
                          for (a, b, c), v in sorted(self.terms.items()))
        return f"C^-{self.c_pole} * [{mono or '0'}]"

    def _aligned(self, other: "QModElement"):
        p = max(self.c_pole, other.c_pole)
        t1 = {(a, b, c + p - self.c_pole): v for (a, b, c), v in self.terms.items()}
        t2 = {(a, b, c + p - other.c_pole): v for (a, b, c), v in other.terms.items()}
        return p, t1, t2

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QModElement.const(other)
        p, t1, t2 = self._aligned(other)
        for k, v in t2.items():
            t1[k] = t1.get(k, Fraction(0)) + v
        return QModElement(p, t1)

    __radd__ = __add__

    def __neg__(self):
        return QModElement(self.c_pole, {k: -v for k, v in self.terms.items()},
                           normalize=False)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QModElement.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QModElement(self.c_pole,
                               {k: v * Fraction(other) for k, v in self.terms.items()})
        out: dict = {}
        for (a1, b1, c1), v1 in self.terms.items():
            for (a2, b2, c2), v2 in other.terms.items():
                k = (a1 + a2, b1 + b2, c1 + c2)
                out[k] = out.get(k, Fraction(0)) + v1 * v2
        return QModElement(self.c_pole + other.c_pole, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __pow__(self, n: int):
        out = QModElement.const(1)
        for _ in range(n):
            out = out * self
        return out


# the Ramanujan-type derivation on generators
_D_A = QModElement(0, {(1, 1, 0): Fraction(1, 6), (3, 0, 0): Fraction(1, 6),
                       (0, 0, 1): Fraction(-1, 3)})
_D_B = QModElement(0, {(0, 2, 0): Fraction(1, 6), (4, 0, 0): Fraction(-1, 6)})
_D_C = QModElement(0, {(0, 1, 1): Fraction(1, 2), (2, 0, 1): Fraction(-1, 2)})


def qm_derive(e: QModElement) -> QModElement:
    """Image under the nome derivative v d/dv, via the Ramanujan identities.

    Raises the weight by 2; the C-pole is unchanged because dC is divisible
    by C.
    """
    out = QModElement.zero()
    for (a, b, c), v in e.terms.items():
        base = {(a, b, c): v}
        if a:
            out = out + QModElement(e.c_pole, {(a - 1, b, c): a * v}) * _D_A
        if b:
            out = out + QModElement(e.c_pole, {(a, b - 1, c): b * v}) * _D_B
        if c:
            out = out + QModElement(e.c_pole, {(a, b, c - 1): c * v}) * _D_C
        if e.c_pole:
            # d(C^-p) = -p C^{-p-1} dC = -p C^{-p} (B - A^2)/2
            pole_part = QModElement(e.c_pole, base) * QModElement(
                0, {(0, 1, 0): Fraction(-e.c_pole, 2),
                    (2, 0, 0): Fraction(e.c_pole, 2)})
            out = out + pole_part
    return out


def qm_to_qseries(e: QModElement, order: int) -> RatSeries:
    """Substitute the generator expansions; exact through ``order``."""
    A = generator_series("A", order)
    B = generator_series("B", order)
    C = generator_series("C", order)
    num = RatSeries.zero(CQ, order)
    pows: dict = {}

    def p(s, n, tag):
        key = (tag, n)
        if key not in pows:
            pows[key] = s ** n
        return pows[key]

    for (a, b, c), v in e.terms.items():
        term = RatSeries.const(CQ, v, order)
        if a:
            term = term * p(A, a, "A")
        if b:
            term = term * p(B, b, "B")
        if c:
            term = term * p(C, c, "C")
        num = num + term
    if e.c_pole:
        num = num / C ** e.c_pole
    return num


def weight_monomials(weight: int):
    """All (a, b, c) with a + 2b + 3c == weight."""
    out = []
    for c in range(weight // 3 + 1):
        for b in range((weight - 3 * c) // 2 + 1):
            out.append((weight - 2 * b - 3 * c, b, c))
    return out


def recognize(series: RatSeries, weight: int, c_pole: int,
              margin: int = DEFAULT_MARGIN) -> QModElement:
    """The unique element of C^{-c_pole} Q[A,B,C]_{weight} with the given
    expansion; the solve is over-determined by ``margin`` extra coefficients.

    Uniqueness holds because A, B, C are algebraically independent.  An
    inconsistent system signals the series is not in the space.
    """
    w = weight + 3 * c_pole
    if w < 0:
        raise QModError("negative numerator weight")
    monos = weight_monomials(w)
    need = len(monos) + margin
    C = generator_series("C", need)
    target = series
    if c_pole:
        target = series * C ** c_pole
    target = target.trim()
    if target.min_exp < 0 or target.log_coeff:
        raise QModError("series with poles or logs is not quasimodular")
    if target.trunc_order < need - 1:
        raise QModError(
            f"insufficient coefficients: need {need}, have {target.trunc_order + 1}")
    cols = [qm_to_qseries(QModElement(0, {m: 1}), need) for m in monos]
    rows = [[col.coeff(k) for col in cols] for k in range(need)]
    rhs = [target.coeff(k) for k in range(need)]
    try:
        sol = solve_unique(rows, rhs)
    except LinearSystemError as exc:
        raise QModError(f"series not in C^-{c_pole} Q[A,B,C]_{weight}: {exc}") from exc
    return QModElement(c_pole, {m: v for m, v in zip(monos, sol)})


def sl2_embed(k: int) -> QModElement:
    """E_k(3 tau) as an element of Q[A, B, C], k in {2, 4, 6}."""
    if k == 2:
        return QModElement(0, {(0, 1, 0): 2, (2, 0, 0): 1}) / 3
    if k == 4:
        return QModElement(0, {(4, 0, 0): 1, (1, 0, 1): 8}) / 9
    if k == 6:
        return QModElement(0, {(6, 0, 0): -1, (3, 0, 1): 20, (0, 0, 2): 8}) / 27
    raise QModError("sl2 embedding defined for k = 2, 4, 6 only")


def qmod_to_json(e: QModElement) -> dict:
    return {
        "c_pole": e.c_pole,
        "weight": e.weight,
        "terms": [{"a": a, "b": b, "c": c,
                   "num": str(v.numerator), "den": str(v.denominator)}
                  for (a, b, c), v in sorted(e.terms.items())],
    }


def qmod_from_json(d) -> QModElement:
    return QModElement(int(d["c_pole"]),
                       {(t["a"], t["b"], t["c"]):
                        Fraction(int(t["num"]), int(t["den"]))
                        for t in d["terms"]})
