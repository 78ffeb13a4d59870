"""Stationary Gromov-Witten theory of the elliptic curve.

The disconnected n-point functions are Bloch-Okounkov q-brackets: the
coefficient of prod_j z_j^{e_j} is

    prod_m (1 - q^m) * sum_lambda q^|lambda| prod_j [z^{e_j}] B_lambda(z),
    B_lambda(z) = 1/(2 sinh(z/2)) + sum_i (e^{(lambda_i - i + 1/2) z}
                                           - e^{(1/2 - i) z}),

summed over all partitions up to the nome order (Bloch-Okounkov 2000;
Okounkov-Pandharipande, GW theory, Hurwitz theory and completed cycles).
The q^d coefficient sums over the partitions of d alone.  An entry reads
only the partition's number of parts, so no partition is stored: one
recursion over (size, least part) gives the part counts and the columns.
The partitions of d with no part below "least" are, for each last >= least,
those of d - last with no part below last, with last appended.  The
z-coefficients of B_lambda are cached in that order, one integer column per
exponent, size and least part shared by every label and nome order; each
entry is its parent's at (d - last, last) plus the appended part's term.  A
label's bracket is built and cached when it is first read, so the labels of
a degree that no connected function reads are never built.

Connected functions follow by the exponential formula on multiplicity
vectors; coefficients are recognized in the weight-graded ring Q[E2, E4, E6].
All expansions here live in the curve's nome, tagged "cQt"; a log slot on
that tag is the coefficient of log of the *signed* nome (-1)^(E.E) * nome.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb, factorial, lcm, prod

from .graded import Graded, recognize, weight_monomials
from .quasimod import bernoulli, eisenstein_series, inv_2sinh
from .series import Powers, RatSeries, lincomb

F = Fraction

CQT = "cQt"  # nome of the elliptic curve

# nome orders past the monomial count at which a label is recognized by
# default: the coefficients that check the recognized polynomial
CHECK_ORDERS = 10


# -- labels ----------------------------------------------------------------------

class StationaryLabel(namedtuple("StationaryLabel", "h parts")):
    """Genus h and descendent exponents a (weakly decreasing)."""

    __slots__ = ()

    def __new__(cls, h: int, parts):
        parts = tuple(sorted(parts, reverse=True))
        if h < 0 or any(a < 0 for a in parts):
            raise ValueError("negative genus or descendent exponent")
        return super().__new__(cls, h, parts)

    def check_dimension(self):
        if sum(self.parts) != 2 * self.h - 2:
            raise ValueError(
                f"dimension constraint fails: sum {self.parts} != {2 * self.h - 2}")

    @property
    def weight(self) -> int:
        return sum(a + 2 for a in self.parts)


# -- the ring Q[E2, E4, E6] --------------------------------------------------------

class EPoly(Graded):
    """Polynomial in E2, E4, E6 homogeneous for the weight 2a+4b+6c."""

    __slots__ = ()
    names = ("E2", "E4", "E6")
    weights = (2, 4, 6)
    header = ("weight",)

    def __init__(self, terms: dict):
        super().__init__(0, terms)

    @classmethod
    def gen(cls, k: int) -> "EPoly":
        return super().gen(f"E{k}")

    def __repr__(self):
        return self._monomials()


@lru_cache(maxsize=None)
def eisenstein_powers(order: int) -> Powers:
    """The table of E2, E4, E6 in the curve's nome, through ``order``: the
    monomial images that every label recognized at that order reads."""
    return Powers(*(eisenstein_series(k, 1, order, var=CQT) for k in (2, 4, 6)))


# -- the Euler product and the theta function --------------------------------------

@lru_cache(maxsize=None)
def euler_product(order: int) -> RatSeries:
    """prod_{n>=1} (1 - nome^n), truncated at ``order``."""
    out = RatSeries.one(CQT, order)
    for n in range(1, order + 1):
        out = out - out.shift(n)
    return out


# no library caller: kept for perfbench/tracer.py (its cache_info()) and the tests
@lru_cache(maxsize=None)
def theta_z(zdeg: int, qorder: int):
    """Coefficients of the Bloch-Okounkov Theta(z): a list of nome series,
    index = z-exponent.

    Theta(z) = z exp(f), f = sum_{k>=1} B_{2k}/(2k (2k)!) E_{2k} z^{2k}; the
    z^k coefficient e_k of exp(f) follows k e_k = sum_{even j<=k} j f_j e_{k-j}.
    """
    if zdeg < 1:
        raise ValueError("need z-degree >= 1")
    zero = RatSeries.const(CQT, 0, qorder)
    e = [RatSeries.one(CQT, qorder)]
    for k in range(1, zdeg):  # j f_j = B_j/j! E_j; e_k vanishes at odd k
        e.append(zero if k % 2 else lincomb(
            [(bernoulli(j) / (k * factorial(j)),
              eisenstein_series(j, 1, qorder, var=CQT) * e[k - j])
             for j in range(2, k + 1, 2)]))
    return tuple([zero] + e)


# -- disconnected n-point functions: the Bloch-Okounkov q-bracket --------------------

@lru_cache(maxsize=None)
def _part_counts(d: int, least: int) -> tuple:
    """The number of parts of each partition of d with no part below
    ``least``, ordered by least part: for last = least..d, each partition
    of d - last with no part below last, with last appended."""
    if d == 0:
        return (0,)
    return tuple(n + 1 for last in range(least, d + 1)
                 for n in _part_counts(d - last, last))


@lru_cache(maxsize=None)
def _constants(e: int) -> tuple[int, int, int]:
    """The pole numerator, the unit and the denominator of exponent e >= 1.

    The pole part 1/(2 sinh(z/2)) contributes inv_2sinh(e); each part
    lambda_i contributes the z^e coefficient of
    exp((lambda_i - i + 1/2) z) - exp((1/2 - i) z), an integer over 2^e e!.
    """
    pole = inv_2sinh(e)
    scale = 2 ** e * factorial(e)
    den = lcm(pole.denominator, scale)
    return pole.numerator * (den // pole.denominator), den // scale, den


@lru_cache(maxsize=None)
def _column(e: int, d: int, least: int) -> tuple:
    """[z^e] B_lambda(z) for every partition of d with no part below
    ``least``, in the order of _part_counts(d, least), as integer numerators
    over the denominator of _constants(e).  Part i = n + 1 appended to a
    partition of d - last with n parts adds (2 (last - i) + 1)^e - (1 - 2 i)^e
    units to its entry: step[n]."""
    pole_num, unit, _ = _constants(e)
    if d == 0:
        return (pole_num,)
    out = []
    for last in range(least, d + 1):
        step = [unit * ((2 * (last - i) + 1) ** e - (1 - 2 * i) ** e)
                for i in range(1, d // last + 1)]
        out += [entry + step[n] for n, entry in
                zip(_part_counts(d - last, last), _column(e, d - last, last))]
    return tuple(out)


@lru_cache(maxsize=None)
def _partition_sum(exps: tuple, d: int) -> int:
    """The q^d numerator of sum_lambda q^|lambda| prod_j B_lambda(z_j), for
    every nome order; with no exponents each partition of d counts 1."""
    if not exps:
        return len(_part_counts(d, 1))
    return sum(map(prod, zip(*(_column(e, d, 1) for e in exps))))


@lru_cache(maxsize=None)
def disconnected_coefficient(exps: tuple, qorder: int) -> RatSeries:
    """The nome series of prod_j z_j^{e_j} in
    prod_m (1 - q^m) * sum_lambda q^|lambda| prod_j B_lambda(z_j), for a
    weakly decreasing tuple of exponents >= 1."""
    den = prod(_constants(e)[2] for e in exps)
    nums = [_partition_sum(exps, d) for d in range(qorder + 1)]
    return RatSeries.over(CQT, 0, nums, den) * euler_product(qorder)


# the library reads single labels; this group view stays because
# perfbench/tracer.py spans it by name, reads its cache_info() and takes
# its first argument as a point count
@lru_cache(maxsize=None)
def npoint_disconnected(n: int, degree: int, qorder: int) -> dict:
    """Each weakly decreasing n-tuple of exponents >= 1 summing to
    ``degree``, mapped to its disconnected_coefficient."""
    return {exps: disconnected_coefficient(exps, qorder)
            for exps in combinations_with_replacement(range(degree, 0, -1), n)
            if sum(exps) == degree}


def monomial_count(weight: int) -> int:
    """The number of E2/E4/E6 monomials of the weight: recognition reads
    nome orders 0..count - 1, and the least ``--order`` that ``compute
    elliptic`` accepts is the count, which keeps one check coefficient."""
    return len(weight_monomials(EPoly.weights, weight))


def default_qorder(weight: int) -> int:
    return monomial_count(weight) + CHECK_ORDERS


# series: the nome expansion; value: the recognized EPoly
EllipticSeries = namedtuple("EllipticSeries", "series value")


@lru_cache(maxsize=None)
def connected_coefficient(exps: tuple, qorder: int) -> RatSeries:
    """Coefficient of prod z_j^{e_j} in the connected n-point function.

    Exponential formula on multiplicity vectors: the connected block of the
    first (largest) exponent takes k_e of the m_e other points of exponent
    e, in prod_e C(m_e, k_e) ways, and the points left out are disconnected:
    C(first + m) = D(first + m) - sum_{k<m} prod_e C(m_e, k_e) C(first + k)
    D(m - k).  A D with sum(e_j - 1) odd vanishes, so its term is skipped.
    """
    exps = tuple(sorted(exps, reverse=True))
    first, *others = exps
    values = sorted(set(others), reverse=True)
    mult = [others.count(e) for e in values]
    terms = [(1, disconnected_coefficient(exps, qorder))]
    for ks in product(*(range(m + 1) for m in mult)):
        rest = tuple(e for e, m, k in zip(values, mult, ks) for _ in range(m - k))
        if rest and (sum(rest) - len(rest)) % 2 == 0:
            block = (first, *(e for e, k in zip(values, ks) for _ in range(k)))
            terms.append((-prod(map(comb, mult, ks)), connected_coefficient(
                block, qorder) * disconnected_coefficient(rest, qorder)))
    return lincomb(terms)


@lru_cache(maxsize=None)
def connected_extract(label: StationaryLabel,
                      qorder: int | None = None) -> EllipticSeries:
    """The stationary series for the label through nome order ``qorder``
    (default_qorder by default), recognized in Q[E2,E4,E6] of weight
    sum(a_j + 2) from all of its coefficients.  Labels violating the
    dimension constraint are rejected; use :func:`stationary_value` for the
    vanishing-aware wrapper.
    """
    label.check_dimension()
    if not label.parts:
        raise ValueError("empty labels are handled by f1_empty")
    w = label.weight
    if qorder is None:
        qorder = default_qorder(w)
    exps = tuple(a + 1 for a in label.parts)
    series = connected_coefficient(exps, qorder)
    value = EPoly(recognize(series, EPoly.weights, w, eisenstein_powers(qorder)))
    return EllipticSeries(series, value)


def stationary_value(h: int, parts) -> EPoly:
    """connected_extract value, or zero when the label violates the
    dimension constraint or has a negative entry."""
    if h < 0 or any(a < 0 for a in parts) or sum(parts) != 2 * h - 2:
        return EPoly.zero()
    return connected_extract(StationaryLabel(h, parts)).value


# -- the genus-one unmarked series ---------------------------------------------------

def f1_empty(qorder: int) -> RatSeries:
    """Genus-one unmarked generating series,
    -(1/24) log((-1)^(E.E) nome) - sum_{n>=1} log(1 - nome^n).

    The log slot on the "cQt" tag is the coefficient of the signed-nome log.
    """
    if qorder < 1:
        raise ValueError("need at least one nome order")
    return (-euler_product(qorder).log()).with_log(F(-1, 24))
