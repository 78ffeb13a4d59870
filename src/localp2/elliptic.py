"""Stationary Gromov-Witten theory of the elliptic curve.

The disconnected n-point functions are Bloch-Okounkov q-brackets: the
coefficient of prod_j z_j^{e_j} is

    prod_m (1 - q^m) * sum_lambda q^|lambda| prod_j [z^{e_j}] B_lambda(z),
    B_lambda(z) = 1/(2 sinh(z/2)) + sum_i (e^{(lambda_i - i + 1/2) z}
                                           - e^{(1/2 - i) z}),

summed over all partitions up to the nome order (Bloch-Okounkov 2000;
Okounkov-Pandharipande, GW theory, Hurwitz theory and completed cycles).
The q^d coefficient sums over the partitions of d alone, so the closed-form
z-coefficients of B_lambda are cached as one column per exponent and
partition size, shared by every label and every nome order.  A label's
bracket is built and cached when it is first read, so the labels of a
degree that no connected function reads are never built.

Connected functions follow by the exponential formula on multiplicity
vectors; coefficients are recognized in the weight-graded ring Q[E2, E4, E6].
All expansions here live in the curve's nome, tagged "cQt"; a log slot on
that tag is the coefficient of log of the *signed* nome (-1)^(E.E) * nome.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, lcm, prod

from .graded import Graded, recognize, weight_monomials
from .quasimod import _sigma, bernoulli, eisenstein_series, euler_product
from .series import Localp2Error, RatSeries, lincomb

F = Fraction

CQT = "cQt"  # nome of the elliptic curve

# nome orders past the monomial count at which a label is recognized by
# default: the coefficients that check the recognized polynomial
CHECK_ORDERS = 10


class EllipticError(Localp2Error):
    pass


# -- labels ----------------------------------------------------------------------

class StationaryLabel(namedtuple("StationaryLabel", "h parts")):
    """Genus h and descendent exponents a (weakly decreasing)."""

    __slots__ = ()

    def __new__(cls, h: int, parts):
        parts = tuple(sorted(parts, reverse=True))
        if h < 0 or any(a < 0 for a in parts):
            raise EllipticError("negative genus or descendent exponent")
        return super().__new__(cls, h, parts)

    def check_dimension(self):
        if sum(self.parts) != 2 * self.h - 2:
            raise EllipticError(
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

    def __init__(self, terms: dict):
        super().__init__(0, terms)

    @classmethod
    def gen(cls, k: int) -> "EPoly":
        return super().gen(f"E{k}")

    def __repr__(self):
        return self._monomials()


def eisenstein_images(order: int) -> list:
    """E2, E4, E6 in the curve's nome, through ``order``."""
    return [eisenstein_series(k, 1, order, var=CQT) for k in (2, 4, 6)]


# -- theta function and its derivatives --------------------------------------------

def _zlist_mul(a, b, zdeg, qorder):
    out = [RatSeries.zero(CQT, qorder) for _ in range(zdeg + 1)]
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            if i + j > zdeg:
                break
            if not y.is_zero():
                out[i + j] = out[i + j] + x * y
    return out


@lru_cache(maxsize=None)
def theta_z(zdeg: int, qorder: int):
    """Coefficients of the Bloch-Okounkov Theta(z): a list of nome series,
    index = z-exponent.

    Theta(z) = z exp( sum_{k>=1} B_{2k}/(2k (2k)!) E_{2k} z^{2k} ).
    """
    if zdeg < 1:
        raise EllipticError("need z-degree >= 1")
    zero = RatSeries.zero(CQT, qorder)
    expo = [zero] * (zdeg + 1)
    for k in range(1, zdeg // 2 + 1):
        coef = bernoulli(2 * k) / (2 * k * factorial(2 * k))
        expo[2 * k] = eisenstein_series(2 * k, 1, qorder, var=CQT) * coef
    # exp of an even series with zero constant term, truncated at zdeg
    result = [zero] * (zdeg + 1)
    result[0] = RatSeries.one(CQT, qorder)
    power = result[:]
    kfac = 1
    for k in range(1, zdeg // 2 + 1):
        power = _zlist_mul(power, expo, zdeg, qorder)
        kfac *= k
        if all(p.is_zero() for p in power):
            break
        for j in range(zdeg + 1):
            if not power[j].is_zero():
                result[j] = result[j] + power[j] / kfac
    # multiply by z: shift by one
    return tuple([zero] + result[:zdeg])


# -- disconnected n-point functions: the Bloch-Okounkov q-bracket --------------------

def _partitions_of(d: int, largest: int | None = None):
    """Partitions of d as weakly decreasing tuples, parts <= largest."""
    if d == 0:
        yield ()
        return
    for first in range(min(d, largest or d), 0, -1):
        for rest in _partitions_of(d - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _partitions(d: int) -> tuple:
    """The partitions of exactly d."""
    return tuple(_partitions_of(d))


@lru_cache(maxsize=None)
def _constants(e: int) -> tuple[int, int, int]:
    """The pole numerator, the unit and the denominator of exponent e >= 1.

    The pole part 1/(2 sinh(z/2)) contributes (2^-e - 1) B_{e+1}/(e+1)!;
    each part lambda_i contributes the z^e coefficient of
    exp((lambda_i - i + 1/2) z) - exp((1/2 - i) z), an integer over 2^e e!.
    """
    pole = (F(1, 2 ** e) - 1) * bernoulli(e + 1) / factorial(e + 1)
    scale = 2 ** e * factorial(e)
    den = lcm(pole.denominator, scale)
    return pole.numerator * (den // pole.denominator), den // scale, den


@lru_cache(maxsize=None)
def _column(e: int, d: int) -> tuple:
    """[z^e] B_lambda(z) for every partition of d, as integer numerators
    over the denominator of _constants(e)."""
    pole_num, unit, _ = _constants(e)
    return tuple(pole_num + unit * sum((2 * (part - i) + 1) ** e - (1 - 2 * i) ** e
                                       for i, part in enumerate(lam, start=1))
                 for lam in _partitions(d))


@lru_cache(maxsize=None)
def disconnected_coefficient(exps: tuple, qorder: int) -> RatSeries:
    """The nome series of prod_j z_j^{e_j} in
    prod_m (1 - q^m) * sum_lambda q^|lambda| prod_j B_lambda(z_j), for a
    weakly decreasing tuple of exponents >= 1."""
    den = prod(_constants(e)[2] for e in exps)
    # q^d sums over the partitions of d; with no columns each counts 1
    nums = [sum(map(prod, zip(*(_column(e, d) for e in exps)))) if exps
            else len(_partitions(d)) for d in range(qorder + 1)]
    return RatSeries.over(CQT, 0, nums, den) * euler_product(1, qorder, CQT)


# the library reads single labels; this group view stays because
# perfbench/tracer.py spans it by name, reads its cache_info() and takes
# its first argument as a point count
@lru_cache(maxsize=None)
def npoint_disconnected(n: int, degree: int, qorder: int) -> dict:
    """Each weakly decreasing n-tuple of exponents >= 1 summing to
    ``degree``, mapped to its disconnected_coefficient."""
    return {exps: disconnected_coefficient(exps, qorder)
            for exps in _partitions_of(degree) if len(exps) == n}


def monomial_count(weight: int) -> int:
    """The number of E2/E4/E6 monomials of the weight: the least nome order
    at which a label of that weight is recognized."""
    return len(weight_monomials(EPoly.weights, weight))


def default_qorder(weight: int) -> int:
    return monomial_count(weight) + CHECK_ORDERS


# label: StationaryLabel; series: the nome expansion; value: the recognized EPoly
EllipticSeries = namedtuple("EllipticSeries", "label series value")


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
        raise EllipticError("empty labels are handled by f1_empty")
    w = label.weight
    if qorder is None:
        qorder = default_qorder(w)
    exps = tuple(a + 1 for a in label.parts)
    series = connected_coefficient(exps, qorder)
    value = EPoly(recognize(series, EPoly.weights, w, eisenstein_images(qorder)))
    return EllipticSeries(label=label, series=series, value=value)


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
        raise EllipticError("need at least one nome order")
    coeffs = [F(0)] * (qorder + 1)
    for nn in range(1, qorder + 1):
        coeffs[nn] = F(_sigma(nn, 1), nn)
    return RatSeries(CQT, 0, coeffs, log_coeff=F(-1, 24))
