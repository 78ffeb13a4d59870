"""B-model of local P2: periods, mirror map, and the polynomial ring of
generators S, X, I11.

Large-volume Frobenius data is built from the hypergeometric closed form of
the degree-one period and a second-order recursion for the log-companion
period.  The conifold flat coordinate is the unique power-series solution
(in u = 1 + 27q) of the third-order operator

    theta^3 + 3 q theta (3 theta + 1)(3 theta + 2),    theta = q d/dq,

with expansion u + O(u^2); the sqrt(3) relating it to the standard
normalization is kept out of the arithmetic and restored only in gap
targets.

Variable tags: "q" (algebraic coordinate), "Q" (flat coordinate), "cQ"
(level-3 nome), "cQt" (its cube), "u" (conifold coordinate), "that"
(conifold flat coordinate).  For the nome tags, a log slot is read as the
coefficient of log(-nome); combined with the sign of the nome expansion
this keeps every stored number rational.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial

from .graded import Graded
from .quasimod import QModElement
from .series import Localp2Error, Powers, RatSeries, SeriesError, lincomb

F = Fraction


# -- Frobenius data at large volume ---------------------------------------------

def _ibar1(order: int) -> RatSeries:
    coeffs = [F(0)] * (order + 1)
    for k in range(1, order + 1):
        coeffs[k] = 3 * F(factorial(3 * k - 1), factorial(k) ** 3) * (-1) ** k
    return RatSeries("q", 0, coeffs)


def _u_of_q(order: int) -> RatSeries:
    """u = 1 + 27q = 1/X, known through q^order."""
    return RatSeries.from_pairs("q", {0: 1, 1: 27}, order)


def _pf_apply(f: RatSeries) -> RatSeries:
    """(1 + 27q) theta^2 + 27 q theta + 6 q, acting on a q-series."""
    q = RatSeries.gen("q", f.trunc_order)
    t1 = f.theta().theta()
    return _u_of_q(f.trunc_order) * t1 + 27 * (q * f.theta()) + 6 * (q * f)


def _solve_log_companion(i11: RatSeries, order: int) -> RatSeries:
    """The unique J with J(0) = 0 such that I11*log q + J is annihilated by
    the second-order operator above.

    Writing L(I11 log q) = log q * L(I11) + 2 (1+27q) theta(I11) + 27 q I11
    and using L(I11) = 0, J solves L(J) = -(2 (1+27q) theta I11 + 27 q I11)
    by a nondegenerate coefficient recursion.
    """
    res = _pf_apply(i11)
    if any(res.coeff(k) for k in range(0, order - 1)):
        raise SeriesError("degree-one period fails its differential equation")
    q = RatSeries.gen("q", order)
    rhs = -(2 * (_u_of_q(order) * i11.theta()) + 27 * (q * i11))
    j = [F(0)] * (order + 1)
    for k in range(1, order + 1):
        j[k] = (rhs.coeff(k) - (27 * k * (k - 1) + 6) * j[k - 1]) / (k * k)
    return RatSeries("q", 0, j)


# -- conifold flat coordinate ----------------------------------------------------

def theta_u(f: RatSeries) -> RatSeries:
    """theta = q d/dq = (u - 1) d/du on u-series (Laurent allowed): the
    coefficient of u^m is m f_m - (m + 1) f_(m+1).  The floor is that of
    (u - 1) times the derivative, 0 or one below a negative floor, and the
    result is known through u^(n - 1) for a power series known through u^n,
    one step less per unit of pole."""
    n = f.trunc_order
    if n < 1:
        raise SeriesError("theta_u needs a series known through u^1")
    lo = f.min_exp - 1 if f.min_exp < 0 else 0
    top = min(n - 1, n + lo)
    a = [0] * (f.min_exp - lo) + list(f.nums)  # a[i] = f.den * f_(lo + i)
    out = [(lo + i) * a[i] - (lo + i + 1) * a[i + 1]
           for i in range(top - lo + 1)]
    return RatSeries.over("u", lo, out, f.den)


def _mirror_op_u(f: RatSeries) -> RatSeries:
    """theta^3 + 3 q theta (3 theta + 1)(3 theta + 2) on u-series, q = (u-1)/27."""
    w = theta_u(f)
    tw = theta_u(w)
    ttw = theta_u(tw)
    inner = lincomb([(9, ttw), (9, tw), (2, w)])
    qse = RatSeries.from_pairs("u", {0: F(-1, 27), 1: F(1, 27)}, f.trunc_order)
    return lincomb([(1, ttw), (3, qse * inner)])


def _band(k: int) -> tuple:
    """9 times the operator's image of u^k, on u^(k-2)..u^(k+1): the
    u^(k-3) terms of theta^3 and of q theta (3 theta + 1)(3 theta + 2)
    cancel, and what is left is

        -9k(k-1)^2 u^(k-2) + k(27k^2 - 27k + 11) u^(k-1)
            - k(27k^2 + 4) u^k + k(3k + 1)(3k + 2) u^(k+1)."""
    return (-9 * k * (k - 1) ** 2, k * (27 * k * k - 27 * k + 11),
            -k * (27 * k * k + 4), k * (3 * k + 1) * (3 * k + 2))


def _conifold_flat(order: int) -> RatSeries:
    """Solve for u + sum_{k>=2} c_k u^k term by term, asserting each pivot.
    The u^m coefficient of the residual reads the bands of u^(m-1), u^m
    and u^(m+1); the band of u^(m+2) gives the pivot."""
    c = [F(0), F(1)] + [F(0)] * (order - 1)
    for m in range(0, order - 1):
        acc = sum(c[k] * _band(k)[m - k + 2]
                  for k in range(max(m - 1, 1), m + 2))
        piv = _band(m + 2)[0]
        if piv == 0:
            raise SeriesError(f"conifold recursion degenerate at order {m + 2}")
        c[m + 2] = -acc / piv
    t = RatSeries("u", 0, c)
    res = _mirror_op_u(t)
    if any(res.coeff(k) for k in range(0, order - 2)):
        raise SeriesError("conifold flat coordinate fails its equation")
    return t


# -- the assembled mirror data ----------------------------------------------------

class MirrorData:
    """The mirror data through q^order.  ``build_mirror_data`` makes this
    class a frozen dataclass in place on its first call (perfbench/tracer.py
    reads ``__dataclass_fields__``), so that importing the package does not
    import ``dataclasses``."""

    order: int
    ibar1: RatSeries      # q-series, no log
    I11: RatSeries        # theta of log q + ibar1
    J: RatSeries          # log-free part of the second period derivative
    X: RatSeries          # 1/(1 + 27q)
    S: RatSeries          # propagator theta log I11 - (X - 1)/3
    Qofq: RatSeries       # mirror map
    qofQ: RatSeries       # its reversion
    cQofq: RatSeries      # nome as q-series: -q exp(J/I11)
    that: RatSeries       # conifold flat coordinate in u

    # The powers that bm_eval substitutes for S, X, 1/X = 1 + 27q, I11 and
    # 1/I11, and q_to_Q for q = qofQ; each table is made on its first read.
    S_pow = cached_property(lambda self: _powers(self.S))
    X_pow = cached_property(lambda self: _powers(self.X))
    inv_X_pow = cached_property(lambda self: _powers(_u_of_q(self.order)))
    I11_pow = cached_property(lambda self: _powers(self.I11))
    inv_I11_pow = cached_property(lambda self: _powers(
        RatSeries.one("q", self.order) / self.I11))
    qofQ_pow = cached_property(lambda self: _powers(self.qofQ))


def _powers(base: RatSeries) -> Powers:
    """The powers of ``base`` from a unit known as far as ``base`` is."""
    return Powers(base, RatSeries.one(base.var, base.trunc_order))


@lru_cache(maxsize=None)
def build_mirror_data(order: int) -> MirrorData:
    if order < 5:
        raise SeriesError("mirror data needs order >= 5")
    # a flag, not a cache: emptying every cache of the package must not
    # decorate the class twice, which dataclass refuses on a frozen class
    if "__dataclass_fields__" not in MirrorData.__dict__:
        from dataclasses import dataclass
        dataclass(frozen=True)(MirrorData)
    ibar1 = _ibar1(order)
    i11 = RatSeries.one("q", order) + ibar1.theta()
    j = _solve_log_companion(i11, order)
    x = RatSeries.one("q", order) / _u_of_q(order)
    s = i11.theta() / i11 - (x - RatSeries.one("q", order)) / 3
    qofq = ibar1.exp().shift(1)   # q * exp(ibar1)
    qof_q = qofq.revert("Q")
    cqofq = -(j / i11).exp().shift(1)
    that = _conifold_flat(order)
    return MirrorData(order=order, ibar1=ibar1, I11=i11, J=j, X=x, S=s,
                      Qofq=qofq, qofQ=qof_q, cQofq=cqofq, that=that)


# -- variable changes --------------------------------------------------------------

def cq_change(series: RatSeries, md: MirrorData) -> RatSeries:
    """Convert a series in the nome ("cQ") or its cube ("cQt") to a q-series.

    A log slot is the coefficient of log(-nome); since -cQ = q exp(J/I11)
    and -cQt = q^3 exp(3 J/I11), it contributes a rational log q slot plus
    an honest power series.
    """
    if series.var == "cQ":
        inner = md.cQofq
        log_q_mult = 1
        log_series = md.J / md.I11
    elif series.var == "cQt":
        inner = md.cQofq ** 3
        log_q_mult = 3
        log_series = 3 * (md.J / md.I11)
    else:
        raise SeriesError(f"cq_change expects a cQ or cQt series, got {series.var}")
    out = series.with_log(0).compose(inner)
    if series.log_coeff:
        out = out + series.log_coeff * log_series
        return out.with_log(series.log_coeff * log_q_mult)
    return out


def q_to_Q(series: RatSeries, md: MirrorData) -> RatSeries:
    """Convert a q-series (optional log q slot) to the flat coordinate:
    log q = log Q - ibar1."""
    power = series.with_log(0)
    if series.log_coeff:
        power = power - series.log_coeff * md.ibar1
    if power.min_exp < 0:
        raise SeriesError("q_to_Q needs a power series in q")
    # sum_k power_k qofQ^k through Q^bound, as RatSeries.compose would give
    bound = min(md.qofQ.trunc_order, power.trunc_order)
    out = lincomb([(power.coeff(k), md.qofQ_pow[k]) for k in range(bound + 1)],
                  "Q", bound)
    return out.with_log(series.log_coeff) if series.log_coeff else out


# -- the polynomial B-model ring ----------------------------------------------------

class BModError(Localp2Error):
    pass


class BModElement(Graded):
    """I11^(-i11_degree) times a Laurent polynomial in X and polynomial in S.

    Elements of different I11-degrees add only when one of them is zero."""

    __slots__ = ()
    names = ("S", "X")

    @property
    def i11_degree(self) -> int:
        return self.shift

    def _settle(self):
        if any(s < 0 for s, _ in self.terms):
            raise BModError("negative S exponent")

    @staticmethod
    def monomial(v, s: int = 0, x: int = 0, i11_degree: int = 0) -> "BModElement":
        return BModElement(i11_degree, {(s, x): v})

    def deg_S(self) -> int:
        return max((s for s, _ in self.terms), default=0)

    def __repr__(self):
        return f"I11^-{self.i11_degree} * [{self._monomials()}]"


# theta acting on the generators:
#   theta S = -S^2 + (X-1) S / 3 - X(X-1)/9
#   theta X = X(X-1)
#   theta log I11 = S + (X-1)/3
_THETA_S = BModElement(0, {(2, 0): -1, (1, 1): F(1, 3), (1, 0): F(-1, 3),
                           (0, 2): F(-1, 9), (0, 1): F(1, 9)})
_THETA_X = BModElement(0, {(0, 2): 1, (0, 1): -1})
_THETA_LOG_I11 = BModElement(0, {(1, 0): 1, (0, 1): F(1, 3), (0, 0): F(-1, 3)})


def bm_theta(e: BModElement) -> BModElement:
    """q d/dq via the closed derivation rules; preserves i11_degree."""
    return e.derive((_THETA_S, _THETA_X), _THETA_LOG_I11)


def bm_derive_D(e: BModElement) -> BModElement:
    """D = 3 Q d/dQ = 3 I11^{-1} q d/dq; raises i11_degree by 1."""
    t = bm_theta(e)
    return BModElement(e.i11_degree + 1, {k: 3 * v for k, v in t.terms.items()})


def bm_eval(e: BModElement, md: MirrorData, target: str = "q") -> RatSeries:
    """Expand in q (or the flat coordinate Q) by substituting the series."""
    by_x: dict[int, list] = {}
    for (s, x), v in e.terms.items():
        by_x.setdefault(x, []).append((v, md.S_pow[s]))
    groups = []
    for x, terms in by_x.items():
        group = lincomb(terms)
        if x:
            group = group * (md.X_pow[x] if x > 0 else md.inv_X_pow[-x])
        groups.append((1, group))
    out = lincomb(groups, "q", md.order)
    k = e.i11_degree
    if k > 0:  # trimmed, as the quotient by I11**k would be
        out = (out * md.inv_I11_pow[k]).trim()
    elif k < 0:
        out = out * md.I11_pow[-k]
    if target == "q":
        return out
    if target == "Q":
        return q_to_Q(out, md)
    raise BModError(f"unknown target {target!r}")


def bm_to_qmod(e: BModElement) -> QModElement:
    """Rewrite via X = A^3/C, S = (AB - A^3)/(6C), I11 = A.

    Negative intermediate A-exponents must cancel; a surviving one means the
    element is not regular at the orbifold point.
    """
    from math import comb

    acc: dict[tuple, Fraction] = {}
    # common denominator C^P; term: v (AB - A^3)^s / 6^s * A^{3x - deg} * C^{P-s-x}
    P = max((s + max(x, 0) for (s, x) in e.terms), default=0)
    for (s, x), v in e.terms.items():
        cpow = P - s - x
        for i in range(s + 1):
            w = comb(s, i) * (-1) ** (s - i)  # (AB)^i (-A^3)^(s-i)
            key = (i + 3 * (s - i) + 3 * x - e.i11_degree, i, cpow)
            acc[key] = acc.get(key, F(0)) + w * v * F(1, 6 ** s)
    acc = {k: v for k, v in acc.items() if v}
    if any(a < 0 for a, _, _ in acc):
        bad = {k: v for k, v in acc.items() if k[0] < 0}
        raise BModError(f"element not regular at the orbifold point: {bad}")
    return QModElement(P, acc)
