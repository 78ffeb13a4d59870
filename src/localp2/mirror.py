"""B-model of local P2: periods, mirror map, and the polynomial ring of
generators S, X, I11.

The periods are read from their hypergeometric closed forms, with
a_k = (-1)^k (3k)!/k!^3: the degree-one period I11 = sum a_k q^k is
2F1(1/3, 2/3; 1; -27q), its log companion is I11 log q + J with
J_k = 3 a_k (H_3k - H_k) (H_n the harmonic numbers), and the conifold flat
coordinate t = u + O(u^2), u = 1 + 27q, has theta t = -2F1(1/3, 2/3; 1; u).
All three are checked against the one Picard-Fuchs operator

    L = theta^2 + 3 q (3 theta + 1)(3 theta + 2),    theta = q d/dq:

L I11 = 0, L (I11 log q + J) = 0 and L theta t = 0.  The sqrt(3) relating
t to the standard normalization is kept out of the arithmetic and restored
only in gap targets.

Nothing is reverted or composed on the way to the flat coordinate Q =
q exp(ibar1).  Since q/Q = exp(-ibar1), Lagrange-Buermann reads the inverse
mirror map and every q -> Q from one integer table per order,
t_n[i] = (n - 1)! [q^i] exp(-n ibar1), made by a recurrence over the a_k.
The B-model q-expansion sums its X^x groups by Horner, each power of
X = 1/(1 + 27q) or of 1 + 27q one pass of a two-term recurrence.

Variable tags: "q" (algebraic coordinate), "Q" (flat coordinate), "cQ"
(level-3 nome), "cQt" (its cube), "u" (conifold coordinate), "that"
(conifold flat coordinate).  For the nome tags, a log slot is read as the
coefficient of log(-nome); combined with the sign of the nome expansion
this keeps every stored number rational.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, lcm
from operator import mul

from . import quasimod
from .graded import Graded
from .series import Localp2Error, Powers, RatSeries, lincomb

F = Fraction


# -- the Picard-Fuchs operator and its hypergeometric solution -------------------

def _picard_fuchs(f: RatSeries, theta, q: RatSeries) -> RatSeries:
    """L f for the derivation ``theta`` and the series ``q`` in f's variable:
    RatSeries.theta and q on q-series, theta_u and (u - 1)/27 on u-series."""
    t1 = theta(f)
    t2 = theta(t1)
    return lincomb([(1, t2), (3, q * lincomb([(9, t2), (9, t1), (2, f)]))])


def _hypergeometric(order: int) -> list:
    """a_k = (-1)^k (3k)!/k!^3 for k = 0..order."""
    a = [1]
    for k in range(1, order + 1):
        a.append(-3 * (3 * k - 1) * (3 * k - 2) * a[-1] // (k * k))
    return a


@lru_cache(maxsize=None)
def _burmann(order: int) -> tuple:
    """Row n - 1 holds t_n[i] = (n - 1)! [q^i] exp(-n ibar1) for
    i < n <= order + 1 (ibar1 is known through q^order): integers, by
    m e_m = -n sum_(j<=m) a_j e_(m-j), since j ibar1_j = a_j."""
    a1 = _hypergeometric(order)[1:]
    rows = []
    for n in range(1, order + 2):
        t = [factorial(n - 1)]
        for m in range(1, n):  # map stops at the m entries of t
            t.append(-n * sum(map(mul, a1, reversed(t))) // m)
        rows.append(t)
    return tuple(rows)


def _u_of_q(order: int) -> RatSeries:
    """u = 1 + 27q = 1/X, known through q^order."""
    return RatSeries.from_pairs("q", {0: 1, 1: 27}, order)


# -- conifold flat coordinate ----------------------------------------------------

def theta_u(f: RatSeries) -> RatSeries:
    """theta = q d/dq = (u - 1) d/du on u-series (Laurent allowed): the
    coefficient of u^m is m f_m - (m + 1) f_(m+1).  The floor is that of
    (u - 1) times the derivative, 0 or one below a negative floor, and the
    result is known through u^(n - 1) for a power series known through u^n,
    one step less per unit of pole."""
    n = f.trunc_order
    if n < 1:
        raise ValueError("theta_u needs a series known through u^1")
    lo = f.min_exp - 1 if f.min_exp < 0 else 0
    top = min(n - 1, n + lo)
    a = [0] * (f.min_exp - lo) + list(f.nums)  # a[i] = f.den * f_(lo + i)
    out = [(lo + i) * a[i] - (lo + i + 1) * a[i + 1]
           for i in range(top - lo + 1)]
    return RatSeries.over("u", lo, out, f.den)


def _conifold_flat(order: int) -> RatSeries:
    """t with theta_u t = -sum a_m (-u/27)^m, so n t_n is the sum of
    a_m/(-27)^m over m < n, since theta_u = (u - 1) d/du."""
    a = _hypergeometric(order)
    c, partial = [F(0)], F(0)
    for n in range(1, order + 1):
        partial += F(a[n - 1], (-27) ** (n - 1))
        c.append(partial / n)
    t = RatSeries("u", 0, c)
    q = (RatSeries.gen("u", order) - 1) / 27
    res = _picard_fuchs(theta_u(t), theta_u, q)
    if any(res.coeff(k) for k in range(0, order - 2)):
        raise Localp2Error("conifold flat coordinate fails its equation")
    return t


def propagator(period: RatSeries, theta_period: RatSeries,
               x: RatSeries) -> RatSeries:
    """theta log(period) - (X - 1)/3, from a period, its theta and X: S
    from I11 at large volume, and s_con from theta t with X = 1/u."""
    return theta_period / period - (x - 1) / 3


# -- the assembled mirror data ----------------------------------------------------

class MirrorData(namedtuple("MirrorData", "order ibar1 I11 J X S Qofq qofQ "
                            "cQofq that")):
    """The mirror data through q^order, a frozen record: ibar1 (q-series,
    no log), I11 (theta of log q + ibar1), J (log-free part of the second
    period derivative), X = 1/(1 + 27q), S (propagator theta log I11 -
    (X - 1)/3), Qofq (mirror map), qofQ (its reversion), cQofq (nome as
    q-series: -q exp(J/I11)) and that (conifold flat coordinate in u)."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"MirrorData is frozen: cannot set or delete "
                             f"{name!r}")

    __delattr__ = __setattr__

    # The powers that bm_eval substitutes for S, I11 and 1/I11, and
    # cq_change for the nome cQ and its cube cQt, and the conifold
    # propagator that the gap reads; each is made on its first read.
    S_pow = cached_property(lambda self: Powers(self.S))
    I11_pow = cached_property(lambda self: Powers(self.I11))
    inv_I11_pow = cached_property(lambda self: Powers(
        RatSeries.one("q", self.order) / self.I11))
    cQ_pow = cached_property(lambda self: Powers(self.cQofq))
    cQt_pow = cached_property(lambda self: Powers(self.cQofq ** 3))

    @cached_property
    def s_con(self) -> RatSeries:
        """The propagator of theta t in u, with X = 1/u: Laurent from u^-1,
        known through u^(order - 2).  One serves every genus; a read past
        it is a bug and raises ValueError rather than give a wrong number."""
        theta_t = theta_u(self.that)
        if theta_t.constant_term() == 0:
            raise Localp2Error("degenerate conifold frame: theta t vanishes at u = 0")
        return propagator(theta_t, theta_u(theta_t), RatSeries.from_pairs(
            "u", {-1: 1}, self.that.trunc_order))


# the field names, in order, for perfbench/tracer.py alone (ROADMAP item 7
# removes it); MirrorData is not a dataclass
MirrorData.__dataclass_fields__ = MirrorData._fields


@lru_cache(maxsize=None)
def build_mirror_data(order: int) -> MirrorData:
    if order < 5:
        raise ValueError("mirror data needs order >= 5")
    # I11 log q + J is the eps-derivative at eps = 0 of sum a_(k+eps) q^(k+eps)
    a = _hypergeometric(order)
    ibar1 = RatSeries("q", 0, [0] + [F(a[k], k) for k in range(1, order + 1)])
    i11 = RatSeries.over("q", 0, a, 1)
    j, h = [0], F(0)
    for k in range(1, order + 1):
        h += F(1, 3 * k - 1) + F(1, 3 * k - 2) - F(2, 3 * k)
        j.append(3 * a[k] * h)
    j = RatSeries("q", 0, j)
    # L(I11 log q) = log q L(I11) + 2 (1 + 27q) theta I11 + 27 q I11
    q = RatSeries.gen("q", order)
    di11 = i11.theta()
    res = _picard_fuchs(i11, RatSeries.theta, q)
    if any(res.coeff(k) for k in range(0, order - 1)):
        raise Localp2Error("degree-one period fails its differential equation")
    res = lincomb([(1, _picard_fuchs(j, RatSeries.theta, q)),
                   (2, _u_of_q(order) * di11), (27, q * i11)])
    if any(res.coeff(k) for k in range(0, order - 1)):
        raise Localp2Error("log-companion period fails its differential equation")
    x = RatSeries.one("q", order) / _u_of_q(order)
    s = propagator(i11, di11, x)
    qofq = ibar1.exp().shift(1)   # q * exp(ibar1)
    # [Q^n] q = t_n[n - 1] / n!, Lagrange-Buermann for H = q
    qof_q = RatSeries("Q", 0, [0] + [F(row[-1], factorial(n))
                                     for n, row in enumerate(_burmann(order), 1)])
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
    k = {"cQ": 1, "cQt": 3}.get(series.var)  # the power of the nome
    if k is None:
        raise ValueError(f"cq_change expects a cQ or cQt series, got {series.var}")
    out = series.with_log(0).compose(md.cQ_pow if k == 1 else md.cQt_pow)
    if series.log_coeff:
        c = k * series.log_coeff
        return (out + md.J / md.I11 * c).with_log(c)
    return out


def q_to_Q(series: RatSeries, md: MirrorData) -> RatSeries:
    """Convert a q-series (optional log q slot) to the flat coordinate:
    log q = log Q - ibar1.  The power series H goes by Lagrange-Buermann,
    [Q^n] H = sum_(i<n) (n - i) H_(n-i) t_n[i] / n!, over the integer
    numerators of H and the table t of the mirror order."""
    power = series.with_log(0)
    if series.log_coeff:
        power = power - series.log_coeff * md.ibar1
    if power.min_exp < 0:
        raise ValueError("q_to_Q of a Laurent series")
    top = min(power.trunc_order, md.qofQ.trunc_order)
    h = [0] * power.min_exp + list(power.nums)  # h[i] = power.den * H_i
    # the numerators of [Q^n] H over top! power.den
    top_f = factorial(top)
    nums = [h[0] * top_f] + [
        sum(map(mul, map(mul, range(n, 0, -1), h[n:0:-1]), t))
        * (top_f // factorial(n))
        for n, t in enumerate(_burmann(md.order)[:top], 1)]
    out = RatSeries.over("Q", 0, nums, top_f * power.den)
    return out.with_log(series.log_coeff) if series.log_coeff else out


# -- the polynomial B-model ring ----------------------------------------------------

class BModElement(Graded):
    """I11^(-i11_degree) times a Laurent polynomial in X and polynomial in S.

    Elements of different I11-degrees add only when one of them is zero."""

    __slots__ = ()
    names = ("S", "X")
    header = ("i11_degree",)

    @property
    def i11_degree(self) -> int:
        return self.shift

    def _settle(self):
        if any(s < 0 for s, _ in self.terms):
            raise ValueError("negative S exponent")

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
#   theta log X = X - 1
_THETA_S = BModElement(0, {(2, 0): -1, (1, 1): F(1, 3), (1, 0): F(-1, 3),
                           (0, 2): F(-1, 9), (0, 1): F(1, 9)})
_THETA_X = BModElement(0, {(0, 2): 1, (0, 1): -1})
_THETA_LOG_I11 = BModElement(0, {(1, 0): 1, (0, 1): F(1, 3), (0, 0): F(-1, 3)})
_THETA_LOG_X = BModElement(0, {(0, 1): 1, (0, 0): -1})


def bm_theta(e: BModElement) -> BModElement:
    """q d/dq via the closed derivation rules; preserves i11_degree."""
    return e.derive((_THETA_S, _THETA_X), _THETA_LOG_I11)


def bm_derive_D(e: BModElement) -> BModElement:
    """D = 3 Q d/dQ = 3 I11^{-1} q d/dq; raises i11_degree by 1."""
    return BModElement._from(e.i11_degree + 1, {
        k: 3 * v for k, v in bm_theta(e).terms.items()})


class LogForm(namedtuple("LogForm", "a b c")):
    """F = a log q + b log I11 + c log X (a genus-1 free energy), read as a
    q-series or through its D-image, which is in the ring."""

    __slots__ = ()

    def series(self, md: MirrorData) -> RatSeries:
        """F in q through q^order: a in the log slot, and the logs of I11
        and X only where their coefficient is nonzero."""
        return lincomb([(k, p.log()) for k, p in ((self.b, md.I11), (self.c, md.X))
                        if k]).with_log(self.a)

    @property
    def D(self) -> BModElement:
        """D F = 3 I11^-1 theta F, of I11-degree 1, by theta log q = 1 and
        the theta rules of log I11 and log X."""
        return BModElement.monomial(3, i11_degree=1) * (
            _THETA_LOG_I11 * self.b + _THETA_LOG_X * self.c + self.a)


def _times_u(nums: list, step: int) -> list:
    """The numerators of f times u = 1 + 27q (step 1) or times X = 1/u
    (step -1), made in place from those of a q-series f from q^0 in one
    pass: y_m = f_m + 27 f_(m-1) or y_m = f_m - 27 y_(m-1)."""
    for m in range(len(nums) - 1, 0, -1) if step > 0 else range(1, len(nums)):
        nums[m] += 27 * step * nums[m - 1]
    return nums


def bm_eval(e: BModElement, md: MirrorData, target: str = "q") -> RatSeries:
    """Expand in q (or the flat coordinate Q) by substituting the series.
    On integer numerators over one denominator, the X^x groups are summed
    by Horner, in X for x > 0 and in u = 1/X for x < 0, so each power of X
    or u is one pass of _times_u."""
    n = md.order + 1  # S^s is known through q^order
    den = lcm(*(md.S_pow[s].den for s, _ in e.terms))
    vden = lcm(*(v.denominator for v in e.terms.values()))
    by_x: dict[int, list] = {}
    for (s, x), v in e.terms.items():
        p = md.S_pow[s]
        c = v.numerator * (vden // v.denominator) * (den // p.den)
        row = by_x.setdefault(x, [0] * n)
        row[:] = [r + c * y for r, y in zip(row, p.nums)]
    out = by_x.pop(0, [0] * n)
    for step, xs in ((-1, range(max(by_x, default=0), 0, -1)),
                     (1, range(min(by_x, default=0), 0))):
        acc = [0] * n
        for x in xs:
            if x in by_x:
                acc = [a + b for a, b in zip(acc, by_x[x])]
            acc = _times_u(acc, step)
        out = [a + b for a, b in zip(out, acc)]
    out = RatSeries.over("q", 0, out, den * vden)
    k = e.i11_degree
    if k > 0:  # trimmed, as the quotient by I11**k would be
        out = (out * md.inv_I11_pow[k]).trim()
    elif k < 0:
        out = out * md.I11_pow[-k]
    if target == "q":
        return out
    if target == "Q":
        return q_to_Q(out, md)
    raise ValueError(f"unknown target {target!r}")


def bm_to_qmod(e: BModElement) -> quasimod.QModElement:
    """Rewrite via X = A^3/C, S = (AB - A^3)/(6C), I11 = A.

    Negative intermediate A-exponents must cancel; a surviving one means the
    element is not regular at the orbifold point.
    """
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
        raise Localp2Error(f"element not regular at the orbifold point: {bad}")
    return quasimod.QModElement(P, acc)
