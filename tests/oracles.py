"""Brute-force reference implementations used to pin expected test values.

Everything here is deliberately naive and independent of the library code
paths it checks: plain-list polynomial arithmetic, divisor sums, exhaustive
enumeration.  The one exception is :func:`bloch_okounkov_npoint_oracle`: the
library computes the same partition sum, so agreement with it is a check of
the closed-form z-coefficients, not an independent one.

:func:`connected_coefficient_oracle` takes connected elliptic brackets from
disconnected ones by Moebius inversion over all set partitions of the
points, an algorithm independent of the library's multiset recursion.

The inverse-direction oracles at the end run the library's dictionaries and
correspondence backwards, so a round trip through them checks the forward
direction the library uses.

:func:`conifold_polar_oracle` reads the conifold gap by substituting the
whole u-series, regular part included, into powers of u_inverse and
dividing by a power of u_inverse, all on plain lists; the library sums only
the polar terms against a table of negative powers.

:func:`pl_exp` and :func:`pl_log1p` sum the defining power series term by
term on Fractions; the library runs one coefficient recurrence each on
integer numerators over a running common denominator.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import factorial

from localp2.elliptic import npoint_disconnected
from localp2.locrel import f1_empty_qseries, f1_relative_series
from localp2.mirror import BModElement


# -- plain-list truncated power series (index = exponent) ----------------------

def pl_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if not x:
            continue
        for j, y in enumerate(b[: order + 1 - i]):
            if y:
                out[i + j] += x * y
    return out


def pl_add(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i in range(order + 1):
        if i < len(a):
            out[i] += a[i]
        if i < len(b):
            out[i] += b[i]
    return out


def pl_compose(outer, inner, order):
    """Horner substitution; inner[0] must be 0."""
    assert not inner[0]
    out = [Fraction(0)] * (order + 1)
    out[0] = Fraction(outer[-1])
    for c in reversed(outer[:-1]):
        out = pl_mul(out, inner, order)
        out[0] += Fraction(c)
    return out


def pl_long_division(a, b, order):
    """a/b with b[0] != 0."""
    out = [Fraction(0)] * (order + 1)
    for k in range(order + 1):
        acc = Fraction(a[k]) if k < len(a) else Fraction(0)
        for j in range(k):
            if j < len(out) and k - j < len(b):
                acc -= out[j] * b[k - j]
        out[k] = acc / b[0]
    return out


def pl_exp(f, order):
    """exp(f) as sum_k f^k / k!, f[0] == 0, by repeated pl_mul."""
    assert not f[0]
    out, term = [Fraction(0)] * (order + 1), [Fraction(1)] + [Fraction(0)] * order
    for k in range(order + 1):  # term = f^k / k!, zero below q^k
        out = pl_add(out, term, order)
        term = [c / (k + 1) for c in pl_mul(term, f, order)]
    return out


def pl_log1p(g, order):
    """log(1 + g) as sum_k (-1)^(k+1) g^k / k, g[0] == 0."""
    assert not g[0]
    out, power = [Fraction(0)] * (order + 1), list(g)
    for k in range(1, order + 1):  # power = g^k, zero below q^k
        out = pl_add(out, [(-1) ** (k + 1) * c / k for c in power], order)
        power = pl_mul(power, g, order)
    return out


@lru_cache(maxsize=None)
def pl_powers(base: tuple, order: int, top: int) -> tuple:
    """base**k for k = 0..top, each a plain list through ``order``."""
    out = [[Fraction(1)] + [Fraction(0)] * order]
    for _ in range(top):
        out.append(pl_mul(out[-1], list(base), order))
    return tuple(out)


# -- conifold gap ----------------------------------------------------------------

def conifold_polar_oracle(elt, frame, max_pole: int) -> list:
    """The that^-j coefficients, j = max_pole..1, of a weight-zero
    BModElement with S -> frame.s_con and X -> 1/u, re-expanded in the
    flat conifold coordinate: multiply by u^D to clear every pole,
    substitute u = u_inverse into the whole power series, and divide by
    u_inverse^D."""
    assert elt.i11_degree == 0
    assert frame.s_con.valuation() >= -1
    D = max([max_pole] + [s + x for s, x in elt.terms])
    order = min(frame.s_con.trunc_order + 1, frame.u_inverse.trunc_order)
    # the quotient by u_inverse^D is known through that^(order - 2D)
    assert 2 * D - 1 <= order, "too few orders to read that^-1"
    w = tuple(frame.s_con.coeff(k - 1) for k in range(order + 1))  # u s_con
    w_pows = pl_powers(w, order, elt.deg_S())
    regular = [Fraction(0)] * (order + 1)  # u^D times the u-series
    for (s, x), v in elt.terms.items():
        e = D - s - x
        for i, c in enumerate(w_pows[s][: order + 1 - e]):
            regular[i + e] += v * c
    u_pows = pl_powers(tuple(frame.u_inverse.coeff_list(0, order)), order,
                       order)
    num = [sum((regular[k] * u_pows[k][i] for k in range(i + 1)), Fraction(0))
           for i in range(order + 1)]
    # u_inverse^D = that^D h with h a unit
    quotient = pl_long_division(num, u_pows[D][D:], order - D)
    return [quotient[D - j] for j in range(max_pole, 0, -1)]


# -- number theory -------------------------------------------------------------

def sigma(n: int, k: int) -> int:
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def bernoulli_list(n: int):
    """B_0..B_n via the defining recurrence (B_1 = -1/2)."""
    B = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += Fraction(factorial(m + 1), factorial(j) * factorial(m + 1 - j)) * B[j]
        B.append(-acc / (m + 1))
    return B


def eisenstein_oracle(k: int, order: int):
    """E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n for even k."""
    B = bernoulli_list(k)
    out = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        out[n] = -Fraction(2 * k, 1) / B[k] * sigma(n, k - 1)
    return out


# -- hypergeometric closed form for the degree-one period ----------------------

def ibar1_coeff(k: int) -> Fraction:
    return 3 * Fraction(factorial(3 * k - 1), factorial(k) ** 3) * (-1) ** k


# -- exhaustive enumeration of correspondence terms ----------------------------

def enumerate_corr_terms_oracle(g: int):
    """All (h, multiset of legs (a, g_j)) with h + sum g_j = g,
    sum a_j = 2h - 2, (a_j, g_j) != (0, 0), by exhaustive search."""
    results = set()
    for h in range(1, g + 1):
        budget_a = 2 * h - 2
        budget_g = g - h
        legs_pool = [(a, gg) for a in range(budget_a + 1)
                     for gg in range(budget_g + 1) if (a, gg) != (0, 0)]

        def rec(start, rem_a, rem_g, acc):
            if rem_a == 0 and rem_g == 0:
                results.add((h, tuple(sorted(acc))))
                return
            for idx in range(start, len(legs_pool)):
                a, gg = legs_pool[idx]
                if a <= rem_a and gg <= rem_g:
                    rec(idx, rem_a - a, rem_g - gg, acc + [(a, gg)])

        rec(0, budget_a, budget_g, [])
    return sorted(results)


# -- partitions and the Bloch-Okounkov partition sum ---------------------------

def partitions_of(n: int):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in partitions_of(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def _exp_list(c: Fraction, zorder: int):
    """exp(c*z) truncated: list of coefficients in z."""
    out = []
    p = Fraction(1)
    for k in range(zorder + 1):
        out.append(p)
        p = p * c / (k + 1)
    return out


def _inv_2sinh_half(zorder: int):
    """1/(2 sinh(z/2)) = z^{-1} * unit; returns (offset -1, coeffs)."""
    # 2 sinh(z/2) = sum_{m>=0} 2 (z/2)^{2m+1} / (2m+1)!
    s = [Fraction(0)] * (zorder + 2)
    for m in count(0):
        e = 2 * m + 1
        if e > zorder + 1:
            break
        s[e] = 2 * Fraction(1, 2 ** e) / factorial(e)
    unit = s[1:]  # series with constant term 1
    inv = pl_long_division([Fraction(1)], unit, zorder)
    return inv  # coefficient of z^{k-1} is inv[k]


def bloch_okounkov_npoint_oracle(exponents, qorder):
    """Coefficient of prod z_j^{e_j} in the disconnected n-point function,
    as a q-series list, via the partition sum

        prod_m (1-q^m) * sum_lambda q^|lambda| prod_j B_lambda(z_j)

    with B_lambda(z) = 1/(2 sinh(z/2))
                       + sum_i (e^{(lambda_i - i + 1/2) z} - e^{(-i + 1/2) z}).

    This is the algorithm of ``localp2.elliptic.disconnected_coefficient``; here
    the z-series are expanded term by term instead of by the closed form.
    It is not independent of the library: the independent checks are the
    one-point identity F_1 * Theta = 1 against ``theta_z`` (Eisenstein
    series) and the pinned Q[E2, E4, E6] values in ``test_elliptic.py``.
    """
    n = len(exponents)
    zorder = max(max(exponents) + 1, 1)

    inv2s = _inv_2sinh_half(zorder)  # inv2s[k] multiplies z^{k-1}

    def b_lambda(lam):
        vals = [Fraction(0)] * (zorder + 1)  # coefficient of z^{e}, e = -1..zorder-1
        for k, c in enumerate(inv2s):
            vals[k] += c
        for i, part in enumerate(lam, start=1):
            a = _exp_list(Fraction(2 * (part - i) + 1, 2), zorder)
            b = _exp_list(Fraction(-2 * i + 1, 2), zorder)
            for k in range(zorder):
                vals[k + 1] += a[k] - b[k]
        return vals  # vals[e+1] = coeff of z^e

    out = [Fraction(0)] * (qorder + 1)
    for d in range(qorder + 1):
        tot = Fraction(0)
        for lam in partitions_of(d):
            bl = b_lambda(lam)
            prod = Fraction(1)
            for e in exponents:
                prod *= bl[e + 1]
            tot += prod
        out[d] = tot
    # multiply by prod (1 - q^m) (Euler function)
    euler = [Fraction(0)] * (qorder + 1)
    euler[0] = Fraction(1)
    for m in range(1, qorder + 1):
        nxt = euler[:]
        for i in range(qorder + 1 - m):
            nxt[i + m] -= euler[i]
        euler = nxt
    return pl_mul(out, euler, qorder)


def set_partitions(items):
    """Every partition of the list ``items`` into blocks, as lists of lists."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def connected_coefficient_oracle(exps, qorder):
    """Coefficient of prod z_j^{e_j} in the connected n-point function, as a
    q-series list, by Moebius inversion over all set partitions of the n
    points: the sum over partitions pi of (-1)^(|pi|-1) (|pi|-1)! times the
    product of the disconnected functions of the blocks of pi.

    The disconnected functions come from ``npoint_disconnected``; the
    inversion shares nothing with the multiset recursion of
    ``localp2.elliptic.connected_coefficient``.
    """
    total = [Fraction(0)] * (qorder + 1)
    for part in set_partitions(list(range(len(exps)))):
        k = len(part)
        term = [Fraction((-1) ** (k - 1) * factorial(k - 1))]
        for block in part:
            sub = tuple(sorted((exps[i] for i in block), reverse=True))
            series = npoint_disconnected(len(sub), sum(sub), qorder)[sub]
            term = pl_mul(term, series.coeff_list(0, qorder), qorder)
        total = pl_add(total, term, qorder)
    return total


# -- inverse directions ----------------------------------------------------------

def qmod_to_bmod(e):
    """The inverse of ``mirror.bm_to_qmod``: A -> I11,
    B -> I11^2 (1 + 6S/X), C -> I11^3/X, and C^-p -> X^p / I11^(3p)."""
    b_image = BModElement(-2, {(0, 0): 1, (1, -1): 6})
    out = BModElement.zero()
    for (a, b, c), v in e.terms.items():
        out = out + BModElement(-(a + 3 * c), {(0, -c): v}) * b_image ** b
    return out * BModElement(3 * e.c_pole, {(0, e.c_pole): 1})


def solve_local(corr, g: int, relative_side=None):
    """The inverse of ``Correspondence.solve_relative``: the local series
    (-1)^g relative + corrections, the relative one defaulting to the
    closed form (genus 1) or the solved tower (genus >= 2)."""
    if g == 1:
        if relative_side is None:
            relative_side = f1_relative_series(corr.md)
        return f1_empty_qseries(corr.md) - relative_side
    if relative_side is None:
        relative_side = corr.relative.elements[g]
    else:
        corr.relative.set_genus(g, relative_side)
    return relative_side * Fraction((-1) ** g) + corr.corrections_sum(g)
