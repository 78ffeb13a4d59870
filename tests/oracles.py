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
dividing by a power of u_inverse, all on plain lists, with u_inverse from
:func:`pl_revert`, which solves f(g(v)) = v one coefficient at a time by
composition; the library does not revert the flat coordinate: it reads
each pole of the polar u-terms from powers of it by Lagrange inversion.

:func:`pl_exp` and :func:`pl_log1p` sum the defining power series term by
term on Fractions; the library runs one coefficient recurrence each on
integer numerators over a running common denominator.

:func:`pl_mirror_op_u` applies the mirror operator in u on plain lists,
one theta at a time, and :func:`pl_log_companion_residual` applies the
Picard-Fuchs operator in q to the log-companion period the same way; the
library reads both periods and the flat coordinate from hypergeometric
closed forms.

:func:`solve_unique_oracle` decides solvability by ranks of row echelon
forms on Fractions and solves by back substitution; the library runs an
integer Gauss-Jordan elimination.

:func:`eta_quotient_oracle` multiplies and divides by the factors
(1 - q^(m n)) one at a time; the library builds C from Borwein's b(q).

:func:`theta_product_oracle` multiplies out the Jacobi triple product of
Theta(z) factor by factor; the library sums an exponential of Eisenstein
series.

:func:`gv_multicover` sums the Gopakumar-Vafa multicover formula over a
table of the integers n^g_d of local P^2 through degree 5, which the
topological vertex gives; the library solves its local tower by the
anomaly equation and the conifold gap.

:func:`anomaly_terms_by_position` sums the loop, splitting and gluing
terms of the curve's anomaly equation over points, pairs of points and
subsets of points; the library sums them over the label's values and
their multiplicities, and over sub-multisets.

:func:`divisor_mismatches` checks the divisor equation on elliptic
labels: a zero part is D = q d/dq of the label without it, with D the
Ramanujan derivation applied term by term to plain dicts of E2/E4/E6
monomials (:func:`ramanujan_derivative`); the library recognizes every
label from its own q-bracket and never differentiates one.

:func:`gamma_local` and :func:`gamma_relative` are the closed forms of the
gap coefficients of the two towers, from Bernoulli numbers; the library
reads every gap coefficient of the (n, g) grid from the Schwinger integrand,
and the towers are its edges (0, g) and (g, 0).

:func:`ns_column_oracle` expands the free-energy column in hbar by a
cosine sum and a long division by the sine; the library reads each genus
row from Bernoulli numbers in z = i k hbar, building no series.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import comb, factorial, prod

from localp2.elliptic import (EPoly, StationaryLabel, connected_extract, f1_empty,
                              npoint_disconnected, stationary_value)
from localp2.locrel import epoly_to_bmod, f1_relative_series
from localp2.mirror import BModElement, cq_change


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


@lru_cache(maxsize=None)
def pl_revert(f: tuple, order: int) -> tuple:
    """The compositional inverse g of f = f1 v + O(v^2), f1 != 0, through
    v^order: each g_k (k >= 2) is the one that clears the v^k coefficient
    of f(g(v)) - v, substituted by pl_compose."""
    assert not f[0] and f[1]
    g = [Fraction(0), 1 / Fraction(f[1])] + [Fraction(0)] * (order - 1)
    for k in range(2, order + 1):
        g[k] = -pl_compose(list(f[: k + 1]), g[: k + 1], k)[k] / f[1]
    return tuple(g)


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


# -- the Picard-Fuchs operators on plain lists ----------------------------------

def pl_mirror_op_u(c: list) -> list:
    """theta^3 + 3 q theta (3 theta + 1)(3 theta + 2), theta = (u - 1) d/du
    and q = (u - 1)/27, on the u^0..u^n coefficients of a power series:
    its u^0..u^(n-3) coefficients, one list pass per theta."""
    def theta(f):
        return [m * f[m] - (m + 1) * f[m + 1] for m in range(len(f) - 1)]

    t1 = theta(c)
    t2 = theta(t1)
    t3 = theta(t2)
    inner = [9 * t3[m] + 9 * t2[m] + 2 * t1[m] for m in range(len(t3))]
    # 3 q g = (u - 1) g / 9
    return [t3[m] + (Fraction(inner[m - 1] if m else 0) - inner[m]) / 9
            for m in range(len(t3))]


def pl_log_companion_residual(i11: list, j: list) -> list:
    """L J + 2 (1 + 27q) theta I11 + 27 q I11 with L = theta^2 + 3 q (3 theta
    + 1)(3 theta + 2), theta = q d/dq, on the q^0..q^n coefficients of I11
    and J: its q^0..q^(n-2) coefficients, zero when I11 log q + J solves L."""
    def theta(f):
        return [k * x for k, x in enumerate(f)]

    def times_q(f):
        return [0] + f[:-1]

    t1 = theta(j)
    t2 = theta(t1)
    inner = [9 * a + 9 * b + 2 * c for a, b, c in zip(t2, t1, j)]
    lj = [a + 3 * b for a, b in zip(t2, times_q(inner))]
    ti = theta(i11)
    rest = [2 * (a + 27 * b) + 27 * c
            for a, b, c in zip(ti, times_q(ti), times_q(i11))]
    return [a + b for a, b in zip(lj, rest)][:len(j) - 2]


# -- conifold gap ----------------------------------------------------------------

def conifold_polar_oracle(elt, md, max_pole: int) -> list:
    """The that^-j coefficients, j = max_pole..1, of a weight-zero
    BModElement with S -> md.s_con and X -> 1/u, re-expanded in the
    flat conifold coordinate: multiply by u^D to clear every pole,
    substitute u = u_inverse, the pl_revert of md.that, into the whole
    power series, and divide by u_inverse^D."""
    assert elt.i11_degree == 0
    assert md.s_con.valuation() >= -1
    D = max([max_pole] + [s + x for s, x in elt.terms])
    order = min(md.s_con.trunc_order + 1, md.that.trunc_order)
    # the quotient by u_inverse^D is known through that^(order - 2D)
    assert 2 * D - 1 <= order, "too few orders to read that^-1"
    w = tuple(md.s_con.coeff(k - 1) for k in range(order + 1))  # u s_con
    w_pows = pl_powers(w, order, elt.deg_S())
    regular = [Fraction(0)] * (order + 1)  # u^D times the u-series
    for (s, x), v in elt.terms.items():
        e = D - s - x
        for i, c in enumerate(w_pows[s][: order + 1 - e]):
            regular[i + e] += v * c
    u_inverse = pl_revert(tuple(md.that.coeff_list(0, order)), order)
    u_pows = pl_powers(u_inverse, order, order)
    num = [sum((regular[k] * u_pows[k][i] for k in range(i + 1)), Fraction(0))
           for i in range(order + 1)]
    # u_inverse^D = that^D h with h a unit
    quotient = pl_long_division(num, u_pows[D][D:], order - D)
    return [quotient[D - j] for j in range(max_pole, 0, -1)]


# -- exact linear systems --------------------------------------------------------

def _echelon(rows) -> list:
    """The nonzero rows of a row echelon form, by Fraction elimination
    below each pivot."""
    rows = [[Fraction(x) for x in r] for r in rows]
    done = []
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in rows if r[c]), None)
        if piv is None:
            continue
        rows.remove(piv)
        rows = [[a - r[c] / piv[c] * b for a, b in zip(r, piv)] for r in rows]
        done.append(piv)
    return done


def solve_unique_oracle(rows, rhs):
    """The unique solution of rows * x = rhs, or the message of the first
    failure met column by column: "rank deficient system" once a column
    has no row left, "rank deficient at column c" for the first column in
    the span of those before it, then "inconsistent system" when the
    augmented matrix has the larger rank.  Ranks by row echelon form, the
    solution by back substitution."""
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        if c == len(rows):
            return "rank deficient system"
        if len(_echelon([r[:c + 1] for r in rows])) <= c:
            return f"rank deficient at column {c}"
    ech = _echelon([list(r) + [v] for r, v in zip(rows, rhs)])
    if len(ech) > ncols:
        return "inconsistent system"
    x = [Fraction(0)] * ncols
    for c in range(ncols - 1, -1, -1):
        r = ech[c]
        x[c] = (r[-1] - sum(r[j] * x[j] for j in range(c + 1, ncols))) / r[c]
    return x


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


def gamma_local(g: int) -> Fraction:
    """Gap coefficient of 1/t^(2g-2) for the local series (standard t)."""
    return bernoulli_list(2 * g)[2 * g] / (2 * g * (2 * g - 2))


def gamma_relative(g: int) -> Fraction:
    """Gap coefficient of 1/t^(2g-2) for the relative series (standard t)."""
    b = abs(bernoulli_list(2 * g)[2 * g])
    return -Fraction(2 ** (2 * g - 1) - 1, 2 ** (2 * g - 1)) * b / \
        (2 * g * (2 * g - 1) * (2 * g - 2))


def refined_degree_one(G: int) -> dict:
    """[Q^1] F^(n,g), n + g = G, of local P^2, whose only degree-1 refined
    BPS state has (jL, jR) = (0, 1): the coefficients of
    (e1 + e2)^(2n) (e1 e2)^(g-1) in (1 + 2 cosh(e1 + e2)) / (4 sinh(e1/2)
    sinh(e2/2)) = A(e1) A(e2) (1 + 2 cosh(e1 + e2)) / (e1 e2), with
    A(z) = z / (2 sinh(z/2)) by long division.  Its degree-2G part is
    multiplied out in e1, e2 and peeled into p^n q^g = (e1 + e2)^(2n)
    (e1 e2)^g from the top e1-degree down."""
    a = pl_long_division([1], [Fraction(1, 2 ** k * factorial(k + 1)) if k % 2 == 0
                               else 0 for k in range(2 * G + 1)], 2 * G)
    poly = Counter()
    for i in range(0, 2 * G + 1, 2):
        for j in range(0, 2 * G + 1 - i, 2):
            m = 2 * G - i - j
            cosh = Fraction(2, factorial(m)) + (m == 0)
            for t in range(m + 1):
                poly[i + t, j + m - t] += a[i] * a[j] * cosh * comb(m, t)
    out = {}
    for n in range(G, -1, -1):
        out[n, G - n] = c = poly[G + n, G - n]
        for t in range(2 * n + 1):
            poly[t + G - n, 2 * n - t + G - n] -= c * comb(2 * n, t)
    assert not any(poly.values())
    return out


def eisenstein_oracle(k: int, order: int):
    """E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n for even k."""
    B = bernoulli_list(k)
    out = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        out[n] = -Fraction(2 * k, 1) / B[k] * sigma(n, k - 1)
    return out


def eta_quotient_oracle(spec, order: int) -> list:
    """q^0..q^order of prod eta(m tau)^e for (m, e) pairs in ``spec``, one
    factor (1 - q^(m n)) at a time; the prefactor q^(sum m e / 24) must be
    a non-negative integer power."""
    pref24 = sum(m * e for m, e in spec)
    if pref24 % 24 or pref24 < 0:
        raise ValueError("eta quotient prefactor is not a power q^n, n >= 0")
    out = [1] + [0] * order
    for m, e in spec:
        for n in range(1, order // m + 1):
            k = m * n
            for _ in range(abs(e)):
                if e > 0:  # times (1 - q^k), from the top down
                    for i in range(order, k - 1, -1):
                        out[i] -= out[i - k]
                else:  # over (1 - q^k), from the bottom up
                    for i in range(k, order + 1):
                        out[i] += out[i - k]
    shift = pref24 // 24
    return ([0] * shift + out)[: order + 1]


# -- the Nekrasov-Shatashvili free energy ---------------------------------------

def ns_column_oracle(poly: dict, k: int, order: int) -> list:
    """Omega(e^(i k hbar/2)) / (2 sin(k hbar/2)) / k^2 for a palindromic
    {half-exponent: coefficient} table: the coefficients of
    hbar^-1..hbar^order.  The numerator is the cosine sum
    sum_e c_e cos(e k hbar/2), the denominator 2 sin(k hbar/2) / hbar."""
    num = [Fraction(0)] * (order + 2)
    den = [Fraction(0)] * (order + 2)
    for j in range(0, order + 2, 2):
        num[j] = sum((c * Fraction(e * k, 2) ** j for e, c in poly.items()),
                     Fraction(0)) * (-1) ** (j // 2) / factorial(j)
        den[j] = 2 * (-1) ** (j // 2) * Fraction(k, 2) ** (j + 1) / factorial(j + 1)
    return [c / k ** 2 for c in pl_long_division(num, den, order + 1)]


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


def corrections_sum_oracle(corr, g: int):
    """``Correspondence.corrections_sum`` one term at a time: each term
    (h, legs) of ``enumerate_corr_terms_oracle`` is (-1)^(h-1) F^E_(h,a) /
    |Aut| times prod_j (-1)^(g_j - 1) D^(a_j + 2) F_(g_j), with |Aut| the
    product of the factorials of the leg multiplicities."""
    total = BModElement.zero()
    for h, legs in enumerate_corr_terms_oracle(g):
        aut = prod(factorial(m) for m in Counter(legs).values())
        term = epoly_to_bmod(stationary_value(h, [a for a, _ in legs]))
        term = term * Fraction((-1) ** (h - 1), aut)
        for a, gj in legs:
            term = term * corr.relative.D(gj, a + 2) * (-1) ** (gj + 1)
        total = total + term
    return total


# -- the divisor equation on Q[E2, E4, E6] ---------------------------------------

# (c2, c4, c6) of the Ramanujan derivation D = q d/dq: D E2 = (E2^2 - E4)/c2,
# D E4 = (E2 E4 - E6)/c4 and D E6 = (E2 E6 - E4^2)/c6
RAMANUJAN = (12, 3, 2)


def ramanujan_derivative(terms: dict, consts=RAMANUJAN) -> dict:
    """D of sum v E2^a E4^b E6^c, given as {(a, b, c): v}, by the Leibniz
    rule: each factor's derivative is E2 times it, over its constant, less
    one other monomial."""
    c2, c4, c6 = consts
    out = {}
    for (a, b, c), v in terms.items():
        for key, w in (((a + 1, b, c), Fraction(a, c2) + Fraction(b, c4)
                        + Fraction(c, c6)),
                       ((a - 1, b + 1, c), Fraction(-a, c2)),
                       ((a, b - 1, c + 1), Fraction(-b, c4)),
                       ((a, b + 2, c - 1), Fraction(-c, c6))):
            if w:
                out[key] = out.get(key, 0) + v * w
    return {key: v for key, v in out.items() if v}


def divisor_mismatches(value, gmax: int, consts=RAMANUJAN) -> list:
    """The labels (h, parts) with a zero part, among those the correction
    sums of genus 2..gmax read, at which ``value(h, parts)``, an
    {(a, b, c): coefficient} dict, is not D of the value without one zero;
    the value of (1, (0,)) must be -E2/24."""
    labels = {(h, tuple(sorted((a for a, _ in legs), reverse=True)))
              for g in range(2, gmax + 1)
              for h, legs in enumerate_corr_terms_oracle(g)}
    return [(h, parts) for h, parts in sorted(labels) if parts[-1] == 0
            and value(h, parts) != ({(1, 0, 0): Fraction(-1, 24)}
                                    if parts == (0,) else
                                    ramanujan_derivative(value(h, parts[:-1]),
                                                         consts))]


# -- the curve's anomaly equation, summed by position ---------------------------

def anomaly_terms_by_position(h: int, parts: tuple) -> dict:
    """The report of ``localp2.acceptance.elliptic_hae_check`` for the label,
    with loop, splitting and gluing summed over single points, ordered
    pairs of points and subsets of points: 2^n n^2 products for n points.
    The left side is the label's recognized value."""
    parts = tuple(sorted(parts, reverse=True))
    n = len(parts)

    def without(idx):
        return [a for i, a in enumerate(parts) if i not in idx]

    lhs = connected_extract(StationaryLabel(h, parts)).value.partial("E2") * (-24)
    loop = EPoly.zero()
    for i in range(n):
        for j in range(n):
            if i == j:
                new = without({i}) + [parts[i] - 2]
            else:
                new = without({i, j}) + [parts[i] - 1, parts[j] - 1]
            loop = loop + stationary_value(h - 1, new)
    if (h, parts) == (1, (0,)):
        # the unstable genus-zero three-point value contributes 1
        loop = loop + 1

    split = EPoly.zero()
    for mask in range(1, (1 << n) - 1):
        I = [i for i in range(n) if mask >> i & 1]
        Ic = [i for i in range(n) if not mask >> i & 1]
        s1 = sum(parts[k] for k in I) - 1
        if s1 % 2:
            continue
        h1 = s1 // 2 + 1
        for i in I:
            left = stationary_value(h1, [parts[k] - (k == i) for k in I])
            for j in Ic:
                right = stationary_value(h - h1, [parts[k] - (k == j) for k in Ic])
                split = split + left * right

    glue = EPoly.zero()
    for i in range(n):
        for j in range(n):
            if i != j:
                glue = glue + comb(parts[i] + parts[j] + 1, parts[i]) * \
                    stationary_value(h, without({i, j}) + [parts[i] + parts[j]])

    rhs = loop + split - 2 * glue
    return {"label": (h, parts), "lhs": lhs, "rhs": rhs, "loop": loop,
            "split": split, "glue": glue, "ok": lhs == rhs}


# -- partitions and the Bloch-Okounkov partition sum ---------------------------

def partitions_of(n: int, largest: int | None = None):
    """The partitions of n with no part above ``largest`` (default n), as
    weakly decreasing tuples; every branch yields, so the time is linear
    in the output."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def anomaly_labels(gmax: int) -> list:
    """The nonempty labels (h, parts) with 1 <= h <= gmax whose nonzero
    parts are a partition of 2h - 2, followed by 0..gmax - h zero parts."""
    return [(h, nonzero + (0,) * zeros) for h in range(1, gmax + 1)
            for nonzero in partitions_of(2 * h - 2)
            for zeros in range(gmax - h + 1) if nonzero or zeros]


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


def theta_product_oracle(zdeg: int, qorder: int):
    """Bloch-Okounkov's Theta(z) from the Jacobi triple product,

        Theta(z) = 2 sinh(z/2) prod_{m>=1} (1 - q^m e^z)(1 - q^m e^-z) / (1 - q^m)^2,

    as plain lists ``out[z-degree][q-degree]`` through z^zdeg and q^qorder.
    The library builds Theta as z exp(sum B_2k/(2k (2k)!) E_2k z^2k) from
    Eisenstein series; this multiplies the factors out one at a time."""

    def zero_rows():
        return [[Fraction(0)] * (qorder + 1) for _ in range(zdeg + 1)]

    def mul(a, b):
        out = zero_rows()
        for i, row_a in enumerate(a):
            for j, row_b in enumerate(b[: zdeg + 1 - i]):
                out[i + j] = pl_add(out[i + j], pl_mul(row_a, row_b, qorder),
                                    qorder)
        return out

    out = zero_rows()  # 2 sinh(z/2) = sum over odd e of 2 (z/2)^e / e!
    for e in range(1, zdeg + 1, 2):
        out[e][0] = Fraction(2, 2 ** e * factorial(e))
    for m in range(1, qorder + 1):
        for sign in (1, -1):  # 1 - q^m e^(sign z)
            factor = zero_rows()
            factor[0][0] = Fraction(1)
            for j in range(zdeg + 1):
                factor[j][m] -= Fraction(sign ** j, factorial(j))
            out = mul(out, factor)
        # 1/(1 - q^m)^2 = sum_k (k + 1) q^(mk)
        inverse = zero_rows()
        for k in range(qorder // m + 1):
            inverse[0][m * k] = Fraction(k + 1)
        out = mul(out, inverse)
    return out


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


# -- Gopakumar-Vafa integers of local P^2 -------------------------------------

# n^g_d for d <= 5, from the topological vertex (Aganagic-Klemm-Marino-Vafa,
# The topological vertex, Commun. Math. Phys. 2005); every other n^g_d with
# d <= 5 is 0, as Castelnuovo's bound g <= (d - 1)(d - 2)/2 requires above it
GV_LOCAL_P2 = {(0, 1): 3, (0, 2): -6, (0, 3): 27, (0, 4): -192, (0, 5): 1695,
               (1, 3): -10, (1, 4): 231, (1, 5): -4452,
               (2, 4): -102, (3, 4): 15,
               (2, 5): 5430, (3, 5): -3672, (4, 5): 1386, (5, 5): -270,
               (6, 5): 21}


def gv_multicover(g: int, d: int) -> Fraction:
    """[Q^d] of the genus-g flat series that GV_LOCAL_P2 gives, d <= 5:
    sum_(k | d) k^(2g-3) sum_h n^h_(d/k) [x^(2g-2h)] (2 sin(x/2)/x)^(2h-2),
    the sine summed term by term and its power taken by repeated products
    (of its reciprocal, by long division, at h = 0)."""
    order = 2 * g
    sinc = [Fraction((-1) ** (i // 2), 2 ** i * factorial(i + 1)) if i % 2 == 0
            else Fraction(0) for i in range(order + 1)]
    total = Fraction(0)
    for k in (k for k in range(1, d + 1) if d % k == 0):
        for (h, e), n in GV_LOCAL_P2.items():
            if e != d // k or h > g:
                continue
            base = sinc if h else pl_long_division([1], sinc, order)
            power = pl_powers(tuple(base), order, abs(2 * h - 2))[-1]
            total += Fraction(k) ** (2 * g - 3) * n * power[2 * g - 2 * h]
    return total


def gv_mismatches(flat, gmax: int) -> list:
    """The cells (g, d), g = 0..gmax and d = 1..5, where ``flat(g)``, a
    genus-g flat series, differs from ``gv_multicover(g, d)`` in Q^d."""
    return [(g, d) for g in range(gmax + 1) for d in range(1, 6)
            if flat(g).coeff(d) != gv_multicover(g, d)]


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
        return cq_change(f1_empty(corr.md.order), corr.md) - relative_side
    if relative_side is None:
        relative_side = corr.relative.elements[g]
    else:
        corr.grid.set_genus((g, 0), relative_side)
    return relative_side * Fraction((-1) ** g) + corr.corrections_sum(g)
