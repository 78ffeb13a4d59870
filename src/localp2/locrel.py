"""The genus-g correspondence between local and maximal-contact relative
Gromov-Witten series.

The local series at genus g equals (-1)^g times the relative series plus
correction terms indexed by a genus h on the elliptic factor and a multiset
of legs (a_j, g_j) != (0, 0) with sum a_j = 2h - 2 and h + sum g_j = g;
each term contributes

    (-1)^(h-1) F^E_(h,a) / |Aut| * prod_j (-1)^(g_j - 1) D^(a_j + 2) F_(g_j)

with D = 3 Q d/dQ and all leg factors taken on the relative side.  The
relation is triangular in the genus and solved in either direction.

Genus 0 and 1 enter the leg products only through closed-form derivative
seeds; the genus-1 series themselves carry log slots and are handled at the
series level.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from math import factorial, prod

from .elliptic import EPoly, f1_empty, stationary_value
from .graded import evaluate
from .mirror import (
    BModElement,
    BModError,
    MirrorData,
    bm_derive_D,
    bm_eval,
    cq_change,
    q_to_Q,
)
from .series import RatSeries, SeriesError

F = Fraction


# -- correction-term enumeration ----------------------------------------------------

# legs: the sorted tuple of (a_j, g_j), each != (0, 0)
CorrTerm = namedtuple("CorrTerm", "h legs aut_order")


def _aut_order(legs) -> int:
    return prod(map(factorial, Counter(legs).values()))


def enumerate_terms(g: int):
    """All correction terms at genus g, as a duplicate-free sorted tuple.

    Recursion over nondecreasing leg sequences; the empty-leg term exists
    only for h = 1 (so only at g = 1, carrying the unmarked elliptic
    series).
    """
    if g < 1:
        return ()
    out = []
    for h in range(1, g + 1):
        rem_a, rem_g = 2 * h - 2, g - h

        def rec(min_leg, rem_a, rem_g, acc):
            if rem_a == 0 and rem_g == 0:
                if acc or h == 1:
                    out.append(CorrTerm(h, tuple(acc), _aut_order(acc)))
                return
            for a in range(rem_a + 1):
                for gg in range(rem_g + 1):
                    leg = (a, gg)
                    if leg == (0, 0) or leg < min_leg:
                        continue
                    rec(leg, rem_a - a, rem_g - gg, acc + [leg])

        rec((0, 0), rem_a, rem_g, [])
    return tuple(sorted(out, key=lambda t: (t.h, t.legs)))


# -- derivative towers ---------------------------------------------------------------

# D^3 of the genus-0 series: -9 X / I11^3
D3F0 = BModElement.monomial(-9, 0, 1, i11_degree=3)

# D of the genus-1 series: local and relative closed forms
DF1_LOCAL = BModElement(1, {(1, 0): F(-3, 2), (0, 1): F(-1, 4)})
DF1_RELATIVE = BModElement.monomial(F(-1, 8), 0, 1, i11_degree=1)


class DTower:
    """Cache of D-derivatives over a genus tower of polynomial elements.

    Genus 0 and 1 are seeded by closed forms (the genus <= 1 series
    themselves are not polynomial); genus >= 2 elements are registered as
    they are solved.
    """

    def __init__(self, df1_seed: BModElement):
        self._cache: dict[tuple, BModElement] = {(0, 3): D3F0, (1, 1): df1_seed}
        self.elements: dict[int, BModElement] = {}

    def set_genus(self, g: int, elt: BModElement):
        if g < 2:
            raise ValueError("genus 0 and 1 are closed-form seeds")
        self.elements[g] = elt
        self._cache[(g, 0)] = elt

    def D(self, g: int, k: int) -> BModElement:
        """D^k of the genus-g series."""
        if g == 0 and k < 3:
            raise BModError("genus-0 derivatives available from D^3 up")
        if g == 1 and k < 1:
            raise BModError("genus-1 series is not polynomial; use k >= 1")
        if g >= 2 and g not in self.elements:
            raise BModError(f"genus {g} not solved yet")
        key = (g, k)
        if key not in self._cache:
            self._cache[key] = bm_derive_D(self.D(g, k - 1))
        return self._cache[key]

    def QdQ(self, g: int, n: int) -> BModElement:
        """(Q d/dQ)^n = D^n / 3^n."""
        return self.D(g, n) * F(1, 3 ** n)


# -- elliptic values as polynomial elements ------------------------------------------

# E_k at the cubed nome, rewritten through the generator dictionary
_E2_BMOD = BModElement(-2, {(0, 0): 1, (1, -1): 4})
_E4_BMOD = BModElement(-4, {(0, 0): F(1, 9), (0, -1): F(8, 9)})
_E6_BMOD = BModElement(-6, {(0, 0): F(-1, 27), (0, -1): F(20, 27),
                            (0, -2): F(8, 27)})


def epoly_to_bmod(ep: EPoly) -> BModElement:
    """A weight-w polynomial in E2, E4, E6 (at the cubed nome) becomes an
    element of I11-degree -w."""
    return evaluate(ep.terms, [_E2_BMOD, _E4_BMOD, _E6_BMOD],
                    BModElement.const(1))


# -- genus-1 series -------------------------------------------------------------------

def f1_local_series(md: MirrorData) -> RatSeries:
    """-(1/12) log q - (1/2) log I11 - (1/12) log(1 + 27q)."""
    log_1_27q = -(md.X.log())
    body = md.I11.log() * F(-1, 2) + log_1_27q * F(-1, 12)
    return body.with_log(F(-1, 12))


def f1_relative_series(md: MirrorData) -> RatSeries:
    """-(1/24) log q + (1/24) log(1 + 27q)."""
    log_1_27q = -(md.X.log())
    body = log_1_27q * F(1, 24)
    return body.with_log(F(-1, 24))


# Coefficient of log Q in the genus-1 unstable relative term,
# -(chi / 24) * r / (E.E): chi(P2) = 3, E.E = 9 and Q^E = Q^r with r = 3.
RELATIVE_LOG_COEFF = F(-1, 24)


def f1_empty_qseries(md: MirrorData) -> RatSeries:
    """The unmarked genus-1 elliptic series converted to the q variable."""
    return cq_change(f1_empty(md.order), md)


# -- the correspondence abattoir ------------------------------------------------------

class Correspondence:
    """Holds the local and relative derivative towers and evaluates
    correction terms."""

    def __init__(self, md: MirrorData):
        self.md = md
        self.relative = DTower(DF1_RELATIVE)
        self.local = DTower(DF1_LOCAL)

    def tower(self, kind: str) -> DTower:
        return self.local if kind == "local" else self.relative

    def elliptic_factor(self, term: CorrTerm) -> BModElement:
        parts = [a for a, _ in term.legs]
        ep = stationary_value(term.h, parts)
        if ep.is_zero():
            return BModElement.zero()
        return epoly_to_bmod(ep)

    def correction_value(self, term: CorrTerm) -> BModElement:
        """The exact polynomial value of one correction summand."""
        if not term.legs:
            raise BModError("the empty-leg term is series-level data; "
                            "handled in the genus-1 solves")
        fe = self.elliptic_factor(term)
        if fe.is_zero():
            return BModElement.zero()
        value = fe * F((-1) ** (term.h - 1), term.aut_order)
        for a, gg in term.legs:
            value = value * self.relative.D(gg, a + 2)
            if (gg - 1) % 2:
                value = value * -1
        if not value.is_zero() and value.i11_degree != 0:
            raise BModError("correction term failed weight bookkeeping")
        return value

    def corrections_sum(self, g: int) -> BModElement:
        if g < 2:
            raise BModError("polynomial corrections start at genus 2")
        total = BModElement.zero()
        for term in enumerate_terms(g):
            total = total + self.correction_value(term)
        return total

    # -- solving in either direction ------------------------------------------------

    def solve_relative(self, g: int, local_side) -> "BModElement | RatSeries":
        """Relative series from the local one: (-1)^g (local - corrections).

        Genus 1 takes and returns log-extended q-series; genus >= 2 is
        polynomial, and the result is registered in the relative tower.
        """
        if g == 1:
            out = f1_empty_qseries(self.md) - local_side
            if out.log_coeff != RELATIVE_LOG_COEFF:
                raise SeriesError(f"genus-1 log slots do not balance: got "
                                  f"{out.log_coeff}, want {RELATIVE_LOG_COEFF}")
            return out
        rel = (local_side - self.corrections_sum(g)) * F((-1) ** g)
        self.relative.set_genus(g, rel)
        return rel


# -- flat-coordinate expansions -------------------------------------------------------

def genus0_flat_expansion(md: MirrorData) -> RatSeries:
    """Flat genus-0 series: the Q-expansion of D^3 F_0 with its degree-d
    coefficient divided by 27 d^3."""
    d3 = bm_eval(D3F0, md, target="Q")
    coeffs = [F(0)] * (d3.trunc_order + 1)
    for d in range(1, d3.trunc_order + 1):
        coeffs[d] = d3.coeff(d) / (27 * d ** 3)
    return RatSeries("Q", 0, coeffs)


def relative_flat_tower(corr: Correspondence, gmax: int) -> dict:
    """Flat Q-expansions of the relative series for genus 0..gmax, with
    genus >= 2 read from ``corr.relative``."""
    md = corr.md
    flat = {0: genus0_flat_expansion(md)}
    if gmax >= 1:
        flat[1] = q_to_Q(corr.solve_relative(1, f1_local_series(md)), md)
    for g in range(2, gmax + 1):
        flat[g] = bm_eval(corr.relative.elements[g], md, target="Q")
    return flat
