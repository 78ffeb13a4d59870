"""The genus-g correspondence between local and maximal-contact relative
Gromov-Witten series.

The local series at genus g equals (-1)^g times the relative series plus
correction terms indexed by a genus h on the elliptic factor and a multiset
of legs (a_j, g_j) != (0, 0) with sum a_j = 2h - 2 and h + sum g_j = g.
The terms are summed by elliptic label (h, A), A the multiset of the a_j
with multiplicities m_a; the terms of one label, over their leg genera, sum
to

    (-1)^(h-1) F^E_(h,A) / prod_a m_a! * [hbar^(g-h)] prod_(a in A) T_a(hbar),

    T_a(hbar) = sum_g' (-1)^(g'-1) D^(a+2) F_g' hbar^g'   (no g' = 0 at a = 0)

with D = 3 Q d/dQ and all leg factors taken on the relative side; this holds
because the automorphisms of the legs factor over a.  The relation is
triangular in the genus and solved in either direction.

Both towers are edges of one grid of derivatives keyed by (n, g), the
refined free energy F^(n,g): the local tower is F^(0,g) and the relative
one the Nekrasov-Shatashvili edge F^(g,0).  Genus 0 and 1 enter the leg
products only through closed-form derivative seeds; the genus-1 series
themselves carry log slots and are handled at the series level.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial, prod

from . import elliptic
from .graded import evaluate
from .mirror import (
    BModElement,
    MirrorData,
    bm_derive_D,
    bm_eval,
    cq_change,
    q_to_Q,
)
from .series import Localp2Error, Powers, RatSeries

F = Fraction


# -- the derivative grid and its two towers -------------------------------------------

# D^3 of the genus-0 series: -9 X / I11^3
D3F0 = BModElement.monomial(-9, 0, 1, i11_degree=3)

# D of the genus-1 series: F^(0,1), the local one, and F^(1,0), the relative
DF1_LOCAL = BModElement(1, {(1, 0): F(-3, 2), (0, 1): F(-1, 4)})
DF1_RELATIVE = BModElement.monomial(F(-1, 8), 0, 1, i11_degree=1)


class DTower:
    """Cache of D-derivatives over the grid of elements F^(n,g), keyed by
    (n, g).  D^3 F^(0,0), D F^(0,1) and D F^(1,0) are closed-form seeds (the
    series with n + g <= 1 are not polynomial); elements with n + g >= 2
    are registered as they are solved."""

    def __init__(self):
        self._cache: dict[tuple, BModElement] = {
            ((0, 0), 3): D3F0, ((0, 1), 1): DF1_LOCAL, ((1, 0), 1): DF1_RELATIVE}
        self.elements: dict[tuple, BModElement] = {}

    def set_genus(self, key: tuple, elt: BModElement):
        self.elements[key] = self._cache[key, 0] = elt

    def D(self, key: tuple, k: int) -> BModElement:
        """D^k F^key, from the seed (D^3 at n + g = 0, D at n + g = 1) or element."""
        if (key, k) not in self._cache:
            if k <= max(0, 3 - 2 * sum(key)):
                raise ValueError(f"D^{k} F^{key} is neither seeded nor solved")
            self._cache[key, k] = bm_derive_D(self.D(key, k - 1))
        return self._cache[key, k]


class Edge:
    """A tower as an edge of the grid: its genus-g series is F^(g * step)."""

    def __init__(self, grid: DTower, step: tuple):
        self.grid, self.step = grid, step

    def key(self, g: int) -> tuple:
        return self.step[0] * g, self.step[1] * g

    @property
    def elements(self) -> dict:
        """The solved elements of the edge, by genus."""
        return {sum(k): e for k, e in self.grid.elements.items() if k == self.key(sum(k))}

    def D(self, g: int, k: int) -> BModElement:
        return self.grid.D(self.key(g), k)


# -- elliptic values as polynomial elements ------------------------------------------

# E2, E4 and E6 at the cubed nome, rewritten through the generator dictionary
_E_BMOD = Powers(BModElement(-2, {(0, 0): 1, (1, -1): 4}),
                 BModElement(-4, {(0, 0): F(1, 9), (0, -1): F(8, 9)}),
                 BModElement(-6, {(0, 0): F(-1, 27), (0, -1): F(20, 27),
                                  (0, -2): F(8, 27)}))


def epoly_to_bmod(ep: elliptic.EPoly) -> BModElement:
    """A weight-w polynomial in E2, E4, E6 (at the cubed nome) becomes an
    element of I11-degree -w."""
    return evaluate(ep.terms, _E_BMOD)


# -- genus-1 series -------------------------------------------------------------------

def f1_local_series(md: MirrorData) -> RatSeries:
    """-(1/12) log q - (1/2) log I11 - (1/12) log(1 + 27q)."""
    log_1_27q = -(md.X.log())
    body = md.I11.log() * F(-1, 2) + log_1_27q * F(-1, 12)
    return body.with_log(F(-1, 12))


def f1_relative_series(md: MirrorData) -> RatSeries:
    """-(1/24) log q + (1/24) log(1 + 27q) = -(1/24) (log q + log X)."""
    return (md.X.log() * F(-1, 24)).with_log(F(-1, 24))


# Coefficient of log Q in the genus-1 unstable relative term,
# -(chi / 24) * r / (E.E): chi(P2) = 3, E.E = 9 and Q^E = Q^r with r = 3.
RELATIVE_LOG_COEFF = F(-1, 24)


# -- the correction sum by elliptic label ---------------------------------------------

def _hbar_mul(p: list, t: list) -> list:
    """The product of two hbar-polynomials, as coefficient lists, truncated
    to the length of p."""
    out = [BModElement.zero()] * len(p)
    for i, x in enumerate(p):
        for j, y in enumerate(t[:len(p) - i]):
            if x.terms and y.terms:
                out[i + j] += x * y
    return out


class Correspondence:
    """Holds the derivative grid, with the local and relative towers as its
    two edges, and sums the correction terms label by label."""

    def __init__(self, md: MirrorData):
        self.md = md
        self.grid = DTower()
        self.local, self.relative = Edge(self.grid, (0, 1)), Edge(self.grid, (1, 0))

    def tower(self, kind: str) -> Edge:
        """The tower ``kind`` names, local or relative; no other kind exists."""
        if kind not in ("local", "relative"):
            raise ValueError(f"unknown kind {kind!r}")
        return getattr(self, kind)

    def correction_value(self, h: int, parts, legs: BModElement) -> BModElement:
        """The correction terms of the label (h, parts) summed over their leg
        genera, given ``legs``, the [hbar^(g-h)] coefficient of the T_a
        product over ``parts``."""
        ep = elliptic.stationary_value(h, parts)
        if ep.is_zero():
            return BModElement.zero()
        aut = prod(map(factorial, Counter(parts).values()))
        value = epoly_to_bmod(ep) * legs * F((-1) ** (h - 1), aut)
        if not value.is_zero() and value.i11_degree != 0:
            raise Localp2Error("correction term failed weight bookkeeping")
        return value

    def corrections_sum(self, g: int) -> BModElement:
        """All correction terms at genus g: a recursion over weakly
        decreasing parts shares the leg products of a common prefix and
        stops where the product vanishes."""
        if g < 2:
            raise ValueError("polynomial corrections start at genus 2")
        total = BModElement.zero()
        for h in range(1, g + 1):
            top = g - h
            # T[a][g'] is the hbar^g' coefficient of T_a (module docstring)
            T = [[BModElement.zero() if a == gg == 0 else
                  self.relative.D(gg, a + 2) * (-1) ** (gg + 1)
                  for gg in range(top + 1)] for a in range(2 * h - 1)]

            def rec(parts, rem, poly):
                nonlocal total
                if not any(c.terms for c in poly):
                    return
                if rem == 0 and poly[top].terms:
                    total += self.correction_value(h, parts, poly[top])
                # the next part, smallest first (genus 7 peaks 1 MB lower
                # than largest first); zero parts come last, once the others
                # sum to 2h - 2
                largest = min(parts[-1], rem) if parts else rem
                for a in range(1, largest + 1) if rem else (0,):
                    rec(parts + (a,), rem - a, _hbar_mul(poly, T[a]))

            rec((), 2 * h - 2, [BModElement.const(1)] + [BModElement.zero()] * top)
        return total

    # -- solving in either direction ------------------------------------------------

    def solve_relative(self, g: int, local_side) -> "BModElement | RatSeries":
        """Relative series from the local one: (-1)^g (local - corrections).

        Genus 1 takes and returns log-extended q-series; genus >= 2 is
        polynomial, and the result is registered in the relative tower.
        """
        if g == 1:
            out = cq_change(elliptic.f1_empty(self.md.order), self.md) - local_side
            if out.log_coeff != RELATIVE_LOG_COEFF:
                raise Localp2Error(f"genus-1 log slots do not balance: got "
                                   f"{out.log_coeff}, want {RELATIVE_LOG_COEFF}")
            return out
        rel = (local_side - self.corrections_sum(g)) * F((-1) ** g)
        self.grid.set_genus(self.relative.key(g), rel)
        return rel


# -- reading a solved tower ----------------------------------------------------------

def genus_series(corr: Correspondence, g: int, side: str) -> RatSeries:
    """The genus-g series of ``side`` in q, g >= 1: the log-extended genus-1
    series (the relative one solved from the local), or the solved element
    expanded."""
    tower = corr.tower(side)
    if g != 1:
        return bm_eval(tower.elements[g], corr.md)
    local = f1_local_series(corr.md)
    return local if tower is corr.local else corr.solve_relative(1, local)


def flat_expansion(corr: Correspondence, g: int, side: str) -> RatSeries:
    """The genus-g series of ``side`` in the flat coordinate Q: at genus 0
    the Q-expansion of D^3 F_0 with its degree-d coefficient divided by
    27 d^3 (the same on both sides), else ``genus_series`` through q -> Q."""
    if g >= 1:
        return q_to_Q(genus_series(corr, g, side), corr.md)
    corr.tower(side)  # the side is checked at every genus
    d3 = bm_eval(D3F0, corr.md, target="Q")
    return RatSeries("Q", 0, [F(0)] + [d3.coeff(d) / (27 * d ** 3)
                                       for d in range(1, d3.trunc_order + 1)])
