"""Holomorphic anomaly solver on the (n, g) grid of the refined free energy,
the sum of (e1 + e2)^(2n) (e1 e2)^(g-1) F^(n,g): the local tower is its edge
F^(0,g) and the relative one its edge F^(g,0).  At each G = n + g >= 2,

    (X / 3 I11^2) dF^(n,g)/dS = 1/2 sum' F^(n1,g1)_1 F^(n2,g2)_1 + 1/2 F^(n,g-1)_2

with F_k = (Q d/dQ)^k F, the sum over (n1,g1) + (n2,g2) = (n,g) with neither
pair (0,0) and the loop term exactly when g >= 1, fixes the S-dependence;
the remaining ambiguity, in the span of X^0..X^(2G-2), is fixed by the
conifold gap: re-expanded in the conifold flat coordinate t (normalized
rationally; the standard coordinate is t/sqrt(3)), the solution has no 1/t^j
for j = 1..2G-3, the 1/t^(2G-2) coefficient that the Schwinger integrand
1/(4 sinh(s e1/2) sinh(s e2/2)) gives, and no constant term in its flat
Q-expansion.

The conifold frame replaces the propagator S by its conifold counterpart,
the mirror data's ``s_con``, which ``mirror.propagator`` builds from the
conifold flat coordinate as it builds S from the degree-one period at large
volume; X = 1/u stays an honest coordinate.  Nothing reverts t: the gap is
fixed in closed form on the u side, and a polar part in t is read from
powers of t in u by Lagrange inversion.  The powers of t and of the
conifold propagator are made only through the pole order a polar part
reads, never through the mirror order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial

from .locrel import Correspondence, DTower
from .mirror import BModElement, MirrorData
from .quasimod import inv_2sinh
from .series import Localp2Error, Powers, RatSeries, lincomb

F = Fraction


# -- boundary-condition constants ----------------------------------------------------

def gamma(n: int, g: int) -> Fraction:
    """Gap coefficient of 1/t^(2G-2), G = n + g, for F^(n,g) (standard t):
    (-1)^(G+1) (2G-3)! c_(n,g), where 1/(4 sinh(s e1/2) sinh(s e2/2)) = sum
    c_(n,g) p^n q^(g-1) s^(2G-2), p = (e1 + e2)^2, q = e1 e2.  Its s^(2G-2)
    part is sum_i b_i b_(G-i) e1^(2i) e2^(2G-2i) / q, b_i = [z^(2i-1)] 1/(2 sinh(z/2));
    a term and its mirror i -> G - i make q^(G-r) (e1^(2r) + e2^(2r)), whose p^n q^(r-n)
    coefficient, r = |G - 2i|, is (-1)^(r+n) (C(r+n, 2n) + C(r+n-1, 2n)), C(-1, 0) = 1."""
    G, c = n + g, F(0)
    for i in range(G + 1):
        r = abs(G - 2 * i)
        c += inv_2sinh(2 * i - 1) * inv_2sinh(2 * G - 2 * i - 1) * (-1) ** (r + n) \
            * (comb(r + n, 2 * n) + comb(max(r + n - 1, 0), 2 * n)) / 2
    return (-1) ** (G + 1) * factorial(2 * G - 3) * c


def gap_conditions(n: int, g: int) -> list:
    """The that^-1..that^-(2G-2) coefficients the gap prescribes: zeros, then
    gamma in the rational normalization, which rescales it by 3^(G-1)."""
    return [F(0)] * (2 * (n + g) - 3) + [3 ** (n + g - 1) * gamma(n, g)]


# -- anomaly right side ----------------------------------------------------------------

def hae_rhs(n: int, g: int, grid: DTower) -> BModElement:
    """Right side of the anomaly equation of F^(n,g): with F_k = D^k F / 3^k,
    (1/9)[1/2 sum' DF^(n1,g1) DF^(n2,g2) + 1/2 D^2 F^(n,g-1)] over (n1,g1) +
    (n2,g2) = (n,g), neither pair (0,0), the loop term exactly when g >= 1."""
    if n + g < 2:
        raise ValueError("anomaly solving starts at genus 2")
    total = BModElement.zero()
    for a in product(range(n + 1), range(g + 1)):
        b = (n - a[0], g - a[1])
        if (0, 0) < a <= b:  # the product for a stands for itself and for b
            term = grid.D(a, 1) * grid.D(b, 1)
            total = total + (term * F(1, 2) if a == b else term)
    if g:
        total = total + grid.D((n, g - 1), 2) * F(1, 2)
    return total * F(1, 9)


def integrate_S(rhs: BModElement) -> BModElement:
    """S-antiderivative of (3 I11^2 / X) * rhs with no S^0 terms: the
    particular solution, to which gap_fix adds the ambiguity."""
    if not rhs.is_zero() and rhs.i11_degree != 2:
        raise ValueError("anomaly right side must be I11-degree 2")
    return BModElement(0, {(s + 1, x - 1): 3 * v / (s + 1)
                           for (s, x), v in rhs.terms.items()})


# -- conifold frame ---------------------------------------------------------------------

def build_conifold_frame(md: MirrorData) -> MirrorData:
    """``md`` itself, which holds the conifold frame, ``that`` and ``s_con``."""
    # no library code calls it; it stays while perfbench/child.py calls it
    # and perfbench/tracer.py spans it (ROADMAP item 7)
    return md


def u_polar_part(elt: BModElement, md: MirrorData, max_pole: int) -> list:
    """[u^-1], ..., [u^-max_pole] of a weight-zero element with S -> s_con
    and X -> 1/u; a deeper pole raises Localp2Error.  S^s X^x goes to
    s_con^s u^-x, of which only the terms through u^-1 are read."""
    if elt.i11_degree != 0:
        raise ValueError("conifold expansion needs a weight-zero element")
    if elt.is_zero():
        return [F(0)] * max_pole
    # X^x -> u^-x, each term cut at u^-1: the regular part has no poles;
    # S^s X^x reads s_con^s through u^(x - 1), and s_con through u^r, r the
    # largest x + s - 1, makes s_con^s through u^(r - s + 1)
    r = max(0, max(x + s - 1 for s, x in elt.terms))
    s_con = md.s_con.truncate(min(r, md.s_con.trunc_order))
    s_con_pow = Powers(s_con)
    total = lincomb([(v, s_con_pow[s].truncate(x - 1).shift(-x))
                     for (s, x), v in elt.terms.items()])
    v = total.valuation()
    if v is not None and v < -max_pole:
        raise Localp2Error(f"conifold pole exceeds order {max_pole}")
    return [total.coeff(-j) for j in range(1, max_pole + 1)]


def conifold_expand(elt: BModElement, md: MirrorData,
                    max_pole: int) -> RatSeries:
    """Polar part, that^-max_pole..that^-1, of the Laurent expansion in the
    flat conifold coordinate of a weight-zero element with S -> s_con and
    X -> 1/u.  Only the u^-j have poles in that, and by Lagrange inversion
    [that^-i] u^-j = (j/i) [u^j] that^i, which is zero for j < i; that^i
    through the deepest u-pole is all that is read, and a pole deeper than
    ``that`` is known raises ValueError."""
    c = u_polar_part(elt, md, max_pole)
    deepest = max((j for j in range(1, max_pole + 1) if c[j - 1]), default=0)
    # that is stored from u^0, so its powers stop at u^deepest as it does
    that_pow = Powers(md.that.truncate(deepest))
    return RatSeries("that", -max_pole, [
        sum((j * c[j - 1] * that_pow[i].coeff(j)
             for j in range(i, deepest + 1) if c[j - 1]), F(0)) / i
        for i in range(max_pole, 0, -1)])


def least_q_order(G: int) -> int:
    """The least mirror order at which F^(n,g), n + g = G, is solved: 2G - 2.
    The gap reads u^-M..u^-1, M = 2G - 2, of the particular solution (s + x <= M)
    from s_con^s through u^(M - s - 1), and u^0..u^(M-1) of (u/that)^M;
    both need the flat coordinate through u^M, which the mirror data at
    order M have."""
    return 2 * G - 2


def q_constant_term(elt: BModElement, md: MirrorData) -> Fraction:
    """q^0 coefficient of ``bm_eval(elt, md)``.  Taking the constant term
    is a ring homomorphism on power series, so it is the element evaluated
    at the constant terms of S, X and I11; S vanishes at q = 0, so its
    positive powers are skipped."""
    s0, x0 = md.S.constant_term(), md.X.constant_term()
    total = sum((v * s0 ** s * x0 ** x for (s, x), v in elt.terms.items()
                 if s0 or not s), F(0))
    return total / md.I11.constant_term() ** elt.i11_degree


def gap_fix(n: int, g: int, particular: BModElement,
            md: MirrorData) -> BModElement:
    """Add to ``particular``, for F^(n,g), the holomorphic ambiguity, a
    combination of X^0..X^(2G-2), G = n + g, fixed by the gap in the
    conifold frame of ``md`` and the vanishing flat constant term.

    With M = 2G - 2 and X = 1/u, the ambiguity A = sum_j a_j u^-j must give
    P + A the flat-coordinate polar part t_M that^-M.  A regular series in
    that is regular in u, so A is the u-side polar part of t_M that^-M - P:
    a_j = t_M [u^(M-j)] (u/that)^M - [u^-j] P for j = 1..M.  X^0 has no
    pole, so a_0 alone makes the flat constant term vanish."""
    M = 2 * (n + g) - 2
    p = u_polar_part(particular, md, M)
    u_over_that = (RatSeries.gen("u", M) / md.that) ** M
    t = gap_conditions(n, g)[-1]
    amb = {(0, j): t * u_over_that.coeff(M - j) - p[j - 1]
           for j in range(1, M + 1)}
    a0 = -q_constant_term(particular + BModElement(0, amb), md)
    return particular + BModElement(0, {(0, 0): a0, **amb})


# -- degree-bound assertions --------------------------------------------------------------

def assert_finite_generation(elt: BModElement, n: int, g: int):
    """Membership of F^(n,g) in the orbifold-regular span X^-(G-1) * R_(3G-3),
    G = n + g, with S-degree at most 3g + 2n - 3."""
    G = n + g
    for (s, x) in elt.terms:
        if x < 1 - G or s + x > 2 * G - 2 or 3 * x + s < 0:
            raise Localp2Error(f"S^{s} X^{x} is outside the span")
    if elt.deg_S() > 3 * g + 2 * n - 3:
        raise Localp2Error("S-degree bound violated")


def solve(n: int, g: int, md: MirrorData, grid: DTower) -> BModElement:
    """F^(n,g) by anomaly + gap, after the unsolved elements below it on the
    grid; each is registered in ``grid``."""
    if md.order < least_q_order(n + g):
        raise ValueError(f"genus {n + g} needs mirror order >= "
                         f"{least_q_order(n + g)}, got {md.order}")
    for key in sorted(product(range(n + 1), range(g + 1)), key=sum):
        if key == (n, g) or sum(key) >= 2 and key not in grid.elements:
            sol = gap_fix(*key, integrate_S(hae_rhs(*key, grid)), md)
            assert_finite_generation(sol, *key)
            grid.set_genus(key, sol)
    return sol


def solve_genus(g: int, kind: str, md: MirrorData,
                corr: Correspondence | None = None) -> BModElement:
    """The genus-g series of the ``kind`` tower, F^(0,g) or F^(g,0)."""
    corr = Correspondence(md) if corr is None else corr
    return solve(*corr.tower(kind).key(g), md, corr.grid)


def solve_towers(md: MirrorData, gmax: int, relative: bool) -> Correspondence:
    """The towers through genus gmax: the local one by anomaly + gap and,
    when ``relative``, the relative one from it through the correspondence,
    genus by genus.  Only the relative tower needs the elliptic curve."""
    corr = Correspondence(md)
    for g in range(2, gmax + 1):
        local = solve(0, g, md, corr.grid)
        if relative:
            corr.solve_relative(g, local)
    return corr


def verify_hae(n: int, g: int, grid: DTower) -> dict:
    """Check the anomaly identity on an already-solved F^(n,g)."""
    lhs = grid.D((n, g), 0).partial("S")
    lhs = BModElement(2, {(s, x + 1): v / 3 for (s, x), v in lhs.terms.items()})
    rhs = hae_rhs(n, g, grid)
    return {"lhs": lhs, "rhs": rhs, "ok": lhs == rhs}
