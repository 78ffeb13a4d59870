"""Holomorphic anomaly solver.

At each genus g >= 2 the anomaly equation

    (X / 3 I11^2) dF_g/dS = 1/2 sum_{g1+g2=g} F_{g1,1} F_{g2,1}
                            (+ 1/2 F_{g-1,2} on the local side)

with F_{g,n} = (Q d/dQ)^n F_g fixes the S-dependence; the remaining
ambiguity lives in the (2g-1)-dimensional span of X^0..X^{2g-2}.  It is
fixed by the conifold gap: re-expanded in the conifold flat coordinate
t (normalized rationally; the standard coordinate is t/sqrt(3)), the
solution must have vanishing 1/t^j coefficients for j = 1..2g-3, a
prescribed 1/t^(2g-2) coefficient, and no constant term in its flat
Q-expansion.

The conifold frame replaces the propagator S by its conifold counterpart,
built from the conifold flat coordinate by the same recipe that builds S
from the degree-one period at large volume; X = 1/u stays an honest
coordinate.  The frame is validated against the genus-2 closed forms
before being trusted at higher genus.  Nothing reverts t: the gap is
fixed in closed form on the u side, and a polar part in t is read from
powers of t in u by Lagrange inversion.  The powers of t and of the
conifold propagator are made only through the pole order a polar part
reads, never through the mirror order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache

from .locrel import Correspondence, DTower, by_kind
from .mirror import BModElement, BModError, MirrorData, theta_u
from .quasimod import bernoulli
from .series import Localp2Error, Powers, RatSeries, lincomb

F = Fraction


class GapError(Localp2Error):
    pass


# -- boundary-condition constants ----------------------------------------------------

def gamma_local(g: int) -> Fraction:
    """Gap coefficient of 1/t^(2g-2) for the local series (standard t)."""
    return bernoulli(2 * g) / (2 * g * (2 * g - 2))


def gamma_relative(g: int) -> Fraction:
    """Gap coefficient of 1/t^(2g-2) for the relative series (standard t)."""
    b = abs(bernoulli(2 * g))
    return -F(2 ** (2 * g - 1) - 1, 2 ** (2 * g - 1)) * b / \
        (2 * g * (2 * g - 1) * (2 * g - 2))


def gap_target(g: int, kind: str) -> Fraction:
    """Target coefficient of t^-(2g-2) in the rational normalization,
    which rescales the standard one by 3^(g-1)."""
    return 3 ** (g - 1) * by_kind(kind, gamma_local, gamma_relative)(g)


def gap_conditions(g: int, kind: str) -> list:
    """The that^-1..that^-(2g-2) coefficients the gap prescribes."""
    return [F(0)] * (2 * g - 3) + [gap_target(g, kind)]


# -- anomaly right side ----------------------------------------------------------------

def hae_rhs(g: int, kind: str, tower: DTower) -> BModElement:
    """Right side of the genus-g anomaly equation at zero insertions.  With
    F_(g,n) = D^n F_g / 3^n, it is a sum of D-derivatives as the tower holds
    them, scaled by 1/9 once."""
    if g < 2:
        raise BModError("anomaly solving starts at genus 2")
    total = BModElement.zero()
    for g1 in range(1, g // 2 + 1):
        # the product for g1 stands for itself and for g - g1
        term = tower.D(g1, 1) * tower.D(g - g1, 1)
        total = total + (term * F(1, 2) if 2 * g1 == g else term)
    if by_kind(kind, True, False):  # F_(g-1,2) on the local side only
        total = total + tower.D(g - 1, 2) * F(1, 2)
    return total * F(1, 9)


def integrate_S(rhs: BModElement) -> BModElement:
    """S-antiderivative of (3 I11^2 / X) * rhs with no S^0 terms: the
    particular solution, to which gap_fix adds the ambiguity."""
    if not rhs.is_zero() and rhs.i11_degree != 2:
        raise BModError("anomaly right side must be I11-degree 2")
    return BModElement(0, {(s + 1, x - 1): 3 * v / (s + 1)
                           for (s, x), v in rhs.terms.items()})


# -- conifold frame ---------------------------------------------------------------------

class ConifoldFrame:
    """The frame from the conifold flat coordinate ``that`` = u + O(u^2):
    the propagator ``s_con``, made on its first read and known as far as
    ``that`` allows; ``that`` is never reverted.  One frame serves every
    genus: a read past what ``that`` knows raises TruncationError rather
    than give a wrong number."""

    def __init__(self, that: RatSeries):
        self.that = that

    @cached_property
    def s_con(self) -> RatSeries:
        """theta log(theta t) - (X - 1)/3 in u, the large-volume recipe for
        S: Laurent from u^-1, known through u^(order - 2)."""
        theta_t = theta_u(self.that)
        if theta_t.constant_term() == 0:
            raise GapError("degenerate conifold frame: theta t vanishes at u = 0")
        x_minus_1_over_3 = RatSeries.from_pairs(
            "u", {-1: F(1, 3), 0: F(-1, 3)}, self.that.trunc_order)
        return theta_u(theta_t) / theta_t - x_minus_1_over_3


@lru_cache(maxsize=None)
def build_conifold_frame(md: MirrorData) -> ConifoldFrame:
    """The conifold frame of the mirror data, one per mirror data; its
    series are made when a polar part first reads them."""
    return ConifoldFrame(md.that)


def u_polar_part(elt: BModElement, frame: ConifoldFrame,
                 max_pole: int) -> list:
    """[u^-1], ..., [u^-max_pole] of a weight-zero element with S -> frame
    propagator and X -> 1/u; a deeper pole raises GapError.  S^s X^x goes
    to s_con^s u^-x, of which only the terms through u^-1 are read."""
    if elt.i11_degree != 0:
        raise BModError("conifold expansion needs a weight-zero element")
    if elt.is_zero():
        return [F(0)] * max_pole
    # X^x -> u^-x, each term cut at u^-1: the regular part has no poles;
    # S^s X^x reads s_con^s through u^(x - 1), and s_con through u^r, r the
    # largest x + s - 1, makes s_con^s through u^(r - s + 1)
    r = max(0, max(x + s - 1 for s, x in elt.terms))
    s_con = frame.s_con.truncate(min(r, frame.s_con.trunc_order))
    s_con_pow = Powers(s_con)
    total = lincomb([(v, s_con_pow[s].truncate(x - 1).shift(-x))
                     for (s, x), v in elt.terms.items()])
    v = total.valuation()
    if v is not None and v < -max_pole:
        raise GapError(f"conifold pole exceeds order {max_pole}")
    return [total.coeff(-j) for j in range(1, max_pole + 1)]


def conifold_expand(elt: BModElement, frame: ConifoldFrame,
                    max_pole: int) -> RatSeries:
    """Polar part, that^-max_pole..that^-1, of the Laurent expansion in the
    flat conifold coordinate of a weight-zero element with S -> frame
    propagator and X -> 1/u.  Only the u^-j have poles in that, and by
    Lagrange inversion [that^-i] u^-j = (j/i) [u^j] that^i, which is zero
    for j < i; that^i through the deepest u-pole is all that is read, and
    a pole deeper than ``that`` is known raises TruncationError."""
    c = u_polar_part(elt, frame, max_pole)
    deepest = max((j for j in range(1, max_pole + 1) if c[j - 1]), default=0)
    # that is stored from u^0, so its powers stop at u^deepest as it does
    that_pow = Powers(frame.that.truncate(deepest))
    return RatSeries("that", -max_pole, [
        sum((j * c[j - 1] * that_pow[i].coeff(j)
             for j in range(i, deepest + 1) if c[j - 1]), F(0)) / i
        for i in range(max_pole, 0, -1)])


def least_q_order(g: int) -> int:
    """The least mirror order at which genus g is solved: 2g - 2.  The gap
    reads u^-M..u^-1, M = 2g - 2, of the particular solution (s + x <= M)
    from s_con^s through u^(M - s - 1), and u^0..u^(M-1) of (u/that)^M;
    both need the flat coordinate through u^M, which the one frame of
    mirror data at order M has."""
    return 2 * g - 2


def q_constant_term(elt: BModElement, md: MirrorData) -> Fraction:
    """q^0 coefficient of ``bm_eval(elt, md)``.  Taking the constant term
    is a ring homomorphism on power series, so it is the element evaluated
    at the constant terms of S, X and I11; S vanishes at q = 0, so its
    positive powers are skipped."""
    s0, x0 = md.S.constant_term(), md.X.constant_term()
    total = sum((v * s0 ** s * x0 ** x for (s, x), v in elt.terms.items()
                 if s0 or not s), F(0))
    return total / md.I11.constant_term() ** elt.i11_degree


def gap_fix(g: int, kind: str, particular: BModElement,
            md: MirrorData) -> BModElement:
    """Add to ``particular`` the holomorphic ambiguity, a combination of
    X^0..X^(2g-2), fixed by the gap in the conifold frame of ``md`` and the
    vanishing flat constant term.

    With M = 2g - 2 and X = 1/u, the ambiguity A = sum_j a_j u^-j must give
    P + A the flat-coordinate polar part t_M that^-M.  A regular series in
    that is regular in u, so A is the u-side polar part of t_M that^-M - P:
    a_j = t_M [u^(M-j)] (u/that)^M - [u^-j] P for j = 1..M.  X^0 has no
    pole, so a_0 alone makes the flat constant term vanish."""
    if g < 2:
        raise GapError("gap conditions exist for 2g - 2 >= 2")
    M = 2 * g - 2
    frame = build_conifold_frame(md)
    p = u_polar_part(particular, frame, M)
    u_over_that = (RatSeries.gen("u", M) / frame.that) ** M
    t = gap_target(g, kind)
    amb = {(0, j): t * u_over_that.coeff(M - j) - p[j - 1]
           for j in range(1, M + 1)}
    a0 = -q_constant_term(particular + BModElement(0, amb), md)
    return particular + BModElement(0, {(0, 0): a0, **amb})


# -- degree-bound assertions --------------------------------------------------------------

def assert_finite_generation(elt: BModElement, g: int, kind: str):
    """Membership in the orbifold-regular span X^-(g-1) * R_{3g-3}, plus the
    relative S-degree bound."""
    deg_s = by_kind(kind, 3 * g - 3, 2 * g - 3)
    for (s, x) in elt.terms:
        if x < -(g - 1):
            raise BModError(f"X-pole too deep at {(s, x)}")
        if s + x + (g - 1) > 3 * g - 3:
            raise BModError(f"total degree exceeds 3g-3 at {(s, x)}")
        if 3 * x + s < 0:
            raise BModError(f"orbifold regularity fails at {(s, x)}")
    if elt.deg_S() > deg_s:
        raise BModError("S-degree bound violated")


def solve_genus(g: int, kind: str, md: MirrorData,
                corr: Correspondence | None = None) -> BModElement:
    """Anomaly + gap determination of the genus-g series; lower genera are
    solved recursively and registered in the corresponding tower."""
    least = least_q_order(g)
    if md.order < least:
        raise GapError(f"genus {g} needs mirror order >= {least}, "
                       f"got {md.order}")
    if corr is None:
        corr = Correspondence(md)
    tower = corr.tower(kind)
    for gp in range(2, g):
        if gp not in tower.elements:
            solve_genus(gp, kind, md, corr)
    sol = gap_fix(g, kind, integrate_S(hae_rhs(g, kind, tower)), md)
    assert_finite_generation(sol, g, kind)
    tower.set_genus(g, sol)
    return sol


def solve_towers(md: MirrorData, gmax: int, relative: bool) -> Correspondence:
    """The towers through genus gmax: the local one by anomaly + gap and,
    when ``relative``, the relative one from it through the correspondence,
    genus by genus.  Only the relative tower needs the elliptic curve."""
    corr = Correspondence(md)
    for g in range(2, gmax + 1):
        local = solve_genus(g, "local", md, corr)
        if relative:
            corr.solve_relative(g, local)
    return corr


def verify_hae(g: int, kind: str, tower: DTower) -> dict:
    """Check the anomaly identity on an already-solved genus."""
    lhs = tower.D(g, 0).partial("S")
    lhs = BModElement(2, {(s, x + 1): v / 3 for (s, x), v in lhs.terms.items()})
    rhs = hae_rhs(g, kind, tower)
    return {"genus": g, "kind": kind, "lhs": lhs, "rhs": rhs,
            "ok": lhs == rhs}
