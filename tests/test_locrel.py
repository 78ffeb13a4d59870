from fractions import Fraction

import pytest

from localp2 import locrel
from localp2.elliptic import EPoly, eisenstein_powers, stationary_value
from localp2.graded import evaluate
from localp2.hae import solve_towers
from localp2.locrel import (
    Correspondence,
    DF1_LOCAL,
    DF1_RELATIVE,
    DTower,
    RELATIVE_LOG_COEFF,
    epoly_to_bmod,
    f1_local_series,
    f1_relative_series,
    flat_expansion,
)
from localp2.mirror import BModElement, bm_eval, build_mirror_data, cq_change
from localp2.series import Powers, RatSeries

from oracles import corrections_sum_oracle, solve_local

F = Fraction

ORDER = 32

# closed form of the local genus-2 series
F2_LOCAL = BModElement(0, {(3, -1): F(5, 8), (2, 0): F(1, 8), (1, 1): F(1, 96),
                           (0, 2): F(1, 4320), (0, 1): F(1, 4320),
                           (0, 0): F(-1, 2160)})
# relative genus-2 series
F2_RELATIVE = BModElement(0, {(1, 1): F(1, 384), (0, 2): F(-1, 360),
                              (0, 1): F(1, 240), (0, 0): F(-1, 720)})


@pytest.fixture(scope="module")
def md():
    return build_mirror_data(ORDER)


@pytest.fixture()
def corr(md):
    return Correspondence(md)


def nome_series(ep: EPoly, order: int) -> RatSeries:
    """The expansion of ep in the curve's nome, through ``order``."""
    return evaluate(ep.terms, eisenstein_powers(order))


def test_relative_log_coefficient(md):
    assert RELATIVE_LOG_COEFF == F(-1, 24) == f1_relative_series(md).log_coeff


@pytest.fixture(scope="module")
def solved_through_4(md):
    return solve_towers(md, 4, True)


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_corrections_sum_against_per_term_oracle(solved_through_4, g):
    # the relative tower is solved through genus 4 >= g - 1
    corr = solved_through_4
    assert corr.corrections_sum(g) == corrections_sum_oracle(corr, g)


class TestEllipticFactorDictionary:
    def test_e2_bridge(self, md):
        # E2 at the cubed nome pulled back equals its polynomial image
        order = 26
        ep = EPoly.gen(2)
        lhs = cq_change(nome_series(ep, order * 3), md)
        rhs = bm_eval(epoly_to_bmod(ep), md)
        assert lhs.agrees_with(rhs, 24)

    def test_f_2_11_bridge(self, md):
        ep = stationary_value(2, (1, 1))
        lhs = cq_change(nome_series(ep, 40), md)
        rhs = bm_eval(epoly_to_bmod(ep), md)
        assert lhs.agrees_with(rhs, 24)

    def test_each_monomial_image_is_made_once(self, monkeypatch):
        # labels whose monomials share prefixes (E2^3 of E2^4, E2 E4 of
        # E2^2 E4), rewritten through a fresh table of the E-images
        eps = [stationary_value(2, (1, 1)), stationary_value(2, (1, 1, 0))]
        made = set()
        for key in (k for ep in eps for k in ep.terms):
            made.add(key)
            while any(key):  # the prefix: one factor fewer, the first one
                i = next(i for i, e in enumerate(key) if e)
                key = key[:i] + (key[i] - 1,) + key[i + 1:]
                made.add(key)
        table = Powers(*locrel._E_BMOD.bases)
        monkeypatch.setattr(locrel, "_E_BMOD", table)
        first = [epoly_to_bmod(ep) for ep in eps]
        assert len(table._made) == len(made)
        assert [epoly_to_bmod(ep) for ep in eps] == first
        assert len(table._made) == len(made)


class TestGenus2Intermediates:
    # at genus 2 each elliptic label has one term, so its per-label value
    # is that term's
    def test_term_h1_leg01(self, corr):
        got = corr.correction_value(1, (0,), corr.relative.D(1, 2))
        expect = BModElement(0, {(2, 0): F(-1, 16), (1, 1): F(5, 192),
                                 (1, 0): F(-1, 24), (0, 2): F(1, 96),
                                 (0, 1): F(-1, 96)})
        assert got == expect

    def test_term_h2_two_cubic_legs(self, corr):
        d3f0 = corr.relative.D(0, 3)
        got = corr.correction_value(2, (1, 1), d3f0 * d3f0)
        expect = BModElement(0, {(3, -1): F(-1, 2), (2, 0): F(-3, 8),
                                 (1, 1): F(-11, 120), (1, 0): F(1, 60),
                                 (0, 2): F(-1, 135), (0, 1): F(7, 1080),
                                 (0, 0): F(1, 1080)})
        assert got == expect

    def test_term_h2_quartic_leg(self, corr):
        got = corr.correction_value(2, (2,), -corr.relative.D(0, 4))
        expect = BModElement(0, {(3, -1): F(9, 8), (2, 0): F(9, 16),
                                 (1, 1): F(47, 640), (1, 0): F(1, 40)})
        assert got == expect


class TestSolve:
    def test_genus1_relative_from_local(self, corr, md):
        got = corr.solve_relative(1, f1_local_series(md))
        expect = f1_relative_series(md)
        assert got.log_coeff == F(-1, 24)
        assert got.agrees_with(expect, ORDER - 1)

    def test_genus1_flat_expansion(self, corr):
        flat = flat_expansion(corr, 1, "relative")
        assert flat.coeff_list(1, 5) == [F(7, 8), F(-129, 16), F(589, 6),
                                         F(-43009, 32), F(392691, 20)]

    def test_genus1_local_from_relative(self, corr, md):
        got = solve_local(corr, 1, f1_relative_series(md))
        assert got.agrees_with(f1_local_series(md), ORDER - 1)

    def test_genus1_nome_form(self, corr, md):
        # the same series written at the level-3 nome:
        # -(1/24) log(-nome) + (1/2) sum log(1 - nome^n)
        #                    - (1/2) sum log(1 - nome^{3n})
        order = 24
        coeffs = [F(0)] * (order + 1)
        for nn in range(1, order + 1):
            s1 = sum(d for d in range(1, nn + 1) if nn % d == 0)
            coeffs[nn] -= F(s1, nn) / 2
            if nn % 3 == 0:
                m = nn // 3
                s3 = sum(d for d in range(1, m + 1) if m % d == 0)
                coeffs[nn] += F(s3, m) / 2
        nome_form = RatSeries("cQ", 0, coeffs, log_coeff=F(-1, 24))
        got = cq_change(nome_form, md)
        assert got.agrees_with(f1_relative_series(md), order - 2)

    def test_genus2_relative(self, corr):
        got = corr.solve_relative(2, F2_LOCAL)
        assert got == F2_RELATIVE

    def test_genus2_forward(self, corr):
        corr.grid.set_genus((2, 0), F2_RELATIVE)
        got = solve_local(corr, 2)
        assert got == F2_LOCAL

    def test_genus2_flat_expansion(self, corr):
        corr.solve_relative(2, F2_LOCAL)
        flat = flat_expansion(corr, 2, "relative")
        assert flat.coeff_list(0, 5) == [0, F(29, 640), F(-207, 64),
                                         F(18447, 160), F(-526859, 160),
                                         F(5385429, 64)]

    @pytest.mark.parametrize("side", ["Relative", "both"])
    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_unknown_side_is_rejected_at_every_genus(self, corr, side, g):
        # both towers solved at genus 2, so no side falls through to one
        corr.grid.set_genus((0, 2), F2_LOCAL)
        corr.solve_relative(2, F2_LOCAL)
        with pytest.raises(ValueError, match="unknown kind"):
            flat_expansion(corr, g, side)
        with pytest.raises(ValueError, match="unknown kind"):
            corr.tower(side)

    def test_round_trip_genus3_shape(self, corr):
        # F3 local is not known in closed form here; use a synthetic element
        # to check solve_local(solve_relative(.)) is the identity.
        corr.grid.set_genus((2, 0), F2_RELATIVE)
        fake_local = BModElement(0, {(3, -1): F(1, 7), (1, 0): 2, (0, -2): F(3, 5),
                                     (6, -2): F(1, 11)})
        rel = corr.solve_relative(3, fake_local)
        back = solve_local(corr, 3, rel)
        assert back == fake_local

    def test_relative_s_degree_cancellation(self, corr):
        # the correspondence must cancel S-degrees above 2g - 3
        got = corr.solve_relative(2, F2_LOCAL)
        assert got.deg_S() <= 1

    def test_constant_flat_term_vanishes(self, corr, md):
        got = corr.solve_relative(2, F2_LOCAL)
        assert bm_eval(got, md, target="Q").constant_term() == 0


class TestDTower:
    def test_genus0_chain(self):
        t = DTower()
        assert t.D((0, 0), 3) == BModElement.monomial(-9, 0, 1, i11_degree=3)
        assert t.D((0, 0), 4) == BModElement.monomial(81, 1, 1, i11_degree=4)

    def test_local_genus1_seed(self):
        t = DTower()
        assert t.D((0, 1), 1) == BModElement(1, {(1, 0): F(-3, 2), (0, 1): F(-1, 4)})
        assert t.D((1, 0), 1) == DF1_RELATIVE

    def test_missing_genus(self):
        t = DTower()
        with pytest.raises(Exception):
            t.D((0, 2), 1)

    def test_the_towers_are_the_edges_of_one_grid(self, corr):
        # genus 0 is shared; the seeds DF^(0,1) and DF^(1,0) are the towers'
        assert corr.local.grid is corr.relative.grid is corr.grid
        assert corr.local.D(0, 3) is corr.relative.D(0, 3)
        assert (corr.local.D(1, 1), corr.relative.D(1, 1)) == \
            (DF1_LOCAL, DF1_RELATIVE)
        corr.grid.set_genus((0, 2), F2_LOCAL)
        corr.grid.set_genus((2, 0), F2_RELATIVE)
        assert corr.grid.elements == {(0, 2): F2_LOCAL, (2, 0): F2_RELATIVE}
        assert corr.local.elements == {2: F2_LOCAL}
        assert corr.relative.elements == {2: F2_RELATIVE}
