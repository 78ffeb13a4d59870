import hashlib
from fractions import Fraction
from functools import cached_property
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from localp2 import acceptance, hae, linalg
from localp2.hae import (
    assert_finite_generation,
    build_conifold_frame,
    conifold_expand,
    gamma,
    gap_conditions,
    gap_fix,
    hae_rhs,
    integrate_S,
    least_q_order,
    q_constant_term,
    solve,
    solve_genus,
    solve_towers,
    verify_hae,
)
from localp2.locrel import (
    DF1_RELATIVE,
    Correspondence,
    DTower,
    flat_expansion,
)
from localp2.mirror import (
    BModElement,
    MirrorData,
    bm_eval,
    bm_to_qmod,
    build_mirror_data,
    theta_u,
)
from localp2.series import Localp2Error, Powers, RatSeries

from oracles import (
    bernoulli_list,
    conifold_polar_oracle,
    gamma_local,
    gamma_relative,
    gv_mismatches,
    refined_degree_one,
    solve_unique_oracle,
)

F = Fraction

ORDER = 32

F2_LOCAL = BModElement(0, {(3, -1): F(5, 8), (2, 0): F(1, 8), (1, 1): F(1, 96),
                           (0, 2): F(1, 4320), (0, 1): F(1, 4320),
                           (0, 0): F(-1, 2160)})
F2_RELATIVE = BModElement(0, {(1, 1): F(1, 384), (0, 2): F(-1, 360),
                              (0, 1): F(1, 240), (0, 0): F(-1, 720)})


@pytest.fixture(scope="module")
def md():
    return build_mirror_data(ORDER)


class TestGapConstants:
    def test_gamma_values_from_bernoulli_oracle(self):
        B = bernoulli_list(8)
        assert gamma(0, 2) == B[4] / 8 == F(-1, 240)
        assert gamma(2, 0) == -F(7, 8) * abs(B[4]) / 24 == F(-7, 5760)
        assert gamma(3, 0) == -F(31, 32) * abs(B[6]) / 120 == F(-31, 161280)
        assert gamma(0, 8) == F(-3617, 114240)
        assert gamma(8, 0) == F(-16931177, 8021606400)

    @pytest.mark.parametrize("G", range(2, 13))
    def test_the_edges_are_the_closed_forms(self, G):
        # one rule in (n, g) gives both towers' gap coefficients
        assert gamma(0, G) == gamma_local(G)
        assert gamma(G, 0) == gamma_relative(G)

    def test_rescaled_targets(self):
        assert gap_conditions(0, 2)[-1] == F(-1, 80)
        assert gap_conditions(2, 0)[-1] == F(-7, 1920)
        assert gap_conditions(3, 0)[-1] == 9 * F(-31, 161280)

    def test_gap_conditions(self):
        assert gap_conditions(0, 2) == [0, F(-1, 80)]
        assert gap_conditions(4, 0) == [0] * 5 + [27 * gamma(4, 0)]
        assert gap_conditions(1, 3) == [0] * 5 + [27 * gamma(1, 3)]


def _never(*args):
    raise AssertionError("an unknown kind reached the gap")


class TestUnknownKind:
    # "local" and "relative" are the only kinds, and each names an edge of the
    # (n, g) grid; another word is rejected where words enter, before it can
    # reach the gap as the key of some edge
    @pytest.mark.parametrize("kind", ["Local", "bogus", ""])
    def test_gap_target(self, kind, md, monkeypatch):
        monkeypatch.setattr(hae, "gamma", _never)
        with pytest.raises(ValueError, match="unknown kind"):
            solve_genus(2, kind, md)

    def test_gap_conditions(self, capsys, monkeypatch):
        from localp2 import cli
        monkeypatch.setattr(hae, "gap_conditions", _never)
        assert cli.main(["verify", "gap", "--genus", "3",
                         "--target", "Relative"]) == cli.USAGE_ERROR
        assert "invalid choice: 'Relative'" in capsys.readouterr().err

    def test_gap_fix(self, md, monkeypatch):
        monkeypatch.setattr(hae, "gap_fix", _never)
        with pytest.raises(ValueError, match="unknown kind"):
            solve_genus(2, "both", md, Correspondence(md))


class TestBounds:
    @pytest.mark.parametrize("elt", [F2_LOCAL, BModElement.monomial(1, 4, 0)])
    def test_the_s_degree_bound_reads_n(self, elt):
        # an element of S-degree d lies in F^(0,G) and not in F^(G,0) at the
        # G with 2G - 3 < d <= 3G - 3; every other bound reads G alone
        G = elt.deg_S() // 2 + 1
        assert_finite_generation(elt, 0, G)
        with pytest.raises(Localp2Error, match="S-degree bound"):
            assert_finite_generation(elt, G, 0)


class TestFrame:
    def test_flat_coordinate_normalization(self, md):
        assert md.that.coeff_list(0, 1) == [0, 1]

    def test_s_con_is_laurent(self, md):
        s = md.s_con.trim()
        assert s.min_exp == -1
        assert s.coeff(-1) == F(-1, 3)

    def test_s_con_satisfies_riccati(self, md):
        # theta S = -S^2 + (X-1)S/3 - X(X-1)/9 with X = 1/u, theta = (u-1)d/du
        s = md.s_con
        order = s.trunc_order
        x = RatSeries.from_pairs("u", {-1: 1}, order)
        one = RatSeries.one("u", order)
        lhs = theta_u(s)
        rhs = -(s * s) + (x - one) * s / 3 - x * (x - one) / 9
        assert lhs.agrees_with(rhs, order - 6)

    def test_built_once_per_mirror_data(self, md):
        assert build_mirror_data(ORDER).s_con is md.s_con
        # the benchmark's genus4-hae child hands this to conifold_expand
        assert build_conifold_frame(md) is md

    def test_reads_past_the_order_raise(self, md):
        # X^(ORDER+1) -> u^-(ORDER+1) reads [u^(ORDER+1)] that^i
        deep = BModElement.monomial(1, 0, ORDER + 1)
        with pytest.raises(ValueError, match="cannot extend truncation order"):
            conifold_expand(deep, md, ORDER + 1)
        # S X^ORDER reads s_con through u^(ORDER-1), known through u^(ORDER-2)
        with pytest.raises(ValueError, match="cannot extend truncation order"):
            conifold_expand(BModElement.monomial(1, 1, ORDER), md, ORDER)

    def test_both_towers_through_genus8_build_s_con_once(self, md):
        # every genus of both towers reads the one s_con of the mirror data
        made = []

        class CountingFrame(MirrorData):
            @cached_property
            def s_con(self) -> RatSeries:
                made.append(self)
                return super().s_con

        fresh = CountingFrame._make(md)
        for kind in ("local", "relative"):
            solve_genus(8, kind, fresh, Correspondence(fresh))
        assert made == [fresh]

    def test_degenerate_frame_fails_its_exact_check(self, md):
        # that = u^2 makes theta t = 2u^2 - 2u, which vanishes at u = 0
        that = RatSeries.from_pairs("u", {2: 1}, ORDER)
        assert theta_u(that) == RatSeries.from_pairs("u", {1: -2, 2: 2},
                                                     ORDER - 1)
        message = "degenerate conifold frame: theta t vanishes at u = 0"
        with pytest.raises(Localp2Error, match=message):
            md._replace(that=that).s_con
        particular = integrate_S(hae_rhs(2, 0, DTower()))
        assert not particular.is_zero()
        with pytest.raises(Localp2Error, match=message):
            gap_fix(2, 0, particular, md._replace(that=that))

    def test_x_in_u_is_inverse_u(self, md):
        # X * (1 + 27q) = 1 with u = 1 + 27q exactly
        prod = md.X * RatSeries.from_pairs("q", {0: 1, 1: 27}, ORDER)
        assert prod.coeff_list(0, 5) == [1, 0, 0, 0, 0, 0]


class WrongFrame(MirrorData):
    """The mirror data with the conifold propagator built from u - 1 in
    place of the conifold flat coordinate."""

    @cached_property
    def s_con(self) -> RatSeries:
        order = self.that.trunc_order
        u_minus_1 = RatSeries.from_pairs("u", {0: -1, 1: 1}, order)
        return theta_u(u_minus_1) / u_minus_1 \
            - RatSeries.from_pairs("u", {-1: F(1, 3), 0: F(-1, 3)}, order)


def polar(elt, md, M) -> list:
    con = conifold_expand(elt, md, M)
    return [con.coeff(-j) for j in range(M, 0, -1)]


@pytest.fixture(scope="module")
def gap_calls(md):
    """What gap_fix takes, reads and returns while both towers are solved
    through genus 5 by anomaly + gap, in call order: ``calls`` holds
    (genus, particular solution, solution) per gap_fix call and
    ``expanded`` (genus, element) per u_polar_part call."""
    calls, expanded = [], []
    u_polar_part = hae.u_polar_part

    def fixing(n, g, particular, md):
        sol = gap_fix(n, g, particular, md)
        calls.append((n + g, particular, sol))
        return sol

    def expanding(elt, md, max_pole):
        expanded.append((max_pole // 2 + 1, elt))
        return u_polar_part(elt, md, max_pole)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hae, "gap_fix", fixing)
        mp.setattr(hae, "u_polar_part", expanding)
        for kind in ("local", "relative"):
            solve_genus(5, kind, md, Correspondence(md))
    return SimpleNamespace(calls=calls, expanded=expanded)


def square_solve(n: int, g: int, particular: BModElement,
                 md) -> BModElement:
    """The gap of F^(n,g) as a (2G-1)-square system in X^0..X^(2G-2),
    G = n + g: a row per that^-i, i = M..1 (M = 2G - 2), of oracle polar
    parts, and the row of flat constant terms by bm_eval, solved by
    solve_unique_oracle."""
    M = 2 * (n + g) - 2
    xs = [BModElement.monomial(1, 0, j) for j in range(M + 1)]
    polars = [conifold_polar_oracle(x, md, M) for x in xs]
    rows = [[p[k] for p in polars] for k in range(M)] + \
        [[bm_eval(x, md).constant_term() for x in xs]]
    con = conifold_polar_oracle(particular, md, M)
    rhs = [t - c for t, c in zip(gap_conditions(n, g)[::-1], con)] + \
        [-bm_eval(particular, md).constant_term()]
    sol = solve_unique_oracle(rows, rhs)
    return particular + BModElement(0, {(0, j): a for j, a in enumerate(sol)})


class TestPolarPartOracle:
    """conifold_expand against the route that substitutes the whole series
    and divides by u_inverse^M (tests/oracles.py)."""

    def test_every_gap_input_through_genus5(self, md, gap_calls):
        # the particular solutions of both towers, genus 2..5
        assert [g for g, _ in gap_calls.expanded] == [2, 3, 4, 5] * 2
        for g, e in gap_calls.expanded:
            M = 2 * g - 2
            assert polar(e, md, M) == conifold_polar_oracle(e, md, M)

    def test_genus2_closed_forms(self, md):
        for elt, target in ((F2_LOCAL, F(-1, 80)), (F2_RELATIVE, F(-7, 1920))):
            assert polar(elt, md, 2) == conifold_polar_oracle(elt, md, 2) \
                == [target, 0]

    @given(st.sampled_from([2, 4, 6]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_weight_zero_elements_against_the_full_order_frame(self, md,
                                                               M, data):
        # S^s X^x with s + x <= M: no pole deeper than that^-M
        keys = st.tuples(st.integers(0, 4), st.integers(-3, M)).filter(
            lambda k: sum(k) <= M)
        values = st.builds(F, st.integers(-10 ** 6, 10 ** 6),
                           st.integers(1, 10 ** 4))
        elt = BModElement(0, data.draw(st.dictionaries(keys, values,
                                                       max_size=6)))
        assert polar(elt, md, M) == conifold_polar_oracle(elt, md, M)

    def test_wrong_frame(self, md):
        bad = WrongFrame._make(md)
        for M in (2, 4):
            assert polar(F2_LOCAL, bad, M) == \
                conifold_polar_oracle(F2_LOCAL, bad, M)


class TestGenus2Gap:
    def test_local_closed_form_has_the_gap(self, md):
        con = conifold_expand(F2_LOCAL, md, 2)
        assert con.coeff(-1) == 0
        assert con.coeff(-2) == F(-1, 80)

    def test_relative_closed_form_has_the_gap(self, md):
        con = conifold_expand(F2_RELATIVE, md, 2)
        assert con.coeff(-1) == 0
        assert con.coeff(-2) == F(-7, 1920)

    def test_wrong_frame_fails_the_gap(self, md):
        # negative control: a propagator built from the wrong solution
        bad = WrongFrame._make(md)
        con = conifold_expand(F2_LOCAL, bad, 2)
        assert con.coeff(-1) != 0 or con.coeff(-2) != F(-1, 80)

    def test_pole_bound_enforced(self, md):
        deep = BModElement.monomial(1, 0, 5)  # X^5 -> u^-5
        with pytest.raises(Localp2Error, match="pole exceeds order 2"):
            conifold_expand(deep, md, 2)

    def test_gap_fix_rejects_a_pole_past_the_gap(self, md):
        # the ambiguity reaches u^-2 at genus 2; S X^2 -> s_con u^-2 has u^-3
        particular = BModElement.monomial(1, 1, 2)
        with pytest.raises(Localp2Error, match="pole exceeds order 2"):
            gap_fix(2, 0, particular, md)


class TestGapFix:
    def test_expands_only_the_particular_solution(self, gap_calls):
        # one conifold_expand per gap_fix: 2 towers x genus 2..5
        assert len(gap_calls.expanded) == len(gap_calls.calls) == 8
        assert [e for _, e in gap_calls.expanded] == \
            [particular for _, particular, _ in gap_calls.calls]

    @pytest.mark.parametrize("M", [2, 4, 6, 8])
    def test_rows_are_the_polar_parts_of_x_powers(self, md, M):
        # column j of the square system: the that^-M..that^-1 coefficients
        # of X^j and its flat constant term, by the library against the
        # whole-series oracle and bm_eval
        for j in range(M + 1):
            x_j = BModElement.monomial(1, 0, j)
            assert polar(x_j, md, M) == conifold_polar_oracle(x_j, md, M)
            assert q_constant_term(x_j, md) == \
                bm_eval(x_j, md, target="Q").constant_term()

    @pytest.mark.parametrize("kind", ["local", "relative"])
    @pytest.mark.parametrize("at_floor", [True, False])
    def test_equals_the_square_solve(self, md, kind, at_floor):
        # through genus 8, each genus solved at its floor order or at ORDER;
        # the square system is read from the order-ORDER mirror data
        for g in range(2, 9):
            small = build_mirror_data(max(5, least_q_order(g))) \
                if at_floor else md
            corr = Correspondence(small)
            if g > 2:
                solve_genus(g - 1, kind, small, corr)
            key = corr.tower(kind).key(g)
            particular = integrate_S(hae_rhs(*key, corr.grid))
            got = gap_fix(*key, particular, small)
            assert got == square_solve(*key, particular, md)

    def test_solving_reverts_nothing_and_solves_no_system(self, monkeypatch):
        # a reversion or a square solve per genus made the deep towers
        # several times slower; the count starts before s_con is made, on a
        # new record whose cached tables are empty
        md = build_mirror_data(16)._replace()
        calls = []

        def counting(name, f):
            def counted(*args):
                calls.append(name)
                return f(*args)
            return counted

        monkeypatch.setattr(RatSeries, "revert",
                            counting("revert", RatSeries.revert))
        # graded reads solve_unique from linalg, so one patch sees every solve
        monkeypatch.setattr(linalg, "solve_unique",
                            counting("solve_unique", linalg.solve_unique))
        for kind in ("local", "relative"):
            solve_genus(8, kind, md, Correspondence(md))
        assert calls == []
        md.that.revert()
        linalg.solve_unique([[1]], [1])
        assert calls == ["revert", "solve_unique"]

    def test_powers_are_made_only_through_the_poles_read(self, md,
                                                         gap_calls,
                                                         monkeypatch):
        # the mirror data know s_con and that near their order (u^30 and
        # u^32 here); powers made that far would slow the deep towers
        tables = []

        class MadePowers(Powers):
            """A table that records how far each power read is known, by
            its tuple key: the reads of the table itself included."""

            def __init__(self, base):
                super().__init__(base)
                self.known = {}
                tables.append(self)

            def __getitem__(self, k):
                power = super().__getitem__(k)
                self.known[(k,) if isinstance(k, int) else k] = power.trunc_order
                return power

        monkeypatch.setattr(hae, "Powers", MadePowers)
        for g, _, sol in gap_calls.calls:
            M = 2 * g - 2
            conifold_expand(sol, md, M)
            s_con_pow, that_pow = tables[-2:]
            # s_con through u^r, r the largest x + s - 1, and its s-th
            # power through u^(r - s + 1)
            r = max(x + s - 1 for s, x in sol.terms)
            assert s_con_pow.bases[0].trunc_order == r < md.s_con.trunc_order
            assert max(s_con_pow.known) == (sol.deg_S(),)
            assert all(t == r - s + 1 for (s,), t in s_con_pow.known.items() if s)
            # the gap target makes u^-M the deepest pole: that^i through u^M,
            # the unit that^0 included
            assert that_pow.known == {(i,): M for i in range(M + 1)}


class TestAnomalyEquation:
    def test_relative_genus2_rhs(self):
        rhs = hae_rhs(2, 0, DTower())
        # (1/2) (QdQ F1)^2 = X^2 / (1152 I11^2)
        assert rhs == BModElement.monomial(F(1, 1152), 0, 2, i11_degree=2)

    def test_relative_genus2_integrates_to_x_over_384(self):
        part = integrate_S(hae_rhs(2, 0, DTower()))
        assert part == BModElement(0, {(1, 1): F(1, 384)})

    def test_relative_genus1_has_no_s_dependence(self):
        assert DF1_RELATIVE.partial("S").is_zero()

    def test_local_genus2_rhs_matches_closed_form(self):
        # d/dS of the known local genus-2 series equals the assembled rhs
        rhs = hae_rhs(0, 2, DTower())
        lhs = F2_LOCAL.partial("S")
        lhs = BModElement(2, {(s, x + 1): v / 3 for (s, x), v in lhs.terms.items()})
        assert lhs == rhs

    def test_verify_hae_reports(self):
        grid = DTower()
        grid.set_genus((0, 2), F2_LOCAL)
        grid.set_genus((2, 0), F2_RELATIVE)
        assert verify_hae(0, 2, grid)["ok"] and verify_hae(2, 0, grid)["ok"]
        # each edge's closed form fails the other edge's equation
        grid.set_genus((0, 2), F2_RELATIVE)
        grid.set_genus((2, 0), F2_LOCAL)
        assert not verify_hae(0, 2, grid)["ok"]
        assert not verify_hae(2, 0, grid)["ok"]


class TestSolveGenus2:
    def test_local(self, md):
        got = solve_genus(2, "local", md)
        assert got == F2_LOCAL

    def test_relative(self, md):
        got = solve_genus(2, "relative", md)
        assert got == F2_RELATIVE

    def test_degree_bounds_asserted(self):
        with pytest.raises(Exception):
            assert_finite_generation(BModElement.monomial(1, 0, -3), 0, 2)
        with pytest.raises(Exception):
            assert_finite_generation(BModElement.monomial(1, 2, 0), 2, 0)


@pytest.fixture(scope="module")
def towers():
    """Genus 3: local by anomaly + gap, relative through the
    correspondence, and relative by anomaly + gap directly."""
    _, corr, direct = acceptance.context()
    return (corr.local.elements[3], corr.relative.elements[3],
            direct.relative.elements[3])


def ambiguity_basis(g: int) -> list:
    return [BModElement.monomial(1, 0, j) for j in range(2 * g - 1)]


class TestAmbiguityDimensions:
    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_dimension_is_2g_minus_1(self, g, gap_calls):
        # per tower, gap_fix adds to the particular solution a combination
        # of X^0..X^(2g-2) alone
        span = {(0, j) for j in range(2 * g - 1)}
        seen = [(particular, sol) for gp, particular, sol in gap_calls.calls
                if gp == g]
        assert len(seen) == 2
        for particular, sol in seen:
            assert set((sol - particular).terms) <= span
        # matches the count of A^a C^c monomials of weight 6g-6
        count = sum(1 for c in range(2 * g - 1) if (6 * g - 6 - 3 * c) >= 0)
        assert count == 2 * g - 1


@pytest.fixture(scope="module")
def solved(md):
    """Both towers through genus 4 by anomaly + gap alone."""
    towers = {}
    for kind in ("local", "relative"):
        corr = Correspondence(md)
        for g in range(2, 5):
            solve_genus(g, kind, md, corr)
        towers[kind] = corr.local if kind == "local" else corr.relative
    return towers


class TestQConstantTerm:
    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_matches_the_q_expansion(self, md, solved, g):
        elts = ambiguity_basis(g)
        for tower in solved.values():
            elts += [tower.elements[g], hae_rhs(*tower.key(g), tower.grid)]
        for e in elts:
            assert q_constant_term(e, md) == bm_eval(e, md).constant_term()


class TestLeastQOrder:
    def test_is_2g_minus_2(self):
        assert [least_q_order(g) for g in range(2, 9)] == list(range(2, 16, 2))

    @pytest.mark.parametrize("gmax,relative", [(8, False), (5, True)])
    def test_towers_at_the_floor_equal_order_32(self, md, gmax, relative):
        full = solve_towers(md, gmax, relative)
        kinds = ("local", "relative") if relative else ("local",)
        for g in range(2, gmax + 1):
            small = solve_towers(build_mirror_data(max(5, least_q_order(g))),
                                 g, relative)
            for kind in kinds:
                assert small.tower(kind).elements == \
                    {gp: full.tower(kind).elements[gp] for gp in range(2, g + 1)}

    @pytest.mark.parametrize("g", range(2, 9))
    def test_one_order_lower_is_rejected_before_any_series_work(self, g):
        # mirror data that carries only its order: any series work fails
        md = SimpleNamespace(order=2 * g - 3)
        for kind in ("local", "relative"):
            with pytest.raises(ValueError, match=f"genus {g} needs mirror order "
                                               f">= {2 * g - 2}, got {2 * g - 3}"):
                solve_genus(g, kind, md)

    @pytest.mark.parametrize("g", range(4, 9))
    def test_towers_one_order_lower_raise_gap_error(self, g):
        # below order 5 there is no mirror data to build
        with pytest.raises(ValueError, match=f"genus {g} needs mirror order"):
            solve_towers(build_mirror_data(2 * g - 3), g, False)


def digest(elements: dict) -> str:
    """The sha256 of a tower, as scripts/time_direct_tower.py makes it."""
    return hashlib.sha256("\n".join(
        repr(elements[g]) for g in sorted(elements)).encode()).hexdigest()


@pytest.fixture(scope="module")
def edges12():
    """Both towers through genus 12 by anomaly + gap, on one grid at mirror
    order 22, the least that solves genus 12."""
    md = build_mirror_data(least_q_order(12))
    corr = Correspondence(md)
    for kind in ("local", "relative"):
        solve_genus(12, kind, md, corr)
    return corr


class TestDirectRelativeTower:
    def test_genus12_at_order24_is_pinned(self):
        # the relative gap past genus 7 on the library path, which no CLI
        # report prints
        md = build_mirror_data(24)
        corr = Correspondence(md)
        solve_genus(12, "relative", md, corr)
        assert digest(corr.relative.elements) == \
            "5cfb9df305b51a82b7b2bd4531cd3426766f2e4b3ad6142aaa5925fe3c2876c0"


class TestLocalTower:
    def test_genus12_at_order22_is_pinned(self, edges12):
        # every coefficient of the local tower, not only the degrees 1-5
        # that the Gopakumar-Vafa check reads
        assert digest(edges12.local.elements) == \
            "cd5946cf67d08c550a9aea5d15a06e059ab8f3be72cf3de1e84c46480be41da6"


class TestUnifiedBounds:
    def test_sharp_on_both_edges_through_genus12(self, edges12):
        # assert_finite_generation checks each bound as an inequality; on
        # the two edges deg_S F^(n,g) = 3g + 2n - 3, max(s + x) = 2G - 2 and
        # min(3x + s) = 0, and the local tower reaches X^-(G-1)
        for tower in (edges12.local, edges12.relative):
            assert sorted(tower.elements) == list(range(2, 13))
            for G, elt in tower.elements.items():
                n, g = tower.key(G)
                assert elt.deg_S() == 3 * g + 2 * n - 3
                assert max(s + x for s, x in elt.terms) == 2 * G - 2
                assert min(3 * x + s for s, x in elt.terms) == 0
                assert min(x for _, x in elt.terms) == (-(G - 1) if g else 0)


class TestGopakumarVafa:
    """The local flat tower against the multicover sum of the
    Gopakumar-Vafa integers that the topological vertex gives
    (tests/oracles.py), which reads no anomaly, gap or mirror map."""

    @staticmethod
    def mismatches(gmax: int) -> list:
        md = build_mirror_data(least_q_order(gmax))
        corr = solve_towers(md, gmax, False)
        return gv_mismatches(lambda g: flat_expansion(corr, g, "local"), gmax)

    def test_local_tower_through_genus_10(self):
        # genus 0..10 in degrees 1-5 at order 18: 55 cells
        assert self.mismatches(10) == []

    def test_a_skewed_gap_target_fails_first_at_its_genus(self, monkeypatch):
        target = hae.gamma

        def skewed(n, g):
            t = target(n, g)
            return t * (1 + F(1, 10 ** 6)) if (n, g) == (0, 7) else t
        monkeypatch.setattr(hae, "gamma", skewed)
        assert self.mismatches(10)[0][0] == 7


class TestGridInterior:
    """F^(n,g) with n, g >= 1, which no command solves, by the same rule as
    the edges: at degree 1 it carries local P^2's one refined BPS state
    (tests/oracles.py), which reads no anomaly, gap or mirror map."""

    @staticmethod
    def mismatches(G: int) -> list:
        md = build_mirror_data(least_q_order(G))
        grid = DTower()
        for n in range(G + 1):
            solve(n, G - n, md, grid)
        return sorted(key for key, elt in grid.elements.items()
                      if bm_eval(elt, md, target="Q").coeff(1)
                      != refined_degree_one(sum(key))[key])

    def test_degree_one_through_total_genus_6(self):
        # 25 elements, 15 of them off the edges
        assert self.mismatches(6) == []

    def test_a_skewed_interior_gap_target_fails_there(self, monkeypatch):
        target = hae.gamma

        def skewed(n, g):
            t = target(n, g)
            return t * (1 + F(1, 10 ** 6)) if (n, g) == (2, 3) else t
        monkeypatch.setattr(hae, "gamma", skewed)
        assert self.mismatches(6) == [(2, 3), (2, 4), (3, 3)]


class TestGenus4:
    def test_local_solve_full_rank_and_bounds(self, md, solved):
        f4 = solved["local"].elements[4]
        assert_finite_generation(f4, 0, 4)
        con = conifold_expand(f4, md, 6)
        assert all(con.coeff(-j) == 0 for j in range(1, 6))
        assert con.coeff(-6) == gap_conditions(0, 4)[-1]
        assert bm_eval(f4, md, target="Q").constant_term() == 0


@pytest.mark.parametrize("order,g", [(ORDER, 2), (ORDER, 3), (ORDER, 4),
                                     (ORDER, 5), (5, 3)])
def test_two_relative_routes_are_equal_elements(order, g):
    # through the correspondence and by anomaly + gap: equal as ring
    # elements, not only in their flat expansions, at any order that
    # solves genus g
    md = build_mirror_data(order)
    assert solve_towers(md, g, True).relative.elements[g] == \
        solve_genus(g, "relative", md)


class TestGenus3Triangle:
    def test_two_routes_agree_on_flat_coefficients(self, md, towers):
        _, via_corr, via_gap = towers
        a = bm_eval(via_corr, md, target="Q")
        b = bm_eval(via_gap, md, target="Q")
        assert a.coeff_list(0, 8) == b.coeff_list(0, 8)

    def test_membership_and_degree_bounds(self, towers):
        _, via_corr, via_gap = towers
        for elt in (via_corr, via_gap):
            qm = bm_to_qmod(elt)
            assert qm.c_pole <= 4
            assert qm.weight == 0
            assert all(b <= 3 for _, b, _ in qm.terms)
            assert_finite_generation(elt, 3, 0)

    def test_local_genus3_flat_constant_vanishes(self, md, towers):
        f3_local, _, _ = towers
        assert bm_eval(f3_local, md, target="Q").constant_term() == 0

    def test_four_point_weight_law(self, towers):
        # the triangle above already forced the four-point extraction; its
        # recognized weight must match sum(a_j + 2)
        from localp2.elliptic import StationaryLabel, connected_extract
        got = connected_extract(StationaryLabel(3, (1, 1, 1, 1)))
        assert got.value.weight == 12
        assert not got.value.is_zero()
