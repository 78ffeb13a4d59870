import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from localp2 import mirror
from localp2.mirror import (
    BModElement,
    BModError,
    MirrorData,
    bm_derive_D,
    bm_eval,
    bm_theta,
    bm_to_qmod,
    build_mirror_data,
    cq_change,
    q_to_Q,
    theta_u,
    _band,
    _conifold_flat,
    _mirror_op_u,
)
from localp2.quasimod import QModElement, generator_series, qm_derive, qm_to_qseries
from localp2.series import RatSeries, SeriesError

from oracles import ibar1_coeff, pl_mirror_op_u, qmod_to_bmod

F = Fraction

ORDER = 32


@pytest.fixture(scope="module")
def md() -> MirrorData:
    return build_mirror_data(ORDER)


class TestMirrorDataClass:
    # build_mirror_data makes MirrorData a frozen dataclass in place on its
    # first call; perfbench/tracer.py reads its __dataclass_fields__
    def test_one_class(self):
        assert type(build_mirror_data(8)) is type(build_mirror_data(9)) \
            is mirror.MirrorData is MirrorData

    def test_fields_in_order(self, md):
        assert [f.name for f in dataclasses.fields(md)] == [
            "order", "ibar1", "I11", "J", "X", "S", "Qofq", "qofQ", "cQofq",
            "that"]
        assert list(MirrorData.__dataclass_fields__) == [
            f.name for f in dataclasses.fields(md)]

    def test_frozen(self, md):
        with pytest.raises(dataclasses.FrozenInstanceError):
            md.order = 7
        with pytest.raises(dataclasses.FrozenInstanceError):
            del md.S

    def test_rebuild_after_cache_clear(self):
        first = build_mirror_data(6)
        build_mirror_data.cache_clear()
        again = build_mirror_data(6)
        assert again is not first
        assert type(again) is MirrorData and again == first


class TestFrobenius:
    def test_ibar1_closed_form(self, md):
        assert md.ibar1.coeff(1) == ibar1_coeff(1) == -6
        assert md.ibar1.coeff(2) == ibar1_coeff(2) == 45

    def test_i11(self, md):
        assert md.I11.coeff_list(0, 2) == [1, -6, 90]

    def test_mirror_map(self, md):
        assert md.Qofq.coeff_list(1, 6) == [1, -6, 63, -866, 13899, -246366]
        assert md.qofQ.coeff_list(1, 6) == [1, 6, 9, 56, -300, 3942]

    def test_round_trip(self, md):
        comp = md.Qofq.compose(md.qofQ)
        assert comp.coeff_list(1, ORDER - 1) == [1] + [0] * (ORDER - 2)

    def test_propagator_first_order(self, md):
        # by hand: theta log I11 = -6q + ..., (X-1)/3 = -9q + ...
        assert md.S.coeff_list(0, 1) == [0, 3]

    def test_propagator_definition(self, md):
        lhs = md.I11.log().theta()
        rhs = md.S + (md.X - RatSeries.one("q", ORDER)) / 3
        assert lhs.agrees_with(rhs, ORDER - 1)

    def test_second_period_identity(self, md):
        # theta(J/I11) = X/I11^2 - 1, the classical special-geometry relation
        lhs = (md.J / md.I11).theta()
        rhs = md.X / md.I11 ** 2 - RatSeries.one("q", ORDER)
        assert lhs.agrees_with(rhs, ORDER - 2)


class TestNomeBridge:
    def test_a_pulls_back_to_i11(self, md):
        a = generator_series("A", 30)
        got = cq_change(a, md)
        assert got.agrees_with(md.I11, 30)

    def test_b_pulls_back(self, md):
        b = generator_series("B", 30)
        got = cq_change(b, md)
        rhs = md.I11 ** 2 * (md.X + 6 * md.S) / md.X
        assert got.agrees_with(rhs, 30)

    def test_c_pulls_back(self, md):
        c = generator_series("C", 30)
        got = cq_change(c, md)
        rhs = md.I11 ** 3 / md.X
        assert got.agrees_with(rhs, 30)

    def test_hauptmodul(self, md):
        # A^3 / C pulled back is the geometric series of 1/(1+27q)
        order = 30
        a3c = qm_to_qseries(QModElement(1, {(3, 0, 0): 1}), order)
        got = cq_change(a3c, md)
        assert got.agrees_with(md.X, order)

    def test_constant_series(self, md):
        c = RatSeries.const("cQ", F(5, 7), 10)
        assert cq_change(c, md).constant_term() == F(5, 7)

    def test_tag_mismatch(self, md):
        with pytest.raises(Exception):
            cq_change(RatSeries.one("q", 5), md)

    def test_cq_cube_consistency(self, md):
        # a cQt-series equals the same series in cQ^3
        s_t = RatSeries.from_pairs("cQt", {1: 1, 2: -2}, 8)
        s_c = RatSeries.from_pairs("cQ", {3: 1, 6: -2}, 24)
        assert cq_change(s_t, md).agrees_with(cq_change(s_c, md), 20)


class TestDerivationRules:
    def test_theta_x(self, md):
        e = BModElement.monomial(1, 0, 1)  # X
        got = bm_theta(e)
        assert got == BModElement(0, {(0, 2): 1, (0, 1): -1})
        lhs = bm_eval(got, md)
        assert lhs.agrees_with(md.X.theta(), ORDER - 2)

    def test_theta_s_riccati(self, md):
        e = BModElement.monomial(1, 1, 0)  # S
        lhs = bm_eval(bm_theta(e), md)
        assert lhs.agrees_with(md.S.theta(), ORDER - 2)

    def test_D_of_D3F0(self, md):
        d3 = BModElement.monomial(-9, 0, 1, i11_degree=3)  # -9X/I11^3
        d4 = bm_derive_D(d3)
        assert d4 == BModElement.monomial(81, 1, 1, i11_degree=4)

    def test_D_of_constant(self):
        assert bm_derive_D(BModElement.const(1)).is_zero()

    def test_D2_F1_relative(self):
        df1 = BModElement.monomial(F(-1, 8), 0, 1, i11_degree=1)
        d2f1 = bm_derive_D(df1)
        expect = BModElement(2, {(1, 1): F(3, 8), (0, 2): F(-1, 4), (0, 1): F(1, 4)})
        assert d2f1 == expect

    def test_D_bridge_on_series(self, md):
        # evaluate-then-derive equals derive-then-evaluate (in Q)
        e = BModElement(1, {(2, 1): F(5, 3), (0, -1): 2})
        lhs = bm_eval(bm_derive_D(e), md, target="Q")
        rhs = q_to_Q(bm_eval(e, md), md).theta() * 3
        assert lhs.agrees_with(rhs, 20)

    def test_D_matches_nome_derivative(self, md):
        # D = 3 C^{-1} * (nome d/d nome) on the quasimodular side
        order = 28
        e = BModElement(2, {(1, 1): F(3, 8), (0, 2): F(-1, 4), (0, 1): F(1, 4)})
        qm = bm_to_qmod(e)
        lhs = qm_to_qseries(bm_to_qmod(bm_derive_D(e)), order)
        c = generator_series("C", order)
        rhs = 3 * (qm_to_qseries(qm, order).theta() / c)
        assert lhs.agrees_with(rhs, order - 4)

    def test_QdQ_is_D_over_3(self):
        # Q d/dQ = I11^-1 q d/dq
        e = BModElement(0, {(1, 0): 1, (0, 2): F(1, 5)})
        a = BModElement(e.i11_degree + 1, bm_theta(e).terms)
        b = bm_derive_D(e)
        assert b == BModElement(a.i11_degree, {k: 3 * v for k, v in a.terms.items()})


class TestQuasimodDictionary:
    def test_x(self):
        assert bm_to_qmod(BModElement.monomial(1, 0, 1)) == \
            QModElement(1, {(3, 0, 0): 1})

    def test_s(self):
        got = bm_to_qmod(BModElement.monomial(1, 1, 0))
        expect = QModElement(1, {(1, 1, 0): F(1, 6), (3, 0, 0): F(-1, 6)})
        assert got == expect

    def test_f2_relative_form(self):
        e = BModElement(0, {(1, 1): F(1, 384), (0, 2): F(-1, 360),
                            (0, 1): F(1, 240), (0, 0): F(-1, 720)})
        got = bm_to_qmod(e)
        expect = QModElement(2, {(6, 0, 0): F(-37, 11520), (4, 1, 0): F(5, 11520),
                                 (3, 0, 1): F(48, 11520), (0, 0, 2): F(-16, 11520)})
        assert got == expect

    def test_irregular_element_rejected(self):
        with pytest.raises(BModError):
            bm_to_qmod(BModElement.monomial(1, 0, -1))  # 1/X alone

    def test_roundtrip(self):
        e = BModElement(0, {(3, -1): F(5, 8), (2, 0): F(1, 8),
                            (1, 1): F(1, 96), (0, 2): F(1, 4320),
                            (0, 1): F(1, 4320), (0, 0): F(-1, 2160)})
        back = qmod_to_bmod(bm_to_qmod(e))
        assert back == e

    def test_derivation_commutes_with_dictionary(self, md):
        # qm_derive(bm_to_qmod(e)) = bm_to_qmod(theta e) since theta = nome-deriv * C/...
        # via expansions: nome theta of the image equals image of bm_theta
        order = 26
        e = BModElement(0, {(1, 0): 1, (0, 1): F(2, 3)})
        lhs = qm_to_qseries(qm_derive(bm_to_qmod(e)), order)
        rhs = qm_to_qseries(bm_to_qmod(e), order).theta()
        assert lhs.agrees_with(rhs, order - 4)


class TestHash:
    def test_zero_hash_agrees_with_eq(self):
        a, b = BModElement(0, {}), BModElement(2, {})
        assert a == b
        assert len({a, b}) == 1 and hash(a) == hash(b)

    def test_hash_follows_degree(self):
        a = BModElement.monomial(1, 1, 0, i11_degree=1)
        b = BModElement.monomial(1, 1, 0, i11_degree=2)
        assert a != b and len({a, b, a * 1}) == 2


class TestEval:
    def test_x_eval(self, md):
        got = bm_eval(BModElement.monomial(1, 0, 1), md)
        assert got.coeff_list(0, 2) == [1, -27, 729]

    def test_inverse_x_powers_are_polynomials(self, md):
        # X^-2 = (1 + 27q)^2, known through the mirror order
        got = bm_eval(BModElement.monomial(1, 0, -2), md)
        assert got == RatSeries.from_pairs("q", {0: 1, 1: 54, 2: 729}, ORDER)

    def test_genus2_correction_eval(self, md):
        # (X/384) S - X^2/360 + X/240 - 1/720 has the pinned flat expansion
        e = BModElement(0, {(1, 1): F(1, 384), (0, 2): F(-1, 360),
                            (0, 1): F(1, 240), (0, 0): F(-1, 720)})
        got = bm_eval(e, md, target="Q")
        assert got.coeff_list(0, 4) == [0, F(29, 640), F(-207, 64),
                                        F(18447, 160), F(-526859, 160)]


class TestRingProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    bmod_elements = st.builds(
        lambda pairs: BModElement(
            0, {(s, x): v for (s, x), v in pairs}),
        st.lists(st.tuples(
            st.tuples(st.integers(0, 4), st.integers(-1, 3)).filter(
                lambda sx: sx[0] + 3 * sx[1] >= 0),
            st.integers(-6, 6)), min_size=1, max_size=5),
    )

    @given(bmod_elements, bmod_elements)
    @settings(max_examples=50, deadline=None)
    def test_theta_leibniz(self, a, b):
        lhs = bm_theta(a * b)
        rhs = bm_theta(a) * b + a * bm_theta(b)
        assert lhs == rhs

    @given(bmod_elements)
    @settings(max_examples=50, deadline=None)
    def test_dictionary_roundtrip(self, e):
        assert qmod_to_bmod(bm_to_qmod(e)) == e


class TestConifoldCoordinate:
    def test_linear_coefficient(self, md):
        assert md.that.coeff_list(0, 1) == [0, 1]
        assert md.that.coeff(2) == F(11, 18)

    def test_solves_equation(self, md):
        res = _mirror_op_u(md.that)
        assert all(res.coeff(k) == 0 for k in range(0, ORDER - 2))

    def test_unique_pivots(self):
        # recursion must run without degenerate pivots at higher order too
        t = _conifold_flat(40)
        assert t.coeff(1) == 1

    @pytest.mark.parametrize("n", [10, 32, 40])
    def test_zero_residual_by_plain_list_oracle(self, n):
        # the operator applied on plain lists is known through u^(n-3)
        c = _conifold_flat(n).coeff_list(0, n)
        assert pl_mirror_op_u(c) == [0] * (n - 2)
        c[n // 2] += 1
        assert any(pl_mirror_op_u(c))


rationals = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
                      st.integers(1, 10 ** 9))


def theta_by_product(f: RatSeries) -> RatSeries:
    """(u - 1) times d/du f, as one RatSeries product."""
    n = f.trunc_order
    d = {k - 1: k * f.coeff(k) for k in range(f.min_exp, n + 1) if k}
    deriv = RatSeries.from_pairs("u", d or {0: 0}, n - 1)
    return RatSeries.from_pairs("u", {0: -1, 1: 1}, n) * deriv


def q_to_Q_by_compose(series: RatSeries, md: MirrorData) -> RatSeries:
    """q_to_Q by Horner composition with qofQ."""
    power = RatSeries("q", series.min_exp, series.coeffs)
    if series.log_coeff:
        power = power - series.log_coeff * md.ibar1
    out = power.compose(md.qofQ)
    if series.log_coeff:
        return RatSeries("Q", out.min_exp, out.coeffs, series.log_coeff)
    return out


def assert_same_or_both_reject(fast, slow, *args):
    try:
        expect = slow(*args)
    except SeriesError:
        with pytest.raises(SeriesError):
            fast(*args)
        return
    got = fast(*args)
    assert (got.var, got.min_exp, got.trunc_order, got.log_coeff) == \
        (expect.var, expect.min_exp, expect.trunc_order, expect.log_coeff)
    assert got.coeffs == expect.coeffs


class TestKernelEquivalence:
    @given(st.builds(lambda lo, cs: RatSeries("u", lo, cs), st.integers(-4, 4),
                     st.lists(st.just(0) | rationals, min_size=1, max_size=12)))
    @settings(max_examples=200, deadline=None)
    def test_theta_u_is_the_product_form(self, f):
        assert_same_or_both_reject(theta_u, theta_by_product, f)

    @pytest.mark.parametrize("f", [RatSeries("u", 0, [1]),
                                   RatSeries("u", -3, [1, 2, 3, 4]),
                                   RatSeries("u", -2, [1])])
    def test_theta_u_rejects_series_known_only_below_u1(self, f):
        for form in (theta_u, theta_by_product):
            with pytest.raises(SeriesError):
                form(f)

    @given(st.builds(lambda lo, cs, log: RatSeries("q", lo, cs, log),
                     st.integers(-2, 3),
                     st.lists(st.just(0) | rationals, min_size=1, max_size=16),
                     st.just(0) | st.integers(-3, 3) | rationals))
    @settings(max_examples=100, deadline=None)
    def test_q_to_Q_is_composition(self, series):
        assert_same_or_both_reject(q_to_Q, q_to_Q_by_compose, series,
                                   build_mirror_data(12))

    def test_q_to_Q_on_the_flat_expansions(self, md):
        elts = [BModElement(0, {(1, 1): F(1, 384), (0, 2): F(-1, 360),
                                (0, 1): F(1, 240), (0, 0): F(-1, 720)}),
                BModElement(2, {(1, 1): F(3, 8), (0, -1): 2})]
        for e in elts:
            series = bm_eval(e, md)
            assert_same_or_both_reject(q_to_Q, q_to_Q_by_compose, series, md)
            logged = RatSeries("q", 0, series.coeffs, F(-1, 24))
            assert_same_or_both_reject(q_to_Q, q_to_Q_by_compose, logged, md)

    def test_band_images_are_the_full_order_images(self):
        # 9 times the image of u^k is _band(k) on u^(k-2)..u^(k+1) and
        # zero elsewhere; for k = 1 the u^-1 entry is zero
        for k in range(1, 41):
            full = _mirror_op_u(RatSeries.from_pairs("u", {k: 1}, k + 5))
            band = dict(zip(range(k - 2, k + 2), _band(k)))
            assert band.get(-1, 0) == 0
            top = full.trunc_order
            assert top == k + 2
            assert [9 * full.coeff(m) for m in range(top + 1)] == \
                [band.get(m, 0) for m in range(top + 1)]
