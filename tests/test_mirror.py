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
    _conifold_flat,
    _picard_fuchs,
)
from localp2.quasimod import QModElement, generator_series, qm_derive, qm_to_qseries
from localp2.series import Powers, RatSeries, SeriesError

from oracles import (
    ibar1_coeff,
    pl_compose,
    pl_log_companion_residual,
    pl_long_division,
    pl_mirror_op_u,
    pl_mul,
    pl_revert,
    qmod_to_bmod,
)

F = Fraction

ORDER = 32


@pytest.fixture(scope="module")
def md() -> MirrorData:
    return build_mirror_data(ORDER)


class TestMirrorDataClass:
    # MirrorData is a frozen namedtuple record; perfbench/tracer.py reads
    # its field names from __dataclass_fields__
    def test_one_class(self):
        assert type(build_mirror_data(8)) is type(build_mirror_data(9)) \
            is mirror.MirrorData is MirrorData

    def test_fields_in_order(self, md):
        assert list(MirrorData._fields) == [
            "order", "ibar1", "I11", "J", "X", "S", "Qofq", "qofQ", "cQofq",
            "that"]
        assert list(MirrorData.__dataclass_fields__) == list(MirrorData._fields)

    def test_frozen(self, md):
        with pytest.raises(AttributeError):
            md.order = 7
        with pytest.raises(AttributeError):
            del md.S
        with pytest.raises(AttributeError):
            md.extra = 1

    def test_rebuild_after_cache_clear(self):
        first = build_mirror_data(6)
        build_mirror_data.cache_clear()
        again = build_mirror_data(6)
        assert again is not first
        assert type(again) is MirrorData and again == first
        assert hash(again) == hash(first)


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
        comp = md.Qofq.compose(Powers(md.qofQ, RatSeries.one("Q", ORDER + 1)))
        assert comp.coeff_list(1, ORDER - 1) == [1] + [0] * (ORDER - 2)

    @pytest.mark.parametrize("n", [5, 32, 52, 78])
    def test_inverse_mirror_map_is_the_reversion(self, n):
        # read by Lagrange-Buermann from the hypergeometric integers
        md = build_mirror_data(n)
        assert md.qofQ == md.Qofq.revert("Q")
        assert md.qofQ.trunc_order == n + 1

    def test_q_to_Q_at_order_78(self):
        # the table's factorial denominators are largest at the top order
        md = build_mirror_data(78)
        series = bm_eval(BModElement(2, {(1, 1): F(3, 8), (0, -1): 2,
                                         (2, 3): F(-5, 7)}), md)
        assert_same_or_both_reject(q_to_Q, q_to_Q_by_compose, series, md)

    def test_mirror_data_and_q_to_Q_revert_nothing(self, monkeypatch):
        calls = []
        revert = RatSeries.revert

        def counted(*args):
            calls.append(args)
            return revert(*args)
        monkeypatch.setattr(RatSeries, "revert", counted)
        md = build_mirror_data.__wrapped__(32)
        q_to_Q(md.S, md)
        assert calls == []
        md.Qofq.revert("Q")
        assert len(calls) == 1

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


class TestPicardFuchs:
    def test_periods_solve_the_operator(self, md):
        q = RatSeries.gen("q", ORDER)
        res = _picard_fuchs(md.I11, RatSeries.theta, q)
        assert res.trunc_order == ORDER and res.is_zero()

    @pytest.mark.parametrize("n", [10, 32, 78])
    def test_log_companion_by_plain_list_oracle(self, n):
        # L J + 2 (1 + 27q) theta I11 + 27 q I11 on plain lists, through q^(n-2)
        md = build_mirror_data(n)
        i11, j = md.I11.coeff_list(0, n), md.J.coeff_list(0, n)
        assert pl_log_companion_residual(i11, j) == [0] * (n - 1)
        j[n // 2] += 1
        assert any(pl_log_companion_residual(i11, j))

    @pytest.mark.parametrize("build, message", [
        (build_mirror_data.__wrapped__, "degree-one period"),
        (_conifold_flat, "conifold flat coordinate")])
    def test_a_wrong_coefficient_fails_the_runtime_check(self, monkeypatch,
                                                         build, message):
        table = mirror._hypergeometric

        def bumped(order):
            a = table(order)
            a[3] += 1
            return a
        monkeypatch.setattr(mirror, "_hypergeometric", bumped)
        with pytest.raises(SeriesError, match=message):
            build(12)


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

    @pytest.mark.parametrize("tag", ["cQ", "cQt"])
    def test_nome_change_is_plain_list_composition(self, md, tag):
        # the nome, or its cube taken on plain lists, substituted by the
        # Horner oracle, which shares no code with compose
        top = md.cQofq.trunc_order
        nome = md.cQofq.coeff_list(0, top)
        if tag == "cQ":
            inner, bound = nome, ORDER
        else:  # a cube of valuation 3 is known two orders further
            bound = top + 2
            inner = pl_mul(pl_mul(nome, nome, bound), nome, bound)
        outer = RatSeries(tag, 0, [F((-1) ** k * (k + 1), k * k + 2)
                                   for k in range(ORDER + 1)])
        got = cq_change(outer, md)
        assert (got.var, got.min_exp, got.trunc_order) == ("q", 0, bound)
        assert list(got.coeffs) == pl_compose(outer.coeff_list(0, ORDER),
                                              inner[:bound + 1], bound)

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
        # theta t solves L with theta = theta_u and q = (u - 1)/27
        q = (RatSeries.gen("u", ORDER) - 1) / 27
        res = _picard_fuchs(theta_u(md.that), theta_u, q)
        assert res.trunc_order == ORDER - 3
        assert all(res.coeff(k) == 0 for k in range(0, ORDER - 2))

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
    """q_to_Q by the plain-list Horner substitution of qofQ."""
    power = RatSeries("q", series.min_exp, series.coeffs)
    if series.log_coeff:
        power = power - series.log_coeff * md.ibar1
    if power.min_exp < 0:
        raise SeriesError("a Laurent series has no substitution")
    n = min(power.trunc_order, md.qofQ.trunc_order)
    return RatSeries("Q", 0, pl_compose(power.coeff_list(0, n),
                                        md.qofQ.coeff_list(0, n), n),
                     series.log_coeff)


def bm_eval_by_plain_lists(e: BModElement, md: MirrorData,
                           target: str) -> RatSeries:
    """bm_eval on plain Fraction lists: each monomial's powers of S, X and
    1 + 27q multiplied out by pl_mul, X by long division, the I11 factor
    by pl_mul or pl_long_division, and q -> Q by Horner substitution of
    the pl_revert of the mirror map."""
    n = md.order
    one = [F(1)] + [F(0)] * n
    u = [F(1), F(27)] + [F(0)] * (n - 1)

    def power(base, k):
        out = one
        for _ in range(k):
            out = pl_mul(out, base, n)
        return out
    s_q = md.S.coeff_list(0, n)
    x_q = pl_long_division(one, u, n)
    i11 = md.I11.coeff_list(0, n)
    total = [F(0)] * (n + 1)
    for (s, x), v in e.terms.items():
        term = pl_mul(power(s_q, s), power(x_q, x) if x >= 0 else power(u, -x),
                      n)
        total = [t + v * c for t, c in zip(total, term)]
    k = e.i11_degree
    if k > 0:
        total = pl_long_division(total, power(i11, k), n)
    else:
        total = pl_mul(total, power(i11, -k), n)
    if target == "Q":
        qofQ = list(pl_revert(tuple(md.Qofq.coeff_list(0, n)), n))
        return RatSeries("Q", 0, pl_compose(total, qofQ, n))
    # the quotient by I11**k starts at its first nonzero coefficient
    lo = next((i for i, c in enumerate(total) if c), 0) if k > 0 else 0
    return RatSeries("q", lo, total[lo:])


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

    @given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(-3, 4)),
                           st.just(0) | rationals, max_size=6),
           st.integers(-2, 2), st.sampled_from(["q", "Q"]))
    @settings(max_examples=100, deadline=None)
    def test_bm_eval_by_plain_lists(self, terms, i11_degree, target):
        assert_same_or_both_reject(bm_eval, bm_eval_by_plain_lists,
                                   BModElement(i11_degree, terms),
                                   build_mirror_data(12), target)

    def test_q_to_Q_on_the_flat_expansions(self, md):
        elts = [BModElement(0, {(1, 1): F(1, 384), (0, 2): F(-1, 360),
                                (0, 1): F(1, 240), (0, 0): F(-1, 720)}),
                BModElement(2, {(1, 1): F(3, 8), (0, -1): 2})]
        for e in elts:
            series = bm_eval(e, md)
            assert_same_or_both_reject(q_to_Q, q_to_Q_by_compose, series, md)
            logged = RatSeries("q", 0, series.coeffs, F(-1, 24))
            assert_same_or_both_reject(q_to_Q, q_to_Q_by_compose, logged, md)
