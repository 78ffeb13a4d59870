import random
from fractions import Fraction

import pytest

from localp2.elliptic import EPoly
from localp2.graded import recognize, weight_monomials
from localp2.locrel import epoly_to_bmod
from localp2.mirror import BModElement, bm_to_qmod
from localp2.quasimod import (
    CQ,
    QModElement,
    bernoulli,
    eisenstein_series,
    generator_series,
    inv_2sinh,
    qm_derive,
    qm_to_qseries,
)
from localp2.series import Localp2Error, Powers, RatSeries

from oracles import (
    _inv_2sinh_half,
    bernoulli_list,
    eisenstein_oracle,
    eta_quotient_oracle,
    sigma,
)

F = Fraction

A = QModElement.gen("A")
B = QModElement.gen("B")
C = QModElement.gen("C")
WEIGHTS = QModElement.weights


def abc(order: int) -> Powers:
    """The table of the generator expansions A, B, C through ``order``."""
    return Powers(*(generator_series(name, order) for name in "ABC"))


def sl2_embed(k: int) -> QModElement:
    """E_k(3 tau) in Q[A, B, C], through the constants the correspondence
    uses for E_k at the cubed nome."""
    return bm_to_qmod(epoly_to_bmod(EPoly.gen(k)))


class TestBernoulliEisenstein:
    def test_bernoulli_against_recurrence_oracle(self):
        expect = bernoulli_list(14)
        got = [bernoulli(n) for n in range(15)]
        assert got == expect
        assert bernoulli(4) == F(-1, 30)
        assert bernoulli(6) == F(1, 42)

    def test_e2_against_divisor_oracle(self):
        got = eisenstein_series(2, 1, 8)
        expect = eisenstein_oracle(2, 8)
        assert got.coeff_list(0, 8) == expect
        assert got.coeff_list(0, 4) == [1, -24, -72, -96, -168]

    def test_e4_against_divisor_oracle(self):
        got = eisenstein_series(4, 1, 8)
        assert got.coeff_list(0, 8) == eisenstein_oracle(4, 8)
        assert got.coeff_list(0, 2) == [1, 240, 2160]

    def test_level_multiplier(self):
        got = eisenstein_series(2, 3, 9)
        assert got.coeff_list(0, 9) == [1, 0, 0, -24, 0, 0, -72, 0, 0, -96]

    def test_order_zero(self):
        for k in (2, 4, 6, 8):
            assert eisenstein_series(k, 1, 0).coeff_list(0, 0) == [1]

    def test_odd_weight_rejected(self):
        with pytest.raises(Exception):
            eisenstein_series(3, 1, 5)

    def test_inv_2sinh_against_long_division(self):
        # _inv_2sinh_half(n)[j + 1] is [z^j] 1/(2 sinh(z/2))
        expect = _inv_2sinh_half(21)
        assert [inv_2sinh(j) for j in range(-1, 21)] == expect[:22]
        assert inv_2sinh(-1) == 1 and inv_2sinh(1) == F(-1, 24)


class TestEtaQuotients:
    """The plain-list eta quotient oracle the generator checks read."""

    def test_weight_three_modular_form(self):
        got = eta_quotient_oracle(((1, 9), (3, -3)), 7)
        assert got == [1, -9, 27, -9, -117, 216, 27, -450]

    def test_weight_three_cusp_form(self):
        got = eta_quotient_oracle(((3, 9), (1, -3)), 7)
        assert got == [0, 1, 3, 9, 13, 24, 27, 50]

    def test_empty_spec(self):
        assert eta_quotient_oracle((), 4) == [1, 0, 0, 0, 0]

    def test_fractional_prefactor_rejected(self):
        with pytest.raises(Exception):
            eta_quotient_oracle(((1, 1),), 4)


class TestGenerators:
    def test_a_expansion(self):
        a = generator_series("A", 9)
        assert a.coeff_list(0, 9) == [1, 6, 0, 6, 6, 0, 0, 12, 0, 6]

    def test_b_expansion_from_definition(self):
        # oracle: (E2(tau) + 3 E2(3tau))/4 assembled from divisor sums
        b = generator_series("B", 4)
        e2 = eisenstein_oracle(2, 4)
        e2_3 = [F(0)] * 5
        e2_3[0] = F(1)
        e2_3[3] = -24 * F(sigma(1, 1))
        expect = [(e2[n] + 3 * e2_3[n]) / 4 for n in range(5)]
        assert b.coeff_list(0, 4) == expect == [1, -6, -18, -42, -42]

    def test_c_expansion(self):
        c = generator_series("C", 7)
        assert c.coeff_list(0, 7) == [1, -9, 27, -9, -117, 216, 27, -450]

    def test_c_is_the_eta_quotient(self):
        # C is built from A through Borwein's b(q); the definition is
        # eta(tau)^9 / eta(3 tau)^3
        order = 64
        c = generator_series("C", order)
        assert c.coeff_list(0, order) == eta_quotient_oracle(((1, 9), (3, -3)),
                                                             order)

    def test_cusp_combination(self):
        order = 7
        a3 = generator_series("A", order) ** 3
        c = generator_series("C", order)
        cusp = (a3 - c) / 27
        assert cusp.coeff_list(0, 7) == [0, 1, 3, 9, 13, 24, 27, 50]
        # A^3 = C + 27 eta(3 tau)^9 / eta(tau)^3: Borwein's a^3 = b^3 + c^3,
        # a check of A and of C built from A
        for n in (0, 1, 2, 5, 17, 40, 45):
            a3 = generator_series("A", n) ** 3
            c = generator_series("C", n)
            cusp = RatSeries(CQ, 0, eta_quotient_oracle(((3, 9), (1, -3)), n))
            assert a3 == c + 27 * cusp


class TestDerivation:
    def test_derive_a(self):
        got = qm_derive(A)
        expect = (A * B + A ** 3 - 2 * C) / 6
        assert got == expect

    def test_derive_constant(self):
        assert qm_derive(QModElement.const(1)).is_zero()

    def test_ramanujan_closure_series(self):
        order = 50
        for g in (A, B, C):
            lhs = qm_to_qseries(qm_derive(g), order)
            rhs = qm_to_qseries(g, order).theta()
            assert lhs.agrees_with(rhs, order)

    def test_derive_weight_and_pole(self):
        e = QModElement(1, {(3, 0, 0): 1})  # A^3/C, weight 0
        d = qm_derive(e)
        assert d.weight == 2
        assert d.c_pole <= 2
        # nome-series cross-check against theta of the expansion
        order = 30
        lhs = qm_to_qseries(d, order)
        rhs = qm_to_qseries(e, order).theta()
        assert lhs.agrees_with(rhs, order - 3)

    def test_leibniz(self):
        e1 = QModElement(0, {(1, 1, 0): 2})
        e2 = QModElement(1, {(0, 0, 2): 3, (3, 0, 1): F(1, 2)})
        lhs = qm_derive(e1 * e2)
        rhs = qm_derive(e1) * e2 + e1 * qm_derive(e2)
        assert lhs == rhs


class TestRecognize:
    def test_recognize_e2_level3(self):
        order = 20
        s = eisenstein_series(2, 3, order) * 3
        got = recognize(s, WEIGHTS, 2, abc(order))
        assert QModElement(0, got) == 2 * B + A ** 2

    def test_recognize_one(self):
        got = recognize(RatSeries.one(CQ, 15), WEIGHTS, 0, abc(15))
        assert QModElement(0, got) == QModElement.const(1)

    def test_recognize_with_pole(self):
        # the numerator of a weight-0 element with pole C^-2 has weight 6
        order = 40
        e = QModElement(2, {(6, 0, 0): F(-37, 11520), (4, 1, 0): F(5, 11520),
                            (3, 0, 1): F(48, 11520), (0, 0, 2): F(-16, 11520)})
        s = qm_to_qseries(e, order) * generator_series("C", order) ** 2
        got = recognize(s, WEIGHTS, 6, abc(order))
        assert QModElement(2, got) == e

    def test_random_roundtrip_and_rejection(self):
        rng = random.Random(7)
        for weight in (4, 7, 10):
            monos = weight_monomials(WEIGHTS, weight)
            e = QModElement(0, {m: rng.randint(-5, 5) for m in monos})
            order = len(monos) + 12
            s = qm_to_qseries(e, order)
            got = recognize(s, WEIGHTS, weight, abc(order))
            assert QModElement(0, got) == e
            # perturb one coefficient past the monomial count: rejected
            bad = s + RatSeries.from_pairs(CQ, {len(monos) + 5: 1}, order)
            with pytest.raises(Localp2Error, match=f"not in the weight-{weight} span"):
                recognize(bad, WEIGHTS, weight, abc(order))

    def test_insufficient_coefficients(self):
        with pytest.raises(ValueError, match="insufficient coefficients"):
            recognize(RatSeries.one(CQ, 3), WEIGHTS, 6, abc(3))


class TestSl2Embed:
    @pytest.mark.parametrize("k,expect", [
        (2, (2 * B + A ** 2) / 3),
        (4, (A ** 4 + 8 * A * C) / 9),
        (6, (-(A ** 6) + 20 * A ** 3 * C + 8 * C ** 2) / 27),
    ])
    def test_embedding_elements(self, k, expect):
        assert sl2_embed(k) == expect

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_embedding_expansions(self, k):
        order = 50
        lhs = qm_to_qseries(sl2_embed(k), order)
        rhs = eisenstein_series(k, 3, order)
        assert lhs.agrees_with(rhs, order)

    def test_bad_weight(self):
        with pytest.raises(ValueError, match="no generator 'E8'"):
            EPoly.gen(8)

    @pytest.mark.parametrize("x,n", [(EPoly.gen(2), -1),
                                     (BModElement.monomial(1, 0, 1), -2)])
    def test_negative_power(self, x, n):
        with pytest.raises(ValueError, match="negative power"):
            x ** n


class TestGradingLaws:
    def test_product_grades(self):
        e1 = QModElement(1, {(0, 0, 2): 1})   # weight 3, pole 1
        e2 = QModElement(2, {(1, 1, 0): 1})   # weight -3, pole 2
        p = e1 * e2
        assert p.weight == 0
        assert p.c_pole <= 3

    def test_derive_raises_weight_two(self):
        for e in (A * B, C, QModElement(1, {(4, 1, 0): 1})):
            assert qm_derive(e).weight == e.weight + 2

    def test_dimension_counts(self):
        # dim Q[A,B,C]_w: coefficients of 1/((1-t)(1-t^2)(1-t^3)), w <= 30
        from oracles import pl_long_division, pl_mul
        from fractions import Fraction as Fr
        order = 30
        den = [Fr(1)]
        for k in (1, 2, 3):
            factor = [Fr(0)] * (order + 1)
            factor[0], factor[k] = Fr(1), Fr(-1)
            den = pl_mul(den, factor, order)
        expect = pl_long_division([Fr(1)], den, order)
        got = [len(weight_monomials(WEIGHTS, w)) for w in range(order + 1)]
        assert got == expect
        assert got[:11] == [1, 1, 2, 3, 4, 5, 7, 8, 10, 12, 14]
