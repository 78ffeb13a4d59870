from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from localp2.acceptance import elliptic_hae_check
from localp2.elliptic import (
    EPoly,
    EllipticError,
    StationaryLabel,
    connected_coefficient,
    connected_extract,
    default_qorder,
    disconnected_coefficient,
    eisenstein_images,
    f1_empty,
    npoint_disconnected,
    theta_z,
)
from localp2.graded import GradedError, evaluate, recognize
from localp2.series import RatSeries

from oracles import bloch_okounkov_npoint_oracle, connected_coefficient_oracle

F = Fraction

E2 = EPoly.gen(2)
E4 = EPoly.gen(4)
E6 = EPoly.gen(6)

QORDER = 14


def expand(ep: EPoly, order: int) -> RatSeries:
    """The nome expansion of ep, through ``order``."""
    return evaluate(ep.terms, eisenstein_images(order),
                    RatSeries.one("cQt", order))


class TestTheta:
    def test_normalization(self):
        th = theta_z(5, 6)
        assert th[0].is_zero()
        assert th[1].coeff_list(0, 6) == [1, 0, 0, 0, 0, 0, 0]
        assert th[2].is_zero()

    def test_z3_coefficient_is_e2_over_24(self):
        th = theta_z(5, 8)
        expect = expand(EPoly({(1, 0, 0): F(1, 24)}), 8)
        assert th[3].agrees_with(expect, 8)

    def test_odd_function(self):
        th = theta_z(9, 4)
        assert all(th[k].is_zero() for k in range(0, 10, 2))


class TestDisconnected:
    def test_one_point_is_inverse_theta(self):
        got_z1 = npoint_disconnected(1, 1, QORDER)[(1,)]
        expect = expand(EPoly({(1, 0, 0): F(-1, 24)}), QORDER)
        assert got_z1.agrees_with(expect, QORDER)
        got_z3 = npoint_disconnected(1, 3, QORDER)[(3,)]
        expect3 = expand(EPoly({(0, 1, 0): F(1, 2880), (2, 0, 0): F(1, 1152)}),
                         QORDER)
        assert got_z3.agrees_with(expect3, QORDER)

    def test_one_point_z5(self):
        got = npoint_disconnected(1, 5, QORDER)[(5,)]
        expect5 = expand(EPoly({(0, 0, 1): F(-1, 181440), (1, 1, 0): F(-1, 69120),
                                (3, 0, 0): F(-1, 82944)}), QORDER)
        assert got.agrees_with(expect5, QORDER)

    def test_one_point_times_theta_is_one(self):
        # F_1(z) = 1/Theta(z), with Theta built from Eisenstein series and
        # the z^-1 term of F_1 equal to 1; check F_1 * Theta = 1 through z^7
        qorder = 8
        theta = theta_z(8, qorder)
        f1 = {e: npoint_disconnected(1, e, qorder)[(e,)] for e in range(1, 7)}
        for k in range(8):
            acc = theta[k + 1]
            for e in range(1, k):
                acc = acc + f1[e] * theta[k - e]
            expect = RatSeries.const("cQt", 1 if k == 0 else 0, qorder)
            assert acc.agrees_with(expect, qorder), k

    def test_one_point_parity(self):
        for e in range(1, 7):
            assert npoint_disconnected(1, e, 6)[(e,)].is_zero() == (e % 2 == 0)

    @pytest.mark.parametrize("exps", [(1,), (3,), (5,)])
    def test_against_partition_sum_oracle(self, exps):
        qorder = 8
        got = npoint_disconnected(len(exps), sum(exps), qorder)[exps]
        expect = bloch_okounkov_npoint_oracle(exps, qorder)
        assert got.coeff_list(0, qorder) == expect

    @pytest.mark.parametrize("exps", [(1, 1), (2, 2), (3, 1), (2, 1)])
    def test_two_point_against_partition_sum_oracle(self, exps):
        qorder = 7
        got = npoint_disconnected(2, sum(exps), qorder)[exps]
        expect = bloch_okounkov_npoint_oracle(exps, qorder)
        assert got.coeff_list(0, qorder) == expect

    @pytest.mark.parametrize("exps", [(1, 1, 1), (2, 1, 1), (3, 2, 1),
                                      (3, 1, 1), (1, 1, 1, 1), (2, 2, 1, 1)])
    def test_three_and_four_point_against_partition_sum_oracle(self, exps):
        # the oracle expands each exponential term by term, so it checks the
        # integer columns without sharing their closed form; (2,1,1) and
        # (3,2,1) vanish because sum(e + 1) is odd, so (3,1,1) and (2,2,1,1)
        # carry the nonzero checks of the e = 2 and e = 3 columns
        qorder = 6
        got = npoint_disconnected(len(exps), sum(exps), qorder)[exps]
        expect = bloch_okounkov_npoint_oracle(exps, qorder)
        assert got.coeff_list(0, qorder) == expect

    def test_four_point_against_partition_sum_oracle_past_size_nine(self):
        # order 12 reaches the partitions of 10, 11 and 12
        qorder = 12
        got = npoint_disconnected(4, 8, qorder)[(2, 2, 2, 2)]
        expect = bloch_okounkov_npoint_oracle((2, 2, 2, 2), qorder)
        assert got.coeff_list(0, qorder) == expect

    def test_lower_order_is_a_truncation(self):
        # the q^d coefficient sums over the partitions of d alone, so a group
        # at order 9 is the order-14 group truncated at 9
        for n in range(5):
            for degree in range(9):
                low = npoint_disconnected(n, degree, 9)
                high = npoint_disconnected(n, degree, QORDER)
                assert low.keys() == high.keys(), (n, degree)
                for exps, series in low.items():
                    assert series == high[exps].truncate(9), exps

    def test_empty_bracket_is_one(self):
        # no columns: the empty product counts 1 for every partition, and
        # sum_lambda q^|lambda| * prod_m (1 - q^m) = 1
        assert npoint_disconnected(0, 0, 9) == {(): RatSeries.one("cQt", 9)}

    def test_keys_are_partitions_into_n_parts(self):
        assert set(npoint_disconnected(3, 6, 4)) == {(4, 1, 1), (3, 2, 1), (2, 2, 2)}
        assert npoint_disconnected(3, 2, 4) == {}


class TestConnected:
    def test_two_point_z1z1(self):
        got = connected_coefficient((1, 1), QORDER)
        expect = expand(E2 * E2 - E4, QORDER) * F(-1, 288)
        assert got.agrees_with(expect, QORDER)

    def test_two_point_z2z2(self):
        got = connected_coefficient((2, 2), QORDER)
        expect = expand(5 * E2 ** 3 - 3 * E2 * E4 - 2 * E6, QORDER) / 25920
        assert got.agrees_with(expect, QORDER)

    def test_two_point_z1z3(self):
        got = connected_coefficient((1, 3), QORDER)
        expect = expand(5 * E2 ** 3 - E2 * E4 - 4 * E6, QORDER) / 34560
        assert got.agrees_with(expect, QORDER)
        assert connected_coefficient((3, 1), QORDER).agrees_with(expect, QORDER)

    def test_matches_set_partition_inversion(self):
        qorder = 8
        for n in range(1, 6):
            for exps in combinations_with_replacement((4, 3, 2, 1), n):
                got = connected_coefficient(exps, qorder).coeff_list(0, qorder)
                assert got == connected_coefficient_oracle(exps, qorder), exps

    def test_builds_only_the_labels_it_reads(self):
        # C(2,2,2,2) reads D(2,2,2,2) and, through C(2,2), D(2,2); the
        # other degree-8 labels and the odd sub-multisets are never built
        connected_coefficient.cache_clear()
        disconnected_coefficient.cache_clear()
        connected_coefficient((2, 2, 2, 2), 9)
        assert disconnected_coefficient.cache_info().misses == 2
        disconnected_coefficient((2, 2, 2, 2), 9)
        disconnected_coefficient((2, 2), 9)
        assert disconnected_coefficient.cache_info().misses == 2


class TestExtract:
    def test_f_1_0(self):
        got = connected_extract(StationaryLabel(1, (0,)))
        assert got.value == E2 * F(-1, 24)

    def test_f_1_00(self):
        got = connected_extract(StationaryLabel(1, (0, 0)))
        assert got.value == (E2 * E2 - E4) * F(-1, 288)

    def test_f_2_2(self):
        got = connected_extract(StationaryLabel(2, (2,)))
        assert got.value == (2 * E4 + 5 * E2 ** 2) / 5760

    def test_f_2_11(self):
        got = connected_extract(StationaryLabel(2, (1, 1)))
        assert got.value == (2 * E6 + 3 * E2 * E4 - 5 * E2 ** 3) * F(-1, 25920)

    def test_f_3_1111_pinned(self):
        # recorded from the permutation-determinant route this replaced
        got = connected_extract(StationaryLabel(3, (1, 1, 1, 1)))
        assert got.value == (E6 ** 2 / 373248 + F(7, 1492992) * E4 ** 3
                             - E2 * E4 * E6 / 124416 - E2 ** 2 * E4 ** 2 / 124416
                             + E2 ** 3 * E6 / 373248 + F(5, 497664) * E2 ** 4 * E4
                             - E2 ** 6 / 248832)

    def test_f_3_211_pinned(self):
        # recorded from the permutation-determinant route this replaced
        got = connected_extract(StationaryLabel(3, (2, 1, 1)))
        assert got.value == (-E4 * E6 / 124416 + E2 * E4 ** 2 / 497664
                             + E2 ** 2 * E6 / 124416 + E2 ** 3 * E4 / 248832
                             - E2 ** 5 / 165888)

    def test_symmetry_under_part_order(self):
        a = connected_coefficient((2, 1, 1), 8)
        b = connected_coefficient((1, 2, 1), 8)
        c = connected_coefficient((1, 1, 2), 8)
        assert a.coeff_list(0, 8) == b.coeff_list(0, 8) == c.coeff_list(0, 8)

    def test_dimension_constraint_enforced(self):
        with pytest.raises(EllipticError):
            connected_extract(StationaryLabel(1, (1,)))

    def test_weight_law_small(self):
        for h, parts in [(1, (0,)), (2, (2,)), (2, (1, 1)), (3, (4,)),
                         (2, (2, 0)), (2, (1, 1, 0))]:
            lbl = StationaryLabel(h, parts)
            got = connected_extract(lbl)
            if not got.value.is_zero():
                assert got.value.weight == lbl.weight

    def test_margin_coefficients_verified(self):
        # recognition reads every coefficient, the top one included; a
        # series corrupted at either of the last two fails
        lbl = StationaryLabel(1, (0,))
        qorder = default_qorder(lbl.weight)
        series = connected_coefficient((1,), qorder)
        for k in (qorder - 1, qorder):
            bad = series + RatSeries.from_pairs("cQt", {k: 1}, qorder)
            with pytest.raises(GradedError):
                recognize(bad, EPoly.weights, 2, eisenstein_images(qorder))


class TestF1Empty:
    def test_leading_terms(self):
        s = f1_empty(6)
        assert s.log_coeff == F(-1, 24)
        assert s.coeff_list(0, 4) == [0, 1, F(3, 2), F(4, 3), F(7, 4)]

    def test_nome_coefficient_one(self):
        # from -log(1 - nome)
        assert f1_empty(3).coeff(1) == 1


class TestEllipticHae:
    def test_genus2_pair_label(self):
        rep = elliptic_hae_check(StationaryLabel(2, (1, 1)))
        assert rep["ok"]
        # -12 dE2 F = F_{1,(0,0)} + F_{1,(0)}^2 - 6 F_{2,(2)}
        lhs12 = connected_extract(StationaryLabel(2, (1, 1))).value.partial("E2") * (-12)
        rhs = (connected_extract(StationaryLabel(1, (0, 0))).value
               + connected_extract(StationaryLabel(1, (0,))).value ** 2
               - 6 * connected_extract(StationaryLabel(2, (2,))).value)
        assert lhs12 == rhs

    def test_genus2_single_label(self):
        rep = elliptic_hae_check(StationaryLabel(2, (2,)))
        assert rep["ok"]
        lhs = connected_extract(StationaryLabel(2, (2,))).value.partial("E2") * (-24)
        assert lhs == connected_extract(StationaryLabel(1, (0,))).value

    def test_degenerate_genus_one(self):
        rep = elliptic_hae_check(StationaryLabel(1, (0,)))
        assert rep["ok"]
        assert rep["lhs"] == EPoly.const(1)

    def test_three_point_label(self):
        rep = elliptic_hae_check(StationaryLabel(2, (1, 1, 0)))
        assert rep["ok"]

    def test_four_point_label(self):
        rep = elliptic_hae_check(StationaryLabel(3, (1, 1, 1, 1)))
        assert rep["ok"]
        assert not rep["lhs"].is_zero()

    def test_genus3_single_label(self):
        # here the loop term is the only survivor on the right side
        rep = elliptic_hae_check(StationaryLabel(3, (4,)))
        assert rep["ok"]
        assert rep["split"].is_zero()
        assert rep["glue"].is_zero()
        assert rep["loop"] == connected_extract(StationaryLabel(2, (2,))).value


class TestDisconnectedParity:
    def test_two_point_total_parity(self):
        odd = npoint_disconnected(2, 3, 6)
        assert set(odd) == {(2, 1)}
        assert all(v.is_zero() for v in odd.values())
        even = npoint_disconnected(2, 4, 6)
        assert set(even) == {(3, 1), (2, 2)}
        assert not any(v.is_zero() for v in even.values())
