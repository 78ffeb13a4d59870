import json
from fractions import Fraction

import pytest

from localp2.locrel import Correspondence, f1_local_series, relative_flat_expansion
from localp2.mirror import build_mirror_data
from localp2.ns import (
    OmegaError,
    compare_ns_relative,
    default_omega_path,
    load_omega,
    ns_free_energy,
    ns_genus,
)
from localp2.series import RatSeries

from oracles import pl_long_division

F = Fraction

OMEGA1 = {-2: 1, 0: 1, 2: 1}
OMEGA2 = {e: -1 for e in (-5, -3, -1, 1, 3, 5)}


@pytest.fixture(scope="module")
def table():
    return load_omega(default_omega_path())


def hand_degree_one_column(order):
    """Oracle: expand (1 + 2 cos h)/(2 sin(h/2)) with plain lists."""
    from math import factorial
    num = [F(0)] * (order + 2)
    num[0] = F(3)
    for m in range(1, (order + 2) // 2 + 1):
        if 2 * m < len(num):
            num[2 * m] = 2 * F((-1) ** m) / factorial(2 * m)
    den = [F(0)] * (order + 2)
    for m in range((order + 3) // 2):
        e = 2 * m + 1
        if e < len(den):
            den[e] = 2 * F((-1) ** m, 2 ** e) / factorial(e)
    # divide by the unit part den/h, then shift by h^-1
    unit = den[1:]
    return pl_long_division(num, unit, order + 1)


class TestLoad:
    def test_shipped_table(self, table):
        assert sorted(table) == [1, 2]
        assert table[1] == OMEGA1
        assert table[2] == OMEGA2

    def test_values_at_one_are_bps_numbers(self, table):
        assert sum(table[1].values()) == 3
        assert sum(table[2].values()) == -6

    def test_palindrome_enforced(self, tmp_path):
        path = tmp_path / "lopsided.json"
        path.write_text(json.dumps({"entries": [
            {"degree": 1, "coeffs": [{"exp2": 0, "c": "1"},
                                     {"exp2": 2, "c": "1"}]}]}))
        with pytest.raises(OmegaError):
            load_omega(path)


class TestFreeEnergy:
    def test_degree_one_against_hand_expansion(self, table):
        col = ns_free_energy(table, 1, 5)[1]
        oracle = hand_degree_one_column(5)
        assert col.coeff_list(-1, 4) == oracle[:6]
        assert col.coeff(-1) == 3
        assert col.coeff(1) == F(-7, 8)
        assert col.coeff(3) == F(29, 640)

    def test_columns_are_odd(self, table):
        cols = ns_free_energy(table, 2, 7)
        for col in cols.values():
            assert all(col.coeff(k) == 0 for k in range(0, 7, 2))

    def test_multicover_argument_scaling(self, table):
        # the k-fold cover enters through y -> y^k in the invariants:
        # scaling exponents by k inside Omega gives the same cosine sum
        from localp2.ns import omega_cosine_sum
        direct = omega_cosine_sum(OMEGA1, 2, 8)
        rescaled = omega_cosine_sum({2 * e: c for e, c in OMEGA1.items()}, 1, 8)
        assert direct.coeff_list(0, 8) == rescaled.coeff_list(0, 8)

    def test_pole_row_is_cubic_multicover(self, table):
        # hbar^-1 row: sum over k*d = D of Omega_d(1)/k^3
        cols = ns_free_energy(table, 2, 3)
        assert cols[1].coeff(-1) == 3
        assert cols[2].coeff(-1) == -6 + F(3, 8)

    def test_missing_degree(self, table):
        with pytest.raises(OmegaError):
            ns_free_energy(table, 3, 3)


class TestGenusRows:
    def test_genus0(self, table):
        row = ns_genus(table, 0, 2)
        assert row.coeff_list(1, 2) == [3, F(-45, 8)]

    def test_genus1(self, table):
        row = ns_genus(table, 1, 2)
        assert row.coeff(1) == F(7, 8)
        assert row.coeff(2) == F(-129, 16)

    def test_genus2(self, table):
        row = ns_genus(table, 2, 2)
        assert row.coeff(1) == F(29, 640)
        assert row.coeff(2) == F(-207, 64)


class TestGenus3CrossCheck:
    def test_degree_one_column_predicts_genus3(self, table):
        # the hbar^5 coefficient of the degree-one column is a closed-form
        # number; it must match the anomaly-solved genus-3 relative series
        from localp2.hae import solve_genus
        from localp2.locrel import Correspondence
        from localp2.mirror import bm_eval, build_mirror_data
        md = build_mirror_data(24)
        corr = Correspondence(md)
        f3 = solve_genus(3, "relative", md, corr)
        flat = bm_eval(f3, md, target="Q")
        row = ns_genus(table, 3, 1)
        assert row.coeff(1) == flat.coeff(1) == F(137, 322560)


class TestCompare:
    def test_matches_relative_tower(self, table):
        md = build_mirror_data(24)
        corr = Correspondence(md)
        from localp2.hae import solve_genus
        f2 = solve_genus(2, "relative", md, corr)
        flat = {
            0: _local_f0_flat(md),  # genus 0 local and relative coincide
            1: relative_flat_expansion(
                corr.solve_relative(1, f1_local_series(md)), md),
            2: relative_flat_expansion(f2, md),
        }
        report = compare_ns_relative(table, 2, 2, flat)
        assert report["ok"]
        assert report["cells"][(2, 1)]["ns"] == F(29, 640)


def _local_f0_flat(md):
    """Flat genus-0 expansion by triple antiderivative of the closed-form
    third derivative (the constant part belongs to the classical term)."""
    from localp2.mirror import BModElement, bm_eval
    d3 = bm_eval(BModElement.monomial(-9, 0, 1, i11_degree=3), md, target="Q")
    n = d3.trunc_order
    coeffs = [F(0)] * (n + 1)
    for dd in range(1, n + 1):
        coeffs[dd] = d3.coeff(dd) / (27 * dd ** 3)
    return RatSeries("Q", 0, coeffs)
