import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from localp2.cli import main
from localp2.locrel import Correspondence, flat_expansion
from localp2.mirror import build_mirror_data
from localp2.ns import (
    compare_ns_relative,
    default_omega_path,
    load_omega,
    ns_genus,
)
from localp2.series import Localp2Error

from oracles import ns_column_oracle, pl_long_division

F = Fraction

OMEGA1 = {-2: 1, 0: 1, 2: 1}
OMEGA2 = {e: -1 for e in (-5, -3, -1, 1, 3, 5)}
# (1 + y + y^2)(1 + ... + y^8), and the Betti numbers of M_{4,1}, signed
OMEGA3 = dict(zip(range(-10, 11, 2), (1, 2, 3, 3, 3, 3, 3, 3, 3, 2, 1)))
OMEGA4 = dict(zip(range(-17, 18, 2), (-1, -2, -6, -10, -14, -15, -16, -16, -16,
                                      -16, -16, -16, -15, -14, -10, -6, -2, -1)))


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


def entry(*pairs, degree=1):
    return {"degree": degree, "coeffs": [{"exp2": e, "c": c} for e, c in pairs]}


DEGREE_ONE = ((-2, "1"), (0, "1"), (2, "1"))

# each table loaded silently changed, or failed with a bare ValueError or
# Python's own text, before the loader checked its fields: case -> (the
# "entries" value, or the bytes of the whole file, message fragment)
BAD_TABLES = {
    "empty object": (b"{}", "the top level has no field 'entries'"),
    "top-level list": (b"[]", "the top level is a list, not an object"),
    "truncated JSON": (b'{"entries": [', "not JSON: Expecting value"),
    "nested too deep": (b"[" * 100000, "not JSON: maximum recursion depth"),
    "not UTF-8": (b"\xff\xfe", "not UTF-8 at byte 0"),
    "entries an integer": (5, "field 'entries' of the top level is an integer, "
                              "not a list"),
    "entry an integer": ([entry(*DEGREE_ONE), 5],
                         "entries[1] is an integer, not an object"),
    "entry without degree": ([entry(*DEGREE_ONE), {"coeffs": []}],
                             "entries[1] has no field 'degree'"),
    "entry without coeffs": ([{"degree": 1}], "degree 1 has no field 'coeffs'"),
    "coeffs an object": ([{"degree": 1, "coeffs": {"exp2": 0, "c": 1}}],
                         "field 'coeffs' of degree 1 is an object, not a list"),
    "coefficient an integer": ([{"degree": 1, "coeffs": [5]}],
                               "degree 1 coeffs[0] is an integer, not an object"),
    "coefficient without exp2": ([{"degree": 1, "coeffs": [{"c": 1}]}],
                                 "degree 1 coeffs[0] has no field 'exp2'"),
    "coefficient without c": ([{"degree": 2, "coeffs": [
        {"exp2": 0, "c": 1}, {"exp2": 2}]}], "degree 2 coeffs[1] has no field 'c'"),
    "fractional coefficient": ([entry((-2, 1.9), (0, 1), (2, 1.9))],
                               "degree 1 coefficient 1.9 is not an integer"),
    "boolean coefficient": ([entry((-2, True), (0, 1), (2, True))],
                            "degree 1 coefficient True is not an integer"),
    "fractional string": ([entry((-2, "1.5"), (0, 1), (2, "1.5"))],
                          "degree 1 coefficient '1.5' is not an integer"),
    "full-width digit string": ([entry((-2, "１"), (0, 1), (2, "１"))],
                                "degree 1 coefficient '１' is not an integer"),
    "fractional half-exponent": ([entry((-2.0, 1), (0, 1), (2.0, 1))],
                                 "degree 1 half-exponent -2.0 is not"),
    "fractional degree": ([entry(*DEGREE_ONE, degree=1.0)],
                          "degree 1.0 is not an integer"),
    "degree zero": ([entry(*DEGREE_ONE, degree=0)], "degree 0 is below 1"),
    "repeated degree": ([entry(*DEGREE_ONE), entry((0, 5))],
                        "degree 1 is repeated"),
    "repeated half-exponent": ([entry(*DEGREE_ONE, (2, "1"))],
                               "degree 1 repeats half-exponent 2"),
}


class TestLoad:
    def test_shipped_table(self, table):
        assert sorted(table) == [1, 2, 3, 4]
        assert table[1] == OMEGA1
        assert table[2] == OMEGA2
        assert table[3] == OMEGA3
        assert table[4] == OMEGA4

    def test_values_at_one_are_bps_numbers(self, table):
        assert [sum(table[d].values()) for d in range(1, 5)] == [3, -6, 27, -192]

    def test_palindrome_enforced(self, tmp_path):
        path = tmp_path / "lopsided.json"
        path.write_text(json.dumps({"entries": [
            {"degree": 1, "coeffs": [{"exp2": 0, "c": "1"},
                                     {"exp2": 2, "c": "1"}]}]}))
        with pytest.raises(Localp2Error, match="not palindromic"):
            load_omega(path)

    def test_integer_strings_and_integers_load(self, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"entries": [
            {"degree": "1", "coeffs": [{"exp2": -2, "c": 1}, {"exp2": "0", "c": "1"},
                                       {"exp2": 2, "c": "1"}]}]}))
        assert load_omega(path) == {1: OMEGA1}

    def test_utf8_table_loads_in_the_c_locale(self, tmp_path):
        # JSON is UTF-8 (RFC 8259): with UTF-8 mode off, the C locale's
        # encoding is ASCII, which cannot read an en dash in a provenance
        table = json.loads(Path(default_omega_path()).read_bytes())
        table["entries"][0]["provenance"] += " \N{EN DASH} classical"
        path = tmp_path / "dash.json"
        path.write_bytes(json.dumps(table, ensure_ascii=False).encode())
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from localp2.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "ns", "compare", "--omega",
             str(path), "--gmax", "0", "--dmax", "1"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
                 "PYTHONPATH": os.pathsep.join(filter(None, [
                     str(src), os.environ.get("PYTHONPATH")]))})
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.endswith("comparison: PASS\n")

    @pytest.mark.parametrize("case", sorted(BAD_TABLES))
    def test_bad_table_rejected(self, case, tmp_path, capsys):
        entries, message = BAD_TABLES[case]
        path = tmp_path / "bad.json"
        path.write_bytes(entries if isinstance(entries, bytes)
                         else json.dumps({"entries": entries}).encode())
        with pytest.raises(Localp2Error, match=re.escape(message)):
            load_omega(path)
        # and the command line reports it as bad input: one line, exit 2
        assert main(["ns", "compare", "--omega", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot read sheaf table {path}: ")
        assert message in err


class TestFreeEnergy:
    def test_degree_one_against_hand_expansion(self, table):
        # the (-1)^g-normalized hbar^(2g-1) coefficients of the column
        oracle = hand_degree_one_column(5)
        rows = [ns_genus(table, g, 1).coeff(1) for g in range(3)]
        assert rows == [(-1) ** g * oracle[2 * g] for g in range(3)]
        assert rows == [3, F(7, 8), F(29, 640)]

    def test_multicover_argument_scaling(self, table):
        # with no degree-2 invariants the D = 2 entry is the double cover
        # of degree 1 alone, k^(2g-3) times the D = 1 entry
        bare = {1: table[1], 2: {}}
        for g in range(7):
            row = ns_genus(bare, g, 2)
            assert row.coeff(2) == F(2) ** (2 * g - 3) * row.coeff(1)

    def test_pole_row_is_cubic_multicover(self, table):
        # genus-0 row: sum over k*d = D of Omega_d(1)/k^3
        row = ns_genus(table, 0, 2)
        assert row.coeff(1) == 3
        assert row.coeff(2) == -6 + F(3, 8)

    def test_missing_degree(self, table):
        with pytest.raises(ValueError, match="degree 5 missing"):
            ns_genus(table, 3, 5)


# palindromic {half-exponent: coefficient} tables, half-exponents all odd
# or all even, up to 9
palindromes = st.builds(
    lambda odd, cs: {s * (2 * i + odd): c for i, c in enumerate(cs) if c
                     for s in (1, -1)},
    st.integers(0, 1), st.lists(st.integers(-4, 4), max_size=5))


class TestAgainstColumnOracle:
    @given(st.lists(palindromes, min_size=4, max_size=4), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_genus_rows_are_the_hbar_coefficients(self, polys, g):
        table = dict(enumerate(polys, start=1))
        row = ns_genus(table, g, 4)
        for D in range(1, 5):
            expect = sum(ns_column_oracle(table[D // k], k, 2 * g)[2 * g]
                         for k in range(1, D + 1) if D % k == 0)
            assert row.coeff(D) == (-1) ** g * expect


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
        md = build_mirror_data(24)
        corr = Correspondence(md)
        solve_genus(3, "relative", md, corr)
        flat = flat_expansion(corr, 3, "relative")
        row = ns_genus(table, 3, 1)
        assert row.coeff(1) == flat.coeff(1) == F(137, 322560)


class TestCompare:
    def test_matches_relative_tower(self, table):
        md = build_mirror_data(24)
        corr = Correspondence(md)
        from localp2.hae import solve_genus
        solve_genus(2, "relative", md, corr)
        flat = {g: flat_expansion(corr, g, "relative") for g in range(3)}
        report = compare_ns_relative(table, 2, flat)
        assert report["ok"]
        assert report["cells"][(2, 1)]["ns"] == F(29, 640)

    def test_direct_relative_tower_equals_the_sheaf_side(self, table):
        # anomaly + relative gap alone, no elliptic code, against the shipped
        # Omega: degrees 1-4 of every genus 2..12 at genus 12's least order,
        # 44 cells that share no algorithm with bm_eval or q_to_Q
        assert direct_tower_mismatches(table) == []

    def test_a_skewed_omega3_fails_the_sheaf_side(self, table):
        # one more on the middle coefficient keeps Omega_3 palindromic
        skewed = {**table, 3: {**table[3], 0: table[3][0] + 1}}
        assert direct_tower_mismatches(skewed) == list(range(2, 13))

    def test_a_skewed_gap_target_fails_the_sheaf_side(self, table,
                                                      monkeypatch):
        from localp2 import hae
        target = hae.gamma

        def skewed(n, g):
            t = target(n, g)
            return t * (1 + F(1, 10 ** 6)) if (n, g) == (9, 0) else t
        monkeypatch.setattr(hae, "gamma", skewed)
        assert direct_tower_mismatches(table)[0] == 9


def direct_tower_mismatches(table, gmax: int = 12) -> list:
    """The genera 2..gmax whose directly solved relative series differs
    from the sheaf side in a degree 1-4, at the least order of gmax."""
    from localp2.hae import least_q_order, solve_genus
    md = build_mirror_data(least_q_order(gmax))
    corr = Correspondence(md)
    solve_genus(gmax, "relative", md, corr)
    return [g for g in range(2, gmax + 1)
            if flat_expansion(corr, g, "relative").coeff_list(1, 4)
            != ns_genus(table, g, 4).coeff_list(1, 4)]

