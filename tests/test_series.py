from decimal import Decimal
from fractions import Fraction
from functools import reduce
from math import gcd
from itertools import product
from operator import add, mul

import pytest
from hypothesis import given, settings, strategies as st

from localp2.elliptic import EPoly
from localp2.mirror import BModElement, build_mirror_data
from localp2.quasimod import QModElement
from localp2.series import (
    Powers,
    RatSeries,
    integer,
    lincomb,
)

from oracles import (ibar1_coeff, pl_compose, pl_exp, pl_log1p,
                     pl_long_division, pl_mul, pl_powers, pl_revert)

F = Fraction


def q_series(coeffs, min_exp=0, log_coeff=0):
    return RatSeries("q", min_exp, coeffs, log_coeff)


small_series = st.builds(
    lambda cs: q_series(cs),
    st.lists(st.integers(-9, 9), min_size=5, max_size=9),
)
unit_series = st.builds(
    lambda cs: q_series([1] + cs),
    st.lists(st.integers(-9, 9), min_size=4, max_size=8),
)
# exact rationals with large and negative denominators, and runs of zeros
big_fractions = st.builds(
    Fraction,
    st.integers(-10 ** 30, 10 ** 30),
    st.integers(1, 10 ** 25) | st.integers(-10 ** 25, -1),
)
sparse_coeffs = st.lists(st.just(0) | st.just(0) | big_fractions,
                         min_size=1, max_size=12)
laurent_series = st.builds(lambda lo, cs: q_series(cs, min_exp=lo),
                           st.integers(-4, 4), sparse_coeffs)
nonzero_fractions = big_fractions.filter(bool)
# Laurent divisors: leading zeros below a nonzero, non-monic rational pivot
divisors = st.builds(
    lambda lo, zeros, pivot, cs: q_series([0] * zeros + [pivot] + cs, min_exp=lo),
    st.integers(-3, 3), st.integers(0, 2), nonzero_fractions,
    st.lists(st.just(0) | big_fractions, max_size=8))
# power series with zero constant term, stored from a floor in -3..3
small_fractions = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                            st.integers(1, 10 ** 5) | st.integers(-10 ** 5, -1))
no_constant = st.builds(
    lambda lo, cs: q_series([0] * max(1 - lo, 0) + cs[max(lo, 1) - 1:],
                            min_exp=lo),
    st.integers(-3, 3),
    st.lists(st.just(0) | small_fractions, min_size=4, max_size=8))


def assert_canonical(s):
    """The stored form: integer numerators over a positive denominator in
    lowest terms, read back as reduced Fractions."""
    assert s.den > 0 and gcd(s.den, *s.nums) == 1
    assert all(type(x) is int for x in s.nums)
    assert s.coeffs == tuple(Fraction(x, s.den) for x in s.nums)
    assert all(type(c) is Fraction for c in s.coeffs)
    assert type(s.log_coeff) is Fraction


class TestArith:
    def test_geometric_identity(self):
        a = q_series([1, -27, 729])
        b = q_series([1, 27, 0])
        assert (a * b).coeff_list(0, 2) == [1, 0, 0]

    def test_inverse_of_hauptmodul_denominator(self):
        one = RatSeries.one("q", 6)
        b = q_series([1, 27] + [0] * 5)
        inv = one / b
        assert inv.coeff_list(0, 3) == [1, -27, 729, -19683]

    def test_mirror_map_long_division(self):
        # oracle: plain-list long division of the shifted series
        num = [F(1), F(-6), F(63)]
        den = [F(1)]
        expect = pl_long_division(num, den, 2)
        got = q_series([0, 1, -6, 63], min_exp=0) / RatSeries.gen("q", 3)
        assert got.coeff_list(0, 2) == expect

    def test_div_shifts_min_exp(self):
        a = q_series([1, 0, 0], min_exp=0)
        b = q_series([2, 4], min_exp=1)
        c = a / b
        assert c.min_exp == -1
        assert c.coeff(-1) == F(1, 2)

    def test_variable_mismatch(self):
        with pytest.raises(ValueError):
            q_series([1]) + RatSeries("Q", 0, [1])

    def test_div_by_zero_leading(self):
        with pytest.raises(ValueError):
            q_series([1, 2]) / q_series([0, 0])

    def test_log_slot_addition_and_scalar(self):
        a = q_series([0, 1], log_coeff=F(-1, 12))
        b = q_series([0, 2], log_coeff=F(1, 24))
        assert (a + b).log_coeff == F(-1, 24)
        assert (a * 2).log_coeff == F(-1, 6)

    def test_log_slot_mul_rejected(self):
        a = q_series([0, 1], log_coeff=1)
        with pytest.raises(ValueError):
            a * q_series([1, 1])
        with pytest.raises(ValueError):
            a * q_series([0, 1], log_coeff=1)

    @given(laurent_series, laurent_series)
    @settings(max_examples=100, deadline=None)
    def test_product_against_plain_list_oracle(self, a, b):
        got = a * b
        n = min(len(a.coeffs), len(b.coeffs))
        assert got.min_exp == a.min_exp + b.min_exp
        assert got.trunc_order == min(a.trunc_order + b.min_exp,
                                      b.trunc_order + a.min_exp)
        assert list(got.coeffs) == pl_mul(list(a.coeffs), list(b.coeffs), n - 1)

    def test_eq_ignores_leading_zeros_and_the_floor(self):
        assert RatSeries("q", -1, [0, 1, 2]) == RatSeries("q", 0, [1, 2])
        assert RatSeries.const("q", 0, 3) == RatSeries("q", -2, [0] * 6)

    @given(small_series, small_series, small_series)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert lhs.agrees_with(rhs, min(lhs.trunc_order, rhs.trunc_order))
        d1 = a * (b + c)
        d2 = a * b + a * c
        assert d1.agrees_with(d2, min(d1.trunc_order, d2.trunc_order))

    @given(small_series, small_series)
    @settings(max_examples=60, deadline=None)
    def test_leibniz(self, a, b):
        lhs = (a * b).theta()
        rhs = a.theta() * b + a * b.theta()
        assert lhs.agrees_with(rhs, min(lhs.trunc_order, rhs.trunc_order))


class TestStorage:
    def test_ints_fractions_strings_and_leading_zeros_agree(self):
        forms = [q_series([2, 0, -4]),
                 q_series([F(4, 2), F(0), F(-8, 2)]),
                 q_series([0, 0, 2, 0, -4], min_exp=-2),
                 q_series([F(6, 3), 0, -4], log_coeff=0)]
        for s in forms:
            assert_canonical(s)
            assert s == forms[0]
        assert forms[0].coeffs == (2, 0, -4)
        # a string is not parsed: it is no exact rational
        with pytest.raises(TypeError):
            q_series(["2", "0", "-4/1"])

    def test_common_denominator_is_least(self):
        s = q_series([F(1, 6), F(1, 4), F(1, 3)])
        assert (s.nums, s.den) == ((2, 3, 4), 12)
        assert (s * 12).den == 1 and (s * 12).coeffs == (2, 3, 4)
        assert q_series([F(5, 7)]) != q_series([F(5, 14)])

    @given(laurent_series, laurent_series)
    @settings(max_examples=60, deadline=None)
    def test_results_stay_canonical(self, a, b):
        for s in (a, b, a + b, a - b, a * b, -a, a * F(-3, 10 ** 20),
                  a.theta(), a.trim(), a.truncate(a.trunc_order - 1)):
            assert_canonical(s)
        assert a.trim() == a

    def test_log_slot_construction(self):
        s = q_series([1, 2], log_coeff=F(1, 3))
        assert s.log_coeff == F(1, 3) and s.with_log(0).log_coeff == 0
        assert s.with_log(0) == q_series([1, 2])
        with pytest.raises(TypeError):
            q_series([1.5])
        with pytest.raises(TypeError):
            q_series([1, 2], log_coeff="1/3")


INEXACT = [0.1, 2.0, Decimal("0.1"), "1/10", "2"]
# a bool is an int to isinstance, but no rational: True would build 1
NOT_RATIONAL = INEXACT + [True, False]


class TestExactGate:
    """Every scalar a series or a ring element is built from, or is scaled,
    shifted or divided by, is an int or a Fraction, not a bool; a float is
    not turned into its binary fraction, a Decimal or a string is not
    parsed."""

    @pytest.mark.parametrize("x", NOT_RATIONAL, ids=repr)
    def test_series_entry_points_reject(self, x):
        s = q_series([1, 2, 3])
        for make in (lambda: q_series([1, x]), lambda: q_series([1], log_coeff=x),
                     lambda: RatSeries.const("q", x, 3), lambda: s.with_log(x),
                     lambda: s * x, lambda: x * s, lambda: s / x, lambda: s + x,
                     lambda: lincomb([(1, s), (x, s)])):
            with pytest.raises(TypeError):
                make()

    @pytest.mark.parametrize("x", INEXACT + [True], ids=repr)
    def test_min_exp_rejects(self, x):
        # an exponent, not a scalar: the floor and a power, of a series or a
        # ring element, take an int, not a bool
        with pytest.raises(TypeError):
            q_series([1], min_exp=x)
        for e in (q_series([1, 2]), QModElement.const(2), BModElement.monomial(1, 1, 0),
                  EPoly.gen(2)):
            with pytest.raises(TypeError):
                e ** x

    @pytest.mark.parametrize("x", NOT_RATIONAL, ids=repr)
    def test_ring_entry_points_reject(self, x):
        for cls, key in ((EPoly, (1, 0, 0)), (QModElement, (1, 0, 0)),
                         (BModElement, (0, 1))):
            e = cls.const(1)
            for make in (lambda: cls.const(x), lambda: e * x, lambda: x * e,
                         lambda: e / x, lambda: e + x):
                with pytest.raises(TypeError):
                    make()
            with pytest.raises(TypeError):
                EPoly({key: x}) if cls is EPoly else cls(0, {key: x})
        with pytest.raises(TypeError):
            BModElement.monomial(x, 1, 0)

    def test_exact_scalars_pass(self):
        s = q_series([1, 2, 3])
        assert s * F(1, 2) == s / 2 == lincomb([(F(1, 2), s)])
        assert BModElement.monomial(F(1, 10), 1, 0).terms == {(1, 0): F(1, 10)}
        assert (QModElement.const(3) / 3).terms == {(0, 0, 0): 1}


class TestIntegerRule:
    """One rule reads an integer from text: ASCII -?[0-9]+ and no more."""

    @pytest.mark.parametrize("text,value", [("0", 0), ("-12", -12), ("007", 7)])
    def test_accepts(self, text, value):
        assert integer(text) == value

    @pytest.mark.parametrize("text", [
        "", "-", "+1", " 1", "1 ", "--1", "1_0", "1.0", "\u0662", "\uff13\uff12",
        "\u00b2", 1, None])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            integer(text)


class TestIntegerKernels:
    """Each kernel against an oracle on Fractions: floor, truncation order
    and every coefficient."""

    @given(laurent_series, divisors)
    @settings(max_examples=100, deadline=None)
    def test_division_against_long_division(self, a, b):
        got = a / b
        va, vb = a.valuation(), b.valuation()
        va = a.min_exp if va is None else va
        lo = va - vb
        order = min(a.trunc_order - vb, b.trunc_order - 2 * vb + va)
        assert got.min_exp == lo
        assert_canonical(got)
        if order < lo:
            assert got.trunc_order == lo and got.valuation() is None
            return
        assert got.trunc_order == order
        n = order - lo
        expect = pl_long_division(a.coeff_list(va, va + n),
                                  b.coeff_list(vb, vb + n), n)
        assert list(got.coeffs) == expect

    @given(no_constant)
    @settings(max_examples=60, deadline=None)
    def test_exp_against_series_sum(self, f):
        got = f.exp()
        n = f.trunc_order
        assert (got.min_exp, got.trunc_order) == (0, n)
        assert list(got.coeffs) == pl_exp(f.coeff_list(0, n), n)
        assert_canonical(got)

    @given(no_constant)
    @settings(max_examples=60, deadline=None)
    def test_log_against_series_sum(self, g):
        f = g + 1
        got = f.log()
        n = f.trunc_order
        assert (got.min_exp, got.trunc_order) == (0, n)
        assert list(got.coeffs) == pl_log1p(g.coeff_list(0, n), n)
        assert_canonical(got)

    @given(nonzero_fractions,
           st.lists(st.just(0) | small_fractions, min_size=1, max_size=6),
           st.sampled_from(["q", "Q"]))
    @settings(max_examples=60, deadline=None)
    def test_revert_against_composition(self, c1, tail, new_var):
        f = q_series([0, c1] + tail)
        g = f.revert(new_var)
        n = f.trunc_order
        assert (g.var, g.min_exp, g.trunc_order) == (new_var, 0, n)
        assert pl_compose(f.coeff_list(0, n), g.coeff_list(0, n), n) == \
            [0, 1] + [0] * (n - 1)
        assert_canonical(g)

    @given(laurent_series, st.just(0) | big_fractions,
           big_fractions | st.integers(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_scalars_theta_and_slices(self, f, c, log):
        f = f.with_log(log)
        cs = f.coeffs
        got = f * c
        assert (got.min_exp, got.trunc_order) == (f.min_exp, f.trunc_order)
        assert got.coeffs == tuple(x * c for x in cs)
        assert got.log_coeff == f.log_coeff * c
        if c:
            assert (f / c).coeffs == tuple(x / c for x in cs)
        assert (-f).coeffs == tuple(-x for x in cs)
        t = f.theta()
        assert t.coeff_list(f.min_exp, f.trunc_order) == [
            k * f.coeff(k) + (f.log_coeff if k == 0 else 0)
            for k in range(f.min_exp, f.trunc_order + 1)]
        cut = f.truncate(f.trunc_order - 1)
        assert cut.coeffs == cs[:-1] or (cut.min_exp, cut.coeffs) == (
            f.trunc_order - 1, (0,))
        assert f.with_log(0).shift(3).coeffs == cs
        for s in (got, -f, t, cut):
            assert_canonical(s)

    @given(st.lists(st.just(0) | big_fractions, min_size=1, max_size=8),
           st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_sparse_product(self, cs, gap):
        # one factor with a single nonzero past a run of zeros
        a = q_series(cs)
        b = q_series([0] * gap + [F(-7, 3)] + [0] * 4)
        got = a * b
        n = min(len(a.coeffs), len(b.coeffs))
        assert list(got.coeffs) == pl_mul(list(a.coeffs), list(b.coeffs), n - 1)
        assert got == b * a


class TestLincomb:
    @given(st.lists(st.tuples(st.just(0) | big_fractions, laurent_series),
                    min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_matches_repeated_add(self, pairs):
        got = lincomb(pairs)
        expect = reduce(add, [f * c for c, f in pairs])
        assert (got.min_exp, got.trunc_order) == (expect.min_exp,
                                                  expect.trunc_order)
        assert got.coeffs == expect.coeffs

    def test_zero_scalar_still_truncates(self):
        got = lincomb([(2, q_series([1, 1, 1, 1])), (0, q_series([5, 5], -1))])
        assert (got.min_exp, got.trunc_order) == (-1, 0)
        assert got.coeff_list(-1, 0) == [0, 2]

    def test_variable_mismatch(self):
        with pytest.raises(ValueError):
            lincomb([(1, q_series([1, 2])), (1, RatSeries("Q", 0, [1, 2]))])

    def test_log_slot_rejected(self):
        with pytest.raises(ValueError):
            lincomb([(1, q_series([1, 2])), (1, q_series([0, 1], log_coeff=1))])


class TestPowers:
    @given(st.integers(0, 2), sparse_coeffs, st.permutations(range(7)))
    @settings(max_examples=80, deadline=None)
    def test_powers_against_plain_list_oracle(self, m, cs, reads):
        # a base stored from q^-m (the conifold propagator starts at u^-1)
        # through q^n; its unit f ** 0 is known through q^(n + m)
        f = q_series(cs, min_exp=-m)
        n = f.trunc_order
        table = Powers(f)
        # f^k = q^(-m k) (q^m f)^k, and q^m f is a power series
        expect = pl_powers(tuple(cs), n + m, 6)
        first = {k: table[k] for k in reads}
        for k, p in first.items():
            # each factor of f cuts what is known
            through = n - m * (k - 1)
            assert p.trunc_order == through
            assert p.coeff_list(-m * k, through) == \
                expect[k][:through + m * k + 1]
        # each power is made once: a second read returns the same object
        assert all(table[k] is p for k, p in first.items())

    @pytest.mark.parametrize("bases", [
        (q_series([2, 1, -3, 0, 5, 1, 7]), q_series([0, 1, 4, -2, 0, 3, 1])),
        (q_series([1, -1, 0, 2, 0, 3, 5]), q_series([0, 0, 1, 3, -1, 0, 2]),
         q_series([3, 0, 1, 0, -2, 1, 1])),
        (BModElement(-2, {(0, 0): 1, (1, -1): 4}),
         BModElement(0, {(2, 0): F(1, 3), (0, 1): -1})),
        (BModElement(0, {(1, 0): 1, (0, -1): 2}), BModElement(1, {(0, 2): 5}),
         BModElement(-1, {(3, 0): F(-1, 2), (0, 0): 1})),
    ])
    def test_monomials_against_plain_powers(self, bases):
        table = Powers(*bases)
        for key in product(range(7), repeat=len(bases)):
            if sum(key) <= 6:
                plain = reduce(mul, (b ** k for b, k in zip(bases, key)))
                assert table[key] == plain, key

    def test_an_int_key_is_its_one_tuple(self):
        table = Powers(q_series([1, 2, 3]))
        assert table[3] is table[(3,)] and table[(2,)] is table[2]
        assert table[0] is table[(0,)]

    def test_an_entry_read_twice_is_made_once(self, monkeypatch):
        table = Powers(q_series([0, 1, 2, 3]), q_series([1, -1, 0, 2]))
        products = []
        plain_mul = RatSeries.__mul__

        def counted(a, b):
            products.append(b)
            return plain_mul(a, b)
        monkeypatch.setattr(RatSeries, "__mul__", counted)
        # the first nonzero exponent is lowered first: (2, 1) is made from
        # (1, 1), which is made from (0, 1), from the unit (0, 0)
        first = table[2, 1]
        assert products == [table.bases[1], table.bases[0], table.bases[0]]
        assert table[2, 1] is first and table[1, 1] is table[1, 1]
        assert len(products) == 3


class TestExpLog:
    def test_exp_log_inverse_pair(self):
        f = q_series([1, 1, 0, 0, 0])
        assert f.log().exp().coeff_list(0, 4) == [1, 1, 0, 0, 0]

    @given(unit_series)
    @settings(max_examples=40, deadline=None)
    def test_exp_log_roundtrip(self, f):
        g = f.log().exp()
        assert g.agrees_with(f, g.trunc_order)

    def test_exp_of_log_slot_shifts(self):
        # exp(log q + Ibar1) = q * exp(Ibar1): the mirror map expansion
        # writes the log slot as a shift, which exp itself rejects
        n = 6
        ibar1 = q_series([0] + [ibar1_coeff(k) for k in range(1, n + 1)])
        Q = ibar1.exp().shift(1)
        assert Q.coeff_list(1, 6) == [1, -6, 63, -866, 13899, -246366]
        with pytest.raises(ValueError):
            ibar1.with_log(1).exp()

    def test_exp_needs_its_constant_term(self):
        # known only below q^0, the constant term is unknown: no exp
        with pytest.raises(ValueError):
            q_series([0, 0], min_exp=-2).exp()

    def test_exp_requires_integer_log(self):
        with pytest.raises(ValueError):
            q_series([0, 1], log_coeff=F(1, 2)).exp()

    def test_log_requires_unit(self):
        with pytest.raises(ValueError):
            q_series([2, 1]).log()
        with pytest.raises(ValueError):
            q_series([0, 1]).log()


class ReadPowers(Powers):
    """A table of powers that records the largest index read, as a tuple."""

    def __init__(self, base):
        super().__init__(base)
        self.top = (-1,)

    def __getitem__(self, k):
        self.top = max(self.top, (k,) if isinstance(k, int) else k)
        return super().__getitem__(k)


class TestComposeRevert:
    def test_hand_substitution(self):
        outer = RatSeries("t", 0, [1, 1, 1])
        inner = q_series([0, 1, -1, 0, 0])
        got = outer.compose(Powers(inner))
        # result is fully determined through q^2 only (outer known through t^2)
        expect = pl_compose([F(1), F(1), F(1)], [F(0), F(1), F(-1), F(0), F(0)], 2)
        assert got.coeff_list(0, 2) == expect == [1, 1, 0]

    def test_compose_identity(self):
        f = q_series([0, 3, -2, 5])
        ident = RatSeries.gen("q", 3)
        assert RatSeries("t", 0, [0, 1, 0, 0]).compose(Powers(f)).coeff_list(
            0, 3) == f.coeff_list(0, 3)
        assert f.compose(Powers(ident)).coeff_list(0, 3) == f.coeff_list(0, 3)

    def test_compose_rejects_constant_term(self):
        with pytest.raises(ValueError):
            RatSeries("t", 0, [1, 1]).compose(Powers(q_series([1, 1])))

    def test_compose_rejects_a_zero_inner_series(self):
        with pytest.raises(ValueError, match="valuation >= 1"):
            RatSeries("t", 0, [1, 1]).compose(Powers(RatSeries.const("q", 0, 4)))

    def test_compose_rejects_log_slot(self):
        # log(inner) is not a power series in the variable
        with pytest.raises(ValueError):
            q_series([0, 1, 2], log_coeff=1).compose(Powers(q_series([0, 1, 3])))

    @pytest.mark.parametrize("v", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 4, 11])
    def test_compose_reads_only_the_powers_that_reach_its_order(self, v, n):
        # an inner of valuation v known through q^31: the result is known
        # through q^bound, and inner^k with k v > bound adds nothing there
        inner = q_series([0] * v + [(-1) ** k * (k + 2) for k in range(32 - v)])
        outer = RatSeries("t", 0, [F(k * k - 3, k + 1) for k in range(n + 1)])
        powers = ReadPowers(inner)
        got = outer.compose(powers)
        bound = min(31, (n + 1) * v - 1)
        assert (got.min_exp, got.trunc_order) == (0, bound)
        assert got.coeff_list(0, bound) == pl_compose(
            outer.coeff_list(0, n), inner.coeff_list(0, bound), bound)
        assert powers.top == (bound // v,)

    def test_revert_mirror_map(self):
        f = RatSeries("q", 0, [0, 1, -6, 63, -866, 13899])
        g = f.revert("Q")
        assert g.coeff_list(1, 5) == [1, 6, 9, 56, -300]

    def test_revert_identity(self):
        v = RatSeries.gen("q", 5)
        assert v.revert().coeff_list(0, 5) == v.coeff_list(0, 5)

    @given(st.lists(st.integers(-5, 5), min_size=3, max_size=6),
           st.sampled_from([1, -1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_revert_roundtrip(self, tail, c1):
        f = q_series([0, c1] + tail)
        g = f.revert()
        assert g.revert().agrees_with(f, f.trunc_order)
        assert f.compose(Powers(g)).coeff_list(1, f.trunc_order) == \
            [1] + [0] * (f.trunc_order - 1)

    def test_revert_rejects_log_slot(self):
        with pytest.raises(ValueError):
            q_series([0, 1, 2], log_coeff=1).revert()

    @pytest.mark.parametrize("coeffs", [[0, 0, 1, 3], [1, 1, 2], [0] * 4])
    def test_revert_needs_valuation_one(self, coeffs):
        with pytest.raises(ValueError):
            q_series(coeffs).revert()

    @pytest.mark.parametrize("name", ["that", "Qofq"])
    def test_revert_round_trip_at_order_32(self, name):
        # the Horner oracle shares no code with compose or the reversion
        f = getattr(build_mirror_data(32), name)
        fs, gs = f.coeff_list(0, 32), f.revert().coeff_list(0, 32)
        identity = [0, 1] + [0] * 31
        assert pl_compose(fs, gs, 32) == identity
        assert pl_compose(gs, fs, 32) == identity

    def test_plain_list_reversion_of_the_flat_coordinate(self):
        # the reversion the conifold polar-part oracle reads, at its order
        that = build_mirror_data(32).that
        fs = that.coeff_list(0, 31)
        gs = list(pl_revert(tuple(fs), 31))
        assert pl_compose(fs, gs, 31) == [0, 1] + [0] * 30
        assert gs == that.truncate(31).revert().coeff_list(0, 31)


class TestTheta:
    def test_theta_log_slot(self):
        n = 4
        i1 = q_series([0] + [ibar1_coeff(k) for k in range(1, n + 1)], log_coeff=1)
        i11 = i1.theta()
        assert i11.log_coeff == 0
        assert i11.coeff_list(0, 2) == [1, -6, 90]

    def test_theta_constant(self):
        assert RatSeries.const("q", 7, 5).theta() == RatSeries.const("q", 0, 5)

    def test_theta_monomial(self):
        f = q_series([0, 0, 0, 1, 0])
        assert f.theta().coeff(3) == 3
