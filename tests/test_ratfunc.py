"""Unreduced rational functions: zero tests, cross-multiplication, growth."""

from fractions import Fraction

import pytest
from hypothesis import given

from dercent.poly import Poly
from dercent.ratfunc import RatFunc
from test_poly import poly_st

x1, x2, x3 = Poly.variables(3)


class TestZeroTest:
    def test_zero_numerator(self):
        assert RatFunc(Poly.zero(3), x1).is_zero()

    def test_nonzero(self):
        assert not RatFunc(x2**2, x1).is_zero()

    def test_cancelling_numerator(self):
        assert RatFunc(x1 * x2 - x2 * x1, x3).is_zero()

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(x1, Poly.zero(3))


class TestEquality:
    def test_unreduced_equal(self):
        # (x1*x2)/(x1*x3) equals x2/x3 without any gcd computation
        assert RatFunc(x1 * x2, x1 * x3) == RatFunc(x2, x3)

    def test_not_equal(self):
        assert RatFunc(x2, x1) != RatFunc(x3, x1)

    def test_poly_and_scalar_comparison(self):
        assert RatFunc(2 * x1 * x2, x2) == 2 * x1
        assert RatFunc(Poly.constant(3, 6), Poly.constant(3, 4)) == Fraction(3, 2)


class TestArithmetic:
    def test_add_cross_multiplies(self):
        lhs = RatFunc(x2, x1) + RatFunc(x3, x2)
        assert lhs == RatFunc(x2**2 + x1 * x3, x1 * x2)

    def test_sub_gives_zero(self):
        phi = RatFunc(x2**2, x1)
        assert (phi - phi).is_zero()

    def test_mul_div_round_trip(self):
        phi = RatFunc(x2 + x3, x1)
        psi = RatFunc(x1 * x3, x2)
        assert (phi * psi) / psi == phi

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(x2, x1) / RatFunc(Poly.zero(3), x1)


class TestNormalization:
    def test_content_strip_preserves_value(self):
        phi = RatFunc(4 * x2**2 - 8 * x1 * x3, 2 * x1)
        assert phi == RatFunc(2 * x2**2 - 4 * x1 * x3, x1)
        assert phi.den.leading_coefficient() > 0

    def test_denominator_sign_normalized(self):
        phi = RatFunc(x2, -x1)
        assert phi.den.leading_coefficient() > 0
        assert phi == RatFunc(-x2, x1)


class TestCrossMultiplicationProperty:
    @given(p=poly_st(), q=poly_st(), s=poly_st())
    def test_scaling_never_changes_value(self, p, q, s):
        if not q or not s:
            return
        assert RatFunc(p * s, q * s) == RatFunc(p, q)

    @given(p=poly_st(), r=poly_st(), q=poly_st())
    def test_equality_matches_cross_multiplication(self, p, r, q):
        if not q:
            return
        lhs = RatFunc(p, q) == RatFunc(r, q)
        assert lhs == (not (p * q - r * q))
