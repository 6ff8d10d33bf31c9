"""Unreduced rational functions (fractions of polynomials).

No multivariate gcd is computed: fractions stay unreduced, equality and
zero tests work by cross-multiplication, and a content-stripping pass at
construction (dividing numerator and denominator by their joint rational
content) keeps integer coefficients from ballooning.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly, Scalar


def _fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    """gcd on positive rationals: gcd(p/q, r/s) = gcd(p*s, r*q)/(q*s)."""
    from math import gcd

    return Fraction(
        gcd(a.numerator * b.denominator, b.numerator * a.denominator),
        a.denominator * b.denominator,
    )


class RatFunc:
    """A quotient num/den of polynomials, den nonzero, not reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        num._check_same_ring(den)
        # Joint content strip (rational scalar plus common monomial):
        # value-preserving, requires no gcd, bounds growth under the
        # repeated cross-multiplications of unreduced arithmetic.
        if num:
            c = _fraction_gcd(num.content(), den.content())
            shared = tuple(
                map(min, num.monomial_content(), den.monomial_content())
            )
            if any(shared):
                num = num.divide_by_monomial(shared)
                den = den.divide_by_monomial(shared)
        else:
            c = den.content()
        if den.leading_coefficient() < 0:
            c = -c
        object.__setattr__(self, "num", num * (1 / c))
        object.__setattr__(self, "den", den * (1 / c))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls(p, Poly.constant(p.nvars, 1))

    @classmethod
    def constant(cls, nvars: int, value: Scalar) -> "RatFunc":
        return cls.from_poly(Poly.constant(nvars, value))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return not self.num

    def _coerce(self, other) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc.from_poly(other)
        if isinstance(other, (int, Fraction)):
            return RatFunc.constant(self.nvars, other)
        return None

    def __add__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "RatFunc":
        return (-self) + other

    def __mul__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # Cross-multiplication: p/q = r/s iff p*s - r*q = 0.
        return not (self.num * o.den - o.num * self.den)

    def __hash__(self):  # pragma: no cover - unreduced values hash poorly
        raise TypeError("RatFunc is not hashable (unreduced representation)")

    def to_json(self) -> dict:
        """{"num": Poly, "den": Poly}: the parts are left to the writer."""
        return {"num": self.num, "den": self.den}

    def __str__(self) -> str:
        if self.den == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"
