"""Exact sparse multivariate polynomials over the rationals.

A polynomial stores a map from exponent tuples to nonzero Fraction
coefficients; zero coefficients are never kept, so structural equality is
dict equality.  The canonical term order is graded lexicographic with
x1 > x2 > ... > xn, largest term first.

Product-like operations (mul, pow, substitute) guard against runaway
degree growth through the module-level DEGREE_CAP and raise
ResourceLimitError instead of allocating huge results.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .errors import DimensionError, NotDivisibleError, ResourceLimitError

# Total-degree guard for product-like operations; module-level so callers
# can raise it for deliberately large computations.
DEGREE_CAP = 64

Exponent = tuple[int, ...]
Scalar = int | Fraction


def _normalize_scalar(value) -> Scalar:
    """Coerce to int (preferred, much faster) or Fraction; reject floats."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, float):
        raise TypeError("coefficients must be exact (int or Fraction), not float")
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def parse_rational(value) -> Fraction:
    """An exact rational from outside input: an int, a Fraction or a string.

    Strings are read by Fraction ("-3/4", "2", "0.5").  A float is
    rejected because it is already rounded (0.1 is not 1/10), a bool
    because it is not a number, and a zero denominator as malformed; all
    three raise ValueError, the input-error type.
    """
    # str first: Fraction's metaclass makes a failed check against it slow
    if isinstance(value, bool) or not isinstance(value, (str, int, Fraction)):
        raise ValueError(
            f"expected an integer or a rational string, got {value!r}"
        )
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def parse_count(value) -> int:
    """An integer field of outside input: an exponent, a variable count, a size.

    Only a JSON integer is accepted.  A float (1.5, and 2.0 too), a bool
    or a string raises ValueError, the input-error type, instead of being
    truncated to an integer.
    """
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def grlex_key(exponent: Exponent) -> tuple[int, Exponent]:
    """Sort key realizing graded-lex order (total degree, then lex)."""
    return (sum(exponent), exponent)


def monomials_of_degree(nvars: int, degree: int) -> list[Exponent]:
    """All exponent tuples of the given total degree, largest grlex first."""
    if nvars == 0:
        return [()] if degree == 0 else []
    out: list[Exponent] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, nvars)
    return out


def monomials_up_to_degree(nvars: int, degree: int) -> list[Exponent]:
    """All exponent tuples of total degree <= degree, ascending by degree."""
    out: list[Exponent] = []
    for d in range(degree + 1):
        out.extend(monomials_of_degree(nvars, d))
    return out


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "_terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Scalar] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        clean: dict[Exponent, Scalar] = {}
        for exp, coeff in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != nvars:
                raise DimensionError(
                    f"exponent {exp} has length {len(exp)}, expected {nvars}"
                )
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            c = _normalize_scalar(coeff)
            if c:
                clean[exp] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _raw(cls, nvars: int, terms: dict[Exponent, Scalar]) -> "Poly":
        """Trusted constructor: terms must already be canonical."""
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls._raw(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value: Scalar) -> "Poly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        """The polynomial x_(index+1); index is 0-based."""
        if not 0 <= index < nvars:
            raise DimensionError(f"variable index {index} out of range for nvars={nvars}")
        exp = [0] * nvars
        exp[index] = 1
        return cls._raw(nvars, {tuple(exp): 1})

    @classmethod
    def variables(cls, nvars: int) -> list["Poly"]:
        return [cls.variable(nvars, i) for i in range(nvars)]

    # -- inspection --------------------------------------------------------

    def terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in canonical order (descending graded-lex)."""
        return sorted(self._terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def iter_terms(self):
        """Raw (exponent, coefficient) pairs in arbitrary order; no sorting."""
        return self._terms.items()

    def coefficient(self, exponent: Exponent) -> Scalar:
        return self._terms.get(tuple(exponent), 0)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def leading_monomial(self) -> Exponent:
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self._terms, key=grlex_key)

    def leading_coefficient(self) -> Scalar:
        return self._terms[self.leading_monomial()]

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self._terms}
        return len(degrees) <= 1

    def homogeneous_components(self) -> list[tuple[int, "Poly"]]:
        """(degree, component) pairs, ascending by degree."""
        buckets: dict[int, dict[Exponent, Scalar]] = {}
        for exp, c in self._terms.items():
            buckets.setdefault(sum(exp), {})[exp] = c
        return [(d, Poly._raw(self.nvars, b)) for d, b in sorted(buckets.items())]

    def monomial_content(self) -> Exponent:
        """Componentwise minimum exponent over all terms; the largest
        monomial dividing every term.  Zero polynomial gives all zeros."""
        if not self._terms:
            return (0,) * self.nvars
        mins = None
        for exp in self._terms:
            mins = exp if mins is None else tuple(map(min, mins, exp))
        return mins

    def divide_by_monomial(self, exponent: Exponent) -> "Poly":
        """Exact division by a monomial that divides every term."""
        out = {}
        for exp, c in self._terms.items():
            new = tuple(a - b for a, b in zip(exp, exponent))
            if any(e < 0 for e in new):
                raise NotDivisibleError(
                    f"monomial with exponents {exponent} does not divide {self}"
                )
            out[new] = c
        return Poly._raw(self.nvars, out)

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-primitive; 0 for zero."""
        if not self._terms:
            return Fraction(0)
        nums = [abs(c.numerator) for c in self._terms.values()]
        dens = [c.denominator for c in self._terms.values()]
        return Fraction(gcd(*nums), lcm(*dens)) if len(nums) > 1 else Fraction(nums[0], dens[0])

    def primitive_part(self) -> "Poly":
        """Integer content removed, leading graded-lex coefficient positive."""
        if not self._terms:
            return self
        c = self.content()
        if self.leading_coefficient() < 0:
            c = -c
        return self * (1 / c)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic --------------------------------------------------------

    def _check_same_ring(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise DimensionError(
                f"operands have {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_ring(other)
        out = dict(self._terms)
        for exp, c in other._terms.items():
            prev = out.get(exp)
            s = c if prev is None else prev + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return Poly._raw(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Poly":
        return (-self) + other

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = _normalize_scalar(other)
            if not c:
                return Poly.zero(self.nvars)
            return Poly._raw(
                self.nvars,
                {e: _normalize_scalar(k * c) for e, k in self._terms.items()},
            )
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_ring(other)
        if not self._terms or not other._terms:
            return Poly.zero(self.nvars)
        if self.total_degree() + other.total_degree() > DEGREE_CAP:
            raise ResourceLimitError(
                f"product degree {self.total_degree() + other.total_degree()} "
                f"exceeds cap {DEGREE_CAP}"
            )
        out: dict[Exponent, Scalar] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                exp = tuple(a + b for a, b in zip(ea, eb))
                prev = out.get(exp)
                s = ca * cb if prev is None else prev + ca * cb
                if s:
                    out[exp] = s
                else:
                    del out[exp]
        return Poly._raw(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Poly.constant(self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash((self.nvars, frozenset(self._terms.items())))
            )
        return self._hash

    # -- calculus and evaluation -------------------------------------------

    def partial_derivative(self, index: int) -> "Poly":
        """Exact partial derivative with respect to x_(index+1); 0-based."""
        if not 0 <= index < self.nvars:
            raise DimensionError(f"variable index {index} out of range")
        out: dict[Exponent, Scalar] = {}
        for exp, c in self._terms.items():
            e = exp[index]
            if e == 0:
                continue
            new = list(exp)
            new[index] = e - 1
            out[tuple(new)] = c * e
        return Poly._raw(self.nvars, out)

    def substitute(self, images: Sequence["Poly"]) -> "Poly":
        """Ring-homomorphic substitution x_i -> images[i]."""
        if len(images) != self.nvars:
            raise DimensionError(
                f"need {self.nvars} images, got {len(images)}"
            )
        if self.nvars == 0:
            return self
        target_nvars = images[0].nvars
        for img in images:
            if img.nvars != target_nvars:
                raise DimensionError("images live in different rings")
        image_degrees = [max(0, img.total_degree()) for img in images]
        powers: list[dict[int, Poly]] = [
            {0: Poly.constant(target_nvars, 1)} for _ in images
        ]

        def power(i: int, e: int) -> Poly:
            cache = powers[i]
            if e not in cache:
                cache[e] = power(i, e - 1) * images[i]
            return cache[e]

        result = Poly.zero(target_nvars)
        for exp, c in self._terms.items():
            bound = sum(a * d for a, d in zip(exp, image_degrees))
            if bound > DEGREE_CAP:
                raise ResourceLimitError(
                    f"substitution term degree bound {bound} exceeds cap {DEGREE_CAP}"
                )
            term = Poly.constant(target_nvars, c)
            for i, a in enumerate(exp):
                if a:
                    term = term * power(i, a)
            result = result + term
        return result

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Exact value at a rational point.

        Each power v_i**e is computed once.  The terms are summed as
        numerator * monomial per coefficient denominator, so an integer
        point is evaluated in integer arithmetic, and one Fraction is formed
        per distinct denominator at the end.
        """
        if len(point) != self.nvars:
            raise DimensionError(f"need {self.nvars} coordinates, got {len(point)}")
        values = [_normalize_scalar(v) for v in point]
        powers: list[dict[int, Scalar]] = [{0: 1} for _ in values]
        sums: dict[int, Scalar] = {}
        for exp, c in self._terms.items():
            term = c.numerator
            for e, v, cache in zip(exp, values, powers):
                p = cache.get(e)
                if p is None:
                    p = cache[e] = v**e
                term *= p
            d = c.denominator
            sums[d] = sums.get(d, 0) + term
        return sum((Fraction(s, d) for d, s in sums.items()), Fraction(0))

    # -- serialization and display -----------------------------------------

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [
                {"coeff": str(c), "exp": list(e)} for e, c in self.terms()
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "Poly":
        nvars = parse_count(data["nvars"])
        terms: dict[Exponent, Fraction] = {}
        for item in data["terms"]:
            exp = tuple(parse_count(x) for x in item["exp"])
            coeff = parse_rational(item["coeff"])
            terms[exp] = terms.get(exp, Fraction(0)) + coeff
        return cls(nvars, terms)

    def _format_monomial(self, exp: Exponent) -> str:
        parts = []
        for i, e in enumerate(exp):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for k, (exp, c) in enumerate(self.terms()):
            mono = self._format_monomial(exp)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if k == 0:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self})"


def poly_divexact(numerator: Poly, divisor: Poly) -> Poly:
    """Exact division; raises NotDivisibleError when divisor is no factor."""
    if not divisor:
        raise ZeroDivisionError("division by the zero polynomial")
    numerator._check_same_ring(divisor)
    if not numerator:
        return numerator
    quotient = Poly.zero(numerator.nvars)
    remainder = numerator
    lead_div = divisor.leading_monomial()
    lead_coeff = divisor.leading_coefficient()
    while remainder:
        lead_rem = remainder.leading_monomial()
        diff = tuple(a - b for a, b in zip(lead_rem, lead_div))
        if any(d < 0 for d in diff):
            raise NotDivisibleError(f"{divisor} does not divide {numerator}")
        factor = Poly(
            numerator.nvars,
            {diff: Fraction(remainder.leading_coefficient()) / lead_coeff},
        )
        quotient = quotient + factor
        remainder = remainder - factor * divisor
    return quotient
