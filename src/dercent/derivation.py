"""Polynomial derivations of K[x1..xn] as first-class values.

A derivation is determined by its coefficient vector (f1, ..., fn) and
acts as f1*d/dx1 + ... + fn*d/dxn.  The Lie bracket, commutation tests,
nilpotency order, conjugation by polynomial automorphisms and coordinate
splitting all operate exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import DimensionError, PreconditionError
from .poly import Poly, Scalar, parse_count
from .ratfunc import RatFunc


@dataclass(frozen=True)
class Derivation:
    """f1*d1 + ... + fn*dn with polynomial coefficients fi."""

    coeffs: tuple[Poly, ...]

    def __post_init__(self):
        n = len(self.coeffs)
        for c in self.coeffs:
            if c.nvars != n:
                raise DimensionError(
                    f"coefficient has {c.nvars} variables, expected {n}"
                )

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    @classmethod
    def zero(cls, nvars: int) -> "Derivation":
        return cls(tuple(Poly.zero(nvars) for _ in range(nvars)))

    @classmethod
    def partial(cls, nvars: int, index: int) -> "Derivation":
        """The coordinate derivation d/dx_(index+1); index is 0-based."""
        coeffs = [Poly.zero(nvars) for _ in range(nvars)]
        coeffs[index] = Poly.constant(nvars, 1)
        return cls(tuple(coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _check_same_ring(self, other: "Derivation") -> None:
        if self.nvars != other.nvars:
            raise DimensionError(
                f"derivations act on {self.nvars} and {other.nvars} variables"
            )

    # -- action and Lie structure -------------------------------------------

    def __call__(self, f: Poly) -> Poly:
        """Apply to a polynomial: sum_i fi * df/dxi."""
        if f.nvars != self.nvars:
            raise DimensionError(
                f"polynomial has {f.nvars} variables, derivation {self.nvars}"
            )
        # Fused partial-derivative / multiply / accumulate pass; this is
        # the hottest loop in the package.
        acc: dict[tuple[int, ...], int | Fraction] = {}
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            citems = list(c.iter_terms())
            for exp, k in f.iter_terms():
                e = exp[i]
                if not e:
                    continue
                scaled = k * e
                for cexp, cc in citems:
                    combined = [a + b for a, b in zip(exp, cexp)]
                    combined[i] -= 1
                    key = tuple(combined)
                    val = scaled if cc == 1 else scaled * cc
                    prev = acc.get(key)
                    s = val if prev is None else prev + val
                    if s:
                        acc[key] = s
                    else:
                        del acc[key]
        return Poly._raw(self.nvars, acc)

    def bracket(self, other: "Derivation") -> "Derivation":
        """Commutator [self, other]; i-th coefficient self(gi) - other(fi)."""
        self._check_same_ring(other)
        return Derivation(
            tuple(self(g) - other(f) for f, g in zip(self.coeffs, other.coeffs))
        )

    def commutes(self, other: "Derivation") -> bool:
        """Coefficientwise commutation test: self(gi) = other(fi) for all i."""
        self._check_same_ring(other)
        return all(
            self(g) == other(f) for f, g in zip(self.coeffs, other.coeffs)
        )

    # -- module structure -----------------------------------------------------

    def __add__(self, other: "Derivation") -> "Derivation":
        if not isinstance(other, Derivation):
            return NotImplemented
        self._check_same_ring(other)
        return Derivation(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Derivation") -> "Derivation":
        if not isinstance(other, Derivation):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Derivation":
        return Derivation(tuple(-c for c in self.coeffs))

    def __mul__(self, factor: Poly | Scalar) -> "Derivation":
        if isinstance(factor, (int, Fraction, Poly)):
            return Derivation(tuple(c * factor for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    # -- serialization and display --------------------------------------------

    def to_json(self) -> dict:
        return {"nvars": self.nvars, "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: Mapping) -> "Derivation":
        coeffs = tuple(Poly.from_json(c) for c in data["coeffs"])
        if len(coeffs) != parse_count(data["nvars"]):
            raise DimensionError("coefficient count does not match nvars")
        return cls(coeffs)

    def __str__(self) -> str:
        pieces = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if c == 1:
                pieces.append(f"d{i + 1}")
            elif len(c.terms()) == 1 and c.leading_coefficient() > 0:
                pieces.append(f"{c}*d{i + 1}")
            else:
                pieces.append(f"({c})*d{i + 1}")
        return " + ".join(pieces) if pieces else "0"

    def __repr__(self) -> str:
        return f"Derivation({self})"


def d_order(D: Derivation, f: Poly, bound: int | None = None) -> int | None:
    """Smallest k with D^k(f) != 0 and D^(k+1)(f) = 0.

    Returns -1 for f = 0 (so filtration code stays total) and None when
    D^(bound+1)(f) is still nonzero, which witnesses non-nilpotency up to
    the bound rather than looping forever.  The default bound covers any
    derivation that strictly shifts variables down.
    """
    if not f:
        return -1
    if bound is None:
        bound = D.nvars * max(0, f.total_degree()) + 1
    if bound < 1:
        raise PreconditionError("bound must be >= 1")
    g = f
    for k in range(bound + 1):
        h = D(g)
        if not h:
            return k
        g = h
    return None


def index(D: Derivation) -> tuple[int, int]:
    """(number of nonzero coefficients, 1-based position of the first).

    Both readings of the index of a nonzero derivation; raises on zero
    input since the first nonzero position is undefined there.
    """
    positions = [i + 1 for i, c in enumerate(D.coeffs) if c]
    if not positions:
        raise PreconditionError("index of the zero derivation is undefined")
    return (len(positions), positions[0])


def split_components(T: Derivation, k: int) -> tuple[Derivation, Derivation]:
    """Split into sum_{i<=k} gi*di and sum_{i>k} gi*di; k is 1-based."""
    n = T.nvars
    if not 1 <= k < n:
        raise PreconditionError(f"split position {k} out of range 1..{n - 1}")
    zero = Poly.zero(n)
    first = Derivation(tuple(c if i < k else zero for i, c in enumerate(T.coeffs)))
    second = Derivation(tuple(zero if i < k else c for i, c in enumerate(T.coeffs)))
    return first, second


@dataclass(frozen=True)
class PolyAutomorphism:
    """A polynomial coordinate change with a verified inverse.

    Both composition orders are checked at construction; inverting a
    polynomial map is out of scope, so the inverse must be supplied.
    """

    images: tuple[Poly, ...]
    inverse_images: tuple[Poly, ...]

    def __post_init__(self):
        n = len(self.images)
        if len(self.inverse_images) != n:
            raise DimensionError("images and inverse images differ in length")
        xs = Poly.variables(n)
        for i in range(n):
            if self.images[i].substitute(list(self.inverse_images)) != xs[i]:
                raise PreconditionError(
                    "inverse_images do not invert images (forward check failed)"
                )
            if self.inverse_images[i].substitute(list(self.images)) != xs[i]:
                raise PreconditionError(
                    "images do not invert inverse_images (backward check failed)"
                )

    @property
    def nvars(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, nvars: int) -> "PolyAutomorphism":
        xs = tuple(Poly.variables(nvars))
        return cls(xs, xs)

    def inverse(self) -> "PolyAutomorphism":
        return PolyAutomorphism(self.inverse_images, self.images)

    def __call__(self, f: Poly) -> Poly:
        return f.substitute(list(self.images))

    def apply_inverse(self, f: Poly) -> Poly:
        return f.substitute(list(self.inverse_images))

    def to_json(self) -> dict:
        return {
            "images": [p.to_json() for p in self.images],
            "inverse_images": [p.to_json() for p in self.inverse_images],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "PolyAutomorphism":
        return cls(
            tuple(Poly.from_json(p) for p in data["images"]),
            tuple(Poly.from_json(p) for p in data["inverse_images"]),
        )


def conjugate(D: Derivation, phi: PolyAutomorphism) -> Derivation:
    """The derivation phi^-1 D phi, acting as f -> phi^-1(D(phi(f)))."""
    if D.nvars != phi.nvars:
        raise DimensionError("derivation and automorphism sizes differ")
    return Derivation(
        tuple(phi.apply_inverse(D(img)) for img in phi.images)
    )


def ratfunc_image_numerator(D: Derivation, phi: RatFunc) -> Poly:
    """Numerator of D(num/den) by the quotient rule: D(p)q - p D(q)."""
    return D(phi.num) * phi.den - phi.num * D(phi.den)


def annihilates_ratfunc(D: Derivation, phi: RatFunc) -> bool:
    """Exact test that phi is a constant of D (D(phi) = 0)."""
    return not ratfunc_image_numerator(D, phi)
