"""Polynomial derivations of K[x1..xn] as first-class values.

A derivation is determined by its coefficient vector (f1, ..., fn) and
acts as f1*d/dx1 + ... + fn*d/dxn.  Application, the Lie bracket,
commutation tests and conjugation by polynomial automorphisms all operate
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import DimensionError, PreconditionError, ResourceLimitError
from .poly import (
    FIELD_BITS,
    FIELD_LIMIT,
    Poly,
    Scalar,
    degree_cap,
    parse_count,
    variable_field,
)
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
        if not 0 <= index < nvars:
            raise DimensionError(f"variable index {index} out of range for nvars={nvars}")
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
        """Apply to a polynomial: sum_i fi * df/dxi.

        An f of total degree at most 1 is read by its own coefficients,
        without the action: self(c + sum a_j x_j) = sum a_j f_j.

        Raises ResourceLimitError when the image has a degree above
        DEGREE_CAP, or when a product of a term of f with a term of some fi
        would have degree FIELD_LIMIT or more, which no key can hold.
        """
        if f.nvars != self.nvars:
            raise DimensionError(
                f"polynomial has {f.nvars} variables, derivation {self.nvars}"
            )
        degree = f.total_degree()
        if degree <= 1:
            return self._apply_linear(f)
        return self._apply_steps(f, degree)

    def _apply_steps(self, f: Poly, degree: int) -> Poly:
        """self(f) by the steps of the action, for any f of total degree
        `degree`."""
        action, coeff_degree = self._action()
        if not f or not action:
            return Poly.zero(self.nvars)
        cap = degree_cap()
        # Every product of a term of f with a step has degree at most bound.
        # A product of degree d has every field at most d: below FIELD_LIMIT
        # its key k + offset is exact and its degree field reads d, from
        # FIELD_LIMIT on that field reads d or more.  So once no product
        # reaches FIELD_LIMIT every key is exact, and the image can pass
        # the cap only if bound does.
        bound = degree - 1 + coeff_degree
        top = FIELD_BITS * self.nvars
        mask = FIELD_LIMIT - 1
        fterms = f.iter_terms()
        if bound >= FIELD_LIMIT and any(
            (k + offset) >> top >= FIELD_LIMIT
            for shift, offset, _ in action for k in fterms.mapping if k >> shift & mask
        ):
            raise ResourceLimitError(
                f"derivation image term of degree {FIELD_LIMIT} or more exceeds "
                f"cap {cap}"
            )
        # Fused partial-derivative / multiply / accumulate pass on monomial
        # keys; this is the hottest loop in the package.
        acc: dict[int, Scalar] = {}
        get = acc.get
        for shift, offset, cc in action:
            for k, c in fterms:
                e = k >> shift & mask
                if e:
                    key = k + offset
                    val = c * e if cc == 1 else c * e * cc
                    prev = get(key)
                    acc[key] = val if prev is None else prev + val
        if not all(acc.values()):
            acc = {k: c for k, c in acc.items() if c}
        if bound > cap and acc and max(acc) >> top > cap:
            raise ResourceLimitError(
                f"derivation image degree {max(acc) >> top} exceeds cap {cap}"
            )
        return Poly._raw(self.nvars, acc)

    def _apply_linear(self, f: Poly) -> Poly:
        """self(f) for f of total degree at most 1: sum a_j f_j over the
        terms a_j x_j of f, the constant term mapping to zero.  The image
        keys are those of the f_j, so the checks of __call__ reduce to
        the degrees of the f_j it reads."""
        n = self.nvars
        if not f:
            return Poly.zero(n)
        cap = degree_cap()
        top = FIELD_BITS * n
        low = (1 << top) - 1
        acc: dict[int, Scalar] = {}
        get = acc.get
        for k, a in f.iter_terms():
            if k:
                # the key of x_j holds 1 in the top field and in the field of
                # x_j, which lies FIELD_BITS * (n - 1 - j) bits up
                j = n - 1 - ((k & low).bit_length() - 1) // FIELD_BITS
                for key, c in self.coeffs[j].iter_terms():
                    val = a * c
                    prev = get(key)
                    acc[key] = val if prev is None else prev + val
        # before the zeros go, acc holds every key read
        if acc and max(acc) >> top >= FIELD_LIMIT:
            raise ResourceLimitError(
                f"derivation image term of degree {FIELD_LIMIT} or more exceeds "
                f"cap {cap}"
            )
        if not all(acc.values()):
            acc = {k: c for k, c in acc.items() if c}
        if acc and max(acc) >> top > cap:
            raise ResourceLimitError(
                f"derivation image degree {max(acc) >> top} exceeds cap {cap}"
            )
        return Poly._raw(n, acc)

    def _action(self) -> tuple[list[tuple[int, int, Scalar]], int]:
        """How _apply_steps applies self, built on first use and kept.

        One step per term c*x^m of each coefficient f_i: the shift of the
        x_i field, the key of x^m less the key of x_i, and c.  A term x^k
        of the argument with e_i > 0 then maps to the key k + offset, with
        coefficient e_i * c.  Also the largest total degree of a
        coefficient.
        """
        action = self.__dict__.get("_action_cache")
        if action is None:
            steps, degree = [], 0
            for i, f in enumerate(self.coeffs):
                if f:
                    shift, unit = variable_field(self.nvars, i)
                    steps += [(shift, k - unit, c) for k, c in f.iter_terms()]
                    degree = max(degree, f.total_degree())
            action = (steps, degree)
            object.__setattr__(self, "_action_cache", action)
        return action

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
        """{"nvars": n, "coeffs": [f1, ..., fn]}, each fi as `Poly.to_json()`
        gives it.  `cli.write_json` writes a derivation as the mapping
        {"coeffs": coeffs, "nvars": n} instead, so no tree is built."""
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


def annihilates_ratfunc(D: Derivation, phi: RatFunc) -> bool:
    """Exact test that phi is a constant of D (D(phi) = 0): the numerator
    D(p)q - p D(q) of D(p/q) by the quotient rule vanishes."""
    return D(phi.num) * phi.den == phi.num * D(phi.den)
