"""Centralizer construction for the basic Weitzenboeck derivation.

The basic Weitzenboeck derivation D = x1*d2 + ... + x(n-1)*dn embeds in
an sl2 triple (D, Dhat, H).  Monomials are graded by their H-eigenvalue
(the weight); repeated Dhat-images of isobaric kernel generators,
multiplied together under a budget on the total number of lowering
steps, generate the kernels of powers of D as modules over Ker D.  Each
such product s yields a derivation with coefficient ladder D^(n-i)(s)
that commutes with D, and together these generate the centralizer of D
as a Ker D-module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import repeat
from typing import Iterator, Sequence

from .derivation import Derivation
from .errors import PreconditionError, RegistryError
from .poly import Exponent, Poly


@cache
def weitzenboeck_derivation(n: int) -> Derivation:
    """x1*d2 + x2*d3 + ... + x(n-1)*dn.

    Built once per n, like sl2_triple(n): the value is immutable, and the
    action that applying it builds is kept with it, so each ladder of a
    generator set reuses it.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    coeffs = [Poly.zero(n)]
    coeffs += [Poly.variable(n, i) for i in range(n - 1)]
    return Derivation(tuple(coeffs))


@dataclass(frozen=True)
class Sl2Triple:
    """Derivations (d, dhat, h) with [d,dhat]=h, [h,d]=2d, [h,dhat]=-2dhat."""

    n: int
    d: Derivation
    dhat: Derivation
    h: Derivation

    def __post_init__(self):
        if self.d.bracket(self.dhat) != self.h:
            raise PreconditionError("[d, dhat] != h")
        if self.h.bracket(self.d) != self.d * 2:
            raise PreconditionError("[h, d] != 2d")
        if self.h.bracket(self.dhat) != self.dhat * (-2):
            raise PreconditionError("[h, dhat] != -2*dhat")


@cache
def sl2_triple(n: int) -> Sl2Triple:
    """The triple around the basic Weitzenboeck derivation.

    dhat sends x_i to i*(n-i)*x_(i+1) and h scales x_i by n-2i+1; the
    commutation relations are verified exactly at construction.  Built
    once per n: the triple is immutable, so every generator set of n
    lowers with the same dhat and the relations are checked once.
    """
    if n < 2:
        raise PreconditionError("sl2 triple needs n >= 2")
    d = weitzenboeck_derivation(n)
    dhat_coeffs = []
    h_coeffs = []
    for i in range(1, n + 1):
        if i < n:
            dhat_coeffs.append(Poly.variable(n, i) * (i * (n - i)))
        else:
            dhat_coeffs.append(Poly.zero(n))
        h_coeffs.append(Poly.variable(n, i - 1) * (n - 2 * i + 1))
    return Sl2Triple(n, d, Derivation(tuple(dhat_coeffs)), Derivation(tuple(h_coeffs)))


def monomial_weight(exponent: Exponent, n: int) -> int:
    """H-eigenvalue of a monomial: n*sum(a) - sum (2i-1)*a_i."""
    if len(exponent) != n:
        raise PreconditionError("exponent length does not match n")
    return sum(a * (n - 2 * i - 1) for i, a in enumerate(exponent))


def kernel_dimensions(n: int, power: int, degree: int) -> list[list[int]]:
    """dims[i - 1][t] = dim (Ker D^i)_t for the basic Weitzenboeck D, for
    i = 1..power and t = 0..degree.

    The sl2 triple splits the degree-t polynomials into irreducibles V_w,
    V_w occurring q(t, w) - q(t, w + 2) times, where q(t, w) counts the
    degree-t monomials of weight w; Ker D^i meets V_w in dimension
    min(i, w + 1) (the Cayley-Sylvester count).  The numbers q come from
    the generating function prod_j 1/(1 - t*u^(n - 2j + 1)), expanded one
    variable at a time, with no monomial list and no matrix.  Past level
    w + 1 for the largest weight w every level has the same dimensions,
    so those levels repeat one list.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if power < 1:
        raise PreconditionError("power must be >= 1")
    if degree < 0:
        raise PreconditionError("degree must be >= 0")
    top = (n - 1) * degree  # the largest weight of a monomial of degree <= degree
    width = 2 * top + 1
    # q[t][top + w] = q(t, w); multiplying by 1/(1 - t*u^a) adds to each
    # degree the counts of the one below, already multiplied, shifted by a
    q = [[0] * width for _ in range(degree + 1)]
    q[0][top] = 1
    for j in range(1, n + 1):
        a = n - 2 * j + 1
        for t in range(1, degree + 1):
            below, row = q[t - 1], q[t]
            for k in range(max(0, a), min(width, width + a)):
                row[k] += below[k - a]
    # irreducibles[t][w] = multiplicity of V_w among the degree-t polynomials
    irreducibles = [
        [row[top + w] - (row[top + w + 2] if w + 2 <= top else 0) for w in range(top + 1)]
        for row in q
    ]
    levels = min(power, top + 1)
    dims = [
        [sum(m * min(i, w + 1) for w, m in enumerate(counts)) for counts in irreducibles]
        for i in range(1, levels + 1)
    ]
    dims.extend(repeat(dims[-1], power - levels))
    return dims


def isobaric_components(f: Poly) -> list[tuple[int, Poly]]:
    """Split into isobaric parts; (weight, part) pairs, descending weight."""
    n = f.nvars
    buckets: dict[int, dict[Exponent, Fraction]] = {}
    for exp, c in f.terms():
        buckets.setdefault(monomial_weight(exp, n), {})[exp] = c
    return [
        (w, Poly(n, terms)) for w, terms in sorted(buckets.items(), reverse=True)
    ]


def commuting_derivation(f: Poly, n: int) -> Derivation:
    """The derivation D^(n-1)(f)*d1 + ... + D(f)*d(n-1) + f*dn.

    Requires D^n(f) = 0 (order at most n-1 under the basic Weitzenboeck
    derivation D); the result then commutes with D exactly.
    """
    if f.nvars != n:
        raise PreconditionError("polynomial variable count does not match n")
    D = weitzenboeck_derivation(n)
    chain = [f]
    for _ in range(n):
        chain.append(D(chain[-1]))
    if chain[n]:
        raise PreconditionError(
            f"order of {f} under the Weitzenboeck derivation exceeds {n - 1}"
        )
    return Derivation(tuple(chain[n - 1 - i] for i in range(n)))


@dataclass(frozen=True)
class GenElement:
    """One product of lowering-operator images of kernel generators.

    `poly` is the primitive-part normalization of the raw product;
    `scale` is the rational with raw = scale * poly.  `factors` lists
    (generator index, lowering power) pairs, repetition allowed; the
    empty tuple denotes the constant 1.

    `to_json()` leaves `poly` a Poly, so its result is encoded with
    `json.dumps(..., default=lambda o: o.to_json())` or `cli.write_json`,
    which writes the poly from its terms when it reaches it.
    """

    poly: Poly
    factors: tuple[tuple[int, int], ...]
    scale: Fraction

    def to_json(self) -> dict:
        """{"poly": Poly, "factors": [...], "scale": "c"}."""
        return {
            "poly": self.poly,
            "factors": [{"generator": g, "power": k} for g, k in self.factors],
            "scale": str(self.scale),
        }


@dataclass(frozen=True)
class GeneratorSet:
    """Module generators for the kernel of D^level over Ker D.

    `to_json()` leaves the elements as GenElements, encoded the same way
    as theirs, so a writer turns them into JSON one at a time.
    """

    level: int
    elements: tuple[GenElement, ...]

    def polys(self) -> list[Poly]:
        return [e.poly for e in self.elements]

    def to_json(self) -> dict:
        """{"level": level, "elements": (GenElement, ...)}."""
        return {"level": self.level, "elements": self.elements}


def generator_set(n: int, kernel_gens: Sequence[Poly], level: int) -> GeneratorSet:
    """Products of Dhat-images of kernel generators with lowering budget.

    Enumerates all products Dhat^(k1)(a_i1) * ... * Dhat^(kt)(a_it) with
    every k_j >= 1 and k_1 + ... + k_t <= level - 1, plus the empty
    product 1.  Vanishing factors are never used; duplicate elements
    (after primitive-part normalization) keep their first factorization.
    Elements are ordered by total degree, then descending graded-lex
    leading monomial.
    """
    if level < 1:
        raise PreconditionError("level must be >= 1")
    for g in kernel_gens:
        if g.nvars != n:
            raise PreconditionError("kernel generator variable count does not match n")
    dhat = sl2_triple(n).dhat if n >= 2 else None
    budget = level - 1

    # alphabet[j] = (gen index, lowering power, the integer-primitive part
    # of the nonzero image, its signed content: image = content * part)
    alphabet: list[tuple[int, int, Poly, Fraction]] = []
    for g_idx, g in enumerate(kernel_gens):
        image = g
        for k in range(1, budget + 1):
            image = dhat(image) if dhat is not None else Poly.zero(n)
            if not image:
                break
            part = image.primitive_part()
            content = Fraction(image.leading_coefficient()) / part.leading_coefficient()
            alphabet.append((g_idx, k, part, content))

    # A product of integer-primitive polynomials with positive leading
    # coefficients is one too (Gauss's lemma), so the product of the parts
    # is the primitive part of the product of the images, and the product
    # of the contents is its scale.
    # Depth first, each product before its extensions by alphabet[j] for
    # j >= its last letter, in ascending j: the stack takes them in reverse.
    seen: dict[Poly, GenElement] = {}
    stack = [(0, budget, Poly.constant(n, 1), Fraction(1), ())]
    while stack:
        start, remaining, product, scale, factors = stack.pop()
        if product not in seen:
            seen[product] = GenElement(product, factors, scale)
        for j in range(len(alphabet) - 1, start - 1, -1):
            g_idx, k, part, content = alphabet[j]
            if k <= remaining:
                stack.append((j, remaining - k, product * part, scale * content,
                              factors + ((g_idx, k),)))

    def order_key(el: GenElement):
        lead = el.poly.leading_monomial()
        return (sum(lead), tuple(-e for e in lead))

    return GeneratorSet(level, tuple(sorted(seen.values(), key=order_key)))


@dataclass(frozen=True)
class CentralizerGenerator:
    """A module generator of the centralizer, with its source element.

    `to_json()` leaves the element and the derivation as objects, encoded
    the same way as GenElement's.
    """

    element: GenElement
    derivation: Derivation

    def to_json(self) -> dict:
        """{"element": GenElement, "derivation": Derivation}."""
        return {"element": self.element, "derivation": self.derivation}


class Ladders:
    """The centralizer generators of a generator set, each built when read.

    One derivation per element s, with ladder D^(n-i)(s).  Every s must
    satisfy D^n(s) = 0; one that does not comes from kernel generators
    that are not kernel elements, and building its ladder raises
    RegistryError.  `len` is the number of elements of the set.  Each
    iteration builds the ladders anew, one per element in turn, and keeps
    none, so a writer holds one ladder at a time; a caller that reads
    them more than once keeps a list.
    """

    def __init__(self, n: int, S: GeneratorSet):
        self.n, self.set = n, S

    def __len__(self) -> int:
        return len(self.set.elements)

    def __iter__(self) -> Iterator[CentralizerGenerator]:
        return map(self._ladder, self.set.elements)

    def _ladder(self, element: GenElement) -> CentralizerGenerator:
        try:
            deriv = commuting_derivation(element.poly, self.n)
        except PreconditionError as exc:
            raise RegistryError(
                f"generator-set element {element.poly} is not annihilated by "
                f"the {self.n}-th power of the derivation; kernel registry entry "
                f"for n={self.n} is corrupt"
            ) from exc
        return CentralizerGenerator(element, deriv)


def centralizer_generators(n: int, kernel_gens: Sequence[Poly]) -> Ladders:
    """Module generators of the centralizer of the Weitzenboeck derivation.

    The ladders of the level-n generator set, as Ladders that build each
    one when it is read.  Every element s is checked to satisfy D^n(s) = 0
    before this returns, so a corrupt registry raises RegistryError
    before any ladder is read.  When every kernel generator g has
    D(g) = 0 that holds without building a ladder: D^(k+1) Dhat^k g = 0
    in the sl2 representation, so by Leibniz D^n kills every product of
    such images whose lowering powers sum to at most n-1.  Otherwise
    every ladder is built once, and dropped, to check its element.
    """
    ladders = Ladders(n, generator_set(n, kernel_gens, n))
    D = weitzenboeck_derivation(n)
    if any(D(g) for g in kernel_gens):
        for _ in ladders:
            pass
    return ladders
