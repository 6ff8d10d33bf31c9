"""Exact sparse multivariate polynomials over the rationals.

A polynomial stores a map from monomial keys to nonzero int or Fraction
coefficients; zero coefficients are never kept, so structural equality is
dict equality.  The canonical term order is graded lexicographic with
x1 > x2 > ... > xn, largest term first.

A monomial x1^e1 ... xn^en is stored as one integer, its key: fields of
FIELD_BITS (8) bits each, the total degree in the top field and then
e1, ..., en, so en sits in the lowest 8 bits.  Graded-lex order is then
integer order: `terms()` is a plain sort and the leading monomial is the
largest key.  The product of two monomials is the sum of their keys, and
d/dx_i subtracts the key of x_i.  An exponent must be below FIELD_LIMIT
(256); the constructor and `from_json` refuse a larger one with
ResourceLimitError.  Exponent tuples remain the public form: the
constructor takes them, and `terms()`, `coefficient`,
`leading_monomial`, `monomial_content`, `to_json` and `str` speak them;
only `iter_terms()` yields the stored keys, for callers that use them as
ids (`monomial_key` gives the key of a tuple).  `to_json()` gives the
JSON form as a tree; `to_json(text, level)` gives it encoded straight
from the keys, each exponent's text built once per document by a
`JSONText`, which is how reports are written.

Product-like operations (mul, pow, substitute, and applying a
derivation) guard against runaway degree growth through the module-level
DEGREE_CAP and raise ResourceLimitError instead of allocating huge
results.  The cap is what keeps every field of a computed key below 256,
so no field carries into its neighbour: a cap raised to FIELD_LIMIT or
more is refused by `degree_cap()`, which every guard reads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import lt
from typing import Mapping, Sequence

from .errors import DimensionError, NotDivisibleError, ResourceLimitError

# Total-degree guard for product-like operations; module-level so callers
# can raise it for deliberately large computations, up to FIELD_LIMIT - 1.
DEGREE_CAP = 64

# Width of one field of a monomial key; every exponent is below FIELD_LIMIT.
FIELD_BITS = 8
FIELD_LIMIT = 1 << FIELD_BITS

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


def degree_cap() -> int:
    """DEGREE_CAP, refused with ResourceLimitError once it is FIELD_LIMIT
    or more: a degree that high could carry one exponent field into the
    next."""
    if DEGREE_CAP >= FIELD_LIMIT:
        raise ResourceLimitError(
            f"DEGREE_CAP {DEGREE_CAP} exceeds the exponent field limit "
            f"{FIELD_LIMIT - 1}"
        )
    return DEGREE_CAP


def _pack(exponent, nvars: int) -> int:
    """The key of an exponent tuple of length nvars, validated."""
    exp = tuple(exponent)
    if len(exp) != nvars:
        raise DimensionError(f"exponent {exp} has length {len(exp)}, expected {nvars}")
    try:
        fields = int.from_bytes(bytes(exp), "big")
    except ValueError:  # bytes() takes only 0 <= e < FIELD_LIMIT
        if any(e < 0 for e in exp):
            raise ValueError(f"negative exponent in {exp}") from None
        raise ResourceLimitError(
            f"exponent in {exp} exceeds the field limit {FIELD_LIMIT - 1}"
        ) from None
    return (sum(exp) << FIELD_BITS * nvars) | fields


def monomial_key(exponent: Exponent) -> int:
    """The key under which a polynomial in len(exponent) variables stores
    the monomial x^exponent (what `Poly.iter_terms` yields)."""
    return _pack(exponent, len(exponent))


def key_exponents(key: int, nvars: int) -> bytes:
    """The exponents e1, ..., en of a monomial key, as a bytes object."""
    return (key & ((1 << FIELD_BITS * nvars) - 1)).to_bytes(nvars, "big")


def variable_field(nvars: int, index: int) -> tuple[int, int]:
    """(shift, key) for x_(index+1), index 0-based: the exponent of that
    variable in a key k is k >> shift & (FIELD_LIMIT - 1), and key is the
    key of the variable itself."""
    shift = FIELD_BITS * (nvars - 1 - index)
    return shift, (1 << FIELD_BITS * nvars) | (1 << shift)


def monomials_of_degree(nvars: int, degree: int) -> list[Exponent]:
    """All exponent tuples of the given total degree, largest grlex first.

    An empty list for a negative degree, whatever the number of variables.
    """
    if degree < 0:
        return []
    if nvars == 0:
        return [()] if degree == 0 else []
    if nvars == 1:
        return [(degree,)]
    out: list[Exponent] = []
    # Depth first over the leading exponents, the largest popped first.  A
    # zero remainder has one completion, padded at once, so the stack never
    # walks a long run of zero exponents one slot at a time.
    stack: list[tuple[tuple[int, ...], int]] = [((), degree)]
    while stack:
        prefix, remaining = stack.pop()
        slots = nvars - len(prefix)
        if slots == 2:
            out += [prefix + (e, remaining - e) for e in range(remaining, -1, -1)]
        elif not remaining:
            out.append(prefix + (0,) * slots)
        else:
            stack += [(prefix + (e,), remaining - e) for e in range(remaining + 1)]
    return out


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "_terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Scalar] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        clean: dict[int, Scalar] = {}
        for exp, coeff in (terms or {}).items():
            key = _pack(exp, nvars)
            c = _normalize_scalar(coeff)
            if c:
                clean[key] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _raw(cls, nvars: int, terms: dict[int, Scalar]) -> "Poly":
        """Trusted constructor: terms must already be canonical and keyed."""
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
        c = _normalize_scalar(value)
        return cls._raw(nvars, {0: c} if c else {})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        """The polynomial x_(index+1); index is 0-based."""
        if not 0 <= index < nvars:
            raise DimensionError(f"variable index {index} out of range for nvars={nvars}")
        return cls._raw(nvars, {variable_field(nvars, index)[1]: 1})

    @classmethod
    def variables(cls, nvars: int) -> list["Poly"]:
        return [cls.variable(nvars, i) for i in range(nvars)]

    # -- inspection --------------------------------------------------------

    def _exponents(self, key: int) -> Exponent:
        return tuple(key_exponents(key, self.nvars))

    def terms(self) -> list[tuple[Exponent, Scalar]]:
        """Terms in canonical order (descending graded-lex)."""
        terms = self._terms
        return [(self._exponents(k), terms[k]) for k in sorted(terms, reverse=True)]

    def iter_terms(self):
        """Raw (monomial key, coefficient) pairs in arbitrary order; no
        sorting.  Keys compare like graded-lex order; `monomial_key` gives
        the key of an exponent tuple."""
        return self._terms.items()

    def coefficient(self, exponent: Exponent) -> Scalar:
        try:
            key = _pack(exponent, self.nvars)
        except (DimensionError, ValueError, ResourceLimitError):
            return 0  # a monomial no polynomial here can hold
        return self._terms.get(key, 0)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(self._terms) >> FIELD_BITS * self.nvars

    def leading_monomial(self) -> Exponent:
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self._exponents(max(self._terms))

    def leading_coefficient(self) -> Scalar:
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self._terms[max(self._terms)]

    def is_homogeneous(self) -> bool:
        shift = FIELD_BITS * self.nvars
        return len({k >> shift for k in self._terms}) <= 1

    def monomial_content(self) -> Exponent:
        """Componentwise minimum exponent over all terms; the largest
        monomial dividing every term.  Zero polynomial gives all zeros."""
        if not self._terms:
            return (0,) * self.nvars
        exps = [key_exponents(k, self.nvars) for k in self._terms]
        return tuple(map(min, *exps) if len(exps) > 1 else exps[0])

    def divide_by_monomial(self, exponent: Exponent) -> "Poly":
        """Exact division by a monomial that divides every term."""
        m = _pack(exponent, self.nvars)
        divisor = key_exponents(m, self.nvars)
        out = {}
        for k, c in self._terms.items():
            if any(map(lt, key_exponents(k, self.nvars), divisor)):
                raise NotDivisibleError(
                    f"monomial with exponents {tuple(exponent)} does not divide {self}"
                )
            out[k - m] = c
        return Poly._raw(self.nvars, out)

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-primitive; 0 for zero."""
        if not self._terms:
            return Fraction(0)
        nums = [abs(c.numerator) for c in self._terms.values()]
        dens = [c.denominator for c in self._terms.values()]
        return Fraction(gcd(*nums), lcm(*dens)) if len(nums) > 1 else Fraction(nums[0], dens[0])

    def primitive_part(self) -> "Poly":
        """Integer content removed, leading graded-lex coefficient positive.

        With integer coefficients only, the content is their gcd and the
        division is exact integer division.
        """
        terms = self._terms
        if not terms:
            return self
        negative = terms[max(terms)] < 0
        if all(type(c) is int for c in terms.values()):
            g = -gcd(*terms.values()) if negative else gcd(*terms.values())
            if g == 1:
                return self
            return Poly._raw(self.nvars, {k: c // g for k, c in terms.items()})
        c = self.content()
        return self * (-1 / c if negative else 1 / c)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic --------------------------------------------------------

    def _check_same_ring(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise DimensionError(
                f"operands have {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        # a Poly operand is tested first: a failed isinstance check against
        # Fraction goes through its ABC metaclass, several times slower
        if type(other) is not Poly:
            if isinstance(other, (int, Fraction)):
                other = Poly.constant(self.nvars, other)
            elif not isinstance(other, Poly):
                return NotImplemented
        self._check_same_ring(other)
        out = dict(self._terms)
        for k, c in other._terms.items():
            prev = out.get(k)
            s = c if prev is None else prev + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Poly._raw(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw(self.nvars, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        if type(other) is not Poly:
            if isinstance(other, (int, Fraction)):
                other = Poly.constant(self.nvars, other)
            elif not isinstance(other, Poly):
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Poly":
        return (-self) + other

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if type(other) is not Poly and isinstance(other, (int, Fraction)):
            c = _normalize_scalar(other)
            if not c:
                return Poly.zero(self.nvars)
            return Poly._raw(
                self.nvars,
                {k: _normalize_scalar(x * c) for k, x in self._terms.items()},
            )
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_ring(other)
        a, b = self._terms, other._terms
        if not a or not b:
            return Poly.zero(self.nvars)
        shift = FIELD_BITS * self.nvars
        degree = (max(a) >> shift) + (max(b) >> shift)
        cap = degree_cap()
        if degree > cap:
            raise ResourceLimitError(f"product degree {degree} exceeds cap {cap}")
        # under the cap every exponent of the product is below FIELD_LIMIT,
        # so the key of a product of monomials is the sum of their keys
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            [(kb, cb)] = b.items()
            return Poly._raw(self.nvars, {ka + kb: ca * cb for ka, ca in a.items()})
        out: dict[int, Scalar] = {}
        get = out.get
        items = list(a.items())
        for kb, cb in b.items():
            for ka, ca in items:
                k = ka + kb
                prev = get(k)
                out[k] = ca * cb if prev is None else prev + ca * cb
        if not all(out.values()):
            out = {k: c for k, c in out.items() if c}
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
        if type(other) is not Poly:
            if isinstance(other, (int, Fraction)):
                other = Poly.constant(self.nvars, other)
            elif not isinstance(other, Poly):
                return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash((self.nvars, frozenset(self._terms.items())))
            )
        return self._hash

    # -- substitution and evaluation ----------------------------------------

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

        cap = degree_cap()
        result = Poly.zero(target_nvars)
        for exp, c in self.terms():
            bound = sum(a * d for a, d in zip(exp, image_degrees))
            if bound > cap:
                raise ResourceLimitError(
                    f"substitution term degree bound {bound} exceeds cap {cap}"
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
        n, mask = self.nvars, (1 << FIELD_BITS * self.nvars) - 1
        for k, c in self._terms.items():
            term = c.numerator
            for e, v, cache in zip((k & mask).to_bytes(n, "big"), values, powers):
                p = cache.get(e)
                if p is None:
                    p = cache[e] = v**e
                term *= p
            d = c.denominator
            sums[d] = sums.get(d, 0) + term
        return sum((Fraction(s, d) for d, s in sums.items()), Fraction(0))

    # -- serialization and display -----------------------------------------

    def to_json(self, text: JSONText | None = None, level: int = 0) -> dict | str:
        """The JSON form {"nvars": n, "terms": [{"coeff": "c", "exp":
        [e1, ..., en]}, ...]}, terms in canonical order.

        Without `text`, a tree of dicts, lists, str and int.  With `text`,
        the same value already encoded, as `json.dumps(tree, indent=2,
        sort_keys=True)` writes it nested `level` levels deep; the text of
        each exponent is taken from `text`, which builds it once.
        """
        if text is None:
            return {
                "nvars": self.nvars,
                "terms": [
                    {"coeff": str(c), "exp": list(e)} for e, c in self.terms()
                ],
            }
        n = self.nvars
        text.indent(level + 4)
        newline, comma = text.newline, text.comma
        opening = ("{" + newline[level + 1] + '"nvars": ' + str(n) + comma[level + 1]
                   + '"terms": ')
        terms = self._terms
        if not terms:
            return opening + "[]" + newline[level] + "}"
        exponents = text.exponents(n, level)
        head = "{" + newline[level + 3] + '"coeff": "'
        pieces = [f"{terms[k]}{exponents[k]}" for k in sorted(terms, reverse=True)]
        # the opening and the closing join the end terms, so that the one
        # join copies the terms once
        pieces[0] = opening + "[" + newline[level + 2] + head + pieces[0]
        pieces[-1] += newline[level + 1] + "]" + newline[level] + "}"
        return (comma[level + 2] + head).join(pieces)

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


# The text of every exponent a monomial key can hold.
_DIGITS = tuple(map(str, range(FIELD_LIMIT)))


class _ExponentTexts(dict):
    """Monomial key -> the text after a term's coefficient in the encoded
    JSON of a poly in `nvars` variables: the closing quote, the exponent
    list and the term's closing brace.  Built on first use of a key."""

    def __init__(self, nvars: int, before: str, between: str, after: str):
        super().__init__()
        self.nvars, self.before, self.between, self.after = nvars, before, between, after

    def __missing__(self, key: int) -> str:
        exps = key_exponents(key, self.nvars)
        text = self[key] = (self.before + self.between.join([_DIGITS[e] for e in exps])
                            + self.after)
        return text


class JSONText:
    """What `Poly.to_json(text, level)` reuses across the polys of one JSON
    document: the line breaks of each nesting level and the text of each
    exponent it has written.  Make one per document; it holds every
    monomial the document's polys use, so it is not kept past it.
    """

    def __init__(self) -> None:
        # newline[k] opens a line k levels deep; comma[k] ends an item there
        self.newline = ["\n"]
        self.comma = [",\n"]
        self._exponents: dict[tuple[int, int], _ExponentTexts] = {}

    def indent(self, level: int) -> None:
        """Make newline[level] and comma[level] available."""
        newline, comma = self.newline, self.comma
        while len(newline) <= level:
            newline.append(newline[-1] + "  ")
            comma.append(comma[-1] + "  ")

    def exponents(self, nvars: int, level: int) -> _ExponentTexts:
        """The exponent texts of polys in nvars variables written `level`
        levels deep; needs indent(level + 4)."""
        texts = self._exponents.get((nvars, level))
        if texts is None:
            newline, comma = self.newline, self.comma
            before = '",' + newline[level + 3] + '"exp": ['
            after = "]" + newline[level + 2] + "}"
            if nvars:
                before += newline[level + 4]
                after = newline[level + 3] + after
            texts = self._exponents[(nvars, level)] = _ExponentTexts(
                nvars, before, comma[level + 4], after
            )
        return texts


def poly_divexact(numerator: Poly, divisor: Poly) -> Poly:
    """Exact division; raises NotDivisibleError when divisor is no factor.

    The quotient and the remainder are dicts updated in place: each step
    takes the leading term of the remainder (its largest key), divides it
    by the divisor's leading term and subtracts that multiple of the
    divisor, so a step costs one pass over the remainder and one over
    the divisor.  Every monomial met has at most the numerator's degree,
    which the degree cap bounds.
    """
    if not divisor:
        raise ZeroDivisionError("division by the zero polynomial")
    numerator._check_same_ring(divisor)
    if not numerator:
        return numerator
    n = numerator.nvars
    degree = numerator.total_degree()
    cap = degree_cap()
    if degree > cap:
        raise ResourceLimitError(f"dividend degree {degree} exceeds cap {cap}")
    lead = max(divisor._terms)
    lead_coeff = divisor._terms[lead]
    lead_exponents = key_exponents(lead, n)
    # the other divisor terms, keyed relative to the leading one
    rest = [(k - lead, c) for k, c in divisor._terms.items() if k != lead]
    remainder = dict(numerator._terms)
    quotient: dict[int, Scalar] = {}
    while remainder:
        top = max(remainder)
        if any(map(lt, key_exponents(top, n), lead_exponents)):
            raise NotDivisibleError(f"{divisor} does not divide {numerator}")
        factor = _normalize_scalar(Fraction(remainder.pop(top)) / lead_coeff)
        quotient[top - lead] = factor
        for offset, c in rest:
            k = top + offset
            prev = remainder.get(k)
            x = -factor * c if prev is None else prev - factor * c
            if x:
                remainder[k] = x
            else:
                del remainder[k]
    return Poly._raw(n, quotient)
