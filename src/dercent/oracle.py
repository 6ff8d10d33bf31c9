"""Brute-force verification engines for the constructive results.

Everything here works by exact linear algebra on truncated monomial
bases: kernels of powers of a linear derivation, module-span
membership with witness certificates, centralizer enumeration as a null
space, and rank over the fraction field by random evaluation with a
symbolic fraction-free fallback.  These routines are deliberately
elementary so they can serve as ground truth for the generator
constructions.

Each check is a linear map on finitely many keys (the monomials of one
degree, or the unit derivations x^m d_i of one coefficient degree),
assembled one way: `_sparse_rows` turns the sparse images of the keys
into the rows `linalg` eliminates.  It is read exactly, as the null
space over Q (`_null_combinations`), or by counting, as the corank mod
MODULUS (`_corank`), an upper bound on that null space's dimension.  A
rank mod MODULUS of elements known to lie in the space is a lower bound;
when the two meet, the space is certified without solving over Q.

Each reading is one `linalg` call on the whole system, with no split
into parts.  The elimination updates only the rows that hold the pivot
column, so parts of a system that share no key, such as the (degree,
weight) blocks of the basic Weitzenboeck derivation (D and [., D] raise
the weight by 2), cost what they would cost apart.

The images under D^i come from one chain per derivation, `PowerChain`:
each level of a degree block is computed from the one before, and the
first and the deepest level reached are kept, so the counting bounds,
the exact kernel bases and (its first level) the [., D] systems of one
D all read the same images.  (`verify` takes its counts for the basic
Weitzenboeck D from the sl2 closed form instead; the counting bounds
here are the brute-force path for any linear D.)  On a degree block of N
monomials Ker D^i stops growing once i reaches N (Fitting's lemma), so
the chain applies at most N powers, and it stops at a level that is
zero.  Likewise `SpanProducts` builds the products c*s of the span
checks once per element for all levels.  Its multipliers c, which the
candidate search reads too, come from `weitzenboeck.budget_products`,
the enumeration of the generating sets, sorted by exponent vector.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import repeat
from math import comb
from typing import Sequence

from . import linalg
from .derivation import Derivation
from .errors import PreconditionError, ResourceLimitError
from .poly import Exponent, Poly, monomial_key, monomials_of_degree
from .weitzenboeck import GeneratorSet, budget_products, weitzenboeck_derivation

MONOMIAL_COUNT_CAP = 20_000

# The prime the counting certificates reduce by.  Below 2**30, so a
# residue is one CPython digit; any prime gives sound bounds.
MODULUS = 2**30 - 35

# Samples rank_over_fractions draws after the first two before the
# symbolic path decides.
RANK_SAMPLE_RETRIES = 4


def _check_linear(D: Derivation) -> None:
    # Homogeneous degree-1 coefficients keep every map here degree
    # preserving, which is what the per-degree block assembly relies on.
    for c in D.coeffs:
        if c and not (c.is_homogeneous() and c.total_degree() == 1):
            raise PreconditionError(
                "derivation must be linear (homogeneous degree-1 coefficients)"
            )


def _guard(nvars: int, degree: int, coefficients: int | None = None) -> None:
    """Refuse a negative degree, and a system whose keys, the monomials of
    degree <= degree or for derivations that many coefficients each, exceed
    MONOMIAL_COUNT_CAP."""
    if degree < 0:
        raise PreconditionError("degree must be >= 0")
    count = (coefficients or 1) * comb(nvars + degree, degree)
    if count > MONOMIAL_COUNT_CAP:
        keys = f"of degree <= {degree} in {nvars} variables"
        what = (f"monomials {keys}" if coefficients is None
                else f"unknowns ({coefficients} coefficients {keys})")
        raise ResourceLimitError(f"{count} {what} exceed the cap {MONOMIAL_COUNT_CAP}")


@dataclass(frozen=True)
class GradedBasis:
    """An exact basis of a graded subspace of polynomials up to a degree;
    `to_json()` leaves the vectors as Polys, for the writer to encode."""

    degree_cap: int
    vectors: tuple[Poly, ...]

    def dimension(self) -> int:
        return len(self.vectors)

    def to_json(self) -> dict:
        return {
            "degree_cap": self.degree_cap,
            "dimension": len(self.vectors),
            "vectors": self.vectors,
        }


def _sparse_rows(columns) -> list[linalg.SparseRow]:
    """Rows of the matrix whose j-th column has the (row key, entry) terms
    columns[j]: one row per key that occurs, none for a zero row."""
    rows: dict = {}
    for j, terms in enumerate(columns):
        for key, c in terms:
            rows.setdefault(key, {})[j] = c
    return list(rows.values())


def _null_combinations(keys: Sequence, columns) -> list[dict]:
    """Null space of a linear map on the span of finitely many basis keys.

    columns[j] holds the (key, coefficient) terms of the image of keys[j].
    Each null vector comes back as {key: coefficient}, RREF-normalized
    against the order of keys.
    """
    return [
        {keys[j]: x for j, x in v.items()}
        for v in linalg.nullspace(_sparse_rows(columns), len(keys))
    ]


def _corank(keys: Sequence, columns) -> int | None:
    """The counting twin of _null_combinations.

    The number of keys minus the rank mod MODULUS of the same system: an
    upper bound on the dimension of its null space over Q, since a rank
    mod p is at most the rank over Q.  None when MODULUS divides a
    denominator of the system.
    """
    try:
        return len(keys) - linalg.rank(_sparse_rows(columns), len(keys), MODULUS)
    except ZeroDivisionError:
        return None


class PowerChain:
    """The images D^i(x^m) of the unit monomials, one degree block at a time.

    Each level of a block is computed from the one before, and every
    reading of the same D shares them: the counting bounds and the exact
    kernels of its powers, and (the first level) the [., D] systems.  A
    block keeps its first level and the deepest level reached, so a walk
    up the levels computes each level once and two levels are held; a
    level below the deepest is computed again from the first.  A block of
    N monomials stops at level N, because on it Ker D^i stops growing
    once i reaches N (Fitting's lemma), and it stops at a zero level,
    past which every level is zero.  So the level where it stops has the
    kernel of every higher power.
    """

    def __init__(self, D: Derivation):
        _check_linear(D)
        self.D = D
        # degree -> (its monomials, the images D(x^m))
        self._blocks: dict[int, tuple[list[Exponent], list[Poly]]] = {}
        # degree -> (the deepest level reached, its images)
        self._deepest: dict[int, tuple[int, list[Poly]]] = {}

    def _block(self, degree: int) -> tuple[list[Exponent], list[Poly]]:
        block = self._blocks.get(degree)
        if block is None:
            n = self.D.nvars
            monos = monomials_of_degree(n, degree)
            block = self._blocks[degree] = (monos, [self.D(Poly(n, {m: 1})) for m in monos])
            self._deepest[degree] = (1, block[1])
        return block

    def monomials(self, degree: int) -> list[Exponent]:
        """The monomials of the degree, in the order of monomials_of_degree."""
        return self._block(degree)[0]

    def level(self, degree: int, power: int) -> list[Poly]:
        """[D^power(x^m) for the monomials x^m of the degree], or the level
        where the block's chain stops if power is past it."""
        monos, first = self._block(degree)
        power = min(power, len(monos))
        deepest = self._deepest[degree]
        i, images = deepest if deepest[0] <= power else (1, first)
        while i < power and any(images):
            images = [self.D(p) for p in images]
            i += 1
        if i > deepest[0]:
            self._deepest[degree] = (i, images)
        return images


def _chain_for(D: Derivation, chain: PowerChain | None) -> PowerChain:
    if chain is None:
        return PowerChain(D)
    if chain.D != D:
        raise PreconditionError("the power chain belongs to another derivation")
    return chain


def _kernel_block(chain: PowerChain, power: int, degree: int) -> list[Poly]:
    """Kernel of D^power on the homogeneous component of a fixed degree."""
    images = chain.level(degree, power)
    null = _null_combinations(chain.monomials(degree), map(Poly.iter_terms, images))
    return [Poly(chain.D.nvars, v) for v in null]


def _check_kernel_args(D: Derivation, power: int, degree: int) -> None:
    if power < 1:
        raise PreconditionError("power must be >= 1")
    _check_linear(D)
    _guard(D.nvars, degree)


def kernel_power_basis(
    D: Derivation, power: int, degree: int, chain: PowerChain | None = None
) -> GradedBasis:
    """Exact basis of {f : deg f <= degree, D^power(f) = 0}.

    Works one homogeneous degree at a time (a linear derivation maps a
    homogeneous polynomial to a homogeneous one of the same degree), so
    the output vectors are homogeneous, RREF-normalized against the
    descending graded-lex monomial order, and sorted by degree.  The
    images come from the given chain of D, or from a new one.
    """
    _check_kernel_args(D, power, degree)
    chain = _chain_for(D, chain)
    vectors: list[Poly] = []
    for t in range(degree + 1):
        vectors.extend(_kernel_block(chain, power, t))
    return GradedBasis(degree, tuple(vectors))


def kernel_dimension_bounds(
    D: Derivation, power: int, degree: int, chain: PowerChain | None = None
) -> list[list[int]] | None:
    """bounds[i - 1][t] >= dim (Ker D^i)_t for i = 1..power, t = 0..degree.

    Each is the corank of the system kernel_power_basis solves for D^i in
    that degree, read level after level off the chain of D (the given one
    or a new one).  Past the level where a block's chain stops every
    level has its last one's kernel, so it repeats that bound, and every
    level past the longest chain is the same list.  None when MODULUS
    divides a denominator of D.
    """
    _check_kernel_args(D, power, degree)
    chain = _chain_for(D, chain)
    per_degree: list[list[int]] = []  # the bounds of the levels each chain has
    for t in range(degree + 1):
        monos = chain.monomials(t)
        coranks: list[int | None] = []
        for i in range(1, min(power, len(monos)) + 1):
            images = chain.level(t, i)
            coranks.append(_corank(monos, map(Poly.iter_terms, images)))
            if not any(images):
                break
        if None in coranks:
            return None
        per_degree.append(coranks)
    top = max(map(len, per_degree))
    bounds = [[c[min(i, len(c)) - 1] for c in per_degree] for i in range(1, top + 1)]
    bounds.extend(repeat(bounds[-1], power - top))
    return bounds


def _multiplier_table(
    nvars: int, kernel_gens: Sequence[Poly], degree: int
) -> list[tuple[tuple[int, ...], Poly, int]]:
    """(exponents e, c = the product of the g**e_g, deg c) for every product
    c of the (nonconstant) kernel generators with deg c <= degree, by
    ascending e; each c is a shorter one times one generator."""
    table = [
        (tuple(map(word.count, range(len(kernel_gens)))), c, c.total_degree())
        for word, c in budget_products(
            [g.total_degree() for g in kernel_gens], degree, Poly.constant(nvars, 1),
            lambda p, j: p * kernel_gens[j],
        )
    ]
    table.sort(key=lambda row: row[0])
    return table


class SpanProducts:
    """The products c*s of the span checks against one list of kernel
    generators up to one degree cap, built once and shared.

    c runs over the products of the kernel generators, by budget_products
    at cost deg g per generator g, sorted by exponent vector.  Their table
    is built on first use, and the list of the products c*s of an element
    s the first time a generating set has s; a set shares them with every
    other set that has s (each level's set is in the next one's).  What a
    count learns about a derivation D is kept too: whether it kills every
    generator, and how far the chain D(s), D^2(s), ... of each element
    has been followed.
    """

    def __init__(self, kernel_gens: Sequence[Poly], degree: int):
        self.kernel_gens = tuple(kernel_gens)
        self.degree = degree
        self._multipliers: list[tuple[tuple[int, ...], Poly, int]] | None = None
        self._products: dict[Poly, list[tuple[tuple[int, ...], Poly]]] = {}
        self._annihilated: dict[Derivation, bool] = {}
        self._images: dict[tuple[Derivation, Poly], tuple[int, Poly]] = {}

    def of(self, s: Poly) -> list[tuple[tuple[int, ...], Poly]]:
        """(exponents of c, c*s) for every product with deg(c*s) <= degree."""
        out = self._products.get(s)
        if out is None:
            if self._multipliers is None:
                self._multipliers = _multiplier_table(s.nvars, self.kernel_gens, self.degree)
            # over Q, deg(c*s) = deg c + deg s: skip products above the cap
            budget = self.degree - s.total_degree()
            out = self._products[s] = [
                (evec, p) for evec, c, c_degree in self._multipliers
                if c_degree <= budget and (p := c * s) and p.total_degree() <= self.degree
            ]
        return out

    def annihilated(self, D: Derivation) -> bool:
        """Is every kernel generator homogeneous with D(g) = 0?"""
        ok = self._annihilated.get(D)
        if ok is None:
            ok = self._annihilated[D] = all(
                g.is_homogeneous() and not D(g) for g in self.kernel_gens
            )
        return ok

    def vanishes(self, D: Derivation, power: int, s: Poly) -> bool:
        """D^power(s) = 0, for a nonzero homogeneous s.

        The chain of s stops at its first zero image, so the number of
        powers applied by then is the least power that kills s, and at
        the size of the degree block of s, past which Ker D^i no longer
        grows (Fitting's lemma).
        """
        applied, image = self._images.get((D, s), (0, s))
        t = s.total_degree()
        top = min(power, comb(s.nvars + t - 1, t))
        while image and applied < top:
            image = D(image)
            applied += 1
        self._images[(D, s)] = (applied, image)
        return not image and applied <= power


@dataclass(frozen=True)
class SpanCheckResult:
    """Outcome of a module-span containment test with its certificate."""

    ok: bool
    certificate: dict


def _span_products(
    S: GeneratorSet | Sequence[Poly],
    kernel_gens: Sequence[Poly],
    degree: int,
    products: SpanProducts | None = None,
) -> tuple[list[Poly], list[tuple[int, tuple[int, ...], Poly]]]:
    """(the nonzero elements s, the products (s index, exponents of c, c*s))
    for every product c of kernel generators with deg(c*s) <= degree.

    The products come from the given table, which must be for these
    kernel generators and this degree, or from a new one.
    """
    elements = S.polys() if isinstance(S, GeneratorSet) else list(S)
    elements = [s for s in elements if s]
    if not kernel_gens and not elements:
        raise PreconditionError("empty generating data")
    nvars = (elements[0] if elements else kernel_gens[0]).nvars
    _guard(nvars, degree)
    if any(g.total_degree() < 1 for g in kernel_gens):
        raise PreconditionError("kernel generators must be nonconstant")
    if products is None:
        products = SpanProducts(kernel_gens, degree)
    elif products.degree != degree or products.kernel_gens != tuple(kernel_gens):
        raise PreconditionError("the products belong to other kernel generators or degree")
    spanning = [
        (s_idx, evec, p)
        for s_idx, s in enumerate(elements)
        for evec, p in products.of(s)
    ]
    return elements, spanning


def certified_span_dimension(
    S: GeneratorSet | Sequence[Poly],
    kernel_gens: Sequence[Poly],
    D: Derivation,
    power: int,
    bounds: Sequence[int],
    products: SpanProducts | None = None,
) -> int | None:
    """dim Ker D^power up to degree len(bounds) - 1, if the products c*s
    span it.

    Decided by counting, with the products and the checks of
    module_span_check; bounds[t] is an upper bound on dim (Ker D^power)_t,
    as kernel_dimension_bounds or weitzenboeck.kernel_dimensions give.
    When every kernel generator g is homogeneous with D(g) = 0 and every
    element s of degree at most the cap is homogeneous with
    D^power(s) = 0, each product c*s lies in Ker D^power (the elements
    above the cap form no product), so in each degree t
    rank_p(products) <= dim span <= dim (Ker D^power)_t <= bounds[t].  If the two ends meet in every degree the span is the
    whole kernel and its dimension is returned.  None means counting did
    not decide: module_span_check has to.
    """
    degree = len(bounds) - 1
    if products is None:
        products = SpanProducts(kernel_gens, degree)
    elements, spanning = _span_products(S, kernel_gens, degree, products)
    if not products.annihilated(D):
        return None
    factors = [s for s in elements if s.total_degree() <= degree]
    if not all(s.is_homogeneous() for s in factors):
        return None
    if not all(products.vanishes(D, power, s) for s in factors):
        return None
    by_degree: dict[int, list[Poly]] = {}
    for _, _, p in spanning:
        by_degree.setdefault(p.total_degree(), []).append(p)
    for t, bound in enumerate(bounds):
        in_degree = by_degree.get(t, [])
        # rank_p(products) is their number minus the corank of their relations
        if len(in_degree) < bound or (
            _corank(in_degree, map(Poly.iter_terms, in_degree)) != len(in_degree) - bound
        ):
            return None
    return sum(bounds)


def module_span_check(
    S: GeneratorSet | Sequence[Poly],
    kernel_gens: Sequence[Poly],
    target: GradedBasis,
    degree: int,
    products: SpanProducts | None = None,
) -> SpanCheckResult:
    """Is every target vector in the span of {c*s} up to the degree cap?

    c runs over products of the kernel generators and s over the given
    set; only products with deg(c*s) <= degree participate.  On success
    the certificate lists one witness combination per target vector; on
    failure it reports the first vector outside the span.  The products
    come from the given table or a new one.
    """
    _, spanning = _span_products(S, kernel_gens, degree, products)
    # One solve: the products are the unknowns' columns, keyed by monomial,
    # and the target vectors ride along.
    solutions = linalg.solve_many([dict(p.iter_terms()) for _, _, p in spanning],
                                  [dict(v.iter_terms()) for v in target.vectors])
    witnesses = []
    for t_idx, (v, sol) in enumerate(zip(target.vectors, solutions)):
        if sol is None:
            return SpanCheckResult(
                False, {"failed_target_index": t_idx, "failed_target": v}
            )
        combination = [
            {
                "element_index": spanning[k][0],
                "multiplier_exponents": list(spanning[k][1]),
                "coefficient": str(coeff),
            }
            for k, coeff in sorted(sol.items())
        ]
        witnesses.append({"target_index": t_idx, "combination": combination})
    return SpanCheckResult(True, {"witnesses": witnesses})


def _commutator_system(D: Derivation, degree: int, chain: PowerChain | None):
    """The map T -> [T, D] on derivations of coefficient degree <= degree.

    Returns (image, blocks): blocks[t] lists the unknowns of coefficient
    degree t as (coefficient index i, monomial m) keys, and image(key)
    yields the terms of [x^m d_i, D] keyed the same way.  Its k-th
    coefficient is a_ki x^m - [k = i] D(x^m), where a_ki = d_i(D_k) is a
    constant because D is linear.  D(x^m) is the first level of the chain
    of D (the given one or a new one).
    """
    _check_linear(D)
    n = D.nvars
    # the elimination touches only the rows of each pivot, but the keys
    # of every degree are listed and their images built
    _guard(n, degree, n)
    chain = _chain_for(D, chain)
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    a = [[(k, c) for k in range(n) if (c := D.coeffs[k].coefficient(units[i]))]
         for i in range(n)]
    applied: dict[Exponent, Poly] = {}  # D(x^m), shared by the n keys of m
    for t in range(degree + 1):
        applied.update(zip(chain.monomials(t), chain.level(t, 1)))

    def image(key: tuple[int, Exponent]):
        i, m = key
        # rows are keyed (k, monomial key), as the terms of D(x^m) are
        mk = monomial_key(m)
        terms = {(k, mk): c for k, c in a[i]}
        for exp, c in applied[m].iter_terms():
            x = terms.get((i, exp), 0) - c
            if x:
                terms[(i, exp)] = x
            else:
                del terms[(i, exp)]
        return terms.items()

    blocks = [[(i, m) for i in range(n) for m in chain.monomials(t)]
              for t in range(degree + 1)]
    return image, blocks


def centralizer_basis(
    D: Derivation, degree: int, chain: PowerChain | None = None
) -> list[Derivation]:
    """Basis of {T : coefficient degree <= degree, [T, D] = 0}.

    D must be linear.  The commutator with D is a degree-preserving
    linear map on the space of derivations with homogeneous coefficients,
    so the null space is assembled one coefficient degree at a time.  The
    images D(x^m) come from the given chain of D or a new one.
    """
    image, blocks = _commutator_system(D, degree, chain)
    n = D.nvars
    out: list[Derivation] = []
    for keys in blocks:
        for v in _null_combinations(keys, map(image, keys)):
            coeffs = [{} for _ in range(n)]
            for (i, m), c in v.items():
                coeffs[i][m] = c
            out.append(Derivation(tuple(Poly(n, terms) for terms in coeffs)))
    return out


def centralizer_dimension_bound(
    D: Derivation, degree: int, chain: PowerChain | None = None
) -> int | None:
    """An upper bound on the dimension centralizer_basis enumerates.

    The corank of the [., D] system, summed over the coefficient degrees;
    None when MODULUS divides a denominator of D.
    """
    image, blocks = _commutator_system(D, degree, chain)
    coranks = [_corank(keys, map(image, keys)) for keys in blocks]
    return None if None in coranks else sum(coranks)


def derivation_span_equal(
    first: Sequence[Derivation], second: Sequence[Derivation]
) -> bool:
    """Do two finite sets of derivations span the same rational subspace?

    They do when each has the rank of their union.
    """
    both = [*first, *second]
    if any(T.nvars != both[0].nvars for T in both):
        raise PreconditionError("derivations live in different rings")

    def rank(Ts: Sequence[Derivation]) -> int:
        columns = (
            [((i, exp), c) for i, p in enumerate(T.coeffs) for exp, c in p.iter_terms()]
            for T in Ts
        )
        return linalg.rank(_sparse_rows(columns), len(Ts))

    return rank(first) == rank(both) == rank(second)


@dataclass(frozen=True)
class RankResult:
    """Rank over the fraction field with the evidence used to accept it."""

    rank: int
    method: str  # "sampled" or "symbolic"
    points: tuple[tuple[int, ...], ...]
    sampled_ranks: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "method": self.method,
            "points": [list(p) for p in self.points],
            "sampled_ranks": list(self.sampled_ranks),
        }


def symbolic_rank(matrix: Sequence[Sequence[Poly]]) -> int:
    """Rank of a polynomial matrix over the fraction field.

    The pivot count of the fraction-free elimination in linalg.
    """
    m = [list(row) for row in matrix]
    if not m:
        return 0
    return len(linalg.fraction_free_eliminate(m, len(m[0])))


def rank_over_fractions(
    derivations: Sequence[Derivation],
    seed: int = 0,
) -> RankResult:
    """Rank of the n x |Ts| coefficient matrix over the fraction field.

    Evaluates at uniform random integer points in [-10^6, 10^6]; sampling
    stops once two consecutive samples agree, and the answer is the
    largest sampled rank (specialization can only drop rank, never raise
    it, so every sample is a lower bound).  If the retry budget runs out
    the symbolic fraction-free path decides.  A sample evaluates the
    first n columns and the rest only if their rank is below n: no
    sample of n rows has a rank above n.
    """
    if not derivations:
        raise PreconditionError("need at least one derivation")
    n = derivations[0].nvars
    for T in derivations:
        if T.nvars != n:
            raise PreconditionError("derivations live in different rings")
    coeff_matrix = [[T.coeffs[i] for T in derivations] for i in range(n)]
    m = len(derivations)
    rng = random.Random(seed)
    points: list[tuple[int, ...]] = []
    ranks: list[int] = []

    def sample() -> int:
        point = tuple(rng.randint(-(10**6), 10**6) for _ in range(n))
        points.append(point)
        numeric: list[linalg.SparseRow] = [{} for _ in range(n)]

        def rank_with(columns: range) -> int:
            for values, row in zip(numeric, coeff_matrix):
                values.update((j, e.evaluate(point)) for j in columns if (e := row[j]))
            return linalg.rank(numeric, m)

        rank = rank_with(range(min(n, m)))
        return rank_with(range(n, m)) if rank < n < m else rank

    ranks.append(sample())
    ranks.append(sample())
    while ranks[-1] != ranks[-2] and len(ranks) < 2 + RANK_SAMPLE_RETRIES:
        ranks.append(sample())
    if ranks[-1] == ranks[-2]:
        return RankResult(max(ranks), "sampled", tuple(points), tuple(ranks))
    exact = symbolic_rank(coeff_matrix)
    return RankResult(exact, "symbolic", tuple(points), tuple(ranks))


def kernel_generator_candidates(n: int, degree: int) -> list[Poly]:
    """Low-degree kernel elements outside the subalgebra of earlier picks.

    Walks the homogeneous kernel components of the basic Weitzenboeck
    derivation by ascending degree and keeps every basis vector not
    already in the algebra span of the candidates chosen so far.  Per
    degree t this is one elimination: the degree-t products of the
    earlier candidates come first and the kernel basis after them, as
    columns, and the picks are the basis columns that become pivots.
    The output provably spans Ker D up to the requested degree but is
    only a candidate list as an algebra generating set beyond it.  The
    monomial guard of every oracle system bounds the search.
    """
    chain = PowerChain(weitzenboeck_derivation(n))
    _guard(n, degree)
    candidates: list[Poly] = []
    for t in range(1, degree + 1):
        columns = [p for _, p, p_degree in _multiplier_table(n, candidates, t)
                   if p_degree == t]
        products = len(columns)
        columns += _kernel_block(chain, 1, t)
        rows = _sparse_rows(map(Poly.iter_terms, columns))
        _, pivots = linalg.rref(rows, len(columns))
        candidates += [columns[j] for j in pivots if j >= products]
    return candidates
