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

The images under D^i come from one chain, each level from the one
before.  On a degree block of N monomials Ker D^i stops growing once i
reaches N (Fitting's lemma), so the chain applies at most N powers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Iterator, Sequence

from . import linalg
from .derivation import Derivation
from .errors import PreconditionError, ResourceLimitError
from .poly import Exponent, Poly, monomials_of_degree
from .weitzenboeck import GeneratorSet, weitzenboeck_derivation

MONOMIAL_COUNT_CAP = 20_000

# The prime the counting certificates reduce by.  Below 2**30, so a
# residue is one CPython digit; any prime gives sound bounds.
MODULUS = 2**30 - 35

# Degree caps for the kernel-candidate search, keyed by variable count.
CANDIDATE_DEGREE_CAP = {2: 6, 3: 6, 4: 6, 5: 4, 6: 3}

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
    """Refuse a system whose keys, the monomials of degree <= degree or for
    derivations that many coefficients each, exceed MONOMIAL_COUNT_CAP."""
    count = (coefficients or 1) * comb(nvars + degree, degree)
    if count > MONOMIAL_COUNT_CAP:
        keys = f"of degree <= {degree} in {nvars} variables"
        what = (f"monomials {keys}" if coefficients is None
                else f"unknowns ({coefficients} coefficients {keys})")
        raise ResourceLimitError(f"{count} {what} exceed the cap {MONOMIAL_COUNT_CAP}")


@dataclass(frozen=True)
class GradedBasis:
    """An exact basis of a graded subspace of polynomials up to a degree."""

    degree_cap: int
    vectors: tuple[Poly, ...]

    def dimension(self) -> int:
        return len(self.vectors)

    def to_json(self) -> dict:
        return {
            "degree_cap": self.degree_cap,
            "dimension": len(self.vectors),
            "vectors": [v.to_json() for v in self.vectors],
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


def _power_images(D: Derivation, power: int, polys: list[Poly],
                  dimension: int) -> Iterator[list[Poly]]:
    """[D^i(p) for p in polys] for i = 1..min(power, dimension), each level
    computed from the one before.

    dimension is that of a D-stable space holding the polys.  On it Ker D^i
    stops growing once i reaches the dimension (Fitting's lemma), so the
    last level has the kernel of D^power.
    """
    for _ in range(min(power, dimension)):
        polys = [D(p) for p in polys]
        yield polys


def _power_image(D: Derivation, power: int, polys: list[Poly],
                 dimension: int) -> list[Poly]:
    """The last level of _power_images: it vanishes where D^power does."""
    for polys in _power_images(D, power, polys, dimension):
        pass
    return polys


def _kernel_block(D: Derivation, power: int, degree: int) -> list[Poly]:
    """Kernel of D^power on the homogeneous component of a fixed degree."""
    n = D.nvars
    monos = monomials_of_degree(n, degree)
    images = _power_image(D, power, [Poly(n, {m: 1}) for m in monos], len(monos))
    return [Poly(n, v) for v in _null_combinations(monos, map(Poly.iter_terms, images))]


def _check_kernel_args(D: Derivation, power: int, degree: int) -> None:
    if power < 1:
        raise PreconditionError("power must be >= 1")
    if degree < 0:
        raise PreconditionError("degree must be >= 0")
    _check_linear(D)
    _guard(D.nvars, degree)


def kernel_power_basis(D: Derivation, power: int, degree: int) -> GradedBasis:
    """Exact basis of {f : deg f <= degree, D^power(f) = 0}.

    Works one homogeneous degree at a time (a linear derivation maps a
    homogeneous polynomial to a homogeneous one of the same degree), so
    the output vectors are homogeneous, RREF-normalized against the
    descending graded-lex monomial order, and sorted by degree.
    """
    _check_kernel_args(D, power, degree)
    vectors: list[Poly] = []
    for t in range(degree + 1):
        vectors.extend(_kernel_block(D, power, t))
    return GradedBasis(degree, tuple(vectors))


def kernel_dimension_bounds(
    D: Derivation, power: int, degree: int
) -> list[list[int]] | None:
    """bounds[i - 1][t] >= dim (Ker D^i)_t for i = 1..power, t = 0..degree.

    Each is the corank of the system kernel_power_basis solves for D^i in
    that degree, read level after level off one chain of images.  Past
    the number of degree-t monomials every level has the last one's
    kernel (Fitting's lemma), so it repeats that bound.  None when
    MODULUS divides a denominator of D.
    """
    _check_kernel_args(D, power, degree)
    per_degree: list[list[int]] = []  # the bounds of levels 1..min(power, N)
    for t in range(degree + 1):
        monos = monomials_of_degree(D.nvars, t)
        units = [Poly(D.nvars, {m: 1}) for m in monos]
        coranks = [
            _corank(monos, map(Poly.iter_terms, images))
            for images in _power_images(D, power, units, len(monos))
        ]
        if None in coranks:
            return None
        per_degree.append(coranks)
    return [[c[min(i, len(c)) - 1] for c in per_degree] for i in range(1, power + 1)]


def _multiplier_exponents(
    gen_degrees: Sequence[int], budget: int
) -> list[tuple[int, ...]]:
    """Exponent vectors e with sum e_g * deg_g <= budget."""
    out: list[tuple[int, ...]] = []

    def rec(i: int, prefix: tuple[int, ...], remaining: int) -> None:
        if i == len(gen_degrees):
            out.append(prefix)
            return
        step = gen_degrees[i]
        e = 0
        while e * step <= remaining:
            rec(i + 1, prefix + (e,), remaining - e * step)
            e += 1

    rec(0, (), budget)
    return out


@dataclass(frozen=True)
class SpanCheckResult:
    """Outcome of a module-span containment test with its certificate."""

    ok: bool
    certificate: dict


def _span_products(
    S: GeneratorSet | Sequence[Poly], kernel_gens: Sequence[Poly], degree: int
) -> tuple[int, list[Poly], list[tuple[int, tuple[int, ...], Poly]]]:
    """(nvars, the nonzero elements s, the products (s index, exponents of
    c, c*s)) for every product c of kernel generators with deg(c*s) <= degree.
    """
    elements = S.polys() if isinstance(S, GeneratorSet) else list(S)
    elements = [s for s in elements if s]
    if not kernel_gens and not elements:
        raise PreconditionError("empty generating data")
    nvars = (elements[0] if elements else kernel_gens[0]).nvars
    _guard(nvars, degree)
    gen_degrees = [g.total_degree() for g in kernel_gens]
    if any(d < 1 for d in gen_degrees):
        raise PreconditionError("kernel generators must be nonconstant")

    multipliers: list[tuple[tuple[int, ...], Poly, int]] = []
    for evec in _multiplier_exponents(gen_degrees, degree):
        p = Poly.constant(nvars, 1)
        for g, e in zip(kernel_gens, evec):
            if e:
                p = p * g**e
        multipliers.append((evec, p, p.total_degree()))

    spanning: list[tuple[int, tuple[int, ...], Poly]] = []
    for s_idx, s in enumerate(elements):
        # over Q, deg(c*s) = deg c + deg s: skip products above the cap
        budget = degree - s.total_degree()
        for evec, c, c_degree in multipliers:
            if c_degree > budget:
                continue
            p = c * s
            if p and p.total_degree() <= degree:
                spanning.append((s_idx, evec, p))
    return nvars, elements, spanning


def certified_span_dimension(
    S: GeneratorSet | Sequence[Poly],
    kernel_gens: Sequence[Poly],
    D: Derivation,
    power: int,
    bounds: Sequence[int],
) -> int | None:
    """dim Ker D^power up to degree len(bounds) - 1, if the products c*s
    span it.

    Decided by counting, with the products and the checks of
    module_span_check; bounds[t] is an upper bound on dim (Ker D^power)_t,
    as kernel_dimension_bounds gives.  When every kernel generator g is
    homogeneous with D(g) = 0 and every element s is homogeneous with
    D^power(s) = 0, each product c*s lies in Ker D^power, so in each
    degree t rank_p(products) <= dim span <= dim (Ker D^power)_t <=
    bounds[t].  If the two ends meet in every degree the span is the
    whole kernel and its dimension is returned.  None means counting did
    not decide: module_span_check has to.
    """
    nvars, elements, spanning = _span_products(S, kernel_gens, len(bounds) - 1)
    if not all(g.is_homogeneous() and not D(g) for g in kernel_gens):
        return None
    if not all(s.is_homogeneous() for s in elements):
        return None
    # the elements lie in the D-stable space of the polynomials of degree <= top
    top = max((s.total_degree() for s in elements), default=0)
    if any(_power_image(D, power, elements, comb(nvars + top, top))):
        return None
    by_degree: dict[int, list[Poly]] = {}
    for _, _, p in spanning:
        by_degree.setdefault(p.total_degree(), []).append(p)
    for t, bound in enumerate(bounds):
        products = by_degree.get(t, [])
        # rank_p(products) is their number minus the corank of their relations
        if len(products) < bound or (
            _corank(products, map(Poly.iter_terms, products)) != len(products) - bound
        ):
            return None
    return sum(bounds)


def module_span_check(
    S: GeneratorSet | Sequence[Poly],
    kernel_gens: Sequence[Poly],
    target: GradedBasis,
    degree: int,
) -> SpanCheckResult:
    """Is every target vector in the span of {c*s} up to the degree cap?

    c runs over products of the kernel generators and s over the given
    set; only products with deg(c*s) <= degree participate.  On success
    the certificate lists one witness combination per target vector; on
    failure it reports the first vector outside the span.
    """
    _, _, spanning = _span_products(S, kernel_gens, degree)

    # One solve: the products are the unknowns' columns and the target
    # vectors ride along.  linalg.solve_many takes columns, so the rows of
    # the one assembly are read back column by column.
    polys = [p for _, _, p in spanning] + list(target.vectors)
    columns: list[linalg.SparseRow] = [{} for _ in polys]
    for i, row in enumerate(_sparse_rows(map(Poly.iter_terms, polys))):
        for j, c in row.items():
            columns[j][i] = c
    solutions = linalg.solve_many(columns[: len(spanning)], columns[len(spanning):])
    witnesses = []
    for t_idx, (v, sol) in enumerate(zip(target.vectors, solutions)):
        if sol is None:
            return SpanCheckResult(
                False, {"failed_target_index": t_idx, "failed_target": v.to_json()}
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


def _commutator_system(D: Derivation, degree: int):
    """The map T -> [T, D] on derivations of coefficient degree <= degree.

    Returns (image, blocks): blocks[t] lists the unknowns of coefficient
    degree t as (coefficient index i, monomial m) keys, and image(key)
    yields the terms of [x^m d_i, D] keyed the same way.  Its k-th
    coefficient is a_ki x^m - [k = i] D(x^m), where a_ki = d_i(D_k) is a
    constant because D is linear.
    """
    _check_linear(D)
    if degree < 0:
        raise PreconditionError("degree must be >= 0")
    n = D.nvars
    # each degree's system is sparse, but its elimination scans every key
    _guard(n, degree, n)
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    a = [[(k, c) for k in range(n) if (c := D.coeffs[k].coefficient(units[i]))]
         for i in range(n)]
    applied: dict[Exponent, Poly] = {}  # D(x^m), shared by the n keys of m

    def image(key: tuple[int, Exponent]):
        i, m = key
        dm = applied.get(m)
        if dm is None:
            dm = applied[m] = D(Poly(n, {m: 1}))
        terms = {(k, m): c for k, c in a[i]}
        for exp, c in dm.iter_terms():
            x = terms.get((i, exp), 0) - c
            if x:
                terms[(i, exp)] = x
            else:
                del terms[(i, exp)]
        return terms.items()

    blocks = [[(i, m) for i in range(n) for m in monomials_of_degree(n, t)]
              for t in range(degree + 1)]
    return image, blocks


def centralizer_basis(D: Derivation, degree: int) -> list[Derivation]:
    """Basis of {T : coefficient degree <= degree, [T, D] = 0}.

    D must be linear.  The commutator with D is a degree-preserving
    linear map on the space of derivations with homogeneous coefficients,
    so the null space is assembled one coefficient degree at a time.
    """
    image, blocks = _commutator_system(D, degree)
    n = D.nvars
    out: list[Derivation] = []
    for keys in blocks:
        for v in _null_combinations(keys, map(image, keys)):
            coeffs = [{} for _ in range(n)]
            for (i, m), c in v.items():
                coeffs[i][m] = c
            out.append(Derivation(tuple(Poly(n, terms) for terms in coeffs)))
    return out


def centralizer_dimension_bound(D: Derivation, degree: int) -> int | None:
    """An upper bound on the dimension centralizer_basis enumerates.

    The corank of the [., D] system, summed over the coefficient degrees;
    None when MODULUS divides a denominator of D.
    """
    image, blocks = _commutator_system(D, degree)
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
    the symbolic fraction-free path decides.
    """
    if not derivations:
        raise PreconditionError("need at least one derivation")
    n = derivations[0].nvars
    for T in derivations:
        if T.nvars != n:
            raise PreconditionError("derivations live in different rings")
    coeff_matrix = [[T.coeffs[i] for T in derivations] for i in range(n)]
    rng = random.Random(seed)
    points: list[tuple[int, ...]] = []
    ranks: list[int] = []

    def sample() -> int:
        point = tuple(rng.randint(-(10**6), 10**6) for _ in range(n))
        points.append(point)
        numeric = [{j: entry.evaluate(point) for j, entry in enumerate(row) if entry}
                   for row in coeff_matrix]
        return linalg.rank(numeric, len(derivations))

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
    only a candidate list as an algebra generating set beyond it.
    """
    cap = CANDIDATE_DEGREE_CAP.get(n)
    if cap is None:
        raise PreconditionError(f"candidate search supports 2 <= n <= 6, got {n}")
    if degree > cap:
        raise ResourceLimitError(
            f"degree {degree} exceeds the candidate-search cap {cap} for n={n}"
        )
    D = weitzenboeck_derivation(n)
    one = Poly.constant(n, 1)
    candidates: list[Poly] = []
    for t in range(1, degree + 1):
        _, _, spanning = _span_products([one], candidates, t)
        columns = [p for _, _, p in spanning if p.total_degree() == t]
        products = len(columns)
        columns += _kernel_block(D, 1, t)
        rows = _sparse_rows(map(Poly.iter_terms, columns))
        _, pivots = linalg.rref(rows, len(columns))
        candidates += [columns[j] for j in pivots if j >= products]
    return candidates
