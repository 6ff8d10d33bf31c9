"""Brute-force verification engines for the constructive results.

Everything here works by exact linear algebra on truncated monomial
bases: kernels of powers of a linear derivation, module-span
membership with witness certificates, centralizer enumeration as a null
space, and rank over the fraction field by random evaluation with a
symbolic fraction-free fallback.  These routines are deliberately
elementary so they can serve as ground truth for the generator
constructions.

Span and centralizer equalities can also be certified by counting: the
rank mod MODULUS of elements known to lie in a space bounds its
dimension from below, and the corank mod MODULUS of the linear system
that defines the space bounds it from above.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from . import linalg
from .derivation import Derivation
from .errors import PreconditionError, ResourceLimitError
from .poly import (
    Exponent,
    Poly,
    grlex_key,
    monomials_of_degree,
)
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


def _monomial_count(nvars: int, degree: int) -> int:
    from math import comb

    return comb(nvars + degree, degree)


def _guard_monomial_count(nvars: int, degree: int) -> None:
    count = _monomial_count(nvars, degree)
    if count > MONOMIAL_COUNT_CAP:
        raise ResourceLimitError(
            f"{count} monomials of degree <= {degree} in {nvars} variables "
            f"exceed the cap {MONOMIAL_COUNT_CAP}"
        )


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


def _null_combinations(keys: Sequence, image) -> list[dict]:
    """Null space of a linear map on the span of finitely many basis keys.

    image(key) yields the (key, coefficient) terms of that key's image,
    all within the same keys; the images are the sparse columns of the
    system.  Each null vector comes back as {key: coefficient},
    RREF-normalized against the order of keys.
    """
    return [
        {keys[j]: x for j, x in v.items()}
        for v in linalg.nullspace(_sparse_rows(map(image, keys)), len(keys))
    ]


def _apply_power(D: Derivation, power: int, p: Poly) -> Poly:
    for _ in range(power):
        p = D(p)
    return p


def _kernel_block(D: Derivation, power: int, degree: int) -> list[Poly]:
    """Kernel of D^power on the homogeneous component of a fixed degree."""
    n = D.nvars

    def image(m: Exponent):
        return _apply_power(D, power, Poly(n, {m: 1})).iter_terms()

    monos = monomials_of_degree(n, degree)
    return [Poly(n, v) for v in _null_combinations(monos, image)]


def _check_kernel_args(D: Derivation, power: int, degree: int) -> None:
    if power < 1:
        raise PreconditionError("power must be >= 1")
    if degree < 0:
        raise PreconditionError("degree must be >= 0")
    _check_linear(D)
    _guard_monomial_count(D.nvars, degree)


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

    Each is the number of degree-t monomials minus the rank mod MODULUS
    of the system kernel_power_basis solves for D^i in that degree; a
    rank mod p is at most the rank over Q.  The images of D^i come from
    those of D^(i-1), one application of D each.  None when MODULUS
    divides a denominator of D.
    """
    _check_kernel_args(D, power, degree)
    bounds: list[list[int]] = [[] for _ in range(power)]
    for t in range(degree + 1):
        monos = monomials_of_degree(D.nvars, t)
        images = [Poly(D.nvars, {m: 1}) for m in monos]
        for row in bounds:
            images = [D(p) for p in images]
            rows = _sparse_rows(p.iter_terms() for p in images)
            try:
                row.append(len(monos) - linalg.rank(rows, len(monos), MODULUS))
            except ZeroDivisionError:
                return None
    return bounds


def _product(nvars: int, gens: Sequence[Poly], evec: Sequence[int]) -> Poly:
    """The product of gens[g] ** evec[g]."""
    p = Poly.constant(nvars, 1)
    for g, e in zip(gens, evec):
        if e:
            p = p * g**e
    return p


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
    _guard_monomial_count(nvars, degree)
    gen_degrees = [g.total_degree() for g in kernel_gens]
    if any(d < 1 for d in gen_degrees):
        raise PreconditionError("kernel generators must be nonconstant")

    multipliers: list[tuple[tuple[int, ...], Poly, int]] = []
    for evec in _multiplier_exponents(gen_degrees, degree):
        p = _product(nvars, kernel_gens, evec)
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
    if not all(s.is_homogeneous() and not _apply_power(D, power, s)
               for s in elements):
        return None
    by_degree: dict[int, list[Poly]] = {}
    for _, _, p in spanning:
        by_degree.setdefault(p.total_degree(), []).append(p)
    for t, bound in enumerate(bounds):
        products = by_degree.get(t, [])
        if len(products) < bound:
            return None
        col = {m: j for j, m in enumerate(monomials_of_degree(nvars, t))}
        rows = [{col[exp]: c for exp, c in p.iter_terms()} for p in products]
        try:
            if linalg.rank(rows, len(col), MODULUS) != bound:
                return None
        except ZeroDivisionError:
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
    nvars, _, spanning = _span_products(S, kernel_gens, degree)

    # One solve over every monomial up to the cap.  A pivot updates only
    # the rows (monomials) where its column is nonzero, so homogeneous
    # data is still eliminated one degree block at a time.
    monos: list[Exponent] = []
    for t in range(degree + 1):
        monos.extend(monomials_of_degree(nvars, t))
    col = {m: j for j, m in enumerate(monos)}

    def flatten(p: Poly) -> linalg.SparseRow:
        return {col[exp]: c for exp, c in p.iter_terms()}

    solutions = linalg.solve_many(
        [flatten(p) for _, _, p in spanning],
        [flatten(v) for v in target.vectors],
    )
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
    # the unknowns are the (coefficient index, monomial) keys; each
    # degree's system is sparse, but its elimination scans every key
    unknowns = n * _monomial_count(n, degree)
    if unknowns > MONOMIAL_COUNT_CAP:
        raise ResourceLimitError(
            f"{unknowns} unknowns ({n} coefficients of degree <= {degree} "
            f"in {n} variables) exceed the cap {MONOMIAL_COUNT_CAP}"
        )
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
        for v in _null_combinations(keys, image):
            coeffs = [{} for _ in range(n)]
            for (i, m), c in v.items():
                coeffs[i][m] = c
            out.append(Derivation(tuple(Poly(n, terms) for terms in coeffs)))
    return out


def centralizer_dimension_bound(D: Derivation, degree: int) -> int | None:
    """An upper bound on the dimension centralizer_basis enumerates.

    The number of unknowns minus the rank mod MODULUS of the [., D]
    system, summed over the coefficient degrees; None when MODULUS
    divides a denominator of D.
    """
    image, blocks = _commutator_system(D, degree)
    try:
        return sum(
            len(keys) - linalg.rank(_sparse_rows(map(image, keys)), len(keys), MODULUS)
            for keys in blocks
        )
    except ZeroDivisionError:
        return None


def derivation_span_equal(
    first: Sequence[Derivation], second: Sequence[Derivation]
) -> bool:
    """Do two finite sets of derivations span the same rational subspace?"""
    if not first and not second:
        return True
    n = (first[0] if first else second[0]).nvars
    support: set[tuple[int, Exponent]] = set()
    for T in list(first) + list(second):
        if T.nvars != n:
            raise PreconditionError("derivations live in different rings")
        for i, c in enumerate(T.coeffs):
            support.update((i, exp) for exp, _ in c.iter_terms())
    coords = sorted(support, key=lambda im: (im[0], grlex_key(im[1])))
    index = {im: k for k, im in enumerate(coords)}

    def flatten(T: Derivation) -> linalg.SparseRow:
        return {index[(i, exp)]: coeff
                for i, c in enumerate(T.coeffs) for exp, coeff in c.iter_terms()}

    rows_a = [flatten(T) for T in first]
    rows_b = [flatten(T) for T in second]
    return linalg.rref(rows_a, len(coords))[0] == linalg.rref(rows_b, len(coords))[0]


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
    candidates: list[Poly] = []
    for t in range(1, degree + 1):
        gen_degrees = [g.total_degree() for g in candidates]
        columns = [
            _product(n, candidates, evec)
            for evec in _multiplier_exponents(gen_degrees, t)
            if sum(e * d for e, d in zip(evec, gen_degrees)) == t
        ]
        products = len(columns)
        columns += _kernel_block(D, 1, t)
        rows = _sparse_rows(p.iter_terms() for p in columns)
        _, pivots = linalg.rref(rows, len(columns))
        candidates += [columns[j] for j in pivots if j >= products]
    return candidates
