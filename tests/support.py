"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import cache
from math import gcd, lcm

import dercent.verify
from dercent.derivation import Derivation
from dercent.errors import InternalInconsistencyError, NotDivisibleError
from dercent.linalg import nullspace
from dercent.linearder import linear_derivation, matrix_commutant
from dercent.oracle import (
    RANK_SAMPLE_RETRIES,
    GradedBasis,
    PowerChain,
    RankResult,
    symbolic_rank,
)
from dercent.poly import Poly, monomials_of_degree, poly_divexact
from dercent.ratfunc import RatFunc
from dercent.registry import KernelEntry, load_registry, registry_to_json
from dercent.weitzenboeck import GenElement, GeneratorSet, monomial_weight, sl2_triple


def monomials_up_to_degree(nvars: int, degree: int) -> list[tuple]:
    """All exponent tuples of total degree <= degree, ascending by degree."""
    return [m for d in range(degree + 1) for m in monomials_of_degree(nvars, d)]


def matrix_identity(n: int) -> tuple:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def matrix_mul(a, b) -> tuple:
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


def matrix_commutator(a, b) -> tuple:
    """ab - ba."""
    ab, ba = matrix_mul(a, b), matrix_mul(b, a)
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(ab, ba))


def random_exponent(rng: random.Random, nvars: int, max_degree: int) -> tuple:
    while True:
        exp = tuple(rng.randint(0, max_degree) for _ in range(nvars))
        if sum(exp) <= max_degree:
            return exp


def random_poly(
    rng: random.Random,
    nvars: int,
    max_degree: int = 3,
    max_terms: int = 4,
    coeff_bound: int = 5,
) -> Poly:
    terms: dict = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = random_exponent(rng, nvars, max_degree)
        coeff = Fraction(rng.randint(-coeff_bound, coeff_bound), rng.randint(1, 3))
        terms[exp] = terms.get(exp, 0) + coeff
    return Poly(nvars, terms)


def random_nonzero_poly(rng: random.Random, nvars: int, **kw) -> Poly:
    while True:
        p = random_poly(rng, nvars, **kw)
        if p:
            return p


def random_derivation(rng: random.Random, nvars: int, **kw) -> Derivation:
    return Derivation(tuple(random_poly(rng, nvars, **kw) for _ in range(nvars)))


def poly_scalar_multiple(a: Poly, b: Poly) -> bool:
    """Is a = c * b for a single nonzero rational c?"""
    if a.nvars != b.nvars:
        return False
    if not a or not b:
        return bool(not a and not b)
    lead = b.leading_monomial()
    if a.coefficient(lead) == 0:
        return False
    ratio = Fraction(a.coefficient(lead)) / Fraction(b.coefficient(lead))
    return ratio != 0 and a == b * ratio


def derivation_scalar_multiple(a: Derivation, b: Derivation) -> bool:
    """Is a = c * b for a single nonzero rational c across all coefficients?"""
    if a.nvars != b.nvars:
        return False
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    ratio = None
    for ca, cb in zip(a.coeffs, b.coeffs):
        if bool(ca) != bool(cb):
            return False
        if cb:
            lead = cb.leading_monomial()
            if ca.coefficient(lead) == 0:
                return False
            r = Fraction(ca.coefficient(lead)) / Fraction(cb.coefficient(lead))
            if ratio is None:
                ratio = r
            elif ratio != r:
                return False
    if ratio is None or ratio == 0:
        return False
    return all(ca == cb * ratio for ca, cb in zip(a.coeffs, b.coeffs))


def match_up_to_scalar(actual: list[Derivation], expected: list[Derivation]) -> bool:
    """Each expected derivation matches exactly one actual one, up to scalar."""
    if len(actual) != len(expected):
        return False
    remaining = list(actual)
    for e in expected:
        hit = next(
            (a for a in remaining if derivation_scalar_multiple(a, e)), None
        )
        if hit is None:
            return False
        remaining.remove(hit)
    return True


def count_calls(monkeypatch, name, key=lambda args: None, module=dercent.verify) -> Counter:
    """Count the calls made to `name` through the module (by default
    dercent.verify), keyed by key(args)."""
    calls = Counter()
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[key(args)] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def count_unit_applications(monkeypatch) -> Counter:
    """Count, by exponent m, the applications of a derivation to the unit
    monomials x^m that the power chains of dercent.oracle start from: the
    computations of D(x^m) for its kernels, bounds and [., D] systems."""
    calls = Counter()
    building = []  # nonempty while a chain builds the first level of a block
    start = PowerChain._block

    def block(chain, degree):
        building.append(degree)
        try:
            return start(chain, degree)
        finally:
            building.pop()

    apply = Derivation.__call__

    def call(D, p):
        terms = p.terms()
        if building and len(terms) == 1 and terms[0][1] == 1:
            calls[terms[0][0]] += 1
        return apply(D, p)

    monkeypatch.setattr(PowerChain, "_block", block)
    monkeypatch.setattr(Derivation, "__call__", call)
    return calls


def write_registry(path, n, generators) -> str:
    """The packaged registry with entry n's generators replaced, written to path."""
    registry = dict(load_registry())
    entry = registry[n]
    registry[n] = KernelEntry(n, generators, entry.source, entry.search_degree)
    path.write_text(registry_to_json(registry))
    return str(path)


def reference_evaluate(p: Poly, point) -> Fraction:
    """The term-by-term loop Poly.evaluate used before it summed per denominator."""
    values = [Fraction(v) for v in point]
    total = 0
    for exp, c in p.terms():
        term = c
        for e, v in zip(exp, values):
            if e:
                term *= v**e
        total += term
    return Fraction(total)


# Dense reference elimination: the row-list Gauss-Jordan that dercent.linalg
# used before its rows became sparse.  Tests compare the library against it,
# converting between the two row formats with `sparse` and `dense`.


def sparse(vector) -> dict[int, Fraction]:
    """A dense vector as the sparse row dercent.linalg takes."""
    return {j: Fraction(x) for j, x in enumerate(vector) if x}


def dense(row: dict[int, Fraction], ncols: int) -> list[Fraction]:
    """A sparse row of dercent.linalg as a dense vector of ncols entries."""
    return [Fraction(row.get(j, 0)) for j in range(ncols)]


def reference_eliminate(m: list[list[Fraction]], ncols: int) -> list[int]:
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots


def reference_rank_mod(rows, ncols: int, modulus: int) -> int:
    """Rank of dense rational rows over the integers mod a prime, by dense
    elimination; ValueError if the prime divides a denominator."""
    m = [[Fraction(x).numerator * pow(Fraction(x).denominator, -1, modulus) % modulus
          for x in row] for row in rows]
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = pow(m[r][c], -1, modulus)
        m[r] = [x * inv % modulus for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % modulus for a, b in zip(m[i], m[r])]
        r += 1
    return r


def reference_rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    m = [list(map(Fraction, row)) for row in rows]
    if not m:
        return [], []
    pivots = reference_eliminate(m, len(m[0]))
    return m[: len(pivots)], pivots


def reference_derivation_span_equal(first, second) -> bool:
    """Do two sets of derivations span the same rational subspace?

    The comparison `oracle.derivation_span_equal` made before it counted
    ranks: both sets as dense rows over one sorted list of (coefficient
    index, monomial) coordinates, and equal reduced row-echelon forms.
    """
    everything = [*first, *second]
    coords = sorted(
        {(i, exp) for T in everything for i, c in enumerate(T.coeffs)
         for exp, _ in c.terms()},
        key=lambda im: (im[0], grlex_key(im[1])),
    )

    def rows(Ts):
        return [[T.coeffs[i].coefficient(exp) for i, exp in coords] for T in Ts]

    return reference_rref(rows(first))[0] == reference_rref(rows(second))[0]


def reference_nullspace(rows, ncols: int) -> list[list[Fraction]]:
    reduced, pivots = reference_rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(v)
    return reference_rref(basis)[0]


def reference_solve_many(columns, targets) -> list[list[Fraction] | None]:
    if not targets:
        return []
    if not columns:
        return [None if any(t) else [] for t in targets]
    nrows = len(columns[0])
    ncols = len(columns)
    aug = [
        [Fraction(columns[j][i]) for j in range(ncols)]
        + [Fraction(t[i]) for t in targets]
        for i in range(nrows)
    ]
    pivots = reference_eliminate(aug, ncols)
    r = len(pivots)
    solutions: list[list[Fraction] | None] = []
    for k in range(len(targets)):
        tcol = ncols + k
        if any(aug[i][tcol] for i in range(r, nrows)):
            solutions.append(None)
            continue
        coeffs = [Fraction(0)] * ncols
        for row_idx, p in enumerate(pivots):
            coeffs[p] = aug[row_idx][tcol]
        solutions.append(coeffs)
    return solutions


# Reference solvers over Q(x): the elimination loops dercent used before
# its polynomial systems were solved fraction-free.  Tests compare the
# library against them.


def reference_solve_ratfunc_system(
    rows: list[list[RatFunc]], rhs: list[RatFunc], nvars: int
) -> list[RatFunc]:
    """Gaussian elimination over the rational-function field.

    Entries stay unreduced; pivots are chosen per column by minimal
    numerator degree.  Free unknowns are set to zero.  An inconsistent
    system raises InternalInconsistencyError.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    aug = [row + [rhs[i]] for i, row in enumerate(rows)]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        candidates = [
            (aug[i][c].num.total_degree(), i)
            for i in range(r, nrows)
            if not aug[i][c].is_zero()
        ]
        if not candidates:
            continue
        _, pivot_row = min(candidates)
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        inv = RatFunc(aug[r][c].den, aug[r][c].num)
        aug[r] = [x * inv for x in aug[r]]
        for i in range(nrows):
            if i != r and not aug[i][c].is_zero():
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    zero = RatFunc.constant(nvars, 0)
    for i in range(r, nrows):
        if not aug[i][ncols].is_zero():
            raise InternalInconsistencyError(
                "commuting derivation does not lie in the commutant span"
            )
    solution = [zero] * ncols
    for row_idx, p in enumerate(pivots):
        solution[p] = aug[row_idx][ncols]
    return solution


def reference_decompose(T: Derivation, a) -> list[RatFunc]:
    """The coefficients decompose_over_constants gave off the peel path."""
    n = T.nvars
    basis_derivs = [linear_derivation(b) for b in matrix_commutant(a)]
    rows = [[RatFunc.from_poly(bd.coeffs[i]) for bd in basis_derivs] for i in range(n)]
    rhs = [RatFunc.from_poly(T.coeffs[i]) for i in range(n)]
    return reference_solve_ratfunc_system(rows, rhs, n)


def reference_symbolic_rank(matrix) -> int:
    """Fraction-free (Bareiss) rank with full pivoting by least total degree."""
    m = [list(row) for row in matrix]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    row_perm = list(range(nrows))
    col_perm = list(range(ncols))
    one = Poly.constant(m[0][0].nvars, 1)
    prev = one
    r = 0
    while r < min(nrows, ncols):
        best = None
        for cj in range(r, ncols):
            for ri in range(r, nrows):
                entry = m[row_perm[ri]][col_perm[cj]]
                if entry:
                    key = (entry.total_degree(), cj, ri)
                    if best is None or key < best[0]:
                        best = (key, ri, cj)
        if best is None:
            break
        _, ri, cj = best
        row_perm[r], row_perm[ri] = row_perm[ri], row_perm[r]
        col_perm[r], col_perm[cj] = col_perm[cj], col_perm[r]
        pivot = m[row_perm[r]][col_perm[r]]
        for i in range(r + 1, nrows):
            for j in range(r + 1, ncols):
                num = (
                    m[row_perm[i]][col_perm[j]] * pivot
                    - m[row_perm[i]][col_perm[r]] * m[row_perm[r]][col_perm[j]]
                )
                m[row_perm[i]][col_perm[j]] = poly_divexact(num, prev)
            m[row_perm[i]][col_perm[r]] = Poly.zero(pivot.nvars)
        prev = pivot
        r += 1
    return r


def reference_centralizer_basis(D: Derivation, degree: int) -> list[Derivation]:
    """The centralizer enumeration with each column taken as the general
    bracket [x^m d_i, D] of a unit derivation, as oracle built it before
    it wrote the bracket of a unit down directly."""
    n = D.nvars
    out = []
    for t in range(degree + 1):
        keys = [(i, m) for i in range(n) for m in monomials_of_degree(n, t)]
        index = {}
        columns = []
        for i, m in keys:
            unit = Derivation(
                tuple(Poly(n, {m: 1}) if k == i else Poly.zero(n) for k in range(n))
            )
            br = unit.bracket(D)
            columns.append({(k, exp): c for k in range(n)
                            for exp, c in br.coeffs[k].iter_terms()})
        rows: dict = {}
        for j, column in enumerate(columns):
            for key, c in column.items():
                rows.setdefault(index.setdefault(key, len(index)), {})[j] = c
        for v in nullspace(list(rows.values()), len(keys)):
            coeffs = [{} for _ in range(n)]
            for j, c in v.items():
                i, m = keys[j]
                coeffs[i][m] = c
            out.append(Derivation(tuple(Poly(n, terms) for terms in coeffs)))
    return out


@cache
def _weight_counts(n: int, degree: int) -> Counter:
    """weight -> number of degree-d monomials in n variables of that weight,
    from the monomial list."""
    return Counter(monomial_weight(m, n) for m in monomials_of_degree(n, degree))


def sl2_kernel_dimension(n: int, power: int, degree: int) -> int:
    """dim (Ker D^power)_degree for the basic Weitzenboeck derivation, from
    sl2 theory: sum over w >= 0 of (p(d, w) - p(d, w + 2)) * min(power, w + 1),
    with p(d, w) the number of degree-d monomials of weight w."""
    p = _weight_counts(n, degree)
    return sum((p[w] - p[w + 2]) * min(power, w + 1)
               for w in range(max(p, default=-1) + 1))


# References for the oracle's fast paths: each computes what the oracle
# computed before it split systems into blocks, shared one power chain per
# run, or stopped a rank sample at n columns.


def _dense_system(keys, columns) -> list[list[Fraction]]:
    """The rows of the map whose column j has the (row key, entry) terms
    columns[j], dense over len(keys) columns; zero rows dropped."""
    rows: dict = {}
    for j, terms in enumerate(columns):
        for key, c in terms:
            rows.setdefault(key, [Fraction(0)] * len(keys))[j] += c
    return [row for row in rows.values() if any(row)]


def reference_null_combinations(keys, columns) -> list[dict]:
    """oracle._null_combinations by one unsplit dense elimination."""
    return [
        {keys[j]: x for j, x in enumerate(v) if x}
        for v in reference_nullspace(_dense_system(keys, columns), len(keys))
    ]


def reference_corank(keys, columns, modulus: int) -> int | None:
    """oracle._corank by one unsplit dense elimination mod the prime."""
    try:
        return len(keys) - reference_rank_mod(_dense_system(keys, columns), len(keys), modulus)
    except ValueError:  # the prime divides a denominator
        return None


def reference_kernel_power_basis(D: Derivation, power: int, degree: int) -> GradedBasis:
    """Kernel of D^power up to the degree: D applied power times to each
    unit monomial, and one dense null space per degree."""
    n = D.nvars
    vectors = []
    for t in range(degree + 1):
        monos = monomials_of_degree(n, t)
        images = []
        for m in monos:
            image = Poly(n, {m: 1})
            for _ in range(power):
                image = D(image)
            images.append(image)
        null = reference_null_combinations(monos, [p.iter_terms() for p in images])
        vectors += [Poly(n, v) for v in null]
    return GradedBasis(degree, tuple(vectors))


def reference_rank_over_fractions(derivations, seed: int = 0) -> RankResult:
    """rank_over_fractions with every sample evaluating every column."""
    n = derivations[0].nvars
    coeff_matrix = [[T.coeffs[i] for T in derivations] for i in range(n)]
    rng = random.Random(seed)
    points, ranks = [], []

    def sample() -> int:
        point = tuple(rng.randint(-(10**6), 10**6) for _ in range(n))
        points.append(point)
        numeric = [[entry.evaluate(point) for entry in row] for row in coeff_matrix]
        return len(reference_rref(numeric)[1])

    ranks.append(sample())
    ranks.append(sample())
    while ranks[-1] != ranks[-2] and len(ranks) < 2 + RANK_SAMPLE_RETRIES:
        ranks.append(sample())
    if ranks[-1] == ranks[-2]:
        return RankResult(max(ranks), "sampled", tuple(points), tuple(ranks))
    return RankResult(symbolic_rank(coeff_matrix), "symbolic", tuple(points), tuple(ranks))


# Tuple-keyed reference arithmetic: the loops dercent.poly and
# dercent.derivation ran while terms were keyed by exponent tuples, before
# monomials were packed into integer keys.  They work on plain dicts
# {exponent tuple: nonzero coefficient}; `tuple_terms` reads a Poly that way.


def grlex_key(exponent: tuple) -> tuple:
    """Sort key realizing graded-lex order (total degree, then lex with
    x1 > x2 > ...), the order monomial keys compare in."""
    return (sum(exponent), exponent)


def tuple_terms(p: Poly) -> dict:
    return dict(p.terms())


def reference_order(terms: dict) -> list:
    """The terms in canonical order: descending graded-lex."""
    return sorted(terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)


def reference_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for exp, c in b.items():
        s = out.get(exp, 0) + c
        if s:
            out[exp] = s
        else:
            out.pop(exp, None)
    return out


def reference_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(exp, 0) + ca * cb
            if s:
                out[exp] = s
            else:
                del out[exp]
    return out


def reference_partial(a: dict, index: int) -> dict:
    out = {}
    for exp, c in a.items():
        if exp[index]:
            new = list(exp)
            new[index] -= 1
            out[tuple(new)] = c * exp[index]
    return out


def reference_apply(coeffs: list[dict], f: dict) -> dict:
    """sum_i coeffs[i] * df/dx_i, as Derivation.__call__'s fused loop did."""
    acc: dict = {}
    for i, c in enumerate(coeffs):
        for exp, k in f.items():
            e = exp[i]
            if not e:
                continue
            for cexp, cc in c.items():
                combined = [a + b for a, b in zip(exp, cexp)]
                combined[i] -= 1
                key = tuple(combined)
                s = acc.get(key, 0) + k * e * cc
                if s:
                    acc[key] = s
                else:
                    del acc[key]
    return acc


def reference_primitive_part(a: dict) -> dict:
    """Divide by the rational content, the sign making the grlex-leading
    coefficient positive."""
    if not a:
        return {}
    values = [Fraction(c) for c in a.values()]
    nums = [abs(c.numerator) for c in values]
    dens = [c.denominator for c in values]
    content = Fraction(gcd(*nums), lcm(*dens))
    if reference_order(a)[0][1] < 0:
        content = -content
    return {exp: Fraction(c) / content for exp, c in a.items()}


def reference_divexact(numerator: Poly, divisor: Poly) -> Poly:
    """The division loop poly_divexact ran before it kept its quotient and
    remainder in dicts: each step rebuilds both as new Polys."""
    if not divisor:
        raise ZeroDivisionError("division by the zero polynomial")
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


def reference_generator_set(n: int, kernel_gens, level: int) -> GeneratorSet:
    """generator_set as it was before it multiplied integer-primitive
    images: the raw products of the images, each normalized by
    primitive_part, with scale = raw / normalized at the leading term."""
    dhat = sl2_triple(n).dhat
    budget = level - 1
    alphabet = []
    for g_idx, g in enumerate(kernel_gens):
        image = g
        for k in range(1, budget + 1):
            image = dhat(image)
            if not image:
                break
            alphabet.append((g_idx, k, image))
    raw = []

    def extend(start, remaining, product, factors):
        raw.append((product, factors))
        for j in range(start, len(alphabet)):
            g_idx, k, image = alphabet[j]
            if k <= remaining:
                extend(j, remaining - k, product * image, factors + ((g_idx, k),))

    extend(0, budget, Poly.constant(n, 1), ())
    seen: dict = {}
    for product, factors in raw:
        normalized = product.primitive_part()
        if normalized not in seen:
            lead = normalized.leading_monomial()
            scale = Fraction(product.coefficient(lead)) / normalized.coefficient(lead)
            seen[normalized] = GenElement(normalized, factors, scale)

    def order_key(el):
        lead = el.poly.leading_monomial()
        return (sum(lead), tuple(-e for e in lead))

    return GeneratorSet(level, tuple(sorted(seen.values(), key=order_key)))


# The recursive enumerations that `poly.monomials_of_degree` and
# `oracle._multiplier_exponents` replaced: they recursed once per variable
# and once per generator.  The loops must give the same lists in the same
# order.


def reference_monomials_of_degree(nvars: int, degree: int) -> list[tuple]:
    if degree < 0:
        return []
    if nvars == 0:
        return [()] if degree == 0 else []
    out: list[tuple] = []

    def rec(prefix: tuple, remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, nvars)
    return out


def reference_multiplier_exponents(gen_degrees, budget: int) -> list[tuple]:
    out: list[tuple] = []

    def rec(i: int, prefix: tuple, remaining: int) -> None:
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
