"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import dercent.verify
from dercent.derivation import Derivation
from dercent.errors import InternalInconsistencyError
from dercent.linalg import nullspace
from dercent.linearder import linear_derivation, matrix_commutant
from dercent.poly import Poly, grlex_key, monomials_of_degree, poly_divexact
from dercent.ratfunc import RatFunc
from dercent.registry import KernelEntry, load_registry, registry_to_json
from dercent.weitzenboeck import monomial_weight


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


def count_calls(monkeypatch, name, key=lambda args: None) -> Counter:
    """Count the calls dercent.verify makes to `name`, keyed by key(args)."""
    calls = Counter()
    inner = getattr(dercent.verify, name)

    def wrapper(*args, **kwargs):
        calls[key(args)] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(dercent.verify, name, wrapper)
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
    for exp, c in p.iter_terms():
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
         for exp, _ in c.iter_terms()},
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
    basis_derivs = [linear_derivation(b) for b in matrix_commutant(a).matrices]
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


def sl2_kernel_dimension(n: int, power: int, degree: int) -> int:
    """dim (Ker D^power)_degree for the basic Weitzenboeck derivation, from
    sl2 theory: sum over w >= 0 of (p(d, w) - p(d, w + 2)) * min(power, w + 1),
    with p(d, w) the number of degree-d monomials of weight w."""
    p = Counter(monomial_weight(m, n) for m in monomials_of_degree(n, degree))
    return sum((p[w] - p[w + 2]) * min(power, w + 1)
               for w in range(max(p, default=-1) + 1))
