"""Exact Gaussian elimination over the rationals and over Q[x].

Rational matrices cross the public functions as sparse rows: a row or a
vector is a dict from column index to its nonzero Fraction entry, and an
absent column is zero.  Elimination works on these rows directly, so a
row update costs the support of the pivot row, not the width of the
matrix.  One forward loop serves both fields: it takes the columns left
to right and keeps an index from each column to the remaining rows that
hold it.  The pivot of a column is the candidate with the fewest
entries, the lowest row index among equals, and only the rows holding
the pivot column are updated, so rows that share no column with the
pivot row are never touched.  Over Q, `rref` and `solve_many` finish
with a back substitution.  The pivot columns and the reduced form do not
depend on which rows are chosen, so callers control the canonical form
through their column ordering.  `nullspace` reads its basis off one
`rref` of the columns taken right to left, which gives each free column's
null vector already reduced.

`rank` is the pivot count of the forward loop alone, over Q or over the
prime field of a given modulus.  A rank mod p is a lower bound on the
rank over Q, which is what the counting checks in `oracle` need.

Polynomial matrices are eliminated fraction-free (Bareiss), so every
entry stays a polynomial and no rational function is ever formed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .poly import Poly, poly_divexact

SparseRow = dict[int, Fraction]


def _clear(row: SparseRow, c: int, prow: SparseRow, modulus: int | None) -> None:
    """Subtract row[c] times prow, whose entry at c is 1, from row in place,
    reduced mod the modulus if one is given; zero entries are deleted."""
    f = row[c]
    for j, b in prow.items():
        x = row.get(j, 0) - f * b
        if modulus is not None:
            x %= modulus
        if x:
            row[j] = x
        else:
            del row[j]


def _eliminate(m: list[SparseRow], ncols: int, modulus: int | None = None) -> list[int]:
    """Forward elimination on m in place, pivoting only in the first ncols
    columns.

    Entries are Fractions, or with a modulus p the residues 1..p-1 of the
    integers mod p (the entries must already be reduced).  Columns are
    taken left to right.  An index from each column to the remaining rows
    that hold it gives the pivot candidates and the rows to update: the
    pivot is the candidate with the fewest entries (the lowest row index
    among equals), it is scaled to 1, and only the rows holding its column
    are updated.  Returns the pivot columns, with m reordered so that row
    k holds the pivot of pivots[k] and is zero in the earlier pivot
    columns; the later rows are zero in the first ncols columns.
    """
    holding: dict[int, set[int]] = {}
    for i, row in enumerate(m):
        for j in row:
            holding.setdefault(j, set()).add(i)
    pivots: list[int] = []
    pivot_rows: list[int] = []
    for c in range(ncols):
        rows = holding.pop(c, None)
        if not rows:
            continue
        p = min(rows, key=lambda i: (len(m[i]), i))
        rows.remove(p)
        if modulus is None:
            inv = 1 / m[p][c]
            prow = m[p] = {j: x * inv for j, x in m[p].items()}
        else:
            inv = pow(m[p][c], -1, modulus)
            prow = m[p] = {j: x * inv % modulus for j, x in m[p].items()}
        others = [j for j in prow if j != c]
        for j in others:
            holding[j].discard(p)
        for i in rows:
            row = m[i]
            _clear(row, c, prow, modulus)
            for j in others:
                if j in row:
                    holding[j].add(i)
                else:
                    holding[j].discard(i)
        pivots.append(c)
        pivot_rows.append(p)
    done = set(pivot_rows)
    m[:] = [m[i] for i in pivot_rows] + [row for i, row in enumerate(m) if i not in done]
    return pivots


def _back_substitute(m: list[SparseRow], pivots: list[int]) -> None:
    """Finish the reduced row-echelon form of m after _eliminate over Q.

    Walks up from the last pivot row, clearing its pivot column in the rows
    above.  By then a pivot row holds only its own pivot and free columns,
    so no update creates a pivot column, and the rows holding each pivot
    column above its own row are listed once, before the walk.
    """
    above: dict[int, list[int]] = {c: [] for c in pivots}
    for i, c in enumerate(pivots):
        for j in m[i]:
            if j != c and j in above:
                above[j].append(i)
    for k in reversed(range(len(pivots))):
        c, prow = pivots[k], m[k]
        for i in above[c]:
            _clear(m[i], c, prow, None)


def _residue(x: int | Fraction, modulus: int) -> int:
    """x mod a prime: numerator times the inverse of the denominator.

    Raises ZeroDivisionError when the modulus divides the denominator.
    """
    if type(x) is int:
        return x % modulus
    den = x.denominator % modulus
    if not den:
        raise ZeroDivisionError(f"{modulus} divides the denominator of {x}")
    return x.numerator * pow(den, -1, modulus) % modulus


def fraction_free_eliminate(m: list[list[Poly]], ncols: int) -> list[int]:
    """Fraction-free Gauss-Jordan on the polynomial matrix m, in place.

    Pivots only in the first ncols columns, left to right, on the
    remaining row whose entry there has the least total degree, so
    columns after ncols (an augmented right-hand side) ride along.  Every
    row but the pivot row becomes (a*p - f*b) / p_prev, with p the pivot,
    f the row's entry in the pivot column, b the pivot row's entry and
    p_prev the previous pivot; by Sylvester's identity each entry is a
    minor of the input, so the division is exact (Bareiss 1968).

    Returns the pivot columns: row k holds the pivot of pivots[k], every
    pivot row has the last pivot on its diagonal and zeros in the other
    pivot columns, and the later rows are zero in the first ncols columns.
    """
    pivots: list[int] = []
    prev: Poly | None = None
    r = 0
    for c in range(ncols):
        candidates = [(m[i][c].total_degree(), i) for i in range(r, len(m)) if m[i][c]]
        if not candidates:
            continue
        _, pivot_row = min(candidates)
        m[r], m[pivot_row] = m[pivot_row], m[r]
        prow = m[r]
        p = prow[c]
        for i, row in enumerate(m):
            if i == r:
                continue
            f = row[c]
            for j, (a, b) in enumerate(zip(row, prow)):
                x = a * p - f * b if f else a * p
                row[j] = x if prev is None else poly_divexact(x, prev)
        prev = p
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots


def rref(rows: Sequence[SparseRow], ncols: int) -> tuple[list[SparseRow], list[int]]:
    """Reduced row-echelon form; returns (nonzero rows, pivot columns)."""
    m = [{j: Fraction(x) for j, x in row.items() if x} for row in rows]
    pivots = _eliminate(m, ncols)
    _back_substitute(m, pivots)
    return m[: len(pivots)], pivots


def rank(rows: Sequence[SparseRow], ncols: int, modulus: int | None = None) -> int:
    """Rank over Q, or over the integers mod a prime modulus.

    Mod p the entries are reduced by `_residue`, so a ZeroDivisionError
    means p divides a denominator and the count says nothing.
    """
    if modulus is None:
        m = [{j: Fraction(x) for j, x in row.items() if x} for row in rows]
    else:
        m = [{j: r for j, x in row.items() if (r := _residue(x, modulus))} for row in rows]
    return len(_eliminate(m, ncols, modulus))


def nullspace(rows: Sequence[SparseRow], ncols: int) -> list[SparseRow]:
    """RREF-normalized basis of the right null space.

    Column j is passed to `rref` as ncols - 1 - j, so the null vector of a
    free column f is 1 at f and has its other entries at pivot columns
    right of f: ordered by f, the vectors are the unique RREF of the basis.
    """
    last = ncols - 1
    reduced, pivots = rref([{last - j: x for j, x in row.items()} for row in rows], ncols)
    pivot_set = set(pivots)
    basis = {f: {f: Fraction(1)} for f in range(ncols) if last - f not in pivot_set}
    for row, p in zip(reduced, pivots):
        for f, x in row.items():
            if f != p:  # a reduced row is zero in the other pivot columns
                basis[last - f][last - p] = -x
    return list(basis.values())


def in_row_space(reduced: Sequence[SparseRow], pivots: Sequence[int],
                 vector: SparseRow) -> bool:
    """Is vector a combination of the rows of a precomputed RREF?"""
    return solve_many(reduced, [vector])[0] is not None


def solve_many(
    columns: Sequence[SparseRow], targets: Sequence[SparseRow]
) -> list[SparseRow | None]:
    """Express each target as a combination of the given column vectors.

    Columns and targets map a row index to its entry.  Returns one
    coefficient vector per target (column index to coefficient), or None
    for targets outside the span.  All targets share one elimination;
    pivoting is restricted to the coefficient columns, target columns ride
    along passively.  Free coefficients are set to zero.
    """
    ncols = len(columns)
    aug: dict[int, SparseRow] = {}
    for j, vec in enumerate([*columns, *targets]):
        for i, x in vec.items():
            if x:
                aug.setdefault(i, {})[j] = Fraction(x)
    m = [aug[i] for i in sorted(aug)]
    pivots = _eliminate(m, ncols)
    _back_substitute(m, pivots)
    outside = {j for row in m[len(pivots):] for j in row}
    return [
        None if tcol in outside
        else {p: row[tcol] for p, row in zip(pivots, m) if tcol in row}
        for tcol in range(ncols, ncols + len(targets))
    ]
