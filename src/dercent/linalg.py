"""Exact Gaussian elimination over the rationals and over Q[x].

Matrices cross the public functions as plain lists of dense Fraction
rows.  Inside, elimination works on sparse rows (column -> nonzero
Fraction), so a row update costs the support of the pivot row, not the
width of the matrix, and rows that share no column with the pivot row
are never touched.  Pivoting takes columns left to right and, in each,
the first remaining row with a nonzero entry there, so callers control
the canonical form through their column ordering.

Polynomial matrices are eliminated fraction-free (Bareiss), so every
entry stays a polynomial and no rational function is ever formed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .poly import Poly, poly_divexact

Row = list[Fraction]
SparseRow = dict[int, Fraction]

_ZERO = Fraction(0)


def _eliminate(m: list[SparseRow], ncols: int) -> list[int]:
    """Gauss-Jordan on m in place, pivoting only in the first ncols columns.

    Returns the pivot columns: row k holds the pivot of pivots[k], and the
    later rows are zero in the first ncols columns.  Rows keep only their
    nonzero entries.
    """
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if c in m[i]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        prow = m[r] = {j: x * inv for j, x in m[r].items()}
        for i, row in enumerate(m):
            f = row.get(c) if i != r else None
            if f is None:
                continue
            for j, b in prow.items():
                x = row.get(j, _ZERO) - f * b
                if x:
                    row[j] = x
                else:
                    del row[j]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots


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


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[Row], list[int]]:
    """Reduced row-echelon form; returns (nonzero rows, pivot columns)."""
    if not rows:
        return [], []
    m = [{j: Fraction(x) for j, x in enumerate(row) if x} for row in rows]
    ncols = len(rows[0])
    pivots = _eliminate(m, ncols)
    reduced = [[row.get(j, _ZERO) for j in range(ncols)] for row in m[: len(pivots)]]
    return reduced, pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[0])


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[Row]:
    """RREF-normalized basis of the right null space."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis: list[Row] = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v: list = [0] * ncols  # int zeros: rref converts only nonzero cells
        v[f] = 1
        for row, p in zip(reduced, pivots):
            if row[f]:
                v[p] = -row[f]
        basis.append(v)
    normalized, _ = rref(basis)
    return normalized


def in_row_space(reduced: Sequence[Sequence[Fraction]], pivots: Sequence[int],
                 vector: Sequence[Fraction]) -> bool:
    """Membership test against a precomputed RREF."""
    v = list(map(Fraction, vector))
    for row, p in zip(reduced, pivots):
        if v[p]:
            f = v[p]
            v = [a - f * b for a, b in zip(v, row)]
    return not any(v)


def solve_many(
    columns: Sequence[Sequence[Fraction]],
    targets: Sequence[Sequence[Fraction]],
) -> list[list[Fraction] | None]:
    """Express each target as a combination of the given column vectors.

    Returns one coefficient list per target (aligned with `columns`), or
    None for targets outside the span.  All targets share one elimination;
    pivoting is restricted to the coefficient columns, target columns ride
    along passively.  Free coefficients are set to zero.
    """
    if not targets:
        return []
    if not columns:
        return [None if any(t) else [] for t in targets]
    nrows = len(columns[0])
    ncols = len(columns)
    aug: list[SparseRow] = [{} for _ in range(nrows)]
    for j, vec in enumerate(list(columns) + list(targets)):
        for i, x in enumerate(vec):
            if x:
                aug[i][j] = Fraction(x)
    pivots = _eliminate(aug, ncols)
    r = len(pivots)
    solutions: list[list[Fraction] | None] = []
    for k in range(len(targets)):
        tcol = ncols + k
        if any(tcol in aug[i] for i in range(r, nrows)):
            solutions.append(None)
            continue
        coeffs = [_ZERO] * ncols
        for row_idx, p in enumerate(pivots):
            coeffs[p] = aug[row_idx].get(tcol, _ZERO)
        solutions.append(coeffs)
    return solutions
