"""Exact Gaussian elimination over the rationals.

Matrices are plain lists of Fraction rows.  Pivoting takes the first
nonzero entry scanning columns left to right, so callers control the
canonical form through their column ordering.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Row = list[Fraction]


def _eliminate(m: list[Row], ncols: int) -> list[int]:
    """Gauss-Jordan on m in place, pivoting only in the first ncols columns.

    Returns the pivot columns: row k holds the pivot of pivots[k], and the
    later rows are zero in the first ncols columns.
    """
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


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[Row], list[int]]:
    """Reduced row-echelon form; returns (nonzero rows, pivot columns)."""
    m = [list(map(Fraction, row)) for row in rows]
    if not m:
        return [], []
    pivots = _eliminate(m, len(m[0]))
    return m[: len(pivots)], pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[0])


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[Row]:
    """RREF-normalized basis of the right null space."""
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[Row] = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
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
    aug = [
        [Fraction(columns[j][i]) for j in range(ncols)]
        + [Fraction(t[i]) for t in targets]
        for i in range(nrows)
    ]
    pivots = _eliminate(aug, ncols)
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
