"""Linear derivations as matrices and their commutant structure.

A linear derivation sum a_ij x_j d/dx_i is stored as the exact rational
matrix (a_ij).  This module computes the commutant of a matrix inside
the full matrix algebra, the derivations attached to powers of the
nilpotent lower-shift matrix, and the decomposition of any polynomial
derivation commuting with a linear one into rational-constant multiples
of commutant elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .derivation import Derivation, annihilates_ratfunc
from .errors import DimensionError, InternalInconsistencyError, PreconditionError
from .poly import Poly
from .ratfunc import RatFunc

MatrixQ = tuple[tuple[Fraction, ...], ...]


def matrix(rows: Sequence[Sequence]) -> MatrixQ:
    n = len(rows)
    out = []
    for row in rows:
        if len(row) != n:
            raise DimensionError("matrix is not square")
        out.append(tuple(Fraction(x) for x in row))
    return tuple(out)


def matrix_identity(n: int) -> MatrixQ:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def matrix_zero(n: int) -> MatrixQ:
    return tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))


def matrix_mul(a: MatrixQ, b: MatrixQ) -> MatrixQ:
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


def matrix_commutator(a: MatrixQ, b: MatrixQ) -> MatrixQ:
    n = len(a)
    ab = matrix_mul(a, b)
    ba = matrix_mul(b, a)
    return tuple(
        tuple(ab[i][j] - ba[i][j] for j in range(n)) for i in range(n)
    )


def jordan_nilpotent(n: int) -> MatrixQ:
    """Lower-triangular single nilpotent Jordan block (ones below diagonal)."""
    return tuple(
        tuple(Fraction(1 if i == j + 1 else 0) for j in range(n)) for i in range(n)
    )


def shift_powers(n: int) -> list[MatrixQ]:
    """The powers N^0, ..., N^(n-1) of N = jordan_nilpotent(n).

    N^k has its ones on the k-th subdiagonal.
    """
    return [
        tuple(
            tuple(Fraction(1 if i == j + k else 0) for j in range(n))
            for i in range(n)
        )
        for k in range(n)
    ]


def matrix_to_json(a: MatrixQ) -> dict:
    return {"n": len(a), "entries": [[str(x) for x in row] for row in a]}


def matrix_from_json(data: Mapping) -> MatrixQ:
    n = int(data["n"])
    entries = data["entries"]
    if len(entries) != n:
        raise DimensionError("entry row count does not match n")
    return matrix(entries)


def linear_derivation(a: MatrixQ) -> Derivation:
    """The derivation whose i-th coefficient is the linear form (A x)_i."""
    n = len(a)
    coeffs = []
    for i in range(n):
        terms = {}
        for j in range(n):
            if a[i][j]:
                exp = [0] * n
                exp[j] = 1
                terms[tuple(exp)] = a[i][j]
        coeffs.append(Poly(n, terms))
    return Derivation(tuple(coeffs))


@dataclass(frozen=True)
class CommutantBasis:
    """Linearly independent matrices spanning {B : AB = BA}."""

    matrices: tuple[MatrixQ, ...]

    def __len__(self) -> int:
        return len(self.matrices)


def matrix_commutant(a: MatrixQ) -> CommutantBasis:
    """Exact basis of the commutant of `a`, via the n^2 x n^2 linear system.

    Unknowns are the entries of B in row-major order; the output basis is
    reduced row-echelon normalized with respect to that coordinate order.
    """
    n = len(a)
    rows: list[list[Fraction]] = []
    for i in range(n):
        for j in range(n):
            row = [Fraction(0)] * (n * n)
            for k in range(n):
                row[k * n + j] += a[i][k]
                row[i * n + k] -= a[k][j]
            rows.append(row)
    basis_vectors = linalg.nullspace(rows, n * n)
    matrices = tuple(
        tuple(tuple(v[i * n + j] for j in range(n)) for i in range(n))
        for v in basis_vectors
    )
    return CommutantBasis(matrices)


def nilpotent_power_derivations(n: int) -> list[Derivation]:
    """Derivations of the powers N^0..N^(n-1) of the lower-shift matrix.

    The k-th entry is x1*d(k+1) + x2*d(k+2) + ... + x(n-k)*dn; the
    zeroth is the Euler derivation.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    return [linear_derivation(power) for power in shift_powers(n)]


@dataclass(frozen=True)
class FDecomposition:
    """A commuting derivation written over constants of the linear one.

    `derivation` = sum_j coefficients[j] * linear_derivation(basis[j]),
    with each rational-function coefficient annihilated by the linear
    derivation.  Construct through decompose_over_constants; validate
    with verify_decomposition.
    """

    derivation: Derivation
    basis: CommutantBasis
    coefficients: tuple[RatFunc, ...]

    def to_json(self) -> dict:
        return {
            "derivation": self.derivation.to_json(),
            "basis": [matrix_to_json(m) for m in self.basis.matrices],
            "coefficients": [c.to_json() for c in self.coefficients],
        }


def _is_nilpotent_jordan_block(a: MatrixQ) -> bool:
    return a == jordan_nilpotent(len(a))


def _peel_jordan_block(T: Derivation) -> tuple[CommutantBasis, tuple[RatFunc, ...]]:
    """Triangular peeling against the shift-power derivations.

    Solving g_i = sum_{k<=i} phi_k x_(i-k+1) top down gives every phi_k
    the denominator x1^(k+1); working with the numerators directly,
    p_i = g_i x1^i - sum_{k<i} p_k x_(i-k+1) x1^(i-1-k), keeps every
    intermediate a polynomial of modest degree.  Constancy of the
    coefficients is verified by the caller.
    """
    n = T.nvars
    x1 = Poly.variable(n, 0)
    xs = Poly.variables(n)
    nums: list[Poly] = []
    phis: list[RatFunc] = []
    for i in range(n):
        p = T.coeffs[i] * x1**i
        for k in range(i):
            p = p - nums[k] * xs[i - k] * x1 ** (i - 1 - k)
        nums.append(p)
        phis.append(RatFunc(p, x1 ** (i + 1)))
    return CommutantBasis(tuple(shift_powers(n))), tuple(phis)


def _solve_ratfunc_system(
    rows: list[list[RatFunc]], rhs: list[RatFunc], nvars: int
) -> list[RatFunc]:
    """Gaussian elimination over the rational-function field.

    Entries stay unreduced; pivots are chosen per column by minimal
    numerator degree.  Free unknowns are set to zero.  An inconsistent
    system raises InternalInconsistencyError since callers only pass
    systems that are guaranteed solvable.
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


def decompose_over_constants(T: Derivation, a: MatrixQ) -> FDecomposition:
    """Write T as sum phi_j * (derivation of B_j) with D-constant phi_j.

    D is the linear derivation of `a` and the B_j run over a commutant
    basis of `a`.  For the nilpotent lower-shift block the coefficients
    come from exact triangular peeling; otherwise from a linear solve
    over the rational-function field.  Every coefficient is checked to
    be annihilated by D before returning.
    """
    n = len(a)
    if T.nvars != n:
        raise DimensionError("derivation and matrix sizes differ")
    D = linear_derivation(a)
    if not T.commutes(D):
        raise PreconditionError("input derivation does not commute with the linear one")
    if _is_nilpotent_jordan_block(a):
        basis, phis = _peel_jordan_block(T)
    else:
        basis = matrix_commutant(a)
        basis_derivs = [linear_derivation(b) for b in basis.matrices]
        rows = [
            [RatFunc.from_poly(bd.coeffs[i]) for bd in basis_derivs]
            for i in range(n)
        ]
        rhs = [RatFunc.from_poly(T.coeffs[i]) for i in range(n)]
        phis = tuple(_solve_ratfunc_system(rows, rhs, n))
    for phi in phis:
        if not annihilates_ratfunc(D, phi):
            raise InternalInconsistencyError(
                "solved coefficient is not a constant of the derivation"
            )
    return FDecomposition(T, basis, tuple(phis))


def verify_decomposition(dec: FDecomposition, D: Derivation) -> bool:
    """Check constancy of every coefficient and the recombination identity.

    The recombination is compared after clearing denominators, so no
    polynomial division is needed: with Q the product of all
    denominators, Q*g_i must equal sum_j num_j * (Q/den_j) * (B_j x)_i.
    """
    n = dec.derivation.nvars
    if len(dec.coefficients) != len(dec.basis.matrices):
        return False
    for phi in dec.coefficients:
        if not annihilates_ratfunc(D, phi):
            return False
    dens = [phi.den for phi in dec.coefficients]
    common = Poly.constant(n, 1)
    for d in dens:
        common = common * d
    basis_derivs = [linear_derivation(b) for b in dec.basis.matrices]
    for i in range(n):
        lhs = dec.derivation.coeffs[i] * common
        rhs = Poly.zero(n)
        for j, phi in enumerate(dec.coefficients):
            cofactor = Poly.constant(n, 1)
            for l, d in enumerate(dens):
                if l != j:
                    cofactor = cofactor * d
            rhs = rhs + phi.num * cofactor * basis_derivs[j].coeffs[i]
        if lhs != rhs:
            return False
    return True
