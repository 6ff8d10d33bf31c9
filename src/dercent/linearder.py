"""Linear derivations as matrices and their commutant structure.

A linear derivation sum a_ij x_j d/dx_i is stored as the exact rational
matrix (a_ij).  This module computes the commutant of a matrix inside
the full matrix algebra, as a tuple of basis matrices, and the
decomposition of any polynomial derivation commuting with a linear one
into rational-constant multiples of commutant elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import prod
from typing import Mapping, Sequence

from . import linalg
from .derivation import Derivation, annihilates_ratfunc
from .errors import DimensionError, InternalInconsistencyError, PreconditionError
from .poly import Poly, parse_count, parse_rational
from .ratfunc import RatFunc

MatrixQ = tuple[tuple[Fraction, ...], ...]


def matrix(rows: Sequence[Sequence]) -> MatrixQ:
    n = len(rows)
    out = []
    for row in rows:
        if len(row) != n:
            raise DimensionError("matrix is not square")
        out.append(tuple(parse_rational(x) for x in row))
    return tuple(out)


@cache
def jordan_nilpotent(n: int) -> MatrixQ:
    """Lower-triangular single nilpotent Jordan block (ones below diagonal).

    Built once per n; the matrix is immutable.
    """
    return tuple(
        tuple(Fraction(1 if i == j + 1 else 0) for j in range(n)) for i in range(n)
    )


@cache
def shift_powers(n: int) -> tuple[MatrixQ, ...]:
    """The powers N^0, ..., N^(n-1) of N = jordan_nilpotent(n).

    N^k has its ones on the k-th subdiagonal.  Built once per n.
    """
    return tuple(
        tuple(
            tuple(Fraction(1 if i == j + k else 0) for j in range(n))
            for i in range(n)
        )
        for k in range(n)
    )


def matrix_to_json(a: MatrixQ) -> dict:
    return {"n": len(a), "entries": [[str(x) for x in row] for row in a]}


def matrix_from_json(data: Mapping) -> MatrixQ:
    n = parse_count(data["n"])
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


def matrix_commutant(a: MatrixQ) -> tuple[MatrixQ, ...]:
    """Exact basis of the commutant of `a`, via the n^2 x n^2 linear system.

    Unknowns are the entries of B in row-major order; the output basis is
    reduced row-echelon normalized with respect to that coordinate order.
    """
    n = len(a)
    rows: list[dict[int, Fraction]] = []
    for i in range(n):
        for j in range(n):
            row: dict[int, Fraction] = {}
            for k in range(n):
                row[k * n + j] = row.get(k * n + j, 0) + a[i][k]
                row[i * n + k] = row.get(i * n + k, 0) - a[k][j]
            rows.append(row)
    basis_vectors = linalg.nullspace(rows, n * n)
    return tuple(
        tuple(tuple(v.get(i * n + j, Fraction(0)) for j in range(n)) for i in range(n))
        for v in basis_vectors
    )


@dataclass(frozen=True)
class FDecomposition:
    """A commuting derivation written over constants of the linear one.

    `derivation` = sum_j coefficients[j] * linear_derivation(basis[j]),
    with each rational-function coefficient annihilated by the linear
    derivation.  Construct through decompose_over_constants; validate
    with verify_decomposition.  `to_json()` leaves the derivation and the
    coefficients as objects, for the writer to encode.
    """

    derivation: Derivation
    basis: tuple[MatrixQ, ...]
    coefficients: tuple[RatFunc, ...]

    def to_json(self) -> dict:
        return {
            "derivation": self.derivation,
            "basis": [matrix_to_json(m) for m in self.basis],
            "coefficients": self.coefficients,
        }


def _is_nilpotent_jordan_block(a: MatrixQ) -> bool:
    return a == jordan_nilpotent(len(a))


def _peel_jordan_block(T: Derivation) -> tuple[tuple[MatrixQ, ...], tuple[RatFunc, ...]]:
    """Triangular peeling against the shift-power derivations.

    Solving g_i = sum_{k<=i} phi_k x_(i-k+1) top down gives every phi_k
    the denominator x1^(k+1); working with the numerators directly,
    p_i = g_i x1^i - sum_{k<i} p_k x_(i-k+1) x1^(i-1-k), keeps every
    intermediate a polynomial of modest degree.  Constancy of the
    coefficients is verified by the caller.
    """
    n = T.nvars
    xs = Poly.variables(n)
    x1_powers = [Poly.constant(n, 1)]  # x1**0 .. x1**n, each built once
    for _ in range(n):
        x1_powers.append(x1_powers[-1] * xs[0])
    nums: list[Poly] = []
    phis: list[RatFunc] = []
    for i in range(n):
        p = T.coeffs[i] * x1_powers[i]
        for k in range(i):
            p = p - nums[k] * xs[i - k] * x1_powers[i - 1 - k]
        nums.append(p)
        phis.append(RatFunc(p, x1_powers[i + 1]))
    return shift_powers(n), tuple(phis)


def decompose_over_constants(T: Derivation, a: MatrixQ) -> FDecomposition:
    """Write T as sum phi_j * (derivation of B_j) with D-constant phi_j.

    D is the linear derivation of `a` and the B_j run over a commutant
    basis of `a`.  For the nilpotent lower-shift block the coefficients
    come from exact triangular peeling.  Otherwise the n x m system
    sum_j phi_j (B_j x)_i = T_i is solved by fraction-free elimination
    over Q[x]: each pivot unknown is its right-hand entry over its
    diagonal entry, and every diagonal entry is the same minor, so all
    coefficients share one denominator.  Free unknowns are set to zero;
    an inconsistent system raises InternalInconsistencyError, since a
    commuting T always lies in the span.  Every coefficient is checked
    to be annihilated by D before returning.
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
        columns = [linear_derivation(b).coeffs for b in basis]
        m = len(columns)
        rows = [[col[i] for col in columns] + [T.coeffs[i]] for i in range(n)]
        pivots = linalg.fraction_free_eliminate(rows, m)
        if any(row[m] for row in rows[len(pivots):]):
            raise InternalInconsistencyError(
                "commuting derivation does not lie in the commutant span"
            )
        phis = [RatFunc.constant(n, 0)] * m
        for row, p in zip(rows, pivots):
            phis[p] = RatFunc(row[m], row[p])
    for phi in phis:
        if not annihilates_ratfunc(D, phi):
            raise InternalInconsistencyError(
                "solved coefficient is not a constant of the derivation"
            )
    return FDecomposition(T, basis, tuple(phis))


def verify_decomposition(dec: FDecomposition, D: Derivation) -> bool:
    """Check constancy of every coefficient and the recombination identity.

    The recombination is compared after clearing denominators, so no
    polynomial division is needed: each phi_j is rewritten as num_j/P_j
    with P_j the primitive part of its denominator, and with Q the
    product of the distinct P_j, Q*g_i must equal
    sum_j num_j * (Q/P_j) * (B_j x)_i.  Coefficients from one elimination
    share their denominator up to a scalar, so it enters Q once.  Each
    num_j * (Q/P_j) is formed once for all i, and a zero coefficient
    adds nothing.
    """
    n = dec.derivation.nvars
    if len(dec.coefficients) != len(dec.basis):
        return False
    for phi in dec.coefficients:
        if not annihilates_ratfunc(D, phi):
            return False
    nums, prims = [], []
    for phi in dec.coefficients:
        num, den = phi.num, phi.den
        prim = den.primitive_part()
        if prim != den:
            num = num * Fraction(prim.leading_coefficient(), den.leading_coefficient())
        nums.append(num)
        prims.append(prim)
    one = Poly.constant(n, 1)
    dens = list(dict.fromkeys(prims))
    common = prod(dens, start=one)
    cofactors = {d: prod((e for e in dens if e is not d), start=one) for d in dens}
    terms = [
        (num * cofactors[prim], linear_derivation(b))
        for num, prim, b in zip(nums, prims, dec.basis)
        if num
    ]
    for i in range(n):
        lhs = dec.derivation.coeffs[i] * common
        rhs = Poly.zero(n)
        for scaled, bd in terms:
            if bd.coeffs[i]:
                rhs = rhs + scaled * bd.coeffs[i]
        if lhs != rhs:
            return False
    return True
