"""Linear derivations, matrix commutants, decomposition over constants."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dercent import linalg
from dercent.derivation import Derivation, annihilates_ratfunc
from dercent.errors import PreconditionError
from dercent.linearder import (
    FDecomposition,
    decompose_over_constants,
    jordan_nilpotent,
    linear_derivation,
    matrix,
    matrix_commutant,
    matrix_from_json,
    matrix_to_json,
    shift_powers,
    verify_decomposition,
)
from dercent.oracle import kernel_power_basis
from dercent.poly import Poly
from dercent.ratfunc import RatFunc
from dercent.weitzenboeck import weitzenboeck_derivation

from support import (
    dense,
    matrix_commutator,
    matrix_identity,
    matrix_mul,
    reference_decompose,
    sparse,
)

x1, x2, x3 = Poly.variables(3)
a2 = x1 * x3 - Fraction(1, 2) * x2**2
D3 = weitzenboeck_derivation(3)
J3 = jordan_nilpotent(3)


class TestLinearDerivation:
    def test_jordan_block_gives_weitzenboeck(self):
        assert linear_derivation(J3) == D3

    def test_identity_gives_euler(self):
        euler = linear_derivation(matrix_identity(3))
        assert euler == Derivation((x1, x2, x3))

    def test_zero_matrix(self):
        z = matrix([[0, 0], [0, 0]])
        assert linear_derivation(z).is_zero()

    def test_json_round_trip(self):
        a = matrix([[1, Fraction(-1, 2)], [0, 3]])
        assert matrix_from_json(matrix_to_json(a)) == a


class TestCommutant:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_jordan_block_dimension(self, n):
        basis = matrix_commutant(jordan_nilpotent(n))
        assert len(basis) == n

    def test_jordan_block_span_is_shift_powers(self):
        basis = matrix_commutant(J3)
        powers = [matrix_identity(3)]
        for _ in range(2):
            powers.append(matrix_mul(powers[-1], J3))
        assert set(basis) == set(powers)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_shift_powers_are_matrix_powers(self, n):
        powers = [matrix_identity(n)]
        for _ in range(n - 1):
            powers.append(matrix_mul(powers[-1], jordan_nilpotent(n)))
        assert shift_powers(n) == tuple(powers)

    def test_distinct_diagonal(self):
        basis = matrix_commutant(matrix([[1, 0], [0, 2]]))
        assert len(basis) == 2
        for b in basis:
            assert b[0][1] == 0 and b[1][0] == 0

    def test_zero_matrix_full_algebra(self):
        assert len(matrix_commutant(matrix([[0, 0], [0, 0]]))) == 4

    @pytest.mark.parametrize(
        "entries",
        [
            [[1, 2], [3, 4]],
            [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
            [[2, 0, 0], [1, 2, 0], [0, 0, 5]],
        ],
    )
    def test_basis_elements_commute_exactly(self, entries):
        a = matrix(entries)
        for b in matrix_commutant(a):
            assert matrix_commutator(a, b) == tuple(
                tuple(Fraction(0) for _ in row) for row in a
            )


class TestMatrixBracketCorrespondence:
    def test_bracket_matches_matrix_commutator(self):
        # The commutator of the derivations of A and B is the derivation
        # of BA - AB under the row convention used here.
        a = matrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        b = matrix([[0, 2, 0], [0, 0, 2], [0, 0, 0]])
        lhs = linear_derivation(a).bracket(linear_derivation(b))
        assert lhs == linear_derivation(matrix_commutator(b, a))
        assert lhs != linear_derivation(matrix_commutator(a, b))


class TestNilpotentPowers:
    """The derivations of the shift powers N^0, ..., N^(n-1)."""

    def test_n3_sequence(self):
        v0, v1, v2 = [linear_derivation(p) for p in shift_powers(3)]
        assert v0 == Derivation((x1, x2, x3))
        assert v1 == D3
        assert v2 == Derivation((Poly.zero(3), Poly.zero(3), x1))

    def test_all_commute_with_weitzenboeck(self):
        for p in shift_powers(5):
            assert linear_derivation(p).commutes(weitzenboeck_derivation(5))


class TestDecomposeJordanBlock:
    def test_weitzenboeck_itself(self):
        dec = decompose_over_constants(D3, J3)
        assert dec.coefficients[0].is_zero()
        assert dec.coefficients[1] == 1
        assert dec.coefficients[2].is_zero()

    def test_known_quadratic_generator(self):
        T = Derivation((8 * x1**2, 8 * x1 * x2, 4 * x2**2))
        dec = decompose_over_constants(T, J3)
        phi0, phi1, phi2 = dec.coefficients
        assert phi0 == 8 * x1
        assert phi1.is_zero()
        assert phi2 == RatFunc(4 * x2**2 - 8 * x1 * x3, x1)
        assert phi2 == RatFunc(-8 * a2, x1)
        assert verify_decomposition(dec, D3)

    def test_coefficients_are_constants(self):
        T = Derivation((Poly.zero(3), x1, x2))
        dec = decompose_over_constants(T, J3)
        for phi in dec.coefficients:
            assert annihilates_ratfunc(D3, phi)

    def test_noncommuting_rejected(self):
        with pytest.raises(PreconditionError):
            decompose_over_constants(Derivation.partial(3, 0), J3)

    def test_round_trip_on_kernel_ladder(self):
        for f in kernel_power_basis(D3, 3, 2).vectors:
            chain = [f, D3(f), D3(D3(f))]
            T = Derivation((chain[2], chain[1], chain[0]))
            dec = decompose_over_constants(T, J3)
            assert verify_decomposition(dec, D3)

    def test_denominators_stay_small_for_larger_blocks(self):
        # peeling must not compound denominators; the k-th coefficient
        # carries exactly x1^(k+1)
        from dercent.oracle import centralizer_basis
        from dercent.weitzenboeck import weitzenboeck_derivation

        n = 6
        D = weitzenboeck_derivation(n)
        block = jordan_nilpotent(n)
        x1 = Poly.variable(n, 0)
        for T in centralizer_basis(D, 2):
            dec = decompose_over_constants(T, block)
            assert verify_decomposition(dec, D)
            for k, phi in enumerate(dec.coefficients):
                assert phi.den.total_degree() <= k + 1


class TestDecomposeGeneralMatrix:
    def test_diagonal(self):
        a = matrix([[1, 0], [0, 2]])
        T = linear_derivation(a)
        dec = decompose_over_constants(T, a)
        assert verify_decomposition(dec, T)

    def test_euler_with_polynomial_input(self):
        a = matrix_identity(2)
        euler = linear_derivation(a)
        y1 = Poly.variable(2, 0)
        T = Derivation((y1, Poly.zero(2)))
        assert T.commutes(euler)
        dec = decompose_over_constants(T, a)
        assert verify_decomposition(dec, euler)

    def test_two_block_nilpotent(self):
        a = matrix([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]])
        D = linear_derivation(a)
        dec = decompose_over_constants(D, a)
        assert verify_decomposition(dec, D)


# Off the peel path, decompose_over_constants solves fraction-free over Q[x].
# Its coefficients must equal those of the elimination over Q(x) in
# support.reference_decompose and, where the decomposition is
# unique (a commutant of dimension n), the coefficients T was built from.
# The reference takes 15-20 s per random 4x4 case, so it runs at n = 3 and
# on the structured cases only.

small_ints = st.integers(-2, 2)
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def powers(a):
    out = [matrix_identity(len(a))]
    for _ in range(len(a) - 1):
        out.append(matrix_mul(out[-1], a))
    return out


def inverse(p):
    n = len(p)
    columns = [sparse([p[i][j] for i in range(n)]) for j in range(n)]
    units = [{k: 1} for k in range(n)]
    inverse_columns = [dense(v, n) for v in linalg.solve_many(columns, units)]
    return matrix([[inverse_columns[k][i] for k in range(n)] for i in range(n)])


def combine(coeffs, mats):
    """sum_j coeffs[j] * D_(mats[j]), the coefficients polynomials."""
    n = len(mats[0])
    T = Derivation.zero(n)
    for c, m in zip(coeffs, mats):
        T = T + linear_derivation(m) * c
    return T


def coordinates(mats, basis):
    """Rational M with mats[j] = sum_k M[j][k] * basis[k]."""
    def flat(m):
        return sparse([x for row in m for x in row])

    return [dense(v, len(basis))
            for v in linalg.solve_many([flat(b) for b in basis], [flat(m) for m in mats])]


def check_decomposition(T, a, coeffs=None, mats=None, reference=True):
    """Verify the decomposition of T; compare it with T's own coefficients
    (when T = sum coeffs[j] * D_(mats[j]) and the commutant has dimension
    n) and with the reference solve."""
    n = len(a)
    dec = decompose_over_constants(T, a)
    assert verify_decomposition(dec, linear_derivation(a))
    basis = dec.basis
    if coeffs is not None and len(basis) == n:
        m = coordinates(mats, basis)
        for k, phi in enumerate(dec.coefficients):
            expected = sum((c * row[k] for c, row in zip(coeffs, m)), Poly.zero(n))
            assert phi == expected
    if reference:
        expected = reference_decompose(T, a)
        assert len(expected) == len(dec.coefficients)
        for phi, e in zip(dec.coefficients, expected):
            assert phi == e
    return dec


def integer_matrices(n):
    row = st.lists(small_ints, min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n).map(matrix)


def solve_path_matrices(n):
    """Random integer matrices other than the lower shift."""
    return integer_matrices(n).filter(lambda a: a != jordan_nilpotent(n))


@st.composite
def conjugated_jordan(draw, n):
    """(A, l): A = P J P^-1 for a random invertible integer P, and the
    linear constant l = (P^-1 x)_1 of D_A."""
    p = draw(integer_matrices(n))
    assume(linalg.rank([sparse(row) for row in p], n) == n)
    p_inv = inverse(p)
    a = matrix_mul(matrix_mul(p, jordan_nilpotent(n)), p_inv)
    assume(a != jordan_nilpotent(n))
    xs = Poly.variables(n)
    return a, sum((c * x for c, x in zip(p_inv[0], xs)), Poly.zero(n))


class TestDecomposeFractionFree:
    @given(solve_path_matrices(3), st.lists(rationals, min_size=3, max_size=3))
    def test_random_matrices_n3(self, a, q):
        check_decomposition(combine(q, powers(a)), a, q, powers(a))

    @settings(max_examples=8)
    @given(solve_path_matrices(4), st.lists(rationals, min_size=4, max_size=4))
    def test_random_matrices_n4(self, a, q):
        check_decomposition(combine(q, powers(a)), a, q, powers(a), reference=False)

    @settings(max_examples=20)
    @given(conjugated_jordan(3), st.lists(rationals, min_size=6, max_size=6))
    def test_conjugated_jordan_n3(self, case, r):
        a, ell = case
        q = [r[2 * j] + r[2 * j + 1] * ell for j in range(3)]
        check_decomposition(combine(q, powers(a)), a, q, powers(a))

    @settings(max_examples=6)
    @given(conjugated_jordan(4), st.lists(rationals, min_size=8, max_size=8))
    def test_conjugated_jordan_n4(self, case, r):
        a, ell = case
        q = [r[2 * j] + r[2 * j + 1] * ell for j in range(4)]
        check_decomposition(combine(q, powers(a)), a, q, powers(a), reference=False)

    @pytest.mark.parametrize("c", [1, 3, 7])
    def test_shift_plus_corner(self, c):
        # A = J + c*E_14: the elimination over Q(x) passes DEGREE_CAP here
        a = matrix([[0, 0, 0, c], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        q = [Fraction(1, 2), -3, Fraction(2, 3), 5]
        dec = check_decomposition(combine(q, powers(a)), a, q, powers(a),
                                  reference=False)
        assert len({phi.den.primitive_part() for phi in dec.coefficients}) == 1

    @settings(max_examples=10)
    @pytest.mark.parametrize(
        "entries, constants",
        [
            # distinct eigenvalues; x1*x2 is a constant
            ([[1, 0, 0], [0, -1, 0], [0, 0, 2]], ((1, 1, 0),)),
            # a repeated eigenvalue: a commutant of dimension 5
            ([[2, 0, 0], [0, 2, 0], [0, 0, -1]], ((1, 0, 2), (0, 1, 2))),
            # the full commutant
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], ()),
            ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], ()),
            # two blocks: J2 + J2 and J2 + (1)
            ([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]],
             ((1, 0, 0, 0), (0, 0, 1, 0))),
            ([[0, 0, 0], [1, 0, 0], [0, 0, 1]], ((1, 0, 0),)),
        ],
    )
    @given(st.data())
    def test_structured_matrices(self, entries, constants, data):
        # T = sum_k c_k * D_(B_k) over the commutant basis, each c_k a
        # rational plus a rational multiple of a monomial constant of D_A
        a = matrix(entries)
        n = len(a)
        basis = matrix_commutant(a)
        monomials = [Poly(n, {exp: 1}) for exp in constants] or [Poly.zero(n)]
        multipliers = st.sampled_from(monomials)
        coeffs = [
            data.draw(rationals) + data.draw(rationals) * data.draw(multipliers)
            for _ in basis
        ]
        check_decomposition(combine(coeffs, basis), a, coeffs, basis)


class TestVerifyDecomposition:
    def test_rejects_nonconstant_coefficient(self):
        basis = (matrix_identity(3),)
        euler = Derivation((x1, x2, x3))
        bad = FDecomposition(euler, basis, (RatFunc(x2, x1),))
        assert not verify_decomposition(bad, D3)

    def test_rejects_wrong_recombination(self):
        basis = (matrix_identity(3),)
        bad = FDecomposition(D3, basis, (RatFunc.constant(3, 1),))
        assert not verify_decomposition(bad, D3)

    def test_zero_derivation_all_zero(self):
        basis = (matrix_identity(3),)
        dec = FDecomposition(Derivation.zero(3), basis, (RatFunc.constant(3, 0),))
        assert verify_decomposition(dec, D3)


class TestKernelMultiplesCommute:
    def test_easy_inclusion(self):
        # f * (derivation of B) commutes with D for every commutant
        # element B and kernel element f.
        kernel = kernel_power_basis(D3, 1, 3).vectors
        for b in matrix_commutant(J3):
            for f in kernel:
                assert D3.commutes(linear_derivation(b) * f)
