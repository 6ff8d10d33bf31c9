"""Linear derivations, matrix commutants, decomposition over constants."""

from fractions import Fraction

import pytest

from dercent.derivation import Derivation, annihilates_ratfunc
from dercent.errors import PreconditionError
from dercent.linearder import (
    CommutantBasis,
    FDecomposition,
    decompose_over_constants,
    jordan_nilpotent,
    linear_derivation,
    matrix,
    matrix_commutant,
    matrix_commutator,
    matrix_from_json,
    matrix_identity,
    matrix_mul,
    matrix_to_json,
    nilpotent_power_derivations,
    shift_powers,
    verify_decomposition,
)
from dercent.oracle import kernel_power_basis
from dercent.poly import Poly
from dercent.ratfunc import RatFunc
from dercent.weitzenboeck import weitzenboeck_derivation

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
        assert set(basis.matrices) == set(powers)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_shift_powers_are_matrix_powers(self, n):
        powers = [matrix_identity(n)]
        for _ in range(n - 1):
            powers.append(matrix_mul(powers[-1], jordan_nilpotent(n)))
        assert shift_powers(n) == powers

    def test_distinct_diagonal(self):
        basis = matrix_commutant(matrix([[1, 0], [0, 2]]))
        assert len(basis) == 2
        for b in basis.matrices:
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
        for b in matrix_commutant(a).matrices:
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
    def test_n3_sequence(self):
        v0, v1, v2 = nilpotent_power_derivations(3)
        assert v0 == Derivation((x1, x2, x3))
        assert v1 == D3
        assert v2 == Derivation((Poly.zero(3), Poly.zero(3), x1))

    def test_all_commute_with_weitzenboeck(self):
        for v in nilpotent_power_derivations(5):
            assert v.commutes(weitzenboeck_derivation(5))


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


class TestVerifyDecomposition:
    def test_rejects_nonconstant_coefficient(self):
        basis = CommutantBasis((matrix_identity(3),))
        euler = Derivation((x1, x2, x3))
        bad = FDecomposition(euler, basis, (RatFunc(x2, x1),))
        assert not verify_decomposition(bad, D3)

    def test_rejects_wrong_recombination(self):
        basis = CommutantBasis((matrix_identity(3),))
        bad = FDecomposition(D3, basis, (RatFunc.constant(3, 1),))
        assert not verify_decomposition(bad, D3)

    def test_zero_derivation_all_zero(self):
        basis = CommutantBasis((matrix_identity(3),))
        dec = FDecomposition(Derivation.zero(3), basis, (RatFunc.constant(3, 0),))
        assert verify_decomposition(dec, D3)


class TestKernelMultiplesCommute:
    def test_easy_inclusion(self):
        # f * (derivation of B) commutes with D for every commutant
        # element B and kernel element f.
        kernel = kernel_power_basis(D3, 1, 3).vectors
        for b in matrix_commutant(J3).matrices:
            for f in kernel:
                assert D3.commutes(linear_derivation(b) * f)
