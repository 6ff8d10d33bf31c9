"""Derivations: action, bracket, conjugation, constants that are rational functions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dercent.derivation import (
    Derivation,
    PolyAutomorphism,
    annihilates_ratfunc,
    conjugate,
)
import dercent.poly as poly_mod
from dercent.errors import DimensionError, PreconditionError, ResourceLimitError
from dercent.linearder import linear_derivation, matrix
from dercent.oracle import centralizer_basis
from dercent.poly import Poly
from dercent.ratfunc import RatFunc
from dercent.registry import registry_entry
from dercent.weitzenboeck import commuting_derivation, weitzenboeck_derivation
from test_poly import keyed_poly_st, nvars_st, poly_st, small_fraction

from support import random_derivation, random_poly, reference_apply, tuple_terms

x1, x2, x3 = Poly.variables(3)
a2 = x1 * x3 - Fraction(1, 2) * x2**2
D3 = weitzenboeck_derivation(3)


def derivation_st(nvars=3, max_degree=2):
    return st.builds(
        lambda *cs: Derivation(tuple(cs)),
        *[poly_st(nvars, max_degree=max_degree, max_terms=3) for _ in range(nvars)],
    )


class TestApply:
    def test_weitzenboeck_shifts(self):
        assert D3(x2) == x1
        assert D3(x3) == x2
        assert not D3(x1)

    def test_kernel_generator(self):
        assert not D3(a2)

    def test_constants_killed(self):
        rng = random.Random(3)
        for _ in range(10):
            T = random_derivation(rng, 3)
            assert not T(Poly.constant(3, Fraction(5, 7)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            D3(Poly.variable(2, 0))


class TestApplyAgainstTupleReference:
    @given(data=st.data(), n=nvars_st)
    def test_matches_the_tuple_keyed_loop(self, data, n):
        D = Derivation(tuple(data.draw(keyed_poly_st(n, 8, max_terms=3)) for _ in range(n)))
        f = data.draw(keyed_poly_st(n, 48))
        expected = reference_apply([tuple_terms(c) for c in D.coeffs], tuple_terms(f))
        assert tuple_terms(D(f)) == expected
        assert D(f) == D(f)  # the kept action gives the same again

    def test_image_past_the_cap_raises(self):
        D = Derivation((x1**64, Poly.zero(3), Poly.zero(3)))
        assert D(x1) == x1**64  # degree 64, at the cap
        with pytest.raises(ResourceLimitError):
            D(x1**2)  # degree 65

    def test_only_the_image_is_held_to_the_cap(self):
        # x1^64 d2 annihilates x1^2, and terms past the cap may cancel
        D = Derivation((Poly.zero(3), x1**64, Poly.zero(3)))
        assert D(x1**2) == Poly.zero(3)
        with pytest.raises(ResourceLimitError):
            D(x2**2)  # 2*x1^64*x2, degree 65
        E = Derivation((x2 * x1**63, -(x1**64), Poly.zero(3)))
        assert E(x1**2 + x2**2) == Poly.zero(3)

    def test_a_product_past_the_field_width_raises(self):
        # x1^200 d2 on x1^100*x2 would need a key for x1^300
        D = Derivation((Poly.zero(3), Poly(3, {(200, 0, 0): 1}), Poly.zero(3)))
        assert D(Poly(3, {(100, 0, 0): 1})) == Poly.zero(3)
        with pytest.raises(ResourceLimitError):
            D(Poly(3, {(100, 1, 0): 1}))

    def test_cap_raised_past_the_field_width(self, monkeypatch):
        monkeypatch.setattr(poly_mod, "DEGREE_CAP", poly_mod.FIELD_LIMIT)
        with pytest.raises(ResourceLimitError):
            D3(x3)


def linear_poly_st(n):
    """c + sum a_j x_j with int, Fraction and zero coefficients."""
    coeff = st.one_of(st.just(0), st.integers(-30, 30), small_fraction())
    return st.lists(coeff, min_size=n + 1, max_size=n + 1).map(
        lambda cs: Poly(n, {tuple(int(i == j) for i in range(n)): c
                            for j, c in enumerate(cs[:n])} | {(0,) * n: cs[n]})
    )


class TestApplyLinearForm:
    """An argument of degree <= 1 is read by its coefficients, not the steps."""

    @given(data=st.data(), n=st.integers(1, 8))
    def test_matches_the_step_loop(self, data, n):
        D = Derivation(tuple(data.draw(keyed_poly_st(n, 6, max_terms=3)) for _ in range(n)))
        f = data.draw(linear_poly_st(n))
        image = D(f)
        assert "_action_cache" not in D.__dict__
        assert tuple_terms(image) == tuple_terms(D._apply_steps(f, f.total_degree()))
        assert all(c for _, c in image.iter_terms())

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_commutes_builds_no_action_of_the_ladder(self, n):
        D = weitzenboeck_derivation(n)
        T = commuting_derivation(registry_entry(n).generators[-1], n)
        assert T.commutes(D)
        assert "_action_cache" not in T.__dict__

    def test_image_past_a_lowered_cap_raises(self, monkeypatch):
        D = Derivation((x1**3, x2, Poly.zero(3)))
        E = Derivation((x1**3, -(x1**3), Poly.zero(3)))
        monkeypatch.setattr(poly_mod, "DEGREE_CAP", 2)
        assert D(2 * x2 + 5) == 2 * x2
        for apply in (D, lambda f: D._apply_steps(f, 1)):
            with pytest.raises(ResourceLimitError, match="image degree 3 exceeds cap 2"):
                apply(x1 + x2)
        # terms past the cap may cancel
        assert E(x1 + x2) == Poly.zero(3)

    def test_a_coefficient_past_the_field_width_raises(self):
        D = Derivation((Poly(3, {(200, 100, 0): 1}), Poly.zero(3), Poly.zero(3)))
        for apply in (D, lambda f: D._apply_steps(f, 1)):
            with pytest.raises(ResourceLimitError, match="degree 256 or more"):
                apply(x1)


class TestBracket:
    def test_self_bracket_vanishes(self):
        assert D3.bracket(D3).is_zero()

    def test_commuting_example(self):
        T = Derivation((Poly.zero(3), x1, x2))
        assert D3.bracket(T).is_zero()

    def test_partial_one_does_not_commute(self):
        d1 = Derivation.partial(3, 0)
        d2 = Derivation.partial(3, 1)
        assert D3.bracket(d1) == -d2

    def test_commutes_with_scalar_multiple(self):
        assert D3.commutes(D3 * Fraction(7, 2))
        assert D3.commutes(Derivation.partial(3, 2))
        assert not D3.commutes(Derivation.partial(3, 0))


class TestSplit:
    def test_block_diagonal_centralizer_splits(self):
        # D with f1, f2 in K[x1, x2] and f3, f4 in K[x3, x4]: both parts
        # g1*d1 + g2*d2 and g3*d3 + g4*d4 of any commuting derivation
        # commute as well.
        a = matrix(
            [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]
        )
        D = linear_derivation(a)
        zero = Poly.zero(4)
        for T in centralizer_basis(D, 2):
            g = T.coeffs
            assert D.commutes(Derivation((g[0], g[1], zero, zero)))
            assert D.commutes(Derivation((zero, zero, g[2], g[3])))


class TestAutomorphism:
    def shear(self):
        return PolyAutomorphism(
            (x1, x2 + x1**2, x3), (x1, x2 - x1**2, x3)
        )

    def test_identity_conjugation(self):
        assert conjugate(D3, PolyAutomorphism.identity(3)) == D3

    def test_invalid_inverse_rejected(self):
        with pytest.raises(PreconditionError):
            PolyAutomorphism((x1, x2 + x1**2, x3), (x1, x2 + x1**2, x3))

    def test_kernel_transport(self):
        phi = self.shear()
        E = conjugate(D3, phi)
        assert not E(phi.apply_inverse(a2))
        assert not E(phi.apply_inverse(x1))

    def test_conjugation_round_trip(self):
        phi = self.shear()
        assert conjugate(conjugate(D3, phi), phi.inverse()) == D3

    def test_action_law(self):
        phi = self.shear()
        E = conjugate(D3, phi)
        rng = random.Random(5)
        for _ in range(25):
            f = random_poly(rng, 3, max_degree=3)
            assert E(f) == phi.apply_inverse(D3(phi(f)))

    def test_centralizer_transport(self):
        phi = self.shear()
        E = conjugate(D3, phi)
        for T in centralizer_basis(D3, 2):
            assert E.commutes(conjugate(T, phi))

    def test_conjugation_of_polynomial_multiples(self):
        # conjugating f*D multiplies the conjugate of D by the pullback of f
        phi = self.shear()
        rng = random.Random(8)
        for _ in range(15):
            f = random_poly(rng, 3, max_degree=2)
            lhs = conjugate(D3 * f, phi)
            rhs = conjugate(D3, phi) * phi.apply_inverse(f)
            assert lhs == rhs

    def test_json_round_trip(self):
        phi = self.shear()
        assert PolyAutomorphism.from_json(phi.to_json()) == phi


class TestRatFuncAction:
    def test_quotient_rule_numerator(self):
        # D(x2/x1) = (x1*x1 - x2*0)/x1^2 is not zero
        assert not annihilates_ratfunc(D3, RatFunc(x2, x1))

    def test_constant_detected(self):
        assert annihilates_ratfunc(D3, RatFunc(a2, x1))
        assert annihilates_ratfunc(D3, RatFunc(x1**3, a2))


class TestProperties:
    @given(T=derivation_st(), f=poly_st(), g=poly_st())
    def test_leibniz(self, T, f, g):
        assert T(f * g) == T(f) * g + f * T(g)

    @given(A=derivation_st(max_degree=1), B=derivation_st(max_degree=1))
    def test_antisymmetry(self, A, B):
        assert A.bracket(B) == -(B.bracket(A))

    @given(
        A=derivation_st(max_degree=1),
        B=derivation_st(max_degree=1),
        C=derivation_st(max_degree=1),
    )
    def test_jacobi(self, A, B, C):
        total = (
            A.bracket(B).bracket(C)
            + B.bracket(C).bracket(A)
            + C.bracket(A).bracket(B)
        )
        assert total.is_zero()

    @given(A=derivation_st(), B=derivation_st())
    def test_commutes_iff_bracket_zero(self, A, B):
        assert A.commutes(B) == A.bracket(B).is_zero()

    @given(B=derivation_st())
    def test_coefficientwise_commutation_criterion(self, B):
        # commutation with D is equivalent to D(gi) = T(fi) for all i
        lhs = D3.commutes(B)
        rhs = all(
            D3(B.coeffs[i]) == B(D3.coeffs[i]) for i in range(3)
        )
        assert lhs == rhs

    @given(T=derivation_st())
    def test_json_round_trip(self, T):
        assert Derivation.from_json(T.to_json()) == T
