"""Exact polynomial arithmetic: examples, invariants, and guards."""

import gc
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import dercent.poly as poly_mod
from dercent.derivation import Derivation
from dercent.errors import DimensionError, NotDivisibleError, ResourceLimitError
from dercent.poly import (
    FIELD_LIMIT,
    JSONText,
    Poly,
    monomial_key,
    monomials_of_degree,
    poly_divexact,
)

from support import (
    grlex_key,
    monomials_up_to_degree,
    reference_add,
    reference_divexact,
    reference_evaluate,
    reference_monomials_of_degree,
    reference_mul,
    reference_order,
    reference_partial,
    reference_primitive_part,
    tuple_terms,
)

x1, x2, x3 = Poly.variables(3)
a2 = x1 * x3 - Fraction(1, 2) * x2**2


def partial(p, index):
    """d/dx_(index+1) of p, applied as the coordinate derivation."""
    return Derivation.partial(p.nvars, index)(p)


def small_fraction():
    return st.fractions(min_value=-4, max_value=4, max_denominator=3)


def poly_st(nvars=3, max_degree=3, max_terms=4):
    exponent = st.sampled_from(monomials_up_to_degree(nvars, max_degree))
    items = st.lists(st.tuples(exponent, small_fraction()), max_size=max_terms)

    def build(pairs):
        terms: dict = {}
        for exp, c in pairs:
            terms[exp] = terms.get(exp, 0) + c
        return Poly(nvars, terms)

    return st.builds(build, items)


def exponent_st(nvars, max_degree):
    """Exponent tuples of total degree <= max_degree, any split of it."""

    def split(degree):
        cuts = st.lists(st.integers(0, degree), min_size=nvars - 1, max_size=nvars - 1)
        return cuts.map(lambda c: tuple(b - a for a, b in zip([0, *sorted(c)],
                                                             [*sorted(c), degree])))

    return st.integers(0, max_degree).flatmap(split)


def keyed_poly_st(nvars, max_degree, max_terms=5, integral=False):
    """Polys over many exponent shapes, up to half the degree cap or more;
    int coefficients, or ints and fractions mixed."""
    coeff = st.integers(-30, 30) if integral else st.one_of(st.integers(-30, 30),
                                                            small_fraction())
    terms = st.dictionaries(exponent_st(nvars, max_degree), coeff, max_size=max_terms)
    return terms.map(lambda t: Poly(nvars, t))


nvars_st = st.integers(1, 5)

class TestArithmeticExamples:
    def test_additive_inverse(self):
        assert x1 + (-x1) == Poly.zero(3)
        assert not (x1 - x1)

    def test_scalar_distributes(self):
        assert a2 * 2 == 2 * x1 * x3 - x2**2

    def test_exponent_addition(self):
        assert x2 * x2 == x2**2
        assert (x2 * x2).coefficient((0, 2, 0)) == 1

    def test_nvars_mismatch(self):
        with pytest.raises(DimensionError):
            x1 * Poly.variable(2, 0)
        with pytest.raises(DimensionError):
            x1 + Poly.variable(4, 0)


class TestPartialDerivative:
    def test_power_rule(self):
        assert partial(a2, 1) == -x2

    def test_constant(self):
        assert not partial(Poly.constant(3, Fraction(7, 3)), 0)

    def test_product_monomial(self):
        assert partial(x1 * x3, 2) == x1

    def test_index_out_of_range(self):
        for index in (3, -1):
            with pytest.raises(DimensionError):
                partial(x1, index)


class TestSubstitute:
    def test_shear(self):
        shear = [x1, x2 + x1**2, x3]
        assert (x1 * x2).substitute(shear) == x1 * x2 + x1**3

    def test_identity(self):
        assert a2.substitute([x1, x2, x3]) == a2

    def test_swap(self):
        y1, y2 = Poly.variables(2)
        assert (y2**2).substitute([y2, y1]) == y1**2

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            x1.substitute([x1, x2])


class TestEvaluate:
    def test_kernel_point(self):
        assert a2.evaluate([1, 2, 2]) == 0

    def test_zero_poly(self):
        assert Poly.zero(3).evaluate([5, -1, 7]) == 0

    def test_single_variable(self):
        y = Poly.variable(1, 0)
        assert (y**2).evaluate([3]) == 9

    def test_exactness(self):
        assert a2.evaluate([Fraction(1, 3), 1, 2]) == Fraction(1, 6)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            x1.evaluate([1, 2])

    def test_float_point_rejected(self):
        with pytest.raises(TypeError):
            a2.evaluate([1, 0.5, 2])

    @given(
        # poly_st mixes int and Fraction coefficients and includes zero
        p=poly_st(),
        point=st.one_of(
            st.lists(st.integers(-(10**6), 10**6), min_size=3, max_size=3),
            st.lists(st.fractions(max_denominator=10**3), min_size=3, max_size=3),
        ),
    )
    @example(p=a2, point=[0, 0, 0])
    @example(p=x1**3 - 7 * x2 * x3, point=[10**6, -(10**6), 3])
    @example(p=Poly.zero(3), point=[Fraction(1, 3), 0, -(10**6)])
    def test_matches_reference(self, p, point):
        value = p.evaluate(point)
        assert value == reference_evaluate(p, point)
        assert type(value) is Fraction


class TestCanonicalForm:
    def test_no_zero_terms_stored(self):
        p = Poly(2, {(1, 0): 1, (0, 1): 0})
        assert len(p.terms()) == 1

    def test_graded_lex_order(self):
        p = x3 + x1 * x3 + x2**2 + x1**2 + 1
        exps = [e for e, _ in p.terms()]
        assert exps == [(2, 0, 0), (1, 0, 1), (0, 2, 0), (0, 0, 1), (0, 0, 0)]
        assert exps == sorted(exps, key=grlex_key, reverse=True)

    def test_leading_data(self):
        assert a2.leading_monomial() == (1, 0, 1)
        assert a2.leading_coefficient() == 1
        with pytest.raises(ValueError):
            Poly.zero(3).leading_monomial()

    def test_content_and_primitive(self):
        p = Fraction(4, 3) * x1 - 2 * x2
        assert p.content() == Fraction(2, 3)
        prim = p.primitive_part()
        assert prim == 2 * x1 - 3 * x2
        assert (-prim).primitive_part() == prim

    def test_int_and_fraction_coefficients_agree(self):
        p = Poly(2, {(1, 0): 2})
        q = Poly(2, {(1, 0): Fraction(2)})
        assert p == q and hash(p) == hash(q)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Poly(2, {(1, 0): 0.5})

    def test_immutable(self):
        with pytest.raises(AttributeError):
            x1.nvars = 5

    def test_homogeneous_components(self):
        # a sum of components of degrees 0, 1 and 2 is not homogeneous
        assert all(c.is_homogeneous() for c in (Poly.constant(3, 3), x1, x2**2, a2))
        assert Poly.zero(3).is_homogeneous()
        assert not (x1 + x2**2 + 3).is_homogeneous()


class TestMonomialContent:
    def test_common_factor(self):
        p = x1**2 * x3 + x1 * x2 * x3**2
        assert p.monomial_content() == (1, 0, 1)
        assert p.divide_by_monomial((1, 0, 1)) == x1 + x2 * x3

    def test_no_common_factor(self):
        assert a2.monomial_content() == (0, 0, 0)

    def test_zero_poly(self):
        assert Poly.zero(3).monomial_content() == (0, 0, 0)

    def test_non_divisor_rejected(self):
        with pytest.raises(NotDivisibleError):
            (x1 + x2).divide_by_monomial((1, 0, 0))


class TestConcurrency:
    def test_parallel_products_are_consistent(self):
        # values are immutable and operations pure, so concurrent use
        # from threads must agree with the sequential result
        from concurrent.futures import ThreadPoolExecutor

        p = a2 + x1**2
        q = x2 * x3 - 1
        expected = p * q
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: p * q, range(64)))
        assert all(r == expected for r in results)


class TestDegreeGuard:
    def test_product_guard(self, monkeypatch):
        monkeypatch.setattr(poly_mod, "DEGREE_CAP", 8)
        p = x1**4
        with pytest.raises(ResourceLimitError):
            (p * p) * x1

    def test_pow_guard(self, monkeypatch):
        monkeypatch.setattr(poly_mod, "DEGREE_CAP", 8)
        with pytest.raises(ResourceLimitError):
            x1**9

    def test_substitute_guard(self, monkeypatch):
        monkeypatch.setattr(poly_mod, "DEGREE_CAP", 8)
        with pytest.raises(ResourceLimitError):
            (x1**3).substitute([x2**3, x1, x3])


class TestJson:
    def test_round_trip(self):
        p = Fraction(-1, 2) * x2**2 + x1 * x3 + 7
        data = p.to_json()
        assert Poly.from_json(data) == p
        text = json.dumps(data)
        assert "0.5" not in text and "-1/2" in text

    def test_coeff_strings_are_exact(self):
        data = a2.to_json()
        coeffs = {item["coeff"] for item in data["terms"]}
        assert coeffs == {"1", "-1/2"}

    def test_zero(self):
        assert Poly.from_json(Poly.zero(3).to_json()) == Poly.zero(3)

    def test_text_form_encodes_the_tree(self):
        text = JSONText()  # shared, so later polys reuse exponent texts
        for p in (a2, a2 * x1 - 3, Poly.zero(3), Poly(0, {(): 2}), Poly.zero(0)):
            for level in (0, 2):
                expected = json.dumps(p.to_json(), indent=2, sort_keys=True)
                assert p.to_json(text, level) == expected.replace("\n", "\n" + "  " * level)


class TestMonomialEnumeration:
    def test_of_degree(self):
        monos = monomials_of_degree(3, 2)
        assert len(monos) == 6
        assert monos[0] == (2, 0, 0) and monos[-1] == (0, 0, 2)

    def test_up_to_degree(self):
        assert len(monomials_up_to_degree(3, 2)) == 10
        assert len(monomials_up_to_degree(4, 5)) == 126

    @pytest.mark.parametrize("nvars", range(0, 7))
    def test_order_of_the_recursive_form(self, nvars):
        for degree in range(-1, 6):
            assert monomials_of_degree(nvars, degree) == reference_monomials_of_degree(
                nvars, degree)

    @pytest.mark.parametrize("nvars", range(0, 7))
    def test_negative_degree_has_no_monomials(self, nvars):
        assert monomials_of_degree(nvars, -1) == []

    def test_more_variables_than_the_recursion_limit(self):
        monos = monomials_of_degree(1100, 1)
        assert len(monos) == 1100
        assert monos[0] == (1,) + (0,) * 1099 and monos[-1] == (0,) * 1099 + (1,)

    def test_leaves_no_cyclic_garbage(self):
        gc.collect()
        gc.disable()
        try:
            assert monomials_of_degree(5, 4)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestDivexact:
    def test_exact_factor(self):
        u = (x1 + x2) ** 3
        assert poly_divexact(u, x1 + x2) == (x1 + x2) ** 2

    def test_fraction_coefficients(self):
        u = a2 * (x1 - Fraction(1, 3) * x3)
        assert poly_divexact(u, a2) == x1 - Fraction(1, 3) * x3

    def test_not_divisible(self):
        with pytest.raises(NotDivisibleError):
            poly_divexact(x1 * x3 + 1, x2)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            poly_divexact(x1, Poly.zero(3))


class TestRingAxioms:
    @given(a=poly_st(), b=poly_st(), c=poly_st())
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(a=poly_st(), b=poly_st(), c=poly_st())
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(a=poly_st(), b=poly_st())
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(a=poly_st(), b=poly_st(), i=st.integers(0, 2))
    def test_leibniz(self, a, b, i):
        lhs = partial(a * b, i)
        rhs = partial(a, i) * b + a * partial(b, i)
        assert lhs == rhs

    @given(a=poly_st(max_degree=2), b=poly_st(max_degree=2))
    def test_substitute_is_ring_hom(self, a, b):
        images = [x2, x1 + x3, x1 * x2]
        assert (a * b).substitute(images) == a.substitute(images) * b.substitute(images)
        assert (a + b).substitute(images) == a.substitute(images) + b.substitute(images)

    @given(a=poly_st())
    def test_json_round_trip(self, a):
        assert Poly.from_json(a.to_json()) == a


def test_random_evaluation_consistency():
    rng = random.Random(11)
    for _ in range(50):
        from support import random_poly

        a = random_poly(rng, 3)
        b = random_poly(rng, 3)
        point = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)]
        assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
        assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)


class TestPackedAgainstTupleReference:
    """The packed-key core against the tuple-keyed loops it replaced."""

    @given(data=st.data(), n=nvars_st)
    def test_order(self, data, n):
        p = data.draw(keyed_poly_st(n, 64, max_terms=8))
        assert p.terms() == reference_order(tuple_terms(p))
        if p:
            lead, coeff = reference_order(tuple_terms(p))[0]
            assert p.leading_monomial() == lead
            assert p.leading_coefficient() == coeff
            assert p.total_degree() == max(map(sum, tuple_terms(p)))

    @given(data=st.data(), n=nvars_st)
    def test_keys_compare_and_add_like_exponents(self, data, n):
        a = data.draw(exponent_st(n, 32))
        b = data.draw(exponent_st(n, 32))
        assert (monomial_key(a) < monomial_key(b)) == (grlex_key(a) < grlex_key(b))
        product = tuple(x + y for x, y in zip(a, b))
        assert monomial_key(a) + monomial_key(b) == monomial_key(product)

    @given(data=st.data(), n=nvars_st)
    def test_ring_operations(self, data, n):
        a = data.draw(keyed_poly_st(n, 32))
        b = data.draw(keyed_poly_st(n, 32))
        ta, tb = tuple_terms(a), tuple_terms(b)
        assert tuple_terms(a + b) == reference_add(ta, tb)
        assert tuple_terms(a - b) == reference_add(ta, {e: -c for e, c in tb.items()})
        assert tuple_terms(a * b) == reference_mul(ta, tb)
        assert tuple_terms(a * b) == tuple_terms(b * a)
        assert a * (b + 1) == a * b + a

    @given(data=st.data(), n=nvars_st)
    def test_partial_derivative(self, data, n):
        a = data.draw(keyed_poly_st(n, 64))
        for i in range(n):
            assert tuple_terms(partial(a, i)) == reference_partial(tuple_terms(a), i)

    @given(data=st.data(), n=nvars_st, integral=st.booleans())
    def test_primitive_part(self, data, n, integral):
        a = data.draw(keyed_poly_st(n, 64, integral=integral))
        assert tuple_terms(a.primitive_part()) == reference_primitive_part(tuple_terms(a))

    @given(data=st.data(), n=nvars_st)
    def test_divexact(self, data, n):
        a = data.draw(keyed_poly_st(n, 16))
        b = data.draw(keyed_poly_st(n, 16).filter(bool))
        assert poly_divexact(a * b, b) == reference_divexact(a * b, b) == a
        c = a * b + 1
        try:
            expected = reference_divexact(c, b)
        except NotDivisibleError:
            with pytest.raises(NotDivisibleError):
                poly_divexact(c, b)
        else:
            assert poly_divexact(c, b) == expected

    def test_divexact_with_a_long_quotient(self):
        a, b = (x1 + x2 + x3 + 1) ** 6, x1 - Fraction(1, 2) * x3 + 2
        assert poly_divexact(a * b, b) == reference_divexact(a * b, b) == a


class TestSympyCrossCheck:
    @given(data=st.data(), n=nvars_st)
    def test_products_and_derivatives(self, data, n):
        sympy = pytest.importorskip("sympy")
        gens = sympy.symbols(f"y1:{n + 1}")

        def to_sympy(p):
            return sympy.Poly.from_dict(
                {e: sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
                 for e, c in p.terms()} or {(0,) * n: 0}, *gens, domain="QQ")

        def from_sympy(q):
            return {e: Fraction(int(c.p), int(c.q)) for e, c in q.as_dict().items() if c}

        a = data.draw(keyed_poly_st(n, 32))
        b = data.draw(keyed_poly_st(n, 32))
        assert tuple_terms(a * b) == from_sympy(to_sympy(a) * to_sympy(b))
        for i in range(n):
            assert tuple_terms(partial(a, i)) == from_sympy(
                to_sympy(a).diff(gens[i]))
        if a:
            assert [e for e, _ in a.terms()] == [
                e for e, _ in to_sympy(a).terms(order="grlex")]


class TestFieldLimit:
    """An exponent field holds 0..255; nothing may carry into its neighbour."""

    def test_constructor_rejects_a_field_overflow(self):
        assert Poly(2, {(FIELD_LIMIT - 1, 0): 1}).terms() == [((255, 0), 1)]
        with pytest.raises(ResourceLimitError):
            Poly(2, {(0, FIELD_LIMIT): 1})
        with pytest.raises(ValueError):
            Poly(2, {(1, -1): 1})

    def test_from_json_rejects_a_field_overflow(self):
        with pytest.raises(ResourceLimitError):
            Poly.from_json({"nvars": 2, "terms": [{"coeff": "1", "exp": [300, 0]}]})

    def test_products_up_to_the_cap_keep_their_fields(self):
        assert (x3**32 * x3**32).terms() == [((0, 0, 64), 1)]
        assert (x2**40 * (x1**24 + x3**24)).terms() == [((24, 40, 0), 1), ((0, 40, 24), 1)]

    def test_cap_raised_within_the_field_width(self, monkeypatch):
        monkeypatch.setattr(poly_mod, "DEGREE_CAP", FIELD_LIMIT - 1)
        assert (x1**128 * x1**127).terms() == [((255, 0, 0), 1)]

    def test_cap_raised_past_the_field_width(self, monkeypatch):
        monkeypatch.setattr(poly_mod, "DEGREE_CAP", FIELD_LIMIT)
        with pytest.raises(ResourceLimitError):
            x1 * x2
        with pytest.raises(ResourceLimitError):
            poly_divexact(x1 * x2, x2)
        with pytest.raises(ResourceLimitError):
            x1.substitute([x2, x1, x3])

    def test_divexact_past_the_cap(self, monkeypatch):
        numerator = x1**10 * x2
        monkeypatch.setattr(poly_mod, "DEGREE_CAP", 8)
        with pytest.raises(ResourceLimitError):
            poly_divexact(numerator, x2)
