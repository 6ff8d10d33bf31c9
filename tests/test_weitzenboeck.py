"""The constructive core: sl2 triple, weights, generator sets, centralizer."""

import gc
import random
from fractions import Fraction

import pytest

from dercent import weitzenboeck
from dercent.derivation import Derivation
from dercent.errors import PreconditionError, RegistryError
from dercent.linalg import solve_many
from dercent.oracle import centralizer_basis
from dercent.poly import Poly
from dercent.registry import registry_entry
from dercent.weitzenboeck import (
    budget_products,
    centralizer_generators,
    commuting_derivation,
    generator_set,
    Ladders,
    isobaric_components,
    monomial_weight,
    sl2_triple,
    weitzenboeck_derivation,
)

from support import (
    count_calls,
    match_up_to_scalar,
    monomials_up_to_degree,
    poly_scalar_multiple,
    random_poly,
    reference_generator_set,
)

x1, x2, x3 = Poly.variables(3)
a1 = x1
a2 = x1 * x3 - Fraction(1, 2) * x2**2
D3 = weitzenboeck_derivation(3)


class TestSl2Triple:
    def test_n3_explicit(self):
        t = sl2_triple(3)
        assert t.dhat == Derivation((2 * x2, 2 * x3, Poly.zero(3)))
        assert t.h == Derivation((2 * x1, Poly.zero(3), -2 * x3))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_relations_exact(self, n):
        t = sl2_triple(n)
        assert t.d.bracket(t.dhat) == t.h
        assert t.h.bracket(t.d) == t.d * 2
        assert t.h.bracket(t.dhat) == t.dhat * (-2)

    def test_small_n_rejected(self):
        with pytest.raises(PreconditionError):
            sl2_triple(1)

    def test_built_once_per_n(self, monkeypatch):
        assert sl2_triple(5) is sl2_triple(5)
        # a generator set lowers with the kept dhat: building it again
        # checks no relation again
        gens = registry_entry(5).generators
        generator_set(5, gens, 5)
        brackets = []
        bracket = Derivation.bracket

        def spied_bracket(self, other):
            brackets.append(other)
            return bracket(self, other)

        monkeypatch.setattr(Derivation, "bracket", spied_bracket)
        generator_set(5, gens, 5)
        assert brackets == []

    def test_lowering_images_of_x1(self):
        t = sl2_triple(3)
        assert t.dhat(x1) == 2 * x2
        assert t.dhat(t.dhat(x1)) == 4 * x3
        assert not t.dhat(a2)


class TestWeights:
    def test_variable_weights(self):
        assert monomial_weight((1, 0, 0), 3) == 2
        assert monomial_weight((0, 1, 0), 3) == 0
        assert monomial_weight((0, 0, 1), 3) == -2

    def test_kernel_generator_is_isobaric_weight_zero(self):
        assert monomial_weight((1, 0, 1), 3) == 0
        assert monomial_weight((0, 2, 0), 3) == 0
        assert {monomial_weight(e, 3) for e, _ in a2.terms()} == {0}

    def test_weight_matches_h_eigenvalue(self):
        t = sl2_triple(4)
        for exp in monomials_up_to_degree(4, 3):
            m = Poly(4, {exp: 1})
            assert t.h(m) == m * monomial_weight(exp, 4)

    def test_isobaric_components(self):
        comps = isobaric_components(x1 + x2**2)
        assert comps == [(2, x1), (0, x2**2)]
        assert isobaric_components(a2) == [(0, a2)]
        assert isobaric_components(Poly.zero(3)) == []


class TestCommutingDerivation:
    def test_ladders_of_a_set_share_one_derivation(self):
        # D is built once per n and kept, not once per ladder
        gens = registry_entry(4).generators
        S = generator_set(4, gens, 4)
        weitzenboeck_derivation.cache_clear()
        ladders = Ladders(4, S, gens)
        assert len(ladders) == len(S.elements) > 1
        assert all(g.derivation == commuting_derivation(g.element.poly, 4) for g in ladders)
        assert weitzenboeck_derivation.cache_info().misses == 1

    def test_constant(self):
        assert commuting_derivation(Poly.constant(3, 1), 3) == Derivation.partial(3, 2)

    def test_x2(self):
        assert commuting_derivation(x2, 3) == Derivation((Poly.zero(3), x1, x2))

    def test_known_quadratic(self):
        T = commuting_derivation(4 * x2**2, 3)
        assert T == Derivation((8 * x1**2, 8 * x1 * x2, 4 * x2**2))

    def test_order_precondition(self):
        with pytest.raises(PreconditionError):
            commuting_derivation(x3**2, 3)  # order 4 > 2

    def test_always_commutes(self):
        rng = random.Random(9)
        built = 0
        while built < 30:
            f = random_poly(rng, 3, max_degree=3)
            if D3(D3(D3(f))):
                continue
            assert commuting_derivation(f, 3).commutes(D3)
            built += 1

    def test_top_coefficient_recovers_input(self):
        # the last coefficient of the ladder is the defining polynomial
        for T in centralizer_basis(D3, 2):
            f = T.coeffs[2]
            assert commuting_derivation(f, 3) == T


class TestBudgetProducts:
    def test_each_word_before_its_extensions(self):
        extended = []

        def extend(value, j):
            extended.append(j)
            return value + 1

        products = list(budget_products([1, 2], 3, 0, extend))
        assert [w for w, _ in products] == [(), (0,), (0, 0), (0, 0, 0), (0, 1), (1,)]
        # one extension per nonempty word, its value the parent's extended
        assert all(value == len(word) for word, value in products)
        assert len(extended) == len(products) - 1

    def test_negative_budget_has_no_product(self):
        assert list(budget_products([1], -1, 0, lambda v, j: v)) == []

    def test_free_letter_refused(self):
        # a letter of cost 0 would extend a word forever
        with pytest.raises(PreconditionError):
            list(budget_products([1, 0], 2, 0, lambda v, j: v))


class TestGeneratorSet:
    def test_level_one_is_unit(self):
        S = generator_set(3, [a1, a2], 1)
        assert [e.poly for e in S.elements] == [Poly.constant(3, 1)]
        assert S.elements[0].factors == ()

    def test_level_two(self):
        S = generator_set(3, [a1, a2], 2)
        assert [str(e.poly) for e in S.elements] == ["1", "x2"]
        el = S.elements[1]
        assert el.factors == ((0, 1),)
        assert el.scale == 2  # raw image of x1 is 2*x2

    def test_level_three_known_list(self):
        S = generator_set(3, [a1, a2], 3)
        polys = [e.poly for e in S.elements]
        expected_raw = [
            Poly.constant(3, 1),
            2 * x2,
            4 * x3,
            4 * x2**2,
        ]
        assert len(polys) == len(expected_raw)
        for got, raw in zip(polys, expected_raw):
            assert poly_scalar_multiple(raw, got)

    def test_vanishing_factors_dropped(self):
        # the second generator is annihilated by the lowering operator,
        # so it contributes no factors at all
        S = generator_set(3, [a1, a2], 3)
        for el in S.elements:
            for g, _ in el.factors:
                assert g == 0

    def test_duplicates_removed(self):
        S = generator_set(3, [a1, a1], 3)  # duplicated generator
        polys = [e.poly for e in S.elements]
        assert len(polys) == len(set(polys))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_scale_recovers_raw_product(self, n):
        # raw = scale * poly, with raw rebuilt from the recorded factors
        gens = registry_entry(n).generators
        dhat = sl2_triple(n).dhat
        for level in range(1, n + 1):
            for el in generator_set(n, gens, level).elements:
                raw = Poly.constant(n, 1)
                for g, k in el.factors:
                    image = gens[g]
                    for _ in range(k):
                        image = dhat(image)
                    raw = raw * image
                assert raw == el.poly * el.scale

    def test_bad_level(self):
        with pytest.raises(PreconditionError):
            generator_set(3, [a1], 0)

    def test_ordering_stable(self):
        S = generator_set(3, [a1, a2], 3)
        keys = [
            (e.poly.total_degree(), tuple(-k for k in e.poly.leading_monomial()))
            for e in S.elements
        ]
        assert keys == sorted(keys)


class TestIntegerPrimitiveProducts:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_same_set_as_the_normalized_raw_products(self, n):
        # rational rescalings of the registry, so the scales are fractions
        rng = random.Random(n)
        gens = [g * Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                for g in registry_entry(n).generators]
        for level in range(1, n + 1):
            S = generator_set(n, gens, level)
            expected = reference_generator_set(n, gens, level)
            assert S == expected
            # equal values of other types would still print differently
            assert all(type(c) is int for e in S.elements for _, c in e.poly.terms())
            assert all(type(e.scale) is Fraction for e in S.elements)


class TestNoReferenceCycles:
    def test_building_a_set_leaves_no_cyclic_garbage(self):
        # its products (1315 elements at n=6) are freed with the set, not
        # at the next full garbage collection
        gens = registry_entry(4).generators
        gc.collect()
        gc.disable()
        try:
            assert generator_set(4, gens, 4).elements
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestCentralizerGenerators:
    def test_known_n3_list(self):
        gens = centralizer_generators(3, [a1, a2])
        expected = [
            Derivation.partial(3, 2),
            Derivation((Poly.zero(3), x1, x2)),
            Derivation((2 * x1, 2 * x2, 2 * x3)),
            Derivation((8 * x1**2, 8 * x1 * x2, 4 * x2**2)),
        ]
        assert match_up_to_scalar([g.derivation for g in gens], expected)

    def test_every_generator_commutes(self):
        for n in (2, 3, 4):
            entry = registry_entry(n)
            D = weitzenboeck_derivation(n)
            for g in centralizer_generators(n, entry.generators):
                assert g.derivation.bracket(D).is_zero()

    def test_n2_generates_centralizer_as_module(self):
        # The construction yields two generators for n=2; together with
        # kernel-polynomial multipliers they span the whole truncated
        # centralizer, confirmed against the enumeration oracle.
        y1, y2 = Poly.variables(2)
        gens = [g.derivation for g in centralizer_generators(2, [y1])]
        assert match_up_to_scalar(
            gens,
            [
                Derivation.partial(2, 1),
                Derivation((y1, y2)),
            ],
        )
        degree = 3
        multipliers = [y1**k for k in range(degree + 1)]
        spanning = []
        for g in gens:
            for m in multipliers:
                t = g * m
                if max(c.total_degree() for c in t.coeffs) <= degree:
                    spanning.append(t)
        enumerated = centralizer_basis(weitzenboeck_derivation(2), degree)
        coords = sorted(
            {
                (i, exp)
                for T in spanning + enumerated
                for i, c in enumerate(T.coeffs)
                for exp in dict(c.terms())
            }
        )
        index = {c: k for k, c in enumerate(coords)}

        def flatten(T):
            return {index[(i, exp)]: Fraction(coeff)
                    for i, c in enumerate(T.coeffs) for exp, coeff in c.terms()}

        sols = solve_many(
            [flatten(t) for t in spanning], [flatten(t) for t in enumerated]
        )
        assert all(s is not None for s in sols)

    def test_corrupt_registry_rejected(self):
        with pytest.raises(RegistryError):
            centralizer_generators(3, [a1, a2, x2])


class TestLadders:
    def test_construction_rejects_an_element_outside_the_kernel_power(self):
        # x2 is not a kernel element, so its products leave Ker D^3
        gens = registry_entry(3).generators + (x2,)
        with pytest.raises(RegistryError, match="not annihilated"):
            Ladders(3, generator_set(3, gens, 3), gens)

    def test_kernel_generators_build_no_ladder_until_read(self, monkeypatch):
        # every D(g) = 0, so the sl2 argument settles the check
        calls = count_calls(monkeypatch, "commuting_derivation", module=weitzenboeck)
        gens = registry_entry(4).generators
        ladders = Ladders(4, generator_set(4, gens, 4), gens)
        assert calls == {}
        assert len(list(ladders)) == calls[None] == len(ladders) > 1


class TestGradedStructure:
    """How the lowering operator commutes with powers of D on isobaric
    elements.  The weight shifts, weight additivity, the isobaric split of
    kernel elements and the order under Dhat(D(.)) are acceptance
    criterion 8 (`tests/test_acceptance.py`)."""

    def _random_isobaric(self, rng, n, max_degree=3):
        while True:
            f = random_poly(rng, n, max_degree=max_degree)
            comps = isobaric_components(f)
            if comps:
                return comps[rng.randrange(len(comps))][1]

    @pytest.mark.parametrize("n", (3, 4))
    def test_iterated_commutation_defect_is_scalar(self, n):
        # D^(s-1)(Dhat(D(b))) - Dhat(D^s(b)) is a rational multiple of
        # D^(s-1)(b) for isobaric b
        D = weitzenboeck_derivation(n)
        t = sl2_triple(n)
        rng = random.Random(500 + n)
        checked = 0
        while checked < 40:
            b = self._random_isobaric(rng, n)
            if not b:
                continue
            for s in (2, 3):
                u = t.dhat(D(b))
                for _ in range(s - 1):
                    u = D(u)
                v = b
                for _ in range(s):
                    v = D(v)
                defect = u - t.dhat(v)
                base = b
                for _ in range(s - 1):
                    base = D(base)
                if not base:
                    assert not defect
                elif defect:
                    assert poly_scalar_multiple(defect, base)
            checked += 1


class TestFiltration:
    def test_kernel_powers_match_preimage_definition(self):
        # Ker D^i agrees with {f : D(f) in Ker D^(i-1)} on truncations
        from dercent.oracle import kernel_power_basis

        D = weitzenboeck_derivation(3)
        for i in (2, 3):
            inner = kernel_power_basis(D, i - 1, 4)
            outer = kernel_power_basis(D, i, 4)
            # forward: D maps the outer basis into the inner span
            coords = monomials_up_to_degree(3, 4)
            index = {m: k for k, m in enumerate(coords)}

            def flatten(p):
                return {index[exp]: Fraction(c) for exp, c in p.terms()}

            sols = solve_many(
                [flatten(v) for v in inner.vectors],
                [flatten(D(v)) for v in outer.vectors],
            )
            assert all(s is not None for s in sols)
