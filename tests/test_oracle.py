"""Oracle engines: truncated kernels, spans, centralizer, rank, candidates."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dercent import oracle
from dercent.derivation import Derivation
from dercent.errors import PreconditionError, ResourceLimitError
from dercent.linalg import in_row_space, rank, rref
from dercent.linearder import linear_derivation
from dercent.oracle import (
    GradedBasis,
    centralizer_basis,
    centralizer_dimension_bound,
    certified_span_dimension,
    derivation_span_equal,
    kernel_generator_candidates,
    kernel_dimension_bounds,
    kernel_power_basis,
    module_span_check,
    rank_over_fractions,
    symbolic_rank,
)
from dercent.poly import Poly, monomials_up_to_degree
from dercent.registry import registry_entry
from dercent.weitzenboeck import (
    centralizer_generators,
    commuting_derivation,
    generator_set,
    weitzenboeck_derivation,
)

from support import (
    random_nonzero_poly,
    reference_centralizer_basis,
    reference_derivation_span_equal,
    reference_symbolic_rank,
    sl2_kernel_dimension,
)

x1, x2, x3 = Poly.variables(3)
a1 = x1
a2 = x1 * x3 - Fraction(1, 2) * x2**2
D3 = weitzenboeck_derivation(3)

# Jordan type (3, 2): x1*d2 + x2*d3 + x4*d5, two nilpotent blocks
y1, y2, _, y4, _ = Poly.variables(5)
J32 = Derivation((Poly.zero(5), y1, y2, Poly.zero(5), y4))


def flatten_polys(polys, nvars, degree):
    """(sparse rows of the polys over the monomials up to degree, their count)."""
    coords = monomials_up_to_degree(nvars, degree)
    index = {m: k for k, m in enumerate(coords)}
    return [{index[exp]: Fraction(c) for exp, c in p.terms()} for p in polys], len(coords)


class TestKernelPowerBasis:
    def test_kernel_degree_two(self):
        basis = kernel_power_basis(D3, 1, 2)
        assert list(basis.vectors) == [Poly.constant(3, 1), x1, x1**2, a2]

    def test_constants_only_at_degree_zero(self):
        basis = kernel_power_basis(D3, 1, 0)
        assert list(basis.vectors) == [Poly.constant(3, 1)]

    def test_third_power_kills_linear_forms(self):
        basis = kernel_power_basis(D3, 3, 1)
        assert list(basis.vectors) == [Poly.constant(3, 1), x1, x2, x3]

    def test_vectors_annihilated(self):
        for i in (1, 2, 3):
            for v in kernel_power_basis(D3, i, 3).vectors:
                image = v
                for _ in range(i):
                    image = D3(image)
                assert not image

    def test_vectors_linearly_independent(self):
        basis = kernel_power_basis(D3, 2, 4)
        rows, ncols = flatten_polys(basis.vectors, 3, 4)
        assert rank(rows, ncols) == len(rows)

    def test_nesting_and_monotonicity(self):
        dims = {}
        for i in (1, 2, 3):
            for d in (1, 2, 3):
                dims[(i, d)] = kernel_power_basis(D3, i, d).dimension()
        for i in (1, 2):
            for d in (1, 2, 3):
                assert dims[(i, d)] <= dims[(i + 1, d)]
        for i in (1, 2, 3):
            for d in (1, 2):
                assert dims[(i, d)] <= dims[(i, d + 1)]

    def test_nesting_is_span_containment(self):
        inner = kernel_power_basis(D3, 1, 3)
        outer = kernel_power_basis(D3, 2, 3)
        reduced, pivots = rref(*flatten_polys(outer.vectors, 3, 3))
        for v in flatten_polys(inner.vectors, 3, 3)[0]:
            assert in_row_space(reduced, pivots, v)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            kernel_power_basis(D3, 0, 2)
        nonlinear = Derivation((x1 * x2, Poly.zero(3), Poly.zero(3)))
        with pytest.raises(PreconditionError):
            kernel_power_basis(nonlinear, 1, 2)
        affine = Derivation.partial(3, 0)
        with pytest.raises(PreconditionError):
            kernel_power_basis(affine, 1, 2)
        with pytest.raises(PreconditionError):
            centralizer_basis(affine, 1)

    def test_monomial_count_guard(self):
        with pytest.raises(ResourceLimitError):
            kernel_power_basis(weitzenboeck_derivation(6), 1, 40)

    def test_power_beyond_the_block_size(self, monkeypatch):
        # the degree-2 block in 3 variables has 6 monomials, so Ker D^i
        # stops growing at i = 6 (Fitting's lemma), and no more powers of
        # D are applied for a larger power
        applied = []
        inner = Derivation.__call__
        monkeypatch.setattr(
            Derivation, "__call__", lambda D, p: applied.append(1) or inner(D, p)
        )
        at_six = kernel_power_basis(D3, 6, 2)
        calls = len(applied)
        assert kernel_power_basis(D3, 10**6, 2) == at_six
        assert len(applied) == 2 * calls

    @pytest.mark.parametrize("matrix", [
        # diagonal, not nilpotent: Ker D^i = Ker D for every i
        [[1, 0, 0], [0, 0, 0], [0, 0, -1]],
        # a nilpotent block next to the eigenvalue 2: Ker D^i grows up to
        # i = 4 on degree 3
        [[0, 0, 0], [1, 0, 0], [0, 0, 2]],
    ])
    def test_power_beyond_the_block_size_not_nilpotent(self, matrix):
        # the degree-3 block in 3 variables has 10 monomials
        D = linear_derivation(matrix)
        assert kernel_power_basis(D, 10**6, 3) == kernel_power_basis(D, 10, 3)

    def test_diagonal_kernel_does_not_grow(self):
        D = linear_derivation([[1, 0, 0], [0, 0, 0], [0, 0, -1]])
        assert kernel_power_basis(D, 10**6, 3) == kernel_power_basis(D, 1, 3)

    def test_bounds_repeat_past_the_block_size(self):
        bounds = kernel_dimension_bounds(D3, 40, 2)
        assert bounds[5:] == [bounds[5]] * 35
        assert bounds[39] == [sl2_kernel_dimension(3, 40, t) for t in range(3)]


class TestModuleSpanCheck:
    def test_level_two_span_holds(self):
        S = generator_set(3, [a1, a2], 2)
        target = kernel_power_basis(D3, 2, 4)
        result = module_span_check(S, [a1, a2], target, 4)
        assert result.ok
        assert len(result.certificate["witnesses"]) == target.dimension()

    def test_witnesses_recombine_exactly(self):
        S = generator_set(3, [a1, a2], 2)
        target = kernel_power_basis(D3, 2, 3)
        result = module_span_check(S, [a1, a2], target, 3)
        gens = [a1, a2]
        elements = S.polys()
        for witness in result.certificate["witnesses"]:
            expected = target.vectors[witness["target_index"]]
            total = Poly.zero(3)
            for item in witness["combination"]:
                multiplier = Poly.constant(3, 1)
                for g, e in zip(gens, item["multiplier_exponents"]):
                    multiplier = multiplier * g**e
                total = total + (
                    multiplier
                    * elements[item["element_index"]]
                    * Fraction(item["coefficient"])
                )
            assert total == expected

    def test_unit_set_misses_x2(self):
        target = kernel_power_basis(D3, 2, 1)
        result = module_span_check(
            [Poly.constant(3, 1)], [a1, a2], target, 1
        )
        assert not result.ok
        assert result.certificate["failed_target"] == x2.to_json()

    def test_self_containment(self):
        S = generator_set(3, [a1, a2], 3)
        from dercent.oracle import GradedBasis

        target = GradedBasis(3, tuple(S.polys()))
        assert module_span_check(S, [a1, a2], target, 3).ok

    def test_inhomogeneous_targets_supported(self):
        from dercent.oracle import GradedBasis

        target = GradedBasis(2, (x1 + a2, Poly.constant(3, 1) + x1**2))
        S = generator_set(3, [a1, a2], 1)
        assert module_span_check(S, [a1, a2], target, 2).ok


class TestCentralizerBasis:
    def test_constant_coefficients(self):
        basis = centralizer_basis(D3, 0)
        assert basis == [Derivation.partial(3, 2)]

    def test_degree_one_contents(self):
        basis = centralizer_basis(D3, 1)
        assert len(basis) == 4
        expected = [
            Derivation.partial(3, 2),
            D3,
            Derivation((x1, x2, x3)),
        ]
        rowsets = [b for b in basis]
        for e in expected:
            assert derivation_span_equal(rowsets, rowsets + [e])

    def test_all_commute(self):
        for T in centralizer_basis(D3, 2):
            assert T.commutes(D3)

    def test_ladder_span_equivalence(self):
        for d in (0, 1, 2, 3):
            enumerated = centralizer_basis(D3, d)
            ladders = [
                commuting_derivation(f, 3)
                for f in kernel_power_basis(D3, 3, d).vectors
            ]
            assert len(enumerated) == len(ladders)
            assert derivation_span_equal(enumerated, ladders)

    def test_nonlinear_rejected(self):
        nonlinear = Derivation((x1 * x2, Poly.zero(3), Poly.zero(3)))
        with pytest.raises(PreconditionError):
            centralizer_basis(nonlinear, 1)

    def test_unknown_count_guard(self, monkeypatch):
        # the system is keyed by the n x monomials unknowns: 5 x 21
        # = 105 unknowns at degree 2 exceed a cap of 100, 21 monomials do not
        D5 = weitzenboeck_derivation(5)
        assert len(centralizer_basis(D5, 2)) == 17
        monkeypatch.setattr(oracle, "MONOMIAL_COUNT_CAP", 100)
        assert kernel_power_basis(D5, 1, 2).dimension()
        with pytest.raises(ResourceLimitError, match="105 unknowns"):
            centralizer_basis(D5, 2)
        # the counting bound runs the same guard
        with pytest.raises(ResourceLimitError, match="105 unknowns"):
            centralizer_dimension_bound(D5, 2)

    def test_no_dense_square_over_the_unknowns(self):
        # n = 20 has 400 unknowns of degree 1: a dense square on them peaks
        # near 3 MB under tracemalloc, the sparse system near 0.7 MB
        D20 = weitzenboeck_derivation(20)
        tracemalloc.start()
        try:
            basis = centralizer_basis(D20, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(basis) == 21
        assert peak < 1_500_000

    def test_lower_degree_basis_is_a_prefix(self):
        # the low-degree part of a basis is the basis at the lower degree,
        # so the verify suite's decompose item sees the same derivations
        # whether it builds the basis at its cap or filters a larger one
        full = centralizer_basis(D3, 4)
        low = [T for T in full if max(c.total_degree() for c in T.coeffs) <= 2]
        assert low == centralizer_basis(D3, 2)
        assert low == full[: len(low)]


    @pytest.mark.parametrize("D", [
        D3,
        weitzenboeck_derivation(4),
        # a diagonal entry puts x^m into the bracket twice: a_ii x^m - D(x^m)
        linear_derivation([[2, 1, 0], [0, 2, 0], [Fraction(1, 3), 0, -1]]),
        linear_derivation([[1, -1], [Fraction(5, 2), 0]]),
    ])
    def test_matches_the_unit_bracket_reference(self, D):
        for d in (0, 1, 2):
            assert centralizer_basis(D, d) == reference_centralizer_basis(D, d)


class TestCountingBounds:
    """The bounds the verify suite counts against, and their certificates."""

    @pytest.mark.parametrize("n, degree", [(3, 5), (4, 5), (5, 4)])
    def test_kernel_bounds_match_the_sl2_closed_form(self, n, degree):
        D = weitzenboeck_derivation(n)
        assert kernel_dimension_bounds(D, n, degree) == [
            [sl2_kernel_dimension(n, power, t) for t in range(degree + 1)]
            for power in range(1, n + 1)
        ]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_centralizer_bound_is_the_ladder_count(self, n):
        D = weitzenboeck_derivation(n)
        for d in (1, 2, 3):
            expected = sum(sl2_kernel_dimension(n, n, t) for t in range(d + 1))
            assert centralizer_dimension_bound(D, d) == expected
            assert kernel_power_basis(D, n, d).dimension() == expected

    def test_two_jordan_blocks(self):
        # Jordan type (3, 2): counting and the exact readings agree
        for d, dimension in ((1, 11), (2, 32), (3, 73)):
            assert centralizer_dimension_bound(J32, d) == dimension
            assert len(centralizer_basis(J32, d)) == dimension
        exact = [
            [sum(v.total_degree() == t for v in kernel_power_basis(J32, i, 3).vectors)
             for t in range(4)]
            for i in (1, 2, 3)
        ]
        assert exact == [[1, 2, 5, 9], [1, 4, 9, 17], [1, 5, 12, 24]]
        assert kernel_dimension_bounds(J32, 3, 3) == exact

    @staticmethod
    def bounds(power, degree):
        return kernel_dimension_bounds(D3, power, degree)[power - 1]

    def test_span_certified_by_counting(self):
        S = generator_set(3, [a1, a2], 2)
        target = kernel_power_basis(D3, 2, 4)
        assert certified_span_dimension(S, [a1, a2], D3, 2, self.bounds(2, 4)) == (
            target.dimension()
        )

    def test_counting_leaves_failures_to_the_exact_solve(self):
        one = Poly.constant(3, 1)
        # x2 is missing from the span
        assert certified_span_dimension([one], [a1, a2], D3, 2, self.bounds(2, 1)) is None
        # x2 is not in Ker D, as a generator or as an element, so the
        # products are not known to lie in it (1 and x2 count right)
        assert certified_span_dimension([one], [a1, x2], D3, 2, self.bounds(2, 1)) is None
        assert certified_span_dimension([one, x2], [], D3, 1, self.bounds(1, 1)) is None
        # x1 + a2 lies in Ker D but is not homogeneous; the exact solve
        # finds the span
        inhomogeneous = [one, x1 + a2]
        assert certified_span_dimension(inhomogeneous, [a1], D3, 1, self.bounds(1, 2)) is None
        assert module_span_check(inhomogeneous, [a1], kernel_power_basis(D3, 1, 2), 2).ok

    def test_modulus_dividing_a_denominator_gives_no_certificate(self, monkeypatch):
        # a2 has the coefficient -1/2
        S = generator_set(3, [a1, a2], 2)
        bounds = self.bounds(2, 4)
        monkeypatch.setattr(oracle, "MODULUS", 2)
        assert certified_span_dimension(S, [a1, a2], D3, 2, bounds) is None
        assert module_span_check(S, [a1, a2], kernel_power_basis(D3, 2, 4), 4).ok
        half = Derivation((Poly.zero(3), x1 * Fraction(1, 2), x2))
        assert kernel_dimension_bounds(half, 2, 2) is None
        assert centralizer_dimension_bound(half, 2) is None

    @pytest.mark.parametrize("elements, kernel_gens, cap", [
        ([], [], None),
        ([x1], [Poly.constant(3, 2)], None),
        ([x1], [a1], 5),
    ])
    def test_same_errors_as_module_span_check(self, monkeypatch, elements,
                                              kernel_gens, cap):
        target = GradedBasis(2, ())
        if cap is not None:
            monkeypatch.setattr(oracle, "MONOMIAL_COUNT_CAP", cap)
        with pytest.raises(Exception) as exact:
            module_span_check(elements, kernel_gens, target, 2)
        with pytest.raises(type(exact.value)) as counted:
            certified_span_dimension(elements, kernel_gens, D3, 1, [1, 1, 3])
        assert str(counted.value) == str(exact.value)


class TestDerivationSpanEqual:
    def test_scalar_scaling_ignored(self):
        assert derivation_span_equal([D3], [D3 * Fraction(7, 3)])

    def test_detects_difference(self):
        assert not derivation_span_equal([D3], [Derivation.partial(3, 0)])

    def test_empty(self):
        assert derivation_span_equal([], [])
        assert not derivation_span_equal([], [D3])

    def test_different_rings_rejected(self):
        with pytest.raises(PreconditionError):
            derivation_span_equal([D3], [J32])

    @given(st.data())
    def test_matches_the_rref_reference(self, data):
        derivations = st.lists(affine_polys, min_size=3, max_size=3).map(
            lambda coeffs: Derivation(tuple(coeffs))
        )
        first = data.draw(st.lists(derivations, max_size=4))
        # combinations of the first set, sometimes with another derivation
        coefficients = st.integers(-2, 2)
        second = [
            sum((T * data.draw(coefficients) for T in first), Derivation.zero(3))
            for _ in range(data.draw(st.integers(0, 4)))
        ] + data.draw(st.lists(derivations, max_size=1))
        assert derivation_span_equal(first, second) == (
            reference_derivation_span_equal(first, second)
        )


exponents = st.tuples(*[st.integers(0, 1)] * 3).filter(lambda e: sum(e) <= 1)
affine_polys = st.dictionaries(
    exponents, st.fractions(min_value=-3, max_value=3, max_denominator=2), max_size=3
).map(lambda terms: Poly(3, terms))


@st.composite
def low_rank_poly_matrices(draw):
    """(M, k): M = B*C, B rows x k and C k x cols with affine entries, some
    rows and columns of M zeroed; wide, square and tall shapes."""
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    inner = draw(st.integers(1, 3))
    b = [draw(st.lists(affine_polys, min_size=inner, max_size=inner))
         for _ in range(nrows)]
    c = [draw(st.lists(affine_polys, min_size=ncols, max_size=ncols))
         for _ in range(inner)]
    zero_rows = draw(st.sets(st.integers(0, nrows - 1)))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1)))
    zero = Poly.zero(3)
    m = [
        [zero if i in zero_rows or j in zero_cols
         else sum((b[i][k] * c[k][j] for k in range(inner)), zero)
         for j in range(ncols)]
        for i in range(nrows)
    ]
    return m, inner


class TestRank:
    def test_known_generators_have_full_rank(self):
        gens = [g.derivation for g in centralizer_generators(3, [a1, a2])]
        result = rank_over_fractions(gens, seed=0)
        assert result.rank == 3

    def test_single_derivation(self):
        assert rank_over_fractions([D3], seed=1).rank == 1

    def test_proportional_columns(self):
        assert rank_over_fractions([D3, D3 * 2], seed=2).rank == 1

    def test_poly_scaling_never_changes_rank(self):
        gens = [g.derivation for g in centralizer_generators(3, [a1, a2])]
        rng = random.Random(17)
        base = rank_over_fractions(gens, seed=3).rank
        for _ in range(5):
            j = rng.randrange(len(gens))
            scaled = list(gens)
            scaled[j] = scaled[j] * random_nonzero_poly(rng, 3, max_degree=2)
            assert rank_over_fractions(scaled, seed=4).rank == base

    def test_reproducible_with_seed(self):
        gens = [g.derivation for g in centralizer_generators(3, [a1, a2])]
        r1 = rank_over_fractions(gens, seed=42)
        r2 = rank_over_fractions(gens, seed=42)
        assert r1 == r2

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            rank_over_fractions([])

    def test_largest_sampled_rank_wins(self, monkeypatch):
        # a specialization can only lower the rank, so a rank-3 sample
        # proves rank >= 3 even when the later samples agree on 2
        samples = iter([3, 2, 2])
        monkeypatch.setattr("dercent.linalg.rank", lambda rows, ncols: next(samples))
        result = rank_over_fractions([D3], seed=0)
        assert result.sampled_ranks == (3, 2, 2)
        assert result.method == "sampled"
        assert result.rank == 3

    def test_symbolic_path_agrees(self):
        gens = [g.derivation for g in centralizer_generators(3, [a1, a2])]
        matrix = [[T.coeffs[i] for T in gens] for i in range(3)]
        assert symbolic_rank(matrix) == 3

    def test_symbolic_rank_deficient(self):
        # second column is x1 times the first
        matrix = [[x1, x1**2], [x2, x1 * x2]]
        assert symbolic_rank(matrix) == 1
        assert symbolic_rank([[Poly.zero(3)]]) == 0

    @given(low_rank_poly_matrices())
    def test_symbolic_rank_matches_reference(self, case):
        m, inner = case
        assert symbolic_rank(m) == reference_symbolic_rank(m) <= inner


class TestKernelCandidates:
    def test_n2(self):
        y1 = Poly.variable(2, 0)
        assert kernel_generator_candidates(2, 1) == [y1]

    def test_n3_classical_generators(self):
        assert kernel_generator_candidates(3, 2) == [a1, a2]

    def test_n4_low_degree_has_three(self):
        cands = kernel_generator_candidates(4, 3)
        assert [c.total_degree() for c in cands] == [1, 2, 3]

    def test_n4_degree_four_generator_appears(self):
        cands = kernel_generator_candidates(4, 5)
        assert [c.total_degree() for c in cands] == [1, 2, 3, 4]

    def test_candidates_are_kernel_elements(self):
        for n, d in ((2, 3), (3, 3), (4, 4), (5, 3)):
            D = weitzenboeck_derivation(n)
            for c in kernel_generator_candidates(n, d):
                assert not D(c)

    def test_caps_enforced(self):
        with pytest.raises(PreconditionError):
            kernel_generator_candidates(7, 2)
        with pytest.raises(ResourceLimitError):
            kernel_generator_candidates(5, 5)


class TestRegistry:
    def test_default_entries_valid(self):
        from dercent.registry import load_registry, validate_entry

        registry = load_registry()
        assert sorted(registry) == [2, 3, 4, 5, 6]
        for entry in registry.values():
            validate_entry(entry)

    def test_classical_entries_match_closed_forms(self):
        assert list(registry_entry(2).generators) == [Poly.variable(2, 0)]
        assert list(registry_entry(3).generators) == [a1, a2]

    def test_shipped_file_matches_regeneration(self):
        from dercent.registry import load_registry, regenerate_registry

        assert regenerate_registry() == load_registry()

    def test_missing_entry(self):
        from dercent.errors import RegistryError

        with pytest.raises(RegistryError):
            registry_entry(9)
