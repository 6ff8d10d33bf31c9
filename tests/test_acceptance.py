"""Acceptance suite: one test per criterion, exact tolerances, timed.

Every check is exact (zero tolerance); the stated wall-clock budgets are
asserted with time.monotonic.  Each test prints a one-line PASS record
on success (visible with pytest -s or in captured output).
"""

import json
import random
import time
from fractions import Fraction

import pytest

from dercent.cli import main
from dercent.derivation import Derivation
from dercent.linearder import decompose_over_constants, jordan_nilpotent, verify_decomposition
from dercent.oracle import (
    centralizer_basis,
    derivation_span_equal,
    kernel_power_basis,
    module_span_check,
    rank_over_fractions,
)
from dercent.poly import Poly
from dercent.registry import load_registry
from dercent.weitzenboeck import (
    centralizer_generators,
    generator_set,
    isobaric_components,
    monomial_weight,
    sl2_triple,
    weitzenboeck_derivation,
)

from support import match_up_to_scalar, random_derivation, random_poly

REGISTRY = load_registry()


def report(number: int, detail: str) -> None:
    print(f"criterion {number}: PASS ({detail})")


def test_criterion_1_worked_example_reproduction(capsys):
    start = time.monotonic()
    code = main(["centralizer", "--n", "3"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)

    x1, x2, x3 = Poly.variables(3)
    registry_polys = [
        Poly.from_json(g) for g in data["result"]["kernel_generators"]
    ]
    assert registry_polys == [x1, x1 * x3 - Fraction(1, 2) * x2**2]

    emitted = [
        Derivation.from_json(g["derivation"])
        for g in data["result"]["generators"]
    ]
    assert len(emitted) == 4
    expected = [
        Derivation.partial(3, 2),
        Derivation((Poly.zero(3), x1, x2)),
        Derivation((2 * x1, 2 * x2, 2 * x3)),
        Derivation((8 * x1**2, 8 * x1 * x2, 4 * x2**2)),
    ]
    assert match_up_to_scalar(emitted, expected)
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, f"four generators match up to scalars, {elapsed:.3f}s")


def test_criterion_2_sl2_relations():
    start = time.monotonic()
    for n in range(2, 9):
        t = sl2_triple(n)
        assert (t.d.bracket(t.dhat) - t.h).is_zero()
        assert (t.h.bracket(t.d) - t.d * 2).is_zero()
        assert (t.h.bracket(t.dhat) + t.dhat * 2).is_zero()
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, f"n=2..8 exact, {elapsed:.3f}s")


def test_criterion_3_emitted_generators_commute():
    start = time.monotonic()
    counts = {}
    for n in range(2, 7):
        D = weitzenboeck_derivation(n)
        gens = centralizer_generators(n, REGISTRY[n].generators)
        for g in gens:
            assert g.derivation.bracket(D).is_zero()
        counts[n] = len(gens)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(3, f"counts {counts}, {elapsed:.2f}s")


def test_criterion_4_power_kernel_module_spans():
    start = time.monotonic()
    checks = 0
    for n in (2, 3, 4):
        D = weitzenboeck_derivation(n)
        gens = REGISTRY[n].generators
        for i in range(1, n + 1):
            S = generator_set(n, gens, i)
            for d in range(1, 6):
                target = kernel_power_basis(D, i, d)
                result = module_span_check(S, gens, target, d)
                assert result.ok, (n, i, d, result.certificate)
                assert len(result.certificate["witnesses"]) == target.dimension()
                checks += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(4, f"{checks} span checks with certificates, {elapsed:.2f}s")


def test_criterion_5_centralizer_equals_ladder_span():
    start = time.monotonic()
    n = 3
    D = weitzenboeck_derivation(n)
    from dercent.weitzenboeck import commuting_derivation

    for d in range(0, 5):
        enumerated = centralizer_basis(D, d)
        ladders = [
            commuting_derivation(f, n)
            for f in kernel_power_basis(D, n, d).vectors
        ]
        assert len(enumerated) == len(ladders)
        assert derivation_span_equal(enumerated, ladders)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(5, f"span equality for d=0..4, {elapsed:.2f}s")


def test_criterion_6_decomposition_round_trips():
    start = time.monotonic()
    total = 0
    for n in (2, 3, 4):
        D = weitzenboeck_derivation(n)
        block = jordan_nilpotent(n)
        for T in centralizer_basis(D, 3):
            dec = decompose_over_constants(T, block)
            assert verify_decomposition(dec, D)
            total += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(6, f"{total} elements decomposed and recombined, {elapsed:.2f}s")


def test_criterion_7_rank_at_desk_scale():
    start = time.monotonic()
    for n in (2, 3, 4, 5):
        gens = [
            g.derivation
            for g in centralizer_generators(n, REGISTRY[n].generators)
        ]
        result = rank_over_fractions(gens, seed=2024)
        assert result.rank == n
        if result.method == "sampled":
            assert result.sampled_ranks[-1] == result.sampled_ranks[-2]
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(7, f"rank n for n=2..5, {elapsed:.2f}s")


class TestCriterion8PropertySuites:
    CASES = 100

    def random_isobaric(self, rng, n, max_degree=3):
        while True:
            f = random_poly(rng, n, max_degree=max_degree)
            comps = isobaric_components(f)
            if comps:
                return comps[rng.randrange(len(comps))][1]

    @staticmethod
    def weights(f):
        """The weights of the monomials of f, one for isobaric f."""
        return {monomial_weight(e, f.nvars) for e, _ in f.terms()}

    @staticmethod
    def order(D, b):
        """The k with D^k(b) != 0 and D^(k+1)(b) = 0, for b != 0 and D
        locally nilpotent."""
        k = 0
        while b := D(b):
            k += 1
        return k

    @pytest.mark.parametrize("n", (3, 4))
    def test_leibniz(self, n):
        rng = random.Random(80 + n)
        for _ in range(self.CASES):
            T = random_derivation(rng, n, max_degree=2, max_terms=3)
            f = random_poly(rng, n)
            g = random_poly(rng, n)
            assert T(f * g) == T(f) * g + f * T(g)

    @pytest.mark.parametrize("n", (3, 4))
    def test_bracket_antisymmetry_and_jacobi(self, n):
        rng = random.Random(81 + n)
        for _ in range(self.CASES):
            A = random_derivation(rng, n, max_degree=1, max_terms=2)
            B = random_derivation(rng, n, max_degree=1, max_terms=2)
            C = random_derivation(rng, n, max_degree=1, max_terms=2)
            assert A.bracket(B) == -(B.bracket(A))
            jac = (
                A.bracket(B).bracket(C)
                + B.bracket(C).bracket(A)
                + C.bracket(A).bracket(B)
            )
            assert jac.is_zero()

    @pytest.mark.parametrize("n", (3, 4))
    def test_weight_additivity(self, n):
        rng = random.Random(82 + n)
        done = 0
        while done < self.CASES:
            f = self.random_isobaric(rng, n)
            g = self.random_isobaric(rng, n)
            if not (f * g):
                continue
            (wf,), (wg,) = self.weights(f), self.weights(g)
            assert self.weights(f * g) == {wf + wg}
            done += 1

    @pytest.mark.parametrize("n", (3, 4))
    def test_weight_shift_under_sl2_action(self, n):
        t = sl2_triple(n)
        rng = random.Random(83 + n)
        for _ in range(self.CASES):
            f = self.random_isobaric(rng, n)
            (w,) = self.weights(f)
            if t.d(f):
                assert self.weights(t.d(f)) == {w + 2}
            if t.dhat(f):
                assert self.weights(t.dhat(f)) == {w - 2}

    @pytest.mark.parametrize("n", (3, 4))
    def test_isobaric_components_of_kernel_elements(self, n):
        D = weitzenboeck_derivation(n)
        kernel = kernel_power_basis(D, 1, 3).vectors
        rng = random.Random(84 + n)
        for _ in range(self.CASES):
            f = Poly.zero(n)
            for v in kernel:
                f = f + v * Fraction(rng.randint(-4, 4), rng.randint(1, 2))
            assert not D(f)
            for _, comp in isobaric_components(f):
                assert not D(comp)

    @pytest.mark.parametrize("n", (3, 4))
    def test_order_preservation(self, n):
        D = weitzenboeck_derivation(n)
        t = sl2_triple(n)
        rng = random.Random(85 + n)
        done = 0
        while done < self.CASES:
            b = self.random_isobaric(rng, n)
            k = self.order(D, b)
            if k < 1:
                continue
            assert self.order(D, t.dhat(D(b))) == k
            done += 1

    def test_report(self):
        report(8, f"six property suites, {self.CASES} cases per n in (3, 4)")
