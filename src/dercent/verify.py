"""End-to-end verification suite driven by the command line.

Each item pits a constructive result against the brute-force oracles:
sl2 commutation relations (checked when the triple is built), module
spans of the power-kernel generating sets, exact commutation of the
constructed centralizer generators, span equality between the
enumerated centralizer and the coefficient-ladder derivations,
decomposition round-trips over the constants field, and the
fraction-field rank of the generator family.  The span and ladder
checks are also the `oracle verify-thm2` and `oracle verify-prop1`
commands.

The span and ladder items are settled by counting first (a rank mod p
of elements known to lie in the space against an upper bound on its
dimension); only when the counts differ do they solve over Q, so a
failing item gets the exact certificate.  `oracle verify-thm2` always
solves over Q, because it prints the witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .derivation import Derivation
from .errors import PreconditionError
from .linearder import (
    decompose_over_constants,
    jordan_nilpotent,
    verify_decomposition,
)
from .oracle import (
    GradedBasis,
    centralizer_basis,
    centralizer_dimension_bound,
    certified_span_dimension,
    derivation_span_equal,
    kernel_dimension_bounds,
    kernel_power_basis,
    module_span_check,
    rank_over_fractions,
)
from .poly import Poly
from .registry import registry_entry
from .weitzenboeck import (
    CentralizerGenerator,
    GeneratorSet,
    commuting_derivation,
    generator_set,
    ladder_generators,
    sl2_triple,
    weitzenboeck_derivation,
)

# Decomposition round-trips are capped at this coefficient degree; the
# enumerated centralizer grows quickly with the requested degree.
DECOMPOSE_DEGREE_CAP = 3


@dataclass(frozen=True)
class ItemResult:
    name: str
    ok: bool
    detail: str
    certificate: dict | None = None

    def to_json(self) -> dict:
        out = {"name": self.name, "ok": self.ok, "detail": self.detail}
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


class VerificationRun:
    """The constructions of one run up to a truncation degree.

    Each is built on first use and kept on the instance, so the checks of
    one run share it and a new run builds it afresh.  A construction that
    raised is kept as its exception: every later use re-raises the same
    object instead of building it again.
    """

    def __init__(self, n: int, degree: int, kernel_gens: Sequence[Poly] = ()):
        if degree < 0:
            raise PreconditionError("degree must be >= 0")
        self.n, self.degree, self.kernel_gens = n, degree, kernel_gens
        self.D = weitzenboeck_derivation(n)
        self._built: dict[tuple, object] = {}

    def _once(self, key: tuple, build, *args):
        if key not in self._built:
            try:
                self._built[key] = build(*args)
            except Exception as exc:  # kept to be re-raised on every use
                self._built[key] = exc
        value = self._built[key]
        if isinstance(value, Exception):
            raise value
        return value

    def kernel(self, level: int) -> GradedBasis:
        return self._once(
            ("kernel", level), kernel_power_basis, self.D, level, self.degree
        )

    def generator_set(self, level: int) -> GeneratorSet:
        return self._once(
            ("generator_set", level), generator_set, self.n, self.kernel_gens, level
        )

    def centralizer(self, degree: int) -> list[Derivation]:
        return self._once(("centralizer", degree), centralizer_basis, self.D, degree)

    @property
    def generators(self) -> list[CentralizerGenerator]:
        return self._once(
            ("generators",),
            lambda: ladder_generators(self.n, self.generator_set(self.n)),
        )

    def span_check(self, level: int):
        """(kernel basis, SpanCheckResult) of D^level."""
        S = self.generator_set(level)
        target = self.kernel(level)
        return target, module_span_check(S, self.kernel_gens, target, self.degree)

    def kernel_bounds(self) -> list[list[int]] | None:
        """Upper bounds on dim (Ker D^i)_t for every level i and degree t."""
        return self._once(
            ("kernel_bounds",), kernel_dimension_bounds, self.D, self.n, self.degree
        )

    def span_verdict(self, level: int) -> tuple[GeneratorSet, int, dict | None]:
        """(generating set, dimension of the kernel of D^level, failure
        certificate or None): span_check, unless counting certifies it."""
        S = self.generator_set(level)
        bounds = self.kernel_bounds()
        if bounds is not None:
            dimension = certified_span_dimension(
                S, self.kernel_gens, self.D, level, bounds[level - 1]
            )
            if dimension is not None:
                return S, dimension, None
        target, result = self.span_check(level)
        return S, target.dimension(), None if result.ok else result.certificate

    def ladder_check(self) -> tuple[bool, int, int]:
        """(spans equal, enumerated dimension, ladder count).

        The last coefficient of the ladder of f is f, so the ladders of a
        basis of Ker D^n are independent.  If each commutes with D, their
        count is a lower bound on the dimension of the centralizer, and
        an upper bound equal to it certifies the equality without
        enumerating the centralizer.
        """
        # the bound's unknowns guard is the centralizer's, and it runs
        # first: beyond the cap the item reports the same error as the
        # exact enumeration, not the smaller kernel basis's monomial cap
        bound = centralizer_dimension_bound(self.D, self.degree)
        ladders = [
            commuting_derivation(f, self.n) for f in self.kernel(self.n).vectors
        ]
        if bound == len(ladders) and all(T.commutes(self.D) for T in ladders):
            return True, bound, len(ladders)
        enumerated = self.centralizer(self.degree)
        ok = derivation_span_equal(enumerated, ladders)
        return ok, len(enumerated), len(ladders)


def _item(name: str, check, *args) -> ItemResult:
    try:
        ok, detail, certificate = check(*args)
    except Exception as exc:  # report failures as items, do not crash the suite
        return ItemResult(
            name, False, f"{type(exc).__name__}: {exc}", {"error": str(exc)}
        )
    return ItemResult(name, ok, detail, certificate)


def run_verification(
    n: int,
    degree: int,
    seed: int = 0,
    registry_path: str | Path | None = None,
) -> list[ItemResult]:
    run = VerificationRun(n, degree, registry_entry(n, registry_path).generators)
    D = run.D

    # Each check returns (ok, detail, certificate or None).
    def check_sl2():
        sl2_triple(n)  # raises PreconditionError unless the relations hold
        return True, "commutation relations hold exactly", None

    def check_span(level: int):
        S, dimension, failure = run.span_verdict(level)
        return (
            failure is None,
            f"kernel of D^{level} up to degree {degree}: "
            f"{dimension} basis vectors against {len(S.elements)} "
            f"generators",
            failure,
        )

    def check_commutation():
        for g in run.generators:
            if not g.derivation.commutes(D):
                return (
                    False,
                    f"generator from s = {g.element.poly} does not commute",
                    {"element": g.element.to_json()},
                )
        count = len(run.generators)
        return True, f"all {count} constructed generators commute exactly", None

    def check_ladder():
        ok, dimension, count = run.ladder_check()
        return (
            ok,
            f"enumerated centralizer (dim {dimension}) vs coefficient "
            f"ladders (count {count}) at degree {degree}",
            None,
        )

    def check_decompose():
        cap = min(degree, DECOMPOSE_DEGREE_CAP)
        block = jordan_nilpotent(n)
        for T in run.centralizer(cap):
            dec = decompose_over_constants(T, block)
            if not verify_decomposition(dec, D):
                return False, f"round-trip failed for {T}", {"derivation": T.to_json()}
        return (
            True,
            f"every enumerated centralizer element of coefficient degree <= "
            f"{cap} decomposes and recombines exactly",
            None,
        )

    def check_rank():
        result = rank_over_fractions([g.derivation for g in run.generators], seed=seed)
        return (
            result.rank == n,
            f"rank {result.rank} over the fraction field (expected {n}), "
            f"method {result.method}",
            result.to_json() if result.rank != n else None,
        )

    return [
        _item("sl2-relations", check_sl2),
        *(
            _item(f"power-kernel-span-i{level}", check_span, level)
            for level in range(1, n + 1)
        ),
        _item("centralizer-commutation", check_commutation),
        _item("commuting-ladder-equivalence", check_ladder),
        _item("constants-decomposition-roundtrip", check_decompose),
        _item("fraction-rank", check_rank),
    ]


def first_failure(items: list[ItemResult]) -> ItemResult | None:
    return next((item for item in items if not item.ok), None)
