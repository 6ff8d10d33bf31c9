"""The benchmark's trace targets still name functions of the package.

`perfbench/spans.py` resolves each traced function by module and
qualified name.  A deletion in `src/` that removes one breaks the traced
benchmark run, so it is caught here instead.
"""

import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize(
    "target", spans.TARGETS, ids=lambda t: f"{t.module}.{t.qualname}"
)
def test_trace_target_resolves(target):
    importlib.import_module(target.module)
    assert callable(spans.resolve(target.module, target.qualname))


# The `linalg.*` hooks iterate the rows the package passes to measure them,
# so they must accept the sparse rows (column index to nonzero Fraction).

LINALG_TARGETS = [t for t in spans.TARGETS if t.module == "dercent.linalg"]


def linalg_arguments(qualname):
    from dercent import linalg

    rows = [{0: Fraction(2), 3: Fraction(1, 3)}, {1: Fraction(-1)}]
    reduced, pivots = linalg.rref(rows, 4)
    return {
        "rref": (rows, 4),
        "rank": (rows, 4),
        "nullspace": (rows, 4),
        "solve_many": (rows, [{0: Fraction(4), 3: Fraction(2, 3)}, {2: Fraction(1)}]),
        "in_row_space": (reduced, pivots, {1: Fraction(5)}),
    }[qualname]


@pytest.mark.parametrize("target", LINALG_TARGETS, ids=lambda t: t.qualname)
def test_linalg_hook_reads_sparse_rows(target):
    args = linalg_arguments(target.qualname)
    result = spans.resolve(target.module, target.qualname)(*args)
    tracer = spans.Tracer()
    target.after(tracer, args, result)
    assert tracer.counters["linalg.cells"] > 0


def test_linalg_hooks_accept_what_the_oracle_passes():
    from dercent.linearder import matrix, matrix_commutant
    from dercent.oracle import (
        centralizer_basis,
        derivation_span_equal,
        kernel_generator_candidates,
        kernel_power_basis,
        module_span_check,
        rank_over_fractions,
    )
    from dercent.registry import registry_entry
    from dercent.weitzenboeck import generator_set, weitzenboeck_derivation

    D = weitzenboeck_derivation(3)
    tracer = spans.Tracer()
    tracer.install(LINALG_TARGETS)
    try:
        target = kernel_power_basis(D, 2, 3)
        gens = registry_entry(3).generators
        assert module_span_check(generator_set(3, gens, 2), gens, target, 3).ok
        basis = centralizer_basis(D, 1)
        assert derivation_span_equal(basis, basis[::-1])
        assert rank_over_fractions(basis).rank == 3
        assert len(matrix_commutant(matrix([[0, 0], [1, 0]]))) == 2
        # the candidate search is the one caller of rref
        assert kernel_generator_candidates(3, 2) == list(gens)
    finally:
        tracer.uninstall()
    assert spans.wrapped_bindings() == []
    for name in ("rref", "nullspace", "solve_many", "rank"):
        assert any(s.name == f"linalg.{name}" for s in tracer.spans), name
    assert tracer.counters["linalg.cells"] > 0


def test_term_counts_read_the_packed_terms():
    # the poly.mul and derivation.apply hooks count terms by len(p._terms)
    from dercent.poly import Poly

    x1, x2, x3 = Poly.variables(3)
    for p in (Poly.zero(3), x1, (x1 + x2 * x3 - 2) ** 3, Poly(2, {(255, 0): 1})):
        assert spans.nterms(p) == len(p.terms())
