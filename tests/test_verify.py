"""Verification suite: what a run builds, how often and at which size."""

from dercent import oracle
from dercent.poly import Poly
from dercent.registry import load_registry
from dercent.verify import DECOMPOSE_DEGREE_CAP, run_verification

from support import (
    count_calls,
    count_unit_applications,
    monomials_up_to_degree,
    write_registry,
)


def test_each_construction_built_once_per_run(monkeypatch):
    counted = {
        "Ladders": count_calls(monkeypatch, "Ladders"),
        # keyed by the coefficient degree
        "centralizer_basis": count_calls(
            monkeypatch, "centralizer_basis", key=lambda args: args[1]
        ),
        # keyed by the power of D and by the level
        "kernel_power_basis": count_calls(
            monkeypatch, "kernel_power_basis", key=lambda args: args[1]
        ),
        "generator_set": count_calls(
            monkeypatch, "generator_set", key=lambda args: args[2]
        ),
        "module_span_check": count_calls(monkeypatch, "module_span_check"),
        "derivation_span_equal": count_calls(monkeypatch, "derivation_span_equal"),
        # the intermediates the oracle shares between checks: D(x^m) keyed
        # by m, and the products of the kernel generators
        "unit_applications": count_unit_applications(monkeypatch),
        "multiplier_table": count_calls(monkeypatch, "_multiplier_table", module=oracle),
    }

    def calls():
        return {name: dict(c) for name, c in counted.items()}

    # a passing run certifies its spans by counting: the exact kernel basis
    # is built only for the ladders (level n), the centralizer only for the
    # decompose item at its cap, and no span is solved over Q
    expected = {
        "Ladders": {None: 1},
        "centralizer_basis": {DECOMPOSE_DEGREE_CAP: 1},
        "kernel_power_basis": {4: 1},
        "generator_set": {level: 1 for level in range(1, 5)},
        "module_span_check": {},
        "derivation_span_equal": {},
        # one chain of D^i images serves the exact kernel of D^4 and the one
        # [., D] system, the decompose item's; one table serves the products
        # of every level
        "unit_applications": {m: 1 for m in monomials_up_to_degree(4, 3)},
        "multiplier_table": {None: 1},
    }
    assert all(item.ok for item in run_verification(4, 3))
    assert calls() == expected
    # nothing outlives a run: a second one builds everything again
    run_verification(4, 3)
    assert calls() == {
        name: {k: 2 * v for k, v in c.items()} for name, c in expected.items()
    }


def test_failed_construction_is_not_rebuilt(monkeypatch, tmp_path):
    # x2 is not a kernel element, so the centralizer generators cannot be built
    generators = load_registry()[3].generators + (Poly.variable(3, 1),)
    bad = write_registry(tmp_path / "bad_registry.json", 3, generators)
    calls = count_calls(monkeypatch, "Ladders")
    items = {item.name: item for item in run_verification(3, 3, registry_path=bad)}
    assert calls == {None: 1}
    commutation, rank = items["centralizer-commutation"], items["fraction-rank"]
    assert not commutation.ok and not rank.ok
    assert commutation.detail.startswith("RegistryError: ")
    assert "not annihilated" in commutation.detail
    assert rank.detail == commutation.detail


def test_decompose_item_runs_at_its_own_cap(monkeypatch):
    # 3 x 35 unknowns of coefficient degree <= 4 exceed a cap of 100, the
    # 3 x 20 of degree <= 3 and the 35 monomials of degree <= 4 do not
    monkeypatch.setattr(oracle, "MONOMIAL_COUNT_CAP", 100)
    items = {item.name: item for item in run_verification(3, 4)}
    ladder = items["commuting-ladder-equivalence"]
    assert not ladder.ok
    assert ladder.detail.startswith("ResourceLimitError: 105 unknowns")
    assert items["constants-decomposition-roundtrip"].ok
    assert all(item.ok for name, item in items.items() if name != ladder.name)
