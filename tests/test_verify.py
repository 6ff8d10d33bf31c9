"""Verification suite: what a run builds, how often and at which size."""

from dercent import oracle, weitzenboeck
from dercent.oracle import RankResult
from dercent.poly import Poly
from dercent.registry import load_registry
from dercent.verify import DECOMPOSE_DEGREE_CAP, ItemResult, run_verification

from support import (
    count_calls,
    count_unit_applications,
    fresh_process_peak_rss,
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


def test_passing_run_builds_each_ladder_once_and_n_more(monkeypatch):
    # the commutation item walks the level-4 set once, the rank item reads
    # its first 4 ladders; the construction's check builds none
    calls = count_calls(monkeypatch, "commuting_derivation", module=weitzenboeck)
    size = len(weitzenboeck.generator_set(4, load_registry()[4].generators, 4).elements)
    assert all(item.ok for item in run_verification(4, 3))
    assert calls == {None: size + 4}


def test_rank_item_ranks_the_whole_family_when_the_first_n_fall_short(
    monkeypatch, tmp_path
):
    # x1*x3 - x2^2/2 has weight 0, so the level-3 set is {1}: its one ladder
    # falls short of rank 3, and the second call ranks the whole family.
    # The item below was recorded when that was the item's only call.
    generators = load_registry()[3].generators[1:]
    path = write_registry(tmp_path / "a2_registry.json", 3, generators)
    calls = count_calls(
        monkeypatch, "rank_over_fractions", key=lambda args: len(args[0])
    )
    items = {item.name: item for item in run_verification(3, 3, registry_path=path)}
    assert calls == {1: 2}
    assert items["fraction-rank"] == ItemResult(
        "fraction-rank",
        False,
        "rank 1 over the fraction field (expected 3), method sampled",
        RankResult(
            1, "sampled", ((770880, -192083, 589545), (866976, -117998, -915099)),
            (1, 1),
        ),
    )


def test_verify_n6_peak_memory():
    # 65.0 MB while the run listed all 1,315 ladders of the n=6 level set
    code, peak_mb = fresh_process_peak_rss("verify", "--n", "6", "--deg", "1")
    assert code == 0
    assert peak_mb < 40
