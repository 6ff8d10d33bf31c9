"""Verification suite: each shared construction is built once per run."""

from collections import Counter

import dercent.verify
from dercent.poly import Poly
from dercent.registry import load_registry
from dercent.verify import run_verification

from support import write_registry


def count_calls(monkeypatch, name, key=lambda args: None) -> Counter:
    """Count the calls dercent.verify makes to `name`, keyed by key(args)."""
    calls = Counter()
    inner = getattr(dercent.verify, name)

    def wrapper(*args, **kwargs):
        calls[key(args)] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(dercent.verify, name, wrapper)
    return calls


def test_each_construction_built_once_per_run(monkeypatch):
    counted = {
        "ladder_generators": count_calls(monkeypatch, "ladder_generators"),
        "centralizer_basis": count_calls(monkeypatch, "centralizer_basis"),
        # keyed by the power of D and by the level
        "kernel_power_basis": count_calls(
            monkeypatch, "kernel_power_basis", key=lambda args: args[1]
        ),
        "generator_set": count_calls(
            monkeypatch, "generator_set", key=lambda args: args[2]
        ),
    }

    def calls():
        return {name: dict(c) for name, c in counted.items()}

    levels = range(1, 5)
    expected = {
        "ladder_generators": {None: 1},
        "centralizer_basis": {None: 1},
        "kernel_power_basis": {level: 1 for level in levels},
        "generator_set": {level: 1 for level in levels},
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
    calls = count_calls(monkeypatch, "ladder_generators")
    items = {item.name: item for item in run_verification(3, 3, registry_path=bad)}
    assert calls == {None: 1}
    commutation, rank = items["centralizer-commutation"], items["fraction-rank"]
    assert not commutation.ok and not rank.ok
    assert commutation.detail.startswith("RegistryError: ")
    assert "not annihilated" in commutation.detail
    assert rank.detail == commutation.detail
