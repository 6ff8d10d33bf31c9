"""Verification suite: each shared construction is built once per run."""

from collections import Counter

import dercent.verify
from dercent.verify import run_verification


def test_each_construction_built_once_per_run(monkeypatch):
    calls = Counter()

    def counted(name, key=lambda args: None):
        inner = getattr(dercent.verify, name)

        def wrapper(*args, **kwargs):
            calls[name, key(args)] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(dercent.verify, name, wrapper)

    counted("centralizer_generators")
    counted("centralizer_basis")
    counted("kernel_power_basis", key=lambda args: args[1])  # the power

    expected = Counter(
        {("centralizer_generators", None): 1, ("centralizer_basis", None): 1}
        | {("kernel_power_basis", level): 1 for level in range(1, 5)}
    )
    assert all(item.ok for item in run_verification(4, 3))
    assert calls == expected
    # nothing outlives a run: a second one builds everything again
    run_verification(4, 3)
    assert calls == expected + expected
