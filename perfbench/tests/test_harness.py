"""Tests of the benchmark harness itself (not collected by the package suite).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import dercent.cli  # noqa: E402
import dercent.weitzenboeck  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


def test_self_time_is_duration_minus_union_of_children():
    #  root  0........................100
    #  a       10......30                    (child of root)
    #  b            20.......40              (child of root, overlaps a)
    #  c                          50..60     (child of root)
    #  d        12..14                       (child of a)
    #  e                              55.....70  (child of c, runs past it)
    tree = [
        Span("root", 0, 100, -1, 0, False),
        Span("a", 10, 30, 0, 0, False),
        Span("b", 20, 40, 0, 0, False),
        Span("c", 50, 60, 0, 0, False),
        Span("d", 12, 14, 1, 0, False),
        Span("e", 55, 70, 3, 0, False),
    ]
    assert spans.self_times(tree) == [100 - 30 - 10, 20 - 2, 20, 10 - 5, 2, 15]


def test_covered_merges_touching_and_nested_intervals():
    assert spans.covered([], 0, 10) == 0
    assert spans.covered([(0, 5), (5, 8)], 0, 10) == 8
    assert spans.covered([(2, 9), (3, 4)], 0, 10) == 7
    assert spans.covered([(-5, 3), (8, 20)], 0, 10) == 5


def snapshot() -> dict:
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "dercent" or name.startswith("dercent."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for a, v in vars(value).items():
                        out[(name, attr, a)] = v
    return out


def run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        assert dercent.cli.main(argv) == 0
    return buf.getvalue()


def test_wrappers_are_fully_removed_after_a_traced_op():
    before = snapshot()
    expected = run_cli(["centralizer", "--n", "3"])
    tracer = spans.Tracer()
    tracer.install(spans.TARGETS)
    try:
        assert spans.wrapped_bindings()
        # names imported into other modules are patched too
        assert getattr(dercent.cli.run_verification, spans.MARK, False)
        assert getattr(dercent.verify.centralizer_basis, spans.MARK, False)
        traced = run_cli(["centralizer", "--n", "3"])
    finally:
        tracer.uninstall()
    assert traced == expected
    assert spans.wrapped_bindings() == []
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "cli.emit", "weitzenboeck.centralizer_generators",
            "derivation.apply", "poly.to_json", "registry.load_registry"} <= names
    roots = [s for s in tracer.spans if s.parent == -1]
    assert [s.name for s in roots] == ["cli.main"]


def test_layer_metrics_count_repeated_constructions_as_waste():
    tracer = spans.Tracer()
    tracer.install(spans.TARGETS)
    try:
        gens = dercent.registry.registry_entry(3).generators
        for op in (0, 1):
            tracer.op = op
            dercent.weitzenboeck.generator_set(3, gens, 2)
            dercent.weitzenboeck.generator_set(3, gens, 2)
    finally:
        tracer.uninstall()
    wall = max(s.end for s in tracer.spans) - min(s.start for s in tracer.spans)
    m = spans.layer_metrics(tracer, spans.self_times(tracer.spans), [], wall / 1e9)
    assert m["weitzenboeck.generator_set.calls"] == 4
    assert m["weitzenboeck.generator_set.distinct_ratio"] == 0.5
    assert m["registry.load_registry.calls"] == 1
    assert 0 < m["weitzenboeck.self_share"] <= 1


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(1000, 0, -1)]
    assert run.tail(values) == (100 * 989 / 999, 990.0)
    assert run.tail(values[-21:]) == (50.0, 11.0)
    assert run.tail(values[-20:]) == (100.0, 20.0)


def test_op_counts_give_every_kind_an_equal_time_share():
    for workload, latency in workloads.MEDIAN_MS.items():
        share_ms = workloads.SHARE_S[workload] * 1000
        for kind, count in workloads.op_counts(workload).items():
            if latency[kind] >= share_ms:
                assert count == 1
            else:
                assert abs(count * latency[kind] - share_ms) <= latency[kind] / 2


def test_gain_is_withheld_when_the_change_fails_more_ops():
    def result(ok: float, new: list) -> dict:
        return {"metrics": {"ok_ratio": {"value": ok}},
                "unexpected_failures": new, "digest_mismatches": []}

    parent = [result(0.99, [])] * 3
    assert compare.withheld(parent, [result(0.99, [])] * 3) is None
    assert compare.withheld(parent, [result(0.98, [])] * 3) is not None
    assert compare.withheld(parent, [result(0.99, [{"group": "g"}])] * 3) is not None
    pairs = [(10.0, 5.0)] * 10
    assert compare.verdict([10.0] * 10, [5.0] * 10, pairs, True, 0.25, None)[1] == "gain"
    word = compare.verdict([10.0] * 10, [5.0] * 10, pairs, True, 0.25, "fails more")[1]
    assert word.startswith("gain withheld")


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_centralizer_check_reads_samples_and_catches_a_wrong_generator(in_tmp):
    out = in_tmp / "out.json"
    out.write_text(run_cli(["centralizer", "--n", "4"]))
    check = workloads.check_centralizer(4)
    assert check(out, random.Random(0)) is None
    report = json.loads(out.read_text())
    count = report["result"]["count"]
    # corrupt every generator, so whichever are sampled, one is caught
    for g in report["result"]["generators"]:
        g["derivation"]["coeffs"][0]["terms"].append({"coeff": "1", "exp": [0, 0, 0, 1]})
    out.write_text(json.dumps(report, indent=2, sort_keys=True))
    assert check(out, random.Random(0)) is not None
    found, _ = workloads.sample_items(out, workloads.CENTRALIZER_ITEM, 1, random.Random(0))
    assert found == count


def test_peeled_check_catches_missing_coefficients(in_tmp):
    workloads.INPUT_DIR.mkdir(parents=True)
    op = workloads.peeled_case(random.Random(0), 3, 0)
    out = in_tmp / "out.json"
    out.write_text(run_cli(list(op.argv)))
    assert op.check(out, random.Random(0)) is None
    report = json.loads(out.read_text())
    for keep in (2, 0):
        del report["result"]["decomposition"]["coefficients"][keep:]
        out.write_text(json.dumps(report))
        assert op.check(out, random.Random(0)) is not None


def test_generated_inputs_depend_only_on_the_seed(in_tmp):
    first = [op.argv for op in workloads.build("decompose", 5)]
    files = {p.name: p.read_text() for p in workloads.INPUT_DIR.iterdir()}
    again = [op.argv for op in workloads.build("decompose", 5)]
    assert first == again
    assert files == {p.name: p.read_text() for p in workloads.INPUT_DIR.iterdir()}
    workloads.build("decompose", 6)
    assert files != {p.name: p.read_text() for p in workloads.INPUT_DIR.iterdir()}


def test_every_decompose_op_passes_its_check_or_is_a_listed_failure(in_tmp):
    known = json.loads((ROOT / "perfbench" / "known_failures.json").read_text())
    runner = worker.Runner(dercent.cli, seed=1)
    runner.batch(workloads.build("decompose", 1))
    _, new = run.classify(runner.records, known["decompose"])
    assert new == []
