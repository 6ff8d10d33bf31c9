"""Compare two result sets of the benchmark: a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the untraced result files run.py wrote there
(`run.py --results DIR ...`), made with the same benchmark code and
--seconds, ideally alternating which side runs first.  Runs are paired
by workload and seed.  For every workload and end-to-end metric this
prints each side's median and quartiles, the share of pairs the change
wins (ties count for neither side) and a verdict:

  gain         the change wins at least 9 of 10 pairs and the medians
               differ by more than the parent's own quartile spread;
               withheld (with the reason) when the change fails more
               ops than the parent or any change run has new failures
               or stdout digests that differ between repeats
  regression   the change's median is worse than the parent's by more
               than the metric's bound in BENCHMARK.json
  unresolved   the parent's own spread is wider than the bound and the
               change does not beat every parent run with every run
  within bound otherwise

It also reports, per workload and seed, whether every op's stdout kept
its SHA-256 digest.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(directory: Path) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted(directory.glob("*-trace0.json")):
        data = json.loads(path.read_text())
        runs[(data["workload"], data["stamp"]["seed"])] = data
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def withheld(parent: list[dict], change: list[dict]) -> str | None:
    """Why no gain may be claimed on a workload, or None.

    A change that fails more ops, or fails fast, must not read as faster.
    """
    def ok(runs: list[dict]) -> float:
        return statistics.median(r["metrics"]["ok_ratio"]["value"] for r in runs)

    if ok(change) < ok(parent):
        return "change's median ok_ratio is below the parent's"
    if any(r["unexpected_failures"] or r["digest_mismatches"] for r in change):
        return "a change run has new failures or differing repeats"
    return None


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            lower: bool, bound: float, no_gain: str | None) -> tuple[float, str]:
    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    wins = sum(better(c, p) for p, c in pairs)
    share = wins / len(pairs) if pairs else 0.0
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    worse_by = (med_c - med_p) if lower else (med_p - med_c)
    if share >= 0.9 and better(med_c, med_p) and abs(med_c - med_p) > q3 - q1:
        if no_gain is None:
            return share, "gain"
        return share, f"gain withheld: {no_gain}"
    if med_p and worse_by > bound * abs(med_p):
        return share, "regression"
    every = all(better(c, p) for c in change for p in parent)
    if med_p and (q3 - q1) > bound * abs(med_p) and not every:
        return share, "unresolved"
    return share, "within bound"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    for side, runs in (("parent", parent), ("change", change)):
        revisions = sorted({(r["stamp"]["git_revision"], r["stamp"]["source_sha256"][:12])
                            for r in runs.values()})
        print(f"{side}: {len(runs)} runs, revision/source {revisions}")
    workloads = sorted({w for w, _ in parent} | {w for w, _ in change})
    for w in workloads:
        seeds = sorted({s for ws, s in parent if ws == w} & {s for ws, s in change if ws == w})
        print(f"\n{w}: {len(seeds)} paired seeds")
        print(f"  {'metric':<12} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
              f" {'won':>5}  verdict")
        p_runs = [r for (ws, _), r in parent.items() if ws == w]
        c_runs = [r for (ws, _), r in change.items() if ws == w]
        if not p_runs or not c_runs:
            continue
        no_gain = withheld(p_runs, c_runs)
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            pairs = [(parent[(w, s)]["metrics"][name]["value"],
                      change[(w, s)]["metrics"][name]["value"]) for s in seeds]
            share, word = verdict(p, c, pairs, m["better"] == "lower", m["bound"],
                                  no_gain)
            pq, cq = quartiles(p), quartiles(c)
            print(f"  {name:<12} {pq[1]:>14.4f} [{pq[0]:.4f}, {pq[2]:.4f}]"
                  f" {cq[1]:>14.4f} [{cq[0]:.4f}, {cq[2]:.4f}] {share:>5.2f}  {word}"
                  f"  ({m['unit']})")
        for s in seeds:
            a, b = parent[(w, s)]["digests"], change[(w, s)]["digests"]
            common = a.keys() & b.keys()
            differ = sorted(k for k in common if a[k] != b[k])
            note = "identical" if not differ else f"{len(differ)} differ: {differ[:3]}"
            print(f"  seed {s}: stdout of {len(common)} distinct ops {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
