"""Benchmark of the dercent CLI: three workloads, untraced or traced.

    python3 perfbench/run.py --workload {construct,verify,decompose} \
        --seed N --seconds T --trace {0,1} [--results DIR]

Run from the root of a checkout.  Starts a few setup-only processes and
one measured process (perfbench/worker.py), one after the other, each a
fresh interpreter.  Prints a readable summary, then as the last line one
JSON object {"correct", "attempted", "failed", "metrics"}: with --trace 0
the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics.  Everything measured, stamped with the environment, goes to
DIR/<workload>-seed<N>-trace<0|1>.json (default DIR: .perfbench/results);
compare.py reads two such directories.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORK = Path(".perfbench")

# Setup-only processes started before and again after the measured one;
# with its own set-up they give the samples whose median is setup_s.
# Host load drifts over seconds, so the probes are split around the run.
# Each side probes until PROBE_SECONDS have passed, within PROBES_PER_SIDE:
# a quick set-up gets many samples, a slow one does not lengthen the run.
PROBE_SECONDS = 1.5
PROBES_PER_SIDE = (4, 10)
# Headroom under the 180 s a run may take.
CHILD_TIMEOUT_S = 150


def spawn(mode: str, args, out: Path, extra: tuple[str, ...] = ()) -> dict:
    """Run one worker process to completion and return what it wrote."""
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--mode", mode, "--t0", repr(t0), "--out", str(out), *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with {proc.returncode}")
    return json.loads(out.read_text())


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    That is the eleventh-largest sample, at percentile 100 (k / (N - 1))
    for its rank k counted from 0 in ascending order.  Below 21 samples
    it would lie under the median; the maximum is returned instead, as
    percentile 100.
    """
    xs = sorted(values)
    if len(xs) < 21:
        return 100.0, xs[-1]
    k = len(xs) - 11
    return 100 * k / (len(xs) - 1), xs[k]


def git_revision(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def stamp(args) -> dict:
    root = Path.cwd()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_revision": git_revision(root),
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": args.seed,
        "seconds": args.seconds,
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def classify(records: list[dict], known: list[dict]) -> tuple[list[dict], list[dict]]:
    """Split failed ops into known failures of this commit and new ones."""
    allowed = {(k["group"], k["error"]) for k in known}
    failures: dict[tuple, dict] = {}
    for r in records:
        if r["error"] is None:
            continue
        key = (r["group"], r["error"])
        entry = failures.setdefault(key, {"group": r["group"], "error": r["error"],
                                          "reason": r["reason"], "count": 0})
        entry["count"] += 1
    listed = list(failures.values())
    return ([f for f in listed if (f["group"], f["error"]) in allowed],
            [f for f in listed if (f["group"], f["error"]) not in allowed])


def digests(records: list[dict]) -> tuple[dict, list[str]]:
    """Digest of stdout per distinct argv, and the argvs whose repeats differ."""
    table: dict[str, str] = {}
    differing = []
    for r in records:
        if r["error"] is not None:
            continue
        seen = table.setdefault(r["argv"], r["digest"])
        if seen != r["digest"] and r["argv"] not in differing:
            differing.append(r["argv"])
    return dict(sorted(table.items())), differing


def end_to_end(res: dict, setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics, from the untraced ops only."""
    records = [r for r in res["records"] if not r["traced"]]
    latencies = [r["ms"] for r in records]
    q, tail_ms = tail(latencies)
    failed = sum(r["error"] is not None for r in records)
    metrics = {
        "wall_s": statistics.median(res["batch_s"]),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail_ms,
        "ok_ratio": 1 - failed / len(latencies),
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    detail = {
        "fail_ratio": failed / len(latencies),
        "op_tail_percentile": q,
        "op_tail_samples_beyond": sum(x > tail_ms for x in latencies),
        "ops": len(latencies),
        "batch_ops": res["batch_ops"],
        "batches": len(res["batch_s"]),
    }
    return metrics, detail


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("construct", "verify", "decompose"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--results", default=str(WORK / "results"),
                   help="directory for the result file")
    args = p.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    known = json.loads((HERE / "known_failures.json").read_text())[args.workload]
    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    scratch = WORK / "work"
    scratch.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    def probes() -> list[float]:
        least, most = PROBES_PER_SIDE
        samples: list[float] = []
        start = time.monotonic()
        while len(samples) < least or (
                len(samples) < most and time.monotonic() - start < PROBE_SECONDS):
            samples.append(spawn("setup", args, scratch / "setup.json")["setup_s"])
        return samples

    setups = probes()
    if args.trace:
        res = spawn("trace", args, scratch / "run.json",
                    ("--spans", str(results / f"{name}.spans.csv")))
    else:
        res = spawn("measure", args, scratch / "run.json")
    setups += [res["setup_s"]] + probes()

    metrics, detail = end_to_end(res, setups)
    known_seen, unexpected = classify(res["records"], known)
    table, differing = digests(res["records"])
    correct = not unexpected and not differing
    if args.trace:
        wanted = spec["per_layer"]
        values = res["layers"]
    else:
        wanted = spec["end_to_end"]
        values = metrics
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    out_metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}

    Path(results / f"{name}.json").write_text(json.dumps({
        "workload": args.workload,
        "trace": args.trace,
        "stamp": stamp(args),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec["end_to_end"]},
        "detail": detail,
        "layers": res.get("layers"),
        "setup_samples_s": setups,
        "batch_s": res["batch_s"],
        "traced_batch_s": res.get("traced_batch_s"),
        "known_failures": known_seen,
        "unexpected_failures": unexpected,
        "digest_mismatches": differing,
        "digests": table,
        "ops": [{k: r[k] for k in ("group", "argv", "ms", "exit", "error", "traced")}
                for r in res["records"]],
    }, indent=1))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{detail['batches']} batches, {detail['ops']} ops")
    for key, value in metrics.items():
        note = ""
        if key == "op_tail_ms":
            note = (f"  (p{detail['op_tail_percentile']:.2f}, "
                    f"{detail['op_tail_samples_beyond']} samples beyond)")
        print(f"  {key:<12} {value:12.4f} {units[key]}{note}")
    print(f"  {'fail_ratio':<12} {detail['fail_ratio']:12.4f} ratio")
    for f in known_seen:
        print(f"  known failure: {f['count']} x {f['group']} {f['error']}: {f['reason']}")
    for f in unexpected:
        print(f"  NEW FAILURE: {f['count']} x {f['group']} {f['error']}: {f['reason']}")
    for argv in differing:
        print(f"  DIGEST MISMATCH between repeats of: {argv}")
    if args.trace:
        shares = ", ".join(f"{k.split('.')[0]} {v:.3f}" for k, v in values.items()
                           if k.endswith(".self_share"))
        print(f"  self time share of the traced batch: {shares}")
        print(f"  trace.overhead_ratio {values['trace.overhead_ratio']:.4f}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(res["records"]),
        "failed": sum(f["count"] for f in known_seen + unexpected),
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
