"""One workload process: set up, then run the op batch in a closed loop.

Started by run.py, one fresh interpreter per setup probe and per
measured run, so import time, input generation and peak memory belong
to this workload alone.  Drives `dercent.cli.main(argv)` in process, one
op at a time; each op's stdout goes to a file as if redirected by a
shell, and is digested and checked after the op's clock has stopped.

    python3 perfbench/worker.py --workload W --seed S --seconds T \
        --mode {setup,measure,trace} --t0 MONOTONIC --out RESULT.json \
        [--spans SPANS.csv]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

STDOUT = Path(".perfbench") / "stdout.json"

# Prefixes the CLI writes to stderr for the errors it turns into exit codes.
ERROR_PREFIXES = {
    "resource limit exceeded": "ResourceLimitError",
    "precondition violated": "PreconditionError",
    "input error": "InputError",
}


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 22):
            h.update(block)
    return h.hexdigest()


def error_class(code: int, stderr: str) -> str:
    for prefix, name in ERROR_PREFIXES.items():
        if stderr.startswith(prefix):
            return name
    return "VerificationFailed" if code == 1 else f"exit{code}"


class Runner:
    """Runs ops against the CLI and keeps one record per op."""

    def __init__(self, cli, seed: int):
        self.cli = cli
        self.seed = seed
        self.records: list[dict] = []

    def run(self, index: int, op, tracer=None) -> dict:
        err = io.StringIO()
        error = None
        fh = open(STDOUT, "w")
        if tracer is not None:
            tracer.op = len(self.records)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(fh), contextlib.redirect_stderr(err):
                code = self.cli.main(list(op.argv))
        except Exception as exc:  # a crash is a failed op, not a crashed run
            code, error = None, type(exc).__name__
        finally:
            fh.close()
        ms = (time.perf_counter() - start) * 1000
        if error is None and code != 0:
            error = error_class(code, err.getvalue())
        if error is None:
            try:
                reason = op.check(STDOUT, random.Random(f"{self.seed}:{index}"))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"unreadable report: {type(exc).__name__}: {exc}"
            if reason is not None:
                error = "CheckFailed"
        else:
            reason = err.getvalue().strip().splitlines()[:1]
            reason = reason[0] if reason else error
        record = {
            "index": index,
            "group": op.group,
            "argv": " ".join(op.argv),
            "ms": ms,
            "exit": code,
            "error": error,
            "reason": reason,
            "digest": digest(STDOUT),
            "bytes": STDOUT.stat().st_size,
            "traced": tracer is not None,
        }
        self.records.append(record)
        return record

    def batch(self, ops, tracer=None) -> float:
        """Run every op once; the batch time is the sum of op latencies."""
        return sum(self.run(i, op, tracer)["ms"] for i, op in enumerate(ops)) / 1000


def setup(workload: str, seed: int):
    import dercent.cli as cli
    import workloads

    ops = workloads.build(workload, seed)
    for argv in workloads.warmup_argvs(workload):
        with open(STDOUT, "w") as fh, contextlib.redirect_stdout(fh), \
                contextlib.redirect_stderr(io.StringIO()):
            if cli.main(list(argv)) != 0:
                raise RuntimeError(f"warm-up op failed: {' '.join(argv)}")
    return cli, ops


def measure(runner: Runner, ops, seconds: float) -> dict:
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        walls.append(runner.batch(ops))
    return {"batch_s": walls}


def trace(runner: Runner, ops, seconds: float, spans_path: Path) -> dict:
    import spans as S

    plain, traced, layers = [], [], []
    start = time.perf_counter()
    with open(spans_path, "w") as out:
        out.write("batch,name,start_ns,end_ns,parent,op,failed,self_ns\n")
        while not traced or time.perf_counter() - start < seconds:
            plain.append(runner.batch(ops))
            tracer = S.Tracer()
            first = len(runner.records)
            tracer.install(S.TARGETS)
            try:
                traced.append(runner.batch(ops, tracer))
            finally:
                tracer.uninstall()
            own_ns = S.self_times(tracer.spans)
            layers.append(S.layer_metrics(tracer, own_ns, runner.records[first:],
                                          traced[-1]))
            for s, own in zip(tracer.spans, own_ns):
                out.write(f"{len(traced) - 1},{s.name},{s.start},{s.end},"
                          f"{s.parent},{s.op},{int(s.failed)},{own}\n")
    if S.wrapped_bindings():
        raise RuntimeError("tracer wrappers left installed")
    metrics = {k: statistics.fmean(m[k] for m in layers) for k in layers[0]}
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain) - 1
    )
    return {"batch_s": plain, "traced_batch_s": traced, "layers": metrics}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() of the parent just before this process started")
    p.add_argument("--out", required=True)
    p.add_argument("--spans", help="span file of a traced run")
    args = p.parse_args()

    cli, ops = setup(args.workload, args.seed)
    out = {"setup_s": time.monotonic() - args.t0}
    if args.mode != "setup":
        runner = Runner(cli, args.seed)
        if args.mode == "measure":
            out.update(measure(runner, ops, args.seconds))
        else:
            out.update(trace(runner, ops, args.seconds, Path(args.spans)))
        out["batch_ops"] = len(ops)
        out["records"] = runner.records
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
