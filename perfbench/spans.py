"""Span tracing of the package under test, installed from outside.

`Tracer.install` replaces each traced function by a wrapper at every
binding the package holds: module attributes (including names imported
with `from .x import f`) and class attributes (including aliases such as
`__rmul__ = __mul__`).  Each call records a span (name, start, end,
parent span, op id) in memory; `uninstall` puts every original back.
Self time is derived afterwards from the span tree.  Counters that need
work beyond reading the clock (term counts, matrix sizes) are computed
by hooks whose time is recorded as `trace.hook` spans.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter_ns
from typing import Callable, NamedTuple

PACKAGE = "dercent"
MARK = "_perfbench_wrapped"


class Span(NamedTuple):
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index into the span list, -1 for a root
    op: int
    failed: bool


def covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


@dataclass(frozen=True)
class Target:
    """One traced function: where it is defined and what the wrapper records.

    `after(tracer, args, result)` runs once the call returned; its time is
    recorded as a `trace.hook` span so it counts against no layer.
    `distinct` records the argument tuple for the waste ratio.
    """

    module: str
    qualname: str
    name: str
    after: Callable | None = None
    distinct: bool = False


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.stack: list[tuple[int, str]] = []  # open spans: (index, name)
        self.op = 0
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.arguments: dict[tuple[str, int], set] = defaultdict(set)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, fn: Callable, target: Target) -> Callable:
        spans, stack, name, after = self.spans, self.stack, target.name, target.after
        distinct = target.distinct

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append((idx, name))
            failed = True
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.op, failed)
            if after is not None or distinct:
                h0 = perf_counter_ns()
                if distinct:
                    self.arguments[(name, self.op)].add(argument_key(args, kwargs))
                if after is not None:
                    after(self, args, result)
                spans.append(Span("trace.hook", h0, perf_counter_ns(), parent,
                                  self.op, False))
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, True)
        return wrapper

    def enclosing(self, prefix: str) -> bool:
        """Is the innermost open span one whose name starts with `prefix`?"""
        return bool(self.stack) and self.stack[-1][1].startswith(prefix)

    # -- installation ---------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        owners: list[object] = []
        for m in package_modules():
            owners.append(m)
            owners.extend(v for v in vars(m).values()
                          if isinstance(v, type) and v.__module__.startswith(PACKAGE))
        for target in targets:
            original = resolve(target.module, target.qualname)
            wrapper = self.wrap(original, target)
            hits = 0
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, attr, original))
                        setattr(owner, attr, wrapper)
                        hits += 1
            if not hits:
                raise RuntimeError(f"no binding of {target.module}.{target.qualname}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def resolve(module: str, qualname: str):
    obj = sys.modules[module]
    for part in qualname.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def package_modules() -> list:
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]


def wrapped_bindings() -> list[str]:
    """Every binding in the package that still holds a tracer wrapper."""
    found = []
    for m in package_modules():
        for attr, value in vars(m).items():
            if getattr(value, MARK, False):
                found.append(f"{m.__name__}.{attr}")
            if isinstance(value, type):
                found.extend(f"{m.__name__}.{attr}.{a}" for a, v in vars(value).items()
                             if getattr(v, MARK, False))
    return found


def argument_key(args: tuple, kwargs: dict):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
        return key
    except TypeError:
        return repr(key)


# -- what the benchmark traces ---------------------------------------------------


def nterms(p) -> int:
    terms = getattr(p, "_terms", None)
    return len(terms) if terms is not None else len(p.terms())


def _mul_pairs(t: Tracer, args, result) -> None:
    a, b = args
    t.counters["poly.mul.term_pairs"] += nterms(a) * (nterms(b) if hasattr(b, "nvars") else 1)


def _apply_terms(t: Tracer, args, result) -> None:
    t.counters["derivation.apply.terms_in"] += nterms(args[1])


def _linalg(kind: str):
    def after(t: Tracer, args, result) -> None:
        if t.enclosing("linalg."):
            return  # inputs of nested elimination calls are already counted
        if kind == "solve_many":
            columns, targets = args[0], args[1]
            vectors = list(columns) + list(targets)
        elif kind == "in_row_space":
            vectors = list(args[0]) + [args[2]]
        else:
            vectors = list(args[0])
        cells = nonzero = bits = 0
        for v in vectors:
            cells += len(v)
            for x in v:
                if x:
                    nonzero += 1
                    x = Fraction(x)
                    bits = max(bits, x.numerator.bit_length(),
                               x.denominator.bit_length())
        t.counters["linalg.cells"] += cells
        t.counters["linalg.nonzero"] += nonzero
        t.maxima["linalg.max_entry_bits"] = max(t.maxima["linalg.max_entry_bits"], bits)
    return after


def _ratfunc_degree(t: Tracer, args, result) -> None:
    if hasattr(result, "den"):
        deg = max(result.num.total_degree(), result.den.total_degree())
        t.maxima["ratfunc.max_degree"] = max(t.maxima["ratfunc.max_degree"], deg)


def _generator_elements(t: Tracer, args, result) -> None:
    t.counters["weitzenboeck.generator_set.elements"] += len(result.elements)


def _rank_samples(t: Tracer, args, result) -> None:
    t.counters["oracle.rank_over_fractions.samples"] += len(result.sampled_ranks)
    t.counters["oracle.rank_over_fractions.symbolic_fallbacks"] += result.method == "symbolic"


def _targets() -> list[Target]:
    T = Target
    out = [
        T("dercent.poly", "Poly.__mul__", "poly.mul", _mul_pairs),
        T("dercent.poly", "Poly.primitive_part", "poly.primitive_part"),
        T("dercent.poly", "Poly.to_json", "poly.to_json"),
        T("dercent.poly", "Poly.evaluate", "poly.evaluate"),
        T("dercent.poly", "poly_divexact", "poly.divexact"),
        T("dercent.derivation", "Derivation.__call__", "derivation.apply", _apply_terms),
        T("dercent.derivation", "Derivation.bracket", "derivation.bracket"),
    ]
    out += [T("dercent.linalg", fn, f"linalg.{fn}", _linalg(fn))
            for fn in ("rref", "nullspace", "solve_many", "in_row_space", "rank")]
    out += [T("dercent.ratfunc", f"RatFunc.{op}", "ratfunc.ops", _ratfunc_degree)
            for op in ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
                       "__neg__", "__eq__")]
    out += [
        T("dercent.linearder", "decompose_over_constants",
          "linearder.decompose_over_constants"),
        T("dercent.linearder", "verify_decomposition", "linearder.verify_decomposition"),
        T("dercent.linearder", "matrix_commutant", "linearder.matrix_commutant"),
        T("dercent.weitzenboeck", "generator_set", "weitzenboeck.generator_set",
          _generator_elements, distinct=True),
        T("dercent.weitzenboeck", "commuting_derivation",
          "weitzenboeck.commuting_derivation"),
        T("dercent.weitzenboeck", "centralizer_generators",
          "weitzenboeck.centralizer_generators", distinct=True),
        T("dercent.weitzenboeck", "sl2_triple", "weitzenboeck.sl2_triple"),
        T("dercent.oracle", "kernel_power_basis", "oracle.kernel_power_basis",
          distinct=True),
        T("dercent.oracle", "module_span_check", "oracle.module_span_check"),
        T("dercent.oracle", "centralizer_basis", "oracle.centralizer_basis",
          distinct=True),
        T("dercent.oracle", "derivation_span_equal", "oracle.derivation_span_equal"),
        T("dercent.oracle", "rank_over_fractions", "oracle.rank_over_fractions",
          _rank_samples),
        T("dercent.registry", "load_registry", "registry.load_registry", distinct=True),
        T("dercent.verify", "run_verification", "verify.run_verification"),
        T("dercent.cli", "main", "cli.main"),
        T("dercent.cli", "_emit", "cli.emit"),
    ]
    return out


TARGETS = _targets()


MODULES = ("poly", "derivation", "linalg", "ratfunc", "linearder",
           "weitzenboeck", "oracle", "verify", "registry", "cli")


def layer_metrics(tracer: Tracer, own: list[int], records: list[dict],
                  wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced batch, named `<module>.<function>.<stat>`.

    `own` holds the self time of each of the tracer's spans.
    """
    names = {t.name for t in TARGETS}
    calls = dict.fromkeys(names, 0)
    self_ns = dict.fromkeys(names, 0)
    failed = dict.fromkeys(names, 0)
    for s, t in zip(tracer.spans, own):
        if s.name in names:
            calls[s.name] += 1
            self_ns[s.name] += t
            failed[s.name] += s.failed
    m: dict[str, float] = {}
    for name in sorted(names):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_ms"] = self_ns[name] / 1e6
        m[f"{name}.failed"] = failed[name]
    for module in MODULES:
        total = sum(v for k, v in self_ns.items() if k.startswith(module + "."))
        m[f"{module}.self_share"] = total / 1e9 / wall_s
    for key in ("poly.mul.term_pairs", "derivation.apply.terms_in",
                "weitzenboeck.generator_set.elements", "linalg.cells",
                "oracle.rank_over_fractions.samples",
                "oracle.rank_over_fractions.symbolic_fallbacks"):
        m[key] = tracer.counters.get(key, 0)
    cells = tracer.counters.get("linalg.cells", 0)
    m["linalg.nonzero_ratio"] = tracer.counters.get("linalg.nonzero", 0) / cells if cells else 0
    m["linalg.max_entry_bits"] = tracer.maxima.get("linalg.max_entry_bits", 0)
    m["ratfunc.max_degree"] = tracer.maxima.get("ratfunc.max_degree", 0)
    distinct: dict[str, int] = {}
    for (name, _op), keys in tracer.arguments.items():
        distinct[name] = distinct.get(name, 0) + len(keys)
    for t in TARGETS:
        if t.distinct:
            m[f"{t.name}.distinct_ratio"] = (
                distinct.get(t.name, 0) / calls[t.name] if calls[t.name] else 0
            )
    m["cli.stdout_bytes"] = sum(r["bytes"] for r in records)
    return m
