"""Command-line front end.

Subcommands wrap the library operations and emit a deterministic JSON
report (or aligned text with --format text) on stdout; timing and
diagnostics go to stderr.  Exit codes: 0 success, 1 verification
failure, 2 input error, 3 precondition error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections.abc import Callable
from json.encoder import encode_basestring_ascii as _encode_str

from . import __version__
from .derivation import Derivation
from .errors import PreconditionError, ResourceLimitError
from .linearder import (
    decompose_over_constants,
    linear_derivation,
    matrix_from_json,
    matrix_to_json,
    verify_decomposition,
)
from .oracle import kernel_power_basis, rank_over_fractions
from .registry import registry_entry
from .verify import VerificationRun, first_failure, run_verification
from .weitzenboeck import (
    centralizer_generators,
    generator_set,
    sl2_triple,
    weitzenboeck_derivation,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_PRECONDITION = 3


def _require_n(n: int) -> int:
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return n


def _load_input(path: str, decode: Callable[[dict], object]):
    """decode(the JSON object in the file at path).

    A top level that is not an object, or a value of the wrong shape
    (a number where a list belongs), is an input error like a missing
    key: it raises ValueError, not the TypeError of the decoder.
    """
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("malformed input: the top level is not a JSON object")
    try:
        return decode(data)
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed input: {exc}") from exc


def _config(args: argparse.Namespace) -> dict:
    # seed is part of every report, defaulted for commands that never
    # sample, so reruns are comparable across the board
    cfg = {"format": args.format, "seed": getattr(args, "seed", 0)}
    for key in ("n", "deg", "power", "level", "input", "registry"):
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


# Output pieces gathered before one write to stdout: a report is streamed
# in blocks of this many pieces, never joined into one string.
_BLOCK_PIECES = 4096


def write_json(obj, write) -> None:
    """Write the bytes of `json.dumps(obj, indent=2, sort_keys=True,
    default=lambda o: o.to_json()) + "\\n"` in blocks.

    `write` is called with joined blocks of about `_BLOCK_PIECES` pieces.
    Dicts with `str` keys, lists, tuples, `str`, `int`, `bool` and `None`
    are encoded as they are.  Any other object with a `to_json()` method
    is encoded as what that method returns, called when the writer
    reaches it, so each object's tree lives only while it is written.
    Anything else (floats included) raises TypeError.
    """
    out: list[str] = []
    append = out.append
    # newline[k] opens line k levels deep; comma[k] ends an item there
    newline = ["\n"]
    comma = [",\n"]

    def encode(o, level: int) -> None:
        if isinstance(o, str):
            append(_encode_str(o))
        elif o is None:
            append("null")
        elif o is True:
            append("true")
        elif o is False:
            append("false")
        elif isinstance(o, int):
            append(int.__repr__(o))
        elif isinstance(o, (list, tuple, dict)):
            if not o:
                append("{}" if isinstance(o, dict) else "[]")
                return
            inner = level + 1
            if inner == len(newline):
                newline.append(newline[-1] + "  ")
                comma.append(comma[-1] + "  ")
            sep = comma[inner]
            if isinstance(o, dict):
                first = "{" + newline[inner]
                for key in sorted(o):
                    append(first)
                    append(_encode_str(key))
                    append(": ")
                    encode(o[key], inner)
                    first = sep
                append(newline[level])
                append("}")
            elif all(type(x) is int for x in o):
                append("[" + newline[inner] + sep.join(map(int.__repr__, o))
                       + newline[level] + "]")
            else:
                first = "[" + newline[inner]
                for item in o:
                    append(first)
                    encode(item, inner)
                    first = sep
                append(newline[level])
                append("]")
        elif hasattr(o, "to_json"):
            encode(o.to_json(), level)
        else:
            raise TypeError(
                f"Object of type {type(o).__name__} is not JSON serializable"
            )
        if len(out) >= _BLOCK_PIECES:
            write("".join(out))
            out.clear()

    encode(obj, 0)
    append("\n")
    write("".join(out))


def _emit(args: argparse.Namespace, command: str, result: dict,
          text: Callable[[], str]) -> None:
    """Print the report; `text()` builds the --format text rendering.

    `result` holds the computed objects themselves; `write_json` turns
    each into JSON as it writes it, so no tree of the whole report is
    built first.
    """
    if args.format == "text":
        print(text())
        return
    payload = {
        "command": command,
        "config": _config(args),
        "version": __version__,
        "result": result,
    }
    write_json(payload, sys.stdout.write)


# -- command handlers --------------------------------------------------------


def cmd_sl2(args) -> int:
    n = _require_n(args.n)
    triple = sl2_triple(n)
    result = {
        "n": n,
        "d": triple.d,
        "dhat": triple.dhat,
        "h": triple.h,
        "relations_hold": True,
    }

    def text() -> str:
        return "\n".join(
            [f"D    = {triple.d}", f"Dhat = {triple.dhat}", f"H    = {triple.h}"]
        )

    _emit(args, "sl2", result, text)
    return EXIT_OK


def cmd_gens(args) -> int:
    n = _require_n(args.n)
    level = args.level if args.level is not None else n
    entry = registry_entry(n, args.registry)
    S = generator_set(n, entry.generators, level)
    result = {
        "n": n,
        "level": level,
        "registry_source": entry.source,
        "kernel_generators": entry.generators,
        "set": S,
    }

    def text() -> str:
        lines = [
            f"generators of the kernel of D^{level} as a Ker D-module (n={n}):"
        ]
        for k, el in enumerate(S.elements, 1):
            factors = (
                " * ".join(f"Dhat^{p}(a{g + 1})" for g, p in el.factors) or "1"
            )
            lines.append(f"  [{k}] {str(el.poly):<30} = ({el.scale}) * {factors}")
        return "\n".join(lines)

    _emit(args, "gens", result, text)
    return EXIT_OK


def cmd_centralizer(args) -> int:
    n = _require_n(args.n)
    entry = registry_entry(n, args.registry)
    gens = centralizer_generators(n, entry.generators)
    result = {
        "n": n,
        "registry_source": entry.source,
        "kernel_generators": entry.generators,
        "count": len(gens),
        "generators": gens,
    }

    def text() -> str:
        lines = [
            f"centralizer generators over Ker D (n={n}, {len(gens)} elements):"
        ]
        for k, g in enumerate(gens, 1):
            lines.append(f"  [{k}] {str(g.derivation):<44} s = {g.element.poly}")
        return "\n".join(lines)

    _emit(args, "centralizer", result, text)
    return EXIT_OK


def cmd_bracket(args) -> int:
    left, right = _load_input(args.input, lambda data: (
        Derivation.from_json(data["left"]), Derivation.from_json(data["right"])
    ))
    br = left.bracket(right)
    result = {
        "left": left,
        "right": right,
        "bracket": br,
    }
    _emit(args, "bracket", result, lambda: f"[{left}, {right}] = {br}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    T, a = _load_input(args.input, lambda data: (
        Derivation.from_json(data["derivation"]), matrix_from_json(data["matrix"])
    ))
    dec = decompose_over_constants(T, a)
    verified = verify_decomposition(dec, linear_derivation(a))
    result = {
        "matrix": matrix_to_json(a),
        "decomposition": dec,
        "verified": verified,
    }

    def text() -> str:
        lines = [f"T = {T}"]
        for j, phi in enumerate(dec.coefficients):
            lines.append(f"  phi_{j} = {phi}")
        lines.append(f"verified: {verified}")
        return "\n".join(lines)

    _emit(args, "decompose", result, text)
    return EXIT_OK


def cmd_rank(args) -> int:
    derivs = _load_input(args.input, lambda data: [
        Derivation.from_json(d) for d in data["derivations"]
    ])
    result = rank_over_fractions(derivs, seed=args.seed)
    payload = {"certificate": result, "rank": result.rank}
    _emit(args, "rank", payload,
          lambda: f"rank = {result.rank} ({result.method})")
    return EXIT_OK


def cmd_verify(args) -> int:
    n = _require_n(args.n)
    items = run_verification(n, args.deg, seed=args.seed,
                             registry_path=args.registry)
    failure = first_failure(items)
    result = {
        "n": n,
        "degree": args.deg,
        "items": items,
        "ok": failure is None,
        "first_failure": failure,
    }

    def text() -> str:
        lines = [
            f"  {item.name:<36} {'PASS' if item.ok else 'FAIL'}" for item in items
        ]
        header = f"verification suite n={n} deg={args.deg}:"
        return "\n".join([header] + lines)

    _emit(args, "verify", result, text)
    return EXIT_OK if failure is None else EXIT_VERIFICATION_FAILED


def cmd_oracle_kernel(args) -> int:
    n = _require_n(args.n)
    basis = kernel_power_basis(weitzenboeck_derivation(n), args.power, args.deg)
    result = {
        "n": n,
        "power": args.power,
        "degree": args.deg,
        "dimension": basis.dimension(),
        "certificate": basis,
    }

    def text() -> str:
        lines = [
            f"kernel of D^{args.power}, degree <= {args.deg}: "
            f"dimension {basis.dimension()}"
        ] + [f"  {v}" for v in basis.vectors]
        return "\n".join(lines)

    _emit(args, "oracle kernel", result, text)
    return EXIT_OK


def cmd_oracle_thm2(args) -> int:
    n = _require_n(args.n)
    run = VerificationRun(n, args.deg, registry_entry(n, args.registry).generators)
    checks = []
    for i in range(1, n + 1):
        target, res = run.span_check(i)
        checks.append({"i": i, "ok": res.ok, "dimension": target.dimension(),
                       "certificate": res.certificate})
    all_ok = all(c["ok"] for c in checks)
    result = {"n": n, "degree": args.deg, "ok": all_ok, "certificate": checks}

    def text() -> str:
        lines = [f"power-kernel span checks n={n} deg={args.deg}:"] + [
            f"  i={c['i']}: {'PASS' if c['ok'] else 'FAIL'} "
            f"(dim {c['dimension']})" for c in checks
        ]
        return "\n".join(lines)

    _emit(args, "oracle verify-thm2", result, text)
    return EXIT_OK if all_ok else EXIT_VERIFICATION_FAILED


def cmd_oracle_prop1(args) -> int:
    n = _require_n(args.n)
    ok, dimension, count = VerificationRun(n, args.deg).ladder_check()
    result = {
        "n": n,
        "degree": args.deg,
        "ok": ok,
        "certificate": {"enumerated_dimension": dimension, "ladder_count": count},
    }

    def text() -> str:
        return (
            f"centralizer/ladder span equality n={n} deg={args.deg}: "
            f"{'PASS' if ok else 'FAIL'} "
            f"(enumerated dim {dimension}, ladders {count})"
        )

    _emit(args, "oracle verify-prop1", result, text)
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


# -- parser -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by `main`.

    Parsing leaves the parser unchanged, so repeated in-process calls of
    `main` share it.
    """
    parser = argparse.ArgumentParser(
        prog="dercent",
        description="Exact centralizers of linear derivations on polynomial rings.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, n=False, deg=False, seed=False, registry=False,
                   input_file=False):
        p.add_argument("--format", choices=("json", "text"), default="json")
        if n:
            p.add_argument("--n", type=int, required=True,
                           help="number of variables (>= 2)")
        if deg:
            p.add_argument("--deg", type=int, required=True,
                           help="truncation degree for the oracles")
        if seed:
            p.add_argument("--seed", type=int, default=0,
                           help="seed for random evaluation points")
        if registry:
            p.add_argument("--registry", default=None,
                           help="path to an alternate kernel registry JSON")
        if input_file:
            p.add_argument("--input", required=True,
                           help="path to a JSON input file")

    p = sub.add_parser("sl2", help="the sl2 triple around the Weitzenboeck derivation")
    add_common(p, n=True)
    p.set_defaults(handler=cmd_sl2)

    p = sub.add_parser("gens", help="module generators of the kernel of a power")
    add_common(p, n=True, registry=True)
    p.add_argument("--level", type=int, default=None,
                   help="which power of the derivation (default: n)")
    p.set_defaults(handler=cmd_gens)

    p = sub.add_parser("centralizer", help="module generators of the centralizer")
    add_common(p, n=True, registry=True)
    p.set_defaults(handler=cmd_centralizer)

    p = sub.add_parser("bracket", help="Lie bracket of two derivations")
    add_common(p, input_file=True)
    p.set_defaults(handler=cmd_bracket)

    p = sub.add_parser("decompose",
                       help="decompose a commuting derivation over constants")
    add_common(p, input_file=True)
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("rank", help="rank of derivations over the fraction field")
    add_common(p, seed=True, input_file=True)
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("verify", help="run the full verification suite")
    add_common(p, n=True, deg=True, seed=True, registry=True)
    p.set_defaults(handler=cmd_verify)

    oracle = sub.add_parser("oracle", help="brute-force verification engines")
    osub = oracle.add_subparsers(dest="oracle_command", required=True)

    p = osub.add_parser("kernel", help="truncated kernel of a power of D")
    add_common(p, n=True, deg=True)
    p.add_argument("--power", type=int, required=True)
    p.set_defaults(handler=cmd_oracle_kernel)

    p = osub.add_parser("verify-thm2",
                        help="kernel bases lie in the module span of the "
                             "constructed generating sets")
    add_common(p, n=True, deg=True, registry=True)
    p.set_defaults(handler=cmd_oracle_thm2)

    p = osub.add_parser("verify-prop1",
                        help="enumerated centralizer equals the span of "
                             "coefficient-ladder derivations")
    add_common(p, n=True, deg=True)
    p.set_defaults(handler=cmd_oracle_prop1)

    p = osub.add_parser("rank", help="rank of derivations over the fraction field")
    add_common(p, seed=True, input_file=True)
    p.set_defaults(handler=cmd_rank)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    start = time.monotonic()
    try:
        code = args.handler(args)
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ResourceLimitError as exc:
        print(f"resource limit exceeded: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (ValueError, KeyError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    finally:
        elapsed = time.monotonic() - start
        print(f"elapsed_ms={int(elapsed * 1000)}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
