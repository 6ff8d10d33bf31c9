"""Seeded inputs, op batches and output checks for the three workloads.

A workload is a fixed batch of CLI ops.  The op mix (which commands, how
many of each) is the same for every seed; the seed only chooses the
inputs: the rescaled kernel registry, the derivation pairs, the
decomposition and rank families.  Inputs are written under a fixed
relative directory so the argv, and with it every report's `config`, is
the same on every run.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import qpoly as Q

HERE = Path(__file__).resolve().parent
BASE_REGISTRY = HERE / "data" / "base_registry.json"

# Generated inputs; relative to the checkout root, which is the working
# directory of every run.
INPUT_DIR = Path(".perfbench") / "inputs"
REGISTRY = INPUT_DIR / "registry.json"

# How many emitted generators or generator-set elements each large
# report has checked.
SAMPLE = 6


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check its output file must pass."""

    group: str
    argv: tuple[str, ...]
    check: Callable[[Path, random.Random], str | None]


# -- shared generators ------------------------------------------------------


def small_rational(rng: random.Random) -> Fraction:
    """Nonzero p/q with |p|, q in 1..9."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def random_poly(rng: random.Random, n: int, degrees: tuple[int, ...]) -> Q.Poly:
    """One term of each given degree, on random variables, random coefficients.

    The degrees are fixed by the caller so that every seed gives work of
    the same shape; terms that land on the same monomial are merged.
    """
    out: Q.Poly = {}
    for deg in degrees:
        exp = [0] * n
        for _ in range(deg):
            exp[rng.randrange(n)] += 1
        out = Q.add(out, {tuple(exp): small_rational(rng)})
    return out


def spread(groups: list[list[Op]]) -> list[Op]:
    """Interleave the groups so each is spread evenly over the batch.

    Host load drifts on a scale of seconds; spreading each kind of op
    over the batch keeps one slow stretch from hitting all ops of a kind.
    """
    keyed = [((i + 0.5) / len(g), k, op)
             for k, g in enumerate(groups) for i, op in enumerate(g)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


# -- traffic ----------------------------------------------------------------------
#
# One rule sets how many ops of each kind a batch holds: every op kind (a
# command at one size) gets about the same share of the batch's time,
# SHARE_S seconds, so its count is max(1, round(SHARE_S / t)) for its median
# latency t.  A kind slower than the share runs once.  The latencies below
# are medians over ten seeds of the runs that fixed this rule (2-vCPU Intel
# Xeon at 2.1 GHz, Python 3.11); they are constants so the batch is the same
# on every machine and every later commit.  SHARE_S only sets the batch
# length.  One `centralizer --n 6` already takes 15 s, so construct's other
# kinds get 0.5 s each; with verify's 8 s the two batches are 20 s and 17 s
# at the latencies below, and over the host speeds seen (0.85x to 1.25x)
# exactly two fit a 28 s run, so a run's sample count does not follow the
# host.  Decompose's 2.8 s batch repeats about ten times.

MEDIAN_MS = {
    "construct": {
        "centralizer-n6": 14944.0, "centralizer-n5": 117.2, "centralizer-n4": 23.2,
        "gens-n6-l6": 2590.7, "gens-n6-l5": 482.8, "gens-n6-l4": 76.9,
        "gens-n6-l3": 14.6, "bracket": 4.98,
    },
    "verify": {"verify-n4-d5": 2946.7, "verify-n5-d4": 8341.2},
    "decompose": {
        "decompose-a-n3": 6.55, "decompose-a-n4": 9.52, "decompose-a-n5": 13.96,
        "decompose-b-n3": 81.7, "decompose-b-n4": 380.1,
        "rank-n3": 5.61, "rank-n4": 6.41, "rank-n5": 7.60, "rank-n6": 8.60,
    },
}
SHARE_S = {"construct": 0.5, "verify": 8.0, "decompose": 0.3}


def op_counts(workload: str) -> dict[str, int]:
    """Ops per batch of each kind of the workload, by the equal-time rule."""
    share_ms = SHARE_S[workload] * 1000
    return {kind: max(1, round(share_ms / t))
            for kind, t in MEDIAN_MS[workload].items()}


def kernel_generators(n: int) -> list[Q.Poly]:
    raw = json.loads(BASE_REGISTRY.read_text())[str(n)]["generators"]
    return [Q.from_json(g) for g in raw]


def write_registry(rng: random.Random) -> None:
    """The packaged-format registry with every generator rescaled.

    Each generator is multiplied by a random nonzero rational, which
    keeps it an isobaric kernel element and keeps the set generating.
    The triangular change (adding multiples of products of earlier
    generators of equal degree and weight) has nothing to act on: for
    n <= 6 no such product exists in the base registry.
    """
    raw = json.loads(BASE_REGISTRY.read_text())
    for entry in raw.values():
        n = entry["n"]
        entry["generators"] = [
            Q.to_json(Q.scale(Q.from_json(g), small_rational(rng)), n)
            for g in entry["generators"]
        ]
    REGISTRY.write_text(json.dumps(raw, indent=2, sort_keys=True))


# -- output readers -----------------------------------------------------------

_DECODER = json.JSONDecoder()


def sample_items(path: Path, marker: bytes, k: int,
                 rng: random.Random) -> tuple[int, list[dict]]:
    """Decode k seeded-random array items of a large indented report.

    `marker` is the byte string that opens one array item (the newline
    and indent before its `{` and its first key).  The file is scanned
    in blocks and only the sampled items are decoded, so checking a
    100 MB report holds neither the report nor its parse in memory.
    Returns (number of items found, decoded sample).
    """
    offsets = []
    block = 1 << 22
    with open(path, "rb") as fh:
        pos = 0
        tail = b""
        while True:
            chunk = fh.read(block)
            if not chunk:
                break
            data = tail + chunk
            base = pos - len(tail)
            start = 0
            while (hit := data.find(marker, start)) >= 0:
                offsets.append(base + hit)
                start = hit + 1
            tail = data[-(len(marker) - 1):]
            pos += len(chunk)
        items = []
        for off in sorted(rng.sample(offsets, min(k, len(offsets)))):
            brace = off + marker.index(b"{")
            window = 1 << 16
            while True:
                fh.seek(brace)
                text = fh.read(window).decode()
                try:
                    items.append(_DECODER.raw_decode(text)[0])
                    break
                except json.JSONDecodeError:
                    if len(text) < window:
                        raise
                    window *= 4
    return len(offsets), items


def read_head_int(path: Path, key: str) -> int | None:
    with open(path, "rb") as fh:
        head = fh.read(1 << 14).decode(errors="replace")
    m = re.search(rf'"{key}": (\d+)', head)
    return int(m.group(1)) if m else None


def load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# -- construct ------------------------------------------------------------------

CENTRALIZER_ITEM = b'\n      {\n        "derivation": {'
GENS_ITEM = b'\n        {\n          "factors": ['


def check_centralizer(n: int):
    def check(path: Path, rng: random.Random) -> str | None:
        count = read_head_int(path, "count")
        found, items = sample_items(path, CENTRALIZER_ITEM, SAMPLE, rng)
        if count is None or count != found or not items:
            return f"generator count {count} but {found} generators emitted"
        D = Q.weitzenboeck(n)
        for item in items:
            T = Q.deriv_from_json(item["derivation"])
            s = Q.from_json(item["element"]["poly"])
            if T[n - 1] != s or not s:
                return "last coefficient of a generator is not its element"
            if any(Q.bracket(T, D)):
                return f"[T, D] != 0 for the generator from s = {s}"
        return None
    return check


def check_gens(n: int, level: int):
    def check(path: Path, rng: random.Random) -> str | None:
        found, items = sample_items(path, GENS_ITEM, SAMPLE, rng)
        if not items:
            return "no generator-set elements emitted"
        D = Q.weitzenboeck(n)
        for item in items:
            f = Q.from_json(item["poly"])
            for _ in range(level):
                f = Q.apply(D, f)
            if f:
                return f"element not killed by D^{level}"
        return None
    return check


def check_bracket(left: list[Q.Poly], right: list[Q.Poly]):
    expected = Q.bracket(left, right)

    def check(path: Path, rng: random.Random) -> str | None:
        got = Q.deriv_from_json(load(path)["result"]["bracket"])
        return None if got == expected else "bracket differs from reference"
    return check


def construct_ops(rng: random.Random) -> list[Op]:
    reg = ("--registry", str(REGISTRY))
    count = op_counts("construct")
    centralizers = [
        [Op(f"centralizer-n{n}", ("centralizer", "--n", str(n)) + reg,
            check_centralizer(n)) for _ in range(count[f"centralizer-n{n}"])]
        for n in (6, 5, 4)
    ]
    gens = [
        [Op(f"gens-n6-l{level}", ("gens", "--n", "6", "--level", str(level)) + reg,
            check_gens(6, level)) for _ in range(count[f"gens-n6-l{level}"])]
        for level in range(3, 7)
    ]
    brackets = []
    for k in range(count["bracket"]):
        n = 3 + k % 4
        left = [random_poly(rng, n, (3, 1)) for _ in range(n)]
        right = [random_poly(rng, n, (3, 1)) for _ in range(n)]
        path = INPUT_DIR / f"bracket-{k}.json"
        path.write_text(json.dumps({"left": Q.deriv_to_json(left, n),
                                    "right": Q.deriv_to_json(right, n)}))
        brackets.append(Op("bracket", ("bracket", "--input", str(path)),
                           check_bracket(left, right)))
    return spread(centralizers + gens + [brackets])


# -- verify ----------------------------------------------------------------------


def check_verify(path: Path, rng: random.Random) -> str | None:
    result = load(path)["result"]
    bad = [item["name"] for item in result["items"] if not item["ok"]]
    if bad or not result["ok"]:
        return f"verification items failed: {bad}"
    return None


def verify_ops(rng: random.Random) -> list[Op]:
    reg = ("--registry", str(REGISTRY))
    count = op_counts("verify")
    return spread([
        [Op(f"verify-n{n}-d{deg}",
            ("verify", "--n", str(n), "--deg", str(deg),
             "--seed", str(rng.randrange(10**6))) + reg,
            check_verify)
         for _ in range(count[f"verify-n{n}-d{deg}"])]
        for n, deg in ((5, 4), (4, 5))
    ])


# -- decompose -------------------------------------------------------------------


def shift_power(n: int, k: int) -> list[list[Fraction]]:
    """N^k for the lower shift N (ones below the diagonal)."""
    return [[Fraction(1 if i == j + k else 0) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0))
             for j in range(n)] for i in range(n)]


def unimodular(rng: random.Random, n: int):
    """Random integer P with det +-1 and its integer inverse."""
    def entry() -> Fraction:
        return Fraction(rng.choice((-1, 1)))

    lower = [[Fraction(1) if i == j else (entry() if i > j else Fraction(0))
              for j in range(n)] for i in range(n)]
    upper = [[Fraction(1) if i == j else (entry() if i < j else Fraction(0))
              for j in range(n)] for i in range(n)]
    P = mat_mul(lower, upper)
    return P, invert(P)


def invert(m):
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def combine(coeffs: list[Q.Poly], derivs: list[list[Q.Poly]], n: int) -> list[Q.Poly]:
    out = [{} for _ in range(n)]
    for c, d in zip(coeffs, derivs):
        for i, di in enumerate(d):
            if di:
                out[i] = Q.add(out[i], Q.mul(c, di))
    return out


def check_peeled(n: int, coeffs: list[Q.Poly]):
    """Group (a): verified, shift-power basis, coefficients equal the p_j."""
    basis = [Q.matrix_to_json(shift_power(n, k)) for k in range(n)]

    def check(path: Path, rng: random.Random) -> str | None:
        result = load(path)["result"]
        dec = result["decomposition"]
        if result["verified"] is not True:
            return "decomposition not verified"
        if [m["entries"] for m in dec["basis"]] != [b["entries"] for b in basis]:
            return "basis is not the shift powers"
        if len(dec["coefficients"]) != len(coeffs):
            return "coefficient and basis counts differ"
        for phi, p in zip(dec["coefficients"], coeffs):
            if Q.from_json(phi["num"]) != Q.mul(p, Q.from_json(phi["den"])):
                return "coefficient differs from the constructed one"
        return None
    return check


def check_solved(matrix, T: list[Q.Poly]):
    """Group (b): verified, and recombination and constancy re-checked here."""
    n = len(matrix)
    D = Q.linear(matrix)

    def check(path: Path, rng: random.Random) -> str | None:
        result = load(path)["result"]
        dec = result["decomposition"]
        if result["verified"] is not True:
            return "decomposition not verified"
        basis = [[[Fraction(x) for x in row] for row in b["entries"]]
                 for b in dec["basis"]]
        if any(mat_mul(B, matrix) != mat_mul(matrix, B) for B in basis):
            return "basis matrix outside the commutant"
        phis = [(Q.from_json(phi["num"]), Q.from_json(phi["den"]))
                for phi in dec["coefficients"]]
        if len(phis) != len(basis):
            return "coefficient and basis counts differ"
        for num, den in phis:
            if Q.sub(Q.mul(Q.apply(D, num), den), Q.mul(num, Q.apply(D, den))):
                return "coefficient is not a constant"
        while True:
            point = [Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(n)]
            if all(Q.evaluate(den, point) for _, den in phis):
                break
        total = [Fraction(0)] * n
        for (num, den), B in zip(phis, basis):
            value = Q.evaluate(num, point) / Q.evaluate(den, point)
            bx = [sum(b * x for b, x in zip(row, point)) for row in B]
            total = [t + value * v for t, v in zip(total, bx)]
        if total != [Q.evaluate(c, point) for c in T]:
            return "recombination differs at a random point"
        return None
    return check


def check_rank(r: int):
    def check(path: Path, rng: random.Random) -> str | None:
        got = load(path)["result"]["rank"]
        return None if got == r else f"rank {got}, constructed {r}"
    return check


def peeled_case(rng: random.Random, n: int, k: int) -> Op:
    """T = sum_j p_j * E_j over the shift-power derivations E_j.

    Each p_j = q0 + q1*a1 + q2*a2 in the first two kernel generators,
    with seeded rationals q, so every seed gets the same shape of work.
    """
    a1, a2 = kernel_generators(n)[:2]
    coeffs = [Q.add(Q.const(n, small_rational(rng)),
                    Q.add(Q.scale(a1, small_rational(rng)),
                          Q.scale(a2, small_rational(rng))))
              for _ in range(n)]
    T = combine(coeffs, [Q.linear(shift_power(n, j)) for j in range(n)], n)
    path = INPUT_DIR / f"decompose-a{k}.json"
    path.write_text(json.dumps({"derivation": Q.deriv_to_json(T, n),
                                "matrix": Q.matrix_to_json(shift_power(n, 1))}))
    return Op(f"decompose-a-n{n}", ("decompose", "--input", str(path)),
              check_peeled(n, coeffs))


def conjugated_case(rng: random.Random, n: int, k: int) -> Op:
    """A = P J P^-1 and T = sum_j c_j * D_(A^j) with c_j constants of D_A.

    Constants of D_A are f(P^-1 x) for constants f of D_J; c_j is a
    seeded affine function of the linear one.  P is drawn from a fixed
    stream per case index, not from the seed: the cost of the
    rational-function solve depends on P bimodally (about 20 ms or about
    300 ms at n = 3), and a seeded P would let that choice, not the
    program, decide the run-to-run spread.
    """
    P, Pinv = unimodular(random.Random(f"decompose-b:{n}:{k}"), n)
    A = mat_mul(mat_mul(P, shift_power(n, 1)), Pinv)
    images = [{tuple(int(i == j) for i in range(n)): Pinv[row][j]
               for j in range(n) if Pinv[row][j]} for row in range(n)]
    linear_constant = Q.compose(kernel_generators(n)[0], images, n)
    powers = [mat_mul(mat_mul(P, shift_power(n, j)), Pinv) for j in range(n)]
    coeffs = [Q.add(Q.const(n, small_rational(rng)),
                    Q.scale(linear_constant, small_rational(rng)))
              for _ in range(n)]
    return solved_case(f"decompose-b-n{n}", A, powers, coeffs, k)


def shifted_case(rng: random.Random, k: int) -> Op:
    """A = J + c*E_14 at n = 4 and T = sum_j q_j * D_(A^j), q_j rational.

    A is not nilpotent, so this takes the rational-function solve.  At
    n = 4 that solve currently fails with ResourceLimitError (listed in
    known_failures.json) after about 0.4 s; a P J P^-1 case fails the
    same way after 3-20 s.
    """
    n = 4
    A = shift_power(n, 1)
    A[0][n - 1] = Fraction(rng.randint(1, 9))
    powers = [shift_power(n, 0)]
    for _ in range(n - 1):
        powers.append(mat_mul(powers[-1], A))
    coeffs = [Q.const(n, small_rational(rng)) for _ in range(n)]
    return solved_case("decompose-b-n4", A, powers, coeffs, k)


def solved_case(group: str, A, powers, coeffs, k: int) -> Op:
    n = len(A)
    T = combine(coeffs, [Q.linear(m) for m in powers], n)
    path = INPUT_DIR / f"decompose-b{k}.json"
    path.write_text(json.dumps({"derivation": Q.deriv_to_json(T, n),
                                "matrix": Q.matrix_to_json(A)}))
    return Op(group, ("decompose", "--input", str(path)), check_solved(A, T))


def rank_case(rng: random.Random, n: int, r: int, k: int) -> Op:
    """r scaled partials d_sigma(1..r) plus three members in their span."""
    sigma = rng.sample(range(n), r)
    members = []
    for i in sigma:
        d = [{} for _ in range(n)]
        d[i] = random_poly(rng, n, (3, 2, 1, 0))  # distinct degrees: nonzero
        members.append(d)
    for _ in range(3):
        members.append(combine(
            [random_poly(rng, n, (2, 1, 0)) for _ in range(r)], members[:r], n))
    rng.shuffle(members)
    path = INPUT_DIR / f"rank-{k}.json"
    path.write_text(json.dumps(
        {"derivations": [Q.deriv_to_json(d, n) for d in members]}))
    return Op(f"rank-n{n}", ("rank", "--input", str(path),
                             "--seed", str(rng.randrange(10**6))),
              check_rank(r))


def decompose_ops(rng: random.Random) -> list[Op]:
    count = op_counts("decompose")
    sizes = [n for n in (3, 4, 5) for _ in range(count[f"decompose-a-n{n}"])]
    peeled = [peeled_case(rng, n, k) for k, n in enumerate(sizes)]
    conjugated = count["decompose-b-n3"]
    solved = [conjugated_case(rng, 3, k) for k in range(conjugated)]
    solved += [shifted_case(rng, conjugated + k) for k in range(count["decompose-b-n4"])]
    # for each n the rank r runs through 1..n in turn
    shapes = [(n, 1 + i % n) for n in (3, 4, 5, 6) for i in range(count[f"rank-n{n}"])]
    ranks = [rank_case(rng, n, r, k) for k, (n, r) in enumerate(shapes)]
    return spread([peeled, solved, ranks])


def warmup_argvs(workload: str) -> list[tuple[str, ...]]:
    """One small op of each command the workload runs, on its own inputs."""
    reg = ("--registry", str(REGISTRY))
    return {
        "construct": [("centralizer", "--n", "3") + reg,
                      ("gens", "--n", "3", "--level", "3") + reg,
                      ("bracket", "--input", str(INPUT_DIR / "bracket-0.json"))],
        "verify": [("verify", "--n", "3", "--deg", "2") + reg],
        "decompose": [("decompose", "--input", str(INPUT_DIR / "decompose-a0.json")),
                      ("rank", "--input", str(INPUT_DIR / "rank-0.json"))],
    }[workload]


WORKLOADS = {
    "construct": construct_ops,
    "verify": verify_ops,
    "decompose": decompose_ops,
}


def build(workload: str, seed: int) -> list[Op]:
    """Write the workload's inputs and return its op batch."""
    INPUT_DIR.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    write_registry(rng)
    return WORKLOADS[workload](rng)
