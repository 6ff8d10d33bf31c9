"""Minimal exact polynomial arithmetic for generating inputs and checking outputs.

Independent of the package under test on purpose: a polynomial is a dict
from exponent tuples to nonzero Fractions, a derivation is a list of
such dicts (its coefficients).  Only what the generators and checks need
is here; the JSON encodings are the CLI's documented ones.
"""

from __future__ import annotations

from fractions import Fraction

Poly = dict  # {exponent tuple: nonzero Fraction}


def const(n: int, c) -> Poly:
    c = Fraction(c)
    return {(0,) * n: c} if c else {}


def var(n: int, i: int) -> Poly:
    return {tuple(1 if k == i else 0 for k in range(n)): Fraction(1)}


def add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def scale(a: Poly, c) -> Poly:
    c = Fraction(c)
    return {e: v * c for e, v in a.items()} if c else {}


def sub(a: Poly, b: Poly) -> Poly:
    return add(a, scale(b, -1))


def mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def power(a: Poly, k: int, n: int) -> Poly:
    out = const(n, 1)
    for _ in range(k):
        out = mul(out, a)
    return out


def partial(a: Poly, i: int) -> Poly:
    out: Poly = {}
    for e, c in a.items():
        if e[i]:
            f = list(e)
            f[i] -= 1
            out[tuple(f)] = c * e[i]
    return out


def apply(deriv: list[Poly], f: Poly) -> Poly:
    """sum_i deriv[i] * df/dx_i."""
    out: Poly = {}
    for i, c in enumerate(deriv):
        if c:
            out = add(out, mul(c, partial(f, i)))
    return out


def bracket(s: list[Poly], t: list[Poly]) -> list[Poly]:
    """[s, t] with i-th coefficient s(t_i) - t(s_i)."""
    return [sub(apply(s, ti), apply(t, si)) for si, ti in zip(s, t)]


def evaluate(a: Poly, point) -> Fraction:
    total = Fraction(0)
    for e, c in a.items():
        term = c
        for x, k in zip(point, e):
            if k:
                term *= x**k
        total += term
    return total


def compose(a: Poly, images: list[Poly], n: int) -> Poly:
    """a(images[0], ..., images[n-1])."""
    out: Poly = {}
    for e, c in a.items():
        term = const(n, c)
        for img, k in zip(images, e):
            if k:
                term = mul(term, power(img, k, n))
        out = add(out, term)
    return out


def weitzenboeck(n: int) -> list[Poly]:
    return [{}] + [var(n, i) for i in range(n - 1)]


def linear(matrix: list[list[Fraction]]) -> list[Poly]:
    """The derivation whose i-th coefficient is (A x)_i."""
    n = len(matrix)
    return [
        {tuple(1 if k == j else 0 for k in range(n)): matrix[i][j]
         for j in range(n) if matrix[i][j]}
        for i in range(n)
    ]


# -- JSON encodings -------------------------------------------------------


def to_json(a: Poly, n: int) -> dict:
    items = sorted(a.items(), key=lambda ec: (-sum(ec[0]), tuple(-x for x in ec[0])))
    return {"nvars": n,
            "terms": [{"coeff": str(c), "exp": list(e)} for e, c in items]}


def from_json(data: dict) -> Poly:
    out: Poly = {}
    for t in data["terms"]:
        e = tuple(int(x) for x in t["exp"])
        out[e] = out.get(e, 0) + Fraction(t["coeff"])
    return {e: c for e, c in out.items() if c}


def deriv_to_json(d: list[Poly], n: int) -> dict:
    return {"nvars": n, "coeffs": [to_json(c, n) for c in d]}


def deriv_from_json(data: dict) -> list[Poly]:
    return [from_json(c) for c in data["coeffs"]]


def matrix_to_json(m: list[list[Fraction]]) -> dict:
    return {"n": len(m), "entries": [[str(x) for x in row] for row in m]}
