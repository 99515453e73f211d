"""Output checks that share no code with qkflag.

Tables are compared with the dense sympy oracle (``tests/oracles``) through
a canonical JSON text: the layout of the golden files, written with compact
separators.  The text is built here from the public accessors
``table.product(u, v)``, ``QKClass.items()`` and
``NovikovPolynomial.terms()``, so the check does not go through the
program's own serializer.  Balanced flags are checked against an exhaustive
search written here.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations

COMPACT = (",", ":")


def schubert_basis(n: int) -> list[tuple[int, int]]:
    """The n(n-1) pairs (i, j), i != j, in the linear basis order."""
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def hyperplane(h: str, n: int) -> tuple[int, int]:
    return (n - 1, 1) if h == "h1" else (n, 2)


def dual(w, n: int) -> tuple[int, int]:
    i, j = w
    return (n - j + 1, n - i + 1)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def column_terms(cls, n: int) -> list[dict]:
    """A QKClass as [{"w": [i, j], "poly": [...]}, ...] in basis order."""
    pos = {w: k for k, w in enumerate(schubert_basis(n))}
    items = sorted(((tuple(w), p) for w, p in cls.items()), key=lambda wp: pos[wp[0]])
    return [
        {"w": list(w), "poly": [{"d1": d1, "d2": d2, "coeff": c} for (d1, d2), c in p.terms()]}
        for w, p in items
    ]


def table_digest(table, n: int) -> str:
    """sha256 of the table's canonical JSON text (the golden-file layout)."""
    h = hashlib.sha256()
    h.update(f'{{"n":{n},"entries":['.encode())
    sep = ""
    basis = schubert_basis(n)
    for u in basis:
        for v in basis:
            for t in column_terms(table.product(u, v), n):
                entry = {"u": list(u), "v": list(v), "w": t["w"], "poly": t["poly"]}
                h.update((sep + json.dumps(entry, separators=COMPACT)).encode())
                sep = ","
    h.update(b"]}")
    return h.hexdigest()


def json_table_digest(obj) -> str:
    """sha256 of the canonical text of a table file's ``n`` and ``entries``."""
    return sha256(json.dumps({"n": obj["n"], "entries": obj["entries"]}, separators=COMPACT))


def oracle_column(oracle_obj, u, v) -> list[dict]:
    """The oracle's O_u * O_v as [{"w": .., "poly": ..}] in basis order."""
    return [
        {"w": e["w"], "poly": e["poly"]}
        for e in oracle_obj["entries"]
        if e["u"] == list(u) and e["v"] == list(v)
    ]


def arbitration_errors(arb: dict, where: str) -> list[str]:
    """Only the h2 step-c variant may be commutative, and it must be kept."""
    outcomes = arb.get("outcomes", {})
    ok = (
        arb.get("chosen") == "h2"
        and outcomes.get("h2", {}).get("commutative_ok") is True
        and outcomes.get("h2", {}).get("classical_limit_ok") is True
        and outcomes.get("h1", {}).get("commutative_ok") is False
    )
    return [] if ok else [f"{where}: arbitration record {arb!r} is not 'only h2 commutative'"]


def degree_part(cls, deg) -> dict:
    """{w: coefficient of Q^deg} of a QKClass, zeros dropped."""
    out = {}
    for w, p in cls.items():
        c = p.coefficient(deg)
        if c:
            out[tuple(w)] = c
    return out


def classical_dict(cls) -> dict | None:
    """{w: c} of a class whose coefficients are all constant, else None."""
    out = {}
    for w, p in cls.items():
        terms = dict(p.terms())
        if set(terms) != {(0, 0)}:
            return None
        out[tuple(w)] = terms[(0, 0)]
    return out


def _rows(length: int, total: int, cap):
    """Nondecreasing nonnegative rows of a length and sum, row[p] <= cap[p]."""

    def rec(prefix, low, left):
        pos = len(prefix)
        if pos == length:
            if left == 0:
                yield tuple(prefix)
            return
        high = left if pos >= len(cap) else min(left, cap[pos])
        for x in range(low, high + 1):
            if x * (length - pos) > left:
                break
            yield from rec(prefix + [x], x, left - x)

    yield from rec([], 0, total)


def balanced_minimizers(ranks, degrees) -> tuple[int, list]:
    """Minimal total spread over all admissible row sets, and every minimizer."""
    best, found = None, []

    def rec(k, rows):
        nonlocal best, found
        if k == len(ranks):
            s = spread(rows)
            if best is None or s < best:
                best, found = s, [tuple(rows)]
            elif s == best:
                found.append(tuple(rows))
            return
        cap = rows[-1] if rows else ()
        for row in _rows(ranks[k], degrees[k], cap):
            rec(k + 1, rows + [row])

    rec(0, [])
    return best, found


def spread(rows) -> int:
    return sum(row[p] - row[l] for row in rows for l, p in combinations(range(len(row)), 2))
