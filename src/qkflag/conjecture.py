"""Conjectural closed formula for the star-product and its table comparison.

The formula combines four translation maps t_0..t_3, two degree operators
d_1, d_2, and a parity gate Delta:

    O_u * O_v = Delta(u,v,t0) Q^{d(u,v,t0)} O_{t0}
              + (1 - Delta(u,v,t1)) ( Q^{d(u,v,t1)} O_{t1}
                                    + Q^{d(u,v,t2)} O_{t2}
                                    - Q^{d(u,v,t3)} O_{t3} )

A translated pair with equal components is degenerate and contributes zero.
The gate convention at t1 is ambiguous: gating="literal" evaluates the line
above exactly as written, while gating="flipped" replaces 1 - Delta(u,v,t1)
by Delta(u,v,t1) (the opposite parity).  Only the flipped gate reproduces
the unit law and the hyperplane-class rows, and it is the variant that
matches the computed table; the comparator reports every mismatch of either
convention, so the question stays settled empirically rather than by fiat.

For u = (i, j), v = (k, p) every term reads only the class (i+k, j+p,
(l(u)+l(v)) mod 2), so the formula is written once, per class, in
:func:`_class_formula`; :func:`conjectured_product` calls it for one pair and
:func:`compare_with_table` once per class of the table, in a dict local to
the call, where it also counts the other gating per class.  The class is
symmetric in u and v, so the diff reads a mirrored table once per
unordered product (see :func:`qkflag.qkring._is_mirrored`).
"""

from __future__ import annotations

import json

from ._record import Record
from .basis import SchubertIndex, _length, _position, check_index, enumerate_basis
from .errors import DegenerateTarget, InvalidIndex
from .poly import _D1, _POS, CurveDegree, QKClass, _decode
from .qkring import _both_ways, _is_mirrored, _triangle


# (di, dj) of t_0..t_3: t_idx(u, v) = ((i+k-di) mod n + 1, (j+p-dj) mod n + 1)
_SHIFTS = ((1, 2), (2, 2), (1, 1), (2, 1))


def translate(idx: int, u, v, n: int) -> SchubertIndex:
    """Translation maps t_0..t_3; a result with equal components is degenerate."""
    if type(idx) is not int or idx not in (0, 1, 2, 3):
        raise ValueError(f"translation index must be 0..3, got {idx!r}")
    (i, j), (k, p) = check_index(u, n), check_index(v, n)
    di, dj = _SHIFTS[idx]
    return SchubertIndex((i + k - di) % n + 1, (j + p - dj) % n + 1)


def is_degenerate(w) -> bool:
    i, j = w
    return i == j


def degree_operator(idx: int, u, v, w, n: int) -> int:
    """d_1 = 1 - floor((i+k-s)/n); d_2 = floor((j+p-t)/n)."""
    deg = degree_vector(u, v, w, n)
    if type(idx) is not int or idx not in (1, 2):
        raise ValueError(f"degree operator index must be 1 or 2, got {idx!r}")
    return deg[idx - 1]


def degree_vector(u, v, w, n: int) -> CurveDegree:
    """(d_1, d_2) at w: InvalidIndex unless w is two ints in 1..n; equal ones are allowed."""
    u, v = check_index(u, n), check_index(v, n)
    if len(w) != 2 or not all(type(x) is int and 1 <= x <= n for x in w):
        raise InvalidIndex(f"{tuple(w)!r} is not a target index for n={n}")
    return _degree_vector(u, v, w, n)


def _degree_vector(u, v, w, n: int) -> CurveDegree:
    (i, j), (k, p), (s, t) = u, v, w
    return (1 - (i + k - s) // n, (j + p - t) // n)


def delta(u, v, w, n: int) -> int:
    """Parity gate: 1 when codim(w) - codim(u) - codim(v) + c1(d) is even.

    codim X(x) = (2n - 3) - l(x) (the reading l(w0 x) = codim X(x)), and
    c1(d) = (d1 + d2)(n - 1) for the degree vector d of (u, v, w).  The
    target is checked as :func:`degree_vector` checks it, then refused if
    degenerate.
    """
    d1, d2 = degree_vector(u, v, w, n)
    if is_degenerate(w):
        raise DegenerateTarget(f"delta undefined at degenerate target {tuple(w)}")
    e = _length(*u, n) + _length(*v, n) - _length(*w, n) - (2 * n - 3) + (d1 + d2) * (n - 1)
    return 1 if e % 2 == 0 else 0


GATINGS = ("flipped", "literal")


def _class_formula(a: int, b: int, parity: int, n: int) -> tuple[dict, dict]:
    """The closed formula for every pair u = (i, j), v = (k, p) of one class.

    The class is a = i + k, b = j + p and parity = (l(u) + l(v)) mod 2; the
    formula reads nothing else.  Returns the flipped and the literal product
    (the order of :data:`GATINGS`), each a flat map ``code -> coeff`` over
    the term codes of :mod:`qkflag.poly`, the layout of
    :class:`~qkflag.poly.QKClass`.  The four translates are pairwise
    distinct, so no two terms share a key and none cancels.
    """
    codes, gates = [], []  # of t_0..t_3: a degenerate translate's code is None, its gate False
    odd = (parity + 1) & 1  # the gate is delta's rule read mod 2
    for di, dj in _SHIFTS:
        s, t = (a - di) % n + 1, (b - dj) % n + 1
        d1, d2 = 1 - (a - s) // n, (b - t) // n
        codes.append(None if s == t else _position(s, t, n) << _POS | d1 << _D1 | d2)
        gates.append(s != t and (odd + _length(s, t, n) + (d1 + d2) * (n - 1)) & 1 == 0)
    base = {codes[0]: 1} if gates[0] else {}
    if codes[1] is None:  # a degenerate t1 zeroes the whole gated group
        return base, base
    full = {**base, codes[1]: 1, codes[2]: 1, codes[3]: -1}
    full.pop(None, None)  # a degenerate t2 or t3
    return (full, base) if gates[1] else (base, full)


def _formula_terms(u, v, n: int) -> tuple[dict, dict]:
    """:func:`_class_formula` at the class of the trusted pair (u, v)."""
    (i, j), (k, p) = u, v
    return _class_formula(i + k, j + p, (_length(i, j, n) + _length(k, p, n)) & 1, n)


def conjectured_product(u, v, n: int, gating: str = "flipped") -> QKClass:
    """Evaluate the closed formula for O_u * O_v.

    ``gating`` selects the parity convention at the three-term group; see
    the module docstring.  Degenerate targets contribute zero, and a
    degenerate t1 zeroes the whole gated group.
    """
    if gating not in GATINGS:
        raise ValueError(f"gating must be one of {GATINGS}, got {gating!r}")
    terms = _formula_terms(check_index(u, n), check_index(v, n), n)
    return QKClass._trusted(n, terms[GATINGS.index(gating)])


class DiffReport(Record):
    __slots__ = ("n", "gating", "mismatches", "details")

    def __init__(
        self, n: int, gating: str, mismatches: list | None = None, details: dict | None = None
    ):
        mismatches = [] if mismatches is None else mismatches
        super().__init__(n, gating, mismatches, {} if details is None else details)

    @property
    def empty(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        out = {"n": self.n, "gating": self.gating, "mismatches": self.mismatches}
        if self.details:
            out["details"] = self.details
        return out

    def to_text(self) -> str:
        head = (
            f"conjecture n={self.n} gating={self.gating} "
            f"mismatches={len(self.mismatches)}"
        )
        lines = [head]
        for m in self.mismatches:
            lines.append(
                "  u=({},{}) v=({},{}) w=({},{}) Q1^{}Q2^{}: table={} conjecture={}".format(
                    *m["u"], *m["v"], *m["w"], m["d1"], m["d2"], m["table"], m["conjecture"]
                )
            )
        if self.details:
            lines.append("  " + json.dumps(self.details, sort_keys=True))
        return "\n".join(lines)


def _differing(x: dict, y: dict) -> list:
    """The keys where two flat maps differ."""
    return [t for t in x.keys() | y.keys() if x.get(t, 0) != y.get(t, 0)]


def compare_with_table(table, gating: str = "flipped") -> DiffReport:
    """Structural diff of the closed formula against a built table.

    Lists every (u, v, w, degree) where the two coefficient values differ,
    in basis-then-degree order.  The report also carries the mismatch count
    of the other gating convention, so both readings stay visible.

    The formula is evaluated by :func:`_class_formula` once per class
    (i+k, j+p, (l(u)+l(v)) mod 2) of u = (i, j), v = (k, p), which is all
    it reads.  Each class also keeps ``apart``, the number of keys where
    its two gatings differ: the difference of the two maps' sizes, as one
    is the other plus the keys of t1..t3 and no two terms share a key.  A
    column equal to the requested gating adds ``apart`` to the other
    gating's count; any other column is compared key by key with both.

    A mirrored table is read once per unordered product, in both gatings
    (see :func:`qkflag.qkring._is_mirrored`), and an off-diagonal product
    adds twice to the other gating's count.
    """
    if gating not in GATINGS:
        raise ValueError(f"gating must be one of {GATINGS}, got {gating!r}")
    n = table.n
    basis = enumerate_basis(n)
    g = GATINGS.index(gating)
    ops = table.ops
    mirrored = _is_mirrored(ops)
    other_count = 0
    lengths = [_length(w.i, w.j, n) for w in basis]
    # the class as one int: 2((i + k)(2n + 1) + j + p) + parity
    keys = [2 * (i * (2 * n + 1) + j) + (lw & 1) for (i, j), lw in zip(basis, lengths)]
    per_class: dict = {}
    found = {}  # (a, b) -> the rows of O_u * O_v
    for a, row in _triangle(ops, mirrored):
        ka = keys[a]
        for b, col in row:
            cls = ka + keys[b] - 2 * (ka & keys[b] & 1)  # two parity bits of 1 add to 0
            entry = per_class.get(cls)
            if entry is None:
                (i, j), (k, p) = basis[a], basis[b]
                maps = _class_formula(i + k, j + p, (lengths[a] + lengths[b]) & 1, n)
                got, other = maps[g], maps[1 - g]
                entry = per_class[cls] = (got, other, abs(len(got) - len(other)))
            got, other, apart = entry
            want = col._terms
            # a shared product stands for O_u * O_v and O_v * O_u
            times = 2 if mirrored and a != b else 1
            if want == got:
                other_count += times * apart
            else:
                other_count += times * len(_differing(want, other))
                codes = sorted(_differing(want, got))  # each row: (w, d1, d2), (table, conjecture)
                found[a, b] = [(_decode(t, basis), (want.get(t, 0), got.get(t, 0))) for t in codes]
    mismatches = [
        {
            "u": [basis[a].i, basis[a].j],
            "v": [basis[b].i, basis[b].j],
            "w": [w.i, w.j],
            "d1": d1,
            "d2": d2,
            "table": in_table,
            "conjecture": conjectured,
        }
        for (a, b), rows in _both_ways(found, mirrored)
        for (w, d1, d2), (in_table, conjectured) in rows
    ]
    other = GATINGS[1 - g]
    details = {f"{other}_gating_mismatches": other_count}
    return DiffReport(n=n, gating=gating, mismatches=mismatches, details=details)
