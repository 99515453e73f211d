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

For u = (i, j), v = (k, p) every term reads only i+k, j+p and the parity of
l(u)+l(v), so :func:`compare_with_table` evaluates the formula once per such
class, in a dict local to the call.
"""

from __future__ import annotations

import json

from ._record import Record
from .basis import SchubertIndex, _length, basis_positions, check_index, check_rank, dim_incidence
from .errors import DegenerateTarget, InvalidIndex
from .poly import CurveDegree, QKClass, c1_pairing, written_order


def translate(idx: int, u, v, n: int) -> SchubertIndex:
    """Translation maps t_0..t_3; a result with equal components is degenerate."""
    if idx not in (0, 1, 2, 3):
        raise ValueError(f"translation index must be 0..3, got {idx}")
    return _translate(idx, check_index(u, n), check_index(v, n), n)


def _translate(idx: int, u, v, n: int) -> SchubertIndex:
    (i, j), (k, p) = u, v
    di = 1 if idx in (0, 2) else 2
    dj = 2 if idx in (0, 1) else 1
    return SchubertIndex((i + k - di) % n + 1, (j + p - dj) % n + 1)


def is_degenerate(w) -> bool:
    i, j = w
    return i == j


def degree_operator(idx: int, u, v, w, n: int) -> int:
    """d_1 = 1 - floor((i+k-s)/n); d_2 = floor((j+p-t)/n)."""
    deg = degree_vector(u, v, w, n)
    if idx not in (1, 2):
        raise ValueError(f"degree operator index must be 1 or 2, got {idx}")
    return deg[idx - 1]


def degree_vector(u, v, w, n: int) -> CurveDegree:
    """(d_1, d_2) at w: InvalidIndex unless w is two ints in 1..n; equal ones are allowed."""
    u, v = check_index(u, n), check_index(v, n)
    if not all(type(x) is int and 1 <= x <= n for x in w):
        raise InvalidIndex(f"{tuple(w)!r} is not a target index for n={n}")
    return _degree_vector(u, v, w, n)


def _degree_vector(u, v, w, n: int) -> CurveDegree:
    (i, j), (k, p), (s, t) = u, v, w
    return (1 - (i + k - s) // n, (j + p - t) // n)


def delta(u, v, w, n: int) -> int:
    """Parity gate: 1 when the positivity exponent at (u, v, w) is even.

    The exponent uses codimensions (the reading l(w0 x) = codim X(x)) plus
    the c1-pairing of the degree vector attached to (u, v, w).
    """
    check_rank(n)
    if is_degenerate(w):
        raise DegenerateTarget(f"delta undefined at degenerate target {tuple(w)}")
    w = check_index(w, n)
    return _delta(check_index(u, n), check_index(v, n), w, n)


def _delta(u, v, w, n: int) -> int:
    """:func:`delta` on trusted indices and a nondegenerate w."""
    # codim(w) - codim(u) - codim(v), where codim = dim - length
    e = _length(*u, n) + _length(*v, n) - _length(*w, n) - dim_incidence(n)
    e += c1_pairing(_degree_vector(u, v, w, n), n)
    return 1 if e % 2 == 0 else 0


GATINGS = ("flipped", "literal")


def _formula_terms(u, v, n: int):
    """One evaluation of the closed formula on trusted indices.

    Returns ``(base, gate, group)``: the t0 term and the signed t1..t3 group,
    each as a flat map ``(w, d1, d2) -> coeff`` (the layout of
    :class:`~qkflag.poly.QKClass`), and the parity ``Delta(u, v, t1)``.
    The flipped gate adds the group when ``gate`` is 1, the literal gate
    when it is 0; a degenerate t1 leaves the group empty.
    """
    t = [_translate(idx, u, v, n) for idx in range(4)]
    base = {}
    if not is_degenerate(t[0]) and _delta(u, v, t[0], n):
        base[(t[0], *_degree_vector(u, v, t[0], n))] = 1
    if is_degenerate(t[1]):
        return base, 1, {}
    group: dict = {}
    for w, sign in zip(t[1:], (1, 1, -1)):
        if not is_degenerate(w):
            key = (w, *_degree_vector(u, v, w, n))
            group[key] = group.get(key, 0) + sign
    return base, _delta(u, v, t[1], n), group


def _gated(base: dict, group: dict, on: int) -> dict:
    """``base`` plus ``group`` when ``on``; zero coefficients dropped."""
    if not on:
        return base
    out = dict(base)
    for key, c in group.items():
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def conjectured_product(u, v, n: int, gating: str = "flipped") -> QKClass:
    """Evaluate the closed formula for O_u * O_v.

    ``gating`` selects the parity convention at the three-term group; see
    the module docstring.  Degenerate targets contribute zero, and a
    degenerate t1 zeroes the whole gated group.
    """
    if gating not in GATINGS:
        raise ValueError(f"gating must be one of {GATINGS}, got {gating!r}")
    base, gate, group = _formula_terms(check_index(u, n), check_index(v, n), n)
    return QKClass._trusted(n, _gated(base, group, gate if gating == "flipped" else 1 - gate))


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


def compare_with_table(table, gating: str = "flipped") -> DiffReport:
    """Structural diff of the closed formula against a built table.

    Lists every (u, v, w, degree) where the two coefficient values differ,
    in basis-then-degree order.  The report also carries the mismatch count
    of the other gating convention, so both readings stay visible.  The
    formula is evaluated once per class (i+k, j+p, (l(u)+l(v)) mod 2) of
    u = (i, j), v = (k, p), which is all it reads, in a cache local to the
    call; each pair compares its own table column with both gatings term
    by term, and rows are built only for the requested gating.
    """
    if gating not in GATINGS:
        raise ValueError(f"gating must be one of {GATINGS}, got {gating!r}")
    n = table.n
    pos = basis_positions(n)
    order = written_order(n)
    mismatches = []
    other_count = 0
    lengths = {w: _length(w.i, w.j, n) for w in pos}
    gated: dict = {}
    for u, op in zip(pos, table.ops):
        for v, col in zip(pos, op.cols):
            want = col._terms
            cls = (u.i + v.i, u.j + v.j, (lengths[u] + lengths[v]) & 1)
            if cls not in gated:
                base, gate, group = _formula_terms(u, v, n)
                gated[cls] = (_gated(base, group, gate), _gated(base, group, 1 - gate))
            for g, got in zip(GATINGS, gated[cls]):
                if got == want:
                    continue
                keys = [t for t in got.keys() | want.keys() if got.get(t, 0) != want.get(t, 0)]
                if g != gating:
                    other_count += len(keys)
                    continue
                rows = sorted(((t, (want.get(t, 0), got.get(t, 0))) for t in keys), key=order)
                for (w, d1, d2), (in_table, conjectured) in rows:
                    mismatches.append(
                        {
                            "u": [u.i, u.j],
                            "v": [v.i, v.j],
                            "w": [w.i, w.j],
                            "d1": d1,
                            "d2": d2,
                            "table": in_table,
                            "conjecture": conjectured,
                        }
                    )
    other = GATINGS[1 - GATINGS.index(gating)]
    details = {f"{other}_gating_mismatches": other_count}
    return DiffReport(n=n, gating=gating, mismatches=mismatches, details=details)
