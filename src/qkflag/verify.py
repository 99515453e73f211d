"""Structural and positivity verification sweeps over a multiplication table.

Every check returns a :class:`VerificationReport` with a deterministic
counterexample list, so two runs over the same table serialize
byte-identically.  Rows come out in basis-then-degree order: u, v (and w)
in basis order, and the terms of one column in code order, which is the
written order (see :mod:`qkflag.poly`).  The positivity and classical
scans read a mirrored table once per unordered product (see
:func:`qkflag.qkring._is_mirrored`).  Ring rows come axiom by axiom:
associativity, commutativity, identity.
"""

from __future__ import annotations

import json

from ._record import Record
from .basis import _length, dim_incidence, enumerate_basis, h1_index, h2_index, unit_index
from .poly import _D1, _POS, _combine, _decode
from .qkring import (
    Operator,
    _both_ways,
    _chevalley_column,
    _classical_mismatches,
    _is_mirrored,
    _noncommuting,
    _triangle,
    certify_ring,
)


class VerificationReport(Record):
    __slots__ = ("check", "n", "passed", "counterexamples", "details")

    def __init__(self, check: str, n: int, passed: bool, counterexamples: list | None = None,
                 details: dict | None = None):
        counterexamples = [] if counterexamples is None else counterexamples
        super().__init__(check, n, passed, counterexamples, {} if details is None else details)

    def to_json(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def to_text(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"check={self.check} n={self.n} status={status} counterexamples={len(self.counterexamples)}"
        if self.details:
            line += " " + json.dumps(self.details, sort_keys=True)
        return line


def _details(table, **details) -> dict:
    """``details``, then the table's step-c arbitration record if it has one."""
    if table.arbitration:
        details["step_c_arbitration"] = table.arbitration
    return details


def _row(u, v, w, d1, d2, c) -> dict:
    """A counterexample naming the term Q1^d1 Q2^d2 O_w of O_u * O_v and its coefficient."""
    return {"u": [u.i, u.j], "v": [v.i, v.j], "w": [w.i, w.j], "d1": d1, "d2": d2, "coeff": c}


def positivity_check(table) -> VerificationReport:
    """Sign rule for every structure constant:

    (-1)^(codim w - codim u - codim v + (d1+d2)(n-1)) * N_{u,v}^{w,(d1,d2)} >= 0.

    The rule reads u and v only through codim u + codim v, which is
    symmetric in them, so a mirrored table is read once per unordered
    product (see :func:`qkflag.qkring._is_mirrored`).  Columns are scanned
    unsorted, by term code (see
    :mod:`qkflag.poly`), and a passing column allocates nothing: the list
    of a column's wrong terms is made at its first one, and sorted by code,
    which is the written order, when the rows are emitted.  Only the
    exponent's parity is read, off the code with bit operations: the
    c1-pairing (d1 + d2)(n - 1) of a term's degree
    (:func:`qkflag.poly.c1_pairing` states it) is odd exactly when n is even
    and d1 + d2 is odd.
    """
    n = table.n
    basis = enumerate_basis(n)
    at = [dim_incidence(n) - _length(w.i, w.j, n) for w in basis]  # codim by basis position
    mirrored = _is_mirrored(table.ops)
    # mod 2, (d1 + d2)(n - 1) is the low bit of d1 ^ d2 for an even n and 0 for an odd one
    pos, d1, even = _POS, _D1, (n - 1) & 1
    found = {}  # (a, b) -> the wrong terms of O_u * O_v
    for a, row in _triangle(table.ops, mirrored):
        for b, col in row:
            shift = at[a] + at[b]
            for code, c in col._terms.items():
                # a wrong sign: c > 0 where the exponent is odd, c < 0 where it is even
                if (at[code >> pos] + shift + ((code >> d1 ^ code) & even)) & 1 == (c > 0):
                    found.setdefault((a, b), []).append((code, c))
    bad = [
        {**_row(basis[a], basis[b], *_decode(code, basis), c), "expected_sign": "-" if c > 0 else "+"}
        for (a, b), terms in _both_ways(found, mirrored)
        for code, c in sorted(terms)
    ]
    return VerificationReport("positivity", n, not bad, bad)


def ring_axiom_checks(table, *, associativity: bool | None = None) -> VerificationReport:
    """Identity column, commutativity on all pairs, associativity on all triples.

    Associativity runs by default only for n <= 5; pass
    ``associativity=True`` to force it at any n.  It is first certified by
    :func:`qkflag.qkring.certify_ring` from the table alone: the table must
    equal the mirrored h2 recurrence run on its own H1 = M_{n-1,1} and
    H2 = M_{n,2}, which exists only when H1 H2 = H2 H1 and M_u e = e_u for
    every u (e = e_{n,1}).  Then M_{n,1} = Id and every M_u is a polynomial
    in H1, H2 over Z[Q1,Q2], so the M_u commute pairwise.  If
    O_u * O_v = sum_x c_x O_x, then X = sum_x c_x M_x - M_u M_v lies in that
    commutative algebra and X e = 0, so X e_w = X M_w e = M_w X e = 0 for
    every w: that is (O_u * O_v) * O_w = O_u * (O_v * O_w), for every
    triple.  A certified table has no failing row, so nothing else is
    scanned.  Otherwise all N^2 products M_u M_v (N the basis size) are
    composed and compared, which lists every failing triple, and the
    commutativity and identity scans run, as they do whenever associativity
    is not checked.  The identity scan compares each column O_e * O_v with
    the flat map ``{p << 24: 1}`` of e_v (p the basis position of v, see
    :mod:`qkflag.poly`), and its n with the table's,
    since a table's operators are wrapped without checking their columns' n.
    """
    n = table.n
    basis = enumerate_basis(n)
    run_assoc = (n <= 5) if associativity is None else associativity
    bad = []
    ops = table.ops

    # rows go in axiom by axiom, in the order of the axioms' names
    certified = run_assoc and certify_ring(table)
    if run_assoc and not certified:
        bad += _associativity_counterexamples(table, n, basis)

    if not certified:
        for u, v in _noncommuting(n, ops):
            bad.append({"axiom": "commutativity", "u": [u.i, u.j], "v": [v.i, v.j]})
        e = unit_index(n)
        for p, (v, col) in enumerate(zip(basis, table.matrix(e).cols)):
            if col.n != n or col._terms != {p << _POS: 1}:
                bad.append({"axiom": "identity", "u": [e.i, e.j], "v": [v.i, v.j]})

    return VerificationReport("ring", n, not bad, bad, _details(table, associativity_checked=run_assoc))


def _associativity_counterexamples(table, n: int, basis) -> list[dict]:
    """Every (u, v, w) with (O_u * O_v) * O_w != O_u * (O_v * O_w), by brute force.

    Column by column: M_u (M_v e_w) against R_w (O_u * O_v), where R_w sends
    e_x to O_x * O_w (column w of every M_x).  Each M_u and R_w is prepared
    as a kernel column map once, and one kernel pass per triple evaluates
    the difference of the two sides.
    """
    left = [op._term_columns() for op in table.ops]
    right = [Operator._trusted(n, row)._term_columns() for row in zip(*(op.cols for op in table.ops))]
    return [
        {"axiom": "associativity", "u": [u.i, u.j], "v": [v.i, v.j], "w": [w.i, w.j]}
        for mu, u, row in zip(left, basis, table.ops)
        for mv, v, uv in zip(table.ops, basis, row.cols)
        for vw, rw, w in zip(mv.cols, right, basis)
        if _combine(n, [(1, 0, 0, mu, (vw,)), (-1, 0, 0, rw, (uv,))])[0]
    ]


def classical_consistency_check(table) -> VerificationReport:
    """Q -> 0 limit of every table entry equals the closed K-ring formula.

    Reads the build's own scan, :func:`qkflag.qkring._classical_mismatches`:
    each w where a column's constant terms differ from the formula's terms
    is one counterexample, with the difference as ``coeff``.  A mirrored
    table is read once per unordered product (see
    :func:`qkflag.qkring._is_mirrored`).
    """
    n = table.n
    ops = table.ops
    bad = [_row(u, v, w, 0, 0, c) for u, v, w, c in _classical_mismatches(n, ops, _is_mirrored(ops))]
    return VerificationReport("classical", n, not bad, bad, _details(table))


def chevalley_consistency_check(table) -> VerificationReport:
    """Table rows for h1, h2 equal the classical+correction operator columnwise.

    Each v comes from the basis, so the column is the trusted
    :func:`qkflag.qkring._chevalley_column`, with no validation per call.
    """
    n = table.n
    basis = enumerate_basis(n)
    bad = []
    for h, hw in (("h1", h1_index(n)), ("h2", h2_index(n))):
        for v, col in zip(basis, table.matrix(hw).cols):
            if col != _chevalley_column(h, v, n):
                bad.append({"h": h, "v": [v.i, v.j]})
    return VerificationReport("chevalley", n, not bad, bad, _details(table, step_c_variant=table.step_c_variant))


def reports_to_text(reports) -> str:
    return "\n".join(r.to_text() for r in reports)


def reports_to_json(reports) -> list[dict]:
    return [r.to_json() for r in reports]
