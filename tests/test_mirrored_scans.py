"""The scans that read a mirrored table's shared products once.

A built h2 table stores O_v * O_u as the same object as O_u * O_v, and
``qkring._is_mirrored`` tells such a table by identity alone.  Positivity,
the classical scan, the conjecture diff and the max-degree walk then read
only the products where v is u or comes after it.  Their reports must equal
those of the table's JSON round trip, which shares nothing and is read in
full.
"""

import json

import pytest

from qkflag.basis import enumerate_basis, h1_index, h2_index, linear_index
from qkflag.conjecture import GATINGS, compare_with_table, conjectured_product
from qkflag.kring import _k_terms
from qkflag.poly import NovikovPolynomial, QKClass
from qkflag.qkring import _is_mirrored, build_table, degree_bound_check, table_from_json, table_to_json
from qkflag.verify import classical_consistency_check, positivity_check, ring_axiom_checks

Q1 = NovikovPolynomial.monomial((1, 0))


def _pair(n):
    """Two basis positions a < b, neither of them a hyperplane class."""
    skip = {linear_index(h1_index(n), n), linear_index(h2_index(n), n)}
    a, b = [t for t in range(n * (n - 1)) if t not in skip][1::2][:2]
    return a, b


def _one_side(n):
    """The built table with O_u * O_v changed and O_v * O_u left alone: no longer mirrored."""
    table = build_table(n)
    a, b = _pair(n)
    table.ops[a].cols[b] = table.ops[a].cols[b] + QKClass.basis_element(enumerate_basis(n)[0], n, -1)
    return table


def _shared(n):
    """The built table with one shared off-diagonal product changed on both sides, still one object.

    The new constant terms break the classical limit and (at one of the two
    w) the sign rule; the Q1 term breaks the formula.
    """
    table = build_table(n)
    a, b = _pair(n)
    basis = enumerate_basis(n)
    col = table.ops[a].cols[b] + QKClass(n, {basis[0]: 5, basis[1]: 5, basis[2]: 3 * Q1})
    table.ops[a].cols[b] = table.ops[b].cols[a] = col
    return table


def _diagonal(n):
    """The built table with one diagonal product O_u * O_u changed: still mirrored."""
    table = build_table(n)
    basis = enumerate_basis(n)
    table.ops[2].cols[2] = table.ops[2].cols[2] + QKClass.basis_element(basis[1], n, -2)
    return table


def _broken_mirror(n):
    """The built table with O_v * O_u an equal copy of O_u * O_v rather than the same object."""
    table = build_table(n)
    a, b = _pair(n)
    table.ops[b].cols[a] = QKClass._trusted(n, dict(table.ops[b].cols[a]._terms))
    return table


def _literal_shared(n):
    """The built table with every product of one class set, shared, to the literal gating's map.

    The class is the first whose two gatings differ; in the flipped diff its
    columns take the rows built for a column equal to the other gating.
    """
    table = build_table(n)
    basis = enumerate_basis(n)
    differ = {}  # (a, b) -> the literal map, where it is not the table's product
    for a, u in enumerate(basis):
        for b, v in enumerate(basis[a:], a):
            lit = conjectured_product(u, v, n, "literal")
            if lit != table.ops[a].cols[b]:
                differ[a, b] = lit

    def key(a, b):
        return basis[a].i + basis[b].i, basis[a].j + basis[b].j

    cls = key(*next(iter(differ)))
    for (a, b), lit in differ.items():
        if key(a, b) == cls:
            table.ops[a].cols[b] = table.ops[b].cols[a] = lit
    return table


KINDS = {
    "built": build_table,
    "h1": lambda n: build_table(n, "h1"),
    "one-side": _one_side,
    "shared": _shared,
    "diagonal": _diagonal,
    "broken-mirror": _broken_mirror,
    "literal-shared": _literal_shared,
}
MIRRORED = {"built", "shared", "diagonal", "literal-shared"}


def _reports(table):
    """Every report of the scans, as JSON and text."""
    reports = [
        positivity_check(table),
        classical_consistency_check(table),
        degree_bound_check(table),
        ring_axiom_checks(table, associativity=False),
        *(compare_with_table(table, gating) for gating in GATINGS),
    ]
    return [(json.dumps(r.to_json()), r.to_text()) for r in reports]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(3, 9))
def test_reports_equal_those_of_the_json_round_trip(n, kind):
    table = KINDS[kind](n)
    assert _is_mirrored(table.ops) == (kind in MIRRORED)
    loaded = table_from_json(json.loads(json.dumps(table_to_json(table))))
    assert not _is_mirrored(loaded.ops)
    loaded.arbitration = table.arbitration  # the JSON layout does not carry it
    assert _reports(table) == _reports(loaded)


@pytest.mark.parametrize("n", [4, 6])
def test_failing_shared_products_report_both_orders(n):
    # a shared product fails once per order: the rows of (a, b) are also those of (b, a)
    a, b = _pair(n)
    basis = enumerate_basis(n)
    table = _shared(n)
    for report in (positivity_check(table), classical_consistency_check(table)):
        pairs = [(tuple(r["u"]), tuple(r["v"])) for r in report.counterexamples]
        assert pairs.count((basis[a], basis[b])) == pairs.count((basis[b], basis[a])) > 0
    diff = compare_with_table(table, "flipped")
    assert {(tuple(r["u"]), tuple(r["v"])) for r in diff.mismatches} == {
        (basis[a], basis[b]),
        (basis[b], basis[a]),
    }


@pytest.mark.parametrize("n", range(3, 8))
def test_only_a_built_h2_table_is_mirrored(n):
    assert _is_mirrored(build_table(n).ops)
    assert _is_mirrored(build_table(n, "h2").ops)
    assert not _is_mirrored(build_table(n, "h1").ops)
    assert not _is_mirrored(table_from_json(table_to_json(build_table(n))).ops)


class _CountingClass(QKClass):
    """A class that counts the reads of its flat terms."""

    __slots__ = ("reads",)

    def __init__(self, col: QKClass):
        self.n = col.n
        QKClass._terms.__set__(self, col._terms)
        self.reads = 0

    @property
    def _terms(self):
        self.reads += 1
        return QKClass._terms.__get__(self)


SCANS = {
    "positivity": positivity_check,
    "classical": classical_consistency_check,
    "degree": degree_bound_check,
    **{f"conjecture-{g}": (lambda table, g=g: compare_with_table(table, g)) for g in GATINGS},
}


@pytest.mark.parametrize("scan", SCANS)
@pytest.mark.parametrize("n", [3, 5, 7])
def test_a_shared_product_is_read_once(n, scan):
    table = build_table(n)
    a, b = _pair(n)
    counted = _CountingClass(table.ops[a].cols[b])
    table.ops[a].cols[b] = table.ops[b].cols[a] = counted
    assert _is_mirrored(table.ops)
    SCANS[scan](table)
    assert counted.reads == 1
    # the same object in a table read in full is read once per order
    c = (b + 1) % len(table.ops)
    table.ops[c].cols[a] = QKClass._trusted(n, dict(table.ops[c].cols[a]._terms))
    assert not _is_mirrored(table.ops)
    counted.reads = 0
    SCANS[scan](table)
    assert counted.reads == 2


@pytest.mark.parametrize("n", range(3, 11))
def test_the_classical_formula_is_symmetric(n):
    basis = enumerate_basis(n)
    for a, u in enumerate(basis):
        for v in basis[a + 1 :]:
            assert _k_terms(u, v, n) == _k_terms(v, u, n)


@pytest.mark.parametrize("n", range(3, 8))
def test_the_conjectured_formula_reads_a_symmetric_class(n):
    # the comparator's class key (i+k, j+p, parity) is symmetric in u and v,
    # and so is the formula read off it
    basis = enumerate_basis(n)
    for a, u in enumerate(basis):
        for v in basis[a + 1 :]:
            for gating in GATINGS:
                assert conjectured_product(u, v, n, gating) == conjectured_product(v, u, n, gating)
