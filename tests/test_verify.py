import json
from pathlib import Path

import pytest

from qkflag import qkring, verify
from qkflag.basis import enumerate_basis, h1_index, h2_index, linear_index, unit_index
from qkflag.kring import k_product
from qkflag.poly import NovikovPolynomial, QKClass
from qkflag.qkring import (
    MultiplicationTable,
    Operator,
    build_table,
    certify_ring,
    chevalley_operator,
    table_from_json,
    table_to_json,
)
from qkflag.verify import (
    chevalley_consistency_check,
    classical_consistency_check,
    positivity_check,
    reports_to_json,
    reports_to_text,
    ring_axiom_checks,
)

from .test_qkring import _add, _compose, _flat, _shared_pairs


@pytest.fixture(scope="module")
def tables():
    return {n: build_table(n) for n in (3, 4, 5, 6)}


@pytest.mark.parametrize("n", range(3, 7))
def test_positivity_sweep(n, tables):
    report = positivity_check(tables[n])
    assert report.passed
    assert report.counterexamples == []


def test_positivity_sign_examples():
    # -1 on O_{p-1,p+1} inside O_h1 * O_{p+1,p}: odd exponent, so allowed
    n = 5
    got = k_product((n - 1, 1), (4, 3), n)
    assert got.coefficient((2, 4)).constant_term() == -1
    # +1 on O_{n,p} at degree (1,0) inside O_h1 * O_{1,p}: even exponent
    table = build_table(n)
    got = table.product((n - 1, 1), (1, 3))
    assert got.coefficient((n, 3)).coefficient((1, 0)) == 1


@pytest.mark.parametrize("n", range(3, 7))
def test_ring_axioms(n, tables):
    report = ring_axiom_checks(tables[n])
    assert report.passed
    assert report.details["associativity_checked"] == (n <= 5)


def test_ring_axioms_forced_associativity_small():
    table = build_table(3)
    report = ring_axiom_checks(table, associativity=True)
    assert report.passed and report.details["associativity_checked"]


@pytest.mark.parametrize("n", range(3, 7))
def test_classical_consistency(n, tables):
    assert classical_consistency_check(tables[n]).passed


@pytest.mark.parametrize("n", range(3, 7))
def test_chevalley_consistency(n, tables):
    report = chevalley_consistency_check(tables[n])
    assert report.passed
    assert report.details["step_c_variant"] == "h2"
    assert report.details["step_c_arbitration"]["chosen"] == "h2"


def test_classical_consistency_spot_entry(tables):
    n = 4
    got = tables[n].product(h2_index(n), (2, 1)).classical_limit()
    assert got == QKClass(n, {(1, 2): 1, (2, 3): 1, (1, 3): -1})


def test_reports_are_deterministic(tables):
    def run():
        reps = [
            positivity_check(tables[4]),
            ring_axiom_checks(tables[4]),
            classical_consistency_check(tables[4]),
        ]
        return json.dumps(reports_to_json(reps), sort_keys=True)

    assert run() == run()


def test_failure_is_reported_with_counterexamples():
    table = build_table(3)
    # corrupt one entry of a copied column and re-run the classical check
    bad = table.matrix((2, 1)).cols[0] + QKClass(3, {(1, 2): NovikovPolynomial.one()})
    table.matrix((2, 1)).cols[0] = bad
    report = classical_consistency_check(table)
    assert not report.passed
    assert report.counterexamples
    entry = report.counterexamples[0]
    assert set(entry) == {"u", "v", "w", "d1", "d2", "coeff"}
    text = reports_to_text([report])
    assert "status=FAIL" in text


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("h, hw, deg, top", [("h1", h1_index, (2, 0), (2, 0)), ("h2", h2_index, (0, 2), (1, 1))])
def test_a_hyperplane_column_past_its_degrees_fails_both_checks(n, h, hw, deg, top):
    # Q^deg O_w added to column v of H: one degree row and one Chevalley row;
    # the largest degree is read off packed codes, which order by d1 first
    table, p = build_table(n), 3
    v = enumerate_basis(n)[p]
    cols = table.matrix(hw(n)).cols
    cols[p] = cols[p] + QKClass.basis_element(v, n, NovikovPolynomial.monomial(deg))
    degree = qkring.degree_bound_check(table)
    assert not degree.passed
    assert degree.counterexamples == [{"h": h, "v": [v.i, v.j], "d1": deg[0], "d2": deg[1]}]
    assert degree.details["max_degree"] == {"d1": top[0], "d2": top[1]}
    chevalley = chevalley_consistency_check(table)
    assert not chevalley.passed and chevalley.counterexamples == [{"h": h, "v": [v.i, v.j]}]

DATA = Path(__file__).parent / "data"


def _brute_force_ring_report(table, monkeypatch):
    """ring_axiom_checks with the certificate refused, so every triple is composed."""
    with monkeypatch.context() as m:
        m.setattr(verify, "certify_ring", lambda table: False)
        return ring_axiom_checks(table, associativity=True).to_json()


def _flipped(n, u, v):
    """The n table with the sign of one coefficient of O_u * O_v flipped."""
    obj = table_to_json(build_table(n))
    entry = next(e for e in obj["entries"] if e["u"] == list(u) and e["v"] == list(v))
    entry["poly"][0]["coeff"] *= -1
    return table_from_json(obj)


def _built_from_noncommuting_generators(n):
    """The h2 recurrence run on H1 + (e_{n,2} -> e_{1,2}) and H2, at full width on the identity's columns.

    Column (n,2) of H1 enters no unit column, so every M_u e_{n,1} = e_u and
    every recurrence step holds; only H1 H2 != H2 H1 is left to fail, so
    ``build_table`` would refuse these generators.
    """
    h1, h2 = chevalley_operator("h1", n), chevalley_operator("h2", n)
    t = linear_index((n, 2), n)
    h1.cols[t] = h1.cols[t] + QKClass.basis_element((1, 2), n)
    basis = enumerate_basis(n)
    m = {unit_index(n): [QKClass.basis_element(v, n) for v in basis]}
    for w, x in qkring._recurrence(n, m, h1, h2, "h2"):
        m[w] = x
    table = MultiplicationTable(n, [Operator(n, m[w]) for w in basis], "h2")
    assert not _shared_pairs(table.ops)
    return table


ORACLE_TABLES = {
    **{f"auto-{n}": (lambda n=n: build_table(n)) for n in (3, 4, 5)},
    **{f"h1-{n}": (lambda n=n: build_table(n, "h1")) for n in (3, 4, 5)},
    **{
        f"golden-{n}": (
            lambda n=n: table_from_json(json.loads((DATA / f"golden_table_n{n}.json").read_text()))
        )
        for n in (3, 4)
    },
    "flipped-H1": lambda: _flipped(4, (3, 1), (2, 3)),
    "flipped-M12": lambda: _flipped(4, (1, 2), (3, 2)),
    "flipped-M24": lambda: _flipped(4, (2, 4), (4, 2)),
    "flipped-unit": lambda: _flipped(4, (4, 1), (2, 3)),
    "noncommuting-4": lambda: _built_from_noncommuting_generators(4),
}
# h1 tables (step (c) differs), flipped-M12, flipped-M24 and flipped-unit
# (M_{n,1} != Id) fail only the comparison with the h2 recurrence on their
# own H1, H2; noncommuting-4 fails the commutator and the comparison, and
# flipped-H1 the commutator and a unit column
CERTIFIED = {"auto-3", "auto-4", "auto-5", "golden-3", "golden-4"}
H1_COUNTEREXAMPLES = {"h1-3": 173, "h1-4": 1439, "h1-5": 6775}


@pytest.mark.parametrize("name", ORACLE_TABLES)
def test_certified_ring_report_matches_brute_force(name, monkeypatch):
    table = ORACLE_TABLES[name]()
    assert certify_ring(table) == (name in CERTIFIED)
    fast = ring_axiom_checks(table, associativity=True).to_json()
    assert fast == _brute_force_ring_report(table, monkeypatch)
    assert fast["passed"] == (name in CERTIFIED)
    if name in H1_COUNTEREXAMPLES:
        assert len(fast["counterexamples"]) == H1_COUNTEREXAMPLES[name]


def _operator_sum_counterexamples(table, n, basis):
    """The brute force composed whole: M_u . M_v against the operator sum of c_x M_x.

    Operators are {v: {(w, d1, d2): c}} maps in the plain dict arithmetic of
    tests/test_qkring.py, so nothing here runs through the kernel.
    """
    ops = {u: {v: _flat(col) for v, col in zip(basis, op.cols)} for u, op in zip(basis, table.ops)}

    def nonzero(col):
        return {key: c for key, c in col.items() if c}

    bad = []
    for u in basis:
        for v in basis:
            lhs = _compose(ops[u], ops[v])
            rhs = {w: {} for w in basis}
            for (x, d1, d2), c in table.product(u, v).ordered_terms():
                scaled = {
                    w: {(y, e1 + d1, e2 + d2): k * c for (y, e1, e2), k in col.items()}
                    for w, col in ops[x].items()
                }
                rhs = _add(rhs, scaled)
            for w in basis:
                if nonzero(lhs[w]) != nonzero(rhs[w]):
                    bad.append(
                        {"axiom": "associativity", "u": [u.i, u.j], "v": [v.i, v.j], "w": [w.i, w.j]}
                    )
    return bad


@pytest.mark.parametrize("name", ["h1-3", "h1-4", "noncommuting-4", "flipped-H1"])
def test_associativity_fallback_matches_operator_sums(name):
    table = ORACLE_TABLES[name]()
    n, basis = table.n, enumerate_basis(table.n)
    got = verify._associativity_counterexamples(table, n, basis)
    assert json.dumps(got) == json.dumps(_operator_sum_counterexamples(table, n, basis))
    assert got


@pytest.mark.parametrize("n", [3, 4, 5])
def test_certified_associativity_composes_only_the_commutator(n, monkeypatch):
    # the certificate's recurrence runs on the kernel; its only Operator.compose
    # calls are H1 H2 and H2 H1, one composition each
    table = build_table(n)
    calls = []
    compose = Operator.compose

    def counting(self, other):
        calls.append(1)
        return compose(self, other)

    monkeypatch.setattr(Operator, "compose", counting)
    assert ring_axiom_checks(table, associativity=True).passed
    assert calls == [1, 1]


@pytest.mark.parametrize("n", range(3, 11))
def test_associativity_certified_without_brute_force(n, monkeypatch):
    # the certificate proves associativity, commutativity and the unit, so no
    # scan runs either: unit_index is read only by the identity scan
    def refuse(*args):
        raise AssertionError("a brute-force check or scan ran on a certified table")

    for name in ("_associativity_counterexamples", "_noncommuting", "unit_index"):
        monkeypatch.setattr(verify, name, refuse)
    report = ring_axiom_checks(build_table(n), associativity=True)
    assert report.passed and report.details["associativity_checked"]


@pytest.mark.parametrize("n", [3, 4])
def test_identity_scan_reports_a_wrong_unit_column(n):
    # O_e * O_v must be e_v itself: a Q-shift, a coefficient 2 or a class of
    # another n is reported, and the built column is not
    table = build_table(n)
    e, v = linear_index(unit_index(n), n), enumerate_basis(n)[1]
    assert ring_axiom_checks(table, associativity=False).passed
    for wrong in (
        QKClass(n, {v: NovikovPolynomial.monomial((1, 0))}),
        QKClass(n, {v: 2}),
        QKClass(n + 1, {v: 1}),
    ):
        ops = list(table.ops)
        ops[e] = Operator._trusted(n, [wrong if b == 1 else c for b, c in enumerate(ops[e].cols)])
        rows = ring_axiom_checks(MultiplicationTable(n, ops, "h2"), associativity=False).counterexamples
        assert [r["v"] for r in rows if r["axiom"] == "identity"] == [[v.i, v.j]], wrong


@pytest.mark.parametrize(
    "check",
    [positivity_check, ring_axiom_checks, classical_consistency_check, chevalley_consistency_check],
)
@pytest.mark.parametrize("n", [3, 5])
def test_check_rejects_a_rank_other_than_the_tables(check, n, tables):
    # the checks read n from the table and take no second positional argument,
    # so an old ring_axiom_checks(table, 5) is refused, not read as associativity=5
    with pytest.raises(TypeError):
        check(tables[4], n)


def _reference_classical_report(table):
    """The classical check through public k_product and QKClass differences, column by column."""
    n = table.n
    basis = enumerate_basis(n)
    bad = []
    for u in basis:
        for v in basis:
            got = table.product(u, v).classical_limit()
            want = k_product(u, v, n)
            if got != want:
                for w, p in (got - want).items():
                    bad.append(
                        {
                            "u": [u.i, u.j],
                            "v": [v.i, v.j],
                            "w": [w.i, w.j],
                            "d1": 0,
                            "d2": 0,
                            "coeff": p.constant_term(),
                        }
                    )
    bad.sort(key=lambda e: tuple(linear_index(tuple(e[k]), n) for k in ("u", "v", "w")))
    details = {}
    if getattr(table, "arbitration", None):
        details["step_c_arbitration"] = table.arbitration
    return {
        "check": "classical",
        "n": n,
        "passed": not bad,
        "counterexamples": bad,
        "details": details,
    }


def _mutated(n, edit):
    """The n table, through its JSON, with ``edit`` applied to the entry list."""
    obj = table_to_json(build_table(n))
    edit(obj["entries"])
    return table_from_json(obj)


def _degrees(entry):
    return [(t["d1"], t["d2"]) for t in entry["poly"]]


def _bump_constant(entries):
    entry = next(e for e in entries if e["u"] == [2, 1] and _degrees(e)[0] == (0, 0))
    entry["poly"][0]["coeff"] += 1


def _add_constant(entries):
    taken = {tuple(e["w"]) for e in entries if e["u"] == [3, 1] and e["v"] == [2, 3]}
    w = next(w for w in enumerate_basis(4) if w not in taken)
    constant = [{"d1": 0, "d2": 0, "coeff": 1}]
    entries.append({"u": [3, 1], "v": [2, 3], "w": [w.i, w.j], "poly": constant})


def _move_constant_to_q1(entries):
    entry = next(e for e in entries if _degrees(e) == [(0, 0)])
    entry["poly"][0]["d1"] = 1


def _bump_q1(entries):
    entry = next(e for e in entries if (1, 0) in _degrees(e))
    entry["poly"][_degrees(entry).index((1, 0))]["coeff"] += 1


CLASSICAL_TABLES = {
    **{f"auto-{n}": (lambda n=n: build_table(n)) for n in range(3, 9)},
    **{f"h1-{n}": (lambda n=n: build_table(n, "h1")) for n in (3, 4, 5)},
    **{
        f"golden-{n}": (
            lambda n=n: table_from_json(json.loads((DATA / f"golden_table_n{n}.json").read_text()))
        )
        for n in (3, 4)
    },
    "changed-constant": lambda: _mutated(4, _bump_constant),
    "added-constant": lambda: _mutated(4, _add_constant),
    "constant-moved-to-Q1": lambda: _mutated(4, _move_constant_to_q1),
    "changed-Q1-only": lambda: _mutated(4, _bump_q1),
}
CLASSICAL_FAILS = {"changed-constant", "added-constant", "constant-moved-to-Q1"}


@pytest.mark.parametrize("name", CLASSICAL_TABLES)
def test_classical_report_matches_class_reference(name):
    table = CLASSICAL_TABLES[name]()
    report = classical_consistency_check(table).to_json()
    assert json.dumps(report) == json.dumps(_reference_classical_report(table))
    assert report["passed"] == (name not in CLASSICAL_FAILS)
    if name in CLASSICAL_FAILS:
        assert len(report["counterexamples"]) == 1


def _row_key(n):
    """The written row order: linear positions of u, v and w (-1 when absent), then d1, d2."""

    def key(entry):
        return (
            linear_index(tuple(entry["u"]), n),
            linear_index(tuple(entry["v"]), n),
            linear_index(tuple(entry["w"]), n) if "w" in entry else -1,
            entry.get("d1", 0),
            entry.get("d2", 0),
        )

    return key


def _reversed_with_flips(n, products):
    """The n table, through its JSON, with every coefficient of each O_u * O_v in
    ``products`` flipped and the entries and their terms stored in reverse."""

    def edit(entries):
        for e in entries:
            if (tuple(e["u"]), tuple(e["v"])) in products:
                for t in e["poly"]:
                    t["coeff"] *= -1
            e["poly"].reverse()
        entries.reverse()

    return _mutated(n, edit)


def test_positivity_rows_come_in_the_written_order():
    n = 4
    table = _reversed_with_flips(n, {((1, n), (1, n)), ((2, n), (1, n))})
    rows = positivity_check(table).counterexamples
    columns = [(tuple(r["u"]), tuple(r["v"])) for r in rows]
    assert max(columns.count(c) for c in columns) >= 2
    assert rows == sorted(rows, key=_row_key(n))


def test_ring_rows_come_in_the_written_order_axiom_by_axiom():
    n = 4
    table = _reversed_with_flips(n, {((n, 1), (1, 2))})
    rows = ring_axiom_checks(table, associativity=True).counterexamples
    assert {r["axiom"] for r in rows} == {"identity", "commutativity", "associativity"}
    key = _row_key(n)
    assert rows == sorted(rows, key=lambda r: (r["axiom"], key(r)))


PERTURBED = ("changed-constant", "added-constant", "constant-moved-to-Q1", "changed-Q1-only")
ORDER_TABLES = {
    **{name: CLASSICAL_TABLES[name] for name in PERTURBED},
    # three wrong constants in one column, stored in reverse
    "reversed-h2-column": lambda: _reversed_with_flips(4, {((4, 2), (2, 1))}),
}


@pytest.mark.parametrize("name", ORDER_TABLES)
def test_classical_rows_come_in_the_written_order(name):
    table = ORDER_TABLES[name]()
    rows = classical_consistency_check(table).counterexamples
    assert rows == sorted(rows, key=_row_key(table.n))
    if name == "reversed-h2-column":
        assert len(rows) == 3
