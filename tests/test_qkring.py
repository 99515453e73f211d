import json
import pathlib

import pytest

from qkflag.basis import enumerate_basis, h1_index, h2_index, unit_index
from qkflag import qkring
from qkflag.errors import InvalidIndex, InvalidRank, MalformedTable, QKFlagError, RankMismatch
from qkflag.kring import k_product
from qkflag.poly import NovikovPolynomial, QKClass
from qkflag.qkring import (
    CHEVALLEY_DEGREES,
    Operator,
    build_table,
    chevalley_apply,
    chevalley_operator,
    degree_bound_check,
    qk_product,
    quantum_correction,
    table_from_json,
    table_to_json,
)

DATA = pathlib.Path(__file__).parent / "data"

Q1 = NovikovPolynomial.monomial((1, 0))
Q2 = NovikovPolynomial.monomial((0, 1))
Q1Q2 = NovikovPolynomial.monomial((1, 1))


@pytest.fixture(scope="module")
def tables():
    return {n: build_table(n) for n in (3, 4, 5, 6)}


def test_quantum_correction_h1_point_class():
    n = 4
    got = quantum_correction("h1", (1, n), n)
    want = QKClass(n, {(3, 4): Q1, (4, 1): Q1Q2, (3, 1): -Q1Q2})
    assert got == want


def test_quantum_correction_vanishes_generically():
    for n in (4, 5):
        for k in range(3, n + 1):
            for p in range(1, n):
                if k != p:
                    assert quantum_correction("h1", (k, p), n).is_zero, (k, p)


def test_quantum_correction_h2_column():
    assert quantum_correction("h2", (3, 5), 5) == QKClass(5, {(3, 1): Q2})


def test_quantum_correction_l1l2_only_at_point():
    for n in (3, 4, 5):
        for h in ("h1", "h2"):
            for v in enumerate_basis(n):
                part = quantum_correction(h, v, n).degree_part((1, 1))
                assert part.is_zero or v == (1, n)


def test_chevalley_apply_unit():
    for n in (3, 4, 5):
        assert chevalley_apply("h1", unit_index(n), n) == QKClass.basis_element(h1_index(n), n)
        assert chevalley_apply("h2", unit_index(n), n) == QKClass.basis_element(h2_index(n), n)


def test_chevalley_apply_row2_n3():
    assert chevalley_apply("h1", (1, 2), 3) == QKClass(3, {(3, 2): Q1})


def test_chevalley_apply_two_one():
    for n in (4, 5):
        got = chevalley_apply("h1", (2, 1), n)
        want = QKClass(n, {(1, 2): 1, (n, 1): Q1, (n, 2): -Q1})
        assert got == want


def test_chevalley_operator_degree_support():
    for n in (3, 4, 5, 6):
        for h in ("h1", "h2"):
            assert chevalley_operator(h, n).degree_support() <= CHEVALLEY_DEGREES


def test_build_table_rejects_bad_rank():
    with pytest.raises(InvalidRank):
        build_table(2)


def test_step_c_arbitration_outcome(tables):
    for n, table in tables.items():
        assert table.step_c_variant == "h2"
        outcomes = table.arbitration["outcomes"]
        assert outcomes["h2"] == {"classical_limit_ok": True, "commutative_ok": True}
        # the competing transcription survives the classical limit but is
        # not commutative, which is what forces the arbitration
        assert outcomes["h1"]["classical_limit_ok"] is True
        assert outcomes["h1"]["commutative_ok"] is False


def test_unit_column_in_every_matrix(tables):
    for n, table in tables.items():
        e = unit_index(n)
        for u in enumerate_basis(n):
            assert table.matrix(u).column(e) == QKClass.basis_element(u, n)


def test_table_n3_chevalley_row1():
    table = build_table(3)
    got = table.product(h1_index(3), (1, 3))
    assert got == QKClass(3, {(2, 3): Q1, (3, 1): Q1Q2, (2, 1): -Q1Q2})


def test_table_rows_match_chevalley(tables):
    for n, table in tables.items():
        for h, hw in (("h1", h1_index(n)), ("h2", h2_index(n))):
            m = table.matrix(hw)
            for v in enumerate_basis(n):
                assert m.column(v) == chevalley_apply(h, v, n), (n, h, v)


def test_hyperplane_matrices_rederived_from_recurrences(tables):
    # M_{n-1,1} = H1 . Id and M_{n,2} = H2 . Id by the table steps; rebuild
    # them independently and compare with the stored matrices.
    for n, table in tables.items():
        ident = Operator.identity(n)
        assert table.matrix(h1_index(n)) == chevalley_operator("h1", n).compose(ident)
        assert table.matrix(h2_index(n)) == chevalley_operator("h2", n).compose(ident)


@pytest.mark.parametrize("n", [3, 4])
def test_table_matches_golden_file(n, tables):
    golden = json.loads((DATA / f"golden_table_n{n}.json").read_text())
    assert table_to_json(tables[n]) == golden


def test_point_squared_n4_matches_golden(tables):
    golden = json.loads((DATA / "golden_table_n4.json").read_text())
    want = {
        (tuple(e["w"]), (t["d1"], t["d2"])): t["coeff"]
        for e in golden["entries"]
        if e["u"] == [1, 4] and e["v"] == [1, 4]
        for t in e["poly"]
    }
    got = {
        (tuple(w), deg): c
        for w, p in tables[4].product((1, 4), (1, 4)).items()
        for deg, c in p.terms()
    }
    assert got == want


def test_qk_product_reads_table(tables):
    table = tables[4]
    for v in enumerate_basis(4):
        assert qk_product(unit_index(4), v, 4, table) == QKClass.basis_element(v, 4)
    assert qk_product(h1_index(4), (1, 4), 4, table) == chevalley_apply("h1", (1, 4), 4)
    with pytest.raises(RankMismatch):
        qk_product((1, 3), (3, 1), 3, table)


def test_classical_limit_matches_k_product(tables):
    for n, table in tables.items():
        for u in enumerate_basis(n):
            for v in enumerate_basis(n):
                assert table.product(u, v).classical_limit() == k_product(u, v, n)


def test_degree_bound_check(tables):
    for n, table in tables.items():
        report = degree_bound_check(table)
        assert report.passed
        assert report.details["max_degree"] == {"d1": 1, "d2": 1}


def test_table_json_roundtrip(tables):
    table = tables[3]
    loaded = table_from_json(table_to_json(table))
    for u in enumerate_basis(3):
        for v in enumerate_basis(3):
            assert loaded.product(u, v) == table.product(u, v)


def _brute_force_outcomes(table):
    n = table.n
    basis = enumerate_basis(n)
    return {
        "classical_limit_ok": all(
            table.product(u, v).classical_limit() == k_product(u, v, n)
            for u in basis
            for v in basis
        ),
        "commutative_ok": all(
            table.product(u, v) == table.product(v, u) for u in basis for v in basis
        ),
    }


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_arbitration_matches_two_variant_oracle(n, tables):
    # both variants built in full and checked by brute force, test-side
    outcomes = {v: _brute_force_outcomes(build_table(n, v)) for v in ("h2", "h1")}
    chosen = next(v for v in ("h2", "h1") if all(outcomes[v].values()))
    assert tables[n].arbitration == {"chosen": chosen, "outcomes": outcomes}
    assert tables[n].step_c_variant == chosen


def _count_compositions(monkeypatch, fn):
    calls = []
    compose = Operator.compose

    def counting(self, other):
        calls.append(1)
        return compose(self, other)

    monkeypatch.setattr(Operator, "compose", counting)
    result = fn()
    monkeypatch.setattr(Operator, "compose", compose)
    return len(calls), result


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_auto_build_composes_only_the_kept_variant(n, monkeypatch):
    auto, _ = _count_compositions(monkeypatch, lambda: build_table(n))
    kept, _ = _count_compositions(monkeypatch, lambda: build_table(n, "h2"))
    assert auto == kept > 0


def test_witness_column_is_the_h1_product(tables):
    for n in (3, 4, 5):
        h1_table = build_table(n, "h1")
        witness = qkring._h1_witness_column(n, tables[n].ops)
        assert witness == h1_table.product((1, 2), unit_index(n))
        assert witness == QKClass(n, {(1, 2): 1, (n - 1, 1): Q1, (n, 2): -Q1})


@pytest.mark.parametrize("n", [3, 4])
def test_witness_fallback_builds_h1_in_full(n, tables, monkeypatch):
    # a witness that cannot tell the variants apart falls back to the full
    # h1 build, with the same record
    monkeypatch.setattr(
        qkring, "_h1_witness_column", lambda n, ops: QKClass.basis_element((1, 2), n)
    )
    both, table = _count_compositions(monkeypatch, lambda: build_table(n))
    h2, _ = _count_compositions(monkeypatch, lambda: build_table(n, "h2"))
    h1, _ = _count_compositions(monkeypatch, lambda: build_table(n, "h1"))
    assert both == h2 + h1
    assert table.arbitration == tables[n].arbitration
    assert table_to_json(table) == table_to_json(tables[n])


def test_public_entry_points_still_validate_indices(tables):
    with pytest.raises(InvalidIndex):
        QKClass(3, {(1, 1): 1})
    with pytest.raises(InvalidIndex):
        qk_product((0, 1), (2, 1), 3, tables[3])
    with pytest.raises(InvalidIndex):
        tables[3].matrix((1, 2)).column((4, 1))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_every_product_is_nonzero(n):
    # a cached table is rejected when a product is missing; this pins that
    # no product of two Schubert classes vanishes
    table = build_table(n, "h2")
    assert all(not col.is_zero for op in table.ops for col in op.cols)


def test_table_from_json_rejects_duplicate_entry(tables):
    obj = table_to_json(tables[3])
    dup = json.loads(json.dumps(obj["entries"][0]))
    dup["poly"][0]["coeff"] = 99
    obj["entries"].append(dup)
    with pytest.raises(QKFlagError, match="repeats"):
        table_from_json(obj)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda obj: [1, 2],
        lambda obj: {"n": 3},
        lambda obj: {"n": 3, "entries": []},
        lambda obj: {"n": "3", "entries": obj["entries"]},
        lambda obj: {"n": 3, "entries": [e for e in obj["entries"] if e["u"] != e["v"]]},
        lambda obj: {"n": 3, "entries": obj["entries"] + [{"u": [1, 2], "v": [1, 2]}]},
        lambda obj: {"n": 3, "entries": obj["entries"] + [dict(obj["entries"][0], w=[4, 1])]},
        lambda obj: {"n": 3, "entries": obj["entries"] + [7]},
    ],
    ids=["list", "no-entries", "empty", "str-n", "no-squares", "no-w", "w-out-of-range", "int-entry"],
)
def test_table_from_json_rejects_malformed(mutate, tables):
    with pytest.raises(MalformedTable):
        table_from_json(mutate(table_to_json(tables[3])))
