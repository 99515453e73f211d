import pytest

from qkflag import conjecture
from qkflag.basis import codim, enumerate_basis, h1_index, length, linear_index, unit_index
from qkflag.conjecture import (
    GATINGS,
    DiffReport,
    _class_formula,
    _differing,
    _formula_terms,
    compare_with_table,
    conjectured_product,
    degree_operator,
    degree_vector,
    delta,
    is_degenerate,
    translate,
)
from qkflag.errors import DegenerateTarget, InvalidIndex
from qkflag.poly import NovikovPolynomial, QKClass, c1_pairing
from qkflag.qkring import build_table
from qkflag.verify import classical_consistency_check

from .test_verify import _reference_classical_report


@pytest.fixture(scope="module")
def tables():
    return {n: build_table(n) for n in range(3, 11)}


def test_translate_examples():
    assert translate(0, (1, 4), (1, 4), 4) == (2, 3)
    assert translate(1, (1, 4), (1, 4), 4) == (1, 3)
    t = translate(0, (2, 1), (2, 1), 3)
    assert t == (1, 1) and is_degenerate(t)


def test_translate_components_in_range():
    for n in (3, 4):
        for u in enumerate_basis(n):
            for v in enumerate_basis(n):
                for idx in range(4):
                    a, b = translate(idx, u, v, n)
                    assert 1 <= a <= n and 1 <= b <= n


def test_degree_operator_examples():
    assert degree_operator(1, (1, 4), (1, 4), (2, 3), 4) == 1
    assert degree_operator(2, (1, 4), (1, 4), (2, 3), 4) == 1


def test_degree_operator_unit_product():
    for n in (3, 4, 5):
        for v in enumerate_basis(n):
            assert degree_operator(1, unit_index(n), v, v, n) == 0
            assert degree_operator(2, unit_index(n), v, v, n) == 0


def test_degree_operator_values_at_translates_are_bits():
    for n in (3, 4, 5):
        for u in enumerate_basis(n):
            for v in enumerate_basis(n):
                for idx in range(4):
                    w = translate(idx, u, v, n)
                    for op in (1, 2):
                        assert degree_operator(op, u, v, w, n) in (0, 1)


@pytest.mark.parametrize("w", [(9, 9), (0, 2), (2, 4), (1.0, 2), (2, 3.0), (True, 2), (2, True)])
def test_degree_vector_refuses_an_invalid_target(w):
    with pytest.raises(InvalidIndex):
        degree_vector((1, 2), (2, 3), w, 3)
    with pytest.raises(InvalidIndex):
        degree_operator(1, (1, 2), (2, 3), w, 3)


def test_degree_vector_accepts_a_degenerate_target():
    # translate can return (i, i); the degree operators stay defined there
    assert translate(0, (2, 1), (2, 1), 3) == (1, 1)
    assert degree_vector((2, 1), (2, 1), (1, 1), 3) == (0, 0)


def test_delta_examples():
    for n in (3, 4, 5):
        for v in enumerate_basis(n):
            assert delta(unit_index(n), v, v, n) == 1
    assert delta((1, 4), (1, 4), (2, 3), 4) == 0
    assert delta((1, 4), (1, 4), (1, 3), 4) == 1


def test_delta_rejects_degenerate_target():
    with pytest.raises(DegenerateTarget):
        delta((2, 1), (2, 1), (1, 1), 3)


def test_conjectured_product_unit_law(tables):
    for n in (3, 4, 5):
        for v in enumerate_basis(n):
            assert conjectured_product(unit_index(n), v, n) == QKClass.basis_element(v, n)


def test_conjectured_product_chevalley_row2():
    for n in (4, 5):
        for p in range(2, n):
            got = conjectured_product(h1_index(n), (1, p), n)
            want = QKClass(n, {(n, p): NovikovPolynomial.monomial((1, 0))})
            assert got == want


def test_point_squared_matches_table(tables):
    got = conjectured_product((1, 4), (1, 4), 4)
    assert got == tables[4].product((1, 4), (1, 4))
    q = NovikovPolynomial.monomial((1, 1))
    assert got == QKClass(4, {(1, 3): q, (2, 4): q, (1, 4): -q})


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_comparator_empty_for_flipped_gating(n, tables):
    report = compare_with_table(tables[n], gating="flipped")
    assert report.empty
    assert report.details["literal_gating_mismatches"] > 0


@pytest.mark.parametrize("n", [3, 4])
def test_comparator_literal_gating_lists_everything(n, tables):
    report = compare_with_table(tables[n], gating="literal")
    assert not report.empty
    for m in report.mismatches:
        assert set(m) == {"u", "v", "w", "d1", "d2", "table", "conjecture"}
        assert m["table"] != m["conjecture"]
    assert report.details["flipped_gating_mismatches"] == 0


def test_comparator_deterministic(tables):
    a = compare_with_table(tables[4], gating="literal").to_json()
    b = compare_with_table(tables[4], gating="literal").to_json()
    assert a == b


def test_conjectured_products_satisfy_sign_rule():
    for n in (3, 4, 5):
        for u in enumerate_basis(n):
            for v in enumerate_basis(n):
                base = codim(u, n) + codim(v, n)
                for w, p in conjectured_product(u, v, n).items():
                    for deg, c in p.terms():
                        e = codim(w, n) - base + c1_pairing(deg, n)
                        assert (c if e % 2 == 0 else -c) >= 0, (u, v, w, deg)


@pytest.mark.parametrize("n, count", [(n, n * n * (n - 2) * (3 * n - 4)) for n in range(3, 9)])
def test_literal_gating_mismatch_count(n, count, tables):
    # n^2 (n-2)(3n-4): 45, 256, 825, 2016, 4165, 7680 at n = 3..8
    report = compare_with_table(tables[n], gating="flipped")
    assert report.details == {"literal_gating_mismatches": count}
    assert len(compare_with_table(tables[n], gating="literal").mismatches) == count


def _reference_product(u, v, n, gating):
    """The closed formula term by term from the public, validated maps."""
    out = QKClass.zero(n)
    t0 = translate(0, u, v, n)
    if not is_degenerate(t0) and delta(u, v, t0, n):
        mono = NovikovPolynomial.monomial(degree_vector(u, v, t0, n))
        out = out + QKClass.basis_element(t0, n, mono)
    t1 = translate(1, u, v, n)
    if is_degenerate(t1) or delta(u, v, t1, n) != (gating == "flipped"):
        return out
    for idx, sign in ((1, 1), (2, 1), (3, -1)):
        ti = translate(idx, u, v, n)
        if not is_degenerate(ti):
            mono = NovikovPolynomial.monomial(degree_vector(u, v, ti, n), sign)
            out = out + QKClass.basis_element(ti, n, mono)
    return out


@pytest.mark.parametrize("n", range(3, 11))
def test_conjectured_product_matches_reference(n):
    for gating in GATINGS:
        for u in enumerate_basis(n):
            for v in enumerate_basis(n):
                assert conjectured_product(u, v, n, gating) == _reference_product(u, v, n, gating)


def _naive_diff(table, gating):
    """compare_with_table from the public product, one gating at a time."""
    n = table.n

    def rows(g):
        out = []
        for u in enumerate_basis(n):
            for v in enumerate_basis(n):
                got, want = conjectured_product(u, v, n, g), table.product(u, v)
                keys = {(w, deg) for w, p in (got - want).items() for deg, _ in p.terms()}
                for w, deg in sorted(keys, key=lambda t: (linear_index(t[0], n), t[1])):
                    out.append(
                        {
                            "u": [u.i, u.j],
                            "v": [v.i, v.j],
                            "w": [w.i, w.j],
                            "d1": deg[0],
                            "d2": deg[1],
                            "table": want.coefficient(w).coefficient(deg),
                            "conjecture": got.coefficient(w).coefficient(deg),
                        }
                    )
        return out

    other = GATINGS[1 - GATINGS.index(gating)]
    details = {f"{other}_gating_mismatches": len(rows(other))}
    return DiffReport(n=n, gating=gating, mismatches=rows(gating), details=details)


@pytest.mark.parametrize("gating", GATINGS)
@pytest.mark.parametrize("n", range(3, 11))
def test_comparator_matches_naive_diff(n, gating, tables):
    got, want = compare_with_table(tables[n], gating), _naive_diff(tables[n], gating)
    assert got.to_json() == want.to_json()
    assert got.to_text() == want.to_text()


@pytest.mark.parametrize("n", range(8, 11))
def test_flipped_diff_is_empty_past_n_7(n, tables):
    # with the naive diff above, tier-1 reads the flipped gate as exact up to n = 10
    assert compare_with_table(tables[n]).empty


def test_comparator_rejects_unknown_gating(tables):
    with pytest.raises(ValueError):
        compare_with_table(tables[3], gating="both")


def _class(u, v, n):
    """The key compare_with_table caches the formula under."""
    return (u.i + v.i, u.j + v.j, (length(u, n) + length(v, n)) & 1)


@pytest.mark.parametrize("n", range(3, 9))
def test_formula_terms_depend_only_on_class(n):
    # compare_with_table evaluates the formula once per class; that is
    # exact only while this holds
    seen = {}
    for u in enumerate_basis(n):
        for v in enumerate_basis(n):
            terms = _formula_terms(u, v, n)
            assert seen.setdefault(_class(u, v, n), terms) == terms, (u, v)


@pytest.mark.parametrize("n", range(3, 11))
def test_gatings_differ_by_their_size_difference(n):
    # compare_with_table counts the keys where the two gatings of a class
    # differ as the difference of the two maps' sizes
    basis = enumerate_basis(n)
    for cls in {_class(u, v, n) for u in basis for v in basis}:
        flipped, literal = _class_formula(*cls, n)
        assert abs(len(flipped) - len(literal)) == len(_differing(flipped, literal)), cls


@pytest.mark.parametrize("n", range(3, 9))
def test_comparator_evaluates_the_formula_once_per_class(n, tables, monkeypatch):
    calls = []
    evaluate = conjecture._class_formula

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(conjecture, "_class_formula", counted)
    basis = enumerate_basis(n)
    classes = {_class(u, v, n) for u in basis for v in basis}
    for gating in GATINGS:
        # a second call does the same work: nothing is cached across calls
        for _ in range(2):
            calls.clear()
            compare_with_table(tables[n], gating)
            assert len(calls) == len(classes)
            assert {args[:3] for args in calls} == classes


def _perturbed(n):
    """build_table(n) with one shared-class coefficient changed and one term added.

    The changed pair sits strictly inside its class (another pair of the class
    comes before it and another after), so a memo keyed on the wrong thing
    would hand it a neighbour's cached value or leak its column to one.
    """
    table = build_table(n)
    pairs = [(u, v) for u in enumerate_basis(n) for v in enumerate_basis(n)]
    members = {}
    for u, v in pairs:
        members.setdefault(_class(u, v, n), []).append((u, v))
    u, v, w = next(
        (u, v, w)
        for m in members.values()
        if len(m) >= 3
        for u, v in m[1:-1]
        for w, p in table.product(u, v).items()
        if p.constant_term() > 0
    )
    col = table.product(u, v)
    table.matrix(u).cols[linear_index(v, n)] = col + QKClass.basis_element(w, n)
    x, y = pairs[len(pairs) // 2]
    col = table.product(x, y)
    w = next(w for w in enumerate_basis(n) if col.coefficient(w).is_zero)
    table.matrix(x).cols[linear_index(y, n)] = col + QKClass.basis_element(w, n)
    return table


def _with_literal_columns(n):
    """build_table(n) with every column of one class set to the literal gating's map.

    The class is the first whose two gatings differ, so in the flipped diff
    each of its columns equals the other gating and takes that class's rows.
    """
    table = build_table(n)
    basis = enumerate_basis(n)
    members = {}
    for u in basis:
        for v in basis:
            members.setdefault(_class(u, v, n), []).append((u, v))
    pairs = next(
        m for m in members.values()
        if len(m) >= 2 and conjectured_product(*m[0], n, "literal") != table.product(*m[0])
    )
    for u, v in pairs:
        table.matrix(u).cols[linear_index(v, n)] = conjectured_product(u, v, n, "literal")
    return table


@pytest.mark.parametrize("n", [4, 5, 6])
def test_comparator_stamps_the_rows_of_a_column_equal_to_the_other_gating(n):
    table = _with_literal_columns(n)
    for gating in GATINGS:
        got, want = compare_with_table(table, gating), _naive_diff(table, gating)
        assert got.to_json() == want.to_json()
        assert got.to_text() == want.to_text()
    assert compare_with_table(table, "flipped").mismatches


@pytest.mark.parametrize("n", [4, 5])
def test_comparator_and_classical_check_on_perturbed_table(n):
    table = _perturbed(n)
    for gating in GATINGS:
        got, want = compare_with_table(table, gating), _naive_diff(table, gating)
        assert got.to_json() == want.to_json()
        assert got.to_text() == want.to_text()
    assert not compare_with_table(table, "flipped").empty
    report = classical_consistency_check(table).to_json()
    assert len(report["counterexamples"]) == 2
    assert report == _reference_classical_report(table)
