import json
import pathlib

import pytest

from qkflag.basis import enumerate_basis, h1_index, h2_index, linear_index, unit_index
from qkflag import qkring
from qkflag.conjecture import conjectured_product
from qkflag.correlators import two_point
from qkflag.errors import InvalidIndex, InvalidRank, MalformedTable, QKFlagError, RankMismatch
from qkflag.kring import k_product
from qkflag.poly import _IDENTITY, DEGREE_L1, NovikovPolynomial, QKClass, _encode
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
from tests.oracles.make_golden import golden_text

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


def _reference_quantum_correction(h, v, n):
    """quantum_correction as two validated classes and their sum."""
    k, p = v
    single = {}
    if h == "h1":
        if k == 1:
            single = {(n - 1, n) if p == n else (n, p): Q1}
        elif (k, p) == (2, 1):
            single = {(n, 1): Q1, (n, 2): -Q1}
        both = {(n, 1): Q1Q2, (n - 1, 1): -Q1Q2}
    else:
        if p == n:
            single = {(1, 2) if k == 1 else (k, 1): Q2}
        elif (k, p) == (n, n - 1):
            single = {(n, 1): Q2, (n - 1, 1): -Q2}
        both = {(n, 1): Q1Q2, (n, 2): -Q1Q2}
    return QKClass(n, single) + QKClass(n, both if (k, p) == (1, n) else {})


def _reference_chevalley_apply(h, v, n):
    hw = h1_index(n) if h == "h1" else h2_index(n)
    return k_product(hw, v, n) + _reference_quantum_correction(h, v, n)


@pytest.mark.parametrize("n", range(3, 13))
def test_chevalley_columns_match_the_validated_construction(n):
    # the flat maps are built directly; the terms and their order must not move
    for h in ("h1", "h2"):
        for v in enumerate_basis(n):
            for got, want in (
                (quantum_correction(h, v, n), _reference_quantum_correction(h, v, n)),
                (chevalley_apply(h, v, n), _reference_chevalley_apply(h, v, n)),
            ):
                assert got == want, (h, v)
                assert list(got._terms.items()) == list(want._terms.items()), (h, v)


def test_chevalley_apply_still_validates():
    with pytest.raises(InvalidIndex):
        chevalley_apply("h1", (2, 2), 4)
    with pytest.raises(ValueError, match="h must be"):
        chevalley_apply("h3", (1, 2), 4)
    with pytest.raises(InvalidIndex):
        chevalley_apply("h3", (2, 2), 4)


def test_build_table_rejects_bad_rank():
    with pytest.raises(InvalidRank):
        build_table(2)


@pytest.mark.parametrize("n", range(3, 25))
def test_step_c_arbitration_outcome(n):
    # the competing transcription survives the classical limit but is not
    # commutative, which is what forces the arbitration; an auto build past
    # the other tests' range must still pass the certificate, mirrored
    table = build_table(n)
    ok = {"classical_limit_ok": True, "commutative_ok": True}
    assert table.arbitration == {"chosen": "h2", "outcomes": {"h2": ok, "h1": {**ok, "commutative_ok": False}}}
    assert table.step_c_variant == "h2"
    assert qkring._is_mirrored(table.ops)


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


@pytest.mark.parametrize("n", [3, 4])
def test_golden_file_is_the_text_of_the_sympy_oracle(n):
    # the dense oracle shares no code with the package: the golden files are its output
    assert golden_text(n).encode() == (DATA / f"golden_table_n{n}.json").read_bytes()


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


def test_operators_of_different_ranks_do_not_mix():
    small, large = Operator.identity(3), Operator.identity(4)
    for a, b in ((small, large), (large, small)):
        with pytest.raises(RankMismatch):
            a.compose(b)


def test_operator_refuses_a_column_of_another_rank():
    # six n = 4 columns match an n = 3 operator's width, so the rank check,
    # not the length check, must refuse them, and compose never runs
    n4 = [QKClass.basis_element(w, 4) for w in enumerate_basis(4)[:6]]
    with pytest.raises(RankMismatch):
        chevalley_operator("h1", 3).compose(Operator(3, n4))
    ident = Operator.identity(3).cols
    for k in range(len(ident)):
        with pytest.raises(RankMismatch):
            Operator(3, [n4[k] if b == k else col for b, col in enumerate(ident)])


@pytest.mark.parametrize("width", [0, 5, 7])
def test_operator_refuses_the_wrong_number_of_columns(width):
    cols = [QKClass.basis_element((3, 1), 3)] * width
    with pytest.raises(ValueError) as exc:
        Operator(3, cols)
    assert type(exc.value) is ValueError and str(exc.value) == f"expected 6 columns, got {width}"


def test_build_table_refuses_an_unknown_step_c():
    with pytest.raises(ValueError) as exc:
        build_table(3, "h3")
    assert str(exc.value) == "step_c must be 'h1', 'h2' or 'auto', got 'h3'"


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


def test_degree_bound_check_reads_max_degree_over_every_column():
    # a Q1^2 term outside the hyperplane rows raises max_degree but is no counterexample
    n = 4
    table = build_table(n)
    basis = enumerate_basis(n)
    u, v = (1, 2), (1, 2)
    assert u not in (h1_index(n), h2_index(n))
    cols = table.matrix(u).cols
    i = basis.index(v)
    cols[i] = cols[i] + QKClass.basis_element((2, 3), n, NovikovPolynomial.monomial((2, 0)))
    report = degree_bound_check(table)
    assert report.passed
    assert report.details["max_degree"] == {"d1": 2, "d2": 0}
    want = max(set().union(*(op.degree_support() for op in table.ops)))
    assert want == (2, 0)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_coefficient_reads_the_grouped_items(n, tables):
    zero = NovikovPolynomial.zero()
    for op in tables[n].ops:
        for col in op.cols:
            grouped = dict(col.items())
            for w in enumerate_basis(n):
                assert col.coefficient(w) == grouped.get(w, zero)
                assert col.coefficient(tuple(w)) == grouped.get(w, zero)
    col = tables[n].product((1, 2), (1, 2))
    absent = next(w for w in enumerate_basis(n) if w not in dict(col.items()))
    assert col.coefficient((absent.i, absent.j)).is_zero


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
    # both variants built in full test-side and checked by brute force; a
    # scan of the mirrored h2 table would be vacuous for commutativity
    outcomes = {v: _brute_force_outcomes(_pre_change_table(n, v)) for v in ("h2", "h1")}
    chosen = next(v for v in ("h2", "h1") if all(outcomes[v].values()))
    assert tables[n].arbitration == {"chosen": chosen, "outcomes": outcomes}
    assert tables[n].step_c_variant == chosen


def _changed(n, a, b, delta):
    """The h2 operators at n with column b of M_a (basis positions) plus ``delta``."""
    ops = build_table(n, "h2").ops
    ops[a].cols[b] = ops[a].cols[b] + QKClass(n, delta)
    return ops


def _changed_constant(n):
    """The h2 operators with one constant term of a diagonal column O_u * O_u bumped by 1."""
    ops = build_table(n, "h2").ops
    a, w = next(
        (a, w) for a, op in enumerate(ops) for w, p in op.cols[a].items() if p.constant_term()
    )
    return _changed(n, a, a, {w: 1})


ORACLE_CASES = {
    **{
        f"{v}-{n}": (lambda n=n, v=v: build_table(n, v).ops)
        for n in range(3, 7)
        for v in ("h2", "h1")
    },
    "changed-constant": lambda: _changed_constant(4),
    "changed-Q1-only": lambda: _changed(4, 1, 1, {(2, 1): Q1}),
    "changed-one-side": lambda: _changed(4, 1, 2, {(2, 1): Q1}),
}
ORACLE_FAILS = {
    "changed-constant": "classical_limit_ok",
    "changed-one-side": "commutative_ok",
    **{f"h1-{n}": "commutative_ok" for n in range(3, 7)},
}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_oracle_outcomes_match_class_reference(name):
    ops = ORACLE_CASES[name]()
    n = ops[0].n
    outcomes = {
        "classical_limit_ok": not qkring._classical_mismatches(n, ops),
        "commutative_ok": next(qkring._noncommuting(n, ops), None) is None,
    }
    # the class-based reference: classical_limit() against public k_product
    assert outcomes == _brute_force_outcomes(qkring.MultiplicationTable(n, ops, "test"))
    failed = {k for k, ok in outcomes.items() if not ok}
    assert failed == ({ORACLE_FAILS[name]} if name in ORACLE_FAILS else set())


def _kernel_counts(monkeypatch, fn):
    """Run fn; return (columns, applications, result) over every kernel call qkring makes.

    A call of width k evaluates k columns, and applies each operator of its
    parts other than the identity to each of them: one application per
    column for every operator applied in the construction before the steps
    were fused.
    """
    counts = [0, 0]
    combine = qkring._combine

    def counting(n, parts, width=1):
        counts[0] += width
        counts[1] += width * sum(cols is not _IDENTITY for _, _, _, cols, _ in parts)
        return combine(n, parts, width)

    monkeypatch.setattr(qkring, "_combine", counting)
    result = fn()
    monkeypatch.setattr(qkring, "_combine", combine)
    return *counts, result


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_auto_build_composes_only_the_kept_variant(n, monkeypatch):
    # columns the kernel evaluates: the commutator H1 H2 = H2 H1 (two
    # compositions, 2N), then steps of width N, N-1, ..., 2 for h2, about
    # half of the N - 1 steps of width N for h1
    size = n * (n - 1)
    auto, _, _ = _kernel_counts(monkeypatch, lambda: build_table(n))
    kept, _, _ = _kernel_counts(monkeypatch, lambda: build_table(n, "h2"))
    full, _, _ = _kernel_counts(monkeypatch, lambda: build_table(n, "h1"))
    assert kept == 2 * size + size * (size + 1) // 2 - 1
    assert auto == kept  # the h1 outcome is read off two Chevalley columns
    assert full == size * (size - 1)


def test_h1_product_of_o12_and_the_unit_adds_q1_times_h1_minus_h2():
    # column e_{n,1} of M^{h1}_{1,2} is O_{1,2} + Q1 (H1 - H2) e_{n,1}, never
    # O_{1,2}: the reason build_table never builds the h1 table
    for n in range(3, 11):
        table = build_table(n, "h1")
        got = table.product((1, 2), unit_index(n))
        assert got == QKClass(n, {(1, 2): 1, (n - 1, 1): Q1, (n, 2): -Q1}), n
        assert got != table.product(unit_index(n), (1, 2)), n


@pytest.mark.parametrize("n", [3, 4])
def test_generators_equal_on_the_unit_column_raise_before_any_h1_step(n, monkeypatch):
    # generators that agree on e_{n,1} would leave h1 undecided; they cannot
    # pass the certificate's unit columns (these also fail the commutator),
    # and the build raises instead of building the h1 table
    h1, h2 = chevalley_operator("h1", n), chevalley_operator("h2", n)
    t = linear_index(unit_index(n), n)
    h1.cols[t] = h2.cols[t]
    _with_generators(monkeypatch, h1, h2)
    variants = []  # the step-c variant of every recurrence the build runs
    recurrence = qkring._recurrence

    def recording(n, m, h1, h2, variant, widths=None):
        variants.append(variant)
        return recurrence(n, m, h1, h2, variant, widths)

    monkeypatch.setattr(qkring, "_recurrence", recording)
    with pytest.raises(RuntimeError, match=f"fails the ring certificate at n={n}"):
        build_table(n)
    assert "h1" not in variants


@pytest.mark.parametrize("variant", ["h2", "h1"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_recurrence_on_a_class_seed_gives_one_column(n, variant):
    # the recurrence run on e_v by application yields M_w e_v for every w
    table = build_table(n, variant)
    h1, h2 = table.matrix(h1_index(n)), table.matrix(h2_index(n))
    for v in enumerate_basis(n):
        m = {unit_index(n): [QKClass.basis_element(v, n)]}
        for w, x in qkring._recurrence(n, m, h1, h2, variant):
            m[w] = x
        assert {w: x for w, (x,) in m.items()} == {w: table.product(w, v) for w in enumerate_basis(n)}, v


def _apply(op, col):
    """op applied to one flat column, in plain dict arithmetic."""
    acc = {}
    for (w, a1, a2), c in col.items():
        for (x, e1, e2), k in op[w].items():
            acc[x, a1 + e1, a2 + e2] = acc.get((x, a1 + e1, a2 + e2), 0) + c * k
    return acc


def _compose(a, b):
    return {v: _apply(a, col) for v, col in b.items()}


def _flat(c):
    """A class's terms as a plain {(w, d1, d2): coeff} map, read through ordered_terms."""
    return dict(c.ordered_terms())


def _from_flat(n, flat):
    """The class of a {(w, d1, d2): coeff} map with no zero coefficient, keyed by term codes."""
    return QKClass._trusted(n, {_encode(linear_index(w, n), d1, d2): c for (w, d1, d2), c in flat.items()})


def _add(a, b, sign=1):
    out = {}
    for v in a:
        col = dict(a[v])
        for key, c in b[v].items():
            col[key] = col.get(key, 0) + sign * c
        out[v] = col
    return out


def _scaled_q1(a):
    return {v: {(w, d1 + 1, d2): c for (w, d1, d2), c in col.items()} for v, col in a.items()}


def _pre_change_build(n, variant, gens=None):
    """Steps (a)-(e) as whole operators: compose, +, -, .scaled(Q1), one after another.

    Operators are {v: {(w, d1, d2): c}} maps in plain dict arithmetic, with
    zeros kept until the end, so nothing here runs through the kernel.
    ``gens`` are the operators H1, H2, by default the Chevalley operators.
    """
    basis = enumerate_basis(n)
    if gens is None:
        gens = [Operator(n, [chevalley_apply(h, v, n) for v in basis]) for h in ("h1", "h2")]
    h1, h2 = ({v: _flat(col) for v, col in zip(basis, op.cols)} for op in gens)
    ident = {v: {(v, 0, 0): 1} for v in basis}
    m = {(n, 1): ident}
    for k in range(n - 1, 1, -1):
        m[k, 1] = _compose(h1, m[k + 1, 1])
    hc = h2 if variant == "h2" else h1
    m[1, 2] = _add(_compose(h1, m[2, 1]), _scaled_q1(_add(_compose(hc, ident), ident, -1)))
    for k in range(2, n + 1):
        for p in range(2, k):
            m[k, p] = _compose(h2, m[k, p - 1])
    for p in range(2, n):
        step = _add(_compose(h1, m[p + 1, p]), _compose(h2, m[p - 1, p]))
        m[p, p + 1] = _add(step, m[p - 1, p], -1)
    for p in range(3, n + 1):
        for k in range(p - 2, 0, -1):
            m[k, p] = _compose(h1, m[k + 1, p])
    return {w: {v: {key: c for key, c in col.items() if c} for v, col in op.items()} for w, op in m.items()}


def _pre_change_table(n, variant):
    want = _pre_change_build(n, variant)
    basis = enumerate_basis(n)
    ops = [Operator(n, [_from_flat(n, want[w][v]) for v in basis]) for w in basis]
    return qkring.MultiplicationTable(n, ops, variant)


def _assert_pre_change_ops(n, ops, want):
    for w, op in zip(enumerate_basis(n), ops):
        assert {v: _flat(col) for v, col in zip(enumerate_basis(n), op.cols)} == want[w], w
        assert all(0 not in col._terms.values() for col in op.cols)


def _shared_pairs(ops):
    """The pairs a < b (basis positions) whose products O_a * O_b and O_b * O_a are one object."""
    size = len(ops)
    return {(a, b) for a in range(size) for b in range(a + 1, size) if ops[a].cols[b] is ops[b].cols[a]}


@pytest.mark.parametrize("variant", ["h2", "h1"])
@pytest.mark.parametrize("n", range(3, 11))
def test_fused_steps_equal_the_pre_change_construction(n, variant):
    want = _pre_change_build(n, variant)
    basis = enumerate_basis(n)
    ops = build_table(n, variant).ops
    _assert_pre_change_ops(n, ops, want)
    if variant == "h2":
        _assert_pre_change_ops(n, build_table(n).ops, want)
    # the h2 table evaluates each unordered product once, the h1 table all of them
    size = len(basis)
    assert len(_shared_pairs(ops)) == (size * (size - 1) // 2 if variant == "h2" else 0)
    # the class seed e_v through the same steps gives column v of every M_w
    h1, h2 = chevalley_operator("h1", n), chevalley_operator("h2", n)
    for v in basis:
        m = {unit_index(n): [QKClass.basis_element(v, n)]}
        for w, x in qkring._recurrence(n, m, h1, h2, variant):
            assert _flat(x[0]) == want[w][v], (w, v)
            m[w] = x


def _with_generators(monkeypatch, h1, h2):
    """Make the build read H1 and H2 in place of the Chevalley operators."""
    monkeypatch.setattr(qkring, "chevalley_operator", lambda h, n: h1 if h == "h1" else h2)


def _refused(n, step_c):
    """Run build_table(n, step_c), which must raise the certificate error."""
    with pytest.raises(RuntimeError, match=f"the h2 recurrence fails the ring certificate at n={n}"):
        build_table(n, step_c)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_noncommuting_generators_fail_the_certificate(n, monkeypatch):
    # H1 plus (e_{n,2} -> Q1 e_{1,2}): no classical or unit column moves, but H1 H2 != H2 H1
    h1, h2 = chevalley_operator("h1", n), chevalley_operator("h2", n)
    t = linear_index((n, 2), n)
    h1.cols[t] = h1.cols[t] + QKClass(n, {(1, 2): Q1})
    assert not qkring._commute(h1, h2)
    _with_generators(monkeypatch, h1, h2)
    size = n * (n - 1)
    for step_c in ("h2", "auto"):
        columns, _, _ = _kernel_counts(monkeypatch, lambda: _refused(n, step_c))
        assert columns == 2 * size  # the commutator only: no step runs
    # the h1 table reads no certificate
    _assert_pre_change_ops(n, build_table(n, "h1").ops, _pre_change_build(n, "h1", (h1, h2)))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_failing_unit_column_raises_after_the_first_step(n, monkeypatch):
    # H1 = H2 commute, but then M_{n-1,1} e_{n,1} = e_{n,2}: the first step
    # breaks the certificate, and the build raises
    h2 = chevalley_operator("h2", n)
    _with_generators(monkeypatch, h2, h2)
    size = n * (n - 1)
    columns, _, _ = _kernel_counts(monkeypatch, lambda: _refused(n, "h2"))
    assert columns == 2 * size + size  # the commutator, then the first step


@pytest.mark.parametrize("n", [3, 4])
def test_wrong_classical_limit_fails_the_auto_build(n, monkeypatch):
    # the real Chevalley operators pass the certificate; then the formula the
    # scan compares with has every coefficient negated (one flipped pair may
    # never be read, since the scan reads the formula once per class)
    h1, h2 = chevalley_operator("h1", n), chevalley_operator("h2", n)
    _with_generators(monkeypatch, h1, h2)
    k_terms = qkring._k_terms
    monkeypatch.setattr(qkring, "_k_terms", lambda u, v, n: {w: -c for w, c in k_terms(u, v, n).items()})
    with pytest.raises(RuntimeError, match=f"the h2 table fails the classical-limit oracle at n={n}"):
        build_table(n)
    assert build_table(n, "h2").step_c_variant == "h2"


@pytest.mark.parametrize("n", range(3, 17))
def test_h1_table_is_never_mirrored(n):
    # nor commutative, but its classical limit is right: the arbitration's h1 outcome
    table = build_table(n, "h1")
    assert table.product((1, 2), (n, 1)) != table.product((n, 1), (1, 2))
    assert not _shared_pairs(table.ops)
    assert qkring._classical_mismatches(n, table.ops) == []


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_mirrored_classical_scan_reads_one_triangle(n):
    ops = build_table(n, "h2").ops
    size = len(ops)
    assert len(_shared_pairs(ops)) == size * (size - 1) // 2
    assert qkring._classical_mismatches(n, ops, True) == qkring._classical_mismatches(n, ops) == []
    # a diagonal product is in the triangle: the mirrored scan sees its change
    changed = _changed_constant(n)
    rows = list(qkring._classical_mismatches(n, changed))
    assert rows and list(qkring._classical_mismatches(n, changed, True)) == rows


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_apply_and_compose_match_plain_dict_arithmetic(n, tables):
    # compose prepares every column of h1 once and runs one kernel pass per column of op
    basis = enumerate_basis(n)
    h1 = chevalley_operator("h1", n)
    ref = {v: _flat(col) for v, col in zip(basis, h1.cols)}
    for op in tables[n].ops:
        want = _compose(ref, {v: _flat(col) for v, col in zip(basis, op.cols)})
        assert [_flat(col) for col in h1.compose(op).cols] == [
            {key: c for key, c in want[v].items() if c} for v in basis
        ]


@pytest.mark.parametrize("bad", [(1.0, 2), (True, 2), (2, 1.0), (2, True)])
def test_public_entry_points_refuse_non_int_components(bad, tables):
    n = 3
    calls = [
        lambda: QKClass.basis_element(bad, n),
        lambda: k_product(bad, (1, 2), n),
        lambda: k_product((1, 2), bad, n),
        lambda: qk_product(bad, (1, 2), n, tables[n]),
        lambda: conjectured_product(bad, (1, 2), n),
        lambda: two_point(bad, (1, 2), DEGREE_L1, n),
        lambda: two_point((1, 2), bad, DEGREE_L1, n),
    ]
    for call in calls:
        with pytest.raises(InvalidIndex):
            call()


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


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_nonzero_monomial_count(n):
    # one monomial per (u, v, w, Q-degree): n^2 (n-1)(2n-3)
    table = build_table(n)
    count = sum(len(list(p.terms())) for op in table.ops for col in op.cols for _, p in col.items())
    assert count == n * n * (n - 1) * (2 * n - 3)


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



@pytest.mark.parametrize(
    "key, index",
    [("u", [1.5, 2]), ("w", [2.0, 3]), ("v", [True, 2])],
    ids=["float-u", "float-w", "bool-v"],
)
def test_table_from_json_rejects_non_int_index(key, index):
    # a float u used to end in a KeyError, a float w to load as O_2.0,3
    obj = json.loads((DATA / "golden_table_n3.json").read_text())
    obj["entries"][0][key] = index
    with pytest.raises(MalformedTable, match="integers"):
        table_from_json(obj)

@pytest.mark.parametrize("index", [[1.0, 2], [True, 2]], ids=["float", "bool"])
@pytest.mark.parametrize("key", ["u", "v", "w"])
def test_table_from_json_refuses_a_non_int_index_after_an_equal_valid_one(key, index):
    # (1.0, 2) and (True, 2) hash and compare equal to (1, 2): once [1, 2]
    # has been checked, a later equal-looking index must still be refused
    obj = json.loads((DATA / "golden_table_n3.json").read_text())
    k = max(k for k, e in enumerate(obj["entries"]) if e[key] == [1, 2])
    assert any(e[key] == [1, 2] for e in obj["entries"][:k])
    obj["entries"][k][key] = index
    msg = (
        f"cached table entry {k} is malformed: InvalidIndex("
        f"'Schubert index components must be integers, got ({index[0]!r},2)')"
    )
    with pytest.raises(MalformedTable) as exc:
        table_from_json(obj)
    assert str(exc.value) == msg


def _with_first_term(obj, **fields):
    obj["entries"][0]["poly"][0].update(fields)
    return obj


@pytest.mark.parametrize(
    "mutate",
    [
        lambda obj: _with_first_term(obj, coeff=1.5),
        lambda obj: _with_first_term(obj, coeff=True),
        lambda obj: _with_first_term(obj, coeff="1"),
        lambda obj: _with_first_term(obj, d1=1.0),
        lambda obj: _with_first_term(obj, d2=False),
        lambda obj: _with_first_term(obj, d1=-1),
        lambda obj: obj["entries"][0]["poly"].append({"d1": 1, "d2": 0, "coeff": 5}) or obj,
    ],
    ids=["float-coeff", "bool-coeff", "str-coeff", "float-d1", "bool-d2", "negative-d1",
         "repeated-degree"],
)
def test_table_from_json_rejects_bad_poly_term(mutate, tables):
    obj = table_to_json(tables[3])
    assert obj["entries"][0]["poly"] == [{"d1": 1, "d2": 0, "coeff": 1}]
    with pytest.raises(MalformedTable):
        table_from_json(mutate(obj))


def test_table_from_json_refuses_a_product_whose_entries_are_all_zero():
    # the unit column O_{3,1} * O_{1,2} has one entry, O_{1,2}; a zero
    # coefficient there is dropped and leaves the product with no entry
    obj = json.loads((DATA / "golden_table_n3.json").read_text())
    entry = next(e for e in obj["entries"] if e["u"] == [3, 1] and e["v"] == [1, 2])
    assert entry["poly"] == [{"d1": 0, "d2": 0, "coeff": 1}]
    entry["poly"][0]["coeff"] = 0
    with pytest.raises(MalformedTable, match=r"^cached table has no entry for O_3,1 \* O_1,2$"):
        table_from_json(obj)


def test_table_from_json_drops_zero_coefficients():
    obj = json.loads((DATA / "golden_table_n3.json").read_text())
    obj["entries"][0]["poly"].append({"d1": 3, "d2": 3, "coeff": 0})
    table = table_from_json(obj)
    assert table.ops == table_from_json(json.loads((DATA / "golden_table_n3.json").read_text())).ops
    assert all(c for op in table.ops for col in op.cols for c in col._terms.values())


def test_table_from_json_refuses_a_negative_degree():
    obj = json.loads((DATA / "golden_table_n3.json").read_text())
    obj["entries"][2]["poly"][0]["d2"] = -1
    d1 = obj["entries"][2]["poly"][0]["d1"]
    msg = f"cached table entry 2 is malformed: ValueError('negative curve degree ({d1},-1)')"
    with pytest.raises(MalformedTable) as exc:
        table_from_json(obj)
    assert str(exc.value) == msg
