"""Packed term codes: the layout, its degree range, and exact ints at the class boundary."""

import json
from pathlib import Path

import pytest

from qkflag.basis import basis_size, enumerate_basis, linear_index
from qkflag.cli import main
from qkflag.errors import InvalidIndex, MalformedTable
from qkflag.poly import (
    DEGREE_LIMIT,
    NovikovPolynomial,
    QKClass,
    _decode,
    _encode,
    class_from_json,
    class_to_json,
)
from qkflag.qkring import Operator, build_table, table_from_json

DATA = Path(__file__).parent / "data"
Q1 = NovikovPolynomial.monomial((1, 0))
EDGES = (0, 1, 2, 1023, 1024, 2046, 2047)


def _written_order(n):
    """Sort key of a flat term ((w, d1, d2), c): basis position of w, then (d1, d2)."""
    return lambda term: (linear_index(term[0][0], n), term[0][1], term[0][2])


@pytest.mark.parametrize("n", range(3, 10))
def test_codes_round_trip(n):
    # every position with the edge degrees, and every value of each field at the top position
    basis = enumerate_basis(n)
    for p, w in enumerate(basis):
        for d1 in EDGES:
            for d2 in EDGES:
                assert _decode(_encode(p, d1, d2), basis) == (w, d1, d2)
    top = basis_size(n) - 1
    for d in range(DEGREE_LIMIT):
        assert _decode(_encode(top, d, DEGREE_LIMIT - 1 - d), basis) == (basis[top], d, 2047 - d)
    # n = 8 keeps every code below 2^30; at n = 9 the top positions need a second int digit
    assert (_encode(top, 2047, 2047) < 2**30) == (n <= 8)


@pytest.mark.parametrize("deg", [(2048, 0), (0, 2048), (-1, 0), (0, -1)])
def test_encode_refuses_a_degree_out_of_range(deg):
    with pytest.raises(ValueError, match="out of range"):
        _encode(0, *deg)


def test_code_order_is_the_written_order():
    n = 4
    basis = enumerate_basis(n)
    codes = [_encode(p, d1, d2) for p in range(len(basis)) for d1 in EDGES for d2 in EDGES]
    decoded = [(_decode(k, basis), 0) for k in codes]
    assert sorted(decoded, key=_written_order(n)) == [(_decode(k, basis), 0) for k in sorted(codes)]


@pytest.mark.parametrize("n", range(3, 7))
def test_ordered_terms_are_in_the_written_order(n):
    basis = enumerate_basis(n)
    for op in build_table(n).ops:
        for col in op.cols:
            flat = [(_decode(k, basis), c) for k, c in col._terms.items()]
            assert col.ordered_terms() == sorted(flat, key=_written_order(n))


@pytest.mark.parametrize("deg", [(2048, 0), (0, 2048), (5000, 1)])
def test_constructors_refuse_a_degree_of_2048_or_more(deg):
    poly = NovikovPolynomial.monomial(deg)
    with pytest.raises(ValueError, match="out of range"):
        QKClass(3, {(1, 2): poly})
    with pytest.raises(ValueError, match="out of range"):
        QKClass.basis_element((1, 2), 3, poly)
    obj = {"n": 3, "terms": [{"w": [1, 2], "poly": [{"d1": deg[0], "d2": deg[1], "coeff": 1}]}]}
    with pytest.raises(ValueError, match="out of range"):
        class_from_json(obj)


def test_the_top_degree_is_kept():
    c = QKClass(3, {(1, 2): NovikovPolynomial({(2047, 2047): 3, (0, 2047): -1})})
    assert class_from_json(class_to_json(c)) == c
    assert c.degree_support() == {(2047, 2047), (0, 2047)}
    assert c.degree_part((2048, 0)).is_zero and c.degree_part((0, 4095)).is_zero


def _cached_n3_with_degree(tmp_path, d1):
    obj = json.loads((DATA / "golden_table_n3.json").read_text())
    obj["entries"][4]["poly"][0]["d1"] = d1
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj))
    return obj, path


def test_a_cached_degree_of_2048_exits_2_with_one_line(tmp_path, capsys):
    obj, path = _cached_n3_with_degree(tmp_path, 2048)
    with pytest.raises(MalformedTable, match="^cached table entry 4 is malformed: .*out of range"):
        table_from_json(obj)
    assert main(["product", "--n", "3", "--u", "1,2", "--v", "2,1", "--table", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cached table entry 4 is malformed") and err.count("\n") == 1
    assert "Traceback" not in err


def test_a_cached_degree_of_2047_loads(tmp_path):
    obj, _ = _cached_n3_with_degree(tmp_path, 2047)
    e = obj["entries"][4]
    col = table_from_json(obj).product(tuple(e["u"]), tuple(e["v"]))
    assert col.coefficient(tuple(e["w"])).coefficient((2047, e["poly"][0]["d2"])) == e["poly"][0]["coeff"]


@pytest.mark.parametrize("deg", [(1, 0), (0, 1)])
def test_composing_up_to_degree_2048_raises_instead_of_wrapping(deg):
    n = 3
    q = NovikovPolynomial.monomial(deg)
    step = Operator(n, [QKClass.basis_element(w, n, q) for w in enumerate_basis(n)])
    power = step
    for _ in range(DEGREE_LIMIT - 2):
        power = power.compose(step)
    top = (2047 * deg[0], 2047 * deg[1])
    assert power.degree_support() == {top}
    with pytest.raises(ValueError, match="reached 2048"):
        power.compose(step)
    with pytest.raises(ValueError, match="reached 2048"):
        step.compose(power)


def test_kernel_raises_on_an_output_degree_of_2048():
    half = QKClass(3, {(1, 2): NovikovPolynomial.monomial((0, 1024))})
    assert (half + half).degree_support() == {(0, 1024)}
    op = Operator(3, [half] * 6)
    with pytest.raises(ValueError, match="reached 2048"):
        op.compose(op)


def test_novikov_polynomials_keep_unbounded_degrees():
    big = NovikovPolynomial.monomial((5000, 0))
    assert big * Q1 == NovikovPolynomial.monomial((5001, 0))
    assert (big + big).coefficient((5000, 0)) == 2
    assert (big * big).degree_support() == {(10000, 0)}


# Exact ints at the class boundary.


def test_a_bool_coefficient_is_refused():
    with pytest.raises(TypeError, match="bool"):
        QKClass(3, {(1, 2): True})
    with pytest.raises(ValueError, match="must hold integers"):
        QKClass(3, {(1, 2): NovikovPolynomial({(0, 0): True})})


@pytest.mark.parametrize("terms", [{(True, 0): 2}, {(0, False): 2}, {(0, 0): 2.5}, {(1.0, 0): 1}])
def test_novikov_polynomial_takes_only_exact_ints(terms):
    with pytest.raises(ValueError, match="must hold integers"):
        NovikovPolynomial(terms)


def test_coefficient_checks_its_index():
    with pytest.raises(InvalidIndex):
        QKClass(3, {}).coefficient((9, 9))
    with pytest.raises(InvalidIndex):
        QKClass(3, {}).coefficient((1, 1))
    assert QKClass(3, {(1, 2): 5}).coefficient((1, 2)) == 5
    assert QKClass(3, {(1, 2): 5}).coefficient((2, 1)).is_zero


def test_class_json_round_trips_exact_ints():
    c = QKClass(3, {(1, 2): 1, (3, 1): NovikovPolynomial({(1, 0): -2})})
    obj = class_to_json(c)
    assert all(type(t["coeff"]) is int for g in obj["terms"] for t in g["poly"])
    assert class_from_json(json.loads(json.dumps(obj))) == c
