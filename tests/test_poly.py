import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkflag.errors import RankMismatch
from qkflag.poly import (
    DEGREE_L1,
    DEGREE_L1L2,
    DEGREE_L2,
    NovikovPolynomial,
    QKClass,
    class_from_json,
    class_to_json,
    monomial_str,
    poly_from_json,
    poly_to_json,
)

Q1 = NovikovPolynomial.monomial(DEGREE_L1)
Q2 = NovikovPolynomial.monomial(DEGREE_L2)
ONE = NovikovPolynomial.one()


def small_polys():
    degrees = st.tuples(st.integers(0, 3), st.integers(0, 3))
    coeffs = st.integers(-5, 5)
    return st.dictionaries(degrees, coeffs, max_size=5).map(NovikovPolynomial)


def test_monomial_product():
    assert Q1 * Q2 == NovikovPolynomial.monomial(DEGREE_L1L2)


def test_cancellation():
    assert (ONE - Q1) + Q1 == ONE


def test_difference_of_squares():
    assert (ONE + Q1) * (ONE - Q1) == ONE - NovikovPolynomial.monomial((2, 0))


def test_canonical_no_zero_terms():
    p = NovikovPolynomial({(1, 0): 2, (0, 1): 0})
    assert dict(p.terms()) == {(1, 0): 2}
    assert (p - p).is_zero


@settings(max_examples=150)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * ONE == a
    assert (a - a).is_zero


@settings(max_examples=100)
@given(small_polys(), small_polys())
def test_products_have_no_stored_zero(a, b):
    for _, c in (a * b).terms():
        assert c != 0
    for _, c in (a + b).terms():
        assert c != 0


def test_exactness_large_coefficients():
    big = NovikovPolynomial({(0, 0): 10**30})
    assert (big * big).constant_term() == 10**60


def test_monomial_str():
    assert monomial_str((0, 0)) == ""
    assert monomial_str((1, 0)) == "Q1"
    assert monomial_str((1, 1)) == "Q1Q2"
    assert monomial_str((2, 3)) == "Q1^2Q2^3"


def test_poly_json_roundtrip():
    p = NovikovPolynomial({(1, 0): 1, (1, 1): -2, (0, 0): 3})
    items = poly_to_json(p)
    assert items == [
        {"d1": 0, "d2": 0, "coeff": 3},
        {"d1": 1, "d2": 0, "coeff": 1},
        {"d1": 1, "d2": 1, "coeff": -2},
    ]
    assert poly_from_json(items) == p


def test_classical_limit_examples():
    c = QKClass(3, {(1, 2): ONE + Q1})
    assert c.classical_limit() == QKClass(3, {(1, 2): 1})
    assert QKClass(3, {(3, 1): Q1 * Q2}).classical_limit().is_zero


def test_classical_limit_linear():
    a = QKClass(3, {(1, 2): ONE + Q1, (2, 1): Q2})
    b = QKClass(3, {(1, 2): 2, (3, 1): ONE - Q1})
    assert (a + b).classical_limit() == a.classical_limit() + b.classical_limit()


def test_degree_support():
    c = QKClass(3, {(1, 2): ONE + Q1 * Q2})
    assert c.degree_support() == {(0, 0), (1, 1)}
    assert QKClass.zero(3).degree_support() == set()


def test_degree_support_of_monomial_products():
    a = NovikovPolynomial.monomial((1, 2))
    b = NovikovPolynomial.monomial((3, 1))
    assert (a * b).degree_support() == {(4, 3)}


def test_qkclass_rank_mismatch():
    with pytest.raises(RankMismatch):
        QKClass.zero(3) + QKClass.zero(4)


def test_qkclass_canonical_form():
    c = QKClass(3, {(1, 2): Q1}) - QKClass(3, {(1, 2): Q1})
    assert c.is_zero
    assert c.items() == []


def test_class_json_roundtrip():
    c = QKClass(4, {(1, 4): ONE + Q1, (4, 1): -Q2})
    assert class_from_json(class_to_json(c)) == c


def test_str_rendering_matches_sign_major_order():
    c = QKClass(3, {(2, 3): Q1, (3, 1): Q1 * Q2, (2, 1): -(Q1 * Q2)})
    assert str(c) == "Q1*O_2,3 + Q1Q2*O_3,1 - Q1Q2*O_2,1"
    assert str(QKClass.zero(3)) == "0"


@settings(max_examples=50, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_class_arithmetic_leaves_operands_unchanged(a, b, f):
    x = QKClass(3, {(1, 2): a, (3, 1): b})
    y = QKClass(3, {(1, 2): b, (2, 3): a})
    before = (class_to_json(x), class_to_json(y), poly_to_json(f))
    results = [x + y, x - y, -x, x.scaled(f), y.scaled(3)]
    assert (class_to_json(x), class_to_json(y), poly_to_json(f)) == before
    for r in results:
        # the accumulated results keep the canonical form of validated input
        assert r == QKClass(3, dict(r.items()))
        assert all(not p.is_zero for _, p in r.items())
