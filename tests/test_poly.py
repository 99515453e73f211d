import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkflag.basis import enumerate_basis
from qkflag.errors import RankMismatch
from qkflag.poly import (
    DEGREE_L1,
    DEGREE_L1L2,
    DEGREE_L2,
    NovikovPolynomial,
    QKClass,
    _IDENTITY,
    _combine,
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


def test_novikov_polynomial_arithmetic_hash_bool_and_str():
    p = NovikovPolynomial({(1, 0): 2, (0, 0): -1})
    assert 1 - p == NovikovPolynomial({(0, 0): 2, (1, 0): -2})
    a = NovikovPolynomial({(0, 1): 1, (2, 3): -3})
    b = NovikovPolynomial({(2, 3): -3, (0, 1): 1})
    assert a == b and hash(a) == hash(b)
    assert not NovikovPolynomial()
    assert str(p) == "- 1 + 2*Q1"
    assert str(NovikovPolynomial()) == "0"
    assert str(a) == "Q2 - 3*Q1^2Q2^3"


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


_ONE_TERM = [{"d1": 0, "d2": 0, "coeff": 1}]


@pytest.mark.parametrize(
    "obj",
    [
        {"n": "4", "terms": [{"w": [1, 4], "poly": _ONE_TERM}]},
        {"n": 4.7, "terms": [{"w": [1, 4], "poly": _ONE_TERM}]},
        {"n": True, "terms": []},
        {"n": 4, "terms": [{"w": [1.9, "4"], "poly": _ONE_TERM}]},
        {"n": 4, "terms": [{"w": [True, 4], "poly": _ONE_TERM}]},
        {"n": 4, "terms": [{"w": [1, 4.0], "poly": _ONE_TERM}]},
        {"n": 4, "terms": [{"w": [1, 4], "poly": _ONE_TERM}, {"w": [1, 4], "poly": _ONE_TERM}]},
    ],
)
def test_class_from_json_refuses_what_it_would_coerce(obj):
    with pytest.raises(ValueError):
        class_from_json(obj)


def test_str_rendering_matches_sign_major_order():
    c = QKClass(3, {(2, 3): Q1, (3, 1): Q1 * Q2, (2, 1): -(Q1 * Q2)})
    assert str(c) == "Q1*O_2,3 + Q1Q2*O_3,1 - Q1Q2*O_2,1"
    assert str(QKClass.zero(3)) == "0"


@settings(max_examples=50, deadline=None)
@given(small_polys(), small_polys())
def test_class_arithmetic_leaves_operands_unchanged(a, b):
    x = QKClass(3, {(1, 2): a, (3, 1): b})
    y = QKClass(3, {(1, 2): b, (2, 3): a})
    before = (class_to_json(x), class_to_json(y))
    results = [x + y, x - y, -x]
    assert (class_to_json(x), class_to_json(y)) == before
    for r in results:
        # the accumulated results keep the canonical form of validated input
        assert r == QKClass(3, dict(r.items()))
        assert all(not p.is_zero for _, p in r.items())


KERNEL_BOX = 3  # kernel inputs have degrees in 0..2, so sums stay below 2 * 2 + 1 = 5


def kernel_polys():
    degrees = st.tuples(st.integers(0, KERNEL_BOX - 1), st.integers(0, KERNEL_BOX - 1))
    return st.dictionaries(degrees, st.integers(-3, 3), max_size=4).map(NovikovPolynomial)


@st.composite
def kernel_inputs(draw):
    """A rank n in 3..5 and (class, b1, b2, cb) terms; some terms cancel outright."""
    n = draw(st.integers(3, 5))
    classes = st.dictionaries(st.sampled_from(enumerate_basis(n)), kernel_polys(), max_size=5)
    shift = st.integers(0, KERNEL_BOX - 1)
    terms = draw(
        st.lists(
            st.tuples(classes.map(lambda t: QKClass(n, t)), shift, shift, st.integers(-3, 3)),
            max_size=6,
        )
    )
    if terms:
        # negated copies cancel their originals term by term
        terms += [(c, b1, b2, -cb) for c, b1, b2, cb in draw(st.lists(st.sampled_from(terms), max_size=2))]
    return n, terms


def _combined(n, terms):
    """The kernel on identity parts: sum cb * Q^(b1,b2) * c over (c, b1, b2, cb) terms."""
    return _combine(n, [(cb, b1, b2, _IDENTITY, (c,)) for c, b1, b2, cb in terms])[0]


def _dense_combine(n, terms):
    """Every (w, d1, d2) coefficient of sum cb * Q^(b1,b2) * c, one slot at a time, by convolution."""
    box = range(2 * KERNEL_BOX - 1)
    dense = {}
    for w in enumerate_basis(n):
        rows = [(c.coefficient(w), b1, b2, cb) for c, b1, b2, cb in terms]
        for d1 in box:
            for d2 in box:
                dense[w, d1, d2] = sum(
                    p.coefficient((d1 - b1, d2 - b2)) * cb for p, b1, b2, cb in rows
                )
    return dense


@settings(max_examples=60, deadline=None)
@given(kernel_inputs())
def test_combine_matches_dense_reference(inputs):
    n, terms = inputs
    result = _combined(n, terms)
    assert dict(result.ordered_terms()) == {key: c for key, c in _dense_combine(n, terms).items() if c}
    # canonical: no zero coefficient is stored
    assert 0 not in result._terms.values()
    assert result == QKClass(n, dict(result.items()))


def test_combine_drops_rows_that_cancel():
    a = QKClass(4, {(1, 2): ONE + Q1, (4, 1): Q2})
    o12 = QKClass(4, {(1, 2): ONE})
    result = _combined(4, [(a, 1, 0, 1), (o12, 1, 0, -1), (a, 1, 0, -1), (a, 1, 0, 1)])
    assert dict(result.ordered_terms()) == {((1, 2), 2, 0): 1, ((4, 1), 1, 1): 1}
    assert _combined(4, [(a, 1, 0, 1), (a, 1, 0, -1)])._terms == {}
    assert _combined(4, [(a, 0, 0, 0)])._terms == {}


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 5).flatmap(
    lambda n: st.tuples(
        st.just(n), st.dictionaries(st.sampled_from(enumerate_basis(n)), kernel_polys(), max_size=5)
    )
))
def test_combine_builds_what_the_constructor_builds(inputs):
    n, polys = inputs
    direct = QKClass(n, polys)
    combined = _combined(
        n,
        (
            (QKClass.basis_element(w, n), b1, b2, cb)
            for w, p in polys.items()
            for (b1, b2), cb in p.terms()
        ),
    )
    assert combined == direct
    for w in enumerate_basis(n):
        assert combined.coefficient(w) == direct.coefficient(w) == polys.get(w, NovikovPolynomial.zero())
    assert combined.items() == direct.items()
    for d1 in range(KERNEL_BOX):
        for d2 in range(KERNEL_BOX):
            assert combined.degree_part((d1, d2)) == direct.degree_part((d1, d2))
    assert str(combined) == str(direct)
    assert class_to_json(combined) == class_to_json(direct)


@pytest.mark.parametrize("other", ["O_3,1", 1.0, None, (3, 1)])
def test_equality_with_another_type_is_not_implemented(other):
    # Python then falls back to identity, so the comparison is False, not an error
    c, p = QKClass.basis_element((3, 1), 3), NovikovPolynomial.one()
    assert c.__eq__(other) is NotImplemented and p.__eq__(other) is NotImplemented
    assert c != other and p != other
