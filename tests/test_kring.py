from itertools import combinations_with_replacement

import pytest

from qkflag.basis import SchubertIndex, codim, enumerate_basis, unit_index
from qkflag.errors import InvalidIndex
from qkflag.kring import _in_range, _k_terms, chow_product, k_class_product, k_product, k_unit
from qkflag.poly import QKClass


def test_unit_acts_trivially():
    for n in (3, 4, 5):
        for v in enumerate_basis(n):
            assert k_product(unit_index(n), v, n) == QKClass.basis_element(v, n)


def test_single_term_case():
    assert k_product((4, 1), (3, 5), 5) == QKClass.basis_element((2, 5), 5)


def test_three_term_case_h2():
    # h2 = (n,2) against (2,1) lands in the three-term branch
    for n in (4, 5, 6):
        got = k_product((n, 2), (2, 1), n)
        want = QKClass(n, {(1, 2): 1, (2, 3): 1, (1, 3): -1})
        assert got == want


def test_out_of_range_terms_dropped():
    # (2,1).(2,1) at n=5: all three mechanical terms have first entry < 1
    assert k_product((2, 1), (2, 1), 5).is_zero


def test_invalid_index_rejected():
    with pytest.raises(InvalidIndex):
        k_product((1, 1), (2, 3), 4)


def _docstring_k_mechanical(u, v, n):
    """The module docstring's two-case rule, transcribed literally: its (a, b, coeff) triples."""
    k, p = u
    i, j = v
    if i + k - n >= j + p or i < j or k < p:
        return [(i + k - n, j + p - 1, 1)]
    return [(i + k - n - 1, j + p - 1, 1), (i + k - n, j + p, 1), (i + k - n - 1, j + p, -1)]


def _docstring_k_terms(u, v, n):
    """The docstring's rule with its range convention: pairs with a < 1 or b > n are dropped."""
    out = {}
    for a, b, c in _docstring_k_mechanical(u, v, n):
        if not (a < 1 or b > n):
            out[SchubertIndex(a, b)] = out.get(SchubertIndex(a, b), 0) + c
    return {w: c for w, c in out.items() if c}


def _chow_mechanical(u, v, n):
    """``chow_product``'s cases, transcribed: its (a, b) pairs, none where it vanishes."""
    k, l = u
    i, j = v
    if i + k <= n or j + l >= n + 2:
        return []
    if 1 <= i + k - n <= j + l - 1 <= n and i > j and k > l:
        return [(i + k - n - 1, j + l - 1), (i + k - n, j + l)]
    return [(i + k - n, j + l - 1)]


@pytest.mark.parametrize("n", range(3, 11))
def test_k_terms_match_the_docstring_rule(n):
    basis = enumerate_basis(n)
    for u in basis:
        for v in basis:
            assert _k_terms(u, v, n) == _docstring_k_terms(u, v, n), (u, v)


@pytest.mark.parametrize("n", [3, 4, 7])
def test_range_rule_drops_the_zero_class(n):
    assert _in_range(1, n, n) and _in_range(n, 1, n) and _in_range(1, 2, n)
    for a, b in ((0, 2), (2, 0), (n + 1, 1), (1, n + 1)):
        assert not _in_range(a, b, n), (a, b)


@pytest.mark.parametrize("n", range(3, 13))
def test_no_mechanical_pair_has_equal_entries(n):
    # the range rule needs no a = b clause: neither K case nor either Chow case produces one
    basis = enumerate_basis(n)
    for u in basis:
        for v in basis:
            chow = _chow_mechanical(u, v, n)
            assert chow_product(u, v, n) == QKClass(n, {(a, b): 1 for a, b in chow if a >= 1 and b <= n})
            for a, b in [(a, b) for a, b, _ in _docstring_k_mechanical(u, v, n)] + chow:
                assert a != b, (u, v, a, b)


@pytest.mark.parametrize("n", range(3, 9))
def test_k_terms_depend_only_on_class(n):
    # classical_consistency_check evaluates _k_terms once per class
    # (i+k, j+p, i<j or k<p); that is exact only while this holds
    seen = {}
    for u in enumerate_basis(n):
        for v in enumerate_basis(n):
            cls = (u.i + v.i, u.j + v.j, u.i < u.j or v.i < v.j)
            assert seen.setdefault(cls, _k_terms(u, v, n)) == _k_terms(u, v, n), (u, v)


@pytest.mark.parametrize("n", range(3, 7))
def test_commutativity(n):
    basis = enumerate_basis(n)
    for u, v in combinations_with_replacement(basis, 2):
        assert k_product(u, v, n) == k_product(v, u, n)


@pytest.mark.parametrize("n", range(3, 6))
def test_associativity_on_basis_triples(n):
    basis = enumerate_basis(n)
    singles = {w: QKClass.basis_element(w, n) for w in basis}
    for u in basis:
        for v in basis:
            uv = k_product(u, v, n)
            for w in basis:
                lhs = k_class_product(uv, singles[w], n)
                rhs = k_class_product(singles[u], k_product(v, w, n), n)
                assert lhs == rhs, (u, v, w)


def test_bilinearity():
    n = 4
    a = QKClass(n, {(1, 2): 2, (2, 1): -1})
    b = QKClass(n, {(3, 4): 1})
    w = QKClass.basis_element((2, 3), n)
    assert k_class_product(a + b, w, n) == k_class_product(a, w, n) + k_class_product(b, w, n)
    assert k_class_product(QKClass.zero(n), w, n).is_zero
    assert k_class_product(k_unit(n), a, n) == a


@pytest.mark.parametrize("n", range(3, 7))
def test_k_product_grading_bound(n):
    for u in enumerate_basis(n):
        for v in enumerate_basis(n):
            total = codim(u, n) + codim(v, n)
            for w, _ in k_product(u, v, n).items():
                assert codim(w, n) >= total, (u, v, w)


@pytest.mark.parametrize("n", range(3, 7))
def test_brion_positivity(n):
    for u in enumerate_basis(n):
        for v in enumerate_basis(n):
            base = codim(u, n) + codim(v, n)
            for w, p in k_product(u, v, n).items():
                c = p.constant_term()
                e = codim(w, n) - base
                assert (c if e % 2 == 0 else -c) >= 0, (u, v, w)


def test_chow_vanishing():
    assert chow_product((1, 3), (2, 4), 5).is_zero


def test_chow_two_term_case():
    got = chow_product((4, 2), (4, 3), 5)
    assert got == QKClass(5, {(2, 4): 1, (3, 5): 1})


def test_chow_single_term_case():
    assert chow_product((4, 1), (3, 5), 5) == QKClass.basis_element((2, 5), 5)


@pytest.mark.parametrize("n", range(3, 7))
def test_chow_grading_exact(n):
    for u in enumerate_basis(n):
        for v in enumerate_basis(n):
            total = codim(u, n) + codim(v, n)
            for w, _ in chow_product(u, v, n).items():
                assert codim(w, n) == total, (u, v, w)


@pytest.mark.parametrize("n", range(3, 7))
def test_chow_is_equality_stratum_of_k_product(n):
    for u in enumerate_basis(n):
        for v in enumerate_basis(n):
            total = codim(u, n) + codim(v, n)
            kp = k_product(u, v, n)
            stratum = QKClass(
                n,
                {
                    w: p.constant_term()
                    for w, p in kp.items()
                    if codim(w, n) == total
                },
            )
            assert stratum == chow_product(u, v, n), (u, v)
