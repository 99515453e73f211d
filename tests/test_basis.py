from enum import IntEnum

import pytest

from qkflag import basis, cli
from qkflag.basis import (
    SchubertIndex,
    basis_size,
    check_index,
    check_rank,
    codim,
    dim_incidence,
    dual_index,
    enumerate_basis,
    from_linear,
    h1_index,
    h2_index,
    length,
    linear_index,
    point_index,
    unit_index,
)
from qkflag.correlators import quantum_part_from_correlators, three_point_incidence, two_point
from qkflag.errors import InvalidIndex, InvalidRank
from qkflag.kring import k_product
from qkflag.poly import DEGREE_L1, DEGREE_L1L2, DEGREE_L2, class_to_json
from qkflag.qkring import chevalley_apply


def test_enumerate_basis_n3_order():
    assert enumerate_basis(3) == [
        (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2),
    ]


@pytest.mark.parametrize("n,count", [(3, 6), (5, 20)])
def test_basis_size(n, count):
    assert basis_size(n) == count
    assert len(enumerate_basis(n)) == count


def test_linear_index_examples():
    assert linear_index((1, 2), 3) == 0
    assert linear_index((3, 1), 3) == 4


@pytest.mark.parametrize("n", range(3, 7))
def test_linear_index_roundtrip(n):
    seen = set()
    for w in enumerate_basis(n):
        t = linear_index(w, n)
        assert 0 <= t < basis_size(n)
        assert from_linear(t, n) == w
        seen.add(t)
    assert seen == set(range(basis_size(n)))


def test_invalid_inputs():
    with pytest.raises(InvalidRank):
        enumerate_basis(2)
    # an int subclass is refused as check_index refuses it; k_product((1, 2), (2, 1), E.A) used to return a class
    class I(int):
        pass

    for n in (I(4), IntEnum("E", {"A": 4}).A):
        with pytest.raises(InvalidRank):
            check_rank(n)
        with pytest.raises(InvalidRank):
            k_product((1, 2), (2, 1), n)
    with pytest.raises(InvalidIndex):
        linear_index((2, 2), 4)
    with pytest.raises(InvalidIndex):
        linear_index((0, 1), 4)
    with pytest.raises(InvalidIndex):
        from_linear(12, 4)


@pytest.mark.parametrize("t", [True, False, 1.0, -1, 6])
def test_from_linear_refuses_anything_but_an_int_position(t):
    # from_linear(True, 3) used to return O_1,3, the index at position 1
    with pytest.raises(InvalidIndex) as exc:
        from_linear(t, 3)
    assert str(exc.value) == f"linear index {t!r} out of range for n=3"


@pytest.mark.parametrize("n", range(3, 7))
def test_length_extremes(n):
    assert length(point_index(n), n) == 0
    assert length(unit_index(n), n) == 2 * n - 3
    assert length(h1_index(n), n) == 2 * n - 4


def test_length_h1_n5():
    assert length((4, 1), 5) == 6


@pytest.mark.parametrize("n", range(3, 9))
def test_length_range_and_uniqueness(n):
    lengths = [length(w, n) for w in enumerate_basis(n)]
    assert all(0 <= l <= 2 * n - 3 for l in lengths)
    assert lengths.count(0) == 1
    assert lengths.count(2 * n - 3) == 1


def test_codim_examples():
    assert codim(unit_index(4), 4) == 0
    assert codim((3, 1), 4) == 1  # h1 at n=4
    assert codim((1, 4), 4) == dim_incidence(4)


@pytest.mark.parametrize("n", range(3, 7))
def test_dual_involution_preserves_length(n):
    for w in enumerate_basis(n):
        d = dual_index(w, n)
        assert dual_index(d, n) == w
        assert length(d, n) == length(w, n)


@pytest.mark.parametrize("n", range(3, 7))
def test_dual_special_classes(n):
    assert dual_index(h1_index(n), n) == h2_index(n)
    assert dual_index(point_index(n), n) == point_index(n)


def test_schubert_index_label():
    assert SchubertIndex(2, 1).label() == "O_2,1"


def test_enumerate_basis_is_a_fresh_list_in_linear_order():
    n = 5
    want = [from_linear(t, n) for t in range(basis_size(n))]
    first = enumerate_basis(n)
    assert first == want
    first.clear()
    assert enumerate_basis(n) == want != []
    assert enumerate_basis(n) is not enumerate_basis(n)


def test_intern_table_grows_only_with_the_indices_touched():
    # no per-n grid: validating and evaluating at n = 10**6 adds a few entries
    n = 10**6
    before = len(basis._index)
    check_index((n - 1, 2), n)
    assert two_point((n - 1, 2), (n, 2), DEGREE_L1, n) == 1
    assert three_point_incidence((n - 1, 1), (2, n), (n, 1), DEGREE_L1L2, n) == 1
    assert len(basis._index) - before <= 5


def test_per_class_paths_fill_only_the_positions_they_decode(capsys):
    # the per-n position table fills on demand: one product, its renderings,
    # a Chevalley column, six reconstructed quantum parts and the classical
    # CLI product in every format touch a handful of the n(n-1) positions
    n = 300
    basis._basis.cache_clear()
    x = k_product((n - 1, 2), (n - 2, 1), n)
    assert str(x) == f"O_{n - 3},2"
    assert repr(x) == f"QKClass(n={n}, {{SchubertIndex(i={n - 3}, j=2): NovikovPolynomial({{(0, 0): 1}})}})"
    assert class_to_json(x)["terms"] == [{"w": [n - 3, 2], "poly": [{"d1": 0, "d2": 0, "coeff": 1}]}]
    assert x.ordered_terms() == [(((n - 3, 2), 0, 0), 1)]
    assert str(chevalley_apply("h1", (1, n), n)) == f"Q1*O_{n - 1},{n} + Q1Q2*O_{n},1 - Q1Q2*O_{n - 1},1"
    parts = [
        str(quantum_part_from_correlators(h, (1, n), deg, n))
        for h in ("h1", "h2")
        for deg in (DEGREE_L1, DEGREE_L2, DEGREE_L1L2)
    ]
    assert parts == [
        f"O_{n - 1},{n}", "0", f"O_{n},1 - O_{n - 1},1", "0", "O_1,2", f"O_{n},1 - O_{n},2",
    ]
    argv = ["product", "--classical", "--n", str(n), "--u", f"{n - 1},2", "--v", f"{n - 2},1", "--format"]
    for fmt in ("text", "json", "csv"):
        assert cli.run([*argv, fmt]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"O_{n - 1},2 * O_{n - 2},1 = O_{n - 3},2"
    assert out[-1] == f"{n - 1},2,{n - 2},1,{n - 3},2,0,0,1"
    assert len(basis._basis(n)) <= 8


@pytest.mark.parametrize(
    "get", [lambda: check_index((3, 1), 4), lambda: from_linear(6, 4), lambda: enumerate_basis(4)[6]]
)
def test_interned_indices_are_plain_schubert_indices(get):
    w = get()
    assert get() is w
    assert w == SchubertIndex(3, 1) == (3, 1)
    assert type(w) is SchubertIndex
    assert repr(w) == "SchubertIndex(i=3, j=1)"
