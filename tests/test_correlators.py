import pytest

from qkflag.basis import SchubertIndex, dual_index, enumerate_basis, h1_index, h2_index, unit_index
from qkflag.correlators import (
    CorrelatorQuery,
    _three_point_target,
    _two_point_target,
    correlator_value,
    quantum_part_from_correlators,
    symmetry_transform,
    three_point_incidence,
    three_point_projective,
    two_point,
    two_point_chain,
)
from qkflag.errors import UnsupportedDegree
from qkflag.kring import k_product
from qkflag.poly import DEGREE_L1, DEGREE_L1L2, DEGREE_L2, QKClass
from qkflag.qkring import quantum_correction

THREE_POINT_DEGREES = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2), (2, 3)]


def test_two_point_examples():
    assert two_point((2, 3), (5, 3), DEGREE_L1, 5) == 1
    assert two_point((2, 5), (4, 5), DEGREE_L1, 5) == 1
    assert two_point((2, 3), (4, 1), DEGREE_L2, 5) == 0


def test_two_point_l1l2_hits_only_the_unit():
    for n in (3, 4, 5):
        for u in enumerate_basis(n):
            hits = [w for w in enumerate_basis(n) if two_point(u, w, DEGREE_L1L2, n)]
            assert hits == [unit_index(n)]


def test_two_point_unsupported_degree():
    with pytest.raises(UnsupportedDegree):
        two_point((2, 3), (5, 3), (2, 0), 5)


@pytest.mark.parametrize("n", range(3, 8))
def test_two_point_target_matches_full_scan(n):
    for deg in (DEGREE_L1, DEGREE_L2, DEGREE_L1L2):
        for u in enumerate_basis(n):
            hits = [w for w in enumerate_basis(n) if two_point(u, w, deg, n)]
            assert hits == [_two_point_target(u, deg, n)], (n, deg, u)
            assert all(two_point(u, w, deg, n) in (0, 1) for w in enumerate_basis(n))


def test_three_point_projective_examples():
    assert three_point_projective(1, 1, 1, 1, 3) == 0
    assert three_point_projective(1, 1, 1, 2, 3) == 1
    assert three_point_projective(2, 2, 2, 1, 3) == 1
    with pytest.raises(UnsupportedDegree):
        three_point_projective(1, 1, 1, 0, 3)


@pytest.mark.parametrize(
    "d, msg",
    [
        (0, "degree 0 is the classical product, not handled here"),
        (-1, "degree -1 is negative; a correlator degree is at least 1"),
    ],
)
def test_three_point_projective_names_the_degree_it_refuses(d, msg):
    with pytest.raises(UnsupportedDegree) as exc:
        three_point_projective(1, 1, 1, d, 2)
    assert str(exc.value) == msg


def test_three_point_incidence_l2_vanishing():
    n = 5
    for p in range(2, n + 1):
        for w in enumerate_basis(n):
            assert three_point_incidence(h1_index(n), (1, p), w, DEGREE_L2, n) == 0


def test_three_point_incidence_l2_boundary_case():
    n = 5
    for p in range(2, n + 1):
        hits = [
            w
            for w in enumerate_basis(n)
            if three_point_incidence(h2_index(n), (1, p), w, DEGREE_L2, n)
        ]
        assert hits == [(1, 2)]


def test_three_point_incidence_l1l2():
    n = 4
    for u1 in enumerate_basis(n):
        for u2 in enumerate_basis(n):
            hits = [
                w
                for w in enumerate_basis(n)
                if three_point_incidence(u1, u2, w, DEGREE_L1L2, n)
            ]
            assert hits == [unit_index(n)]


def test_three_point_incidence_unsupported():
    with pytest.raises(UnsupportedDegree):
        three_point_incidence((1, 4), (2, 4), (4, 1), DEGREE_L2, 4)
    with pytest.raises(UnsupportedDegree):
        three_point_incidence((2, 1), (3, 1), (4, 1), (0, 2), 4)


def test_three_point_row_unsupported():
    # the trusted target of a three-point row raises where the public call does
    with pytest.raises(UnsupportedDegree):
        _three_point_target((1, 4), (2, 4), DEGREE_L2, 4)
    with pytest.raises(UnsupportedDegree):
        _three_point_target((2, 1), (3, 1), (0, 2), 4)


@pytest.mark.parametrize("n", range(3, 10))
def test_three_point_row_matches_public_correlator(n):
    """The row {w: <O_h, O_v, I_w>} is the one target alone, and empty where it is None."""
    for h in (h1_index(n), h2_index(n)):
        for v in enumerate_basis(n):
            for deg in (DEGREE_L1, DEGREE_L2, DEGREE_L1L2):
                want = {
                    w: c
                    for w in enumerate_basis(n)
                    if (c := three_point_incidence(h, v, w, deg, n))
                }
                target = _three_point_target(h, v, deg, n)
                assert want == ({} if target is None else {target: 1})


def _reference_direct(u1, u2, w, deg, n):
    """The per-w closed forms in canonical position; None when the family needs duality."""
    d1, d2 = deg
    i1, j1 = u1
    i2, j2 = u2
    if deg == (0, 0):
        return k_product(u1, u2, n).coefficient(w).constant_term()
    if deg == (1, 1):
        return 1 if w == unit_index(n) else 0
    if d1 >= 2 and d2 >= 2:
        return 1 if w == unit_index(n) else 0
    if d1 == 1 and d2 >= 2:
        return 1 if w == SchubertIndex(min(n, i1 + i2), 1) else 0
    if deg == (0, 1) and j1 + j2 <= n + 2:
        if i1 + i2 < n + 1:
            return 0
        if i1 + i2 == n + 1:
            return 1 if w == SchubertIndex(1, 2) else 0
        return 1 if w == SchubertIndex(i1 + i2 - n, 1) else 0
    return None


def _reference_three_point(u1, u2, w, deg, n):
    """Every w evaluated on its own, with the duality applied to each (u1, u2, w)."""
    value = _reference_direct(u1, u2, w, deg, n)
    if value is None:
        dual = [(n - b + 1, n - a + 1) for a, b in (u1, u2, w)]
        value = _reference_direct(*dual, (deg[1], deg[0]), n)
    if value is None:
        raise UnsupportedDegree(f"no three-point closed form at degree {deg} (n={n})")
    return value


@pytest.mark.parametrize("n", range(3, 7))
def test_three_point_incidence_matches_per_w_reference(n):
    basis = enumerate_basis(n)
    unsupported = 0
    # degree 3 reaches (1, >=3), (>=3, 1), (3, 3) and the dual refusal
    for deg in [(d1, d2) for d1 in range(4) for d2 in range(4)]:
        for u1 in basis:
            for u2 in basis:
                for w in basis:
                    try:
                        want = _reference_three_point(u1, u2, w, deg, n)
                    except UnsupportedDegree as exc:
                        with pytest.raises(UnsupportedDegree) as got:
                            three_point_incidence(u1, u2, w, deg, n)
                        assert str(got.value) == str(exc)
                        unsupported += 1
                        continue
                    assert three_point_incidence(u1, u2, w, deg, n) == want, (u1, u2, w, deg)
    assert unsupported > 0


def test_symmetry_transform_is_involution():
    n = 5
    q = CorrelatorQuery(((2, 3), (4, 2)), (5, 1), (1, 2))
    assert symmetry_transform(symmetry_transform(q, n), n) == q


def test_symmetry_transform_example():
    n = 5
    q = CorrelatorQuery(((2, 3),), (5, 3), DEGREE_L1)
    t = symmetry_transform(q, n)
    assert t == CorrelatorQuery(((3, 4),), (3, 1), DEGREE_L2)
    assert correlator_value(q, n) == correlator_value(t, n)


def _supported(q, n):
    try:
        return correlator_value(q, n)
    except UnsupportedDegree:
        return None


@pytest.mark.parametrize("n", range(3, 7))
def test_two_point_symmetry_sweep(n):
    for deg in (DEGREE_L1, DEGREE_L2, DEGREE_L1L2):
        for u in enumerate_basis(n):
            for w in enumerate_basis(n):
                q = CorrelatorQuery((u,), w, deg)
                assert correlator_value(q, n) == correlator_value(symmetry_transform(q, n), n)


@pytest.mark.parametrize("n", range(3, 7))
def test_three_point_symmetry_sweep(n):
    basis = enumerate_basis(n)
    checked = 0
    for deg in THREE_POINT_DEGREES:
        for u1 in basis:
            for u2 in basis:
                for w in (unit_index(n), (1, 2), basis[0], basis[-1]):
                    q = CorrelatorQuery((u1, u2), w, deg)
                    v1 = _supported(q, n)
                    v2 = _supported(symmetry_transform(q, n), n)
                    assert (v1 is None) == (v2 is None)
                    if v1 is not None:
                        assert v1 == v2, (n, deg, u1, u2, w)
                        checked += 1
    assert checked > 0


@pytest.mark.parametrize("n", range(3, 7))
def test_composite_chain_identities(n):
    # products of two and three two-point correlators collapse to deltas
    for u in enumerate_basis(n):
        i, j = u
        for w in enumerate_basis(n):
            got = two_point_chain(u, [DEGREE_L1, DEGREE_L2], w, n)
            want = int(
                (j < n and w == (n, 1)) or (j == n and w == (n - 1, 1))
            )
            assert got == want, ("l1l2", u, w)
            got = two_point_chain(u, [DEGREE_L2, DEGREE_L1], w, n)
            want = int(
                (i > 1 and w == (n, 1)) or (i == 1 and w == (n, 2))
            )
            assert got == want, ("l2l1", u, w)
            got = two_point_chain(u, [DEGREE_L1, DEGREE_L2, DEGREE_L1], w, n)
            assert got == int(w == (n, 1)), ("l1l2l1", u, w)


def _combination_chain(u, degs, w, n):
    """The chain as an integer combination of classes pushed through each factor, every target summed."""
    vec = {SchubertIndex(*u): 1}
    for deg in degs:
        nxt = {}
        for x, c in vec.items():
            y = _two_point_target(x, deg, n)
            nxt[y] = nxt.get(y, 0) + c
        vec = nxt
    return vec.get(SchubertIndex(*w), 0)


@pytest.mark.parametrize("n", range(3, 7))
def test_two_point_chain_matches_the_combination_walk(n):
    # every chain of length 0..3 over {l1, l2, l1+l2}, at every (u, w)
    degs = [DEGREE_L1, DEGREE_L2, DEGREE_L1L2]
    chains = [()] + [(a,) for a in degs] + [(a, b) for a in degs for b in degs]
    chains += [(a, b, c) for a in degs for b in degs for c in degs]
    basis = enumerate_basis(n)
    for chain in chains:
        for u in basis:
            for w in basis:
                assert two_point_chain(u, chain, w, n) == _combination_chain(u, chain, w, n), (chain, u, w)


def test_quantum_part_h1_l2_always_zero():
    for n in (4, 5):
        for v in enumerate_basis(n):
            assert quantum_part_from_correlators("h1", v, DEGREE_L2, n).is_zero


def test_quantum_part_h2_l2_column():
    n = 5
    for k in range(2, n):
        got = quantum_part_from_correlators("h2", (k, n), DEGREE_L2, n)
        assert got == QKClass(n, {(k, 1): 1})


def test_quantum_part_h1_l1l2_point():
    for n in (4, 5):
        got = quantum_part_from_correlators("h1", (1, n), DEGREE_L1L2, n)
        assert got == QKClass(n, {(n, 1): 1, (n - 1, 1): -1})


@pytest.mark.parametrize("n", [*range(3, 10), 12, 16])
@pytest.mark.parametrize("h", ["h1", "h2"])
def test_reconstruction_matches_chevalley_corrections(n, h):
    for v in enumerate_basis(n):
        want = quantum_correction(h, v, n)
        for deg in (DEGREE_L1, DEGREE_L2, DEGREE_L1L2):
            got = quantum_part_from_correlators(h, v, deg, n)
            assert got == want.degree_part(deg), (n, h, v, deg)


def test_dual_index_consistency_of_closed_forms():
    # the l1 closed form is the dual image of the l2 closed form
    n = 5
    for u in enumerate_basis(n):
        for w in enumerate_basis(n):
            assert two_point(u, w, DEGREE_L1, n) == two_point(
                dual_index(u, n), dual_index(w, n), DEGREE_L2, n
            )


def _value_or_refusal(f, *args):
    try:
        return f(*args)
    except UnsupportedDegree as exc:
        return f"refused: {exc}"


@pytest.mark.parametrize("n", range(3, 6))
def test_a_degree_reads_the_same_as_a_list_and_as_a_tuple(n):
    basis = enumerate_basis(n)
    ws = (unit_index(n), SchubertIndex(1, 2), basis[0], basis[-1])
    for deg in [(d1, d2) for d1 in range(4) for d2 in range(4)]:
        listed = list(deg)
        for u in basis:
            for w in basis:
                want = _value_or_refusal(two_point, u, w, deg, n)
                assert _value_or_refusal(two_point, u, w, listed, n) == want, (deg, u, w)
                want = _value_or_refusal(two_point_chain, u, [deg, DEGREE_L1], w, n)
                assert _value_or_refusal(two_point_chain, u, [listed, [1, 0]], w, n) == want, (deg, u, w)
            for u2 in basis:
                for w in ws:
                    want = _value_or_refusal(three_point_incidence, u, u2, w, deg, n)
                    got = _value_or_refusal(three_point_incidence, u, u2, w, listed, n)
                    assert got == want, (deg, u, u2, w)
        for h in ("h1", "h2"):
            for v in basis:
                want = _value_or_refusal(quantum_part_from_correlators, h, v, deg, n)
                assert _value_or_refusal(quantum_part_from_correlators, h, v, listed, n) == want, (h, v, deg)


@pytest.mark.parametrize("deg", [(True, 0), (0, True), (1.0, 0), [0, 1.0], (1,), [1], (1, 0, 0), 1, "10", None])
def test_a_degree_that_is_not_two_ints_is_refused(deg):
    calls = [
        lambda: two_point((2, 3), (5, 3), deg, 5),
        lambda: two_point_chain((2, 3), [DEGREE_L1, deg], (5, 3), 5),
        lambda: three_point_incidence((3, 1), (2, 1), (1, 2), deg, 3),
        lambda: quantum_part_from_correlators("h1", (2, 1), deg, 3),
    ]
    for call in calls:
        with pytest.raises(UnsupportedDegree) as got:
            call()
        assert str(got.value) == f"a curve degree is two ints (d1, d2), got {deg!r}"
