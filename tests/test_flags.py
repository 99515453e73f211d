from itertools import combinations, combinations_with_replacement, product
from math import comb

import pytest

from qkflag.errors import (
    BoundExceeded,
    InvalidIndex,
    NonUniqueMinimizer,
    ShapeMismatch,
)
from qkflag.flags import (
    AdmissibleSequenceSet,
    FlagShape,
    StabilizationInput,
    alternating_decomposition_sum,
    balanced_construct,
    brute_force_balanced,
    enumerate_admissible,
    is_admissible,
    splitting_predicate,
    spread,
    theorem_conditions,
    vandermonde_sum,
)
from tests.oracles.flags_grid import grid, main


def test_flag_shape_validation():
    with pytest.raises(ShapeMismatch):
        FlagShape((2, 2), 5)
    with pytest.raises(ShapeMismatch):
        FlagShape((0, 2), 5)
    with pytest.raises(ShapeMismatch):
        FlagShape((2, 5), 5)
    with pytest.raises(ShapeMismatch):
        FlagShape((), 5)


def test_is_admissible_examples():
    shape = FlagShape((2,), 3)
    assert is_admissible(AdmissibleSequenceSet(((1, 2),), (3,)), shape)
    assert not is_admissible(AdmissibleSequenceSet(((2, 1),), (3,)), shape)
    two_step = FlagShape((1, 2), 3)
    assert is_admissible(AdmissibleSequenceSet(((1,), (0, 1)), (1, 1)), two_step)


def test_is_admissible_refuses_a_negative_entry_and_a_wrong_row_sum():
    shape = FlagShape((2,), 3)
    assert not is_admissible(AdmissibleSequenceSet(((-1, 4),), (3,)), shape)
    assert not is_admissible(AdmissibleSequenceSet(((1, 2),), (4,)), shape)


def test_is_admissible_shape_mismatch():
    shape = FlagShape((2,), 3)
    with pytest.raises(ShapeMismatch):
        is_admissible(AdmissibleSequenceSet(((1, 2, 0),), (3,)), shape)


def test_spread_examples():
    assert spread(AdmissibleSequenceSet(((2, 2), (1, 1, 1)), (4, 3))) == 0
    assert spread(AdmissibleSequenceSet(((1, 1), (0, 1, 1, 1)), (2, 3))) == 3
    assert spread(AdmissibleSequenceSet(((0, 2),), (2,))) == 2


def test_balanced_construct_examples():
    assert balanced_construct(FlagShape((2,), 3), (5,)).sequences == ((2, 3),)
    got = balanced_construct(FlagShape((2, 4), 5), (2, 3))
    assert got.sequences == ((1, 1), (0, 1, 1, 1))
    assert balanced_construct(FlagShape((1,), 2), (0,)).sequences == ((0,),)


def test_brute_force_examples():
    assert brute_force_balanced(FlagShape((2,), 3), (4,)).sequences == ((2, 2),)
    assert brute_force_balanced(FlagShape((3,), 4), (4,)).sequences == ((1, 1, 2),)


def test_brute_force_refuses_a_negative_degree_as_the_construction_does():
    for call in (balanced_construct, brute_force_balanced):
        with pytest.raises(ValueError, match=r"^degrees must be nonnegative: \(-1,\)$"):
            call(FlagShape((2,), 3), (-1,))


def test_brute_force_bound_guard():
    with pytest.raises(BoundExceeded):
        brute_force_balanced(FlagShape((2,), 3), (20,), bound=10)


def test_enumerate_admissible_counts_small_case():
    shape = FlagShape((2,), 3)
    rows = enumerate_admissible(shape, (4,))
    assert [a.sequences for a in rows] == [((0, 4),), ((1, 3),), ((2, 2),)]


def _brute_force_admissible(shape, degrees):
    """Every tuple of nondecreasing rows with the given sums that is_admissible keeps, sorted."""
    choices = [
        [row for row in combinations_with_replacement(range(d + 1), length) if sum(row) == d]
        for length, d in zip(shape.ranks, degrees)
    ]
    kept = (AdmissibleSequenceSet(rows, degrees) for rows in product(*choices))
    return sorted(a.sequences for a in kept if is_admissible(a, shape))


def test_enumerate_admissible_matches_brute_force():
    # every shape with n <= 6 is a set of ranks inside {1..5}; n bounds the ranks and nothing else
    for m in range(1, 6):
        for ranks in combinations(range(1, 6), m):
            shape = FlagShape(ranks, 6)
            for degrees in product(range(5), repeat=m):
                got = enumerate_admissible(shape, degrees)
                assert [a.sequences for a in got] == _brute_force_admissible(shape, degrees), (ranks, degrees)
                for a in got:
                    gaps = [row[p] - row[l] for row in a.sequences for l, p in combinations(range(len(row)), 2)]
                    assert spread(a) == sum(gaps), a


def test_enumerate_admissible_handles_a_shape_with_many_entries():
    # 1830 entries in all: a search with one Python frame per entry would pass the recursion limit
    shape = FlagShape(tuple(range(1, 61)), 61)
    assert [a.sequences for a in enumerate_admissible(shape, (0,) * 60)] == [tuple((0,) * i for i in range(1, 61))]


def test_construction_is_admissible_everywhere():
    for shape, d in grid(5, 8):
        assert is_admissible(balanced_construct(shape, d), shape)


def test_construction_matches_brute_force_on_grid():
    mismatches = []
    for shape, d in grid(5, 8):
        c = balanced_construct(shape, d)
        try:
            b = brute_force_balanced(shape, d)
        except NonUniqueMinimizer as exc:  # would falsify uniqueness
            pytest.fail(f"non-unique minimizer at {shape} {d}: {exc}")
        if c != b:
            mismatches.append((shape.ranks, d, c.sequences, b.sequences))
    assert mismatches == []


def test_splitting_predicate_examples():
    assert splitting_predicate(FlagShape((2, 4), 5), (2, 8), 2)
    assert not splitting_predicate(FlagShape((2, 4), 5), (2, 3), 2)
    assert splitting_predicate(FlagShape((2, 4), 5), (0, 0), 2)


def test_splitting_predicate_index_validation():
    with pytest.raises(InvalidIndex):
        splitting_predicate(FlagShape((2, 4), 5), (2, 8), 1)
    with pytest.raises(InvalidIndex):
        splitting_predicate(FlagShape((2, 4), 5), (2, 8), 3)


def test_splitting_predicate_implies_carry_over():
    for shape, d in grid(5, 8):
        rows = balanced_construct(shape, d).sequences
        for k in range(2, shape.m + 1):
            if splitting_predicate(shape, d, k):
                prev = rows[k - 2]
                assert rows[k - 1][: len(prev)] == prev, (shape.ranks, d, k)


def test_theorem_conditions_examples():
    assert theorem_conditions(StabilizationInput((1, 3), 4, (6, 6), 1, 3))
    assert not theorem_conditions(StabilizationInput((1, 3), 4, (5, 6), 1, 3))


def test_theorem_conditions_grassmannian_case():
    # single-step shape: the bound reduces to d >= r*n1 + n1
    n1, n, r = 2, 5, 3
    for d in range(0, 12):
        got = theorem_conditions(StabilizationInput((n1,), n, (d,), 1, r))
        assert got == (d >= r * n1 + n1)


def test_stabilization_input_validation():
    with pytest.raises(ShapeMismatch):
        StabilizationInput((3, 1), 4, (1, 1), 1, 0)
    with pytest.raises(ShapeMismatch):
        StabilizationInput((1, 3), 4, (1,), 1, 0)
    with pytest.raises(ShapeMismatch):
        StabilizationInput((1, 3), 4, (1, 1), 3, 0)
    with pytest.raises(ShapeMismatch):
        StabilizationInput((1, 3), 4, (1, 1), 1, -1)


def test_wrong_length_degrees_raise_one_message():
    shape = FlagShape((1, 3), 4)
    calls = (
        lambda: balanced_construct(shape, (2,)),
        lambda: enumerate_admissible(shape, (2,)),
        lambda: brute_force_balanced(shape, (2,)),
        lambda: brute_force_balanced(shape, (20,)),  # the length is checked before the bound
        lambda: splitting_predicate(shape, (2,), 2),
        lambda: StabilizationInput((1, 3), 4, (2,), 1, 0),
    )
    for call in calls:
        with pytest.raises(ShapeMismatch) as exc:
            call()
        assert str(exc.value) == "1 degrees for an 2-step shape"


def test_vandermonde_examples():
    assert vandermonde_sum(3, 4, 2) == 21
    assert vandermonde_sum(6, 9, 0) == 1
    assert vandermonde_sum(2, 2, 4) == 1


def test_vandermonde_identity_full_range():
    for n in range(11):
        for m in range(11):
            for big_n in range(21):
                assert vandermonde_sum(n, m, big_n) == comb(n + m, big_n)


def test_alternating_sum_examples():
    assert alternating_decomposition_sum(2, 2, 0, 0) == 0
    assert alternating_decomposition_sum(1, 0, 1, 0) == 1
    assert alternating_decomposition_sum(3, 0, 0, 0) == 0


def test_alternating_sum_is_zero_when_the_start_exceeds_the_target():
    assert alternating_decomposition_sum(1, 1, 2, 0) == 0


def test_alternating_sum_vanishes_under_hypothesis():
    for d in range(5):
        for delta in range(5):
            for d0 in range(d + 1):
                for delta0 in range(delta + 1):
                    if delta0 < delta - 1 or d0 < d - 1:
                        assert alternating_decomposition_sum(d, delta, d0, delta0) == 0


def test_alternating_sum_bound_guard():
    with pytest.raises(BoundExceeded):
        alternating_decomposition_sum(100, 100, 0, 0)


@pytest.mark.parametrize("argv", [["--max-rank", "0"], ["--max-sum", "-1"]], ids=["rank-0", "sum-minus-1"])
def test_grid_runner_refuses_an_empty_grid(argv, capsys):
    # both used to print "0 inputs ... 0 mismatches" and exit 0
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--max-rank must be at least 1 and --max-sum at least 0" in capsys.readouterr().err
