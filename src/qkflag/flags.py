"""Balanced splitting types for flags of bundles on P^1, and stabilization bounds.

An (I, d)-admissible set of sequences records the splitting type of a flag
of vector bundles on the projective line: row k is a nondecreasing sequence
of length i_k, dominated entrywise by row k-1, with row sum d_k.  The
balanced set is the unique admissible set minimizing the total pairwise
spread; it is produced directly by a greedy row-by-row construction and
checked here against exhaustive search.
"""

from __future__ import annotations

from math import comb

from ._record import FrozenRecord
from .errors import BoundExceeded, InvalidIndex, NonUniqueMinimizer, ShapeMismatch


class FlagShape(FrozenRecord):
    """Strictly increasing ranks 0 < i_1 < ... < i_m < n."""

    __slots__ = ("ranks", "n")

    def __init__(self, ranks: tuple[int, ...], n: int):
        r = tuple(ranks)
        if not r:
            raise ShapeMismatch("flag shape needs at least one rank")
        if any(b <= a for a, b in zip((0,) + r, r)):
            raise ShapeMismatch(f"ranks must be strictly increasing and positive: {r}")
        if r[-1] >= n:
            raise ShapeMismatch(f"largest rank {r[-1]} must be < n={n}")
        super().__init__(r, n)

    @property
    def m(self) -> int:
        return len(self.ranks)


class AdmissibleSequenceSet(FrozenRecord):
    """Rows a_{k,.} (lengths i_k) together with the degree vector d."""

    __slots__ = ("sequences", "degrees")

    def __init__(self, sequences: tuple[tuple[int, ...], ...], degrees: tuple[int, ...]):
        super().__init__(tuple(tuple(row) for row in sequences), tuple(degrees))


def is_admissible(a: AdmissibleSequenceSet, shape: FlagShape) -> bool:
    """Conditions: rows nondecreasing and nonnegative, dominated by the
    previous row on shared positions, with prescribed row sums."""
    rows = a.sequences
    if len(rows) != shape.m or len(a.degrees) != shape.m:
        raise ShapeMismatch(
            f"{len(rows)} rows / {len(a.degrees)} degrees for an {shape.m}-step shape"
        )
    for k, row in enumerate(rows):
        if len(row) != shape.ranks[k]:
            raise ShapeMismatch(
                f"row {k + 1} has length {len(row)}, expected {shape.ranks[k]}"
            )
    for k, row in enumerate(rows):
        if any(x < 0 for x in row):
            return False
        if any(x > y for x, y in zip(row, row[1:])):
            return False
        if sum(row) != a.degrees[k]:
            return False
        if k > 0:
            prev = rows[k - 1]
            if any(row[j] > prev[j] for j in range(len(prev))):
                return False
    return True


def spread(a: AdmissibleSequenceSet) -> int:
    """Sum over rows of all pairwise gaps a_{k,p} - a_{k,l}, l < p.

    In a row of length m, entry p is the larger entry of p gaps and the
    smaller of m - 1 - p, so one weighted pass counts it 2p - m + 1 times.
    """
    return sum((2 * p + 1 - len(row)) * x for row in a.sequences for p, x in enumerate(row))


def _fill(total: int, slots: int) -> tuple[int, ...]:
    """Nondecreasing slots summing to total, values in {q-1, q}, small first.

    Every call has slots > 0: ranks are positive, and a carry stops at
    r <= i_{k-1} < i_k.
    """
    q = -(-total // slots)
    low = slots * q - total  # number of entries equal to q-1
    return (q - 1,) * low + (q,) * (slots - low)


def _degrees(shape: FlagShape, degrees) -> tuple[int, ...]:
    """``degrees`` as a tuple, one per step of ``shape``; ShapeMismatch otherwise."""
    degrees = tuple(degrees)
    if len(degrees) != shape.m:
        raise ShapeMismatch(f"{len(degrees)} degrees for an {shape.m}-step shape")
    return degrees


def balanced_construct(shape: FlagShape, degrees) -> AdmissibleSequenceSet:
    """The balanced (spread-minimizing) admissible set, built row by row.

    Row 1 spreads d_1 as evenly as possible.  For k > 1, one greedy pass
    carries row k-1 over entry by entry while the next entry fits under the
    residual average, (d_k - carried) / (i_k - r) after r carried entries;
    the remaining slots are then filled evenly with the leftover degree.
    A carried entry is at most the residual average, so the average never
    drops, and row k-1 is nondecreasing: the carry stops at the first entry
    above the average, and no later entry would fit either.
    """
    degrees = _degrees(shape, degrees)
    if any(d < 0 for d in degrees):
        raise ValueError(f"degrees must be nonnegative: {degrees}")

    rows: list[tuple[int, ...]] = [_fill(degrees[0], shape.ranks[0])]
    for ik, dk in zip(shape.ranks[1:], degrees[1:]):
        prev = rows[-1]
        r = carried = 0
        while r < len(prev) and prev[r] * (ik - r) <= dk - carried:
            carried += prev[r]
            r += 1
        rows.append(prev[:r] + _fill(dk - carried, ik - r))

    out = AdmissibleSequenceSet(tuple(rows), degrees)
    if not is_admissible(out, shape):  # pragma: no cover - construction invariant
        raise AssertionError(f"construction produced a non-admissible set: {out}")
    return out


def enumerate_admissible(shape: FlagShape, degrees) -> list[AdmissibleSequenceSet]:
    """Every (I, d)-admissible set of sequences, in lexicographic order.

    One depth-first search fills row k entry by entry.  Each entry is at
    least the one before it and at most the entry above it, and the
    nondecreasing rest of the row needs at least that value per slot.  A
    full row whose sum is met starts row k+1.  The search keeps its own
    stack, so a shape with many entries needs no deep Python recursion.
    """
    degrees = _degrees(shape, degrees)
    ranks = shape.ranks
    out: list[AdmissibleSequenceSet] = []
    stack: list[tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int]] = [((), (), degrees[0])]
    while stack:
        done, row, remaining = stack.pop()
        k, pos = len(done), len(row)
        if pos == ranks[k]:
            if remaining == 0:
                done += (row,)
                if k + 1 == shape.m:
                    out.append(AdmissibleSequenceSet(done, degrees))
                else:
                    stack.append((done, (), degrees[k + 1]))
            continue
        top = min(remaining // (ranks[k] - pos), done[-1][pos] if k and pos < ranks[k - 1] else remaining)
        # pushed largest first, so the smallest entry is popped first: lexicographic order
        for val in range(top, (row[-1] if row else 0) - 1, -1):
            stack.append((done, row + (val,), remaining - val))
    return out


def brute_force_balanced(shape: FlagShape, degrees, bound: int = 12) -> AdmissibleSequenceSet:
    """Exhaustive spread-minimizer; raises if the minimizer is not unique."""
    degrees = _degrees(shape, degrees)
    if any(d < 0 for d in degrees):
        raise ValueError(f"degrees must be nonnegative: {degrees}")
    if sum(degrees) > bound:
        raise BoundExceeded(f"sum of degrees {sum(degrees)} exceeds enumeration bound {bound}")
    # never empty: each row can put its excess on the entry past the row above
    candidates = enumerate_admissible(shape, degrees)
    spreads = [spread(a) for a in candidates]
    best = min(spreads)
    minimizers = [a for a, s in zip(candidates, spreads) if s == best]
    if len(minimizers) > 1:
        raise NonUniqueMinimizer(
            f"{len(minimizers)} admissible sets share minimal spread {best}: {minimizers[:2]}..."
        )
    return minimizers[0]


def splitting_predicate(shape: FlagShape, degrees, k: int) -> bool:
    """True when d_k >= i_k * ceil((d_p - d_{p-1}) / (i_p - i_{p-1})) for all p < k.

    Under this condition the balanced set carries row k-1 over verbatim:
    a_{k,j} = a_{k-1,j} for j <= i_{k-1}.
    """
    degrees = _degrees(shape, degrees)
    if not 1 < k <= shape.m:
        raise InvalidIndex(f"k must satisfy 1 < k <= {shape.m}, got {k}")
    return _carries_over((0,) + shape.ranks, (0,) + degrees, k)


def _carries_over(ranks: tuple[int, ...], degs: tuple[int, ...], k: int) -> bool:
    """d_k >= n_k ceil((d_p - d_{p-1}) / (n_p - n_{p-1})) for all p < k (n_0 = d_0 = 0)."""
    return all(
        degs[k] >= ranks[k] * -((degs[p - 1] - degs[p]) // (ranks[p] - ranks[p - 1]))
        for p in range(1, k)
    )


class StabilizationInput(FrozenRecord):
    """Numeric data for the correlator-stabilization bounds.

    Ranks n_1 < ... < n_m < n of the flag, degree vector d, the forgotten
    step k, and the number of marked points r.  Boundary conventions:
    d_0 = d_{m+1} = 0, n_0 = 0, n_{m+1} = n.
    """

    __slots__ = ("ranks", "n", "degrees", "k", "r")

    def __init__(self, ranks: tuple[int, ...], n: int, degrees: tuple[int, ...], k: int, r: int):
        shape = FlagShape(ranks, n)  # validates monotonicity
        degrees = _degrees(shape, degrees)
        if not 1 <= k <= shape.m:
            raise ShapeMismatch(f"k must lie in [1, {shape.m}], got {k}")
        if r < 0:
            raise ShapeMismatch(f"r must be nonnegative, got {r}")
        super().__init__(shape.ranks, n, degrees, k, r)


def theorem_conditions(s: StabilizationInput) -> bool:
    """Sufficient numeric bounds for degree-d correlators to stabilize.

    Conjunction of, with k = s.k and the boundary conventions above:
      1. d_k >= n_k ceil((d_p - d_{p-1}) / (n_p - n_{p-1})) for all p < k;
      2. d_{k-1} <= floor(d_{k+1} / n_{k+1});
      3. d_k >= r (n_k - n_{k-1}) + d_{k-1}
              + (n_k - n_{k-1}) (floor((d_{k+1} - d_{k-1}) / (n_{k+1} - n_{k-1})) + 1).
    """
    ranks = (0,) + s.ranks + (s.n,)
    degs = (0,) + s.degrees + (0,)
    k = s.k
    nk = ranks[k]
    cond1 = _carries_over(ranks, degs, k)
    cond2 = degs[k - 1] <= degs[k + 1] // ranks[k + 1]
    step = nk - ranks[k - 1]
    cond3 = degs[k] >= (
        s.r * step
        + degs[k - 1]
        + step * ((degs[k + 1] - degs[k - 1]) // (ranks[k + 1] - ranks[k - 1]) + 1)
    )
    return cond1 and cond2 and cond3


def vandermonde_sum(n: int, m: int, big_n: int) -> int:
    """Sum of C(n,k) C(m,p) over k+p = big_n, by direct enumeration.

    Equals C(n+m, big_n); the closed form is asserted in tests, not here.
    """
    if n < 0 or m < 0 or big_n < 0:
        raise ValueError("arguments must be nonnegative")
    return sum(
        comb(n, k) * comb(m, big_n - k)
        for k in range(max(0, big_n - m), min(n, big_n) + 1)
    )


def alternating_decomposition_sum(d: int, delta: int, d0: int, delta0: int, cap: int = 64) -> int:
    """Sum of (-1)^r over ordered decompositions (d, delta) = (d0, delta0)
    + sum of r nonzero pairs.

    Vanishes whenever delta0 < delta - 1 or d0 < d - 1.
    """
    for v in (d, delta, d0, delta0):
        if v < 0:
            raise ValueError("arguments must be nonnegative")
    if d0 > d or delta0 > delta:
        return 0
    if d + delta > cap:
        raise BoundExceeded(f"d + delta = {d + delta} exceeds enumeration cap {cap}")
    memo: dict[tuple[int, int], int] = {}

    def g(x: int, y: int) -> int:
        # signed count of ordered tuples of nonzero pairs summing to (x, y)
        if (x, y) == (0, 0):
            return 1
        if (x, y) in memo:
            return memo[(x, y)]
        total = 0
        for a in range(x + 1):
            for b in range(y + 1):
                if (a, b) == (0, 0):
                    continue
                total -= g(x - a, y - b)
        memo[(x, y)] = total
        return total

    return g(d - d0, delta - delta0)
