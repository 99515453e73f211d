"""Compare the balanced construction with exhaustive search over a grid.  Invoke explicitly:

    PYTHONPATH=src python -m tests.oracles.flags_grid [--max-rank R] [--max-sum S]

The grid is every flag shape with ranks inside {1..R} (ambient dimension
R + 1), each with every nonnegative degree vector of total at most S;
defaults R = 7, S = 10.  On each input :func:`qkflag.flags.balanced_construct`
must equal :func:`qkflag.flags.brute_force_balanced`, and the exhaustive
minimizer must be unique.  Prints one line per mismatch and a summary, and
exits 1 on any mismatch, 0 otherwise.
"""

from __future__ import annotations

import argparse
from itertools import combinations

from qkflag.errors import NonUniqueMinimizer
from qkflag.flags import FlagShape, balanced_construct, brute_force_balanced


def degree_vectors(m: int, max_sum: int):
    """Every nonnegative m-vector with total <= max_sum, in lexicographic order."""
    if m == 0:
        yield ()
        return
    for a in range(max_sum + 1):
        for rest in degree_vectors(m - 1, max_sum - a):
            yield (a,) + rest


def grid(max_rank: int, max_sum: int):
    """(shape, degrees) for every shape inside {1..max_rank} and every degree vector of total <= max_sum."""
    for m in range(1, max_rank + 1):
        for ranks in combinations(range(1, max_rank + 1), m):
            shape = FlagShape(ranks, max_rank + 1)
            for d in degree_vectors(m, max_sum):
                yield shape, d


def mismatch(shape: FlagShape, d: tuple[int, ...], bound: int):
    """(ranks, degrees, constructed, exhaustive) if the two differ, else None.

    A construction that fails its admissibility check, or an exhaustive
    minimizer that is not unique, differs too.
    """
    try:
        got = balanced_construct(shape, d).sequences
    except AssertionError as exc:
        got = f"not admissible: {exc}"
    try:
        want = brute_force_balanced(shape, d, bound=bound).sequences
    except NonUniqueMinimizer as exc:
        want = f"non-unique: {exc}"
    return None if got == want else (shape.ranks, d, got, want)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare balanced_construct with brute_force_balanced on a grid.")
    parser.add_argument("--max-rank", type=int, default=7)
    parser.add_argument("--max-sum", type=int, default=10)
    args = parser.parse_args(argv)
    if args.max_rank < 1 or args.max_sum < 0:
        parser.error(f"--max-rank must be at least 1 and --max-sum at least 0, got {args.max_rank} and {args.max_sum}")
    inputs = bad = 0
    for shape, d in grid(args.max_rank, args.max_sum):
        inputs += 1
        if row := mismatch(shape, d, args.max_sum):
            bad += 1
            print("mismatch", *row)
    print(f"{inputs} inputs (ranks <= {args.max_rank}, degree sum <= {args.max_sum}), {bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
