"""K-theoretic three-point invariants read off the table, checked against rationality.

    PYTHONPATH=src python -m tests.oracles.gw_invariants [--max-n N]

Where Gromov-Witten varieties are rationally connected, the invariant
E_d(u, v, w) = I_d(O_u, O_v, O_w) is the Euler characteristic of the
structure sheaf of one, so it is 0 or 1 (Buch-Mihalcea, "Quantum K-theory
of Grassmannians").  By Givental and Lee the table determines every E_d:

* N_e is the Q^e part of O_u * O_v;
* T_0 is the identity, and for f != 0, T_f(O_x) = O_y with
  y = ``_two_point_target(x, (min(f1, 1), min(f2, 1)), n)``: a curve of
  class f*l1 lies in a P^{n-2} fibre of one projection, which lines already
  sweep, so the two-point class stops growing at degree 1 in each direction;
* the class I_d(u, v, .) is the sum of T_f(N_e) over e + f = d;
* E_d(u, v, w) = sum of c_y chi(O_y . O_w) over the terms c_y O_y of that
  class, where chi(O_y . O_w) is the coefficient sum of ``_k_terms(y, w, n)``
  (every Schubert structure sheaf has chi = 1).

The oracle assumes that ``_two_point_target`` is right.  Over every
(u, v, w) and every d <= (3, 3) it checks four rules:

* E is 0 or 1;
* E = 0 where the expected dimension
  (2n-3) + (n-1)(d1+d2) - codim u - codim v - codim w is negative;
* E_d = E_(min(d1, 2), min(d2, 2));
* E = 1 once d >= (2, 2).

Run as a script, it checks ``build_table(n)`` for n = 7..N (default N = 8),
prints one line per n and each broken rule, and exits 1 on any failure.
"""

from __future__ import annotations

import argparse
from collections import Counter

from qkflag.basis import codim, enumerate_basis
from qkflag.correlators import _two_point_target
from qkflag.kring import _k_terms

STEPS = ((0, 0), (1, 0), (0, 1), (1, 1))
DEGREES = [(d1, d2) for d1 in range(4) for d2 in range(4)]  # every d <= (3, 3)


def expected_dimension(codims: int, d, n: int) -> int:
    """(2n-3) + (n-1)(d1+d2) minus ``codims``, the codimension sum of u, v and w."""
    return (2 * n - 3) + (n - 1) * (d[0] + d[1]) - codims


def chi_rows(n: int) -> dict[tuple[int, int], dict]:
    """For each capped step f, {x: [chi(T_f(O_x) . O_w) for w in basis order]}."""
    basis = enumerate_basis(n)
    return {
        f: {x: [sum(_k_terms(x if f == (0, 0) else _two_point_target(x, f, n), w, n).values()) for w in basis]
            for x in basis}
        for f in STEPS
    }


def invariants(product, u, v, chi) -> dict[tuple[int, int], list[int]]:
    """{d: [E_d(u, v, w) for w in basis order]} for d <= (3, 3).

    ``product(u, v)`` returns O_u * O_v as a QKClass; ``chi`` is :func:`chi_rows`.
    Each class I_d(u, v, .) is evaluated once, against the cached chi rows.
    """
    parts: dict[tuple[int, int], list] = {}
    for (x, e1, e2), c in product(u, v).ordered_terms():
        parts.setdefault((e1, e2), []).append((x, c))
    out = {}
    for d in DEGREES:
        row = [0] * len(chi[0, 0])
        for (e1, e2), terms in parts.items():
            f1, f2 = d[0] - e1, d[1] - e2
            if f1 < 0 or f2 < 0:
                continue
            rows = chi[min(f1, 1), min(f2, 1)]
            for x, c in terms:
                row = [a + c * b for a, b in zip(row, rows[x])]
        out[d] = row
    return out


def failures(n: int, product):
    """Yield (u, v, w, d, E, rule) for each (u, v, w, d) that breaks a rule, naming the first it breaks."""
    basis = enumerate_basis(n)
    cod = {w: codim(w, n) for w in basis}
    chi = chi_rows(n)
    for u in basis:
        for v in basis:
            table = invariants(product, u, v, chi)
            for d, row in table.items():
                capped = table[min(d[0], 2), min(d[1], 2)]
                for t, (w, e) in enumerate(zip(basis, row)):
                    if e not in (0, 1):
                        rule = "E is not 0 or 1"
                    elif e and expected_dimension(cod[u] + cod[v] + cod[w], d, n) < 0:
                        rule = "E != 0 at negative expected dimension"
                    elif e != capped[t]:
                        rule = "E_d != E_(min(d1,2), min(d2,2))"
                    elif d[0] >= 2 and d[1] >= 2 and e != 1:
                        rule = "E != 1 at d >= (2, 2)"
                    else:
                        continue
                    yield u, v, w, d, e, rule


def negative_dimension_count(n: int) -> int:
    """Number of (u, v, w, d), d <= (3, 3), with negative expected dimension."""
    sizes = Counter(codim(w, n) for w in enumerate_basis(n))
    return sum(
        a * b * c
        for x, a in sizes.items() for y, b in sizes.items() for z, c in sizes.items()
        for d in DEGREES if expected_dimension(x + y + z, d, n) < 0
    )


def main(argv=None) -> int:
    from qkflag.qkring import build_table

    parser = argparse.ArgumentParser(description="Check the table's three-point invariants against rationality.")
    parser.add_argument("--max-n", type=int, default=8, help="check n = 7..N")
    args = parser.parse_args(argv)
    if args.max_n < 7:
        parser.error(f"--max-n must be at least 7, got {args.max_n}: the runner checks n = 7..N")
    bad = 0
    for n in range(7, args.max_n + 1):
        found = list(failures(n, build_table(n).product))
        for row in found[:20]:
            print("failure", *row)
        bad += len(found)
        size = len(enumerate_basis(n)) ** 3 * len(DEGREES)
        print(f"n={n}: {size} (u, v, w, d), {negative_dimension_count(n)} of negative "
              f"expected dimension, {len(found)} failures")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
