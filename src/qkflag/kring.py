"""Closed-form products in the Grothendieck ring and Chow ring of Fl(1, n-1).

Conventions: a mechanically produced pair (a, b) with a < 1, b > n, or a = b
names the zero class and is dropped.  The two-case K-product:

    O_{k,p} . O_{i,j} = O_{i+k-n, j+p-1}                 if i+k-n >= j+p,
                                                          or i < j, or k < p;
    O_{k,p} . O_{i,j} = O_{i+k-n-1, j+p-1}
                        + O_{i+k-n, j+p}
                        - O_{i+k-n-1, j+p}               otherwise.
"""

from __future__ import annotations

from .basis import SchubertIndex, check_index, check_rank, unit_index
from .errors import RankMismatch
from .poly import QKClass, _combine, _int_class


def _collect(n: int, terms: list[tuple[int, int, int]]) -> QKClass:
    """Build a class from (a, b, coeff) triples, dropping out-of-range pairs."""
    kept: dict[SchubertIndex, int] = {}
    for a, b, c in terms:
        if a < 1 or a > n or b < 1 or b > n or a == b:
            continue
        w = SchubertIndex(a, b)
        kept[w] = kept.get(w, 0) + c
    return _int_class(n, kept)


def k_product(u, v, n: int) -> QKClass:
    """O_u . O_v in K(Fl(1, n-1)), as a classical QKClass."""
    k, p = check_index(u, n)
    i, j = check_index(v, n)
    if i + k - n >= j + p or i < j or k < p:
        return _collect(n, [(i + k - n, j + p - 1, 1)])
    return _collect(
        n,
        [
            (i + k - n - 1, j + p - 1, 1),
            (i + k - n, j + p, 1),
            (i + k - n - 1, j + p, -1),
        ],
    )


def k_class_product(a: QKClass, b: QKClass, n: int) -> QKClass:
    """Bilinear extension of :func:`k_product`.

    Coefficients may be Novikov polynomials; they multiply through unchanged.
    """
    check_rank(n)
    if a.n != n or b.n != n:
        raise RankMismatch(f"classes built for n={a.n}/{b.n}, expected {n}")
    terms_a, terms_b = a._terms.items(), b._terms.items()
    return _combine(n, ((k_product(u, v, n), pa * pb) for u, pa in terms_a for v, pb in terms_b))


def k_unit(n: int) -> QKClass:
    return QKClass.basis_element(unit_index(n), n)


def chow_product(u, v, n: int) -> QKClass:
    """[X(u)] cup [X(v)] in the Chow ring, as an integer combination.

    Returned in the same container as K-classes; every coefficient is
    constant.  Vanishes when i+k <= n or j+l >= n+2.
    """
    k, l = check_index(u, n)
    i, j = check_index(v, n)
    if i + k <= n or j + l >= n + 2:
        return QKClass.zero(n)
    if 1 <= i + k - n <= j + l - 1 <= n and i > j and k > l:
        return _collect(
            n,
            [
                (i + k - n - 1, j + l - 1, 1),
                (i + k - n, j + l, 1),
            ],
        )
    return _collect(n, [(i + k - n, j + l - 1, 1)])
