"""Closed-form products in the Grothendieck ring and Chow ring of Fl(1, n-1).

Conventions: a mechanically produced pair (a, b) with a < 1 or b > n names
the zero class and is dropped.  The two-case K-product:

    O_{k,p} . O_{i,j} = O_{i+k-n, j+p-1}                 if i+k-n >= j+p,
                                                          or i < j, or k < p;
    O_{k,p} . O_{i,j} = O_{i+k-n-1, j+p-1}
                        + O_{i+k-n, j+p}
                        - O_{i+k-n-1, j+p}               otherwise.
"""

from __future__ import annotations

from .basis import SchubertIndex, _index, check_index, check_rank, unit_index
from .errors import RankMismatch
from .poly import _IDENTITY, QKClass, _combine, _int_class


def _in_range(a: int, b: int, n: int) -> bool:
    """The range rule: (a, b) names a basis class, not the zero class."""
    return 0 < a <= n and 0 < b <= n


def _kept(n: int, terms: tuple[tuple[int, int, int], ...]) -> dict[SchubertIndex, int]:
    """Sum (a, b, coeff) triples into {w: coeff}, dropping out-of-range pairs."""
    kept: dict[SchubertIndex, int] = {}
    for a, b, c in terms:
        if _in_range(a, b, n):
            w = _index[a, b]
            kept[w] = kept.get(w, 0) + c
    return kept


def _k_terms(u, v, n: int) -> dict[SchubertIndex, int]:
    """:func:`k_product` as a plain {w: coeff} map, on trusted indices.

    With a = i+k-n and b = j+p-1, the module docstring's first case is
    a > b.  That case is one term, returned as ``{O_{a,b}: 1}``, or ``{}``
    where (a, b) names the zero class; only the three-term case sums
    through :func:`_kept`.
    """
    k, p = u
    i, j = v
    a, b = i + k - n, j + p - 1
    if a > b or i < j or k < p:
        return {_index[a, b]: 1} if _in_range(a, b, n) else {}
    return _kept(n, ((a - 1, b, 1), (a, b + 1, 1), (a - 1, b + 1, -1)))


def k_product(u, v, n: int) -> QKClass:
    """O_u . O_v in K(Fl(1, n-1)), as a classical QKClass."""
    return _int_class(n, _k_terms(check_index(u, n), check_index(v, n), n))


def k_class_product(a: QKClass, b: QKClass, n: int) -> QKClass:
    """Bilinear extension of :func:`k_product`.

    Coefficients may be Novikov polynomials; they multiply through unchanged.
    """
    check_rank(n)
    if a.n != n or b.n != n:
        raise RankMismatch(f"classes built for n={a.n}/{b.n}, expected {n}")
    return _combine(n, [
        (ca * cb, a1 + b1, a2 + b2, _IDENTITY, (k_product(u, v, n),))
        for (u, a1, a2), ca in a.ordered_terms()
        for (v, b1, b2), cb in b.ordered_terms()
    ])[0]


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
        return _int_class(n, _kept(n, ((i + k - n - 1, j + l - 1, 1), (i + k - n, j + l, 1))))
    return _int_class(n, _kept(n, ((i + k - n, j + l - 1, 1),)))
