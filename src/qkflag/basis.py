"""Schubert basis of the incidence variety Fl(1, n-1) in C^n.

A basis class O_{i,j} is named by a pair (i, j) with 1 <= i, j <= n and
i != j.  The linear order on the basis is the one used throughout for
matrices and serialized output:

    t(i, j) = (i-1)(n-1) + j - 1   if j > i,
    t(i, j) = (i-1)(n-1) + j       if j < i,

shifted down by one so indices run over 0 .. n(n-1)-1.

Two tables hold indices.  Each is an ``_OnDemand`` map, which fills an
entry on its first lookup, so neither grows beyond what is touched and no
code builds an eager per-n grid.  The intern table ``_index`` maps a pair
(i, j) to its one index; it does not depend on n.  The per-n table
``_basis(n)`` maps a basis position p to the index there, by
:func:`from_linear`'s arithmetic.  The reverse map, from an index to its
position, is arithmetic alone: :func:`linear_index`, or ``_position`` on a
trusted pair.  Equality is the contract: no code relies on two equal
indices being the same object.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import NamedTuple

from .errors import InvalidIndex, InvalidRank


class SchubertIndex(NamedTuple):
    i: int
    j: int

    def label(self) -> str:
        return f"O_{self.i},{self.j}"


class _OnDemand(dict):
    """A map whose value at a key is ``make(key)``, made on the key's first lookup and kept."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


_index = _OnDemand(SchubertIndex._make)  # (i, j) -> the one index of that pair


def check_rank(n: int) -> int:
    if type(n) is not int or n < 3:
        raise InvalidRank(f"ambient dimension must be an integer >= 3, got {n!r}")
    return n


def check_index(w, n: int) -> SchubertIndex:
    check_rank(n)
    i, j = w
    if type(i) is not int or type(j) is not int:
        raise InvalidIndex(f"Schubert index components must be integers, got ({i!r},{j!r})")
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise InvalidIndex(f"({i},{j}) is not a valid Schubert index for n={n}")
    return _index[i, j]


def basis_size(n: int) -> int:
    check_rank(n)
    return n * (n - 1)


def dim_incidence(n: int) -> int:
    """Dimension of Fl(1, n-1), = 2n - 3."""
    check_rank(n)
    return 2 * n - 3


def linear_index(w, n: int) -> int:
    """0-based position of O_{i,j} in the basis order."""
    return _position(*check_index(w, n), n)


def _position(i: int, j: int, n: int) -> int:
    """:func:`linear_index` of a trusted pair (i, j), with no basis built."""
    return (i - 1) * (n - 1) + (j - 2 if j > i else j - 1)


def from_linear(t: int, n: int) -> SchubertIndex:
    """Inverse of :func:`linear_index`."""
    check_rank(n)
    if type(t) is not int or not 0 <= t < n * (n - 1):
        raise InvalidIndex(f"linear index {t!r} out of range for n={n}")
    k = t + 1
    i = -(-k // (n - 1))  # ceil(k / (n-1))
    j = k - (i - 1) * (n - 1)
    if j >= i:
        j += 1
    return _index[i, j]


def enumerate_basis(n: int) -> list[SchubertIndex]:
    """All n(n-1) Schubert indices, in linear order, as a fresh list."""
    basis = _basis(check_rank(n))
    return [basis[p] for p in range(n * (n - 1))]


@lru_cache(maxsize=None)
def _basis(n: int) -> _OnDemand:
    """The one position table of n: ``_basis(n)[p]`` is the index at basis position p."""
    return _OnDemand(partial(from_linear, n=n))


def length(w, n: int) -> int:
    """Weyl length of w_{i,j}; equals dim X(i,j)."""
    return _length(*check_index(w, n), n)


def _length(i: int, j: int, n: int) -> int:
    """:func:`length` on a trusted index."""
    return i - 1 + n - j if i < j else n + i - j - 2


def codim(w, n: int) -> int:
    """Codimension of X(i,j) in Fl(1, n-1)."""
    return dim_incidence(n) - length(w, n)


def dual_index(w, n: int) -> SchubertIndex:
    """The involution (i,j) -> (n-j+1, n-i+1); preserves length."""
    i, j = check_index(w, n)
    return SchubertIndex(n - j + 1, n - i + 1)


def unit_index(n: int) -> SchubertIndex:
    """(n, 1): the class of the structure sheaf, the ring unit."""
    check_rank(n)
    return SchubertIndex(n, 1)


def point_index(n: int) -> SchubertIndex:
    """(1, n): the point class."""
    check_rank(n)
    return SchubertIndex(1, n)


def h1_index(n: int) -> SchubertIndex:
    """(n-1, 1): first codimension-one class."""
    check_rank(n)
    return SchubertIndex(n - 1, 1)


def h2_index(n: int) -> SchubertIndex:
    """(n, 2): second codimension-one class."""
    check_rank(n)
    return SchubertIndex(n, 2)


def _check_hyperplane(h: str) -> None:
    if h not in ("h1", "h2"):
        raise ValueError(f"h must be 'h1' or 'h2', got {h!r}")


def _hyperplane(h: str, n: int) -> SchubertIndex:
    """The index of O_h on a trusted h: (n-1, 1) for h1, (n, 2) for h2."""
    return _index[n - 1, 1] if h == "h1" else _index[n, 2]
