"""Schubert basis of the incidence variety Fl(1, n-1) in C^n.

A basis class O_{i,j} is named by a pair (i, j) with 1 <= i, j <= n and
i != j.  The linear order on the basis is the one used throughout for
matrices and serialized output:

    t(i, j) = (i-1)(n-1) + j - 1   if j > i,
    t(i, j) = (i-1)(n-1) + j       if j < i,

shifted down by one so indices run over 0 .. n(n-1)-1.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import InvalidIndex, InvalidRank


class SchubertIndex(NamedTuple):
    i: int
    j: int

    def label(self) -> str:
        return f"O_{self.i},{self.j}"


def check_rank(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 3:
        raise InvalidRank(f"ambient dimension must be an integer >= 3, got {n!r}")
    return n


def check_index(w, n: int) -> SchubertIndex:
    check_rank(n)
    i, j = w
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise InvalidIndex(f"({i},{j}) is not a valid Schubert index for n={n}")
    return SchubertIndex(i, j)


def basis_size(n: int) -> int:
    check_rank(n)
    return n * (n - 1)


def dim_incidence(n: int) -> int:
    """Dimension of Fl(1, n-1), = 2n - 3."""
    check_rank(n)
    return 2 * n - 3


def linear_index(w, n: int) -> int:
    """0-based position of O_{i,j} in the basis order."""
    i, j = check_index(w, n)
    t = (i - 1) * (n - 1) + (j - 1 if j > i else j)
    return t - 1


def from_linear(t: int, n: int) -> SchubertIndex:
    """Inverse of :func:`linear_index`."""
    check_rank(n)
    if not 0 <= t < n * (n - 1):
        raise InvalidIndex(f"linear index {t} out of range for n={n}")
    k = t + 1
    i = -(-k // (n - 1))  # ceil(k / (n-1))
    j = k - (i - 1) * (n - 1)
    if j >= i:
        j += 1
    return SchubertIndex(i, j)


def enumerate_basis(n: int) -> list[SchubertIndex]:
    """All n(n-1) Schubert indices, in linear order."""
    return [from_linear(t, n) for t in range(basis_size(n))]


@lru_cache(maxsize=None)
def basis_positions(n: int) -> Mapping[SchubertIndex, int]:
    """Read-only map from every index for this n to its basis position."""
    return MappingProxyType({w: t for t, w in enumerate(enumerate_basis(n))})


def length(w, n: int) -> int:
    """Weyl length of w_{i,j}; equals dim X(i,j)."""
    i, j = check_index(w, n)
    if i < j:
        return i - 1 + n - j
    return n + i - j - 2


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
