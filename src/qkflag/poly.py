"""Exact arithmetic in Z[Q1,Q2] and sparse combinations of Schubert classes.

Coefficients are Python ints, so arithmetic is arbitrary precision.  Both
containers keep a canonical form: zero coefficients are never stored, and
iteration order is fixed (exponents sorted lexicographically, classes sorted
by basis position) so serialized output is bit-stable.

Public constructors validate their input.  Arithmetic accumulates into plain
dicts in place and wraps the result with a ``_trusted`` constructor, which
skips re-validation.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .basis import SchubertIndex, basis_positions, check_index, check_rank
from .errors import RankMismatch

CurveDegree = tuple[int, int]

DEGREE_ZERO: CurveDegree = (0, 0)
DEGREE_L1: CurveDegree = (1, 0)
DEGREE_L2: CurveDegree = (0, 1)
DEGREE_L1L2: CurveDegree = (1, 1)


def c1_pairing(deg: CurveDegree, n: int) -> int:
    """Integral of the first Chern class of the tangent bundle over d1*l1 + d2*l2."""
    d1, d2 = deg
    return (d1 + d2) * (n - 1)


class NovikovPolynomial:
    """Finitely supported map (d1, d2) -> nonzero int, i.e. an element of Z[Q1,Q2]."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[CurveDegree, int] | None = None):
        terms = {(d1, d2): c for (d1, d2), c in (terms or {}).items()}
        for d1, d2 in terms:
            if d1 < 0 or d2 < 0:
                raise ValueError(f"negative curve degree ({d1},{d2})")
        self._terms = {d: c for d, c in terms.items() if c}

    @classmethod
    def _trusted(cls, terms: dict[CurveDegree, int]) -> "NovikovPolynomial":
        """Wrap a map that is already clean: no zero coefficient, no negative degree."""
        p = object.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def zero(cls) -> "NovikovPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "NovikovPolynomial":
        return cls({DEGREE_ZERO: 1})

    @classmethod
    def monomial(cls, deg: CurveDegree, coeff: int = 1) -> "NovikovPolynomial":
        return cls({deg: coeff})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, deg: CurveDegree) -> int:
        return self._terms.get(deg, 0)

    def constant_term(self) -> int:
        return self._terms.get(DEGREE_ZERO, 0)

    def terms(self) -> Iterator[tuple[CurveDegree, int]]:
        """Terms in (d1, d2)-lexicographic order."""
        yield from sorted(self._terms.items())

    def degree_support(self) -> set[CurveDegree]:
        return set(self._terms)

    def __add__(self, other) -> "NovikovPolynomial":
        return _clean(_add_product(dict(self._terms), _as_poly(other), _ONE))

    __radd__ = __add__

    def __sub__(self, other) -> "NovikovPolynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "NovikovPolynomial":
        return _as_poly(other) + (-self)

    def __neg__(self) -> "NovikovPolynomial":
        return NovikovPolynomial._trusted({deg: -c for deg, c in self._terms.items()})

    def __mul__(self, other) -> "NovikovPolynomial":
        return _clean(_add_product({}, self, _as_poly(other)))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, (int, NovikovPolynomial)):
            return NotImplemented
        return self._terms == _as_poly(other)._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"NovikovPolynomial({dict(sorted(self._terms.items()))!r})"

    def __str__(self) -> str:
        return _signed_sum([(c, monomial_str(deg)) for deg, c in self.terms()])


def _add_product(
    row: dict[CurveDegree, int], a: NovikovPolynomial, b: NovikovPolynomial
) -> dict[CurveDegree, int]:
    """Add the terms of a * b into ``row`` in place and return it."""
    for (a1, a2), ca in a._terms.items():
        for (b1, b2), cb in b._terms.items():
            deg = (a1 + b1, a2 + b2)
            row[deg] = row.get(deg, 0) + ca * cb
    return row


def _clean(row: dict[CurveDegree, int]) -> NovikovPolynomial:
    """Wrap an accumulated row, dropping zero coefficients."""
    return NovikovPolynomial._trusted({d: c for d, c in row.items() if c})


def _as_poly(x) -> NovikovPolynomial:
    if isinstance(x, NovikovPolynomial):
        return x
    if isinstance(x, int):
        return NovikovPolynomial({DEGREE_ZERO: x})
    raise TypeError(f"cannot coerce {type(x).__name__} to NovikovPolynomial")


def monomial_str(deg: CurveDegree) -> str:
    """Render (d1, d2) as Q1^d1 Q2^d2; empty string for (0, 0)."""
    d1, d2 = deg
    part1 = "" if d1 == 0 else "Q1" if d1 == 1 else f"Q1^{d1}"
    part2 = "" if d2 == 0 else "Q2" if d2 == 1 else f"Q2^{d2}"
    return part1 + part2


def poly_to_json(p: NovikovPolynomial) -> list[dict]:
    """[{"d1": ..., "d2": ..., "coeff": ...}, ...] in degree order."""
    return [{"d1": d1, "d2": d2, "coeff": c} for (d1, d2), c in p.terms()]


def poly_from_json(items: Iterable[Mapping]) -> NovikovPolynomial:
    return NovikovPolynomial({(int(t["d1"]), int(t["d2"])): int(t["coeff"]) for t in items})


class QKClass:
    """Finitely supported map SchubertIndex -> NovikovPolynomial.

    An element of the small quantum K-ring for a fixed n.  A classical
    K-class is the special case where every polynomial is constant.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping | None = None):
        self.n = check_rank(n)
        polys = {check_index(w, n): _as_poly(p) for w, p in (terms or {}).items()}
        self._terms = {w: p for w, p in polys.items() if p}

    @classmethod
    def _trusted(cls, n: int, terms: dict[SchubertIndex, NovikovPolynomial]) -> "QKClass":
        """Wrap a map that is already clean: valid indices for n, no zero polynomial."""
        c = object.__new__(cls)
        c.n = n
        c._terms = terms
        return c

    @classmethod
    def zero(cls, n: int) -> "QKClass":
        return cls(n)

    @classmethod
    def basis_element(cls, w, n: int, poly=1) -> "QKClass":
        return cls(n, {check_index(w, n): poly})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, w) -> NovikovPolynomial:
        return self._terms.get(SchubertIndex(*w), NovikovPolynomial.zero())

    def items(self) -> list[tuple[SchubertIndex, NovikovPolynomial]]:
        """(class, polynomial) pairs in basis order."""
        pos = basis_positions(self.n)
        return sorted(self._terms.items(), key=lambda kv: pos[kv[0]])

    def _check_same_rank(self, other: "QKClass") -> None:
        if self.n != other.n:
            raise RankMismatch(f"mixing classes for n={self.n} and n={other.n}")

    def __add__(self, other: "QKClass") -> "QKClass":
        self._check_same_rank(other)
        return _combine(self.n, ((self, _ONE), (other, _ONE)))

    def __sub__(self, other: "QKClass") -> "QKClass":
        self._check_same_rank(other)
        return _combine(self.n, ((self, _ONE), (other, _MINUS_ONE)))

    def __neg__(self) -> "QKClass":
        return _combine(self.n, ((self, _MINUS_ONE),))

    def scaled(self, factor) -> "QKClass":
        """Multiply every coefficient by an integer or Novikov polynomial."""
        return _combine(self.n, ((self, _as_poly(factor)),))

    def __eq__(self, other) -> bool:
        if not isinstance(other, QKClass):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self._terms.items()))))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def classical_limit(self) -> "QKClass":
        """Keep the Q-degree (0,0) part of every coefficient."""
        return self.degree_part(DEGREE_ZERO)

    def degree_part(self, deg: CurveDegree) -> "QKClass":
        """The classical coefficient class of Q^deg."""
        return _int_class(self.n, {w: p.coefficient(deg) for w, p in self._terms.items()})

    def degree_support(self) -> set[CurveDegree]:
        return set().union(*(p._terms for p in self._terms.values()))

    def __repr__(self) -> str:
        return f"QKClass(n={self.n}, {dict(self.items())!r})"

    def __str__(self) -> str:
        monos = self.sorted_monomials()
        return _signed_sum([(c, _product_word(monomial_str(d), w.label())) for w, d, c in monos])

    def sorted_monomials(self) -> list[tuple[SchubertIndex, CurveDegree, int]]:
        """Flat (class, degree, coeff) triples: degree asc, positives first, basis order."""
        flat = [(w, deg, c) for w, p in self._terms.items() for deg, c in p.terms()]
        pos = basis_positions(self.n)
        flat.sort(key=lambda t: (t[1], 0 if t[2] > 0 else 1, pos[t[0]]))
        return flat


def _product_word(*factors: str) -> str:
    return "*".join(f for f in factors if f)


def _signed_sum(terms: list[tuple[int, str]]) -> str:
    """Render (coeff, word) pairs as "a - 2*b + ..."; a coefficient of 1 is left out."""
    parts = []
    for c, word in terms:
        mag = "" if abs(c) == 1 and word else str(abs(c))
        parts.append(("- " if c < 0 else "+ " if parts else "") + _product_word(mag, word))
    return " ".join(parts) or "0"


_ONE = NovikovPolynomial._trusted({DEGREE_ZERO: 1})
_MINUS_ONE = NovikovPolynomial._trusted({DEGREE_ZERO: -1})


def _combine(n: int, pairs: Iterable[tuple[QKClass, NovikovPolynomial]]) -> QKClass:
    """The sum of ``c * factor`` over ``pairs``, accumulated in one dict in place.

    Every ``c`` must already be a class for ``n``; nothing is re-validated.
    """
    acc: dict[SchubertIndex, dict[CurveDegree, int]] = {}
    for c, factor in pairs:
        for w, p in c._terms.items():
            _add_product(acc.setdefault(w, {}), p, factor)
    return QKClass._trusted(n, {w: q for w, row in acc.items() if (q := _clean(row))})


def _int_class(n: int, coeffs: dict[SchubertIndex, int]) -> QKClass:
    """A classical class from valid indices and integer coefficients, zeros dropped."""
    polys = {w: NovikovPolynomial._trusted({DEGREE_ZERO: c}) for w, c in coeffs.items() if c}
    return QKClass._trusted(n, polys)


def class_to_json(c: QKClass) -> dict:
    return {
        "n": c.n,
        "terms": [{"w": [w.i, w.j], "poly": poly_to_json(p)} for w, p in c.items()],
    }


def class_from_json(obj: Mapping) -> QKClass:
    terms = {(int(t["w"][0]), int(t["w"][1])): poly_from_json(t["poly"]) for t in obj["terms"]}
    return QKClass(int(obj["n"]), terms)
