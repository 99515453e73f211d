"""Exact arithmetic in Z[Q1,Q2] and sparse combinations of Schubert classes.

Coefficients are Python ints, so arithmetic is arbitrary precision.  Both
containers keep a canonical form: zero coefficients are never stored, and
iteration order is fixed so serialized output is bit-stable.  A class is one
flat map over (class, degree) pairs, not a map of polynomials; see
:class:`QKClass`.  Its terms have one written order, :func:`written_order`
(basis position of w, then (d1, d2)): the JSON and CSV writers and every
verification and conjecture report list terms in it.

Public constructors validate their input.  All arithmetic on classes and
polynomials, and operator application and composition, runs through one
kernel, :func:`_combine`.  Its part tuple ``(s, b1, b2, A, x)``, for
``s * Q1^b1 Q2^b2 * A(x)``, is the only part format in the package: A is an
operator's columns prepared as flat term tuples, or :data:`_IDENTITY`.  One
accumulate loop per column evaluates a short list of parts and wraps each
result without re-validation.
"""

from __future__ import annotations

from itertools import groupby
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
        self._terms = _nonnegative(terms)

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
        return _poly_sum(((1, 0, 0, self), (1, 0, 0, _as_poly(other))))

    __radd__ = __add__

    def __sub__(self, other) -> "NovikovPolynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "NovikovPolynomial":
        return _as_poly(other) + (-self)

    def __neg__(self) -> "NovikovPolynomial":
        return NovikovPolynomial._trusted({deg: -c for deg, c in self._terms.items()})

    def __mul__(self, other) -> "NovikovPolynomial":
        return _poly_sum([(c, d1, d2, self) for (d1, d2), c in _as_poly(other)._terms.items()])

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


def _poly_sum(parts) -> NovikovPolynomial:
    """``sum s * Q1^b1 Q2^b2 * p`` over ``(s, b1, b2, p)`` parts, through the one kernel.

    Each p enters :func:`_combine` as a class whose terms all sit under one
    placeholder index, 0.
    """
    flat = [
        (s, b1, b2, _IDENTITY, (QKClass._trusted(0, {(0, *d): c for d, c in p._terms.items()}),))
        for s, b1, b2, p in parts
    ]
    (total,) = _combine(0, flat)
    return NovikovPolynomial._trusted({(d1, d2): c for (_, d1, d2), c in total._terms.items()})


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
    """Inverse of :func:`poly_to_json`.

    Raises ValueError unless every field is an int (not a bool) and the
    degrees are nonnegative and distinct.
    """
    return NovikovPolynomial._trusted(_poly_terms(items))


def _poly_terms(items: Iterable[Mapping]) -> dict[CurveDegree, int]:
    """:func:`poly_from_json` as a plain ``{(d1, d2): c}`` map, zeros dropped."""
    terms: dict[CurveDegree, int] = {}
    for t in items:
        d1, d2, c = t["d1"], t["d2"], t["coeff"]
        if not all(type(x) is int for x in (d1, d2, c)):
            raise ValueError(f"polynomial term {t!r} must hold integers")
        if (d1, d2) in terms:
            raise ValueError(f"polynomial repeats the degree ({d1},{d2})")
        terms[d1, d2] = c
    return _nonnegative(terms)


def _nonnegative(terms: dict[CurveDegree, int]) -> dict[CurveDegree, int]:
    """``terms`` without zero coefficients; ValueError on a negative degree."""
    for d1, d2 in terms:
        if d1 < 0 or d2 < 0:
            raise ValueError(f"negative curve degree ({d1},{d2})")
    return {d: c for d, c in terms.items() if c}


def written_order(n: int):
    """Sort key of a flat term ``((w, d1, d2), value)``: basis position of w, then (d1, d2)."""
    pos = basis_positions(n)
    return lambda term: (pos[term[0][0]], term[0][1], term[0][2])


class QKClass:
    """An element of the small quantum K-ring for a fixed n.

    Stored as one flat map ``{(w, d1, d2): c}``: ``w`` a
    :class:`~qkflag.basis.SchubertIndex` valid for n, ``(d1, d2)`` a
    nonnegative curve degree, ``c`` a nonzero int, the coefficient of
    Q1^d1 Q2^d2 O_w.  A :class:`NovikovPolynomial` per class is built only
    by :meth:`coefficient` and :meth:`items`.  A classical K-class is the
    special case where every degree is (0, 0).  :meth:`ordered_terms` lists
    the terms in the written order.  No code changes a class's terms once
    it is built, so one class object may stand for several products (the
    h2 table shares O_u * O_v with O_v * O_u).
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping | None = None):
        self.n = check_rank(n)
        polys = {check_index(w, n): _as_poly(p) for w, p in (terms or {}).items()}
        self._terms = {(w, d1, d2): c for w, p in polys.items() for (d1, d2), c in p._terms.items()}

    @classmethod
    def _trusted(cls, n: int, terms: dict[tuple[SchubertIndex, int, int], int]) -> "QKClass":
        """Wrap a flat map that is already clean: valid indices for n, no zero coefficient."""
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
        """The polynomial coefficient of O_w: a filter over the flat terms, no sort."""
        w = SchubertIndex(*w)
        terms = self._terms.items()
        return NovikovPolynomial._trusted({(d1, d2): c for (x, d1, d2), c in terms if x == w})

    def ordered_terms(self) -> list[tuple[tuple[SchubertIndex, int, int], int]]:
        """Flat ((w, d1, d2), c) terms in the written order, :func:`written_order`."""
        return sorted(self._terms.items(), key=written_order(self.n))

    def items(self) -> list[tuple[SchubertIndex, NovikovPolynomial]]:
        """(class, polynomial) pairs in basis order: :meth:`ordered_terms` grouped by class."""
        rows: dict[SchubertIndex, dict[CurveDegree, int]] = {}
        for (w, d1, d2), c in self.ordered_terms():
            rows.setdefault(w, {})[d1, d2] = c
        return [(w, NovikovPolynomial._trusted(p)) for w, p in rows.items()]

    def __add__(self, other: "QKClass") -> "QKClass":
        return self._plus(other, 1)

    def __sub__(self, other: "QKClass") -> "QKClass":
        return self._plus(other, -1)

    def _plus(self, other: "QKClass", sign: int) -> "QKClass":
        if self.n != other.n:
            raise RankMismatch(f"mixing classes for n={self.n} and n={other.n}")
        return _combine(self.n, ((1, 0, 0, _IDENTITY, (self,)), (sign, 0, 0, _IDENTITY, (other,))))[0]

    def __neg__(self) -> "QKClass":
        return _combine(self.n, ((-1, 0, 0, _IDENTITY, (self,)),))[0]

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
        return QKClass._trusted(
            self.n, {(w, 0, 0): c for (w, d1, d2), c in self._terms.items() if (d1, d2) == deg}
        )

    def degree_support(self) -> set[CurveDegree]:
        return {(d1, d2) for _, d1, d2 in self._terms}

    def __repr__(self) -> str:
        return f"QKClass(n={self.n}, {dict(self.items())!r})"

    def __str__(self) -> str:
        monos = self.sorted_monomials()
        return _signed_sum([(c, _product_word(monomial_str(d), w.label())) for w, d, c in monos])

    def sorted_monomials(self) -> list[tuple[SchubertIndex, CurveDegree, int]]:
        """Flat (class, degree, coeff) triples: degree asc, positives first, basis order."""
        flat = [(w, (d1, d2), c) for (w, d1, d2), c in self._terms.items()]
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


class _Identity(dict):
    """The identity's columns for the kernel: e_w, as one flat term, for every index w.

    A column is made on its first lookup and kept, so later lookups of w
    are plain dict reads; it depends on w alone, so every caller may share it.
    """

    __slots__ = ()

    def __missing__(self, w: SchubertIndex) -> tuple:
        col = self[w] = (((w, 0, 0), 1),)
        return col


_IDENTITY = _Identity()


def _combine(n: int, parts, width: int = 1) -> list[QKClass]:
    """The one accumulate kernel: column j of ``sum s * Q1^b1 Q2^b2 * A(x)`` for each j < ``width``.

    Each part ``(s, b1, b2, cols, xs)`` names an int ``s``, a shift (b1, b2),
    an operator A and a value x given by its columns: ``xs[j]`` is column j
    of x, a class for ``n``.  ``cols`` maps every index w to A e_w as a tuple
    of flat ``((w', e1, e2), c)`` terms; :data:`_IDENTITY` is the identity.
    One loop per column walks the terms of every ``xs[j]`` and adds the
    terms of A they select, shifted and scaled, into one flat map; zeros are
    dropped once, at the end.  Nothing is re-validated.
    """
    out = []
    for j in range(width):
        acc: dict[tuple[SchubertIndex, int, int], int] = {}
        for s, b1, b2, cols, xs in parts:
            for (w, a1, a2), c in xs[j]._terms.items():
                c *= s
                a1 += b1
                a2 += b2
                for (x, e1, e2), k in cols[w]:
                    key = (x, a1 + e1, a2 + e2)
                    acc[key] = acc.get(key, 0) + c * k
        if 0 in acc.values():
            acc = {key: c for key, c in acc.items() if c}
        out.append(QKClass._trusted(n, acc))
    return out


def _int_class(n: int, coeffs: dict[SchubertIndex, int]) -> QKClass:
    """A classical class from valid indices and integer coefficients, zeros dropped."""
    return QKClass._trusted(n, {(w, 0, 0): c for w, c in coeffs.items() if c})


def _json_groups(c: QKClass) -> list[dict]:
    """``[{"w": [i, j], "poly": [...]}, ...]``: :meth:`QKClass.ordered_terms` grouped by class."""
    return [
        {"w": [w.i, w.j], "poly": [{"d1": d1, "d2": d2, "coeff": k} for (_, d1, d2), k in terms]}
        for w, terms in groupby(c.ordered_terms(), key=lambda term: term[0][0])
    ]


def class_to_json(c: QKClass) -> dict:
    return {"n": c.n, "terms": _json_groups(c)}


def class_from_json(obj: Mapping) -> QKClass:
    """Inverse of :func:`class_to_json`; ValueError on a non-int n or index, or a repeated w."""
    terms: dict[tuple, NovikovPolynomial] = {}
    for t in obj["terms"]:
        if (w := tuple(t["w"])) in terms:
            raise ValueError(f"class repeats the index {w!r}")
        terms[w] = poly_from_json(t["poly"])
    return QKClass(obj["n"], terms)
