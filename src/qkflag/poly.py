"""Exact arithmetic in Z[Q1,Q2] and sparse combinations of Schubert classes.

Coefficients are Python ints, so arithmetic is arbitrary precision.  Both
containers keep a canonical form: zero coefficients are never stored, and
iteration order is fixed so serialized output is bit-stable.  A class is one
flat map over (class, degree) pairs, not a map of polynomials; see
:class:`QKClass`.  Its terms have one written order (basis position of w,
then (d1, d2)): the JSON and CSV writers and every verification and
conjecture report list terms in it.

**Term layout.**  The term Q1^d1 Q2^d2 O_w of a class for n is keyed by one
int, its code ``p << 24 | d1 << 12 | d2``, where p is w's basis position
for n (:func:`_encode`, :func:`_decode`).  Code order is the written order:
sorting the codes as ints sorts the terms.  Every degree of a class is
below ``DEGREE_LIMIT`` = 2^11, checked where classes come from outside: the
:class:`QKClass` constructor, :meth:`QKClass.basis_element`,
:func:`class_from_json` and the cached table loader.  Adding a degree shift ``b1 << 12 | b2`` to a code then shifts the
degree field by field: after one kernel pass a field holds at most
2047 + 2047 + 1 = 4095 < 2^12 (an input degree, a column's degree and a
step's shift), so it cannot carry into the next field.  The kernel refuses a degree of
2^11 or more instead of wrapping it: one OR over every code a call makes
has bit 11 or bit 23 set.  :class:`NovikovPolynomial` keeps plain, unbounded
``(d1, d2)`` keys.

Public constructors validate their input: coefficients and degrees must be
exact ints, not bools.  All arithmetic on classes, and operator application
and composition, runs through one kernel, :func:`_combine`.  Its part tuple
``(s, b1, b2, A, x)``, for ``s * Q1^b1 Q2^b2 * A(x)``, is the only part
format in the package: A is an operator's columns prepared as flat term
tuples indexed by basis position, or :data:`_IDENTITY`.  One accumulate loop
evaluates a short list of parts over a list of columns and wraps each
result without re-validation.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable, Iterator, Mapping

from .basis import SchubertIndex, _OnDemand, _basis, _position, check_index, check_rank
from .errors import RankMismatch

CurveDegree = tuple[int, int]

DEGREE_ZERO: CurveDegree = (0, 0)
DEGREE_L1: CurveDegree = (1, 0)
DEGREE_L2: CurveDegree = (0, 1)
DEGREE_L1L2: CurveDegree = (1, 1)

# The code of a term, ``p << _POS | d1 << _D1 | d2``: see the module docstring.
_POS = 24
_D1 = 12
_FIELD = (1 << _D1) - 1  # code >> _D1 & _FIELD is d1, code & _FIELD is d2
_DEGREES = (1 << _POS) - 1  # code & _DEGREES is the packed degree d1 << _D1 | d2
DEGREE_LIMIT = 1 << 11  # every degree of a class is below it
_CARRY = DEGREE_LIMIT << _D1 | DEGREE_LIMIT  # set in a code whose degree reached the limit


def _encode(p: int, d1: int, d2: int) -> int:
    """The code of Q1^d1 Q2^d2 O_w for w at basis position p; ValueError unless 0 <= d1, d2 < 2^11."""
    if not (0 <= d1 < DEGREE_LIMIT and 0 <= d2 < DEGREE_LIMIT):
        raise ValueError(f"curve degree ({d1},{d2}) is out of range: degrees must be below {DEGREE_LIMIT}")
    return p << _POS | d1 << _D1 | d2


def _decode(code: int, basis) -> tuple[SchubertIndex, int, int]:
    """(w, d1, d2) of a code; ``basis[p]`` is the index at basis position p of the class's n."""
    return basis[code >> _POS], code >> _D1 & _FIELD, code & _FIELD


def _degree(code: int) -> CurveDegree:
    """(d1, d2) of a code, or of its degree field ``code & _DEGREES``."""
    return code >> _D1 & _FIELD, code & _FIELD


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
        return self._terms == _as_poly(int(other) if isinstance(other, int) else other)._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"NovikovPolynomial({dict(sorted(self._terms.items()))!r})"

    def __str__(self) -> str:
        return _signed_sum([(c, monomial_str(deg)) for deg, c in self.terms()])


def _poly_sum(parts) -> NovikovPolynomial:
    """``sum s * Q1^b1 Q2^b2 * p`` over ``(s, b1, b2, p)`` parts: one accumulate loop, zeros dropped once."""
    acc: dict[CurveDegree, int] = {}
    for s, b1, b2, p in parts:
        for (d1, d2), c in p._terms.items():
            key = (d1 + b1, d2 + b2)
            acc[key] = acc.get(key, 0) + s * c
    return NovikovPolynomial._trusted({d: c for d, c in acc.items() if c})


def _as_poly(x) -> NovikovPolynomial:
    if isinstance(x, NovikovPolynomial):
        return x
    if type(x) is int:  # not a bool
        return NovikovPolynomial._trusted({DEGREE_ZERO: x} if x else {})
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
        if (d1, d2) in terms:
            raise ValueError(f"polynomial repeats the degree ({d1},{d2})")
        terms[d1, d2] = c
    return _nonnegative(terms)


def _nonnegative(terms: dict[CurveDegree, int]) -> dict[CurveDegree, int]:
    """``terms`` without zero coefficients.

    ValueError unless every degree and coefficient is an int (not a bool)
    and every degree is nonnegative.
    """
    for (d1, d2), c in terms.items():
        if type(d1) is not int or type(d2) is not int or type(c) is not int:
            raise ValueError(f"polynomial term Q1^{d1!r} Q2^{d2!r} with coefficient {c!r} must hold integers")
        if d1 < 0 or d2 < 0:
            raise ValueError(f"negative curve degree ({d1},{d2})")
    return {d: c for d, c in terms.items() if c}


class QKClass:
    """An element of the small quantum K-ring for a fixed n.

    Stored as one flat map ``{code: c}``: the code (see the module
    docstring) names the term Q1^d1 Q2^d2 O_w, ``w`` a
    :class:`~qkflag.basis.SchubertIndex` valid for n and ``(d1, d2)`` a
    nonnegative curve degree below 2^11, and ``c`` is its nonzero int
    coefficient.  A :class:`NovikovPolynomial` per class is built only by
    :meth:`coefficient` and :meth:`items`.  A classical K-class is the
    special case where every degree is (0, 0).  :meth:`ordered_terms` lists
    the terms, decoded, in the written order.  No code changes a class's
    terms once it is built, so one class object may stand for several
    products (the h2 table shares O_u * O_v with O_v * O_u).
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping | None = None):
        self.n = check_rank(n)
        polys = {check_index(w, n): _as_poly(p) for w, p in (terms or {}).items()}
        self._terms = {_encode(_position(*w, n), *d): c for w, p in polys.items() for d, c in p._terms.items()}

    @classmethod
    def _trusted(cls, n: int, terms: dict[int, int]) -> "QKClass":
        """Wrap a flat map that is already clean: codes of valid terms for n, no zero coefficient."""
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
        """The polynomial coefficient of O_w: a filter over the flat terms, no sort.

        InvalidIndex unless w is a valid index for the class's n.
        """
        p = _position(*check_index(w, self.n), self.n)
        return NovikovPolynomial._trusted({_degree(k): c for k, c in self._terms.items() if k >> _POS == p})

    def ordered_terms(self) -> list[tuple[tuple[SchubertIndex, int, int], int]]:
        """Flat ((w, d1, d2), c) terms in the written order: code order."""
        basis = _basis(self.n)  # each code decoded inline, as _decode does
        return [((basis[k >> _POS], k >> _D1 & _FIELD, k & _FIELD), c) for k, c in sorted(self._terms.items())]

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
        terms = self._terms.items()
        return QKClass._trusted(self.n, {k >> _POS << _POS: c for k, c in terms if _degree(k) == deg})

    def degree_support(self) -> set[CurveDegree]:
        return {_degree(k) for k in self._terms}

    def __repr__(self) -> str:
        return f"QKClass(n={self.n}, {dict(self.items())!r})"

    def __str__(self) -> str:
        monos = self.sorted_monomials()
        return _signed_sum([(c, _product_word(monomial_str(d), w.label())) for w, d, c in monos])

    def sorted_monomials(self) -> list[tuple[SchubertIndex, CurveDegree, int]]:
        """Flat (class, degree, coeff) triples: degree asc, positives first, basis order."""
        terms = sorted(self._terms.items(), key=lambda t: (t[0] & _DEGREES, t[1] < 0, t[0]))
        basis = _basis(self.n)
        return [(basis[k >> _POS], _degree(k), c) for k, c in terms]


def _product_word(*factors: str) -> str:
    return "*".join(f for f in factors if f)


def _signed_sum(terms: list[tuple[int, str]]) -> str:
    """Render (coeff, word) pairs as "a - 2*b + ..."; a coefficient of 1 is left out."""
    parts = []
    for c, word in terms:
        mag = "" if abs(c) == 1 and word else str(abs(c))
        parts.append(("- " if c < 0 else "+ " if parts else "") + _product_word(mag, word))
    return " ".join(parts) or "0"


# the identity's columns for the kernel: e_w, as one term, for every basis position p of w;
# each depends on p alone, so every caller shares them
_IDENTITY = _OnDemand(lambda p: ((p << _POS, 1),))


def _combine(n: int, parts, width: int = 1) -> list[QKClass]:
    """The one accumulate kernel: column j of ``sum s * Q1^b1 Q2^b2 * A(x)`` for each j < ``width``.

    Each part ``(s, b1, b2, cols, xs)`` names an int ``s``, a shift (b1, b2),
    an operator A and a value x given by its columns: ``xs[j]`` is column j
    of x, a class for ``n``.  ``cols[p]`` is A e_w, for w at basis position
    p, as a tuple of ``(code, c)`` terms; :data:`_IDENTITY` is the identity.
    Part by part, one loop walks the terms of each ``xs[j]``, reads A's
    column at each code's position, and adds its terms, shifted by one int
    add and scaled, into column j's flat map; zeros are dropped once, at
    the end.  A shift plus the degrees it meets stays below 2^12 per field
    (see the module docstring); ValueError is raised if any term the call
    makes reaches degree 2^11, even one that cancels.  Nothing else is
    re-validated.
    """
    accs = [{} for _ in range(width)]
    seen = 0  # the OR of every code the pass makes
    pos, degrees = _POS, _DEGREES
    for s, b1, b2, cols, xs in parts:
        b = b1 << _D1 | b2
        for acc, x in zip(accs, xs):
            get = acc.get
            for code, c in x._terms.items():
                c *= s
                shift = (code & degrees) + b
                for key, k in cols[code >> pos]:
                    key += shift
                    seen |= key
                    acc[key] = get(key, 0) + c * k
    out = []
    new = object.__new__
    for acc in accs:
        if 0 in acc.values():
            acc = {key: c for key, c in acc.items() if c}
        x = new(QKClass)  # QKClass._trusted, inlined
        x.n = n
        x._terms = acc
        out.append(x)
    if seen & _CARRY:
        raise ValueError(f"a curve degree reached {DEGREE_LIMIT}: degrees must be below {DEGREE_LIMIT}")
    return out


def _int_class(n: int, coeffs: dict[SchubertIndex, int]) -> QKClass:
    """A classical class from valid indices and integer coefficients, zeros dropped."""
    return QKClass._trusted(n, {_position(*w, n) << _POS: c for w, c in coeffs.items() if c})


def _json_groups(c: QKClass) -> list[dict]:
    """``[{"w": [i, j], "poly": [...]}, ...]``: the codes in int order, the written order, grouped by class."""
    basis = _basis(c.n)
    groups = groupby(sorted(c._terms.items()), key=lambda term: term[0] >> _POS)
    return [
        {"w": list(basis[p]), "poly": [{"d1": k >> _D1 & _FIELD, "d2": k & _FIELD, "coeff": v} for k, v in terms]}
        for p, terms in groups
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
