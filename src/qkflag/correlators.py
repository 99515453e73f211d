"""Closed-form genus-zero correlators of Fl(1, n-1) and of projective space.

All pairings against the dual basis reduce to Kronecker deltas, so a
correlator evaluates to a small integer without materializing dual classes.
Degree families outside the closed forms implemented here raise
:class:`~qkflag.errors.UnsupportedDegree`; the duality that swaps the two
projective factors (and the two Novikov degrees) is applied automatically
before giving up.

At each supported degree O_u pairs to 1 with exactly one I_w, and at each
quantum degree O_{u1}, O_{u2} pair to 1 with at most one I_w.  The
reconstruction of quantum Chevalley terms therefore takes one target per
two-point factor and per three-point row, and never scans the basis.  A
three-point target reads :func:`_canonical_target`, and once more on the
duality image where no form covers the inputs.  Targets are read from the
intern table ``qkflag.basis._index``.  The reconstruction sums the signed
targets into one ``{w: c}`` map and makes its class once, with
:func:`qkflag.poly._int_class`, which drops the zeros.  Public functions
validate their indices and degrees (two exact ints, in a tuple or a list);
the private helpers they share run on trusted ones.
"""

from __future__ import annotations

from ._record import FrozenRecord
from .basis import SchubertIndex, _check_hyperplane, _hyperplane, _index, check_index, check_rank, dual_index
from .errors import UnsupportedDegree
from .kring import _k_terms
from .poly import DEGREE_L1, DEGREE_L1L2, DEGREE_L2, CurveDegree, QKClass, _int_class


class CorrelatorQuery(FrozenRecord):
    """Inputs O_{u_1}, ..., plus one dual-basis insertion I_w, at a fixed degree."""

    __slots__ = ("inputs", "dual_output", "degree")

    def __init__(
        self, inputs: tuple[SchubertIndex, ...], dual_output: SchubertIndex, degree: CurveDegree
    ):
        super().__init__(inputs, dual_output, degree)


def _curve_degree(deg) -> CurveDegree:
    """``deg``, a tuple or list of two exact ints, as a tuple; UnsupportedDegree for anything else."""
    pair = deg if type(deg) is tuple else tuple(deg) if type(deg) is list else ()
    if len(pair) != 2 or type(pair[0]) is not int or type(pair[1]) is not int:
        raise UnsupportedDegree(f"a curve degree is two ints (d1, d2), got {deg!r}")
    return pair


def two_point(u, w, deg: CurveDegree, n: int) -> int:
    """<O_u, I_w> at degree l1, l2 or l1+l2; always 0 or 1."""
    u = check_index(u, n)
    w = check_index(w, n)
    return 1 if _two_point_target(u, _curve_degree(deg), n) == w else 0


def _two_point_target(u: SchubertIndex, deg: CurveDegree, n: int) -> SchubertIndex:
    """The one w with <O_u, I_w> = 1 at ``deg``, for a trusted index u."""
    i, j = u
    if deg == DEGREE_L1:
        return _index[n, j] if j < n else _index[n - 1, n]
    if deg == DEGREE_L2:
        return _index[i, 1] if i > 1 else _index[1, 2]
    if deg == DEGREE_L1L2:
        return _index[n, 1]
    raise UnsupportedDegree(f"no two-point closed form at degree {deg}")


def two_point_chain(u, degs, w, n: int) -> int:
    """Composite sum over intermediate classes of a chain of two-point factors.

    Each factor maps a class to its one target, so the chain walks one class.
    """
    w = check_index(w, n)
    x = check_index(u, n)
    for deg in degs:
        x = _two_point_target(x, _curve_degree(deg), n)
    return 1 if x == w else 0


def three_point_projective(i1: int, i2: int, i3: int, d: int, m: int) -> int:
    """Three-point correlator of P^m at degree d >= 1 for indices in [1, m+1]."""
    if m < 1:
        raise ValueError(f"projective dimension must be >= 1, got {m}")
    for idx in (i1, i2, i3):
        if not 1 <= idx <= m + 1:
            raise ValueError(f"index {idx} out of range [1, {m + 1}]")
    if d == 0:
        raise UnsupportedDegree("degree 0 is the classical product, not handled here")
    if d < 0:
        raise UnsupportedDegree(f"degree {d} is negative; a correlator degree is at least 1")
    if d == 1 and i1 + i2 + i3 < m + 2:
        return 0
    return 1


def _three_point_target(u1, u2, deg: CurveDegree, n: int) -> SchubertIndex | None:
    """The one w with <O_{u1}, O_{u2}, I_w> = 1 at ``deg``, or None when every w gives 0.

    Trusted indices and an effective degree other than (0,0).  Reads
    :func:`_canonical_target` on (u1, u2, deg), then once on its image under
    the factor-swapping duality, whose target it reflects back.
    """
    (i1, j1), (i2, j2), (d1, d2) = u1, u2, deg
    w = _canonical_target(i1, j1, i2, j2, d1, d2, n)
    if w is not False:
        return w
    # the duality: (i, j) -> (n-j+1, n-i+1) on both inputs, (d1, d2) -> (d2, d1)
    w = _canonical_target(n - j1 + 1, n - i1 + 1, n - j2 + 1, n - i2 + 1, d2, d1, n)
    if w is False:
        raise UnsupportedDegree(f"no three-point closed form at degree {deg} (n={n})")
    return w and _index[n - w.j + 1, n - w.i + 1]


def _canonical_target(i1: int, j1: int, i2: int, j2: int, d1: int, d2: int, n: int):
    """:func:`_three_point_target` where a closed form holds as written, False elsewhere.

    The forms: (0,1) under j1+j2 <= n+2, (1,1), (1,d2 >= 2) and (d1,d2 >= 2).
    """
    if d1 == 0 and d2 == 1 and j1 + j2 <= n + 2:
        s = i1 + i2 - n
        return None if s < 1 else _index[1, 2] if s == 1 else _index[s, 1]
    if d1 == 1 and d2 >= 1:
        return _index[n, 1] if d2 == 1 else _index[min(n, i1 + i2), 1]
    return _index[n, 1] if d1 >= 2 and d2 >= 2 else False


def three_point_incidence(u1, u2, w, deg: CurveDegree, n: int) -> int:
    """<O_{u1}, O_{u2}, I_w> at a supported degree family.

    Degree (0,0) is the constant term of the K-ring product.  Every other
    degree compares w with the one target of :func:`_three_point_target`,
    which raises when neither the degree nor its dual image is covered.
    """
    u1 = check_index(u1, n)
    u2 = check_index(u2, n)
    w = check_index(w, n)
    d1, d2 = deg = _curve_degree(deg)
    if d1 < 0 or d2 < 0:
        raise UnsupportedDegree(f"degree {deg} is not effective")
    if deg == (0, 0):
        return _k_terms(u1, u2, n).get(w, 0)
    return 1 if _three_point_target(u1, u2, deg, n) == w else 0


def correlator_value(q: CorrelatorQuery, n: int) -> int:
    if len(q.inputs) == 1:
        return two_point(q.inputs[0], q.dual_output, q.degree, n)
    if len(q.inputs) == 2:
        return three_point_incidence(q.inputs[0], q.inputs[1], q.dual_output, q.degree, n)
    raise ValueError("only one- and two-input queries have closed forms")


def symmetry_transform(q: CorrelatorQuery, n: int) -> CorrelatorQuery:
    """Dualize every index and swap (d1, d2); preserves the correlator value."""
    check_rank(n)
    return CorrelatorQuery(
        inputs=tuple(dual_index(u, n) for u in q.inputs),
        dual_output=dual_index(q.dual_output, n),
        degree=(q.degree[1], q.degree[0]),
    )


def quantum_part_from_correlators(h: str, v, deg: CurveDegree, n: int) -> QKClass:
    """Reconstruct the degree-``deg`` part of O_h * O_v from correlators.

    Evaluates the alternating sums over boundary splittings: the three-point
    correlator at ``deg`` minus metric-inverse corrections built from lower
    degrees and two-point factors.  Each three-point row is its single
    target and each two-point factor maps a class to its single target, so
    no step scans the basis.  Returns the Q-stripped coefficient class.
    """
    _check_hyperplane(h)
    deg = _curve_degree(deg)
    if deg not in (DEGREE_L1, DEGREE_L2, DEGREE_L1L2):
        raise UnsupportedDegree(f"quantum parts exist only at l1, l2, l1+l2, got {deg}")
    v = check_index(v, n)
    hw = _hyperplane(h, n)
    classical = _k_terms(hw, v, n).items()
    t, row = _two_point_target, _three_point_target
    acc: dict[SchubertIndex, int] = {}
    if deg != DEGREE_L1L2:
        w = row(hw, v, deg, n)
        if w:  # None: a three-point row with no target
            acc[w] = 1
        for x, c in classical:
            w = t(x, deg, n)
            acc[w] = acc.get(w, 0) - c
    else:
        l1, l2 = DEGREE_L1, DEGREE_L2
        w, w1, w2 = row(hw, v, DEGREE_L1L2, n), row(hw, v, l1, n), row(hw, v, l2, n)
        for y, c in ((w, 1), (w1 and t(w1, l2, n), -1), (w2 and t(w2, l1, n), -1)):
            if y:
                acc[y] = acc.get(y, 0) + c
        for x, c in classical:
            w = t(t(x, l1, n), l2, n)
            acc[w] = acc.get(w, 0) + c
            w = t(t(x, l2, n), l1, n)
            acc[w] = acc.get(w, 0) + c
            w = t(x, DEGREE_L1L2, n)
            acc[w] = acc.get(w, 0) - c
    return _int_class(n, acc)
