"""Closed-form genus-zero correlators of Fl(1, n-1) and of projective space.

All pairings against the dual basis reduce to Kronecker deltas, so a
correlator evaluates to a small integer without materializing dual classes.
Degree families outside the closed forms implemented here raise
:class:`~qkflag.errors.UnsupportedDegree`; the duality that swaps the two
projective factors (and the two Novikov degrees) is applied automatically
before giving up.
"""

from __future__ import annotations

from dataclasses import dataclass

from .basis import (
    SchubertIndex,
    check_index,
    check_rank,
    dual_index,
    enumerate_basis,
    h1_index,
    h2_index,
    unit_index,
)
from .errors import UnsupportedDegree
from .kring import k_product
from .poly import (
    DEGREE_L1,
    DEGREE_L1L2,
    DEGREE_L2,
    CurveDegree,
    QKClass,
)


@dataclass(frozen=True)
class CorrelatorQuery:
    """Inputs O_{u_1}, ..., plus one dual-basis insertion I_w, at a fixed degree."""

    inputs: tuple[SchubertIndex, ...]
    dual_output: SchubertIndex
    degree: CurveDegree


def two_point(u, w, deg: CurveDegree, n: int) -> int:
    """<O_u, I_w> at degree l1, l2 or l1+l2; always 0 or 1."""
    i, j = check_index(u, n)
    s, t = check_index(w, n)
    if deg == DEGREE_L1:
        if j < n:
            return 1 if (s, t) == (n, j) else 0
        return 1 if (s, t) == (n - 1, n) else 0
    if deg == DEGREE_L2:
        if i > 1:
            return 1 if (s, t) == (i, 1) else 0
        return 1 if (s, t) == (1, 2) else 0
    if deg == DEGREE_L1L2:
        return 1 if (s, t) == (n, 1) else 0
    raise UnsupportedDegree(f"no two-point closed form at degree {deg}")


def _chain(vec: dict[SchubertIndex, int], degs, n: int) -> dict[SchubertIndex, int]:
    """Push an integer combination of classes through two-point factors at ``degs`` in turn."""
    basis = enumerate_basis(n)
    for deg in degs:
        nxt: dict[SchubertIndex, int] = {}
        for x, c in vec.items():
            for y in basis:
                f = two_point(x, y, deg, n)
                if f:
                    nxt[y] = nxt.get(y, 0) + c * f
        vec = nxt
    return vec


def two_point_chain(u, degs, w, n: int) -> int:
    """Composite sum over intermediate classes of a chain of two-point factors."""
    check_index(w, n)
    return _chain({check_index(u, n): 1}, degs, n).get(SchubertIndex(*w), 0)


def three_point_projective(i1: int, i2: int, i3: int, d: int, m: int) -> int:
    """Three-point correlator of P^m at degree d >= 1 for indices in [1, m+1]."""
    if m < 1:
        raise ValueError(f"projective dimension must be >= 1, got {m}")
    for idx in (i1, i2, i3):
        if not 1 <= idx <= m + 1:
            raise ValueError(f"index {idx} out of range [1, {m + 1}]")
    if d < 1:
        raise UnsupportedDegree("degree 0 is the classical product, not handled here")
    if d == 1 and i1 + i2 + i3 < m + 2:
        return 0
    return 1


def _three_point_direct(u1, u2, w, deg: CurveDegree, n: int) -> int | None:
    """Closed forms in canonical position; None when this family needs duality."""
    d1, d2 = deg
    i1, j1 = u1
    i2, j2 = u2
    if deg == (0, 0):
        return k_product(u1, u2, n).coefficient(w).constant_term()
    if deg == (1, 1):
        return 1 if w == unit_index(n) else 0
    if d1 >= 2 and d2 >= 2:
        return 1 if w == unit_index(n) else 0
    if d1 == 1 and d2 >= 2:
        return 1 if w == SchubertIndex(min(n, i1 + i2), 1) else 0
    if deg == (0, 1) and j1 + j2 <= n + 2:
        if i1 + i2 < n + 1:
            return 0
        if i1 + i2 == n + 1:
            return 1 if w == SchubertIndex(1, 2) else 0
        return 1 if w == SchubertIndex(i1 + i2 - n, 1) else 0
    return None


def three_point_incidence(u1, u2, w, deg: CurveDegree, n: int) -> int:
    """<O_{u1}, O_{u2}, I_w> at a supported degree family.

    Families with a direct closed form: (0,0), (0,1) under j1+j2 <= n+2,
    (1,1), (1,d2) with d2 >= 2, and (d1,d2) with d1,d2 >= 2.  Anything else
    is first reflected through the factor-swapping duality; if the image is
    still not covered, the degree is unsupported.
    """
    u1 = check_index(u1, n)
    u2 = check_index(u2, n)
    w = check_index(w, n)
    d1, d2 = deg
    if d1 < 0 or d2 < 0:
        raise UnsupportedDegree(f"degree {deg} is not effective")
    value = _three_point_direct(u1, u2, w, deg, n)
    if value is not None:
        return value
    value = _three_point_direct(
        dual_index(u1, n), dual_index(u2, n), dual_index(w, n), (d2, d1), n
    )
    if value is not None:
        return value
    raise UnsupportedDegree(f"no three-point closed form at degree {deg} (n={n})")


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


def _three_point_row(h_idx, v, deg: CurveDegree, n: int) -> dict[SchubertIndex, int]:
    return {
        w: c
        for w in enumerate_basis(n)
        if (c := three_point_incidence(h_idx, v, w, deg, n))
    }


def quantum_part_from_correlators(h: str, v, deg: CurveDegree, n: int) -> QKClass:
    """Reconstruct the degree-``deg`` part of O_h * O_v from correlators.

    Evaluates the alternating sums over boundary splittings: the three-point
    correlator at ``deg`` minus metric-inverse corrections built from lower
    degrees and two-point factors.  Returns the Q-stripped coefficient class.
    """
    if h not in ("h1", "h2"):
        raise ValueError(f"h must be 'h1' or 'h2', got {h!r}")
    if deg not in (DEGREE_L1, DEGREE_L2, DEGREE_L1L2):
        raise UnsupportedDegree(f"quantum parts exist only at l1, l2, l1+l2, got {deg}")
    hw = h1_index(n) if h == "h1" else h2_index(n)
    v = check_index(v, n)
    basis = enumerate_basis(n)

    kp = k_product(hw, v, n)
    classical = {w: c for w in basis if (c := kp.coefficient(w).constant_term())}

    def as_class(row: dict[SchubertIndex, int], sign: int = 1) -> QKClass:
        return QKClass(n, {w: sign * c for w, c in row.items()})

    if deg in (DEGREE_L1, DEGREE_L2):
        out = as_class(_three_point_row(hw, v, deg, n))
        out = out + as_class(_chain(classical, [deg], n), -1)
        return out

    out = as_class(_three_point_row(hw, v, DEGREE_L1L2, n))
    out = out + as_class(_chain(_three_point_row(hw, v, DEGREE_L1, n), [DEGREE_L2], n), -1)
    out = out + as_class(_chain(_three_point_row(hw, v, DEGREE_L2, n), [DEGREE_L1], n), -1)
    out = out + as_class(_chain(classical, [DEGREE_L1, DEGREE_L2], n))
    out = out + as_class(_chain(classical, [DEGREE_L2, DEGREE_L1], n))
    out = out + as_class(_chain(classical, [DEGREE_L1L2], n), -1)
    return out
