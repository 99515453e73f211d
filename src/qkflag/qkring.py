"""Chevalley operators and the star-multiplication table of QK_s(Fl(1, n-1)).

Multiplication by a basis class O_u is stored as an N x N operator over
Z[Q1,Q2] (N = n(n-1)), kept columnwise: column v is the class O_u * O_v.
The full table is built from the two hyperplane operators H1, H2 by the
iteration

    (a) M_{n,1} = Id;  M_{k,1} = H1 . M_{k+1,1}            for k = n-1 .. 2
    (b) M_{k,p} = H2 . M_{k,p-1}                           for k > p >= 2
    (c) M_{1,2} = H1 . M_{2,1} + Q1 (H? . M_{n,1} - M_{n,1})  see build_table
    (d) M_{p,p+1} = H1 . M_{p+1,p} + H2 . M_{p-1,p} - M_{p-1,p}  for 2 <= p < n
    (e) M_{k,p} = H1 . M_{k+1,p}                           for k < p, k != p-1

Each step is written once, in ``_steps``, as parts s * Q1^b1 Q2^b2 * A(x)
in the one part format, that of the kernel :func:`qkflag.poly._combine`: A
is H1, H2, H? or the identity, and x an earlier value.  :func:`_recurrence`
evaluates a step with one kernel pass per column, so no step builds an
intermediate value.  The build runs it on the identity's columns.  An
:class:`Operator` is a column list whose only arithmetic is ``compose``
with one operator.

The ring certificate, which lets the h2 build evaluate each unordered
product once, is explained in :func:`_mirrored`; the read side's use of it
in :func:`_is_mirrored`; the step-c arbitration in :func:`build_table`.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import repeat

from ._record import Record
from .basis import (
    SchubertIndex, _check_hyperplane, _hyperplane, _position, basis_size, check_index, check_rank,
    enumerate_basis, h1_index, h2_index, linear_index, unit_index,
)
from .errors import MalformedTable, RankMismatch
from .kring import _k_terms
from .poly import (
    DEGREE_L1, DEGREE_L1L2, DEGREE_L2, CurveDegree, QKClass, _DEGREES, _IDENTITY, _POS, _combine,
    _degree, _encode, _json_groups, _poly_terms,
)

CHEVALLEY_DEGREES: frozenset[CurveDegree] = frozenset({(0, 0), (1, 0), (0, 1), (1, 1)})


class Operator(Record):
    """A linear endomorphism of the Schubert basis over Z[Q1,Q2]."""

    __slots__ = ("n", "cols")

    def __init__(self, n: int, cols: list[QKClass]):
        check_rank(n)
        for col in cols:
            if col.n != n:
                raise RankMismatch(f"operator for n={n} given a column for n={col.n}")
        if len(cols) != basis_size(n):
            raise ValueError(f"expected {basis_size(n)} columns, got {len(cols)}")
        self.n = n
        self.cols = cols

    @classmethod
    def _trusted(cls, n: int, cols: list[QKClass]) -> "Operator":
        """Wrap N columns that are already classes for n."""
        op = object.__new__(cls)
        op.n = n
        op.cols = cols
        return op

    @classmethod
    def identity(cls, n: int) -> "Operator":
        return cls(n, [QKClass.basis_element(w, n) for w in enumerate_basis(n)])

    def column(self, v) -> QKClass:
        return self.cols[linear_index(v, self.n)]

    def _term_columns(self) -> list[tuple]:
        """Column p as a tuple of ``(code, c)`` terms, indexed by basis position p: what the kernel reads for A."""
        return [tuple(col._terms.items()) for col in self.cols]

    def compose(self, other: "Operator") -> "Operator":
        """self . other (apply other first), one kernel pass per column of other."""
        if other.n != self.n:
            raise RankMismatch(f"operator for n={self.n} composed with operator for n={other.n}")
        parts = [(1, 0, 0, self._term_columns(), other.cols)]
        return Operator._trusted(self.n, _combine(self.n, parts, len(other.cols)))

    def degree_support(self) -> set[CurveDegree]:
        return set().union(*(col.degree_support() for col in self.cols))


def quantum_correction(h: str, v, n: int) -> QKClass:
    """Pure-Q part of O_h * O_v for a hyperplane class h in {"h1", "h2"}.

    Assembled from the degree-l1, l2 and l1+l2 contributions; the classical
    part is not included.
    """
    _check_hyperplane(h)
    return QKClass._trusted(n, _quantum_terms(h, check_index(v, n), n))


def _quantum_terms(h: str, v: SchubertIndex, n: int) -> dict:
    """:func:`quantum_correction` as a flat ``{code: c}`` map, on a trusted h and v."""
    k, p = v
    single: dict = {}  # the degree-l1 part for h1, the degree-l2 part for h2
    if h == "h1":
        deg = DEGREE_L1
        if k == 1:
            single = {(n - 1, n) if p == n else (n, p): 1}
        elif (k, p) == (2, 1):
            single = {(n, 1): 1, (n, 2): -1}
    else:
        deg = DEGREE_L2
        if p == n:
            single = {(1, 2) if k == 1 else (k, 1): 1}
        elif (k, p) == (n, n - 1):
            single = {(n, 1): 1, (n - 1, 1): -1}
    terms = {_encode(_position(i, j, n), *deg): c for (i, j), c in single.items()}
    # the degree-(l1+l2) part, O_{n,1} - O_h, appears only on the point class
    if (k, p) == (1, n):
        terms[_encode(_position(n, 1, n), *DEGREE_L1L2)] = 1
        terms[_encode(_position(*_hyperplane(h, n), n), *DEGREE_L1L2)] = -1
    return terms


def chevalley_apply(h: str, v, n: int) -> QKClass:
    """O_h * O_v: classical product plus quantum correction."""
    v = check_index(v, n)
    _check_hyperplane(h)
    return _chevalley_column(h, v, n)


def _chevalley_column(h: str, v: SchubertIndex, n: int) -> QKClass:
    """:func:`chevalley_apply` on a trusted h and v.

    The two parts share no key: the classical terms have degree (0, 0), the
    quantum ones a nonzero degree.
    """
    terms = {_position(i, j, n) << _POS: c for (i, j), c in _k_terms(_hyperplane(h, n), v, n).items() if c}
    terms.update(_quantum_terms(h, v, n))
    return QKClass._trusted(n, terms)


def chevalley_operator(h: str, n: int) -> Operator:
    """Multiplication by O_h1 or O_h2 as an operator: its columns in basis order."""
    _check_hyperplane(h)
    return Operator._trusted(n, [_chevalley_column(h, v, n) for v in enumerate_basis(check_rank(n))])


class MultiplicationTable(Record):
    """All star-multiplication operators M_u in basis order."""

    __slots__ = ("n", "ops", "step_c_variant", "arbitration")

    def __init__(
        self, n: int, ops: list[Operator], step_c_variant: str, arbitration: dict | None = None
    ):
        super().__init__(n, ops, step_c_variant, {} if arbitration is None else arbitration)

    def matrix(self, u) -> Operator:
        return self.ops[linear_index(u, self.n)]

    def product(self, u, v) -> QKClass:
        return self.matrix(u).column(v)


def _steps(n: int, m: dict, h1, h2, hc):
    """Steps (a), (c), (b), (d), (e) in that order: yield (w, parts) for every w but the unit.

    x_w is the sum of ``parts``, given in the kernel's own format (see
    :func:`qkflag.poly._combine`): ``(s, b1, b2, A, x)`` stands for
    s * Q1^b1 Q2^b2 * A x.  A is ``h1``, ``h2``, ``hc`` (the H? of step (c))
    or :data:`~qkflag.poly._IDENTITY`, each a kernel column map, and x is an
    earlier value, read from ``m`` (keyed by (i, j)) when the step is
    reached.  Step (c) reads only x_{2,1} and the seed x_{n,1}, so it runs
    right after (a); step (d) reads (b) and (c).
    """
    for k in range(n - 1, 1, -1):
        yield (k, 1), [(1, 0, 0, h1, m[k + 1, 1])]
    seed = m[n, 1]
    yield (1, 2), [(1, 0, 0, h1, m[2, 1]), (1, 1, 0, hc, seed), (-1, 1, 0, _IDENTITY, seed)]
    for k in range(2, n + 1):
        for p in range(2, k):
            yield (k, p), [(1, 0, 0, h2, m[k, p - 1])]
    for p in range(2, n):
        y = m[p - 1, p]
        yield (p, p + 1), [(1, 0, 0, h1, m[p + 1, p]), (1, 0, 0, h2, y), (-1, 0, 0, _IDENTITY, y)]
    for p in range(3, n + 1):
        for k in range(p - 2, 0, -1):
            yield (k, p), [(1, 0, 0, h1, m[k + 1, p])]


def _recurrence(n: int, m: dict, h1: Operator, h2: Operator, variant: str, widths=None):
    """Evaluate steps (a)-(e) of :func:`_steps`: yield (w, x_w) for every w but the unit.

    ``m`` is keyed by (i, j) and holds the seed x_{n,1}, a list of columns
    c_0, c_1, ...; x_w is then the list M_w c_0, M_w c_1, ...  Each step
    reads ``m`` when it runs, so a caller that stores each yielded value in
    ``m`` runs the whole recurrence.  ``widths`` gives the number of leading
    columns each step evaluates, one int per step; by default all of them.
    ``variant`` picks the hyperplane class H? of step (c).  H1 and H2 are
    prepared for the kernel once, as plain column maps, and a step is one
    :func:`qkflag.poly._combine` call, one pass per column.
    """
    h1, h2 = h1._term_columns(), h2._term_columns()
    steps = _steps(n, m, h1, h2, h2 if variant == "h2" else h1)
    for (w, parts), width in zip(steps, repeat(len(m[n, 1])) if widths is None else widths):
        yield w, _combine(n, parts, width)


def _layout(n: int) -> list[SchubertIndex]:
    """The column order of a build's values: the unit, then every other w in reverse recurrence order.

    The step of rank r (the r-th that :func:`_steps` yields; the unit has
    rank 0) evaluates the first N - r + 1 columns: the unit and every w of
    rank r or more, a prefix of every earlier value's list.
    """
    # _steps only passes the values it reads on, so any placeholder will do
    ranked = [w for w, _ in _steps(n, defaultdict(int), None, None, None)]
    return [unit_index(n), *(SchubertIndex(*w) for w in reversed(ranked))]


def _commute(h1: Operator, h2: Operator) -> bool:
    """H1 H2 = H2 H1: two compositions, one kernel pass per column each."""
    return h1.compose(h2) == h2.compose(h1)


def _mirrored(h1: Operator, h2: Operator) -> list[Operator] | None:
    """Every M_u of the h2 recurrence on H1 and H2, each unordered product evaluated once.

    This function alone decides the ring certificate.  Every M_u is a
    polynomial in H1, H2 and M_{n,1} = Id, so once H1 H2 = H2 H1 and column
    e_{n,1} of every M_u is e_u, O_u * O_v = M_u M_v e = M_v M_u e =
    O_v * O_u: the operators are commutative, O_{n,1} is their unit, and
    they are associative (see :func:`qkflag.verify.ring_axiom_checks`).
    The result is None unless both hold: H1 H2 = H2 H1 is checked first,
    and column e_{n,1} of every M_w by the kernel pass that evaluates it.
    The h2 build runs this on the Chevalley operators, :func:`certify_ring`
    on a table's own H1 and H2.

    The values are laid out by :func:`_layout` and evaluated at widths
    N, N - 1, ..., 2: the step of rank r evaluates only the columns v of
    rank r or more.  A step's column j reads only column j of earlier
    values, so the columns it skips change nothing else.  Row u then takes
    O_u * O_v from x_u where v is laid out at or before u (v has u's rank
    or more), and the same :class:`QKClass` object O_v * O_u from x_v
    elsewhere: sharing is safe because no code changes a class's terms in
    place.
    """
    n = h1.n
    if not _commute(h1, h2):
        return None
    layout = _layout(n)
    m = {layout[0]: [QKClass._trusted(n, {_position(*w, n) << _POS: 1}) for w in layout]}
    for w, x in _recurrence(n, m, h1, h2, "h2", range(len(layout), 1, -1)):
        if x[0]._terms != {_position(*w, n) << _POS: 1}:
            return None
        m[w] = x
    at = {w: t for t, w in enumerate(layout)}
    xs, place = zip(*((m[w], at[w]) for w in enumerate_basis(n)))
    # x_u holds the columns up to u's own place in the layout, x_v the rest of row u
    return [
        Operator._trusted(n, [x[t] if t <= s else y[s] for y, t in zip(xs, place)])
        for x, s in zip(xs, place)
    ]


def certify_ring(table: MultiplicationTable) -> bool:
    """True if the table is :func:`_mirrored` run on its own H1 = M_{n-1,1} and H2 = M_{n,2}.

    Reads nothing but the table; the certificate is explained in
    :func:`_mirrored`.  By induction over the steps, equality is the
    condition that every M_u of the table is its recurrence step (a)-(e),
    step (c) with H2, applied to the table's earlier operators.  False
    means only that the brute-force check has to decide.
    """
    n = table.n
    return _mirrored(table.matrix(h1_index(n)), table.matrix(h2_index(n))) == table.ops


def _is_mirrored(ops: list[Operator]) -> bool:
    """True when O_v * O_u is the same class object as O_u * O_v for every u != v.

    This is the mirrored read, explained here once.  :func:`_mirrored` lays
    out a build so, and every scan of such a table (the classical one here,
    the max degree, positivity and the conjecture diff) reads each shared
    product once: :func:`_triangle` walks only the products where v is u or
    comes after it, and :func:`_both_ways` reports a failing product's rows
    under (u, v) and (v, u), so a scan keeps only what is symmetric in u and
    v.  Identity is a fact about the objects, not an assumption: N(N-1)/2
    ``is`` tests and no equality compare.  A loaded table, an h1 table, or a
    table with one pair unshared is read in full.
    """
    for a, op in enumerate(ops):
        for b in range(a + 1, len(ops)):
            if op.cols[b] is not ops[b].cols[a]:
                return False
    return True


def _triangle(ops: list[Operator], mirrored: bool):
    """Yield (a, row) for each basis position a of u; row yields (b, O_u * O_v).

    Every b, or only b >= a if ``mirrored``.
    """
    for a, op in enumerate(ops):
        start = a if mirrored else 0
        yield a, enumerate(op.cols[start:], start)


def _both_ways(found: dict, mirrored: bool) -> list:
    """The items of ``found``, keyed by (a, b), sorted by key: the rows of a scan in basis order.

    A scan of a ``mirrored`` table stores a failing product only under
    (a, b) with a <= b; its value then also stands for (b, a), so it must
    read only what is symmetric in u and v.
    """
    if mirrored:
        found.update({(b, a): x for (a, b), x in found.items() if a != b})
    return sorted(found.items())


def _classical_mismatches(n: int, ops: list[Operator], mirrored: bool = False) -> list:
    """(u, v, w, got - want) wherever the Q -> 0 limit of O_u * O_v is off.

    ``want`` is the formula's {w: coeff} map, :func:`qkflag.kring._k_terms`.
    It reads only the class (i+k, j+p, i<j or k<p) of u = (i, j),
    v = (k, p), which is symmetric in u and v, so it runs once per class,
    and a ``mirrored`` table is read once per unordered product (see
    :func:`_is_mirrored`).  Each column's constant terms, the codes (see
    :mod:`qkflag.poly`) with no degree bits, are compared with ``want`` in
    one walk over the column, each w read off its code's basis position;
    the difference ``got`` - ``want`` is built only for a column that
    fails.  Rows come in the written order: u, v, then w, each in basis
    order.
    """
    basis = enumerate_basis(n)
    # the class as one int: 2((i + k)(2n + 1) + j + p) + (i < j or k < p)
    coords = [2 * (i * (2 * n + 1) + j) for i, j in basis]
    low = [i < j for i, j in basis]
    pos, degrees = _POS, _DEGREES
    k_terms: dict = {}
    found = {}  # (a, b) -> [(w, got - want)]
    for a, row in _triangle(ops, mirrored):
        ca, la = coords[a], low[a]
        for b, col in row:
            cls = ca + coords[b] + (la or low[b])
            want = k_terms.get(cls)
            if want is None:
                want = k_terms[cls] = _k_terms(basis[a], basis[b], n)
            left = len(want)  # the formula's terms not met yet
            for code, c in col._terms.items():
                if not code & degrees:
                    if want.get(basis[code >> pos]) != c:
                        break
                    left -= 1
            else:  # no constant term differs: equal unless a formula term is missing
                if not left:
                    continue
            got = {basis[code >> pos]: c for code, c in col._terms.items() if not code & degrees}
            found[a, b] = [(w, c) for w in basis if (c := got.get(w, 0) - want.get(w, 0))]
    return [
        (basis[a], basis[b], w, c) for (a, b), diff in _both_ways(found, mirrored) for w, c in diff
    ]


def _noncommuting(n: int, ops: list[Operator]):
    """Yield each (u, v), u before v in basis order, with O_u * O_v != O_v * O_u.

    Two products that are one object are equal without a compare.
    """
    basis = enumerate_basis(n)
    for a, u in enumerate(basis):
        for b, v in enumerate(basis[a + 1 :], a + 1):
            x, y = ops[a].cols[b], ops[b].cols[a]
            if x is not y and x != y:
                yield u, v


def build_table(n: int, step_c: str = "auto") -> MultiplicationTable:
    """Build every multiplication operator M_u.

    ``step_c`` picks the hyperplane class H? of step (c), which subtracts
    the quantum part of O_h1 * O_{2,1}: "h2" (matching the corrections that
    seed H1, H2), "h1" (the variant stated alongside the iteration), or
    "auto" to judge both against the classical-limit and commutativity
    oracles and keep the survivor.  The two agree in the classical limit
    but give different tables.

    The h1 table is evaluated at full width on the identity's columns.  The
    h2 table is :func:`_mirrored` on the Chevalley operators, and is built
    only if it passes the ring certificate: it is then commutative, with
    each unordered product evaluated once.  A failed certificate raises.

    "auto" builds only the h2 table and scans it for the classical limit;
    the h1 outcomes follow.  Steps (a) do not depend on the variant, and at
    step (c) M^{h1}_{1,2} - M^{h2}_{1,2} = Q1 (H1 - H2) M_{n,1} = Q1 (H1 - H2).
    Every later step multiplies that difference by operators over Z[Q1,Q2],
    so the two classical limits agree entry by entry.  The h2 table commutes
    and M_{n,1} = Id, so M^{h2}_{1,2} e_{n,1} = e_{1,2}: column e_{n,1} of
    M^{h1}_{1,2} is e_{1,2} + Q1 (H1 - H2) e_{n,1}.  It differs from
    M^{h1}_{n,1} e_{1,2} = e_{1,2}, so h1 never commutes: the certificate
    has checked the unit columns H1 e_{n,1} = e_{n-1,1} and
    H2 e_{n,1} = e_{n,2}, and these differ.
    """
    check_rank(n)
    if step_c not in ("h1", "h2", "auto"):
        raise ValueError(f"step_c must be 'h1', 'h2' or 'auto', got {step_c!r}")
    h1, h2 = chevalley_operator("h1", n), chevalley_operator("h2", n)
    if step_c == "h1":
        basis = enumerate_basis(n)
        m = {unit_index(n): [QKClass._trusted(n, {t << _POS: 1}) for t in range(len(basis))]}
        for w, x in _recurrence(n, m, h1, h2, "h1"):
            m[w] = x
        return MultiplicationTable(n, [Operator._trusted(n, m[w]) for w in basis], "h1")
    ops = _mirrored(h1, h2)
    if ops is None:
        raise RuntimeError(f"the h2 recurrence fails the ring certificate at n={n}")
    if step_c == "h2":
        return MultiplicationTable(n, ops, "h2")
    if _classical_mismatches(n, ops, True):
        raise RuntimeError(f"the h2 table fails the classical-limit oracle at n={n}")
    arbitration = {"chosen": "h2", "outcomes": {"h2": {"classical_limit_ok": True, "commutative_ok": True},
                                                "h1": {"classical_limit_ok": True, "commutative_ok": False}}}
    return MultiplicationTable(n, ops, "h2", arbitration=arbitration)


def qk_product(u, v, n: int, table: MultiplicationTable) -> QKClass:
    """O_u * O_v read from a prebuilt table."""
    if table.n != n:
        raise RankMismatch(f"table built for n={table.n}, asked for n={n}")
    return table.product(check_index(u, n), check_index(v, n))


def degree_bound_check(table: MultiplicationTable):
    """Check the hyperplane operators stay within Q-support {1, Q1, Q2, Q1Q2}.

    Also reports the maximal (d1, d2) over the whole table.  A maximum does
    not depend on the order of u and v, so on a mirrored table (see
    :func:`_is_mirrored`) it reads each shared product once.
    """
    from .verify import VerificationReport

    n = table.n
    basis = enumerate_basis(n)
    counterexamples = []
    for h, hw in (("h1", h1_index(n)), ("h2", h2_index(n))):
        for v, col in zip(basis, table.matrix(hw).cols):
            bad = col.degree_support() - CHEVALLEY_DEGREES
            for deg in sorted(bad):
                counterexamples.append(
                    {"h": h, "v": [v.i, v.j], "d1": deg[0], "d2": deg[1]}
                )
    # one pass over the codes: their degree fields d1 << 12 | d2 order as (d1, d2) do
    top = max(
        (
            code & _DEGREES
            for _, row in _triangle(table.ops, _is_mirrored(table.ops))
            for _, col in row
            for code in col._terms
        ),
        default=0,
    )
    d1, d2 = _degree(top)
    return VerificationReport(
        check="degree",
        n=n,
        passed=not counterexamples,
        counterexamples=counterexamples,
        details={"max_degree": {"d1": d1, "d2": d2}},
    )


def table_json_rows(table: MultiplicationTable):
    """The JSON entries one row of u at a time: one per nonzero O_w in O_u * O_v, keys u, v, w, poly."""
    basis = enumerate_basis(table.n)
    for u, op in zip(basis, table.ops):
        yield [{"u": [u.i, u.j], "v": [v.i, v.j], **g} for v, col in zip(basis, op.cols) for g in _json_groups(col)]


def table_to_json(table: MultiplicationTable) -> dict:
    """``{"n": n, "entries": [...]}``, the rows of :func:`table_json_rows` in the written order."""
    return {"n": table.n, "entries": [e for row in table_json_rows(table) for e in row]}


def table_from_json(obj) -> MultiplicationTable:
    """Rebuild a table from the golden-file layout (no re-arbitration).

    Raises :class:`MalformedTable` unless ``obj`` is an object with an int
    ``n`` and an ``entries`` list, every index is a pair of ints (not bools)
    valid for n, every degree is below 2^11 (see :mod:`qkflag.poly`), no
    (u, v, w) repeats, and every product O_u * O_v has an
    entry; zero coefficients are dropped first, so a product whose entries
    are all 0 has none.  A list shorter than the N^2 products (N = n(n-1))
    is refused before the basis is built, so a large ``n`` allocates nothing.
    Everything is keyed by basis position: an index is looked up in one map
    from each basis pair to its position, each entry's terms go straight
    into the flat map of O_u * O_v at ``pu * N + pv``, and the rows are
    slices of that list, wrapped without being validated again.
    """
    if not isinstance(obj, dict) or type(obj.get("n")) is not int:
        raise MalformedTable("cached table must be a JSON object with an integer 'n'")
    if not isinstance(entries := obj.get("entries"), list):
        raise MalformedTable("cached table has no 'entries' list")
    n = check_rank(obj["n"])
    N = basis_size(n)
    if len(entries) < N * N:
        raise MalformedTable(f"cached table has {len(entries)} entries for {N * N} products")
    basis = enumerate_basis(n)
    at = {w: p for p, w in enumerate(basis)}  # a pair (i, j) -> its basis position
    cols = [{} for _ in range(N * N)]  # the flat map of O_u * O_v at pu * N + pv
    seen = set()  # (pu * N + pv) * N + pw of every entry read
    for k, e in enumerate(entries):
        try:
            key = 0
            for name in ("u", "v", "w"):
                i, j = x = e[name]
                # (1.0, 2) and (True, 2) are equal to (1, 2), so only exact ints may hit
                if type(i) is not int or type(j) is not int or (i, j) not in at:
                    check_index(x, n)  # raises: every valid pair is in at
                key = key * N + at[i, j]
            uv, pw = divmod(key, N)
            cols[uv].update([(_encode(pw, d1, d2), c) for (d1, d2), c in _poly_terms(e["poly"]).items()])
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedTable(f"cached table entry {k} is malformed: {exc!r}") from None
        if key in seen:
            u, v, w = basis[uv // N], basis[uv % N], basis[pw]
            raise MalformedTable(f"cached table repeats {u.label()} * {v.label()} at {w.label()}")
        seen.add(key)
    for p, col in enumerate(cols):
        if not col:
            raise MalformedTable(f"cached table has no entry for {basis[p // N].label()} * {basis[p % N].label()}")
        cols[p] = QKClass._trusted(n, col)
    ops = [Operator._trusted(n, cols[p:p + N]) for p in range(0, N * N, N)]
    return MultiplicationTable(n, ops, step_c_variant="loaded")
