"""The table's K-theoretic three-point invariants against the rationality rules.

See ``tests/oracles/gw_invariants.py`` for the invariants and the four rules.
"""

import pytest

from qkflag.conjecture import conjectured_product
from qkflag.poly import NovikovPolynomial, QKClass
from qkflag.qkring import build_table
from tests.oracles.gw_invariants import failures, negative_dimension_count

NEGATIVE_DIMENSION = {3: 297, 4: 2800, 5: 14000, 6: 49410, 7: 139601, 8: 337792}


@pytest.mark.parametrize("n", range(3, 9))
def test_table_invariants_obey_the_rationality_rules(n):
    # the rule "E = 0 at negative expected dimension" is tested on this many (u, v, w, d)
    assert negative_dimension_count(n) == NEGATIVE_DIMENSION[n]
    assert list(failures(n, build_table(n).product)) == []


def _fails(n, product):
    return next(failures(n, product), None) is not None


@pytest.mark.parametrize("n", [4, 5])
def test_h1_table_breaks_a_rule(n):
    assert _fails(n, build_table(n, "h1").product)


@pytest.mark.parametrize("n", range(3, 7))
def test_literal_gating_table_breaks_a_rule(n):
    assert _fails(n, lambda u, v: conjectured_product(u, v, n, "literal"))


@pytest.mark.parametrize("u, v, w, degree", [
    ((2, 3), (3, 2), (1, 4), (0, 0)),  # the classical O_1,4 of O_2,3 * O_3,2
    ((3, 1), (1, 3), (4, 3), (1, 0)),  # the Q1 O_4,3 of O_3,1 * O_1,3
])
def test_one_coefficient_raised_by_one_breaks_a_rule(u, v, w, degree):
    n = 4
    table = build_table(n)
    assert (w, *degree) in dict(table.product(u, v).ordered_terms())
    bump = QKClass(n, {w: NovikovPolynomial.monomial(degree)})

    def product(x, y):
        return table.product(x, y) + bump if (x, y) == (u, v) else table.product(x, y)

    assert _fails(n, product)
