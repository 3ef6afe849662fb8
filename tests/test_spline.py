"""Tests for the order-generic parts of the spline solver: the weight-set
type, the closure table and the series start at order 4."""

import math
from fractions import Fraction

import pytest

from nlosc.spline import (
    CLOSURES,
    IMPROVED_SET4,
    IMPROVED_SET6,
    WeightSet,
    closure_rows,
    min_n,
    solve,
)
from nlosc.verify import METHODS, Method, case_by_id, max_abs_error

F = Fraction


def test_weight_set_order_and_full_stencil():
    assert IMPROVED_SET4.order == 4 and IMPROVED_SET6.order == 6
    assert IMPROVED_SET4.weights == (F(-1, 720), F(31, 180), F(79, 120), F(31, 180), F(-1, 720))
    assert sum(IMPROVED_SET6.weights) == 1 and len(IMPROVED_SET6.weights) == 7


@pytest.mark.parametrize("closure", [name for name, rows in CLOSURES.items() if rows])
def test_tabulated_closure_reaches_node_p_plus_2(closure):
    rows = CLOSURES[closure]
    p = len(rows) + 1
    nodes = [
        j
        for cond in rows
        for j, _ in cond.node_derivs + cond.node_values + cond.bracket_derivs
    ]
    assert max(nodes) == p + 2 == min_n(p)
    assert closure_rows(closure, p) is rows


def test_closure_rows_reject_unknown_and_wrong_order():
    assert closure_rows("series", 4) == closure_rows("series", 6) == ()
    with pytest.raises(ValueError, match="unknown closure"):
        closure_rows("voodoo", 4)
    with pytest.raises(ValueError, match="tabulated for order 4"):
        closure_rows("improved", 6)
    with pytest.raises(ValueError, match="tabulated for order 6"):
        closure_rows("printed", 4)


def test_method_checks_its_closure_at_construction():
    with pytest.raises(ValueError):
        Method("bad", IMPROVED_SET6, "standard")
    with pytest.raises(ValueError):
        Method("bad", IMPROVED_SET4, "voodoo")
    method = Method("improved4-series", IMPROVED_SET4, "series")
    assert (method.order, method.min_n) == (4, 6)


def test_presets_take_their_order_from_the_weights():
    for method in METHODS.values():
        assert method.order == method.coefficients.order
        assert method.min_n == method.order + 2


@pytest.mark.parametrize("case_id", [1, 2])
def test_series_start_at_order_4_converges_below_the_improved_closure(case_id):
    case = case_by_id(case_id)

    def errors(closure):
        return [
            max_abs_error(solve(case.ivp, n, IMPROVED_SET4, closure), case.exact)
            for n in (12, 24, 48)
        ]

    series, improved = errors("series"), errors("improved")
    # measured slopes 5.7-5.9 on both cases
    assert all(math.log2(series[i] / series[i + 1]) >= 5 for i in range(2)), series
    assert all(s < i for s, i in zip(series, improved)), (series, improved)
