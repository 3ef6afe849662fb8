"""Tests for the order-generic parts of the spline solver: the weight-set
type, the closure table and the series start at orders 4 and 8."""

import importlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

import nlosc
from conftest import consistency_residual, rk_oracle
from nlosc import spline
from nlosc.chain import OscillatorChain, reduce_chain
from nlosc.expr import parse
from nlosc.spline import (
    CLOSURES,
    IMPROVED_SET4,
    IMPROVED_SET6,
    WeightSet,
    closure_rows,
    min_n,
    truncation_brackets,
    zeroing_weights,
)
from nlosc.verify import METHODS, Method, case_by_id, max_abs_error

F = Fraction


def test_weight_set_order_and_full_stencil():
    assert IMPROVED_SET4.order == 4 and IMPROVED_SET6.order == 6
    assert IMPROVED_SET4.weights == (F(-1, 720), F(31, 180), F(79, 120), F(31, 180), F(-1, 720))
    assert sum(IMPROVED_SET6.weights) == 1 and len(IMPROVED_SET6.weights) == 7
    assert IMPROVED_SET6.half == (F(1, 30240), F(41, 5040), F(2189, 10080), F(4153, 7560))


# the weight set zeroing B_8..B_16 at p = 8
SET8 = WeightSet(
    (F(-1, 1209600), F(31, 151200), F(7193, 302400), F(35737, 151200), F(57977, 120960))
)


@pytest.mark.parametrize(
    "weights",
    [method.coefficients for method in METHODS.values()] + [SET8],
    ids=[*METHODS, "order8"],
)
def test_brackets_are_the_centred_monomial_residuals(weights):
    """On (t - p/2)^k the exact residual of the relation is k! B_k for
    every k, and zero for odd k."""
    p = weights.order
    brackets = truncation_brackets(weights.half, 7)
    for k in range(p, p + 14):
        residual = consistency_residual(weights.weights, p, k, origin=p // 2)
        expected = brackets[(k - p) // 2] if k % 2 == 0 else 0
        assert residual / math.factorial(k) == expected, k


def test_order8_set_zeroes_its_first_five_brackets():
    assert truncation_brackets(SET8.half, 6)[:5] == (0,) * 5
    assert truncation_brackets(SET8.half, 6)[5] != 0
    assert zeroing_weights(8) == SET8


def test_weight_sets_are_derived_once_per_order_and_held_weights():
    assert zeroing_weights(8) is zeroing_weights(8)
    assert zeroing_weights(4) is IMPROVED_SET4 and zeroing_weights(6, {}) is IMPROVED_SET6
    assert zeroing_weights(6, {0: 0}) is zeroing_weights(6, {0: F(0)})
    assert zeroing_weights(6, {0: 0, 2: 0}) is zeroing_weights(6, {2: 0, 0: 0})
    assert nlosc.zeroing_weights is zeroing_weights and "zeroing_weights" in nlosc.__all__


@pytest.mark.parametrize(
    "p, held", [(5, None), (2, None), (0, None), (-4, None), (6, {4: 0}), (6, {-1: 0}), (8, {5: 0})]
)
def test_weight_derivation_rejects_odd_or_small_orders_and_bad_indices(p, held):
    with pytest.raises(ValueError):
        zeroing_weights(p, held)


def test_weight_derivation_and_brackets_take_only_exact_values():
    with pytest.raises(TypeError):
        zeroing_weights(6, {0: 0.0})
    with pytest.raises(TypeError):
        truncation_brackets((0.25, 0.25, 0.5), 2)


def test_brackets_do_not_skip_h8_at_order_4():
    weights = WeightSet((F(0), F(1, 6), F(2, 3)))
    assert truncation_brackets(weights.half, 3) == (0, 0, F(1, 720))
    assert consistency_residual(weights.weights, 4, 8) / math.factorial(8) == F(1, 720)


@pytest.mark.parametrize("closure", [name for name, entry in CLOSURES.items() if entry])
def test_tabulated_closure_reaches_node_p_plus_2(closure):
    p = CLOSURES[closure].order
    rows = closure_rows(closure, p)
    assert len(rows) == p - 1
    nodes = [j for cond in rows for j, _ in cond.node_derivs + cond.node_values]
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


def test_solve_takes_an_integer_n_before_evaluating_f_or_g(monkeypatch):
    method, ivp = METHODS["improved4"], case_by_id(1).ivp
    solution = method.solve(ivp, np.int64(48))
    assert solution.n == 48
    assert solution.y.tobytes() == method.solve(ivp, 48).y.tobytes()

    def refuse(*args):
        raise AssertionError("f or g evaluated")

    monkeypatch.setattr(spline, "values_on_grid", refuse)
    for n in (48.5, 48.0, "48"):
        with pytest.raises(TypeError):
            method.solve(ivp, n)


@pytest.mark.parametrize("case_id", [1, 2])
def test_series_start_at_order_4_converges_below_the_improved_closure(case_id):
    case = case_by_id(case_id)

    def errors(closure):
        return [
            max_abs_error(Method(closure, IMPROVED_SET4, closure).solve(case.ivp, n), case.exact)
            for n in (12, 24, 48)
        ]

    series, improved = errors("series"), errors("improved")
    # measured slopes 5.7-5.9 on both cases
    assert all(math.log2(series[i] / series[i + 1]) >= 5 for i in range(2)), series
    assert all(s < i for s, i in zip(series, improved)), (series, improved)


def cold_verify_module():
    """nlosc.verify from a second copy of the package, every module imported
    anew: nothing the running copy built once per scheme is shared."""
    running = {name: m for name, m in sys.modules.items() if name.split(".")[0] == "nlosc"}
    for name in running:
        del sys.modules[name]
    try:
        return importlib.import_module("nlosc.verify")
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == "nlosc"]:
            del sys.modules[name]
        sys.modules.update(running)


PRESET_CASES = [
    (name, case_id)
    for name, method in METHODS.items()
    for case_id in (1, 2, 3, 4)
    if case_by_id(case_id).ivp.order == method.order
]


@pytest.mark.parametrize("name, case_id", PRESET_CASES)
def test_scheme_caches_give_the_same_bits_cold_and_warm(name, case_id):
    ns = (METHODS[name].min_n, 48)
    cold = cold_verify_module()
    first = [cold.METHODS[name].solve(cold.case_by_id(case_id).ivp, n).y for n in ns]

    # warm: every other closure and order solved in between
    for other in METHODS.values():
        other.solve(case_by_id(1 if other.order == 4 else 3).ivp, other.min_n + 5)
    method, ivp = METHODS[name], case_by_id(case_id).ivp
    for n, y in zip(ns, first):
        assert method.solve(ivp, n).y.tobytes() == y.tobytes(), n


@pytest.mark.parametrize("p", [4, 6, 8, 12, 16])
def test_series_tables_are_the_exact_monomial_differences(p):
    degree = max(13, 2 * p + 1)
    powers, differences = spline._series_tables(p, degree)
    assert powers == tuple(tuple(j**m for m in range(degree + 1)) for j in range(p))
    assert differences == tuple(
        tuple(
            sum((-1) ** i * math.comb(k, i) * (p - 1 - i) ** m for i in range(k + 1))
            for m in range(degree + 1)
        )
        for k in range(p)
    )
    assert all(type(v) is int for row in powers + differences for v in row)


def four_ring():
    """The order-8 problem of a 4-ring with unit frequencies, the same
    force on every oscillator, staggered positions and no initial motion."""
    chain = OscillatorChain(
        omegas=(1.0,) * 4,
        forces=(parse("exp(t)*sin(t)/(1+t^2)"),) * 4,
        interval=(0.0, 1.0),
        positions=tuple(0.1 * k for k in range(4)),
        velocities=(0.0,) * 4,
    )
    return reduce_chain(chain)


def test_series_start_degree_grows_with_the_order():
    # at p = 8 the start is exact through degree 2p + 1 = 17; degree 13
    # left the pivot at 4.1e-8 here (5.8e-12 now)
    ivp = four_ring()
    assert ivp.order == 8
    y = Method("improved8", zeroing_weights(8), "series").solve(ivp, 64).y
    reference = rk_oracle(ivp, steps=51200, grid_n=64).y
    assert np.max(np.abs(y - reference)) <= 1e-10
