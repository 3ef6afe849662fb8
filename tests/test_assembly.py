"""Tests for the head of a tabulated closure and the marching solve."""

import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nlosc import spline
from nlosc.chain import HighOrderIVP
from nlosc.expr import parse, values_on_grid
from nlosc.spline import (
    IMPROVED_SET4,
    SWEEP_MIN_NODES,
    _loop,
    _march_rows,
    _series_start,
    _sweep,
    closure_rows,
    grid_values,
    head_system,
    march,
    min_n,
    solve_head,
    zeroing_weights,
)
from nlosc.verify import METHODS, case_by_id, max_abs_error
from test_spline import PRESET_CASES, four_ring

# each built-in case with the presets of its order: improved and standard
# fourth-order closure, printed sixth-order closure and the series start
CASE_PRESETS = [
    (1, "improved4"),
    (1, "table3-col1"),
    (2, "improved4"),
    (2, "table3-col1"),
    (3, "table5-col1"),
    (3, "improved6"),
    (4, "table5-col1"),
    (4, "improved6"),
]
# one preset per case, covering both fourth-order closures, the printed
# sixth-order closure and the series start
ONE_PER_CASE = [(1, "improved4"), (2, "table3-col1"), (3, "table5-col1"), (4, "improved6")]
# every preset with a tabulated closure, on each case of its order
TABULATED = [(name, case_id) for name, case_id in PRESET_CASES if METHODS[name].closure != "series"]


def collocation(method, ivp, n):
    """The row data of :func:`dense_assembly` for a preset: its weights,
    its tabulated closure rows, or for the series start rows pinning
    y_1..y_{p-1} to the start's values."""
    m = METHODS[method]
    rows = closure_rows(m.closure, ivp.order)
    pinned = ()
    if not rows:
        a, b = ivp.interval
        pinned = tuple(enumerate(_series_start(ivp, (b - a) / n)[0]))[1:]
    return {"weights": m.coefficients.weights, "end_conditions": rows, "pinned": pinned}


def dense_assembly(ivp, n, weights, end_conditions, pinned=(), dtype=np.float64, band=False):
    """Row-by-row assembly of the n x n collocation system: ``(matrix, rhs)``.

    The reference for the head and the march: every row is built on its
    own over the nodes 0..n, with the arithmetic of the head's rows done in
    the same order, and node 0 is moved to the right-hand side last.  With
    ``band=True`` the same entries are stored as the (n, p + 4) band
    instead, entry [r, k] multiplying y_{r+k-p+1}, so a fine grid needs no
    n x n array."""
    p = ivp.order

    def cast(q):
        q = Fraction(q)
        return dtype(q.numerator) / dtype(q.denominator)

    def at(row, j):
        """Where the entry of node j in ``row`` is stored."""
        return (row, j - 1 - row + p) if band else (row, j)

    a, b = ivp.interval
    h = (dtype(b) - dtype(a)) / dtype(n)
    t = dtype(a) + h * np.arange(n + 1, dtype=dtype)
    f, g = values_on_grid(ivp.f, t), values_on_grid(ivp.g, t)
    u = [dtype(v) for v in ivp.u]
    hp = h**p
    delta = [dtype((-1) ** (p - k) * math.comb(p, k)) for k in range(p + 1)]

    rows = np.zeros((n, p + 4 if band else n + 1), dtype=dtype)
    rhs = np.zeros(n, dtype=dtype)
    for row, (j, value) in enumerate(pinned):
        rows[at(row, j)] = dtype(1)
        rhs[row] = dtype(value)
    for row, cond in enumerate(end_conditions, start=len(pinned)):
        value = dtype(0)
        for j, c in cond.node_derivs:
            rows[at(row, j)] += hp * cast(c) * f[j]
            value += hp * cast(c) * g[j]
        for j, d in cond.node_values:
            rows[at(row, j)] += cast(d)
        for m, e in cond.initial_derivs:
            value -= cast(e) * h**m * u[m]
        rhs[row] = value
    for i in range(p, n + 1):
        value = dtype(0)
        for k in range(p + 1):
            j = i - p + k
            w = cast(weights[k])
            rows[at(i - 1, j)] = delta[k] + hp * w * f[j]
            value += hp * w * g[j]
        rhs[i - 1] = value
    # only the first p rows reach node 0
    for row in range(p):
        rhs[row] -= rows[at(row, 0)] * u[0]
        rows[at(row, 0)] = 0
    return (rows, rhs) if band else (rows[:, 1:], rhs)


@pytest.mark.parametrize("dtype", [np.float64])
@pytest.mark.parametrize("n", [8, 48, 200])
@pytest.mark.parametrize("case_id, method", CASE_PRESETS)
def test_densified_band_matches_dense_assembly(case_id, method, n, dtype):
    # the band form of the reference, which the fine-grid residual checks
    # read, holds the entries of its dense form and nothing else
    ivp = case_by_id(case_id).ivp
    p = ivp.order
    kw = collocation(method, ivp, n)
    band, rhs = dense_assembly(ivp, n, **kw, dtype=dtype, band=True)
    assert band.shape == (n, p + 4) and band.dtype == dtype
    matrix, expected_rhs = dense_assembly(ivp, n, **kw, dtype=dtype)
    densified = np.zeros((n, n + p + 3), dtype=dtype)
    for r in range(n):
        densified[r, r : r + p + 4] = band[r]
    assert not densified[:, :p].any() and not densified[:, p + n :].any()
    assert np.array_equal(densified[:, p : p + n], matrix)
    assert np.array_equal(rhs, expected_rhs)


@pytest.mark.parametrize(
    "field, node",
    [("node_derivs", 6), ("node_values", 7), ("node_values", -1)],
)
def test_closure_row_outside_the_band_is_rejected_on_every_call(field, node):
    # row 1 of an order-4 closure may reach the nodes -2..5 of its band row;
    # a node below 0 is no grid node at all
    ivp = case_by_id(1).ivp
    rows = list(closure_rows("standard", 4))
    rows[1] = replace(rows[1], **{field: getattr(rows[1], field) + ((node, Fraction(1)),)})
    weights = IMPROVED_SET4.weights
    _, h, f, g = grid_values(ivp, 16)
    message = f"closure row 1 reaches node {node}, outside the band"
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            solve_head(f, g, h, ivp.u, weights, tuple(rows))


def head_inputs(name, case_id, n):
    """``(f, g, h, u, weights, end_conditions)`` of the head of a
    tabulated preset on a grid of n."""
    method, ivp = METHODS[name], case_by_id(case_id).ivp
    _, h, f, g = grid_values(ivp, n)
    rows = closure_rows(method.closure, ivp.order)
    return f, g, h, ivp.u, method.coefficients.float_weights, rows


@pytest.mark.parametrize("n", ["min_n", 16, 64, 1024])
@pytest.mark.parametrize("name, case_id", TABULATED)
def test_head_system_is_the_leading_block_of_the_dense_assembly(name, case_id, n):
    method, ivp = METHODS[name], case_by_id(case_id).ivp
    n = method.min_n if n == "min_n" else n
    size = ivp.order + 2
    inputs = head_inputs(name, case_id, n)
    block, rhs = head_system(*inputs)
    matrix, expected_rhs = dense_assembly(ivp, n, **collocation(name, ivp, n))
    # the head rows hold no unknown past y_{p+2}
    assert not matrix[:size, size:].any()
    assert_same_bits(block, matrix[:size, :size])
    assert_same_bits(np.array(rhs), expected_rhs[:size])
    values, _ = solve_head(*inputs)
    assert values[0] == ivp.u[0]
    expected = np.linalg.solve(matrix[:size, :size], expected_rhs[:size])
    assert_same_bits(np.array(values[1:]), expected)


@pytest.mark.parametrize("name, case_id", TABULATED)
def test_head_needs_p_minus_1_closure_rows(name, case_id):
    *inputs, rows = head_inputs(name, case_id, 16)
    p = len(rows) + 1
    for wrong in (rows[:-1], rows + rows[:1], ()):
        with pytest.raises(ValueError, match=f"closure must contribute {p - 1} rows"):
            solve_head(*inputs, wrong)


def adversarial(rng, shape):
    """Values whose sum depends on the order of addition: magnitudes 1e-20,
    1 and 1e20 of either sign, signed zeros, and whole columns of -0.0,
    which a fold from 0.0 turns into 0.0."""
    values = rng.choice([-1e20, -1.0, -1e-20, 1e-20, 1.0, 1e20], size=shape)
    values *= rng.uniform(0.5, 2.0, size=shape)
    zeros = rng.random(shape) < 0.2
    values[zeros] = rng.choice([0.0, -0.0], size=shape)[zeros]
    values[:, rng.random(shape[1]) < 0.05] = -0.0
    return values


@pytest.mark.parametrize("p", [4, 6, 8, 16])
def test_fold_down_axis_0_adds_row_after_row_from_zero(p):
    # _sweep forms its sums with np.add.reduce(axis=0, initial=0.0); that is
    # the loop's left fold only if numpy adds the rows in order, not
    # pairwise as it does along a row.  A single column (m = 1) is reduced
    # along itself, pairwise from p = 8 on, so _sweep leaves it to the loop.
    rng = np.random.default_rng(p)
    for m in (2, 3, 7, 8, 9, 127, 128, 129, 1000, 4999, 5000):
        for _ in range(3):
            rows = adversarial(rng, (p, m))
            levels = np.zeros((p + 2, m + 1))
            levels[:p, :m] = rows
            expected = np.zeros(m)
            for row in rows:
                expected = expected + row
            for a in (rows, levels[:p, :m]):
                out = np.empty(m)
                np.add.reduce(a, axis=0, initial=0.0, out=out)
                assert_same_bits(out, expected)


def backward_error(band, rhs, x):
    """Normwise backward error of x against the rows of a band from
    :func:`dense_assembly`."""
    n, p = len(band), band.shape[1] - 4
    padded = np.zeros(n + p + 3)
    padded[p : p + n] = x
    windows = np.lib.stride_tricks.sliding_window_view(padded, p + 4)
    residual = rhs - np.einsum("ij,ij->i", band, windows)
    scale = np.max(np.sum(np.abs(band), axis=1)) * np.max(np.abs(x)) + np.max(np.abs(rhs))
    return float(np.max(np.abs(residual)) / scale)


@pytest.mark.parametrize("case_id, method", CASE_PRESETS)
def test_march_matches_dense_solve(case_id, method):
    ivp = case_by_id(case_id).ivp
    p = ivp.order
    for n in (p + 2, p + 3, 16, 33, 64):
        matrix, rhs = dense_assembly(ivp, n, **collocation(method, ivp, n))
        x = METHODS[method].solve(ivp, n).y[1:]
        reference = np.linalg.solve(matrix, rhs)
        if n == p + 2 and METHODS[method].closure != "series":
            # the head block of a tabulated closure is the whole system
            assert np.array_equal(x, reference), n
        # two backward-stable solves differ by at most the forward-error
        # bound cond * eps; a wrong row is off by O(h^p) or worse
        bound = np.linalg.cond(matrix, np.inf) * np.finfo(float).eps
        assert np.max(np.abs(x - reference)) <= bound * np.max(np.abs(reference)), n


@pytest.mark.parametrize("case_id, method", CASE_PRESETS)
def test_march_satisfies_assembled_rows(case_id, method):
    ivp = case_by_id(case_id).ivp
    for n in (ivp.order + 2, 64, 65, 200, 1000, 4096):
        band, rhs = dense_assembly(ivp, n, **collocation(method, ivp, n), band=True)
        x = METHODS[method].solve(ivp, n).y[1:]
        # about 1e-17..2e-16 here; a wrong row leaves O(h^p) or worse
        assert backward_error(band, rhs, x) <= 1e-15, n


@pytest.mark.parametrize("n", [128, 256, 1024, 4096])
@pytest.mark.parametrize("case_id", [3, 4])
def test_series_start_holds_the_rounding_floor_on_fine_grids(case_id, n):
    # the truncation error is below 1e-15 here, so what is left is rounding
    case = case_by_id(case_id)
    assert max_abs_error(METHODS["improved6"].solve(case.ivp, n), case.exact) <= 1e-13


def test_series_start_differences_are_exact_for_polynomials():
    # y = 1 + t - t^3/2 + 3 t^5 with h = 1/8: every value and difference is
    # a short dyadic fraction, so the start must hit each one exactly
    coefficients = (1, 1, 0, Fraction(-1, 2), 0, 3)
    u = [math.factorial(m) * float(c) for m, c in enumerate(coefficients)]
    ivp = HighOrderIVP(f=parse("0"), g=parse("0"), interval=(0.0, 1.0), u=u)
    h = Fraction(1, 8)
    exact = [sum(c * (j * h) ** m for m, c in enumerate(coefficients)) for j in range(6)]
    values, stack = _series_start(ivp, float(h))
    assert values == [float(v) for v in exact]
    for k in range(6):
        difference = sum((-1) ** i * math.comb(k, i) * exact[5 - i] for i in range(k + 1))
        assert stack[k] == float(difference), k


@pytest.mark.parametrize("nodes", [5, SWEEP_MIN_NODES + 5], ids=["loop", "sweep"])
def test_zero_pivot_is_a_linear_algebra_error(nodes):
    # h^4 * w_4 * f = (1/2)^4 * (-1) * 16 = -1 at every node
    f, g = np.full(nodes + 4, 16.0), np.zeros(nodes + 4)
    weights = (-1, 2, 1, 2, -1)
    with pytest.raises(np.linalg.LinAlgError, match="the row of node 4 has a zero pivot"):
        march(f, g, 0.5, weights, np.zeros(4), np.zeros(4))


def assert_same_bits(a, b):
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def loop_and_sweep(f, g, h, weights, head, stack):
    """The march by :func:`_loop` and by :func:`_sweep`, each called
    directly, and by :func:`march`, which picks one of them by length."""
    rows = _march_rows(f, g, h, weights, len(head) - 1)
    loop, sweep = _loop(f, *rows, head, stack), _sweep(f, *rows, head, stack)
    assert_same_bits(march(f, g, h, weights, head, stack), loop)
    return loop, sweep


def head_end(ivp, method):
    """s, the last node of the head: p + 2 for a tabulated closure, p - 1
    for the series start."""
    return ivp.order + 2 if method.closure != "series" else ivp.order - 1


def march_inputs(ivp, method, nodes):
    """``(f, g, h, weights, head, stack)`` of a march of ``nodes`` nodes
    past the head of ``method``; the grid is cut to those nodes, so a march
    shorter than the smallest grid allows is a prefix of one."""
    rows, s = closure_rows(method.closure, ivp.order), head_end(ivp, method)
    _, h, f, g = grid_values(ivp, max(min_n(ivp.order), s + nodes))
    weights = method.coefficients.float_weights
    head = solve_head(f, g, h, ivp.u, weights, rows) if rows else _series_start(ivp, h)
    assert len(head[0]) == s + 1
    return (f[: s + nodes + 1], g[: s + nodes + 1], h, weights, *head)


@pytest.mark.parametrize("name, case_id", PRESET_CASES)
def test_sweep_gives_the_bits_of_the_loop(name, case_id):
    ivp, method = case_by_id(case_id).ivp, METHODS[name]
    s = head_end(ivp, method)
    for nodes in (0, 1, SWEEP_MIN_NODES - 1, SWEEP_MIN_NODES + 1, 512 - s, 4096 - s):
        loop, sweep = loop_and_sweep(*march_inputs(ivp, method, nodes))
        assert len(loop) == s + nodes + 1
        assert_same_bits(sweep, loop)


@pytest.mark.parametrize("n", [64, 512, 4096])
def test_sweep_gives_the_bits_of_the_loop_at_order_8(n):
    ivp = four_ring()
    _, h, f, g = grid_values(ivp, n)
    weights = zeroing_weights(8).float_weights
    loop, sweep = loop_and_sweep(f, g, h, weights, *_series_start(ivp, h))
    assert np.all(np.isfinite(loop))
    assert_same_bits(sweep, loop)


@pytest.mark.parametrize("order", [8, 16])
def test_sweep_gives_the_bits_of_the_loop_for_one_node(order):
    # one column of P and window terms: numpy would sum it pairwise
    weights = zeroing_weights(order).float_weights
    t = np.linspace(0.0, 1.0, order + 1)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        f = 10.0 ** rng.uniform(-2.0, 10.0) * (1 + 0.5 * np.sin(7 * t))
        g = rng.standard_normal(order + 1)
        head, stack = rng.uniform(-1, 1, order), rng.uniform(-1, 1, order)
        loop, sweep = loop_and_sweep(f, g, 1.0 / order, weights, head, stack)
        assert_same_bits(sweep, loop)


@given(
    order=st.sampled_from([4, 6, 8]),
    nodes=st.integers(min_value=0, max_value=600),
    scale=st.floats(min_value=-2.0, max_value=10.0),
    sign=st.sampled_from([1.0, -1.0]),
    variable=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sweep_gives_the_bits_of_the_loop_for_any_forcing(
    order, nodes, scale, sign, variable, seed
):
    # on [0, 1], |f| * T^p is 10^scale, up to 1e10; the head, the stack and
    # g are random, so the rows need not come from any smooth solution
    rng = np.random.default_rng(seed)
    n = order - 1 + nodes
    t = np.linspace(0.0, 1.0, n + 1)
    f = sign * 10.0**scale * (1 + 0.5 * np.sin(7 * t) if variable else np.ones_like(t))
    g = rng.standard_normal(n + 1)
    head, stack = rng.uniform(-1, 1, order), rng.uniform(-1, 1, order)
    weights = zeroing_weights(order).float_weights
    loop, sweep = loop_and_sweep(f, g, 1.0 / n, weights, head, stack)
    assert_same_bits(sweep, loop)


@pytest.mark.parametrize("limit", [1, 2, 3])
def test_sweep_hands_unsettled_steps_to_the_loop(monkeypatch, limit):
    # the built-in cases need 4-8 sweeps, so each limit here ends the
    # sweeps early and the loop finishes from the first unsettled step
    monkeypatch.setattr(spline, "SWEEP_LIMIT", limit)
    for case_id, name in ONE_PER_CASE:
        ivp, method = case_by_id(case_id).ivp, METHODS[name]
        loop, sweep = loop_and_sweep(*march_inputs(ivp, method, 512 - head_end(ivp, method)))
        assert_same_bits(sweep, loop)


def test_sweep_ends_when_the_march_overflows():
    # y grows like exp(1000 t): past about t = 0.7 it overflows to inf and
    # then to NaN, and the sweep still stops, with the loop's bits
    n = 600
    f, g = np.full(n + 1, -1e12), np.sin(np.arange(n + 1.0))
    head, stack = [0.0, 0.0, 0.0, 1.0], [1.0, 1.0, 0.0, 0.0]
    loop, sweep = loop_and_sweep(f, g, 1.0 / n, IMPROVED_SET4.float_weights, head, stack)
    assert np.any(np.isinf(loop)) and np.any(np.isnan(loop))
    assert_same_bits(sweep, loop)


@pytest.mark.parametrize("case_id, method", ONE_PER_CASE)
def test_fine_grid_solve_allocates_no_square_array(case_id, method):
    n = 4096
    ivp = case_by_id(case_id).ivp
    tracemalloc.start()
    try:
        y = METHODS[method].solve(ivp, n).y
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.shape == (n + 1,) and np.all(np.isfinite(y))
    # one n x n double matrix is 8 n^2 bytes; the whole solve stays far below
    assert peak < n * n
