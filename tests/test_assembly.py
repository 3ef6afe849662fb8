"""Tests for the band assembly and the block forward-substitution solve."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from nlosc._assembly import _BLOCK, band_to_dense, build_arrays, solve_collocation
from nlosc.expr import values_on_grid
from nlosc.spline import _collocation, assemble_system
from nlosc.verify import METHODS, case_by_id

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


def collocation(method, ivp, n):
    m = METHODS[method]
    return _collocation(ivp, n, m.coefficients, m.closure)


def dense_assembly(ivp, n, weights, end_conditions, min_n, pinned=(), dtype=np.float64):
    """Row-by-row dense assembly of the n x n collocation system.

    The reference for the band form: every row is built on its own over
    the nodes 0..n, with the arithmetic of the band assembly done in the
    same order, and node 0 is moved to the right-hand side last."""
    p = ivp.order

    def cast(q):
        q = Fraction(q)
        return dtype(q.numerator) / dtype(q.denominator)

    a, b = ivp.interval
    h = (dtype(b) - dtype(a)) / dtype(n)
    t = dtype(a) + h * np.arange(n + 1, dtype=dtype)
    f, g = values_on_grid(ivp.f, t), values_on_grid(ivp.g, t)
    u = [dtype(v) for v in ivp.u]
    hp = h**p
    delta = [dtype((-1) ** (p - k) * math.comb(p, k)) for k in range(p + 1)]

    rows = np.zeros((n, n + 1), dtype=dtype)
    rhs = np.zeros(n, dtype=dtype)
    for row, (j, value) in enumerate(pinned):
        rows[row, j] = dtype(1)
        rhs[row] = dtype(value)
    for row, cond in enumerate(end_conditions, start=len(pinned)):
        value = dtype(0)
        net = {}
        for j, c in cond.node_derivs:
            net[j] = net.get(j, Fraction(0)) + c
        for j, o in cond.bracket_derivs:
            net[j] = net.get(j, Fraction(0)) - o
        for j, c in net.items():
            rows[row, j] += hp * cast(c) * f[j]
            value += hp * cast(c) * g[j]
        for j, d in cond.node_values:
            rows[row, j] += cast(d)
        for m, e in cond.initial_derivs:
            value -= cast(e) * h**m * u[m]
        rhs[row] = value
    for i in range(p, n + 1):
        value = dtype(0)
        for k in range(p + 1):
            j = i - p + k
            w = cast(weights[k])
            rows[i - 1, j] = delta[k] + hp * w * f[j]
            value += hp * w * g[j]
        rhs[i - 1] = value
    rhs -= rows[:, 0] * u[0]
    return rows[:, 1:], rhs


def dense_refined_solve(ivp, n, kw):
    """One dense LAPACK solve of the whole system plus the refinement of
    solve_collocation, with residuals from the dense matrices."""
    band, rhs = build_arrays(ivp, n, **kw)
    matrix = band_to_dense(band)
    x = np.linalg.solve(matrix, rhs)
    wide = np.longdouble
    if kw.get("pinned"):
        band_w, rhs_w = build_arrays(ivp, n, **kw, dtype=wide)
        matrix_w = band_to_dense(band_w)
    else:
        matrix_w, rhs_w = matrix.astype(wide), rhs.astype(wide)
    for _ in range(2):
        residual = (rhs_w - matrix_w @ x.astype(wide)).astype(float)
        x = x + np.linalg.solve(matrix, residual)
    return x


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("n", [8, 48, 200])
@pytest.mark.parametrize("case_id, method", CASE_PRESETS)
def test_densified_band_matches_dense_assembly(case_id, method, n, dtype):
    ivp = case_by_id(case_id).ivp
    kw = collocation(method, ivp, n)
    band, rhs = build_arrays(ivp, n, **kw, dtype=dtype)
    assert band.shape == (n, ivp.order + 4) and band.dtype == dtype
    matrix, expected_rhs = dense_assembly(ivp, n, **kw, dtype=dtype)
    assert np.array_equal(band_to_dense(band), matrix)
    assert np.array_equal(rhs, expected_rhs)
    if dtype is np.float64:
        m = METHODS[method]
        public = assemble_system(ivp, n, m.coefficients, m.closure)
        assert np.array_equal(public[0], matrix)
        assert np.array_equal(public[1], expected_rhs)


def backward_error(ivp, n, kw, x):
    """Normwise backward error of x against the rows the refinement
    targets: long double, and re-assembled when rows are pinned."""
    wide = np.longdouble
    band, rhs = build_arrays(ivp, n, **kw, dtype=wide if kw.get("pinned") else np.float64)
    matrix, rhs = band_to_dense(band).astype(wide), rhs.astype(wide)
    residual = rhs - matrix @ x.astype(wide)
    scale = np.max(np.sum(np.abs(matrix), axis=1)) * np.max(np.abs(x)) + np.max(np.abs(rhs))
    return float(np.max(np.abs(residual)) / scale)


@pytest.mark.parametrize("case_id, method", ONE_PER_CASE)
def test_block_solve_matches_dense_solve_at_block_boundaries(case_id, method):
    ivp = case_by_id(case_id).ivp
    p = ivp.order
    for n in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + p, 3 * _BLOCK + 5):
        kw = collocation(method, ivp, n)
        x = solve_collocation(ivp, n, **kw)
        reference = dense_refined_solve(ivp, n, kw)
        if n <= _BLOCK:
            # one block is the dense solve itself
            assert np.array_equal(x, reference), n
        # both solvers leave the residual at the rounding level (about
        # 1e-17 here); a block coupled wrongly leaves it at O(h^p) or worse
        assert backward_error(ivp, n, kw, x) <= 1e-15, n
        assert backward_error(ivp, n, kw, reference) <= 1e-15, n


@pytest.mark.parametrize("case_id, method", ONE_PER_CASE)
def test_fine_grid_solve_allocates_no_square_array(case_id, method):
    n = 4096
    ivp = case_by_id(case_id).ivp
    kw = collocation(method, ivp, n)
    band, _ = build_arrays(ivp, n, **kw)
    assert band.size <= n * (ivp.order + 4)
    tracemalloc.start()
    try:
        x = solve_collocation(ivp, n, **kw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.shape == (n,) and np.all(np.isfinite(x))
    # one n x n double matrix is 8 n^2 bytes; the whole solve stays far below
    assert peak < n * n
