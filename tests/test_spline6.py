"""Tests for the spline solver at order 6 and its sixth-order data."""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import consistency_residual, head_rows, monomial_residual, theta_coefficients6
from nlosc.chain import OscillatorChain, reduce_chain
from nlosc.expr import parse
from nlosc.spline import (
    IMPROVED_SET6,
    HighOrderIVP,
    Method,
    WeightSet,
    _series_start,
    closure_rows,
    coefficients_at_start,
    truncation_brackets,
    zeroing_weights,
)
from nlosc.verify import METHODS, case_by_id, max_abs_error

F = Fraction

SET_T5_COL1 = WeightSet((F(1, 120), F(15, 120), F(1, 4), F(28, 120)))
TABLE5_SETS = (
    SET_T5_COL1,
    WeightSet((F(1, 720), F(1, 36), F(219, 720), F(240, 720))),
    WeightSet((F(1, 5040), F(6, 504), F(1250, 5040), F(2418, 5040))),
)


# ---------------------------------------------------------------------------
# coefficient sets
# ---------------------------------------------------------------------------


def test_all_reference_sets_are_normalized_exactly():
    for cs in TABLE5_SETS + (IMPROVED_SET6,):
        alpha, beta, gamma, delta = cs.half
        assert alpha + beta + gamma + F(delta, 2) == F(1, 2)


def test_weight_normalization_enforced():
    with pytest.raises(ValueError):
        WeightSet((F(1), F(0), F(0), F(0)))


# ---------------------------------------------------------------------------
# theta weights (validation only)
# ---------------------------------------------------------------------------


def test_theta_values_at_right_angle():
    th = math.pi / 2
    got = theta_coefficients6(th)
    alpha = (th - 1) / th**6 - 1 / (6 * th**3) + 1 / (12 * th)
    beta = 6 / th**6 - 4 / th**5 - 1 / (3 * th**3) + 13 / (60 * th)
    gamma = 7 / th**5 - 15 / th**6 + 5 / (6 * th**3) + 67 / (120 * th)
    delta = 20 / th**6 - 8 / th**5 - 2 / (3 * th**3) + 13 / (30 * th)
    assert got.alpha == pytest.approx(alpha, rel=1e-14)
    assert got.beta == pytest.approx(beta, rel=1e-14)
    assert got.gamma == pytest.approx(gamma, rel=1e-14)
    assert got.delta == pytest.approx(delta, rel=1e-14)
    assert got.defect == got.alpha + got.beta + got.gamma + got.delta / 2 - 0.5


def test_theta_domain_edge_is_finite():
    got = theta_coefficients6(math.pi - 1e-2)
    assert all(np.isfinite(v) for v in got)


@pytest.mark.parametrize("theta", [3.2, math.pi, 5e-3])
def test_theta_domain_errors(theta):
    with pytest.raises(ValueError):
        theta_coefficients6(theta)


# ---------------------------------------------------------------------------
# derived closure rows, checked against an exact monomial oracle
# ---------------------------------------------------------------------------

LEADING6 = [4.75, 5.0467, 5.9909, 12.3201, 23.7869]


@pytest.mark.parametrize("row", range(5))
def test_closure_rows_exact_through_degree_7(row):
    cond = closure_rows("printed", 6)[row]
    for degree in range(8):
        assert monomial_residual(cond, 6, degree) == 0


@pytest.mark.parametrize("row", range(5))
def test_closure_leading_truncation(row):
    lead = monomial_residual(closure_rows("printed", 6)[row], 6, 8) / math.factorial(8)
    assert abs(float(lead)) == pytest.approx(LEADING6[row], abs=1e-3)


# ---------------------------------------------------------------------------
# truncation brackets, cross-checked against the monomial oracle
# ---------------------------------------------------------------------------


def test_improved_set_kills_first_four_brackets():
    brackets = truncation_brackets(IMPROVED_SET6.half, 6)
    assert brackets[0] == brackets[1] == brackets[2] == brackets[3] == 0
    assert brackets[4] == F(1, 57600)
    assert brackets[4] != 0 and brackets[5] != 0


def test_bracket_example_sets():
    cs = WeightSet((F(1, 120), F(15, 120), F(30, 120), F(28, 120)))
    brackets = truncation_brackets(cs.half, 6)
    assert brackets[0] == 0
    assert brackets[1] == F(23, 40)  # (1/4)(-1 + 3.3) = 0.575
    assert truncation_brackets((0, 0, 0, 0), 6)[0] == -1


def test_brackets_match_monomial_residuals():
    """Independent check of the bracket series: the residual of the
    seven-point relation on t^k equals bracket_k * k! once all lower
    brackets vanish."""
    unnormalized = (F(1, 100), F(1, 50), F(1, 25), F(1, 10))
    b = truncation_brackets(unnormalized, 6)
    full = unnormalized + unnormalized[-2::-1]
    assert consistency_residual(full, 6, 6) == b[0] * math.factorial(6)

    for cs in TABLE5_SETS:  # h^6 bracket vanishes
        b = truncation_brackets(cs.half, 6)
        assert consistency_residual(cs.weights, 6, 8) == b[1] * math.factorial(8)

    h6 = zeroing_weights(6, {0: 0})  # h^6..h^10 brackets vanish
    b = truncation_brackets(h6.half, 6)
    assert consistency_residual(h6.weights, 6, 12) == b[3] * math.factorial(12)

    b = truncation_brackets(IMPROVED_SET6.half, 6)  # h^6..h^12 brackets vanish
    assert consistency_residual(IMPROVED_SET6.weights, 6, 14) == b[4] * math.factorial(14)


# ---------------------------------------------------------------------------
# zeroing_weights at p = 6
# ---------------------------------------------------------------------------


def test_derive_order_8_reproduces_reference_set():
    assert zeroing_weights(6).half == (
        F(1, 30240),
        F(41, 5040),
        F(2189, 10080),
        F(4153, 7560),
    )


def test_derive_order_4_canonical_tie_break():
    assert zeroing_weights(6, {0: 0, 2: 0}).half == (F(0), F(1, 16), F(0), F(7, 8))


def test_derive_order_2_canonical_tie_break():
    cs = zeroing_weights(6, {0: 0, 1: 0, 2: F(1, 4)})
    assert cs.half == (F(0), F(0), F(1, 4), F(1, 2))


def test_derive_order_6_kills_three_brackets():
    brackets = truncation_brackets(zeroing_weights(6, {0: 0}).half, 6)
    assert brackets[0] == brackets[1] == brackets[2] == 0


# ---------------------------------------------------------------------------
# start derivatives
# ---------------------------------------------------------------------------


def test_start_derivatives_extend_through_the_equation():
    # case 3's exact solution (1-t) e^t has y^(m)(0) = 1 - m
    ivp = case_by_id(3).ivp
    derivs = [math.factorial(m) * c for m, c in enumerate(coefficients_at_start(ivp, 14))]
    expected = [1.0] + [1.0 - m for m in range(1, 14)]
    assert derivs == pytest.approx(expected, abs=1e-10)


def product_ring():
    """A 3-ring with product trajectories and y3^(m)(0) for m < 14."""
    # y1 = A e^(at) sin(bt), y2 = B t^3 cos(ct), y3 = (p + q t^2) e^(dt),
    # forces g_k = y_k'' + w_k^2 y_(k+1); the pivot y3 has
    # y3^(m)(0) = p d^m + q m (m-1) d^(m-2)
    A, a, b = 1.53, 0.41, 1.57
    B, c = 1.46, 1.63
    p, q, d = 0.62, 0.58, -0.47
    w = (0.73, 1.27, 0.76)
    y = (
        f"{A}*exp({a}*t)*sin({b}*t)",
        f"{B}*t^3*cos({c}*t)",
        f"({p}+{q}*t^2)*exp({d}*t)",
    )
    ypp = (
        f"{A}*exp({a}*t)*({a * a - b * b}*sin({b}*t)+{2 * a * b}*cos({b}*t))",
        f"{B}*(6*t*cos({c}*t)-{6 * c}*t^2*sin({c}*t)-{c * c}*t^3*cos({c}*t))",
        f"exp({d}*t)*({2 * q}+{4 * q * d}*t+{d * d}*({p}+{q}*t^2))",
    )
    chain = OscillatorChain(
        omegas=w,
        forces=tuple(parse(f"{ypp[k]}+{w[k] ** 2}*({y[(k + 1) % 3]})") for k in range(3)),
        interval=(0.0, 1.0),
        positions=(0.0, 0.0, p),
        velocities=(A * b, 0.0, d * p),
    )
    return chain, [p * d**m + q * m * (m - 1) * d ** (m - 2) for m in range(14)]


def test_start_derivatives_of_a_product_ring():
    chain, expected = product_ring()
    start = time.perf_counter()
    coefficients = coefficients_at_start(reduce_chain(chain), 14)
    elapsed = time.perf_counter() - start
    derivs = [math.factorial(m) * c for m, c in enumerate(coefficients)]
    assert derivs == pytest.approx(expected, rel=1e-9)
    assert elapsed < 0.2


def test_start_derivatives_reject_a_singular_forcing_silently():
    ivp = HighOrderIVP(f=parse("-1"), g=parse("1/t"), interval=(0.0, 1.0), u=(0.0,) * 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^system contains non-finite entries$"):
            coefficients_at_start(ivp, 14)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_assembly_rejects_small_grids_and_wrong_order():
    with pytest.raises(ValueError):
        METHODS["table5-col1"].solve(case_by_id(3).ivp, 7)
    with pytest.raises(ValueError):
        METHODS["table5-col1"].solve(case_by_id(1).ivp, 16)
    with pytest.raises(ValueError):
        Method("voodoo", SET_T5_COL1, "voodoo").solve(case_by_id(3).ivp, 16)


def test_homogeneous_problem_has_zero_rhs():
    ivp = HighOrderIVP(f=parse("0"), g=parse("0"), interval=(0, 1), u=(0,) * 6)
    _, rhs = head_rows(ivp, 10, SET_T5_COL1, "printed")
    assert np.all(rhs == 0.0)


def test_first_consistency_row_y3_coefficient():
    """Hand substitution of D_3 = y_3 + g_3 into the seven-point relation
    for case 3 (f = -1): the y_3 coefficient is -20 - h^6 * delta."""
    n = 8
    ivp = case_by_id(3).ivp
    h = 1.0 / n
    matrix, _ = head_rows(ivp, n, SET_T5_COL1, "printed")
    row = matrix[5]  # 5 closure rows, then the i = 6 window
    assert row[2] == pytest.approx(-20.0 - h**6 * (28.0 / 120.0), rel=1e-15)


def test_second_closure_row_y1_coefficient():
    """Hand substitution of the bracket's own sixth-derivative term:
    y_1 collects d_1 + h^6 f_1 (1 + 40167/21983)."""
    n = 8
    ivp = case_by_id(3).ivp
    h = 1.0 / n
    matrix, _ = head_rows(ivp, n, SET_T5_COL1, "printed")
    f_t1 = -1.0
    expected = 797790 / 21983 + h**6 * f_t1 * (1 + 40167 / 21983)
    assert matrix[1][0] == pytest.approx(expected, rel=1e-14)


def test_series_closure_rows_pin_leading_unknowns():
    # the series start fixes y_1..y_5 to the Taylor polynomial's values
    ivp = case_by_id(3).ivp
    a, b = ivp.interval
    values, _ = _series_start(ivp, (b - a) / 10)
    exact = case_by_id(3).exact
    from nlosc.expr import evaluate

    assert len(values) == 6 and values[0] == ivp.u[0]
    for j in range(5):
        t_j = (j + 1) / 10
        assert values[j + 1] == pytest.approx(evaluate(exact, t_j), rel=1e-12)


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


def test_quintic_problems_are_reproduced_exactly():
    # y^(6) = 0 with quintic initial data
    u = (1.0, -1.0, 4.0, 0.0, 48.0, -120.0)
    ivp = HighOrderIVP(f=parse("0"), g=parse("0"), interval=(0, 1), u=u)
    grid = np.linspace(0, 1, 13)
    expected = (
        1 - grid + 2 * grid**2 + 2 * grid**4 - grid**5
    )
    for cs in TABLE5_SETS + (IMPROVED_SET6,):
        for closure in ("printed", "series"):
            solution = Method(closure, cs, closure).solve(ivp, 12)
            assert np.max(np.abs(solution.y - expected)) <= 1e-9


def test_case3_reference_cells():
    ivp = case_by_id(3).ivp
    exact = case_by_id(3).exact
    err16 = max_abs_error(METHODS["table5-col1"].solve(ivp, 16), exact)
    assert err16 == pytest.approx(7.50e-5, rel=0.02)
    err32 = max_abs_error(METHODS["table5-col1"].solve(ivp, 32), exact)
    assert err32 == pytest.approx(5.45e-6, rel=0.02)


def test_case4_improved_series_closure():
    ivp = case_by_id(4).ivp
    exact = case_by_id(4).exact
    err = max_abs_error(METHODS["improved6"].solve(ivp, 16), exact)
    # at least as accurate as the reference cell 9.93e-8 allows, within 10x
    assert err <= 9.93e-8 * 10


def test_zero_problem_solves_to_zero():
    ivp = HighOrderIVP(f=parse("0"), g=parse("0"), interval=(0, 1), u=(0,) * 6)
    for closure in ("printed", "series"):
        assert np.max(np.abs(Method(closure, SET_T5_COL1, closure).solve(ivp, 12).y)) == 0.0


def test_improved_set_slope_case4_between_16_and_32():
    """Module invariant: the order-8 weight set gains at least a factor
    2^6 per doubling on case 4 between n=16 and n=32 (series closure;
    the printed closure's boundary error would mask this entirely)."""
    case = case_by_id(4)
    errs = [
        max_abs_error(METHODS["improved6"].solve(case.ivp, n), case.exact)
        for n in (16, 32)
    ]
    assert math.log2(errs[0] / errs[1]) >= 6.0
