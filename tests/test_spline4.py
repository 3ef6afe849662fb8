"""Tests for the spline solver at order 4 and its fourth-order data."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    consistency_residual,
    head_rows,
    monomial_residual,
    oracle_max_error,
    rk_oracle,
    theta_coefficients4,
)
from nlosc.chain import HighOrderIVP
from nlosc.expr import parse, values_on_grid
from nlosc.spline import (
    IMPROVED_SET4,
    IMPROVED_SET6,
    Method,
    WeightSet,
    closure_rows,
    truncation_brackets,
)
from nlosc.verify import METHODS, case_by_id, max_abs_error
from test_spline import PRESET_CASES

F = Fraction

SET_COL1 = WeightSet((F(0), F(0), F(1)))
# every preset with a tabulated closure, on each case of its order
TABULATED = [(c, name) for name, c in PRESET_CASES if METHODS[name].closure != "series"]


def case1_ivp():
    return case_by_id(1).ivp


# ---------------------------------------------------------------------------
# coefficient sets
# ---------------------------------------------------------------------------


def test_weight_normalization_enforced():
    with pytest.raises(ValueError):
        WeightSet((F(1, 2), F(1, 2), F(1, 2)))


def test_weights_reject_floats():
    with pytest.raises(TypeError):
        WeightSet((0.0, 0.0, 1.0))


def test_unknown_end_variant():
    with pytest.raises(ValueError):
        Method("fancy", SET_COL1, "fancy").solve(case1_ivp(), 6)


def test_improved_set_is_normalized_exactly():
    alpha, beta, gamma = IMPROVED_SET4.half
    assert 2 * alpha + 2 * beta + gamma == 1


# ---------------------------------------------------------------------------
# theta weights (validation only)
# ---------------------------------------------------------------------------


def test_theta_values_at_right_angle():
    th = math.pi / 2
    got = theta_coefficients4(th)
    # direct evaluation of the closed forms with sin = 1, cos = 0
    alpha = 1 / (6 * th) - th**-3 + th**-4
    beta = 2 / th**3 + 2 / (3 * th) - 4 / th**4
    gamma = -2 / th**3 + 1 / (3 * th) + 6 / th**4
    assert got.alpha == pytest.approx(alpha, rel=1e-14)
    assert got.beta == pytest.approx(beta, rel=1e-14)
    assert got.gamma == pytest.approx(gamma, rel=1e-14)


@pytest.mark.parametrize("theta", [math.pi, 3.2, 1e-3, 0.0, -1.0])
def test_theta_domain_errors(theta):
    with pytest.raises(ValueError):
        theta_coefficients4(theta)


def test_theta_identity_defect_is_reported():
    got = theta_coefficients4(1.0)
    expected = 2 * got.alpha + 2 * got.beta + got.gamma - 1.0
    assert got.defect == pytest.approx(expected, abs=0)
    # the printed closed forms do not normalize; the defect is material
    assert abs(got.defect) > 1e-3


# ---------------------------------------------------------------------------
# derived closure rows, checked against an exact monomial oracle
# ---------------------------------------------------------------------------

STANDARD_LEADING = [F(47, 9), F(71686, 8625), F(143342, 12975)]


@pytest.mark.parametrize("row", range(3))
def test_standard_closure_rows_exact_through_degree_5(row):
    cond = closure_rows("standard", 4)[row]
    for degree in range(6):
        assert monomial_residual(cond, 4, degree) == 0


@pytest.mark.parametrize("row", range(3))
def test_standard_closure_leading_truncation(row):
    cond = closure_rows("standard", 4)[row]
    lead = monomial_residual(cond, 4, 6) / math.factorial(6)
    assert abs(lead) == STANDARD_LEADING[row]


IMPROVED_LEADING = [0.3034, 1.4034, 1.0163]


@pytest.mark.parametrize("row", range(3))
def test_improved_closure_rows_exact_through_degree_9(row):
    cond = closure_rows("improved", 4)[row]
    for degree in range(10):
        assert monomial_residual(cond, 4, degree) == 0


@pytest.mark.parametrize("row", range(3))
def test_improved_closure_leading_truncation(row):
    cond = closure_rows("improved", 4)[row]
    lead = monomial_residual(cond, 4, 10) / math.factorial(10)
    assert abs(float(lead)) == pytest.approx(IMPROVED_LEADING[row], abs=1.5e-4)


@pytest.mark.parametrize(
    "weights",
    [(F(0), F(0), F(1)), (F(1, 2), F(1, 2), F(-1)), (F(1, 6), F(1, 6), F(1, 3)), None],
)
def test_interior_truncation_matches_bracket(weights):
    if weights is None:
        cs = IMPROVED_SET4
    else:
        cs = WeightSet(weights)
    stencil = cs.weights
    for degree in range(6):
        assert consistency_residual(stencil, 4, degree) == 0
    lead = consistency_residual(stencil, 4, 6) / math.factorial(6)
    alpha, beta, _ = cs.half
    assert lead == F(1, 6) * (-1 + 24 * alpha + 6 * beta)


# ---------------------------------------------------------------------------
# truncation brackets B_4, B_6, ... at order 4
# ---------------------------------------------------------------------------


def test_truncation_leading_order6_sets():
    assert truncation_brackets((F(1, 6), F(1, 6), F(1, 3)), 2) == (0, F(2, 3))
    assert truncation_brackets(SET_COL1.half, 2) == (0, F(-1, 6))


def test_truncation_leading_improved_set():
    brackets = truncation_brackets(IMPROVED_SET4.half, 4)
    assert brackets[:3] == (0, 0, 0)  # the leading term is h^10
    constant = brackets[3]
    assert constant == F(-17, 30240) + F(5376, 30240) * F(-1, 720) + F(84, 30240) * F(31, 180)
    assert constant == F(-1, 3024)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_assembly_rejects_small_grids():
    with pytest.raises(ValueError):
        METHODS["table3-col1"].solve(case1_ivp(), 5)


def test_assembly_rejects_wrong_order():
    with pytest.raises(ValueError):
        Method("improved6-standard", IMPROVED_SET6, "standard").solve(case_by_id(3).ivp, 16)
    with pytest.raises(ValueError):
        METHODS["table3-col1"].solve(case_by_id(3).ivp, 16)


def test_homogeneous_problem_has_zero_rhs():
    ivp = HighOrderIVP(f=parse("0"), g=parse("0"), interval=(0, 1), u=(0, 0, 0, 0))
    _, rhs = head_rows(ivp, 8, WeightSet((F(1, 6), F(1, 6), F(1, 3))), "standard")
    assert np.all(rhs == 0.0)
    assert np.max(np.abs(METHODS["table3-col1"].solve(ivp, 8).y)) == 0.0


def test_first_consistency_row_coefficients():
    """Hand substitution of D_2 = y_2 + g_2 into the five-point relation
    for case 1 (f = -1), weights (0, 0, 1)."""
    n = 6
    ivp = case1_ivp()
    h = 2.0 / n
    matrix, rhs = head_rows(ivp, n, SET_COL1, "standard")
    row = matrix[3]  # rows: 3 closure rows, then windows i = 4..n
    assert row[1] == pytest.approx(6.0 - h**4, rel=1e-15)  # y_2
    assert row[0] == pytest.approx(-4.0, abs=0)  # y_1
    assert row[2] == pytest.approx(-4.0, abs=0)  # y_3
    assert row[3] == pytest.approx(1.0, abs=0)  # y_4 (alpha = 0)
    # rhs: h^4 * gamma * g(t_2) minus the known y_0 contribution
    t2 = -1.0 + 2 * h
    expected = h**4 * 4 * math.cos(t2) - 1.0 * ivp.u[0]
    assert rhs[3] == pytest.approx(expected, rel=1e-14)


def test_improved_first_closure_row_y1_coefficient():
    """Hand substitution of D_1 into the first improved closure row."""
    n = 6
    ivp = case1_ivp()
    h = 2.0 / n
    matrix, _ = head_rows(ivp, n, SET_COL1, "improved")
    t1 = -1.0 + h
    f_t1 = -1.0
    expected = 13366080 / 2081 + h**4 * (843268 / 2081) * f_t1
    assert matrix[0][0] == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("case_id, method", TABULATED)
def test_consistency_rows_match_row_by_row_assembly(case_id, method):
    """The head's three consistency rows equal a plain row-by-row
    evaluation of the relation bit for bit."""
    ivp = case_by_id(case_id).ivp
    weights = METHODS[method].coefficients.weights
    n, p = 20, ivp.order
    matrix, rhs = head_rows(ivp, n, METHODS[method].coefficients, METHODS[method].closure)

    a, b = ivp.interval
    h = (np.float64(b) - np.float64(a)) / np.float64(n)
    t = np.float64(a) + h * np.arange(n + 1, dtype=np.float64)
    f, g = values_on_grid(ivp.f, t), values_on_grid(ivp.g, t)
    hp = h**p
    delta = [np.float64((-1) ** (p - k) * math.comb(p, k)) for k in range(p + 1)]
    w = [np.float64(q.numerator) / np.float64(q.denominator) for q in weights]
    for i in range(p, p + 3):
        coeffs = np.zeros(n + 1, dtype=np.float64)
        value = np.float64(0)
        for k in range(p + 1):
            j = i - p + k
            coeffs[j] = delta[k] + hp * w[k] * f[j]
            value += hp * w[k] * g[j]
        assert np.array_equal(matrix[i - 1], coeffs[1 : p + 3])
        assert rhs[i - 1] == value - coeffs[0] * np.float64(ivp.u[0])


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


def test_cubic_problems_are_reproduced_exactly():
    # y'''' = 0 with cubic initial data: every normalized weight set and
    # both closure families hit the grid values to rounding noise
    cubic = parse("1+2*t-t^2+3*t^3")
    u = (1.0, 2.0, -2.0, 18.0)
    ivp = HighOrderIVP(f=parse("0"), g=parse("0"), interval=(0, 1), u=u)
    grid = np.linspace(0, 1, 13)
    expected = 1 + 2 * grid - grid**2 + 3 * grid**3
    for variant in ("standard", "improved"):
        for weights in [(F(0), F(0), F(1)), (F(1, 6), F(1, 6), F(1, 3)), (F(-1, 720), F(31, 180), F(79, 120))]:
            solution = Method(variant, WeightSet(weights), variant).solve(ivp, 12)
            assert np.max(np.abs(solution.y - expected)) <= 1e-10


def test_case1_standard_and_improved_closures_at_coarse_grid():
    # both closure families agree with the reference 6.74e-1 at n = 6
    ivp = case1_ivp()
    exact = case_by_id(1).exact
    for variant, rel in (("standard", 0.05), ("improved", 0.01)):
        err = max_abs_error(Method(variant, SET_COL1, variant).solve(ivp, 6), exact)
        assert err == pytest.approx(6.74e-1, rel=rel)


def test_case1_improved_fine_grid():
    err = max_abs_error(METHODS["improved4"].solve(case1_ivp(), 48), case_by_id(1).exact)
    assert 7.72e-11 / 5 <= err <= 7.72e-11 * 5


def test_solution_pins_initial_value():
    solution = METHODS["improved4"].solve(case1_ivp(), 12)
    assert solution.y[0] == case1_ivp().u[0]
    assert solution.t[0] == -1.0 and solution.t[-1] == 1.0


def test_improved_solver_tracks_oracle_on_generated_problems():
    problems = [
        ("cos(t)", "exp(t)*sin(2*t)+t^2"),
        ("t^2-2", "1/(1+t^2)"),
        ("sin(3*t)", "t*(1-t)*cos(t)"),
    ]
    for f_text, g_text in problems:
        ivp = HighOrderIVP(
            f=parse(f_text),
            g=parse(g_text),
            interval=(0.0, 1.0),
            u=(0.4, -0.3, 0.2, 0.1),
        )
        solution = METHODS["improved4"].solve(ivp, 48)
        oracle = rk_oracle(ivp, steps=48 * 500)
        assert oracle_max_error(solution, oracle) <= 1e-6


def test_table1_set_slopes_are_at_least_second_order():
    """Module invariant: each Table-1 weight set converges with slope
    >= 1.8 over n in {12, 24, 48} in its table configuration (improved
    closure, the pairing that reproduces the reference values; with the
    standard closure the third set dips to ~1.1 at the finest doubling,
    which the verification report archives)."""
    from math import log2

    exact = case_by_id(1).exact
    ivp = case1_ivp()
    for weights in [(F(0), F(0), F(1)), (F(1, 2), F(1, 2), F(-1)), (F(1, 6), F(1, 6), F(1, 3))]:
        method = Method("improved", WeightSet(weights), "improved")
        errs = [max_abs_error(method.solve(ivp, n), exact) for n in (12, 24, 48)]
        slopes = [log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(s >= 1.8 for s in slopes), (weights, slopes)
