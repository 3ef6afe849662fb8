"""Tests for the spline solver at order 6 and its sixth-order data."""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import consistency_residual, monomial_residual
from nlosc.chain import HighOrderIVP, OscillatorChain, reduce_chain
from nlosc.expr import parse
from nlosc.spline import (
    END_CONDITIONS6,
    IMPROVED_SET6,
    WeightSet,
    _series_start_rows,
    assemble_system,
    derivatives_at_start,
    derive_parameters6,
    solve,
    theta_coefficients6,
    truncation_series6,
)
from nlosc.verify import case_by_id, max_abs_error

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
        assert cs.alpha + cs.beta + cs.gamma + F(cs.delta, 2) == F(1, 2)


def test_weight_normalization_enforced():
    with pytest.raises(ValueError):
        WeightSet((F(1), F(0), F(0), F(0)))
    assert WeightSet((F(1), F(0), F(0), F(0)), unchecked=True).alpha == 1


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
# closure-row transcription
# ---------------------------------------------------------------------------

LEADING6 = [4.75, 5.0467, 5.9909, 12.3201, 23.7869]


@pytest.mark.parametrize("row", range(5))
def test_closure_rows_exact_through_degree_7(row):
    cond = END_CONDITIONS6[row]
    for degree in range(8):
        assert monomial_residual(cond, 6, degree) == 0


@pytest.mark.parametrize("row", range(5))
def test_closure_leading_truncation(row):
    lead = monomial_residual(END_CONDITIONS6[row], 6, 8) / math.factorial(8)
    assert abs(float(lead)) == pytest.approx(LEADING6[row], abs=1e-3)


# ---------------------------------------------------------------------------
# truncation brackets, cross-checked against the monomial oracle
# ---------------------------------------------------------------------------


def test_improved_set_kills_first_four_brackets():
    brackets = truncation_series6(IMPROVED_SET6)
    assert brackets[0] == brackets[1] == brackets[2] == brackets[3] == 0
    assert brackets[4] == F(1, 57600)
    assert brackets[4] != 0 and brackets[5] != 0


def test_bracket_example_sets():
    cs = WeightSet((F(1, 120), F(15, 120), F(30, 120), F(28, 120)))
    brackets = truncation_series6(cs)
    assert brackets[0] == 0
    assert brackets[1] == F(23, 40)  # (1/4)(-1 + 3.3) = 0.575
    zero = WeightSet((F(0), F(0), F(0), F(0)), unchecked=True)
    assert truncation_series6(zero)[0] == -1


def test_brackets_match_monomial_residuals():
    """Independent check of the printed bracket formulas: the residual of
    the seven-point relation on t^k equals bracket_k * k! once all lower
    brackets vanish."""
    unnormalized = WeightSet((F(1, 100), F(1, 50), F(1, 25), F(1, 10)), unchecked=True)
    b = truncation_series6(unnormalized)
    assert consistency_residual(unnormalized.weights, 6, 6) == b[0] * math.factorial(6)

    for cs in TABLE5_SETS:  # h^6 bracket vanishes
        b = truncation_series6(cs)
        assert consistency_residual(cs.weights, 6, 8) == b[1] * math.factorial(8)

    h6 = derive_parameters6(6)  # h^6..h^10 brackets vanish
    b = truncation_series6(h6)
    assert consistency_residual(h6.weights, 6, 12) == b[3] * math.factorial(12)

    b = truncation_series6(IMPROVED_SET6)  # h^6..h^12 brackets vanish
    assert consistency_residual(IMPROVED_SET6.weights, 6, 14) == b[4] * math.factorial(14)


# ---------------------------------------------------------------------------
# derive_parameters6
# ---------------------------------------------------------------------------


def test_derive_order_8_reproduces_reference_set():
    cs = derive_parameters6(8)
    assert (cs.alpha, cs.beta, cs.gamma, cs.delta) == (
        F(1, 30240),
        F(41, 5040),
        F(2189, 10080),
        F(4153, 7560),
    )


def test_derive_order_4_canonical_tie_break():
    cs = derive_parameters6(4)
    assert (cs.alpha, cs.beta, cs.gamma, cs.delta) == (F(0), F(1, 16), F(0), F(7, 8))


def test_derive_order_2_canonical_tie_break():
    cs = derive_parameters6(2)
    assert (cs.alpha, cs.beta, cs.gamma, cs.delta) == (F(0), F(0), F(1, 4), F(1, 2))


def test_derive_order_6_kills_three_brackets():
    brackets = truncation_series6(derive_parameters6(6))
    assert brackets[0] == brackets[1] == brackets[2] == 0


def test_derive_rejects_other_orders():
    with pytest.raises(ValueError):
        derive_parameters6(5)


# ---------------------------------------------------------------------------
# start derivatives
# ---------------------------------------------------------------------------


def test_start_derivatives_extend_through_the_equation():
    # case 3's exact solution (1-t) e^t has y^(m)(0) = 1 - m
    ivp = case_by_id(3).ivp
    derivs = derivatives_at_start(ivp, 14)
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
    derivs = derivatives_at_start(reduce_chain(chain), 14)
    elapsed = time.perf_counter() - start
    assert derivs == pytest.approx(expected, rel=1e-9)
    assert elapsed < 0.2


# y_1..y_5 of the series start as computed before the fourth- and
# sixth-order solvers shared one module, printed as the shortest strings
# that round-trip in x87 extended precision
SERIES_ROWS = {
    ("case3", 8): (
        "9.9150489643347302726e-01",
        "9.630190625158061136e-01",
        "9.0936963413637600167e-01",
        "8.24360635350073513e-01",
        "7.0059223403730003807e-01",
    ),
    ("case4", 64): (
        "5.0706291029295033655e-02",
        "9.761138420344329183e-02",
        "1.4068065084154946763e-01",
        "1.7989300833656883575e-01",
        "2.1524077623144560127e-01",
    ),
    ("ring", 32): (
        "6.115184457715542445e-01",
        "6.042524362412009549e-01",
        "5.9815229026913129483e-01",
        "5.9316975087559685995e-01",
        "5.892579508637311829e-01",
    ),
}


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63, reason="needs x87 extended precision")
@pytest.mark.parametrize("name, n", list(SERIES_ROWS))
def test_series_start_rows_are_unchanged(name, n):
    ivp = {
        "case3": case_by_id(3).ivp,
        "case4": case_by_id(4).ivp,
        "ring": reduce_chain(product_ring()[0]),
    }[name]
    rows = _series_start_rows(ivp, n)
    assert [j for j, _ in rows] == [1, 2, 3, 4, 5]
    got = tuple(np.format_float_scientific(v, unique=True) for _, v in rows)
    assert got == SERIES_ROWS[name, n]


def test_start_derivatives_reject_a_singular_forcing_silently():
    ivp = HighOrderIVP(order=6, f=parse("-1"), g=parse("1/t"), interval=(0.0, 1.0), u=(0.0,) * 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^system contains non-finite entries$"):
            derivatives_at_start(ivp, 14)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_assembly_rejects_small_grids_and_wrong_order():
    with pytest.raises(ValueError):
        assemble_system(case_by_id(3).ivp, 7, SET_T5_COL1, "printed")
    with pytest.raises(ValueError):
        assemble_system(case_by_id(1).ivp, 16, SET_T5_COL1, "printed")
    with pytest.raises(ValueError):
        solve(case_by_id(3).ivp, 16, SET_T5_COL1, "voodoo")


def test_homogeneous_problem_has_zero_rhs():
    ivp = HighOrderIVP(order=6, f=parse("0"), g=parse("0"), interval=(0, 1), u=(0,) * 6)
    _, rhs = assemble_system(ivp, 10, SET_T5_COL1, "printed")
    assert np.all(rhs == 0.0)


def test_first_consistency_row_y3_coefficient():
    """Hand substitution of D_3 = y_3 + g_3 into the seven-point relation
    for case 3 (f = -1): the y_3 coefficient is -20 - h^6 * delta."""
    n = 8
    ivp = case_by_id(3).ivp
    h = 1.0 / n
    matrix, _ = assemble_system(ivp, n, SET_T5_COL1, "printed")
    row = matrix[5]  # 5 closure rows, then the i = 6 window
    assert row[2] == pytest.approx(-20.0 - h**6 * (28.0 / 120.0), rel=1e-15)


def test_second_closure_row_y1_coefficient():
    """Hand substitution of the bracket's own sixth-derivative term:
    y_1 collects d_1 + h^6 f_1 (1 + 40167/21983)."""
    n = 8
    ivp = case_by_id(3).ivp
    h = 1.0 / n
    matrix, _ = assemble_system(ivp, n, SET_T5_COL1, "printed")
    f_t1 = -1.0
    expected = 797790 / 21983 + h**6 * f_t1 * (1 + 40167 / 21983)
    assert matrix[1][0] == pytest.approx(expected, rel=1e-14)


def test_series_closure_rows_pin_leading_unknowns():
    ivp = case_by_id(3).ivp
    matrix, rhs = assemble_system(ivp, 10, IMPROVED_SET6, "series")
    exact = case_by_id(3).exact
    from nlosc.expr import evaluate

    for j in range(5):
        row = matrix[j]
        assert row[j] == 1.0 and np.count_nonzero(row) == 1
        t_j = (j + 1) / 10
        assert rhs[j] == pytest.approx(evaluate(exact, t_j), rel=1e-12)


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


def test_quintic_problems_are_reproduced_exactly():
    # y^(6) = 0 with quintic initial data
    u = (1.0, -1.0, 4.0, 0.0, 48.0, -120.0)
    ivp = HighOrderIVP(order=6, f=parse("0"), g=parse("0"), interval=(0, 1), u=u)
    grid = np.linspace(0, 1, 13)
    expected = (
        1 - grid + 2 * grid**2 + 2 * grid**4 - grid**5
    )
    for cs in TABLE5_SETS + (IMPROVED_SET6,):
        for closure in ("printed", "series"):
            solution = solve(ivp, 12, cs, closure)
            assert np.max(np.abs(solution.y - expected)) <= 1e-9


def test_case3_reference_cells():
    ivp = case_by_id(3).ivp
    exact = case_by_id(3).exact
    err16 = max_abs_error(solve(ivp, 16, SET_T5_COL1, "printed"), exact)
    assert err16 == pytest.approx(7.50e-5, rel=0.02)
    err32 = max_abs_error(solve(ivp, 32, SET_T5_COL1, "printed"), exact)
    assert err32 == pytest.approx(5.45e-6, rel=0.02)


def test_case4_improved_series_closure():
    ivp = case_by_id(4).ivp
    exact = case_by_id(4).exact
    err = max_abs_error(solve(ivp, 16, IMPROVED_SET6, "series"), exact)
    # at least as accurate as the reference cell 9.93e-8 allows, within 10x
    assert err <= 9.93e-8 * 10


def test_zero_problem_solves_to_zero():
    ivp = HighOrderIVP(order=6, f=parse("0"), g=parse("0"), interval=(0, 1), u=(0,) * 6)
    for closure in ("printed", "series"):
        assert np.max(np.abs(solve(ivp, 12, SET_T5_COL1, closure).y)) == 0.0


def test_improved_set_slope_case4_between_16_and_32():
    """Module invariant: the order-8 weight set gains at least a factor
    2^6 per doubling on case 4 between n=16 and n=32 (series closure;
    the printed closure's boundary error would mask this entirely)."""
    case = case_by_id(4)
    errs = [
        max_abs_error(solve(case.ivp, n, IMPROVED_SET6, "series"), case.exact)
        for n in (16, 32)
    ]
    assert math.log2(errs[0] / errs[1]) >= 6.0
