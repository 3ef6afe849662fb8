"""Tests for benchmark cases, metrics, table reproduction, and the
Runge-Kutta oracle the tests share (``conftest.py``)."""

import math

import numpy as np
import pytest

from conftest import integrate_first_order, oracle_max_error, rk_oracle
from nlosc.chain import HighOrderIVP
from nlosc.expr import Deriv, evaluate, parse, values_on_grid
from nlosc.spline import GridSolution
from nlosc.verify import (
    METHODS,
    REFERENCE_MAX_ERRORS,
    case_by_id,
    convergence_order,
    max_abs_error,
    render_table,
    reproduce_table,
    slopes_from_errors,
)


# ---------------------------------------------------------------------------
# built-in cases
# ---------------------------------------------------------------------------


def test_four_cases_with_expected_shapes(cases):
    assert sorted(cases) == [1, 2, 3, 4]
    assert cases[1].ivp.interval == (-1.0, 1.0)
    assert cases[2].ivp.u == (0.0, 1.0, 0.0, -3.0)
    assert evaluate(cases[3].exact, 1.0) == 0.0
    assert cases[4].ivp.order == 6


def test_case1_initial_data_closed_forms(cases):
    c1, s1 = math.cos(1.0), math.sin(1.0)
    assert cases[1].ivp.u == pytest.approx(
        (-2 * s1, 2 * c1 + s1, -2 * c1 + 2 * s1, -2 * c1 - 3 * s1), abs=1e-15
    )


def test_exact_solutions_satisfy_their_equations(cases):
    """Residual |y^(order) + f y - g| at random interior points."""
    rng = np.random.default_rng(3)
    for case in cases.values():
        a, b = case.ivp.interval
        high = Deriv(case.exact, case.ivp.order)
        for t in rng.uniform(a, b, 20):
            residual = (
                evaluate(high, t)
                + evaluate(case.ivp.f, t) * evaluate(case.exact, t)
                - evaluate(case.ivp.g, t)
            )
            assert abs(residual) <= 1e-9 * (1.0 + abs(evaluate(case.ivp.g, t)))


def test_case_by_id_rejects_unknown():
    with pytest.raises(ValueError) as err:
        case_by_id(9)
    assert str(err.value) == "no built-in case 9; valid ids are 1..4"


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_max_abs_error_zero_on_exact_grid(cases):
    case = cases[1]
    t = np.linspace(-1, 1, 13)
    sol = GridSolution(t=t, y=values_on_grid(case.exact, t), method="stub", n=12, h=2 / 12)
    assert max_abs_error(sol, case.exact) == 0.0


def test_max_abs_error_sees_single_perturbation(cases):
    case = cases[1]
    t = np.linspace(-1, 1, 13)
    y = values_on_grid(case.exact, t)
    y[7] += 1e-3
    sol = GridSolution(t=t, y=y, method="stub", n=12, h=2 / 12)
    assert max_abs_error(sol, case.exact) == pytest.approx(1e-3, rel=1e-9)


def test_max_abs_error_case1_improved_n24(cases):
    sol = METHODS["improved4"].solve(cases[1].ivp, 24)
    assert max_abs_error(sol, cases[1].exact) == pytest.approx(7.19e-8, rel=0.02)


def test_slopes_from_synthetic_errors():
    assert slopes_from_errors([1e-2, 2.5e-3]) == pytest.approx([2.0])
    assert slopes_from_errors([1.17e-5, 7.19e-8])[0] == pytest.approx(
        math.log2(1.17e-5 / 7.19e-8)
    )
    assert slopes_from_errors([7.50e-5, 5.45e-6])[0] == pytest.approx(3.78, abs=0.01)


def test_convergence_order_requires_increasing_grids(cases):
    with pytest.raises(ValueError):
        convergence_order(cases[1], METHODS["improved4"], [12, 12])


def test_convergence_order_improved4(cases):
    method, ns = METHODS["improved4"], [6, 12, 24]
    slopes = convergence_order(cases[1], method, ns)
    assert all(s >= 5.5 for s in slopes)
    # log2(n_b/n_a) is exactly 1.0, so doubling grids keep the bare ratio's bits
    errors = [max_abs_error(method.solve(cases[1].ivp, n), cases[1].exact) for n in ns]
    assert slopes == slopes_from_errors(errors)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_matches_analytic_solutions(cases, oracle):
    assert max_abs_error(oracle(1), cases[1].exact) <= 1e-10
    assert max_abs_error(oracle(3), cases[3].exact) <= 1e-9


def test_oracle_constant_solution():
    ivp = HighOrderIVP(order=4, f=parse("0"), g=parse("0"), interval=(0, 1), u=(1, 0, 0, 0))
    sol = rk_oracle(ivp, steps=100)
    assert np.all(sol.y == 1.0)


def test_oracle_subsampling_must_divide():
    ivp = case_by_id(1).ivp
    with pytest.raises(ValueError):
        rk_oracle(ivp, steps=100, grid_n=48)


def test_oracle_self_convergence(cases):
    for case_id in (1, 2):
        case = cases[case_id]
        errs = [max_abs_error(rk_oracle(case.ivp, steps=s), case.exact) for s in (100, 200)]
        assert errs[0] / errs[1] >= 12.0


def test_integrate_first_order_carries_all_components(cases):
    t, states = integrate_first_order(cases[1].ivp, 200)
    assert states.shape == (201, 4)
    # second component is the derivative of the first
    mid = (states[2:, 0] - states[:-2, 0]) / (2 * (t[1] - t[0]))
    assert np.max(np.abs(mid - states[1:-1, 1])) <= 1e-3


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_reproduce_table_2_tracks_reference():
    table = reproduce_table(2)
    reference = [1.7e-3, 1.17e-5, 7.19e-8, 7.72e-11]
    for n, ref in zip(table.ns, reference):
        value = table.cell(n, "improved4")
        assert ref / 5 <= value <= ref * 5
    # the coarse cells are reproduced to print precision
    assert table.cell(6, "improved4") == pytest.approx(1.7e-3, rel=0.01)
    assert table.cell(24, "improved4") == pytest.approx(7.19e-8, rel=0.01)


def test_reproduce_table_4_n24():
    assert reproduce_table(4).cell(24, "improved4") == pytest.approx(1.06e-9, rel=0.02)


def test_reproduce_table_5_n64():
    value = reproduce_table(5).cell(64, "table5-col1")
    assert 1.28e-7 / 3 <= value <= 1.28e-7 * 3


def test_reproduce_table_rejects_unknown_id():
    with pytest.raises(ValueError) as err:
        reproduce_table(9)
    assert str(err.value) == "no benchmark table 9; valid ids are 1..8"


def test_tables_are_deterministic():
    first = reproduce_table(2).values
    second = reproduce_table(2).values
    assert np.array_equal(first, second)


def test_render_table_mentions_case_and_columns():
    text = render_table(reproduce_table(6))
    assert "table 6" in text and "improved6" in text and "note:" in text


def test_solver_vs_oracle_ground_truths_agree(cases, oracle):
    """Spot check here (the full matrix runs in the acceptance suite):
    analytic-error and oracle-error agree for a few table cells."""
    for method_name, case_id, n in [
        ("table1-col1", 1, 12),
        ("improved4", 1, 24),
        ("table5-col1", 3, 16),
        ("improved6", 4, 16),
    ]:
        case = cases[case_id]
        sol = METHODS[method_name].solve(case.ivp, n)
        via_exact = max_abs_error(sol, case.exact)
        via_oracle = oracle_max_error(sol, oracle(case_id))
        assert abs(via_exact - via_oracle) <= 1e-8 + 1e-3 * via_exact


def test_reference_table_shapes_match_layout():
    for table_id, rows in REFERENCE_MAX_ERRORS.items():
        table = reproduce_table(table_id)
        assert tuple(sorted(rows)) == tuple(sorted(table.ns))
        for n in table.ns:
            assert sorted(rows[n]) == sorted(table.columns)
