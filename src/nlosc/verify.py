"""Built-in benchmark cases, method presets, error metrics and tables.

Four analytically solvable problems exercise the solver at both orders:

1. order 4:  y'''' - y = 4 cos t            on [-1, 1],  y = (1-t) sin t
2. order 4:  y'''' + t y = -e^t (8+7t+t^3)  on [0, 1],   y = t (1-t) e^t
3. order 6:  y^(6) - y = -6 e^t             on [0, 1],   y = (1-t) e^t
4. order 6:  y^(6) + y = 6 (2t cos t + 5 sin t) on [-1, 1], y = (t^2-1) sin t

``METHODS`` holds the preset :class:`nlosc.spline.Method` objects, and
eight benchmark tables pair the cases with presets and grid sizes;
``REFERENCE_MAX_ERRORS`` records the expected max-abs grid errors used as
regression baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import log2

import numpy as np

from nlosc.chain import HighOrderIVP
from nlosc.expr import Expression, evaluate, parse, values_on_grid
from nlosc.spline import (
    IMPROVED_SET4,
    IMPROVED_SET6,
    GridSolution,
    Method,
    WeightSet,
    zeroing_weights,
)

__all__ = [
    "AnalyticCase",
    "ErrorTable",
    "Method",
    "METHODS",
    "REFERENCE_MAX_ERRORS",
    "builtin_cases",
    "case_by_id",
    "max_abs_error",
    "slopes_from_errors",
    "convergence_order",
    "reproduce_table",
    "render_table",
]


@dataclass(frozen=True, eq=False)
class AnalyticCase:
    """A benchmark problem with a closed-form solution; ``tables`` are the
    ids of the benchmark tables that run it."""

    case_id: int
    ivp: HighOrderIVP
    exact: Expression
    tables: tuple[int, ...]
    label: str


def _u(expressions: tuple[str, ...], at: float) -> tuple[float, ...]:
    # initial data kept as closed forms and evaluated in double precision,
    # so no decimal transcription error enters the u-vector
    return tuple(evaluate(parse(text), at) for text in expressions)


@cache
def builtin_cases() -> tuple[AnalyticCase, ...]:
    """The four built-in benchmark cases, parsed on the first call and
    shared by every later one."""
    return (
        AnalyticCase(
            case_id=1,
            ivp=HighOrderIVP(
                order=4,
                f=parse("-1"),
                g=parse("4*cos(t)"),
                interval=(-1.0, 1.0),
                u=_u(
                    (
                        "-2*sin(1)",
                        "2*cos(1)+sin(1)",
                        "-2*cos(1)+2*sin(1)",
                        "-2*cos(1)-3*sin(1)",
                    ),
                    0.0,
                ),
            ),
            exact=parse("(1-t)*sin(t)"),
            tables=(1, 2),
            label="y'''' - y = 4 cos t",
        ),
        AnalyticCase(
            case_id=2,
            ivp=HighOrderIVP(
                order=4,
                f=parse("t"),
                g=parse("-exp(t)*(8+7*t+t^3)"),
                interval=(0.0, 1.0),
                u=(0.0, 1.0, 0.0, -3.0),
            ),
            exact=parse("t*(1-t)*exp(t)"),
            tables=(3, 4),
            label="y'''' + t y = -e^t (8 + 7t + t^3)",
        ),
        AnalyticCase(
            case_id=3,
            ivp=HighOrderIVP(
                order=6,
                f=parse("-1"),
                g=parse("-6*exp(t)"),
                interval=(0.0, 1.0),
                u=(1.0, 0.0, -1.0, -2.0, -3.0, -4.0),
            ),
            exact=parse("(1-t)*exp(t)"),
            tables=(5, 6),
            label="y^(6) - y = -6 e^t",
        ),
        AnalyticCase(
            case_id=4,
            ivp=HighOrderIVP(
                order=6,
                f=parse("1"),
                g=parse("6*(2*t*cos(t)+5*sin(t))"),
                interval=(-1.0, 1.0),
                u=_u(
                    (
                        "0",
                        "2*sin(1)",
                        "-4*cos(1)-2*sin(1)",
                        "6*cos(1)-6*sin(1)",
                        "8*cos(1)+12*sin(1)",
                        "-20*cos(1)+10*sin(1)",
                    ),
                    0.0,
                ),
            ),
            exact=parse("(t^2-1)*sin(t)"),
            tables=(7, 8),
            label="y^(6) + y = 6 (2t cos t + 5 sin t)",
        ),
    )


def case_by_id(case_id: int) -> AnalyticCase:
    for case in builtin_cases():
        if case.case_id == case_id:
            return case
    ids = [case.case_id for case in builtin_cases()]
    raise ValueError(f"no built-in case {case_id}; valid ids are {ids[0]}..{ids[-1]}")


# ---------------------------------------------------------------------------
# method presets
# ---------------------------------------------------------------------------

_F = Fraction

_SET4_COL1 = WeightSet((_F(0), _F(0), _F(1)))
_SET4_COL2 = WeightSet((_F(1, 2), _F(1, 2), _F(-1)))
_SET4_COL3 = WeightSet((_F(1, 6), _F(1, 6), _F(1, 3)))
_SET6_COL1 = WeightSet((_F(1, 120), _F(15, 120), _F(1, 4), _F(28, 120)))
_SET6_COL2 = WeightSet((_F(1, 720), _F(1, 36), _F(219, 720), _F(240, 720)))
_SET6_COL3 = WeightSet((_F(1, 5040), _F(6, 504), _F(1250, 5040), _F(2418, 5040)))

# The fourth-order reference tables pair the same three weight sets with
# different closure rows: table 1 reproduces only with
# the improved closure, table 3 only with the standard closure.
METHODS: dict[str, Method] = {
    method.name: method
    for method in (
        Method("table1-col1", _SET4_COL1, "improved"),
        Method("table1-col2", _SET4_COL2, "improved"),
        Method("table1-col3", _SET4_COL3, "improved"),
        Method("table3-col1", _SET4_COL1, "standard"),
        Method("table3-col2", _SET4_COL2, "standard"),
        Method("table3-col3", _SET4_COL3, "standard"),
        Method("improved4", IMPROVED_SET4, "improved"),
        Method("table5-col1", _SET6_COL1, "printed"),
        Method("table5-col2", _SET6_COL2, "printed"),
        Method("table5-col3", _SET6_COL3, "printed"),
        Method("improved6", IMPROVED_SET6, "series"),
        Method(
            "derived6-h4",
            zeroing_weights(6, {0: 0, 2: 0}),
            "series",
            note="canonical order-4 weights; reference used an unpublished choice",
        ),
        Method(
            "derived6-h6",
            zeroing_weights(6, {0: 0}),
            "series",
            note="canonical order-6 weights; reference used an unpublished choice",
        ),
    )
}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def max_abs_error(solution: GridSolution, exact: Expression) -> float:
    """Max over i = 1..n of |exact(t_i) - y_i| (y_0 is pinned exactly)."""
    reference = values_on_grid(exact, solution.t)
    return float(np.max(np.abs(reference[1:] - solution.y[1:])))


def slopes_from_errors(errors) -> list[float]:
    """log2 error ratios for consecutive grid doublings."""
    return [log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]


def convergence_order(case: AnalyticCase, method: Method, ns) -> list[float]:
    """Observed convergence slopes of ``method`` on ``case`` over ``ns``.

    ``ns`` must be strictly increasing with each entry valid for the
    method.  Each slope is log(e_a/e_b) / log(n_b/n_a) for consecutive
    sizes n_a < n_b with max errors e_a and e_b.
    """
    ns = list(ns)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("grid sizes must be strictly increasing")
    errors = [max_abs_error(method.solve(case.ivp, n), case.exact) for n in ns]
    return [s / log2(b / a) for s, a, b in zip(slopes_from_errors(errors), ns, ns[1:])]


# ---------------------------------------------------------------------------
# benchmark tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ErrorTable:
    """Max-abs grid errors for one case over a (n, method) matrix."""

    table_id: int
    case_id: int
    ns: tuple[int, ...]
    columns: tuple[str, ...]
    values: np.ndarray  # shape (len(ns), len(columns))
    notes: tuple[str, ...] = ()

    def cell(self, n: int, column: str) -> float:
        return float(self.values[self.ns.index(n), self.columns.index(column)])


#: Expected max-abs errors, used as regression baselines, and the layout of
#: each table: its grid sizes and columns, in order.  Cells carry two or
#: three significant figures.  The derived6-* columns of tables 6 and 8
#: are order-verified only: the baseline runs used an unpublished weight
#: choice for them, so their cells are not compared value-for-value.
REFERENCE_MAX_ERRORS: dict[int, dict[int, dict[str, float]]] = {
    1: {
        6: {"table1-col1": 6.74e-1, "table1-col2": 3.6e0, "table1-col3": 1.73e0},
        12: {"table1-col1": 5.77e-2, "table1-col2": 7.3e-1, "table1-col3": 2.22e-1},
        24: {"table1-col1": 3.3e-3, "table1-col2": 4.5e-2, "table1-col3": 1.3e-2},
        48: {"table1-col1": 1.48e-4, "table1-col2": 2.1e-3, "table1-col3": 5.93e-4},
    },
    2: {
        6: {"improved4": 1.7e-3},
        12: {"improved4": 1.17e-5},
        24: {"improved4": 7.19e-8},
        48: {"improved4": 7.72e-11},
    },
    3: {
        6: {"table3-col1": 1.14e-1, "table3-col2": 2.31e-2, "table3-col3": 6.86e-2},
        12: {"table3-col1": 1.14e-2, "table3-col2": 1.55e-2, "table3-col3": 2.4e-3},
        24: {"table3-col1": 1.4e-3, "table3-col2": 4.8e-3, "table3-col3": 6.40e-4},
        48: {"table3-col1": 2.18e-4, "table3-col2": 1.3e-3, "table3-col3": 2.87e-4},
    },
    4: {
        6: {"improved4": 2.53e-5},
        12: {"improved4": 1.53e-7},
        24: {"improved4": 1.06e-9},
        48: {"improved4": 1.09e-10},
    },
    5: {
        8: {"table5-col1": 7.98e-4, "table5-col2": 9.13e-4, "table5-col3": 9.51e-4},
        16: {"table5-col1": 7.50e-5, "table5-col2": 9.64e-5, "table5-col3": 1.03e-4},
        32: {"table5-col1": 5.45e-6, "table5-col2": 1.02e-5, "table5-col3": 1.18e-5},
        64: {"table5-col1": 1.28e-7, "table5-col2": 9.42e-7, "table5-col3": 1.37e-6},
    },
    6: {
        8: {"derived6-h4": 4.04e-5, "derived6-h6": 2.07e-1, "improved6": 2.13e-1},
        16: {"derived6-h4": 1.10e-6, "derived6-h6": 8.99e-9, "improved6": 4.80e-7},
    },
    7: {
        16: {"table5-col1": 7.35e-2, "table5-col2": 9.64e-2, "table5-col3": 1.03e-1},
        32: {"table5-col1": 1.01e-2, "table5-col2": 1.62e-2, "table5-col3": 1.82e-2},
        64: {"table5-col1": 4.51e-4, "table5-col2": 2.0e-3, "table5-col3": 2.5e-3},
        128: {"table5-col1": 1.98e-4, "table5-col2": 1.79e-4, "table5-col3": 3.05e-4},
    },
    8: {
        8: {"derived6-h4": 2.31e-2, "derived6-h6": 2.87e-1, "improved6": 2.98e-1},
        16: {"derived6-h4": 8.6e-3, "derived6-h6": 7.98e-5, "improved6": 9.93e-8},
    },
}


def reproduce_table(table_id: int) -> ErrorTable:
    """Recompute benchmark table ``table_id`` (1..8) on the grid sizes and
    columns of its reference cells, for the case that lists it."""
    if table_id not in REFERENCE_MAX_ERRORS:
        ids = sorted(REFERENCE_MAX_ERRORS)
        raise ValueError(f"no benchmark table {table_id}; valid ids are {ids[0]}..{ids[-1]}")
    ns = tuple(REFERENCE_MAX_ERRORS[table_id])
    columns = tuple(REFERENCE_MAX_ERRORS[table_id][ns[0]])
    case = next(case for case in builtin_cases() if table_id in case.tables)
    values = np.empty((len(ns), len(columns)))
    notes = []
    for j, name in enumerate(columns):
        method = METHODS[name]
        if method.note:
            notes.append(f"{name}: {method.note}")
        for i, n in enumerate(ns):
            values[i, j] = max_abs_error(method.solve(case.ivp, n), case.exact)
    return ErrorTable(
        table_id=table_id,
        case_id=case.case_id,
        ns=ns,
        columns=columns,
        values=values,
        notes=tuple(notes),
    )


def render_table(table: ErrorTable) -> str:
    """Aligned text rendering of an error table."""
    case = case_by_id(table.case_id)
    width = max(12, max(len(c) for c in table.columns) + 2)
    lines = [
        f"Benchmark table {table.table_id} (case {table.case_id}: {case.label})",
        "max-abs grid error",
        "",
        f"{'n':>6}" + "".join(f"{c:>{width}}" for c in table.columns),
    ]
    for i, n in enumerate(table.ns):
        cells = "".join(f"{table.values[i, j]:>{width}.3e}" for j in range(len(table.columns)))
        lines.append(f"{n:>6}{cells}")
    for note in table.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)

