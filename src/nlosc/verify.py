"""Built-in benchmark cases, error metrics and table reproduction.

Four analytically solvable problems exercise the solver at both orders:

1. order 4:  y'''' - y = 4 cos t            on [-1, 1],  y = (1-t) sin t
2. order 4:  y'''' + t y = -e^t (8+7t+t^3)  on [0, 1],   y = t (1-t) e^t
3. order 6:  y^(6) - y = -6 e^t             on [0, 1],   y = (1-t) e^t
4. order 6:  y^(6) + y = 6 (2t cos t + 5 sin t) on [-1, 1], y = (t^2-1) sin t

Eight benchmark tables pair these cases with weight sets and grid sizes;
``REFERENCE_MAX_ERRORS`` records the expected max-abs grid errors used as
regression baselines.  An independent classical Runge-Kutta oracle provides
ground truth where no analytic solution is available.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from fractions import Fraction
from math import log2

import numpy as np

from nlosc.chain import HighOrderIVP
from nlosc.expr import Expression, evaluate, parse, values_on_grid
from nlosc.spline import (
    IMPROVED_SET4,
    IMPROVED_SET6,
    GridSolution,
    WeightSet,
    closure_rows,
    derive_parameters6,
    min_n,
    solve,
    theta_coefficients4,
    theta_coefficients6,
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
    "oracle_steps",
    "integrate_first_order",
    "rk_oracle",
    "oracle_max_error",
    "reproduce_table",
    "render_table",
    "build_report",
]

DEFAULT_ORACLE_STEPS = 100_000
_ORACLE_STEPS_ENV = "NLOSC_ORACLE_STEPS"


@dataclass(frozen=True, eq=False)
class AnalyticCase:
    """A benchmark problem with a closed-form solution."""

    case_id: int
    ivp: HighOrderIVP
    exact: Expression
    tables: tuple[int, ...]
    label: str


def _u(expressions: tuple[str, ...], at: float) -> tuple[float, ...]:
    # initial data kept as closed forms and evaluated in double precision,
    # so no decimal transcription error enters the u-vector
    return tuple(evaluate(parse(text), at) for text in expressions)


def builtin_cases() -> tuple[AnalyticCase, ...]:
    """The four built-in benchmark cases."""
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
    raise ValueError(f"no built-in case {case_id}; valid ids are 1..4")


# ---------------------------------------------------------------------------
# methods
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Method:
    """A named solver configuration: weight set plus boundary closure.

    The weights fix the problem order; ``closure`` names an entry of
    :data:`nlosc.spline.CLOSURES` that fits it (checked at construction).
    """

    name: str
    coefficients: WeightSet
    closure: str
    note: str = ""

    def __post_init__(self):
        closure_rows(self.closure, self.order)

    @property
    def order(self) -> int:
        return self.coefficients.order

    @property
    def min_n(self) -> int:
        return min_n(self.order)

    def solve(self, ivp: HighOrderIVP, n: int) -> GridSolution:
        solution = solve(ivp, n, self.coefficients, self.closure)
        return replace(solution, method=self.name)


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
            derive_parameters6(4),
            "series",
            note="canonical order-4 weights; reference used an unpublished choice",
        ),
        Method(
            "derived6-h6",
            derive_parameters6(6),
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
    method; consecutive entries are expected to double.
    """
    ns = list(ns)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("grid sizes must be strictly increasing")
    errors = [max_abs_error(method.solve(case.ivp, n), case.exact) for n in ns]
    return slopes_from_errors(errors)


# ---------------------------------------------------------------------------
# independent oracle
# ---------------------------------------------------------------------------


def oracle_steps() -> int:
    """Default oracle resolution; can be overridden via NLOSC_ORACLE_STEPS."""
    raw = os.environ.get(_ORACLE_STEPS_ENV)
    return int(raw) if raw else DEFAULT_ORACLE_STEPS


def integrate_first_order(ivp: HighOrderIVP, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Classical 4-stage one-step integration of the equivalent first-order
    system z = (y, y', ..., y^(order-1)).

    Returns the time grid and the full state history, shape
    (steps + 1, order).  f and g are evaluated once per stage time up
    front, so the stepping loop is pure float arithmetic.
    """
    steps = int(steps)
    if steps < 1:
        raise ValueError("steps must be positive")
    a, b = ivp.interval
    h = (b - a) / steps
    t = a + h * np.arange(steps + 1)
    mid = t[:-1] + 0.5 * h
    f_node = values_on_grid(ivp.f, t).tolist()
    g_node = values_on_grid(ivp.g, t).tolist()
    f_mid = values_on_grid(ivp.f, mid).tolist()
    g_mid = values_on_grid(ivp.g, mid).tolist()

    order = ivp.order
    out = np.empty((steps + 1, order))
    z = list(ivp.u)
    out[0] = z
    sixth = h / 6.0
    half = 0.5 * h
    for i in range(steps):
        f0, g0 = f_node[i], g_node[i]
        fm, gm = f_mid[i], g_mid[i]
        f1, g1 = f_node[i + 1], g_node[i + 1]
        k1 = z[1:] + [g0 - f0 * z[0]]
        s = [zj + half * kj for zj, kj in zip(z, k1)]
        k2 = s[1:] + [gm - fm * s[0]]
        s = [zj + half * kj for zj, kj in zip(z, k2)]
        k3 = s[1:] + [gm - fm * s[0]]
        s = [zj + h * kj for zj, kj in zip(z, k3)]
        k4 = s[1:] + [g1 - f1 * s[0]]
        z = [
            zj + sixth * (a1 + 2.0 * (a2 + a3) + a4)
            for zj, a1, a2, a3, a4 in zip(z, k1, k2, k3, k4)
        ]
        out[i + 1] = z
    return t, out


def rk_oracle(ivp: HighOrderIVP, steps: int | None = None, grid_n: int | None = None) -> GridSolution:
    """Fine-step ground truth for an initial value problem.

    Integrates with ``steps`` uniform steps (default from
    NLOSC_ORACLE_STEPS, else 100000) and subsamples the result onto a
    coarser grid of ``grid_n`` subintervals, which must divide ``steps``
    evenly.
    """
    if steps is None:
        steps = oracle_steps()
    steps = int(steps)
    if grid_n is None:
        grid_n = steps
    grid_n = int(grid_n)
    if grid_n < 1 or steps % grid_n != 0:
        raise ValueError(f"step count {steps} is not a multiple of the requested grid {grid_n}")
    t, states = integrate_first_order(ivp, steps)
    stride = steps // grid_n
    a, b = ivp.interval
    h = (b - a) / grid_n
    return GridSolution(
        t=t[::stride], y=states[::stride, 0], method="oracle-rk4", n=grid_n, h=h
    )


def oracle_max_error(solution: GridSolution, oracle: GridSolution) -> float:
    """Max-abs deviation between a solution and oracle values on its grid."""
    if oracle.n % solution.n != 0:
        raise ValueError("oracle grid does not refine the solution grid")
    stride = oracle.n // solution.n
    return float(np.max(np.abs(oracle.y[::stride][1:] - solution.y[1:])))


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


_TABLE_LAYOUT: dict[int, tuple[int, tuple[int, ...], tuple[str, ...]]] = {
    1: (1, (6, 12, 24, 48), ("table1-col1", "table1-col2", "table1-col3")),
    2: (1, (6, 12, 24, 48), ("improved4",)),
    3: (2, (6, 12, 24, 48), ("table3-col1", "table3-col2", "table3-col3")),
    4: (2, (6, 12, 24, 48), ("improved4",)),
    5: (3, (8, 16, 32, 64), ("table5-col1", "table5-col2", "table5-col3")),
    6: (3, (8, 16), ("derived6-h4", "derived6-h6", "improved6")),
    7: (4, (16, 32, 64, 128), ("table5-col1", "table5-col2", "table5-col3")),
    8: (4, (8, 16), ("derived6-h4", "derived6-h6", "improved6")),
}

#: Expected max-abs errors, used as regression baselines.  Cells carry two
#: or three significant figures.  The derived6-* columns of tables 6 and 8
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
    """Recompute benchmark table ``table_id`` (1..8)."""
    if table_id not in _TABLE_LAYOUT:
        raise ValueError(f"no benchmark table {table_id}; valid ids are 1..8")
    case_id, ns, columns = _TABLE_LAYOUT[table_id]
    case = case_by_id(case_id)
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
        case_id=case_id,
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


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------


def build_report() -> str:
    """Full verification report: every benchmark table recomputed and
    compared against its reference values, observed convergence slopes, and
    the theta-weight normalization defects.

    The reference narrative claims plain second-order behavior for the
    standard weight sets ("error falls by 1/4 per doubling"); the observed
    ratios recorded here are generally much steeper, and are archived
    instead of asserting that narrative.
    """
    lines = ["nlosc verification report", "=" * 60, ""]
    for table_id in sorted(_TABLE_LAYOUT):
        table = reproduce_table(table_id)
        lines.append(render_table(table))
        lines.append("")
        lines.append(f"{'n':>6}{'':>2}reference ratio (computed/reference)")
        reference = REFERENCE_MAX_ERRORS[table_id]
        for i, n in enumerate(table.ns):
            ratios = []
            for j, column in enumerate(table.columns):
                ref = reference[n][column]
                ratios.append(f"{column}={table.values[i, j] / ref:6.3f}")
            lines.append(f"{n:>6}  " + "  ".join(ratios))
        lines.append("")
        lines.append("observed slopes per doubling:")
        for j, column in enumerate(table.columns):
            slopes = slopes_from_errors(list(table.values[:, j]))
            rendered = ", ".join(f"{s:.2f}" for s in slopes)
            lines.append(f"  {column}: {rendered}")
        lines.append("-" * 60)
        lines.append("")

    lines.append("theta-weight normalization defects (validation only):")
    for theta in (0.5, 1.0, 1.5, 2.0, 3.0):
        d4 = theta_coefficients4(theta).defect
        d6 = theta_coefficients6(theta).defect
        lines.append(f"  theta={theta:4.2f}:  order-4 defect {d4: .3e}   order-6 defect {d6: .3e}")
    lines.append("")
    lines.append("notes")
    lines.append("-" * 60)
    lines.append(
        "* tables 1 and 3 share the same three weight sets but reproduce the\n"
        "  reference values only with different closure families: table 1\n"
        "  matches the improved closure rows, table 3 the standard ones.  The\n"
        "  method presets encode that pairing (table1-col* vs table3-col*).\n"
        "* every tabulated closure row was verified against an exact monomial\n"
        "  expansion: each row is exact through its design degree and its\n"
        "  leading truncation constant matches the documented value, including\n"
        "  the sixth-order row whose mixed denominators looked suspicious.\n"
        "* the reference narrative claims plain second-order decay (error /4\n"
        "  per doubling) for the standard weight sets; the observed ratios\n"
        "  above are generally much steeper and are archived rather than\n"
        "  asserted.\n"
        "* tables 6 and 8 derived6-*/improved6 columns use the canonical\n"
        "  tie-break weights with the degree-13 series starting procedure; the\n"
        "  reference runs used unpublished weights and closure there, so those\n"
        "  columns verify convergence order only.  With the series closure the\n"
        "  order-8 cell comes out about an order of magnitude below the\n"
        "  reference value.\n"
        "* cells at the 1e-10 scale and below sit near the double-precision\n"
        "  rounding floor: printed-closure solves use classical refinement,\n"
        "  series-closure solves refine against an extended-precision\n"
        "  reassembly so the boosted weight sets can express their order."
    )
    return "\n".join(lines)
