"""Shared row assembly for the spline collocation systems.

Both solvers discretize  y^(p) + f(t) y = g(t)  on the uniform grid
t_i = a + i*h with unknowns y_1..y_n (y_0 is pinned by the initial value).
Two row families close the system:

* consistency rows: the p-th difference of neighboring grid values equals
  a weighted combination of the p-th derivative values D_j at the window
  nodes, scaled by h^p;
* boundary-closure rows ("end conditions"): linear relations near t = a
  between a few D_j, a few grid values, and the known initial derivatives.

Everywhere, D_j is eliminated through the differential equation itself,
D_j = -f(t_j) y_j + g(t_j), so the assembled matrix acts on grid values
only.  Every row is scaled by h^p so its entries stay O(1).

The assembled system is solved by numpy's LAPACK solver (``dgesv``) in
double precision, followed by two refinement passes whose residuals are
accumulated in extended precision (see :func:`solve_collocation`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from nlosc.chain import HighOrderIVP
from nlosc.expr import values_on_grid

__all__ = ["EndCondition", "build_arrays", "solve_collocation", "grid_for", "require_finite"]

Terms = tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class EndCondition:
    """One boundary-closure equation, kept in exact rationals.

    With p the problem order and D_j = y^(p)(t_j), the equation reads::

        sum c_j D_j = h^-p * [ sum d_j y(t_j)
                               + sum e_m h^m y^(m)(a)
                               + sum o_j h^p D_j ]

    node_derivs holds (j, c_j), node_values (j, d_j), initial_derivs
    (m, e_m) and bracket_derivs (j, o_j).  The o-terms are the high
    derivatives that appear inside the bracket itself; they are eliminated
    through the differential equation exactly like the left-hand D_j.
    """

    node_derivs: Terms
    node_values: Terms
    initial_derivs: Terms
    bracket_derivs: Terms = field(default=())

    def max_index(self) -> int:
        indices = [j for j, _ in self.node_derivs + self.node_values + self.bracket_derivs]
        return max(indices)


def require_finite(*arrays) -> None:
    """Raise ``ValueError`` unless every entry of ``arrays`` is finite."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError("system contains non-finite entries")


def grid_for(ivp: HighOrderIVP, n: int) -> tuple[np.ndarray, float]:
    a, b = ivp.interval
    h = (b - a) / n
    return a + h * np.arange(n + 1), h


def build_arrays(
    ivp: HighOrderIVP,
    n: int,
    weights: tuple[Fraction, ...],
    end_conditions: tuple[EndCondition, ...],
    min_n: int,
    pinned: tuple[tuple[int, float], ...] = (),
    dtype=np.float64,
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the n x n collocation rows in the unknowns y_1..y_n.

    ``weights`` is the full symmetric weight stencil of the consistency
    relation (length p+1); ``end_conditions`` supplies closure rows placed
    first, and ``pinned`` adds plain rows y_j = value (used by the series
    starting procedure).  Together they must contribute p - 1 rows.  Known
    quantities (y_0 = u_0, the initial derivatives, and y^(p)(a) obtained
    from the equation itself) are moved to the right-hand side.

    Exact rational coefficients are rounded directly into ``dtype``, so an
    extended-precision assembly does not inherit double rounding.
    """
    p = ivp.order
    if len(weights) != p + 1:
        raise ValueError(f"need {p + 1} consistency weights, got {len(weights)}")
    if len(end_conditions) + len(pinned) != p - 1:
        raise ValueError(f"closure must contribute {p - 1} rows")
    if n < min_n:
        raise ValueError(f"grid too coarse: n={n} but the closure rows need n >= {min_n}")

    def cast(q) -> np.floating:
        q = Fraction(q)
        return dtype(q.numerator) / dtype(q.denominator)

    a, b = ivp.interval
    h = (dtype(b) - dtype(a)) / dtype(n)
    t = dtype(a) + h * np.arange(n + 1, dtype=dtype)
    f_vals = values_on_grid(ivp.f, t)
    g_vals = values_on_grid(ivp.g, t)
    require_finite(f_vals, g_vals)
    u = [dtype(v) for v in ivp.u]
    hp = h**p

    # difference stencil: alternating binomial coefficients of order p
    binom = [1] + [0] * p
    for _ in range(p):
        binom = [1] + [binom[i] + binom[i + 1] for i in range(p)]
    delta = [dtype(((-1) ** (p - k)) * binom[k]) for k in range(p + 1)]

    # one column per node 0..n; node 0 carries the known y_0 = u_0, whose
    # column moves to the right-hand side at the end
    rows = np.zeros((n, n + 1), dtype=dtype)
    rhs = np.zeros(n, dtype=dtype)

    row = 0
    for j, value in pinned:
        rows[row, j] = dtype(1)
        rhs[row] = dtype(value)
        row += 1
    for cond in end_conditions:
        value = dtype(0)
        net: dict[int, Fraction] = {}
        for j, c in cond.node_derivs:
            net[j] = net.get(j, Fraction(0)) + c
        for j, o in cond.bracket_derivs:
            net[j] = net.get(j, Fraction(0)) - o
        for j, c in net.items():
            cf = cast(c)
            rows[row, j] += hp * cf * f_vals[j]
            value += hp * cf * g_vals[j]
        for j, d in cond.node_values:
            rows[row, j] += cast(d)
        for m, e in cond.initial_derivs:
            value -= cast(e) * h**m * u[m]
        rhs[row] = value
        row += 1

    # consistency rows, one diagonal at a time: the window ending at node
    # i = p..n is row i - 1 and puts its k-th weight on node i - p + k
    i = np.arange(p, n + 1)
    for k in range(p + 1):
        j = i - p + k
        w = cast(weights[k])
        rows[i - 1, j] = delta[k] + hp * w * f_vals[j]
        rhs[row:] += hp * w * g_vals[j]

    rhs -= rows[:, 0] * u[0]
    matrix = rows[:, 1:]
    return matrix, rhs


def solve_collocation(
    ivp: HighOrderIVP,
    n: int,
    weights: tuple[Fraction, ...],
    end_conditions: tuple[EndCondition, ...],
    min_n: int,
    pinned: tuple[tuple[int, float], ...] = (),
) -> np.ndarray:
    """Solve for y_1..y_n: a double-precision LAPACK solve plus two
    refinement passes with extended-precision residual accumulation.

    Without pinned rows the residuals are taken against the double-precision
    rows themselves (classical mixed-precision refinement): the result is
    the ordinary double-precision answer with the elimination round-off
    flushed.  That is the right tool for the tabulated closure rows, whose
    own truncation dominates rounding at every tabulated grid.

    With pinned rows (the series starting procedure) the residuals are
    taken against an extended-precision reassembly of the rows, so the
    iteration converges to the solution of the un-rounded system.  The
    series start pushes its boundary error so far down that double-rounded
    matrix entries, amplified by the system's h^-p conditioning, would
    otherwise cap fine grids near 1e-10 and mask the design order of the
    boosted weight sets.  On platforms whose long double equals double this
    degrades gracefully to plain refinement.

    Raises ``ValueError`` if the system has a non-finite entry and
    ``numpy.linalg.LinAlgError`` if it is singular.
    """
    matrix, rhs = build_arrays(ivp, n, weights, end_conditions, min_n, pinned)
    require_finite(matrix, rhs)
    x = np.linalg.solve(matrix, rhs)
    wide = np.longdouble
    if pinned:
        matrix_w, rhs_w = build_arrays(
            ivp, n, weights, end_conditions, min_n, pinned, dtype=wide
        )
    else:
        matrix_w = matrix.astype(wide)
        rhs_w = rhs.astype(wide)
    for _ in range(2):
        residual = (rhs_w - matrix_w @ x.astype(wide)).astype(float)
        x = x + np.linalg.solve(matrix, residual)
    return x
