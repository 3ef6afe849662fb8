"""Non-polynomial spline solver for fourth-order initial value problems.

Solves  y^(4) + f(t) y = g(t)  with four initial derivatives at t = a on a
uniform grid.  The restriction of the solution to each subinterval is a
mixed trigonometric-cubic spline; continuity of the first and third
derivatives at interior nodes yields a five-point consistency relation

    alpha*h^4*(D_{i-4} + D_i) + beta*h^4*(D_{i-3} + D_{i-1})
        + gamma*h^4*D_{i-2}
      = y_{i-4} - 4 y_{i-3} + 6 y_{i-2} - 4 y_{i-1} + y_i

between grid values and fourth-derivative values D_j, valid whenever the
weights satisfy 2*alpha + 2*beta + gamma = 1.  Three boundary-closure rows
complete the banded n x n system; two closure families are provided:

* ``standard``: closure rows exact through degree 5 (local error O(h^6)),
* ``improved``: closure rows exact through degree 9 (local error O(h^10)),
  which together with the weight set (-1/720, 31/180, 79/120) lifts the
  observed convergence to sixth order.

Weight sets are held as exact rationals; theta-parameterized weights are
provided for validation only, because the printed closed forms carry an
inconsistency that is surfaced via their normalization defect rather than
silently corrected (see :func:`theta_coefficients4`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from nlosc._assembly import (
    EndCondition,
    band_to_dense,
    build_arrays,
    grid_for,
    solve_collocation,
)
from nlosc.chain import HighOrderIVP

__all__ = [
    "CoefficientSet4",
    "GridSolution",
    "IMPROVED_SET4",
    "theta_coefficients4",
    "assemble_system4",
    "solve4",
    "truncation_leading4",
]

ORDER4 = 4
MIN_N4 = 6  # the closure rows reference node 6


def _fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError(f"coefficients must be exact; got float {value!r}")
    return Fraction(value)


@dataclass(frozen=True)
class CoefficientSet4:
    """Exact consistency weights (alpha, beta, gamma) plus closure family.

    The normalization 2*alpha + 2*beta + gamma = 1 is enforced exactly at
    construction; pass ``unchecked=True`` to experiment with weight sets
    that violate it.
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    end_variant: str = "standard"
    unchecked: bool = False

    def __post_init__(self):
        object.__setattr__(self, "alpha", _fraction(self.alpha))
        object.__setattr__(self, "beta", _fraction(self.beta))
        object.__setattr__(self, "gamma", _fraction(self.gamma))
        if self.end_variant not in ("standard", "improved"):
            raise ValueError(f"unknown end variant {self.end_variant!r}")
        if not self.unchecked:
            defect = 2 * self.alpha + 2 * self.beta + self.gamma - 1
            if defect != 0:
                raise ValueError(
                    f"weights violate 2*alpha + 2*beta + gamma = 1 (defect {defect})"
                )

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return (self.alpha, self.beta, self.gamma, self.beta, self.alpha)


#: The unique weight set whose interior truncation drops from O(h^6) to
#: O(h^10); used together with the improved closure rows.
IMPROVED_SET4 = CoefficientSet4(
    Fraction(-1, 720), Fraction(31, 180), Fraction(79, 120), end_variant="improved"
)


@dataclass(frozen=True, eq=False)
class GridSolution:
    """Approximate solution values on the uniform grid t_i = a + i*h."""

    t: np.ndarray
    y: np.ndarray
    method: str
    n: int
    h: float

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if t.shape != y.shape or t.shape != (self.n + 1,):
            raise ValueError("grid and values must both have n+1 entries")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "y", y)


class ThetaSet4(NamedTuple):
    alpha: float
    beta: float
    gamma: float

    @property
    def defect(self) -> float:
        """Deviation of 2*alpha + 2*beta + gamma from 1.

        The printed closed form for beta mixes a term of inconsistent
        scaling (its middle term lacks a sin(theta) divisor compared with
        its neighbors), so these weights do not normalize exactly; the
        defect is reported instead of being corrected.
        """
        return 2.0 * self.alpha + 2.0 * self.beta + self.gamma - 1.0


def theta_coefficients4(theta: float) -> ThetaSet4:
    """Verbatim evaluation of the theta-parameterized weights.

    ``theta`` is the product of the spline frequency and the grid spacing.
    Evaluation is refused outside [1e-2, pi - 1e-2]: sin(theta) vanishes at
    the ends and the formulas cancel catastrophically for tiny theta.
    Validation-only; production solves take explicit rational weight sets.
    """
    theta = float(theta)
    if not (1e-2 <= theta <= np.pi - 1e-2):
        raise ValueError(f"theta={theta} outside the supported range [1e-2, pi-1e-2]")
    s = np.sin(theta)
    c = np.cos(theta)
    alpha = 1.0 / (6.0 * theta * s) - 1.0 / (theta**3 * s) + 1.0 / theta**4
    beta = 2.0 * (1.0 + c) / (theta**3 * s) - (c - 2.0) / (3.0 * theta) - 4.0 / theta**4
    gamma = (
        -2.0 * (1.0 + 2.0 * c) / (theta**3 * s)
        + (1.0 - 4.0 * c) / (3.0 * theta * s)
        + 6.0 / theta**4
    )
    return ThetaSet4(alpha, beta, gamma)


# ---------------------------------------------------------------------------
# boundary-closure rows (exact rationals)
# ---------------------------------------------------------------------------

_F = Fraction

#: Standard closure family: rows exact for polynomials through degree 5.
STANDARD_END_CONDITIONS4 = (
    EndCondition(
        node_derivs=((0, _F(1)), (4, _F(1))),
        node_values=((0, _F(-220, 9)), (1, _F(40)), (2, _F(-20)), (3, _F(40, 9))),
        initial_derivs=((1, _F(-40, 3)),),
        bracket_derivs=((0, _F(-4, 3)),),
    ),
    EndCondition(
        node_derivs=((1, _F(1)), (5, _F(1))),
        node_values=((1, _F(18336, 575)), (2, _F(-22992, 575)), (3, _F(4656, 575))),
        initial_derivs=((1, _F(2736, 115)), (2, _F(15864, 575)), (3, _F(6648, 575))),
    ),
    EndCondition(
        node_derivs=((2, _F(1)), (6, _F(1))),
        node_values=((2, _F(8157, 865)), (3, _F(-11424, 865)), (4, _F(3267, 865))),
        initial_derivs=((1, _F(978, 173)), (2, _F(8958, 865)), (3, _F(5684, 865))),
    ),
)

#: Improved closure family: rows exact for polynomials through degree 9.
IMPROVED_END_CONDITIONS4 = (
    EndCondition(
        node_derivs=(
            (0, _F(1)),
            (1, _F(843268, 2081)),
            (2, _F(330342, 2081)),
            (3, _F(-16892, 2081)),
            (4, _F(1)),
        ),
        node_values=(
            (0, _F(-68397280, 18729)),
            (1, _F(13366080, 2081)),
            (2, _F(-7408800, 2081)),
            (3, _F(14781760, 18729)),
        ),
        initial_derivs=(
            (1, _F(-10427200, 6243)),
            (2, _F(743680, 2081)),
            (3, _F(259840, 2081)),
        ),
    ),
    EndCondition(
        node_derivs=(
            (1, _F(1)),
            (2, _F(-156090207332, 158360705)),
            (3, _F(-40456201386, 158360705)),
            (4, _F(-600708692, 158360705)),
            (5, _F(1)),
        ),
        node_values=(
            (1, _F(180155114496, 31672141)),
            (2, _F(-340726283352, 31672141)),
            (3, _F(210168798336, 31672141)),
            (4, _F(-49597629480, 31672141)),
        ),
        initial_derivs=(
            (1, _F(69181575120, 31672141)),
            (2, _F(42396452784, 31672141)),
            (3, _F(7557647328, 31672141)),
        ),
    ),
    EndCondition(
        node_derivs=(
            (2, _F(1)),
            (3, _F(-85514900495708, 1252977040745)),
            (4, _F(3759590586966, 1252977040745)),
            (5, _F(-7418340285788, 1252977040745)),
            (6, _F(1)),
        ),
        node_values=(
            (2, _F(43463161469952, 250595408149)),
            (3, _F(-94491207986112, 250595408149)),
            (4, _F(68699611790208, 250595408149)),
            (5, _F(-17671565274048, 250595408149)),
        ),
        initial_derivs=(
            (1, _F(10106680227840, 250595408149)),
            (2, _F(9581784601536, 250595408149)),
            (3, _F(2621304758016, 250595408149)),
        ),
    ),
)

_END_CONDITIONS4 = {
    "standard": STANDARD_END_CONDITIONS4,
    "improved": IMPROVED_END_CONDITIONS4,
}


def _collocation4(ivp: HighOrderIVP, coefficients: CoefficientSet4) -> dict:
    """Weights, closure rows and minimum grid of the 4th-order system."""
    if ivp.order != ORDER4:
        raise ValueError(f"this solver handles order {ORDER4}, got order {ivp.order}")
    return {
        "weights": coefficients.weights,
        "end_conditions": _END_CONDITIONS4[coefficients.end_variant],
        "min_n": MIN_N4,
    }


def assemble_system4(
    ivp: HighOrderIVP, n: int, coefficients: CoefficientSet4
) -> tuple[np.ndarray, np.ndarray]:
    """The system ``(matrix, rhs)`` in y_1..y_n for a 4th-order problem,
    as a dense n x n matrix (the solver itself keeps it in band form).

    The three closure rows of the selected family come first, followed by
    the consistency rows for windows ending at i = 4..n.  Requires n >= 6.
    """
    band, rhs = build_arrays(ivp, n, **_collocation4(ivp, coefficients))
    return band_to_dense(band), rhs


def solve4(ivp: HighOrderIVP, n: int, coefficients: CoefficientSet4) -> GridSolution:
    """Solve the 4th-order problem on n subintervals; y_0 is pinned to u_0."""
    inner = solve_collocation(ivp, n, **_collocation4(ivp, coefficients))
    t, h = grid_for(ivp, n)
    y = np.concatenate(([ivp.u[0]], inner))
    return GridSolution(t=t, y=y, method=f"spline4-{coefficients.end_variant}", n=n, h=h)


def truncation_leading4(coefficients: CoefficientSet4) -> tuple[int, Fraction]:
    """Leading interior truncation term of the consistency relation.

    Returns ``(6, c6)`` with c6 = (-1 + 24*alpha + 6*beta)/6 when that
    coefficient is nonzero, else ``(10, c10)`` with
    c10 = (-17 + 5376*alpha + 84*beta)/30240; both are exact rationals
    multiplying h^power * y^(power) at the window nodes.
    """
    a, b = coefficients.alpha, coefficients.beta
    c6 = Fraction(1, 6) * (-1 + 24 * a + 6 * b)
    if c6 != 0:
        return 6, c6
    return 10, Fraction(1, 30240) * (-17 + 5376 * a + 84 * b)

