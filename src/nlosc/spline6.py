"""Non-polynomial spline solver for sixth-order initial value problems.

Solves  y^(6) + f(t) y = g(t)  with six initial derivatives at t = a.  The
per-interval spline mixes a trigonometric pair with a quintic; continuity
of the first, third and fifth derivatives gives a seven-point consistency
relation

    h^6 * (alpha*(D_{i-6} + D_i) + beta*(D_{i-5} + D_{i-1})
           + gamma*(D_{i-4} + D_{i-2}) + delta*D_{i-3})
      = y_{i-6} - 6 y_{i-5} + 15 y_{i-4} - 20 y_{i-3}
        + 15 y_{i-2} - 6 y_{i-1} + y_i

whose weights must satisfy alpha + beta + gamma + delta/2 = 1/2.  Five
boundary-closure rows (local error O(h^8)) complete the system.  The
interior truncation error expands in even powers of h with bracket
coefficients that are linear in the weights; choosing weights that kill
successive brackets raises the method order up to h^8, whose unique weight
set is (1/30240, 41/5040, 2189/10080, 4153/7560).

The ``"series"`` closure instead pins y_1..y_5 to a Taylor expansion about
t = a of degree SERIES_START_DEGREE.  Its derivatives come from the initial
data extended through the equation, with g and f differentiated at a by
Taylor jets (:func:`nlosc.expr.taylor`), not symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

import numpy as np

from nlosc._assembly import (
    EndCondition,
    band_to_dense,
    build_arrays,
    grid_for,
    require_finite,
    solve_collocation,
)
from nlosc.chain import HighOrderIVP
from nlosc.expr import taylor
from nlosc.spline4 import GridSolution, _fraction

__all__ = [
    "CoefficientSet6",
    "IMPROVED_SET6",
    "SERIES_START_DEGREE",
    "theta_coefficients6",
    "derivatives_at_start",
    "assemble_system6",
    "solve6",
    "truncation_series6",
    "derive_parameters6",
]

ORDER6 = 6
MIN_N6 = 8  # the printed closure rows reference node 8

#: Truncation degree of the series starting procedure: start rows are
#: exact for polynomials through this degree, i.e. local error O(h^14),
#: matching the interior truncation order of the order-8 weight set the
#: same way the improved fourth-order closure matches its O(h^10) interior.
SERIES_START_DEGREE = 13


@dataclass(frozen=True)
class CoefficientSet6:
    """Exact consistency weights (alpha, beta, gamma, delta).

    The normalization alpha + beta + gamma + delta/2 = 1/2 is enforced
    exactly at construction unless ``unchecked=True``.
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    unchecked: bool = False

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta"):
            object.__setattr__(self, name, _fraction(getattr(self, name)))
        if not self.unchecked:
            defect = self.alpha + self.beta + self.gamma + Fraction(self.delta, 2) - Fraction(1, 2)
            if defect != 0:
                raise ValueError(
                    "weights violate alpha + beta + gamma + delta/2 = 1/2 "
                    f"(defect {defect})"
                )

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return (
            self.alpha,
            self.beta,
            self.gamma,
            self.delta,
            self.gamma,
            self.beta,
            self.alpha,
        )


#: The unique weight set that kills the h^6..h^12 truncation brackets,
#: giving an O(h^8) method.
IMPROVED_SET6 = CoefficientSet6(
    Fraction(1, 30240), Fraction(41, 5040), Fraction(2189, 10080), Fraction(4153, 7560)
)


class ThetaSet6(NamedTuple):
    alpha: float
    beta: float
    gamma: float
    delta: float

    @property
    def defect(self) -> float:
        """Deviation of alpha + beta + gamma + delta/2 from 1/2."""
        return self.alpha + self.beta + self.gamma + 0.5 * self.delta - 0.5


def theta_coefficients6(theta: float) -> ThetaSet6:
    """Verbatim evaluation of the theta-parameterized weights.

    Same domain policy as the fourth-order variant: theta must lie in
    [1e-2, pi - 1e-2].  Validation-only.
    """
    theta = float(theta)
    if not (1e-2 <= theta <= np.pi - 1e-2):
        raise ValueError(f"theta={theta} outside the supported range [1e-2, pi-1e-2]")
    s = np.sin(theta)
    c = np.cos(theta)
    t3 = theta**3
    t5 = theta**5
    t6 = theta**6
    alpha = (theta - s) / (t6 * s) - 1.0 / (6.0 * t3 * s) + 1.0 / (12.0 * theta * s)
    beta = (
        6.0 / t6
        - 2.0 * (c + 2.0) / (t5 * s)
        + (c - 1.0) / (3.0 * t3 * s)
        - (c - 13.0) / (60.0 * theta * s)
    )
    gamma = (
        (8.0 * c + 7.0) / (t5 * s)
        - 15.0 / t6
        + (4.0 * c + 5.0) / (6.0 * t3 * s)
        - (52.0 * c - 67.0) / (120.0 * theta * s)
    )
    delta = (
        20.0 / t6
        - 2.0 * (6.0 * c + 4.0) / (t5 * s)
        - 2.0 * (3.0 * c + 1.0) / (3.0 * t3 * s)
        - (33.0 * c - 13.0) / (30.0 * theta * s)
    )
    return ThetaSet6(alpha, beta, gamma, delta)


# ---------------------------------------------------------------------------
# boundary-closure rows (exact rationals)
# ---------------------------------------------------------------------------

_F = Fraction

#: Closure rows for the sixth-order problem, local error O(h^8).  The
#: second row's bracket contains an h^6 y^(6)(t_1) term that is eliminated
#: through the differential equation at assembly time.
END_CONDITIONS6 = (
    EndCondition(
        node_derivs=((0, _F(1)), (4, _F(1))),
        node_values=(
            (0, _F(2905, 12)),
            (1, _F(-336)),
            (2, _F(126)),
            (3, _F(-112, 3)),
            (4, _F(21, 4)),
        ),
        initial_derivs=((1, _F(175)), (2, _F(42))),
        bracket_derivs=((0, _F(-4, 5)),),
    ),
    EndCondition(
        node_derivs=((1, _F(1)), (5, _F(1))),
        node_values=(
            (1, _F(797790, 21983)),
            (2, _F(-1660890, 21983)),
            (3, _F(1299060, 21983)),
            (4, _F(-523110, 21983)),
            (5, _F(87150, 21983)),
        ),
        initial_derivs=((1, _F(283500, 21983)), (2, _F(172620, 21983))),
        bracket_derivs=((1, _F(-40167, 21983)),),
    ),
    EndCondition(
        node_derivs=((2, _F(1)), (6, _F(1))),
        node_values=(
            (2, _F(605725, 22267)),
            (3, _F(-108239440, 1803627)),
            (4, _F(1103910, 22267)),
            (5, _F(-446800, 22267)),
            (6, _F(5949805, 1803627)),
        ),
        initial_derivs=(
            (1, _F(675200, 85887)),
            (2, _F(700180, 66801)),
            (3, _F(851440, 200403)),
        ),
    ),
    EndCondition(
        node_derivs=((3, _F(1)), (7, _F(1))),
        node_values=(
            (3, _F(-670672000, 42346017)),
            (4, _F(44149995, 1568371)),
            (5, _F(-23862240, 1568371)),
            (6, _F(122902615, 42346017)),
        ),
        initial_derivs=(
            (1, _F(-12961750, 2016477)),
            (2, _F(-25078370, 1568371)),
            (3, _F(-77684300, 4705113)),
            (4, _F(-11492010, 1568371)),
        ),
    ),
    EndCondition(
        node_derivs=((4, _F(1)), (8, _F(1))),
        node_values=(
            (4, _F(49567095, 12837314)),
            (5, _F(-34289280, 6418657)),
            (6, _F(19011465, 12837314)),
        ),
        initial_derivs=(
            (1, _F(2182545, 916951)),
            (2, _F(59244435, 6418657)),
            (3, _F(107795790, 6418657)),
            (4, _F(115282605, 6418657)),
            (5, _F(65492262, 6418657)),
        ),
    ),
)


def _start_derivatives(ivp: HighOrderIVP, count: int, scalar) -> list:
    """y(a), y'(a), ..., y^(count-1)(a) in the requested scalar type.

    The given initial data is extended through the equation itself,
    y^(p) = g - f*y, by Leibniz's rule on f*y.  The derivatives of g and f
    at a are read off one Taylor jet each (g^(k) = k! * c_k, see
    :func:`nlosc.expr.taylor`), exact up to rounding, so no numerical
    differentiation error enters.
    """
    a = np.asarray(ivp.interval[0], dtype=scalar)
    derivs = [scalar(v) for v in ivp.u]
    extra = count - len(derivs)
    if extra <= 0:
        return derivs[:count]
    g_jet, f_jet = taylor(ivp.g, a, extra), taylor(ivp.f, a, extra)
    require_finite(g_jet, f_jet)
    f_values = [scalar(factorial(k) * c) for k, c in enumerate(f_jet)]
    for k, c in enumerate(g_jet):
        value = scalar(factorial(k) * c)
        for i in range(k + 1):
            value -= comb(k, i) * f_values[i] * derivs[k - i]
        derivs.append(value)
    return derivs


def derivatives_at_start(ivp: HighOrderIVP, count: int) -> list[float]:
    """y(a), y'(a), ..., y^(count-1)(a), extended through the equation."""
    return [float(v) for v in _start_derivatives(ivp, count, float)]


def _series_start_rows(ivp: HighOrderIVP, n: int) -> tuple[tuple[int, float], ...]:
    """Pin y_1..y_5 to one-sided series expansions about t = a, exact
    through degree SERIES_START_DEGREE.

    Evaluated in extended precision: these values carry the whole boundary
    accuracy of the series closure, and double rounding here would be
    amplified by the marching growth of the seven-point recurrence.
    """
    scalar = np.longdouble
    a, b = ivp.interval
    h = (scalar(b) - scalar(a)) / scalar(n)
    derivs = _start_derivatives(ivp, SERIES_START_DEGREE + 1, scalar)
    rows = []
    for j in range(1, 6):
        x = j * h
        value = sum(derivs[m] * x**m / scalar(factorial(m)) for m in range(SERIES_START_DEGREE + 1))
        rows.append((j, value))
    return tuple(rows)


def _collocation6(
    ivp: HighOrderIVP, n: int, coefficients: CoefficientSet6, closure: str
) -> dict:
    """Weights, closure rows and minimum grid of the 6th-order system."""
    if ivp.order != ORDER6:
        raise ValueError(f"this solver handles order {ORDER6}, got order {ivp.order}")
    if closure == "printed":
        end_conditions, pinned = END_CONDITIONS6, ()
    elif closure == "series":
        end_conditions, pinned = (), _series_start_rows(ivp, n)
    else:
        raise ValueError(f"unknown closure {closure!r}; use 'printed' or 'series'")
    return {
        "weights": coefficients.weights,
        "end_conditions": end_conditions,
        "min_n": MIN_N6,
        "pinned": pinned,
    }


def assemble_system6(
    ivp: HighOrderIVP, n: int, coefficients: CoefficientSet6, closure: str = "printed"
) -> tuple[np.ndarray, np.ndarray]:
    """The system ``(matrix, rhs)`` in y_1..y_n for a 6th-order problem,
    as a dense n x n matrix (the solver itself keeps it in band form).

    Five closure rows come first, followed by the consistency rows for
    windows ending at i = 6..n.  Requires n >= 8.  Two closure families:

    * ``"printed"``: the five tabulated boundary relations (local error
      O(h^8)); these reproduce the standard-weight benchmark tables.
    * ``"series"``: starting rows from a one-sided expansion exact through
      degree SERIES_START_DEGREE (local error O(h^14)); boundary error
      then no longer masks the high-order interior weight sets, which the
      printed rows otherwise do.
    """
    band, rhs = build_arrays(ivp, n, **_collocation6(ivp, n, coefficients, closure))
    return band_to_dense(band), rhs


def solve6(
    ivp: HighOrderIVP, n: int, coefficients: CoefficientSet6, closure: str = "printed"
) -> GridSolution:
    """Solve the 6th-order problem on n subintervals; y_0 is pinned to u_0."""
    inner = solve_collocation(ivp, n, **_collocation6(ivp, n, coefficients, closure))
    t, h = grid_for(ivp, n)
    y = np.concatenate(([ivp.u[0]], inner))
    return GridSolution(t=t, y=y, method=f"spline6-{closure}", n=n, h=h)


# truncation brackets of the consistency relation: the residual on the
# exact solution is sum_k B_k(weights) * h^k * y^(k) over even k = 6..16
_BRACKETS = (
    (6, Fraction(1), (-1, 2, 2, 2, 1)),
    (8, Fraction(1, 4), (-1, 36, 16, 4, 0)),
    (10, Fraction(1, 240), (-7, 1620, 320, 20, 0)),
    (12, Fraction(1, 7560), (-16, 15309, 1344, 21, 0)),
    (14, Fraction(1, 120960), (-13, 39366, 1536, 6, 0)),
    (16, Fraction(1, 159667200), (-651, 5196312, 90112, 88, 0)),
)


def truncation_series6(coefficients: CoefficientSet6) -> tuple[Fraction, ...]:
    """Exact bracket coefficients of h^6, h^8, ..., h^16 in the interior
    truncation error, as functions of the weight set."""
    a, b, g, d = (
        coefficients.alpha,
        coefficients.beta,
        coefficients.gamma,
        coefficients.delta,
    )
    out = []
    for _, scale, (c0, ca, cb, cg, cd) in _BRACKETS:
        out.append(scale * (c0 + ca * a + cb * b + cg * g + cd * d))
    return tuple(out)


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Tiny exact Gaussian elimination over Fractions (no pivot growth
    concerns at these sizes)."""
    m = [row[:] + [r] for row, r in zip(rows, rhs)]
    size = len(m)
    for col in range(size):
        pivot_row = next(r for r in range(col, size) if m[r][col] != 0)
        m[col], m[pivot_row] = m[pivot_row], m[col]
        pivot = m[col][col]
        m[col] = [v / pivot for v in m[col]]
        for r in range(size):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [v - factor * w for v, w in zip(m[r], m[col])]
    return [m[r][size] for r in range(size)]


def derive_parameters6(target_order: int) -> CoefficientSet6:
    """Weight set achieving a requested convergence order in {2, 4, 6, 8}.

    Order 2 kills only the h^6 bracket, order 4 also h^8, order 6 also
    h^10, and order 8 additionally h^12.  The lower orders are
    underdetermined; the canonical tie-break fixes alpha = 0 (for order 4
    also gamma = 0; for order 2 also beta = 0 and gamma = 1/4).  The
    order-8 system is uniquely determined.
    """
    one = Fraction(1)
    if target_order == 2:
        alpha, beta, gamma = Fraction(0), Fraction(0), Fraction(1, 4)
        delta = 1 - 2 * gamma  # h^6 bracket: 2a + 2b + 2g + d = 1
    elif target_order == 4:
        alpha, gamma = Fraction(0), Fraction(0)
        beta = _solve_exact([[Fraction(16)]], [one])[0]  # h^8 bracket
        delta = 1 - 2 * beta
    elif target_order == 6:
        alpha = Fraction(0)
        beta, gamma = _solve_exact(
            [[Fraction(16), Fraction(4)], [Fraction(320), Fraction(20)]],
            [one, Fraction(7)],
        )
        delta = 1 - 2 * beta - 2 * gamma
    elif target_order == 8:
        alpha, beta, gamma, delta = _solve_exact(
            [
                [Fraction(2), Fraction(2), Fraction(2), Fraction(1)],
                [Fraction(36), Fraction(16), Fraction(4), Fraction(0)],
                [Fraction(1620), Fraction(320), Fraction(20), Fraction(0)],
                [Fraction(15309), Fraction(1344), Fraction(21), Fraction(0)],
            ],
            [one, one, Fraction(7), Fraction(16)],
        )
    else:
        raise ValueError(f"target order must be one of 2, 4, 6, 8; got {target_order}")
    return CoefficientSet6(alpha, beta, gamma, delta)
