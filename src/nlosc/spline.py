"""Non-polynomial spline solver for even-order initial value problems.

Solves  y^(p) + f(t) y = g(t)  with p initial derivatives at t = a on a
uniform grid; a ring of N oscillators reduces to p = 2N.  On each
subinterval the spline mixes a trigonometric pair with a polynomial of
degree p - 1; continuity of its odd derivatives at interior nodes gives a
(p+1)-point consistency relation

    h^p * sum_k w_k D_{i-p+k} = sum_k (-1)^(p-k) C(p, k) y_{i-p+k}

between grid values and p-th derivative values D_j.  The weights are
symmetric, w_k = w_{p-k}, and valid whenever the full stencil sums to 1;
a :class:`WeightSet` holds the half-stencil w_0..w_{p/2} (the paper's
alpha, beta, gamma, ...) as exact rationals.

p - 1 boundary-closure rows complete the n x n system; the closures are
named in :data:`CLOSURES`:

* ``standard`` (p = 4): rows exact through degree 5 (local error O(h^6));
* ``improved`` (p = 4): rows exact through degree 9 (local error O(h^10)),
  which together with IMPROVED_SET4 lifts the observed convergence to
  sixth order;
* ``printed`` (p = 6): the five tabulated rows (local error O(h^8)); these
  reproduce the standard-weight benchmark tables;
* ``series`` (any p): y_1..y_{p-1} pinned to a Taylor expansion about
  t = a of degree max(SERIES_START_DEGREE, 2p + 1) (local error O(h^14)
  through p = 6, O(h^(2p+2)) above), so boundary error no longer masks
  the high-order interior weight sets.  Its
  derivatives come from the initial data extended through the equation,
  with g and f differentiated at a by Taylor jets
  (:func:`nlosc.expr.taylor`), not symbolically.

Every closure is solved the same way (:func:`solve`): past its first
nodes the system is a recurrence, which :func:`nlosc._assembly.march`
solves in summed form, carrying the backward differences of y, node by
node on short grids and by numpy sweeps with the same bits on long ones.  A
tabulated closure fixes y_0..y_{p+2} by one dense solve of its rows and
the first three consistency rows; the series closure gives y_0..y_{p-1}
and their differences directly, each difference summed from the exact
integer differences of the monomials of its polynomial.

What depends only on the scheme is built on first use and kept for the
rest of the process: the float form of each weight set
(:attr:`WeightSet.float_weights`), the float coefficients of each closure
row (see :mod:`nlosc._assembly`) and the series start's integer tables,
one per order and degree (:func:`_series_tables`).  None of it is built at
import, and a solve gives the same bits either way.

At every order the interior truncation error comes from one generating
series: on y = e^(st) with x = sh, the relation's residual is
x^p (sum_j w_j e^((j-p/2) x) - (2 sinh(x/2)/x)^p) about the window centre,
so it expands in even powers of h with brackets B_k
(:func:`truncation_brackets`) that are linear in the weights.  Zeroing
B_p..B_2p fixes the half-stencil uniquely and gives interior truncation
O(h^(2p+2)), design order p + 2: that is IMPROVED_SET4 and IMPROVED_SET6,
(1/30240, 41/5040, 2189/10080, 4153/7560) at p = 6.  Holding some weights
at chosen values and zeroing fewer brackets gives the lower orders of
:func:`derive_parameters6`.

Theta-parameterized weights are provided for validation only, because the
printed closed forms carry an inconsistency that is surfaced via their
normalization defect rather than silently corrected (see
:func:`theta_coefficients4`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import comb, factorial, fsum
from typing import NamedTuple

import numpy as np

from nlosc._assembly import (
    EndCondition,
    grid_values,
    march,
    min_n,
    require_finite,
    solve_head,
)
from nlosc.chain import HighOrderIVP
from nlosc.expr import taylor

__all__ = [
    "CLOSURES",
    "GridSolution",
    "IMPROVED_SET4",
    "IMPROVED_SET6",
    "SERIES_START_DEGREE",
    "WeightSet",
    "closure_rows",
    "derivatives_at_start",
    "derive_parameters6",
    "min_n",
    "solve",
    "theta_coefficients4",
    "theta_coefficients6",
    "truncation_brackets",
]

#: Least truncation degree of the series starting procedure: start rows
#: are exact for polynomials through this degree, i.e. local error O(h^14).
#: At order p the start uses degree max(13, 2p + 1), so its local error
#: keeps pace with the O(h^(2p+2)) interior truncation of the derived
#: order-p weights (IMPROVED_SET6 at p = 6).
SERIES_START_DEGREE = 13


def _fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError(f"coefficients must be exact; got float {value!r}")
    return Fraction(value)


@dataclass(frozen=True)
class WeightSet:
    """Exact consistency weights of order p, as the half-stencil
    (w_0, ..., w_{p/2}) from the outermost weight in.

    The normalization "the full stencil sums to 1" is enforced exactly at
    construction; pass ``unchecked=True`` to experiment with weight sets
    that violate it.
    """

    half: tuple[Fraction, ...]
    unchecked: bool = False

    def __post_init__(self):
        object.__setattr__(self, "half", tuple(_fraction(w) for w in self.half))
        if not self.unchecked:
            defect = sum(self.weights) - 1
            if defect != 0:
                raise ValueError(f"the full weight stencil must sum to 1 (defect {defect})")

    @property
    def order(self) -> int:
        return 2 * (len(self.half) - 1)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        """The full symmetric stencil w_0..w_p."""
        return self.half + self.half[-2::-1]

    @cached_property
    def float_weights(self) -> tuple[float, ...]:
        """:attr:`weights` in floats, converted on first use."""
        return tuple(map(float, self.weights))

    # the paper's names, outermost weight first
    alpha = property(lambda self: self.half[0])
    beta = property(lambda self: self.half[1])
    gamma = property(lambda self: self.half[2])
    delta = property(lambda self: self.half[3])


def _bracket_forms(p: int, count: int) -> list[tuple[list[Fraction], Fraction]]:
    """B_p, B_{p+2}, ..., B_{p+2(count-1)} as linear forms in the
    half-stencil: the coefficient of each half weight, and the constant
    [x^{2m}] (2 sinh(x/2)/x)^p, from the series sum_m x^{2m} / (4^m (2m+1)!)."""
    sinhc = [Fraction(1, 4**m * factorial(2 * m + 1)) for m in range(count)]
    power = [Fraction(1)] + [Fraction(0)] * (count - 1)
    for _ in range(p):
        power = [sum(power[i] * sinhc[m - i] for i in range(m + 1)) for m in range(count)]
    centre = p // 2

    def coefficient(j: int, m: int) -> Fraction:
        """sum of w_j (j - p/2)^(2m) / (2m)! over both copies of w_j"""
        copies = 1 if j == centre else 2
        return Fraction(copies * (j - centre) ** (2 * m), factorial(2 * m))

    return [([coefficient(j, m) for j in range(centre + 1)], power[m]) for m in range(count)]


def truncation_brackets(weights: WeightSet, count: int) -> tuple[Fraction, ...]:
    """Exact brackets B_p, B_{p+2}, ..., B_{p+2(count-1)} of the interior
    truncation error, whose residual on the exact solution is
    sum_k B_k h^k y^(k) about the window centre, with

        B_k = sum_j w_j (j - p/2)^(k-p) / (k-p)!  -  [x^(k-p)] (2 sinh(x/2)/x)^p.

    The odd brackets vanish because the stencil is symmetric.
    """
    return tuple(
        sum(c * w for c, w in zip(coefficients, weights.half)) - constant
        for coefficients, constant in _bracket_forms(weights.order, count)
    )


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


def _zeroing_weights(p: int, held: dict[int, Fraction]) -> WeightSet:
    """The order-p weight set whose half weights w_j for j in ``held`` take
    the given values and whose first brackets B_p, B_{p+2}, ... vanish, one
    for each remaining half weight."""
    free = [j for j in range(p // 2 + 1) if j not in held]
    rows, rhs = [], []
    for coefficients, constant in _bracket_forms(p, len(free)):
        rows.append([coefficients[j] for j in free])
        rhs.append(constant - sum(coefficients[j] * w for j, w in held.items()))
    half = {**held, **dict(zip(free, _solve_exact(rows, rhs)))}
    return WeightSet(tuple(half[j] for j in range(p // 2 + 1)))


#: The unique weight set whose interior truncation drops from O(h^6) to
#: O(h^10): B_4 = B_6 = B_8 = 0; used together with the improved closure rows.
IMPROVED_SET4 = _zeroing_weights(4, {})

#: The unique weight set that kills the h^6..h^12 truncation brackets,
#: giving an O(h^8) method.
IMPROVED_SET6 = _zeroing_weights(6, {})

# half weights held by each target order of :func:`derive_parameters6`;
# the remaining ones zero one bracket each
_HELD6 = {
    2: {0: Fraction(0), 1: Fraction(0), 2: Fraction(1, 4)},
    4: {0: Fraction(0), 2: Fraction(0)},
    6: {0: Fraction(0)},
    8: {},
}


def derive_parameters6(target_order: int) -> WeightSet:
    """Weight set achieving a requested convergence order in {2, 4, 6, 8}.

    Order 2 kills only the h^6 bracket, order 4 also h^8, order 6 also
    h^10, and order 8 additionally h^12.  The lower orders are
    underdetermined; the canonical tie-break fixes alpha = 0 (for order 4
    also gamma = 0; for order 2 also beta = 0 and gamma = 1/4).  The
    order-8 system is uniquely determined.
    """
    if target_order not in _HELD6:
        raise ValueError(f"target order must be one of 2, 4, 6, 8; got {target_order}")
    return _zeroing_weights(6, _HELD6[target_order])


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

#: Standard fourth-order closure: rows exact for polynomials through degree 5.
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

#: Improved fourth-order closure: rows exact for polynomials through degree 9.
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

#: Boundary closures by name.  A tabulated closure holds the p - 1 rows of
#: one order p; "series" holds none, because it pins y_1..y_{p-1} to the
#: series start instead, at any order.  Every tabulated row reaches node
#: p + 2 at most, the smallest grid of every closure (see :func:`min_n`).
CLOSURES: dict[str, tuple[EndCondition, ...]] = {
    "standard": STANDARD_END_CONDITIONS4,
    "improved": IMPROVED_END_CONDITIONS4,
    "printed": END_CONDITIONS6,
    "series": (),
}


def closure_rows(closure: str, order: int) -> tuple[EndCondition, ...]:
    """The tabulated rows of ``closure`` at ``order`` (none for the series
    start); ``ValueError`` if the closure is unknown or tabulated for
    another order."""
    if not isinstance(closure, str) or closure not in CLOSURES:
        raise ValueError(f"unknown closure {closure!r}; use one of {', '.join(CLOSURES)}")
    rows = CLOSURES[closure]
    if rows and len(rows) != order - 1:
        raise ValueError(
            f"closure {closure!r} is tabulated for order {len(rows) + 1}, not order {order}"
        )
    return rows


def derivatives_at_start(ivp: HighOrderIVP, count: int) -> list[float]:
    """y(a), y'(a), ..., y^(count-1)(a), extended through the equation.

    The given initial data is extended through the equation itself,
    y^(p) = g - f*y, by Leibniz's rule on f*y.  The derivatives of g and f
    at a are read off one Taylor jet each (g^(k) = k! * c_k, see
    :func:`nlosc.expr.taylor`), exact up to rounding, so no numerical
    differentiation error enters.
    """
    derivs = [float(v) for v in ivp.u]
    extra = count - len(derivs)
    if extra <= 0:
        return derivs[:count]
    a = ivp.interval[0]
    g_jet, f_jet = taylor(ivp.g, a, extra), taylor(ivp.f, a, extra)
    require_finite(g_jet, f_jet)
    f_values = [factorial(k) * float(c) for k, c in enumerate(f_jet)]
    for k, c in enumerate(g_jet):
        value = factorial(k) * float(c)
        for i in range(k + 1):
            value -= comb(k, i) * f_values[i] * derivs[k - i]
        derivs.append(value)
    return derivs


@cache
def _series_tables(p: int, degree: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """``(powers, differences)``: the exact integers j^m for j = 0..p-1 and
    nabla^k j^m at j = p - 1 for k = 0..p-1, each row over m = 0..degree;
    built once per (p, degree)."""
    powers = [[j**m for m in range(degree + 1)] for j in range(p)]
    differences, column = [], powers
    for _ in range(p):
        differences.append(column[-1])
        column = [[a - b for a, b in zip(hi, lo)] for lo, hi in zip(column, column[1:])]
    return tuple(map(tuple, powers)), tuple(map(tuple, differences))


def _series_start(ivp: HighOrderIVP, h: float) -> tuple[list[float], list[float]]:
    """y_0..y_{p-1} of the Taylor polynomial about t = a of degree
    max(SERIES_START_DEGREE, 2p + 1), and its backward differences
    nabla^k y_{p-1} for k = 0..p-1.

    With a_m = y^(m)(a) h^m / m!, node j carries sum_m a_m j^m, and the
    differences of the monomials j^m are exact integers
    (:func:`_series_tables`), so each difference is summed from its own
    terms and none is a cancellation of rounded values: the higher
    differences keep their full relative accuracy.
    """
    degree = max(SERIES_START_DEGREE, 2 * ivp.order + 1)
    derivs = derivatives_at_start(ivp, degree + 1)
    scaled = [d * h**m / factorial(m) for m, d in enumerate(derivs)]
    powers, differences = _series_tables(ivp.order, degree)
    values = [fsum(map(operator.mul, row, scaled)) for row in powers]
    stack = [fsum(map(operator.mul, row, scaled)) for row in differences]
    return values, stack


def solve(ivp: HighOrderIVP, n: int, weights: WeightSet, closure: str) -> GridSolution:
    """Solve on n subintervals; y_0 is pinned to u_0.

    A tabulated closure fixes y_0..y_{p+2} by one dense solve of its head
    block, the series closure fixes y_0..y_{p-1} and their differences from
    the series start; the consistency rows are then marched to node n.
    Raises ``ValueError`` on a non-finite coefficient and
    ``numpy.linalg.LinAlgError`` on a singular system.
    """
    if weights.order != ivp.order:
        raise ValueError(f"weights of order {weights.order} cannot solve order {ivp.order}")
    rows = closure_rows(closure, ivp.order)
    t, h, f, g = grid_values(ivp, n)
    if rows:
        head = solve_head(f, g, h, ivp.u, weights.float_weights, rows)
    else:
        head = _series_start(ivp, h)
    y = march(f, g, h, weights.float_weights, *head)
    return GridSolution(t=t, y=y, method=f"spline{ivp.order}-{closure}", n=n, h=h)

