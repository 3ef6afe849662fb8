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
named in :data:`CLOSURES`.  A tabulated row is derived, not typed: it is
the one row on its support that is exact through its closure's degree.

* ``standard`` (p = 4): degree 5 (local error O(h^6));
* ``improved`` (p = 4): degree 9 (local error O(h^10)), which together
  with IMPROVED_SET4 lifts the observed convergence to sixth order;
* ``printed`` (p = 6): degree 7 (local error O(h^8)); these rows
  reproduce the standard-weight benchmark tables;
* ``series`` (any p): y_1..y_{p-1} pinned to a Taylor expansion about
  t = a of degree max(SERIES_START_DEGREE, 2p + 1) (local error O(h^14)
  through p = 6, O(h^(2p+2)) above), so boundary error no longer masks
  the high-order interior weight sets.  Its
  derivatives come from the initial data extended through the equation,
  with the derivatives of g and f at a taken from Taylor jets
  (:func:`nlosc.expr.taylor`).

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
(:attr:`WeightSet.float_weights`), the rows of each tabulated closure
(:func:`closure_rows`) and their float coefficients (see
:mod:`nlosc._assembly`), and the series start's integer tables, one per
order and degree (:func:`_series_tables`).  None of it is built at import,
and a solve gives the same bits either way.

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
    "check_closure",
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
# boundary-closure rows, derived from their supports
# ---------------------------------------------------------------------------


class _TabulatedClosure(NamedTuple):
    """The p - 1 rows of a closure of order p, each exact for polynomials
    through ``degree``.  Row r holds D_r and D_{r+4} with coefficient 1;
    ``rows[r]`` is the support of its other, unknown coefficients: (other
    derivative nodes, value nodes, initial derivatives, bracket nodes)."""

    order: int
    degree: int
    rows: tuple


#: Boundary closures by name; :func:`closure_rows` derives the rows of a
#: tabulated one on first use.  "series" holds none: it pins y_1..y_{p-1}
#: to the series start instead, at any order.  Every tabulated row reaches
#: node p + 2 at most, the smallest grid of every closure (:func:`min_n`).
CLOSURES: dict[str, _TabulatedClosure | None] = {
    "standard": _TabulatedClosure(4, 5, (
        ((), range(0, 4), range(1, 2), (0,)),
        ((), range(1, 4), range(1, 4), ()),
        ((), range(2, 5), range(1, 4), ()),
    )),
    "improved": _TabulatedClosure(4, 9, tuple(
        (tuple(range(r + 1, r + 4)), range(r, r + 4), range(1, 4), ()) for r in range(3)
    )),
    "printed": _TabulatedClosure(6, 7, (
        ((), range(0, 5), range(1, 3), (0,)),
        ((), range(1, 6), range(1, 3), (1,)),
        ((), range(2, 7), range(1, 4), ()),
        ((), range(3, 7), range(1, 5), ()),
        ((), range(4, 7), range(1, 6), ()),
    )),
    "series": None,
}


def check_closure(closure: str, order: int) -> None:
    """``ValueError`` if ``closure`` is unknown or tabulated for another
    order; reads the support table only, so it derives no row."""
    if not isinstance(closure, str) or closure not in CLOSURES:
        raise ValueError(f"unknown closure {closure!r}; use one of {', '.join(CLOSURES)}")
    tabulated = CLOSURES[closure]
    if tabulated and tabulated.order != order:
        raise ValueError(
            f"closure {closure!r} is tabulated for order {tabulated.order}, not order {order}"
        )


def closure_rows(closure: str, order: int) -> tuple[EndCondition, ...]:
    """The rows of ``closure`` at ``order``, none for the series start;
    derived on the first call and kept for the process."""
    check_closure(closure, order)
    return _derived_rows(closure) if CLOSURES[closure] else ()


@cache
def _derived_rows(closure: str) -> tuple[EndCondition, ...]:
    """Each row of a tabulated closure, solved exactly by :func:`_solve_exact`
    from one condition per unknown: on the unit grid (a = 0, h = 1) the row
    holds for y = t^m, m = 0..degree."""
    p, degree, supports = CLOSURES[closure]

    def derivative(m: int, k: int, t: int) -> Fraction:
        """the k-th derivative of t^m, at t"""
        return Fraction(factorial(m), factorial(m - k)) * t ** (m - k) if m >= k else Fraction(0)

    rows = []
    for r, support in enumerate(supports):
        derivs, values, initial, brackets = support
        conditions = [
            [derivative(m, p, j) for j in derivs]
            + [-derivative(m, 0, j) for j in values]
            + [-derivative(m, k, 0) for k in initial]
            + [-derivative(m, p, j) for j in brackets]
            for m in range(degree + 1)
        ]
        rhs = [-derivative(m, p, r) - derivative(m, p, r + 4) for m in range(degree + 1)]
        solution = iter(_solve_exact(conditions, rhs))
        extra, *terms = (tuple((j, next(solution)) for j in nodes) for nodes in support)
        unit = ((r, Fraction(1)), (r + 4, Fraction(1)))
        rows.append(EndCondition(tuple(sorted(unit + extra)), *terms))
    return tuple(rows)


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

