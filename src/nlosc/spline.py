"""Non-polynomial spline solver for even-order initial value problems.

Solves  y^(p) + f(t) y = g(t)  with p initial derivatives at t = a on the
uniform grid t_i = a + i*h, with unknowns y_1..y_n (y_0 is fixed by the
initial value); a ring of N oscillators reduces to p = 2N.  On each
subinterval the spline mixes a trigonometric pair with a polynomial of
degree p - 1; continuity of its odd derivatives at interior nodes gives a
(p+1)-point consistency relation

    h^p * sum_k w_k D_{i-p+k} = sum_k (-1)^(p-k) C(p, k) y_{i-p+k}

between grid values and p-th derivative values D_j.  The weights are
symmetric, w_k = w_{p-k}, and valid whenever the full stencil sums to 1;
a :class:`WeightSet` holds the half-stencil w_0..w_{p/2} (the paper's
alpha, beta, gamma, ...) as exact rationals.  Everywhere, D_j is
eliminated through the differential equation itself,
D_j = -f(t_j) y_j + g(t_j), so the rows act on grid values only.

p - 1 boundary-closure rows complete the n x n system: linear relations
near t = a between a few D_j, a few grid values and the known initial
derivatives (:class:`EndCondition`).  The closures are named in
:data:`CLOSURES`.  A tabulated row is derived, not typed: it is the one
row on its support that is exact through its closure's degree.

* ``standard`` (p = 4): degree 5 (local error O(h^6));
* ``improved`` (p = 4): degree 9 (local error O(h^10)), which together
  with IMPROVED_SET4 lifts the observed convergence to sixth order;
* ``printed`` (p = 6): degree 7 (local error O(h^8)); these rows
  reproduce the standard-weight benchmark tables;
* ``series`` (any p): y_1..y_{p-1} pinned to a Taylor expansion about
  t = a of degree max(SERIES_START_DEGREE, 2p + 1) (local error O(h^14)
  through p = 6, O(h^(2p+2)) above), so boundary error no longer masks
  the high-order interior weight sets.  Its terms are a_m = c_m h^m, from
  the Taylor coefficients of :func:`coefficients_at_start`.  A series whose
  last terms grow out to node p - 1 is an error: the grid is too coarse.

A :class:`Method` names one scheme, a weight set and a closure that fits
its order, and :meth:`Method.solve` is the one way to solve with it: it
takes a :class:`HighOrderIVP` and returns a :class:`GridSolution`, the two
records this module holds, which :mod:`nlosc.chain` builds on.

A tabulated closure touches the nodes 0..p+2 only, so its p - 1 rows and
the consistency rows of the windows ending at nodes p, p+1 and p+2 hold
y_1..y_{p+2} and no other unknown.  A consistency row is a closure row's
kind of equation, in :class:`EndCondition`'s net form, so one loop lays
out all p + 2 rows of that (p+2) x (p+2) block as two matrices over the
nodes 0..p+2 (:func:`_head_matrices`), :func:`head_system` scales them to
the grid and :func:`solve_head` solves the block densely; the series
closure gives y_0..y_{p-1} and their differences directly
(:func:`_series_start`).  No code here lays out all n rows: the tests keep
their own row-by-row reference of the whole system and check the head and
the march against it.

Past the head the system is a recurrence: the consistency row of the
window ending at node i is the only row that holds y_i.  :func:`march`
solves it in Henrici's summed form (*Discrete Variable Methods in ODEs*,
1962): it carries the backward differences of y from node to node and adds
each new p-th difference down that stack, O(n*p) work in double precision.
Each addition is rounded at the size of the difference it updates, so the
rounding error grows about linearly in n, where the binomial form of the
same recurrence amplifies it like eps*n^p.

The march is run one of two ways, chosen by its length alone, and both
give the same bits.  A march shorter than :data:`SWEEP_MIN_NODES` nodes
runs :func:`_loop`, one node at a time in Python floats.  A longer one
runs :func:`_sweep`, Picard iteration over all its nodes at once
(waveform relaxation, Lelarasmee, Ruehli & Sangiovanni-Vincentelli, 1982)
in numpy: from a guess of every new p-th difference, a sweep rebuilds the
stack at every node and solves every row for the next guess, each sum in
the loop's order of operations.  The row of node i reads only nodes below
i, so once a sweep leaves the first j guesses unchanged, they satisfy
their rows exactly as the loop computes them and are the loop's own
values; each sweep settles at least one more.  The sweeps stop when one
changes no bit of any guess, 4-8 sweeps on the built-in cases.  A stiff
or overflowing march settles few nodes per sweep, so after
:data:`SWEEP_LIMIT` sweeps the loop takes over from the first node the
sweeps have not settled.  Sums over a sweep's arrays are element-wise or
folds down axis 0 (``np.add.reduce(..., axis=0, initial=0.0)``, which
adds row after row from 0.0, as the loop does); never ``np.sum`` along a
row (pairwise), BLAS or ``np.correlate``, whose orders of addition differ
from the loop's.

What depends only on the scheme is built on first use and kept for the
rest of the process, each piece by ``functools.cache`` on the function
that builds it or ``cached_property`` on the object it belongs to: the
float form of each weight set (:attr:`WeightSet.float_weights`), the exact
rows of each tabulated closure (:func:`closure_rows`), the head of each
float weight set and tabulated closure's name (:func:`_head_matrices`, the
rows' one float form: the D coefficients C and value stencils V of its
p + 2 rows and the closure rows' initial-derivative terms), and the series
start's integer tables, one per order and degree (:func:`_series_tables`).
None of it is built at import.  A solve scales the head matrices to its
grid, ``((h^p C) * f).T + V`` for the block and a fold of ``(h^p C) * g``
down the nodes from 0.0 for the right-hand side, which are the products
and sums of a row-by-row build in its order of operations; so a solve
gives the same bits whether or not they were built already.

At every order the interior truncation error comes from one generating
series: on y = e^(st) with x = sh, the relation's residual is
x^p (sum_j w_j e^((j-p/2) x) - (2 sinh(x/2)/x)^p) about the window centre,
so it expands in even powers of h with brackets B_k
(:func:`truncation_brackets`) that are linear in the weights.  Their
constants are moments of the p-th difference stencil, as
(2 sinh(x/2))^p = sum_k (-1)^(p-k) C(p, k) e^((k-p/2) x).  Zeroing
B_p..B_2p fixes the half-stencil uniquely and gives interior truncation
O(h^(2p+2)), design order p + 2: that is IMPROVED_SET4 and IMPROVED_SET6,
(1/30240, 41/5040, 2189/10080, 4153/7560) at p = 6.  Holding some weights
at chosen values and zeroing fewer brackets gives lower orders:
:func:`zeroing_weights` (p, held) derives each set once, at any even order.
Every exact stencil, here and in :mod:`nlosc.chain`, is solved in Fractions
by :func:`_solve_exact` from one condition per unknown: a zeroed bracket,
or a row that holds for y = t^m.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import comb, factorial, fsum, isfinite, perm
from typing import NamedTuple

import numpy as np

from nlosc.expr import Expression, _natural, _on_grid, _values

__all__ = [
    "CLOSURES",
    "GridSolution",
    "HighOrderIVP",
    "IMPROVED_SET4",
    "IMPROVED_SET6",
    "Method",
    "SERIES_START_DEGREE",
    "WeightSet",
    "closure_rows",
    "coefficients_at_start",
    "min_n",
    "truncation_brackets",
    "zeroing_weights",
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
    (w_0, ..., w_{p/2}) from the outermost weight in (the paper's alpha,
    beta, gamma, ...).  The full stencil must sum to 1 exactly."""

    half: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "half", tuple(_fraction(w) for w in self.half))
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


def _bracket_forms(p: int, count: int) -> list[tuple[list[Fraction], Fraction]]:
    """B_p, B_{p+2}, ..., B_{p+2(count-1)} as linear forms in the
    half-stencil: the coefficient of each half weight, and the constant
    [x^{2m}] (2 sinh(x/2)/x)^p, the moment sum_k delta_k (k - p/2)^(p+2m)
    / (p+2m)! of the p-th difference stencil delta_k = (-1)^(p-k) C(p, k)."""
    centre = p // 2
    delta = [(-1) ** (p - k) * comb(p, k) for k in range(p + 1)]
    constants = []
    for degree in range(p, p + 2 * count, 2):
        moment = sum(d * (k - centre) ** degree for k, d in enumerate(delta))
        constants.append(Fraction(moment, factorial(degree)))

    def coefficient(j: int, m: int) -> Fraction:
        """sum of w_j (j - p/2)^(2m) / (2m)! over both copies of w_j"""
        copies = 1 if j == centre else 2
        return Fraction(copies * (j - centre) ** (2 * m), factorial(2 * m))

    return [([coefficient(j, m) for j in range(centre + 1)], constants[m]) for m in range(count)]


def truncation_brackets(half, count: int) -> tuple[Fraction, ...]:
    """Exact brackets B_p, B_{p+2}, ..., B_{p+2(count-1)} of the interior
    truncation error of the half-stencil ``half`` (w_0..w_{p/2}, any exact
    values, normalized or not), whose residual on the exact solution is
    sum_k B_k h^k y^(k) about the window centre, with

        B_k = sum_j w_j (j - p/2)^(k-p) / (k-p)!  -  [x^(k-p)] (2 sinh(x/2)/x)^p.

    The odd brackets vanish because the stencil is symmetric.
    """
    half = tuple(map(_fraction, half))
    return tuple(
        sum(c * w for c, w in zip(coefficients, half)) - constant
        for coefficients, constant in _bracket_forms(2 * (len(half) - 1), count)
    )


def _solve_exact(matrix: list[list], columns: list[list]) -> list[list[Fraction]]:
    """The solution x of ``matrix`` x = c for each right-hand side c in
    ``columns``, by Gauss-Jordan elimination in Fractions.  Each pivot becomes
    a ``Fraction``, so an integer matrix stays exact, and each step touches
    the columns from the pivot's on."""
    size = len(matrix)
    m = [[*row, *(column[r] for column in columns)] for r, row in enumerate(matrix)]
    for col in range(size):
        pivot_row = next(r for r in range(col, size) if m[r][col] != 0)
        m[col], m[pivot_row] = m[pivot_row], m[col]
        pivot = Fraction(m[col][col])
        m[col][col:] = [v / pivot for v in m[col][col:]]
        for r in range(size):
            factor = m[r][col]
            if r != col and factor != 0:
                m[r][col:] = [v - factor * w for v, w in zip(m[r][col:], m[col][col:])]
    return [[row[size + k] for row in m] for k in range(len(columns))]


def zeroing_weights(p: int, held: dict[int, Fraction] | None = None) -> WeightSet:
    """The order-p weight set whose half weights w_j for j in ``held`` take
    the given exact values and whose first brackets B_p, B_{p+2}, ... vanish,
    one for each remaining half weight.  With nothing held, that is the
    unique set of interior truncation O(h^(2p+2)).  Derived once per
    (p, held) and kept: the same arguments give the same object."""
    if p % 2 or p < 4:
        raise ValueError(f"the order must be even and at least 4; got {p}")
    held = {} if held is None else held
    if any(j not in range(p // 2 + 1) for j in held):
        raise ValueError(f"held weight indices must lie in 0..{p // 2}; got {sorted(held)}")
    return _derived_weights(p, tuple(sorted((j, _fraction(w)) for j, w in held.items())))


@cache
def _derived_weights(p: int, held: tuple[tuple[int, Fraction], ...]) -> WeightSet:
    held = dict(held)
    free = [j for j in range(p // 2 + 1) if j not in held]
    rows, rhs = [], []
    for coefficients, constant in _bracket_forms(p, len(free)):
        rows.append([coefficients[j] for j in free])
        rhs.append(constant - sum(coefficients[j] * w for j, w in held.items()))
    (solution,) = _solve_exact(rows, [rhs])
    half = {**held, **dict(zip(free, solution))}
    return WeightSet(tuple(half[j] for j in range(p // 2 + 1)))


#: The unique weight set whose interior truncation drops from O(h^6) to
#: O(h^10): B_4 = B_6 = B_8 = 0; used together with the improved closure rows.
IMPROVED_SET4 = zeroing_weights(4)

#: The unique weight set that kills the h^6..h^12 truncation brackets,
#: giving an O(h^8) method.
IMPROVED_SET6 = zeroing_weights(6)


@dataclass(frozen=True, eq=False)
class HighOrderIVP:
    """The reduced problem y^(p) + f(t) y = g(t) on [a, b], a < b, both finite.

    ``u`` holds the initial derivatives y(a), y'(a), ..., y^(p-1)(a), so
    its length is the order p, an even integer >= 4 (:attr:`order`).  For
    chain reductions ``f`` is a constant expression and ``g`` a sum of
    :class:`~nlosc.expr.Deriv` nodes over the forces; the solvers accept
    any continuous ``f`` and any expression ``g``.
    """

    f: Expression
    g: Expression
    interval: tuple[float, float]
    u: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(float(v) for v in self.u))
        if self.order < 4 or self.order % 2 != 0:
            raise ValueError(f"need an even number >= 4 of initial derivatives, got {self.order}")
        object.__setattr__(self, "interval", _interval(self.interval))

    @property
    def order(self) -> int:
        return len(self.u)


def _interval(value) -> tuple[float, float]:
    """The time interval ``value`` as floats (a, b); ``ValueError`` unless
    a < b, NaN included, and both ends are finite."""
    a, b = float(value[0]), float(value[1])
    if not a < b:
        raise ValueError(f"empty time interval [{a}, {b}]")
    if not (isfinite(a) and isfinite(b)):
        raise ValueError(f"time interval [{a}, {b}] is not finite")
    return a, b


@dataclass(frozen=True, eq=False)
class GridSolution:
    """Values ``y`` of the scheme ``method`` on the grid ``t``: t_i = a + i*h, i = 0..n."""

    t: np.ndarray
    y: np.ndarray
    method: str

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if t.ndim != 1 or t.shape != y.shape:
            raise ValueError("grid and values must be 1-D arrays of equal length")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return len(self.t) - 1


# ---------------------------------------------------------------------------
# boundary-closure rows, derived from their supports
# ---------------------------------------------------------------------------

Terms = tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class EndCondition:
    """One boundary-closure equation, kept in exact rationals.

    With p the problem order and D_j = y^(p)(t_j), the equation reads::

        sum c_j D_j = h^-p * [ sum d_j y(t_j) + sum e_m h^m y^(m)(a) ]

    node_derivs holds (j, c_j) in node order, node_values (j, d_j) and
    initial_derivs (m, e_m).  A row whose bracket holds a term h^p o_j D_j
    keeps it on the left, in the net coefficient c_j; like every D_j it is
    eliminated through the differential equation.
    """

    node_derivs: Terms
    node_values: Terms
    initial_derivs: Terms


class _TabulatedClosure(NamedTuple):
    """The p - 1 rows of a closure of order p, each exact for polynomials
    through ``degree``.  Row r holds D_r and D_{r+4} with coefficient 1
    plus what is solved for; ``rows[r]`` is the support of its unknown
    coefficients: (derivative nodes, value nodes, initial derivatives).
    A derivative node may be r or r + 4 itself.  Row r may reach the nodes
    max(0, r + 1 - p)..r + 4 only, the band of its row in the whole system
    (held by the tests, not checked here)."""

    degree: int
    rows: tuple

    @property
    def order(self) -> int:
        return len(self.rows) + 1


#: Boundary closures by name; :func:`closure_rows` derives the rows of a
#: tabulated one on first use.  "series" holds none: it pins y_1..y_{p-1}
#: to the series start instead, at any order.  Every tabulated row reaches
#: node p + 2 at most, the smallest grid of every closure (:func:`min_n`).
CLOSURES: dict[str, _TabulatedClosure | None] = {
    "standard": _TabulatedClosure(5, (
        ((0,), range(0, 4), range(1, 2)),
        ((), range(1, 4), range(1, 4)),
        ((), range(2, 5), range(1, 4)),
    )),
    "improved": _TabulatedClosure(9, tuple(
        (tuple(range(r + 1, r + 4)), range(r, r + 4), range(1, 4)) for r in range(3)
    )),
    "printed": _TabulatedClosure(7, (
        ((0,), range(0, 5), range(1, 3)),
        ((1,), range(1, 6), range(1, 3)),
        ((), range(2, 7), range(1, 4)),
        ((), range(3, 7), range(1, 5)),
        ((), range(4, 7), range(1, 6)),
    )),
    "series": None,
}


def _check_closure(closure: str, order: int) -> None:
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
    _check_closure(closure, order)
    return _derived_rows(closure) if CLOSURES[closure] else ()


@cache
def _derived_rows(closure: str) -> tuple[EndCondition, ...]:
    """Each row of a tabulated closure, solved by :func:`_solve_exact` from
    one integer condition per unknown: on the unit grid (a = 0, h = 1) the
    row holds for y = t^m, m = 0..degree.  Its D coefficients are the unit
    ones plus the solved ones, in node order."""
    degree, supports = CLOSURES[closure]
    p = CLOSURES[closure].order

    def derivative(m: int, k: int, t: int) -> int:
        """the k-th derivative of t^m, at t"""
        return perm(m, k) * t ** (m - k) if m >= k else 0

    rows = []
    for r, support in enumerate(supports):
        derivs, values, initial = support
        conditions = [
            [derivative(m, p, j) for j in derivs]
            + [-derivative(m, 0, j) for j in values]
            + [-derivative(m, k, 0) for k in initial]
            for m in range(degree + 1)
        ]
        rhs = [-derivative(m, p, r) - derivative(m, p, r + 4) for m in range(degree + 1)]
        (solution,) = _solve_exact(conditions, [rhs])
        coefficients = iter(solution)
        extra, *terms = (tuple((j, next(coefficients)) for j in nodes) for nodes in support)
        net = {r: Fraction(1), r + 4: Fraction(1)}
        for j, c in extra:
            net[j] = net.get(j, 0) + c
        rows.append(EndCondition(tuple(sorted(net.items())), *terms))
    return tuple(rows)


# ---------------------------------------------------------------------------
# the grid, the head and the march
# ---------------------------------------------------------------------------


def require_finite(*arrays) -> None:
    """Raise ``ValueError`` unless every entry of ``arrays`` is finite.
    Each test is one ufunc reduction, not ``ndarray.all``, which goes
    through numpy's Python-level wrapper."""
    for a in arrays:
        if not np.logical_and.reduce(np.isfinite(a), axis=None):
            raise ValueError("system contains non-finite entries")


def min_n(order: int) -> int:
    """The smallest grid every closure fits at ``order``: the tabulated rows
    reach node order + 2."""
    return order + 2


def grid_values(ivp: HighOrderIVP, n: int) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """``(t, h, f, g)``: the grid t_i = a + i*h, i = 0..n, and the values
    of f and g on it, under one ``np.errstate``; ``TypeError`` if n is not
    an integer, ``ValueError`` if it is below :func:`min_n`, past the float
    range or too large for memory, or a value is not finite."""
    n, p = operator.index(n), ivp.order
    if n < min_n(p):
        raise ValueError(f"grid too coarse: n={n} but order {p} needs n >= {min_n(p)}")
    a, b = ivp.interval
    try:
        h = (b - a) / n
    except OverflowError:  # an int n past the float range
        raise ValueError(f"grid size n={n} is past the float range") from None
    try:
        t = a + h * np.arange(n + 1)
    except MemoryError:  # numpy refuses an allocation past memory at once
        raise ValueError(f"grid size n={n} does not fit in memory") from None
    with np.errstate(all="ignore"):
        f, g = _on_grid(ivp.f, t), _on_grid(ivp.g, t)
    require_finite(f, g)
    return t, h, f, g


@cache
def _head_matrices(
    weights: tuple[float, ...], closure: str
) -> tuple[np.ndarray, np.ndarray, tuple[tuple[tuple[int, float], ...], ...]]:
    """``(C, V, initial)``: the p + 2 head rows of the tabulated closure
    named ``closure`` over the nodes 0..p+2, its p - 1 rows from
    :func:`closure_rows` and then the consistency rows of the windows ending
    at nodes p, p+1 and p+2.  ``C[j, r]`` is the net D coefficient of row r
    at node j and ``V[r, j]`` its value stencil; the row of the window
    ending at node i holds w_k on D and the p-th difference stencil
    (-1)^(p-k) C(p, k) on y, both at node i - p + k.  ``initial[r]`` holds
    closure row r's initial-derivative terms (m, e_m) in its order.  Each
    row names a node once, as :func:`closure_rows` gives it; every exact
    coefficient becomes a float here.  Every row lies in its band, as the
    support table keeps it (:class:`_TabulatedClosure`).

    Built on the first call for each float weight set and closure name and
    kept; ``ValueError`` from :func:`closure_rows` if the closure is unknown
    or tabulated for another order, and nothing is kept then."""
    p = len(weights) - 1
    end_conditions = closure_rows(closure, p)
    size = min_n(p)
    delta = [(-1) ** (p - k) * comb(p, k) for k in range(p + 1)]
    rows = [(cond.node_derivs, cond.node_values) for cond in end_conditions]
    for i in range(p, size + 1):
        nodes = range(i - p, i + 1)
        rows.append((zip(nodes, weights), zip(nodes, delta)))
    C, V = np.zeros((size + 1, size)), np.zeros((size, size + 1))
    for r, (net, nodes) in enumerate(rows):
        for matrix, terms in ((C.T, net), (V, nodes)):
            for j, c in terms:
                matrix[r, j] += float(c)
    # every caller shares the kept arrays
    C.flags.writeable = V.flags.writeable = False
    initial = tuple(tuple((m, float(e)) for m, e in cond.initial_derivs) for cond in end_conditions)
    return C, V, initial


def head_system(f, g, h, u, weights, closure) -> tuple[np.ndarray, list[float]]:
    """``(block, rhs)``: the (p+2) x (p+2) system in y_1..y_{p+2} of the
    tabulated closure named ``closure``, from ``f`` and ``g`` at the nodes
    0..p+2 (a longer grid is cut there).

    The rows are those of :func:`_head_matrices`, kept per float weight set
    and closure name; a solve scales their D coefficients by h^p before
    they meet f, as ``((h^p C) * f).T + V`` over the nodes 0..p+2, and
    forms each right-hand side as a fold of h^p C g down the nodes from
    0.0.  For finite f and g, a node that a row does not reach adds a
    signed zero, which changes neither an entry nor a fold from 0.0, so
    these are the bits of a row-by-row build.  Then, in Python floats, each
    closure row subtracts its kept initial-derivative terms e_m h^m u_m in
    term order, and the known y_0 = u_0 moves to the right-hand side of the
    first p rows, the only ones that reach node 0, as ``rhs -= entry * u_0``.

    ``ValueError`` if the closure is unknown or tabulated for an order
    other than that of the weights."""
    weights = tuple(map(float, weights))
    p = len(weights) - 1
    C, V, initial = _head_matrices(weights, closure)
    size = min_n(p)
    scaled = h**p * C
    lines = (scaled * f[: size + 1, None]).T + V
    # a fold down axis 0 adds node after node from 0.0
    rhs = np.add.reduce(scaled * g[: size + 1, None], axis=0, initial=0.0).tolist()
    for r, terms in enumerate(initial):
        for m, e in terms:
            rhs[r] -= e * h**m * u[m]
    for r, entry in enumerate(lines[:p, 0].tolist()):
        rhs[r] -= entry * u[0]
    return lines[:, 1:], rhs


def solve_head(f, g, h, u, weights, closure) -> tuple[list[float], list[float]]:
    """``(values, stack)``: y_0..y_{p+2} of the tabulated closure named
    ``closure`` and their backward differences nabla^k y_{p+2},
    k = 0..p-1, the start of :func:`march`.

    The values come from one dense solve of :func:`head_system`, whose
    rows hold no unknown past y_{p+2}; it raises what that builder raises.
    The differences are taken in one pass over the last p values, each as
    the same subtraction ``np.diff`` makes."""
    p = len(weights) - 1
    x = np.linalg.solve(*head_system(f, g, h, u, weights, closure))
    values = [float(u[0]), *x.tolist()]
    column, stack = values[-p:], []
    for _ in range(p):
        stack.append(column[-1])
        column = list(map(operator.sub, column[1:], column[:-1]))
    return values, stack


#: Marches of at least this many nodes run :func:`_sweep`, shorter ones
#: :func:`_loop`.  Near this length a sweep costs 20-35 microseconds, most
#: of it numpy call overhead, and a march takes 4-8 sweeps, about what the
#: loop takes for the whole march (measured on a 2-vCPU Xeon).
SWEEP_MIN_NODES = 128

#: Sweeps before :func:`_sweep` hands the steps it has not settled to
#: :func:`_loop`.  The built-in cases take 4-8 and |f| T^p = 1e6 about 25
#: at p = 4, but a stiff march settles few nodes per sweep (159 sweeps at
#: |f| T^p = 1e10), and one that overflows about one.
SWEEP_LIMIT = 32


def march(f, g, h, weights, head, stack) -> np.ndarray:
    """y_0..y_n from the consistency rows past the head, in summed form.

    ``head`` holds y_0..y_s and ``stack`` the backward differences
    nabla^k y_s for k = 0..p-1.  With D_j = g_j - f_j y_j and P the sum of
    the stack at node i - 1, the row of the window ending at node i reads

        nabla^p y_i = h^p * sum_{k<p} w_k D_{i-p+k} + h^p w_p (g_i - f_i (P + nabla^p y_i)),

    which is solved for nabla^p y_i and added down the stack, by
    :func:`_sweep` or :func:`_loop` as its length decides.

    A march with no node past the head (a tabulated closure at n = p + 2)
    returns the head's values, as :func:`_loop` does, and builds no row.

    Raises ``numpy.linalg.LinAlgError`` at a zero pivot and ``ValueError``
    if a coefficient is not finite.
    """
    if len(f) == len(head):
        return np.array(head, dtype=float)
    rows = _march_rows(f, g, h, weights, len(head) - 1)
    run = _sweep if len(f) - len(head) >= SWEEP_MIN_NODES else _loop
    return run(f, *rows, head, stack)


def _march_rows(f, g, h, weights, s) -> tuple[list[float], np.ndarray, np.ndarray]:
    """``(c, g_part, inverse)`` for the rows of nodes s+1..n: the
    coefficients c_k = h^p w_k, the g part h^p * sum_k w_k g_{i-p+k} of
    each row and the reciprocals of its pivot 1 + c_p f_i, taken once in
    numpy; ``LinAlgError`` at a zero pivot, ``ValueError`` at a
    non-finite one."""
    p, n = len(weights) - 1, len(f) - 1
    hp = h**p
    c = [hp * float(w) for w in weights]
    pivot = 1 + c[p] * f[s + 1 :]
    if n < p:  # no row; np.correlate would swap g and the shorter weights
        g_part = np.zeros(0)
    else:
        g_part = hp * np.correlate(g, np.array(weights, dtype=float), "valid")[s + 1 - p :]
    require_finite(pivot, g_part)
    if not np.logical_and.reduce(pivot):
        i = s + 1 + int(np.argmin(np.abs(pivot)))
        raise np.linalg.LinAlgError(f"singular system: the row of node {i} has a zero pivot")
    return c, g_part, 1 / pivot


def _loop(f, c, g_part, inverse, head, stack) -> np.ndarray:
    """The march one node at a time, from the rows of :func:`_march_rows`:
    each row's step is solved and added down the stack before the next row
    is read.

    Both sums are left folds from 0.0 in Python floats, so the bits do not
    depend on the interpreter (``sum`` of floats is compensated from
    Python 3.12 on)."""
    p, n, s = len(c) - 1, len(f) - 1, len(head) - 1
    *c, cp = c
    inverse, g_part, f = inverse.tolist(), g_part.tolist(), f.tolist()
    y = [float(v) for v in head]
    fy = list(map(operator.mul, f, y))
    diffs = [float(v) for v in stack]
    for r, i in enumerate(range(s + 1, n + 1)):
        window = total = 0.0
        for term in map(operator.mul, c, fy[i - p : i]):
            window += term
        for d in diffs:
            total += d
        step = (g_part[r] - window - cp * f[i] * total) * inverse[r]
        for k in range(p - 1, -1, -1):
            step = diffs[k] = diffs[k] + step
        y.append(step)
        fy.append(f[i] * step)
    return np.array(y)


def _sweep(f, c, g_part, inverse, head, stack) -> np.ndarray:
    """The march as Picard sweeps over all its nodes at once, stopped at
    the recurrence's exact fixed point: the bits of :func:`_loop`.

    Row k < p of ``levels`` holds nabla^k y at nodes s..n, and the last two
    rows alternate as the current and the next guess of nabla^p y at nodes
    s+1..n, the first guess 0.  A sweep adds the current guess down the
    levels with ``np.add.accumulate``, which adds in sequence exactly as
    the loop's ``diffs[k] + step`` does.  It then forms each row's stack
    sum P, f*y and the window sum in the loop's order of operations, and
    from them the next guess.
    """
    p, n, s = len(c) - 1, len(f) - 1, len(head) - 1
    m = n - s
    if m < 2:
        # numpy reduces a single column along it, pairwise from 8 rows on,
        # not row after row; one step is the loop's anyway
        return _loop(f, c, g_part, inverse, head, stack)
    levels = np.zeros((p + 2, m + 1))
    levels[:p, 0] = stack
    fy = np.empty(n + 1)
    fy[: s + 1] = f[: s + 1] * np.array(head, dtype=float)
    # row k holds f*y at nodes s+1-p+k .. n-p+k: term k of every window
    windows = np.lib.stride_tricks.sliding_window_view(fy, m)[s + 1 - p : s + 1]
    weights = np.array(c[:p])[:, None]
    products = np.empty((p, m))
    f_tail, cpf = f[s + 1 :], c[p] * f[s + 1 :]
    total, window = np.empty(m), np.empty(m)
    step, following = levels[p], levels[p + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(SWEEP_LIMIT):
            # column 0 of the row above holds the start of each level while
            # it is accumulated, and gets its own value back after
            for k in range(p - 1, -1, -1):
                above = step if k == p - 1 else levels[k + 1]
                above[0] = stack[k]
                np.add.accumulate(above, out=levels[k])
            levels[:p, 0] = stack
            # P and the window sums are folds down axis 0 from 0.0, row
            # after row, as the loop's folds are
            np.add.reduce(levels[:p, :m], axis=0, initial=0.0, out=total)
            np.multiply(f_tail, levels[0, 1:], out=fy[s + 1 :])
            np.multiply(windows, weights, out=products)
            np.add.reduce(products, axis=0, initial=0.0, out=window)
            np.subtract(g_part, window, out=window)
            np.multiply(cpf, total, out=total)
            np.subtract(window, total, out=window)
            np.multiply(window, inverse, out=following[1:])
            if following[1:].tobytes() == step[1:].tobytes():
                return np.concatenate((np.array(head, dtype=float), levels[0, 1:]))
            step, following = following, step
    # the levels hold the guess before the last, whose first d steps the
    # last sweep left unchanged: those steps are settled, and so are the
    # levels at nodes s..s+d
    d = int(np.argmax(step[1:].view(np.int64) != following[1:].view(np.int64)))
    head = np.concatenate((np.array(head, dtype=float), levels[0, 1 : d + 1]))
    return _loop(f, c, g_part[d:], inverse[d:], head, levels[:p, d])


def coefficients_at_start(ivp: HighOrderIVP, count: int) -> list[float]:
    """Taylor coefficients c_0..c_{count-1} of y about t = a, so that
    y^(m)(a) = m! c_m: c_m = u_m / m! for m < p, then, through the equation
    y^(p) = g - f*y, c_{m+p} = (g_m - sum_{i<=m} f_i c_{m-i}) / perm(m+p, p)
    from one Taylor jet each of g and f, in Python floats under one
    ``np.errstate`` (the walk of :func:`nlosc.expr.taylor`), exact up to
    rounding, so no numerical differentiation error enters.  ``TypeError``
    unless ``count`` is an integer, ``ValueError`` if it is negative."""
    p, count = ivp.order, _natural(count, "the coefficient count")
    coefficients = [v / factorial(m) for m, v in enumerate(ivp.u[:count])]
    if count <= p:
        return coefficients
    a = ivp.interval[0]
    with np.errstate(all="ignore"):
        g_jet, f_jet = (list(map(float, _values(e, a, count - p))) for e in (ivp.g, ivp.f))
    if not all(map(isfinite, g_jet + f_jet)):
        raise ValueError("system contains non-finite entries")
    for m, value in enumerate(g_jet):
        for i in range(m + 1):
            value -= f_jet[i] * coefficients[m - i]
        coefficients.append(value / perm(m + p, p))
    return coefficients


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

    With a_m = c_m h^m from the Taylor coefficients c_m of
    :func:`coefficients_at_start`, node j carries sum_m a_m j^m, and the
    differences of the monomials j^m are exact integers
    (:func:`_series_tables`), so each difference is summed from its own
    terms and none is a cancellation of rounded values: the higher
    differences keep their full relative accuracy.

    Raises ``ValueError`` when the series grows out to node p - 1: the
    largest of its last three terms there, |a_m| (p-1)^m, exceeds the
    largest of the three before them, unless those are 0 (as for t^12);
    and, before any jet, when (p-1)^degree is past the float range.
    """
    p = ivp.order
    degree = max(SERIES_START_DEGREE, 2 * p + 1)
    if (p - 1) ** degree > sys.float_info.max:
        raise ValueError(f"order {p} needs a series start of degree {degree}, past the float range")
    scaled = [c * h**m for m, c in enumerate(coefficients_at_start(ivp, degree + 1))]
    terms = [abs(c) * (p - 1) ** m for m, c in enumerate(scaled[-6:], degree - 5)]
    if 0 < max(terms[:3]) < max(terms[3:]):
        a = ivp.interval[0]
        raise ValueError(
            f"the series start about t={a} grows out to t={a + (p - 1) * h} instead of "
            "converging there: a finer grid is needed"
        )
    powers, differences = _series_tables(p, degree)
    values = [fsum(map(operator.mul, row, scaled)) for row in powers]
    stack = [fsum(map(operator.mul, row, scaled)) for row in differences]
    return values, stack


@dataclass(frozen=True)
class Method:
    """A named scheme, as the paper gives one: a weight set, which fixes the
    order, and the name of a closure of :data:`CLOSURES` that fits it
    (checked at construction).  Its :meth:`solve` is the one way to solve."""

    name: str
    coefficients: WeightSet
    closure: str

    def __post_init__(self):
        _check_closure(self.closure, self.order)

    @property
    def order(self) -> int:
        return self.coefficients.order

    @property
    def min_n(self) -> int:
        return min_n(self.order)

    def solve(self, ivp: HighOrderIVP, n: int) -> GridSolution:
        """Solve on n subintervals: the head of the closure, y_0 pinned to
        u_0, then the march to node n.  Raises ``ValueError`` on a
        non-finite coefficient, a grid size, power of h or series degree
        past the float range, a series start that grows instead of
        converging or a solution that is not finite (naming its first such
        node), ``numpy.linalg.LinAlgError`` on a singular system and
        ``TypeError`` if n is not an integer, before f or g is evaluated."""
        weights = self.coefficients
        if weights.order != ivp.order:
            raise ValueError(f"weights of order {weights.order} cannot solve order {ivp.order}")
        t, h, f, g = grid_values(ivp, n)
        try:
            if CLOSURES[self.closure]:
                head = solve_head(f, g, h, ivp.u, weights.float_weights, self.closure)
            else:
                head = _series_start(ivp, h)
        except OverflowError as exc:  # float ** raises where float * gives inf
            raise ValueError(f"grid spacing h={h} is too large: its powers overflow") from exc
        y = march(f, g, h, weights.float_weights, *head)
        finite = np.isfinite(y)
        if not np.logical_and.reduce(finite):
            bad = np.flatnonzero(~finite)[0]
            raise ValueError(f"the solution is not finite from node {bad} (t={t[bad]}) on")
        return GridSolution(t=t, y=y, method=self.name)
