"""Shared row assembly and the marching solve for the spline collocation
systems.

The spline solver (:mod:`nlosc.spline`) discretizes  y^(p) + f(t) y = g(t)
on the uniform grid t_i = a + i*h with unknowns y_1..y_n (y_0 is pinned by
the initial value), for every even order p.
Two row families close the system:

* consistency rows: the p-th difference of neighboring grid values equals
  a weighted combination of the p-th derivative values D_j at the window
  nodes, scaled by h^p;
* boundary-closure rows ("end conditions"): linear relations near t = a
  between a few D_j, a few grid values, and the known initial derivatives.

Everywhere, D_j is eliminated through the differential equation itself,
D_j = -f(t_j) y_j + g(t_j), so the rows act on grid values only.

Past the closure rows the system is a recurrence: the consistency row of
the window ending at node i is the only row that holds y_i.  :func:`march`
solves it in Henrici's summed form (*Discrete Variable Methods in ODEs*,
1962): it carries the backward differences of y from node to node and adds
each new p-th difference down that stack, O(n*p) work in double precision.
Each addition is rounded at the size of the difference it updates, so the
rounding error grows about linearly in n, where the binomial form of the
same recurrence amplifies it like eps*n^p.

:func:`build_arrays` assembles the rows themselves in band form (row r
touches the unknowns r-p..r+3 only); a tabulated closure takes its head
block from there, and the band is the reference the march is tested
against.

What depends only on the scheme is built once per process, on first use:
the float coefficients of each closure row (:attr:`EndCondition.float_terms`,
with the c - o sums taken exactly first) and the p-th difference stencil
of each order.  Each solve then builds its closure rows in Python floats
from those, in the same order of operations, so a solve gives the same
bits whether or not they were built already.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from math import comb

import numpy as np

from nlosc.chain import HighOrderIVP
from nlosc.expr import values_on_grid

__all__ = [
    "EndCondition",
    "band_to_dense",
    "build_arrays",
    "grid_values",
    "march",
    "min_n",
    "require_finite",
    "solve_head",
]

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

    @cached_property
    def float_terms(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """``(net, node_values, initial_derivs)`` in floats, converted on
        first use: net holds (j, c_j - o_j), summed exactly before rounding."""
        net: dict[int, Fraction] = {}
        for j, c in self.node_derivs:
            net[j] = net.get(j, Fraction(0)) + c
        for j, o in self.bracket_derivs:
            net[j] = net.get(j, Fraction(0)) - o
        return tuple(
            tuple((j, float(c)) for j, c in terms)
            for terms in (net.items(), self.node_values, self.initial_derivs)
        )


def require_finite(*arrays) -> None:
    """Raise ``ValueError`` unless every entry of ``arrays`` is finite."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError("system contains non-finite entries")


def min_n(order: int) -> int:
    """The smallest grid every closure fits at ``order``: the tabulated rows
    reach node order + 2."""
    return order + 2


def grid_values(ivp: HighOrderIVP, n: int) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """``(t, h, f, g)``: the grid t_i = a + i*h, i = 0..n, and the values
    of f and g on it; ``ValueError`` if n is below :func:`min_n` or a value
    is not finite."""
    if n < min_n(ivp.order):
        raise ValueError(
            f"grid too coarse: n={n} but the closure rows need n >= {min_n(ivp.order)}"
        )
    a, b = ivp.interval
    h = (b - a) / n
    t = a + h * np.arange(n + 1)
    f, g = values_on_grid(ivp.f, t), values_on_grid(ivp.g, t)
    require_finite(f, g)
    return t, h, f, g


def build_arrays(
    ivp: HighOrderIVP,
    n: int,
    weights: tuple[Fraction, ...],
    end_conditions: tuple[EndCondition, ...],
    pinned: tuple[tuple[int, float], ...] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the n collocation rows in the unknowns y_1..y_n in band
    form: returns ``(band, rhs)`` with ``band`` of shape (n, p + 4), where
    ``band[r, k]`` multiplies the unknown in column r + k - p (that is,
    y_{r+k-p+1}); :func:`band_to_dense` gives the n x n matrix.

    ``weights`` is the full symmetric weight stencil of the consistency
    relation (length p+1), exact or in floats; ``end_conditions`` supplies
    closure rows placed first, and ``pinned`` adds plain rows y_j = value
    (used by the series starting procedure).  Together they must
    contribute p - 1 rows.  Known quantities (y_0 = u_0, the initial
    derivatives, and y^(p)(a) obtained from the equation itself) are moved
    to the right-hand side.
    """
    _, h, f, g = grid_values(ivp, n)
    return _band_rows(f, g, h, ivp.u, weights, end_conditions, pinned)


def _band_rows(f, g, h, u, weights, end_conditions, pinned=()):
    """The rows of :func:`build_arrays` from the values of f and g at the
    nodes 0..n; the first rows depend on the first nodes only, so a prefix
    of f and g gives a prefix of the rows."""
    n, p = len(f) - 1, len(weights) - 1
    if len(end_conditions) + len(pinned) != p - 1:
        raise ValueError(f"closure must contribute {p - 1} rows")

    def column(row: int, j: int) -> int:
        """Band column of node j in closure row ``row``."""
        k = j - 1 - row + p
        if j < 0 or not 0 <= k < p + 4:
            raise ValueError(f"closure row {row} reaches node {j}, outside the band")
        return k

    hp = h**p
    # node j sits at band[r, j - 1 - r + p]; node 0 carries the known
    # y_0 = u_0 and appears only in rows r < p, at k = p - 1 - r, whence it
    # moves to the right-hand side at the end
    band = np.zeros((n, p + 4))
    rhs = np.zeros(n)

    # the p - 1 closure rows, built in Python floats; a row inside the band
    # reaches node p + 2 at most
    f_head, g_head = f[: p + 3].tolist(), g[: p + 3].tolist()
    lines, values = [], []
    for j, value in pinned:
        line = [0.0] * (p + 4)
        line[column(len(lines), j)] = 1.0
        lines.append(line)
        values.append(value)
    for cond in end_conditions:
        row, line, value = len(lines), [0.0] * (p + 4), 0.0
        net, nodes, initial = cond.float_terms
        for j, c in net:
            line[column(row, j)] += hp * c * f_head[j]
            value += hp * c * g_head[j]
        for j, d in nodes:
            line[column(row, j)] += d
        for m, e in initial:
            value -= e * h**m * u[m]
        lines.append(line)
        values.append(value)
    row = len(lines)
    band[:row] = lines
    rhs[:row] = values

    # consistency rows, one diagonal at a time: the window ending at node
    # i = p..n is row i - 1 and puts its k-th weight on node i - p + k,
    # which is band column k
    delta = _difference_stencil(p)
    width = n - p + 1
    for k in range(p + 1):
        w = float(weights[k])
        band[row:, k] = delta[k] + hp * w * f[k : k + width]
        rhs[row:] += hp * w * g[k : k + width]

    first = np.arange(p)
    rhs[:p] -= band[first, p - 1 - first] * u[0]
    band[first, p - 1 - first] = 0
    return band, rhs


@cache
def _difference_stencil(p: int) -> tuple[float, ...]:
    """The p-th difference stencil, (-1)^(p-k) C(p, k) for k = 0..p, built
    once per order."""
    return tuple(float((-1) ** (p - k) * comb(p, k)) for k in range(p + 1))


def band_to_dense(band: np.ndarray) -> np.ndarray:
    """The n x n matrix of a band from :func:`build_arrays`.

    Writing the band into a buffer whose rows are one entry longer than the
    band's places entry [r, k] at column r + k of a row-shifted layout."""
    n, w = band.shape
    p = w - 4
    buffer = np.zeros(n * (n + w))
    buffer.reshape(n, n + w)[:, :w] = band
    return buffer[: n * (n + w - 1)].reshape(n, n + w - 1)[:, p : p + n]


def solve_head(f, g, h, u, weights, end_conditions) -> tuple[np.ndarray, list]:
    """y_0..y_{p+2} of a tabulated closure and their backward differences
    nabla^k y_{p+2}, k = 0..p-1: its p - 1 rows and the first three
    consistency rows reach node p + 2 and hold no other unknown, so one
    dense solve fixes them.  ``f`` and ``g`` start at node 0."""
    p = len(weights) - 1
    size = min_n(p)
    band, rhs = _band_rows(f[: size + 1], g[: size + 1], h, u, weights, end_conditions)
    values = np.concatenate(([u[0]], np.linalg.solve(band_to_dense(band), rhs)))
    return values, [np.diff(values, k)[-1] for k in range(p)]


def march(f, g, h, weights, head, stack) -> np.ndarray:
    """y_0..y_n from the consistency rows past the head, in summed form.

    ``head`` holds y_0..y_s and ``stack`` the backward differences
    nabla^k y_s for k = 0..p-1.  With D_j = g_j - f_j y_j and P the sum of the stack at node i - 1, the
    row of the window ending at node i reads

        nabla^p y_i = h^p * sum_{k<p} w_k D_{i-p+k} + h^p w_p (g_i - f_i (P + nabla^p y_i)),

    which is solved for nabla^p y_i and added down the stack.  The g part of
    every row and the pivots 1 + h^p w_p f_i are taken once, in numpy.

    Raises ``numpy.linalg.LinAlgError`` at a zero pivot and ``ValueError``
    if a coefficient is not finite.
    """
    p, n, s = len(weights) - 1, len(f) - 1, len(head) - 1
    hp = h**p
    c = [hp * float(w) for w in weights]
    pivot = 1 + c[p] * f[s + 1 :]
    g_part = hp * np.correlate(g, np.array(weights, dtype=float), "valid")[s + 1 - p :]
    require_finite(pivot, g_part)
    if not np.all(pivot):
        i = s + 1 + int(np.argmin(np.abs(pivot)))
        raise np.linalg.LinAlgError(f"singular system: the row of node {i} has a zero pivot")
    inverse = (1 / pivot).tolist()
    g_part = g_part.tolist()

    f = f.tolist()
    y = [float(v) for v in head]
    fy = list(map(operator.mul, f, y))
    diffs = [float(v) for v in stack]
    cp = c.pop()
    for r, i in enumerate(range(s + 1, n + 1)):
        step = g_part[r] - sum(map(operator.mul, c, fy[i - p : i])) - cp * f[i] * sum(diffs)
        step *= inverse[r]
        for k in range(p - 1, -1, -1):
            step = diffs[k] = diffs[k] + step
        y.append(step)
        fy.append(f[i] * step)
    return np.array(y)
