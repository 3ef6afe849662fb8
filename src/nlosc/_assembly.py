"""Shared row assembly and the marching solve for the spline collocation
systems.

The spline solver (:mod:`nlosc.spline`) discretizes  y^(p) + f(t) y = g(t)
on the uniform grid t_i = a + i*h with unknowns y_1..y_n (y_0 is fixed by
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
sweeps have not settled.  Sums over
a sweep's arrays are element-wise or folds down axis 0
(``np.add.reduce(..., axis=0, initial=0.0)``, which adds row after row
from 0.0, as the loop does); never ``np.sum`` along a row (pairwise),
BLAS or ``np.correlate``, whose orders of addition differ from the loop's.

A tabulated closure touches the nodes 0..p+2 only, so its p - 1 rows and
the consistency rows of the windows ending at nodes p, p+1 and p+2 hold
y_1..y_{p+2} and no other unknown.  One builder, :func:`head_system`,
makes that (p+2) x (p+2) block in Python floats, and :func:`solve_head`
solves it densely; the march goes on from there.  No code here lays out
all n rows: the tests keep their own row-by-row reference of the whole
system and check the head and the march against it.

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
    "grid_values",
    "head_system",
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
    if not all(np.isfinite(a).all() for a in arrays):
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


@cache
def _difference_stencil(p: int) -> tuple[float, ...]:
    """The p-th difference stencil, (-1)^(p-k) C(p, k) for k = 0..p, built
    once per order."""
    return tuple(float((-1) ** (p - k) * comb(p, k)) for k in range(p + 1))


def head_system(f, g, h, u, weights, end_conditions) -> tuple[np.ndarray, list[float]]:
    """``(block, rhs)``: the (p+2) x (p+2) system in y_1..y_{p+2} of a
    tabulated closure, from ``f`` and ``g`` at the nodes 0..p+2 (a longer
    grid is cut there).

    The rows are the p - 1 closure rows, then the consistency rows of the
    windows ending at nodes p, p+1 and p+2.  Each is built densely over the
    nodes 0..p+2 in Python floats: the coefficients are scaled by h^p
    before they meet f, and each right-hand side is a left fold from 0.0.
    Then the known y_0 = u_0 moves to the right-hand side of the first p
    rows, the only ones that reach node 0, as ``rhs -= entry * u_0``.

    Closure row r may reach the nodes r+1-p..r+4 only, the band of its row
    in the whole system, and no node below 0.  ``ValueError`` if a row
    reaches past them or the closure does not hold p - 1 rows."""
    p = len(weights) - 1
    if len(end_conditions) != p - 1:
        raise ValueError(f"closure must contribute {p - 1} rows")
    size = min_n(p)
    hp = h**p
    f, g = f[: size + 1].tolist(), g[: size + 1].tolist()
    lines, rhs = [], []
    for r, cond in enumerate(end_conditions):
        net, nodes, initial = cond.float_terms
        for j, _ in net + nodes:
            if not max(0, r + 1 - p) <= j <= r + 4:
                raise ValueError(f"closure row {r} reaches node {j}, outside the band")
        line, value = [0.0] * (size + 1), 0.0
        for j, c in net:
            line[j] += hp * c * f[j]
            value += hp * c * g[j]
        for j, d in nodes:
            line[j] += d
        for m, e in initial:
            value -= e * h**m * u[m]
        lines.append(line)
        rhs.append(value)

    # the consistency row of the window ending at node i puts its k-th
    # weight on node i - p + k
    delta = _difference_stencil(p)
    c = [hp * float(w) for w in weights]
    for i in range(p, size + 1):
        entries = map(operator.add, delta, map(operator.mul, c, f[i - p : i + 1]))
        lines.append([0.0] * (i - p) + [*entries] + [0.0] * (size - i))
        value = 0.0
        for term in map(operator.mul, c, g[i - p : i + 1]):
            value += term
        rhs.append(value)

    # a flat list converts to an array faster than a nested one
    block = []
    for r, line in enumerate(lines):
        if r < p:
            rhs[r] -= line[0] * u[0]
        block += line[1:]
    return np.array(block).reshape(size, size), rhs


def solve_head(f, g, h, u, weights, end_conditions) -> tuple[list[float], list[float]]:
    """``(values, stack)``: y_0..y_{p+2} of a tabulated closure and their
    backward differences nabla^k y_{p+2}, k = 0..p-1, the start of
    :func:`march`.

    The values come from one dense solve of :func:`head_system`, whose
    rows hold no unknown past y_{p+2}; it raises what that builder raises.
    The differences are taken in one pass over the last p values, each as
    the same subtraction ``np.diff`` makes."""
    p = len(weights) - 1
    x = np.linalg.solve(*head_system(f, g, h, u, weights, end_conditions))
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

    which is solved for nabla^p y_i and added down the stack.  A march of
    at least :data:`SWEEP_MIN_NODES` nodes runs :func:`_sweep`, a shorter
    one :func:`_loop`; both give the same bits.

    Raises ``numpy.linalg.LinAlgError`` at a zero pivot and ``ValueError``
    if a coefficient is not finite.
    """
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
    if not pivot.all():
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

    The step of node i reads only nodes below i.  So sweep k settles at
    least the first k steps, and a sweep that changes no bit of any step
    has reached the loop's output.  The steps before the first one a sweep
    changes are settled too, so after :data:`SWEEP_LIMIT` sweeps the loop
    marches on from there.
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
