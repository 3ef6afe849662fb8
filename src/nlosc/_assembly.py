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

One builder, :func:`_band_rows`, makes every collocation row in Python
floats, in band form (row r touches the unknowns r-p..r+3 only).  A
tabulated closure solves its head from the rows of the first p + 3 nodes
(:func:`head_system`, :func:`solve_head`); :func:`build_arrays` lays out
all n rows as the (n, p + 4) band, which
:func:`nlosc.spline.assemble_system` densifies and the march is tested
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
    lines, values = _band_rows(f, g, h, ivp.u, weights, end_conditions, pinned)
    return np.array(lines), np.array(values)


def _band_rows(f, g, h, u, weights, end_conditions, pinned=()):
    """The rows of :func:`build_arrays` from the values of f and g at the
    nodes 0..n, as Python floats: ``(lines, values)``, where ``lines[r][k]``
    multiplies y_{r+k-p+1} and ``values[r]`` is the right-hand side of row
    r.  The first rows depend on the first nodes only, so a prefix of f and
    g gives a prefix of the rows."""
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
    f, g = f.tolist(), g.tolist()
    lines, values = [], []
    # the p - 1 closure rows; a row inside the band reaches node p + 2 at most
    for j, value in pinned:
        line = [0.0] * (p + 4)
        line[column(len(lines), j)] = 1.0
        lines.append(line)
        values.append(value)
    for cond in end_conditions:
        row, line, value = len(lines), [0.0] * (p + 4), 0.0
        net, nodes, initial = cond.float_terms
        for j, c in net:
            line[column(row, j)] += hp * c * f[j]
            value += hp * c * g[j]
        for j, d in nodes:
            line[column(row, j)] += d
        for m, e in initial:
            value -= e * h**m * u[m]
        lines.append(line)
        values.append(value)

    # the consistency rows: the window ending at node i = p..n is row i - 1
    # and puts its k-th weight on node i - p + k, which is band column k
    delta = _difference_stencil(p)
    c = [hp * float(w) for w in weights]
    for i in range(p, n + 1):
        entries = map(operator.add, delta, map(operator.mul, c, f[i - p : i + 1]))
        lines.append([*entries, 0.0, 0.0, 0.0])
        value = 0.0
        for term in map(operator.mul, c, g[i - p : i + 1]):
            value += term
        values.append(value)

    # node 0 carries the known y_0 = u_0 and appears only in rows r < p, at
    # band column p - 1 - r, whence it moves to the right-hand side
    for r in range(p):
        values[r] -= lines[r][p - 1 - r] * u[0]
        lines[r][p - 1 - r] = 0.0
    return lines, values


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


def head_system(f, g, h, u, weights, end_conditions) -> tuple[np.ndarray, list[float]]:
    """``(block, rhs)``: the (p+2) x (p+2) system in y_1..y_{p+2} of a
    tabulated closure, its p - 1 rows and the first three consistency rows.
    These are the rows of :func:`_band_rows` on the nodes 0..p+2 (``f`` and
    ``g`` start at node 0), so the block is the leading block that
    :func:`band_to_dense` gives of the whole band, bit for bit."""
    p = len(weights) - 1
    size = min_n(p)
    lines, rhs = _band_rows(f[: size + 1], g[: size + 1], h, u, weights, end_conditions)
    # row r holds y_j at band column j - 1 - r + p; one zero on the left
    # covers the last row, whose band starts at y_2.  A flat list converts
    # to an array faster than a nested one.
    block, right = [], [0.0] * size
    for r, line in enumerate(lines):
        block += ([0.0] + line + right)[1 + p - r : 1 + p - r + size]
    return np.array(block).reshape(size, size), rhs


def solve_head(f, g, h, u, weights, end_conditions) -> tuple[list[float], list[float]]:
    """y_0..y_{p+2} of a tabulated closure and their backward differences
    nabla^k y_{p+2}, k = 0..p-1: its p - 1 rows and the first three
    consistency rows reach node p + 2 and hold no other unknown, so one
    dense solve of :func:`head_system` fixes them.  The differences are
    taken in one pass over the last p values, each as the same subtraction
    ``np.diff`` makes."""
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
