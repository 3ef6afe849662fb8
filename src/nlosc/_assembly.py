"""Shared row assembly for the spline collocation systems.

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
D_j = -f(t_j) y_j + g(t_j), so the assembled matrix acts on grid values
only.  Every row is scaled by h^p so its entries stay O(1).

Row r of the system touches the unknowns r-p..r+3 only: p sub-diagonals
and 3 super-diagonals, and past the p-1 closure rows none above the
diagonal.  The rows are therefore assembled in band form, O(n*p) and never
n x n, and solved by block forward substitution: each block of at most
``_BLOCK`` rows is a dense solve with numpy's LAPACK solver (``dgesv``)
once its coupling to the block before is subtracted.  Two refinement
passes follow, with residuals accumulated in extended precision (see
:func:`solve_collocation`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from nlosc.chain import HighOrderIVP
from nlosc.expr import values_on_grid

__all__ = [
    "EndCondition",
    "band_to_dense",
    "build_arrays",
    "solve_collocation",
    "grid_for",
    "require_finite",
]

Terms = tuple[tuple[int, Fraction], ...]

# Rows per forward-substitution block.  The first block holds every closure
# row together with the columns its super-diagonals reach, so the block
# size must be at least p + 2; grids up to this size take one dense solve.
# OpenBLAS factors a matrix with fewer than 10,000 entries on one thread, so
# blocks of this size never wait on its thread pool, and the cost per row,
# which grows with the block size, stays small.
_BLOCK = 64


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
    """Assemble the n collocation rows in the unknowns y_1..y_n in band
    form: returns ``(band, rhs)`` with ``band`` of shape (n, p + 4), where
    ``band[r, k]`` multiplies the unknown in column r + k - p (that is,
    y_{r+k-p+1}); :func:`band_to_dense` gives the n x n matrix.

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

    def cast(q: Fraction) -> np.floating:
        return dtype(q.numerator) / dtype(q.denominator)

    def at(row: int, j: int) -> tuple[int, int]:
        """Band position of node j in a closure row."""
        k = j - 1 - row + p
        if not 0 <= k < p + 4:
            raise ValueError(f"closure row {row} reaches node {j}, outside the band")
        return row, k

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

    # node j sits at band[r, j - 1 - r + p]; node 0 carries the known
    # y_0 = u_0 and appears only in rows r < p, at k = p - 1 - r, whence it
    # moves to the right-hand side at the end
    band = np.zeros((n, p + 4), dtype=dtype)
    rhs = np.zeros(n, dtype=dtype)

    row = 0
    for j, value in pinned:
        band[at(row, j)] = dtype(1)
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
            band[at(row, j)] += hp * cf * f_vals[j]
            value += hp * cf * g_vals[j]
        for j, d in cond.node_values:
            band[at(row, j)] += cast(d)
        for m, e in cond.initial_derivs:
            value -= cast(e) * h**m * u[m]
        rhs[row] = value
        row += 1

    # consistency rows, one diagonal at a time: the window ending at node
    # i = p..n is row i - 1 and puts its k-th weight on node i - p + k,
    # which is band column k
    width = n - p + 1
    for k in range(p + 1):
        w = cast(weights[k])
        band[row:, k] = delta[k] + hp * w * f_vals[k : k + width]
        rhs[row:] += hp * w * g_vals[k : k + width]

    first = np.arange(p)
    rhs[:p] -= band[first, p - 1 - first] * u[0]
    band[first, p - 1 - first] = 0
    return band, rhs


def _padded(band: np.ndarray) -> np.ndarray:
    """The rows of ``band`` laid out densely: entry [r, r + k] is band[r, k].

    Writing the band into a buffer whose rows are one entry longer than the
    result's shifts each row one place right of the row above it.
    """
    m, w = band.shape
    buffer = np.zeros(m * (m + w), dtype=band.dtype)
    buffer.reshape(m, m + w)[:, :w] = band
    return buffer[: m * (m + w - 1)].reshape(m, m + w - 1)


def band_to_dense(band: np.ndarray) -> np.ndarray:
    """The n x n matrix of a band from :func:`build_arrays`."""
    n, p = len(band), band.shape[1] - 4
    return _padded(band)[:, p : p + n]


def _blocks(band: np.ndarray) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """``(start, coupling, diagonal)`` for each block of at most ``_BLOCK``
    rows: ``diagonal`` is the block's square part and ``coupling`` its p
    columns just left of it.  Past the closure rows no row reaches above
    the diagonal, so nothing couples a block to the blocks after it."""
    n, p = len(band), band.shape[1] - 4
    blocks = []
    for start in range(0, n, _BLOCK):
        rows = _padded(band[start : start + _BLOCK])
        size = len(rows)
        blocks.append((start, rows[:, :p], rows[:, p : p + size]))
    return blocks


def _forward_substitute(blocks, rhs: np.ndarray) -> np.ndarray:
    """Solve the block lower-triangular system one block at a time."""
    x = np.empty_like(rhs)
    for start, coupling, diagonal in blocks:
        stop = start + len(diagonal)
        b = rhs[start:stop]
        if start:
            b = b - coupling @ x[start - coupling.shape[1] : start]
        x[start:stop] = np.linalg.solve(diagonal, b)
    return x


def _band_residual(band: np.ndarray, rhs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """rhs - A x in the dtype of ``band``, from the band in one pass.

    Each row is summed in column order, as a dense row-times-vector
    product would sum it, so the rounding matches the dense residual."""
    n, p = len(band), band.shape[1] - 4
    padded = np.zeros(n + p + 3, dtype=band.dtype)
    padded[p : p + n] = x
    windows = np.lib.stride_tricks.as_strided(padded, (n, p + 4), padded.strides * 2)
    return rhs - (band[:, None, :] @ windows[:, :, None])[:, 0, 0]


def solve_collocation(
    ivp: HighOrderIVP,
    n: int,
    weights: tuple[Fraction, ...],
    end_conditions: tuple[EndCondition, ...],
    min_n: int,
    pinned: tuple[tuple[int, float], ...] = (),
) -> np.ndarray:
    """Solve for y_1..y_n: a double-precision block forward substitution
    plus two refinement passes with extended-precision residual
    accumulation.

    Blocks of at most ``_BLOCK`` rows are solved in order, each by one
    dense LAPACK solve after the unknowns already found are moved to its
    right-hand side, so time grows linearly in n and no n x n array is
    formed; a grid of at most ``_BLOCK`` nodes is one dense solve.

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
    band, rhs = build_arrays(ivp, n, weights, end_conditions, min_n, pinned)
    require_finite(band, rhs)
    blocks = _blocks(band)
    x = _forward_substitute(blocks, rhs)
    wide = np.longdouble
    if pinned:
        band_w, rhs_w = build_arrays(ivp, n, weights, end_conditions, min_n, pinned, dtype=wide)
    else:
        band_w = band.astype(wide)
        rhs_w = rhs.astype(wide)
    for _ in range(2):
        residual = _band_residual(band_w, rhs_w, x).astype(float)
        x = x + _forward_substitute(blocks, residual)
    return x
