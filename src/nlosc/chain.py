"""Rings of nonlocally coupled, driven harmonic oscillators.

Each oscillator ``k`` in a ring of N obeys::

    y_k'' + omega_k^2 * y_{k+1} = g_k(t)        (k+1 taken cyclically)

so the acceleration of an oscillator is set by the *position of its
neighbor*, not its own.  Repeatedly differentiating the last oscillator's
equation and substituting the neighbor equations eliminates all other
positions and leaves a single initial value problem of order 2N in
``y_N``::

    y_N^(2N) + f * y_N = g(t),   f = (-1)^(N+1) * prod(omega_k^2)

with ``g`` a combination of derivatives of the driving forces, up to order
2N-2.  ``g`` is built from :class:`~nlosc.expr.Deriv` nodes over the forces,
which the evaluator computes from Taylor jets of each force, on a grid or
at a point; no derivative of a force is built as an expression, so ``g``
grows by a few nodes per oscillator and no differentiation error enters the
reduced problem.  Once the reduced problem is solved on a grid, the other
trajectories are recovered by walking the ring backwards and integrating
each oscillator's own equation twice from its initial state, with a
Stormer-Cowell sum whose rows are derived exactly over windows of
min(2N + 3, 9) nodes, so every recovered neighbor converges with the pivot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from nlosc.expr import Const, Deriv, EvaluationError, Expression, taylor, values_on_grid

__all__ = [
    "OscillatorChain",
    "HighOrderIVP",
    "reduce_chain",
    "recover_trajectories",
]


@dataclass(frozen=True, eq=False)
class OscillatorChain:
    """A ring of N >= 2 driven oscillators.

    Parameters
    ----------
    omegas : positive angular frequencies omega_1..omega_N
    forces : driving force expressions g_1..g_N (force per unit mass)
    interval : the time interval [a, b], a < b
    positions, velocities : physical initial state y_k(a), y_k'(a)
    """

    omegas: tuple[float, ...]
    forces: tuple[Expression, ...]
    interval: tuple[float, float]
    positions: tuple[float, ...]
    velocities: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "omegas", tuple(float(w) for w in self.omegas))
        object.__setattr__(self, "forces", tuple(self.forces))
        object.__setattr__(self, "interval", (float(self.interval[0]), float(self.interval[1])))
        object.__setattr__(self, "positions", tuple(float(v) for v in self.positions))
        object.__setattr__(self, "velocities", tuple(float(v) for v in self.velocities))
        n = len(self.omegas)
        if n < 2:
            raise ValueError("a chain needs at least two oscillators")
        if any(w <= 0.0 for w in self.omegas):
            raise ValueError("all frequencies must be positive")
        if not all(isinstance(f, Expression) for f in self.forces):
            raise TypeError("forces must be Expression instances")
        if len(self.forces) != n or len(self.positions) != n or len(self.velocities) != n:
            raise ValueError("omegas, forces, positions and velocities must have equal length")
        a, b = self.interval
        if not a < b:
            raise ValueError(f"empty time interval [{a}, {b}]")

    @property
    def size(self) -> int:
        return len(self.omegas)


@dataclass(frozen=True, eq=False)
class HighOrderIVP:
    """The reduced problem y^(p) + f(t) y = g(t) on [a, b].

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
        object.__setattr__(self, "interval", (float(self.interval[0]), float(self.interval[1])))
        object.__setattr__(self, "u", tuple(float(v) for v in self.u))
        if self.order < 4 or self.order % 2 != 0:
            raise ValueError(f"need an even number >= 4 of initial derivatives, got {self.order}")
        a, b = self.interval
        if not a < b:
            raise ValueError(f"empty time interval [{a}, {b}]")

    @property
    def order(self) -> int:
        return len(self.u)


def reduce_chain(chain: OscillatorChain) -> HighOrderIVP:
    """Reduce the ring to a single order-2N initial value problem in y_N.

    Neighbors of the last oscillator are eliminated one ring step at a
    time.  Step j = 1..N-1 holds the identity  y_N^(2j) + c_j * y_j = G_j(t)
    with G_j = F_N^(2j-2) - sum_{i<j} c_i F_i^(2j-2-2i)  (F_k the local
    driving forces, c_1 = omega_N^2, c_{i+1} = -c_i omega_i^2), whose
    two-coefficient jet at t = a gives u_{2j} and u_{2j+1}.  The closing
    pair gives  y_N^(2N) + c_N * y_N = G_N: the constant coefficient
    c_N = ``(-1)^(N+1) * prod(omega_k^2)`` and the forcing G_N, evaluated
    from the forces' jets.  Every G_j is built from Deriv nodes, so no
    derivative of a force is built as an expression; ``to_text`` prints
    each ``Deriv(F, k)`` as ``diff(F, k)``.  ``ValueError`` if a c_j
    overflows or is not finite.  Solving for a different pivot oscillator
    is done by rotating the ring labels before reducing, not by
    re-deriving.
    """
    a = chain.interval[0]
    # c_1..c_N: each step takes the identity's second derivative, then
    # substitutes oscillator j's equation y_j'' = g_j - omega_j^2 * y_{j+1}
    try:
        cs = [chain.omegas[-1] ** 2]
        for w in chain.omegas[:-1]:
            cs.append(-cs[-1] * w**2)
    except OverflowError:  # float ** raises where float * gives inf
        cs = [math.inf]
    if not all(map(math.isfinite, cs)):
        raise ValueError("a coefficient c_j, a product of squared frequencies, is not finite")

    def forcing(j: int) -> Expression:
        G = Deriv(chain.forces[-1], 2 * j - 2)
        for i, c_i in enumerate(cs[: j - 1], start=1):
            G = G - Const(c_i) * Deriv(chain.forces[i - 1], 2 * (j - i) - 2)
        return G

    u = [chain.positions[-1], chain.velocities[-1]]
    for j in range(1, chain.size):
        value, slope = taylor(forcing(j), a, 2)
        u.append(value - cs[j - 1] * chain.positions[j - 1])
        u.append(slope - cs[j - 1] * chain.velocities[j - 1])
    if not all(math.isfinite(v) for v in u):
        raise EvaluationError(f"non-finite force derivative at t={a}")
    return HighOrderIVP(f=Const(cs[-1]), g=forcing(chain.size), interval=chain.interval, u=tuple(u))


def _kernel_weights(nodes: range, moments: list[int], denominator: int) -> list[Fraction]:
    """Weights of the integral of K(s) F(s) over K's support, exact for F
    of degree < len(nodes): K against the Lagrange basis of the integer
    ``nodes``, where K's m-th moment is ``moments[m] / denominator``."""
    weights = []
    for j in nodes:
        basis, scale = [1], denominator  # coefficients of prod (s - x), x != j
        for x in nodes:
            if x != j:
                basis = [up - x * c for up, c in zip([0, *basis], [*basis, 0])]
                scale *= j - x
        weights.append(Fraction(sum(c * mu for c, mu in zip(basis, moments)), scale))
    return weights


def _recovery_rows(w: int) -> tuple[list[Fraction], list[list[Fraction]]]:
    """The exact start row and second-difference rows of a w-node window.

    y(h) - y(0) - h y'(0) is h^2 times the integral of (1 - s) y''(sh) over
    [0, 1], and y(t+h) - 2y(t) + y(t-h) is h^2 times that of (1 - |s|)
    y''(t + sh) over [-1, 1]; each kernel against the Lagrange basis of the
    window's nodes gives a row exact for y = t^m, m <= w + 1.  The start
    row weighs nodes 0..w-1; row r-1 is the second difference at the
    window's node r, for r = 1..w-2.
    """
    # the m-th moments over one denominator: 1/((m+1)(m+2)) for (1 - s),
    # twice that for (1 - |s|) at even m and 0 at odd m
    denominator = math.lcm(*((m + 1) * (m + 2) for m in range(w)))
    ramp = [denominator // ((m + 1) * (m + 2)) for m in range(w)]
    hat = [2 * mu if m % 2 == 0 else 0 for m, mu in enumerate(ramp)]
    start = _kernel_weights(range(w), ramp, denominator)
    rows = [_kernel_weights(range(-r, w - r), hat, denominator) for r in range(1, w - 1)]
    return start, rows


@cache
def _recovery_stencils(w: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_recovery_rows` in read-only floats, derived once per width."""
    start, rows = (np.array(r, dtype=float) for r in _recovery_rows(w))
    start.flags.writeable = rows.flags.writeable = False
    return start, rows


def _integrate_twice(F: np.ndarray, h: float, y0: float, v0: float, w: int) -> np.ndarray:
    """Grid values of y with y'' = F, y(a) = y0 and y'(a) = v0.

    Stormer-Cowell in summed form (Henrici) over windows of w nodes, exact
    for y of degree <= w + 1: each second difference weighs F on the
    window centred at its node, or on the first or last w nodes near an
    end; the first difference comes from a start row over nodes 0..w-1,
    and y from two cumulative sums.
    """
    start, rows = _recovery_stencils(w)
    n, m = F.shape[0] - 1, w // 2
    steps = np.empty(n)
    steps[0] = h * v0 + h * h * (start @ F[:w])
    steps[1:m] = rows[: m - 1] @ F[:w]
    steps[m : n + 2 - w + m] = np.convolve(F, rows[m - 1][::-1], "valid")
    steps[n + 2 - w + m :] = rows[m:] @ F[-w:]
    steps[1:] *= h * h
    return y0 + np.concatenate(([0.0], np.cumsum(np.cumsum(steps))))


def recover_trajectories(chain: OscillatorChain, solution) -> np.ndarray:
    """All N oscillator paths from a solved grid for y_N: an (N, n+1)
    array whose row k-1 is oscillator k on ``solution.t``.

    ``solution`` is a GridSolution for the reduced problem of this chain.
    y_N is copied from it; the ring is then walked backwards, integrating
    each oscillator's own equation y_k'' = g_k - omega_k^2 y_{k+1} twice
    from its initial state, for k = N-1 down to 1.  Equation N holds
    through the reduction.  Each integration is exact for paths of degree
    w + 1 over windows of w = min(2N + 3, 9, n + 1) nodes, so the
    neighbors converge with the pivot (w = 7 at N = 2, 9 above); it needs
    at least six grid intervals.  ``ValueError`` names the oscillator and
    node where a path is first not finite.
    """
    t = np.asarray(solution.t, dtype=float)
    n = t.shape[0] - 1
    if n < 6:
        raise ValueError(f"grid too short to recover neighbors (n={n} < 6)")
    h = (t[-1] - t[0]) / n
    N = chain.size
    w = min(2 * N + 3, 9, n + 1)

    rows = np.empty((N, n + 1))
    rows[N - 1] = np.asarray(solution.y, dtype=float)
    for k in range(N - 1, 0, -1):
        with np.errstate(over="ignore", invalid="ignore"):
            omega = chain.omegas[k - 1]  # omega * omega gives inf where ** raises
            F = values_on_grid(chain.forces[k - 1], t) - omega * omega * rows[k]
            path = _integrate_twice(F, h, chain.positions[k - 1], chain.velocities[k - 1], w)
        bad = np.flatnonzero(~np.isfinite(path))
        if bad.size:
            raise ValueError(f"oscillator {k} is not finite from node {bad[0]} (t={t[bad[0]]}) on")
        rows[k - 1] = path
    return rows
