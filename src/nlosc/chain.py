"""Rings of nonlocally coupled, driven harmonic oscillators.

Each oscillator ``k`` in a ring of N obeys::

    y_k'' + omega_k^2 * y_{k+1} = g_k(t)        (k+1 taken cyclically)

so the acceleration of an oscillator is set by the *position of its
neighbor*, not its own.  Repeatedly differentiating the last oscillator's
equation and substituting the neighbor equations eliminates all other
positions and leaves a single initial value problem of order 2N in
``y_N``::

    y_N^(2N) + f * y_N = g(t),   f = (-1)^(N+1) * prod(omega_k^2)

with ``g`` a combination of derivatives of the driving forces.  The
forcing is composed symbolically, so no differentiation error enters the
reduced problem.  Once the reduced problem is solved on a grid, the other
trajectories are recovered by walking the ring backwards with grid second
derivatives; that recovery step is second-order accurate in the grid
spacing, which is the documented accuracy floor for recovered neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nlosc.expr import Const, Expression, differentiate, evaluate, values_on_grid

__all__ = [
    "OscillatorChain",
    "HighOrderIVP",
    "TrajectorySet",
    "reduce_chain",
    "initial_derivatives",
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
    """The reduced problem y^(order) + f(t) y = g(t) on [a, b].

    ``u`` holds the initial derivatives y(a), y'(a), ..., y^(order-1)(a).
    For chain reductions ``f`` is a constant expression; the solvers accept
    any continuous ``f``.
    """

    order: int
    f: Expression
    g: Expression
    interval: tuple[float, float]
    u: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", int(self.order))
        object.__setattr__(self, "interval", (float(self.interval[0]), float(self.interval[1])))
        object.__setattr__(self, "u", tuple(float(v) for v in self.u))
        if self.order < 4 or self.order % 2 != 0:
            raise ValueError(f"order must be an even integer >= 4, got {self.order}")
        if len(self.u) != self.order:
            raise ValueError(f"need {self.order} initial derivatives, got {len(self.u)}")
        a, b = self.interval
        if not a < b:
            raise ValueError(f"empty time interval [{a}, {b}]")


@dataclass(frozen=True, eq=False)
class TrajectorySet:
    """Per-oscillator trajectories on a shared grid (row k-1 = oscillator k)."""

    grid: np.ndarray
    trajectories: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.trajectories, dtype=float)
        if values.ndim != 2 or values.shape[1] != grid.shape[0]:
            raise ValueError("trajectory rows must share the grid length")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "trajectories", values)

    def oscillator(self, k: int) -> np.ndarray:
        """Trajectory of oscillator ``k`` (1-based)."""
        return self.trajectories[k - 1]


def _eliminate(chain: OscillatorChain) -> tuple[tuple[float, ...], float, Expression]:
    """Eliminate neighbors of the last oscillator, one ring step at a time.

    Step j = 1..N-1 holds the identity  y_N^(2j) + c_j * y_j = G_j(t),
    which with its first derivative at t = a gives u_{2j} and u_{2j+1}.
    Returns the initial derivatives u and the closing pair (c_N, G_N) for
    which  y_N^(2N) + c_N * y_N = G_N.
    """
    a = chain.interval[0]
    u = [chain.positions[-1], chain.velocities[-1]]
    c = chain.omegas[-1] ** 2
    G: Expression = chain.forces[-1]
    for j in range(1, chain.size):
        dG = differentiate(G, 1)
        u.append(evaluate(G, a) - c * chain.positions[j - 1])
        u.append(evaluate(dG, a) - c * chain.velocities[j - 1])
        # differentiate the identity twice, then substitute oscillator j's
        # equation y_j'' = g_j - omega_j^2 * y_{j+1}
        G = differentiate(dG, 1) - Const(c) * chain.forces[j - 1]
        c = -c * chain.omegas[j - 1] ** 2
    return tuple(u), c, G


def reduce_chain(chain: OscillatorChain) -> HighOrderIVP:
    """Reduce the ring to a single order-2N initial value problem in y_N.

    The constant coefficient is ``(-1)^(N+1) * prod(omega_k^2)`` and the
    forcing is composed symbolically from derivatives of the local driving
    forces.  Solving for a different pivot oscillator is done by rotating
    the ring labels before reducing, not by re-deriving.
    """
    u, c, g = _eliminate(chain)
    return HighOrderIVP(
        order=2 * chain.size,
        f=Const(c),
        g=g,
        interval=chain.interval,
        u=u,
    )


def initial_derivatives(chain: OscillatorChain) -> tuple[float, ...]:
    """Derivatives of y_N at t = a implied by the physical initial state.

    u_0 and u_1 are the last oscillator's own position and velocity; each
    elimination identity  y_N^(2j) + c_j y_j = G_j  and its first
    derivative then supply u_{2j} and u_{2j+1} from oscillator j's initial
    position and velocity and exact derivatives of the driving forces.
    """
    return _eliminate(chain)[0]


def _extrapolate_ends(out: np.ndarray, count: int) -> None:
    """Fill ``count`` values at each end by cubic extrapolation from the
    neighboring clean region (in place)."""
    n = out.shape[0] - 1
    for i in range(count - 1, -1, -1):
        out[i] = 4.0 * out[i + 1] - 6.0 * out[i + 2] + 4.0 * out[i + 3] - out[i + 4]
        out[n - i] = (
            4.0 * out[n - i - 1]
            - 6.0 * out[n - i - 2]
            + 4.0 * out[n - i - 3]
            - out[n - i - 4]
        )


def _second_derivative(
    values: np.ndarray, h: float, margin: int = 0
) -> tuple[np.ndarray, int]:
    """Grid second derivative: central stencil inside, second order or
    better at the two ends.

    ``margin`` counts grid points at each end of ``values`` whose error
    deviates from the smooth interior error field (zero for solver
    output).  A difference stencil touching such a point would amplify the
    deviation by 1/h^2 into an O(1) artifact, so end values inside the
    widened margin are filled by cubic extrapolation from the clean
    region instead; the solver output itself gets 5-point one-sided end
    stencils.  Returns the derivative and the margin of its own ends.
    """
    y = np.asarray(values, dtype=float)
    out = np.empty_like(y)
    hh = h * h
    out[1:-1] = (y[:-2] - 2.0 * y[1:-1] + y[2:]) / hh
    new_margin = margin + 1
    if margin == 0:
        out[0] = (
            35.0 * y[0] - 104.0 * y[1] + 114.0 * y[2] - 56.0 * y[3] + 11.0 * y[4]
        ) / (12.0 * hh)
        out[-1] = (
            35.0 * y[-1] - 104.0 * y[-2] + 114.0 * y[-3] - 56.0 * y[-4] + 11.0 * y[-5]
        ) / (12.0 * hh)
    elif 2 * new_margin + 4 <= y.shape[0]:
        _extrapolate_ends(out, new_margin)
    else:
        # grid too short to outrun the contaminated ends; fall back to the
        # one-sided stencils and accept the degraded boundary accuracy
        out[0] = (
            35.0 * y[0] - 104.0 * y[1] + 114.0 * y[2] - 56.0 * y[3] + 11.0 * y[4]
        ) / (12.0 * hh)
        out[-1] = (
            35.0 * y[-1] - 104.0 * y[-2] + 114.0 * y[-3] - 56.0 * y[-4] + 11.0 * y[-5]
        ) / (12.0 * hh)
    return out, new_margin


def recover_trajectories(chain: OscillatorChain, solution) -> TrajectorySet:
    """Translate a solved grid for y_N back into all N oscillator paths.

    ``solution`` is a GridSolution for the reduced problem of this chain.
    y_N is copied from the solution; the ring is then walked backwards:
    y_1 = (g_N - y_N'') / omega_N^2 and y_{k+1} = (g_k - y_k'') / omega_k^2,
    with second derivatives taken from the grid.  Needs at least five grid
    points for the end stencils.
    """
    t = np.asarray(solution.t, dtype=float)
    n = t.shape[0] - 1
    if n < 4:
        raise ValueError(f"grid too short to recover neighbors (n={n} < 4)")
    h = (t[-1] - t[0]) / n
    N = chain.size

    rows = np.empty((N, n + 1))
    rows[N - 1] = np.asarray(solution.y, dtype=float)
    # y_1 from the last oscillator's equation, then forward around the ring
    g_last = values_on_grid(chain.forces[-1], t)
    d2, margin = _second_derivative(rows[N - 1], h)
    rows[0] = (g_last - d2) / chain.omegas[-1] ** 2
    for k in range(1, N - 1):
        g_k = values_on_grid(chain.forces[k - 1], t)
        d2, margin = _second_derivative(rows[k - 1], h, margin)
        rows[k] = (g_k - d2) / chain.omegas[k - 1] ** 2
    return TrajectorySet(grid=t, trajectories=rows)
