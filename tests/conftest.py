"""Shared fixtures and references: benchmark cases, one Runge-Kutta
stepper with its two oracles (the reduced problem and the ring's own
system), a 40-digit mpmath walk of the expressions, and the paper's
printed theta-parameterized weights."""

import dataclasses
import operator
from typing import NamedTuple

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from nlosc.expr import (
    Add,
    Const,
    Cos,
    Deriv,
    Div,
    Exp,
    Mul,
    Neg,
    Pow,
    Sin,
    Sub,
    Var,
    values_on_grid,
)
from nlosc.spline import GridSolution, closure_rows, grid_values, head_system
from nlosc.verify import builtin_cases

settings.register_profile(
    "ci",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
settings.load_profile("ci")

# divisible by every grid size the benchmark tables use (6..48, 8..128)
ORACLE_STEPS = 96000


def rk4(rhs, inputs, z, interval, steps):
    """Classical fourth-order Runge-Kutta integration of z' = rhs(x, z)
    over ``steps`` uniform steps of ``interval``, in Python floats.

    x holds the values of the expressions ``inputs`` at one time; they
    are evaluated once at the nodes and once at the midpoints, before
    stepping.  Returns the times and the state history, shape
    (steps + 1, len(z)).
    """
    t0, t1 = interval
    h = (t1 - t0) / steps
    t = t0 + h * np.arange(steps + 1)
    nodes, mids = (
        list(zip(*(values_on_grid(e, times).tolist() for e in inputs)))
        for times in (t, t[:-1] + 0.5 * h)
    )
    half, sixth = 0.5 * h, h / 6.0
    z = list(z)
    history = list(z)  # flat: a list of floats keeps the garbage collector idle
    for x0, xm, x1 in zip(nodes, mids, nodes[1:]):
        k1 = rhs(x0, z)
        k2 = rhs(xm, [zj + half * kj for zj, kj in zip(z, k1)])
        k3 = rhs(xm, [zj + half * kj for zj, kj in zip(z, k2)])
        k4 = rhs(x1, [zj + h * kj for zj, kj in zip(z, k3)])
        z = [
            zj + sixth * (a1 + 2.0 * (a2 + a3) + a4)
            for zj, a1, a2, a3, a4 in zip(z, k1, k2, k3, k4)
        ]
        history += z
    return t, np.array(history).reshape(steps + 1, len(z))


def integrate_first_order(ivp, steps):
    """RK4 of the reduced problem as its companion system
    z = (y, y', ..., y^(p-1)), y^(p) = g - f*y: the times and the states."""

    def rhs(fg, z):
        f, g = fg
        return z[1:] + [g - f * z[0]]

    return rk4(rhs, (ivp.f, ivp.g), ivp.u, ivp.interval, steps)


def rk_oracle(ivp, steps, grid_n=None):
    """Fine-step ground truth for ``ivp``: ``steps`` RK4 steps, subsampled
    onto a grid of ``grid_n`` subintervals (default ``steps``), which must
    divide ``steps``."""
    grid_n = steps if grid_n is None else grid_n
    if grid_n < 1 or steps % grid_n != 0:
        raise ValueError(f"step count {steps} is not a multiple of the requested grid {grid_n}")
    t, states = integrate_first_order(ivp, steps)
    stride = steps // grid_n
    return GridSolution(t=t[::stride], y=states[::stride, 0], method="oracle-rk4")


def oracle_max_error(solution, oracle):
    """Max-abs deviation between a solution and oracle values on its grid."""
    if oracle.n % solution.n != 0:
        raise ValueError("oracle grid does not refine the solution grid")
    stride = oracle.n // solution.n
    return float(np.max(np.abs(oracle.y[::stride][1:] - solution.y[1:])))


def integrate_chain(chain, t0, t1, steps):
    """RK4 of the ring's own system z = (y_1, y_1', ..., y_N, y_N'),
    y_k'' = g_k - omega_k^2 y_{k+1}; independent of the reduction code.
    Returns the times and the states."""
    squares = [w**2 for w in chain.omegas]
    neighbours = [2 * ((k + 1) % chain.size) for k in range(chain.size)]

    def rhs(forces, z):
        out = []
        for k, (g, w2, j) in enumerate(zip(forces, squares, neighbours)):
            out += (z[2 * k + 1], g - w2 * z[j])
        return out

    z = [v for pair in zip(chain.positions, chain.velocities) for v in pair]
    return rk4(rhs, chain.forces, z, (t0, t1), steps)


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


class ThetaSet6(NamedTuple):
    alpha: float
    beta: float
    gamma: float
    delta: float

    @property
    def defect(self) -> float:
        """Deviation of alpha + beta + gamma + delta/2 from 1/2."""
        return self.alpha + self.beta + self.gamma + 0.5 * self.delta - 0.5


def _theta_sin_cos(theta):
    """theta as a float with its sine and cosine.  ``theta`` is the product
    of the spline frequency and the grid spacing; it is refused outside
    [1e-2, pi - 1e-2]: sin(theta) vanishes at the ends and the formulas
    cancel catastrophically for tiny theta."""
    theta = float(theta)
    if not (1e-2 <= theta <= np.pi - 1e-2):
        raise ValueError(f"theta={theta} outside the supported range [1e-2, pi-1e-2]")
    return theta, np.sin(theta), np.cos(theta)


def theta_coefficients4(theta) -> ThetaSet4:
    """Verbatim evaluation of the printed order-4 theta-parameterized
    weights; the solver takes exact rational weight sets instead."""
    theta, s, c = _theta_sin_cos(theta)
    alpha = 1.0 / (6.0 * theta * s) - 1.0 / (theta**3 * s) + 1.0 / theta**4
    beta = 2.0 * (1.0 + c) / (theta**3 * s) - (c - 2.0) / (3.0 * theta) - 4.0 / theta**4
    gamma = (
        -2.0 * (1.0 + 2.0 * c) / (theta**3 * s)
        + (1.0 - 4.0 * c) / (3.0 * theta * s)
        + 6.0 / theta**4
    )
    return ThetaSet4(alpha, beta, gamma)


def theta_coefficients6(theta) -> ThetaSet6:
    """Verbatim evaluation of the printed order-6 theta-parameterized
    weights, on the same domain as the order-4 ones."""
    theta, s, c = _theta_sin_cos(theta)
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


@pytest.fixture(scope="session")
def cases():
    return {case.case_id: case for case in builtin_cases()}


@pytest.fixture(scope="session")
def oracle(cases):
    """Memoized fine-step oracle solution per case, at full resolution."""
    cache = {}

    def get(case_id: int):
        if case_id not in cache:
            cache[case_id] = rk_oracle(cases[case_id].ivp, steps=ORACLE_STEPS)
        return cache[case_id]

    return get


def distinct_nodes(*roots) -> int:
    """Number of distinct nodes of the expression DAGs under ``roots``."""
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(
                getattr(node, f.name)
                for f in dataclasses.fields(node)
                if dataclasses.is_dataclass(getattr(node, f.name))
            )
    return len(seen)


def head_rows(ivp, n, weights, closure):
    """``(block, rhs)`` of the head that :meth:`nlosc.spline.Method.solve` builds
    for a tabulated closure on a grid of n: the rows of y_1..y_{p+2}, which
    at n = p + 2 are the whole system."""
    _, h, f, g = grid_values(ivp, n)
    rows = closure_rows(closure, ivp.order)
    block, rhs = head_system(f, g, h, ivp.u, weights.float_weights, rows)
    return block, np.array(rhs)


def monomial_residual(cond, order, degree):
    """Exact residual of a boundary-closure row on y = t^degree (unit grid).

    Independent oracle for the closure tables: expands every term of the
    row on monomials with Fraction arithmetic.  A row whose local error is
    O(h^q) must return zero for all degrees below q + order ... stated
    directly: zero through degree q-1 where q is the exactness degree.
    """
    from fractions import Fraction
    from math import factorial

    def deriv(k, p, x):
        if k < p:
            return Fraction(0)
        return Fraction(factorial(k), factorial(k - p)) * Fraction(x) ** (k - p)

    lhs = sum(Fraction(c) * deriv(degree, order, j) for j, c in cond.node_derivs)
    rhs = sum(Fraction(d) * Fraction(j) ** degree for j, d in cond.node_values)
    rhs += sum(Fraction(e) * deriv(degree, m, 0) for m, e in cond.initial_derivs)
    return lhs - rhs


def consistency_residual(weights, order, degree, origin=0):
    """Exact residual of the interior consistency relation on
    y = (t - origin)^degree over the window t_j = j (unit grid): weighted
    derivative sum minus the order-th difference."""
    from fractions import Fraction
    from math import comb, factorial

    def deriv(k, p, x):
        if k < p:
            return Fraction(0)
        return Fraction(factorial(k), factorial(k - p)) * Fraction(x - origin) ** (k - p)

    lhs = sum(Fraction(w) * deriv(degree, order, j) for j, w in enumerate(weights))
    diff = sum(
        Fraction((-1) ** (order - j) * comb(order, j)) * Fraction(j - origin) ** degree
        for j in range(order + 1)
    )
    return lhs - diff


_MP_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}
_MP_FUNCTIONS = {Sin: mpmath.sin, Cos: mpmath.cos, Exp: mpmath.exp}


def mp_value(e, t):
    """Value of ``e`` at the mpmath number ``t`` in mpmath's working
    precision; a reference walk independent of the package's evaluator.
    A Deriv node takes its value from ``mpmath.diffs``, which
    raises the precision to keep the working precision in the result."""
    memo, derivatives = {}, {}

    def value(node):
        key = id(node)
        if key not in memo:
            kind = type(node)
            if kind is Const:
                memo[key] = mpmath.mpf(node.value)
            elif kind is Var:
                memo[key] = t
            elif kind in _MP_BINARY:
                memo[key] = _MP_BINARY[kind](value(node.left), value(node.right))
            elif kind is Pow:
                memo[key] = value(node.base) ** node.exponent
            elif kind is Neg:
                memo[key] = -value(node.operand)
            elif kind in _MP_FUNCTIONS:
                memo[key] = _MP_FUNCTIONS[kind](value(node.arg))
            elif kind is Deriv:  # one diffs call per operand serves every order
                known = derivatives.get(id(node.operand), [])
                if len(known) <= node.order:
                    known = derivatives[id(node.operand)] = mp_derivatives(
                        node.operand, t, node.order
                    )
                memo[key] = known[node.order]
            else:
                raise TypeError(f"not an expression node: {node!r}")
        return memo[key]

    return value(e)


def mp_derivatives(e, t, order):
    """e(t), e'(t), ..., e^(order)(t) in mpmath's working precision."""
    return list(mpmath.diffs(lambda s: mp_value(e, s), t, order))


def mp_elimination(chain):
    """The ring reduction with every force derivative from the 40-digit
    walk: the initial derivatives u, the coefficient c_N and G_N as a
    function of an array of times.  Twice differentiating the identity
    y_N^(2j) + c_j y_j = G_j and substituting oscillator j's equation gives
    G_{j+1} = G_j'' - c_j g_j, with G_1 = g_N; each u entry's
    G_j(a) - c_j y_j(a) is taken in double, as the elimination does."""
    size = chain.size
    cs = [chain.omegas[-1] ** 2]
    for w in chain.omegas[:-1]:
        cs.append(-cs[-1] * w**2)

    def forcings(t):
        """(G_j(t), G_j'(t)) for j < N and (G_N(t),), rounded to double."""
        with mpmath.workdps(40):
            jets = {e: mp_derivatives(e, mpmath.mpf(t), 2 * size - 2) for e in set(chain.forces)}
            forces = [jets[e] for e in chain.forces]
            G, out = forces[-1], []
            for c, force in zip(cs, forces):
                out.append(tuple(float(d) for d in G[:2]))
                G = [G[m + 2] - c * force[m] for m in range(len(G) - 2)]
        return out

    u = [chain.positions[-1], chain.velocities[-1]]
    steps = zip(forcings(chain.interval[0]), cs, chain.positions[:-1], chain.velocities[:-1])
    for (value, slope), c, y, v in steps:
        u += [value - c * y, slope - c * v]

    def g(t):
        return np.array([forcings(x)[-1][0] for x in np.atleast_1d(t)])

    return tuple(u), cs[-1], g
