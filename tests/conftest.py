"""Shared fixtures: benchmark cases and a memoized reference oracle."""

import dataclasses
import operator

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
)
from nlosc.spline import closure_rows, grid_values, head_system
from nlosc.verify import builtin_cases, rk_oracle

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


def chain_system_rhs(chain):
    """Right-hand side of the ring's first-order system
    z = (y_1, y_1', ..., y_N, y_N') given the N force values at the stage
    time; independent of the reduction code."""
    omegas = chain.omegas
    size = chain.size

    def rhs(forces, z):
        out = np.empty_like(z)
        for k in range(size):
            neighbor = (k + 1) % size
            out[2 * k] = z[2 * k + 1]
            out[2 * k + 1] = forces[k] - omegas[k] ** 2 * z[2 * neighbor]
        return out

    return rhs


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


def integrate_chain(chain, t0, t1, steps):
    """Classical one-step integration of the ring system; used as the
    trajectory oracle for recovery tests.  The forces are evaluated at
    every stage time up front."""
    from nlosc.expr import values_on_grid

    rhs = chain_system_rhs(chain)
    z = np.empty(2 * chain.size)
    z[0::2] = chain.positions
    z[1::2] = chain.velocities
    h = (t1 - t0) / steps
    starts = t0 + h * np.arange(steps)
    stages = [
        np.array([values_on_grid(g, times) for g in chain.forces]).T
        for times in (starts, starts + h / 2, starts + h)
    ]
    history = np.empty((steps + 1, z.size))
    history[0] = z
    for i in range(steps):
        g0, gm, g1 = (forces[i] for forces in stages)
        k1 = rhs(g0, z)
        k2 = rhs(gm, z + h / 2 * k1)
        k3 = rhs(gm, z + h / 2 * k2)
        k4 = rhs(g1, z + h * k3)
        z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        history[i + 1] = z
    return np.linspace(t0, t1, steps + 1), history


def head_rows(ivp, n, weights, closure):
    """``(block, rhs)`` of the head that :func:`nlosc.spline.solve` builds
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
