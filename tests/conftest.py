"""Shared fixtures: benchmark cases and a memoized reference oracle."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

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
    rhs += sum(Fraction(o) * deriv(degree, order, j) for j, o in cond.bracket_derivs)
    return lhs - rhs


def consistency_residual(weights, order, degree):
    """Exact residual of the interior consistency relation on y = t^degree
    over the window t_j = j (unit grid): weighted derivative sum minus the
    order-th difference."""
    from fractions import Fraction
    from math import comb, factorial

    def deriv(k, p, x):
        if k < p:
            return Fraction(0)
        return Fraction(factorial(k), factorial(k - p)) * Fraction(x) ** (k - p)

    lhs = sum(Fraction(w) * deriv(degree, order, j) for j, w in enumerate(weights))
    diff = sum(
        Fraction((-1) ** (order - j) * comb(order, j)) * Fraction(j) ** degree
        for j in range(order + 1)
    )
    return lhs - diff
