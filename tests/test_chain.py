"""Tests for the oscillator ring: reduction, initial data, recovery."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import integrate_chain
from nlosc.chain import (
    HighOrderIVP,
    OscillatorChain,
    initial_derivatives,
    recover_trajectories,
    reduce_chain,
)
from nlosc.expr import Const, differentiate, evaluate, parse, values_on_grid
from nlosc.spline import IMPROVED_SET4, GridSolution, solve
from nlosc.verify import rk_oracle

COS1, SIN1 = math.cos(1.0), math.sin(1.0)


def example_chain():
    """Two unit oscillators whose reduction is case 1; the initial state
    comes from the analytic pair y_2 = (1-t) sin t, y_1 = -2 cos t + (1-t) sin t."""
    return OscillatorChain(
        omegas=(1.0, 1.0),
        forces=(parse("0"), parse("-4*cos(t)")),
        interval=(-1.0, 1.0),
        positions=(-2 * COS1 - 2 * SIN1, -2 * SIN1),
        velocities=(-SIN1 + 2 * COS1, 2 * COS1 + SIN1),
    )


def zero_chain(size=2):
    return OscillatorChain(
        omegas=(1.0,) * size,
        forces=(parse("0"),) * size,
        interval=(0.0, 1.0),
        positions=(0.0,) * size,
        velocities=(0.0,) * size,
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_chain_requires_two_oscillators():
    with pytest.raises(ValueError):
        OscillatorChain((1.0,), (parse("0"),), (0, 1), (0.0,), (0.0,))


def test_chain_requires_positive_frequencies():
    with pytest.raises(ValueError):
        OscillatorChain((1.0, -1.0), (parse("0"), parse("0")), (0, 1), (0, 0), (0, 0))


def test_chain_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        OscillatorChain((1.0, 1.0), (parse("0"), parse("0")), (0, 1), (0.0,), (0, 0))


def test_ivp_validates_order_and_u():
    with pytest.raises(ValueError):
        HighOrderIVP(order=3, f=Const(0.0), g=Const(0.0), interval=(0, 1), u=(0, 0, 0))
    with pytest.raises(ValueError):
        HighOrderIVP(order=4, f=Const(0.0), g=Const(0.0), interval=(0, 1), u=(0, 0, 0))


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def test_reduce_two_oscillators_matches_case1():
    ivp = reduce_chain(example_chain())
    assert ivp.order == 4
    assert evaluate(ivp.f, 0.3) == pytest.approx(-1.0, abs=0)
    # g = g_2'' - omega_2^2 g_1 = 4 cos t, derived by hand
    for t in np.linspace(-1, 1, 9):
        assert evaluate(ivp.g, t) == pytest.approx(4 * math.cos(t), rel=1e-14)


def test_reduce_three_oscillators_sign():
    chain = zero_chain(3)
    ivp = reduce_chain(chain)
    assert ivp.order == 6
    assert evaluate(ivp.f, 0.5) == pytest.approx(1.0, abs=0)
    assert evaluate(ivp.g, 0.5) == 0.0


def test_reduce_four_oscillators_sign():
    ivp = reduce_chain(zero_chain(4))
    assert ivp.order == 8
    assert evaluate(ivp.f, 0.5) == pytest.approx(-1.0, abs=0)


@given(
    st.integers(min_value=2, max_value=6),
    st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=6, max_size=6),
)
def test_reduction_sign_rule(size, omegas):
    chain = OscillatorChain(
        omegas=tuple(omegas[:size]),
        forces=(parse("0"),) * size,
        interval=(0.0, 1.0),
        positions=(0.0,) * size,
        velocities=(0.0,) * size,
    )
    f_value = evaluate(reduce_chain(chain).f, 0.0)
    assert math.copysign(1.0, f_value) == (-1.0) ** (size + 1)
    expected = (-1.0) ** (size + 1)
    for w in omegas[:size]:
        expected *= w * w
    assert f_value == pytest.approx(expected, rel=1e-12)


def test_reduction_consistency_against_oracle(cases):
    """The reduced identity y^(2N) + f y = g holds along the oracle solution:
    differencing the oracle's top state component gives a residual that
    shrinks with the oracle step."""
    rng = np.random.default_rng(7)
    for size in (2, 3):
        omegas = tuple(rng.uniform(0.5, 1.6, size))
        forces = (parse("sin(t)"), parse("cos(2*t)"), parse("exp(t)*t"))[:size]
        chain = OscillatorChain(
            omegas=omegas,
            forces=forces,
            interval=(0.0, 1.0),
            positions=tuple(rng.uniform(-1, 1, size)),
            velocities=tuple(rng.uniform(-1, 1, size)),
        )
        ivp = reduce_chain(chain)

        def residual(steps):
            from nlosc.verify import integrate_first_order

            t, states = integrate_first_order(ivp, steps)
            top = states[:, -1]  # y^(2N-1)
            h = t[1] - t[0]
            est = (top[2:] - top[:-2]) / (2 * h)  # y^(2N) at interior nodes
            f_vals = values_on_grid(ivp.f, t[1:-1])
            g_vals = values_on_grid(ivp.g, t[1:-1])
            return np.max(np.abs(est + f_vals * states[1:-1, 0] - g_vals))

        coarse, fine = residual(400), residual(800)
        assert fine <= coarse / 2.0
        assert fine < 1e-3


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


def test_initial_derivatives_match_case1_data():
    u = initial_derivatives(example_chain())
    expected = (
        -2 * SIN1,
        2 * COS1 + SIN1,
        -2 * COS1 + 2 * SIN1,
        -2 * COS1 - 3 * SIN1,
    )
    assert u == pytest.approx(expected, abs=1e-12)


def test_initial_derivatives_zero_chain():
    assert initial_derivatives(zero_chain(3)) == (0.0,) * 6


def test_initial_derivatives_against_trajectory_fit():
    """Independent check: integrate the ring system finely, fit the last
    oscillator's trajectory near t = a, and compare fitted derivatives."""
    chain = OscillatorChain(
        omegas=(1.0, 1.0, 1.0),
        forces=(parse("0"), parse("0"), parse("0")),
        interval=(0.0, 1.0),
        positions=(1.0, 0.0, 0.0),
        velocities=(0.0, 0.0, 0.0),
    )
    u = initial_derivatives(chain)
    window = 0.4
    t, history = integrate_chain(chain, 0.0, window, 4000)
    y3 = history[:, 4]
    coeffs = np.polynomial.polynomial.polyfit(t, y3, 9)
    fitted = [coeffs[m] * math.factorial(m) for m in range(6)]
    assert fitted == pytest.approx(list(u), abs=2e-3)


def test_round_trip_inverse_map():
    """For two oscillators, the published inverse map
    y_1(a) = (g_2(a) - u_2)/omega_2^2, y_1'(a) = (g_2'(a) - u_3)/omega_2^2
    recovers the original oscillator-1 state essentially exactly."""
    rng = np.random.default_rng(21)
    for _ in range(10):
        omegas = tuple(rng.uniform(0.4, 2.5, 2))
        chain = OscillatorChain(
            omegas=omegas,
            forces=(parse("sin(2*t)"), parse("exp(t)-t^2")),
            interval=(-0.5, 1.5),
            positions=tuple(rng.uniform(-2, 2, 2)),
            velocities=tuple(rng.uniform(-2, 2, 2)),
        )
        u = initial_derivatives(chain)
        a = chain.interval[0]
        g2 = chain.forces[1]
        w2 = omegas[1] ** 2
        y1 = (evaluate(g2, a) - u[2]) / w2
        v1 = (evaluate(differentiate(g2, 1), a) - u[3]) / w2
        assert y1 == pytest.approx(chain.positions[0], abs=1e-12)
        assert v1 == pytest.approx(chain.velocities[0], abs=1e-12)


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------


def test_recover_case1_neighbor():
    chain = example_chain()
    ivp = reduce_chain(chain)
    solution = solve(ivp, 48, IMPROVED_SET4, "improved")
    paths = recover_trajectories(chain, solution)
    t = paths.grid
    exact_y1 = -2 * np.cos(t) + (1 - t) * np.sin(t)
    assert np.max(np.abs(paths.oscillator(1) - exact_y1)) <= 1e-3
    assert np.array_equal(paths.oscillator(2), solution.y)


def test_recover_zero_chain():
    chain = zero_chain(2)
    ivp = reduce_chain(chain)
    solution = solve(ivp, 12, IMPROVED_SET4, "improved")
    paths = recover_trajectories(chain, solution)
    assert np.max(np.abs(paths.trajectories)) <= 1e-12


def test_recover_three_oscillators_against_ring_oracle():
    """Recovered neighbors track the ring-system oracle within ten times
    the second-derivative stencil bound."""
    chain = OscillatorChain(
        omegas=(1.0, 1.2, 0.8),
        forces=(parse("sin(t)"), parse("cos(t)"), parse("t*(1-t)")),
        interval=(0.0, 1.0),
        positions=(0.3, -0.2, 0.5),
        velocities=(0.0, 0.4, -0.1),
    )
    n = 40
    ivp = reduce_chain(chain)
    known = rk_oracle(ivp, steps=n * 500, grid_n=n)
    paths = recover_trajectories(chain, known)
    _, history = integrate_chain(chain, 0.0, 1.0, n * 500)
    h = 1.0 / n

    def fourth_derivative_magnitude(traj):
        return np.max(np.abs(np.diff(traj, 4) / h**4))

    # y_1 is differenced out of y_3 (frequency omega_3), then y_2 out of y_1
    inherited = 0.0
    for k, (source_osc, omega) in enumerate(
        [(3, chain.omegas[2]), (1, chain.omegas[0])], start=1
    ):
        reference = history[::500, 2 * (k - 1)]
        source = history[::500, 2 * (source_osc - 1)]
        step_bound = (h**2 / 12.0) * fourth_derivative_magnitude(source) / omega**2
        bound = 10.0 * (step_bound + inherited) + 1e-9
        assert np.max(np.abs(paths.oscillator(k) - reference)) <= bound
        inherited = step_bound + inherited


def test_recover_grid_too_short():
    chain = zero_chain(2)
    ivp = reduce_chain(chain)
    tiny = GridSolution(
        t=np.linspace(0, 1, 4), y=np.zeros(4), method="stub", n=3, h=1.0 / 3.0
    )
    with pytest.raises(ValueError):
        recover_trajectories(chain, tiny)
