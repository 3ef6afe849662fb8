"""Tests for the oscillator ring: reduction, initial data, recovery."""

import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    distinct_nodes,
    integrate_chain,
    integrate_first_order,
    mp_elimination,
    mp_value,
    rk_oracle,
)
from nlosc.chain import (
    HighOrderIVP,
    OscillatorChain,
    _recovery_rows,
    recover_trajectories,
    reduce_chain,
)
from nlosc.expr import Const, Deriv, EvaluationError, evaluate, parse, values_on_grid
from nlosc.spline import GridSolution, Method, zeroing_weights
from nlosc.verify import METHODS

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


def closed_form_ring():
    """The 3-ring of test_spline6.product_ring with its trajectories y_k as
    expressions and forces g_k = y_k'' + w_k^2 y_(k+1); returns the chain
    and the y_k."""
    w = (0.73, 1.27, 0.76)
    y = tuple(
        parse(text)
        for text in (
            "1.53*exp(0.41*t)*sin(1.57*t)",
            "1.46*t^3*cos(1.63*t)",
            "(0.62+0.58*t^2)*exp(-0.47*t)",
        )
    )
    chain = OscillatorChain(
        omegas=w,
        forces=tuple(Deriv(y[k], 2) + Const(w[k] ** 2) * y[(k + 1) % 3] for k in range(3)),
        interval=(0.0, 1.0),
        positions=tuple(evaluate(e, 0.0) for e in y),
        velocities=tuple(evaluate(Deriv(e, 1), 0.0) for e in y),
    )
    return chain, y


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
    # the order is the number of initial derivatives, never passed
    zero = dict(f=Const(0.0), g=Const(0.0), interval=(0, 1))
    assert HighOrderIVP(**zero, u=(0,) * 8).order == 8
    for u in ((0,) * 5, (0, 0)):
        with pytest.raises(ValueError, match="even number >= 4"):
            HighOrderIVP(**zero, u=u)
    with pytest.raises(TypeError):
        HighOrderIVP(**zero, order=4, u=(0,) * 4)


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


def four_ring():
    forces = ("exp(t)*sin(t)/(1+t^2)", "t^3*cos(2*t)", "1/(2+t)", "exp(-t)*(1+t^2)")
    return OscillatorChain(
        omegas=(0.8, 1.3, 0.7, 1.1),
        forces=tuple(parse(text) for text in forces),
        interval=(0.0, 1.0),
        positions=(0.3, -0.2, 0.5, 0.1),
        velocities=(0.1, 0.4, -0.3, 0.2),
    )


def test_reduced_forcing_matches_symbolic_elimination():
    chain = four_ring()
    ivp = reduce_chain(chain)
    u, c, g = mp_elimination(chain)
    assert evaluate(ivp.f, 0.0) == c
    assert ivp.u == pytest.approx(u, rel=1e-12)
    t = np.linspace(0.0, 1.0, 65)
    expected = g(t)
    assert np.max(np.abs(values_on_grid(ivp.g, t) - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
def test_reduction_matches_mp_elimination_at_every_ring_size(size):
    # the order-2N forcing holds force derivatives up to order 2N - 2 = 10
    force = parse("exp(t)*sin(t)/(1+t^2)")
    chain = OscillatorChain(
        omegas=tuple(0.7 + 0.15 * k for k in range(size)),
        forces=(force,) * size,
        interval=(0.0, 1.0),
        positions=tuple(0.4 - 0.3 * k for k in range(size)),
        velocities=tuple(-0.2 + 0.25 * k for k in range(size)),
    )
    ivp = reduce_chain(chain)
    u, c, g = mp_elimination(chain)
    assert evaluate(ivp.f, 0.0) == c
    assert ivp.u == pytest.approx(u, rel=1e-14)
    t = np.linspace(0.0, 1.0, 5)
    expected = g(t)
    assert np.max(np.abs(values_on_grid(ivp.g, t) - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_force_singular_at_the_start_is_an_evaluation_error():
    chain = OscillatorChain(
        omegas=(1.0, 1.0, 1.0),
        forces=(parse("0"), parse("0"), parse("1/t")),
        interval=(0.0, 1.0),
        positions=(0.0,) * 3,
        velocities=(0.0,) * 3,
    )
    with pytest.raises(EvaluationError):
        reduce_chain(chain)


def test_reduced_forcing_grows_linearly_in_the_ring_size():
    # one Deriv, Const, Mul and Sub per eliminated step on top of the forces
    chain = four_ring()
    g = reduce_chain(chain).g
    assert distinct_nodes(g) <= distinct_nodes(*chain.forces) + 4 * chain.size


def test_reduced_forcing_of_a_six_ring_in_milliseconds():
    # g needs the 10th derivative of each force: built symbolically and
    # walked on the grid this took about 9 s
    force = parse("exp(t)*sin(t)/(1+t^2)")
    chain = OscillatorChain(
        omegas=(1.0,) * 6,
        forces=(force,) * 6,
        interval=(0.0, 1.0),
        positions=(0.0,) * 6,
        velocities=(0.0,) * 6,
    )
    t = np.linspace(0.0, 1.0, 1025)
    start = time.perf_counter()
    g = reduce_chain(chain).g
    double = values_on_grid(g, t)
    elapsed = time.perf_counter() - start
    assert double.dtype == np.float64
    assert np.all(np.isfinite(double))
    # a 40-digit reference costs about 5 ms a point, so every 16th node
    # (both ends included) is checked
    with mpmath.workdps(40):
        exact = np.array([float(mp_value(g, mpmath.mpf(x))) for x in t[::16]])
    assert np.max(np.abs(double[::16] - exact)) <= 1e-12 * np.max(np.abs(double))
    assert elapsed < 0.5


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


def test_reduced_u_matches_case1_data():
    u = reduce_chain(example_chain()).u
    expected = (
        -2 * SIN1,
        2 * COS1 + SIN1,
        -2 * COS1 + 2 * SIN1,
        -2 * COS1 - 3 * SIN1,
    )
    assert u == pytest.approx(expected, abs=1e-12)


def test_reduced_u_of_a_zero_chain():
    assert reduce_chain(zero_chain(3)).u == (0.0,) * 6


def test_reduced_u_against_trajectory_fit():
    """Independent check: integrate the ring system finely, fit the last
    oscillator's trajectory near t = a, and compare fitted derivatives."""
    chain = OscillatorChain(
        omegas=(1.0, 1.0, 1.0),
        forces=(parse("0"), parse("0"), parse("0")),
        interval=(0.0, 1.0),
        positions=(1.0, 0.0, 0.0),
        velocities=(0.0, 0.0, 0.0),
    )
    u = reduce_chain(chain).u
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
        u = reduce_chain(chain).u
        a = chain.interval[0]
        g2 = chain.forces[1]
        w2 = omegas[1] ** 2
        y1 = (evaluate(g2, a) - u[2]) / w2
        v1 = (evaluate(Deriv(g2, 1), a) - u[3]) / w2
        assert y1 == pytest.approx(chain.positions[0], abs=1e-12)
        assert v1 == pytest.approx(chain.velocities[0], abs=1e-12)


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------


def test_recover_case1_neighbor():
    chain = example_chain()
    ivp = reduce_chain(chain)
    solution = METHODS["improved4"].solve(ivp, 48)
    paths = recover_trajectories(chain, solution)
    t = solution.t
    exact_y1 = -2 * np.cos(t) + (1 - t) * np.sin(t)
    assert np.max(np.abs(paths[0] - exact_y1)) <= 1e-3
    assert np.array_equal(paths[1], solution.y)


def test_recover_zero_chain():
    chain = zero_chain(2)
    ivp = reduce_chain(chain)
    solution = METHODS["improved4"].solve(ivp, 12)
    paths = recover_trajectories(chain, solution)
    assert np.max(np.abs(paths)) <= 1e-12


def test_recover_three_oscillators_against_ring_oracle():
    """Neighbors recovered from the reduced problem's oracle track the ring
    system's oracle to 1e-12: recovery runs at the pivot's order (both
    neighbors were within 5e-15 when measured)."""
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
    for k in (1, 2):
        error = np.max(np.abs(paths[k - 1] - history[::500, 2 * (k - 1)]))
        assert error <= 1e-12, (k, error)


def test_recovered_neighbors_carry_the_pivot_accuracy():
    """Each neighbor is within twice the pivot's error (or 1e-7), and
    converges at least at fifth order until it reaches the pivot's error."""
    chain, exact = closed_form_ring()
    ivp = reduce_chain(chain)
    errors = {}
    for n in (32, 64, 128):
        solution = METHODS["improved6"].solve(ivp, n)
        paths = recover_trajectories(chain, solution)
        errors[n] = [
            np.max(np.abs(paths[k - 1] - values_on_grid(exact[k - 1], solution.t)))
            for k in (1, 2, 3)
        ]
        pivot = errors[n][-1]
        for k, error in enumerate(errors[n][:-1], start=1):
            assert error <= max(2.0 * pivot, 1e-7), (n, k, error, pivot)
    for k, (coarse, fine) in enumerate(zip(errors[32][:-1], errors[64][:-1]), start=1):
        assert fine <= coarse / 32.0 or fine <= 2.0 * errors[64][-1], (k, coarse, fine)


@pytest.mark.parametrize("n", [6, 48])
def test_recovered_paths_start_at_the_initial_positions(n):
    for chain in (example_chain(), closed_form_ring()[0]):
        ivp = reduce_chain(chain)
        method = METHODS["improved4" if ivp.order == 4 else "improved6"]
        paths = recover_trajectories(chain, method.solve(ivp, max(n, method.min_n)))
        for k in range(1, chain.size + 1):
            assert paths[k - 1][0] == chain.positions[k - 1]


def test_recovered_path_that_overflows_is_an_error():
    # omega_1^2 y_2 = 1e200 * 1e300 leaves the float range
    chain = OscillatorChain(
        omegas=(1e100, 1.0),
        forces=(parse("0"),) * 2,
        interval=(0.0, 1.0),
        positions=(0.0,) * 2,
        velocities=(0.0,) * 2,
    )
    stub = GridSolution(t=np.linspace(0, 1, 9), y=np.full(9, 1e300), method="stub")
    with pytest.raises(ValueError) as err:
        recover_trajectories(chain, stub)
    assert str(err.value) == "oscillator 1 is not finite from node 1 (t=0.125) on"


def test_recovering_past_a_frequency_whose_square_overflows_is_an_error():
    # omega_1^2 = 1e400 is past the float range
    chain = OscillatorChain(
        omegas=(1e200, 1.0),
        forces=(parse("0"),) * 2,
        interval=(0.0, 1.0),
        positions=(1.0, 1.0),
        velocities=(0.0, 0.0),
    )
    stub = GridSolution(t=np.linspace(0, 1, 9), y=np.ones(9), method="stub")
    with pytest.raises(ValueError) as err:
        recover_trajectories(chain, stub)
    assert str(err.value) == "oscillator 1 is not finite from node 1 (t=0.125) on"


@pytest.mark.parametrize("w", [5, 7, 9])
def test_recovery_rows_are_exact_through_degree_w_plus_1(w):
    """On the unit grid, y = t^m has y'' = m(m-1) t^(m-2): the start row
    gives y(1) - y(0) - y'(0) and row r-1 gives the second difference at
    node r, exactly, for every m <= w + 1."""
    start, rows = _recovery_rows(w)
    assert len(start) == w and len(rows) == w - 2

    def weighed(row, m):
        if m < 2:
            return 0
        return sum(c * m * (m - 1) * Fraction(j) ** (m - 2) for j, c in enumerate(row))

    for m in range(w + 2):
        assert weighed(start, m) == 1 - 0**m - (m == 1), m
        for r, row in enumerate(rows, start=1):
            assert weighed(row, m) == (r + 1) ** m - 2 * r**m + (r - 1) ** m, (m, r)
    # the rows near the far end are those near the start, reversed
    assert rows == [row[::-1] for row in reversed(rows)]
    if w == 5:  # the sixth-order Stormer-Cowell rows (Henrici)
        assert [c * 1440 for c in start] == [367, 540, -282, 116, -21]
        assert [c * 240 for c in rows[1]] == [-1, 24, 194, 24, -1]


@pytest.mark.parametrize("size", [3, 4, 6, 8])
def test_recovered_neighbors_reach_the_pivot_accuracy(size):
    """At n = 128 the worst neighbor is within 3x the pivot's error, or at
    the rounding floor, against a fine one-step integration of the ring."""
    chain = OscillatorChain(
        omegas=(1.0,) * size,
        forces=(parse("exp(t)*sin(t)/(1+t^2)"),) * size,
        interval=(0.0, 1.0),
        positions=tuple(0.1 * k for k in range(1, size + 1)),
        velocities=(0.0,) * size,
    )
    n, steps = 128, 10240
    method = Method(f"improved{2 * size}", zeroing_weights(2 * size), "series")
    solution = method.solve(reduce_chain(chain), n)
    paths = recover_trajectories(chain, solution)
    _, history = integrate_chain(chain, 0.0, 1.0, steps)
    errors = np.max(np.abs(paths - history[:: steps // n, 0::2].T), axis=1)
    pivot, worst = errors[-1], np.max(errors[:-1])
    assert worst <= max(3.0 * pivot, 1e-14), (worst, pivot)


@pytest.mark.parametrize("n", [6, 7])
def test_three_ring_recovers_on_the_smallest_grids(n):
    """A 3-ring recovers from its exact pivot on the grids where the
    recovery window is cut to n + 1 nodes (w = 7 at n = 6, 8 at n = 7)."""
    chain, exact = closed_form_ring()
    t = np.linspace(0.0, 1.0, n + 1)
    stub = GridSolution(t=t, y=values_on_grid(exact[2], t), method="stub")
    paths = recover_trajectories(chain, stub)
    for k in (1, 2):
        assert np.max(np.abs(paths[k - 1] - values_on_grid(exact[k - 1], t))) <= 1e-4, k
    assert np.array_equal(paths[2], stub.y)


def test_recover_grid_too_short():
    chain = zero_chain(2)
    ivp = reduce_chain(chain)
    tiny = GridSolution(t=np.linspace(0, 1, 4), y=np.zeros(4), method="stub")
    assert tiny.n == 3
    with pytest.raises(ValueError):
        recover_trajectories(chain, tiny)
