"""Tests for the expression language: parsing, evaluation, differentiation."""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from nlosc.expr import (
    Add,
    Const,
    Cos,
    Div,
    EvaluationError,
    Exp,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sin,
    Sub,
    Var,
    differentiate,
    evaluate,
    parse,
    taylor,
    to_text,
    values_on_grid,
)

SAMPLE_TIMES = [-1.7, -1.0, -0.3, 0.0, 0.4, 1.0, 1.9]


def assert_pointwise(e1, e2, rel=1e-12):
    for t in SAMPLE_TIMES:
        a, b = evaluate(e1, t), evaluate(e2, t)
        assert a == pytest.approx(b, rel=rel, abs=1e-12)


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------


def test_parse_cosine_force():
    assert evaluate(parse("4*cos(t)"), 0.0) == pytest.approx(4.0)


def test_parse_exponential_forcing():
    assert evaluate(parse("-exp(t)*(8+7*t+t^3)"), 0.0) == pytest.approx(-8.0)


def test_parse_unbalanced_parenthesis():
    with pytest.raises(ParseError):
        parse("sin(")


def test_parse_unknown_identifier_reports_position():
    with pytest.raises(ParseError) as err:
        parse("2*foo(t)")
    assert err.value.position == 2


def test_parse_rejects_negative_exponent():
    with pytest.raises(ParseError):
        parse("t^-1")


def test_parse_rejects_fractional_exponent():
    with pytest.raises(ParseError):
        parse("t^1.5")


def test_parse_trailing_garbage():
    with pytest.raises(ParseError):
        parse("1+2)")


def test_parse_scientific_notation():
    assert evaluate(parse("1e-3+2.5E2"), 0.0) == pytest.approx(250.001)


def test_parse_unary_minus_binds_before_power():
    # grammar: '-' base, then '^', so -t^2 is (-t)^2
    assert evaluate(parse("-2^2"), 0.0) == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_constant():
    assert evaluate(Const(7.0), 3.0) == 7.0


def test_evaluate_analytic_solutions_at_roots():
    assert evaluate(parse("(1-t)*sin(t)"), 1.0) == 0.0
    assert evaluate(parse("t*(1-t)*exp(t)"), 0.0) == 0.0


def test_evaluate_division_by_zero():
    with pytest.raises(EvaluationError):
        evaluate(parse("1/t"), 0.0)


def test_evaluate_overflow_reported():
    with pytest.raises(EvaluationError):
        evaluate(parse("exp(exp(t))"), 10.0)


def test_values_on_grid_broadcasts_constants():
    vals = values_on_grid(Const(3.0), np.linspace(0, 1, 5))
    assert vals.shape == (5,)
    assert np.all(vals == 3.0)


def test_values_on_grid_keeps_long_double():
    t = np.linspace(0, 1, 5).astype(np.longdouble)
    for e in (Const(3.0), parse("1/(3+t)")):
        vals = values_on_grid(e, t)
        assert vals.dtype == np.longdouble and vals.shape == (5,)
    assert vals[0] == np.longdouble(1) / np.longdouble(3)
    assert values_on_grid(parse("t"), [0, 1]).dtype == np.float64
    point = values_on_grid(parse("1/(3+t)"), np.longdouble(0))
    assert point.dtype == np.longdouble and point.shape == ()
    assert point == np.longdouble(1) / np.longdouble(3)


def test_grid_values_match_evaluate():
    e = parse("sin(2*t)*exp(t)-t^3/(1+t^2)")
    vals = values_on_grid(e, SAMPLE_TIMES)
    for t, v in zip(SAMPLE_TIMES, vals):
        assert v == pytest.approx(evaluate(e, t), rel=1e-15)


def test_values_on_grid_is_silent_at_singular_points():
    # tier-1 turns RuntimeWarnings into errors, so a warning fails here
    vals = values_on_grid(parse("1/t"), [0.0, 0.5])
    assert vals[0] == math.inf and vals[1] == 2.0
    assert values_on_grid(parse("1/0"), [0.0, 0.5]).tolist() == [math.inf, math.inf]


def test_evaluate_raises_whatever_the_callers_errstate():
    with np.errstate(all="ignore"):
        for text, t in (("1/t", 0.0), ("(t-t)/(t-t)", 1.0), ("1e200*1e200", 0.0), ("1/0", 0.0)):
            with pytest.raises(EvaluationError):
                evaluate(parse(text), t)


def test_values_on_grid_visits_shared_nodes_once():
    # 30 rounds of x -> x*x - x: a tree of more than 2^30 nodes, 61 distinct
    e, expected = Var(), np.linspace(0.0, 1.0, 9)
    t = expected.copy()
    for _ in range(30):
        e, expected = e * e - e, expected * expected - expected
    assert values_on_grid(e, t).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# differentiate
# ---------------------------------------------------------------------------


def test_second_derivative_of_cosine_force():
    d2 = differentiate(parse("-4*cos(t)"), 2)
    assert_pointwise(d2, parse("4*cos(t)"))


def test_fourth_derivative_of_exp():
    assert_pointwise(differentiate(parse("exp(t)"), 4), parse("exp(t)"))


def test_power_rule():
    assert evaluate(differentiate(parse("t^3"), 1), 2.0) == pytest.approx(12.0)


def test_derivative_order_must_be_positive():
    with pytest.raises(ValueError):
        differentiate(Var(), 0)


def test_quotient_rule():
    e = Div(Var(), Add(Const(1.0), Pow(Var(), 2)))
    d = differentiate(e, 1)
    # d/dt t/(1+t^2) = (1-t^2)/(1+t^2)^2
    for t in SAMPLE_TIMES:
        expected = (1 - t * t) / (1 + t * t) ** 2
        assert evaluate(d, t) == pytest.approx(expected, rel=1e-12)


def _distinct_nodes(e) -> int:
    seen, stack = set(), [e]
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


def test_high_derivatives_share_subtrees():
    # as a tree this derivative has millions of nodes
    d8 = differentiate(parse("exp(t)*sin(t)/(1+t^2)"), 8)
    assert _distinct_nodes(d8) < 50_000


def test_eighth_derivative_of_exp_sin():
    # (e^t sin t)^(8) = 2^4 e^t sin(t + 2 pi)
    d8 = differentiate(parse("exp(t)*sin(t)"), 8)
    for t in (-1.0, -0.3, 0.4, 1.0, 1.9):
        assert evaluate(d8, t) == pytest.approx(16 * math.exp(t) * math.sin(t), rel=1e-13)


# ---------------------------------------------------------------------------
# taylor (jets)
# ---------------------------------------------------------------------------

T = Var()

# one expression per node kind, each with a non-polynomial series
JET_CASES = {
    "const": Const(-1.25),
    "var": T,
    "add": Add(Exp(T), Sin(T)),
    "sub": Sub(Cos(T), Exp(Neg(T))),
    "mul": Mul(Sin(T), Exp(T)),
    "div": Div(Sin(T), Add(Const(2.0), T)),
    "pow2": Pow(Add(T, Sin(T)), 2),
    "pow5": Pow(Add(Const(1.0), Sin(T)), 5),
    "neg": Neg(Cos(T)),
    "sin": Sin(Mul(T, T)),
    "cos": Cos(Add(Mul(Const(2.0), T), Pow(T, 2))),
    "exp": Exp(Sin(T)),
    "composite": parse("exp(t)*sin(t)/(1+t^2)"),
}
JET_POINTS = (-0.7, 0.0, 0.3, 1.1)
JET_ORDER = 8


def _symbolic_derivatives(e, order):
    derivatives = [e]
    for _ in range(order):
        derivatives.append(differentiate(derivatives[-1], 1))
    return derivatives


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("name", sorted(JET_CASES))
def test_jet_coefficients_are_scaled_derivatives(name, dtype):
    e = JET_CASES[name]
    derivatives = _symbolic_derivatives(e, JET_ORDER)
    for t0 in JET_POINTS:
        point = dtype(t0)
        jet = taylor(e, point, JET_ORDER + 1)
        assert jet.dtype == dtype and jet.shape == (JET_ORDER + 1,)
        for k, d in enumerate(derivatives):
            expected = values_on_grid(d, point)
            got = math.factorial(k) * jet[k]
            # relative, with a floor where the derivative vanishes, as
            # (e^t sin t)^(8) = 16 e^t sin(t + 2 pi) does at t = 0
            assert abs(got - expected) <= max(1e-11 * abs(expected), 1e-13), (name, t0, k)


def test_jet_order_14_in_milliseconds():
    t0 = 0.3
    start = time.perf_counter()
    product = taylor(parse("exp(t)*sin(t)"), t0, 15)
    quotient = taylor(parse("1/(2+t)"), t0, 15)
    elapsed = time.perf_counter() - start
    for k in range(15):
        # (e^t sin t)^(k) = 2^(k/2) e^t sin(t + k pi/4)
        exact = 2 ** (k / 2) * math.exp(t0) * math.sin(t0 + k * math.pi / 4)
        assert math.factorial(k) * product[k] == pytest.approx(exact, rel=1e-12)
        exact = (-1) ** k * math.factorial(k) / (2 + t0) ** (k + 1)
        assert math.factorial(k) * quotient[k] == pytest.approx(exact, rel=1e-12)
    assert elapsed < 0.05


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_jet_of_a_constant_multiple_scales_the_jet(dtype):
    e = parse("exp(t)*sin(t)/(1+t^2)")
    for c in (-2.75, 3.0, 1e-3):
        for t0 in JET_POINTS:
            point = dtype(t0)
            expected = dtype(c) * taylor(e, point, 9)
            for scaled in (Mul(Const(c), e), Mul(e, Const(c))):
                got = taylor(scaled, point, 9)
                assert got.dtype == dtype
                assert np.array_equal(got, expected), (c, t0)


def test_jet_is_silent_at_a_singular_point():
    jet = taylor(parse("1/t"), 0.0, 4)
    assert jet[0] == math.inf and not np.isfinite(jet).any()


def test_jet_needs_one_point_and_one_coefficient():
    with pytest.raises(ValueError):
        taylor(T, [0.0, 1.0], 3)
    with pytest.raises(ValueError):
        taylor(T, 0.0, 0)


def test_expressions_are_immutable():
    e = Add(Const(1.0), Var())
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.left = Const(2.0)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

_consts = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False).map(Const)
_atoms = st.one_of(_consts, st.just(Var()))


def _extend(children):
    safe_denominator = st.tuples(children, _consts).map(
        lambda pair: Add(Pow(Var(), 2), Const(1.5 + abs(pair[1].value)))
    )
    return st.one_of(
        st.tuples(children, children).map(lambda p: Add(*p)),
        st.tuples(children, children).map(lambda p: Sub(*p)),
        st.tuples(children, children).map(lambda p: Mul(*p)),
        st.tuples(children, safe_denominator).map(lambda p: Div(*p)),
        children.map(Sin),
        children.map(Cos),
        children.map(Neg),
        st.tuples(children, st.integers(min_value=0, max_value=3)).map(lambda p: Pow(*p)),
    )


expressions = st.recursive(_atoms, _extend, max_leaves=8)


@given(expressions, st.floats(min_value=-1.5, max_value=1.5))
def test_derivative_matches_central_difference(e, t):
    h = 1e-5
    stencil = [evaluate(e, t + k * h) for k in (-2, -1, 0, 1, 2)]
    assume(all(np.isfinite(v) and abs(v) < 50.0 for v in stencil))
    third = evaluate(differentiate(e, 3), t)
    assume(np.isfinite(third) and abs(third) < 5e4)
    analytic = evaluate(differentiate(e, 1), t)
    assume(np.isfinite(analytic))
    fd = (stencil[3] - stencil[1]) / (2 * h)
    assert abs(analytic - fd) <= 1e-6 * (1.0 + abs(analytic))


@given(expressions, st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=2))
def test_derivative_composition(e, j, k):
    combined = differentiate(e, j + k)
    nested = differentiate(differentiate(e, j), k)
    for t in np.linspace(-1.2, 1.2, 7):
        a, b = evaluate(combined, t), evaluate(nested, t)
        assume(np.isfinite(a) and abs(a) < 1e8)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


@given(expressions)
def test_print_parse_round_trip(e):
    text = to_text(e)
    reparsed = parse(text)
    for t in SAMPLE_TIMES:
        try:
            expected = evaluate(e, t)
        except EvaluationError:
            continue
        assert evaluate(reparsed, t) == expected


_dtypes = st.sampled_from([np.float64, np.longdouble])


@given(expressions, st.floats(min_value=-1.5, max_value=1.5), _dtypes)
def test_one_coefficient_jet_is_the_value(e, t, dtype):
    # bit for bit, compared as value and sign (or both nan), because a long
    # double's storage also holds padding bytes that tobytes() would compare
    point = dtype(t)
    jet, value = taylor(e, point, 1)[0], values_on_grid(e, point)
    assert jet.dtype == value.dtype
    if np.isnan(value):
        assert np.isnan(jet)
    else:
        assert jet == value and np.signbit(jet) == np.signbit(value)
