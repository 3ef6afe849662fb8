"""Tests for the expression language: parsing, evaluation, differentiation."""

import dataclasses
import math

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
