"""Tests for the expression language: parsing, evaluation, derivatives."""

import dataclasses
import gc
import math
import time
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import nlosc.expr
from conftest import mp_derivatives
from nlosc.expr import (
    Add,
    Const,
    Cos,
    Deriv,
    Div,
    EvaluationError,
    Exp,
    ExpressionError,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sin,
    Sub,
    Var,
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


@pytest.mark.parametrize(
    "text, expected",
    [
        # each binary operator beside the same and a tighter precedence
        ("t-(t-1)", "t-(t-1)"),
        ("(t-1)-t", "t-1-t"),
        ("t+(t+1)", "t+(t+1)"),
        ("t+t*2", "t+t*2"),
        ("t-(t/2)", "t-t/2"),
        ("(t+1)*t", "(t+1)*t"),
        ("t*(t-1)", "t*(t-1)"),
        ("t/(t*2)", "t/(t*2)"),
        ("(t/2)*t", "t/2*t"),
        ("t*(t/2)", "t*(t/2)"),
        ("(t+1)/(t-1)", "(t+1)/(t-1)"),
        # Neg, Pow and negative constants
        ("-(t+1)", "-(t+1)"),
        ("-(t*2)", "-(t*2)"),
        ("-sin(t)", "-sin(t)"),
        ("--t", "t"),
        ("-t^2", "(-t)^2"),
        ("(t+1)^3", "(t+1)^3"),
        ("(t^2)^3", "(t^2)^3"),
        ("sin(t)^2", "sin(t)^2"),
        ("(-2)^3", "(-2)^3"),
        ("t^1+t^0", "t+1"),
        ("-2*t", "-2*t"),
        ("t*-2", "t*(-2)"),
        ("t--2", "t--2"),
        ("t/-0.5", "t/(-0.5)"),
        ("-0", "-0"),
        ("1e20+2.0", "1e+20+2"),
        # each function, and diff
        ("sin(t+1)", "sin(t+1)"),
        ("cos(-t)", "cos(-t)"),
        ("exp(t*t)", "exp(t*t)"),
        ("diff( exp(t)/t , 2 )", "diff(exp(t)/t, 2)"),
        # every error path, with its message and position
        ("3 $", ParseError("unexpected character '$'", 2)),
        ("2*foo(t)", ParseError("unknown identifier 'foo'", 2)),
        ("t^1.5", ParseError("exponent must be a nonnegative integer", 2)),
        ("t^-1", ParseError("exponent must be a nonnegative integer", 2)),
        ("sin(t", ParseError("expected ')'", 5)),
        ("(t+1", ParseError("expected ')'", 4)),
        ("diff(t 2)", ParseError("expected ','", 7)),
        ("1+2)", ParseError("unexpected token ')' after expression", 3)),
        ("t^2^3", ParseError("unexpected token '^' after expression", 3)),
        ("t+", ParseError("unexpected end of input", 2)),
        ("*t", ParseError("unexpected token '*'", 0)),
        ("diff(t, 1.5)", ParseError("derivative order must be a nonnegative integer", 8)),
        ("diff(t, -1)", ParseError("derivative order must be a nonnegative integer", 8)),
        ("t+1e400*t", ParseError("number 1e400 is past the float range", 2)),
    ],
)
def test_grammar_prints_and_rejects_exactly(text, expected):
    if isinstance(expected, ParseError):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (str(err.value), err.value.position) == (str(expected), expected.position)
    else:
        assert to_text(parse(text)) == expected
        assert to_text(parse(expected)) == expected


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_constants_have_no_text(value):
    # "inf" and "nan" are not literals of the grammar
    with pytest.raises(ExpressionError, match="non-finite constant"):
        to_text(Const(value) * Var())


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


def test_values_on_grid_returns_doubles():
    assert values_on_grid(parse("t"), [0, 1]).dtype == np.float64
    point = values_on_grid(parse("1/(3+t)"), 0)
    assert point.dtype == np.float64 and point.shape == ()
    assert point == 1 / 3


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


def test_values_on_grid_visits_shared_nodes_once(monkeypatch):
    # 30 rounds of x -> x*x - x: a tree of more than 2^30 nodes, 61 distinct
    e, expected = Var(), np.linspace(0.0, 1.0, 9)
    t = expected.copy()
    for _ in range(30):
        e, expected = e * e - e, expected * expected - expected
    assert values_on_grid(e, t).tobytes() == expected.tobytes()

    # k rounds of e -> diff(e, 1) + e from sin(t) give 2^(k/2) sin(t + k pi/4);
    # sharing the nodes changes no bit
    def unshared(k):
        return Sin(Var()) if k == 0 else Deriv(unshared(k - 1), 1) + unshared(k - 1)

    def bits(e):
        return values_on_grid(e, t).tobytes(), taylor(e, 0.5, 3).tobytes()

    e = Sin(Var())
    for k in range(30):
        if k == 8:
            assert bits(e) == bits(unshared(8))
        e = Deriv(e, 1) + e
    # a diff operand is walked by the caller's walk, one coefficient longer:
    # sin(t) is then expanded once at each length, where a fresh walk per
    # diff would expand it exponentially often in the depth
    lengths, sin_cos = [], nlosc.expr._sin_cos

    def once_per_length(u):
        assert len(u) not in lengths, f"sin(t) expanded twice at length {len(u)}"
        lengths.append(len(u))
        return sin_cos(u)

    monkeypatch.setattr(nlosc.expr, "_sin_cos", once_per_length)
    exact = 2**15 * np.sin(t + 30 * math.pi / 4)
    np.testing.assert_allclose(values_on_grid(e, t), exact, rtol=1e-12, atol=0)
    lengths.clear()
    # its k-th derivative is 2^15 sin(t + 30 pi/4 + k pi/2)
    exact = [2**15 * math.sin(0.5 + (15 + k) * math.pi / 2) / math.factorial(k) for k in range(3)]
    np.testing.assert_allclose(taylor(e, 0.5, 3), exact, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "text, idle, exact",
    [
        ("sin(t)", "cos", lambda t: np.sin(t)),
        ("exp(t)*sin(t)/(1+t^2)", "cos", lambda t: np.exp(t) * np.sin(t) / (1 + t**2)),
        ("cos(t)", "sin", lambda t: np.cos(t)),
        ("t^5", "_product", lambda t: t**5),
    ],
    ids=["sin", "composite", "cos", "power"],
)
def test_plain_values_do_only_a_values_work(monkeypatch, text, idle, exact):
    # a value is the one-coefficient jet: a sine computes no cosine, a cosine
    # no sine, and a power runs no product loop
    owner = nlosc.expr if idle == "_product" else np
    calls, original = [], getattr(owner, idle)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, idle, counted)
    e, grid = parse(text), np.linspace(-0.7, 1.1, 9)
    values, value = values_on_grid(e, grid), evaluate(e, 0.4)
    assert calls == []
    monkeypatch.undo()
    np.testing.assert_array_equal(values, exact(grid))
    assert value == exact(np.float64(0.4))


def test_a_walk_frees_its_jets_on_return(monkeypatch):
    # the walk's closures call themselves, so they wait for the cycle
    # collector; the jets in their memos must go when the walk returns
    made, exp = [], nlosc.expr._FUNCTIONS[Exp]

    def tracked(u):
        out = exp.jet(u)
        made.extend(weakref.ref(c) for c in out)
        return out

    monkeypatch.setitem(nlosc.expr._FUNCTIONS, Exp, exp._replace(jet=tracked))
    gc.disable()
    try:
        values_on_grid(parse("diff(exp(t), 2)+exp(t)*t"), np.linspace(0.0, 1.0, 9))
        assert made and all(ref() is None for ref in made)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


def test_second_derivative_of_cosine_force():
    d2 = Deriv(parse("-4*cos(t)"), 2)
    assert_pointwise(d2, parse("4*cos(t)"))


def test_fourth_derivative_of_exp():
    assert_pointwise(Deriv(parse("exp(t)"), 4), parse("exp(t)"))


def test_power_rule():
    assert evaluate(Deriv(parse("t^3"), 1), 2.0) == pytest.approx(12.0)


def test_quotient_rule():
    e = Div(Var(), Add(Const(1.0), Pow(Var(), 2)))
    d = Deriv(e, 1)
    # d/dt t/(1+t^2) = (1-t^2)/(1+t^2)^2
    for t in SAMPLE_TIMES:
        expected = (1 - t * t) / (1 + t * t) ** 2
        assert evaluate(d, t) == pytest.approx(expected, rel=1e-12)


def test_eighth_derivative_of_exp_sin():
    # (e^t sin t)^(8) = 2^4 e^t sin(t + 2 pi)
    d8 = Deriv(parse("exp(t)*sin(t)"), 8)
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


@pytest.mark.parametrize("dtype", [np.float64])
@pytest.mark.parametrize("name", sorted(JET_CASES))
def test_jet_coefficients_are_scaled_derivatives(name, dtype):
    e = JET_CASES[name]
    for t0 in JET_POINTS:
        point = dtype(t0)
        jet = taylor(e, point, JET_ORDER + 1)
        assert jet.dtype == dtype and jet.shape == (JET_ORDER + 1,)
        with mpmath.workdps(40):
            derivatives = mp_derivatives(e, mpmath.mpf(t0), JET_ORDER)
        for k, d in enumerate(derivatives):
            expected = float(d)
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


def test_jet_of_a_constant_multiple_scales_the_jet():
    e = parse("exp(t)*sin(t)/(1+t^2)")
    for c in (-2.75, 3.0, 1e-3):
        for t0 in JET_POINTS:
            point = np.float64(t0)
            expected = np.float64(c) * taylor(e, point, 9)
            for scaled in (Mul(Const(c), e), Mul(e, Const(c))):
                got = taylor(scaled, point, 9)
                assert got.dtype == np.float64
                assert np.array_equal(got, expected), (c, t0)


DERIV_GRID = np.linspace(-0.7, 1.1, 65)


def _close(got, expected):
    # relative, with a floor where the derivative vanishes
    return np.all(np.abs(got - expected) <= np.maximum(1e-11 * np.abs(expected), 1e-13))


@pytest.mark.parametrize("dtype", [np.float64])
@pytest.mark.parametrize("name", sorted(JET_CASES))
def test_deriv_matches_symbolic_differentiation(name, dtype):
    e = JET_CASES[name]
    grid = DERIV_GRID.astype(dtype)
    # every reference derivative is taken to 40 digits and rounded once; at
    # about 5 ms a point, every 4th node (both ends included) is checked
    with mpmath.workdps(40):
        on_grid = np.array(
            [[float(d) for d in mp_derivatives(e, mpmath.mpf(x), JET_ORDER)] for x in grid[::4]]
        )
        exact = {t0: mp_derivatives(e, mpmath.mpf(t0), JET_ORDER + 3) for t0 in JET_POINTS}
    for k in range(JET_ORDER + 1):
        node = Deriv(e, k)
        got = values_on_grid(node, grid)
        assert got.dtype == dtype and got.shape == grid.shape
        assert _close(got[::4], on_grid[:, k]), (name, k)
        for t0 in JET_POINTS:
            jet = taylor(node, dtype(t0), 4)
            assert jet.dtype == dtype
            expected = [float(exact[t0][k + j] / math.factorial(j)) for j in range(4)]
            assert _close(jet, np.array(expected)), (name, k, t0)


def test_derivative_order_past_the_float_range_is_an_evaluation_error():
    # 170! is a float, 171! is past the float range
    e = parse("sin(t)")
    grid = np.array([0.5, 1.0, 1.5])
    assert values_on_grid(Deriv(e, 170), grid) == pytest.approx(-np.sin(grid), rel=1e-12)
    with pytest.raises(EvaluationError, match="derivative of order 171: "):
        values_on_grid(Deriv(e, 171), grid)
    # the jet's second coefficient takes 171! / 1!
    assert taylor(Deriv(e, 170), 0.5, 1) == pytest.approx([-math.sin(0.5)], rel=1e-12)
    with pytest.raises(EvaluationError, match="derivative of order 170: "):
        taylor(Deriv(e, 170), 0.5, 2)
    # the factor is checked before the operand's jet is walked, which at
    # 5001 coefficients would take seconds
    start = time.perf_counter()
    with pytest.raises(EvaluationError, match="derivative of order 5000: "):
        evaluate(Deriv(e, 5000), 0.5)
    assert time.perf_counter() - start < 0.5


def test_deriv_folds_and_differentiates_to_a_higher_order():
    e = parse("exp(t)*sin(t)/(1+t^2)")
    for c in (0.0, -1.25, 3.0):
        for k in (1, 2, 7):
            assert Deriv(Const(c), k) == Const(0.0)
    assert Deriv(e, 0) is e
    assert values_on_grid(Deriv(Deriv(e, 2), 3), DERIV_GRID) == pytest.approx(
        values_on_grid(Deriv(e, 5), DERIV_GRID), rel=1e-13
    )
    with pytest.raises(ValueError):
        Deriv(e, -1)
    with mpmath.workdps(40):
        third = float(mp_derivatives(e, mpmath.mpf(0.4), 3)[3])
    assert evaluate(Deriv(e, 3), 0.4) == pytest.approx(third, rel=1e-13)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: taylor(Pow(Var(), -1), 1.0, 3), ValueError, "exponent must be >= 0"),
        (lambda: evaluate(Deriv(Pow(Var(), -1), 1), 1.0), ValueError, "exponent must be >= 0"),
        (lambda: Deriv(parse("t^3"), 2.7), TypeError, "cannot be interpreted as an integer"),
        (lambda: values_on_grid(Pow(Var(), 0.5), [1.0, 4.0]), TypeError, "cannot be interpreted"),
        (lambda: to_text(Pow(Var(), -1)), ValueError, "exponent must be >= 0"),
    ],
    ids=["negative-power-jet", "negative-power-diff", "fractional-order", "fractional-power",
         "negative-power-text"],
)
def test_powers_and_derivative_orders_are_nonnegative_integers(build, error, message):
    # each used to give a wrong number, a late TypeError or unparseable text
    with pytest.raises(error, match=message):
        build()


def test_integer_like_powers_and_orders_become_ints():
    e = parse("t^3")
    power, derivative = Pow(Var(), np.int64(3)), Deriv(e, np.int64(2))
    assert type(power.exponent) is int and power == e and to_text(power) == "t^3"
    assert type(derivative.order) is int and derivative == Deriv(e, 2)


def test_deriv_prints_as_diff_and_parses_back():
    e = parse("exp(t)*sin(t)/(1+t^2)")
    t = Var()
    for node, text in (
        (Deriv(e, 3), "diff(exp(t)*sin(t)/(1+t^2), 3)"),
        (
            Const(2.5) * Deriv(e, 2) - Deriv(e, 4),
            "2.5*diff(exp(t)*sin(t)/(1+t^2), 2)-diff(exp(t)*sin(t)/(1+t^2), 4)",
        ),
        (
            Deriv(parse("t^2"), 3) - Const(-2.0) * Deriv(Sin(t), 1),
            "diff(t^2, 3)--2*diff(sin(t), 1)",
        ),
        (Sin(Deriv(parse("t^3"), 1)), "sin(diff(t^3, 1))"),
    ):
        assert to_text(node) == text
        reparsed = parse(text)
        assert to_text(reparsed) == text
        values = values_on_grid(node, DERIV_GRID)
        assert values_on_grid(reparsed, DERIV_GRID).tobytes() == values.tobytes()
    assert parse("diff(7, 2)") == Const(0.0)
    assert parse("diff( t , 0 )") == Var()


@pytest.mark.parametrize("text", ["diff(t)", "diff(t, 1.5)", "diff(t, -1)", "sin(t, 2)", "1,2"])
def test_parse_rejects_malformed_derivatives(text):
    with pytest.raises(ParseError):
        parse(text)


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
    third = evaluate(Deriv(e, 3), t)
    assume(np.isfinite(third) and abs(third) < 5e4)
    analytic = evaluate(Deriv(e, 1), t)
    assume(np.isfinite(analytic))
    fd = (stencil[3] - stencil[1]) / (2 * h)
    assert abs(analytic - fd) <= 1e-6 * (1.0 + abs(analytic))


@given(expressions, st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=2))
def test_derivative_composition(e, j, k):
    combined = Deriv(e, j + k)
    nested = Deriv(Deriv(e, j), k)
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


WALKS = {
    "evaluate": lambda e: evaluate(e, 0.5),
    "values_on_grid": lambda e: values_on_grid(e, [0.0, 1.0]),
    "taylor": lambda e: taylor(e, 0.0, 3),
    "to_text": to_text,
}


@pytest.mark.parametrize("walk", sorted(WALKS))
def test_nesting_past_the_recursion_limit_is_an_expression_error(walk):
    # the parser loops over a sum, and each walk takes one call per level
    WALKS[walk](parse("+".join(["t"] * 600)))
    with pytest.raises(ExpressionError, match="nested too deeply"):
        WALKS[walk](parse("+".join(["t"] * 3000)))


@pytest.mark.parametrize(
    "text", ["(" * 400 + "t" + ")" * 400, "-" * 2000 + "t"], ids=["parens-400", "minus-2000"]
)
def test_parse_past_the_recursion_limit_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse(text)


@given(expressions, st.floats(min_value=-1.5, max_value=1.5))
def test_one_coefficient_jet_is_the_value(e, t):
    # bit for bit, compared as value and sign (or both nan)
    jet, value = taylor(e, t, 1)[0], values_on_grid(e, t)
    assert jet.dtype == value.dtype
    if np.isnan(value):
        assert np.isnan(jet)
    else:
        assert jet == value and np.signbit(jet) == np.signbit(value)
