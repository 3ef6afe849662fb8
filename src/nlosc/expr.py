"""Closed-form expressions in the time variable ``t``.

The grammar is deliberately tiny: decimal constants, the variable ``t``,
the operators ``+ - * /``, integer powers ``^``, and the functions ``sin``,
``cos`` and ``exp``.  That is enough to express every driving force,
reduced forcing term, coefficient function and analytic reference solution
this package works with, while keeping symbolic differentiation exact and
total (no finite-difference approximation anywhere).

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' uint)?
    base   := number | 't' | func '(' expr ')' | '(' expr ')' | '-' base
    func   := 'sin' | 'cos' | 'exp'
    number := decimal literal, optionally with an exponent part (1e-3)

Expressions are immutable; parsing, evaluation and differentiation are pure
functions, so expressions are safe to share between threads.  The operator
overloads perform only trivial constant folding (0 and 1 identities), which
keeps derivative trees compact without any real simplification machinery.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expression",
    "Const",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Neg",
    "Sin",
    "Cos",
    "Exp",
    "ExpressionError",
    "ParseError",
    "EvaluationError",
    "parse",
    "evaluate",
    "differentiate",
    "to_text",
    "as_array_function",
    "values_on_grid",
]


class ExpressionError(ValueError):
    """Base class for expression failures."""


class ParseError(ExpressionError):
    """Malformed input text; ``position`` is the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(ExpressionError):
    """Division by zero or overflow while evaluating an expression."""


@dataclass(frozen=True)
class Expression:
    """Abstract syntax tree node.  Subclasses are the only node kinds."""

    # -- construction sugar with trivial constant folding -----------------

    @staticmethod
    def _wrap(value) -> "Expression":
        if isinstance(value, Expression):
            return value
        return Const(float(value))

    def __add__(self, other) -> "Expression":
        other = self._wrap(other)
        if isinstance(self, Const) and isinstance(other, Const):
            return Const(self.value + other.value)
        if isinstance(self, Const) and self.value == 0.0:
            return other
        if isinstance(other, Const) and other.value == 0.0:
            return self
        return Add(self, other)

    def __sub__(self, other) -> "Expression":
        other = self._wrap(other)
        if isinstance(self, Const) and isinstance(other, Const):
            return Const(self.value - other.value)
        if isinstance(other, Const) and other.value == 0.0:
            return self
        if isinstance(self, Const) and self.value == 0.0:
            return -other
        return Sub(self, other)

    def __mul__(self, other) -> "Expression":
        other = self._wrap(other)
        if isinstance(self, Const) and isinstance(other, Const):
            return Const(self.value * other.value)
        if isinstance(self, Const):
            if self.value == 0.0:
                return Const(0.0)
            if self.value == 1.0:
                return other
        if isinstance(other, Const):
            if other.value == 0.0:
                return Const(0.0)
            if other.value == 1.0:
                return self
        return Mul(self, other)

    def __truediv__(self, other) -> "Expression":
        other = self._wrap(other)
        if isinstance(other, Const) and other.value == 1.0:
            return self
        if isinstance(self, Const) and isinstance(other, Const) and other.value != 0.0:
            return Const(self.value / other.value)
        return Div(self, other)

    def __neg__(self) -> "Expression":
        if isinstance(self, Const):
            return Const(-self.value)
        if isinstance(self, Neg):
            return self.operand
        return Neg(self)

    def __pow__(self, exponent: int) -> "Expression":
        exponent = int(exponent)
        if exponent < 0:
            raise ValueError("powers are restricted to nonnegative integer exponents")
        if exponent == 0:
            return Const(1.0)
        if exponent == 1:
            return self
        if isinstance(self, Const):
            return Const(self.value**exponent)
        return Pow(self, exponent)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other) -> "Expression":
        return self._wrap(other) - self


@dataclass(frozen=True)
class Const(Expression):
    value: float


@dataclass(frozen=True)
class Var(Expression):
    """The time variable t."""


@dataclass(frozen=True)
class Add(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Sub(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Mul(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Div(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Pow(Expression):
    base: Expression
    exponent: int


@dataclass(frozen=True)
class Neg(Expression):
    operand: Expression


@dataclass(frozen=True)
class Sin(Expression):
    arg: Expression


@dataclass(frozen=True)
class Cos(Expression):
    arg: Expression


@dataclass(frozen=True)
class Exp(Expression):
    arg: Expression


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(e: Expression, t: float) -> float:
    """Evaluate ``e`` at time ``t`` in double precision.

    Raises
    ------
    EvaluationError
        On division by zero or floating overflow.
    """
    try:
        return _eval(e, float(t))
    except OverflowError as exc:
        raise EvaluationError(f"overflow while evaluating at t={t}") from exc


def _eval(e: Expression, t: float) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return t
    if isinstance(e, Add):
        return _eval(e.left, t) + _eval(e.right, t)
    if isinstance(e, Sub):
        return _eval(e.left, t) - _eval(e.right, t)
    if isinstance(e, Mul):
        return _eval(e.left, t) * _eval(e.right, t)
    if isinstance(e, Div):
        den = _eval(e.right, t)
        if den == 0.0:
            raise EvaluationError(f"division by zero at t={t}")
        return _eval(e.left, t) / den
    if isinstance(e, Pow):
        return _eval(e.base, t) ** e.exponent
    if isinstance(e, Neg):
        return -_eval(e.operand, t)
    if isinstance(e, Sin):
        return math.sin(_eval(e.arg, t))
    if isinstance(e, Cos):
        return math.cos(_eval(e.arg, t))
    if isinstance(e, Exp):
        return math.exp(_eval(e.arg, t))
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def differentiate(e: Expression, k: int = 1) -> Expression:
    """Exact k-th derivative of ``e`` with respect to t (k >= 1).

    Derivatives are produced by repeated application of the sum, product,
    quotient and chain rules; the result stays inside the same grammar.
    No simplification is attempted beyond constant folding, so trees may
    grow, but they stay small for the derivative orders used here.
    """
    k = int(k)
    if k < 1:
        raise ValueError("derivative order k must be >= 1")
    for _ in range(k):
        e = _derivative(e)
    return e


def _derivative(e: Expression) -> Expression:
    if isinstance(e, (Const,)):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0)
    if isinstance(e, Add):
        return _derivative(e.left) + _derivative(e.right)
    if isinstance(e, Sub):
        return _derivative(e.left) - _derivative(e.right)
    if isinstance(e, Mul):
        return _derivative(e.left) * e.right + e.left * _derivative(e.right)
    if isinstance(e, Div):
        num = _derivative(e.left) * e.right - e.left * _derivative(e.right)
        return num / (e.right**2)
    if isinstance(e, Pow):
        if e.exponent == 0:
            return Const(0.0)
        if e.exponent == 1:
            return _derivative(e.base)
        return Const(float(e.exponent)) * e.base ** (e.exponent - 1) * _derivative(e.base)
    if isinstance(e, Neg):
        return -_derivative(e.operand)
    if isinstance(e, Sin):
        return Cos(e.arg) * _derivative(e.arg)
    if isinstance(e, Cos):
        return -Expression._wrap(Sin(e.arg)) * _derivative(e.arg)
    if isinstance(e, Exp):
        return Exp(e.arg) * _derivative(e.arg)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_FUNCTIONS = ("sin", "cos", "exp")

_TOKEN = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def expression(self) -> Expression:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if value == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Expression:
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                node = Mul(node, rhs) if value == "*" else Div(node, rhs)
            else:
                return node

    def factor(self) -> Expression:
        node = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, pos = self.peek()
            if kind != "num" or not value.isdigit():
                raise ParseError("exponent must be a nonnegative integer", pos)
            self.advance()
            node = Pow(node, int(value)) if int(value) > 1 else node ** int(value)
        return node

    def base(self) -> Expression:
        kind, value, pos = self.advance()
        if kind == "num":
            return Const(float(value))
        if kind == "ident":
            if value == "t":
                return Var()
            if value in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expression()
                self.expect_op(")")
                return {"sin": Sin, "cos": Cos, "exp": Exp}[value](arg)
            raise ParseError(f"unknown identifier {value!r}", pos)
        if kind == "op":
            if value == "(":
                node = self.expression()
                self.expect_op(")")
                return node
            if value == "-":
                return -self.base()
        raise ParseError(
            "unexpected end of input" if kind == "end" else f"unexpected token {value!r}",
            pos,
        )


def parse(text: str) -> Expression:
    """Parse ``text`` into an Expression.

    Raises
    ------
    ParseError
        With the offending character position, for malformed input or an
        unknown identifier.
    """
    parser = _Parser(text)
    node = parser.expression()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {value!r} after expression", pos)
    return node


# ---------------------------------------------------------------------------
# printing and compiled evaluation
# ---------------------------------------------------------------------------

# precedence used by the printer; higher binds tighter
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_POW = 3
_PREC_ATOM = 4


def _fmt_const(value: float) -> tuple[str, int]:
    if value < 0 or (value == 0.0 and np.signbit(value)):
        text, _ = _fmt_const(-value)
        return f"-{text}", _PREC_MUL  # parenthesized by callers that bind tighter
    if float(value).is_integer() and abs(value) < 1e16:
        return str(int(value)), _PREC_ATOM
    return repr(float(value)), _PREC_ATOM


def _render(e: Expression) -> tuple[str, int]:
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return "t", _PREC_ATOM
    if isinstance(e, Add):
        return f"{_paren(e.left, _PREC_ADD)}+{_paren(e.right, _PREC_ADD + 1)}", _PREC_ADD
    if isinstance(e, Sub):
        return f"{_paren(e.left, _PREC_ADD)}-{_paren(e.right, _PREC_ADD + 1)}", _PREC_ADD
    if isinstance(e, Mul):
        return f"{_paren(e.left, _PREC_MUL)}*{_paren(e.right, _PREC_MUL + 1)}", _PREC_MUL
    if isinstance(e, Div):
        return f"{_paren(e.left, _PREC_MUL)}/{_paren(e.right, _PREC_MUL + 1)}", _PREC_MUL
    if isinstance(e, Pow):
        # the grammar reads -t^2 as (-t)^2, so a non-atomic base is always
        # parenthesized here to keep printing structure-preserving
        return f"{_paren(e.base, _PREC_ATOM)}^{e.exponent}", _PREC_POW
    if isinstance(e, Neg):
        return f"-{_paren(e.operand, _PREC_POW + 1)}", _PREC_MUL
    if isinstance(e, Sin):
        return f"sin({_render(e.arg)[0]})", _PREC_ATOM
    if isinstance(e, Cos):
        return f"cos({_render(e.arg)[0]})", _PREC_ATOM
    if isinstance(e, Exp):
        return f"exp({_render(e.arg)[0]})", _PREC_ATOM
    raise TypeError(f"not an expression node: {e!r}")


def _paren(e: Expression, minimum: int) -> str:
    text, prec = _render(e)
    return f"({text})" if prec < minimum else text


def to_text(e: Expression) -> str:
    """Render ``e`` as parseable text; ``parse(to_text(e))`` evaluates
    identically to ``e`` at every point (the printing is structure
    preserving up to unary-minus/negative-constant equivalence)."""
    return _render(e)[0]


def _emit(e: Expression) -> str:
    if isinstance(e, Const):
        return repr(float(e.value))
    if isinstance(e, Var):
        return "t"
    if isinstance(e, Add):
        return f"({_emit(e.left)}+{_emit(e.right)})"
    if isinstance(e, Sub):
        return f"({_emit(e.left)}-{_emit(e.right)})"
    if isinstance(e, Mul):
        return f"({_emit(e.left)}*{_emit(e.right)})"
    if isinstance(e, Div):
        return f"({_emit(e.left)}/{_emit(e.right)})"
    if isinstance(e, Pow):
        return f"({_emit(e.base)}**{e.exponent})"
    if isinstance(e, Neg):
        return f"(-{_emit(e.operand)})"
    if isinstance(e, Sin):
        return f"sin({_emit(e.arg)})"
    if isinstance(e, Cos):
        return f"cos({_emit(e.arg)})"
    if isinstance(e, Exp):
        return f"exp({_emit(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


def as_array_function(e: Expression):
    """Compile ``e`` into a vectorized callable f(t).

    The source is generated from the AST (never from user text), so the
    eval below only sees machine-built arithmetic.  The callable accepts
    scalars or numpy arrays; unlike :func:`evaluate` it does not police
    division by zero, so it is meant for grids where the expression is
    known to be continuous.
    """
    namespace = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "__builtins__": {}}
    return eval(f"lambda t: {_emit(e)}", namespace)  # noqa: S307


def values_on_grid(e: Expression, t) -> np.ndarray:
    """Evaluate ``e`` on an array of time points, broadcasting constants.

    A long-double grid is evaluated and returned in long double; any other
    grid in double.
    """
    t = np.asarray(t)
    dtype = np.longdouble if t.dtype == np.longdouble else np.float64
    t = t.astype(dtype, copy=False)
    out = np.asarray(as_array_function(e)(t), dtype=dtype)
    if out.ndim == 0:
        out = np.full(t.shape, out)
    return out
