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

Expressions are immutable and share subtrees freely, so an expression is a
DAG rather than a tree.  Parsing, evaluation and differentiation are pure
functions, so expressions are safe to share between threads.  There is one
evaluator walk, which computes each shared node once per call.  It carries
either plain values, for :func:`evaluate` (one point, errors raised) and
:func:`values_on_grid` (an array, dtype kept), or truncated Taylor series
("jets") about one point, for :func:`taylor`, which gives every derivative
up to a chosen order at that point without building a derivative
expression.  :func:`differentiate` is for when an expression is the
output; each pass differentiates a shared node once, so derivatives stay
shared.  The operator overloads perform only trivial constant folding (0
and 1 identities); there is no other simplification machinery.
"""

from __future__ import annotations

import operator
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
    "values_on_grid",
    "taylor",
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
        On division by zero, floating overflow or an invalid operation.
    """
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return float(_values(e, np.float64(t)))
    except ArithmeticError as exc:
        raise EvaluationError(f"{exc} while evaluating at t={t}") from exc


def values_on_grid(e: Expression, t) -> np.ndarray:
    """Evaluate ``e`` on an array of time points, broadcasting constants.

    ``t`` may also be a 0-d point.  A long-double ``t`` is evaluated and
    returned in long double, any other in double.  Points where ``e`` is
    singular come back as inf or nan without a warning; callers check
    finiteness.
    """
    t = np.asarray(t)
    dtype = np.longdouble if t.dtype == np.longdouble else np.float64
    t = t.astype(dtype, copy=False)
    with np.errstate(all="ignore"):
        out = np.asarray(_values(e, t), dtype=dtype)
    if out.ndim == 0:
        out = np.full(t.shape, out)
    return out


def taylor(e: Expression, t0, count: int) -> np.ndarray:
    """Taylor coefficients c_0..c_{count-1} of ``e`` about the point ``t0``,
    so that the k-th derivative there is k! * c_k.

    The same walk as :func:`values_on_grid`, on truncated power series
    ("jets", Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
    ch. 13): O(count^2) work per node, and no derivative expression is
    built.  A long-double ``t0`` gives long-double coefficients, any other
    double.  At a singular point the coefficients come back as inf or nan
    without a warning; callers check finiteness.
    """
    t0 = np.asarray(t0)
    if t0.ndim != 0:
        raise ValueError("jets are taken about a single point")
    if count < 1:
        raise ValueError("a jet needs at least one coefficient")
    dtype = np.longdouble if t0.dtype == np.longdouble else np.float64
    with np.errstate(all="ignore"):
        return np.array(_values(e, t0.astype(dtype), count), dtype=dtype)


def _values(e: Expression, t, count: int | None = None):
    """Value of ``e`` at ``t`` (a number or an array), or with ``count``
    its Taylor coefficients c_0..c_{count-1} about the point ``t`` as a
    list, computing each node of the shared expression DAG once.

    Values use the plain operations of :data:`_VALUE_OPS`, jets the series
    recurrences of :data:`_JET_OPS`, whose coefficient 0 is computed by the
    same plain operation.
    """
    if count is None:
        ops, var = _VALUE_OPS, t
    else:
        zeros = [np.float64(0.0)] * (count - 1)
        ops, var = _JET_OPS, [t, np.float64(1.0), *zeros][:count]
    memo: dict[int, object] = {}

    def value(node: Expression):
        key = id(node)
        if key in memo:
            return memo[key]
        kind = type(node)
        if kind is Const:
            out = np.float64(node.value)  # numpy scalar: errstate governs it
            if count is not None:
                out = [out, *zeros]
        elif kind is Var:
            out = var
        elif kind in _BINARY_KINDS:
            out = ops[kind](value(node.left), value(node.right))
        elif kind is Pow:
            out = ops[Pow](value(node.base), node.exponent)
        elif kind is Neg:
            out = ops[Neg](value(node.operand))
        elif kind in _FUNCTION_KINDS:
            out = ops[kind](value(node.arg))
        else:
            raise TypeError(f"not an expression node: {node!r}")
        memo[key] = out
        return out

    return value(e)


# Series recurrences on coefficient lists (Griewank & Walther, ch. 13).
# Every sum starts from its first term, never from 0, so coefficient 0 is
# the plain operation on values, signed zeros included.


def _product(a: list, b: list) -> list:
    """Cauchy product: c_k = sum_j a_j b_{k-j}.  A constant factor, whose
    coefficients past c_0 are all zero, just scales the other jet."""
    if not any(a[1:]):
        return [a[0] * v for v in b]
    if not any(b[1:]):
        return [v * b[0] for v in a]
    out = []
    for k in range(len(a)):
        c = a[0] * b[k]
        for j in range(1, k + 1):
            c = c + a[j] * b[k - j]
        out.append(c)
    return out


def _quotient(a: list, b: list) -> list:
    """q = a/b from a = q*b: q_k = (a_k - sum_{j>=1} b_j q_{k-j}) / b_0."""
    out = []
    for k in range(len(a)):
        r = a[k]
        for j in range(1, k + 1):
            r = r - b[j] * out[k - j]
        out.append(r / b[0])
    return out


def _power(a: list, exponent: int) -> list:
    """a^exponent by repeated products; c_0 from ``**`` like the value."""
    out = [np.float64(1.0)] + [np.float64(0.0)] * (len(a) - 1)
    for _ in range(exponent):
        out = _product(out, a)
    return [a[0] ** exponent, *out[1:]]


def _exp(u: list) -> list:
    """e = exp(u) from e' = u' e: e_k = sum_{j=1..k} j u_j e_{k-j} / k."""
    out = [np.exp(u[0])]
    for k in range(1, len(u)):
        c = u[1] * out[k - 1]
        for j in range(2, k + 1):
            c = c + j * u[j] * out[k - j]
        out.append(c / k)
    return out


def _sin_cos(u: list) -> tuple[list, list]:
    """s = sin(u) and c = cos(u) together, from s' = u' c and c' = -u' s."""
    sine, cosine = [np.sin(u[0])], [np.cos(u[0])]
    for k in range(1, len(u)):
        s, c = u[1] * cosine[k - 1], u[1] * sine[k - 1]
        for j in range(2, k + 1):
            s = s + j * u[j] * cosine[k - j]
            c = c + j * u[j] * sine[k - j]
        sine.append(s / k)
        cosine.append(-c / k)
    return sine, cosine


_BINARY_KINDS = (Add, Sub, Mul, Div)
_FUNCTION_KINDS = (Sin, Cos, Exp)

_VALUE_OPS = {
    Add: operator.add,
    Sub: operator.sub,
    Mul: operator.mul,
    Div: operator.truediv,
    Pow: operator.pow,
    Neg: operator.neg,
    Sin: np.sin,
    Cos: np.cos,
    Exp: np.exp,
}

_JET_OPS = {
    Add: lambda a, b: list(map(operator.add, a, b)),
    Sub: lambda a, b: list(map(operator.sub, a, b)),
    Mul: _product,
    Div: _quotient,
    Pow: _power,
    Neg: lambda a: list(map(operator.neg, a)),
    Sin: lambda u: _sin_cos(u)[0],
    Cos: lambda u: _sin_cos(u)[1],
    Exp: _exp,
}


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def differentiate(e: Expression, k: int = 1) -> Expression:
    """Exact k-th derivative of ``e`` with respect to t (k >= 1).

    Derivatives are produced by repeated application of the sum, product,
    quotient and chain rules; the result stays inside the same grammar.
    No simplification is attempted beyond constant folding.  Each pass
    differentiates a shared subtree once and shares its derivative, so
    the result is a DAG: as a tree it grows steeply with k (the 8th
    derivative of exp(t)*sin(t)/(1+t^2) unfolds to millions of nodes),
    but its distinct nodes stay in the tens of thousands, and they grow
    about 8x per two orders.  For numeric derivatives at a point use
    :func:`taylor` instead: the k-th derivative is k! * c_k, and order 14
    takes milliseconds where the symbolic route takes seconds.
    """
    k = int(k)
    if k < 1:
        raise ValueError("derivative order k must be >= 1")
    for _ in range(k):
        e = _derivative(e)
    return e


def _derivative(e: Expression) -> Expression:
    """One derivative pass over the DAG of ``e``."""
    memo: dict[int, Expression] = {}

    def d(node: Expression) -> Expression:
        key = id(node)
        if key in memo:
            return memo[key]
        if isinstance(node, Const):
            out = Const(0.0)
        elif isinstance(node, Var):
            out = Const(1.0)
        elif isinstance(node, Add):
            out = d(node.left) + d(node.right)
        elif isinstance(node, Sub):
            out = d(node.left) - d(node.right)
        elif isinstance(node, Mul):
            out = d(node.left) * node.right + node.left * d(node.right)
        elif isinstance(node, Div):
            num = d(node.left) * node.right - node.left * d(node.right)
            out = num / (node.right**2)
        elif isinstance(node, Pow):
            if node.exponent == 0:
                out = Const(0.0)
            elif node.exponent == 1:
                out = d(node.base)
            else:
                out = Const(float(node.exponent)) * node.base ** (node.exponent - 1) * d(node.base)
        elif isinstance(node, Neg):
            out = -d(node.operand)
        elif isinstance(node, Sin):
            out = Cos(node.arg) * d(node.arg)
        elif isinstance(node, Cos):
            out = -Expression._wrap(Sin(node.arg)) * d(node.arg)
        elif isinstance(node, Exp):
            out = Exp(node.arg) * d(node.arg)
        else:
            raise TypeError(f"not an expression node: {node!r}")
        memo[key] = out
        return out

    return d(e)


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
# printing
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
