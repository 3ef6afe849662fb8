"""Closed-form expressions in the time variable ``t``.

The grammar is deliberately tiny: decimal constants, the variable ``t``,
the operators ``+ - * /``, integer powers ``^``, the functions ``sin``,
``cos`` and ``exp``, and ``diff(e, k)``, the k-th derivative of ``e``.
That is enough to express every driving force, reduced forcing term,
coefficient function and analytic reference solution this package works
with.  Every derivative comes from Taylor jets, exact up to rounding (no
finite-difference approximation anywhere).

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' uint)?
    base   := number | 't' | func '(' expr ')' | 'diff' '(' expr ',' uint ')'
            | '(' expr ')' | '-' base
    func   := 'sin' | 'cos' | 'exp'
    number := decimal literal, optionally with an exponent part (1e-3)

Expressions are immutable and share subtrees freely, so an expression is a
DAG rather than a tree.  Parsing and evaluation are pure functions, so
expressions are safe to share between threads.  There is one evaluator
walk per call and one arithmetic path: every node yields a truncated Taylor
series ("jet"), and a plain value is the one-coefficient jet.  The walk
keeps one memo per jet length, ``diff`` operands included, so each shared
node is computed at most once per length.  :func:`evaluate` (one point,
errors raised) and :func:`values_on_grid` (an array of doubles) take that
one coefficient; :func:`taylor` takes every derivative up to a chosen order
at one point, with no derivative expression built.  A jet's coefficients
may also be grid arrays, one series about each grid point.

``diff(e, k)`` is a :class:`Deriv` node, which the same walk computes from
its operand's jet k coefficients longer; :func:`to_text` prints it back as
``diff(e, k)``.  The operator overloads perform only trivial constant
folding (0 and 1 identities); there is no other simplification machinery.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
    "Deriv",
    "ExpressionError",
    "ParseError",
    "EvaluationError",
    "parse",
    "evaluate",
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
    """Division by zero or overflow while evaluating an expression, or
    nesting deeper than Python's recursion limit allows."""


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

    def __neg__(self) -> "Expression":
        if isinstance(self, Const):
            return Const(-self.value)
        if isinstance(self, Neg):
            return self.operand
        return Neg(self)


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


def _natural(value, what: str) -> int:
    """``value`` as an int: ``TypeError`` unless an integer, ``ValueError`` if negative."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"{what} must be >= 0")
    return value


@dataclass(frozen=True)
class Pow(Expression):
    base: Expression
    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "exponent", _natural(self.exponent, "exponent"))


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


@dataclass(frozen=True, init=False)
class Deriv(Expression):
    """The ``order``-th derivative of ``operand``, evaluated from a jet of
    ``operand`` rather than built symbolically.

    Construction folds: order 0 gives ``operand`` itself, and the
    derivative of a constant is ``Const(0.0)``.
    """

    operand: Expression
    order: int

    def __new__(cls, operand: Expression, order: int) -> Expression:
        order = _natural(order, "derivative order")
        if order == 0:
            return operand
        if isinstance(operand, Const):
            return Const(0.0)
        node = super().__new__(cls)
        object.__setattr__(node, "operand", operand)
        object.__setattr__(node, "order", order)
        return node

    def __init__(self, operand: Expression, order: int):
        """Fields are set by ``__new__``, which may return another node."""


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
            return float(_values(e, np.float64(t), 1)[0])
    except ArithmeticError as exc:
        raise EvaluationError(f"{exc} while evaluating at t={t}") from exc


def values_on_grid(e: Expression, t) -> np.ndarray:
    """Evaluate ``e`` on an array of time points, broadcasting constants.

    ``t`` may also be a 0-d point; values are doubles.  Points where ``e``
    is singular come back as inf or nan without a warning; callers check
    finiteness.
    """
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(all="ignore"):
        out = np.asarray(_values(e, t, 1)[0], dtype=np.float64)
    if out.ndim == 0:
        out = np.full(t.shape, out)
    return out


def taylor(e: Expression, t0, count: int) -> np.ndarray:
    """Taylor coefficients c_0..c_{count-1} of ``e`` about the point ``t0``,
    so that the k-th derivative there is k! * c_k.

    The same walk as :func:`values_on_grid`, on truncated power series
    ("jets", Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
    ch. 13): O(count^2) work per node, and no derivative expression is
    built.  The coefficients are doubles.  At a singular point they come
    back as inf or nan without a warning; callers check finiteness.
    """
    t0 = np.asarray(t0, dtype=np.float64)
    if t0.ndim != 0:
        raise ValueError("jets are taken about a single point")
    if count < 1:
        raise ValueError("a jet needs at least one coefficient")
    with np.errstate(all="ignore"):
        return np.array(_values(e, t0, count), dtype=np.float64)


def _values(e: Expression, t, count: int) -> list:
    """Taylor coefficients c_0..c_{count-1} of ``e`` about ``t`` (a number,
    or an array for one series per point) as a list; c_0 is the value.

    One memo per jet length, emptied on return.  Each operator runs its
    series recurrence ``jet`` (:data:`_BINARY`, :data:`_FUNCTIONS`), whose
    c_0 is the plain operation on values.  A Deriv node of order k reads its
    operand at length count + k: the k-th derivative of sum_i c_i (t - t0)^i
    has coefficients c_{j+k} (j+k)!/j!.
    """
    memos: dict[int, dict[int, list]] = {}

    def walk(count: int) -> Callable:
        zeros = [np.float64(0.0)] * (count - 1)
        var = [t, np.float64(1.0), *zeros][:count]
        memo = memos.setdefault(count, {})

        def series(node: Expression) -> list:
            key = id(node)
            if key in memo:
                return memo[key]
            kind = type(node)
            if kind is Const:
                out = [np.float64(node.value), *zeros]  # numpy scalars: errstate governs them
            elif kind is Var:
                out = var
            elif kind in _BINARY:
                out = _BINARY[kind].jet(series(node.left), series(node.right))
            elif kind is Pow:
                out = _power(series(node.base), node.exponent)
            elif kind is Neg:
                out = [-c for c in series(node.operand)]
            elif kind in _FUNCTIONS:
                out = _FUNCTIONS[kind].jet(series(node.arg))
            elif kind is Deriv:
                k = node.order
                try:  # before the operand's walk; gamma overflows from k = 171 on, as k! does
                    math.gamma(k + 1)
                    factors = [float(math.perm(j + k, k)) for j in range(count)]
                except OverflowError:
                    raise EvaluationError(
                        f"derivative of order {k}: its factorial factor is past the float range"
                    ) from None
                jet = walk(count + k)(node.operand)
                out = [c * jet[j + k] for j, c in enumerate(factors)]
            else:
                raise TypeError(f"not an expression node: {node!r}")
            memo[key] = out
            return out

        return series

    try:
        return walk(count)(e)
    except RecursionError:
        raise EvaluationError("expression nested too deeply to evaluate") from None
    finally:  # a closure that calls itself is a cycle: free the jets now, not at collection
        for memo in memos.values():
            memo.clear()


# Series recurrences on coefficient lists (Griewank & Walther, ch. 13).
# Every sum starts from its first term, never from 0, so coefficient 0 is
# the plain operation on values, signed zeros included.


def _is_constant(a: list) -> bool:
    """Whether every coefficient of ``a`` past c_0 is a zero number.  The
    truth of a grid array is ambiguous, and a jet with one counts as
    varying."""
    try:
        return not any(a[1:])
    except ValueError:
        return False


def _product(a: list, b: list) -> list:
    """Cauchy product: c_k = sum_j a_j b_{k-j}.  A constant factor, whose
    coefficients past c_0 are all zero, just scales the other jet."""
    if _is_constant(a):
        return [a[0] * v for v in b]
    if _is_constant(b):
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
    """a^exponent: the tail (none at length 1) by repeated products, then c_0 by ``**``."""
    if len(a) == 1:
        return [a[0] ** exponent]
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
    """s = sin(u) and c = cos(u) together, from s' = u' c and c' = -u' s.
    :data:`_FUNCTIONS` takes a one-coefficient jet from one function alone."""
    sine, cosine = [np.sin(u[0])], [np.cos(u[0])]
    for k in range(1, len(u)):
        s, c = u[1] * cosine[k - 1], u[1] * sine[k - 1]
        for j in range(2, k + 1):
            s = s + j * u[j] * cosine[k - j]
            c = c + j * u[j] * sine[k - j]
        sine.append(s / k)
        cosine.append(-c / k)
    return sine, cosine


class _Op(NamedTuple):
    """A binary operator or function: its text, precedence and series recurrence."""

    text: str
    precedence: int
    jet: Callable


# how tightly each form binds (higher is tighter), for parser and printer
_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4

_BINARY = {
    Add: _Op("+", _PREC_ADD, lambda a, b: list(map(operator.add, a, b))),
    Sub: _Op("-", _PREC_ADD, lambda a, b: list(map(operator.sub, a, b))),
    Mul: _Op("*", _PREC_MUL, _product),
    Div: _Op("/", _PREC_MUL, _quotient),
}

_FUNCTIONS = {
    Sin: _Op("sin", _PREC_ATOM, lambda u: _sin_cos(u)[0] if len(u) > 1 else [np.sin(u[0])]),
    Cos: _Op("cos", _PREC_ATOM, lambda u: _sin_cos(u)[1] if len(u) > 1 else [np.cos(u[0])]),
    Exp: _Op("exp", _PREC_ATOM, _exp),
}

# the node kind of each operator and function name, for the parser
_KINDS = {op.text: kind for table in (_BINARY, _FUNCTIONS) for kind, op in table.items()}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
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

    def expression(self, precedence: int = _PREC_ADD) -> Expression:
        """Operands joined, left to right, by the binary operators that bind
        at least as tightly as ``precedence``."""
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            node_kind = _KINDS.get(value) if kind == "op" else None
            if node_kind not in _BINARY or _BINARY[node_kind].precedence < precedence:
                return node
            self.advance()
            node = node_kind(node, self.expression(_BINARY[node_kind].precedence + 1))

    def uint(self, what: str) -> int:
        kind, value, pos = self.advance()
        if kind != "num" or not value.isdigit():
            raise ParseError(f"{what} must be a nonnegative integer", pos)
        return int(value)

    def factor(self) -> Expression:
        node = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            exponent = self.uint("exponent")
            if exponent != 1:
                node = Pow(node, exponent) if exponent else Const(1.0)
        return node

    def base(self) -> Expression:
        kind, value, pos = self.advance()
        if kind == "num":
            number = float(value)
            if not math.isfinite(number):
                raise ParseError(f"number {value} is past the float range", pos)
            return Const(number)
        if kind == "ident":
            if value == "t":
                return Var()
            if _KINDS.get(value) in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expression()
                self.expect_op(")")
                return _KINDS[value](arg)
            if value == "diff":
                self.expect_op("(")
                arg = self.expression()
                self.expect_op(",")
                order = self.uint("derivative order")
                self.expect_op(")")
                return Deriv(arg, order)
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
        With the offending character position, for malformed input, an
        unknown identifier, a number past the float range or nesting deeper
        than Python's recursion limit allows.
    """
    parser = _Parser(text)
    try:
        node = parser.expression()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek()[2]) from None
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {value!r} after expression", pos)
    return node


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _fmt_const(value: float) -> tuple[str, int]:
    if not math.isfinite(value):
        raise ExpressionError(f"cannot print the non-finite constant {value}")
    if value < 0 or (value == 0.0 and np.signbit(value)):
        text, _ = _fmt_const(-value)
        return f"-{text}", _PREC_MUL  # parenthesized by callers that bind tighter
    if float(value).is_integer() and abs(value) < 1e16:
        return str(int(value)), _PREC_ATOM
    return repr(float(value)), _PREC_ATOM


def _render(e: Expression, minimum: int = _PREC_ADD) -> str:
    """``e`` as text, parenthesized if it binds less tightly than ``minimum``
    (one call per level of nesting)."""
    if isinstance(e, Const):
        text, prec = _fmt_const(e.value)
    elif isinstance(e, Var):
        text, prec = "t", _PREC_ATOM
    elif type(e) in _BINARY:
        op = _BINARY[type(e)]
        left, right = _render(e.left, op.precedence), _render(e.right, op.precedence + 1)
        text, prec = f"{left}{op.text}{right}", op.precedence
    elif isinstance(e, Pow):
        # the grammar reads -t^2 as (-t)^2, so a non-atomic base is always
        # parenthesized here to keep printing structure-preserving
        text, prec = f"{_render(e.base, _PREC_ATOM)}^{e.exponent}", _PREC_POW
    elif isinstance(e, Neg):
        text, prec = f"-{_render(e.operand, _PREC_POW + 1)}", _PREC_MUL
    elif type(e) in _FUNCTIONS:
        op = _FUNCTIONS[type(e)]
        text, prec = f"{op.text}({_render(e.arg)})", op.precedence
    elif isinstance(e, Deriv):
        text, prec = f"diff({_render(e.operand)}, {e.order})", _PREC_ATOM
    else:
        raise TypeError(f"not an expression node: {e!r}")
    return f"({text})" if prec < minimum else text


def to_text(e: Expression) -> str:
    """Render ``e`` as parseable text; ``parse(to_text(e))`` evaluates
    identically to ``e`` at every point (the printing is structure
    preserving up to unary-minus/negative-constant equivalence).  A
    :class:`Deriv` prints as ``diff(e, k)``.  ``ExpressionError`` if ``e``
    holds a non-finite constant, which has no literal, or is nested deeper
    than Python's recursion limit allows."""
    try:
        return _render(e)
    except RecursionError:
        raise ExpressionError("expression nested too deeply to print") from None
