"""Minimal infix expression language for coefficient functions.

The drift and potential coefficients of the operator are given as text like
``"y1^2 - 1"`` or ``"sin(y1)*y2"`` over a declared variable set.  This module
parses such text into an immutable AST, evaluates it on scalars or numpy
arrays (broadcasting like numpy), and computes exact symbolic partial
derivatives, which the hypothesis checker needs up to order 4.

Grammar: ``+ - * /`` with usual precedence, ``^`` (right-associative, integer
or real constant exponent; arbitrary exponents only over the constant base
``e``), unary minus, parentheses, the functions ``sin cos exp cosh sinh
sqrt``, numeric literals, and the named constants ``pi`` and ``e``.  There is
deliberately no more: polynomials and trigonometric shears cover every
coefficient this toolkit works with.

ASTs are frozen dataclasses, safe to share across workers; every operation
here is pure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "ExprError",
    "ParseError",
    "UnknownIdentifierError",
    "EvalDomainError",
    "DerivativeError",
    "parse",
    "evaluate",
    "differentiate",
    "simplify",
    "to_string",
    "free_variables",
]


class ExprError(Exception):
    """Base class for expression-language errors."""


class ParseError(ExprError):
    """Malformed expression text; carries the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(ParseError):
    """An identifier that is neither a declared variable nor a known name."""

    def __init__(self, name: str, position: int, declared: tuple[str, ...]):
        super().__init__(
            f"unknown identifier {name!r}; declared variables: {', '.join(declared)}",
            position,
        )
        self.name = name


class EvalDomainError(ExprError):
    """Evaluation left the real domain (sqrt of a negative, division by zero, ...)."""


class DerivativeError(ExprError):
    """Differentiation rule not available for this node."""


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # "neg" or a function name
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


Expr = Union[Const, Var, Unary, Binary]

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "cosh": np.cosh,
    "sinh": np.sinh,
    "sqrt": np.sqrt,
}

_NAMED_CONSTANTS = {"pi": math.pi, "e": math.e}


# ---------------------------------------------------------------------------
# Parsing: tokenizer plus a small Pratt parser.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_BINDING = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_BINDING = 25  # between * and ^, so -x^2 parses as -(x^2)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.variables = variables
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expression(self, min_bp: int) -> Expr:
        node = self.prefix()
        while True:
            kind, value, pos = self.peek()
            if kind != "op" or value not in _BINDING:
                break
            bp = _BINDING[value]
            if bp < min_bp:
                break
            self.advance()
            # right-associative exponent, left-associative everything else
            rhs = self.expression(bp if value == "^" else bp + 1)
            node = Binary(value, node, rhs)
        return node

    def prefix(self) -> Expr:
        kind, value, pos = self.advance()
        if kind == "num":
            return Const(float(value))
        if kind == "ident":
            if value in _FUNCTIONS:
                k2, v2, p2 = self.advance()
                if (k2, v2) != ("op", "("):
                    raise ParseError(f"expected '(' after function {value!r}", p2)
                arg = self.expression(0)
                self.expect_close()
                return Unary(value, arg)
            if value in self.variables:
                return Var(value)
            if value in _NAMED_CONSTANTS:
                return Const(_NAMED_CONSTANTS[value])
            raise UnknownIdentifierError(value, pos, self.variables)
        if kind == "op":
            if value == "(":
                node = self.expression(0)
                self.expect_close()
                return node
            if value == "-":
                return Unary("neg", self.expression(_UNARY_BINDING))
            if value == "+":
                return self.expression(_UNARY_BINDING)
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)

    def expect_close(self):
        kind, value, pos = self.advance()
        if (kind, value) != ("op", ")"):
            raise ParseError("expected ')'", pos)


def parse(text: str, variables: list[str] | tuple[str, ...]) -> Expr:
    """Parse ``text`` into an AST over the declared ``variables``.

    Raises ParseError (with position) on malformed input and
    UnknownIdentifierError when an undeclared name appears.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(text, tuple(variables))
    node = parser.expression(0)
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {value!r}", pos)
    return node


# ---------------------------------------------------------------------------
# Evaluation.  Works elementwise on numpy arrays so the path engine can feed
# whole blocks of states through one tree walk.
# ---------------------------------------------------------------------------


def _check(cond_ok, message: str):
    if not bool(np.all(cond_ok)):
        raise EvalDomainError(message)


def _eval(e: Expr, env: Mapping[str, float | np.ndarray]):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise EvalDomainError(f"no value bound for variable {e.name!r}") from None
    if isinstance(e, Unary):
        a = _eval(e.arg, env)
        if e.op == "neg":
            return np.negative(a)
        if e.op == "sqrt":
            _check(np.asarray(a) >= 0, "sqrt of negative value")
        return _FUNCTIONS[e.op](a)
    left = _eval(e.left, env)
    right = _eval(e.right, env)
    op = e.op
    if op == "+":
        return np.add(left, right)
    if op == "-":
        return np.subtract(left, right)
    if op == "*":
        return np.multiply(left, right)
    if op == "/":
        _check(np.asarray(right) != 0, "division by zero")
        return np.divide(left, right)
    # power: integer scalar exponents keep sign freedom, anything else needs
    # a positive base (no branch cuts)
    r_arr = np.asarray(right)
    if r_arr.ndim == 0 and float(r_arr) == int(r_arr):
        n = int(r_arr)
        if n < 0:
            _check(np.asarray(left) != 0, "zero raised to a negative power")
        return np.power(left, float(n))
    _check(np.asarray(left) > 0, "non-integer exponent needs a positive base")
    return np.power(left, right)


def evaluate(e: Expr, env: Mapping[str, float | np.ndarray]):
    """Evaluate ``e`` with variables bound by ``env``.

    Scalar bindings give a float back; array bindings broadcast and give an
    array.  Raises EvalDomainError when the value is not a finite real.
    """
    with np.errstate(all="ignore"):
        out = _eval(e, env)
    arr = np.asarray(out)
    if arr.ndim == 0:
        val = float(arr)
        if not math.isfinite(val):
            raise EvalDomainError("evaluation produced a non-finite value")
        return val
    if not np.all(np.isfinite(arr)):
        raise EvalDomainError("evaluation produced a non-finite value")
    return arr


# ---------------------------------------------------------------------------
# Differentiation and simplification.
# ---------------------------------------------------------------------------


def differentiate(e: Expr, var: str) -> Expr:
    """Exact symbolic partial derivative with respect to ``var``, simplified.

    Repeated application gives arbitrary mixed partials.
    """
    return simplify(_diff(e, var))


def _diff(e: Expr, var: str) -> Expr:
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == var else 0.0)
    if isinstance(e, Unary):
        da = _diff(e.arg, var)
        a = e.arg
        if e.op == "neg":
            return Unary("neg", da)
        if e.op == "sin":
            return Binary("*", Unary("cos", a), da)
        if e.op == "cos":
            return Unary("neg", Binary("*", Unary("sin", a), da))
        if e.op == "exp":
            return Binary("*", Unary("exp", a), da)
        if e.op == "cosh":
            return Binary("*", Unary("sinh", a), da)
        if e.op == "sinh":
            return Binary("*", Unary("cosh", a), da)
        if e.op == "sqrt":
            return Binary("/", da, Binary("*", Const(2.0), Unary("sqrt", a)))
        raise DerivativeError(f"no rule for {e.op!r}")
    if e.op == "+":
        return Binary("+", _diff(e.left, var), _diff(e.right, var))
    if e.op == "-":
        return Binary("-", _diff(e.left, var), _diff(e.right, var))
    if e.op == "*":
        return Binary(
            "+",
            Binary("*", _diff(e.left, var), e.right),
            Binary("*", e.left, _diff(e.right, var)),
        )
    if e.op == "/":
        num = Binary(
            "-",
            Binary("*", _diff(e.left, var), e.right),
            Binary("*", e.left, _diff(e.right, var)),
        )
        return Binary("/", num, Binary("^", e.right, Const(2.0)))
    # power
    if isinstance(e.right, Const):
        c = e.right.value
        inner = Binary("*", Const(c), Binary("^", e.left, Const(c - 1.0)))
        return Binary("*", inner, _diff(e.left, var))
    if isinstance(e.left, Const) and e.left.value == math.e:
        return Binary("*", e, _diff(e.right, var))
    raise DerivativeError(
        "cannot differentiate a power with a non-constant exponent unless the base is e"
    )


def _fold(node: Expr) -> Expr | None:
    """The constant value of a node over constants; None when it fails to
    evaluate, which keeps the domain error for evaluation time."""
    try:
        return Const(evaluate(node, {}))
    except EvalDomainError:
        return None


def simplify(e: Expr) -> Expr:
    """Constant folding and identity elimination; never changes eval results."""
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Unary):
        a = simplify(e.arg)
        if isinstance(a, Const):
            folded = _fold(Unary(e.op, a))
            if folded is not None:
                return folded
        if e.op == "neg" and isinstance(a, Unary) and a.op == "neg":
            return a.arg
        return Unary(e.op, a)
    left = simplify(e.left)
    right = simplify(e.right)
    if isinstance(left, Const) and isinstance(right, Const):
        folded = _fold(Binary(e.op, left, right))
        if folded is not None:
            return folded
    op = e.op
    if op == "+":
        if isinstance(left, Const) and left.value == 0:
            return right
        if isinstance(right, Const) and right.value == 0:
            return left
    elif op == "-":
        if isinstance(right, Const) and right.value == 0:
            return left
        if isinstance(left, Const) and left.value == 0:
            return Unary("neg", right)
    elif op == "*":
        if isinstance(left, Const):
            if left.value == 0:
                return Const(0.0)
            if left.value == 1:
                return right
        if isinstance(right, Const):
            if right.value == 0:
                return Const(0.0)
            if right.value == 1:
                return left
    elif op == "/":
        if isinstance(right, Const) and right.value == 1:
            return left
    elif op == "^":
        if isinstance(right, Const):
            if right.value == 1:
                return left
            if right.value == 0:
                return Const(1.0)
    return Binary(op, left, right)


def to_string(e: Expr) -> str:
    """Fully parenthesized infix form; parse(to_string(e)) is eval-identical to e."""
    if isinstance(e, Const):
        return repr(e.value) if e.value >= 0 else f"({repr(e.value)})"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            return f"(-{to_string(e.arg)})"
        return f"{e.op}({to_string(e.arg)})"
    return f"({to_string(e.left)} {e.op} {to_string(e.right)})"


def free_variables(e: Expr) -> set[str]:
    """Names of the variables that actually occur in ``e``."""
    if isinstance(e, Const):
        return set()
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Unary):
        return free_variables(e.arg)
    return free_variables(e.left) | free_variables(e.right)
