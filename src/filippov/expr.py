"""Arithmetic expression ASTs with exact symbolic differentiation.

Only smooth primitives are admitted (sin, cos, exp, sqrt, integer powers);
non-smooth functions such as abs or sign are rejected at parse time so that
every vector field component stays differentiable.  Discontinuities enter a
model exclusively through region switching, never through the expressions.

Grammar (see docs/expressions.md for the full EBNF)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' INTEGER)*
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Binary operators of equal precedence associate to the left; '^' binds
tighter than unary minus and its exponent must be a literal non-negative
integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .errors import EvaluationError, ExpressionError

UNARY_FUNCTIONS = ("sin", "cos", "exp", "sqrt")
FORBIDDEN_FUNCTIONS = ("abs", "sign", "min", "max", "floor", "ceil", "mod", "tan")
BUILTIN_CONSTANTS = {"pi": math.pi, "e": math.e}


@dataclass(frozen=True)
class Expression:
    """Base node; all nodes are immutable and compare structurally."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expression):
    value: float
    __slots__ = ("value",)


@dataclass(frozen=True)
class Var(Expression):
    name: str
    __slots__ = ("name",)


@dataclass(frozen=True)
class Unary(Expression):
    op: str  # 'neg' | 'sin' | 'cos' | 'exp' | 'sqrt'
    arg: Expression
    __slots__ = ("op", "arg")


@dataclass(frozen=True)
class Binary(Expression):
    op: str  # '+' | '-' | '*' | '/'
    left: Expression
    right: Expression
    __slots__ = ("op", "left", "right")


@dataclass(frozen=True)
class Power(Expression):
    base: Expression
    exponent: int  # literal integer >= 0
    __slots__ = ("base", "exponent")


# --------------------------------------------------------------------------- #
# tokenizer / parser
# --------------------------------------------------------------------------- #

_TOKEN_OPS = "+-*/^()"


def _tokenize(source):
    tokens = []  # (kind, value, position)
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _TOKEN_OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or (source[j] == "." and not seen_dot)):
                seen_dot = seen_dot or source[j] == "."
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ExpressionError(f"malformed number {text!r}", position=i)
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {c!r}", position=i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens, symbols):
        self.tokens = tokens
        self.pos = 0
        self.symbols = symbols

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, position = self.peek()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r}", position=position)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, value, position = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected trailing input {value!r}", position=position)
        return node

    def expr(self):
        return self._left_assoc(self.term, "+-")

    def term(self):
        return self._left_assoc(self.factor, "*/")

    def _left_assoc(self, operand, ops):
        """operand (op operand)* over the binary operators in ``ops``, left-associative."""
        node = operand()
        while True:
            kind, value, _ = self.peek()
            if kind != "op" or value not in ops:
                return node
            self.advance()
            node = Binary(value, node, operand())

    def factor(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Unary("neg", self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "^":
                self.advance()
                node = Power(node, self._exponent())
            else:
                return node

    def _exponent(self):
        kind, value, position = self.peek()
        if kind == "op" and value == "-":
            raise ExpressionError("pow exponent must be a non-negative integer", position=position)
        if kind != "num":
            raise ExpressionError("pow exponent must be an integer literal", position=position)
        self.advance()
        if value != int(value):
            raise ExpressionError("pow exponent must be an integer", position=position)
        return int(value)

    def atom(self):
        kind, value, position = self.advance()
        if kind == "num":
            return Const(value)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "name":
            nxt_kind, nxt_value, _ = self.peek()
            if nxt_kind == "op" and nxt_value == "(":
                if value in FORBIDDEN_FUNCTIONS:
                    raise ExpressionError(
                        f"{value!r} is not a smooth primitive and is not allowed",
                        position=position,
                    )
                if value not in UNARY_FUNCTIONS:
                    raise ExpressionError(f"unknown function {value!r}", position=position)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Unary(value, arg)
            if value in BUILTIN_CONSTANTS:
                return Const(BUILTIN_CONSTANTS[value])
            if value not in self.symbols:
                raise ExpressionError(f"unknown identifier {value!r}", position=position)
            return Var(value)
        raise ExpressionError("expected a number, name or parenthesis", position=position)


def parse_expression(source: str, symbols: Iterable[str]) -> Expression:
    """Parse ``source`` into an AST over the given symbol set."""
    symbols = set(symbols)
    if not symbols:
        raise ExpressionError("symbol set must be nonempty")
    return _Parser(_tokenize(source), symbols).parse()


# --------------------------------------------------------------------------- #
# serialization
# --------------------------------------------------------------------------- #

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _serialize(node, parent_prec, right_side):
    if isinstance(node, Const):
        return repr(node.value) if node.value != int(node.value) else str(int(node.value))
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = _serialize(node.arg, 3, False)
            text = f"-{inner}"
            return f"({text})" if parent_prec > 2 or right_side else text
        return f"{node.op}({_serialize(node.arg, 0, False)})"
    if isinstance(node, Power):
        base = _serialize(node.base, 4, False)
        return f"{base}^{node.exponent}"
    prec = _PRECEDENCE[node.op]
    left = _serialize(node.left, prec, False)
    right = _serialize(node.right, prec + 1, True)
    text = f"{left} {node.op} {right}"
    return f"({text})" if parent_prec > prec else text


def serialize(expression: Expression) -> str:
    """Render an AST to a source string that re-parses to an identical AST."""
    return _serialize(expression, 0, False)


def variables(expression: Expression) -> set[str]:
    if isinstance(expression, Var):
        return {expression.name}
    if isinstance(expression, Unary):
        return variables(expression.arg)
    if isinstance(expression, Binary):
        return variables(expression.left) | variables(expression.right)
    if isinstance(expression, Power):
        return variables(expression.base)
    return set()


# --------------------------------------------------------------------------- #
# evaluation
# --------------------------------------------------------------------------- #


def evaluate(expression: Expression, binding: Mapping[str, float]) -> float:
    """Evaluate at a point; non-finite intermediate results raise."""
    return _checked(_eval, expression, binding)


def _checked(fn, *args):
    """fn(*args), with arithmetic failures and non-finite results raised as EvaluationError."""
    try:
        value = fn(*args)
    except ZeroDivisionError:
        raise EvaluationError("division by zero") from None
    except (OverflowError, ValueError) as exc:
        raise EvaluationError(str(exc)) from None
    if not math.isfinite(value):
        raise EvaluationError("non-finite result")
    return value


def _eval(node, binding):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        try:
            return binding[node.name]
        except KeyError:
            raise EvaluationError(f"missing binding for {node.name!r}") from None
    if isinstance(node, Unary):
        v = _eval(node.arg, binding)
        if node.op == "neg":
            return -v
        if node.op == "sin":
            return math.sin(v)
        if node.op == "cos":
            return math.cos(v)
        if node.op == "exp":
            return math.exp(v)
        return math.sqrt(v)
    if isinstance(node, Power):
        return _eval(node.base, binding) ** node.exponent
    a = _eval(node.left, binding)
    b = _eval(node.right, binding)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    return a / b


# --------------------------------------------------------------------------- #
# differentiation and light constant folding
# --------------------------------------------------------------------------- #


def differentiate(expression: Expression, var: str) -> Expression:
    """Exact symbolic partial derivative with respect to ``var``."""
    return fold(_diff(expression, var))


def _diff(node, var):
    if isinstance(node, Const):
        return Const(0.0)
    if isinstance(node, Var):
        return Const(1.0) if node.name == var else Const(0.0)
    if isinstance(node, Unary):
        du = _diff(node.arg, var)
        if node.op == "neg":
            return Unary("neg", du)
        if node.op == "sin":
            return Binary("*", Unary("cos", node.arg), du)
        if node.op == "cos":
            return Unary("neg", Binary("*", Unary("sin", node.arg), du))
        if node.op == "exp":
            return Binary("*", node, du)
        # d sqrt(u) = du / (2 sqrt(u))
        return Binary("/", du, Binary("*", Const(2.0), node))
    if isinstance(node, Power):
        if node.exponent == 0:
            return Const(0.0)
        du = _diff(node.base, var)
        if node.exponent == 1:
            return du
        stump = Power(node.base, node.exponent - 1)
        return Binary("*", Binary("*", Const(float(node.exponent)), stump), du)
    da = _diff(node.left, var)
    db = _diff(node.right, var)
    if node.op == "+":
        return Binary("+", da, db)
    if node.op == "-":
        return Binary("-", da, db)
    if node.op == "*":
        return Binary("+", Binary("*", da, node.right), Binary("*", node.left, db))
    numerator = Binary("-", Binary("*", da, node.right), Binary("*", node.left, db))
    return Binary("/", numerator, Power(node.right, 2))


def fold(node: Expression) -> Expression:
    """Constant folding plus the obvious algebraic identities.

    Equality of expressions is structural after folding; fold is idempotent.
    """
    if isinstance(node, Unary):
        arg = fold(node.arg)
        if isinstance(arg, Const):
            return Const(evaluate(Unary(node.op, arg), {}))
        if node.op == "neg" and isinstance(arg, Unary) and arg.op == "neg":
            return arg.arg
        return Unary(node.op, arg)
    if isinstance(node, Power):
        base = fold(node.base)
        if node.exponent == 0:
            return Const(1.0)
        if node.exponent == 1:
            return base
        if isinstance(base, Const):
            return Const(base.value**node.exponent)
        return Power(base, node.exponent)
    if isinstance(node, Binary):
        a = fold(node.left)
        b = fold(node.right)
        if isinstance(a, Const) and isinstance(b, Const) and not (node.op == "/" and b.value == 0):
            return Const(evaluate(Binary(node.op, a, b), {}))
        if node.op == "+":
            if isinstance(a, Const) and a.value == 0:
                return b
            if isinstance(b, Const) and b.value == 0:
                return a
        elif node.op == "-":
            if isinstance(b, Const) and b.value == 0:
                return a
            if isinstance(a, Const) and a.value == 0:
                return fold(Unary("neg", b))
        elif node.op == "*":
            if (isinstance(a, Const) and a.value == 0) or (isinstance(b, Const) and b.value == 0):
                return Const(0.0)
            if isinstance(a, Const) and a.value == 1:
                return b
            if isinstance(b, Const) and b.value == 1:
                return a
        elif node.op == "/":
            if isinstance(a, Const) and a.value == 0 and not (isinstance(b, Const) and b.value == 0):
                return Const(0.0)
            if isinstance(b, Const) and b.value == 1:
                return a
        return Binary(node.op, a, b)
    return node


# --------------------------------------------------------------------------- #
# compiled scalar / planar fields
# --------------------------------------------------------------------------- #

_COMPILE_ENV = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "sqrt": math.sqrt,
    "__builtins__": {},
}


def _codegen(node, parameters):
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        if node.name in parameters:
            return repr(float(parameters[node.name]))
        return node.name
    if isinstance(node, Unary):
        inner = _codegen(node.arg, parameters)
        if node.op == "neg":
            return f"(-{inner})"
        return f"{node.op}({inner})"
    if isinstance(node, Power):
        return f"({_codegen(node.base, parameters)})**{node.exponent}"
    a = _codegen(node.left, parameters)
    b = _codegen(node.right, parameters)
    return f"({a} {node.op} {b})"


def compile_expression(expression: Expression, parameters: Mapping[str, float]) -> Callable[[float, float], float]:
    """Compile to a fast ``f(x, y) -> float`` with parameters inlined."""
    code = _codegen(expression, parameters)
    return eval(f"lambda x, y: {code}", dict(_COMPILE_ENV))  # noqa: S307 - closed grammar


class ScalarField:
    """An expression over (x, y) with bound parameter values.

    Immutable after construction; evaluation has no side effects, so
    instances are safe to share across concurrent evaluators.
    """

    def __init__(self, expression, symbols=("x", "y"), parameters=None):
        self.parameters = dict(parameters or {})
        names = set(symbols) | set(self.parameters)
        if isinstance(expression, str):
            expression = parse_expression(expression, names)
        unknown = variables(expression) - names
        if unknown:
            raise ExpressionError(f"unknown identifiers {sorted(unknown)}")
        self.expression = expression
        self._fn = compile_expression(expression, self.parameters)

    def __call__(self, x: float, y: float) -> float:
        return _checked(self._fn, x, y)

    def raw(self) -> Callable[[float, float], float]:
        """Unchecked compiled callable for hot loops."""
        return self._fn

    def derivative(self, var: str) -> "ScalarField":
        return ScalarField(differentiate(self.expression, var), parameters=self.parameters)

    def negated(self) -> "ScalarField":
        return ScalarField(fold(Unary("neg", self.expression)), parameters=self.parameters)

    def source(self) -> str:
        return serialize(self.expression)

    def __repr__(self):
        return f"ScalarField({self.source()!r})"


class PlanarField:
    """A pair of scalar fields sharing one parameter table."""

    def __init__(self, component_x, component_y, parameters=None):
        if not isinstance(component_x, ScalarField):
            component_x = ScalarField(component_x, parameters=parameters)
        if not isinstance(component_y, ScalarField):
            component_y = ScalarField(component_y, parameters=parameters)
        if component_x.parameters != component_y.parameters:
            raise ExpressionError("planar field components must share one symbol table")
        self.component_x = component_x
        self.component_y = component_y

    def __call__(self, x: float, y: float) -> tuple[float, float]:
        return (self.component_x(x, y), self.component_y(x, y))

    def raw_pair(self):
        return self.component_x.raw(), self.component_y.raw()

    def negated(self) -> "PlanarField":
        return PlanarField(self.component_x.negated(), self.component_y.negated())

    def __repr__(self):
        return f"PlanarField({self.component_x.source()!r}, {self.component_y.source()!r})"
