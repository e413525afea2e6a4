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
RESERVED_NAMES = ("x", "y", *BUILTIN_CONSTANTS, *UNARY_FUNCTIONS)  # no parameter takes these


def is_name(text):
    """Does ``text`` read as one NAME token: a letter or '_', then letters, digits or '_'?"""
    return (text[:1].isalpha() or text[:1] == "_") and all(c.isalnum() or c == "_" for c in text)


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
            if not math.isfinite(value):
                raise ExpressionError(f"number {text!r} is not finite", position=i)
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
    """Parse ``source`` into an AST over a symbol set with no builtin's name in it."""
    symbols = set(symbols)
    if not symbols:
        raise ExpressionError("symbol set must be nonempty")
    clash = sorted(symbols & {*BUILTIN_CONSTANTS, *UNARY_FUNCTIONS})
    if clash:
        raise ExpressionError(f"symbol {clash[0]!r} is the name of a builtin constant or function")
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
    """Evaluate at a point through the compiled form fields run, ``binding`` inlined.

    Arithmetic failures and non-finite results raise EvaluationError, and so
    does the first variable, left to right, that ``binding`` lacks.
    """
    code = _codegen(expression, binding)
    try:
        return _checked(eval, code, dict(_COMPILE_ENV))  # noqa: S307 - closed grammar
    except NameError as exc:
        raise EvaluationError(f"missing binding for {exc.name!r}") from None


def _computed(fn, *args):
    """fn(*args), with arithmetic failures raised as EvaluationError."""
    try:
        return fn(*args)
    except ZeroDivisionError:
        raise EvaluationError("division by zero") from None
    except (OverflowError, ValueError) as exc:
        raise EvaluationError(str(exc)) from None


def _checked(fn, *args):
    """fn(*args), with arithmetic failures and non-finite results raised as EvaluationError."""
    value = _computed(fn, *args)
    if not math.isfinite(value):
        raise EvaluationError("non-finite result")
    return value


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


def fold(node: Expression, parameters: Mapping[str, float] | None = None) -> Expression:
    """Constant folding plus the obvious algebraic identities.

    Each variable that ``parameters`` names is read as a constant of its value.
    Equality of expressions is structural after folding; fold is idempotent.

    fold raises EvaluationError only where every evaluation of ``node`` fails:
    an operation on constants that fails in Python arithmetic raises, one
    whose value is inf or nan stays unfolded (Python carries it on: 1 / (a * a)
    is 0.0 at a = 1e200), and u^0 is 1 without folding u (Python's nan**0 is
    1.0, and u may hold an x * 0 that fold reads as 0 where Python has nan).
    """
    if isinstance(node, Var):
        return Const(parameters[node.name]) if parameters and node.name in parameters else node
    if isinstance(node, Unary):
        arg = fold(node.arg, parameters)
        if isinstance(arg, Const):
            return _constant(Unary(node.op, arg))
        if node.op == "neg" and isinstance(arg, Unary) and arg.op == "neg":
            return arg.arg
        return Unary(node.op, arg)
    if isinstance(node, Power):
        if node.exponent == 0:
            return Const(1.0)
        base = fold(node.base, parameters)
        if node.exponent == 1:
            return base
        if isinstance(base, Const):
            return _constant(Power(base, node.exponent))
        return Power(base, node.exponent)
    if isinstance(node, Binary):
        a = fold(node.left, parameters)
        b = fold(node.right, parameters)
        if isinstance(a, Const) and isinstance(b, Const) and not (node.op == "/" and b.value == 0):
            return _constant(Binary(node.op, a, b))
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


def _constant(node):
    """``node``, an operation on constants, as the Const of the value the compiled code computes.

    An inf or nan value leaves ``node`` as it is.
    """
    value = _computed(eval, _codegen(node, {}), dict(_COMPILE_ENV))  # noqa: S307 - closed grammar
    return Const(value) if math.isfinite(value) else node


# --------------------------------------------------------------------------- #
# compiled scalar / planar fields
# --------------------------------------------------------------------------- #

FUNCTIONS = {name: getattr(math, name) for name in UNARY_FUNCTIONS}  # what compiled text calls each name
_COMPILE_ENV = {**FUNCTIONS, "__builtins__": {}}


def _literal(value):
    """Source text of a float; inf and nan, which have no literal, overflow from 1e999."""
    return repr(float(value)).replace("inf", "1e999").replace("nan", "(1e999 - 1e999)")


def _operands(node):
    if isinstance(node, Binary):
        return (node.left, node.right)
    if isinstance(node, Unary):
        return (node.arg,)
    return (node.base,) if isinstance(node, Power) else ()


def _form(node, inner):
    """The text of a unary node or a power over ``inner``, the text of its operand."""
    if isinstance(node, Power):
        return f"({inner})**{node.exponent}"
    return f"(-{inner})" if node.op == "neg" else f"{node.op}({inner})"


def _codegen(node, parameters, x="x", y="y"):
    """Python source of ``node`` with ``parameters`` inlined and the coordinates read as the names x and y.

    A call or power whose text the evaluation would compute more than once is
    computed at its first occurrence, bound there with ``:=`` to ``_0``,
    ``_1``, ..., and read by that name after.  Python evaluates the text left
    to right, as ``_walk`` in the tests does, so the first occurrence is the
    first computed: the value, and the first error raised, stay those of the
    text without names.  Repeats are keyed on their text, not on the tree:
    ``Const(0.0) == Const(-0.0)``, and their texts differ.
    """
    texts = {}  # id of a call or power node -> its text without names
    seen = {}  # such a text -> its occurrences in the tree

    def plain(n):
        if isinstance(n, Const):
            return _literal(n.value)
        if isinstance(n, Var):
            if n.name in parameters:
                return _literal(parameters[n.name])
            return x if n.name == "x" else y if n.name == "y" else n.name
        if isinstance(n, Binary):
            return f"({plain(n.left)} {n.op} {plain(n.right)})"
        text = _form(n, plain(*_operands(n)))
        if isinstance(n, Power) or n.op != "neg":
            texts[id(n)] = text
            seen[text] = seen.get(text, 0) + 1
        return text

    whole = plain(node)
    if all(count == 1 for count in seen.values()):
        return whole

    uses = {}  # a text -> its evaluations: a repeat inside one read by name is not evaluated

    def count(n):
        key = texts.get(id(n))
        if key is not None:
            uses[key] = uses.get(key, 0) + 1
            if uses[key] > 1:
                return
        for child in _operands(n):
            count(child)

    count(node)
    names = {}  # a text evaluated more than once -> its name

    def bound(n):
        if isinstance(n, Binary):
            return f"({bound(n.left)} {n.op} {bound(n.right)})"
        if not isinstance(n, (Unary, Power)):
            return plain(n)
        key = texts.get(id(n))
        if key is None or uses[key] == 1:
            return _form(n, bound(*_operands(n)))
        if key in names:
            return names[key]
        name = names[key] = f"_{len(names)}"
        return f"({name} := {_form(n, bound(*_operands(n)))})"

    return bound(node)


class LoopText:
    """What a generated loop reads its fields through.

    ``component(field, px, py)`` is the one hook through which the generated
    loops read a ``ScalarField``: the arc loops' stage pieces and the
    validation pass of ``FilippovSystem.validate``.  It gives the text of the
    field's compiled expression at (px, py), so the loop does the lambda's
    operations in place of a call.  ``bind(value)`` names a value that the
    text reads; the loop takes the values, in the order they were first
    named, as its argument ``bound``.
    """

    def __init__(self):
        self.bound = {}  # value -> its name in the loop

    def bind(self, value):
        return self.bound.setdefault(value, f"bound[{len(self.bound)}]")

    @staticmethod
    def component(field, px, py):
        return field.text(px, py)


def compile_expression(expression: Expression, parameters: Mapping[str, float]) -> Callable[[float, float], float]:
    """Compile to a fast ``f(x, y) -> float`` with parameters inlined."""
    code = _codegen(expression, parameters)
    return eval(f"lambda x, y: {code}", dict(_COMPILE_ENV))  # noqa: S307 - closed grammar


class ScalarField:
    """An expression over (x, y) with bound parameter values.

    Building one folds a copy of the expression with the parameter values as
    constants, so a constant part that fails, such as ``a^2`` at a = 1e200,
    raises EvaluationError here rather than at every evaluation (see fold for
    the parts that do not fail it).  The field
    compiles the expression as written (folding would turn ``x * 1 + 0 * y``
    into ``x``, which is -0.0 at x = -0.0).

    Immutable after construction; evaluation has no side effects, so
    instances are safe to share across concurrent evaluators.
    """

    def __init__(self, expression, parameters=None):
        self.parameters = dict(parameters or {})
        clash = sorted({"x", "y"} & set(self.parameters))
        if clash:
            raise ExpressionError(f"parameter {clash[0]!r} is the name of a coordinate")
        names = {"x", "y"} | set(self.parameters)
        if isinstance(expression, str):
            expression = parse_expression(expression, names)
        unknown = variables(expression) - names
        if unknown:
            raise ExpressionError(f"unknown identifiers {sorted(unknown)}")
        fold(expression, self.parameters)
        self.expression = expression
        self._fn = compile_expression(expression, self.parameters)

    def __call__(self, x: float, y: float) -> float:
        return _checked(self._fn, x, y)

    def raw(self) -> Callable[[float, float], float]:
        """Unchecked compiled callable for hot loops."""
        return self._fn

    def text(self, x="x", y="y") -> str:
        """The source text ``raw()`` computes, with the coordinates read from the names ``x`` and ``y``.

        ``text()`` is the body of the compiled lambda; generated code that
        writes it in place of a call does the lambda's operations, so it gets
        the same bits and raises the same errors.  Besides ``x`` and ``y`` it
        reads only the names of ``FUNCTIONS`` and the names ``_0``, ``_1``,
        ... that it binds itself (see ``_codegen``), which the code around it
        must leave alone.
        """
        return _codegen(self.expression, self.parameters, x, y)

    def derivative(self, var: str) -> "ScalarField":
        return ScalarField(differentiate(self.expression, var), parameters=self.parameters)

    def negated(self) -> "ScalarField":
        return ScalarField(fold(Unary("neg", self.expression)), parameters=self.parameters)

    def lie_derivative(self, planar: "PlanarField") -> "ScalarField":
        """Symbolic Lie derivative Yh = dh/dx * Yx + dh/dy * Yy of this field h along Y = ``planar``."""
        gx, gy = (differentiate(self.expression, var) for var in ("x", "y"))
        yx, yy = planar.component_x.expression, planar.component_y.expression
        return ScalarField(fold(Binary("+", Binary("*", gx, yx), Binary("*", gy, yy))),
                           parameters=self.parameters)

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
