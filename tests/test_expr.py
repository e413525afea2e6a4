import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from filippov import expr
from filippov.errors import EvaluationError, ExpressionError
from filippov.expr import (
    FUNCTIONS,
    Binary,
    Const,
    PlanarField,
    Power,
    ScalarField,
    Unary,
    Var,
    _checked,
    differentiate,
    evaluate,
    fold,
    parse_expression,
    serialize,
)

XY = {"x", "y"}


def test_parse_product_of_sine():
    e = parse_expression("sin(x)*y", XY)
    assert e == Binary("*", Unary("sin", Var("x")), Var("y"))


def test_parse_circle():
    e = parse_expression("x^2 + y^2 - 1", XY)
    expected = Binary(
        "-",
        Binary("+", Power(Var("x"), 2), Power(Var("y"), 2)),
        Const(1.0),
    )
    assert e == expected


def test_parse_unknown_identifier():
    with pytest.raises(ExpressionError, match="unknown identifier 'z'"):
        parse_expression("x + z", XY)


def test_parse_reports_position():
    with pytest.raises(ExpressionError, match="position 4"):
        parse_expression("x + z", XY)


@pytest.mark.parametrize("source", ["x ^ 0.5", "x ^ -2", "x ^ y"])
def test_power_exponent_must_be_nonnegative_integer(source):
    with pytest.raises(ExpressionError):
        parse_expression(source, XY)


def test_abs_is_rejected_as_non_smooth():
    with pytest.raises(ExpressionError, match="not a smooth primitive"):
        parse_expression("abs(x)", XY)


def test_precedence_and_associativity():
    # left associativity of same-precedence ops
    assert parse_expression("x - y - 1", XY) == Binary(
        "-", Binary("-", Var("x"), Var("y")), Const(1.0)
    )
    # pow binds tighter than unary minus
    assert parse_expression("-x^2", XY) == Unary("neg", Power(Var("x"), 2))
    # mul binds tighter than add
    assert parse_expression("1 + 2*x", XY) == Binary(
        "+", Const(1.0), Binary("*", Const(2.0), Var("x"))
    )


def test_evaluate_examples():
    assert evaluate(parse_expression("sin(x)*y", XY), {"x": 0.0, "y": 3.0}) == 0.0
    assert evaluate(parse_expression("x^2 + y^2 - 1", XY), {"x": 1.0, "y": 0.0}) == 0.0


def test_evaluate_pole_is_an_error():
    e = parse_expression("1/(x-1)", XY)
    with pytest.raises(EvaluationError):
        evaluate(e, {"x": 1.0, "y": 0.0})


def test_evaluate_missing_binding():
    with pytest.raises(EvaluationError, match="missing binding"):
        evaluate(parse_expression("x + y", XY), {"x": 1.0})


def test_non_finite_literal_is_rejected():
    with pytest.raises(ExpressionError, match=r"number '1e999' is not finite \(at position 4\)"):
        parse_expression("x + 1e999*0", XY)
    with pytest.raises(ExpressionError, match="not finite"):
        ScalarField("2.5E+400")
    assert parse_expression("1e308", XY) == Const(1e308)


def test_fold_failure_is_an_evaluation_error():
    # the field builds, and d/dx forms (1e200)^2 in the quotient rule, which overflows
    with pytest.raises(EvaluationError, match="Numerical result out of range"):
        ScalarField("x / 1e200").derivative("x")
    with pytest.raises(EvaluationError, match="math range error"):
        fold(parse_expression("exp(1000)", XY))


def test_evaluate_inlines_non_finite_bindings():
    # inf and nan have no literal, yet a binding may hold them
    e = parse_expression("exp(-x) + y^0", XY)
    assert evaluate(e, {"x": math.inf, "y": math.nan}) == 1.0
    with pytest.raises(EvaluationError, match="non-finite result"):
        evaluate(e, {"x": -math.inf, "y": 0.0})


def test_evaluate_is_pure():
    e = parse_expression("exp(x)*cos(y)", XY)
    first = evaluate(e, {"x": 0.3, "y": 0.7})
    assert all(evaluate(e, {"x": 0.3, "y": 0.7}) == first for _ in range(5))


def test_expressions_are_immutable():
    e = parse_expression("x + y", XY)
    with pytest.raises(AttributeError):
        e.op = "-"


def test_derivative_of_product():
    d = differentiate(parse_expression("sin(x)*y", XY), "x")
    assert d == parse_expression("cos(x)*y", XY)


def test_derivative_of_circle():
    d = differentiate(parse_expression("x^2 + y^2 - 1", XY), "y")
    assert d == parse_expression("2*y", XY)


def test_derivative_exp_square_matches_finite_difference():
    # oracle: central finite difference with step 1e-6, evaluated first
    e = parse_expression("exp(x^2)", XY)
    h = 1e-6
    fd = (
        evaluate(e, {"x": 1.0 + h, "y": 0.0}) - evaluate(e, {"x": 1.0 - h, "y": 0.0})
    ) / (2 * h)
    sym = evaluate(differentiate(e, "x"), {"x": 1.0, "y": 0.0})
    assert abs(sym - fd) <= 1e-6 * (1 + abs(sym))
    # frozen closed-form value 2e
    assert sym == pytest.approx(5.43656365691809, abs=1e-12)


# ---------------------------------------------------------------------------
# random-expression derivative property (the finite-difference oracle)
# ---------------------------------------------------------------------------


def _random_expression(rng, depth=0):
    """Small generator grammar restricted to numerically tame expressions."""
    import random

    assert isinstance(rng, random.Random)
    if depth >= 3 or rng.random() < 0.25:
        return rng.choice(["x", "y", f"{rng.uniform(0.5, 2.0):.3f}"])
    kind = rng.randrange(6)
    a = _random_expression(rng, depth + 1)
    b = _random_expression(rng, depth + 1)
    if kind == 0:
        return f"({a} + {b})"
    if kind == 1:
        return f"({a} - {b})"
    if kind == 2:
        return f"({a}) * ({b})"
    if kind == 3:
        return f"({a}) / (2 + ({b})^2)"
    if kind == 4:
        return f"sin({a})"
    return f"cos({a})"


def test_derivatives_match_finite_differences_on_random_expressions():
    import random

    rng = random.Random(20240817)
    h = 1e-6
    checked = 0
    for _ in range(100):
        source = _random_expression(rng)
        e = parse_expression(source, XY)
        dx = differentiate(e, "x")
        for _ in range(10):
            x = rng.uniform(-1.5, 1.5)
            y = rng.uniform(-1.5, 1.5)
            sym = evaluate(dx, {"x": x, "y": y})
            fd = (
                evaluate(e, {"x": x + h, "y": y}) - evaluate(e, {"x": x - h, "y": y})
            ) / (2 * h)
            assert abs(sym - fd) <= 1e-6 * (1 + abs(sym)), (source, x, y)
            checked += 1
    assert checked == 1000


# ---------------------------------------------------------------------------
# round-trip property
# ---------------------------------------------------------------------------

_leaf = st.one_of(
    st.builds(Var, st.sampled_from(["x", "y", "a"])),
    st.builds(Const, st.floats(min_value=0.0, max_value=9.0, allow_nan=False).map(
        lambda v: round(v, 3)
    )),
)


def _tree(children):
    return st.one_of(
        st.builds(Unary, st.sampled_from(["neg", "sin", "cos"]), children),
        st.builds(Binary, st.sampled_from(["+", "-", "*", "/"]), children, children),
        st.builds(Power, children, st.integers(min_value=0, max_value=4)),
    )


expression_trees = st.recursive(_leaf, _tree, max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(expression_trees)
def test_serialize_parse_round_trip(tree):
    symbols = {"x", "y", "a"}
    assert parse_expression(serialize(tree), symbols) == tree


@settings(max_examples=150, deadline=None)
@given(expression_trees)
def test_parse_serialize_parse_is_stable(tree):
    # spec form of the property: parse(serialize(parse(s))) == parse(s)
    symbols = {"x", "y", "a"}
    s = serialize(tree)
    first = parse_expression(s, symbols)
    again = parse_expression(serialize(first), symbols)
    assert again == first


def test_fold_is_idempotent_and_structural():
    e = parse_expression("0 + x*1 + 0*y + x^1", XY)
    folded = fold(e)
    assert folded == fold(folded)
    assert folded == parse_expression("x + x", XY)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


def test_scalar_field_binds_parameters():
    f = ScalarField("a*x + y", parameters={"a": 2.0})
    assert f(3.0, 1.0) == 7.0


def test_scalar_field_rejects_unknown_symbols():
    with pytest.raises(ExpressionError):
        ScalarField("q + x")


@pytest.mark.parametrize("name", ["pi", "e", "sin", "cos", "exp", "sqrt"])
def test_a_symbol_may_not_take_a_builtin_name(name):
    # the constant would win over the symbol, and a function name would find the function
    message = f"symbol '{name}' is the name of a builtin constant or function"
    with pytest.raises(ExpressionError, match=message):
        parse_expression(f"{name} + x", {name, "x"})
    with pytest.raises(ExpressionError, match=message):
        ScalarField("x", parameters={name: 0.5})


@pytest.mark.parametrize("name", ["x", "y"])
def test_a_parameter_may_not_take_a_coordinate_name(name):
    # the parameter's value would replace the coordinate
    for expression in ("x + y", Binary("+", Var("x"), Var("y"))):
        with pytest.raises(ExpressionError, match=f"parameter '{name}' is the name of a coordinate"):
            ScalarField(expression, parameters={name: 0.5})


def test_planar_field_requires_shared_parameters():
    fx = ScalarField("a*x", parameters={"a": 1.0})
    fy = ScalarField("x", parameters={"b": 2.0})
    with pytest.raises(ExpressionError):
        PlanarField(fx, fy)


OUT_OF_RANGE = re.escape("(34, 'Numerical result out of range')")


@pytest.mark.parametrize("build", [
    lambda: ScalarField("x * a^2", {"a": 1e200}),
    lambda: PlanarField("x * a^2", "y", {"a": 1e200}),
], ids=["scalar", "planar"])
def test_a_failing_constant_fails_when_the_field_is_built(build):
    # the compiled field inlines a = 1e200, so a^2 would overflow at every evaluation
    with pytest.raises(EvaluationError, match=OUT_OF_RANGE):
        build()


def test_a_field_builds_unless_a_constant_part_fails_at_every_evaluation():
    # a * a is inf at a = 1e200 without an error, and 1 / inf is 0.0
    assert ScalarField("x + 1/(a*a)", {"a": 1e200})(2.0, 0.0) == 2.0
    # sin(inf) raises, but only as the field is evaluated: the check leaves a * a unfolded
    with pytest.raises(EvaluationError, match="math domain error"):
        ScalarField("x + sin(a*a)", {"a": 1e200})(2.0, 0.0)
    # x * 0 is nan at x = inf, and nan^0 is 1.0, so the zeroth power is not checked
    assert ScalarField("y + sqrt(x*0 - 1)^0")(math.inf, 2.0) == 3.0


def test_a_field_compiles_as_written_after_its_constant_check():
    # folding would turn x * 1 + 0 * y into x, which is -0.0 at x = -0.0
    field = ScalarField("x * 1 + 0 * y")
    assert field.source() == "x * 1 + 0 * y"
    assert math.copysign(1.0, field(-0.0, 1.0)) == 1.0


def test_lie_derivative_is_the_directional_derivative_along_the_field():
    h = ScalarField("y - a*x^2", {"a": 2.0})
    yh = h.lie_derivative(PlanarField("1", "x", {"a": 2.0}))  # -2 a x + x
    assert yh.parameters == {"a": 2.0}
    assert yh(1.5, 7.0) == -4.5
    assert h.lie_derivative(PlanarField("0", "0", {"a": 2.0}))(1.5, 7.0) == 0.0


def test_scalar_field_gradient_matches_symbolic():
    f = ScalarField("sin(2*x)*y", parameters={})
    dfx = f.derivative("x")
    assert dfx(0.25, 3.0) == pytest.approx(2 * math.cos(0.5) * 3.0, rel=1e-14)


# ---------------------------------------------------------------------------
# the compiled form against a tree-walking reference
# ---------------------------------------------------------------------------


def _walk(node, binding):
    """Reference semantics of an AST: evaluate each node in turn, left before right."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        try:
            return binding[node.name]
        except KeyError:
            raise EvaluationError(f"missing binding for {node.name!r}") from None
    if isinstance(node, Unary):
        v = _walk(node.arg, binding)
        if node.op == "neg":
            return -v
        return {"sin": math.sin, "cos": math.cos, "exp": math.exp, "sqrt": math.sqrt}[node.op](v)
    if isinstance(node, Power):
        return _walk(node.base, binding) ** node.exponent
    a = _walk(node.left, binding)
    b = _walk(node.right, binding)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    return a / b


def _outcome(fn, *args):
    """float.hex of fn's value, or the class and message of what it raised."""
    try:
        return fn(*args).hex()
    except Exception as exc:  # noqa: BLE001 - the failure is the outcome compared
        return type(exc).__name__, str(exc)


_wider_trees = st.recursive(
    _leaf,
    lambda children: st.one_of(
        _tree(children), st.builds(Unary, st.sampled_from(["exp", "sqrt"]), children)
    ),
    max_leaves=20,
)
_small_trees = st.recursive(_leaf, _tree, max_leaves=6)


@st.composite
def _repeated_trees(draw):
    """A tree that holds one call or power two or three times, some of them inside another call."""
    shared = draw(st.one_of(
        st.builds(Unary, st.sampled_from(["sin", "cos", "exp", "sqrt"]), _small_trees),
        st.builds(Power, _small_trees, st.integers(min_value=0, max_value=4)),
    ))
    wrap = st.sampled_from([lambda t: t, lambda t: Unary("sin", t), lambda t: Power(t, 2)])
    parts = [draw(wrap)(shared) for _ in range(draw(st.integers(min_value=2, max_value=3)))]
    parts = draw(st.permutations(parts + draw(st.lists(_small_trees, max_size=2))))
    tree = parts[0]
    for part in parts[1:]:
        op = draw(st.sampled_from(["+", "-", "*", "/"]))
        tree = Binary(op, tree, part) if draw(st.booleans()) else Binary(op, part, tree)
    return tree


_values = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0),
    st.sampled_from([0.0, -0.0, 1e200, -1e-300, math.inf, -math.inf, math.nan]),
    st.floats(),
)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(expression_trees, _wider_trees, _repeated_trees()),
    st.fixed_dictionaries({}, optional={"x": _values, "y": _values, "a": _values}),
)
def test_compiled_evaluation_matches_the_tree_walk(tree, binding):
    want = _outcome(_checked, _walk, tree, binding)  # the checks evaluate and fields apply
    assert _outcome(evaluate, tree, binding) == want
    if {"x", "y", "a"} <= binding.keys():
        try:
            field = ScalarField(tree, parameters={"a": binding["a"]})
        except EvaluationError:
            # building the field raises only on a constant part that fails at every binding
            assert isinstance(want, tuple)
            return
        assert _outcome(field, binding["x"], binding["y"]) == want
        if isinstance(want, str):
            assert field.raw()(binding["x"], binding["y"]).hex() == want


@settings(max_examples=200, deadline=None)
@given(st.one_of(expression_trees, _wider_trees, _repeated_trees()), st.floats(min_value=-4.0, max_value=4.0))
def test_inlined_text_is_the_compiled_body(tree, a):
    # the arc loops write a field's ``text`` at a stage's point where they used to call ``raw()``;
    # both come from one codegen, so the text at any coordinate names compiles to the lambda's code
    try:
        field = ScalarField(tree, parameters={"a": a})
    except EvaluationError:
        return
    want = field.raw().__code__
    for x, y in (("x", "y"), ("ax", "ay"), ("g1x", "g1y")):
        got = eval(f"lambda {x}, {y}: {field.text(x, y)}", dict(FUNCTIONS)).__code__  # noqa: S307
        assert got.co_code == want.co_code
        assert (repr(got.co_consts), got.co_names) == (repr(want.co_consts), want.co_names)


def test_expression_compiles_leave_the_loop_cache_alone():
    # fields, evaluate and fold's constants compile outside ``compiled``'s cache, so however many
    # there are, none can evict a generated loop from it
    before = expr._cached.cache_info()
    field = ScalarField("sin(x) * a^2 + y", parameters={"a": 3.0})
    assert evaluate(field.expression, {"x": 0.5, "y": 2.0, "a": 3.0}) == field(0.5, 2.0)
    assert fold(parse_expression("cos(1) * x", XY)) == Binary("*", Const(math.cos(1.0)), Var("x"))
    assert expr._cached.cache_info() == before


def test_a_repeated_call_is_computed_once_and_fails_as_the_tree_walk():
    # sqrt(y) is bound at its first occurrence; exp(x) comes first, so its overflow is the error
    tree = parse_expression("exp(x) + sqrt(y) + sqrt(y)", XY)
    field = ScalarField(tree)
    assert field.text() == "((exp(x) + (_0 := sqrt(y))) + _0)"
    want = _outcome(_checked, _walk, tree, {"x": 1000.0, "y": -1.0})
    assert want == ("EvaluationError", "math range error")
    assert _outcome(field, 1000.0, -1.0) == want
    assert _outcome(evaluate, tree, {"x": 1000.0, "y": -1.0}) == want


def test_signed_zero_repeats_are_not_merged():
    # Const(0.0) == Const(-0.0), so a tree-keyed merge would read cos(-0.0*y) as cos(0.0*y);
    # repeats are keyed on their text.  Merged, (-0.0*y)^3 + (0.0*y)^3 would be -0.0 at y = 1.
    for zeros in ((0.0, -0.0), (-0.0, 0.0)):
        calls = [Unary("cos", Binary("*", Const(z), Var("y"))) for z in zeros]
        assert calls[0] == calls[1]
        assert ":=" not in ScalarField(Binary("+", *calls)).text()
    cubes = Binary("+", *(Power(Binary("*", Const(z), Var("y")), 3) for z in (-0.0, 0.0)))
    field = ScalarField(cubes)
    assert ":=" not in field.text()
    assert field(2.0, 1.0).hex() == _walk(cubes, {"y": 1.0}).hex() == "0x0.0p+0"
