import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from domcert.expr import (
    Binary,
    Const,
    EvalError,
    Expr,
    ParseError,
    Unary,
    Var,
    _compile,
    _guarded,
    _nonfinite,
    combine,
    constant,
    copies,
    parse,
    to_source,
)


class TestParsing:
    def test_number(self):
        assert parse("2.5").evaluate(0.0) == 2.5

    def test_scientific_notation(self):
        assert parse("1e-3").evaluate(0.0) == 1e-3
        assert parse("2.5E+2").evaluate(0.0) == 250.0

    def test_variable_x(self):
        e = parse("x")
        assert e.var_name == "x"
        assert e.evaluate(3.25) == 3.25

    def test_variable_t_is_identity_to_the_bit(self):
        e = parse("t")
        for v in (0.1, 1e-6, 0.9999999, 2.0 / 3.0):
            assert e.evaluate(v) == v

    def test_constants(self):
        assert parse("pi").evaluate(0.0) == math.pi
        assert parse("e").evaluate(0.0) == math.e

    def test_precedence_mul_over_add(self):
        assert parse("2+3*4").evaluate(0.0) == 14.0

    def test_precedence_pow_over_mul(self):
        assert parse("2*3^2").evaluate(0.0) == 18.0

    def test_pow_right_associative(self):
        assert parse("2^3^2").evaluate(0.0) == 512.0

    def test_unary_minus_binds_looser_than_pow(self):
        assert parse("-2^2").evaluate(0.0) == -4.0
        assert parse("(-2)^2").evaluate(0.0) == 4.0

    def test_unary_minus_on_variable(self):
        assert parse("-x^2").evaluate(3.0) == -9.0

    def test_functions(self):
        assert parse("exp(1)").evaluate(0.0) == math.e
        assert parse("ln(e)").evaluate(0.0) == pytest.approx(1.0, abs=0)
        assert parse("sqrt(4)").evaluate(0.0) == 2.0
        assert parse("sin(0)").evaluate(0.0) == 0.0
        assert parse("cos(0)").evaluate(0.0) == 1.0
        assert parse("abs(-3)").evaluate(0.0) == 3.0

    def test_negative_constant_folds(self):
        assert parse("-3").root == Const(-3.0)

    def test_whitespace_insensitive(self):
        assert parse(" 1 +  2*x ").evaluate(2.0) == 5.0

    def test_single_variable_only(self):
        with pytest.raises(ParseError):
            parse("x + t")

    def test_same_variable_twice_is_fine(self):
        assert parse("t*(1-t)").evaluate(0.25) == 0.25 * 0.75

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse("y + 1")

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse("tan(x)")


class TestParseErrors:
    def test_unclosed_paren_offset(self):
        with pytest.raises(ParseError) as info:
            parse("t^(0.5")
        assert info.value.offset == 6
        assert "')'" in info.value.expected

    def test_dangling_operator(self):
        with pytest.raises(ParseError) as info:
            parse("x + ")
        assert info.value.offset == 4

    def test_trailing_junk(self):
        with pytest.raises(ParseError) as info:
            parse("1 2")
        assert info.value.offset == 2

    def test_bad_character(self):
        with pytest.raises(ParseError) as info:
            parse("x $ 2")
        assert info.value.offset == 2

    def test_empty_source(self):
        with pytest.raises(ParseError):
            parse("")

    def test_message_carries_excerpt(self):
        with pytest.raises(ParseError) as info:
            parse("x^(1+")
        assert "x^(1+" in str(info.value)


class TestEvaluation:
    def test_division_by_zero_is_domain_error(self):
        e = parse("1/x")
        with pytest.raises(EvalError) as info:
            e.evaluate(0.0)
        assert info.value.kind == "domain"

    def test_log_of_nonpositive(self):
        e = parse("ln(x)")
        for v in (0.0, -1.0):
            with pytest.raises(EvalError) as info:
                e.evaluate(v)
            assert info.value.kind == "domain"

    def test_sqrt_of_negative(self):
        with pytest.raises(EvalError) as info:
            parse("sqrt(x)").evaluate(-1.0)
        assert info.value.kind == "domain"

    def test_zero_to_zero_is_one(self):
        assert parse("x^x").evaluate(0.0) == 1.0

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalError) as info:
            parse("x^(-1)").evaluate(0.0)
        assert info.value.kind == "domain"

    def test_negative_base_integer_power(self):
        assert parse("x^3").evaluate(-2.0) == -8.0

    def test_negative_base_fractional_power(self):
        with pytest.raises(EvalError) as info:
            parse("x^0.5").evaluate(-2.0)
        assert info.value.kind == "domain"

    def test_exp_overflow(self):
        with pytest.raises(EvalError) as info:
            parse("exp(x)").evaluate(1000.0)
        assert info.value.kind == "overflow"

    def test_pow_overflow(self):
        with pytest.raises(EvalError) as info:
            parse("x^10").evaluate(1e100)
        assert info.value.kind == "overflow"

    def test_plain_arithmetic_matches_python(self):
        e = parse("3*x^2 - 2*x + 0.5")
        for v in (-2.0, 0.0, 0.3, 7.5):
            assert e.evaluate(v) == 3 * v**2 - 2 * v + 0.5


class TestExprObject:
    def test_immutable(self):
        e = parse("x")
        with pytest.raises(AttributeError):
            e.var_name = "t"

    def test_equality_ignores_source_formatting(self):
        assert parse("x + 1") == parse("x+1")
        assert hash(parse("x + 1")) == hash(parse("x+1"))

    def test_inequality(self):
        assert parse("x + 1") != parse("1 + x")

    def test_signed_zero_constants_differ(self):
        # they evaluate to 0.0 and -0.0, so they are not the same expression
        pos, neg = parse("x*0.0"), parse("x*(-0.0)")
        assert repr(pos(1.0)) == "0.0" and repr(neg(1.0)) == "-0.0"
        assert pos != neg and hash(pos) != hash(neg)
        assert pos == parse("x * 0") and hash(pos) == hash(parse("x * 0"))
        assert Const(-0.0) == Const(-0.0) and Const(0.0) != Const(-0.0)

    def test_callable(self):
        assert parse("x^2")(4.0) == 16.0

    def test_repr_shows_source(self):
        assert "x^2" in repr(parse("x^2"))


class TestCombine:
    def test_difference(self):
        f, g = parse("x^2"), parse("2*x^2")
        d = combine("-", g, f)
        assert d.var_name == "x"
        assert d.evaluate(3.0) == 9.0

    def test_constant_merges_with_either_variable(self):
        half = constant(0.5)
        e = combine("*", parse("t"), half)
        assert e.var_name == "t"
        assert e.evaluate(0.5) == 0.25

    def test_mixed_variables_rejected(self):
        with pytest.raises(ValueError):
            combine("+", parse("x"), parse("t"))

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            combine("%", parse("x"), parse("x"))

    def test_constant_requires_finite(self):
        with pytest.raises(ValueError):
            constant(math.inf)


# random AST generation for the round-trip property; restricted to canonical
# trees (the parser folds neg-of-constant, so those never come out of parse)
_leaf = st.one_of(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False).map(
        lambda v: Const(float(v))
    ),
    st.just(Var("x")),
)


def _neg(a):
    return Const(-a.value) if isinstance(a, Const) else Unary("neg", a)


def _tree(children):
    unary = st.one_of(
        children.map(_neg),
        children.map(lambda a: Unary("abs", a)),
        children.map(lambda a: Unary("exp", a)),
    )
    binary = st.tuples(st.sampled_from("+-*/^"), children, children).map(
        lambda ops: Binary(ops[0], ops[1], ops[2])
    )
    return st.one_of(unary, binary)


_ast = st.recursive(_leaf, _tree, max_leaves=12)


@given(_ast)
def test_to_source_round_trips(root):
    source = to_source(root)
    again = parse(source)
    assert again.root == root, source


def _rebuilt(node, flip=False):
    """An equal tree of new node and float objects; flip negates the zero
    constants."""
    if isinstance(node, Const):
        v = float(repr(node.value))
        return Const(-v if flip and v == 0.0 else v)
    if isinstance(node, Var):
        return Var(node.name)
    if isinstance(node, Unary):
        return Unary(node.op, _rebuilt(node.arg, flip))
    return Binary(node.op, _rebuilt(node.left, flip), _rebuilt(node.right, flip))


@given(_ast)
def test_equal_trees_hash_alike(root):
    e = parse(to_source(root))
    again = parse(to_source(e.root))
    assert again == e and not again != e and hash(again) == hash(e)
    copy = _rebuilt(root)
    assert copy == root and not copy != root and hash(copy) == hash(root)
    flipped = _rebuilt(root, flip=True)
    if to_source(flipped) == to_source(root):  # no zero constant to flip
        assert flipped == root and hash(flipped) == hash(root)
    else:
        assert flipped != root and not flipped == root


@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_round_trip_preserves_value(v):
    e = parse("(x - 1)*(x + 1) + x^3/4")
    again = parse(to_source(e.root))
    assert again.evaluate(v) == e.evaluate(v)


# The specialized bodies every path runs against the guarded reference:
# faulting trees, zero and -0.0 bases, odd, negative, fractional and large
# constant exponents, constant divisors, and subtrees repeated in a tree.
_SPECIAL_CONSTS = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-200, 1e200, 710.0, -1e308]
_EXPONENTS = [1.0, 2.0, 3.0, 4.0, 5.0, 1001.0, 1e20, -1.0, -2.0, -3.0, 0.5, -0.5, 1.5, 0.0]
_FUNCS = ["neg", "abs", "exp", "ln", "sqrt", "sin", "cos"]


def _special_tree(children):
    return st.one_of(
        st.tuples(st.sampled_from(_FUNCS), children).map(lambda a: Unary(*a)),
        st.tuples(st.sampled_from("+-*/^"), children, children).map(lambda a: Binary(*a)),
        st.tuples(children, st.sampled_from(_EXPONENTS)).map(
            lambda a: Binary("^", a[0], Const(a[1]))
        ),
        st.tuples(children, st.sampled_from([2.0, -0.5, 3.0, 0.0, -0.0])).map(
            lambda a: Binary("/", a[0], Const(a[1]))
        ),
        st.tuples(st.sampled_from("+-*/^"), children).map(lambda a: Binary(a[0], a[1], a[1])),
        st.tuples(children, children).map(
            lambda a: Binary("+", Binary("*", a[0], a[1]), Unary("exp", a[0]))
        ),
    )


_SPECIAL_TREES = st.recursive(
    st.one_of(st.sampled_from(_SPECIAL_CONSTS).map(Const), st.just(Var("x"))),
    _special_tree,
    max_leaves=8,
)
_SPECIAL_VALUES = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1.0, -1.0, 0.5, -3.0, 1e-300, 1e300, -1e300, 710.0, math.inf, -math.inf,
         math.nan]
    ),
    st.floats(),
)


def _outcome(fn, v):
    try:
        return repr(fn(v))
    except EvalError as exc:
        return exc.kind, str(exc)


def _guarded_evaluate(root):
    fn = _compile(_guarded(root))

    def evaluate(v):
        result = fn(v)
        if not math.isfinite(result):
            raise _nonfinite(v)
        return result

    return fn, evaluate


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_SPECIAL_TREES, st.lists(_SPECIAL_VALUES, min_size=1, max_size=4))
def test_specialized_bodies_match_the_guarded_form(root, values):
    special = Expr(root)
    raw, evaluate = _guarded_evaluate(root)
    for v in values:
        assert _outcome(special.evaluate, v) == _outcome(evaluate, v)
        try:  # the value before the finiteness check, inf and nan included
            value = special._fn(v)
        except (EvalError, OverflowError, ValueError):
            continue
        assert repr(value) == _outcome(raw, v)


@pytest.mark.parametrize("source, v, message", [
    ("x^3", 1e200, "overflow in '^'"),
    ("exp(x)", 710.0, "overflow in exp"),
    ("sin(x)", math.inf, "sin of an infinite value"),
    ("cos(x)", -math.inf, "cos of an infinite value"),
    # both raise OverflowError inline: the guarded form names the op
    ("x^3 + exp(x)", 1e200, "overflow in '^'"),
    ("x^3 + exp(x)", 710.0, "overflow in exp"),
    ("exp(x) + x^3", 1e200, "overflow in exp"),
    ("cos(x) + sin(x)", math.inf, "cos of an infinite value"),
])
def test_inline_faults_name_the_op(source, v, message):
    with pytest.raises(EvalError) as info:
        parse(source).evaluate(v)
    assert (info.value.kind, str(info.value)) == ("overflow", message)


def test_zero_base_keeps_positive_zero():
    for source in ("x^3", "x^1001", "x^0.5"):
        assert repr(parse(source).evaluate(-0.0)) == "0.0"


def test_copies_finds_the_same_ops_on_the_same_constants():
    f = parse("exp(x)*0.5").root
    g = parse("2*(exp(x)*0.5) - ln(exp(x)*0.5 + 1)").root
    assert len(copies(g, f)) == 2
    assert copies(parse("exp(x)*(-0.5)").root, f) == set()
    assert copies(parse("x*(-0.0)").root, parse("x*0.0").root) == set()
    assert copies(g, parse("x").root) == set()  # a leaf is read, not shared
