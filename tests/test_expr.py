import contextlib
import math
import struct

import pytest
from conftest import respelled
from hypothesis import HealthCheck, event, given, settings, strategies as st

import domcert.expr as expr_module
from domcert.expr import (
    Binary,
    Const,
    EvalError,
    Expr,
    ParseError,
    Unary,
    Var,
    _EVAL_ENV,
    _TEMPLATE_BOUND,
    _TEMPLATES,
    _emit,
    _nonfinite,
    _parse_cold,
    _shape_code,
    _template,
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

    def test_a_long_source_is_excerpted_around_the_offset(self):
        source = "x + " * 30 + "$" + " + x" * 30
        with pytest.raises(ParseError) as info:
            parse(source)
        assert info.value.offset == 120
        assert info.value.excerpt == source[80:160]
        assert str(info.value).endswith(f"at offset 120 in {source[80:160]!r}")

    def test_a_literal_beyond_the_float_range_is_refused(self):
        with pytest.raises(ParseError) as info:
            parse("2*1e999")
        assert (info.value.offset, info.value.expected) == (2, "a finite constant")


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


def _fresh(body):
    """body, with literal constants, compiled anew: no shape is shared."""
    return eval(compile(f"lambda v: {body}", "<test>", "eval"), _EVAL_ENV)


def _guarded_evaluate(root):
    fn = _fresh(_emit(root, guarded=True))

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


# abs and positive even powers are inline in the specialized form: every
# value, signed zeros and the sign of a nan included, keeps the guarded bits
_BITS = struct.Struct("<d").pack
_NEG_NAN = math.copysign(math.nan, -1.0)


@pytest.mark.parametrize("source", ["abs(x)", "abs(x*1)", "abs(-x)", "-abs(x)", "abs(x)^3",
                                    "x^2", "(x*1)^2", "x^4", "-x^2", "(-x)^1e20", "x^2*x^2"])
@pytest.mark.parametrize("v", [0.0, -0.0, 2.5, -2.5, 5e-324, -5e-324, -1e-200, 1e200, -1e200,
                               math.inf, -math.inf, math.nan, _NEG_NAN])
def test_inline_abs_and_even_powers_keep_the_guarded_bits(source, v):
    e = parse(source)
    try:
        want = _BITS(_fresh(_emit(e.root, guarded=True))(v))
    except EvalError as exc:  # an even power past the largest float
        assert str(exc) == "overflow in '^'"
        with pytest.raises(OverflowError):
            e.raw(v)
        with pytest.raises(EvalError, match=r"^overflow in '\^'$"):
            e.evaluate(v)
        return
    assert _BITS(e.raw(v)) == want


def test_abs_and_even_powers_are_written_inline():
    assert _emit(parse("abs(x)").root) == "(v if v > 0.0 else -v if v < 0.0 else _abs(v))"
    assert _emit(parse("x^2").root) == "(v**2.0)"
    assert _emit(parse("(x-1)^4").root) == "((v-1.0)**4.0)"
    assert _emit(parse("x^3").root) == "(v**3.0 if v else 0.0)"  # -0.0^3 is -0.0
    assert _BITS(_NEG_NAN) != _BITS(abs(_NEG_NAN))  # the case abs itself decides


def test_zero_base_keeps_positive_zero():
    for source in ("x^3", "x^1001", "x^0.5"):
        assert repr(parse(source).evaluate(-0.0)) == "0.0"


# The shape cache: a body's text spells each constant as a slot, so trees
# that differ only in constants (on the same side of each branch the body
# takes on a constant) run one compiled code object with their own values.


def _literal_outcomes(root, v):
    """(raw, evaluate) outcomes at v of root's bodies compiled anew from
    their text with literal constants."""
    raw = _fresh(_emit(root))
    try:
        value = raw(v)
    except (EvalError, OverflowError, ValueError) as exc:
        raw_outcome = (type(exc).__name__, str(exc))
        if isinstance(exc, EvalError):
            return raw_outcome, (exc.kind, str(exc))
        try:  # evaluate names an inline fault through the guarded form
            _fresh(_emit(root, guarded=True))(v)
        except EvalError as fault:
            return raw_outcome, (fault.kind, str(fault))
        return raw_outcome, (type(exc).__name__, str(exc))
    evaluated = repr(value) if math.isfinite(value) else ("overflow", str(_nonfinite(v)))
    return repr(value), evaluated


def _cached_outcomes(e, v):
    try:
        raw_outcome = repr(e.raw(v))
    except (EvalError, OverflowError, ValueError) as exc:
        raw_outcome = (type(exc).__name__, str(exc))
    return raw_outcome, _outcome(e.evaluate, v)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_SPECIAL_TREES, st.lists(_SPECIAL_VALUES, min_size=1, max_size=4))
def test_a_shared_shape_evaluates_as_a_fresh_literal_compile(root, values):
    other = Expr(respelled(root))  # compiles the shape first, with other constants
    e = Expr(root)
    assert e.raw.__code__ is other.raw.__code__
    for v in values:
        assert _cached_outcomes(e, v) == _literal_outcomes(root, v)
        assert _cached_outcomes(other, v) == _literal_outcomes(other.root, v)


@pytest.mark.parametrize("a, b", [
    ("2*x^3 + 1.5", "-7*x^5 + 0.25"),
    ("2*x^2 + 1.5", "-7*x^4 + 0.25"),
    ("x^0.5", "x^(-2.5)"),  # a fractional exponent's sign takes no branch
    ("x^(-2)", "x^(-7)"),
    ("ln(x + 1)/3", "ln(x + 4)/(-0.5)"),
    ("x/0", "x/(-0.0)"),
    ("x*0.0 + pi", "x*(-0.0) + e"),
])
def test_constants_do_not_split_a_shape(a, b):
    assert parse(a).raw.__code__ is parse(b).raw.__code__


@pytest.mark.parametrize("a, b", [
    ("x^2", "x^0.5"),  # integer or not
    ("x^2", "x^3"),  # even or odd
    ("x^2", "x^(-2)"),  # sign of an integer exponent
    ("x^2", "x^0"),  # a zero exponent is the guarded pow
    ("x/2", "x/0"),  # a nonzero constant divisor
    ("(x+1)/2", "(x+1)/0"),
])
def test_each_branch_on_a_constant_is_its_own_shape(a, b):
    assert parse(a).raw.__code__ is not parse(b).raw.__code__
    for v in (-0.0, 0.0, 2.0, -3.0):  # and each runs its own branch
        assert _cached_outcomes(parse(b), v) == _literal_outcomes(parse(b).root, v)


_UNARY = ("neg", "abs", "exp", "ln", "sqrt", "sin", "cos")


def _nth_shape(n: int):
    """A tree for each n, all of distinct shapes: n's base-7 digits as a
    chain of unary ops over x."""
    node = Var("x")
    while True:
        node = Unary(_UNARY[n % 7], node)
        n //= 7
        if not n:
            return node


def test_the_cache_stays_within_its_bound():
    bound = _shape_code.cache_info().maxsize
    assert bound
    shapes = [Expr(_nth_shape(n)) for n in range(bound + 20)]
    assert len({e.raw.__code__ for e in shapes}) == bound + 20
    assert _shape_code.cache_info().currsize == bound
    # an evicted shape compiles again and still evaluates as before
    assert repr(Expr(_nth_shape(0)).evaluate(0.5)) == repr(shapes[0].evaluate(0.5))
    assert _shape_code.cache_info().currsize == bound


def test_copies_finds_the_same_ops_on_the_same_constants():
    f = parse("exp(x)*0.5").root
    g = parse("2*(exp(x)*0.5) - ln(exp(x)*0.5 + 1)").root
    assert len(copies(g, f)) == 2
    assert copies(parse("exp(x)*(-0.5)").root, f) == set()
    assert copies(parse("x*(-0.0)").root, parse("x*0.0").root) == set()
    assert copies(g, parse("x").root) == set()  # a leaf is read, not shared
    # tree equality: a negated constant is not the constant, t is not x
    assert copies(Unary("neg", Const(2.0)), Const(-2.0)) == set()
    assert copies(Binary("*", Var("x"), Unary("neg", Const(2.0))),
                  Binary("*", Var("x"), Const(-2.0))) == set()
    assert copies(parse("2*(exp(t)*0.5)").root, f) == set()
    assert len(copies(parse("2*(exp(x)*0.5)").root, f)) == 1


# Templates: parse serves a source whose key (its pieces between number
# literals, with each literal's class) it has seen accepted from a template,
# and must give what the cold parse gives, to the bit, or its exact error.


def _nest(n: int) -> str:
    return "(" * n + "x" + ")" * n


def _sum(n: int) -> str:
    return "+".join(["x"] * n)


def _tower(n: int) -> str:
    return "^".join(["x"] * n)


_POINTS = [0.0, -0.0, 0.5, 2.0, -1.5, 3.0, 1e-300, 1e300, -1e300, math.inf, math.nan]


def _parsed(parser, source: str, points=_POINTS):
    """Everything parse gives for source: the tree by repr (which keeps -0.0
    apart), the variable, the source, both emitted forms and the values or
    faults at points; or the error's type, message and offset."""
    try:
        e = parser(source)
    except Exception as exc:
        return type(exc).__name__, str(exc), getattr(exc, "offset", None)
    return (repr(e.root), e.var_name, e.source, _emit(e.root), _emit(e.root, guarded=True),
            [_cached_outcomes(e, v) for v in points])


def _class(text: str) -> str:
    v = float(text)
    if v == math.inf:
        return "inf"
    return "zero" if v == 0.0 else "integer" if v.is_integer() else "fraction"


# literals of each class that split alone wherever a literal stood
_OF_CLASS = {
    "zero": ["0", "0.0", "00", "0e3", ".0"],
    "integer": ["3", "7.", "2E+1", "40", "1e2"],
    "fraction": [".25", "1.5", "3.e-2", "0.1", "12.75"],
    "inf": ["1e999", "2e400"],
}
_ADVERSARIAL = ["2..", "..5", "1..2", "x2", "sin2", "pi2", "1e", "2e5e5", "2 .5", "1e400"]
_FILLERS = st.one_of(
    st.sampled_from(["0", "00", "2.", ".5", "1e5", "1.e-3", "1E+2", "1e400"]),
    st.sampled_from(_ADVERSARIAL),
    st.floats(min_value=0.0, max_value=1e6).map(repr),
    st.integers(min_value=0, max_value=10**6).map(str),
)
_HOLE = "#"  # a number literal still to be filled in


def _source_tree(children):
    space = st.sampled_from(["", " "])
    return st.one_of(
        st.tuples(st.integers(1, 3), children).map(lambda a: "-" * a[0] + a[1]),
        st.tuples(children, space, st.sampled_from("+-*/"), space, children).map("".join),
        # ^ with a literal exponent: 0, negative, integral or not, as filled
        st.tuples(children, st.sampled_from(["^", "^-", "^--", " ^ ", "^(-"]),
                  st.sampled_from([_HOLE, "x", "pi", "e"])).map(
            lambda a: "".join(a) + (")" if a[1].endswith("(-") else "")
        ),
        st.tuples(children, st.sampled_from(["/", " / ", "/-"])).map(lambda a: "".join(a) + _HOLE),
        children.map(lambda a: f"({a})"),
        st.tuples(st.sampled_from(["abs", "exp", "ln", "sqrt", "sin", "cos"]), children).map(
            lambda a: f"{a[0]}({a[1]})"
        ),
    )


_SHAPES = st.recursive(
    st.sampled_from([_HOLE, _HOLE, _HOLE, "x", "x", "t", "pi", "e", f" {_HOLE} "]),
    _source_tree,
    max_leaves=7,
)


def _filled(shape: str, literals: list[str]) -> str:
    pieces = shape.split(_HOLE)
    return "".join(p + lit for p, lit in zip(pieces, literals)) + pieces[-1]


@contextlib.contextmanager
def _cold_calls():
    """The list of the sources the parser reads: empty while parse serves
    from templates; on a miss, the source alone."""
    calls = []
    tree = expr_module._tree

    def counted(source):
        calls.append(source)
        return tree(source)

    expr_module._tree = counted
    try:
        yield calls
    finally:
        expr_module._tree = tree


def _check_against_cold(shape: str, literals: list[str], choice: int, points) -> None:
    """Parse a primer of the target's key, then the target twice: each
    outcome equals the cold parse's."""
    target = _filled(shape, literals)
    parts = expr_module._split(target)
    primer = _filled(_HOLE.join(parts[0::2]), [
        _OF_CLASS[_class(lit)][(choice + i) % len(_OF_CLASS[_class(lit)])]
        for i, lit in enumerate(parts[1::2])
    ])
    assert _parsed(parse, primer, points) == _parsed(_parse_cold, primer, points), primer
    want = _parsed(_parse_cold, target, points)
    with _cold_calls() as calls:
        for _ in range(2):
            assert _parsed(parse, target, points) == want, (primer, target)
    event("served from a template" if not calls else "cold parse")


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    _SHAPES,
    st.lists(_FILLERS, min_size=12, max_size=12),
    st.integers(0, 4),
    st.lists(st.one_of(st.sampled_from(_POINTS), st.floats()), min_size=1, max_size=3),
)
def test_a_template_parses_as_the_cold_path(shape, fillers, choice, points):
    _check_against_cold(shape, fillers[: shape.count(_HOLE)], choice, points)


@pytest.mark.parametrize("text", _ADVERSARIAL)
@pytest.mark.parametrize("context", ["{}", "x*{}", "{}*x", "sin({})", "-{}^2", "x/{} + 1"])
def test_adversarial_literals_parse_as_the_cold_path(text, context):
    source = context.format(text)
    for _ in range(2):
        assert _parsed(parse, source) == _parsed(_parse_cold, source)


@pytest.mark.parametrize("a, b", [
    ("2*x^3 + 1.5", "7*x^5 + 0.25"),
    ("2*x^2 + 1.5", "7*x^4 + 0.25"),  # an even exponent, whatever the parity elsewhere
    ("x^0.5*2", "x^0.5*3"),  # a literal that can be no exponent has no parity
    ("2*pi*t - e/4", "3*pi*t - e/7"),  # pi and e keep the parser's values
    ("--2*x^-3", "--5*x^-1"),  # the sign of a folded literal
    ("-0*x + x^-0", "-0.0*x + x^-00"),  # -0.0, and a zero exponent
    ("ln(x + 1)/3", "ln(x + 4)/7"),
])
def test_a_source_of_a_cached_key_skips_the_cold_path(a, b):
    parse(a)  # makes the template of its key, if not yet made
    with _cold_calls() as calls:
        e = parse(b)
        again = parse(b)
    assert calls == []
    assert _parsed(lambda s: e, b) == _parsed(_parse_cold, b)
    assert again.raw.__code__ is e.raw.__code__ and again.root is not e.root


@pytest.mark.parametrize("a, b", [
    ("x^2", "x^0.5"),  # an integral exponent or not
    ("x^2", "x^3"),  # an even exponent is a bare power
    ("x^ ( 4 )", "x^ ( 1 )"),
    ("x^--2", "x^--3"),  # a folded double negation is a positive exponent
    ("x^\t2", "x^\t3"),
    ("x^2", "x^0"),  # a zero exponent is the guarded pow
    ("x/2", "x/0"),  # a nonzero divisor or zero
    ("x*-0", "x*-2"),  # -0.0 keeps its sign
])
def test_a_literal_of_another_class_has_its_own_template(a, b):
    _TEMPLATES.clear()
    parse(a)
    want = _parsed(_parse_cold, b)
    for want_calls in ([b], []):  # the first parse of b makes its template
        with _cold_calls() as calls:
            assert _parsed(parse, b) == want
        assert calls == want_calls
    assert len(_TEMPLATES) == 2


@pytest.mark.parametrize("source", ["2*x^", "x2", "1e400*x", "x+t", "pi2*x"])
def test_a_template_comes_only_from_an_accepted_source(source):
    held = dict(_TEMPLATES)
    for _ in range(2):
        with pytest.raises(ParseError):
            parse(source)
        assert _TEMPLATES == held


@settings(max_examples=500, deadline=None)
@given(_SHAPES, st.lists(_FILLERS, min_size=12, max_size=12))
def test_the_parser_names_each_literal_of_the_split(shape, fillers):
    source = _filled(shape, fillers[: shape.count(_HOLE)])
    try:
        root, _, literals = expr_module._tree(source)
    except ParseError:
        event("refused")
        return
    split = [float(text) for text in expr_module._split(source)[1::2]]
    # in order and bit for bit, -0.0 apart from 0.0
    assert [(sign * node.value).hex() for node, sign in literals] == [v.hex() for v in split]

    def consts(node):
        if isinstance(node, Const):
            return [node]
        return [] if isinstance(node, Var) else [c for child in node[1:] for c in consts(child)]

    # each literal's Const is a node of the tree, held once
    held = [id(c) for c in consts(root)]
    assert all(held.count(id(node)) == 1 for node, _ in literals)


def test_a_template_needs_the_parser_literals_to_be_the_values(monkeypatch):
    source = "-2*x+3"
    root, var, literals = expr_module._tree(source)
    assert _template(source, [2.0, 3.0], root, var, literals) is not None
    for values in ([3.0, 2.0], [-2.0, 3.0], [2.0], [2.0, 3.0, 3.0]):
        assert _template(source, values, root, var, literals) is None
    # a parser whose literals disagree with the split: parse gives the cold
    # path's Expr and keeps no template
    want = _parsed(_parse_cold, "5*x+7")
    tree = expr_module._tree

    def reversed_literals(s):
        root, var, literals = tree(s)
        return root, var, literals[::-1]

    monkeypatch.setattr(expr_module, "_tree", reversed_literals)
    _TEMPLATES.clear()
    for _ in range(2):
        assert _parsed(parse, "5*x+7") == want
    assert _TEMPLATES == {}


def test_a_hit_needs_finite_literals():
    for primer in ("2*x + 0.5", "2.5*x + 0.5", "2*x + 5", "2.5*x + 5"):
        parse(primer)  # every class of finite literal but zero
    for source in ("1e400*x + 0.5", "2*x + 1e999", "2e308*x + 0.5"):
        want = _parsed(_parse_cold, source)
        with _cold_calls() as calls:
            assert _parsed(parse, source) == want
        assert calls == [source]  # the cold path's one read refuses it
        with pytest.raises(ParseError, match="a finite constant"):
            parse(source)


def test_the_template_cache_stays_at_its_bound():
    def source(n, c):
        return f"{to_source(_nth_shape(n))}*{c}"

    _TEMPLATES.clear()
    for n in range(_TEMPLATE_BOUND + 20):
        parse(source(n, 2.5))
    assert len(_TEMPLATES) == _TEMPLATE_BOUND
    # the first shapes are evicted; each parses again as the cold path does
    for n in range(3):
        want = _parsed(_parse_cold, source(n, 0.75))
        with _cold_calls() as calls:
            assert _parsed(parse, source(n, 0.75)) == want
        assert calls[:1] == [source(n, 0.75)]
        assert len(_TEMPLATES) == _TEMPLATE_BOUND


@pytest.mark.parametrize("source", [_nest(300), _sum(250), _sum(1200), _tower(300),
                                    "-" * 600 + "x", "exp(" * 300 + "x" + ")" * 300])
def test_deep_nesting_is_a_parse_error(source):
    held = dict(_TEMPLATES)
    for _ in range(2):
        with pytest.raises(ParseError) as info:
            parse(source)
        assert (info.value.offset, info.value.expected) == (0, "an expression nested less deeply")
        assert str(info.value) == (
            f"expected an expression nested less deeply at offset 0 in {source[:40]!r}"
        )
        assert _TEMPLATES == held  # no template from a refused source


@pytest.mark.parametrize("source", [_nest(150), _sum(199), f"3*({_sum(199)})", _tower(150)])
def test_nesting_below_the_limits_parses(source):
    for _ in range(2):
        assert _parsed(parse, source) == _parsed(_parse_cold, source)
