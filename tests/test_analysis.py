"""analysis against a reference: the power-product fold, the sum of power
forms and the kink walk as they were before they shared one module.

The reference folds a tree twice for its form (once with floats, once with
logs), folds a negative summand again through a Unary("neg") node it
builds, and finds kinks by a stack walk that asks each abs argument for its
degree.  The new code must give the same H and error bits, the same
breakpoints and the same affine verdict.  The one named exception is a sum
that the reference leaves to the ladder because a divergent collected C is
negative: the least exponent at each end decides it now.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from domcert import analysis, kernels
from domcert.analysis import breakpoints, is_affine, power_form
from domcert.expr import Binary, Const, Expr, Unary, Var, _compile, parse
from domcert.quadrature import _total


# ---------------------------------------------------------------------------
# The reference: the fold, the sum and the kink walk as they were.
# ---------------------------------------------------------------------------


def ref_degree(node):
    if isinstance(node, Const):
        return 0
    if isinstance(node, Var):
        return 1
    if isinstance(node, Unary):
        return ref_degree(node.arg) if node.op == "neg" else None
    left, right = ref_degree(node.left), ref_degree(node.right)
    if left is None or right is None:
        return None
    if node.op in "+-":
        return max(left, right)
    if node.op == "*" and left + right <= 1:
        return left + right
    if node.op == "/" and right == 0:
        return left
    return None


def ref_power_form(node, logs=False):
    def fold(node, logs):
        if isinstance(node, Const):
            return (ref_log_constant(node.value) if logs else node.value), 0.0, 0.0
        one = (1.0, 0.0, 0.0) if logs else 1.0
        if isinstance(node, Var):
            return one, 1.0, 0.0
        if isinstance(node, Unary):
            return fold(Binary("*", Const(-1.0), node.arg), logs) if node.op == "neg" else None
        if node.op == "-" and node.left == Const(1.0) and isinstance(node.right, Var):
            return one, 0.0, 1.0
        left, right = fold(node.left, logs), fold(node.right, logs and node.op != "^")
        if left is None or right is None or node.op in "+-":
            return None
        (c, a, b), (k, p, q) = left, right
        if node.op == "*":
            exponents = a + p, b + q
        elif node.op == "/":
            exponents = a - p, b - q
        elif p or q or not (c[0] if logs else c) > 0.0:
            return None
        else:
            exponents = a * k, b * k
        try:
            return ref_times(node.op, c, k, logs), *exponents
        except (ZeroDivisionError, OverflowError):
            return None

    form = fold(node, logs)
    if form is None or not math.isfinite(form[1] + form[2]):
        return None
    if logs:
        (sign, log, n), a, b = form
        return ((log, n), a, b) if sign > 0.0 and math.isfinite(log) else None
    return form if 0.0 < form[0] < math.inf else None


def ref_summands(node, sign=1.0):
    if isinstance(node, Unary) and node.op == "neg":
        return ref_summands(node.arg, -sign)
    if isinstance(node, Binary) and node.op in "+-":
        return [*ref_summands(node.left, sign),
                *ref_summands(node.right, -sign if node.op == "-" else sign)]
    return [(sign, node)]


def ref_log_constant(v):
    log = math.log(abs(v)) if v else math.nan
    return math.copysign(1.0, v), log, abs(log)


def ref_times(op, c, k, logs):
    if not logs:
        return c * k if op == "*" else c / k if op == "/" else math.pow(c, k)
    if op == "^":
        sign, log, n = 1.0, c[1] * k, abs(k) * c[2]
    else:
        sign, log, n = c[0] * k[0], c[1] + k[1] if op == "*" else c[1] - k[1], c[2] + k[2]
    return sign, log, n + 0.5 * abs(log)


def ref_closed_form(c, a, b):
    scaled = isinstance(c, tuple)
    if a <= -1.0 or b <= -1.0:
        return math.inf, 0.0
    if (a == 0.0 or b == 0.0) and not scaled:
        return c / (a + b + 1.0), 0.0
    terms = (math.lgamma(a + 1.0), math.lgamma(b + 1.0), math.lgamma(a + b + 2.0))
    beta = terms[0] + terms[1] - terms[2]
    try:
        value = math.exp(c[0] + beta) if scaled else c * math.exp(beta)
    except OverflowError:
        value = math.inf
    size = 1.0 + sum(map(abs, terms)) + (c[1] if scaled else 0.0)
    error = value * 4.0 * math.ulp(1.0) * size
    if scaled and value < 2.0 ** -1022:  # a subnormal or 0 H gains its rounding step
        error += math.ulp(value)
    return value, error


def ref_sum_integral(root):
    summands = ref_summands(root)
    if len(summands) < 2:
        return None
    collected = {}
    for sign, node in summands:
        form = ref_power_form(node)
        if form is None:
            form, sign = ref_power_form(Unary("neg", node)), -sign
        if form is None:
            return None
        c, a, b = form
        collected.setdefault((a, b), []).append(sign * c)
    values, error, divergent = [], 0.0, False
    for (a, b), cs in collected.items():
        if a <= -1.0 or b <= -1.0:
            c = _total(cs)
            if c < 0.0:
                return None
            divergent = divergent or c > 0.0
            continue
        for c in cs:
            value, term_error = ref_closed_form(abs(c), a, b)
            values.append(math.copysign(value, c))
            error += term_error
    if divergent:
        return math.inf, 0.0
    value = _total(values)
    if value != value:
        return None
    return value, error + math.ulp(1.0) * _total(list(map(abs, values)))


def ref_integral(root):
    """The reference's (H, its error) without the ladder, or None for the ladder."""
    form = ref_power_form(root) or ref_power_form(root, logs=True)
    result = ref_closed_form(*form) if form is not None else ref_sum_integral(root)
    if result is None:
        return None
    value, error = result
    return value, 0.0 if math.isinf(value) else error


def ref_kinks(u, lo, hi):
    if "abs" not in u.source:
        return []
    kinks = set()
    stack = [u.root]
    while stack:
        node = stack.pop()
        if isinstance(node, Unary):
            if node.op == "abs" and ref_degree(node.arg) == 1:
                kink = analysis._sign_change(_compile(node.arg), lo, hi)
                if kink is not None:
                    kinks.add(kink)
            stack.append(node.arg)
        elif isinstance(node, Binary):
            stack += (node.left, node.right)
    return sorted(kinks)


def divergent_totals(root):
    """The reference's collected C at each (a, b) with a <= -1 or b <= -1 of a
    sum whose terms all have forms, else []."""
    collected = {}
    for sign, node in ref_summands(root):
        form = ref_power_form(node)
        if form is None:
            form, sign = ref_power_form(Unary("neg", node)), -sign
        if form is None:
            return []
        c, a, b = form
        collected.setdefault((a, b), []).append(sign * c)
    return [_total(cs) for (a, b), cs in collected.items() if a <= -1.0 or b <= -1.0]


# ---------------------------------------------------------------------------
# The new code, and drawn trees.
# ---------------------------------------------------------------------------


class _Ladder(Exception):
    pass


def _refuse_ladder(expr, tol):
    raise _Ladder


def new_integral(root):
    """kernels._integral's (H, its error) of root, or None where it would
    take the ladder."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "integrate_open01", _refuse_ladder)
        try:
            return kernels._integral(Expr(root, "t"), 1e-10)
        except _Ladder:
            return None


T = Var("t")
ONE_MINUS_T = Binary("-", Const(1.0), T)
CONSTANTS = st.sampled_from([
    0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 3.0, -2.5, 0.1, 0.9, -0.9, 1e-5, 1e-200, 5e-324,
    1e170, -1e170, 1e308, 1.7976931348623157e308,
]) | st.floats(-4.0, 4.0, allow_nan=False)
EXPONENTS = st.sampled_from([-2.0, -1.0, -0.9, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 40.0, 1e308])
POWER_LEAVES = st.one_of(st.just(T), st.just(ONE_MINUS_T), CONSTANTS.map(Const))


def _power_tree(children):
    return st.one_of(
        children.map(lambda n: Unary("neg", n)),
        st.tuples(st.sampled_from("*/+-"), children, children).map(lambda x: Binary(*x)),
        st.tuples(children, EXPONENTS.map(Const)).map(lambda x: Binary("^", *x)),
        st.tuples(children, children).map(lambda x: Binary("^", *x)),
        children.map(lambda n: Unary("exp", n)),
    )


POWER_TREES = st.recursive(POWER_LEAVES, _power_tree, max_leaves=10)
# a sum of drawn products, each signed, as a kernel's terms are
SUMS = st.lists(st.tuples(st.sampled_from("+-"), POWER_TREES), min_size=1, max_size=5).map(
    lambda terms: _join(terms))


def _join(terms):
    node = terms[0][1] if terms[0][0] == "+" else Unary("neg", terms[0][1])
    for op, term in terms[1:]:
        node = Binary(op, node, term)
    return node


X = Var("x")
AFFINE = st.recursive(
    st.one_of(st.just(X), CONSTANTS.map(Const)),
    lambda children: st.one_of(
        children.map(lambda n: Unary("neg", n)),
        st.tuples(st.sampled_from("+-*/"), children, children).map(lambda x: Binary(*x)),
    ),
    max_leaves=6,
)


def _kinked_tree(children):
    return st.one_of(
        children.map(lambda n: Unary("abs", n)),
        st.tuples(st.sampled_from(["neg", "abs", "exp", "sqrt"]), children).map(
            lambda x: Unary(*x)),
        st.tuples(st.sampled_from("+-*/^"), children, children).map(lambda x: Binary(*x)),
    )


KINKED = st.recursive(st.one_of(AFFINE, AFFINE.map(lambda n: Unary("abs", n))), _kinked_tree,
                      max_leaves=8)
ENDS = st.sampled_from([(-1.0, 1.0), (0.0, 1.0), (-3.0, 0.25), (1e-8, 1.0 - 1e-8),
                        (-1e300, 1e300)])


def _bits(integral, root):
    """The bits of integral(root), or the class of what it raises: an lgamma
    past the largest float raises OverflowError in the reference."""
    try:
        result = integral(root)
    except OverflowError as exc:
        return type(exc)
    return None if result is None else tuple(map(repr, result))


class TestAgainstTheReference:
    @settings(max_examples=600, deadline=None)
    @given(st.one_of(POWER_TREES, SUMS))
    @example(parse("(1e170*t^40*(1-t)^40)^2").root)
    @example(parse("1e-200*1e-200*1e300*t").root)
    @example(parse("(1e-200*1e-200*t)^-0.5").root)  # a negative k scales the error of log C
    @example(parse("-0.5*t+1-(1-t)*-0.0+(1-t)").root)
    @example(parse("1/t-1/t+1").root)
    @example(parse("t-t+1").root)
    @example(parse("-(-(1e308*2))*t+t").root)
    @example(parse("(t+1)*t").root)
    @example(parse("1/t^2-1/t+1").root)
    @example(parse("t^1e308*(1-t)").root)
    @example(parse("(((1-t)*t)^1e308)^0.5").root)  # a + b is finite only at the top
    @example(parse("1/t-t^1e308*(1-t)").root)
    @example(parse("1+t^1e308*(1-t)").root)
    @example(parse("0.5^1e308").root)  # C carried as log C, H 0.0 with error ulp(0.0)
    @example(parse("1e-200*1e-200*1e78*t*(1-t)").root)  # a subnormal H from log C
    def test_h_and_its_error_keep_their_bits(self, root):
        want, got = _bits(ref_integral, root), _bits(new_integral, root)
        if want is OverflowError and got != ("inf", "0.0"):
            # where the reference's lgamma raised, log B takes its
            # large-argument form (tests/test_kernels.py holds its values), or
            # with both exponents past the lgamma range the ladder
            assert got is None or float(got[1]) >= 0.0
        elif got != want:
            # the ends are decided before any term's closed form: a sum the
            # reference left to the ladder for a negative divergent C, or
            # whose positive divergent C it never reached for a term's lgamma
            # past the largest float, diverges at an end with a positive C
            totals = divergent_totals(root)
            assert got == ("inf", "0.0")
            assert (want is None and min(totals) < 0.0
                    or want is OverflowError and max(totals) > 0.0)

    @settings(max_examples=600, deadline=None)
    @given(POWER_TREES)
    def test_the_one_fold_is_both_folds(self, root):
        form, plain, scaled = power_form(root), ref_power_form(root), ref_power_form(root, True)
        if plain is not None:
            assert (form[0], *form[2:]) == plain
        if scaled is not None:
            assert (form[1][1:], *form[2:]) == scaled
        if form is None:
            assert plain is None and scaled is None

    @settings(max_examples=400, deadline=None)
    @given(KINKED, ENDS)
    @example(parse("abs(x-0.5)+abs(2*x-1)").root, (-1.0, 1.0))
    @example(parse("exp(abs(3*x-1))*abs(abs(x-0.25)-0.1)").root, (-1.0, 1.0))
    def test_the_breakpoints_and_the_affine_verdict_are_the_walks(self, root, ends):
        u = Expr(root, "x")
        assert list(map(repr, breakpoints(u, *ends))) == list(map(repr, ref_kinks(u, *ends)))
        assert is_affine(root) == (ref_degree(root) is not None)
