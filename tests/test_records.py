"""The record types: repr text, equality, hashing, immutability, copying and
construction errors, pinned field by field."""

import copy
import math
import pickle

import pytest

from domcert import (
    AffineMap,
    CheckReport,
    EquivalenceReport,
    FunctionPair,
    GeometryError,
    HHReport,
    Interval,
    Kernel,
    KernelError,
    QuadResult,
    SamplePlan,
    SpecialCaseEntry,
    check_phi_h_convex,
    equivalence_report,
    hh_midpoint_report,
    identity_map,
    make_affine,
    make_kernel,
    parse,
    special_case_report,
)
from domcert.convexity import _SweepData, _plan_sweep
from domcert.expr import Binary, Const, Unary, Var

UNIT = Interval(0.0, 1.0)
IDENT = identity_map(UNIT)
LINEAR = make_kernel("linear")
PLAN = SamplePlan.grid(2, 2, 1)
PAIR = FunctionPair(parse("x^2"), parse("2*x^2"))

_HOLDS_REPORT = (
    "CheckReport(verdict='holds-on-samples', samples_checked=4, worst_gap=0.0, "
    "witness=(0.0, 0.0, 0.5), witness_lhs=0.0, witness_rhs=0.0, warnings=[])"
)
_RECIPROCAL_MID = (
    "HHReport(bound_kind='midpoint', lhs=0.2708333333333333, rhs=0.5416666666666666, "
    "margin=0.2708333333333333, holds=True, vacuous=False, "
    "quad_error=1.6653345369377348e-16, warnings=[])"
)


def _check(source="x^2 - 1"):
    return check_phi_h_convex(parse(source), LINEAR, IDENT, UNIT, PLAN)


def _hh():
    return hh_midpoint_report(FunctionPair(parse("x"), parse("x^2")), LINEAR, IDENT)


def _sweep():
    return _plan_sweep((PAIR.f, PAIR.g), ("g", "gap"), LINEAR, IDENT, UNIT, PLAN)


@pytest.mark.parametrize("build, text", [
    (lambda: parse("-x^2 + 0.5*x").root,
     "Binary(op='+', left=Unary(op='neg', arg=Binary(op='^', left=Var(name='x'), "
     "right=Const(value=2.0))), right=Binary(op='*', left=Const(value=0.5), "
     "right=Var(name='x')))"),
    (lambda: Const(-0.0), "Const(value=-0.0)"),
    (lambda: QuadResult(0.5, 1e-16, 2),
     "QuadResult(value=0.5, error_estimate=1e-16, subdivisions=2)"),
    (lambda: PAIR, "FunctionPair(f=Expr('x^2'), g=Expr('2*x^2'))"),
    (_check,
     "CheckReport(verdict='holds-on-samples', samples_checked=4, worst_gap=0.0, "
     "witness=(0.0, 0.0, 0.5), witness_lhs=-1.0, witness_rhs=-1.0, "
     "warnings=['function takes negative sampled values (codomain should be [0, inf))'])"),
    (lambda: equivalence_report(PAIR, LINEAR, IDENT, UNIT, PLAN),
     f"EquivalenceReport(dominance={_HOLDS_REPORT}, sum_convex={_HOLDS_REPORT}, "
     f"diff_convex={_HOLDS_REPORT}, l_convex={_HOLDS_REPORT}, k_convex={_HOLDS_REPORT}, "
     "statement_holds=(True, True, True), agreement=True)"),
    (_sweep,
     "_SweepData(samples=4, worst={'g': (0.0, (0.0, 0.0, 0.5), 0.0, 0.0), "
     "'gap': (0.0, (0.0, 0.0, 0.5), 0.0, 0.0)}, neg={'f': False, 'g': False}, "
     "nans={'g': 0, 'gap': 0})"),
    (_hh,
     "HHReport(bound_kind='midpoint', lhs=0.0, rhs=0.08333333333333331, "
     "margin=0.08333333333333331, holds=True, vacuous=False, "
     "quad_error=5.551115123125783e-17, warnings=[])"),
    (lambda: special_case_report(PAIR, IDENT, which="reciprocal"),
     f"[SpecialCaseEntry(label='reciprocal/midpoint', report={_RECIPROCAL_MID})]"),
    (lambda: UNIT, "Interval(a=0.0, b=1.0)"),
    (lambda: make_affine(0.5, 0.25, UNIT),
     "AffineMap(alpha=0.5, beta=0.25, domain=Interval(a=0.0, b=1.0), image_a=0.25, "
     "image_b=0.75)"),
    (lambda: PLAN,
     "SamplePlan(strategy='grid', n_x=2, n_y=2, n_t=1, count=1000, seed=0, "
     "t_clamp=1e-06, atol=1e-09, rtol=1e-09)"),
    (lambda: SamplePlan.random(10, seed=3),
     "SamplePlan(strategy='random', n_x=21, n_y=21, n_t=19, count=10, seed=3, "
     "t_clamp=1e-06, atol=1e-09, rtol=1e-09)"),
    (lambda: LINEAR,
     "Kernel(kind='linear', s=None, expr=Expr('t'), half_value=0.5, "
     "midpoint_coefficient=1.0, integral=0.5, integral_error=0.0)"),
    (lambda: make_kernel("power", 0.5),
     "Kernel(kind='power', s=0.5, expr=Expr('t^0.5'), half_value=0.7071067811865476, "
     "midpoint_coefficient=0.7071067811865476, integral=0.6666666666666666, "
     "integral_error=0.0)"),
])
def test_repr(build, text):
    assert repr(build()) == text


def _nodes_unequal(a, b):
    assert not a == b and a != b
    assert not b == a and b != a


def _nodes_equal(a, b):
    assert a == b and not a != b
    assert b == a and not b != a
    assert hash(a) == hash(b)


class TestNodes:
    def test_signed_zero(self):
        _nodes_equal(Const(0.0), Const(0.0))
        _nodes_equal(Const(-0.0), Const(-0.0))
        _nodes_unequal(Const(0.0), Const(-0.0))
        assert hash(Const(0.0)) != hash(Const(-0.0))

    def test_signed_zero_nested(self):
        x = Var("x")
        for wrap in (lambda c: Binary("*", x, c), lambda c: Unary("neg", c),
                     lambda c: Binary("+", Unary("exp", Binary("*", c, x)), x)):
            _nodes_equal(wrap(Const(0.0)), wrap(Const(0.0)))
            _nodes_unequal(wrap(Const(0.0)), wrap(Const(-0.0)))
            assert hash(wrap(Const(0.0))) != hash(wrap(Const(-0.0)))
        _nodes_unequal(parse("x*0.0").root, parse("x*(-0.0)").root)

    def test_equal_trees_from_separate_parses(self):
        _nodes_equal(parse("exp(x)*0.5 - ln(x+1)").root, parse("exp(x) * 0.5-ln(x + 1)").root)
        _nodes_unequal(parse("x+1").root, parse("1+x").root)
        _nodes_unequal(parse("sin(x)").root, parse("cos(x)").root)
        _nodes_unequal(Const(1.0), Var("x"))
        _nodes_unequal(Const(0.0), (0.0,))
        _nodes_unequal(Unary("neg", Var("x")), Binary("-", Const(0.0), Var("x")))

    def test_nan_constant_is_not_equal_to_itself(self):
        assert Const(math.nan) != Const(math.nan)


@pytest.mark.parametrize("build, other", [
    (lambda: QuadResult(0.5, 1e-16, 2), lambda: QuadResult(0.5, 1e-16, 3)),
    (lambda: FunctionPair(parse("x^2"), parse("2*x^2")),
     lambda: FunctionPair(parse("x^2"), parse("3*x^2"))),
    (lambda: Interval(0.0, 1.0), lambda: Interval(0.0, 2.0)),
    (lambda: make_affine(0.5, 0.25, UNIT), lambda: make_affine(0.5, 0.25, Interval(0.0, 2.0))),
    (lambda: SamplePlan.grid(3, 3, 3), lambda: SamplePlan.grid(3, 3, 3, rtol=0.0)),
    (lambda: make_kernel("power", 0.5), lambda: make_kernel("power", 0.25)),
    (lambda: make_kernel("custom", expr=parse("1+t")),
     lambda: make_kernel("custom", expr=parse("2+t"))),
])
def test_hashable_records(build, other):
    a, b, c = build(), build(), other()
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c


@pytest.mark.parametrize("build, other", [
    (_check, lambda: _check("x^2 + 1")),
    (lambda: equivalence_report(PAIR, LINEAR, IDENT, UNIT, PLAN),
     lambda: equivalence_report(PAIR, LINEAR, IDENT, UNIT, SamplePlan.grid(3, 2, 1))),
    (_sweep, lambda: _plan_sweep((PAIR.f, PAIR.g), ("gap",), LINEAR, IDENT, UNIT, PLAN)),
    (_hh, lambda: hh_midpoint_report(PAIR, LINEAR, IDENT)),
    (lambda: special_case_report(PAIR, IDENT, which="one")[0],
     lambda: special_case_report(PAIR, IDENT, which="one")[1]),
])
def test_reports_compare_by_value_and_are_unhashable(build, other):
    # they hold lists and dicts
    a, b, c = build(), build(), other()
    assert a == b and not a != b
    assert a != c and not a == c
    with pytest.raises(TypeError):
        hash(a)


def test_the_same_fields_are_equal():
    assert SamplePlan.grid(3, 3, 3) == SamplePlan(strategy="grid", n_x=3, n_y=3, n_t=3)
    assert Interval(a=0.0, b=1.0) == Interval(0, 1) and hash(Interval(0, 1)) == hash(UNIT)
    assert AffineMap(alpha=1.0, beta=0.0, domain=UNIT, image_a=0.0, image_b=1.0) == IDENT
    # s is dropped for every kind but power
    assert Kernel("linear", s=0.3) == Kernel(kind="linear") == LINEAR


def test_validated_records_equal_only_their_own_class():
    from domcert.record import Record

    class Span(Record):
        __slots__ = ("a", "b")

        def __init__(self, a, b):
            self._set(a, b)

    assert UNIT != (0.0, 1.0) and not UNIT == (0.0, 1.0)
    assert UNIT != Span(0.0, 1.0) and not UNIT == Span(0.0, 1.0)
    assert Span(0.0, 1.0) == Span(0.0, 1.0)
    assert UNIT != IDENT


def test_kernel_equality_includes_the_computed_constants():
    # the same expression integrated to two tolerances (a tree without a
    # power form, whose integral the ladder computes to quad_tol)
    fine = make_kernel("custom", expr=parse("1/sqrt(t)+1"))
    coarse = make_kernel("custom", expr=parse("1/sqrt(t)+1"), quad_tol=1e-6)
    assert (fine.kind, fine.s, fine.expr) == (coarse.kind, coarse.s, coarse.expr)
    assert fine.integral != coarse.integral
    assert fine != coarse and hash(fine) != hash(coarse)


@pytest.mark.parametrize("build, name", [
    (lambda: Const(1.0), "value"),
    (lambda: Var("x"), "name"),
    (lambda: Unary("neg", Var("x")), "arg"),
    (lambda: Binary("+", Var("x"), Const(1.0)), "op"),
    (lambda: QuadResult(0.5, 0.0, 1), "value"),
    (lambda: PAIR, "f"),
    (lambda: UNIT, "a"),
    (lambda: IDENT, "alpha"),
    (lambda: PLAN, "seed"),
    (lambda: LINEAR, "integral"),
])
def test_frozen(build, name):
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, name, 0.0)
    with pytest.raises(AttributeError):
        delattr(record, name)


@pytest.mark.parametrize("build, cls, name", [
    (_check, CheckReport, "verdict"),
    (lambda: equivalence_report(PAIR, LINEAR, IDENT, UNIT, PLAN), EquivalenceReport,
     "agreement"),
    (_sweep, _SweepData, "samples"),
    (_hh, HHReport, "holds"),
    (lambda: special_case_report(PAIR, IDENT, which="one")[0], SpecialCaseEntry, "label"),
])
def test_result_records_are_immutable_tuples(build, cls, name):
    # mutable dataclasses before; now named tuples
    record = build()
    assert record.__class__ is cls
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    assert record == tuple(record)
    assert record._asdict()[name] == getattr(record, name)


@pytest.mark.parametrize("given", [[], ["a warning"]])
def test_report_keeps_the_list_it_is_given(given):
    fields = ("holds-on-samples", 1, 0.0, (0.0, 0.0, 0.5), 0.0, 0.0)
    assert CheckReport(*fields, given).warnings is given
    assert CheckReport(*fields, warnings=given).warnings is given
    assert CheckReport(*fields).warnings == ()  # immutable: no default is shared mutably
    assert CheckReport.__bases__ == (tuple,)  # a plain NamedTuple


@pytest.mark.parametrize("given", [[], ["a warning"]])
def test_hh_report_keeps_the_list_it_is_given(given):
    fields = ("midpoint", 0.0, 1.0, 1.0, True, False, 0.0)
    assert HHReport(*fields, given).warnings is given
    assert HHReport(*fields, warnings=given).warnings is given
    assert HHReport(*fields).warnings == ()
    assert HHReport.__bases__ == (tuple,)


@pytest.mark.parametrize("build", [
    lambda: parse("exp(x)*(-0.0) + 1").root, lambda: QuadResult(0.5, 0.0, 1),
    lambda: UNIT, lambda: IDENT, lambda: PLAN, _check, _hh,
])
def test_copy_and_pickle(build):
    record = build()
    for again in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert again == record and repr(again) == repr(record)


def test_kernel_copy_shares_its_expression():
    again = copy.copy(LINEAR)
    assert again == LINEAR and again.expr is LINEAR.expr


@pytest.mark.parametrize("build, error, message", [
    (lambda: Interval(math.inf, 1.0), GeometryError, "interval endpoints must be finite"),
    (lambda: Interval(0.0, math.nan), GeometryError, "interval endpoints must be finite"),
    (lambda: Interval(1.0, 0.0), GeometryError, "interval needs a < b, got [1.0, 0.0]"),
    (lambda: AffineMap(math.nan, 0.0, UNIT, 0.0, 1.0), GeometryError, "alpha must be finite"),
    (lambda: AffineMap(1.0, 0.0, UNIT, 0.0, math.inf), GeometryError,
     "image_b must be finite"),
    (lambda: make_affine(2.0, 0.0, UNIT), GeometryError,
     "image of b (2.0) leaves the domain [0.0, 1.0]"),
    (lambda: make_affine(1.0, -0.5, UNIT), GeometryError,
     "image of a (-0.5) leaves the domain [0.0, 1.0]"),
    (lambda: SamplePlan(strategy="sobol"), ValueError, "unknown sampling strategy 'sobol'"),
    (lambda: SamplePlan.grid(0, 3, 3), ValueError, "grid sample counts must be at least 1"),
    (lambda: SamplePlan.random(0), ValueError, "random sample count must be at least 1"),
    (lambda: SamplePlan.grid(t_clamp=0.5), ValueError, "t_clamp must be in (0, 0.5), got 0.5"),
    (lambda: SamplePlan.grid(atol=-1.0), ValueError,
     "tolerances must be finite, >= 0; got -1.0, 1e-09"),
    (lambda: Kernel("gauss"), KernelError, "unknown kernel kind 'gauss'"),
    (lambda: Kernel("power"), KernelError, "power kernel needs 0 < s < 1, got None"),
    (lambda: Kernel("power", 1.0), KernelError, "power kernel needs 0 < s < 1, got 1.0"),
    (lambda: Kernel("custom"), KernelError, "custom kernel needs an expression"),
    (lambda: Kernel("custom", expr=parse("1+x")), KernelError,
     "custom kernels use the variable t, got 'x'"),
])
def test_construction_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_keyword_construction():
    k = Kernel(kind="power", s=0.5, quad_tol=1e-8)
    assert k == make_kernel("power", 0.5)
    assert SamplePlan.random(count=5, seed=2).count == 5
    with pytest.raises(TypeError):
        Interval(0.0)
    with pytest.raises(TypeError):
        Kernel("linear", None, None, 1e-10, 0.5)


def test_hh_report_fields():
    # the inputs are stated once, in the envelope, not in each report
    assert HHReport._fields == ("bound_kind", "lhs", "rhs", "margin", "holds", "vacuous",
                                "quad_error", "warnings")
