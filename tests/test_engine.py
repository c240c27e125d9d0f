"""The generated sweep engine against a naive loop over the scalar forms.

The reference walks the same samples (grid_axes, or _random_triples below,
which draws with random.uniform) one triple at a time through _defect_parts,
cross-checked against phi_h_defect and dominance_gap; g + f and g - f are
the trees combine() and decompose() build.  Every worst value, witness,
side, warning and row must come out bit-identical (compared through repr),
so a change in the op order of the inlined bodies of f, g and the kernel h,
or of the cached per-axis products, fails here.
"""

import math
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from domcert.convexity import (
    HOLDS,
    NEG_VALUES_WARNING,
    VIOLATED,
    WITHIN_TOL_WARNING,
    FunctionPair,
    PreconditionError,
    SamplePlan,
    _defect_parts,
    _plan_sweep,
    check_dominated,
    check_phi_h_convex,
    decompose,
    dominance_gap,
    equivalence_report,
    grid_axes,
    phi_h_defect,
)
from domcert.expr import EvalError, combine, parse
from domcert.geometry import GeometryError, Interval, identity_map, make_affine
from domcert.kernels import KernelError, make_kernel

KERNELS = [
    make_kernel("linear"),
    make_kernel("power", s=0.5),
    make_kernel("reciprocal"),
    make_kernel("one"),
    make_kernel("custom", expr=parse("1 + t^2")),
    make_kernel("custom", expr=parse("exp(-t) + t^0.3")),
]
# the loop inlines the kernel body; Kernel.value in the reference must agree
POWER_KERNELS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(
    lambda s: make_kernel("power", s=s)
)
INTERVALS = [Interval(0.0, 1.0), Interval(-1.0, 2.0)]


def _wrap(children):
    two = st.tuples(children, children)
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*"), children).map(lambda a: f"({''.join(a)})"),
        two.map(lambda a: f"({a[0]}/(abs({a[1]})+0.5))"),
        st.tuples(children, st.sampled_from(["2", "3", "0.5", "(-1)"])).map(
            lambda a: f"((abs({a[0]})+1)^{a[1]})"
        ),
        children.map(lambda a: f"(-{a})"),
        children.map(lambda a: f"abs({a})"),
        children.map(lambda a: f"exp({a})"),
        children.map(lambda a: f"ln(abs({a})+0.5)"),
        children.map(lambda a: f"sqrt(abs({a}))"),
        children.map(lambda a: f"sin({a})"),
        children.map(lambda a: f"cos({a})"),
    )


_LEAF = st.one_of(
    st.just("x"),
    st.floats(-3.0, 3.0, allow_nan=False).map(lambda c: f"({c!r})"),
)
SOURCES = st.recursive(_LEAF, _wrap, max_leaves=5)  # each an atom: x, (c), (...) or fn(...)


@st.composite
def pairs(draw):
    """Independent f and g, g holding f's tree (c*(f), f + u, read from
    f's value), or a subtree repeated inside f and again in g."""
    f, g = draw(SOURCES), draw(SOURCES)
    shape = draw(st.sampled_from(["independent", "scaled", "plus", "repeated"]))
    if shape == "scaled":
        g = f"({draw(st.floats(-3.0, 3.0, allow_nan=False))!r})*{f}"
    elif shape == "plus":
        g = f"{f}+{g}"
    elif shape == "repeated":
        s = draw(SOURCES)
        f, g = f"{s}*{f}+exp(-abs({s}))", f"{g}-{s}"
    return FunctionPair(parse(f), parse(g))


@st.composite
def setups(draw):
    """(pair, kernel, map, interval, plan) covering both strategies and maps."""
    interval = draw(st.sampled_from(INTERVALS))
    phi = draw(
        st.sampled_from(
            [
                identity_map(interval),
                make_affine(0.5, 0.25, interval),
                make_affine(-0.5, 0.75, interval),
            ]
        )
    )
    tol = draw(st.sampled_from([1e-9, 0.0]))
    if draw(st.booleans()):
        n = st.integers(1, 5)
        plan = SamplePlan.grid(draw(n), draw(n), draw(n), atol=tol, rtol=tol)
    else:
        plan = SamplePlan.random(
            draw(st.integers(1, 40)), seed=draw(st.integers(0, 999)), atol=tol, rtol=tol
        )
    pair = draw(pairs())
    h = draw(st.one_of(st.sampled_from(KERNELS), POWER_KERNELS))
    return pair, h, phi, interval, plan


def _random_triples(plan, interval):
    """A random plan's triples: x, y, then t, each drawn by random.uniform."""
    rng = random.Random(plan.seed)
    a, b, lo = interval.a, interval.b, plan.t_clamp
    return [(rng.uniform(a, b), rng.uniform(a, b), rng.uniform(lo, 1.0 - lo))
            for _ in range(plan.count)]


def _triples(plan, interval):
    if plan.strategy == "random":
        return _random_triples(plan, interval)
    xs, ys, ts = grid_axes(plan, interval)
    return [(x, y, t) for x in xs for y in ys for t in ts]


ENDPOINTS = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(-(2**70), 2**70),
    count=st.integers(1, 60),
    ends=st.tuples(ENDPOINTS, ENDPOINTS).filter(lambda ab: ab[0] != ab[1]).map(sorted),
    t_clamp=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
)
def test_random_triples_are_uniform_draws(seed, count, ends, t_clamp):
    # the loop's own draws, read through its rows, against random.uniform;
    # phi's domain holds every draw, whatever rounding does near b
    plan = SamplePlan.random(count, seed=seed, t_clamp=t_clamp)
    a, b = ends
    rng = random.Random(seed)
    want = [
        (rng.uniform(a, b), rng.uniform(a, b), rng.uniform(t_clamp, 1.0 - t_clamp))
        for _ in range(count)
    ]
    rows = []
    phi = identity_map(Interval(-1e308, 1e308))
    check_phi_h_convex(parse("0"), make_kernel("one"), phi, Interval(a, b), plan, rows.append)
    assert repr([row[:3] for row in rows]) == repr(want)


@pytest.mark.parametrize("f", ["x/1e300", "x/1e300 + 1"])
def test_random_draws_on_an_interval_wider_than_the_largest_float(f):
    # b - a is inf: x and y are drawn by weights, a * (1 - u) + b * u
    wide = Interval(-1e308, 1e308)
    plan, rows = SamplePlan.random(200, seed=1), []
    ident = identity_map(wide)
    rep = check_phi_h_convex(parse(f), make_kernel("linear"), ident, wide, plan, rows.append)
    assert rep.verdict == HOLDS and rep.samples_checked == 200
    rng = random.Random(1)
    for x, y, t, _ in rows:
        for v in (x, y):
            u = rng.random()
            assert repr(v) == repr(min(max(-1e308 * (1.0 - u) + 1e308 * u, -1e308), 1e308))
        assert repr(t) == repr(rng.uniform(1e-6, 1.0 - 1e-6))
    grid = SamplePlan.grid(5, 5, 5)
    assert check_phi_h_convex(parse(f), make_kernel("linear"), ident, wide, grid).verdict == HOLDS


@pytest.mark.parametrize("check", ["convex", "dominated"])
def test_random_points_off_the_map_domain_fault_as_apply_does(check):
    # phi is applied in the loop: the first draw outside phi's domain raises
    # AffineMap.apply's GeometryError
    half = identity_map(Interval(0.0, 0.5))
    plan = SamplePlan.random(50, seed=2)
    first = next(v for x, y, _ in _random_triples(plan, UNIT) for v in (x, y) if v > 0.5)
    with pytest.raises(GeometryError) as want:
        half.apply(first)
    with pytest.raises(GeometryError) as info:
        if check == "convex":
            check_phi_h_convex(parse("x*x"), make_kernel("linear"), half, UNIT, plan)
        else:
            pair = FunctionPair(parse("x*x"), parse("2*x*x"))
            check_dominated(pair, make_kernel("linear"), half, UNIT, plan)
    assert info.value.reason == "domain"
    assert str(info.value) == str(want.value)


@pytest.mark.parametrize("fns, stats", [(("x^2",), ("u",)), (("x^2", "3*x^2+1"), ("g", "gap"))])
def test_random_plan_memory_is_flat_in_the_count(fns, stats):
    # no triple list: the loop draws each sample, so the peak does not grow
    # with the count
    args = tuple(map(parse, fns)), stats, make_kernel("linear"), identity_map(UNIT), UNIT

    def peak(count):
        tracemalloc.start()
        try:
            _plan_sweep(*args, SamplePlan.random(count, seed=3))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(5_000)  # warm every cache the first sweep fills
    assert peak(50_000) - peak(5_000) <= 64 * 1024


def _defects(u, h, phi, triples):
    """[(triple, defect, lhs, rhs)] and whether u took a negative value."""
    out, neg = [], False
    for x, y, t in triples:
        omt = 1.0 - t
        px, py = phi.apply(x), phi.apply(y)
        vpx, vpy = u.evaluate(px), u.evaluate(py)
        d, lhs, rhs = _defect_parts(
            u.evaluate, h.value(t), h.value(omt), t, omt, px, py, vpx, vpy
        )
        assert repr(d) == repr(phi_h_defect(u, h, phi, x, y, t))
        neg = neg or min(vpx, vpy, lhs) < 0.0
        out.append(((x, y, t), d, lhs, rhs))
    return out, neg


def _violation(worst, lhs, rhs, plan):
    """Below minus the threshold at the witness, or -inf whatever the scale."""
    return worst == -math.inf or worst < -(plan.atol + plan.rtol * max(abs(lhs), abs(rhs)))


def _report(samples, negs, plan):
    """Report fields: worst sample first by value, then by triple."""
    xyt, worst, lhs, rhs = min(samples, key=lambda s: (s[1], s[0]))
    warnings = [NEG_VALUES_WARNING.format(role=role) for role, neg in negs if neg]
    verdict = HOLDS
    if _violation(worst, lhs, rhs, plan):
        verdict = VIOLATED
    elif worst < 0.0:
        warnings.append(WITHIN_TOL_WARNING)
    return repr((verdict, len(samples), worst, xyt, lhs, rhs, warnings))


def _fields(rep):
    return repr(
        (
            rep.verdict,
            rep.samples_checked,
            rep.worst_gap,
            rep.witness,
            rep.witness_lhs,
            rep.witness_rhs,
            rep.warnings,
        )
    )


def _gaps(pair, h, phi, triples):
    """Reference dominance: (samples, f negative, g negative, g's defects)."""
    fd, neg_f = _defects(pair.f, h, phi, triples)
    gd, neg_g = _defects(pair.g, h, phi, triples)
    samples = []
    for (xyt, df, _, _), (_, dg, _, _) in zip(fd, gd):
        gap = dg - abs(df)
        assert repr(gap) == repr(dominance_gap(pair, h, phi, *xyt))
        samples.append((xyt, gap, abs(df), dg))
    return samples, neg_f, neg_g, gd


def _raises(fn, exc_type):
    try:
        fn()
    except exc_type:
        return
    raise AssertionError(f"expected {exc_type.__name__}")


SETTINGS = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@SETTINGS
@given(setups())
def test_convex_matches_scalar_reference(setup):
    pair, h, phi, interval, plan = setup
    triples = _triples(plan, interval)
    try:
        samples, neg = _defects(pair.f, h, phi, triples)
    except EvalError:
        _raises(lambda: check_phi_h_convex(pair.f, h, phi, interval, plan), EvalError)
        return
    rows = []
    rep = check_phi_h_convex(pair.f, h, phi, interval, plan, emit=rows.append)
    assert _fields(rep) == _report(samples, [("function", neg)], plan)
    assert repr(rows) == repr([(*xyt, d) for xyt, d, _, _ in samples])


@SETTINGS
@given(setups())
def test_dominated_matches_scalar_reference(setup):
    pair, h, phi, interval, plan = setup
    triples = _triples(plan, interval)

    rows = []

    def run():
        rows.clear()
        return check_dominated(pair, h, phi, interval, plan, emit=rows.append)

    # g is checked first and its refutation outranks a fault of f
    try:
        gd, _ = _defects(pair.g, h, phi, triples)
    except EvalError:
        _raises(run, EvalError)
        return
    (xyt, worst, lhs, rhs) = min(gd, key=lambda s: (s[1], s[0]))
    if _violation(worst, lhs, rhs, plan):
        try:
            run()
        except PreconditionError as exc:
            assert str(exc) == (
                "dominator g fails its convexity check: worst defect "
                f"{worst!r} at (x, y, t) = {xyt!r}"
            )
            return
        raise AssertionError("expected PreconditionError")
    try:
        samples, neg_f, neg_g, _ = _gaps(pair, h, phi, triples)
    except EvalError:
        _raises(run, EvalError)
        return
    rep = run()
    assert _fields(rep) == _report(samples, [("f", neg_f), ("g", neg_g)], plan)
    assert repr(rows) == repr([(*xyt, gap, a, dg) for xyt, gap, a, dg in samples])


@SETTINGS
@given(setups())
def test_equivalence_matches_scalar_reference(setup):
    pair, h, phi, interval, plan = setup
    triples = _triples(plan, interval)
    l_tree, k_tree = decompose(pair)
    try:
        samples, neg_f, neg_g, _ = _gaps(pair, h, phi, triples)
        sums, neg_s = _defects(combine("+", pair.g, pair.f), h, phi, triples)
        diffs, neg_d = _defects(combine("-", pair.g, pair.f), h, phi, triples)
        ls, _ = _defects(l_tree, h, phi, triples)
        ks, _ = _defects(k_tree, h, phi, triples)
    except EvalError:
        _raises(lambda: equivalence_report(pair, h, phi, interval, plan), EvalError)
        return
    rep = equivalence_report(pair, h, phi, interval, plan)
    assert _fields(rep.dominance) == _report(samples, [("f", neg_f), ("g", neg_g)], plan)
    assert _fields(rep.sum_convex) == _report(sums, [("function", neg_s)], plan)
    assert _fields(rep.diff_convex) == _report(diffs, [("function", neg_d)], plan)
    assert _fields(rep.l_convex) == _report(ls, [("function", neg_s)], plan)
    assert _fields(rep.k_convex) == _report(ks, [("function", neg_d)], plan)
    convex = rep.sum_convex.holds() and rep.diff_convex.holds()
    assert rep.statement_holds == (rep.dominance.holds(), convex, convex)
    assert rep.agreement == (rep.dominance.holds() == convex)



# nonpositive for |t - c| < 1e-4 only, with c halfway between the
# construction probes next to 1/2 (about 3.8e-4 apart)
NEAR_ROOT = make_kernel("custom", expr=parse("(t-0.5001917)^2-1e-8"))
UNIT = Interval(0.0, 1.0)


def _first_kernel_fault(ts):
    for i, t in enumerate(ts):
        try:
            NEAR_ROOT.value(t)
        except KernelError as exc:
            return i, str(exc)
    raise AssertionError("the plan misses the nonpositive window")


@pytest.mark.parametrize("plan", [SamplePlan.grid(1, 1, 20001), SamplePlan.random(20000, seed=1)])
def test_kernel_fault_matches_kernel_value(plan):
    if plan.strategy == "grid":
        ts = grid_axes(plan, UNIT)[2]
        order = ts + [1.0 - t for t in ts]  # every h(t), then every h(1-t)
    else:
        order = [v for _, _, t in _random_triples(plan, UNIT) for v in (t, 1.0 - t)]
    _, want = _first_kernel_fault(order)
    with pytest.raises(KernelError) as info:
        check_phi_h_convex(parse("x*x"), NEAR_ROOT, identity_map(UNIT), UNIT, plan)
    assert info.value.reason == "nonpositive"
    assert str(info.value) == want


def test_random_loops_read_the_kernel_where_they_did():
    # at a sample where h and f both fault, the pair loop reports h (read
    # first) and the single-function loop reports f (h read after f(px), f(py))
    plan = SamplePlan.random(20000, seed=1)
    triples = _random_triples(plan, UNIT)
    i, want = _first_kernel_fault([v for _, _, t in triples for v in (t, 1.0 - t)])
    f = parse(f"1/(x-({triples[i // 2][0]!r}))")  # division by zero at that x only
    pair, ident = FunctionPair(f, parse("x^2")), identity_map(UNIT)
    with pytest.raises(KernelError) as info:
        equivalence_report(pair, NEAR_ROOT, ident, UNIT, plan)
    assert str(info.value) == want
    with pytest.raises(KernelError):
        check_dominated(pair, NEAR_ROOT, ident, UNIT, plan)
    with pytest.raises(EvalError, match="division by zero"):
        check_phi_h_convex(f, NEAR_ROOT, ident, UNIT, plan)


# f's tree inside g (read there, not evaluated again) and a subtree repeated
# inside one function: the first fault in evaluation order is still the one
# reported, here a fault of g's own ln ahead of, or after, the shared subtree
_SAMPLE_1 = "(x=0.13436424411240122, y=0.8474337369372327, t=0.7637740914273761)"
_ON_AXIS = "grid point x=1.0"


@pytest.mark.parametrize(
    "f, g, plan, message",
    [
        ("exp(x)+x", "ln(0.6-x)+(exp(x)+x)", SamplePlan.grid(3, 3, 3),
         f"ln of a non-positive value while checking {_ON_AXIS}"),
        ("exp(x)+x", "ln(0.6-x)+(exp(x)+x)", SamplePlan.random(50, seed=1),
         f"ln of a non-positive value while checking sample {_SAMPLE_1}"),
        ("exp(800*x)+x", "(exp(800*x)+x)+ln(0.6-x)", SamplePlan.grid(3, 3, 3),
         f"overflow in exp while checking {_ON_AXIS}"),
        ("exp(800*x)+x", "(exp(800*x)+x)+ln(0.6-x)", SamplePlan.random(50, seed=1),
         f"ln of a non-positive value while checking sample {_SAMPLE_1}"),
    ],
)
def test_fault_order_with_shared_subtrees(f, g, plan, message):
    pair = FunctionPair(parse(f), parse(g))
    with pytest.raises(EvalError) as info:
        equivalence_report(pair, make_kernel("linear"), identity_map(UNIT), UNIT, plan)
    assert str(info.value) == message


@pytest.mark.parametrize("plan, where", [(SamplePlan.grid(2, 2, 3), _ON_AXIS),
                                         (SamplePlan.random(50, seed=1), _SAMPLE_1)])
def test_repeated_subtree_faults_after_an_earlier_op(plan, where):
    # at x = 1 both ln and the repeated exp fault; ln comes first
    f = parse("ln(0.6-x)+exp(1000*x)*exp(1000*x)")
    if plan.strategy == "random":
        where = f"sample {where}"
    with pytest.raises(EvalError) as info:
        check_phi_h_convex(f, make_kernel("linear"), identity_map(UNIT), UNIT, plan)
    assert str(info.value) == f"ln of a non-positive value while checking {where}"


# t points of SamplePlan.grid(n, m, 3): two Chebyshev points and 1/2
_T_AXIS = grid_axes(SamplePlan.grid(2, 2, 3), UNIT)[2]


def _kernel_failing_at(t: float):
    """h = 1 everywhere but at t, where ln faults."""
    return make_kernel("custom", expr=parse(f"1+0*ln(abs(t-{t!r}))"))


@pytest.mark.parametrize("f, h, phi, plan, message", [
    # an inline op, named by the guarded rerun, on the y axis only
    ("exp(3000*x*(1-x))", None, None, SamplePlan.grid(2, 3, 3),
     "overflow in exp while checking grid point y=0.5"),
    ("1/(x-0.5)", None, None, SamplePlan.grid(2, 3, 3),
     "division by zero while checking grid point y=0.5"),
    # the grid point, not its image under phi
    ("1/(x-0.75)", None, make_affine(0.5, 0.5, UNIT), SamplePlan.grid(3, 3, 3),
     "division by zero while checking grid point x=0.5"),
    # the kernel's pass over h(t), then its pass over h(1 - t): the grid
    # point is t in both
    ("x^2", _T_AXIS[0], None, SamplePlan.grid(2, 2, 3),
     f"ln of a non-positive value while checking grid point t={_T_AXIS[0]!r}"),
    ("x^2", 1.0 - _T_AXIS[2], None, SamplePlan.grid(2, 2, 3),
     f"ln of a non-positive value while checking grid point t={_T_AXIS[2]!r}"),
])
def test_axis_faults_name_the_grid_point(f, h, phi, plan, message):
    kernel = make_kernel("linear") if h is None else _kernel_failing_at(h)
    phi = phi or identity_map(UNIT)
    assert 1.0 - _T_AXIS[2] not in _T_AXIS
    with pytest.raises(EvalError) as info:
        check_phi_h_convex(parse(f), kernel, phi, UNIT, plan)
    assert str(info.value) == message
    with pytest.raises(EvalError) as info:  # the pair sweep passes f's axes first
        check_dominated(FunctionPair(parse(f), parse("x^2")), kernel, phi, UNIT, plan)
    assert str(info.value) == message


@pytest.mark.parametrize("error",[ValueError("row sink"), OverflowError("row sink")])
@pytest.mark.parametrize("plan", [SamplePlan.grid(2, 2, 3), SamplePlan.random(20, seed=1)])
def test_an_emit_error_reaches_the_caller_unchanged(error, plan):
    # the bodies hold ops that raise ValueError (sin, cos) and OverflowError
    # (^, exp) inline; the callback's own exception is not taken for theirs
    def emit(row):
        raise error

    f = parse("x^2+sin(x)+cos(x)+exp(x)")
    g = parse("3*(x^2+sin(x)+cos(x)+exp(x))")
    linear, ident = make_kernel("linear"), identity_map(UNIT)
    with pytest.raises(type(error)) as info:
        check_phi_h_convex(f, linear, ident, UNIT, plan, emit=emit)
    assert info.value is error
    with pytest.raises(type(error)) as info:
        check_dominated(FunctionPair(f, g), linear, ident, UNIT, plan, emit=emit)
    assert info.value is error


@pytest.mark.parametrize("plan", [SamplePlan.grid(2, 2, 3), SamplePlan.random(20, seed=1)])
def test_g_reads_f_only_where_the_constants_match(plan):
    # on x > 0, x*0.0 and x*(-0.0) give 0.0 and -0.0, and k = g - f keeps
    # the sign: -0.0 - 0.0 is -0.0
    pair = FunctionPair(parse("x*0.0"), parse("x*(-0.0)"))
    half = Interval(0.5, 1.0)
    rep = equivalence_report(pair, make_kernel("linear"), identity_map(half), half, plan)
    assert repr(rep.k_convex.witness_lhs) == "-0.0"
