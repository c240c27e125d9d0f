"""The generated sweep engine against a naive loop over the scalar forms.

The reference walks the same samples (grid_axes, or _random_triples below,
which draws with random.uniform) one triple at a time through _defect_parts,
cross-checked against phi_h_defect and dominance_gap; g + f and g - f are
the trees combine() and decompose() build.  Every worst value, witness,
side, warning and row must come out bit-identical (compared through repr),
so a change in the op order of the inlined bodies of f, g and the kernel h,
or of the cached per-axis products, fails here.
"""

import hashlib
import math
import random
import tracemalloc

import pytest
from conftest import respelled
from hypothesis import HealthCheck, given, settings, strategies as st

from domcert import convexity
from domcert.convexity import (
    HOLDS,
    NEG_VALUES_WARNING,
    VIOLATED,
    WITHIN_TOL_WARNING,
    FunctionPair,
    PreconditionError,
    SamplePlan,
    _CHUNK_ROWS,
    _defect_parts,
    _gap_function,
    _gap_parts,
    _plan_sweep,
    _sweep_source,
    check_dominated,
    check_phi_h_convex,
    decompose,
    dominance_gap,
    equivalence_report,
    grid_axes,
    phi_h_defect,
)
from domcert.errors import DomcertError
from domcert.expr import EvalError, Expr, _emit, _shape_code, _Slots, combine, parse
from domcert.geometry import GeometryError, Interval, identity_map, make_affine
from domcert.kernels import Kernel, KernelError, make_kernel
from domcert.record import _restore
from domcert.search import search_violations

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
    check_phi_h_convex(parse("0"), make_kernel("one"), phi, Interval(a, b), plan, rows.extend)
    assert repr([row[:3] for row in rows]) == repr(want)


@pytest.mark.parametrize("f", ["x/1e300", "x/1e300 + 1"])
def test_random_draws_on_an_interval_wider_than_the_largest_float(f):
    # b - a is inf: x and y are drawn by weights, a * (1 - u) + b * u
    wide = Interval(-1e308, 1e308)
    plan, rows = SamplePlan.random(200, seed=1), []
    ident = identity_map(wide)
    rep = check_phi_h_convex(parse(f), make_kernel("linear"), ident, wide, plan, rows.extend)
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
    rep = check_phi_h_convex(pair.f, h, phi, interval, plan, emit=rows.extend)
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
        return check_dominated(pair, h, phi, interval, plan, emit=rows.extend)

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


def _sweeps(pair, h, phi, interval, plan):
    """Every report, row and fault of the sweeps over pair, as reprs."""
    rows, out = [], []
    for run in (
        lambda: check_phi_h_convex(pair.f, h, phi, interval, plan, emit=rows.extend),
        lambda: check_dominated(pair, h, phi, interval, plan, emit=rows.extend),
        lambda: equivalence_report(pair, h, phi, interval, plan),
        lambda: search_violations(pair, h, phi, interval, plan),
    ):
        try:
            out.append(repr(run()))
        except DomcertError as exc:
            out.append((type(exc).__name__, str(exc)))
    return out, repr(rows)


@SETTINGS
@given(setups())
def test_a_warm_cache_sweeps_as_a_cold_one(setup):
    # the warm run reuses loops compiled for a pair of the same shape with
    # other constants
    pair, h, phi, interval, plan = setup
    _shape_code.cache_clear()
    cold = _sweeps(pair, h, phi, interval, plan)
    _shape_code.cache_clear()
    other = FunctionPair(*(Expr(respelled(e.root), e.var_name) for e in pair))
    _sweeps(other, h, phi, interval, plan)
    assert _sweeps(pair, h, phi, interval, plan) == cold


@pytest.mark.parametrize("plan", [SamplePlan.grid(3, 3, 3), SamplePlan.random(30, seed=2)])
def test_a_pair_of_the_same_shape_compiles_no_loop(plan):
    h, box = make_kernel("power", s=0.5), Interval(-1.0, 2.0)
    one = FunctionPair(parse("0.5*x^2 + exp(0.25*x)"), parse("3*(0.5*x^2 + exp(0.25*x))"))
    two = FunctionPair(parse("1.5*x^4 + exp(-2.5*x)"), parse("7*(1.5*x^4 + exp(-2.5*x))"))
    ident = identity_map(box)
    _sweeps(one, h, ident, box, plan)
    misses = _shape_code.cache_info().misses
    warm = _sweeps(two, h, ident, box, plan)
    assert _shape_code.cache_info().misses == misses
    _shape_code.cache_clear()
    assert _sweeps(two, h, ident, box, plan) == warm


# ---------------------------------------------------------------------------
# Rows reach emit a chunk at a time
# ---------------------------------------------------------------------------

UNIT_PAIR = FunctionPair(parse("x^2 - x"), parse("3*x^2"))
# (n_x, n_y, n_t) of grids with 1, 511, 512 and 513 samples (0.5 joins a t
# grid without it)
GRID_OF = {1: (1, 1, 1), 511: (7, 73, 1), 512: (4, 8, 15), 513: (27, 19, 1)}


def _chunk_sizes(count):
    full, rest = divmod(count, _CHUNK_ROWS)
    return [_CHUNK_ROWS] * full + ([rest] if rest else [])


@pytest.mark.parametrize("strategy", ["grid", "random"])
@pytest.mark.parametrize("count", sorted(GRID_OF))
def test_rows_come_in_chunks_in_plan_order(count, strategy):
    if strategy == "grid":
        plan = SamplePlan.grid(*GRID_OF[count])
    else:
        plan = SamplePlan.random(count, seed=5)
    h, phi = make_kernel("power", s=0.5), make_affine(0.5, 0.25, UNIT)
    triples = _triples(plan, UNIT)
    assert len(triples) == count
    defects, _ = _defects(UNIT_PAIR.f, h, phi, triples)
    gaps = _gaps(UNIT_PAIR, h, phi, triples)[0]
    for run, want in (
        (lambda emit: check_phi_h_convex(UNIT_PAIR.f, h, phi, UNIT, plan, emit),
         [(*xyt, d) for xyt, d, _, _ in defects]),
        (lambda emit: check_dominated(UNIT_PAIR, h, phi, UNIT, plan, emit),
         [(*xyt, gap, lhs, rhs) for xyt, gap, lhs, rhs in gaps]),
    ):
        chunks = []
        run(chunks.append)
        assert [len(c) for c in chunks] == _chunk_sizes(count)
        assert repr([row for c in chunks for row in c]) == repr(want)


@pytest.mark.parametrize("check", ["convex", "dominated"])
def test_a_fault_drops_the_rows_of_its_chunk(check):
    # sqrt(0.999 - x) faults at the first draw above 0.999, in mid-chunk
    f, h, phi = parse("sqrt(0.999 - x)"), make_kernel("linear"), identity_map(UNIT)
    plan = SamplePlan.random(4000, seed=7)
    triples = _random_triples(plan, UNIT)
    bad = next(i for i, xyt in enumerate(triples) if max(xyt[:2]) > 0.999)
    assert bad > _CHUNK_ROWS and bad % _CHUNK_ROWS
    sent = bad - bad % _CHUNK_ROWS
    if check == "convex":
        def run(emit=None):
            return check_phi_h_convex(f, h, phi, UNIT, plan, emit)
        want = [(*xyt, d) for xyt, d, _, _ in _defects(f, h, phi, triples[:sent])[0]]
    else:
        pair = FunctionPair(f, parse("2*x^2"))

        def run(emit=None):
            return check_dominated(pair, h, phi, UNIT, plan, emit)
        want = [(*xyt, gap, lhs, rhs)
                for xyt, gap, lhs, rhs in _gaps(pair, h, phi, triples[:sent])[0]]
    with pytest.raises(EvalError) as plain:
        run()
    chunks = []
    with pytest.raises(EvalError) as info:
        run(chunks.append)
    assert str(info.value) == str(plain.value)
    assert [len(c) for c in chunks] == _chunk_sizes(sent)
    assert repr([row for c in chunks for row in c]) == repr(want)


# a tree with every op, and every branch the specialized form takes on a
# constant operand
_EVERY_OP = ("-x + abs(x - 2) * exp(-x) - ln(x) + ln(x^2 + 1) - sqrt(x) * sqrt(x + 1)"
             " + sin(x)/cos(x) + x^3 + (x + 1)^2 + x^-2 + x^-0.5 + (x + 1)^0.5 + x^0 + x^x"
             " + x/2 + x/0 + 1/(x - 1) + x/x + x*(-3)")


# The loop tests each value's finiteness and sign with one comparison, and
# writes abs(d_f) inline; the guarded loop keeps a statement for each test
# and abs itself.  The two must agree on every report, warning and fault.


def _guarded_sweep(*args):
    """_plan_sweep(*args) through the guarded loop alone."""
    real = convexity._sweep_source
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convexity, "_sweep_source", lambda *a: real(*a[:6], True, *a[7:]))
        return _plan_sweep(*args)


def _lean_and_guarded(fns, stats, h, phi, interval, plan):
    outcomes = []
    for sweep in (_plan_sweep, _guarded_sweep):
        try:
            outcomes.append(repr(sweep(fns, stats, h, phi, interval, plan)))
        except DomcertError as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    return outcomes


_STATS = [("u",), ("g", "gap"), ("gap", "l", "k")]
# negative, -0.0, infinite and nan values of f, g, g + f and g - f
_EDGE_SOURCES = ["x-0.5", "-abs(x-0.3)", "x*(-0.0)", "(x-0.5)^2-0.01", "1.7e308*x+1.7e308*x",
                 "1e308*x", "1.7e308*(x-0.5)", "-(x^4)", "1/(x-0.5)", "exp(710*x)"]


@SETTINGS
@given(setups(), st.sampled_from(_EDGE_SOURCES), st.sampled_from(_EDGE_SOURCES + [None]))
def test_the_lean_loop_is_the_guarded_loop(setup, f, g):
    pair, h, phi, interval, plan = setup
    if g is not None:
        pair = FunctionPair(parse(f), parse(g))
    for stats in _STATS:
        fns = (pair.f,) if stats == ("u",) else pair
        lean, guarded = _lean_and_guarded(fns, stats, h, phi, interval, plan)
        assert lean == guarded


def _unbuilt_kernel(source: str) -> Kernel:
    """A custom kernel of source with made-up constants: a sweep reads only
    its expression, and a build would refuse it or integrate its spike."""
    return _restore(Kernel, ("custom", None, parse(source), 1.0, 0.5, 1.0, 0.0))


# h is +inf at exactly t = c, or 0 there
def _kernel_inf_at(c: float) -> Kernel:
    return _unbuilt_kernel(f"1+1e308/(abs(t-{c!r})*1e300+1e-10)")


def _kernel_zero_at(c: float) -> Kernel:
    return _unbuilt_kernel(f"abs(t-{c!r})")


_T_AXIS_3 = grid_axes(SamplePlan.grid(3, 3, 3), UNIT)[2]
_FIRST_X, _, _FIRST_T = _random_triples(SamplePlan.random(30, seed=4), UNIT)[0]


def _at(plan) -> float:
    """The c of the sources below: on the 3x3x3 grid p = t at x = 1, y = 0,
    so c is a midpoint p and no grid point; on the random plan c is the
    first x."""
    return _T_AXIS_3[0] if plan.strategy == "grid" else _FIRST_X


_PLANS_3 = [SamplePlan.grid(3, 3, 3), SamplePlan.random(30, seed=4)]
_DIP = "(1-2e-300/(1e-300+abs(x-{c})))"  # -1 at x = c, about 1 elsewhere
_SPIKE = "(1e308/(1e-10+1e300*abs(x-{c})))"  # +inf at x = c, finite elsewhere
_HALF_SPIKE = "(1.7e308/(1+1e300*abs(x-{c})))"  # twice it is +inf at x = c
_NEG = NEG_VALUES_WARNING.format


@pytest.mark.parametrize("plan", _PLANS_3)
@pytest.mark.parametrize("f, g, stats, warned", [
    ("x-0.5", None, ("u",), lambda r: _NEG(role="function") in r.warnings),
    ("x-0.5", "x^2+1", ("g", "gap"), lambda r: _NEG(role="f") in r.warnings),
    ("x^2", "x^2-0.5", ("gap", "l", "k"), lambda r: _NEG(role="g") in r.dominance.warnings),
    # negative at x = c alone
    (_DIP, None, ("u",), lambda r: _NEG(role="function") in r.warnings),
    ("x^2+1", _DIP, ("gap", "l", "k"), lambda r: _NEG(role="g") in r.dominance.warnings),
    # a derived value: g - f < 0
    ("x+2", "x^2", ("gap", "l", "k"), lambda r: _NEG(role="function") in r.k_convex.warnings),
    ("1", _DIP + "+1", ("gap", "l", "k"), lambda r: _NEG(role="function") in r.k_convex.warnings),
])
def test_a_negative_value_still_warns(f, g, stats, warned, plan):
    c = repr(_at(plan))
    fns = tuple(parse(s.format(c=c)) for s in (f, g) if s is not None)
    h, ident = make_kernel("linear"), identity_map(UNIT)
    lean, guarded = _lean_and_guarded(fns, stats, h, ident, UNIT, plan)
    assert lean == guarded
    check = {("u",): check_phi_h_convex, ("g", "gap"): check_dominated,
             ("gap", "l", "k"): equivalence_report}[stats]
    assert warned(check(fns[0] if g is None else FunctionPair(*fns), h, ident, UNIT, plan))


@pytest.mark.parametrize("plan", _PLANS_3)
@pytest.mark.parametrize("f, g, h, stats, message", [
    # a root value
    ("1.7e308*x+1.7e308*x", None, None, ("u",), "non-finite result for input "),
    ("x^2", "1.7e308*x+1.7e308*x", None, ("g", "gap"), "non-finite result for input "),
    (_SPIKE, None, None, ("u",), "non-finite result for input "),
    ("x^2", _SPIKE, None, ("g", "gap"), "non-finite result for input "),
    # a derived value: g + f past the largest float, raised after the pass
    ("1e308*x", "1.7e308*x", None, ("gap", "l", "k"), "non-finite result for input "),
    (_HALF_SPIKE, _HALF_SPIKE + "+0", None, ("gap", "l", "k"), "non-finite result for input "),
    # a kernel value
    ("x^2", None, "inf", ("u",), "non-finite result for input "),
    ("x^2", "x^2+1", "inf", ("gap", "l", "k"), "non-finite result for input "),
    ("x^2", None, "zero", ("u",), " is 0.0 at t="),
    ("x^2", "x^2+1", "zero", ("g", "gap"), " is 0.0 at t="),
])
def test_a_non_finite_value_still_raises_at_its_sample(f, g, h, stats, message, plan):
    t = _T_AXIS_3[0] if plan.strategy == "grid" else _FIRST_T
    kernel = {None: make_kernel("linear"), "inf": _kernel_inf_at(t), "zero": _kernel_zero_at(t)}[h]
    c = repr(_at(plan))
    fns = tuple(parse(s.format(c=c)) for s in (f, g) if s is not None)
    lean, guarded = _lean_and_guarded(fns, stats, kernel, identity_map(UNIT), UNIT, plan)
    assert lean == guarded
    assert lean[0] in ("EvalError", "KernelError") and message in lean[1]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_a_loop_without_rows_or_seeds_compiles_as_before():
    # the sha256 of this source since each value's finiteness and sign take
    # one comparison and abs and even powers are inline: sweeps that hand off
    # no rows run the code they ran before rows came in chunks and seeds were
    # picked in the loop
    roots = {"f": parse("x^2").root, "g": parse("2*x^2").root}
    source = _sweep_source(roots, parse("t^0.5").root, ("g", "gap"), True, False, _Slots())
    assert "emit" not in source.split("\n", 1)[1]
    assert _sha256(source) == (
        "6b4ca64ace54d9bb9b495190503f91a87dd787e634d724459e2933d294fab980")
    # the same loop's guarded form, and both forms of one body, as written
    # when each form had an emitter of its own (the specialized body since
    # abs and even powers are inline)
    source = _sweep_source(roots, parse("t^0.5").root, ("g", "gap"), True, False, _Slots(),
                           guarded=True)
    assert _sha256(source) == (
        "66aa4d8332b386ea45c0c1c19630abc36397fb84a5711cedb47fbaf4fbc390d1")
    root = parse(_EVERY_OP).root
    assert [_sha256(_emit(root, slots=slots, guarded=guarded))
            for guarded in (True, False) for slots in (_Slots(), None)] == [
        "fc5a33341adcca7dc9db709a33a2170b9cc945bf90b3a88dc83e21772381e530",
        "e0b669643eb39cb129a682d6552c83d5379018cfebab3d5446874b33fc3f302e",
        "d73e41e6178eb61262e31cc3b7b13983f49148acdef958801dd03d10c8433e5e",
        "057c3788729374f66778fba269c44eb1c7519e8661dc00586c56528b8ac80326",
    ]


# families whose weighted sides overflow on [0, 1] while every value is finite;
# under a kernel of 1e10 the two sides of one that changes sign are -inf and
# inf, so g's own defect is nan too
_OVERFLOWING = ["1.7e308*x", "8e307*(x+1)", "1.7e308*x^2", "6e307*exp(x)", "1.7e308*(x-0.5)"]


@SETTINGS
@given(st.sampled_from(_OVERFLOWING), st.sampled_from(["1", "0.75"]),
       st.sampled_from([*KERNELS, make_kernel("custom", expr=parse("1e10"))]), st.data())
def test_nan_samples_are_counted_as_a_scalar_loop_counts_them(f, scale, h, data):
    if data.draw(st.booleans()):
        n = st.integers(1, 6)
        plan = SamplePlan.grid(data.draw(n), data.draw(n), data.draw(n))
    else:
        plan = SamplePlan.random(data.draw(st.integers(1, 60)), seed=data.draw(st.integers(0, 99)))
    pair, ident = FunctionPair(parse(f), parse(f"{scale}*({f})")), identity_map(UNIT)
    parts = [_gap_parts(pair, h, ident, *xyt) for xyt in _triples(plan, UNIT)]
    sweep = _plan_sweep((pair.f, pair.g), ("g", "gap"), h, ident, UNIT, plan)
    assert sweep.nans == {"g": sum(dg != dg for _, _, dg in parts),
                          "gap": sum(gap != gap for gap, _, _ in parts)}


def test_a_verdict_says_how_many_samples_were_nan():
    # g(x) + g(y) overflows, so inf - inf leaves 30 of the 75 gaps nan
    pair = FunctionPair(parse("1.7e308*x"), parse("1.7e308*x"))
    rep = check_dominated(pair, make_kernel("one"), identity_map(UNIT), UNIT,
                          SamplePlan.grid(5, 5, 3))
    assert rep.verdict == HOLDS and rep.samples_checked == 75
    assert rep.warnings == ["30 of 75 samples are nan and decide nothing"]


# ---------------------------------------------------------------------------
# The compiled gap of refinement against _gap_parts
# ---------------------------------------------------------------------------

_FAMILIES = ["({c})*x^2", "({c})*x^4 + x^2", "exp(({c})*x)", "abs(x - ({c})) + x^2",
             "sqrt(x^2 + 1) + ({c})*x"]


@st.composite
def bench_pairs(draw):
    """A pair of the benchmark's families: g a scaled copy of f, or f plus
    another family; at 1.7e308 the weighted sides overflow."""
    c = st.floats(-3.0, 3.0, allow_nan=False).map(repr)
    f = draw(st.sampled_from(_FAMILIES)).format(c=draw(c))
    scale = draw(st.sampled_from(["0.5", "2", "1.7e308", "-1"]))
    if draw(st.booleans()):
        g = f"{scale}*({f})"
    else:
        g = f"{f} + {draw(st.sampled_from(_FAMILIES)).format(c=draw(c))}"
    return FunctionPair(parse(f), parse(g))


GAP_KERNELS = [*KERNELS, make_kernel("custom", expr=parse("t^(-0.5)"))]


@SETTINGS
@given(st.one_of(bench_pairs(), pairs()), st.sampled_from(GAP_KERNELS),
       st.sampled_from(INTERVALS), st.data())
def test_compiled_gap_is_gap_parts(pair, h, interval, data):
    phi = data.draw(st.sampled_from([identity_map(interval), make_affine(0.5, 0.25, interval),
                                     make_affine(-0.5, 0.75, interval)]))
    a, b = interval.a, interval.b
    # the box's corners and clamps, and points off phi's domain or (0, 1)
    x = st.one_of(st.sampled_from([a, b, 0.5 * (a + b), math.nextafter(b, math.inf),
                                   a - 1.0]), st.floats(a, b))
    t = st.one_of(st.sampled_from([1e-6, 1.0 - 1e-6, 0.5, 5e-324, 0.0, 1.0]),
                  st.floats(0.0, 1.0))
    parts = _gap_function(pair, h, phi)

    def outcome(fn, *xyt):
        try:
            return repr(fn(*xyt))
        except DomcertError as exc:
            return type(exc).__name__, str(exc)

    for _ in range(4):
        xyt = data.draw(x), data.draw(x), data.draw(t)
        assert outcome(parts, *xyt) == outcome(_gap_parts, pair, h, phi, *xyt)
