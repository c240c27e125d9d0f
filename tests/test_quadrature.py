import contextlib
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import simpson
from domcert import quadrature
from domcert.expr import EvalError, parse
from domcert.quadrature import (
    QuadratureError,
    QuadResult,
    _guarded,
    _total,
    integrate,
    integrate_open01,
    midpoint,
)

HUGE = 1.7976931348623157e308


class TestConstantExactness:
    # the center weights are renormalized so both embedded rules sum to
    # exactly 2.0; dyadic constants must then integrate with zero error
    @pytest.mark.parametrize("c", [1.0, 0.5, 2.0, -4.0])
    @pytest.mark.parametrize("bounds", [(0.0, 1.0), (0.0, 2.0), (-1.0, 3.0)])
    def test_dyadic_constants_exact(self, c, bounds):
        a, b = bounds
        r = integrate(lambda x: c, a, b)
        assert r.value == c * (b - a)
        assert r.subdivisions == 1

    def test_arbitrary_constant_within_two_ulp(self):
        r = integrate(lambda x: 0.7, 0.0, 1.0)
        assert abs(r.value - 0.7) <= 2.0 * math.ulp(0.7)


class TestSmoothIntegrands:
    def test_polynomials_through_degree_six(self):
        for k in range(7):
            r = integrate(lambda x, k=k: x**k, 0.0, 1.0)
            assert abs(r.value - 1.0 / (k + 1)) <= max(r.error_estimate, 1e-10)

    def test_exponential(self):
        r = integrate(math.exp, -1.0, 2.0)
        truth = math.e**2 - math.exp(-1.0)
        assert abs(r.value - truth) <= max(r.error_estimate, 1e-10)

    def test_sine_over_half_period(self):
        r = integrate(math.sin, 0.0, math.pi)
        assert abs(r.value - 2.0) <= max(r.error_estimate, 1e-10)

    def test_oscillatory(self):
        r = integrate(lambda x: math.cos(10.0 * x), 0.0, 1.0)
        assert abs(r.value - math.sin(10.0) / 10.0) <= max(r.error_estimate, 1e-10)

    def test_runge_bump(self):
        r = integrate(lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0)
        assert abs(r.value - 0.4 * math.atan(5.0)) <= max(r.error_estimate, 1e-10)

    def test_estimate_covers_true_error_on_kink(self):
        r = integrate(lambda x: abs(x - 1.0 / 3.0), 0.0, 1.0)
        assert abs(r.value - 5.0 / 18.0) <= max(r.error_estimate, 1e-10)
        assert r.subdivisions > 1

    def test_square_root_endpoint_derivative_blowup(self):
        r = integrate(math.sqrt, 0.0, 1.0)
        assert abs(r.value - 2.0 / 3.0) <= max(r.error_estimate, 1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_matches_simpson_oracle_on_random_cubics(self, c0, c1, c3):
        fn = lambda x: c0 + c1 * x + c3 * x**3
        r = integrate(fn, -1.0, 2.0)
        assert r.value == pytest.approx(simpson(fn, -1.0, 2.0), abs=1e-8)


class TestDriver:
    def test_splits_are_deterministic(self):
        fn = lambda x: math.sin(7.0 * x) + abs(x - 0.3)
        a = integrate(fn, 0.0, 2.0)
        b = integrate(fn, 0.0, 2.0)
        assert a == b

    def test_budget_error(self):
        with pytest.raises(QuadratureError) as info:
            integrate(lambda x: math.sin(50.0 * x), 0.0, 10.0, tol=1e-14, max_panels=2)
        assert info.value.reason == "budget"

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            integrate(math.sin, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate(math.sin, 0.0, math.inf)

    def test_a_width_that_overflows_is_refused(self):
        # b - a is inf: the one panel once returned QuadResult(inf, nan, 1)
        with pytest.raises(ValueError, match=r"finite width"):
            integrate(lambda x: 1.0, -1e308, 1e308)

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            integrate(math.sin, 0.0, 1.0, tol=0.0)

    def test_result_is_frozen(self):
        r = integrate(lambda x: x, 0.0, 1.0)
        assert isinstance(r, QuadResult)
        with pytest.raises(Exception):
            r.value = 0.0


FINITE = st.floats(allow_nan=False, allow_infinity=False)
HUGE_PARTS = st.lists(st.tuples(st.floats(1e300, HUGE), st.booleans()).map(
    lambda p: -p[0] if p[1] else p[0]), min_size=1, max_size=20)


class TestFloatEdges:
    @given(FINITE, FINITE)
    def test_a_midpoint_keeps_the_bits_of_a_finite_sum(self, a, b):
        if math.isfinite(a + b):
            assert midpoint(a, b).hex() == (0.5 * (a + b)).hex()
        else:  # from halves: finite, and between a and b
            assert midpoint(a, b) == 0.5 * a + 0.5 * b
            assert min(a, b) <= midpoint(a, b) <= max(a, b)

    def test_an_interval_whose_sum_overflows_is_integrated(self):
        # every panel's center 0.5 * (a + b) was inf, and so was the value
        r = integrate(lambda x: 1e-308 * x, 1e308, 1.7e308)
        assert r.value == pytest.approx(1e-308 * 0.7e308 * 1.35e308, rel=1e-12)

    def test_a_total_that_overflows_is_inf(self):
        # two finite panels whose sum overflows: fsum raised OverflowError
        r = integrate(lambda x: 0.6e308 if x < 2 else 0.5e308, 0.0, 4.0)
        assert r.value == math.inf
        assert r.error_estimate == 0.0

    def test_a_total_of_inf_and_minus_inf_is_nan(self):
        # panels of -inf and inf: fsum raised ValueError
        r = integrate(lambda x: math.copysign(1.7e308, x) + 1e300 * x ** 9, -1.0, 1.0)
        assert math.isnan(r.value)

    @given(st.lists(FINITE, max_size=20))
    def test_a_total_keeps_fsums_bits(self, parts):
        try:
            want = math.fsum(parts)
        except OverflowError:
            return
        assert _total(parts).hex() == want.hex()

    @given(st.lists(st.one_of(FINITE, st.floats(1e307, HUGE), st.floats(-HUGE, -1e307)),
                    max_size=12).flatmap(lambda parts: st.permutations(parts).map(
                        lambda shuffled: (parts, shuffled))))
    @example(([HUGE, HUGE, -HUGE], [HUGE, -HUGE, HUGE]))
    def test_a_total_is_free_of_the_order_of_its_parts(self, orders):
        # integrate sums its panels in heap order: fsum is exactly rounded, and
        # its overflow fallback is too, also where fsum raises in one order only
        parts, shuffled = orders
        assert _total(parts).hex() == _total(shuffled).hex()

    def test_fsum_can_overflow_in_one_order_only(self):
        with pytest.raises(OverflowError):
            math.fsum([HUGE, HUGE, -HUGE])
        assert math.fsum([HUGE, -HUGE, HUGE]) == HUGE == _total([HUGE, HUGE, -HUGE])

    @given(HUGE_PARTS)
    def test_a_total_is_the_rounded_exact_sum_or_inf(self, parts):
        exact = sum(map(Fraction, parts))
        try:
            want = float(exact)
        except OverflowError:
            want = -math.inf if exact < 0 else math.inf
        assert _total(parts) == want


class TestGuardedWrapper:
    def test_fault_at_edge_retries_one_nudge_inside(self):
        g = _guarded(lambda x: 1.0 / x, 0.0, 1.0)
        assert g(0.0) == 1e12

    def test_fault_at_interior_node_is_eval_error(self):
        def fn(x):
            if x == 0.5:
                raise ValueError("pole")
            return 1.0

        g = _guarded(fn, 0.0, 1.0)
        with pytest.raises(QuadratureError) as info:
            g(0.5)
        assert info.value.reason == "eval"

    def test_persistent_edge_fault_is_eval_error(self):
        def fn(x):
            raise ValueError("always")

        g = _guarded(fn, 0.0, 1.0)
        with pytest.raises(QuadratureError) as info:
            g(0.0)
        assert info.value.reason == "eval"


class TestOpenUnitInterval:
    def test_regular_integrand_matches_closed_value(self):
        r = integrate_open01(lambda t: t)
        assert abs(r.value - 0.5) <= 1e-9

    def test_square_root(self):
        r = integrate_open01(math.sqrt)
        assert abs(r.value - 2.0 / 3.0) <= max(r.error_estimate, 1e-10)

    def test_inverse_square_root_converges(self):
        r = integrate_open01(lambda t: t**-0.5)
        assert abs(r.value - 2.0) <= max(r.error_estimate, 1e-10)
        assert math.isfinite(r.value)

    def test_log_singularity(self):
        r = integrate_open01(lambda t: -math.log(t))
        assert abs(r.value - 1.0) <= max(r.error_estimate, 1e-10)

    def test_quarter_power_singularity(self):
        r = integrate_open01(lambda t: t**-0.25)
        assert abs(r.value - 4.0 / 3.0) <= max(r.error_estimate, 1e-10)

    def test_harmonic_divergence_reported_as_inf(self):
        r = integrate_open01(lambda t: 1.0 / t)
        assert math.isinf(r.value)
        assert math.isinf(r.error_estimate)

    def test_quadratic_divergence_reported_as_inf(self):
        r = integrate_open01(lambda t: 1.0 / (t * t))
        assert math.isinf(r.value)

    def test_divergence_is_a_value_not_an_exception(self):
        r = integrate_open01(lambda t: 1.0 / t)
        assert isinstance(r, QuadResult)


def _six_rung_open01(fun, tol):
    """integrate_open01 over the ladder 1e-2, 1e-4, ..., 1e-12, whose first three
    rungs fed only the summed subdivisions: (value, error) of the last three."""
    results = [quadrature.integrate_split(fun, eps, 1.0 - eps, tol)
               for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12)]
    values = [r.value for r in results]
    d_last = values[-1] - values[-2]
    if abs(d_last) > 0.01 * max(abs(values[-1]), 1e-300):
        return math.inf, math.inf
    d_prev = values[-2] - values[-3]
    tail = 0.0
    if d_last != 0.0 and d_prev != 0.0:
        rho = abs(d_last) / abs(d_prev)
        if rho < 0.9:
            tail = d_last * rho / (1.0 - rho)
    return values[-1] + tail, results[-1].error_estimate + abs(d_last) + abs(tail)


# kernels without a power form: smooth, singular at an end, divergent, kinked,
# and one that faults inside (0, 1)
NO_FORM_KERNELS = [
    "t^(-0.5)+1", "1/(t*(1-ln(t))^2)", "1/sqrt(t-1e-8)", "exp(t)", "1+t", "sqrt(t)",
    "-ln(t)", "1/t+1", "1/(1-t)+1", "t^-0.9+0.1", "cos(t)", "2+sin(10*t)",
    "abs(t-0.3)+0.1", "exp(-1/t)+1", "ln(1+t)+1", "1/sqrt(t*(1-t))", "-ln(1-t)",
    "1/(t^0.5+(1-t)^0.5)", "t^t", "1/(t*(1-t))+1", "abs(2*t-1)+abs(t-0.25)",
    "(1-t)^(-0.5)+t",
]


def _bits_or_fault(run):
    """[value, error] of run() as float.hex, or the exception's type and message."""
    try:
        return [v.hex() for v in run()[:2]]
    except Exception as exc:  # the outcome, whatever it is, is what is compared
        return type(exc), str(exc)


class TestThreeRungLadder:
    """integrate_open01 integrates only the three rungs its result reads."""

    @pytest.mark.parametrize("tol", [1e-10, 1e-6])
    @pytest.mark.parametrize("source", NO_FORM_KERNELS)
    def test_the_ladder_matches_the_six_rung_reference(self, monkeypatch, source, tol):
        fun = parse(source)
        want = _bits_or_fault(lambda: _six_rung_open01(fun, tol))
        calls = []
        split = quadrature.integrate_split
        monkeypatch.setattr(quadrature, "integrate_split",
                            lambda *args: calls.append(args[1:]) or split(*args))
        got = _bits_or_fault(lambda: integrate_open01(fun, tol))
        assert got == want
        if isinstance(got, list):  # a fault stops the ladder at its rung
            assert calls == [(eps, 1.0 - eps, tol) for eps in (1e-8, 1e-10, 1e-12)]

    def test_the_battery_holds_a_fault_and_a_divergence(self):
        fault = _bits_or_fault(lambda: integrate_open01(parse("1/sqrt(t-1e-8)")))
        assert fault[0] is QuadratureError and "sqrt of a negative value" in fault[1]
        assert integrate_open01(parse("1/t+1")).value == math.inf


class TestSplitContract:
    """integrate_split splits only an Expr, and integrate never splits: a tracer
    that hands integrate a counting closure, and a kink-blind reference that
    calls it on a plain callable, see the bits of an untraced run."""

    C = 0.5020147025901347

    def test_a_plain_callable_is_integrated_whole(self, monkeypatch):
        calls = []
        monkeypatch.setattr(quadrature, "integrate",
                            lambda *args: calls.append(args[1:]) or integrate(*args))
        fun = parse(f"abs(x-{self.C!r})").evaluate
        got = quadrature.integrate_split(fun, 0.0, 1.0, 1e-10)
        assert calls == [(0.0, 1.0, 1e-10)]
        assert got == integrate(fun, 0.0, 1.0, 1e-10)

    def test_integrate_given_a_kinked_expr_makes_one_unsplit_call(self):
        e = parse(f"abs(x-{self.C!r})")
        whole = integrate(e, 0.0, 1.0, 1e-10)
        assert whole == integrate(lambda x: e.evaluate(x), 0.0, 1.0, 1e-10)
        exact = (Fraction(self.C) ** 2 + (1 - Fraction(self.C)) ** 2) / 2
        split = quadrature.integrate_split(e, 0.0, 1.0, 1e-10)
        assert abs(Fraction(split.value) - exact) <= split.error_estimate + math.ulp(0.25)
        assert abs(Fraction(whole.value) - exact) > 1e-6  # the kink the unsplit panels missed

    @pytest.mark.parametrize("a, b, tol", [
        (-1e308, 1e308, 1e-10),  # each piece about the kink at 0 has a finite width
        (1.0, -1.0, 1e-10), (-1.0, 1.0, 0.0), (-1.0, 1.0, -1.0), (-1.0, 1.0, math.nan),
    ])
    def test_a_kinked_expr_is_refused_as_integrate_refuses_it(self, a, b, tol):
        with pytest.raises(ValueError) as whole:
            integrate(parse("abs(x)"), a, b, tol)
        with pytest.raises(ValueError) as split:
            quadrature.integrate_split(parse("abs(x)"), a, b, tol)
        assert str(split.value) == str(whole.value)


# ---------------------------------------------------------------------------
# The reference: the G7/K15 rule as a loop over the tables of QUADPACK's
# qk15 (Piessens et al., 1983), against the straight-line _panel.  Each of
# _panel's constants is the published value cut to 17 significant digits,
# then rounded to a double; for the third Kronrod weight that is one ulp
# below the double nearest the published value.
# ---------------------------------------------------------------------------

# the positive Kronrod nodes, descending; the odd-indexed ones are the Gauss nodes
PUBLISHED_XGK = (
    "0.991455371120812639206854697526329", "0.949107912342758524526189684047851",
    "0.864864423359769072789712788640926", "0.741531185599394439863864773280788",
    "0.586087235467691130294144845693013", "0.405845151377397166906606412076961",
    "0.207784955007898467600689403773245",
)
# the Kronrod weights of those nodes, then of the center
PUBLISHED_WGK = (
    "0.022935322010529224963732008058970", "0.063092092629978553290700663189204",
    "0.104790010322250183839876322541518", "0.140653259715525918745189590510238",
    "0.169004726639267902826583426598550", "0.190350578064785409913256402421014",
    "0.204432940075298892414161999234649", "0.209482141084727828012999174891714",
)
# the Gauss weights of nodes 1, 3 and 5, then of the center
PUBLISHED_WG = (
    "0.129484966168869693270611432679082", "0.279705391489276667901467771423780",
    "0.381830050505118944950369775488975", "0.417959183673469387755102040816327",
)


def _cut(digits: str) -> float:
    return float(format(Decimal(digits), ".17g"))


XGK = tuple(map(_cut, PUBLISHED_XGK))
WGK = tuple(map(_cut, PUBLISHED_WGK[:-1]))
WG = tuple(map(_cut, PUBLISHED_WG[:-1]))
# the center weights are 2 - 2*(the sum of the others), so that each rule
# integrates a dyadic constant exactly
WGK_CENTER = 2.0 - 2.0 * math.fsum(WGK)
WG_CENTER = 2.0 - 2.0 * math.fsum(WG)


def looped_panel(fun, a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod pass over [a, b] from the tables: symmetric pairs
    from the outside in, the center last."""
    c = midpoint(a, b)
    h = 0.5 * (b - a)
    acc_k = 0.0
    acc_g = 0.0
    for i in range(7):
        dx = h * XGK[i]
        fs = fun(c - dx) + fun(c + dx)
        acc_k += WGK[i] * fs
        if i % 2 == 1:
            acc_g += WG[i // 2] * fs
    fc = fun(c)
    acc_k += WGK_CENTER * fc
    acc_g += WG_CENTER * fc
    return h * acc_k, abs(h * (acc_k - acc_g))


@contextlib.contextmanager
def fault_pass_only():
    """Within it, each panel's raw pass fails, so integrate reruns every
    panel through _guarded, and that pass runs looped_panel: the reference
    path.  Yields the MonkeyPatch, which undoes this on exit."""
    guarded = quadrature._guarded(abs, 0.0, 1.0).__code__

    def panel(fun, a, b):
        if getattr(fun, "__code__", None) is not guarded:
            raise ArithmeticError("the raw pass, made to fail")
        return looped_panel(fun, a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_panel", panel)
        yield mp


def _outcome(run):
    """repr of the QuadResult, or the exception's type, reason and message."""
    try:
        return repr(run())
    except Exception as exc:  # the outcome, whatever it is, is what is compared
        return repr((type(exc), getattr(exc, "reason", None), str(exc)))


def _both(fun, a, b, tol=1e-9, max_panels=400):
    fast = _outcome(lambda: integrate(fun, a, b, tol, max_panels))
    with fault_pass_only():
        looped = _outcome(lambda: integrate(fun, a, b, tol, max_panels))
    return fast, looped


_FAULT_LEAVES = st.one_of(
    st.just("x"),
    st.sampled_from(["0.5", "2", "(-1.5)", "0.0", "(-0.0)", "700", "1e308"]),
)


def _fault_ops(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(
            lambda a: f"({''.join(a)})"
        ),
        st.tuples(children, st.sampled_from(["2", "3", "0.5", "(-1)", "(-0.5)", "400"])).map(
            lambda a: f"({a[0]})^{a[1]}"
        ),
        st.tuples(children, children).map(lambda a: f"({a[0]})^({a[1]})"),
        st.tuples(st.sampled_from(["exp", "ln", "sqrt", "abs", "sin", "cos"]), children).map(
            lambda a: f"{a[0]}({a[1]})"
        ),
        children.map(lambda a: f"(-{a})"),
    )


# ln/sqrt of negatives, exp and ^ overflowing, 1/x across 0, inf from 1e308*...
FAULT_TREES = st.recursive(_FAULT_LEAVES, _fault_ops, max_leaves=4)
ENDS = st.tuples(st.floats(-2.0, 2.0), st.floats(1e-3, 4.0)).map(lambda p: (p[0], p[0] + p[1]))
PROPERTY = settings(max_examples=150, deadline=None)


class TestStraightLinePanel:
    def test_the_tables_are_the_published_rule(self):
        published = [float(x) for x in PUBLISHED_XGK + PUBLISHED_WGK[:-1] + PUBLISHED_WG[:-1]]
        cut = XGK + WGK + WG
        assert all(abs(p - c) <= math.ulp(p) for p, c in zip(published, cut))
        assert [i for i, (p, c) in enumerate(zip(published, cut)) if p != c] == [9]  # WGK[2]
        assert abs(WGK_CENTER - float(PUBLISHED_WGK[-1])) <= 2 * math.ulp(WGK_CENTER)
        assert abs(WG_CENTER - float(PUBLISHED_WG[-1])) <= 2 * math.ulp(WG_CENTER)

    def test_the_center_weights_are_the_panels_literals(self):
        def center_only(x):
            return 1.0 if x == 0.0 else 0.0

        # over [-1, 1] the panel is (Kronrod center weight, |the difference
        # of the two|), and that difference is exact: they are within 2x
        want = (WGK_CENTER, abs(WGK_CENTER - WG_CENTER))
        assert quadrature._panel(center_only, -1.0, 1.0) == want
        assert looped_panel(center_only, -1.0, 1.0) == want

    @PROPERTY
    @given(ends=ENDS, scale=st.floats(1e-3, 1e3))
    def test_same_nodes_same_sums(self, ends, scale):
        def recording(log):
            def fun(x):
                log.append(repr(x))
                return math.sin(scale * x) * scale + x * x

            return fun

        fast_calls, looped_calls = [], []
        got = quadrature._panel(recording(fast_calls), *ends)
        want = looped_panel(recording(looped_calls), *ends)
        assert fast_calls == looped_calls
        assert repr(got) == repr(want)

    @PROPERTY
    @given(source=FAULT_TREES, ends=ENDS)
    @example("1e308/(x*1000)", (0.0, 0.1))  # inf at the outer Kronrod node alone
    def test_expr_integrals_match_the_guarded_loop(self, source, ends):
        fast, looped = _both(parse(source), *ends)
        assert fast == looped

    @PROPERTY
    @given(
        source=FAULT_TREES,
        ends=ENDS,
        error=st.sampled_from([ValueError, ZeroDivisionError, OverflowError, EvalError]),
        side=st.sampled_from(["a", "b"]),
        reach=st.sampled_from([0.0, 1e-13, 1e-9, 1e-3, 0.3]),
    )
    def test_callables_that_raise_near_an_end_match(self, source, ends, error, side, reach):
        a, b = ends
        inner = parse(source).raw  # raises and returns non-finite values unguarded
        edge, width = (a if side == "a" else b), reach * (b - a)

        def fun(x):
            if abs(x - edge) <= width:
                raise error("domain", "raised near an end") if error is EvalError else error(
                    f"raised at {x!r}"
                )
            return inner(x)

        fast, looped = _both(fun, a, b)
        assert fast == looped

    @PROPERTY
    @given(
        source=FAULT_TREES,
        ends=ENDS,
        bad=st.sampled_from([math.inf, -math.inf, math.nan]),
        where=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 0.5)),
    )
    @example("x", (0.0, 1.0), math.inf, (0.5, 0.0))  # inf at the center only
    @example("x", (0.0, 1.0), math.nan, (0.0, 1.0))  # nan at every node
    @example("x", (0.0, 1.0), -math.inf, (0.0, 0.1))  # -inf at the left nodes
    def test_callables_that_return_non_finite_values_match(self, source, ends, bad, where):
        a, b = ends
        inner = parse(source).raw
        lo = a + where[0] * (b - a)
        hi = lo + where[1] * (b - a)

        def fun(x):  # never raises: the rerun gets the same non-finite values
            if lo <= x <= hi:
                return bad
            try:
                return inner(x)
            except (EvalError, ArithmeticError, ValueError):
                return math.nan

        fast, looped = _both(fun, a, b)
        assert fast == looped

    @PROPERTY
    @given(source=FAULT_TREES, ends=ENDS)
    def test_panels_match_bit_for_bit(self, source, ends):
        raw = parse(source).raw
        try:
            want = looped_panel(raw, *ends)
        except (EvalError, ArithmeticError, ValueError) as exc:
            with pytest.raises(type(exc)):
                quadrature._panel(raw, *ends)
            return
        assert repr(quadrature._panel(raw, *ends)) == repr(want)
