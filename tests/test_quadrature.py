import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import simpson
from domcert import quadrature
from domcert.expr import EvalError, parse
from domcert.quadrature import (
    QuadratureError,
    QuadResult,
    _guarded,
    integrate,
    integrate_open01,
)


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

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            integrate(math.sin, 0.0, 1.0, tol=0.0)

    def test_result_is_frozen(self):
        r = integrate(lambda x: x, 0.0, 1.0)
        assert isinstance(r, QuadResult)
        with pytest.raises(Exception):
            r.value = 0.0


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


# ---------------------------------------------------------------------------
# The straight-line panel against the looped guarded one.  With _panel
# patched to report a non-finite sum on every panel, integrate runs each
# panel through _guarded and _looped_panel: the reference path.
# ---------------------------------------------------------------------------


def _outcome(run):
    """repr of the QuadResult, or the exception's type, reason and message."""
    try:
        return repr(run())
    except Exception as exc:  # the outcome, whatever it is, is what is compared
        return repr((type(exc), getattr(exc, "reason", None), str(exc)))


def _both(fun, a, b, tol=1e-9, max_panels=400):
    fast = _outcome(lambda: integrate(fun, a, b, tol, max_panels))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_panel", lambda fun, a, b: None)
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
        want = quadrature._looped_panel(recording(looped_calls), *ends)
        assert fast_calls == looped_calls
        assert repr(got) == repr(want)

    @PROPERTY
    @given(source=FAULT_TREES, ends=ENDS)
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
    @given(source=FAULT_TREES, ends=ENDS)
    def test_panels_match_bit_for_bit(self, source, ends):
        raw = parse(source).raw
        try:
            want = quadrature._looped_panel(raw, *ends)
        except (EvalError, ArithmeticError, ValueError) as exc:
            with pytest.raises(type(exc)):
                quadrature._panel(raw, *ends)
            return
        got = quadrature._panel(raw, *ends)
        # None only for a non-finite sum, which leaves a non-finite estimate
        assert repr(got) == repr(want) if got is not None else not math.isfinite(want[1])
