import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import simpson
from domcert import kernels, quadrature
from domcert.expr import EvalError, parse
from domcert.kernels import (
    Kernel,
    KernelError,
    chebyshev_points,
    make_kernel,
)


class TestBuiltinConstants:
    """Midpoint coefficients 1/(2 h(1/2)) and kernel integrals, exact."""

    def test_linear(self):
        k = make_kernel("linear")
        assert k.midpoint_coefficient == 1.0
        assert (k.integral, k.integral_error) == (0.5, 0.0)

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_power(self, s):
        k = make_kernel("power", s=s)
        assert k.midpoint_coefficient == 2.0 ** (s - 1.0)
        assert (k.integral, k.integral_error) == (1.0 / (s + 1.0), 0.0)

    def test_reciprocal(self):
        k = make_kernel("reciprocal")
        assert k.midpoint_coefficient == 0.25
        value, err = k.integral, k.integral_error
        assert math.isinf(value)
        assert k.divergent

    def test_one(self):
        k = make_kernel("one")
        assert k.midpoint_coefficient == 0.5
        assert (k.integral, k.integral_error) == (1.0, 0.0)

    def test_only_reciprocal_diverges(self):
        assert not make_kernel("linear").divergent
        assert not make_kernel("power", s=0.5).divergent
        assert not make_kernel("one").divergent


class TestValues:
    def test_linear_values(self):
        k = make_kernel("linear")
        assert k.value(0.25) == 0.25

    def test_reciprocal_values(self):
        k = make_kernel("reciprocal")
        assert k.value(0.25) == 4.0

    def test_one_values(self):
        k = make_kernel("one")
        assert k.value(0.9) == 1.0

    def test_power_values(self):
        k = make_kernel("power", s=0.5)
        assert k.value(0.25) == 0.5

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.5, 1.5])
    def test_argument_outside_open_interval(self, t):
        k = make_kernel("linear")
        with pytest.raises(EvalError) as info:
            k.value(t)
        assert info.value.kind == "domain"


class TestValidation:
    @pytest.mark.parametrize("s", [0.0, 1.0, 1.5, -0.5])
    def test_power_exponent_range(self, s):
        with pytest.raises(KernelError) as info:
            make_kernel("power", s=s)
        assert info.value.reason == "invalid"

    def test_unknown_kind(self):
        with pytest.raises(KernelError) as info:
            make_kernel("cubic")
        assert info.value.reason == "invalid"

    def test_custom_requires_expression(self):
        with pytest.raises(KernelError):
            make_kernel("custom")

    def test_custom_rejects_x_variable(self):
        with pytest.raises(KernelError) as info:
            make_kernel("custom", expr=parse("x + 1"))
        assert info.value.reason == "invalid"

    def test_custom_rejects_nonpositive(self):
        with pytest.raises(KernelError) as info:
            make_kernel("custom", expr=parse("t - 0.5"))
        assert info.value.reason == "nonpositive"

    def test_custom_rejects_domain_fault(self):
        with pytest.raises(KernelError) as info:
            make_kernel("custom", expr=parse("ln(t - 0.5)"))
        assert info.value.reason == "domain"

    @pytest.mark.parametrize(
        "constant", ["half_value", "midpoint_coefficient", "integral", "integral_error"]
    )
    def test_constants_cannot_be_passed_in(self, constant):
        # a hand-set h(1/2) of 5.0 for h(t) = t once made the midpoint lhs
        # 0.308 instead of 1/12
        with pytest.raises(TypeError):
            Kernel("custom", expr=parse("t"), **{constant: 5.0})
        with pytest.raises(TypeError):
            make_kernel("linear", **{constant: 5.0})


class TestCustomKernels:
    def test_custom_t_matches_linear(self):
        k = make_kernel("custom", expr=parse("t"))
        assert k.half_value == 0.5
        assert k.midpoint_coefficient == 1.0
        value, err = k.integral, k.integral_error
        assert abs(value - 0.5) <= 1e-9

    def test_signed_zero_constants_make_different_kernels(self):
        pos = make_kernel("custom", expr=parse("1+0.0*t"))
        neg = make_kernel("custom", expr=parse("1+(-0.0)*t"))
        assert pos != neg
        assert pos == make_kernel("custom", expr=parse("1 + 0.0*t"))

    def test_custom_parabola_integral_against_oracle(self):
        k = make_kernel("custom", expr=parse("t*(1-t) + 0.25"))
        value, err = k.integral, k.integral_error
        oracle = simpson(lambda t: t * (1.0 - t) + 0.25, 1e-9, 1.0 - 1e-9)
        assert abs(value - oracle) <= 1e-8
        assert abs(value - (1.0 / 6.0 + 0.25)) <= max(err, 1e-9)

    def test_custom_divergent_reciprocal(self):
        k = make_kernel("custom", expr=parse("1/t"))
        assert k.divergent
        assert k.half_value == 2.0
        assert k.midpoint_coefficient == 0.25

    def test_custom_constant(self):
        k = make_kernel("custom", expr=parse("1"))
        assert k.midpoint_coefficient == 0.5
        value = k.integral
        assert abs(value - 1.0) <= 1e-9

    def test_describe_shows_source(self):
        k = make_kernel("custom", expr=parse("t^0.25"))
        assert "t^0.25" in k.describe()


class TestChebyshevProbe:
    def test_points_are_interior_and_sorted(self):
        pts = chebyshev_points(33, 0.0, 1.0)
        assert len(pts) == 33
        assert all(0.0 < p < 1.0 for p in pts)
        assert pts == sorted(pts)

    def test_probe_clusters_near_edges(self):
        pts = chebyshev_points(101, 0.0, 1.0)
        # edge gaps much tighter than center gaps
        assert (pts[1] - pts[0]) < 0.2 * (pts[51] - pts[50])


class TestDescribe:
    @pytest.mark.parametrize(
        "kind,fragment",
        [("linear", "linear"), ("reciprocal", "1/t"), ("one", "one")],
    )
    def test_mentions_shape(self, kind, fragment):
        assert fragment in make_kernel(kind).describe()

    def test_power_mentions_exponent(self):
        assert "0.5" in make_kernel("power", s=0.5).describe()

    @pytest.mark.parametrize("kind,s", [("linear", None), ("power", 0.37),
                                        ("reciprocal", None), ("one", None)])
    def test_built_in_source_parsed_once(self, kind, s):
        first, second = make_kernel(kind, s=s), make_kernel(kind, s=s)
        assert second.expr is first.expr
        assert second == first
        assert second.expr == parse(first.expr.source)

    def test_power_sources_do_not_share_an_expression(self):
        a, b = make_kernel("power", s=0.25), make_kernel("power", s=0.75)
        assert a.describe() == "power: h(t) = t^0.25"
        assert b.describe() == "power: h(t) = t^0.75"
        assert a != b and a.value(0.5) != b.value(0.5)

    def test_kernel_is_frozen(self):
        k = make_kernel("linear")
        assert isinstance(k, Kernel)
        with pytest.raises(Exception):
            k.kind = "one"


# ---------------------------------------------------------------------------
# The one-pass probe against the pointwise loop, and a kernel built on the
# fast paths against one built with the pointwise probe and every panel of
# its integral on the guarded loop.
# ---------------------------------------------------------------------------

GRID = kernels._probe_grid()


def _outcome(run):
    try:
        return repr(run())
    except Exception as exc:  # the outcome, whatever it is, is what is compared
        return repr((type(exc), getattr(exc, "reason", None), str(exc)))


def _constants(k):
    return k.half_value, k.midpoint_coefficient, k.integral, k.integral_error


def _reference_build(expr, quad_tol):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_check_probe", kernels._check_probe_pointwise)
        mp.setattr(quadrature, "_panel", lambda fun, a, b: None)
        return _constants(make_kernel("custom", expr=expr, quad_tol=quad_tol))


# each good before GRID[i] and bad at it or after it; {after} is 0 up to
# GRID[i] and 2*(t - GRID[i]) past it
_BAD_AT = {
    "zero at": "{k}*abs(t-{ti})",
    "negative after": "{k}*({ti}-t)+1e-300",
    "division by zero at": "{k}/abs(t-{ti})",
    "ln of zero at": "ln({k}*abs(t-{ti}))+40",
    "inf at": "1e300/(abs(t-{ti})+1e-300)+{k}",
    "sqrt of a negative after": "sqrt({ti}-t)+{k}",
    "exp overflow after": "exp({after}*1e10+{k})",
    "power overflow after": "{k}*({after}*1e10+2)^1000",
    "nan after": "{k}+({after}*1e300*1e300-{after}*1e300*1e300)",
}


def _bad_at(shape, i, k):
    ti = repr(GRID[i])
    return _BAD_AT[shape].format(ti=ti, k=k, after=f"(abs(t-{ti})+(t-{ti}))")


class TestOnePassProbe:
    @settings(max_examples=150, deadline=None)
    @given(
        i=st.integers(0, len(GRID) - 1),
        shape=st.sampled_from(sorted(_BAD_AT)),
        k=st.sampled_from(["1", "0.5", "3"]),
    )
    def test_faults_and_nonpositive_values_raise_as_the_pointwise_loop(self, i, shape, k):
        expr = parse(_bad_at(shape, i, k))
        want = _outcome(lambda: kernels._check_probe_pointwise(expr))
        assert _outcome(lambda: kernels._check_probe(expr)) == want
        assert "KernelError" in want or i == len(GRID) - 1
        built = _outcome(lambda: _constants(make_kernel("custom", expr=expr, quad_tol=1e-6)))
        assert built == _outcome(lambda: _reference_build(expr, 1e-6))

    @settings(max_examples=60, deadline=None)
    @given(
        source=st.sampled_from(["t^(-{p})", "1+t^{p}", "exp(-{p}*t)+t", "1/(t+{p})",
                                "abs(t-{p})+0.01", "(1-t)^(-{p})+ln(1+t)", "1/t^{p}"]),
        p=st.sampled_from(["0.25", "0.5", "0.75", "0.9"]),
        quad_tol=st.sampled_from([1e-6, 1e-10]),
    )
    def test_good_kernels_build_the_same_constants(self, source, p, quad_tol):
        expr = parse(source.format(p=p))
        got = _constants(make_kernel("custom", expr=expr, quad_tol=quad_tol))
        assert repr(got) == repr(_reference_build(expr, quad_tol))

    def test_a_sum_that_overflows_falls_back_and_passes(self):
        # every value finite and positive, their sum inf: the loop finds nothing
        expr = parse("1e305+t")
        kernels._check_probe(expr)
        assert make_kernel("custom", expr=expr, quad_tol=1e-6).half_value == 1e305
