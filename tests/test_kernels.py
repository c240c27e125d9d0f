import math

import pytest

from conftest import simpson
from domcert.expr import EvalError, parse
from domcert.kernels import (
    Kernel,
    KernelError,
    chebyshev_points,
    kernel_integral,
    kernel_value,
    make_kernel,
)


class TestBuiltinConstants:
    """Midpoint coefficients 1/(2 h(1/2)) and kernel integrals, exact."""

    def test_linear(self):
        k = make_kernel("linear")
        assert k.midpoint_coefficient == 1.0
        assert kernel_integral(k) == (0.5, 0.0)

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_power(self, s):
        k = make_kernel("power", s=s)
        assert k.midpoint_coefficient == 2.0 ** (s - 1.0)
        assert kernel_integral(k) == (1.0 / (s + 1.0), 0.0)

    def test_reciprocal(self):
        k = make_kernel("reciprocal")
        assert k.midpoint_coefficient == 0.25
        value, err = kernel_integral(k)
        assert math.isinf(value)
        assert k.divergent

    def test_one(self):
        k = make_kernel("one")
        assert k.midpoint_coefficient == 0.5
        assert kernel_integral(k) == (1.0, 0.0)

    def test_only_reciprocal_diverges(self):
        assert not make_kernel("linear").divergent
        assert not make_kernel("power", s=0.5).divergent
        assert not make_kernel("one").divergent


class TestValues:
    def test_linear_values(self):
        k = make_kernel("linear")
        assert kernel_value(k, 0.25) == 0.25

    def test_reciprocal_values(self):
        k = make_kernel("reciprocal")
        assert kernel_value(k, 0.25) == 4.0

    def test_one_values(self):
        k = make_kernel("one")
        assert kernel_value(k, 0.9) == 1.0

    def test_power_values(self):
        k = make_kernel("power", s=0.5)
        assert kernel_value(k, 0.25) == 0.5

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.5, 1.5])
    def test_argument_outside_open_interval(self, t):
        k = make_kernel("linear")
        with pytest.raises(EvalError) as info:
            kernel_value(k, t)
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
        value, err = kernel_integral(k)
        assert abs(value - 0.5) <= 1e-9

    def test_signed_zero_constants_make_different_kernels(self):
        pos = make_kernel("custom", expr=parse("1+0.0*t"))
        neg = make_kernel("custom", expr=parse("1+(-0.0)*t"))
        assert pos != neg
        assert pos == make_kernel("custom", expr=parse("1 + 0.0*t"))

    def test_custom_parabola_integral_against_oracle(self):
        k = make_kernel("custom", expr=parse("t*(1-t) + 0.25"))
        value, err = kernel_integral(k)
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
        value, _ = kernel_integral(k)
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
