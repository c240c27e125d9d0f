"""Closed-form oracle checks for the two-sided integral bound reports.

Every expected number below is derived by hand before the assertion and
frozen; the derivations use only freshman calculus on f = x^2, g = 2x^2:

    mean of x^2 over [0,1]      = 1/3
    mean of x^2 over [1/2,1]    = 2*(1/3 - 1/24) = 7/12
    f((0+1)/2) = 1/4, f((1/2+1)/2) = 9/16
    f(0)+f(1) = 1, g(0)+g(1) = 2
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import simpson
from domcert.analysis import breakpoints
from domcert.convexity import FunctionPair
from domcert.expr import parse
from domcert.geometry import Interval, identity_map, make_affine
from domcert.hadamard import (
    HHReport,
    ReportError,
    hh_bounds_report,
    hh_endpoint_report,
    hh_midpoint_report,
    special_case_report,
)
from domcert.kernels import Kernel, make_kernel
from domcert.quadrature import QuadratureError, integrate
from domcert import cli, hadamard, quadrature
from domcert import expr as expr_module

UNIT = Interval(0.0, 1.0)
IDENT = identity_map(UNIT)
PAIR = FunctionPair(parse("x^2"), parse("2*x^2"))


def _close(got: float, want: float, tol: float = 1e-9) -> bool:
    return abs(got - want) <= tol


class TestMidpointClosedForms:
    def test_linear_kernel_identity_map(self):
        # c = 1: lhs = |1/3 - 1/4| = 1/12, rhs = 2/3 - 1/2 = 1/6
        r = hh_midpoint_report(PAIR, make_kernel("linear"), IDENT)
        assert r.bound_kind == "midpoint"
        assert _close(r.lhs, 1.0 / 12.0)
        assert _close(r.rhs, 1.0 / 6.0)
        assert r.holds and not r.vacuous

    def test_linear_kernel_shifted_map(self):
        # image [1/2, 1]: lhs = |7/12 - 9/16| = 1/48, rhs = 7/6 - 9/8 = 1/24
        phi = make_affine(0.5, 0.5, UNIT)
        r = hh_midpoint_report(PAIR, make_kernel("linear"), phi)
        assert _close(r.lhs, 1.0 / 48.0)
        assert _close(r.rhs, 1.0 / 24.0)
        assert r.holds

    def test_constant_kernel(self):
        # c = 1/2: lhs = |1/3 - 1/8| = 5/24, rhs = 2/3 - 1/4 = 5/12
        r = hh_midpoint_report(PAIR, make_kernel("one"), IDENT)
        assert _close(r.lhs, 5.0 / 24.0)
        assert _close(r.rhs, 5.0 / 12.0)
        assert r.holds

    def test_reciprocal_kernel(self):
        # c = 1/4: lhs = |1/3 - 1/16| = 13/48, rhs = 2/3 - 1/8 = 13/24
        r = hh_midpoint_report(PAIR, make_kernel("reciprocal"), IDENT)
        assert _close(r.lhs, 13.0 / 48.0)
        assert _close(r.rhs, 13.0 / 24.0)
        assert r.holds

    def test_power_half_kernel(self):
        # c = 2^(-1/2): lhs = |1/3 - sqrt(2)/8|, rhs doubles it (g = 2f)
        c = 2.0 ** (-0.5)
        want = abs(1.0 / 3.0 - c / 4.0)
        r = hh_midpoint_report(PAIR, make_kernel("power", s=0.5), IDENT)
        assert _close(r.lhs, want)
        assert _close(r.rhs, 2.0 * want)
        assert r.holds

    def test_quad_error_is_small(self):
        r = hh_midpoint_report(PAIR, make_kernel("linear"), IDENT)
        assert 0.0 <= r.quad_error < 1e-9


class TestEndpointClosedForms:
    def test_linear_kernel(self):
        # H = 1/2: lhs = |1/2 - 1/3| = 1/6, rhs = 1 - 2/3 = 1/3
        r = hh_endpoint_report(PAIR, make_kernel("linear"), IDENT)
        assert r.bound_kind == "endpoint"
        assert _close(r.lhs, 1.0 / 6.0)
        assert _close(r.rhs, 1.0 / 3.0)
        assert r.holds and not r.vacuous

    def test_constant_kernel(self):
        # H = 1: lhs = |1 - 1/3| = 2/3, rhs = 2 - 2/3 = 4/3
        r = hh_endpoint_report(PAIR, make_kernel("one"), IDENT)
        assert _close(r.lhs, 2.0 / 3.0)
        assert _close(r.rhs, 4.0 / 3.0)

    def test_power_half_kernel(self):
        # H = 2/3: lhs = |2/3 - 1/3| = 1/3, rhs = 4/3 - 2/3 = 2/3
        r = hh_endpoint_report(PAIR, make_kernel("power", s=0.5), IDENT)
        assert _close(r.lhs, 1.0 / 3.0)
        assert _close(r.rhs, 2.0 / 3.0)

    def test_reciprocal_kernel_is_vacuous(self):
        r = hh_endpoint_report(PAIR, make_kernel("reciprocal"), IDENT)
        assert r.vacuous
        assert math.isinf(r.rhs)
        assert r.holds  # an infinite bound cannot fail

    def test_divergent_kernel_with_zero_endpoint_sum(self):
        # f vanishing at both endpoints kills the divergent term: the lhs
        # side stays finite even though the kernel integral is infinite
        pair = FunctionPair(parse("x*(1-x)"), parse("x^2 + 1"))
        r = hh_endpoint_report(pair, make_kernel("reciprocal"), IDENT)
        assert math.isfinite(r.lhs)
        assert r.vacuous  # dominator sum is still positive
        assert r.holds

    def test_divergent_kernel_with_negative_endpoint_sums(self):
        # f(0)+f(1) = -3 and g(0)+g(1) = -5 against an infinite H: lhs is
        # +inf and rhs is -inf, so the bound fails and says something
        pair = FunctionPair(parse("x - 2"), parse("x^2 - 3"))
        r = hh_endpoint_report(pair, make_kernel("reciprocal"), IDENT)
        assert r.lhs == math.inf and r.rhs == -math.inf
        assert not r.holds and not r.vacuous


class TestReportMechanics:
    def test_degenerate_image_rejected(self):
        flat = make_affine(0.0, 0.5, UNIT)
        with pytest.raises(ReportError) as info:
            hh_midpoint_report(PAIR, make_kernel("linear"), flat)
        assert info.value.reason == "degenerate"

    def test_an_image_wider_than_the_largest_float_is_refused(self, monkeypatch):
        # its means were inf/inf: nan bounds that failed without a word
        wide = identity_map(Interval(-1e308, 1e308))
        pair = FunctionPair(parse("1"), parse("2"))

        def integrate(*args):
            raise AssertionError("integrated")

        monkeypatch.setattr(quadrature, "integrate", integrate)
        for run in (lambda: hh_midpoint_report(pair, make_kernel("linear"), wide),
                    lambda: special_case_report(pair, wide, which="all", s=0.5)):
            with pytest.raises(ReportError) as info:
                run()
            assert info.value.reason == "range"
            assert str(info.value) == (
                "phi's image [-1e+308, 1e+308] is wider than the largest float;"
                " bounds are undefined")

    @pytest.mark.parametrize("f, g, role", [
        ("1e308*x^2", "1e308", "g"), ("1e308", "1e308*x^2", "f"), ("1e308", "1e308", "f"),
    ])
    def test_an_integral_that_overflows_is_refused(self, f, g, role):
        # integrate returned inf with error nan: rhs = inf, and the bound held
        pair = FunctionPair(parse(f), parse(g))
        source = pair.f.source if role == "f" else pair.g.source
        for run in (lambda: hh_midpoint_report(pair, make_kernel("linear"), IDENT),
                    lambda: special_case_report(pair, IDENT, which="all", s=0.5)):
            with pytest.raises(ReportError) as info:
                run()
            assert info.value.reason == "range"
            assert str(info.value) == (
                f"the integral of {role} = {source!r} over [0.0, 1.0] is inf with error nan;"
                " bounds are undefined")

    def test_the_same_pair_at_a_scale_that_fits_fails_its_bound(self):
        pair = FunctionPair(parse("1e300*x^2"), parse("1e300"))
        r = hh_midpoint_report(pair, make_kernel("linear"), IDENT)
        assert not r.holds
        assert r.margin == pytest.approx(-1e300 / 12.0)

    @pytest.mark.parametrize("lhs, rhs, atol, rtol, margin, holds", [
        (1.0, 1.0, 0.0, 0.0, 0.0, True),
        (1.0, 1.0 - 2.0 ** -40, 1e-12, 0.0, -2.0 ** -40, True),
        (1.0, 1.0 - 2.0 ** -40, 0.0, 0.0, -2.0 ** -40, False),
        (1.0, 0.5, 1e-9, 1e-9, -0.5, False),
        (math.inf, 1.0, 1e-9, 1e-9, -math.inf, False),
        (1.0, -math.inf, 1e-9, 0.0, -math.inf, False),
        (1.0, math.inf, 1e-9, 1e-9, math.inf, True),
        (math.inf, math.inf, 1e-9, 1e-9, math.inf, True),
        # atol + rtol * scale overflowed to inf, and -inf >= -inf held
        (1.2e308, -1.2e308, 1e-9, 2.0, -math.inf, False),
    ])
    def test_a_bound_holds_unless_its_margin_violates(self, lhs, rhs, atol, rtol, margin, holds):
        assert hadamard._holds(lhs, rhs, atol, rtol) == (margin, holds)

    def test_a_margin_of_minus_inf_never_holds(self):
        pair = FunctionPair(parse("-0.3e308"), parse("0.3e308"))
        r = hh_midpoint_report(pair, make_kernel("custom", expr=parse("0.1")), IDENT, rtol=2.0)
        assert r.lhs == pytest.approx(1.2e308) and r.rhs == pytest.approx(-1.2e308)
        assert (r.margin, r.holds) == (-math.inf, False)

    @pytest.mark.parametrize("h, bound, f, g", [
        # vg * H overflowed under H = 2: lhs = rhs = inf held, although the
        # exact lhs 1.8e308 exceeds the exact rhs 1.5e308
        ("2", "endpoint", "0.6e308", "0.5e308"),
        # c f(m) and c g(m) overflowed at c = 5e299: the exact margin is
        # about -5e309, and rhs = inf held
        ("1e-300", "midpoint", "2e10", "-1e10"),
        # only the left side overflowed, and its margin of -inf failed
        ("2", "endpoint", "0.6e308", "1"),
    ])
    def test_a_side_that_overflows_under_a_finite_integral_is_refused(self, h, bound, f, g):
        pair = FunctionPair(parse(f), parse(g))
        kernel = make_kernel("custom", expr=parse(h))
        assert math.isfinite(kernel.integral)
        with pytest.raises(ReportError) as info:
            hh_bounds_report(pair, IDENT, [(kernel, bound)])
        assert info.value.reason == "range"
        assert str(info.value).startswith(f"the {bound} bound has lhs = inf and rhs = ")
        assert str(info.value).endswith(", not both finite; the bound is undefined")

    @pytest.mark.parametrize("g, rhs, holds", [("0.5e308", math.inf, True),
                                               ("-0.5e308", -math.inf, False)])
    def test_an_infinite_side_under_a_divergent_integral_is_decided(self, g, rhs, holds):
        # the same pair under H = inf: the sides are infinite by the kernel
        pair = FunctionPair(parse("0.6e308"), parse(g))
        r = hh_endpoint_report(pair, make_kernel("reciprocal"), IDENT)
        assert (r.lhs, r.rhs, r.holds, r.vacuous) == (math.inf, rhs, holds, holds)

    def test_an_image_whose_sum_overflows_is_integrated_and_probed(self):
        # 0.5 * (a + b) was inf at every panel center and at the midpoint m
        huge = identity_map(Interval(1e308, 1.7e308))
        pair = FunctionPair(parse("1e-308*x"), parse("1.5e-308*x"))
        h = make_kernel("linear")
        reports = hh_bounds_report(pair, huge, [(h, "midpoint"), (h, "endpoint")])
        assert [(r.lhs, r.rhs, r.margin, r.holds) for r in reports] == [(0.0, 0.0, 0.0, True)] * 2

    def test_an_integral_whose_panel_sum_overflows_is_refused(self):
        # its two panels are finite, and fsum raised OverflowError on their sum
        huge = identity_map(Interval(1e308, 1.7e308))
        pair = FunctionPair(parse("1e-308*x"), parse("2e-308*x"))
        with pytest.raises(ReportError) as info:
            hh_midpoint_report(pair, make_kernel("linear"), huge)
        assert info.value.reason == "range"
        assert str(info.value) == ("the integral of g = '2e-308*x' over [1e+308, 1.7e+308] is inf"
                                   " with error 0.0; bounds are undefined")

    def test_overflowing_midpoint_weight_is_degenerate(self):
        # h(1/2) = 1e-310 makes 1/(2 h(1/2)) inf, and c f(m) = inf * 0 made
        # the report nan and failed instead of saying why
        pair = FunctionPair(parse("(x-0.5)^2"), parse("2*(x-0.5)^2"))
        tiny = make_kernel("custom", expr=parse("1e-310"))
        assert tiny.midpoint_coefficient == math.inf
        with pytest.raises(ReportError) as info:
            hh_bounds_report(pair, IDENT, [(tiny, "endpoint"), (tiny, "midpoint")])
        assert info.value.reason == "degenerate"
        assert "h(1/2) = 1e-310" in str(info.value)
        assert hh_endpoint_report(pair, tiny, IDENT).lhs == pytest.approx(1.0 / 12.0)
        small = make_kernel("custom", expr=parse("1e-300"))
        assert hh_midpoint_report(pair, small, IDENT).margin == pytest.approx(1.0 / 12.0)

    def test_negative_rhs_warns_without_erroring(self):
        # a concave dominator drives the right side negative: for g = 1-x^2
        # the midpoint rhs is 2/3 - 3/4 = -1/12; warn and fail, don't crash
        pair = FunctionPair(parse("0.1*x^2"), parse("1 - x^2"))
        r = hh_midpoint_report(pair, make_kernel("linear"), IDENT)
        assert not r.holds
        assert r.rhs == pytest.approx(-1.0 / 12.0, abs=1e-9)
        assert any("negative" in w for w in r.warnings)

    def test_negative_codomain_warning(self):
        pair = FunctionPair(parse("x - 2"), parse("x^2 + 4"))
        r = hh_midpoint_report(pair, make_kernel("linear"), IDENT)
        assert any("negative" in w for w in r.warnings)

    @pytest.mark.parametrize("f, g, midpoint, endpoint", [
        # f(1/2) = -0.1; f(0) + f(1) = 0.8 and g stay nonnegative
        ("x - 0.6", "x^2 + 4", ["f"], ["f"]),
        # f(0) = -0.3 is probed, but f(0) + f(1) = 0.4 gave no warning
        ("x - 0.3", "2*x^2 + 1", [], ["f"]),
        ("0.1*x^2", "3*x^2 - 0.2", [], ["g"]),
        # f(0) = -2 and f(1) = -1
        ("x^2 - 2", "x^2 + 4", ["f"], ["f"]),
    ])
    def test_each_probed_value_warns_when_negative(self, f, g, midpoint, endpoint):
        pair = FunctionPair(parse(f), parse(g))
        h = make_kernel("linear")
        mid, end = hh_bounds_report(pair, IDENT, [(h, "midpoint"), (h, "endpoint")])
        for report, roles in ((mid, midpoint), (end, endpoint)):
            assert report.rhs > 0.0
            # x^2 - 2 against x^2 + 4: an exact midpoint margin of 0 rounds to -4.4e-16
            excused = [hadamard.WITHIN_TOL_WARNING] if report.margin < 0.0 else []
            assert report.warnings == [hadamard.NEG_VALUES_WARNING.format(role=r)
                                       for r in roles] + excused

    def test_a_negative_rhs_warns_alone(self):
        # g = 1 - x^2 is nonnegative on [0, 1], but its midpoint rhs is -1/12
        pair = FunctionPair(parse("0.1*x^2"), parse("1 - x^2"))
        r = hh_midpoint_report(pair, make_kernel("linear"), IDENT)
        assert r.warnings == [hadamard.NEGATIVE_RHS_WARNING]

    def test_a_right_side_just_below_zero_warns(self):
        # rhs = -1e-301 * (2/3 - 1/2) = -8.33e-303: any negative right side
        # warns, however small, and the tolerance keeps the bound holding
        pair = FunctionPair(parse("0*x"), parse("-1e-301*x^2"))
        r = hh_midpoint_report(pair, make_kernel("linear"), IDENT)
        assert -1e-302 < r.rhs < -1e-303 and r.holds
        assert hadamard.NEGATIVE_RHS_WARNING in r.warnings

    @pytest.mark.parametrize("f, g, warned", [
        # item 2's repro 1 scaled by 1e-4: margin -2.06e-10 holds by the tolerance
        ("1e-4*abs(x-0.5020147025901347)", "1e-4*2.9758476*x^2", True),
        ("abs(x-0.5020147025901347)", "2.9758476*x^2", False),  # margin -2.06e-6 fails
        ("x^2", "x^2", False),  # margin 0.0
        ("x^2", "2*x^2", False),
    ])
    def test_a_bound_held_by_the_tolerance_alone_warns(self, f, g, warned):
        h = make_kernel("linear")
        mid, end = hh_bounds_report(FunctionPair(parse(f), parse(g)), IDENT,
                                    [(h, "midpoint"), (h, "endpoint")])
        assert mid.warnings == ([hadamard.WITHIN_TOL_WARNING] if warned else [])
        assert (mid.holds and mid.margin < 0.0) == warned
        assert end.margin >= 0.0 and end.warnings == []

    def test_orientation_reversing_map(self):
        phi = make_affine(-1.0, 1.0, UNIT)  # image endpoints swap
        r = hh_midpoint_report(PAIR, make_kernel("linear"), phi)
        assert _close(r.lhs, 1.0 / 12.0)
        assert _close(r.rhs, 1.0 / 6.0)

    def test_custom_kernel_matches_builtin(self):
        custom = make_kernel("custom", expr=parse("t"))
        builtin = make_kernel("linear")
        a = hh_midpoint_report(PAIR, custom, IDENT)
        b = hh_midpoint_report(PAIR, builtin, IDENT)
        assert abs(a.lhs - b.lhs) <= 1e-12
        assert abs(a.rhs - b.rhs) <= 1e-12

    def test_asymmetric_custom_kernel_endpoint_uses_its_integral(self):
        # exp(t) is not symmetric about 1/2; H = e - 1 either way:
        # lhs = |(0 + 1) H - 1/3|, rhs = (0 + 2) H - 2/3
        r = hh_endpoint_report(PAIR, make_kernel("custom", expr=parse("exp(t)")), IDENT)
        h = math.e - 1.0
        assert _close(r.lhs, h - 1.0 / 3.0, tol=1e-8)
        assert _close(r.rhs, 2.0 * h - 2.0 / 3.0, tol=1e-8)
        assert r.holds and not r.vacuous

    def test_convergent_custom_kernel_endpoint_is_not_vacuous(self):
        # exp(t) integrates to e - 1; a kernel taken for divergent would
        # make the report vacuous
        k = Kernel("custom", expr=parse("exp(t)"))
        assert not k.divergent
        assert abs(k.integral - (math.e - 1.0)) <= max(k.integral_error, 1e-9)
        assert not hh_endpoint_report(PAIR, k, IDENT).vacuous

    def test_symmetric_custom_kernel_accepted_for_endpoint(self):
        k = make_kernel("custom", expr=parse("t*(1-t) + 0.25"))
        r = hh_endpoint_report(PAIR, k, IDENT)
        # H = 1/6 + 1/4 = 5/12: lhs = |5/12 - 1/3| = 1/12, rhs = 5/6 - 2/3 = 1/6
        assert _close(r.lhs, 1.0 / 12.0, tol=1e-8)
        assert _close(r.rhs, 1.0 / 6.0, tol=1e-8)
        assert r.holds


class TestToleranceValidation:
    """Library callers get the checks the CLI makes before any bound runs."""

    @pytest.mark.parametrize("atol,rtol", [(math.inf, 1e-9), (math.nan, 1e-9), (-1e-9, 1e-9),
                                           (1e-9, math.inf), (1e-9, math.nan), (1e-9, -1.0)])
    def test_atol_rtol_must_be_finite_and_nonnegative(self, atol, rtol):
        # atol=inf once made x^2 vs 0.5 x^2 hold with lhs 1/12 > rhs 1/24
        pair = FunctionPair(parse("x^2"), parse("0.5*x^2"))
        with pytest.raises(ValueError, match=r"tolerances must be finite, >= 0; got "):
            hh_midpoint_report(pair, make_kernel("linear"), IDENT, atol=atol, rtol=rtol)
        with pytest.raises(ValueError, match=r"tolerances must be finite, >= 0; got "):
            special_case_report(pair, IDENT, which="linear", atol=atol, rtol=rtol)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.inf, math.nan])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match=r"tol must be positive and finite, got "):
            hh_endpoint_report(PAIR, make_kernel("linear"), IDENT, tol=tol)
        with pytest.raises(ValueError, match=r"tol must be positive and finite, got "):
            hh_bounds_report(PAIR, IDENT, [], tol=tol)

    @pytest.mark.parametrize("tol", [5e-324, 1e-323])
    def test_tol_whose_quarter_underflows_is_refused(self, tol):
        with pytest.raises(ValueError, match=r"tol must be large enough that a quarter of it "):
            hh_midpoint_report(PAIR, make_kernel("linear"), IDENT, tol=tol)
        with pytest.raises(ValueError, match=r"tol must be large enough that a quarter of it "):
            special_case_report(PAIR, IDENT, which="linear", tol=tol)

    def test_checked_before_the_image(self):
        flat = make_affine(0.0, 0.5, UNIT)
        with pytest.raises(ValueError):
            hh_midpoint_report(PAIR, make_kernel("linear"), flat, atol=math.inf)

    def test_the_message_is_the_sample_plans(self):
        from domcert.convexity import SamplePlan

        with pytest.raises(ValueError) as plan_error:
            SamplePlan.grid(atol=math.inf)
        with pytest.raises(ValueError) as report_error:
            hh_midpoint_report(PAIR, make_kernel("linear"), IDENT, atol=math.inf)
        assert str(report_error.value) == str(plan_error.value)


class TestFaultOrder:
    """Which fault wins when f faults inside the quadrature."""

    FAULTY = FunctionPair(parse("ln(x - 0.5)"), parse("2*x^2"))  # faults in quadrature

    def test_both_bounds_report_the_quadrature_fault(self):
        k = make_kernel("custom", expr=parse("exp(t)"))
        with pytest.raises(QuadratureError):
            hh_bounds_report(self.FAULTY, IDENT, [(k, "midpoint"), (k, "endpoint")])

    def test_cli_both_bounds_report_the_quadrature_fault(self, capsys):
        code = cli.main(["verify-hh", "--f", "ln(x - 0.5)", "--g", "2*x^2", "--interval",
                         "0", "1", "--h-custom", "exp(t)", "--bound", "both"])
        message = json.loads(capsys.readouterr().out)["error"]["message"]
        assert code == 2
        assert message.startswith("integrand failed at x=")

    def test_special_case_integrates_before_building_the_power_kernel(self):
        # the linear reports run before the missing exponent is noticed
        with pytest.raises(QuadratureError):
            special_case_report(self.FAULTY, IDENT, which="all", s=None)


class TestClassicalAgreement:
    """With h = t and the identity map the midpoint/endpoint pair collapses
    to the classical two-sided bound; check both sides against a Simpson
    oracle on random convex pairs."""

    def test_twenty_random_pairs(self, rng):
        from conftest import poly_source, random_convex_coeffs, shift_nonnegative

        linear = make_kernel("linear")
        for _ in range(20):
            cf = shift_nonnegative(random_convex_coeffs(rng), 0.0, 1.0)
            extra = shift_nonnegative(random_convex_coeffs(rng), 0.0, 1.0)
            cg = [a + b for a, b in zip(cf, extra)]
            f, g = parse(poly_source(cf)), parse(poly_source(cg))
            pair = FunctionPair(f, g)

            mean_f = simpson(f.evaluate, 0.0, 1.0)
            mean_g = simpson(g.evaluate, 0.0, 1.0)
            m = hh_midpoint_report(pair, linear, IDENT)
            assert m.lhs == pytest.approx(abs(mean_f - f.evaluate(0.5)), abs=1e-10)
            assert m.rhs == pytest.approx(mean_g - g.evaluate(0.5), abs=1e-10)
            assert m.holds

            e = hh_endpoint_report(pair, linear, IDENT)
            sf = (f.evaluate(0.0) + f.evaluate(1.0)) / 2.0
            sg = (g.evaluate(0.0) + g.evaluate(1.0)) / 2.0
            assert e.lhs == pytest.approx(abs(sf - mean_f), abs=1e-10)
            assert e.rhs == pytest.approx(sg - mean_g, abs=1e-10)
            assert e.holds


class TestSpecialCases:
    def test_all_kernels_produce_expected_labels(self):
        entries = special_case_report(PAIR, IDENT, which="all", s=0.5)
        labels = [e.label for e in entries]
        assert "linear/midpoint" in labels
        assert "linear/endpoint" in labels
        assert "one/midpoint" in labels
        assert "one/endpoint" in labels
        assert "reciprocal/midpoint" in labels
        # divergent kernel: no endpoint entry at all
        assert not any(lab == "reciprocal/endpoint" for lab in labels)
        assert any(lab.startswith("power") and lab.endswith("midpoint") for lab in labels)

    def test_single_kernel_selection(self):
        entries = special_case_report(PAIR, IDENT, which="reciprocal")
        assert [e.label for e in entries] == ["reciprocal/midpoint"]

    def test_entries_match_direct_reports_exactly(self):
        entries = special_case_report(PAIR, IDENT, which="linear")
        direct_mid = hh_midpoint_report(PAIR, make_kernel("linear"), IDENT)
        direct_end = hh_endpoint_report(PAIR, make_kernel("linear"), IDENT)
        by_label = {e.label: e.report for e in entries}
        assert by_label["linear/midpoint"].lhs == direct_mid.lhs
        assert by_label["linear/midpoint"].rhs == direct_mid.rhs
        assert by_label["linear/endpoint"].lhs == direct_end.lhs
        assert by_label["linear/endpoint"].rhs == direct_end.rhs

    def test_power_requires_exponent(self):
        with pytest.raises(Exception):
            special_case_report(PAIR, IDENT, which="power", s=None)

    def test_all_reports_hold_for_dominated_pair(self):
        entries = special_case_report(PAIR, IDENT, which="all", s=0.5)
        assert entries and all(e.report.holds for e in entries)


# ---------------------------------------------------------------------------
# Integrals split at the kinks of abs of an affine argument, against an
# exact reference: f = a*abs(x-c)+b*x^2 and g = k*x^2 are piecewise
# polynomials in dyadic rationals (every float is one), so their means, their
# values at m and at the ends, and lhs, rhs and margin are exact in Fraction,
# with the kernel's constants taken as the floats it holds.
# ---------------------------------------------------------------------------


def _exact_bound(a, c, b, k, lo, hi, kernel, bound):
    """(lhs, rhs, margin, scale) of the bound, exact; scale is the largest
    magnitude of a term of lhs or rhs."""
    a, c, b, k, lo, hi = map(Fraction, (a, c, b, k, lo, hi))

    def f(x):
        return a * abs(x - c) + b * x * x

    def g(x):
        return k * x * x

    def kink_anti(x):  # an antiderivative of abs(x - c)
        return (x - c) * abs(x - c) / 2

    width = hi - lo
    mean_square = (hi ** 3 - lo ** 3) / 3 / width
    mean_f = a * (kink_anti(hi) - kink_anti(lo)) / width + b * mean_square
    mean_g = k * mean_square
    if bound == "midpoint":
        weight = Fraction(kernel.midpoint_coefficient)
        terms_f, terms_g = (mean_f, weight * f((lo + hi) / 2)), (mean_g, weight * g((lo + hi) / 2))
    else:
        h = Fraction(kernel.integral)
        terms_f, terms_g = ((f(lo) + f(hi)) * h, mean_f), ((g(lo) + g(hi)) * h, mean_g)
    lhs, rhs = abs(terms_f[0] - terms_f[1]), terms_g[0] - terms_g[1]
    scale = max(abs(t) for t in (*terms_f, *terms_g))
    return lhs, rhs, rhs - lhs, scale


def _kinked_pair(a, c, b, k):
    return FunctionPair(parse(f"({a!r})*abs(x-({c!r}))+({b!r})*x^2"), parse(f"({k!r})*x^2"))


DYADIC = st.integers(-32, 32).map(lambda n: n / 16.0)
COEFFICIENT = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
JOBS = st.sampled_from([("linear", "midpoint"), ("linear", "endpoint"), ("one", "midpoint"),
                        ("one", "endpoint"), ("reciprocal", "midpoint")])


class TestKinkSplit:
    """The bounds' integrals, split at their kinks by quadrature.integrate_split,
    and the splitter itself (analysis.breakpoints and integrate_split)."""

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(DYADIC, DYADIC).filter(lambda e: e[0] < e[1]), st.floats(0.0, 1.0),
           COEFFICIENT.filter(lambda v: v != 0.0), COEFFICIENT, st.floats(0.0, 8.0), JOBS)
    def test_the_margin_is_exact_within_its_error(self, edges, where, a, b, k, job):
        lo, hi = edges
        c = lo + (hi - lo) * where  # a kink anywhere in [lo, hi], its ends too
        kernel = make_kernel(job[0])
        (r,) = hh_bounds_report(_kinked_pair(a, c, b, k), identity_map(Interval(lo, hi)),
                                [(kernel, job[1])])
        _, _, margin, scale = _exact_bound(a, c, b, k, lo, hi, kernel, job[1])
        slack = r.quad_error + 64 * math.ulp(float(scale))
        assert abs(Fraction(r.margin) - margin) <= slack

    def test_the_exact_reference_reads_repro_one(self):
        # f = abs(x - c) against 2.9758476*x^2 on [0, 1] under h = t
        _, _, margin, _ = _exact_bound(1.0, 0.5020147025901347, 0.0, 2.9758476, 0.0, 1.0,
                                       make_kernel("linear"), "midpoint")
        assert float(margin) == pytest.approx(-2.0564e-6, rel=1e-4)

    def test_a_tree_without_a_kink_is_integrated_whole(self, monkeypatch):
        calls = []
        monkeypatch.setattr(quadrature, "integrate",
                            lambda *args: calls.append(args[1:]) or integrate(*args))
        for source in ("x^2", "abs(x^2-0.25)", "abs(x-2)", "abs(0.5)*x"):
            calls.clear()
            got = quadrature.integrate_split(parse(source), 0.0, 1.0, 1e-10)
            assert calls == [(0.0, 1.0, 1e-10)]
            assert got == integrate(parse(source), 0.0, 1.0, 1e-10)

    KINKS = pytest.mark.parametrize("source, kinks", [
        ("abs(x-0.5020147025901347)", [0.5020147025901347]),
        ("abs(3*x-1)+2*abs(0.25-x)", [0.25, 0.3333333333333333]),
        ("abs(x)", [0.0]),  # the kink at a zero of the argument itself
        ("abs(x-1e-300)", [1e-300]),
        ("abs(x-0.5)+abs(2*x-1)", [0.5]),  # one kink, split once
    ])

    @KINKS
    def test_kinks_are_where_the_evaluated_argument_changes_sign(self, source, kinks):
        assert breakpoints(parse(source), -1.0, 1.0) == kinks

    @KINKS
    def test_kinks_build_no_expr(self, monkeypatch, source, kinks):
        # each argument is compiled, not wrapped in an Expr with its source
        u = parse(source)

        def refuse(*args):
            raise AssertionError("to_source called")

        monkeypatch.setattr(expr_module, "to_source", refuse)
        assert breakpoints(u, -1.0, 1.0) == kinks

    def test_each_kink_has_its_sign_change_on_either_side(self):
        u = parse("0.1*x-0.0370000000000001")
        (kink,) = breakpoints(parse(f"abs({u.source})"), 0.0, 1.0)
        assert u.evaluate(math.nextafter(kink, -1.0)) < 0.0 <= u.evaluate(kink)

    def test_the_pieces_share_the_budget_and_add_up(self, monkeypatch):
        calls = []
        monkeypatch.setattr(quadrature, "integrate",
                            lambda *args: calls.append(args[1:]) or integrate(*args))
        got = quadrature.integrate_split(parse("abs(x-0.25)+abs(x-0.75)"), 0.0, 1.0, 3e-10)
        assert calls == [(0.0, 0.25, 1e-10), (0.25, 0.75, 1e-10), (0.75, 1.0, 1e-10)]
        parts = [integrate(parse("abs(x-0.25)+abs(x-0.75)"), *call) for call in calls]
        assert got == (math.fsum(p.value for p in parts), math.fsum(p.error_estimate for p in parts),
                       sum(p.subdivisions for p in parts))

    def test_the_split_of_a_budget_near_the_least_double_stays_positive(self):
        r = quadrature.integrate_split(parse("abs(x-0.5)"), 0.0, 1.0, 5e-324)
        assert r.value == 0.25 and r.error_estimate <= 1e-323


class TestKinkRepros:
    """ROADMAP item 2's repros, decided right once the integrals are split."""

    def test_a_failing_midpoint_bound_fails(self, capsys):
        code = cli.main(["verify-hh", "--f", "abs(x-0.5020147025901347)", "--g",
                         "2.9758476*x^2", "--interval", "0", "1", "--bound", "midpoint"])
        report = json.loads(capsys.readouterr().out)["result"]["reports"][0]
        assert code == 1 and not report["holds"]
        assert report["margin"] == pytest.approx(-2.0564e-6, rel=1e-4)

    def test_a_holding_endpoint_bound_of_a_dominated_pair_holds(self, capsys):
        f = "2.8412749897708003*x^2+abs(x-0.5016166896796358)"
        g = f"{f}+1.149332136674603e-07*abs(x-0.8515481239966675)"
        code = cli.main(["verify-hh", "--f", f, "--g", g, "--interval", "0", "1",
                         "--bound", "endpoint"])
        report = json.loads(capsys.readouterr().out)["result"]["reports"][0]
        assert code == 0 and report["holds"]
        assert report["margin"] == pytest.approx(1.45292e-8, rel=1e-5)
