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

import pytest

from conftest import simpson
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
from domcert.quadrature import QuadratureError
from domcert import cli

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

    def test_quad_error_is_small_and_echoed(self):
        r = hh_midpoint_report(PAIR, make_kernel("linear"), IDENT)
        assert 0.0 <= r.quad_error < 1e-9
        assert r.inputs_echo["f"] == "x^2"
        assert r.inputs_echo["interval"] == [0.0, 1.0]


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
