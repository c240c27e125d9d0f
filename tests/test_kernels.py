import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import simpson
from test_quadrature import fault_pass_only
from domcert import kernels, quadrature
from domcert.analysis import power_form
from domcert.expr import EvalError, parse
from domcert.kernels import (
    PROBE_POINTS,
    Kernel,
    KernelError,
    chebyshev_points,
    make_kernel,
)


HUGE = 1.7976931348623157e308


def _plain_form(root):
    """power_form(root) as (C, a, b) when C is positive and finite, else None."""
    form = power_form(root)
    if form is None or form[0] is None or not 0.0 < form[0] < math.inf:
        return None
    return form[0], *form[2:]


def _log_form(root):
    """power_form(root) as ((log C, n), a, b) when C is positive with a finite
    log, else None."""
    form = power_form(root)
    if form is None or form[1] is None or not (form[1][0] > 0.0 and math.isfinite(form[1][1])):
        return None
    return form[1][1:], *form[2:]


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


class TestConstantBits:
    """(h(1/2), 1/(2 h(1/2)), integral, its error) as float.hex, frozen: the
    built-in kinds' integrals and a custom power form's are closed forms."""

    @pytest.mark.parametrize("kind, s, expr, bits", [
        ("linear", None, None, ("0x1.0000000000000p-1", "0x1.0000000000000p+0",
                                "0x1.0000000000000p-1", "0x0.0p+0")),
        ("power", 0.25, None, ("0x1.ae89f995ad3adp-1", "0x1.306fe0a31b715p-1",
                               "0x1.999999999999ap-1", "0x0.0p+0")),
        ("power", 0.5, None, ("0x1.6a09e667f3bcdp-1", "0x1.6a09e667f3bcdp-1",
                              "0x1.5555555555555p-1", "0x0.0p+0")),
        ("power", 0.75, None, ("0x1.306fe0a31b715p-1", "0x1.ae89f995ad3adp-1",
                               "0x1.2492492492492p-1", "0x0.0p+0")),
        ("reciprocal", None, None, ("0x1.0000000000000p+1", "0x1.0000000000000p-2", "inf",
                                    "0x0.0p+0")),
        ("one", None, None, ("0x1.0000000000000p+0", "0x1.0000000000000p-1",
                             "0x1.0000000000000p+0", "0x0.0p+0")),
        ("custom", None, "t^(-0.5)", ("0x1.6a09e667f3bcdp+0", "0x1.6a09e667f3bccp-2",
                                      "0x1.0000000000000p+1", "0x0.0p+0")),
        # the ladder read it as +inf: its integral is 10
        ("custom", None, "t^(-0.9)", ("0x1.ddb680117ab12p+0", "0x1.125fbee250664p-2",
                                      "0x1.4000000000001p+3", "0x0.0p+0")),
        # the ladder read it as +inf
        ("custom", None, "1e308", ("0x1.1ccf385ebc8a0p+1023", "0x0.3986b3c0cf469p-1022",
                                   "0x1.1ccf385ebc8a0p+1023", "0x0.0p+0")),
    ])
    def test_constants_keep_their_bits(self, kind, s, expr, bits):
        k = make_kernel(kind, s=s, expr=expr and parse(expr))
        got = (k.half_value, k.midpoint_coefficient, k.integral, k.integral_error)
        assert tuple(v.hex() for v in got) == bits


class TestPowerForm:
    """A tree C*t^a*(1-t)^b gets the closed form C*B(a+1, b+1) of its
    integral, within the error it states, and so does each term of a sum of
    them; any other tree keeps the ladder."""

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.0, 0.999, exclude_min=True), st.sampled_from(["t^-{!r}", "(1-t)^-{!r}"]))
    @example(0.9, "t^-{!r}")
    @example(0.999, "(1-t)^-{!r}")
    @example(5e-324, "t^-{!r}")
    def test_an_integrable_singularity_gives_one_over_one_minus_p(self, p, template):
        k = make_kernel("custom", expr=parse(template.format(p)))
        exact = 1 / (1 - Fraction(p))
        # C/(a+1) rounds a + 1 and the quotient, as the built-in 1/(s+1) does
        # under its error of 0.0
        assert abs(Fraction(k.integral) - exact) <= k.integral_error + 2 * math.ulp(float(exact))

    def test_integer_exponents_are_within_the_stated_error(self):
        for c in (1.0, 3.0, 0.1):
            for m in range(1, 60):
                for n in range(1, 60):
                    value, error = kernels._integral(parse(f"{c!r}*t^{m}*(1-t)^{n}"), 1e-10)
                    exact = Fraction(c) * Fraction(
                        math.factorial(m) * math.factorial(n), math.factorial(m + n + 1))
                    assert 0.0 < error and abs(Fraction(value) - exact) <= error, (c, m, n)

    @pytest.mark.parametrize("source, form", [
        ("t", (1.0, 1.0, 0.0)), ("1-t", (1.0, 0.0, 1.0)), ("3", (3.0, 0.0, 0.0)),
        ("1e300/t", (1e300, -1.0, 0.0)), ("2*t^0.5*(1-t)^0.5", (2.0, 0.5, 0.5)),
        ("1/(t*(1-t))", (1.0, -1.0, -1.0)), ("-t*-2", (2.0, 1.0, 0.0)),
        ("(4*t^2)^0.5", (2.0, 1.0, 0.0)), ("t^(1/2)/t", (1.0, -0.5, 0.0)),
        ("t^-0.9", (1.0, -0.9, 0.0)),
    ])
    def test_power_forms(self, source, form):
        assert _plain_form(parse(source).root) == form

    @pytest.mark.parametrize("source", [
        "t+1", "1+t^0.5", "1-2*t", "exp(t)", "ln(t+1)", "abs(t)", "sqrt(t)", "cos(t)",
        "-t", "-2*t^0.5", "(-t)^2", "0*t", "t/0", "t^t", "2^t", "(1e200*t)^2",
        "(t^(1e308*10))^0",
    ])
    def test_no_power_form(self, source):
        # sums, functions, a C that is not positive and finite, and exponents
        # that are not constant or not finite
        assert _plain_form(parse(source).root) is None

    @given(st.sampled_from(["linear", "reciprocal", "one", "power"]),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_every_built_in_source_has_a_form(self, kind, s):
        assert _plain_form(parse(kernels._BUILT_IN[kind](s)[0]).root) is not None

    @pytest.mark.parametrize("source, integral", [
        ("1/t", math.inf), ("1/(1-t)", math.inf), ("1e300/t", math.inf), ("1e308", 1e308),
        ("t^-0.9", 10.000000000000002), ("2*t^0.5*(1-t)^0.5", math.pi / 4),
        # sums of power forms: a divergent term with a positive collected C is +inf
        ("t^-0.9+1", 11.000000000000002), ("1/t+1", math.inf), ("1/(1-t)+t", math.inf),
        ("2/t-1/t+1", math.inf), ("1/t-1/t+1", 1.0), ("(1-t)^(-0.5)+t", 2.5),
        ("-0.5*t+1", 0.75), ("1-(-t)", 1.5),
        # the least exponent at an end decides it: t^-2 outgrows -1/t
        ("1/t^2-1/t+1", math.inf), ("1/(t*t)-1/t+1", math.inf), ("1/(1-t)^2-1/(1-t)", math.inf),
    ])
    def test_a_power_form_never_reaches_the_ladder(self, monkeypatch, source, integral):
        def refuse(*args):
            raise AssertionError("integrate_open01 called")

        monkeypatch.setattr(kernels, "integrate_open01", refuse)
        kernels._custom_constants.cache_clear()
        kernels._built_in_expr.cache_clear()
        assert make_kernel("custom", expr=parse(source)).integral == integral
        for kind in ("linear", "reciprocal", "one"):
            make_kernel(kind)
        make_kernel("power", s=0.37)

    # a sum takes the ladder when a term has no form, or the Cs of the least
    # exponent at a diverging end do not total a positive C
    @pytest.mark.parametrize("source", [
        "1/(t*(1-ln(t))^2)", "exp(t)", "1/sqrt(t)+1/(t+0.5)", "t-3/t+1/t", "1/t-(1-t)/t",
        "0*t+1", "t^0.5+exp(t)", "1/t^2-2/t^2+1/(1-t)",
    ])
    def test_a_tree_without_a_form_takes_the_ladder(self, monkeypatch, source):
        calls = []

        def ladder(expr, tol):
            calls.append((expr.source, tol))
            return quadrature.QuadResult(0.5, 1e-3, 1)

        monkeypatch.setattr(kernels, "integrate_open01", ladder)
        assert kernels._integral(parse(source), 1e-7) == (0.5, 1e-3)
        assert calls == [(source, 1e-7)]


class TestScaledPowerForm:
    """A power form whose C is past the float range is carried as log C, so its
    integral is a closed form too, within the error it states."""

    REPRO = "(1e170*t^40*(1-t)^40)^2"  # C = 1e340, H = 1e340*B(81, 81)

    def test_the_overflowing_constant_repro_is_within_its_error_and_quick(self):
        kernels._custom_constants.cache_clear()
        start = time.perf_counter()
        k = make_kernel("custom", expr=parse(self.REPRO))
        elapsed = time.perf_counter() - start
        exact = Fraction(1e170) ** 2 * Fraction(math.factorial(80) ** 2, math.factorial(161))
        assert _plain_form(parse(self.REPRO).root) is None  # C^2 overflows the plain fold
        assert math.isfinite(k.integral) and 0.0 < k.integral_error < 1e-11 * k.integral
        assert abs(Fraction(k.integral) - exact) <= k.integral_error
        assert elapsed < 0.1  # the ladder ran 15 s, then ran out of panels

    @pytest.mark.parametrize("source, form", [
        ("(1e200*t)^2", (2.0, 0.0)), ("1e-200*1e-200*1e300*t", (1.0, 0.0)),
        ("(1e170*t^40*(1-t)^40)^2", (80.0, 80.0)), ("1e308*1e308/(t*(1-t))^0.5", (-0.5, -0.5)),
    ])
    def test_a_constant_past_the_float_range_has_a_log_form(self, source, form):
        assert _plain_form(parse(source).root) is None
        (log, n), *exponents = _log_form(parse(source).root)
        assert tuple(exponents) == form and 0.0 < n

    @pytest.mark.parametrize("source", [
        "t", "1-t", "3", "1e300/t", "2*t^0.5*(1-t)^0.5", "1/(t*(1-t))", "-t*-2",
        "(4*t^2)^0.5", "t^(1/2)/t", "t^-0.9", "0.1*t^7/(1-t)^3*1e-5",
    ])
    def test_a_log_form_agrees_with_the_plain_form(self, source):
        c, a, b = _plain_form(parse(source).root)
        (log, n), la, lb = _log_form(parse(source).root)
        assert (la, lb) == (a, b)
        assert abs(log - math.log(c)) <= (n + abs(log) + 1.0) * math.ulp(1.0)

    @pytest.mark.parametrize("source", [
        "t+1", "1+t^0.5", "exp(t)", "-t", "-2*t^0.5", "(-t)^2", "0*t", "t/0", "t^t", "2^t",
        "(t^(1e308*10))^0", "(-1e200*t)^2", "0*1e300*1e300",
    ])
    def test_no_log_form(self, source):
        assert _log_form(parse(source).root) is None

    def test_a_scaled_form_takes_the_lgamma_rule_with_a_zero_exponent(self):
        # C = 1e-100 underflows in the plain fold (1e-200*1e-200 is 0.0)
        value, error = kernels._integral(parse("1e-200*1e-200*1e300*t"), 1e-10)
        exact = Fraction(1e-200) ** 2 * Fraction(1e300) / 2
        assert abs(Fraction(value) - exact) <= error < 1e-111


# a signed term c*t^m*(1-t)^n with integer exponents: (sign, c, m, n)
SIGNED_TERM = st.tuples(st.sampled_from(["+", "-"]), st.floats(1e-3, 1e3), st.integers(0, 6),
                        st.integers(0, 6))


class TestSumOfPowerForms:
    """A sum of power forms gets the fsum of the terms' closed forms, within the
    error it states (TestPowerForm holds which sums reach the ladder)."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(SIGNED_TERM, min_size=2, max_size=4))
    @example([("+", 0.1, 0, 0), ("-", 0.1, 1, 0), ("+", 0.3, 1, 0)])
    @example([("-", 2.5, 0, 3), ("+", 3.0, 0, 0)])  # a leading -2.5 is a negative C
    def test_integer_exponents_are_within_the_stated_error(self, terms):
        source = "".join(f"{sign}{c!r}*t^{m}*(1-t)^{n}" for sign, c, m, n in terms)
        value, error = kernels._integral(parse(source.lstrip("+")), 1e-10)
        exact = sum((1 if sign == "+" else -1) * Fraction(c) * Fraction(
            math.factorial(m) * math.factorial(n), math.factorial(m + n + 1))
            for sign, c, m, n in terms)
        assert abs(Fraction(value) - exact) <= error, source

    def test_equal_terms_sum_as_one_term(self):
        # each term's closed form is exact here, so the sum keeps the one-term bits
        assert kernels._integral(parse("t^-0.5+t^-0.5"), 1e-10)[0] == 4.0
        assert kernels._integral(parse("2*t^-0.5"), 1e-10) == (4.0, 0.0)

    @pytest.mark.parametrize("source", ["exp(t)", "1/sqrt(t)+1/(t+0.5)"])
    def test_a_ladder_kernel_keeps_its_bits(self, source):
        r = quadrature.integrate_open01(parse(source), 1e-10)
        assert kernels._integral(parse(source), 1e-10) == (r.value, r.error_estimate)


class TestExponentsPastLgamma:
    """A term whose lgamma overflows (a + b + 2 past about 2.5e305) gets
    lgamma(m) - m*log(M) for log B, within the error it states; with both
    exponents that large the kernel takes the ladder."""

    REPRO = "1+t^1e308*(1-t)"  # lgamma(a + 1.0) raised OverflowError

    def test_the_repro_is_one_without_the_ladder(self, monkeypatch):
        monkeypatch.setattr(kernels, "integrate_open01", None)  # calling it would fail
        kernels._custom_constants.cache_clear()
        k = make_kernel("custom", expr=parse(self.REPRO))
        a = Fraction(1e308)
        exact = 1 + 1 / ((a + 1) * (a + 2))
        assert k.integral == 1.0 and abs(Fraction(k.integral) - exact) <= k.integral_error
        assert k.integral_error < 1e-15

    def test_a_term_whose_a_plus_b_plus_2_alone_overflows(self, monkeypatch):
        math.lgamma(2e305 + 1.0)
        with pytest.raises(OverflowError):
            math.lgamma(4e305 + 2.0)
        monkeypatch.setattr(kernels, "integrate_open01", None)
        # B(2e305 + 1, 2e305 + 1) <= 4^-2e305: H is 1.0 in doubles
        value, error = kernels._integral(parse("1+t^2e305*(1-t)^2e305"), 1e-10)
        assert value == 1.0 and error <= math.ulp(1.0)

    # references from loggamma at 700 digits
    @pytest.mark.parametrize("a, b, beta", [
        (1e308, -0.999, 491.75600896232365),
        (1e308, -0.5, 1.772453850905516e-154),
        (-0.3, 1.5e308, 2.4548746676107128e-216),
        (2.6e305, 1e-300, 3.8461538461538464e-306),
        (1e306, -1.0 + 2.0 ** -52, 4503599627369790.8),
        (1e308, 1.0, 0.0),  # 1e-616
    ])
    def test_the_beta_function_is_within_the_stated_error(self, a, b, beta):
        for c in (1.0, 3.0):
            value, error = kernels._closed_form(c, None, a, b)
            assert abs(Fraction(value) - Fraction(c) * Fraction(beta)) <= error

    # C*B below the least normal float: c * exp(beta) returned (0.0, 0.0) for
    # the first, and a subnormal with error 0.0 for the second
    @pytest.mark.parametrize("c, a, b, exact", [
        (1e300, 1e308, 1.0, Fraction(1e300) / ((Fraction(1e308) + 1) * (Fraction(1e308) + 2))),
        (1e-300, 25.0, 25.0, Fraction(1e-300) * Fraction(math.factorial(25) ** 2,
                                                        math.factorial(51))),
    ])
    def test_an_underflowing_product_is_one_exp(self, c, a, b, exact):
        value, error = kernels._closed_form(c, None, a, b)
        assert value != 0.0 and abs(Fraction(value) - exact) <= error
        assert error >= math.ulp(value)

    # C carried as log C with a subnormal H: the error was relative alone,
    # 0.0 for H = 1.5e-323, while C*B(2, 2) is about 1.67e-323
    @pytest.mark.parametrize("source, exact", [
        ("1e-200*1e-200*1e78*t*(1-t)",
         Fraction(1e-200) * Fraction(1e-200) * Fraction(1e78) / 6),
        ("1e-200*1e-200*t*(1-t)", Fraction(1e-200) * Fraction(1e-200) / 6),  # H rounds to 0
    ])
    def test_a_subnormal_scaled_form_states_its_rounding_step(self, source, exact):
        form = power_form(parse(source).root)
        assert form[0] == 0.0  # the product of the constants underflowed
        value, error = kernels._closed_form(*form)
        assert abs(Fraction(value) - exact) <= error
        assert error >= math.ulp(value)

    def test_a_visible_term_is_added(self):
        value, error = kernels._integral(parse("1+t^1e308*(1-t)^-0.999"), 1e-10)
        assert abs(value - 492.75600896232365) <= error < 1e-11

    def test_both_exponents_past_it_take_the_ladder(self):
        assert kernels._closed_form(1.0, None, 3e305, 3e305) is None
        r = quadrature.integrate_open01(parse("1+t^3e305*(1-t)^3e305"), 1e-10)
        assert kernels._integral(parse("1+t^3e305*(1-t)^3e305"), 1e-10) == (
            r.value, r.error_estimate)


def _exact_abs_kernel_integral(c: float, k: float, d: float) -> Fraction:
    """The integral over (0, 1) of c*abs(t - k) + d, in rationals."""
    c, k, d = Fraction(c), Fraction(k), Fraction(d)
    if k <= 0:
        inner = Fraction(1, 2) - k
    elif k >= 1:
        inner = k - Fraction(1, 2)
    else:
        inner = (k * k + (1 - k) * (1 - k)) / 2
    return c * inner + d


class TestKinkedKernels:
    """A custom kernel's integral is split at its abs kinks, as f's and g's are."""

    def test_the_kink_repro_is_within_its_error(self):
        k = make_kernel("custom", expr=parse("abs(t-0.5020147025901347)+0.1"))
        # unsplit it was 0.35000000000000003 with error 1.2e-10
        for exact in (_exact_abs_kernel_integral(1.0, 0.5020147025901347, 0.1),
                      Fraction(0.35000405902652665)):  # (c^2 + (1-c)^2)/2 + 1/10
            assert abs(Fraction(k.integral) - exact) <= k.integral_error

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 64).map(lambda n: n / 16.0),
           st.integers(-2 ** 19, 3 * 2 ** 19).map(lambda n: n / 2.0 ** 20),
           st.integers(1, 32).map(lambda n: n / 16.0))
    def test_the_integral_is_exact_within_its_error(self, c, k, d):
        h = make_kernel("custom", expr=parse(f"{c!r}*abs(t-({k!r}))+{d!r}"))
        exact = _exact_abs_kernel_integral(c, k, d)
        assert abs(Fraction(h.integral) - exact) <= h.integral_error + 4 * math.ulp(float(exact))


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

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 40))
    def test_a_finite_sum_and_width_keep_the_bits(self, lo, hi, n):
        assume(math.isfinite(lo + hi) and math.isfinite(hi - lo))
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        want = [mid + half * math.cos(math.pi * (2 * j - 1) / (2 * n)) for j in range(1, n + 1)]
        want.reverse()
        assert [p.hex() for p in chebyshev_points(n, lo, hi)] == [p.hex() for p in want]

    @given(st.floats(1e308, HUGE), st.floats(1e308, HUGE), st.sampled_from("+-±"),
           st.sampled_from([1, 2, 40, PROBE_POINTS]))
    @example(1e308, 1e308, "±", PROBE_POINTS)
    @example(1e308, 1.7e308, "+", PROBE_POINTS)
    def test_points_on_an_interval_whose_sum_or_width_overflows(self, u, v, signs, n):
        # 0.5 * (lo + hi) or 0.5 * (hi - lo) was inf, and so was every point
        lo, hi = min(u, v), max(u, v)
        if signs == "-":
            lo, hi = -hi, -lo
        elif signs == "±":
            lo = -lo
        assert math.isinf(lo + hi) or math.isinf(hi - lo)
        pts = chebyshev_points(n, lo, hi)
        assert len(pts) == n
        assert all(lo <= p <= hi for p in pts)
        assert pts == sorted(pts)


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
# The probe, one pass over the grid that stops at its first bad point, and a
# kernel built on the fast paths against one built with every panel of its
# integral run through _guarded by the looped reference rule.
# ---------------------------------------------------------------------------

GRID = kernels._probe_grid()


def _outcome(run):
    try:
        return repr(run())
    except Exception as exc:  # the outcome, whatever it is, is what is compared
        return repr((type(exc), getattr(exc, "reason", None), str(exc)))


def _constants(k):
    return k.half_value, k.midpoint_coefficient, k.integral, k.integral_error


def _cold_build(expr, quad_tol):
    """The constants of a build that computes them, whatever built before."""
    kernels._custom_constants.cache_clear()
    return _constants(make_kernel("custom", expr=expr, quad_tol=quad_tol))


def _reference_build(expr, quad_tol):
    with fault_pass_only() as mp:
        # past the memo, so that it neither answers nor stores this build
        mp.setattr(kernels, "_custom_constants", kernels._custom_constants.__wrapped__)
        return _constants(make_kernel("custom", expr=expr, quad_tol=quad_tol))


# shape -> (source, reason of its error).  Each is good before GRID[i]; an
# "at" shape is first bad at GRID[i], an "after" shape at GRID[i + 1].
# {after} is 0 up to GRID[i] and 2*(t - GRID[i]) past it.
_BAD_AT = {
    "zero at": ("{k}*abs(t-{ti})", "nonpositive"),
    "negative after": ("{k}*({ti}-t)+1e-300", "nonpositive"),
    "division by zero at": ("{k}/abs(t-{ti})", "domain"),
    "ln of zero at": ("ln({k}*abs(t-{ti}))+40", "domain"),
    "inf at": ("1e300/(abs(t-{ti})+1e-300)+{k}", "domain"),
    "sqrt of a negative after": ("sqrt({ti}-t)+{k}", "domain"),
    "exp overflow after": ("exp({after}*1e10+{k})", "domain"),
    "power overflow after": ("{k}*({after}*1e10+2)^1000", "domain"),
    "nan after": ("{k}+({after}*1e300*1e300-{after}*1e300*1e300)", "domain"),
}


def _bad_at(shape, i, k):
    ti = repr(GRID[i])
    return _BAD_AT[shape][0].format(ti=ti, k=k, after=f"(abs(t-{ti})+(t-{ti}))")


class TestOnePassProbe:
    @settings(max_examples=150, deadline=None)
    @given(
        i=st.integers(0, len(GRID) - 1),
        shape=st.sampled_from(sorted(_BAD_AT)),
        k=st.sampled_from(["1", "0.5", "3"]),
    )
    def test_faults_and_nonpositive_values_name_the_first_bad_point(self, i, shape, k):
        expr = parse(_bad_at(shape, i, k))
        first = i + shape.endswith("after")
        built = _outcome(lambda: _cold_build(expr, 1e-6))
        assert built == _outcome(lambda: _reference_build(expr, 1e-6))
        if first == len(GRID):  # bad only past the last probe point
            kernels._check_probe(expr)
            return
        with pytest.raises(KernelError) as info:
            kernels._check_probe(expr)
        reason, message = info.value.reason, str(info.value)
        assert reason == _BAD_AT[shape][1]
        assert message.startswith(f"custom kernel {expr.source!r} ")
        assert f" at t={GRID[first]!r}" in message
        assert built == repr((KernelError, reason, message))

    @settings(max_examples=60, deadline=None)
    @given(
        source=st.sampled_from(["t^(-{p})", "1+t^{p}", "exp(-{p}*t)+t", "1/(t+{p})",
                                "abs(t-{p})+0.01", "(1-t)^(-{p})+ln(1+t)", "1/t^{p}"]),
        p=st.sampled_from(["0.25", "0.5", "0.75", "0.9"]),
        quad_tol=st.sampled_from([1e-6, 1e-10]),
    )
    def test_good_kernels_build_the_same_constants(self, source, p, quad_tol):
        expr = parse(source.format(p=p))
        got = _cold_build(expr, quad_tol)
        assert repr(got) == repr(_reference_build(expr, quad_tol))

    def test_finite_values_whose_sum_overflows_pass(self):
        expr = parse("1e305+t")
        kernels._check_probe(expr)
        assert make_kernel("custom", expr=expr, quad_tol=1e-6).half_value == 1e305


class TestMidpointWeight:
    @settings(max_examples=200, deadline=None)
    @given(half=st.floats(min_value=2.8e-309, max_value=1.7976931348623157e308))
    @example(half=1e308)
    @example(half=1.7976931348623157e308)
    @example(half=2.8e-309)
    def test_the_weight_is_the_rounded_exact_one(self, half):
        got = kernels._custom_constants.__wrapped__(parse(repr(half)), 1e-6)
        assert (got[0], got[1]) == (half, float(Fraction(1) / (2 * Fraction(half))))

    def test_a_weight_past_where_twice_h_overflows(self):
        assert make_kernel("custom", expr=parse("1e308")).midpoint_coefficient == 5e-309


# ---------------------------------------------------------------------------
# The memo of custom constants: a warm build is a cold one without the probe
# and the integral, keyed by the tree and quad_tol, and failures never stored.
# ---------------------------------------------------------------------------

_MEMO = kernels._custom_constants

CUSTOM_SOURCES = st.one_of(
    st.builds("{}*t^(-{})+{}".format, st.sampled_from(["0.5", "1", "2.5"]),
              st.sampled_from(["0.25", "0.5", "0.75"]), st.sampled_from(["0", "0.125"])),
    st.builds("exp({}*t)".format, st.sampled_from(["-3", "-0.5", "0", "1", "2.5"])),
    st.builds("1/(t+{})".format, st.sampled_from(["0.001", "0.5", "2"])),
    st.just("1/t"),
)


def _counting(mp):
    """Count the probes and integrals run inside the context of mp."""
    calls = {"probe": 0, "integral": 0}

    def counted(name, real):
        def run(*args):
            calls[name] += 1
            return real(*args)
        return run

    mp.setattr(kernels, "_check_probe", counted("probe", kernels._check_probe))
    mp.setattr(kernels, "_integral", counted("integral", kernels._integral))
    return calls


class TestConstantsMemo:
    @settings(max_examples=40, deadline=None)
    @given(source=CUSTOM_SOURCES, quad_tol=st.sampled_from([1e-6, 1e-10]))
    def test_a_warm_build_is_the_cold_build_without_probe_or_integral(self, source, quad_tol):
        _MEMO.cache_clear()
        cold = make_kernel("custom", expr=parse(source), quad_tol=quad_tol)
        with pytest.MonkeyPatch.context() as mp:
            calls = _counting(mp)
            warm = make_kernel("custom", expr=parse(source), quad_tol=quad_tol)
        assert calls == {"probe": 0, "integral": 0}
        assert warm == cold
        for name in Kernel.__slots__:
            assert repr(getattr(warm, name)) == repr(getattr(cold, name)), name
        assert _MEMO.cache_info().currsize == 1

    @settings(max_examples=10, deadline=None)
    @given(source=CUSTOM_SOURCES)
    def test_each_quad_tol_is_its_own_entry(self, source):
        _MEMO.cache_clear()
        coarse = make_kernel("custom", expr=parse(source), quad_tol=1e-6)
        with pytest.MonkeyPatch.context() as mp:
            calls = _counting(mp)
            fine = make_kernel("custom", expr=parse(source), quad_tol=1e-10)
        assert calls == {"probe": 1, "integral": 1}
        assert _MEMO.cache_info().currsize == 2
        assert _constants(coarse) == _cold_build(parse(source), 1e-6)
        assert _constants(fine) == _cold_build(parse(source), 1e-10)

    def test_the_reference_build_passes_the_memo_by(self):
        expr = parse("1/(t+0.5)")
        _cold_build(expr, 1e-6)
        before = _MEMO.cache_info()
        with pytest.MonkeyPatch.context() as mp:
            calls = _counting(mp)
            _reference_build(expr, 1e-6)
        assert calls["integral"] == 1
        assert _MEMO.cache_info() == before

    def test_signed_zero_constants_are_separate_entries(self):
        _MEMO.cache_clear()
        make_kernel("custom", expr=parse("t+0.0"))
        with pytest.MonkeyPatch.context() as mp:
            calls = _counting(mp)
            make_kernel("custom", expr=parse("t+-0.0"))
        assert calls == {"probe": 1, "integral": 1}
        assert _MEMO.cache_info().currsize == 2

    def test_two_spellings_share_an_entry_and_keep_their_sources(self):
        _MEMO.cache_clear()
        tight = make_kernel("custom", expr=parse("1/t"))
        with pytest.MonkeyPatch.context() as mp:
            calls = _counting(mp)
            spaced = make_kernel("custom", expr=parse("1 / t"))
        assert calls == {"probe": 0, "integral": 0}
        assert _MEMO.cache_info().currsize == 1
        assert _constants(spaced) == _constants(tight)
        assert tight.describe() == "custom: h(t) = 1/t"
        assert spaced.describe() == "custom: h(t) = 1 / t"

    @pytest.mark.parametrize("source,reason", [
        ("t-0.5", "nonpositive"), ("t - 0.5", "nonpositive"),
        ("ln(t-0.5)", "domain"), ("ln(t - 0.5)", "domain"),
    ])
    def test_failures_raise_every_time_and_are_never_stored(self, source, reason):
        _MEMO.cache_clear()
        messages = set()
        for _ in range(3):
            with pytest.MonkeyPatch.context() as mp:
                calls = _counting(mp)
                with pytest.raises(KernelError) as info:
                    make_kernel("custom", expr=parse(source))
            assert calls["probe"] == 1 and info.value.reason == reason
            messages.add(str(info.value))
        assert len(messages) == 1 and repr(source) in messages.pop()
        assert _MEMO.cache_info().currsize == 0

    def test_the_memo_never_grows_past_its_bound(self):
        _MEMO.cache_clear()
        bound = _MEMO.cache_info().maxsize
        for i in range(bound + 8):
            make_kernel("custom", expr=parse(f"1+{i}*t"), quad_tol=1e-6)
            assert _MEMO.cache_info().currsize == min(i + 1, bound)
        # the oldest entry went first, the newest is still there
        with pytest.MonkeyPatch.context() as mp:
            calls = _counting(mp)
            make_kernel("custom", expr=parse(f"1+{bound + 7}*t"), quad_tol=1e-6)
            make_kernel("custom", expr=parse("1+0*t"), quad_tol=1e-6)
        assert calls == {"probe": 1, "integral": 1}
