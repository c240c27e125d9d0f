import math

import pytest
from hypothesis import assume, given, strategies as st

from domcert import geometry
from domcert.expr import parse
from domcert.geometry import (
    AffineMap,
    GeometryError,
    Interval,
    affine_from_expr,
    identity_map,
    make_affine,
)


class TestInterval:
    def test_width_and_contains(self):
        iv = Interval(-1.0, 2.0)
        assert iv.width == 3.0
        assert iv.contains(-1.0) and iv.contains(2.0) and iv.contains(0.5)
        assert not iv.contains(2.0000001)

    def test_rejects_reversed(self):
        with pytest.raises(GeometryError) as info:
            Interval(1.0, 0.0)
        assert info.value.reason == "invalid"

    def test_rejects_degenerate(self):
        with pytest.raises(GeometryError):
            Interval(1.0, 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(GeometryError):
            Interval(0.0, math.inf)


class TestAffineMap:
    def test_identity(self):
        phi = identity_map(Interval(0.0, 1.0))
        assert phi.is_identity
        assert phi.apply(0.3) == 0.3
        assert phi.describe() == "identity"
        assert phi.image_width == 1.0

    def test_scaling_translation(self):
        phi = make_affine(0.5, 0.5, Interval(0.0, 1.0))
        assert phi.apply(0.0) == 0.5
        assert phi.apply(1.0) == 1.0
        assert phi.image_width == 0.5

    def test_orientation_reversal_allowed(self):
        phi = make_affine(-1.0, 1.0, Interval(0.0, 1.0))
        assert phi.apply(0.0) == 1.0
        assert phi.apply(1.0) == 0.0
        assert phi.image_width == -1.0

    def test_domain_is_enforced(self):
        phi = identity_map(Interval(0.0, 1.0))
        with pytest.raises(GeometryError) as info:
            phi.apply(1.5)
        assert info.value.reason == "domain"

    def test_degenerate_map_allowed_at_construction(self):
        # constant maps are representable; downstream reports reject them
        phi = make_affine(0.0, 0.7, Interval(0.0, 1.0))
        assert phi.image_width == 0.0

    def test_image_must_stay_inside_domain(self):
        with pytest.raises(GeometryError) as info:
            make_affine(2.0, 0.0, Interval(0.0, 1.0))
        assert info.value.reason == "range"

    def test_describe_mentions_coefficients(self):
        phi = make_affine(-0.5, 0.5, Interval(0.0, 1.0))
        assert "-0.5" in phi.describe() and "0.5" in phi.describe()


class TestAffineFromExpr:
    def test_linear_expression(self):
        phi = affine_from_expr(parse("0.5*x + 0.5"), Interval(0.0, 1.0))
        assert phi.alpha == pytest.approx(0.5, abs=1e-12)
        assert phi.beta == pytest.approx(0.5, abs=1e-12)
        assert phi.apply(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_constant_expression(self):
        phi = affine_from_expr(parse("0.25"), Interval(0.0, 1.0))
        assert phi.alpha == 0.0
        assert phi.apply(0.9) == 0.25

    def test_identity_expression(self):
        phi = affine_from_expr(parse("x"), Interval(0.0, 1.0))
        assert phi.apply(0.37) == pytest.approx(0.37, abs=1e-15)

    def test_quadratic_rejected(self):
        with pytest.raises(GeometryError) as info:
            affine_from_expr(parse("x^2"), Interval(0.0, 1.0))
        assert info.value.reason == "invalid"

    def test_exponential_rejected(self):
        with pytest.raises(GeometryError):
            affine_from_expr(parse("exp(x)"), Interval(-1.0, 1.0))

    def test_nearly_affine_within_tol_accepted(self):
        # curvature below the probe tolerance passes as affine
        phi = affine_from_expr(parse("0.5*x + 0.25 + 1e-13*x^2"), Interval(0.0, 1.0))
        assert phi.apply(0.5) == pytest.approx(0.5, abs=1e-9)

    def test_expression_image_must_stay_inside(self):
        with pytest.raises(GeometryError) as info:
            affine_from_expr(parse("2*x"), Interval(0.0, 1.0))
        assert info.value.reason == "range"

    @pytest.mark.parametrize("source, alpha, describe", [
        ("x", 1.0, "identity"),
        ("0.5*x", 0.5, "0.5*x + 0.0"),
        ("0.25*x + 1e307", 0.25, "0.25*x + 1.0000000000000001e+307"),
    ])
    def test_a_width_that_overflows_keeps_the_map(self, source, alpha, describe):
        # b - a is inf on [-1e308, 1e308]; the map must not become a constant
        domain = Interval(-1e308, 1e308)
        e = parse(source)
        phi = affine_from_expr(e, domain)
        assert phi.alpha == alpha
        assert phi.beta == e.evaluate(domain.a) - alpha * domain.a
        assert phi.describe() == describe

    @pytest.mark.parametrize("a, b, source, describe", [
        (1e308, 1.7e308, "x", "identity"),
        (-1e308, 1e308, "0.5*x + 0*sin(x)", "0.5*x + 0.0"),
        (1e308, 1.7e308, "x+0*sin(x)", "identity"),
    ])
    def test_probes_on_an_interval_whose_sum_or_width_overflows(self, a, b, source, describe):
        # the midpoint 0.5 * (a + b), every Chebyshev probe point, or the
        # second difference (2u(m) overflowing) was +-inf
        assert affine_from_expr(parse(source), Interval(a, b)).describe() == describe

    def test_a_second_difference_whose_plain_form_overflows_is_refused_by_its_value(self):
        # the refusal named a second difference of -inf
        e = parse("x + 1e307*sin(x)")
        ua, um, ub = e.evaluate(1e308), e.evaluate(1.35e308), e.evaluate(1.7e308)
        assert ua - 2.0 * um + ub == -math.inf
        with pytest.raises(GeometryError) as info:
            affine_from_expr(e, Interval(1e308, 1.7e308))
        second = 2.0 * (0.5 * ua - um + 0.5 * ub)
        assert str(info.value) == (f"expression {e.source!r} is not affine "
                                   f"(second difference {second!r} on a 3-point probe)")


INTERVALS = [Interval(0.0, 1.0), Interval(-1.0, 2.0), Interval(0.25, 1.5)]
CONST = st.floats(-4.0, 4.0, allow_nan=False).map(lambda c: f"({c!r})")
NONZERO = st.floats(0.1, 4.0).map(lambda c: f"({c!r})")
AFFINE = st.recursive(
    st.one_of(st.just("x"), CONST),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-"), inner).map(lambda a: f"({''.join(a)})"),
        inner.map(lambda a: f"(-{a})"),
        st.tuples(CONST, inner).map(lambda a: f"({a[0]}*{a[1]})"),
        st.tuples(inner, CONST).map(lambda a: f"({a[0]}*{a[1]})"),
        st.tuples(inner, NONZERO).map(lambda a: f"({a[0]}/{a[1]})"),
    ),
    max_leaves=6,
)


@given(AFFINE, st.sampled_from(INTERVALS))
def test_affine_trees_keep_the_line_through_their_ends(source, domain):
    e = parse(source)
    ua, ub = e.evaluate(domain.a), e.evaluate(domain.b)
    alpha = (ub - ua) / (domain.b - domain.a)
    beta = ua - alpha * domain.a
    try:
        phi = affine_from_expr(e, domain)
    except GeometryError as exc:
        assert exc.reason == "range"  # its image leaves the domain
        return
    assert (repr(phi.alpha), repr(phi.beta)) == (repr(alpha), repr(beta))
    assert phi.describe() == make_affine(alpha, beta, domain).describe()


@given(st.sampled_from(INTERVALS), st.floats(-1e6, 1e6, allow_nan=False))
def test_a_cubic_through_the_three_probe_points_is_refused(domain, c):
    # x + c (x - a)(x - m)(x - b) is x at a, m and b; its largest distance
    # from that line is |c| (b - a)^3 / (12 sqrt(3)), 0.048 |c| (b - a)^3
    a, b = domain.a, domain.b
    m = 0.5 * (a + b)
    assume(abs(c) * (b - a) ** 3 * 0.047 > 2e-9 * max(abs(a), abs(b), 1.0))
    source = f"x + ({c!r})*(x - ({a!r}))*(x - ({m!r}))*(x - ({b!r}))"
    with pytest.raises(GeometryError) as info:
        affine_from_expr(parse(source), domain)
    assert info.value.reason == "invalid"
    assert str(info.value).startswith(f"expression {source!r} is not affine (")
    assert "from the line through its end values" in str(info.value)


@pytest.mark.parametrize("source", ["0.41*x+0.7349", "2*x+1", "-(x/4) + 0.5*(1 - x)", "x^2"])
def test_an_affine_tree_or_a_3_point_refusal_skips_the_probe(monkeypatch, source):
    def probe(*args):
        raise AssertionError("probed")

    monkeypatch.setattr(geometry, "chebyshev_points", probe)
    try:
        affine_from_expr(parse(source), Interval(0.25, 1.5))
    except GeometryError as exc:
        assert "3-point" in str(exc) or exc.reason == "range"
