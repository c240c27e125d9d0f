import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import poly_source, random_convex_coeffs, shift_nonnegative
from domcert.convexity import (
    HOLDS,
    VIOLATED,
    FunctionPair,
    PreconditionError,
    SamplePlan,
    check_dominated,
    check_phi_h_convex,
    decompose,
    dominance_gap,
    equivalence_report,
    grid_axes,
    phi_h_defect,
)
from domcert.errors import DomcertError
from domcert.expr import EvalError, combine, constant, parse
from domcert.geometry import Interval, identity_map, make_affine
from domcert.kernels import make_kernel
from domcert.search import search_violations

UNIT = Interval(0.0, 1.0)
LINEAR = make_kernel("linear")
IDENT = identity_map(UNIT)


class TestDefects:
    """Hand-derived defect values, all dyadic so the comparisons are exact."""

    def test_square_at_midpoint(self):
        f = parse("x^2")
        # 0.5*0 + 0.5*1 - (0.5)^2
        assert phi_h_defect(f, LINEAR, IDENT, 0.0, 1.0, 0.5) == 0.25

    def test_square_at_quarter(self):
        f = parse("x^2")
        # 0.25*0 + 0.75*1 - (0.75)^2
        assert phi_h_defect(f, LINEAR, IDENT, 0.0, 1.0, 0.25) == 0.1875

    def test_square_with_constant_kernel(self):
        f = parse("x^2")
        one = make_kernel("one")
        # 1*0 + 1*1 - 0.25
        assert phi_h_defect(f, one, IDENT, 0.0, 1.0, 0.5) == 0.75

    def test_square_with_reciprocal_kernel(self):
        f = parse("x^2")
        recip = make_kernel("reciprocal")
        # 2*0 + 2*1 - 0.25
        assert phi_h_defect(f, recip, IDENT, 0.0, 1.0, 0.5) == 1.75

    def test_concave_function_has_negative_defect(self):
        f = parse("1 - x^2")
        # 0.5*1 + 0.5*0 - 0.75
        assert phi_h_defect(f, LINEAR, IDENT, 0.0, 1.0, 0.5) == -0.25

    def test_affine_map_shifts_the_probe(self):
        f = parse("x^2")
        phi = make_affine(0.5, 0.5, UNIT)
        # 0.5*f(0.5) + 0.5*f(1) - f(0.75)
        assert phi_h_defect(f, LINEAR, phi, 0.0, 1.0, 0.5) == 0.0625

    def test_identity_map_defect_is_the_plain_defect(self):
        f = parse("exp(x)")
        for x, y, a in [(0.1, 0.9, 0.3), (0.0, 1.0, 0.5), (0.7, 0.2, 0.25)]:
            want = a * math.exp(x) + (1.0 - a) * math.exp(y) - math.exp(a * x + (1.0 - a) * y)
            assert phi_h_defect(f, LINEAR, IDENT, x, y, a) == want

    def test_linear_function_zero_defect(self):
        f = parse("3*x + 1")
        assert phi_h_defect(f, LINEAR, IDENT, 0.25, 0.75, 0.5) == 0.0


class TestDominanceGap:
    def test_doubled_square_dominates_square(self):
        pair = FunctionPair(parse("x^2"), parse("2*x^2"))
        assert dominance_gap(pair, LINEAR, IDENT, 0.0, 1.0, 0.5) == 0.25

    def test_square_fails_to_dominate_doubled_square(self):
        pair = FunctionPair(parse("2*x^2"), parse("x^2"))
        assert dominance_gap(pair, LINEAR, IDENT, 0.0, 1.0, 0.5) == -0.25

    def test_self_domination_of_convex_function(self):
        pair = FunctionPair(parse("x^2"), parse("x^2"))
        # gap = defect - |defect| = 0 for convex f
        assert dominance_gap(pair, LINEAR, IDENT, 0.0, 1.0, 0.5) == 0.0

    def test_zero_function_dominated_by_any_convex(self):
        pair = FunctionPair(parse("0"), parse("x^2"))
        assert dominance_gap(pair, LINEAR, IDENT, 0.0, 1.0, 0.5) == 0.25

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_gap_equals_min_of_sum_and_diff_defects(self, x, y, t, seed):
        """The identity behind the three-statement equivalence."""
        rng = random.Random(seed)
        f = parse(poly_source(random_convex_coeffs(rng)))
        g = parse(poly_source(random_convex_coeffs(rng)))
        pair = FunctionPair(f, g)
        gap = dominance_gap(pair, LINEAR, IDENT, x, y, t)
        d_diff = phi_h_defect(combine("-", g, f), LINEAR, IDENT, x, y, t)
        d_sum = phi_h_defect(combine("+", g, f), LINEAR, IDENT, x, y, t)
        scale = max(1.0, abs(d_diff), abs(d_sum))
        assert gap == pytest.approx(min(d_diff, d_sum), abs=1e-12 * scale)


class TestSamplePlan:
    def test_grid_defaults(self):
        plan = SamplePlan.grid()
        assert (plan.n_x, plan.n_y, plan.n_t) == (21, 21, 19)
        assert plan.t_clamp == 1e-6

    def test_grid_axes_hit_interval_endpoints(self):
        xs, ys, ts = grid_axes(SamplePlan.grid(5, 5, 4), Interval(-1.0, 3.0))
        assert xs[0] == -1.0 and xs[-1] == 3.0
        assert len(xs) == 5 and len(ys) == 5

    def test_t_axis_is_clamped_and_contains_half(self):
        _, _, ts = grid_axes(SamplePlan.grid(3, 3, 8), UNIT)
        assert all(1e-6 <= t <= 1.0 - 1e-6 for t in ts)
        assert 0.5 in ts

    def test_random_plan_reproducible(self):
        p = SamplePlan.random(50, seed=7)
        q = SamplePlan.random(50, seed=7)
        assert p == q

    @pytest.mark.parametrize(
        "kw",
        [
            {"strategy": "sobol"},
            {"strategy": "grid", "n_x": 0},
            {"strategy": "random", "count": 0},
            {"t_clamp": 0.0},
            {"t_clamp": 0.5},
            {"atol": -1e-9},
        ],
    )
    def test_invalid_plans_rejected(self, kw):
        with pytest.raises(ValueError):
            SamplePlan(**kw)


class TestConvexityCheck:
    def test_square_is_convex_on_samples(self):
        rep = check_phi_h_convex(parse("x^2"), LINEAR, IDENT, UNIT, SamplePlan.grid(9, 9, 7))
        assert rep.holds()
        assert rep.samples_checked == 9 * 9 * 7
        assert rep.worst_gap >= -1e-9

    def test_concave_is_violated(self):
        rep = check_phi_h_convex(
            parse("1 - x^2"), LINEAR, IDENT, UNIT, SamplePlan.grid(9, 9, 7)
        )
        assert rep.verdict == VIOLATED
        assert rep.worst_gap == -0.25
        assert rep.witness == (0.0, 1.0, 0.5)

    def test_grid_and_scalar_agree_to_the_bit_at_witness(self):
        f = parse("exp(2*x) + x^2")
        rep = check_phi_h_convex(f, LINEAR, IDENT, UNIT, SamplePlan.grid(7, 7, 5))
        x, y, t = rep.witness
        again = phi_h_defect(f, LINEAR, IDENT, x, y, t)
        assert again == rep.worst_gap

    def test_rows_collected_on_request(self):
        plan = SamplePlan.grid(4, 4, 3)
        rows = []
        rep = check_phi_h_convex(parse("x^2"), LINEAR, IDENT, UNIT, plan, emit=rows.extend)
        assert len(rows) == rep.samples_checked
        x, y, t, d = rows[0]
        assert phi_h_defect(parse("x^2"), LINEAR, IDENT, x, y, t) == d

    def test_rows_not_collected_by_default(self):
        plan = SamplePlan.grid(4, 4, 3)
        rep = check_phi_h_convex(parse("x^2"), LINEAR, IDENT, UNIT, plan)
        assert not hasattr(rep, "rows")
        rows = []
        assert rep == check_phi_h_convex(parse("x^2"), LINEAR, IDENT, UNIT, plan, rows.append)

    def test_negative_codomain_warning(self):
        rep = check_phi_h_convex(
            parse("x"), LINEAR, identity_map(Interval(-1.0, 1.0)), Interval(-1.0, 1.0),
            SamplePlan.grid(5, 5, 3),
        )
        assert rep.holds()
        assert any("negative sampled values" in w for w in rep.warnings)

    def test_eval_fault_reports_sample_location(self):
        iv = Interval(-1.0, 1.0)
        with pytest.raises(EvalError) as info:
            check_phi_h_convex(parse("1/x"), LINEAR, identity_map(iv), iv, SamplePlan.grid(5, 5, 3))
        assert "x=" in str(info.value)

    def test_random_strategy_checks_count_samples(self):
        rep = check_phi_h_convex(
            parse("x^2"), LINEAR, IDENT, UNIT, SamplePlan.random(200, seed=3)
        )
        assert rep.holds()
        assert rep.samples_checked == 200

    def test_exp_convex_under_power_kernel(self):
        # h(t) = t^0.7 >= t on (0,1) and exp > 0, so defects stay positive
        rep = check_phi_h_convex(
            parse("exp(x)"), make_kernel("power", s=0.7), IDENT, UNIT, SamplePlan.grid(9, 9, 9)
        )
        assert rep.holds()


class TestDominatedCheck:
    def test_holds_with_within_tolerance_warning_possible(self):
        pair = FunctionPair(parse("x^2"), parse("2*x^2"))
        rep = check_dominated(pair, LINEAR, IDENT, UNIT, SamplePlan.grid(9, 9, 7))
        assert rep.holds()
        assert rep.worst_gap >= -1e-9

    def test_violation_found_with_exact_worst(self):
        pair = FunctionPair(parse("2*x^2"), parse("x^2"))
        rep = check_dominated(pair, LINEAR, IDENT, UNIT, SamplePlan.grid(9, 9, 7))
        assert rep.verdict == VIOLATED
        assert rep.worst_gap == -0.25
        assert rep.witness == (0.0, 1.0, 0.5)
        assert rep.witness_lhs == 0.5
        assert rep.witness_rhs == 0.25

    def test_witness_reevaluates_bit_identically(self):
        pair = FunctionPair(parse("exp(x) - 1"), parse("exp(2*x)"))
        rep = check_dominated(pair, LINEAR, IDENT, UNIT, SamplePlan.grid(8, 8, 6))
        x, y, t = rep.witness
        assert dominance_gap(pair, LINEAR, IDENT, x, y, t) == rep.worst_gap

    def test_nonconvex_dominator_is_a_precondition_failure(self):
        pair = FunctionPair(parse("x^2"), parse("1 - x^2"))
        with pytest.raises(PreconditionError):
            check_dominated(pair, LINEAR, IDENT, UNIT, SamplePlan.grid(5, 5, 3))

    def test_scale_invariance_small(self):
        pair = FunctionPair(parse("1e-12*x^2"), parse("2e-12*x^2"))
        rep = check_dominated(pair, LINEAR, IDENT, UNIT, SamplePlan.grid(7, 7, 5))
        assert rep.holds()

    def test_large_scale_needs_matching_atol(self):
        # defect rounding noise grows with the function scale while the
        # relative term sees only the (tiny) sides at the witness, so
        # 1e12-sized functions want a correspondingly sized atol
        pair = FunctionPair(parse("1e12*x^2"), parse("2e12*x^2"))
        rep = check_dominated(
            pair, LINEAR, IDENT, UNIT, SamplePlan.grid(7, 7, 5, atol=1e-2)
        )
        assert rep.holds()

    def test_determinism(self):
        pair = FunctionPair(parse("x^2 + x"), parse("3*x^2 + x"))
        plan = SamplePlan.grid(6, 6, 5)
        assert check_dominated(pair, LINEAR, IDENT, UNIT, plan) == check_dominated(
            pair, LINEAR, IDENT, UNIT, plan
        )

    def test_dominance_rows_shape(self):
        pair = FunctionPair(parse("x^2"), parse("2*x^2"))
        rows = []
        rep = check_dominated(
            pair, LINEAR, IDENT, UNIT, SamplePlan.grid(3, 3, 3), emit=rows.extend
        )
        assert len(rows) == rep.samples_checked
        assert len(rows[0]) == 6


def _halves(l, k):
    """f = (l - k)/2 and g = (l + k)/2 as trees: decompose() run backwards."""
    two = constant(2.0)
    return FunctionPair(
        combine("/", combine("-", l, k), two), combine("/", combine("+", l, k), two)
    )


class TestDecomposeCompose:
    def test_decompose_builds_sum_and_difference(self):
        pair = FunctionPair(parse("x^2"), parse("exp(x)"))
        l, k = decompose(pair)
        for v in (0.0, 0.3, 1.0):
            assert l.evaluate(v) == math.exp(v) + v**2
            assert k.evaluate(v) == math.exp(v) - v**2

    def test_round_trip_is_not_bit_exact_in_floats(self):
        # fl((g+f) - (g-f))/2 != f in general; this exact instance drifts
        # one ulp, which is why the round-trip contract is ulp-bounded
        pair = FunctionPair(parse("0.1"), parse("0.3"))
        back = _halves(*decompose(pair))
        assert back.f.evaluate(0.0) == 0.10000000000000002
        assert back.f.evaluate(0.0) != 0.1

    def test_round_trip_within_two_ulp_everywhere(self):
        rng = random.Random(99)
        pair = FunctionPair(
            parse(poly_source(random_convex_coeffs(rng))),
            parse(poly_source(random_convex_coeffs(rng))),
        )
        back = _halves(*decompose(pair))
        for _ in range(1000):
            v = rng.uniform(-1.0, 1.0)
            # the cancellation error is relative to |f|+|g|, not to the
            # (possibly much smaller) recovered component
            scale = abs(pair.f.evaluate(v)) + abs(pair.g.evaluate(v))
            for orig, re_built in ((pair.f, back.f), (pair.g, back.g)):
                a, b = orig.evaluate(v), re_built.evaluate(v)
                assert abs(a - b) <= 2.0 * math.ulp(max(scale, 1e-300))


class TestEquivalence:
    def test_dominated_pair_all_statements_hold(self):
        pair = FunctionPair(parse("x^2"), parse("2*x^2"))
        rep = equivalence_report(pair, LINEAR, IDENT, UNIT, SamplePlan.grid(7, 7, 5))
        assert rep.statement_holds == (True, True, True)
        assert rep.agreement

    def test_violating_pair_all_statements_fail(self):
        pair = FunctionPair(parse("2*x^2"), parse("x^2"))
        rep = equivalence_report(pair, LINEAR, IDENT, UNIT, SamplePlan.grid(7, 7, 5))
        assert rep.statement_holds == (False, False, False)
        assert rep.agreement

    def test_statements_two_and_three_bit_identical(self):
        # decompose() returns the same trees the second statement checks,
        # so the corresponding reports must match exactly
        pair = FunctionPair(parse("x^2 + x"), parse("exp(x)"))
        rep = equivalence_report(pair, LINEAR, IDENT, UNIT, SamplePlan.grid(6, 6, 5))
        assert rep.l_convex.worst_gap == rep.sum_convex.worst_gap
        assert rep.k_convex.worst_gap == rep.diff_convex.worst_gap
        assert rep.l_convex.witness == rep.sum_convex.witness
        assert rep.k_convex.witness == rep.diff_convex.witness

    def test_no_precondition_gate_on_equivalence(self):
        # unlike check_dominated, the three-way report runs even when g is
        # outside the class; all three statements then agree on failure
        pair = FunctionPair(parse("x^2"), parse("1 - x^2"))
        rep = equivalence_report(pair, LINEAR, IDENT, UNIT, SamplePlan.grid(5, 5, 5))
        assert rep.statement_holds == (False, False, False)
        assert rep.agreement

    def test_random_strategy_agreement(self):
        pair = FunctionPair(parse("exp(x)"), parse("2*exp(x) + x^2"))
        rep = equivalence_report(
            pair, LINEAR, IDENT, UNIT, SamplePlan.random(300, seed=11)
        )
        assert rep.agreement


SYM = Interval(-1.0, 1.0)
ONE = make_kernel("one")
OVERFLOW_GRID = SamplePlan.grid(5, 5, 3)


class TestInfiniteSides:
    """A defect or gap of -inf is a violation, although an infinite side
    makes the threshold atol + rtol*scale inf.  With h = 1 and u = c*x*x,
    u(-1) + u(1) overflows once |c| > max/2."""

    def test_minus_inf_defect_is_violated(self):
        rep = check_phi_h_convex(
            parse("-1.7e308*x*x"), ONE, identity_map(SYM), SYM, OVERFLOW_GRID
        )
        assert rep.worst_gap == -math.inf
        assert rep.verdict == VIOLATED
        assert rep.warnings == ["function takes negative sampled values (codomain should "
                                "be [0, inf))"]

    def test_dominator_with_minus_inf_defect_fails_the_gate(self):
        pair = FunctionPair(parse("x"), parse("-1.7e308*x*x"))
        with pytest.raises(PreconditionError, match="worst defect -inf"):
            check_dominated(pair, ONE, identity_map(SYM), SYM, OVERFLOW_GRID)

    def test_minus_inf_gap_is_violated(self):
        # |defect_f| = inf against a finite defect_g
        pair = FunctionPair(parse("1e308*x*x"), parse("x*x"))
        rep = check_dominated(pair, ONE, identity_map(SYM), SYM, OVERFLOW_GRID)
        assert (rep.worst_gap, rep.witness_lhs) == (-math.inf, math.inf)
        assert rep.verdict == VIOLATED

    def test_equivalence_counts_minus_inf_against_both_statements(self):
        # g - f = (1 - 1e308)*x*x: its defect is -inf where the gap is
        pair = FunctionPair(parse("1e308*x*x"), parse("x*x"))
        rep = equivalence_report(pair, ONE, identity_map(SYM), SYM, OVERFLOW_GRID)
        assert rep.diff_convex.worst_gap == -math.inf
        assert rep.statement_holds == (False, False, False)
        assert rep.agreement

    @pytest.mark.parametrize("plan", [OVERFLOW_GRID, SamplePlan.random(50, seed=1)])
    def test_no_sample_below_plus_inf_decides_nothing(self, plan):
        # every defect is +inf, or every gap inf - inf: it held with a nan witness
        phi = identity_map(SYM)
        for run, name in (
            (lambda: check_phi_h_convex(parse("1.7e308"), ONE, phi, SYM, plan), "the function"),
            (lambda: check_dominated(FunctionPair(parse("1.7e308"), parse("1.7e308")), ONE,
                                     phi, SYM, plan), "g"),
        ):
            with pytest.raises(DomcertError) as info:
                run()
            assert str(info.value).startswith(f"no sampled convexity defect of {name} ")

    @pytest.mark.parametrize("refine", [False, True])
    def test_search_keeps_rows_with_an_infinite_side(self, refine):
        pair = FunctionPair(parse("1e308*x*x"), parse("x*x"))
        rows = search_violations(pair, ONE, identity_map(SYM), SYM, OVERFLOW_GRID, refine)
        assert any(r.gap == -math.inf and r.lhs_abs == math.inf for r in rows)


class TestNonnegativeGenerators:
    """The conftest polynomial generators feed the acceptance sweep; pin
    down that they really produce convex, nonnegative samples."""

    def test_generated_polys_are_convex_on_samples(self, rng):
        for _ in range(10):
            coeffs = shift_nonnegative(random_convex_coeffs(rng), 0.0, 1.0)
            rep = check_phi_h_convex(
                parse(poly_source(coeffs)), LINEAR, IDENT, UNIT, SamplePlan.grid(6, 6, 5)
            )
            assert rep.holds()
            assert not rep.warnings or "within tolerance" in rep.warnings[-1]
