import math
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from domcert.convexity import (
    _SEED_BUFFER, _SWEEP_ENV, _VIOLATES, REFINE_SEEDS, FunctionPair, SamplePlan, _least,
    _gap_function, _plan_sweep, _violates, dominance_gap,
)
from domcert.expr import parse
from domcert.geometry import Interval, identity_map
from domcert.kernels import make_kernel
from domcert.search import ViolationRecord, _records, _refine_seed, search_violations

UNIT = Interval(0.0, 1.0)
IDENT = identity_map(UNIT)
LINEAR = make_kernel("linear")


class TestNoViolations:
    def test_equal_functions_give_empty_list(self):
        pair = FunctionPair(parse("x^2"), parse("x^2"))
        out = search_violations(pair, LINEAR, IDENT, UNIT, SamplePlan.grid(9, 9, 7))
        assert out == []

    def test_dominated_pair_gives_empty_list(self):
        pair = FunctionPair(parse("x^2"), parse("2*x^2"))
        out = search_violations(
            pair, LINEAR, IDENT, UNIT, SamplePlan.grid(9, 9, 7), refine=True
        )
        assert out == []


class TestViolationRecords:
    def test_sorted_worst_first(self):
        pair = FunctionPair(parse("2*x^2"), parse("x^2"))
        out = search_violations(pair, LINEAR, IDENT, UNIT, SamplePlan.grid(9, 9, 7))
        assert out
        gaps = [r.gap for r in out]
        assert gaps == sorted(gaps)
        assert out[0].gap == -0.25
        assert (out[0].x, out[0].y, out[0].t) == (0.0, 1.0, 0.5)

    def test_every_record_reevaluates_bit_identically(self):
        pair = FunctionPair(parse("2*x^2"), parse("x^2"))
        out = search_violations(
            pair, LINEAR, IDENT, UNIT, SamplePlan.grid(7, 7, 5), refine=True
        )
        for r in out[:50]:
            assert dominance_gap(pair, LINEAR, IDENT, r.x, r.y, r.t) == r.gap

    def test_records_are_frozen(self):
        r = ViolationRecord(0.0, 1.0, 0.5, -0.25, 0.5, 0.25)
        with pytest.raises(Exception):
            r.gap = 0.0

    def test_records_are_named_tuples(self):
        r = ViolationRecord(0.0, 1.0, 0.5, -0.25, 0.5, 0.25)
        assert r == (0.0, 1.0, 0.5, -0.25, 0.5, 0.25)
        assert r._asdict() == {"x": 0.0, "y": 1.0, "t": 0.5, "gap": -0.25, "lhs_abs": 0.5,
                               "rhs": 0.25}
        assert list(r._asdict()) == ["x", "y", "t", "gap", "lhs_abs", "rhs"]

    def test_sides_stored_with_each_record(self):
        pair = FunctionPair(parse("2*x^2"), parse("x^2"))
        out = search_violations(pair, LINEAR, IDENT, UNIT, SamplePlan.grid(5, 5, 5))
        top = out[0]
        assert top.lhs_abs == 0.5
        assert top.rhs == 0.25
        assert top.gap == top.rhs - top.lhs_abs


class TestRefinement:
    def test_refinement_never_raises_the_worst_gap(self):
        pair = FunctionPair(parse("2*x^2"), parse("x^2"))
        plan = SamplePlan.grid(6, 6, 4)
        coarse = search_violations(pair, LINEAR, IDENT, UNIT, plan)
        fine = search_violations(pair, LINEAR, IDENT, UNIT, plan, refine=True)
        assert fine[0].gap <= coarse[0].gap

    def test_refinement_finds_interior_optimum_in_t(self):
        # with h = sqrt(t) and f = 2g the worst triple sits at x=0, y=1,
        # t* = 1 - 4^(-2/3): strictly between coarse grid nodes
        pair = FunctionPair(parse("2*x^2"), parse("x^2"))
        h = make_kernel("power", s=0.5)
        plan = SamplePlan.grid(5, 5, 6)
        t_star = 1.0 - 0.25 ** (2.0 / 3.0)
        u = 1.0 - t_star
        gap_star = -(math.sqrt(u) - u * u)

        coarse = search_violations(pair, h, IDENT, UNIT, plan)
        fine = search_violations(pair, h, IDENT, UNIT, plan, refine=True)
        assert fine[0].gap < coarse[0].gap
        assert fine[0].gap == pytest.approx(gap_star, abs=1e-6)
        assert (fine[0].x, fine[0].y) == (0.0, 1.0)
        assert fine[0].t == pytest.approx(t_star, abs=1e-3)

    def test_refined_points_stay_inside_the_box(self):
        pair = FunctionPair(parse("2*x^2"), parse("x^2"))
        out = search_violations(
            pair, LINEAR, IDENT, UNIT, SamplePlan.grid(5, 5, 5), refine=True
        )
        for r in out:
            assert 0.0 <= r.x <= 1.0 and 0.0 <= r.y <= 1.0
            assert 1e-6 <= r.t <= 1.0 - 1e-6

    def test_refinement_does_not_duplicate_triples(self):
        pair = FunctionPair(parse("2*x^2"), parse("x^2"))
        out = search_violations(
            pair, LINEAR, IDENT, UNIT, SamplePlan.grid(5, 5, 5), refine=True
        )
        keys = [(r.x, r.y, r.t) for r in out]
        assert len(keys) == len(set(keys))


    @pytest.mark.parametrize("seed", [(0.0, 1.0, 0.5), (1.0, 0.0, 1e-6), (-0.0, 1.0, 0.5)])
    def test_refinement_never_evaluates_the_current_point_again(self, seed):
        # at a box edge the clamp maps a candidate back onto its point
        gap = _gap_function(FunctionPair(parse("2*x^2"), parse("x^2")), LINEAR, IDENT)
        held, calls = {}, []

        def parts(*point):
            out = gap(*point)
            bits = tuple(map(float.hex, point))  # 0.0 and -0.0 differ
            assert bits != held.get("bits")
            if not held or out[0] < held["best"]:
                held.update(bits=bits, best=out[0])
            calls.append(bits)
            return out

        _refine_seed(parts, *seed, UNIT, 1e-6)
        assert len(calls) > 1
        if math.copysign(1.0, seed[0]) < 0.0:
            # x - step clamps to 0.0, which is not the point -0.0
            assert tuple(map(float.hex, (0.0, *seed[1:]))) in calls


class TestDeterminism:
    def test_repeated_runs_identical(self):
        pair = FunctionPair(parse("2*x^2 + x"), parse("x^2 + x"))
        plan = SamplePlan.grid(7, 7, 5)
        a = search_violations(pair, LINEAR, IDENT, UNIT, plan, refine=True)
        b = search_violations(pair, LINEAR, IDENT, UNIT, plan, refine=True)
        assert a == b

    def test_random_strategy_respects_seed(self):
        pair = FunctionPair(parse("2*x^2"), parse("x^2"))
        a = search_violations(pair, LINEAR, IDENT, UNIT, SamplePlan.random(300, seed=5))
        b = search_violations(pair, LINEAR, IDENT, UNIT, SamplePlan.random(300, seed=5))
        c = search_violations(pair, LINEAR, IDENT, UNIT, SamplePlan.random(300, seed=6))
        assert a == b
        assert a != c


# ---------------------------------------------------------------------------
# The kept rows and their order
# ---------------------------------------------------------------------------

COORDS = st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, 1.0, 5e-324])
GAPS = st.one_of(
    st.sampled_from([-math.inf, -1.0, -0.5, -0.0, 0.0, -5e-324]),
    st.floats(allow_nan=False),
)
ROWS = st.tuples(COORDS, COORDS, COORDS, GAPS, st.floats(), st.floats())


@settings(deadline=None)
@given(st.lists(ROWS, max_size=40), st.lists(st.tuples(st.integers(0, 39), ROWS), max_size=10))
def test_records_are_found_in_gap_then_point_order(rows, refined):
    # rows as the loop keeps them (a later row replaces an equal point's),
    # then refined points replacing their seeds as search_violations does
    found = {}
    for row in rows:
        found[row[:3]] = row
    for i, row in refined:
        if rows:
            found.pop(rows[i % len(rows)][:3], None)
        found[row[:3]] = row
    want = [ViolationRecord._make(r) for r in sorted(found.values(), key=itemgetter(3, 0, 1, 2))]
    out = _records(found)
    assert repr(out) == repr(want)
    assert all(type(r) is ViolationRecord for r in out)
    assert found == {}


SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-9, 1e300])
ANY = st.one_of(SPECIAL, st.floats())
TOLS = st.one_of(st.sampled_from([0.0, 1e-9, 1.0]), st.floats(0.0, 1e300))


@given(ANY, ANY, ANY, TOLS, TOLS)
def test_loop_filter_is_violates(gap, lhs, rhs, atol, rtol):
    test = eval(f"lambda g, l, r, atol, rtol: {_VIOLATES.format(v='g', lhs='l', rhs='r')}",
                dict(_SWEEP_ENV))
    assert test(gap, lhs, rhs, atol, rtol) == _violates(gap, lhs, rhs, atol, rtol)


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(["2*x^2", "x^2", "exp(3*x)", "abs(x-0.5)", "-x^2", "x^4-x"]),
    st.sampled_from(["x^2", "2*x^2", "exp(3*x)", "0.5*x^2"]),
    st.sampled_from(["grid", "random"]),
    TOLS,
    TOLS,
)
def test_loop_keeps_exactly_the_violating_rows(f, g, strategy, atol, rtol):
    if strategy == "grid":
        plan = SamplePlan.grid(5, 5, 5, atol=atol, rtol=rtol)
    else:
        plan = SamplePlan.random(300, seed=4, atol=atol, rtol=rtol)
    rows, found = [], {}
    pair = (parse(f), parse(g))
    _plan_sweep(pair, ("gap",), LINEAR, IDENT, UNIT, plan, rows.extend, found)
    want = {row[:3]: row for row in rows if _violates(*row[3:], atol, rtol)}
    assert repr(found) == repr(want)


def _seeds(pair, h, interval, plan):
    """(seeds, every row) of one pass over the plan."""
    rows, seeds = [], []
    _plan_sweep(pair, ("gap",), h, identity_map(interval), interval, plan, rows.extend, None,
                seeds)
    return seeds, rows


def test_a_nan_gap_is_never_a_seed():
    # with h = 1, f(px) + f(py) overflows near |x| = |y| = 1 and the gap is
    # inf - inf; those samples come first on [-1, 0] and last on [0, 1],
    # where the gap at (x, y, t) is the gap at (-x, -y, t) on [-1, 0]
    pair = (parse("1.7e308*x^2"), parse("1.75e308*x^2"))
    one, plan = make_kernel("one"), SamplePlan.grid(9, 9, 7)
    first, first_rows = _seeds(pair, one, Interval(-1.0, 0.0), plan)
    last, last_rows = _seeds(pair, one, UNIT, plan)
    assert math.isnan(first_rows[0][3]) and math.isnan(last_rows[-1][3])
    for seeds, rows in ((first, first_rows), (last, last_rows)):
        assert repr(seeds) == repr(_least([r for r in rows if not math.isnan(r[3])]))
    # the same seeds, up to which of two equal gaps the point order picks
    assert len(first) == REFINE_SEEDS
    assert [r[3] for r in first] == [r[3] for r in last]


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(["2*x^2", "exp(3*x)", "x^4-x"]), st.integers(0, 99),
       st.sampled_from([REFINE_SEEDS - 1, REFINE_SEEDS + 1, _SEED_BUFFER + 7]))
def test_loop_seeds_are_the_least_rows(f, seed, count):
    # trimmed at _SEED_BUFFER held rows, the seeds are still the least of all
    plan = SamplePlan.random(count, seed=seed)
    seeds, rows = _seeds((parse(f), parse("x^2")), LINEAR, UNIT, plan)
    assert repr(seeds) == repr(_least(rows))
