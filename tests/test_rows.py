"""The row writers against the generic encoders they replace.

check-* CSV rows, search CSV rows and the search JSON rows are each one
%-format per row with the grid coordinates' reprs looked up in a table;
every row writer takes its rows a chunk at a time, and search rows are
written in the slot of their envelope.  Their text must equal csv.writer
over the raw floats, json.dumps(_sanitize(envelope), indent=2) and
render_text over the rows as dicts, for every float: signed zeros (one key
in the table, two reprs), infinities, nan, subnormals and 17-digit values,
and for chunks of every size.  The bound and equivalence
CSV rows must equal csv.writer over their cells, floats as their repr.
render_json itself must equal json.dumps(_sanitize(envelope), indent=2) on
any nesting of dicts, lists, tuples and named tuples.
"""

import csv
import io
import json
import math
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from domcert import cli
from domcert.convexity import FunctionPair, SamplePlan, grid_axes
from domcert.geometry import Interval
from domcert.hadamard import HHReport, SpecialCaseEntry, hh_bounds_report, special_case_report
from domcert.search import ViolationRecord

SPECIAL = st.sampled_from([
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
    -1.1125369292536007e-308, 0.30000000000000004, 1.7976931348623157e308,
    -0.1234567890123456789, 1e16, 1e-7, 123456789.12345679,
])
FLOATS = st.one_of(SPECIAL, st.floats(), st.floats(allow_subnormal=True, width=64))
AXIS = st.lists(st.one_of(SPECIAL, st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=8)


@st.composite
def table_and_rows(draw, width: int):
    """(reprs, rows): coordinates from the axis, its other-signed zeros or
    anywhere; the table is empty, as for a random plan, or the axis's."""
    axis = draw(AXIS)
    coordinate = st.one_of(st.sampled_from(axis), st.sampled_from([0.0, -0.0]), FLOATS)
    row = st.tuples(coordinate, coordinate, coordinate, *[FLOATS] * (width - 3))
    return cli._reprs(axis) if draw(st.booleans()) else {}, draw(st.lists(row, max_size=12))


def _sanitize(obj):
    """The envelope json.dumps writes as render_json does: a non-finite
    float as a string, a tuple as a list."""
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def csv_writer_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def envelope(violations, count: int) -> dict:
    return {
        "tool": "domcert",
        "subcommand": "search",
        # text that looks like the rows' own is left as it is
        "inputs": {"f": '"violations": []', "g": "x\nresult.count = 0", "interval": [0.0, -0.0]},
        "result": {"violations": violations, "count": count, "refined": False},
        "exit_code": 1,
    }


CHUNKS = st.one_of(st.integers(1, 5), st.just(cli._CHUNK_ROWS))


def csv_rows(subcommand, reprs, rows, chunk) -> str:
    buf = io.StringIO()
    emit = cli._csv_rows(subcommand, reprs, buf.write)
    for i in range(0, len(rows), chunk):
        emit(rows[i:i + chunk])
    return buf.getvalue()


@settings(deadline=None)
@given(table_and_rows(4), CHUNKS)
def test_check_convex_rows_match_csv_writer(data, chunk):
    reprs, rows = data
    want = csv_writer_text(["x", "y", "t", "defect"], rows)
    assert csv_rows("check-convex", reprs, rows, chunk) == want


@settings(deadline=None)
@given(table_and_rows(6), CHUNKS)
def test_check_dominated_rows_match_csv_writer(data, chunk):
    reprs, rows = data
    want = csv_writer_text(["x", "y", "t", "gap", "lhs_abs", "rhs"], rows)
    assert csv_rows("check-dominated", reprs, rows, chunk) == want


def search_csv(records, reprs, chunk) -> str:
    return csv_rows("search", reprs, records, chunk)


def search_json(records, reprs, chunk) -> str:
    buf = io.StringIO()
    rows = cli._SearchRows(records, reprs, buf.write, chunk)
    buf.write(cli.render_json(envelope(rows, len(records))))  # the text after the rows
    return buf.getvalue()


def search_text(records, chunk) -> str:
    buf = io.StringIO()
    rows = cli._SearchRows(records, {}, buf.write, chunk)
    buf.write(cli.render_text(envelope(rows, len(records))))
    return buf.getvalue()


def render_text_rows(records) -> str:
    return cli.render_text(envelope([r._asdict() for r in records], len(records)))


def json_dumps_text(records) -> str:
    return json.dumps(_sanitize(envelope([r._asdict() for r in records], len(records))),
                      indent=2) + "\n"


@settings(deadline=None)
@given(table_and_rows(6), CHUNKS)
def test_search_csv_matches_csv_writer(data, chunk):
    reprs, rows = data
    records = [ViolationRecord._make(r) for r in rows]
    want = csv_writer_text(["x", "y", "t", "gap", "lhs_abs", "rhs"], rows)
    assert search_csv(records, reprs, chunk) == want


@settings(deadline=None)
@given(table_and_rows(6), CHUNKS)
def test_search_json_matches_json_dumps(data, chunk):
    reprs, rows = data
    records = [ViolationRecord._make(r) for r in rows]
    assert search_json(records, reprs, chunk) == json_dumps_text(records)


@settings(deadline=None)
@given(table_and_rows(6), CHUNKS)
def test_search_text_matches_render_text(data, chunk):
    _, rows = data
    records = [ViolationRecord._make(r) for r in rows]
    assert search_text(records, chunk) == render_text_rows(records)


@pytest.mark.parametrize("size", [1, 2, 3, 7])
def test_search_rows_across_chunk_boundaries(size):
    # more rows than one chunk, with inf and nan in the last row of a chunk
    # and in the first row of the next
    n = cli._CHUNK_ROWS
    bad = {n - 1, n, 2 * n - 1, 2 * n}
    records = [
        ViolationRecord(i * 1e-3, -0.0 if i % 2 else 0.5, 0.25,
                        -math.inf if i in bad else -1.0 - i,
                        math.nan if i in bad else 0.0, math.inf if i in bad else 1e300)
        for i in range(size * n + 1)
    ]
    want = csv_writer_text(["x", "y", "t", "gap", "lhs_abs", "rhs"], records)
    for reprs in (cli._reprs([0.5, 0.25, -0.0]), {}):
        assert search_json(records, reprs, n) == json_dumps_text(records)
        assert search_csv(records, reprs, n) == want
    assert search_text(records, n) == render_text_rows(records)


def test_coordinate_table_leaves_out_zeros():
    plan, interval = SamplePlan.grid(3, 3, 3), Interval(-1.0, -0.0)
    xs, ys, ts = grid_axes(plan, interval)
    assert xs[-1] == 0.0 and math.copysign(1.0, xs[-1]) < 0.0
    assert cli._coordinate_reprs(plan, interval) == {v: repr(v) for v in [-1.0, -0.5, *ts]}
    assert cli._coordinate_reprs(SamplePlan.random(5), interval) == {}


CHECK = st.fixed_dictionaries({
    "verdict": st.sampled_from(["holds-on-samples", "violated"]),
    "samples_checked": st.integers(1, 10**9),
    "worst_gap": FLOATS,
    "witness": st.fixed_dictionaries({"x": FLOATS, "y": FLOATS, "t": FLOATS}),
})
BOUND = st.fixed_dictionaries({
    "bound_kind": st.sampled_from(["midpoint", "endpoint"]),
    "lhs": FLOATS, "rhs": FLOATS, "margin": FLOATS,
    "holds": st.booleans(), "vacuous": st.booleans(), "quad_error": FLOATS,
})
EQUIVALENCE = ("dominance", "diff_convex", "sum_convex", "l_convex", "k_convex")
BOUND_HEADER = ["label", "bound_kind", "lhs", "rhs", "margin", "holds", "vacuous", "quad_error"]


def dispatched(subcommand: str, records: list) -> dict:
    """The result dict _dispatch returns for verify-hh (HHReport records) or
    special-case (SpecialCaseEntry records): each report as the dict of its
    fields."""
    if subcommand == "verify-hh":
        return {"reports": [r._asdict() for r in records]}
    return {"entries": [{"label": e.label, "report": e.report._asdict()} for e in records]}


def bound_cells(label, r) -> list:
    return [label, *(r[k] for k in BOUND_HEADER[1:])]


def csv_writer_cells(header: list[str], rows) -> str:
    return csv_writer_text(header, [[repr(c) if isinstance(c, float) else c for c in row]
                                    for row in rows])


@settings(deadline=None)
@given(st.fixed_dictionaries({name: CHECK for name in EQUIVALENCE}))
def test_equivalence_csv_matches_csv_writer(result):
    rows = [[name, *(result[name][k] for k in ("verdict", "samples_checked", "worst_gap")),
             *(result[name]["witness"][k] for k in "xyt")] for name in EQUIVALENCE]
    want = csv_writer_cells(["check", "verdict", "samples_checked", "worst_gap", "x", "y", "t"],
                            rows)
    assert cli.render_csv("equivalence", result) == want


@settings(deadline=None)
@given(st.lists(BOUND, max_size=4),
       st.lists(st.tuples(st.sampled_from(["linear", "power", "reciprocal", "one"]), BOUND),
                max_size=8))
def test_bound_csv_matches_csv_writer(reports, entries):
    # render_csv reads the result dict _dispatch returns, its reports the dicts of
    # HHReport records, and drops each dict's last value: warnings stays last
    assert HHReport._fields[-1] == "warnings"
    want = csv_writer_cells(BOUND_HEADER, [bound_cells(r["bound_kind"], r) for r in reports])
    records = [HHReport(**r) for r in reports]
    assert cli.render_csv("verify-hh", dispatched("verify-hh", records)) == want
    labeled = [(f"{name}/{r['bound_kind']}", r) for name, r in entries]
    want = csv_writer_cells(BOUND_HEADER, [bound_cells(label, r) for label, r in labeled])
    records = [SpecialCaseEntry(label, HHReport(**r)) for label, r in labeled]
    assert cli.render_csv("special-case", dispatched("special-case", records)) == want


class Pair(NamedTuple):
    first: object
    second: object


TEXT = st.one_of(st.text(), st.sampled_from(["", "\u00e9\u4e2d\U0001f600", "\x00\x1f\x7f\"\\/",
                                             "\ud800", "line\nbreak\ttab"]))
LEAVES = st.one_of(
    FLOATS, st.integers(), st.sampled_from([2**64, -(2**200), 10**300]), st.booleans(),
    st.none(), TEXT,
)
NESTED = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.dictionaries(TEXT, inner, max_size=4),
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.builds(Pair, inner, inner),
        st.sampled_from([{}, [], ()]),
    ),
    max_leaves=24,
)


@settings(deadline=None, max_examples=300)
@given(NESTED)
def test_render_json_matches_json_dumps(obj):
    assert cli.render_json(obj) == json.dumps(_sanitize(obj), indent=2) + "\n"


# ---------------------------------------------------------------------------
# Envelopes written from their heads and result dicts: the bytes of the
# envelope dict the CLI used to build (old_envelope) through json.dumps and
# render_text.
# ---------------------------------------------------------------------------


def old_plan(plan: SamplePlan) -> dict:
    base = {"strategy": plan.strategy}
    if plan.strategy == "grid":
        base.update({"n_x": plan.n_x, "n_y": plan.n_y, "n_t": plan.n_t})
    else:
        base.update({"count": plan.count, "seed": plan.seed})
    base.update({"t_clamp": plan.t_clamp, "atol": plan.atol, "rtol": plan.rtol})
    return base


def old_envelope(ns, built, result: dict, code: int) -> dict:
    inputs: dict = {"f": ns.f}
    if built.g is not None:
        inputs["g"] = ns.g
    if built.kernel is not None:
        inputs["kernel"] = built.kernel.describe()
    inputs["phi"] = built.phi.describe()
    inputs["interval"] = [built.interval.a, built.interval.b]
    inputs["plan"] = old_plan(built.plan)
    inputs["quad_tol"] = ns.quad_tol
    return {"tool": cli.TOOL, "version": cli.__version__, "subcommand": ns.subcommand,
            "inputs": inputs, "result": result, "exit_code": code}


def built_request(argv: list[str]):
    ns = cli._parse_argv(argv)
    problems: list[str] = []
    built = cli._build_inputs(ns, problems)
    assert problems == []
    return ns, built


LABEL = st.one_of(st.sampled_from(["linear/midpoint", "power(s=0.5)/endpoint",
                                   "reciprocal/midpoint"]), TEXT)
REPORT = st.builds(
    HHReport, st.sampled_from(["midpoint", "endpoint"]), FLOATS, FLOATS, FLOATS,
    st.booleans(), st.booleans(), FLOATS, st.lists(TEXT, max_size=3),
)
KERNEL_FLAGS = st.sampled_from([[], ["--h", "t"], ["--h", "t^s", "--s", "0.25"],
                                ["--h", "1/t"], ["--h", "1"], ["--h-custom", "t+1"],
                                ["--h-custom", "1/sqrt(t)"]])
PLAN_FLAGS = st.one_of(
    st.tuples(st.integers(1, 50), st.integers(1, 50), st.integers(1, 50)).map(
        lambda n: ["--grid", *map(str, n)]),
    st.tuples(st.integers(1, 10**6), st.integers(0, 2**40)).map(
        lambda n: ["--random", str(n[0]), "--seed", str(n[1])]),
)
TOLERANCE = st.floats(0.0, 1.0).map(repr)


@st.composite
def bound_request(draw):
    """(ns, built, records): a verify-hh or special-case request built as
    main builds it, with f and g echoed as drawn text, and drawn records."""
    a = draw(st.integers(-2**24, 2**24)) / 16.0  # dyadic: the map below is exact
    b = a + draw(st.integers(1, 2**24)) / 16.0
    argv = ["--f", "x*x", "--g", "2*x*x", "--interval", repr(a), repr(b),
            *draw(PLAN_FLAGS), "--atol", draw(TOLERANCE), "--rtol", draw(TOLERANCE),
            "--eps-t", repr(draw(st.floats(1e-12, 0.25))),
            "--quad-tol", repr(draw(st.floats(1e-14, 1e-3)))]
    if draw(st.booleans()):
        argv += ["--phi", draw(st.sampled_from(["0.5*x+0.5*" + repr(a), "x", "1*x+0"]))]
    if draw(st.booleans()):
        ns, built = built_request(["verify-hh", *argv, *draw(KERNEL_FLAGS)])
        records = draw(st.lists(REPORT, min_size=1, max_size=3))
    else:
        ns, built = built_request(["special-case", *argv, "--s", "0.5"])
        records = draw(st.lists(st.builds(SpecialCaseEntry, LABEL, REPORT), min_size=1,
                                max_size=7))
    ns.f, ns.g = draw(TEXT), draw(TEXT)  # the writers echo them as given
    return ns, built, records


@settings(deadline=None, max_examples=300)
@given(bound_request(), st.sampled_from([0, 1]))
def test_bound_writers_match_the_envelope_dict(request, code):
    ns, built, records = request
    result = dispatched(ns.subcommand, records)
    envelope = old_envelope(ns, built, result, code)
    assert (cli.render_result_json(ns, built, result, code)
            == json.dumps(_sanitize(envelope), indent=2) + "\n")
    assert cli.render_result_text(ns, built, result, code) == cli.render_text(envelope)


@pytest.mark.parametrize("argv", [
    ["check-convex", "--f", "x^2", "--interval", "-1", "2", "--grid", "3", "3", "3",
     "--h", "t^s", "--s", "0.5", "--phi", "0.5*x+0.5"],
    ["equivalence", "--f", "x^2", "--g", "3*x^2+1", "--interval", "0", "1", "--random", "20",
     "--seed", "4", "--h-custom", "t+1"],
])
def test_the_head_writers_match_the_envelope_dict(argv, capsys):
    ns, built = built_request(argv)
    result, code = cli._dispatch(ns, built, None)
    envelope = old_envelope(ns, built, result, code)
    want_json = json.dumps(_sanitize(envelope), indent=2) + "\n"
    assert cli.render_result_json(ns, built, result, code) == want_json
    assert cli.render_result_text(ns, built, result, code) == cli.render_text(envelope)
    assert cli.main(argv) == code
    assert capsys.readouterr().out == want_json


@pytest.mark.parametrize("argv", [
    ["verify-hh", "--f", "x^2", "--g", "2*x^2", "--interval", "0", "1", "--h", "1/t"],
    ["special-case", "--f", "x^2", "--g", "2*x^2", "--interval", "0", "1", "--s", "0.5"],
])
def test_dispatch_returns_the_bound_result_dict(argv, capsys):
    # one key, each report the dict of the HHReport the library returns: main
    # writes the bytes of the envelope of that dict
    ns, built = built_request(argv)
    result, code = cli._dispatch(ns, built, None)
    pair = FunctionPair(built.f, built.g)
    if ns.subcommand == "verify-hh":
        jobs = [(built.kernel, bound) for bound in ("midpoint", "endpoint")]
        records = hh_bounds_report(pair, built.phi, jobs, ns.quad_tol, ns.atol, ns.rtol)
        reports = records
    else:
        records = special_case_report(pair, built.phi, which=ns.which, s=ns.s, tol=ns.quad_tol,
                                      atol=ns.atol, rtol=ns.rtol)
        reports = [e.report for e in records]
    assert reports and all(type(r) is HHReport for r in reports)
    assert result == dispatched(ns.subcommand, records)
    envelope = old_envelope(ns, built, result, code)
    assert cli.main(argv) == code
    assert capsys.readouterr().out == json.dumps(_sanitize(envelope), indent=2) + "\n"

