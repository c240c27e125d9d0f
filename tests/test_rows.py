"""The sample-row writers against the generic encoders they replace.

check-* CSV rows, search CSV rows and the search JSON rows are each one
%-format per row with the grid coordinates' reprs looked up in a table;
search rows are written a chunk at a time.  Their text must equal
csv.writer over the raw floats and json.dumps(_sanitize(envelope), indent=2)
over the rows as dicts, for every float: signed zeros (one key in the table,
two reprs), infinities, nan, subnormals and 17-digit values, and for chunks
of every size.
"""

import csv
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from domcert import cli
from domcert.convexity import SamplePlan, grid_axes
from domcert.geometry import Interval
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
    """(reprs, rows): coordinates from the axis, its other-signed zeros or anywhere."""
    axis = draw(AXIS)
    coordinate = st.one_of(st.sampled_from(axis), st.sampled_from([0.0, -0.0]), FLOATS)
    row = st.tuples(coordinate, coordinate, coordinate, *[FLOATS] * (width - 3))
    return cli._reprs(axis), draw(st.lists(row, max_size=12))


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
        # the splice marker inside a string is escaped, so it cannot match
        "inputs": {"f": '"violations": []', "interval": [0.0, -0.0]},
        "result": {"violations": violations, "count": count, "refined": False},
        "exit_code": 1,
    }


@settings(deadline=None)
@given(table_and_rows(4))
def test_check_convex_rows_match_csv_writer(data):
    reprs, rows = data
    buf, emit = cli._check_rows("check-convex", reprs)
    for row in rows:
        emit(row)
    assert buf.getvalue() == csv_writer_text(["x", "y", "t", "defect"], rows)


@settings(deadline=None)
@given(table_and_rows(6))
def test_check_dominated_rows_match_csv_writer(data):
    reprs, rows = data
    buf, emit = cli._check_rows("check-dominated", reprs)
    for row in rows:
        emit(row)
    assert buf.getvalue() == csv_writer_text(["x", "y", "t", "gap", "lhs_abs", "rhs"], rows)


CHUNKS = st.one_of(st.integers(1, 5), st.just(cli._CHUNK_ROWS))


def search_csv(records, reprs, chunk) -> str:
    buf = io.StringIO()
    cli._write_search_csv(buf.write, records, reprs, chunk)
    return buf.getvalue()


def search_json(records, reprs, chunk) -> str:
    text = cli.render_json(envelope([], len(records)))
    if not records:  # main writes the envelope as it is
        return text
    buf = io.StringIO()
    cli._write_search_json(buf.write, text, records, reprs, chunk)
    return buf.getvalue()


def json_dumps_text(records) -> str:
    return json.dumps(cli._sanitize(envelope([r._asdict() for r in records], len(records))),
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
    reprs = cli._reprs([0.5, 0.25, -0.0])
    assert search_json(records, reprs, n) == json_dumps_text(records)
    want = csv_writer_text(["x", "y", "t", "gap", "lhs_abs", "rhs"], records)
    assert search_csv(records, reprs, n) == want


def test_coordinate_table_leaves_out_zeros():
    plan, interval = SamplePlan.grid(3, 3, 3), Interval(-1.0, -0.0)
    xs, ys, ts = grid_axes(plan, interval)
    assert xs[-1] == 0.0 and math.copysign(1.0, xs[-1]) < 0.0
    assert cli._coordinate_reprs(plan, interval) == {v: repr(v) for v in [-1.0, -0.5, *ts]}
    assert cli._coordinate_reprs(SamplePlan.random(5), interval) == {}
