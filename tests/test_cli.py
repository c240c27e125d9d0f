import csv
import io
import json
import math
from pathlib import Path

import jsonschema
import pytest

from domcert.cli import main

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schemas" / "report.schema.json").read_text()
)


def run(capsys, *args) -> tuple[int, str]:
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *args) -> tuple[int, dict]:
    code, out = run(capsys, *args)
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc


BASE = ("--f", "x^2", "--g", "2*x^2", "--interval", "0", "1")
BAD = ("--f", "2*x^2", "--g", "x^2", "--interval", "0", "1")


class TestExitCodes:
    def test_holds_is_zero(self, capsys):
        code, doc = run_json(capsys, "check-dominated", *BASE, "--grid", "7", "7", "5")
        assert code == 0 and doc["exit_code"] == 0
        assert doc["result"]["verdict"] == "holds-on-samples"

    def test_violation_is_one(self, capsys):
        code, doc = run_json(capsys, "check-dominated", *BAD, "--grid", "7", "7", "5")
        assert code == 1 and doc["exit_code"] == 1
        assert doc["result"]["verdict"] == "violated"

    def test_failed_bound_is_one(self, capsys):
        code, doc = run_json(capsys, "verify-hh", "--f", "0.1*x^2", "--g", "1 - x^2",
                             "--interval", "0", "1", "--bound", "midpoint")
        assert code == 1
        assert doc["result"]["reports"][0]["holds"] is False

    def test_config_error_is_two(self, capsys):
        code, doc = run_json(capsys, "check-dominated", "--f", "x^2", "--g", "(",
                             "--interval", "0", "1")
        assert code == 2
        assert doc["error"]["problems"]

    def test_precondition_failure_is_two(self, capsys):
        # the dominator itself is outside the class: tool error, not verdict
        code, doc = run_json(capsys, "check-dominated", "--f", "x^2", "--g", "1 - x^2",
                             "--interval", "0", "1", "--grid", "5", "5", "5")
        assert code == 2
        assert "convex" in doc["error"]["message"]

    def test_unknown_flag_is_two(self, capsys):
        code, out = run(capsys, "check-convex", "--f", "x^2", "--interval", "0", "1",
                        "--wat", "7")
        assert code == 2
        assert json.loads(out)["exit_code"] == 2

    def test_missing_subcommand_is_two(self, capsys):
        code, out = run(capsys)
        assert code == 2

    def test_search_hit_is_one(self, capsys):
        code, doc = run_json(capsys, "search", *BAD, "--grid", "5", "5", "5")
        assert code == 1
        assert doc["result"]["count"] > 0

    def test_search_clean_is_zero_with_note(self, capsys):
        code, doc = run_json(capsys, "search", *BASE, "--grid", "5", "5", "5")
        assert code == 0
        assert doc["result"]["count"] == 0
        assert "no violation" in doc["result"]["note"]


class TestValidationCollection:
    def test_all_problems_reported_at_once(self, capsys):
        code, doc = run_json(
            capsys, "check-dominated",
            "--f", "x^^2", "--g", "ln(x", "--h", "t^s", "--interval", "5", "1",
        )
        assert code == 2
        problems = doc["error"]["problems"]
        assert len(problems) == 4
        joined = " ".join(problems)
        for flag in ("--f", "--g", "--h", "--interval"):
            assert flag in joined

    def test_kernel_flag_conflict(self, capsys):
        code, doc = run_json(capsys, "check-convex", "--f", "x^2", "--interval", "0", "1",
                             "--h", "t", "--h-custom", "t")
        assert code == 2
        assert any("mutually exclusive" in p for p in doc["error"]["problems"])

    def test_phi_must_be_affine(self, capsys):
        code, doc = run_json(capsys, "check-convex", "--f", "x", "--interval", "0", "1",
                             "--phi", "x^2")
        assert code == 2
        assert any("--phi" in p for p in doc["error"]["problems"])

    def test_nonpositive_custom_kernel(self, capsys):
        code, doc = run_json(capsys, "check-convex", "--f", "x^2", "--interval", "0", "1",
                             "--h-custom", "t - 0.5")
        assert code == 2

    def test_power_which_needs_s(self, capsys):
        code, doc = run_json(capsys, "special-case", *BASE, "--which", "power")
        assert code == 2
        assert any("--s" in p for p in doc["error"]["problems"])


class TestSubcommandResults:
    def test_check_convex_shape(self, capsys):
        code, doc = run_json(capsys, "check-convex", "--f", "x^2",
                             "--interval", "0", "1", "--grid", "5", "5", "5")
        assert code == 0
        assert doc["result"]["samples_checked"] == 125
        assert doc["inputs"]["kernel"] == "linear: h(t) = t"

    def test_equivalence_shape(self, capsys):
        code, doc = run_json(capsys, "equivalence", *BASE, "--grid", "5", "5", "5")
        assert code == 0
        assert doc["result"]["statement_holds"] == [True, True, True]
        assert doc["result"]["agreement"] is True

    def test_equivalence_disagreeing_pair_is_one(self, capsys):
        code, doc = run_json(capsys, "equivalence", *BAD, "--grid", "5", "5", "5")
        assert code == 1
        assert doc["result"]["statement_holds"] == [False, False, False]

    def test_verify_hh_both_bounds(self, capsys):
        code, doc = run_json(capsys, "verify-hh", *BASE)
        kinds = [r["bound_kind"] for r in doc["result"]["reports"]]
        assert kinds == ["midpoint", "endpoint"]

    def test_verify_hh_single_bound(self, capsys):
        code, doc = run_json(capsys, "verify-hh", *BASE, "--bound", "midpoint")
        assert [r["bound_kind"] for r in doc["result"]["reports"]] == ["midpoint"]

    def test_verify_hh_vacuous_inf_serialized(self, capsys):
        code, doc = run_json(capsys, "verify-hh", *BASE, "--h", "1/t",
                             "--bound", "endpoint")
        rep = doc["result"]["reports"][0]
        assert rep["rhs"] == "inf"
        assert rep["vacuous"] is True and rep["holds"] is True
        assert code == 0

    def test_verify_hh_divergent_kernel_negative_sums_fail(self, capsys):
        code, doc = run_json(capsys, "verify-hh", "--f", "x-2", "--g", "x^2-3",
                             "--interval", "0", "1", "--h", "1/t", "--bound", "endpoint")
        rep = doc["result"]["reports"][0]
        assert (rep["lhs"], rep["rhs"]) == ("inf", "-inf")
        assert rep["holds"] is False and rep["vacuous"] is False
        assert code == 1

    @pytest.mark.parametrize("h", ["t^(-1.5)", "t^(-2)"])
    def test_verify_hh_divergent_custom_kernel_is_vacuous(self, capsys, h):
        code, doc = run_json(capsys, "verify-hh", *BASE, "--h-custom", h,
                             "--bound", "endpoint")
        rep = doc["result"]["reports"][0]
        assert rep["rhs"] == "inf"
        assert rep["vacuous"] is True and rep["holds"] is True
        assert code == 0

    def test_special_case_reciprocal_is_midpoint_only(self, capsys):
        code, doc = run_json(capsys, "special-case", *BASE, "--which", "reciprocal")
        labels = [e["label"] for e in doc["result"]["entries"]]
        assert labels == ["reciprocal/midpoint"]

    def test_special_case_all_with_s(self, capsys):
        code, doc = run_json(capsys, "special-case", *BASE, "--which", "all", "--s", "0.5")
        labels = [e["label"] for e in doc["result"]["entries"]]
        assert "linear/midpoint" in labels and "linear/endpoint" in labels
        assert not any(lab == "reciprocal/endpoint" for lab in labels)

    def test_random_plan_echoed(self, capsys):
        code, doc = run_json(capsys, "check-dominated", *BASE, "--random", "100",
                             "--seed", "9")
        plan = doc["inputs"]["plan"]
        assert plan["strategy"] == "random"
        assert plan["count"] == 100 and plan["seed"] == 9

    def test_samples_alias(self, capsys):
        code, doc = run_json(capsys, "search", *BASE, "--samples", "64")
        assert doc["inputs"]["plan"]["count"] == 64

    def test_single_point_grid_validates(self, capsys):
        code, doc = run_json(capsys, "check-convex", "--f", "x^2", "--interval", "0", "1",
                             "--grid", "1", "1", "1")
        assert code == 0
        plan = doc["inputs"]["plan"]
        assert (plan["n_x"], plan["n_y"], plan["n_t"]) == (1, 1, 1)

    def test_equivalence_accepts_mixed_variable_names(self, capsys):
        # f in t and g in x are one function each, as check-dominated reads them
        args = ("--f", "t^2", "--g", "2*x^2", "--interval", "0", "1", "--grid", "5", "5", "5")
        code, doc = run_json(capsys, "equivalence", *args)
        _, dom = run_json(capsys, "check-dominated", *args)
        assert code == 0
        assert doc["result"]["dominance"] == dom["result"]
        assert doc["result"]["statement_holds"] == [True, True, True]


class TestConfigFile:
    def test_config_supplies_flags(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "# base setup\nf = x^2\ng = 2*x^2\ninterval = 0 1\ngrid = 5 5 5\n"
        )
        code, doc = run_json(capsys, "check-dominated", "--config", str(conf))
        assert code == 0
        assert doc["inputs"]["f"] == "x^2"

    def test_explicit_flags_override_config(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("f = x^2\ng = 2*x^2\ninterval = 0 1\nformat = text\n")
        code, out = run(capsys, "check-dominated", "--config", str(conf),
                        "--format", "json")
        json.loads(out)  # json format won despite config saying text

    def test_boolean_key(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("f = 2*x^2\ng = x^2\ninterval = 0 1\nrefine = true\ngrid = 5 5 5\n")
        code, doc = run_json(capsys, "search", "--config", str(conf))
        assert doc["result"]["refined"] is True

    def test_missing_config_file_is_two(self, capsys, tmp_path):
        code, out = run(capsys, "check-convex", "--config", str(tmp_path / "nope.conf"))
        assert code == 2

    def test_malformed_lines_all_reported(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("f x^2\nrefine = maybe\n")
        code, out = run(capsys, "check-convex", "--config", str(conf))
        assert code == 2
        msg = json.loads(out)["error"]["message"]
        assert "line 1" in msg and "line 2" in msg


GOLDEN = Path(__file__).resolve().parent / "golden"


class TestPinnedBoundEnvelopes:
    """Bound envelopes byte for byte.  Products and the kernels t, 1 and 1/t
    keep libm out of the bytes; power(s=0.5) adds only 2.0**-0.5."""

    CASES = {
        "verify_hh_both.json": ("verify-hh", "--f", "x*x", "--g", "2*x*x", "--interval",
                                "0", "1", "--bound", "both"),
        "verify_hh_both.txt": ("verify-hh", "--f", "x*x+1", "--g", "3*x*x+x+2",
                               "--interval", "0", "2", "--h", "1", "--bound", "both",
                               "--format", "text"),
        "verify_hh_reciprocal_phi.json": ("verify-hh", "--f", "x*x+1", "--g", "2*x*x+3",
                                          "--interval", "0", "1", "--phi", "0.75-0.5*x",
                                          "--h", "1/t", "--bound", "both"),
        "special_case_all.json": ("special-case", "--f", "x*x", "--g", "2*x*x",
                                  "--interval", "0", "1", "--which", "all", "--s", "0.5"),
        "verify_hh_degenerate_phi.json": ("verify-hh", "--f", "x*x", "--g", "2*x*x",
                                          "--interval", "0", "1", "--phi", "0*x+0.5"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bytes(self, capsys, name):
        code, out = run(capsys, *self.CASES[name])
        assert out == (GOLDEN / name).read_text()
        assert code == (2 if "degenerate" in name else 0)


class TestTextFormat:
    def test_text_and_json_agree_to_twelve_digits(self, capsys):
        _, doc = run_json(capsys, "verify-hh", *BASE)
        _, text = run(capsys, "verify-hh", *BASE, "--format", "text")
        lines = dict(
            ln.split(" = ", 1) for ln in text.strip().splitlines()
        )

        def walk(obj, path):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    walk(v, f"{path}.{k}" if path else k)
            elif isinstance(obj, list):
                for i, v in enumerate(obj):
                    walk(v, f"{path}[{i}]")
            else:
                assert path in lines, path
                if isinstance(obj, bool):
                    assert lines[path] == ("true" if obj else "false")
                elif isinstance(obj, float) and not isinstance(obj, bool):
                    assert lines[path] == "%.12g" % obj
                elif isinstance(obj, int):
                    assert lines[path] == str(obj)

        walk(doc, "")

    def test_inf_prints_as_inf(self, capsys):
        _, text = run(capsys, "verify-hh", *BASE, "--h", "1/t", "--bound", "endpoint",
                      "--format", "text")
        assert "rhs = inf" in text


class TestCsvFormat:
    def _rows(self, out):
        return list(csv.reader(io.StringIO(out)))

    def test_check_convex_rows(self, capsys):
        # odd n_t: the Chebyshev middle point is already exactly 1/2
        code, out = run(capsys, "check-convex", "--f", "x^2", "--interval", "0", "1",
                        "--grid", "4", "4", "3", "--format", "csv")
        rows = self._rows(out)
        assert rows[0] == ["x", "y", "t", "defect"]
        assert len(rows) == 1 + 4 * 4 * 3
        assert all(len(r) == 4 for r in rows[1:])

    def test_even_t_count_gains_the_inserted_midpoint(self, capsys):
        code, out = run(capsys, "check-convex", "--f", "x^2", "--interval", "0", "1",
                        "--grid", "4", "4", "4", "--format", "csv")
        rows = self._rows(out)
        assert len(rows) == 1 + 4 * 4 * 5
        assert any(r[2] == "0.5" for r in rows[1:])

    def test_check_dominated_rows(self, capsys):
        code, out = run(capsys, "check-dominated", *BASE, "--grid", "3", "3", "3",
                        "--format", "csv")
        rows = self._rows(out)
        assert rows[0] == ["x", "y", "t", "gap", "lhs_abs", "rhs"]
        assert len(rows) == 1 + 27

    def test_search_rows(self, capsys):
        code, out = run(capsys, "search", *BAD, "--grid", "5", "5", "5", "--format", "csv")
        rows = self._rows(out)
        assert rows[0] == ["x", "y", "t", "gap", "lhs_abs", "rhs"]
        assert len(rows) > 1
        assert code == 1

    def test_verify_hh_rows(self, capsys):
        code, out = run(capsys, "verify-hh", *BASE, "--format", "csv")
        rows = self._rows(out)
        assert rows[0][0] == "label" and len(rows) == 3

    def test_special_case_rows(self, capsys):
        code, out = run(capsys, "special-case", *BASE, "--which", "linear",
                        "--format", "csv")
        rows = self._rows(out)
        assert [r[0] for r in rows[1:]] == ["linear/midpoint", "linear/endpoint"]

    def test_equivalence_rows(self, capsys):
        code, out = run(capsys, "equivalence", *BASE, "--grid", "4", "4", "3",
                        "--format", "csv")
        rows = self._rows(out)
        assert rows[0][0] == "check"
        assert [r[0] for r in rows[1:]] == [
            "dominance", "diff_convex", "sum_convex", "l_convex", "k_convex",
        ]

    def test_csv_floats_round_trip(self, capsys):
        code, out = run(capsys, "check-dominated", *BASE, "--grid", "3", "3", "3",
                        "--format", "csv")
        rows = self._rows(out)
        for row in rows[1:]:
            for cell in row:
                float(cell)  # repr'd floats parse back


class TestErrorEnvelope:
    def test_error_validates_against_schema(self, capsys):
        code, doc = run_json(capsys, "check-dominated", "--f", "x^2",
                             "--interval", "0", "1")
        assert code == 2
        assert "error" in doc and "result" not in doc

    def test_text_format_errors_render_as_text(self, capsys):
        code, out = run(capsys, "check-dominated", "--f", "x^2", "--interval", "0", "1",
                        "--format", "text")
        assert code == 2
        assert "error.message = invalid configuration" in out

    def test_eval_fault_at_runtime_is_two(self, capsys):
        code, doc = run_json(capsys, "check-convex", "--f", "1/x",
                             "--interval", "-1", "1", "--grid", "5", "5", "3")
        assert code == 2
        assert "x=" in doc["error"]["message"]


class TestErrorPrecedence:
    """Which fault a check reports when several could be; byte-pinned."""

    LN_ON_AXIS = "ln of a non-positive value while checking sample (x=None, y=None, t=None)"

    @pytest.mark.parametrize(
        "args, message",
        [
            # the gate outcome on g wins over a fault of f
            (("check-dominated", "--f", "ln(x)", "--g", "1-x^2"),
             "dominator g fails its convexity check: worst defect -0.25 at "
             "(x, y, t) = (0.0, 1.0, 0.5)"),
            (("check-dominated", "--f", "ln(x)", "--g", "2*x^2"), LN_ON_AXIS),
            (("equivalence", "--f", "ln(x)", "--g", "1-x^2"), LN_ON_AXIS),
            # g + f overflows although f and g are finite
            (("equivalence", "--f", "1e308+x", "--g", "1e308+x"),
             "non-finite result for input 0.0 while checking sample (x=None, y=None, t=None)"),
            # g - f overflows on the axes, g + f only inside: the sum is reported
            (("equivalence", "--f", "0.95e308*(sin(2*pi*x)^2-cos(2*pi*x)^2)", "--g", "0.95e308"),
             "non-finite result for input 0.25 while checking sample (x=0.0, y=0.5, t=0.5)"),
        ],
    )
    def test_grid(self, capsys, args, message):
        code, doc = run_json(capsys, *args, "--interval", "0", "1", "--grid", "3", "3", "3")
        assert code == 2
        assert doc["error"]["message"] == message

    @pytest.mark.parametrize(
        "f, g, first",
        [
            ("1e308+x", "1e308+x", "0.8444218515250481"),
            ("0.95e308*(sin(2*pi*x)^2-cos(2*pi*x)^2)", "0.95e308", "0.7579544029403025"),
        ],
    )
    def test_random_reports_first_sample(self, capsys, f, g, first):
        code, doc = run_json(capsys, "equivalence", "--f", f, "--g", g,
                             "--interval", "0", "1", "--random", "5")
        assert code == 2
        assert doc["error"]["message"] == (
            f"non-finite result for input {first} while checking sample "
            "(x=0.8444218515250481, y=0.7579544029403025, t=0.4205717396876833)"
        )
