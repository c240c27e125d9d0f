import ast
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from conftest import run_cli
from domcert import cli
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


class TestMinusInfinity:
    """A -inf defect or gap exits 1 (or fails g's gate), never as a pass
    inside the tolerance band; an infinite side prints as "inf"."""

    OVERFLOW = ("--h", "1", "--interval", "-1", "1", "--grid", "5", "5", "3")

    def test_check_convex_is_violated(self, capsys):
        code, doc = run_json(capsys, "check-convex", "--f=-1.7e308*x*x", *self.OVERFLOW)
        assert code == 1
        assert (doc["result"]["verdict"], doc["result"]["worst_gap"]) == ("violated", "-inf")
        assert not any("within tolerance" in w for w in doc["result"]["warnings"])

    def test_check_dominated_gate_refuses_g(self, capsys):
        code, doc = run_json(capsys, "check-dominated", "--f", "x", "--g=-1.7e308*x*x",
                             *self.OVERFLOW)
        assert code == 2
        assert "worst defect -inf" in doc["error"]["message"]

    def test_search_rows_carry_the_infinite_side(self, capsys):
        code, doc = run_json(capsys, "search", "--f", "1e308*x*x", "--g", "x*x",
                             *self.OVERFLOW)
        assert code == 1
        assert {"gap": "-inf", "lhs_abs": "inf"}.items() <= doc["result"]["violations"][0].items()


class TestSharedParser:
    """main builds its parser once per process and every request after the
    first reuses it, malformed ones included, with a fresh process's bytes."""

    def test_one_build_serves_every_request(self, capsys, monkeypatch, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("f = x^2\ng = 2*x^2\ninterval = 0 1\ngrid = 5 5 5\n")
        requests = [
            ("check-convex", "--f", "x^2", "--interval", "0", "1"),
            ("verify-hh", *BASE, "--format", "text"),
            ("special-case", *BASE, "--which", "all", "--s", "0.5"),
            ("check-dominated", "--config", str(conf)),
            ("search", *BAD, "--grid", "5", "5", "5", "--format", "csv"),
            ("check-convex", "--f", "x^2", "--interval", "0", "1", "--wat", "7"),
            ("verify-hh", *BASE, "--bound"),
            ("verify-hh", *BASE, "--format", "yaml"),
            (),
            ("check-convex", "--f", "x^2", "--interval", "0", "1"),
        ]
        build, builds = cli.build_parser, []

        def counted():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", counted)
        for args in requests:
            assert run(capsys, *args) == run_cli(*args), args
        assert len(builds) == 1

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()


class TestNegativeExponentNotation:
    """A negative float in exponent notation is a value, not an option:
    argparse alone takes only the "-12" and "-1.5" forms for numbers."""

    ARGV = ("check-convex", "--f", "x*x", "--interval", "-1.5E+2", "-.5e1", "--grid", "3", "3",
            "3")

    def test_golden(self, capsys):
        code, out = run(capsys, *self.ARGV)
        assert out == (GOLDEN / "check_convex_exponent_negatives.json").read_text()
        assert code == 0
        jsonschema.validate(json.loads(out), SCHEMA)

    @pytest.mark.parametrize("text", ["-1e-3", "-1.5E+2", "-.5e1", "-2e0", "-12", "-1.5"])
    def test_interval_end(self, capsys, text):
        argv = ("check-convex", "--f", "x*x", "--interval", text, "1", "--grid", "3", "3", "3")
        code, doc = run_json(capsys, *argv)
        assert code == 0
        assert doc["inputs"]["interval"] == [float(text), 1.0]

    @pytest.mark.parametrize("flag, problem", [
        ("--eps-t", "sampling plan: t_clamp must be in (0, 0.5), got -0.015"),
        ("--atol", "sampling plan: tolerances must be finite, >= 0; got -0.015, 1e-09"),
        ("--rtol", "sampling plan: tolerances must be finite, >= 0; got 1e-09, -0.015"),
        ("--quad-tol", "--quad-tol must be positive and finite, got -0.015"),
        ("--s", "--s must lie in (0, 1), got -0.015"),
    ])
    def test_every_float_option_reads_the_value(self, capsys, flag, problem):
        # read as a number, then refused by validation, not by argparse
        code, doc = run_json(capsys, "special-case", *BASE, "--which", "power", flag, "-1.5E-2",
                             *(() if flag == "--s" else ("--s", "0.5")))
        assert code == 2
        assert doc["error"]["problems"] == [problem]

    def test_config_file_value(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("interval = -.5e1 -1e-3\n")
        code, doc = run_json(capsys, "check-convex", "--f", "x*x", "--config", str(conf),
                             "--grid", "3", "3", "3")
        assert code == 0
        assert doc["inputs"]["interval"] == [-5.0, -0.001]

    @pytest.mark.parametrize("argv, message", [
        (("--f", "x*x", "--interval", "-1e", "1"), "argument --interval: expected 2 arguments"),
        (("--f", "-x^2", "--interval", "0", "1"), "argument --f: expected one argument"),
        (("--f", "x*x", "--interval", "-inf", "1"), "argument --interval: expected 2 arguments"),
    ])
    def test_other_dash_words_stay_options(self, capsys, argv, message):
        code, doc = run_json(capsys, "check-convex", *argv)
        assert code == 2
        assert doc["error"]["message"] == message


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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_atol_must_be_finite(self, capsys, value):
        # either value once turned a violation into holds-on-samples, and
        # lhs 1/12 > rhs 1/24 into holds=true
        for argv in (("check-dominated", "--grid", "5", "5", "5"),
                     ("verify-hh", "--bound", "midpoint")):
            code, doc = run_json(capsys, *argv, "--f", "x^2", "--g", "0.5*x^2",
                                 "--interval", "0", "1", "--atol", value)
            assert code == 2
            assert doc["error"]["problems"] == [
                f"sampling plan: tolerances must be finite, >= 0; got {value}, 1e-09"
            ]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_rtol_must_be_finite(self, capsys, value):
        code, doc = run_json(capsys, "check-dominated", "--f", "x^2", "--g", "0.5*x^2",
                             "--interval", "0", "1", "--grid", "5", "5", "5", "--rtol", value)
        assert code == 2
        assert doc["error"]["problems"] == [
            f"sampling plan: tolerances must be finite, >= 0; got 1e-09, {value}"
        ]

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_quad_tol_must_be_finite_and_positive(self, capsys, value):
        # with a custom kernel, nan once escaped as a ValueError traceback
        code, doc = run_json(capsys, "verify-hh", *BASE, "--h-custom", "t",
                             "--quad-tol", value)
        assert code == 2
        assert doc["error"]["problems"] == [
            f"--quad-tol must be positive and finite, got {float(value)!r}"
        ]

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


_CUSTOM = ("verify-hh", "--f", "x*x+1", "--g", "3*x*x+x+2", "--interval", "0", "2", "--bound",
           "both", "--h-custom")
_CUSTOM_BOTH = ("verify-hh", "--f", "1/(x+1)", "--g", "2/(x+1)+x*x", "--interval", "0", "2",
                "--bound", "both", "--h-custom", "1/sqrt(t)+1/(t+0.5)")


class TestPinnedCustomKernels:
    """--h-custom envelopes byte for byte: the probe's first bad point (zero
    at t = 1/2, a sqrt domain fault, exp overflow, a non-finite value) and a
    fault only the integrator meets, then a singular kernel's bounds, whose
    bytes carry every panel of its open-(0,1) integral."""

    CASES = {
        "custom_kernel_nonpositive.json": (2, (*_CUSTOM, "abs(t-0.5)")),
        "custom_kernel_domain.json": (2, (*_CUSTOM, "sqrt(0.7-t)+1")),
        "custom_kernel_overflow.json": (2, (*_CUSTOM, "exp(800*t)")),
        "custom_kernel_nonfinite.json": (2, (*_CUSTOM, "1e308/t")),
        "custom_kernel_quad_fault.json": (2, (*_CUSTOM, "1/sqrt(t-1e-8)")),
        "verify_hh_custom_both.json": (0, _CUSTOM_BOTH),
        "verify_hh_custom_both.txt": (0, (*_CUSTOM_BOTH, "--format", "text")),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bytes(self, capsys, name):
        want_code, argv = self.CASES[name]
        code, out = run(capsys, *argv)
        assert out == (GOLDEN / name).read_text()
        assert code == want_code
        if name.endswith(".json"):
            jsonschema.validate(json.loads(out), SCHEMA)


class TestPinnedCsvRows:
    """Per-sample CSV rows byte for byte, and the bare error envelope when a
    fault stops the pass after rows were already written."""

    CASES = {
        "check_convex_grid.csv": (1, ("check-convex", "--f", "x*x*x-x*x", "--interval", "0",
                                      "1", "--grid", "3", "3", "4", "--h", "1/t")),
        "check_dominated_random.csv": (0, ("check-dominated", "--f", "x*x-x", "--g",
                                           "2*x*x+1", "--interval", "-1", "2", "--h", "1",
                                           "--random", "12", "--seed", "7")),
        "check_convex_csv_fault.json": (2, ("check-convex", "--f", "ln(x+0.9)", "--interval",
                                            "-1", "1", "--random", "50", "--seed", "3")),
        # defects overflow to -inf (f finite): the rows print inf as csv does,
        # and a -inf defect is a violation whatever the threshold
        "check_convex_nonfinite.csv": (1, ("check-convex", "--f=-1.7e308*x*x", "--h", "1",
                                           "--interval", "-1", "1", "--grid", "3", "3", "3")),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bytes(self, capsys, name):
        want_code, argv = self.CASES[name]
        code, out = run(capsys, *argv, "--format", "csv")
        assert out == (GOLDEN / name).read_text()
        assert code == want_code


_SEARCH = ("search", "--f", "2*x*x", "--g", "x*x", "--interval", "0", "1")
_SEARCH_RANDOM = ("search", "--f", "x*x*x*x", "--g", "0.5*x*x", "--interval", "-1", "2",
                  "--h", "1", "--random", "25", "--seed", "11")
# the grid's x and y axes end at -0.0; refined rows also reach +0.0
_SEARCH_NEGZERO = ("search", "--f", "x*x*x*x", "--g", "x*x", "--interval", "-1", "-0.0",
                   "--grid", "3", "3", "3", "--refine")
# |defect_f| = 1.7e308 and defect_g = -1.7e308 at x = -1, y = 1: the gap is -inf
_SEARCH_NONFINITE = ("search", "--f", "1.7e308*x*x", "--g=-1.7e308*x*x", "--interval", "-1",
                     "1", "--grid", "3", "3", "3")


class TestPinnedSearchOutput:
    """search in every format byte for byte: grid and random plans, with and
    without --refine, an axis ending at -0.0 and a -inf gap."""

    CASES = {
        "search_grid.json": (1, (*_SEARCH, "--grid", "4", "4", "3")),
        "search_grid.csv": (1, (*_SEARCH, "--grid", "4", "4", "3", "--format", "csv")),
        "search_grid_refine.txt": (1, (*_SEARCH, "--grid", "3", "3", "3", "--refine",
                                       "--format", "text")),
        "search_random.txt": (1, (*_SEARCH_RANDOM, "--format", "text")),
        "search_random_refine.json": (1, (*_SEARCH_RANDOM, "--refine")),
        "search_random_refine.csv": (1, (*_SEARCH_RANDOM, "--refine", "--format", "csv")),
        "search_negzero_refine.json": (1, _SEARCH_NEGZERO),
        "search_negzero_refine.csv": (1, (*_SEARCH_NEGZERO, "--format", "csv")),
        "search_nonfinite.json": (1, _SEARCH_NONFINITE),
        "search_nonfinite.txt": (1, (*_SEARCH_NONFINITE, "--format", "text")),
        "search_nonfinite.csv": (1, (*_SEARCH_NONFINITE, "--format", "csv")),
        "search_clean.json": (0, ("search", "--f", "x*x", "--g", "2*x*x", "--interval", "0",
                                  "1", "--grid", "3", "3", "3", "--refine")),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bytes(self, capsys, name):
        want_code, argv = self.CASES[name]
        code, out = run(capsys, *argv)
        assert out == (GOLDEN / name).read_text()
        assert code == want_code

    def test_golden_zeros_keep_their_sign(self):
        rows = list(csv.reader(io.StringIO((GOLDEN / "search_negzero_refine.csv").read_text())))
        coordinates = {cell for row in rows[1:] for cell in row[:2]}
        assert {"0.0", "-0.0"} <= coordinates

    def test_json_goldens_validate(self):
        # a gap or a side may be infinite: "-inf" and "inf" are strings
        for name in self.CASES:
            if name.endswith(".json"):
                jsonschema.validate(json.loads((GOLDEN / name).read_text()), SCHEMA)


_F_SHARED = "0.7*(x-0.4)^2+0.2"
_EXP_SHARED = "0.5*exp(1.2*x)+0.1"


class TestPinnedGeneratedCode:
    """Envelopes of the generated bodies byte for byte: overflow of '^' and
    exp on the grid axes, in the random loop, in search --refine and in a
    verify-hh integrand, and pairs whose g contains the tree of f."""

    CASES = {
        "fault_exp_grid.json": (2, ("check-dominated", "--f", "x^2", "--g", "exp(800*x)+x^2",
                                    "--interval", "0", "1", "--grid", "3", "3", "3")),
        "fault_pow_grid.json": (2, ("check-convex", "--f", "(2*x)^1030+x", "--interval", "0",
                                    "1", "--grid", "5", "5", "3")),
        "fault_exp_random.json": (2, ("equivalence", "--f", "x^2", "--g", "exp(720*x)+x^2",
                                      "--interval", "0", "1", "--random", "200", "--seed", "5")),
        "fault_pow_random.json": (2, ("check-convex", "--f", "(2*x)^1030+x", "--interval", "0",
                                      "1", "--random", "2000", "--seed", "2")),
        # the sampled points stay below the overflow; refinement steps onto x = 1
        "fault_exp_refine.json": (2, ("search", "--f", "2*x^2+1e-310*exp(710*x)", "--g", "x^2",
                                      "--interval", "0", "1", "--random", "10", "--seed", "4",
                                      "--refine")),
        "fault_pow_refine.json": (2, ("search", "--f", "2*x^2+1e-300*(2*x)^1030", "--g", "x^2",
                                      "--interval", "0", "1", "--random", "10", "--seed", "4",
                                      "--refine")),
        "fault_exp_verify_hh.json": (2, ("verify-hh", "--f", "exp(710*x)", "--g",
                                         "2*exp(710*x)", "--interval", "0", "1")),
        "fault_pow_verify_hh.json": (2, ("verify-hh", "--f", "(2*x)^1030", "--g",
                                         "2*(2*x)^1030", "--interval", "0", "1")),
        "shared_dominated_grid.json": (1, ("check-dominated", "--f", _F_SHARED, "--g",
                                           f"0.5*({_F_SHARED})", "--interval", "0", "1",
                                           "--grid", "21", "21", "9")),
        "shared_equivalence_random.json": (0, ("equivalence", "--f", _EXP_SHARED, "--g",
                                               f"{_EXP_SHARED}+2*(x-0.3)^4", "--interval",
                                               "-1", "2", "--h", "t^s", "--s", "0.5",
                                               "--random", "500", "--seed", "3")),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bytes(self, capsys, name):
        want_code, argv = self.CASES[name]
        code, out = run(capsys, *argv)
        assert out == (GOLDEN / name).read_text()
        assert code == want_code


class TestNonFiniteTrigArgument:
    """sin and cos of an infinite argument are an overflow fault, reported
    in the error envelope with exit code 2 on every path."""

    @pytest.mark.parametrize("f, name", [
        ("sin(1e308*x*10)", "sin"),
        ("cos(1e308*x*10)", "cos"),
        ("cos(x)+sin(1e308*x*10)", "sin"),  # both in one body
    ])
    def test_check_convex(self, capsys, f, name):
        code, doc = run_json(capsys, "check-convex", "--f", f, "--interval", "0", "1",
                             "--grid", "3", "3", "3")
        assert code == 2
        assert doc["error"]["message"] == (
            f"{name} of an infinite value while checking grid point x=0.5"
        )

    def test_search(self, capsys):
        code, doc = run_json(capsys, "search", "--f", "sin(1e308*x*10)", "--g", "x^2",
                             "--interval", "0", "1", "--grid", "3", "3", "3")
        assert code == 2
        assert doc["error"]["message"] == (
            "sin of an infinite value while checking grid point x=0.5"
        )

    def test_search_refine(self, capsys):
        # the argument overflows above x = 0.9987, where no sample falls;
        # refinement steps onto x = 1
        code, doc = run_json(capsys, "search", "--f", "2*x^2+cos(1.7e308*x*(x+0.06))*0",
                             "--g", "x^2", "--interval", "0", "1", "--random", "10",
                             "--seed", "4", "--refine")
        assert code == 2
        assert doc["error"]["message"] == "cos of an infinite value"

    def test_verify_hh(self, capsys):
        code, doc = run_json(capsys, "verify-hh", "--f", "sin(1e308*x*10)", "--g", "x^2",
                             "--interval", "0", "1")
        assert code == 2
        assert doc["error"]["message"] == (
            "integrand failed at x=0.9957276855604063: sin of an infinite value"
        )


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

    LN_ON_AXIS = "ln of a non-positive value while checking grid point x=0.0"

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
             "non-finite result for input 0.0 while checking grid point x=0.0"),
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


class TestImportGraph:
    """A cold `import domcert.cli` loads no module that only some requests
    use, nor dataclasses and the inspect/ast/dis/tokenize it pulls in."""

    HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize", "csv", "shlex"}
    SETUP = ["check-convex", "--f", "x^2", "--interval", "0", "1", "--grid", "1", "1", "1"]

    @staticmethod
    def loaded(*requests) -> set:
        """Modules of a fresh `python -S` after importing domcert.cli and
        running each request (an argv list) through main."""
        src = str(Path(cli.__file__).resolve().parent.parent)
        script = (
            "import sys\nimport domcert.cli\n"
            f"codes = [domcert.cli.main(argv) for argv in {list(requests)!r}]\n"
            "sys.stderr.write(repr([codes, sorted(sys.modules)]))\n"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
        codes, modules = ast.literal_eval(proc.stderr)
        assert codes == [0] * len(requests)
        return set(modules)

    def test_import_and_a_sample_request(self):
        assert self.HEAVY.isdisjoint(self.loaded())
        # sample rows are written without the csv module
        assert self.HEAVY.isdisjoint(self.loaded(self.SETUP, [*self.SETUP, "--format", "csv"]))

    def test_bound_csv_render_loads_csv(self):
        argv = ["verify-hh", "--f", "x", "--g", "x^2", "--interval", "0", "1", "--format", "csv"]
        assert self.HEAVY & self.loaded(argv) == {"csv"}

    def test_config_loads_shlex(self, tmp_path):
        config = tmp_path / "request.conf"
        config.write_text("grid = 1 1 1\n", encoding="utf-8")
        argv = ["check-convex", "--config", str(config), "--f", "x^2", "--interval", "0", "1"]
        assert self.HEAVY & self.loaded(argv) == {"shlex"}
