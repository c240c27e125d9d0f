import ast
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

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

    def test_midpoint_weight_overflow_is_two(self, capsys):
        f, interval = ("--f", "(x-0.5)^2"), ("--interval", "0", "1")
        pair = (*f, "--g", "2*(x-0.5)^2", *interval)
        code, doc = run_json(capsys, "verify-hh", *pair, "--h-custom", "1e-310",
                             "--bound", "midpoint")
        assert code == 2 and doc["exit_code"] == 2
        assert "h(1/2) = 1e-310" in doc["error"]["message"]
        code, doc = run_json(capsys, "verify-hh", *pair, "--h-custom", "1e-300",
                             "--bound", "midpoint")
        assert code == 0 and doc["result"]["reports"][0]["margin"] > 0.08
        # the weight is read by the midpoint bound only: a sweep still comes
        # to a verdict (f > 0 is far above h(t) f(x) + h(1-t) f(y))
        code, doc = run_json(capsys, "check-convex", *f, *interval, "--h-custom", "1e-310",
                             "--grid", "5", "5", "5")
        assert code == 1 and doc["result"]["verdict"] == "violated"

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
    """main builds its argparse parser once per process, for the first
    request the scan hands on, and every later one reuses it, with a fresh
    process's bytes."""

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
            ("--format", "text", "verify-hh", *BASE),
            ("check-convex", "--f", "x^2", "--interval", "0", "1", "--bound", "both"),
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


# option only one subcommand takes -> its owner in the option table
_OWNER = {option.flag: option.owner for option in cli._OPTIONS if option.owner}
_OWN = {"--bound": ("--bound", "midpoint"), "--which": ("--which", "linear"),
        "--refine": ("--refine",)}  # and its tokens
_CONFIG_LINE = {"--bound": "bound = midpoint", "--which": "which = linear",
                "--refine": "refine = true"}
_FOREIGN = [(sub, flag) for sub in cli._COMMANDS for flag, owner in _OWNER.items()
            if sub != owner]


class TestFlatParser:
    """One parser for every subcommand: options may come on either side of
    it, and an option of one subcommand given to another exits 2 before
    any input is built."""

    def test_every_foreign_pair_is_listed(self):
        assert set(_OWNER) == set(_OWN)
        assert len(_FOREIGN) == 15

    @pytest.mark.parametrize("sub, flag", _FOREIGN)
    @pytest.mark.parametrize("via", ["flag", "config", "abbreviation"])
    def test_foreign_option_is_two(self, capsys, tmp_path, sub, flag, via):
        owner, tokens = _OWNER[flag], _OWN[flag]
        if via == "config":
            conf = tmp_path / "run.conf"
            conf.write_text(_CONFIG_LINE[flag] + "\n")
            tokens = ("--config", str(conf))
        elif via == "abbreviation":
            tokens = (tokens[0][:5], *tokens[1:])  # --bou, --whi, --ref
        code, doc = run_json(capsys, sub, *BASE, "--h-custom", "(", *tokens)
        assert code == 2
        assert doc["subcommand"] == sub
        # the bad kernel is never parsed: the request stops at its argv
        assert doc["error"] == {
            "message": f"argument {flag}: only the {owner} subcommand takes it", "problems": [],
        }

    @pytest.mark.parametrize("flag", sorted(_OWN))
    def test_owner_takes_its_option_on_either_side(self, capsys, flag):
        owner, tokens = _OWNER[flag], _OWN[flag]
        argv = (*BASE, "--grid", "3", "3", "3")
        if owner == "special-case":  # the default, all, reads --s; so does power
            argv, tokens = (*argv, "--s", "0.5"), ("--which", "power")
        after = run(capsys, owner, *argv, *tokens)
        assert run(capsys, *tokens, owner, *argv) == after
        assert after != run(capsys, owner, *argv)  # not the default

    def test_owner_gets_its_default(self):
        defaults = {owner: getattr(cli._parse_argv([owner]), flag[2:])
                    for flag, owner in _OWNER.items()}
        assert defaults == {"verify-hh": "both", "special-case": "all", "search": False}

    def test_options_before_the_subcommand(self, capsys):
        after = run(capsys, "verify-hh", *BASE, "--format", "text")
        assert run(capsys, "--format", "text", "verify-hh", *BASE) == after
        assert after[1] == run_cli("--format", "text", "verify-hh", *BASE)[1]
        assert after[1].startswith("tool = domcert\n")

    def test_argv_error_names_the_subcommand_after_options(self, capsys):
        code, doc = run_json(capsys, "--format", "text", "verify-hh", "--bogus", "1")
        assert code == 2
        assert (doc["subcommand"], doc["error"]["message"]) == (
            "verify-hh", "unrecognized arguments: --bogus 1")

    def test_help_lists_every_subcommand(self):
        code, out = run_cli("--help")
        assert code == 0
        listed = out[out.index("subcommands:"):].split()
        assert set(cli._COMMANDS) <= set(listed)
        assert len(cli._COMMANDS) == 6

    @pytest.mark.parametrize("argv", [["--help"], ["verify-hh", "-h"], ["--f", "x", "--he"]])
    def test_help_returns_zero_in_process(self, capsys, argv):
        # main returns the exit code; argparse's help action would raise SystemExit
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.startswith("usage: domcert") and "subcommands:" in out
        assert main(["check-convex", "--f", "x^2", "--interval", "0", "1", "--grid", "1", "1",
                     "1"]) == 0  # the shared parser still parses


# the one flat help's option groups, each with its flags and their help
_HELP_GROUPS = (
    ("expressions", (("--f", "expression for f, e.g. 'x^2'"),
                     ("--g", "expression for the dominator g"))),
    ("kernel", (("--h", "built-in kernel: one of 't', 't^s' (needs --s), '1/t', '1' (default t)"),
                ("--s", "exponent for the 't^s' kernel, in (0, 1)"),
                ("--h-custom", "custom kernel expression in t, must be positive"))),
    ("domain", (("--interval", "domain interval"),
                ("--phi", "affine map: 'identity' or an affine expression in x (default"
                          " identity)"))),
    ("sampling", (("--grid", "grid sample counts for x, y, t (default 21 21 19)"),
                  ("--random", "use COUNT seeded random triples instead of the grid"),
                  ("--samples", "alias for --random"),
                  ("--seed", "seed for random sampling"),
                  ("--eps-t", "clamp keeping t inside [eps, 1-eps] (default 1e-6)"))),
    ("tolerances", (("--atol", "absolute tolerance"), ("--rtol", "relative tolerance"),
                    ("--quad-tol", "quadrature error budget"))),
    ("output", (("--format", "output format"),
                ("--config", "key = value file mirroring the flags"))),
    ("one subcommand each", (
        ("--bound", "verify-hh: which bound form to check (default both)"),
        ("--which", "special-case: which built-in kernel (default all)"),
        ("--refine", "search: sharpen the worst samples by coordinate descent"))),
)
_HELP_SHA256 = "2b65c11b363ad26aad009cc79774b64597c02f14463721beab1d58deefc75662"


class TestHelpText:
    """`--help` and a subcommand's `-h` print the one flat help: byte for
    byte at 80 columns on Python 3.11, and on the others, whose argparse
    lays help out differently, with each group and each flag's help in
    order."""

    @pytest.mark.parametrize("argv", [["--help"], ["verify-hh", "-h"]])
    def test_help(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        assert main(argv) == 0
        out = capsys.readouterr().out
        if sys.version_info[:2] == (3, 11):
            assert hashlib.sha256(out.encode()).hexdigest() == _HELP_SHA256
            return
        # wrapped lines break at spaces or after hyphens: compare without them
        text, at = "".join(out.split()), 0
        for title, options in _HELP_GROUPS:
            for piece in (f"{title}:", *(part for option in options for part in option)):
                piece = "".join(piece.split())
                at = text.index(piece, at) + len(piece)


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


# the scan's argv are drawn from the option table and argparse's help flags;
# the parser built from the table is the reference
_SCAN_PARSER = cli.build_parser()
_KEYWORDS = {option.flag: option.keywords for option in cli._OPTIONS}
_KEYWORDS.update({"-h": {"action": "help"}, "--help": {"action": "help"}})
_LONG = sorted(flag for flag in _KEYWORDS if flag.startswith("--"))
_VALUE = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats().map(repr),
    st.sampled_from(["-1.5E+2", "-1e", "-inf", "-.5e1", "1e-3", "-0.0", "nan", "1_0", " 2",
                     "x^2", "t", "json", "csv", "midpoint", "both", "linear", "all", "",
                     "-", "--", "-x", "-1 2", "-h", *cli._COMMANDS]),
    st.text("-=.e1x ", max_size=4),
)


# values argparse takes for an option of each type ("-inf" is an option to it)
_TYPED = {int: st.integers(-3, 40).map(str),
          float: st.one_of(st.floats().map(repr).filter(lambda text: text != "-inf"),
                           st.sampled_from(["-1.5E+2", "-.5e1", "1e-3", "-0.0"])),
          None: st.sampled_from(["x^2", "t", "x", "", "0.5*x", "-1", *cli._COMMANDS])}


def _values(draw, keywords: dict, fitting: bool = False) -> list[str]:
    """As many values as the option of these add_argument keywords takes,
    of its type or choices: always when fitting, mostly otherwise, and else
    0-3 values of any kind."""
    if not fitting and draw(st.integers(0, 5)) == 0:
        return draw(st.lists(_VALUE, max_size=3))
    if "choices" in keywords:
        value = st.sampled_from(list(keywords["choices"]))
    else:
        value = _TYPED.get(keywords.get("type"), _VALUE)
    count = 0 if "action" in keywords else keywords.get("nargs", 1)
    return [draw(value) for _ in range(count)]


@st.composite
def _argv(draw) -> list[str]:
    """Options spelt exactly, abbreviated or as --flag=value, each with its
    own values or 0-3 others, repeated or not, and the subcommand (none, one
    or two) anywhere."""
    flags = st.sampled_from([*_LONG * 3, *["--random", "--samples"] * 2, "-h"])
    argv = []
    for _ in range(draw(st.integers(0, 6))):
        flag = draw(flags)
        values = _values(draw, _KEYWORDS[flag])
        spelling = draw(st.sampled_from(["exact"] * 6 + ["abbreviated", "joined"]))
        if spelling == "abbreviated":
            flag = flag[:draw(st.integers(2, len(flag)))]
        if spelling == "joined" and values:
            flag = f"{flag}={values.pop(0)}"
        argv += [flag, *values]
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 1, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(list(cli._COMMANDS))))
    return argv


@st.composite
def _well_formed_argv(draw) -> list[str]:
    """Exact long options with the values they take, repeated or not, and
    one subcommand anywhere."""
    flags = st.sampled_from([flag for flag in _LONG if flag not in ("--help", "--config")])
    chunks = []
    for _ in range(draw(st.integers(0, 8))):
        flag = draw(flags)
        chunks.append([flag, *_values(draw, _KEYWORDS[flag], fitting=True)])
    chunks.insert(draw(st.integers(0, len(chunks))), [draw(st.sampled_from(list(cli._COMMANDS)))])
    return [token for chunk in chunks for token in chunk]


def _fields(ns) -> dict:
    # repr tells nan and -0.0 apart, and a list from a tuple
    return {dest: repr(value) for dest, value in vars(ns).items()}


class TestArgvScan:
    """main reads well-formed argv in one scan of the option table, and
    leaves every other argv to argparse, which keeps its messages."""

    @settings(max_examples=1000, deadline=None)
    @given(_argv())
    def test_the_scan_is_parse_args_or_none(self, argv):
        try:
            with contextlib.redirect_stdout(io.StringIO()):  # --help prints
                want = _SCAN_PARSER.parse_args(argv)
        except (cli._ArgvError, cli._HelpShown):
            want = None
        got = cli._scan(argv)
        if want is None:
            assert got is None
        elif got is not None:
            assert _fields(got) == _fields(want)

    @settings(max_examples=500, deadline=None)
    @given(_well_formed_argv())
    def test_well_formed_argv_is_scanned(self, argv):
        got = cli._scan(argv)
        assert got is not None
        assert _fields(got) == _fields(_SCAN_PARSER.parse_args(argv))

    WELL_FORMED = [
        ("--format", "text", "check-convex", "--f", "x^2", "--interval", "0", "1",
         "--grid", "3", "3", "3", "--h", "1"),
        ("--grid", "3", "3", "3", "check-dominated", *BASE, "--random", "50", "--samples", "40",
         "--seed", "2"),
        ("equivalence", *BASE, "--phi", "0.5*x", "--grid", "3", "3", "3", "--format", "csv"),
        ("--bound", "midpoint", "verify-hh", *BASE, "--h-custom", "t^(-0.5)", "--quad-tol",
         "1e-9", "--atol", "1e-8", "--rtol", "0"),
        ("--which", "power", "special-case", *BASE, "--s", "0.5", "--format", "text"),
        ("search", *BAD, "--grid", "4", "4", "4", "--refine", "--eps-t", "1e-3"),
        TestNegativeExponentNotation.ARGV,
        # a repeated flag: the last one wins
        ("check-convex", "--f", "x", "--f", "x^2", "--interval", "0", "1", "--grid", "3", "3",
         "3", "--format", "json", "--format", "text"),
    ]

    @pytest.mark.parametrize("argv", WELL_FORMED)
    def test_well_formed_argv_never_reaches_argparse(self, capsys, monkeypatch, argv):
        def refuse():
            raise AssertionError("build_parser()")

        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", refuse)
        assert run(capsys, *argv) == run_cli(*argv)

    @pytest.mark.parametrize("argv", [
        ("check-convex", "--f=x^2", "--interval", "0", "1"),
        ("check-convex", "--f", "x^2", "--inter", "0", "1"),
        ("check-convex", "-h"),
        ("check-convex", "--config", "{conf}"),
    ])
    def test_other_argv_reaches_argparse(self, capsys, monkeypatch, tmp_path, argv):
        conf = tmp_path / "run.conf"
        conf.write_text("f = x^2\ninterval = 0 1\ngrid = 3 3 3\n")
        argv = [token.format(conf=conf) for token in argv]
        parser, calls = cli.build_parser(), []
        parse_args = parser.parse_args

        def counted(args=None, namespace=None):
            calls.append(args)
            return parse_args(args, namespace)

        monkeypatch.setattr(cli, "_PARSER", parser)
        monkeypatch.setattr(parser, "parse_args", counted)
        code, _ = run(capsys, *argv)
        assert code == 0 and calls[0] == argv


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

    def test_phi_affine_at_three_points_only_is_refused(self, capsys):
        # the cubic term vanishes at 0, 1/2 and 1, where the 3-point probe looks
        code, doc = run_json(capsys, "check-convex", "--f", "x^2", "--interval", "0", "1",
                             "--phi", "x + 0.4*x*(x-0.5)*(x-1)")
        assert code == 2
        assert doc["error"]["problems"] == [
            "--phi: expression 'x + 0.4*x*(x-0.5)*(x-1)' is not affine (0.0192 from the line"
            " through its end values at x=0.789)"]

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

    @pytest.mark.parametrize("value", ["5e-324", "1e-323"])
    @pytest.mark.parametrize("command", [("verify-hh",), ("special-case", "--which", "linear")])
    def test_a_quad_tol_whose_quarter_underflows_is_refused(self, capsys, command, value):
        # tol / 4, each mean's budget, was 0.0: a ValueError traceback and exit 1
        code, doc = run_json(capsys, *command, *BASE, "--quad-tol", value)
        assert code == 2
        assert doc["error"]["problems"] == [
            f"--quad-tol must be large enough that a quarter of it is not 0.0, got {value}"
        ]

    @pytest.mark.parametrize("command", [("verify-hh",), ("special-case", "--s", "0.5")])
    @pytest.mark.parametrize("f, g", [("1", "2"), ("x^2", "2*x^2")])
    def test_an_image_wider_than_the_largest_float_is_refused(self, capsys, command, f, g):
        # constants gave nan bounds and exit 1; x^2 met inf at a panel node
        code, doc = run_json(capsys, *command, "--f", f, "--g", g, "--interval", "-1e308",
                             "1e308")
        assert code == 2
        assert doc["error"] == {"message": "phi's image [-1e+308, 1e+308] is wider than the"
                                           " largest float; bounds are undefined",
                                "problems": []}

    @pytest.mark.parametrize("phi, echo", [("x", "identity"), ("0.5*x", "0.5*x + 0.0")])
    def test_a_phi_on_an_interval_whose_width_overflows_is_kept(self, capsys, phi, echo):
        # 0.5*x became the constant "0.0*x + -5e+307"; x was refused
        code, doc = run_json(capsys, "check-convex", "--f", "abs(x)", "--interval", "-1e308",
                             "1e308", "--phi", phi, "--random", "10")
        assert code == 0
        assert doc["inputs"]["phi"] == echo

    @pytest.mark.parametrize("interval, phi, echo", [
        (("1e308", "1.7e308"), "x", "identity"),
        (("-1e308", "1e308"), "0.5*x + 0*sin(x)", "0.5*x + 0.0"),
        (("1e308", "1.7e308"), "x+0*sin(x)", "identity"),
    ])
    def test_a_phi_probed_on_a_huge_interval_is_kept(self, capsys, interval, phi, echo):
        # probes at 0.5 * (a + b) or at the Chebyshev points met inf, or the
        # second difference u(a) - 2u(m) + u(b) overflowed: exit 2
        code, doc = run_json(capsys, "check-convex", "--f", "x", "--interval", *interval,
                             "--phi", phi, "--random", "10")
        assert code == 0
        assert doc["inputs"]["phi"] == echo

    @pytest.mark.parametrize("command", [("verify-hh", "--bound", "midpoint"),
                                         ("special-case", "--s", "0.5")])
    def test_an_integral_that_overflows_is_refused(self, capsys, command):
        # the integral of g was inf with error nan: rhs = inf, holds and exit 0
        code, doc = run_json(capsys, *command, "--f", "1e308*x^2", "--g", "1e308",
                             "--interval", "0", "1")
        assert code == 2
        assert doc["error"] == {"message": "the integral of g = '1e308' over [0.0, 1.0] is inf"
                                           " with error nan; bounds are undefined",
                                "problems": []}

    def test_a_margin_of_minus_inf_never_holds(self, capsys):
        # atol + rtol * scale overflowed to inf: margin -inf, holds and exit 0
        code, doc = run_json(capsys, "verify-hh", "--f=-0.3e308", "--g", "0.3e308",
                             "--interval", "0", "1", "--bound", "midpoint", "--h-custom", "0.1",
                             "--rtol", "2")
        assert code == 1
        [report] = doc["result"]["reports"]
        assert (report["margin"], report["holds"]) == ("-inf", False)

    @pytest.mark.parametrize("argv, message", [
        # vg * H overflowed under H = 2: lhs = rhs = inf, holds and exit 0
        (("--f", "0.6e308", "--g", "0.5e308", "--bound", "endpoint", "--h-custom", "2"),
         "the endpoint bound has lhs = inf and rhs = inf"),
        # c f(m) and c g(m) overflowed: rhs = inf, holds and exit 0
        (("--f", "2e10", "--g=-1e10", "--bound", "midpoint", "--h-custom", "1e-300"),
         "the midpoint bound has lhs = inf and rhs = inf"),
    ])
    def test_an_infinite_side_under_a_finite_integral_is_refused(self, capsys, argv, message):
        code, doc = run_json(capsys, "verify-hh", *argv, "--interval", "0", "1")
        assert code == 2
        assert doc["error"] == {"message": f"{message}, not both finite; the bound is undefined",
                                "problems": []}

    def test_an_infinite_side_under_a_divergent_integral_is_vacuous(self, capsys):
        code, doc = run_json(capsys, "verify-hh", "--f", "0.6e308", "--g", "0.5e308",
                             "--interval", "0", "1", "--bound", "endpoint", "--h", "1/t")
        assert code == 0
        [report] = doc["result"]["reports"]
        assert (report["lhs"], report["rhs"], report["holds"], report["vacuous"]) == (
            "inf", "inf", True, True)

    def test_an_image_whose_sum_overflows_is_integrated(self, capsys):
        # a panel center 0.5 * (a + b) was inf: "integrand failed at x=inf", exit 2
        code, doc = run_json(capsys, "verify-hh", "--f", "1e-308*x", "--g", "1.5e-308*x",
                             "--interval", "1e308", "1.7e308")
        assert code == 0
        assert [(r["bound_kind"], r["lhs"], r["rhs"], r["margin"])
                for r in doc["result"]["reports"]] == [("midpoint", 0.0, 0.0, 0.0),
                                                       ("endpoint", 0.0, 0.0, 0.0)]

    @pytest.mark.parametrize("f, g, interval, message", [
        # two finite panels whose sum overflows: fsum's OverflowError escaped
        ("1e-308*x", "2e-308*x", ("1e308", "1.7e308"),
         "the integral of g = '2e-308*x' over [1e+308, 1.7e+308] is inf with error 0.0"),
        # panels of -inf and inf: fsum's ValueError escaped
        ("1.7e308*((x-0.5)/abs(x-0.5)) + 1e300*x^9", "1", ("-1", "1.6"),
         "the integral of f = '1.7e308*((x-0.5)/abs(x-0.5)) + 1e300*x^9' over [-1.0, 1.6]"
         " is nan with error nan"),
    ])
    def test_an_integral_whose_panel_sum_fails_is_refused(self, capsys, f, g, interval,
                                                          message):
        code, doc = run_json(capsys, "verify-hh", "--f", f, "--g", g, "--interval", *interval)
        assert code == 2
        assert doc["error"] == {"message": f"{message}; bounds are undefined", "problems": []}

    @pytest.mark.parametrize("kernel", [(), ("--h", "t"), ("--h", "1/t"), ("--h-custom", "t")])
    def test_s_is_refused_unless_a_kernel_reads_it(self, capsys, kernel):
        # it was ignored: exit 0
        code, doc = run_json(capsys, "check-convex", "--f", "x^2", "--interval", "0", "1",
                             *kernel, "--s", "7")
        assert code == 2
        assert doc["error"]["problems"] == ["--s: only the --h t^s kernel reads it"]

    @pytest.mark.parametrize("argv, problems", [
        (("--f", "x^2", "--interval", "0", "1", "--h", "t^2"),
         ["--h: unknown kernel 't^2' (choose 't', 't^s', '1/t', '1', or --h-custom)"]),
        (("--f", "x^2", "--interval", "0", "1", "--h", "t^s", "--s", "2"),
         ["--h: power kernel needs 0 < s < 1, got 2.0"]),
        (("--f", "x^2", "--interval", "0", "1", "--phi", "x+"),
         ["--phi: expected a number, name, '-', or '(' at offset 2 in 'x+'"]),
        (("--f", "x^2", "--interval", "0", "1", "--phi", "t"),
         ["--phi: the map expression uses 'x', got 't'"]),
        (("--f", "x^2"), ["--interval A B is required"]),
        (("--interval", "0", "1"), ["--f is required"]),
    ])
    def test_each_bad_input_names_its_flag(self, capsys, argv, problems):
        code, doc = run_json(capsys, "check-convex", *argv)
        assert code == 2
        assert doc["error"]["problems"] == problems

    @pytest.mark.parametrize("flag, value", [("--h", "1/t"), ("--h-custom", "t-5")])
    def test_special_case_takes_no_kernel(self, capsys, flag, value):
        # the kernel was never looked at: the built-in rows and exit 0
        code, doc = run_json(capsys, "special-case", *BASE, "--s", "0.5", flag, value)
        assert code == 2
        assert doc["error"]["problems"] == [
            f"{flag}: special-case takes no kernel; --which names its own"
        ]

    def test_power_which_needs_s(self, capsys):
        code, doc = run_json(capsys, "special-case", *BASE, "--which", "power")
        assert code == 2
        assert any("--s" in p for p in doc["error"]["problems"])

    @pytest.mark.parametrize("which", sorted(set(cli._BUILT_IN) - {"power"}))
    def test_s_needs_a_which_that_reads_it(self, capsys, which):
        code, doc = run_json(capsys, "special-case", *BASE, "--which", which, "--s", "0.5")
        assert code == 2
        assert doc["error"]["problems"] == ["--s: only --which power or all reads it"]


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

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("command", [("verify-hh", "--bound", "both"),
                                         ("special-case", "--which", "all", "--s", "0.5")])
    def test_bound_envelopes_state_each_source_once(self, capsys, command, fmt):
        # each report repeated f, g, the kernel, phi and the interval
        f, g = "x*x+0.25", "2*x*x+0.75"
        code, out = run(capsys, *command, "--f", f, "--g", g, "--interval", "0", "1",
                        "--format", fmt)
        assert code == 0
        assert (out.count(f), out.count(g)) == (1, 1)

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

    @pytest.mark.parametrize("spelling", ["--conf", "--config="])
    def test_any_spelling_reads_the_file(self, capsys, tmp_path, spelling):
        conf = tmp_path / "run.conf"
        conf.write_text("f = x^3\ninterval = 0 1\ngrid = 3 3 3\n")
        flag = (spelling + str(conf),) if spelling.endswith("=") else (spelling, str(conf))
        code, doc = run_json(capsys, "check-convex", *flag)
        assert code == 0
        assert doc["inputs"]["f"] == "x^3"

    def test_explicit_flags_override_config(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("f = x^2\ng = 2*x^2\ninterval = 0 1\nformat = text\n")
        code, out = run(capsys, "check-dominated", "--config", str(conf),
                        "--format", "json")
        json.loads(out)  # json format won despite config saying text

    def test_boolean_key(self, capsys, tmp_path):
        # any option without values, under any name argparse takes (--ref for --refine)
        conf = tmp_path / "run.conf"
        for line, refined in [("refine = true", True), ("ref = yes", True),
                              ("refine = off", False), ("ref = 0", False)]:
            conf.write_text(f"f = 2*x^2\ng = x^2\ninterval = 0 1\n{line}\ngrid = 5 5 5\n")
            code, doc = run_json(capsys, "search", "--config", str(conf))
            assert doc["result"]["refined"] is refined, line

    def test_flag_before_the_subcommand_overrides_config(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("f = x^2\ng = 2*x^2\ninterval = 0 1\nformat = text\ngrid = 3 3 3\n")
        code, out = run(capsys, "--format", "json", "--grid", "5", "5", "5", "check-dominated",
                        "--config", str(conf))
        assert code == 0
        assert json.loads(out)["inputs"]["plan"]["n_x"] == 5

    def test_key_without_value_is_a_line_problem(self, capsys, tmp_path):
        # as a bare --f in front of argv, it would take the subcommand
        conf = tmp_path / "run.conf"
        conf.write_text("f =\ninterval = 0 1\n")
        code, doc = run_json(capsys, "check-convex", "--config", str(conf))
        assert code == 2
        assert doc["error"]["message"] == f"config file {str(conf)!r}: line 1: f has no value"

    @pytest.mark.parametrize("line, message", [
        ("grid = 5 5", "grid takes 3 values, got 2"),
        ("grid = 5 5 5 5", "grid takes 3 values, got 4"),
        ("interval = 0", "interval takes 2 values, got 1"),
        ("gri = 5 5", "gri takes 3 values, got 2"),  # an abbreviation, as argparse reads it
        ("f = x + 1", "f takes 1 value, got 3"),
    ])
    def test_value_count_is_the_options(self, capsys, tmp_path, line, message):
        # in front of argv a value short would take the subcommand as its last value
        conf = tmp_path / "run.conf"
        conf.write_text(f"f = x^2\ninterval = 0 1\n{line}\n")
        code, doc = run_json(capsys, "check-convex", "--config", str(conf))
        assert code == 2
        assert doc["error"]["message"] == f"config file {str(conf)!r}: line 3: {message}"

    @pytest.mark.parametrize("key", ["config", "conf", "c"])
    def test_a_config_key_under_any_spelling_cannot_nest(self, capsys, tmp_path, key):
        # "c" abbreviates --config alone, as argparse reads it
        (tmp_path / "other.cfg").write_text("f = x^3\n")
        conf = tmp_path / "run.conf"
        conf.write_text(f"f = x^2\ninterval = 0 1\n{key} = other.cfg\n")
        code, doc = run_json(capsys, "check-convex", "--config", str(conf))
        assert code == 2
        assert doc["error"]["message"] == (
            f"config file {str(conf)!r}: line 3: config files cannot nest")

    def test_a_key_names_the_flag_argparse_reads(self):
        # every prefix of every long flag, against the parser's own table
        actions = cli.build_parser()._option_string_actions
        keys = {flag[2:k] for flag in actions if flag[:2] == "--"
                for k in range(3, len(flag) + 1)}
        for key in sorted(keys | {"x", "nope"}):
            action = actions.get(f"--{key}")
            if action is None:
                matches = {a for flag, a in actions.items() if flag.startswith(f"--{key}")}
                action = matches.pop() if len(matches) == 1 else None
            flag = cli._config_flag(key)
            if action is None:
                assert flag is None, key
                continue
            assert flag in action.option_strings, key
            if flag != "--config":
                assert cli._TAKES[flag] == (1 if action.nargs is None else action.nargs), key

    def test_an_unbalanced_quote_is_a_line_problem(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text('interval = 0 1\nf = "x^2\n')
        code, doc = run_json(capsys, "check-convex", "--config", str(conf))
        assert code == 2
        assert doc["error"]["message"] == (
            f"config file {str(conf)!r}: line 2: No closing quotation")

    def test_missing_config_file_is_two(self, capsys, tmp_path):
        code, out = run(capsys, "check-convex", "--config", str(tmp_path / "nope.conf"))
        assert code == 2

    def test_malformed_lines_all_reported(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("f x^2\nrefine = maybe\n")
        code, out = run(capsys, "check-convex", "--config", str(conf))
        assert code == 2
        assert json.loads(out)["error"]["message"] == (
            f"config file {str(conf)!r}: line 1: expected 'key = value', got 'f x^2';"
            " line 2: refine wants true/false, got 'maybe'"
        )


GOLDEN = Path(__file__).resolve().parent / "golden"


_RANDOM_WARNING = ("verify-hh", "--f", "x-0.3", "--g", "2*x^2+1", "--interval", "0", "1",
                   "--random", "50", "--seed", "3", "--bound", "both")
_VACUOUS = ("verify-hh", "--f", "0.6e308", "--g", "0.5e308", "--interval", "0", "1", "--h",
            "1/t", "--bound", "endpoint")


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
        # every entry's label and report path in text
        "special_case_all.txt": ("special-case", "--f", "x*x", "--g", "2*x*x", "--interval",
                                 "0", "1", "--which", "all", "--s", "0.5", "--format", "text"),
        # a random plan, and a warning on one report
        "verify_hh_random_warning.json": _RANDOM_WARNING,
        "verify_hh_random_warning.txt": (*_RANDOM_WARNING, "--format", "text"),
        # sides of "inf" under the divergent 1/t: vacuous
        "verify_hh_vacuous.json": _VACUOUS,
        "verify_hh_vacuous.txt": (*_VACUOUS, "--format", "text"),
        "verify_hh_both.csv": ("verify-hh", "--f", "x*x", "--g", "2*x*x", "--interval", "0",
                               "1", "--bound", "both", "--format", "csv"),
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
_EQUIVALENCE_SHARED = ("equivalence", "--f", _EXP_SHARED, "--g", f"{_EXP_SHARED}+2*(x-0.3)^4",
                       "--interval", "-1", "2", "--h", "t^s", "--s", "0.5", "--random", "500",
                       "--seed", "3")


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
        "shared_equivalence_random.json": (0, _EQUIVALENCE_SHARED),
        "shared_equivalence_random.txt": (0, (*_EQUIVALENCE_SHARED, "--format", "text")),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bytes(self, capsys, name):
        want_code, argv = self.CASES[name]
        code, out = run(capsys, *argv)
        assert out == (GOLDEN / name).read_text()
        assert code == want_code

    @pytest.mark.parametrize("plan", [("--grid", "5", "5", "5"),
                                      ("--random", "200", "--seed", "3")])
    def test_a_g_in_t_computes_what_it_read_in_x(self, capsys, plan):
        # f's tree in x is not a subtree of 3*t^2, so g computes t^2 itself:
        # the same bits as reading f's value, as 3*x^2 does
        results = []
        for g in ("3*t^2", "3*x^2"):
            code, out = run(capsys, "check-dominated", "--f", "x^2", "--g", g, "--interval",
                            "0", "1", *plan)
            assert code == 0
            results.append(out[out.index('"result"'):])
        assert results[0] == results[1]


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


def _nest(n: int) -> str:
    return "(" * n + "x" + ")" * n


def _sum(n: int) -> str:
    return "+".join(["x"] * n)


class TestDeepNesting:
    """An expression nested past what the parser's or the emitter's
    recursion or compile's parenthesis limit takes is refused with exit 2,
    naming its flag; it was a traceback and exit 1.  Each repro runs in a
    fresh process, as a shell user runs it."""

    GRID = ("--interval", "0", "1", "--grid", "3", "3", "3")

    @pytest.mark.parametrize("source", [
        _nest(300),  # the parser's recursion
        _sum(250),  # compile's parenthesis limit
        _sum(1200),  # the emitter's recursion
        "^".join(["x"] * 300),  # compile's parenthesis limit, right-nested
    ], ids=["parentheses-300", "sum-250", "sum-1200", "power-tower-300"])
    def test_deep_nesting_is_refused(self, source):
        code, out = run_cli("check-convex", "--f", source, *self.GRID)
        assert code == 2, out
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["error"]["problems"] == [
            f"--f: expected an expression nested less deeply at offset 0 in {source[:40]!r}"
        ]

    @pytest.mark.parametrize("argv", [
        ("check-convex", "--f", _nest(150), *GRID),
        ("check-convex", "--f", _sum(199), *GRID),
        ("equivalence", "--f", _sum(199), "--g", f"3*({_sum(199)})", *GRID),
        ("verify-hh", "--f", _sum(199), "--g", f"3*({_sum(199)})", "--interval", "0", "1"),
    ], ids=["parentheses-150", "check-convex-sum-199", "equivalence-sum-199",
            "verify-hh-sum-199"])
    def test_nesting_below_the_limits_runs(self, argv):
        code, out = run_cli(*argv)
        assert code == 0, out

    @pytest.mark.parametrize("flag", ["--g", "--phi", "--h-custom"])
    def test_each_expression_flag_is_named(self, capsys, flag):
        flags = {"--f": "x", "--g": "2*x", flag: _sum(1200)}
        code, doc = run_json(capsys, "verify-hh", *(a for kv in flags.items() for a in kv),
                             "--interval", "0", "1")
        assert code == 2
        assert doc["error"]["problems"] == [
            f"{flag}: expected an expression nested less deeply at offset 0 in {_sum(1200)[:40]!r}"
        ]


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
            # every defect is +inf, so no sample compared: both held with a nan
            # witness; g's gate, decided before the gap (every gap nan), names g
            (("check-convex", "--f", "1.7e308", "--h", "1"),
             "no sampled convexity defect of the function is below +inf (each of the 27 "
             "samples is +inf or nan), so the samples decide nothing"),
            (("check-dominated", "--f", "1.7e308", "--g", "1.7e308", "--h", "1"),
             "no sampled convexity defect of g is below +inf (each of the 27 samples is +inf "
             "or nan), so the samples decide nothing"),
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
        # sample rows are written without the csv module, and well-formed
        # argv is read without argparse
        assert (self.HEAVY | {"argparse"}).isdisjoint(
            self.loaded(self.SETUP, [*self.SETUP, "--format", "csv"]))

    def test_a_joined_flag_loads_argparse(self):
        assert "argparse" in self.loaded(["check-convex", "--f=x^2", "--interval", "0", "1"])

    def test_bound_csv_render_loads_no_csv(self):
        # bound and equivalence rows are joined without the csv module
        argv = [[sub, *BASE, "--format", "csv", "--grid", "3", "3", "3"]
                for sub in ("verify-hh", "equivalence")]
        argv.append(["special-case", *BASE, "--format", "csv", "--s", "0.5"])
        assert self.HEAVY.isdisjoint(self.loaded(*argv))

    def test_config_loads_shlex(self, tmp_path):
        config = tmp_path / "request.conf"
        config.write_text("grid = 1 1 1\n", encoding="utf-8")
        argv = ["check-convex", "--config", str(config), "--f", "x^2", "--interval", "0", "1"]
        assert self.HEAVY & self.loaded(argv) == {"shlex"}
