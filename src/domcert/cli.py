"""Command line front end.

One subcommand per statement checked, each listed with its help and inputs
in _COMMANDS, and every option once in _OPTIONS; `domcert --help` prints
them.  Options may come before or after the subcommand.  Well-formed argv
(the subcommand, exact long flags and their values) is read by one scan of
the option table (_scan).  Anything else goes to argparse, which keeps its
messages and help: main's parser is built from the same table the first
time the scan hands argv on, and reused by later calls; build_parser()
returns a new one on each call.

Exit codes: 0 every checked statement held, 1 a violation or failed bound
was found, 2 configuration or evaluation error.  Errors are emitted as a
machine-readable envelope on stdout.  A JSON envelope holds the bytes
json.dumps(indent=2) writes with each non-finite float as a string; a text
envelope, its path = value lines.  An error envelope is a dict written by
the generic encoders (render_json, render_text); a success envelope is the
head, written from the flags and built inputs, then one walk of the result
dict every subcommand returns, by the same encoders; a bound report
(HHReport) is in it as the dict of its fields.  A config file of
key = value lines (keys are the long flag names, each with as many values
as its flag takes) can pre-set any flag; explicit flags win.  main(argv)
returns the exit code, for --help too.
"""

from __future__ import annotations

import io
import re
import sys
from json.encoder import encode_basestring_ascii as _json_string
from types import SimpleNamespace
from typing import NamedTuple

from . import __version__
from .convexity import (
    _CHUNK_ROWS,
    CheckReport,
    FunctionPair,
    SamplePlan,
    check_dominated,
    check_phi_h_convex,
    equivalence_report,
    grid_axes,
)
from .errors import DomcertError
from .expr import ParseError, parse
from .geometry import GeometryError, Interval, affine_from_expr, identity_map
from .hadamard import HHReport, hh_bounds_report, quad_tol_problem, special_case_report
from .kernels import _BUILT_IN, KernelError, make_kernel
from .search import search_violations

TOOL = "domcert"

_BUILTIN_KERNELS = {"t": "linear", "t^s": "power", "1/t": "reciprocal", "1": "one"}


class _Command(NamedTuple):
    help: str
    needs_g: bool
    needs_kernel: bool


_COMMANDS = {
    "check-convex": _Command("sample the convexity defect of --f", False, True),
    "check-dominated": _Command("sample the dominance gap of (--f, --g)", True, True),
    "equivalence": _Command("evaluate the three equivalent dominance statements", True, True),
    "verify-hh": _Command("check the two-sided integral bounds", True, True),
    "special-case": _Command("run the bounds for the built-in kernels", True, False),
    "search": _Command("search for violating (x, y, t) triples", True, True),
}


class _Option(NamedTuple):
    flag: str
    group: str  # its heading in --help
    keywords: dict  # add_argument's
    # the one subcommand that takes it: argv leaves it None, so that one
    # given to another subcommand shows, and the owner gets keywords' default
    owner: str | None = None


_OPTIONS = (
    _Option("--f", "expressions", dict(help="expression for f, e.g. 'x^2'")),
    _Option("--g", "expressions", dict(help="expression for the dominator g")),
    _Option("--h", "kernel", dict(
        help="built-in kernel: one of 't', 't^s' (needs --s), '1/t', '1' (default t)")),
    _Option("--s", "kernel", dict(type=float, help="exponent for the 't^s' kernel, in (0, 1)")),
    _Option("--h-custom", "kernel", dict(help="custom kernel expression in t, must be positive")),
    _Option("--interval", "domain", dict(nargs=2, type=float, metavar=("A", "B"),
                                         help="domain interval")),
    _Option("--phi", "domain", dict(
        default="identity",
        help="affine map: 'identity' or an affine expression in x (default identity)")),
    _Option("--grid", "sampling", dict(nargs=3, type=int, metavar=("NX", "NY", "NT"),
                                       default=(21, 21, 19),
                                       help="grid sample counts for x, y, t (default 21 21 19)")),
    _Option("--random", "sampling", dict(
        type=int, dest="random_count", metavar="COUNT",
        help="use COUNT seeded random triples instead of the grid")),
    _Option("--samples", "sampling", dict(type=int, dest="random_count", metavar="COUNT",
                                          help="alias for --random")),
    _Option("--seed", "sampling", dict(type=int, default=0, help="seed for random sampling")),
    _Option("--eps-t", "sampling", dict(
        type=float, default=1e-6, help="clamp keeping t inside [eps, 1-eps] (default 1e-6)")),
    _Option("--atol", "tolerances", dict(type=float, default=1e-9, help="absolute tolerance")),
    _Option("--rtol", "tolerances", dict(type=float, default=1e-9, help="relative tolerance")),
    _Option("--quad-tol", "tolerances", dict(type=float, default=1e-10,
                                             help="quadrature error budget")),
    _Option("--format", "output", dict(choices=("json", "text", "csv"), default="json",
                                       help="output format")),
    _Option("--config", "output", dict(help="key = value file mirroring the flags")),
    _Option("--bound", "one subcommand each", dict(
        choices=("midpoint", "endpoint", "both"), default="both",
        help="verify-hh: which bound form to check (default both)"), "verify-hh"),
    _Option("--which", "one subcommand each", dict(
        choices=(*_BUILT_IN, "all"), default="all",
        help="special-case: which built-in kernel (default all)"), "special-case"),
    _Option("--refine", "one subcommand each", dict(
        action="store_true", default=False,
        help="search: sharpen the worst samples by coordinate descent"), "search"),
)


def _dest(option: _Option) -> str:
    return option.keywords.get("dest", option.flag[2:].replace("-", "_"))


# what the scan reads: each flag but --config (help is not in the table) ->
# (dest, nargs, type, choices), nargs 0 for a store_true flag; and the
# namespace parse_args starts from
_SCANNED = {o.flag: (_dest(o), 0 if "action" in o.keywords else o.keywords.get("nargs"),
                     o.keywords.get("type"), o.keywords.get("choices"))
            for o in _OPTIONS if o.flag != "--config"}
_DEFAULTS = {"subcommand": None,
             **{_dest(o): None if o.owner else o.keywords.get("default") for o in _OPTIONS}}
# the options of one subcommand each: (flag, dest, owner, default)
_OWNED = tuple((o.flag, _dest(o), o.owner, o.keywords["default"]) for o in _OPTIONS if o.owner)


class _ArgvError(DomcertError):
    pass


class _HelpShown(Exception):
    """argparse printed the help and would exit with the status args[0]."""


# argparse's own pattern takes "-12" and "-1.5" for values, not options;
# this one also takes a float in exponent notation ("-1e-3", "-.5E+2")
_NEGATIVE_NUMBER = re.compile(r"^-(\d+|\d*\.\d+)([eE][-+]?\d+)?$")


def _scan(argv: list[str]) -> SimpleNamespace | None:
    """The namespace parse_args(argv) returns, read in one pass, when every
    token is the subcommand, an exact long flag or a value argparse would
    take for it (one starting with "-" only as a negative number); None for
    anything else (an abbreviation, --flag=value, help, --config, a missing,
    unconvertible or out-of-choice value, a second positional, no
    subcommand), which parse_args then reads with its own messages."""
    ns = SimpleNamespace(**_DEFAULTS)
    sub = None
    i, n = 0, len(argv)
    while i < n:
        token = argv[i]
        i += 1
        option = _SCANNED.get(token)
        if option is None:
            if sub is not None or token not in _COMMANDS:
                return None
            sub = token
            continue
        dest, nargs, convert, choices = option
        if nargs == 0:
            setattr(ns, dest, True)
            continue
        stop = i + (nargs or 1)
        if stop > n:
            return None
        values = []
        for text in argv[i:stop]:
            if text[:1] == "-" and not _NEGATIVE_NUMBER.match(text):
                return None
            try:
                value = text if convert is None else convert(text)
            except ValueError:
                return None
            if choices is not None and value not in choices:
                return None
            values.append(value)
        i = stop
        setattr(ns, dest, values if nargs else values[0])
    if sub is None:
        return None
    ns.subcommand = sub
    return ns


def build_parser():
    """A new argparse parser of the subcommand and every option in
    _OPTIONS, which raises _ArgvError for a complaint and _HelpShown after
    the help instead of exiting."""
    import argparse  # only argv the scan hands on pays for it

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _ArgvError(message)

        def exit(self, status=0, message=None):
            raise _HelpShown(status)

    parser = _Parser(
        prog=TOOL,
        description=__doc__.splitlines()[0],
        epilog="subcommands:\n" + "".join(
            f"  {name:<17}{command.help}\n" for name, command in _COMMANDS.items()
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    parser.add_argument(
        "subcommand", choices=_COMMANDS, metavar="subcommand", help="the check to run (below)"
    )
    groups = {}
    for option in _OPTIONS:
        if option.group not in groups:
            groups[option.group] = parser.add_argument_group(option.group)
        # an owned option is None until _parse_argv checks it against the subcommand
        keywords = {**option.keywords, "default": None} if option.owner else option.keywords
        groups[option.group].add_argument(option.flag, **keywords)
    return parser


# ---------------------------------------------------------------------------
# Config file
# ---------------------------------------------------------------------------


# the values a config line gives each long flag but --config: --help and a
# store_true flag take none
_TAKES = {"--help": 0, **{flag: 1 if nargs is None else nargs
                          for flag, (_, nargs, _, _) in _SCANNED.items()}}


def _config_flag(key: str) -> str | None:
    """--key, or the one long flag it abbreviates as argparse reads it; None
    leaves an unknown or ambiguous key to argparse."""
    flags = (*_TAKES, "--config")
    flag = f"--{key}"
    if flag in flags:
        return flag
    matches = [f for f in flags if f.startswith(flag)]
    return matches[0] if len(matches) == 1 else None


def _load_config(path: str) -> list[str]:
    """The file's lines as flags; a line whose value count is not its
    option's is a problem, since in front of argv a value short would
    take the subcommand."""
    import shlex  # only a --config request pays for it

    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _ArgvError(f"cannot read config file {path!r}: {exc}") from exc
    flags: list[str] = []
    problems: list[str] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            problems.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        if not value:  # a bare flag in front of argv would take the subcommand
            problems.append(f"line {lineno}: {key} has no value")
            continue
        flag = _config_flag(key)
        if flag == "--config":
            problems.append(f"line {lineno}: config files cannot nest")
            continue
        want = _TAKES.get(flag)
        if want == 0:
            low = value.lower()
            if low in ("1", "true", "yes", "on"):
                flags.append(f"--{key}")
            elif low in ("0", "false", "no", "off"):
                pass
            else:
                problems.append(f"line {lineno}: {key} wants true/false, got {value!r}")
            continue
        try:
            parts = shlex.split(value)
        except ValueError as exc:
            problems.append(f"line {lineno}: {exc}")
            continue
        if want is not None and len(parts) != want:
            problems.append(f"line {lineno}: {key} takes {want} value{'s' * (want != 1)},"
                            f" got {len(parts)}")
            continue
        flags.append(f"--{key}")
        flags.extend(parts)
    if problems:
        raise _ArgvError(f"config file {path!r}: " + "; ".join(problems))
    return flags


# main's argparse parser, built the first time the scan hands argv on and
# shared by every later call: parsing never changes it (config lines are
# spliced into argv instead)
_PARSER = None


def _parse_argv(argv: list[str]):
    """The namespace of argv.  With --config (spelt any way argparse takes
    it), argv is parsed again behind the file's flags, so that an explicit
    flag wins.  An option of one subcommand given to another is an error,
    and its owner gets its default."""
    global _PARSER
    ns = _scan(argv)
    if ns is None:
        if _PARSER is None:
            _PARSER = build_parser()
        ns = _PARSER.parse_args(argv)
        if ns.config is not None:
            ns = _PARSER.parse_args(_load_config(ns.config) + argv)
    for flag, dest, owner, default in _OWNED:
        if owner == ns.subcommand:
            if getattr(ns, dest) is None:
                setattr(ns, dest, default)
        elif getattr(ns, dest) is not None:
            raise _ArgvError(f"argument {flag}: only the {owner} subcommand takes it")
    return ns


# ---------------------------------------------------------------------------
# Validation: build every input, collecting all problems before failing
# ---------------------------------------------------------------------------


def _parse_expr(source: str, flag: str, problems: list[str]):
    try:
        return parse(source)
    except ParseError as exc:
        problems.append(f"{flag}: {exc}")
        return None


def _build_kernel(ns, problems: list[str]):
    if ns.h is not None and ns.h_custom is not None:
        problems.append("--h and --h-custom are mutually exclusive")
        return None
    if ns.s is not None and (ns.h_custom is not None or ns.h != "t^s"):
        problems.append("--s: only the --h t^s kernel reads it")
    if ns.h_custom is not None:
        e = _parse_expr(ns.h_custom, "--h-custom", problems)
        if e is None or quad_tol_problem(ns.quad_tol):  # a bad tol is reported later
            return None
        try:
            return make_kernel("custom", expr=e, quad_tol=ns.quad_tol)
        except DomcertError as exc:
            problems.append(f"--h-custom: {exc}")
            return None
    name = ns.h if ns.h is not None else "t"
    kind = _BUILTIN_KERNELS.get(name)
    if kind is None:
        problems.append(
            f"--h: unknown kernel {name!r} (choose 't', 't^s', '1/t', '1', or --h-custom)"
        )
        return None
    if kind == "power" and ns.s is None:
        problems.append("--h t^s needs --s")
        return None
    try:
        return make_kernel(kind, s=ns.s)
    except KernelError as exc:
        problems.append(f"--h: {exc}")
        return None


def _build_phi(ns, interval, problems: list[str]):
    if interval is None:
        return None
    if ns.phi == "identity":
        return identity_map(interval)
    e = _parse_expr(ns.phi, "--phi", problems)
    if e is None:
        return None
    if e.var_name not in (None, "x"):
        problems.append(f"--phi: the map expression uses 'x', got '{e.var_name}'")
        return None
    try:
        return affine_from_expr(e, interval)
    except DomcertError as exc:
        problems.append(f"--phi: {exc}")
        return None


def _build_inputs(ns, problems: list[str]) -> SimpleNamespace:
    command = _COMMANDS[ns.subcommand]
    built = SimpleNamespace(f=None, g=None, kernel=None, phi=None, interval=None, plan=None)
    if ns.interval is None:
        problems.append("--interval A B is required")
    else:
        try:
            built.interval = Interval(ns.interval[0], ns.interval[1])
        except GeometryError as exc:
            problems.append(f"--interval: {exc}")
    if ns.f is None:
        problems.append("--f is required")
    else:
        built.f = _parse_expr(ns.f, "--f", problems)
    if command.needs_g:
        if ns.g is None:
            problems.append("--g is required for this subcommand")
        else:
            built.g = _parse_expr(ns.g, "--g", problems)
    if command.needs_kernel:
        built.kernel = _build_kernel(ns, problems)
    else:
        for flag, value in (("--h", ns.h), ("--h-custom", ns.h_custom)):
            if value is not None:
                problems.append(f"{flag}: {ns.subcommand} takes no kernel; --which names its own")
    built.phi = _build_phi(ns, built.interval, problems)
    try:
        if ns.random_count is not None:
            built.plan = SamplePlan.random(
                ns.random_count, seed=ns.seed, t_clamp=ns.eps_t, atol=ns.atol, rtol=ns.rtol
            )
        else:
            nx, ny, nt = ns.grid
            built.plan = SamplePlan.grid(
                nx, ny, nt, t_clamp=ns.eps_t, atol=ns.atol, rtol=ns.rtol
            )
    except ValueError as exc:
        problems.append(f"sampling plan: {exc}")
    problem = quad_tol_problem(ns.quad_tol)
    if problem:
        problems.append(f"--quad-tol {problem}")
    if ns.subcommand == "special-case":  # --s is power's, for --which power or all
        reads_s = ns.which in ("power", "all")
        if reads_s and ns.s is None:
            problems.append("--which power (or all) needs --s")
        elif ns.s is not None and not reads_s:
            problems.append("--s: only --which power or all reads it")
        elif ns.s is not None and not 0.0 < ns.s < 1.0:
            problems.append(f"--s must lie in (0, 1), got {ns.s!r}")
    return built


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def _check_report_dict(r) -> dict:
    return {
        "verdict": r.verdict,
        "samples_checked": r.samples_checked,
        "worst_gap": r.worst_gap,
        "witness": {"x": r.witness[0], "y": r.witness[1], "t": r.witness[2]},
        "witness_sides": {"lhs": r.witness_lhs, "rhs": r.witness_rhs},
        "warnings": list(r.warnings),
    }


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _json_float(v: float) -> str:
    if v - v == 0.0:
        return float.__repr__(v)
    return '"nan"' if v != v else '"inf"' if v > 0.0 else '"-inf"'


# A leaf's text by its class: JSON's, and text's (a float by %.12g, a bool
# as in JSON, anything else by str()).
_BOOL = {False: "false", True: "true"}.__getitem__
_JSON_LEAF = {str: _json_string, float: _json_float, int: int.__repr__, bool: _BOOL,
              type(None): lambda v: "null"}
_TEXT_LEAF = {str: str, int: str, float: "%.12g".__mod__, bool: _BOOL}


# the bound CSV columns: a report's fields but warnings, the last
_BOUND_CSV_HEADER = ("label", *HHReport._fields[:-1])


def _json(obj, indent: str, out: list) -> None:
    """Appends the text json.dumps(obj, indent=2) writes for obj at the
    nesting of indent, with a non-finite float as the string "inf", "-inf"
    or "nan", and a tuple as a list.  Keys are strings.  _SearchRows
    writes its own rows."""
    leaf = _JSON_LEAF.get(obj.__class__)
    if leaf is not None:
        out.append(leaf(obj))
    elif isinstance(obj, dict):
        if obj:
            inner = indent + "  "
            head = "{\n" + inner
            for key, value in obj.items():
                leaf = _JSON_LEAF.get(value.__class__)
                if leaf is None:
                    out.append(head + _json_string(key) + ": ")
                    _json(value, inner, out)
                else:
                    out.append(head + _json_string(key) + ": " + leaf(value))
                head = ",\n" + inner
            out.append("\n" + indent + "}")
        else:
            out.append("{}")
    elif isinstance(obj, (list, tuple)):
        if obj:
            inner = indent + "  "
            head = "[\n" + inner
            for value in obj:
                out.append(head)
                _json(value, inner, out)
                head = ",\n" + inner
            out.append("\n" + indent + "]")
        else:
            out.append("[]")
    elif isinstance(obj, _SearchRows):
        obj.json(indent, out)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def render_json(envelope: dict) -> str:
    """The envelope as indented JSON, in one pass over it."""
    out: list[str] = []
    _json(envelope, "", out)
    out.append("\n")
    return "".join(out)


def _text_walk(obj, path: str, out: list[str]) -> None:
    leaf = _TEXT_LEAF.get(obj.__class__)
    if leaf is not None:
        out.append(f"{path} = {leaf(obj)}")
    elif isinstance(obj, dict):
        prefix = path + "." if path else ""
        for k, v in obj.items():
            leaf = _TEXT_LEAF.get(v.__class__)
            if leaf is None:
                _text_walk(v, f"{prefix}{k}", out)
            else:
                out.append(f"{prefix}{k} = {leaf(v)}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _text_walk(v, f"{path}[{i}]", out)
    elif isinstance(obj, _SearchRows):
        obj.text(out)
    else:
        out.append(f"{path} = {obj}")


def render_text(envelope: dict) -> str:
    lines: list[str] = []
    _text_walk(envelope, "", lines)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Envelopes written from ns, built and the result dict: the bytes
# render_json and render_text write for the envelope dict {tool, version,
# subcommand, inputs, result, exit_code}, without building it.  The head (up
# to the result's value) is written straight from ns and built, the result
# by the walkers.  The CLI's inputs have fixed types (argparse converts
# them), so each field is formatted as the walker formats its type.
# ---------------------------------------------------------------------------

_HEAD_JSON = """{
  "tool": %s,
  "version": %s,
  "subcommand": %s,
  "inputs": {
    "f": %s,%s%s
    "phi": %s,
    "interval": [
      %s,
      %s
    ],
    "plan": {
      "strategy": %s,
      %s,
      "t_clamp": %s,
      "atol": %s,
      "rtol": %s
    },
    "quad_tol": %s
  },
  "result": """
_HEAD_TEXT = """tool = %s
version = %s
subcommand = %s
inputs.f = %s%s%s
inputs.phi = %s
inputs.interval[0] = %.12g
inputs.interval[1] = %.12g
inputs.plan.strategy = %s
%s
inputs.plan.t_clamp = %.12g
inputs.plan.atol = %.12g
inputs.plan.rtol = %.12g
inputs.quad_tol = %.12g"""


def _head_json(ns, built: SimpleNamespace) -> str:
    """The JSON envelope up to the value of "result"."""
    plan = built.plan
    if plan.strategy == "grid":
        sampling = '"n_x": %d,\n      "n_y": %d,\n      "n_t": %d' % (plan.n_x, plan.n_y,
                                                                     plan.n_t)
    else:
        sampling = '"count": %d,\n      "seed": %d' % (plan.count, plan.seed)
    # g and the kernel are built only for a subcommand that takes them
    g = "" if built.g is None else '\n    "g": %s,' % _json_string(ns.g)
    kernel = ("" if built.kernel is None
              else '\n    "kernel": %s,' % _json_string(built.kernel.describe()))
    return _HEAD_JSON % (
        _json_string(TOOL), _json_string(__version__), _json_string(ns.subcommand),
        _json_string(ns.f), g, kernel, _json_string(built.phi.describe()),
        _json_float(built.interval.a), _json_float(built.interval.b),
        _json_string(plan.strategy), sampling, _json_float(plan.t_clamp),
        _json_float(plan.atol), _json_float(plan.rtol), _json_float(ns.quad_tol),
    )


def _head_text(ns, built: SimpleNamespace) -> str:
    """The text envelope's lines before its result's, without the last newline."""
    plan = built.plan
    if plan.strategy == "grid":
        sampling = "inputs.plan.n_x = %d\ninputs.plan.n_y = %d\ninputs.plan.n_t = %d" % (
            plan.n_x, plan.n_y, plan.n_t)
    else:
        sampling = "inputs.plan.count = %d\ninputs.plan.seed = %d" % (plan.count, plan.seed)
    g = "" if built.g is None else "\ninputs.g = " + ns.g
    kernel = "" if built.kernel is None else "\ninputs.kernel = " + built.kernel.describe()
    return _HEAD_TEXT % (
        TOOL, __version__, ns.subcommand, ns.f, g, kernel, built.phi.describe(),
        built.interval.a, built.interval.b, plan.strategy, sampling, plan.t_clamp,
        plan.atol, plan.rtol, ns.quad_tol,
    )


def render_result_json(ns, built: SimpleNamespace, result: dict, code: int) -> str:
    """A success envelope: the head, then the walk of its result (search
    rows go out through their own writes)."""
    out = [_head_json(ns, built)]
    _json(result, "  ", out)
    out.append(',\n  "exit_code": %d\n}\n' % code)
    return "".join(out)


def render_result_text(ns, built: SimpleNamespace, result: dict, code: int) -> str:
    lines = [_head_text(ns, built)]
    _text_walk(result, "result", lines)
    lines.append("exit_code = %d\n" % code)
    return "\n".join(lines)


def _csv_line(cells) -> str:
    # the join of the sample rows; no label, verdict or bool needs quoting
    return ",".join([repr(c) if isinstance(c, float) else str(c) for c in cells]) + "\n"


def render_csv(subcommand: str, result: dict) -> str:
    """The result dict of equivalence, verify-hh or special-case as CSV."""
    if subcommand == "equivalence":
        rows = [("check", "verdict", "samples_checked", "worst_gap", "x", "y", "t")]
        for name in ("dominance", "diff_convex", "sum_convex", "l_convex", "k_convex"):
            r = result[name]
            rows.append((name, r["verdict"], r["samples_checked"], r["worst_gap"],
                         *(r["witness"][k] for k in "xyt")))
        return "".join(map(_csv_line, rows))
    # verify-hh and special-case: one row per bound, labelled by its kind or entry
    if subcommand == "verify-hh":
        labeled = [(r["bound_kind"], r) for r in result["reports"]]
    else:
        labeled = [(e["label"], e["report"]) for e in result["entries"]]
    rows = [_BOUND_CSV_HEADER]
    rows += [(label, *r.values())[:-1] for label, r in labeled]
    return "".join(map(_csv_line, rows))


# ---------------------------------------------------------------------------
# Sample rows (check-* CSV, search CSV and JSON): one %-format per row with
# every float as its repr, the text csv and json.dumps write for a float.
# A coordinate is looked up in a table of the grid axes' reprs first (empty
# for a random plan, whose rows are then formatted whole, every %s a %r).
# Zeros stay out of the table: 0.0 and -0.0 are one key but two reprs, and
# a refined point can be the other zero of an axis.
# Search text rows print every float as the text walk does.  Rows are
# formatted a chunk at a time (_CHUNK_ROWS), so no text of every row is
# built at once: search rows are written to the output in place, and
# check-* rows arrive from the sweep in chunks and are buffered whole, so
# that a fault drops them.
# ---------------------------------------------------------------------------

_GAP_HEADER = "x,y,t,gap,lhs_abs,rhs\n"
_GAP_ROW = "%s,%s,%s,%r,%r,%r\n"
_JSON_ROW = """      {
        "x": %s,
        "y": %s,
        "t": %s,
        "gap": %r,
        "lhs_abs": %r,
        "rhs": %r
      }"""
# a row with an inf or nan in it, each cell given as its _json_float text
_JSON_ROW_TEXT = _JSON_ROW.replace("%r", "%s")
_TEXT_ROW = """result.violations[%d].x = %.12g
result.violations[%d].y = %.12g
result.violations[%d].t = %.12g
result.violations[%d].gap = %.12g
result.violations[%d].lhs_abs = %.12g
result.violations[%d].rhs = %.12g
"""


def _reprs(values) -> dict:
    return {v: repr(v) for v in values if v}


def _coordinate_reprs(plan: SamplePlan, interval: Interval) -> dict:
    if plan.strategy != "grid":
        return {}
    return _reprs(v for axis in grid_axes(plan, interval) for v in axis)


def _csv_rows(subcommand: str, reprs: dict, write):
    """Writes the CSV header of subcommand's sample rows and returns emit,
    which writes a chunk of them in one write."""
    if subcommand == "check-convex":
        write("x,y,t,defect\n")
        get = reprs.get

        def emit(chunk):
            if not reprs:
                write("".join(["%r,%r,%r,%r\n" % row for row in chunk]))
                return
            write("".join([
                "%s,%s,%s,%r\n" % (get(x) or repr(x), get(y) or repr(y), get(t) or repr(t), d)
                for x, y, t, d in chunk
            ]))
    else:
        write(_GAP_HEADER)

        def emit(chunk):
            write("".join(_gap_lines(_GAP_ROW, chunk, reprs)))
    return emit


def _gap_lines(template: str, records, reprs: dict) -> list[str]:
    if not reprs:
        template = template.replace("%s", "%r")
        return [template % row for row in records]
    get = reprs.get
    return [
        template % (get(x) or repr(x), get(y) or repr(y), get(t) or repr(t), gap, lhs, rhs)
        for x, y, t, gap, lhs, rhs in records
    ]


class _SearchRows:
    """A search's violations in the slot of its envelope's list: when
    render_json or render_text reaches it, it writes the text rendered so
    far, then its records a chunk at a time, and the rendering goes on."""

    __slots__ = ("records", "reprs", "write", "chunk")

    def __init__(self, records, reprs: dict, write, chunk: int = _CHUNK_ROWS):
        self.records, self.reprs, self.write, self.chunk = records, reprs, write, chunk

    def json(self, indent: str, out: list) -> None:
        records, chunk = self.records, self.chunk
        if not records:
            out.append("[]")
            return
        self.write("".join(out) + "[\n")
        out.clear()
        for i in range(0, len(records), chunk):
            rows = records[i:i + chunk]
            body = ",\n".join(_gap_lines(_JSON_ROW, rows, self.reprs))
            if "n" in body:  # inf and nan are the only float reprs with an "n"
                body = ",\n".join([_JSON_ROW_TEXT % tuple(map(_json_float, r)) for r in rows])
            self.write(",\n" + body if i else body)
        out.append("\n" + indent + "]")

    def text(self, out: list) -> None:
        records, chunk = self.records, self.chunk
        if not records:
            return
        self.write("\n".join(out) + "\n")
        out.clear()
        for i in range(0, len(records), chunk):
            self.write("".join([
                _TEXT_ROW % (j, x, j, y, j, t, j, gap, j, lhs, j, rhs)
                for j, (x, y, t, gap, lhs, rhs) in enumerate(records[i:i + chunk], i)
            ]))


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def _dispatch(ns, built: SimpleNamespace, emit):
    """Returns (result dict, exit code).  emit gets the sample rows of
    check-* in chunks."""
    f, g, kernel = built.f, built.g, built.kernel
    phi, interval, plan = built.phi, built.interval, built.plan

    if ns.subcommand == "check-convex":
        rep = check_phi_h_convex(f, kernel, phi, interval, plan, emit)
        return _check_report_dict(rep), (0 if rep.holds() else 1)

    pair = FunctionPair(f, g) if g is not None else None

    if ns.subcommand == "check-dominated":
        rep = check_dominated(pair, kernel, phi, interval, plan, emit)
        return _check_report_dict(rep), (0 if rep.holds() else 1)

    if ns.subcommand == "equivalence":
        rep = equivalence_report(pair, kernel, phi, interval, plan)
        result = {name: _check_report_dict(v) if isinstance(v, CheckReport) else v
                  for name, v in zip(rep._fields, rep)}
        return result, (0 if all(rep.statement_holds) else 1)

    if ns.subcommand == "verify-hh":
        bounds = ("midpoint", "endpoint") if ns.bound == "both" else (ns.bound,)
        jobs = [(kernel, bound) for bound in bounds]
        reports = hh_bounds_report(pair, phi, jobs, ns.quad_tol, ns.atol, ns.rtol)
        result = {"reports": [r._asdict() for r in reports]}
        return result, (0 if all(r.holds for r in reports) else 1)

    if ns.subcommand == "special-case":
        entries = special_case_report(
            pair, phi, which=ns.which, s=ns.s, tol=ns.quad_tol, atol=ns.atol, rtol=ns.rtol
        )
        result = {"entries": [{"label": e.label, "report": e.report._asdict()}
                              for e in entries]}
        return result, (0 if all(e.report.holds for e in entries) else 1)

    # search: main writes the records in the output format
    records = search_violations(pair, kernel, phi, interval, plan, refine=ns.refine)
    result = {
        "violations": records,
        "count": len(records),
        "refined": bool(ns.refine),
    }
    if not records:
        result["note"] = "no violation found at this sampling density"
    return result, (1 if records else 0)


def _error_envelope(subcommand: str, fmt: str, message: str, problems: list[str]) -> int:
    envelope = {
        "tool": TOOL,
        "version": __version__,
        "subcommand": subcommand,
        "error": {"message": message, "problems": problems},
        "exit_code": 2,
    }
    sys.stdout.write(render_text(envelope) if fmt == "text" else render_json(envelope))
    return 2


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        ns = _parse_argv(argv)
    except _HelpShown as shown:
        return shown.args[0]
    except _ArgvError as exc:
        sub = next((tok for tok in argv if tok in _COMMANDS), "")
        return _error_envelope(sub, "json", str(exc), [])
    fmt = ns.format

    problems: list[str] = []
    built = _build_inputs(ns, problems)
    if problems:
        return _error_envelope(ns.subcommand, fmt, "invalid configuration", problems)

    emit = None
    if fmt == "csv" and ns.subcommand in ("check-convex", "check-dominated"):
        rows = io.StringIO()
        emit = _csv_rows(ns.subcommand, _coordinate_reprs(built.plan, built.interval), rows.write)
    try:
        result, code = _dispatch(ns, built, emit)
    except DomcertError as exc:  # rows written before the fault are dropped
        return _error_envelope(ns.subcommand, fmt, str(exc), [])
    if emit is not None:
        sys.stdout.write(rows.getvalue())
        return code

    if ns.subcommand == "search":  # rows are written a chunk at a time
        records = result["violations"]
        reprs = {} if fmt == "text" else _coordinate_reprs(built.plan, built.interval)
        if fmt == "csv":
            emit = _csv_rows(ns.subcommand, reprs, sys.stdout.write)
            for i in range(0, len(records), _CHUNK_ROWS):
                emit(records[i:i + _CHUNK_ROWS])
            return code
        result["violations"] = _SearchRows(records, reprs, sys.stdout.write)
    elif fmt == "csv":
        sys.stdout.write(render_csv(ns.subcommand, result))
        return code
    render = render_result_text if fmt == "text" else render_result_json
    sys.stdout.write(render(ns, built, result, code))
    return code


if __name__ == "__main__":
    sys.exit(main())
