"""Command line front end.

Subcommands:

    check-convex     sample the convexity defect of one function
    check-dominated  sample the dominance gap of a pair (g gated convex)
    equivalence      evaluate the three equivalent dominance statements
    verify-hh        check the midpoint/endpoint integral bounds
    special-case     run the bounds for the built-in kernels
    search           hunt for violating triples, optionally refined

Exit codes: 0 every checked statement held, 1 a violation or failed bound
was found, 2 configuration or evaluation error.  Errors are emitted as a
machine-readable envelope on stdout.  A config file of key = value lines
(keys are the long flag names) can pre-set any flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import shlex
import sys

from . import __version__
from .convexity import (
    FunctionPair,
    SamplePlan,
    check_dominated,
    check_phi_h_convex,
    equivalence_report,
)
from .errors import DomcertError
from .expr import ParseError, parse
from .geometry import GeometryError, Interval, affine_from_expr, identity_map
from .hadamard import hh_bounds_report, special_case_report
from .kernels import KernelError, make_kernel
from .search import search_violations

TOOL = "domcert"

_BUILTIN_KERNELS = {"t": "linear", "t^s": "power", "1/t": "reciprocal", "1": "one"}
_WHICH_CHOICES = ("linear", "power", "reciprocal", "one", "all")
_BOOL_CONFIG_KEYS = ("refine",)


class _ArgvError(DomcertError):
    pass


class _Parser(argparse.ArgumentParser):
    # collect argparse complaints instead of letting it exit directly
    def error(self, message):
        raise _ArgvError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    ex = common.add_argument_group("expressions")
    ex.add_argument("--f", help="expression for f, e.g. 'x^2'")
    ex.add_argument("--g", help="expression for the dominator g")
    ke = common.add_argument_group("kernel")
    ke.add_argument(
        "--h",
        help="built-in kernel: one of 't', 't^s' (needs --s), '1/t', '1' (default t)",
    )
    ke.add_argument("--s", type=float, help="exponent for the 't^s' kernel, in (0, 1)")
    ke.add_argument("--h-custom", help="custom kernel expression in t, must be positive")
    dm = common.add_argument_group("domain")
    dm.add_argument(
        "--interval", nargs=2, type=float, metavar=("A", "B"), help="domain interval"
    )
    dm.add_argument(
        "--phi",
        default="identity",
        help="affine map: 'identity' or an affine expression in x (default identity)",
    )
    pl = common.add_argument_group("sampling")
    pl.add_argument(
        "--grid",
        nargs=3,
        type=int,
        metavar=("NX", "NY", "NT"),
        default=[21, 21, 19],
        help="grid sample counts for x, y, t (default 21 21 19)",
    )
    pl.add_argument(
        "--random",
        type=int,
        dest="random_count",
        metavar="COUNT",
        help="use COUNT seeded random triples instead of the grid",
    )
    pl.add_argument(
        "--samples",
        type=int,
        dest="random_count",
        metavar="COUNT",
        help="alias for --random",
    )
    pl.add_argument("--seed", type=int, default=0, help="seed for random sampling")
    pl.add_argument(
        "--eps-t",
        type=float,
        default=1e-6,
        help="clamp keeping t inside [eps, 1-eps] (default 1e-6)",
    )
    tl = common.add_argument_group("tolerances")
    tl.add_argument("--atol", type=float, default=1e-9, help="absolute tolerance")
    tl.add_argument("--rtol", type=float, default=1e-9, help="relative tolerance")
    tl.add_argument(
        "--quad-tol", type=float, default=1e-10, help="quadrature error budget"
    )
    ou = common.add_argument_group("output")
    ou.add_argument(
        "--format", choices=("json", "text", "csv"), default="json", help="output format"
    )
    ou.add_argument("--config", help="key = value file mirroring the flags")

    parser = _Parser(prog=TOOL, description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    sub.add_parser(
        "check-convex", parents=[common], help="sample the convexity defect of --f"
    )
    sub.add_parser(
        "check-dominated",
        parents=[common],
        help="sample the dominance gap of (--f, --g)",
    )
    sub.add_parser(
        "equivalence",
        parents=[common],
        help="evaluate the three equivalent dominance statements",
    )
    p = sub.add_parser(
        "verify-hh", parents=[common], help="check the two-sided integral bounds"
    )
    p.add_argument(
        "--bound",
        choices=("midpoint", "endpoint", "both"),
        default="both",
        help="which bound form to check (default both)",
    )
    p = sub.add_parser(
        "special-case",
        parents=[common],
        help="run the bounds for the built-in kernels",
    )
    p.add_argument(
        "--which",
        choices=_WHICH_CHOICES,
        default="all",
        help="which built-in kernel (default all)",
    )
    p = sub.add_parser(
        "search", parents=[common], help="search for violating (x, y, t) triples"
    )
    p.add_argument(
        "--refine",
        action="store_true",
        help="sharpen the worst samples by coordinate descent",
    )
    return parser


# ---------------------------------------------------------------------------
# Config file
# ---------------------------------------------------------------------------


def _load_config(path: str) -> list[str]:
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
        if key == "config":
            problems.append(f"line {lineno}: config files cannot nest")
            continue
        if key in _BOOL_CONFIG_KEYS:
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
        flags.append(f"--{key}")
        flags.extend(parts)
    if problems:
        raise _ArgvError(f"config file {path!r}: " + "; ".join(problems))
    return flags


def _apply_config(argv: list[str]) -> list[str]:
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return argv
    injected = _load_config(path)
    # insert right after the subcommand so explicit flags override the file
    for i, tok in enumerate(argv):
        if not tok.startswith("-"):
            return argv[: i + 1] + injected + argv[i + 1 :]
    return argv


# ---------------------------------------------------------------------------
# Validation: build every input, collecting all problems before failing
# ---------------------------------------------------------------------------


class _Inputs:
    def __init__(self):
        self.f = None
        self.g = None
        self.kernel = None
        self.phi = None
        self.interval = None
        self.plan = None


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
    if ns.h_custom is not None:
        e = _parse_expr(ns.h_custom, "--h-custom", problems)
        if e is None:
            return None
        try:
            return make_kernel("custom", expr=e, quad_tol=ns.quad_tol)
        except (KernelError, DomcertError) as exc:
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
        return make_kernel(kind, s=ns.s if kind == "power" else None)
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
    except (GeometryError, DomcertError) as exc:
        problems.append(f"--phi: {exc}")
        return None


def _build_inputs(ns, needs_g: bool, needs_kernel: bool, problems: list[str]) -> _Inputs:
    built = _Inputs()
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
    if needs_g:
        if ns.g is None:
            problems.append("--g is required for this subcommand")
        else:
            built.g = _parse_expr(ns.g, "--g", problems)
    if needs_kernel:
        built.kernel = _build_kernel(ns, problems)
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
    if not ns.quad_tol > 0.0:
        problems.append(f"--quad-tol must be positive, got {ns.quad_tol!r}")
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


def _hh_report_dict(r) -> dict:
    return {
        "bound_kind": r.bound_kind,
        "lhs": r.lhs,
        "rhs": r.rhs,
        "margin": r.margin,
        "holds": r.holds,
        "vacuous": r.vacuous,
        "quad_error": r.quad_error,
        "warnings": list(r.warnings),
        "inputs_echo": dict(r.inputs_echo),
    }


def _violation_dict(v) -> dict:
    return {"x": v.x, "y": v.y, "t": v.t, "gap": v.gap, "lhs_abs": v.lhs_abs, "rhs": v.rhs}


def _plan_dict(plan: SamplePlan) -> dict:
    base = {"strategy": plan.strategy}
    if plan.strategy == "grid":
        base.update({"n_x": plan.n_x, "n_y": plan.n_y, "n_t": plan.n_t})
    else:
        base.update({"count": plan.count, "seed": plan.seed})
    base.update({"t_clamp": plan.t_clamp, "atol": plan.atol, "rtol": plan.rtol})
    return base


def _inputs_dict(ns, built: _Inputs, needs_g: bool, needs_kernel: bool) -> dict:
    out: dict = {"f": ns.f}
    if needs_g:
        out["g"] = ns.g
    if needs_kernel and built.kernel is not None:
        out["kernel"] = built.kernel.describe()
    if built.phi is not None:
        out["phi"] = built.phi.describe()
    if built.interval is not None:
        out["interval"] = [built.interval.a, built.interval.b]
    if built.plan is not None:
        out["plan"] = _plan_dict(built.plan)
    out["quad_tol"] = ns.quad_tol
    return out


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _sanitize(obj):
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


def render_json(envelope: dict) -> str:
    return json.dumps(_sanitize(envelope), indent=2) + "\n"


def _leaf(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.12g" % v
    return str(v)


def _text_walk(obj, path: str, out: list[str]) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _text_walk(v, f"{path}.{k}" if path else str(k), out)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _text_walk(v, f"{path}[{i}]", out)
    else:
        out.append(f"{path} = {_leaf(obj)}")


def render_text(envelope: dict) -> str:
    lines: list[str] = []
    _text_walk(envelope, "", lines)
    return "\n".join(lines) + "\n"


def _csv_text(header: list[str], rows: list[tuple]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([repr(c) if isinstance(c, float) else c for c in row])
    return buf.getvalue()


def render_csv(subcommand: str, result: dict, raw) -> str:
    if subcommand == "check-convex":
        return _csv_text(["x", "y", "t", "defect"], raw or [])
    if subcommand == "check-dominated":
        return _csv_text(["x", "y", "t", "gap", "lhs_abs", "rhs"], raw or [])
    if subcommand == "equivalence":
        rows = []
        for name in ("dominance", "diff_convex", "sum_convex", "l_convex", "k_convex"):
            r = result[name]
            rows.append(
                (
                    name,
                    r["verdict"],
                    r["samples_checked"],
                    r["worst_gap"],
                    r["witness"]["x"],
                    r["witness"]["y"],
                    r["witness"]["t"],
                )
            )
        return _csv_text(["check", "verdict", "samples_checked", "worst_gap", "x", "y", "t"], rows)
    if subcommand in ("verify-hh", "special-case"):
        rows = []
        if subcommand == "verify-hh":
            labeled = [(r["bound_kind"], r) for r in result["reports"]]
        else:
            labeled = [(e["label"], e["report"]) for e in result["entries"]]
        for label, r in labeled:
            rows.append(
                (
                    label,
                    r["bound_kind"],
                    r["lhs"],
                    r["rhs"],
                    r["margin"],
                    r["holds"],
                    r["vacuous"],
                    r["quad_error"],
                )
            )
        return _csv_text(
            ["label", "bound_kind", "lhs", "rhs", "margin", "holds", "vacuous", "quad_error"],
            rows,
        )
    # search
    rows = [
        (v["x"], v["y"], v["t"], v["gap"], v["lhs_abs"], v["rhs"])
        for v in result["violations"]
    ]
    return _csv_text(["x", "y", "t", "gap", "lhs_abs", "rhs"], rows)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def _dispatch(ns, built: _Inputs, want_rows: bool):
    """Returns (result dict, exit code, raw per-sample rows for csv)."""
    f, g, kernel = built.f, built.g, built.kernel
    phi, interval, plan = built.phi, built.interval, built.plan

    if ns.subcommand == "check-convex":
        rep = check_phi_h_convex(f, kernel, phi, interval, plan, collect_samples=want_rows)
        return _check_report_dict(rep), (0 if rep.holds() else 1), rep.rows

    pair = FunctionPair(f, g) if g is not None else None

    if ns.subcommand == "check-dominated":
        rep = check_dominated(pair, kernel, phi, interval, plan, collect_samples=want_rows)
        return _check_report_dict(rep), (0 if rep.holds() else 1), rep.rows

    if ns.subcommand == "equivalence":
        rep = equivalence_report(pair, kernel, phi, interval, plan)
        result = {
            "dominance": _check_report_dict(rep.dominance),
            "sum_convex": _check_report_dict(rep.sum_convex),
            "diff_convex": _check_report_dict(rep.diff_convex),
            "l_convex": _check_report_dict(rep.l_convex),
            "k_convex": _check_report_dict(rep.k_convex),
            "statement_holds": list(rep.statement_holds),
            "agreement": rep.agreement,
        }
        return result, (0 if all(rep.statement_holds) else 1), None

    if ns.subcommand == "verify-hh":
        bounds = ("midpoint", "endpoint") if ns.bound == "both" else (ns.bound,)
        jobs = [(kernel, bound) for bound in bounds]
        reports = hh_bounds_report(pair, phi, jobs, ns.quad_tol, ns.atol, ns.rtol)
        code = 0 if all(r.holds for r in reports) else 1
        return {"reports": [_hh_report_dict(r) for r in reports]}, code, None

    if ns.subcommand == "special-case":
        entries = special_case_report(
            pair, phi, which=ns.which, s=ns.s, tol=ns.quad_tol, atol=ns.atol, rtol=ns.rtol
        )
        code = 0 if all(e.report.holds for e in entries) else 1
        result = {
            "entries": [
                {"label": e.label, "report": _hh_report_dict(e.report)} for e in entries
            ]
        }
        return result, code, None

    # search
    records = search_violations(pair, kernel, phi, interval, plan, refine=ns.refine)
    result = {
        "violations": [_violation_dict(v) for v in records],
        "count": len(records),
        "refined": bool(ns.refine),
    }
    if not records:
        result["note"] = "no violation found at this sampling density"
    return result, (1 if records else 0), None


_NEEDS_G = ("check-dominated", "equivalence", "verify-hh", "special-case", "search")
_NEEDS_KERNEL = (
    "check-convex",
    "check-dominated",
    "equivalence",
    "verify-hh",
    "search",
)


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _error_envelope(subcommand: str, fmt: str, message: str, problems: list[str]) -> int:
    envelope = {
        "tool": TOOL,
        "version": __version__,
        "subcommand": subcommand,
        "error": {"message": message, "problems": problems},
        "exit_code": 2,
    }
    _emit(render_text(envelope) if fmt == "text" else render_json(envelope))
    return 2


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    sub = next((tok for tok in argv if not tok.startswith("-")), "")
    fmt = "json"
    try:
        effective = _apply_config(argv)
        parser = build_parser()
        ns = parser.parse_args(effective)
    except _ArgvError as exc:
        return _error_envelope(sub, fmt, str(exc), [])
    fmt = ns.format

    needs_g = ns.subcommand in _NEEDS_G
    needs_kernel = ns.subcommand in _NEEDS_KERNEL
    problems: list[str] = []
    built = _build_inputs(ns, needs_g, needs_kernel, problems)
    if ns.subcommand == "special-case":
        if ns.which in ("power", "all") and ns.s is None:
            problems.append("--which power (or all) needs --s")
        elif ns.s is not None and not 0.0 < ns.s < 1.0:
            problems.append(f"--s must lie in (0, 1), got {ns.s!r}")
    if problems:
        return _error_envelope(ns.subcommand, fmt, "invalid configuration", problems)

    try:
        result, code, raw_rows = _dispatch(ns, built, want_rows=(fmt == "csv"))
    except DomcertError as exc:
        return _error_envelope(ns.subcommand, fmt, str(exc), [])

    if fmt == "csv":
        _emit(render_csv(ns.subcommand, result, raw_rows))
        return code
    envelope = {
        "tool": TOOL,
        "version": __version__,
        "subcommand": ns.subcommand,
        "inputs": _inputs_dict(ns, built, needs_g, needs_kernel),
        "result": result,
        "exit_code": code,
    }
    _emit(render_text(envelope) if fmt == "text" else render_json(envelope))
    return code


if __name__ == "__main__":
    sys.exit(main())
