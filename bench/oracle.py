"""Correctness oracle for benchmark outputs.

Every check runs after the request has been timed.  A request fails when
any check fails; each failure carries a category.  Categories that match
an open, documented defect are attributed to it (KNOWN_DEFECTS); any
other category makes the run incorrect.

Checks:
* exit code consistent with the verdicts and bounds in the output;
* every JSON envelope valid against schemas/report.schema.json (a small
  draft-07 validator below, so the benchmark needs only the stdlib);
* text output equal to the flattening of the same request's JSON;
* every sweep witness, every CSV witness and a seeded sample of CSV rows
  and search violations re-evaluated bit-identically through
  phi_h_defect / dominance_gap and the kernel/expression primitives;
* verdicts, bound values and the vacuous flag against closed forms,
  wherever the generating family knows the truth.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random

from domcert import (
    FunctionPair,
    Interval,
    affine_from_expr,
    combine,
    decompose,
    dominance_gap,
    identity_map,
    integrate,
    make_kernel,
    parse,
    phi_h_defect,
)
from domcert.cli import main as cli_main
from domcert.convexity import grid_axes, SamplePlan
from workloads import Kink

KNOWN_DEFECTS = {
    "open01-convergent-called-divergent": (
        "ROADMAP open item 3: integrate_open01 reports the convergent kernel t^-0.9 as "
        "divergent, so the endpoint bound comes back vacuous instead of checked"
    ),
    "gk-estimate-blind-to-kink": (
        "found by this benchmark, not yet in ROADMAP: the Gauss-Kronrod panel estimate "
        "|K15 - G7| can vanish on a panel holding a kink of abs(x - m), so integrate stops "
        "with error_estimate ~1e-16 while the value is off by ~1e-8"
    ),
    "endpoint-sign-branch": (
        "ROADMAP open item 3: under a divergent kernel hh_endpoint_report takes its "
        "zero-endpoint-sum branch for negative sums, so lhs/rhs are finite instead of "
        "+inf/-inf"
    ),
}

ROW_SAMPLE = 12  # CSV rows and search violations re-evaluated per request


# ---------------------------------------------------------------------------
# draft-07 subset used by the report schema
# ---------------------------------------------------------------------------

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}


class SchemaValidator:
    """Compiles each schema node once into a checking function."""

    def __init__(self, schema: dict):
        self.root = schema
        self._refs: dict = {}
        self._check = self._compile(schema)

    def errors(self, value) -> list[str]:
        out: list[str] = []
        self._check(value, "$", out)
        return out

    def _ref(self, ref: str):
        if ref not in self._refs:
            node = self.root
            for part in ref.lstrip("#/").split("/"):
                node = node[part]
            self._refs[ref] = None  # placeholder breaks recursion
            self._refs[ref] = self._compile(node)
        fn = self._refs[ref]
        return fn if fn is not None else (lambda v, p, out: self._refs[ref](v, p, out))

    def _compile(self, schema: dict):
        if "$ref" in schema:
            return self._ref(schema["$ref"])
        checks = []
        if "type" in schema:
            names = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
            tests = [_TYPES[t] for t in names]

            def type_check(v, p, out, tests=tests, names=names):
                if not any(t(v) for t in tests):
                    out.append(f"{p}: expected {names}, got {type(v).__name__}")
                    return False
                return True
            checks.append(type_check)
        if "const" in schema:
            const = schema["const"]
            checks.append(lambda v, p, out: v == const or out.append(f"{p}: not {const!r}"))
        if "enum" in schema:
            enum = schema["enum"]
            checks.append(lambda v, p, out: v in enum or out.append(f"{p}: {v!r} not in {enum}"))
        if "minimum" in schema:
            lo = schema["minimum"]
            checks.append(lambda v, p, out: not isinstance(v, (int, float)) or v >= lo
                          or out.append(f"{p}: {v!r} below minimum {lo!r}"))
        if "properties" in schema or "required" in schema:
            props = {k: self._compile(v) for k, v in schema.get("properties", {}).items()}
            required = schema.get("required", ())
            closed = schema.get("additionalProperties") is False

            def object_check(v, p, out):
                if not isinstance(v, dict):
                    return
                for key in required:
                    if key not in v:
                        out.append(f"{p}: missing {key!r}")
                for key, item in v.items():
                    fn = props.get(key)
                    if fn is not None:
                        fn(item, f"{p}.{key}", out)
                    elif closed:
                        out.append(f"{p}: unexpected {key!r}")
            checks.append(object_check)
        if "items" in schema or "minItems" in schema or "maxItems" in schema:
            item_fn = self._compile(schema["items"]) if "items" in schema else None
            lo_n, hi_n = schema.get("minItems", 0), schema.get("maxItems")

            def array_check(v, p, out):
                if not isinstance(v, list):
                    return
                if len(v) < lo_n or (hi_n is not None and len(v) > hi_n):
                    out.append(f"{p}: {len(v)} items outside [{lo_n}, {hi_n}]")
                if item_fn is not None:
                    for i, item in enumerate(v):
                        item_fn(item, p, out)
            checks.append(array_check)
        if "oneOf" in schema:
            options = [self._compile(s) for s in schema["oneOf"]]

            def one_of(v, p, out):
                passing = 0
                for fn in options:
                    trial: list = []
                    fn(v, p, trial)
                    passing += not trial
                if passing != 1:
                    out.append(f"{p}: matches {passing} of oneOf, expected exactly 1")
            checks.append(one_of)
        if "not" in schema:
            negated = self._compile(schema["not"])

            def not_check(v, p, out):
                trial: list = []
                negated(v, p, trial)
                if not trial:
                    out.append(f"{p}: matches a 'not' schema")
            checks.append(not_check)

        def check(v, p, out):
            for c in checks:
                if c(v, p, out) is False:
                    return  # wrong type: the remaining keywords do not apply

        return check


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def flatten_text(obj, path: str = "", out: list | None = None) -> list[str]:
    """The text rendering of an envelope, written from its description."""
    out = [] if out is None else out
    if isinstance(obj, dict):
        for k, v in obj.items():
            flatten_text(v, f"{path}.{k}" if path else str(k), out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            flatten_text(v, f"{path}[{i}]", out)
    elif isinstance(obj, bool):
        out.append(f"{path} = {'true' if obj else 'false'}")
    elif isinstance(obj, float):
        out.append(f"{path} = {obj:.12g}")
    else:
        out.append(f"{path} = {obj}")
    return out


def real(v) -> float:
    return float(v) if isinstance(v, str) else v


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def plan_samples(plan: dict, interval) -> int:
    if plan["strategy"] == "random":
        return plan["count"]
    xs, ys, ts = grid_axes(SamplePlan.grid(plan["n_x"], plan["n_y"], plan["n_t"]),
                           Interval(*interval))
    return len(xs) * len(ys) * len(ts)


class Failure(Exception):
    def __init__(self, category: str, detail: str):
        self.category = category
        super().__init__(detail)


def need(cond: bool, category: str, detail: str) -> None:
    if not cond:
        raise Failure(category, detail)


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


class Oracle:
    def __init__(self, schema: dict):
        self.schema = SchemaValidator(schema)

    # -- building the request's objects the way the CLI does -----------------

    def _phi(self, req):
        box = Interval(*req.interval)
        if req.phi is None:
            return box, identity_map(box)
        return box, affine_from_expr(parse(req.argv[req.argv.index("--phi") + 1]), box)

    # -- entry point ----------------------------------------------------------

    def check(self, req, code, data: bytes) -> tuple[list[tuple[str, str]], int]:
        """([(category, detail)], samples swept) for one request's output."""
        failures: list[tuple[str, str]] = []
        samples = 0
        try:
            need(code in (0, 1, 2), "exit-code", f"exit code {code!r}")
            text = data.decode("utf-8")
            # a request argparse rejects never learns its --format: it gets JSON
            if req.fmt == "text" and not text.startswith("{"):
                text = self._text_as_json(req, code, text)
            if req.fmt == "csv" and not req.malformed:
                samples = self._check_csv(req, code, text)
            else:
                env = json.loads(text)
                self._check_envelope(env, code)
                if req.malformed:
                    need(code == 2, "malformed-accepted", f"malformed request exited {code}")
                    need("error" in env and env["error"]["message"], "envelope",
                         "no error message")
                else:
                    samples = self._check_result(req, code, env)
        except Failure as exc:
            failures.append((exc.category, str(exc)))
        except Exception as exc:  # an unreadable output is a failure, not a crash
            failures.append(("unreadable", f"{type(exc).__name__}: {exc}"))
        return failures, samples

    def _check_envelope(self, env: dict, code: int) -> None:
        errs = self.schema.errors(env)
        need(not errs, "schema", "; ".join(errs[:3]))
        need(env["exit_code"] == code, "exit-code",
             f"envelope exit_code {env['exit_code']} but process exit {code}")

    @staticmethod
    def _text_as_json(req, code, text: str) -> str:
        """The JSON output of the same request, after checking that the text
        output is its flattening."""
        json_code, json_text = run_cli(req.argv[: req.argv.index("--format")])
        need(json_code == code, "text-render", f"text exit {code} but json exit {json_code}")
        need(flatten_text(json.loads(json_text)) == text.splitlines(), "text-render",
             "text output is not the flattened JSON envelope")
        return json_text

    def _check_result(self, req, code, env) -> int:
        need("result" in env, "exit-code",
             f"unexpected error envelope: {env.get('error', {}).get('message')!r}")
        res = env["result"]
        if req.sub in ("check-convex", "check-dominated"):
            return self._check_sweep(req, code, res)
        if req.sub == "equivalence":
            return self._check_equivalence(req, code, res)
        if req.sub == "search":
            return self._check_search(req, code, res)
        self._check_bounds(req, code, res)
        return 0

    # -- sweeps ---------------------------------------------------------------

    def _objects(self, req):
        box, phi = self._phi(req)
        h = make_kernel(req.kernel["kind"], s=req.kernel.get("s"))  # sweeps: built-in only
        f = parse(req.f.src)
        g = parse(req.g.src) if req.g is not None else None
        return box, phi, h, f, g

    @staticmethod
    def _convex_sides(u, h, phi, x, y, t):
        # same operation order as the sweep, so the values are bit-identical
        omt = 1.0 - t
        px, py = phi.apply(x), phi.apply(y)
        rhs = h.value(t) * u.evaluate(px) + h.value(omt) * u.evaluate(py)
        lhs = u.evaluate(t * px + omt * py)
        return lhs, rhs

    @staticmethod
    def _gap_sides(f, g, h, phi, x, y, t):
        omt = 1.0 - t
        ht, h1t = h.value(t), h.value(omt)
        px, py = phi.apply(x), phi.apply(y)
        mid = t * px + omt * py
        df = (ht * f.evaluate(px) + h1t * f.evaluate(py)) - f.evaluate(mid)
        dg = (ht * g.evaluate(px) + h1t * g.evaluate(py)) - g.evaluate(mid)
        return abs(df), dg

    @staticmethod
    def _threshold(lhs, rhs) -> float:
        return 1e-9 + 1e-9 * max(abs(lhs), abs(rhs))

    def _verify_report(self, name, rep, u, pair, h, phi, samples):
        w = rep["witness"]
        x, y, t = w["x"], w["y"], w["t"]
        worst = real(rep["worst_gap"])
        sides = (real(rep["witness_sides"]["lhs"]), real(rep["witness_sides"]["rhs"]))
        if pair is None:
            again = phi_h_defect(u, h, phi, x, y, t)
            expect_sides = self._convex_sides(u, h, phi, x, y, t)
        else:
            again = dominance_gap(pair, h, phi, x, y, t)
            expect_sides = self._gap_sides(pair.f, pair.g, h, phi, x, y, t)
        need(again == worst, "witness", f"{name}: worst_gap {worst!r} re-evaluates to {again!r}")
        need(expect_sides == sides, "witness",
             f"{name}: witness sides {sides!r} re-evaluate to {expect_sides!r}")
        need(rep["samples_checked"] == samples, "samples",
             f"{name}: samples_checked {rep['samples_checked']} != plan {samples}")
        violated = worst < -self._threshold(*sides)
        need(rep["verdict"] == ("violated" if violated else "holds-on-samples"), "consistency",
             f"{name}: verdict {rep['verdict']} disagrees with its own witness")
        return not violated

    def _check_sweep(self, req, code, res) -> int:
        box, phi, h, f, g = self._objects(req)
        samples = plan_samples(req.plan, req.interval)
        if req.sub == "check-convex":
            holds = self._verify_report("check", res, f, None, h, phi, samples)
        else:
            holds = self._verify_report("check", res, None, FunctionPair(f, g), h, phi, samples)
        need(code == (0 if holds else 1), "exit-code", f"exit {code} with verdict {res['verdict']}")
        if req.truth is not None:
            need(holds == (req.truth == "holds"), "truth-verdict",
                 f"verdict {res['verdict']} but the family says {req.truth}")
        return samples

    def _check_equivalence(self, req, code, res) -> int:
        box, phi, h, f, g = self._objects(req)
        pair = FunctionPair(f, g)
        samples = plan_samples(req.plan, req.interval)
        l, k = decompose(pair)
        held = {
            "dominance": self._verify_report("dominance", res["dominance"], None, pair, h, phi,
                                             samples),
            "sum_convex": self._verify_report("sum_convex", res["sum_convex"],
                                              combine("+", g, f), None, h, phi, samples),
            "diff_convex": self._verify_report("diff_convex", res["diff_convex"],
                                               combine("-", g, f), None, h, phi, samples),
            "l_convex": self._verify_report("l_convex", res["l_convex"], l, None, h, phi,
                                            samples),
            "k_convex": self._verify_report("k_convex", res["k_convex"], k, None, h, phi,
                                            samples),
        }
        statements = [held["dominance"], held["diff_convex"] and held["sum_convex"],
                      held["l_convex"] and held["k_convex"]]
        need(res["statement_holds"] == statements, "consistency",
             f"statement_holds {res['statement_holds']} but reports give {statements}")
        need(res["agreement"] == (len(set(statements)) == 1), "consistency", "agreement flag")
        need(code == (0 if all(statements) else 1), "exit-code", f"exit {code}")
        if req.truth is not None:
            want = req.truth == "holds"
            need(statements == [want] * 3, "truth-verdict",
                 f"statements {statements} but the family says {req.truth}")
        return samples

    def _check_csv(self, req, code, text: str) -> int:
        box, phi, h, f, g = self._objects(req)
        rows = list(csv.reader(io.StringIO(text)))
        header, body = rows[0], rows[1:]
        dominated = req.sub == "check-dominated"
        want = ["x", "y", "t", "gap", "lhs_abs", "rhs"] if dominated else ["x", "y", "t", "defect"]
        need(header == want, "envelope", f"csv header {header}")
        samples = plan_samples(req.plan, req.interval)
        need(len(body) == samples, "samples", f"{len(body)} csv rows for a plan of {samples}")
        values = [tuple(float(c) for c in row) for row in body]
        worst = min(values, key=lambda r: (r[3], r[0], r[1], r[2]))
        rng = random.Random(req.rid)
        pair = FunctionPair(f, g) if dominated else None
        for row in [worst] + rng.sample(values, min(ROW_SAMPLE, len(values))):
            x, y, t = row[:3]
            if dominated:
                again = dominance_gap(pair, h, phi, x, y, t)
                sides = self._gap_sides(f, g, h, phi, x, y, t)
                need(sides == row[4:6], "witness", f"row sides {row[4:6]} vs {sides}")
            else:
                again = phi_h_defect(f, h, phi, x, y, t)
            need(again == row[3], "witness", f"row value {row[3]!r} re-evaluates to {again!r}")
        sides = worst[4:6] if dominated else self._convex_sides(f, h, phi, *worst[:3])
        holds = not worst[3] < -self._threshold(*sides)
        need(code == (0 if holds else 1), "exit-code", f"exit {code} but worst row {worst}")
        if req.truth is not None:
            need(holds == (req.truth == "holds"), "truth-verdict",
                 f"rows say {'holds' if holds else 'violated'}, the family says {req.truth}")
        return samples

    def _check_search(self, req, code, res) -> int:
        box, phi, h, f, g = self._objects(req)
        pair = FunctionPair(f, g)
        viol = res["violations"]
        need(res["count"] == len(viol), "consistency", "count != len(violations)")
        need(res["refined"] == ("--refine" in req.argv), "consistency", "refined flag")
        need(code == (1 if viol else 0), "exit-code", f"exit {code} with {len(viol)} violations")
        keys = [(v["gap"], v["x"], v["y"], v["t"]) for v in viol]
        need(all(a < b for a, b in zip(keys, keys[1:])), "order", "violations not sorted/unique")
        lo_t, hi_t = 1e-6, 1.0 - 1e-6
        a, b = req.interval
        rng = random.Random(req.rid)
        picks = viol[:1] + rng.sample(viol, min(ROW_SAMPLE, len(viol)))
        for v in picks:
            x, y, t = v["x"], v["y"], v["t"]
            need(a <= x <= b and a <= y <= b and lo_t <= t <= hi_t, "consistency",
                 f"violation outside the sample box: {v}")
            again = dominance_gap(pair, h, phi, x, y, t)
            need(again == v["gap"], "witness", f"gap {v['gap']!r} re-evaluates to {again!r}")
            sides = self._gap_sides(f, g, h, phi, x, y, t)
            need(sides == (v["lhs_abs"], v["rhs"]), "witness", f"sides of {v} vs {sides}")
        for v in viol:
            need(v["gap"] < -self._threshold(v["lhs_abs"], v["rhs"]), "consistency",
                 f"listed violation does not violate: {v}")
        if req.truth is not None:
            need(bool(viol) == (req.truth == "violated"), "truth-verdict",
                 f"{len(viol)} violations but the family says {req.truth}")
        return plan_samples(req.plan, req.interval)

    # -- bounds ---------------------------------------------------------------

    def _check_bounds(self, req, code, res) -> None:
        if req.sub == "verify-hh":
            reports = res["reports"]
            kinds = {"midpoint": ["midpoint"], "endpoint": ["endpoint"],
                     "both": ["midpoint", "endpoint"]}[req.bound]
            need([r["bound_kind"] for r in reports] == kinds, "envelope",
                 f"report kinds {[r['bound_kind'] for r in reports]}")
            labeled = [(req.kernel, r) for r in reports]
        else:
            s = req.kernel["s"]
            want = ["linear/midpoint", "linear/endpoint", f"power(s={s!r})/midpoint",
                    f"power(s={s!r})/endpoint", "reciprocal/midpoint", "one/midpoint",
                    "one/endpoint"]
            entries = res["entries"]
            need([e["label"] for e in entries] == want, "envelope",
                 f"labels {[e['label'] for e in entries]}")
            kinds = {"linear": {"kind": "linear"}, "power": {"kind": "power", "s": s},
                     "reciprocal": {"kind": "reciprocal"}, "one": {"kind": "one"}}
            labeled = [(kinds[e["label"].split("/")[0].split("(")[0]], e["report"])
                       for e in entries]
        problems = []
        for spec, rep in labeled:
            self._bound_consistency(rep)
            problems += self._bound_truth(req, spec, rep)
        need(code == (0 if all(r["holds"] for _, r in labeled) else 1), "exit-code",
             f"exit {code}")
        if problems:
            raise Failure(*problems[0])

    @staticmethod
    def _bound_consistency(rep) -> None:
        lhs, rhs, margin = real(rep["lhs"]), real(rep["rhs"]), real(rep["margin"])
        if rhs == math.inf:
            need(margin == math.inf and rep["holds"], "consistency", f"infinite rhs: {rep}")
            return
        need(margin == rhs - lhs or (math.isnan(margin) and math.isnan(rhs - lhs)),
             "consistency", f"margin {margin!r} != rhs - lhs")
        scale = max(abs(lhs), abs(rhs))
        holds = margin > 0.0 if math.isinf(scale) else margin >= -(1e-9 + 1e-9 * scale)
        need(rep["holds"] == holds, "consistency", f"holds flag vs margin in {rep['bound_kind']}")

    @staticmethod
    def _kernel_constants(spec: dict) -> tuple[float, float]:
        """(midpoint coefficient 1/(2 h(1/2)), integral of h over (0, 1))."""
        kind = spec["kind"]
        if kind == "linear":
            return 1.0, 0.5
        if kind == "power":
            return 2.0 ** (spec["s"] - 1.0), 1.0 / (spec["s"] + 1.0)
        if kind == "reciprocal":
            return 0.25, math.inf
        if kind == "one":
            return 0.5, 1.0
        p = spec["p"]
        return 2.0 ** (-p - 1.0), (math.inf if p >= 1.0 else 1.0 / (1.0 - p))

    def _bound_truth(self, req, spec, rep) -> list[tuple[str, str]]:
        f, g = req.f, req.g
        a, b = req.interval
        alpha, beta = req.phi if req.phi is not None else (1.0, 0.0)
        pa, pb = alpha * a + beta, alpha * b + beta
        lo, hi = min(pa, pb), max(pa, pb)
        mean_f = (f.anti(hi) - f.anti(lo)) / (hi - lo)
        mean_g = (g.anti(hi) - g.anti(lo)) / (hi - lo)
        c, big_h = self._kernel_constants(spec)
        if rep["bound_kind"] == "midpoint":
            m = 0.5 * (pa + pb)
            lhs = abs(mean_f - c * f.value(m))
            rhs = mean_g - c * g.value(m)
            scale = abs(mean_f) + abs(mean_g) + abs(c * f.value(m)) + abs(c * g.value(m))
        else:
            sf, sg = f.value(pa) + f.value(pb), g.value(pa) + g.value(pb)
            if math.isinf(big_h):
                lhs = math.inf if sf != 0.0 else abs(mean_f)
                rhs = math.copysign(math.inf, sg) if sg != 0.0 else -mean_g
            else:
                lhs = abs(sf * big_h - mean_f)
                rhs = sg * big_h - mean_g
            scale = abs(mean_f) + abs(mean_g) + abs(sf * big_h) + abs(sg * big_h)
        tol = 16.0 * real(rep["quad_error"]) + 1e-9 * (1.0 + (scale if math.isfinite(scale)
                                                               else 0.0))
        got_lhs, got_rhs = real(rep["lhs"]), real(rep["rhs"])
        vacuous = rep["bound_kind"] == "endpoint" and rhs == math.inf

        def close(got, want):
            if math.isinf(want) or math.isinf(got):
                return got == want
            return abs(got - want) <= tol

        problems = []
        if not (close(got_lhs, lhs) and close(got_rhs, rhs) and rep["vacuous"] == vacuous):
            problems.append(("bound-value",
                             f"{rep['bound_kind']}: lhs/rhs/vacuous {got_lhs!r}/{got_rhs!r}/"
                             f"{rep['vacuous']} but closed forms give {lhs!r}/{rhs!r}/{vacuous}"))
        if rhs == math.inf:
            holds = True
        elif rhs == -math.inf:
            holds = False
        else:
            margin = rhs - lhs
            band = 1e-9 + 1e-9 * max(abs(lhs), abs(rhs))
            holds = margin >= -band
            if abs(margin + band) <= 2.0 * tol:
                holds = None  # within numerical error of the threshold: undecided
        if holds is not None and rep["holds"] != holds:
            problems.append(("truth-verdict",
                             f"{rep['bound_kind']}: holds={rep['holds']} but closed forms "
                             f"give {holds}"))
        known = None
        if problems and rep["bound_kind"] == "endpoint":
            known = self._known_endpoint_defect(spec, rep, f, g, pa, pb, big_h)
        if (problems and not known and {c for c, _ in problems} == {"bound-value"}
                and any(self._kink_blind(fn, lo, hi, req.quad_tol / 4.0) for fn in (f, g))):
            known = "gk-estimate-blind-to-kink"
        if known:
            problems = [(known, f"{problems[0][1]} [{KNOWN_DEFECTS[known]}]")]
        return problems

    @staticmethod
    def _kink_blind(fn, lo: float, hi: float, tol: float) -> bool:
        """integrate misses fn's closed form by more than its own estimate over
        [lo, hi], and gets it when the interval is split at fn's kinks."""
        kinks = sorted({t.m for t in fn.terms if isinstance(t, Kink) and lo < t.m < hi})
        if not kinks:
            return False
        ev = parse(fn.src).evaluate
        truth = fn.anti(hi) - fn.anti(lo)
        whole = integrate(ev, lo, hi, tol)
        edges = [lo] + kinks + [hi]
        split = math.fsum(integrate(ev, a, b, tol).value for a, b in zip(edges, edges[1:]))
        slack = 1e-9 * (1.0 + abs(truth))
        return (abs(whole.value - truth) > 16.0 * whole.error_estimate + slack
                and abs(split - truth) <= slack)

    @staticmethod
    def _known_endpoint_defect(spec, rep, f, g, pa, pb, big_h):
        if spec["kind"] == "custom" and math.isfinite(big_h) and (
                rep["vacuous"] or real(rep["rhs"]) == math.inf):
            return "open01-convergent-called-divergent"
        sf, sg = f.value(pa) + f.value(pb), g.value(pa) + g.value(pb)
        if math.isinf(big_h) and (sf < 0.0 or sg < 0.0):
            return "endpoint-sign-branch"
        return None


def attribute(failures: list[tuple[str, str]]) -> str | None:
    """The known defect behind every failure of a request, or None."""
    cats = {c for c, _ in failures}
    if len(cats) == 1 and next(iter(cats)) in KNOWN_DEFECTS:
        return next(iter(cats))
    return None
