"""Spans and counters recorded from outside the package.

Wrappers are installed around the public functions of each module.  The
modules bind many of these functions by name at import (``from
.quadrature import integrate``), so a wrapper is installed under every
name in every ``domcert`` module that refers to the original function,
not only where it is defined.  Spans (name, layer, start, end, parent,
request id) stay in memory until the run ends.  ``Expr.evaluate`` and
``Kernel.value`` run millions of times per request, so they only count.
"""

from __future__ import annotations

import fnmatch
import sys
import time
from collections import Counter

# (module, name pattern, layer); patterns cover later additions such as a
# new renderer or a renamed sweep engine
TARGETS = (
    ("domcert.cli", "build_parser", "cli"),
    ("domcert.cli", "render_*", "cli"),
    ("domcert.expr", "parse", "expr"),
    ("domcert.kernels", "make_kernel", "kernels"),
    ("domcert.quadrature", "integrate", "quadrature"),
    ("domcert.quadrature", "integrate_open01", "quadrature"),
    ("domcert.convexity", "check_*", "convexity"),
    ("domcert.convexity", "equivalence_report", "convexity"),
    ("domcert.convexity", "*_sweep", "convexity"),
    ("domcert.hadamard", "hh_*_report", "hadamard"),
    ("domcert.hadamard", "special_case_report", "hadamard"),
    ("domcert.search", "search_violations", "search"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start_ns, end_ns, parent, rid]
        self.stack: list[int] = []
        self.rid = -1
        self.counts: dict[int, Counter] = {}
        self.hot = [0, 0, 0]  # evaluate calls, kernel value calls, integrand calls
        self._hot_at_start = (0, 0, 0)
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, layer: str) -> list:
        rec = [name, layer, 0, 0, self.stack[-1] if self.stack else -1, self.rid]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter_ns()
        self.stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[self.rid][key] += n

    def request(self, rid: int, fn, *args):
        """Run one request under a root span of the cli layer."""
        self.rid = rid
        self.counts[rid] = Counter()
        self._hot_at_start = tuple(self.hot)
        rec = self._open("main", "cli")
        try:
            return fn(*args)
        finally:
            self._close(rec)
            c = self.counts[rid]
            for key, now, then in zip(
                ("expr.evaluate_calls", "kernels.value_calls", "quadrature.integrand_calls"),
                self.hot,
                self._hot_at_start,
            ):
                c[key] += now - then

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        tracer = self

        if name == "integrate":
            def wrapped(fun, *args, **kwargs):
                hot = tracer.hot

                def counted(x):
                    hot[2] += 1
                    return fun(x)

                rec = tracer._open(name, layer)
                try:
                    result = fn(counted, *args, **kwargs)
                finally:
                    tracer._close(rec)
                tracer.count("quadrature.integrate_calls")
                tracer.count("quadrature.panels", result.subdivisions)
                if tracer._inside("integrate_open01"):
                    tracer.count("quadrature.open01_panels", result.subdivisions)
                return result
        elif name == "build_parser":
            def wrapped(*args, **kwargs):
                rec = tracer._open(name, layer)
                try:
                    parser = fn(*args, **kwargs)
                finally:
                    tracer._close(rec)
                parser.parse_args = tracer._wrap("parse_args", "cli", parser.parse_args)
                return parser
        else:
            def wrapped(*args, **kwargs):
                rec = tracer._open(name, layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(rec)
                tracer._tally(name, result)
                return result

        wrapped.__wrapped__ = fn
        wrapped.__name__ = name
        return wrapped

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def _tally(self, name: str, result) -> None:
        if name == "parse":
            self.count("expr.parse_calls")
        elif name == "make_kernel":
            self.count("kernels.builds")
        elif name == "integrate_open01":
            self.count("quadrature.open01_calls")
        elif name.endswith("_sweep"):
            self.count("convexity.sweeps")
            samples = getattr(result, "samples", 0)
            c = self.counts[self.rid]
            c["convexity.sweep_samples_max"] = max(c["convexity.sweep_samples_max"], samples)
        elif name.startswith("check_"):
            samples = getattr(result, "samples_checked", 0)
            c = self.counts[self.rid]
            c["convexity.report_samples_max"] = max(c["convexity.report_samples_max"], samples)
        elif name == "equivalence_report":
            c = self.counts[self.rid]
            c["convexity.report_samples_max"] = max(
                c["convexity.report_samples_max"], result.dominance.samples_checked
            )
        elif name.startswith("hh_"):
            self.count("hadamard.reports")
        elif name == "search_violations":
            self.count("search.violations", len(result))

    def install(self) -> None:
        """Wrap every target under every name that refers to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "domcert" or n.startswith("domcert."))]
        for modname, pattern, layer in TARGETS:
            home = sys.modules[modname]
            for name, fn in sorted(vars(home).items()):
                if not fnmatch.fnmatchcase(name, pattern) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != modname or isinstance(fn, type):
                    continue
                wrapped = self._wrap(name, layer, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapped)
                            self._undo.append((mod, attr, fn))
        self._install_counters()

    def _install_counters(self) -> None:
        from domcert.expr import Expr
        from domcert.kernels import Kernel

        hot = self.hot
        evaluate = Expr.evaluate
        value = Kernel.value

        def counted_evaluate(self, v, _evaluate=evaluate):
            hot[0] += 1
            return _evaluate(self, v)

        def counted_value(self, t, _value=value):
            hot[1] += 1
            return _value(self, t)

        for cls, attr, new in ((Expr, "evaluate", counted_evaluate),
                               (Expr, "__call__", counted_evaluate),
                               (Kernel, "value", counted_value)):
            self._undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _self_and_busy(spans: list[list]):
    """Per-span self time, and per-layer busy time (outermost spans only)."""
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[4] >= 0:
            child_ns[rec[4]] += rec[3] - rec[2]
    self_ns: Counter = Counter()
    busy_ns: Counter = Counter()
    by_name_ns: Counter = Counter()
    for i, rec in enumerate(spans):
        dur = rec[3] - rec[2]
        self_ns[rec[1]] += dur - child_ns[i]
        by_name_ns[rec[0]] += dur
        p = rec[4]
        while p >= 0 and spans[p][1] != rec[1]:
            p = spans[p][4]
        if p < 0:
            busy_ns[rec[1]] += dur
    return self_ns, busy_ns, by_name_ns


def layer_metrics(tracer: Tracer, requests, untraced_s: float, traced_s: float,
                  bytes_out: int) -> dict:
    """Every per-layer metric, as {name: (value, unit)}."""
    self_ns, busy_ns, by_name = _self_and_busy(tracer.spans)
    total: Counter = Counter()
    for c in tracer.counts.values():
        total.update(c)

    def ms(ns):
        return ns / 1e6

    samples = evals = sweeping = 0
    eq_samples = eq_evals = 0
    div_panels = div_requests = 0
    search_samples = 0
    for r in requests:
        c = tracer.counts.get(r.rid, Counter())
        n = max(c["convexity.sweep_samples_max"], c["convexity.report_samples_max"])
        if n:
            sweeping += 1
            samples += n
            evals += c["expr.evaluate_calls"]
            if r.sub == "equivalence":
                eq_samples += n
                eq_evals += c["expr.evaluate_calls"]
            if r.sub == "search":
                search_samples += n
        if r.slot == "custom/1/t/endpoint":
            div_requests += 1
            div_panels += c["quadrature.open01_panels"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "convexity.sweep_ms": (ms(busy_ns["convexity"]), "ms"),
        "convexity.self_ms": (ms(self_ns["convexity"]), "ms"),
        "convexity.samples": (samples, "count"),
        "convexity.sweeps_per_request": (ratio(total["convexity.sweeps"], sweeping), "count"),
        "convexity.evals_per_sample": (ratio(evals, samples), "ratio"),
        "convexity.evals_per_sample.equivalence": (ratio(eq_evals, eq_samples), "ratio"),
        "expr.parse_calls": (total["expr.parse_calls"], "count"),
        "expr.parse_ms": (ms(busy_ns["expr"]), "ms"),
        "expr.self_ms": (ms(self_ns["expr"]), "ms"),
        "expr.evaluate_calls": (total["expr.evaluate_calls"], "count"),
        "kernels.build_ms": (ms(busy_ns["kernels"]), "ms"),
        "kernels.self_ms": (ms(self_ns["kernels"]), "ms"),
        "kernels.value_calls": (total["kernels.value_calls"], "count"),
        "quadrature.integrate_calls": (total["quadrature.integrate_calls"], "count"),
        "quadrature.panels": (total["quadrature.panels"], "count"),
        "quadrature.integrand_calls": (total["quadrature.integrand_calls"], "count"),
        "quadrature.open01_calls": (total["quadrature.open01_calls"], "count"),
        "quadrature.busy_ms": (ms(busy_ns["quadrature"]), "ms"),
        "quadrature.self_ms": (ms(self_ns["quadrature"]), "ms"),
        "quadrature.divergent_kernel_panels": (ratio(div_panels, div_requests), "count"),
        "hadamard.reports": (total["hadamard.reports"], "count"),
        "hadamard.self_ms": (ms(self_ns["hadamard"]), "ms"),
        "search.ms": (ms(busy_ns["search"]), "ms"),
        "search.self_ms": (ms(self_ns["search"]), "ms"),
        "search.violations": (total["search.violations"], "count"),
        "search.violation_ratio": (ratio(total["search.violations"], search_samples), "ratio"),
        "cli.argparse_ms": (ms(by_name["build_parser"] + by_name["parse_args"]), "ms"),
        "cli.render_ms": (ms(sum(v for k, v in by_name.items() if k.startswith("render_"))),
                          "ms"),
        "cli.bytes_out": (bytes_out, "count"),
        "cli.self_ms": (ms(self_ns["cli"]), "ms"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_ratio": (ratio(traced_s - untraced_s, untraced_s), "ratio"),
    }
    return m
