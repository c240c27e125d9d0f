"""Timed closed loop: one client, one request at a time, in-process.

Run by run.py in a fresh interpreter so that ru_maxrss is the peak of the
process that ran the workload.  Each request calls domcert.cli.main(argv)
with stdout captured; the timed region ends when main returns with the
output fully rendered.

Before each timed request the worker times a fixed probe of pure-Python
work that uses no domcert code.  The host's speed drifts by 20-40% over
minutes; run.py divides each latency by the probe times around it.

The request list runs in passes.  Timed passes keep a sha256 of each
output, and the first keeps outputs of at most KEEP_BYTES.  ru_maxrss is
read after them; then every output not kept is made again by an untimed
run, all are required to be the same bytes in every pass, and the oracle
checks them.  Checking outputs between timed requests, or writing them to
disk for a later check, made latencies slower and noisier.

Untraced runs make --passes timed passes.  With --trace 1 there are two:
the first untraced, the second with the tracing wrappers installed; the
difference in summed latency is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import pathlib
import resource
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
KEEP_BYTES = 1 << 16


def load_package():
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    import domcert

    if pathlib.Path(domcert.__file__).resolve().parent != src / "domcert":
        raise SystemExit(f"domcert imported from {domcert.__file__}, not from {src}")
    from domcert.cli import main

    return main


def call(cli_main, req, tracer=None) -> tuple[float, int | None, bytes]:
    """One request: (seconds, exit code or None after a crash, output bytes)."""
    buf = io.StringIO()
    argv = list(req.argv)
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            code = tracer.request(req.rid, cli_main, argv) if tracer else cli_main(argv)
        except Exception:  # a crash is a failed request; keep the loop going
            code = None
            print(traceback.format_exc(), file=sys.stderr)
        t1 = time.perf_counter()
    return t1 - t0, code, buf.getvalue().encode("utf-8")


def _probe_fn(x: float) -> float:
    return math.exp(-x) * (x - 0.5) ** 2 + abs(x - 0.3)


def probe() -> float:
    """Seconds taken by fixed pure-Python work (about 3 ms) that uses no
    domcert code: float math through calls, tuples, reprs, a dict, a join."""
    t0 = time.perf_counter()
    rows = []
    acc = 0.0
    for i in range(1500):
        x = i * 0.001
        acc += _probe_fn(x)
        rows.append((x, acc, repr(acc)))
    index = {r[2]: r for r in rows}
    ",".join(repr(r[0]) for r in index.values())
    return time.perf_counter() - t0


def timed_pass(cli_main, requests, tracer=None, keep=None):
    """Latencies (s), exit codes, output sizes, per-output sha256, the probe
    time taken just before each request and its start time, for one pass.

    Outputs of at most KEEP_BYTES are appended to keep (None for larger).
    """
    out = ([], [], [], [], [], [])
    for req in requests:
        gc.collect()
        before = probe()
        start = time.perf_counter()
        seconds, code, data = call(cli_main, req, tracer)
        row = (seconds, code, len(data), hashlib.sha256(data).digest(), before, start)
        for column, value in zip(out, row):
            column.append(value)
        if keep is not None:
            keep.append(data if len(data) <= KEEP_BYTES else None)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cycles", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args(argv)

    cli_main = load_package()
    import oracle
    import tracing
    import workloads

    requests = workloads.generate(args.workload, args.seed, args.cycles, args.small)
    # warm-up outside the measurement: first use of each kind of request
    seen = set()
    for req in workloads.generate(args.workload, args.seed + 10**6, 1, args.small):
        kind = req.slot.split("/")[0]
        if kind not in seen and "1/t/endpoint" not in req.slot:
            seen.add(kind)
            call(cli_main, req)

    passes, kept = [], []
    tracer = None
    n_passes = 2 if args.trace else args.passes
    for p in range(n_passes):
        if args.trace and p == n_passes - 1:
            tracer = tracing.Tracer()
            tracer.install()
        try:
            passes.append(timed_pass(cli_main, requests, tracer, kept if p == 0 else None))
        finally:
            if tracer is not None:
                tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # check pass: the same bytes in every pass, then the oracle
    checker = oracle.Oracle(json.loads((ROOT / "schemas" / "report.schema.json").read_text(
        encoding="utf-8")))
    digest = hashlib.sha256()
    findings = []
    t0 = time.perf_counter()
    for i, req in enumerate(requests):
        if kept[i] is None:
            _, code, data = call(cli_main, req)
        else:
            code, data = passes[0][1][i], kept[i]
        kept[i] = None
        digest.update(data)
        problems, samples = checker.check(req, code, data)
        codes = {ps[1][i] for ps in passes} | {code}
        hashes = {ps[3][i] for ps in passes} | {hashlib.sha256(data).digest()}
        if len(codes) > 1 or len(hashes) > 1:
            problems.append(("nondeterministic", "exit code or bytes differ between passes"))
        findings.append([problems, samples, oracle.attribute(problems) if problems else None])
    oracle_s = time.perf_counter() - t0

    timed = passes[:1] if args.trace else passes
    meta = {
        "latencies_s": [ps[0] for ps in timed],
        "probes_s": [ps[4] for ps in timed],
        "starts_s": [ps[5] for ps in timed],
        "sizes": passes[0][2],
        "codes": passes[0][1],
        "digest": digest.hexdigest(),
        "findings": findings,
        "oracle_s": oracle_s,
        "peak_rss_mb": peak_rss_mb,
    }
    work = pathlib.Path(args.work)
    if args.trace:
        layer = tracing.layer_metrics(tracer, requests, sum(passes[0][0]), sum(passes[-1][0]),
                                      sum(passes[-1][2]))
        meta["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
            for rec in tracer.spans:
                fh.write(json.dumps(dict(zip(("name", "layer", "start_ns", "end_ns", "parent",
                                              "rid"), rec))) + "\n")
    (work / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
