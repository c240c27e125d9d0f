"""domcert benchmark: one closed-loop client driving the CLI in-process.

    python3 bench/run.py --workload sweep-grid --seed 1 --seconds 20 --trace 0

Workloads are described in workloads.py and README.md.  The request list
is made from --seed; --seconds picks how many cycles of it, and how many
timed passes over them, a run makes.  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 the per-layer metrics of a traced pass
and the tracing overhead.  Every output is checked by oracle.py after the
timed passes.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.

The program is built from the checkout's own src/ tree; without it (or
without schemas/report.schema.json) the benchmark exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "schemas" / "report.schema.json"
RESULTS = HERE / "results"

# Latencies are reported at the speed the reference host (2-core Xeon,
# CPython 3.11.7) has when its probe takes this long; see normalized().
PROBE_REFERENCE_S = 0.0025
PROBE_WINDOW_S = 2.0
SETUP_RUNS = 11
SETUP_ARGV = ["check-convex", "--f", "x^2", "--interval", "0", "1", "--grid", "1", "1", "1"]
WORKER_TIMEOUT_S = 150



def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def package_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up is measured with a warm cache
    return env


def bytecode_warm() -> bool:
    return all(
        pathlib.Path(importlib.util.cache_from_source(str(p))).exists()
        for p in (SRC / "domcert").glob("*.py")
    )


def machine_facts(warm_before: bool) -> dict:
    facts = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "bytecode_warm_at_start": warm_before,
    }
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0] in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE",
                                                "LEVEL3_CACHE_SIZE"):
                facts[parts[0].lower()] = int(parts[1])
    except (OSError, subprocess.SubprocessError):
        facts["caches"] = "unknown"
    return facts


def measure_setup() -> tuple[float, list[float], dict]:
    """Median wall time of a trivial request in a fresh interpreter."""
    cmd = [sys.executable, "-m", "domcert", *SETUP_ARGV]
    env = package_env()
    subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=60)  # warms bytecode
    times = []
    report = None
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up request exited {proc.returncode}: {proc.stderr[-500:]!r}")
        report = json.loads(proc.stdout)
    if report["result"]["verdict"] != "holds-on-samples":
        raise RuntimeError(f"set-up request gave verdict {report['result']['verdict']!r}")
    return statistics.median(times), times, report


def run_worker(args, cycles: int, passes: int, work: pathlib.Path) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--cycles", str(cycles), "--passes", str(passes),
           "--trace", str(args.trace), "--work", str(work)] + (["--small"] if args.small else [])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    if code != 0:
        raise RuntimeError(f"worker exited {code}")
    return json.loads((work / "meta.json").read_text(encoding="utf-8"))


def normalized(latencies: list[float], probes: list[float], starts: list[float]) -> list[float]:
    """Latencies of one pass scaled to the reference host's speed.

    Each is multiplied by PROBE_REFERENCE_S over the median probe time of
    the requests that started from PROBE_WINDOW_S before it began until
    PROBE_WINDOW_S after it ended.  The host's speed drifts by 20-40% over
    minutes, alike for the probe and the program, so the scaled latencies
    of two runs compare the program rather than the host.
    """
    out = []
    lo = hi = 0
    for seconds, start in zip(latencies, starts):
        while starts[lo] < start - PROBE_WINDOW_S:
            lo += 1
        while hi < len(starts) and starts[hi] <= start + seconds + PROBE_WINDOW_S:
            hi += 1
        out.append(seconds * PROBE_REFERENCE_S / statistics.median(probes[lo:hi]))
    return out


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="one cycle of tiny plans (selfcheck)")
    args = ap.parse_args(argv)

    if not (SRC / "domcert" / "__init__.py").is_file():
        return fail(f"no package source at {SRC}/domcert")
    if not SCHEMA.is_file():
        return fail(f"no report schema at {SCHEMA}")
    sys.path[:0] = [str(HERE), str(SRC)]
    import oracle
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")

    warm_before = bytecode_warm()
    facts = machine_facts(warm_before)
    cycles, passes = (1, 2) if args.small else workloads.run_plan(args.workload, args.seconds)
    requests = workloads.generate(args.workload, args.seed, cycles, args.small)

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if not args.trace:
            setup_s, setup_times, setup_report = measure_setup()
        t0 = time.perf_counter()
        meta = run_worker(args, cycles, passes, work)
        facts["worker_s"], facts["oracle_s"] = time.perf_counter() - t0, meta["oracle_s"]
        RESULTS.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-small' if args.small else ''}"
        if args.trace:
            shutil.move(str(work / "spans.jsonl"), RESULTS / f"{stem}-spans.jsonl")
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [(r.rid, r.slot, probs, known) for r, (probs, _, known)
                in zip(requests, meta["findings"]) if probs]
    samples = sum(n for _, n, _ in meta["findings"])
    attempted = len(requests)
    unattributed = [f for f in failures if f[3] is None]
    correct = not unattributed

    # a request's latency is its best timed pass, at the reference speed
    scaled = [normalized(*timed_pass) for timed_pass
              in zip(meta["latencies_s"], meta["probes_s"], meta["starts_s"])]
    lat = [min(repeats) for repeats in zip(*scaled)]
    raw = [min(repeats) for repeats in zip(*meta["latencies_s"])]
    busy = sum(lat)
    tail_s, tail_pct = tail(lat)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "cycles": cycles,
        "timed_passes": len(meta["latencies_s"]),
        "why": workloads.WHY[args.workload], "facts": facts, "output_sha256": meta["digest"],
        "attempted": attempted, "failed": len(failures), "correct": correct,
        "failures": [{"rid": r, "slot": s, "problems": p, "known_defect": k}
                     for r, s, p, k in failures],
        # rid, slot, exit code, bytes, then wall ms and probe ms of each timed pass
        "requests": [[r.rid, r.slot, c, n]
                     + [ps[i] * 1e3 for ps in meta["latencies_s"]]
                     + [ps[i] * 1e3 for ps in meta["probes_s"]]
                     for i, (r, c, n) in enumerate(zip(requests, meta["codes"], meta["sizes"]))],
    }
    if args.trace:
        metrics = meta["per_layer"]
    else:
        metrics = {
            "latency_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "latency_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
            "requests_per_s": {"value": attempted / busy, "unit": "1/s"},
            "peak_rss_mb": {"value": meta["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        report["extra"] = {
            "latency_tail_percentile": tail_pct,
            "latency_samples": len(lat),
            "probe_median_ms": statistics.median(
                p for pass_probes in meta["probes_s"] for p in pass_probes) * 1e3,
            "wall_latency_p50_ms": statistics.median(raw) * 1e3,
            "wall_latency_tail_ms": tail(raw)[0] * 1e3,
            "wall_requests_per_s": attempted / sum(raw),
            "samples_per_s": samples / busy,
            "failed_ratio": len(failures) / attempted,
            "setup_runs_s": setup_times,
            "setup_schema_errors": oracle.SchemaValidator(
                json.loads(SCHEMA.read_text(encoding="utf-8"))).errors(setup_report),
        }
    report["metrics"] = metrics
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    print_report(report, oracle.KNOWN_DEFECTS)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


def print_report(report: dict, known: dict) -> None:
    f = report["facts"]
    print(f"domcert benchmark: workload={report['workload']} seed={report['seed']} "
          f"trace={report['trace']} cycles={report['cycles']} requests={report['attempted']} "
          f"timed passes={report['timed_passes']}")
    print(f"  why: {report['why']}")
    print("  machine: " + " ".join(f"{k}={v}" for k, v in f.items()))
    for name, m in report["metrics"].items():
        print(f"  {name:<42} {m['value']:>16.6f} {m['unit']}")
    extra = report.get("extra")
    if extra:
        print(f"  {'latency_tail_ms is the percentile':<42} {extra['latency_tail_percentile']:>16.3f}"
              f" % of {extra['latency_samples']} samples (10 beyond)")
        print(f"  {'probe median':<42} {extra['probe_median_ms']:>16.6f} ms "
              f"(reference {PROBE_REFERENCE_S * 1e3:g} ms)")
        for name in ("wall_latency_p50_ms", "wall_latency_tail_ms", "wall_requests_per_s"):
            print(f"  {name + ' (unscaled)':<42} {extra[name]:>16.6f}")
        sps = extra["samples_per_s"]
        print(f"  {'samples_per_s':<42} "
              + (f"{sps:>16.1f} 1/s" if sps else f"{'n/a':>16} (no sweeps in this workload)"))
        print(f"  {'failed_ratio':<42} {extra['failed_ratio']:>16.6f} ratio")
        if extra["setup_schema_errors"]:
            print(f"  note: the set-up request's report fails the schema: "
                  f"{extra['setup_schema_errors'][0]}")
    by_cause = Counter(fl["known_defect"] or "UNATTRIBUTED: " + fl["problems"][0][0]
                       for fl in report["failures"])
    for cause, n in sorted(by_cause.items()):
        print(f"  failed {n:>4} x {cause}" + (f" -- {known[cause]}" if cause in known else ""))
    for fl in report["failures"]:
        if fl["known_defect"] is None:
            print(f"    request {fl['rid']} {fl['slot']}: {fl['problems'][0][1]}")
    print(f"  output sha256 {report['output_sha256']}  correct={report['correct']}")


if __name__ == "__main__":
    sys.exit(main())
