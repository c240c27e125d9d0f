"""Self-check of the benchmark itself; no timing gates.

    python3 bench/selfcheck.py

* the generator is deterministic for a seed and differs between seeds;
* every workload runs at a small size, untraced and traced, and prints
  every metric BENCHMARK.json names, with correct=true;
* two runs with the same seed produce the same output digest;
* the oracle flags a deliberately corrupted witness, CSV row, search
  violation and bound value.
"""

from __future__ import annotations

import json
import math
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracle  # noqa: E402
import workloads  # noqa: E402


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {what}")
    print(f"  ok  {what}")


def run_bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    check(proc.returncode == 0, f"{workload} trace={trace} exits 0 ({proc.stderr[-300:]!r})")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    stem = f"{workload}-seed{seed}-trace{trace}-small"
    record = json.loads((HERE / "results" / f"{stem}.json").read_text(encoding="utf-8"))
    return last, record


def corrupted(judge, req, mutate) -> set:
    code, text = oracle.run_cli(req.argv)
    data = mutate(text)
    problems, _ = judge.check(req, code, data.encode())
    return {c for c, _ in problems}


def bump(v: float) -> float:
    return math.nextafter(v, math.inf)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]

    print("generator")
    for w in workloads.WORKLOADS:
        a = [r.key() for r in workloads.generate(w, 7, 2)]
        b = [r.key() for r in workloads.generate(w, 7, 2)]
        c = [r.key() for r in workloads.generate(w, 8, 2)]
        check(a == b and a != c, f"{w}: same seed same requests, other seed other requests")

    print("runs")
    for w in workloads.WORKLOADS:
        first, rec1 = run_bench(w, 3, 0)
        _, rec2 = run_bench(w, 3, 0)
        traced, _ = run_bench(w, 3, 1)
        check(set(first) == {"correct", "attempted", "failed", "metrics"}, f"{w}: result keys")
        check(first["correct"] and traced["correct"], f"{w}: correct in both modes")
        check(list(first["metrics"]) == e2e, f"{w}: every end-to-end metric, in order")
        check(list(traced["metrics"]) == layers, f"{w}: every per-layer metric, in order")
        check(all(isinstance(m["value"], (int, float)) for m in traced["metrics"].values()),
              f"{w}: per-layer values are numbers")
        check(rec1["output_sha256"] == rec2["output_sha256"], f"{w}: digest repeats for a seed")
        check(all(f["known_defect"] for f in rec1["failures"]), f"{w}: every failure attributed")

    print("oracle")
    judge = oracle.Oracle(json.loads((ROOT / "schemas" / "report.schema.json").read_text()))
    sweep = workloads.generate("sweep-grid", 5, 1, small=True)
    req = next(r for r in sweep if r.sub == "check-dominated")

    def witness(text):
        # report another sample as the witness: the lower end of the interval
        env = json.loads(text)
        w = env["result"]["witness"]
        a = env["inputs"]["interval"][0]
        w["x"] = a if w["x"] != a else env["inputs"]["interval"][1]
        return json.dumps(env)

    def worst_gap(text):
        env = json.loads(text)
        env["result"]["worst_gap"] = bump(env["result"]["worst_gap"])
        return json.dumps(env)

    check(corrupted(judge, req, lambda t: t) == set(), "untouched sweep output passes")
    check("witness" in corrupted(judge, req, witness), "moved witness is flagged")
    check("witness" in corrupted(judge, req, worst_gap), "worst_gap off by one ulp is flagged")

    rows = workloads.generate("rows-random", 5, 1, small=True)
    req = next(r for r in rows if r.fmt == "csv")

    def csv_row(text):
        # lower the witness row's value by one ulp: it stays the witness
        lines = text.splitlines()
        rows = [line.split(",") for line in lines[1:]]
        i = min(range(len(rows)), key=lambda k: [float(c) for c in rows[k][3:4] + rows[k][:3]])
        rows[i][3] = repr(math.nextafter(float(rows[i][3]), -math.inf))
        return "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"

    check("witness" in corrupted(judge, req, csv_row), "altered CSV witness row is flagged")
    req = next(r for r in rows if r.sub == "search")

    def violation(text):
        env = json.loads(text)
        for v in env["result"]["violations"]:
            v["lhs_abs"] = bump(v["lhs_abs"])
        return json.dumps(env)

    check("witness" in corrupted(judge, req, violation), "altered search violation is flagged")

    bounds = workloads.generate("bounds-mix", 5, 1)
    req = next(r for r in bounds if r.slot.startswith("verify-hh/t/midpoint") and r.fmt == "json")

    def bound(text):
        env = json.loads(text)
        env["result"]["reports"][0]["lhs"] *= 1.001
        env["result"]["reports"][0]["margin"] = (
            env["result"]["reports"][0]["rhs"] - env["result"]["reports"][0]["lhs"])
        return json.dumps(env)

    check("bound-value" in corrupted(judge, req, bound), "bound value off by 0.1% is flagged")
    envelope = json.loads(oracle.run_cli(req.argv)[1])
    del envelope["tool"]
    check(bool(judge.schema.errors(envelope)), "envelope without 'tool' fails the schema")
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
