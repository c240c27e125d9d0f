"""Acceptance criteria, one test per criterion.

Each test prints a single `criterion N: PASS/FAIL - <label>` line (visible
with -rA/-s, and embedded in the failure message otherwise), and pytest -v
itself gives the per-criterion pass/fail listing. Tolerances are pinned in
the assertions, not configurable.
"""

import itertools
import math
import random
import time

from conftest import (
    poly_source,
    random_convex_coeffs,
    run_cli,
    shift_nonnegative,
    simpson,
)
from domcert.convexity import (
    FunctionPair,
    SamplePlan,
    check_dominated,
    equivalence_report,
)
from domcert.expr import parse
from domcert.geometry import Interval, identity_map, make_affine
from domcert.hadamard import (
    hh_endpoint_report,
    hh_midpoint_report,
    special_case_report,
)
from domcert.kernels import make_kernel
from domcert.quadrature import integrate, integrate_open01
from domcert.search import search_violations

UNIT = Interval(0.0, 1.0)
IDENT = identity_map(UNIT)


def _verdict(n: int, label: str, failures: list[str]) -> None:
    ok = not failures
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {label}"
    print(line)
    assert ok, line + "".join(f"\n  {f}" for f in failures)


def test_criterion_1_kernel_constants():
    bad: list[str] = []

    k = make_kernel("linear")
    if k.midpoint_coefficient != 1.0:
        bad.append(f"linear coefficient {k.midpoint_coefficient!r} != 1.0")
    if (k.integral, k.integral_error) != (0.5, 0.0):
        bad.append(f"linear integral {(k.integral, k.integral_error)!r} != (0.5, 0.0)")

    for s in (0.1, 0.3, 0.5, 0.7, 0.9):
        k = make_kernel("power", s=s)
        if k.midpoint_coefficient != 2.0 ** (s - 1.0):
            bad.append(f"power(s={s}) coefficient {k.midpoint_coefficient!r}")
        if (k.integral, k.integral_error) != (1.0 / (s + 1.0), 0.0):
            bad.append(f"power(s={s}) integral {(k.integral, k.integral_error)!r}")

    k = make_kernel("reciprocal")
    if k.midpoint_coefficient != 0.25:
        bad.append(f"reciprocal coefficient {k.midpoint_coefficient!r} != 0.25")
    if not math.isinf(k.integral):
        bad.append(f"reciprocal integral {(k.integral, k.integral_error)!r} is not +inf")

    k = make_kernel("one")
    if k.midpoint_coefficient != 0.5:
        bad.append(f"constant-kernel coefficient {k.midpoint_coefficient!r} != 0.5")
    if (k.integral, k.integral_error) != (1.0, 0.0):
        bad.append(f"constant-kernel integral {(k.integral, k.integral_error)!r} != (1.0, 0.0)")

    _verdict(1, "kernel constants exact", bad)


def test_criterion_2_closed_form_bounds():
    bad: list[str] = []
    pair = FunctionPair(parse("x^2"), parse("2*x^2"))
    linear = make_kernel("linear")

    m = hh_midpoint_report(pair, linear, IDENT)
    for name, got, want in (("midpoint lhs", m.lhs, 1.0 / 12.0),
                            ("midpoint rhs", m.rhs, 1.0 / 6.0)):
        if abs(got - want) > 1e-9:
            bad.append(f"{name}: {got!r} vs {want!r}")

    e = hh_endpoint_report(pair, linear, IDENT)
    for name, got, want in (("endpoint lhs", e.lhs, 1.0 / 6.0),
                            ("endpoint rhs", e.rhs, 1.0 / 3.0)):
        if abs(got - want) > 1e-9:
            bad.append(f"{name}: {got!r} vs {want!r}")

    shifted = make_affine(0.5, 0.5, UNIT)
    m2 = hh_midpoint_report(pair, linear, shifted)
    for name, got, want in (("shifted midpoint lhs", m2.lhs, 1.0 / 48.0),
                            ("shifted midpoint rhs", m2.rhs, 1.0 / 24.0)):
        if abs(got - want) > 1e-9:
            bad.append(f"{name}: {got!r} vs {want!r}")

    _verdict(2, "closed-form two-sided bounds", bad)


def test_criterion_3_soundness_sweep():
    bad: list[str] = []
    started = time.monotonic()
    rng = random.Random(3001)
    kernels = [make_kernel("linear"), make_kernel("power", s=0.5), make_kernel("one")]
    maps = [IDENT, make_affine(0.5, 0.5, UNIT)]
    plan = SamplePlan.grid(21, 21, 19)

    for case in range(50):
        cf = shift_nonnegative(random_convex_coeffs(rng), 0.0, 1.0)
        extra = shift_nonnegative(random_convex_coeffs(rng), 0.0, 1.0)
        cg = [a + b for a, b in zip(cf, extra)]
        pair = FunctionPair(parse(poly_source(cf)), parse(poly_source(cg)))
        h = kernels[case % 3]
        phi = maps[case % 2]

        rep = check_dominated(pair, h, phi, UNIT, plan)
        if not rep.holds():
            bad.append(f"case {case}: dominance violated, worst {rep.worst_gap!r}")
            continue
        for bound in (hh_midpoint_report(pair, h, phi), hh_endpoint_report(pair, h, phi)):
            if not bound.holds or bound.margin < -1e-8:
                bad.append(
                    f"case {case}: {bound.bound_kind} margin {bound.margin!r}"
                )

    elapsed = time.monotonic() - started
    if elapsed > 30.0:
        bad.append(f"runtime {elapsed:.1f}s exceeds the 30s budget")

    _verdict(3, f"50-instance soundness sweep in {elapsed:.1f}s", bad)


def test_criterion_4_equivalence_agreement():
    bad: list[str] = []
    kernels = [
        make_kernel("linear"),
        make_kernel("power", s=0.5),
        make_kernel("one"),
        make_kernel("reciprocal"),
    ]
    maps = [IDENT, make_affine(0.5, 0.5, UNIT)]
    triples = 0

    for i in range(200):
        rng = random.Random(4000 + i)
        a = random_convex_coeffs(rng)
        b = random_convex_coeffs(rng)
        if i % 3 == 0:  # dominated by construction
            f, g = a, [p + q for p, q in zip(a, b)]
        elif i % 3 == 1:  # dominator too small: mostly violated
            f, g = [p + q for p, q in zip(a, b)], a
        else:  # unrelated pair: either way
            f, g = a, b
        pair = FunctionPair(parse(poly_source(f)), parse(poly_source(g)))
        plan = SamplePlan.random(50, seed=i)
        rep = equivalence_report(pair, kernels[i % 4], maps[i % 2], UNIT, plan)
        triples += plan.count
        if not rep.agreement:
            bad.append(
                f"config {i}: statements disagree {rep.statement_holds!r}"
            )

    if triples != 10_000:
        bad.append(f"sampled {triples} triples, wanted 10000")

    _verdict(4, "three-statement verdict agreement on 10000 triples", bad)


def test_criterion_5_counterexample_sharpness():
    bad: list[str] = []
    pair = FunctionPair(parse("2*x^2"), parse("x^2"))
    records = search_violations(
        pair, make_kernel("linear"), IDENT, UNIT, SamplePlan.grid(21, 21, 19),
        refine=True,
    )
    if not records:
        bad.append("no violation found at all")
    else:
        top = records[0]
        if not -0.2501 <= top.gap <= -0.2490:
            bad.append(f"worst gap {top.gap!r} outside [-0.2501, -0.2490]")
        tx, ty, tt = 0.0, 1.0, 0.5
        if max(abs(top.x - tx), abs(top.y - ty), abs(top.t - tt)) > 1e-2:
            bad.append(f"witness {(top.x, top.y, top.t)!r} not near (0, 1, 0.5)")

    _verdict(5, "sharp counterexample located", bad)


def test_criterion_6_divergence_handling():
    bad: list[str] = []
    pair = FunctionPair(parse("x^2"), parse("2*x^2"))
    recip = make_kernel("reciprocal")

    e = hh_endpoint_report(pair, recip, IDENT)
    if not e.vacuous:
        bad.append("endpoint report not marked vacuous")
    if not math.isinf(e.rhs):
        bad.append(f"endpoint rhs {e.rhs!r} is not +inf")

    entries = special_case_report(pair, IDENT, which="reciprocal")
    labels = [entry.label for entry in entries]
    if labels != ["reciprocal/midpoint"]:
        bad.append(f"divergent-kernel labels {labels!r}, wanted midpoint only")

    _verdict(6, "divergent kernel handled as vacuous", bad)


def test_criterion_7_quadrature_battery():
    bad: list[str] = []
    battery = [(f"x^{k}", lambda x, k=k: x**k, 0.0, 1.0, 1.0 / (k + 1)) for k in range(7)]
    battery += [
        ("exp", math.exp, -1.0, 2.0, math.e**2 - math.exp(-1.0)),
        ("sin", math.sin, 0.0, math.pi, 2.0),
        ("atan-kernel", lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
        ("cos(10x)", lambda x: math.cos(10.0 * x), 0.0, 1.0, math.sin(10.0) / 10.0),
    ]
    for name, fn, a, b, truth in battery:
        r = integrate(fn, a, b)
        if abs(r.value - truth) > max(r.error_estimate, 1e-10):
            bad.append(f"{name}: off by {abs(r.value - truth)!r}")

    r = integrate_open01(math.sqrt)
    if abs(r.value - 2.0 / 3.0) > max(r.error_estimate, 1e-10):
        bad.append(f"sqrt on (0,1): off by {abs(r.value - 2.0 / 3.0)!r}")

    _verdict(7, "12-integral battery within estimates", bad)


def test_criterion_8_determinism():
    bad: list[str] = []
    runs = [
        ("check-convex", "--f", "x^2", "--interval", "0", "1", "--grid", "9", "9", "7"),
        ("check-dominated", "--f", "x^2", "--g", "2*x^2", "--interval", "0", "1",
         "--random", "200", "--seed", "42"),
        ("equivalence", "--f", "x^2", "--g", "2*x^2", "--interval", "0", "1",
         "--grid", "7", "7", "5"),
        ("verify-hh", "--f", "x^2", "--g", "2*x^2", "--interval", "0", "1",
         "--h", "t^s", "--s", "0.5"),
        ("special-case", "--f", "x^2", "--g", "2*x^2", "--interval", "0", "1",
         "--which", "all", "--s", "0.5"),
        ("search", "--f", "2*x^2", "--g", "x^2", "--interval", "0", "1",
         "--grid", "9", "9", "7", "--refine"),
    ]
    for args in runs:
        code1, out1 = run_cli(*args)
        code2, out2 = run_cli(*args)
        if (code1, out1) != (code2, out2):
            bad.append(f"{args[0]}: two runs differ")
        if out1.encode() != out2.encode():
            bad.append(f"{args[0]}: bytes differ")

    _verdict(8, "byte-identical reruns for every subcommand", bad)
