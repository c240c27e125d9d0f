"""Counterexample search over the dominance gap.

Sweeps a sample plan, keeps every triple whose gap is below the violation
threshold, and optionally sharpens the ten worst samples with a clamped
coordinate-descent (step-halving) refinement.  The sweep's own loop tests
each sample and keeps only the violating rows, so memory grows with the
number of violations, not with the plan (a refining search also holds at
most a few thousand candidate seeds).  Each violation is held once: a row
is the plain tuple the loop built until the sorted list replaces it, in
place, by its ViolationRecord.  Everything is deterministic for a fixed
plan, including the random strategy via its seed.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import NamedTuple

from .convexity import FunctionPair, SamplePlan, _gap_parts, _plan_sweep, _violates
from .geometry import AffineMap, Interval
from .kernels import Kernel

REFINE_SEEDS = 10
REFINE_ITERATIONS = 50
_SEED_BUFFER = 4096  # rows held before trimming to the REFINE_SEEDS smallest
_ORDER = itemgetter(3, 0, 1, 2)  # gap, then (x, y, t)


class ViolationRecord(NamedTuple):
    """A violating triple with its gap and the two sides |defect_f|, defect_g."""

    x: float
    y: float
    t: float
    gap: float
    lhs_abs: float
    rhs: float


def _refine_seed(
    gap_fn,
    x: float,
    y: float,
    t: float,
    interval: Interval,
    t_clamp: float,
) -> tuple[float, float, float]:
    """Greedy pattern search for a smaller gap, clamped to the sample box."""
    a, b = interval.a, interval.b
    t_lo, t_hi = t_clamp, 1.0 - t_clamp
    step_xy = (b - a) / 8.0
    step_t = (t_hi - t_lo) / 8.0
    best = gap_fn(x, y, t)
    for _ in range(REFINE_ITERATIONS):
        candidates = (
            (min(max(x + step_xy, a), b), y, t),
            (min(max(x - step_xy, a), b), y, t),
            (x, min(max(y + step_xy, a), b), t),
            (x, min(max(y - step_xy, a), b), t),
            (x, y, min(max(t + step_t, t_lo), t_hi)),
            (x, y, min(max(t - step_t, t_lo), t_hi)),
        )
        moved = False
        for cx, cy, ct in candidates:
            v = gap_fn(cx, cy, ct)
            if v < best:
                best, x, y, t = v, cx, cy, ct
                moved = True
        if not moved:
            step_xy *= 0.5
            step_t *= 0.5
            if step_xy < 1e-13 * (b - a):
                break
    return x, y, t


def search_violations(
    pair: FunctionPair,
    h: Kernel,
    phi: AffineMap,
    interval: Interval,
    plan: SamplePlan,
    refine: bool = False,
) -> list[ViolationRecord]:
    """All sampled violations, sorted by gap then (x, y, t) ascending."""
    found: dict[tuple[float, float, float], tuple] = {}  # (x, y, t) -> row
    seeds: list[tuple] = []

    def keep(row):
        seeds.append(row)
        if len(seeds) >= _SEED_BUFFER:
            seeds[:] = heapq.nsmallest(REFINE_SEEDS, seeds, key=_ORDER)

    _plan_sweep((pair.f, pair.g), ("gap",), h, phi, interval, plan, keep if refine else None,
                found)

    if refine:
        def gap_fn(x, y, t):
            return _gap_parts(pair, h, phi, x, y, t)[0]

        for sx, sy, st, _, _, _ in heapq.nsmallest(REFINE_SEEDS, seeds, key=_ORDER):
            rx, ry, rt = _refine_seed(gap_fn, sx, sy, st, interval, plan.t_clamp)
            gap, lhs, rhs = _gap_parts(pair, h, phi, rx, ry, rt)
            if not _violates(gap, lhs, rhs, plan.atol, plan.rtol):
                continue
            if (rx, ry, rt) != (sx, sy, st):
                # the refined point replaces the seed it sharpened
                found.pop((sx, sy, st), None)
            found[(rx, ry, rt)] = (rx, ry, rt, gap, lhs, rhs)

    return _records(found)


def _records(found: dict) -> list[ViolationRecord]:
    """found's rows as records in _ORDER, emptying found.

    Sorting by point, then stably by gap alone, is _ORDER without a key
    tuple per row: the points are distinct dict keys (so a row comparison
    never reaches the gap) and a violating gap is never nan.
    """
    rows = sorted(found.values())
    found.clear()
    rows.sort(key=itemgetter(3))
    for i, row in enumerate(rows):
        rows[i] = ViolationRecord._make(row)
    return rows
