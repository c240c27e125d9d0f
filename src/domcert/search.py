"""Counterexample search over the dominance gap.

Sweeps a sample plan, keeps every triple whose gap is below the violation
threshold, and optionally sharpens the ten worst samples (never one with a
nan gap) with a clamped coordinate-descent (step-halving) refinement.  The
sweep's own loop tests each sample, keeps only the violating rows and picks
the seeds, so memory grows with the number of violations, not with the plan
(a refining search also holds at most a few hundred candidate seeds).
Refinement evaluates the gap through the sweep's compiled per-sample body.
Each violation is held once: a row is the plain tuple the loop built until
the sorted list replaces it, in place, by its ViolationRecord.  Everything
is deterministic for a fixed plan, including the random strategy via its
seed.
"""

from __future__ import annotations

from math import copysign
from operator import itemgetter
from typing import NamedTuple

from .convexity import FunctionPair, SamplePlan, _gap_function, _plan_sweep, _violates
from .geometry import AffineMap, Interval
from .kernels import Kernel

REFINE_ITERATIONS = 50


class ViolationRecord(NamedTuple):
    """A violating triple with its gap and the two sides |defect_f|, defect_g."""

    x: float
    y: float
    t: float
    gap: float
    lhs_abs: float
    rhs: float


def _same_bits(p: tuple, q: tuple) -> bool:
    """Whether points p and q are equal bit for bit: 0.0 and -0.0 differ."""
    return p == q and all(copysign(1.0, u) == copysign(1.0, v) for u, v in zip(p, q))


def _refine_seed(
    parts,
    x: float,
    y: float,
    t: float,
    interval: Interval,
    t_clamp: float,
) -> tuple[float, float, float]:
    """Greedy pattern search for a smaller gap, clamped to the sample box;
    parts(x, y, t) is (gap, |defect_f|, defect_g)."""
    a, b = interval.a, interval.b
    t_lo, t_hi = t_clamp, 1.0 - t_clamp
    step_xy = (b - a) / 8.0
    step_t = (t_hi - t_lo) / 8.0
    best = parts(x, y, t)[0]
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
            if _same_bits((cx, cy, ct), (x, y, t)):  # clamped back: v < best is False
                continue
            v = parts(cx, cy, ct)[0]
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
    seeds: list[tuple] | None = [] if refine else None
    _plan_sweep((pair.f, pair.g), ("gap",), h, phi, interval, plan, None, found, seeds)

    if refine:
        parts = _gap_function(pair, h, phi)
        for sx, sy, st, _, _, _ in seeds:
            rx, ry, rt = _refine_seed(parts, sx, sy, st, interval, plan.t_clamp)
            gap, lhs, rhs = parts(rx, ry, rt)
            if not _violates(gap, lhs, rhs, plan.atol, plan.rtol):
                continue
            if (rx, ry, rt) != (sx, sy, st):
                # the refined point replaces the seed it sharpened
                found.pop((sx, sy, st), None)
            found[(rx, ry, rt)] = (rx, ry, rt, gap, lhs, rhs)

    return _records(found)


def _records(found: dict) -> list[ViolationRecord]:
    """found's rows as records in gap, then (x, y, t) order, emptying found.

    Sorting by point, then stably by gap alone, is that order without a key
    tuple per row: the points are distinct dict keys (so a row comparison
    never reaches the gap) and a violating gap is never nan.
    """
    rows = sorted(found.values())
    found.clear()
    rows.sort(key=itemgetter(3))
    new = tuple.__new__  # ViolationRecord._make without its call: every row has six fields
    for i, row in enumerate(rows):
        rows[i] = new(ViolationRecord, row)
    return rows
