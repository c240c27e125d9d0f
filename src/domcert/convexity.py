"""Sampled convexity and dominance checks.

For a kernel h, a map phi and a point triple (x, y, t) the *defect* of a
function u is

    h(t) u(phi(x)) + h(1-t) u(phi(y)) - u(t phi(x) + (1-t) phi(y))

u belongs to the kernel's convexity class exactly when every defect is
nonnegative.  A pair (f, g) is *dominated* when |defect of f| <= defect
of g pointwise; the *dominance gap* is defect_g - |defect_f|, so the pair
is dominated exactly when every gap is nonnegative.

Checks sample a finite plan (grid or seeded random triples) and certify
only "holds on these samples": they can refute, never prove.  A value is
a violation only when it is below -(atol + rtol * scale) with scale the
larger magnitude of the two inequality sides at the witness, or when it
is -inf, whatever that scale; near-zero negatives inside that band are
reported as warnings.

Each check is one pass over its plan: a generated loop evaluates f and g
(or the one function) once per point and reduces every statement the
check reports.  check_dominated takes g's gate from that pass, and in
equivalence_report the l/k reports are the g + f / g - f reports, since
decompose() builds those same trees.
"""

from __future__ import annotations

import heapq
import math
import random
from operator import itemgetter
from typing import NamedTuple

from .errors import DomcertError
from .expr import (
    _EVAL_ENV, EvalError, Expr, Node, _emit, _nonfinite, _shape_code, _Slots, combine, copies,
)
from .geometry import AffineMap, Interval
from .kernels import Kernel, chebyshev_points, outside_error
from .record import Record

NEG_VALUES_WARNING = "{role} takes negative sampled values (codomain should be [0, inf))"
WITHIN_TOL_WARNING = "worst sampled value is negative but within tolerance"
NAN_WARNING = "{nans} of {samples} samples are nan and decide nothing"

HOLDS = "holds-on-samples"
VIOLATED = "violated"


class PreconditionError(DomcertError):
    pass


def check_tolerances(atol: float, rtol: float) -> None:
    """Raise ValueError unless atol and rtol are finite and >= 0."""
    if not (0.0 <= atol < math.inf and 0.0 <= rtol < math.inf):
        raise ValueError(f"tolerances must be finite, >= 0; got {atol!r}, {rtol!r}")


class SamplePlan(Record):
    """Where a check looks: a full grid or seeded uniform random triples.

    Grid plans place x and y uniformly on [a, b] including the endpoints
    and t on a Chebyshev-spaced grid in [t_clamp, 1 - t_clamp] with the
    midpoint t = 1/2 always added.  Random plans draw (x, y, t) uniformly,
    reproducibly for a fixed seed.
    """

    __slots__ = ("strategy", "n_x", "n_y", "n_t", "count", "seed", "t_clamp", "atol", "rtol")

    def __init__(
        self,
        strategy: str = "grid",
        n_x: int = 21,
        n_y: int = 21,
        n_t: int = 19,
        count: int = 1000,
        seed: int = 0,
        t_clamp: float = 1e-6,
        atol: float = 1e-9,
        rtol: float = 1e-9,
    ):
        self._set(strategy, n_x, n_y, n_t, count, seed, t_clamp, atol, rtol)
        if self.strategy not in ("grid", "random"):
            raise ValueError(f"unknown sampling strategy {self.strategy!r}")
        if self.strategy == "grid" and min(self.n_x, self.n_y, self.n_t) < 1:
            raise ValueError("grid sample counts must be at least 1")
        if self.strategy == "random" and self.count < 1:
            raise ValueError("random sample count must be at least 1")
        if not 0.0 < self.t_clamp < 0.5:
            raise ValueError(f"t_clamp must be in (0, 0.5), got {self.t_clamp!r}")
        check_tolerances(self.atol, self.rtol)

    @classmethod
    def grid(cls, n_x: int = 21, n_y: int = 21, n_t: int = 19, **kw) -> "SamplePlan":
        return cls(strategy="grid", n_x=n_x, n_y=n_y, n_t=n_t, **kw)

    @classmethod
    def random(cls, count: int, seed: int = 0, **kw) -> "SamplePlan":
        return cls(strategy="random", count=count, seed=seed, **kw)


class FunctionPair(NamedTuple):
    f: Expr
    g: Expr


class CheckReport(NamedTuple):
    verdict: str
    samples_checked: int
    worst_gap: float
    witness: tuple[float, float, float]
    witness_lhs: float
    witness_rhs: float
    warnings: list[str] | tuple[()] = ()

    def holds(self) -> bool:
        return self.verdict == HOLDS


class EquivalenceReport(NamedTuple):
    """Three equivalent characterizations of dominance, each sampled.

    statement_holds lines up as: (1) |defect_f| <= defect_g everywhere,
    (2) g - f and g + f both in the convexity class, (3) the half-sum /
    half-difference representation built from decompose() is in the class.
    """

    dominance: CheckReport
    sum_convex: CheckReport
    diff_convex: CheckReport
    l_convex: CheckReport
    k_convex: CheckReport
    statement_holds: tuple[bool, bool, bool]
    agreement: bool


# ---------------------------------------------------------------------------
# Pointwise defects.  The sweep engine below caches per-axis products but
# MUST keep the same operation order as these scalar forms so that a
# reported witness re-evaluates bit-identically.
# ---------------------------------------------------------------------------


def _defect_parts(ev, ht, h1t, t, omt, px, py, vpx, vpy):
    rhs = ht * vpx + h1t * vpy
    lhs = ev(t * px + omt * py)
    return rhs - lhs, lhs, rhs


def phi_h_defect(
    f: Expr, h: Kernel, phi: AffineMap, x: float, y: float, t: float
) -> float:
    """Defect of f at (x, y, t) through the map phi."""
    omt = 1.0 - t
    px, py = phi.apply(x), phi.apply(y)
    ev = f.evaluate
    return _defect_parts(ev, h.value(t), h.value(omt), t, omt, px, py, ev(px), ev(py))[0]


def _gap_parts(
    pair: FunctionPair, h: Kernel, phi: AffineMap, x: float, y: float, t: float
) -> tuple[float, float, float]:
    omt = 1.0 - t
    ht, h1t = h.value(t), h.value(omt)
    px, py = phi.apply(x), phi.apply(y)
    fe, ge = pair.f.evaluate, pair.g.evaluate
    df = _defect_parts(fe, ht, h1t, t, omt, px, py, fe(px), fe(py))[0]
    dg = _defect_parts(ge, ht, h1t, t, omt, px, py, ge(px), ge(py))[0]
    lhs = abs(df)
    return dg - lhs, lhs, dg


def dominance_gap(
    pair: FunctionPair, h: Kernel, phi: AffineMap, x: float, y: float, t: float
) -> float:
    """defect_g - |defect_f| at one triple; nonnegative iff dominated there."""
    return _gap_parts(pair, h, phi, x, y, t)[0]


def _violates(gap: float, lhs: float, rhs: float, atol: float, rtol: float) -> bool:
    """gap is below -(atol + rtol * scale), or is -inf: an infinite side
    makes that threshold inf, and no scale excuses a gap of -inf."""
    return gap < -(atol + rtol * max(abs(lhs), abs(rhs))) or gap == -math.inf


# ---------------------------------------------------------------------------
# Sample generation
# ---------------------------------------------------------------------------


def _linspace(a: float, b: float, n: int) -> list[float]:
    if n == 1:
        return [a]
    last = n - 1
    out = []
    for i in range(n):
        u = i / last
        v = a * (1.0 - u) + b * u
        out.append(min(max(v, a), b))
    return out


def _t_grid(plan: SamplePlan) -> list[float]:
    lo = plan.t_clamp
    hi = 1.0 - plan.t_clamp
    pts = chebyshev_points(plan.n_t, lo, hi)
    if 0.5 not in pts:
        pts.append(0.5)
        pts.sort()
    return pts


def grid_axes(
    plan: SamplePlan, interval: Interval
) -> tuple[list[float], list[float], list[float]]:
    return (
        _linspace(interval.a, interval.b, plan.n_x),
        _linspace(interval.a, interval.b, plan.n_y),
        _t_grid(plan),
    )


# ---------------------------------------------------------------------------
# The sweep engine writes one loop for the statements a check asks for,
# with the bodies of f, g and the kernel h inlined (h with the checks of
# Kernel.value), then runs it once.  The bodies' constants are trailing
# parameters, so a loop compiles once per shape of its trees and plan.
# Statements "u", "f", "g", "l", "k" are the defect of that function, with
# l = g + f and k = g - f formed from the cached g and f values (the op
# order of the trees decompose() builds); "gap" is defect_g - |defect_f|.
# The loop keeps the op order of the scalar forms above and the evaluation
# order of the separate sweeps it replaced, so reductions, witnesses, rows
# and the fault reported first are unchanged.  Rows go to the caller's emit
# _CHUNK_ROWS at a time, so no Python call is made per sample.  Where a
# subtree of g equals f's tree (expr.copies: the same ops, variable and
# constant bits), g reads f's value at the same point: at each sample, at px
# and py in the random loop, and on the grid axes, where g's pass zips f's
# values.  f ran first and gave a finite value, so its tree would give the
# same bits there without a fault.
# A random plan draws x, y and t in the loop, in that order, each as
# rng.uniform does (a + (b - a) * r()), and maps x and y as AffineMap.apply
# does (alpha * x + beta, which raises outside the map's domain), so the loop
# holds nothing per sample.  The violation test of _violates can run in the
# loop too, keeping only the violating rows, and so can the choice of the
# REFINE_SEEDS least rows that a refining search starts from: a row is held
# only when its value is at most the REFINE_SEEDS-th least held so far.
# The same per-sample body, compiled alone, is the scalar gap of refinement.
# ---------------------------------------------------------------------------

_DERIVED = {"l": "+", "k": "-"}
_CHUNK_ROWS = 512  # rows passed to emit at a time
REFINE_SEEDS = 10
# seed rows held before trimming to the REFINE_SEEDS least: the first trim
# makes the cut finite, and the seeds are the same for any mark of at least
# REFINE_SEEDS
_SEED_BUFFER = 256
_ORDER = itemgetter(3, 0, 1, 2)  # a row's value, then its point (x, y, t)


def _least(rows: list) -> list:
    """The REFINE_SEEDS least of rows in _ORDER, ascending."""
    return heapq.nsmallest(REFINE_SEEDS, rows, key=_ORDER)


# +inf as a literal, a constant of the compiled loop rather than a global
_INF = "1e309"
# _violates in the loop; a value that is not below 0.0 never violates
_VIOLATES = "{v} < 0.0 and ({v} < -(atol + rtol * max(abs({lhs}), abs({rhs}))) or {v} == -INF)"


class _Rerun(Exception):
    """An inline op raised OverflowError or ValueError (args[0])."""


def _sides(stat: str) -> tuple[str, str, str]:
    """Loop variables holding (value, lhs, rhs) of a statement."""
    if stat == "gap":
        return "gap", "a_f", "d_g"
    return f"d_{stat}", f"{stat}m", f"r_{stat}"


def _annotate(exc: EvalError, x, y, t, axis: str | None, at) -> EvalError:
    """exc with where it came from: a sample, or the grid point at on one
    axis, in an axis pass of a grid plan (axis "x", "y" or "t")."""
    where = f"grid point {axis}={at!r}" if axis else f"sample (x={x!r}, y={y!r}, t={t!r})"
    return EvalError(exc.kind, f"{exc} while checking {where}")


_SWEEP_ENV = {
    **_EVAL_ENV,
    "DomcertError": DomcertError,
    "EvalError": EvalError,
    "OverflowError": OverflowError,
    "ValueError": ValueError,
    "INF": math.inf,
    "NAN": math.nan,
    "_Rerun": _Rerun,
    "_annotate": _annotate,
    "_least": _least,
    "_nonfinite": _nonfinite,
    "_outside": outside_error,
    "abs": abs,
    "len": len,
    "max": max,
    "min": min,
    "range": range,
    "zip": zip,
}


class _Body:
    """Source lines over the trees in roots ("u", or "f" then "g": the order
    of evaluation) for the statements in stats: the values of the functions
    at a point, their defects and the gap, in the op order of the scalar
    forms above.  guarded=True writes the bodies in the guarded form, with g
    reading nothing of f, and tests each value's finiteness and sign in
    statements of their own: the reference of the one-comparison tests.
    The trees' constants are named by slots."""

    def __init__(self, roots: dict, kernel: Node, stats: tuple, slots: _Slots, guarded: bool):
        self.roots, self.kernel, self.stats = roots, kernel, stats
        self.slots, self.guarded = slots, guarded
        self.pair = len(roots) == 2
        self.derived = [n for n in _DERIVED if n in stats]
        self.fns = list(roots) + self.derived
        self.defects = [n for n in self.fns if n in stats or (n in "fg" and "gap" in stats)]
        self.shared = copies(roots["g"], roots["f"]) if self.pair and not guarded else set()
        self.lines: list[str] = []

    def put(self, depth: int, *code: str) -> None:
        self.lines.extend("    " * depth + c for c in code)

    def evaluate(self, depth: int, n: str, at: str, p: str, neg: bool = False) -> None:
        """Value of n at the point p into the variable n + at; g reads f's
        value from f + at.  neg=True also sets neg_<n> where it is negative.

        v - v is 0.0 for finite v and nan (truthy) for inf or nan: the
        isfinite check of Expr.evaluate without a call.  With neg, one
        chained comparison, 0.0 <= v < +inf, passes a finite nonnegative
        value, and only a value it stops pays for v - v and the sign test.
        """
        dst = n + at
        if n in self.roots:
            reads = dict.fromkeys(self.shared, "f" + at) if n == "g" else None
            code = _emit(self.roots[n], p, self.slots, self.guarded, reads)
            self.put(depth, f"{dst} = {code}")
            fault = f"if {dst} - {dst}: raise _nonfinite({p})"
            flag = f"neg_{n} = True"  # past the fault, a stopped value is negative
        else:  # a fault here is raised after the pass: these sweeps ran last
            self.put(depth, f"{dst} = g{at} {_DERIVED[n]} f{at}")
            fault = f"if {dst} - {dst} and fail_{n} is None: fail_{n} = ({p}, x, y, t, axis, av)"
            flag = f"if {dst} < 0.0: neg_{n} = True"
        if neg and not self.guarded:
            self.put(depth, f"if not 0.0 <= {dst} < {_INF}:", f"    {fault}", f"    {flag}")
        else:
            self.put(depth, fault)

    def signs(self, depth: int, ats: tuple, neg: bool) -> None:
        """The guarded form's sign tests of the values at each of ats."""
        if neg and self.guarded:
            for n in self.fns:
                test = " or ".join(f"{n}{at} < 0.0" for at in ats)
                self.put(depth, f"if {test}: neg_{n} = True")

    def kernel_at(self, dst: str, t: str) -> list[str]:
        lines = [f"if not 0.0 < {t} < 1.0: raise _outside({t})",
                 f"{dst} = {_emit(self.kernel, t, self.slots, self.guarded)}"]
        if self.guarded:
            return lines + [f"if {dst} - {dst}: raise _nonfinite({t})",
                            f"if {dst} <= 0.0: raise _nonpositive({dst}, {t})"]
        return lines + [f"if not 0.0 < {dst} < {_INF}:",
                        f"    if {dst} - {dst}: raise _nonfinite({t})",
                        f"    raise _nonpositive({dst}, {t})"]

    def drawn(self, depth: int, neg: bool) -> None:
        """From a random point x, y, t (and omt = 1 - t) to the statements'
        values, with neg_ set where a function is negative if neg."""
        kernel_lines = self.kernel_at("ht", "t") + self.kernel_at("h1t", "omt")
        if self.pair:  # the pair sweep read the kernel first
            self.put(depth, *kernel_lines)
        for v in "xy":  # apply raises the GeometryError of a point off phi's domain
            self.put(depth, f"if not da <= {v} <= db: apply({v})", f"p{v} = alpha * {v} + beta")
        for n in self.fns:
            self.evaluate(depth, n, "px", "px", neg)
            self.evaluate(depth, n, "py", "py", neg)
        if not self.pair:  # the single-function sweep read it after u(px), u(py)
            self.put(depth, *kernel_lines)
        self.signs(depth, ("px", "py"), neg)
        self.put(depth, "p = t * px + omt * py")
        self.values(depth, {n: f"ht * {n}px + h1t * {n}py" for n in self.defects}, neg)

    def values(self, depth: int, weighted: dict, neg: bool) -> None:
        """The statements' values at the point p, each defect's weighted side
        given by weighted."""
        for n in self.fns:
            self.evaluate(depth, n, "m", "p", neg)
        self.signs(depth, ("m",), neg)
        for n in self.defects:
            self.put(depth, f"r_{n} = {weighted[n]}", f"d_{n} = r_{n} - {n}m")
        if "gap" in self.stats:  # abs(d_f), its zero and nan left to abs
            self.put(depth, "a_f = " + ("abs(d_f)" if self.guarded else
                                        "d_f if d_f > 0.0 else -d_f if d_f < 0.0 else abs(d_f)"),
                     "gap = d_g - a_f")


def _sweep_source(
    roots: dict,
    kernel: Node,
    stats: tuple,
    grid: bool,
    rows: bool,
    slots: _Slots,
    guarded: bool = False,
    keep: bool = False,
    wide: bool = False,
    seeds: bool = False,
) -> str:
    """Source of _sweep: one pass reducing stats, roots mapping names to trees.

    rows=True passes the samples' rows to emit, _CHUNK_ROWS at a time;
    keep=True stores the rows that violate under their point (x, y, t) in
    the dict found; seeds=True leaves the REFINE_SEEDS least rows in _ORDER,
    none with a nan value, in the list seeds.
    guarded=True writes the bodies in the guarded form, with g reading
    nothing of f.  wide=True draws random x and y by weights, for an
    interval whose width b - a overflows.  The trees' constants are named
    by slots; _sweep takes them as parameters after atol and rtol.
    """
    src = _Body(roots, kernel, stats, slots, guarded)
    put, evaluate, kernel_at = src.put, src.evaluate, src.kernel_at
    fns, defects, derived = src.fns, src.defects, src.derived

    def flush(depth: int) -> None:
        # emit's own OverflowError or ValueError reaches the caller as it is
        put(depth, "try:", "    emit(chunk)",
            "except (OverflowError, ValueError):", "    emitting = True", "    raise")

    def reduce(depth: int) -> None:
        for s in stats:  # a value above the worst pays one comparison
            v, lhs, rhs = _sides(s)
            put(depth, f"if not {v} > w_{s}:", f"    if {v} != {v}: nan_{s} += 1",
                f"    elif {v} < w_{s} or (x, y, t) < wit_{s}:",
                f"        w_{s}, wit_{s}, wl_{s}, wr_{s} = {v}, (x, y, t), {lhs}, {rhs}")
        # a convexity row carries the defect alone
        v, lhs, rhs = _sides(stats[-1])
        row = "(x, y, t, %s)" % ", ".join((v, lhs, rhs) if "gap" in stats else ("d_u",))
        if rows:
            if keep or seeds:
                put(depth, f"row = {row}")
                row = "row"
            put(depth, f"put_row({row})", f"if len(chunk) >= {_CHUNK_ROWS}:")
            flush(depth + 1)
            put(depth + 1, "chunk = []", "put_row = chunk.append")
        if keep:
            put(depth, f"if {_VIOLATES.format(v=v, lhs=lhs, rhs=rhs)}:",
                f"    found[(x, y, t)] = {row}")
        if seeds:  # nan <= cut is False
            put(depth, f"if {v} <= cut:", f"    put_seed({row})",
                f"    if len(seeds) >= {_SEED_BUFFER}:",
                "        seeds[:] = _least(seeds)", "        cut = seeds[-1][3]")

    # axis names the axis pass under way on a grid plan, av its grid point
    put(1, "x = y = t = axis = av = None")
    if rows:
        put(1, "emitting = False", "chunk = []", "put_row = chunk.append")
    if seeds:
        put(1, "cut = INF", "put_seed = seeds.append")
    for s in stats:
        put(1, f"w_{s}, wit_{s}, wl_{s}, wr_{s}, nan_{s} = INF, (NAN, NAN, NAN), NAN, NAN, 0")
    put(1, *(f"fail_{n} = None" for n in derived), "try:")
    if grid:
        for n in fns:  # each function over the x axis, then over the y axis
            reads = "fg" if n in _DERIVED else "f" if n == "g" and src.shared else ""
            for a in "xy":
                names = ", ".join(["av", "p", *(f"{r}_v" for r in reads)])
                lists = ", ".join([f"{a}s", f"p{a}s", *(f"{r}_{a}" for r in reads)])
                put(2, f"axis = {a!r}", f"{n}_{a} = []", f"for {names} in zip({lists}):")
                evaluate(3, n, "_v", "p")
                put(3, f"{n}_{a}.append({n}_v)")
        put(2, *(f"neg_{n} = min({n}_x) < 0.0 or min({n}_y) < 0.0" for n in fns))
        put(2, "omts = [1.0 - tv for tv in ts]", "axis = 't'")
        for hs, at in (("hts", "ts"), ("h1ts", "omts")):
            put(2, f"{hs} = []", f"for av, tv in zip(ts, {at}):")
            put(3, *kernel_at("h_v", "tv"), f"{hs}.append(h_v)")
        put(2, "axis = None")
        put(2, "tys = [[ov * py for ov in omts] for py in pys]")
        put(2, *(f"h{n}_y = [[h1 * v for h1 in h1ts] for v in {n}_y]" for n in defects))

        def loop(depth: int, names: list[str], lists: list[str]) -> None:
            put(depth, f"for {', '.join(names)} in zip({', '.join(lists)}):")

        loop(2, ["x", "px", *(f"{n}_xi" for n in defects)],
             ["xs", "pxs", *(f"{n}_x" for n in defects)])
        put(3, "txs = [tv * px for tv in ts]")
        put(3, *(f"h{n}_xi = [ht * {n}_xi for ht in hts]" for n in defects))
        loop(3, ["y", "tys_j", *(f"h{n}_yj" for n in defects)],
             ["ys", "tys", *(f"h{n}_y" for n in defects)])
        loop(4, ["t", "tx", "ty", *(f"h{n}{a}" for n in defects for a in "xy")],
             ["ts", "txs", "tys_j", *(f"h{n}_{a}" for n in defects for a in ("xi", "yj"))])
        put(5, "p = tx + ty")
        src.values(5, {n: f"h{n}x + h{n}y" for n in defects}, True)
        reduce(5)
    else:
        put(2, *(f"neg_{n} = False" for n in fns), "for _ in range(count):")
        for v in "xy":
            if wide:  # a + w * r() would be inf or nan; clamped as in _linspace
                put(3, "u = r()", f"{v} = min(max(a * (1.0 - u) + b * u, a), b)")
            else:
                put(3, f"{v} = a + w * r()")
        put(3, "t = lo + tw * r()", "omt = 1.0 - t")
        src.drawn(3, True)
        reduce(3)
    if rows:  # the last chunk
        put(2, "if chunk:")
        flush(3)
    if seeds:
        put(2, "seeds[:] = _least(seeds)")
    put(1, "except EvalError as exc:", "    raise _annotate(exc, x, y, t, axis, av) from exc")
    if not guarded:  # an inline op's: the guarded form names it
        put(1, "except (OverflowError, ValueError) as exc:",
            *(["    if emitting: raise"] if rows else []), "    raise _Rerun(exc) from None")
    put(1, "return {%s}, {%s}, {%s}, {%s}" % (
        ", ".join(f"{s!r}: (w_{s}, wit_{s}, wl_{s}, wr_{s})" for s in stats),
        ", ".join(f"{n!r}: neg_{n}" for n in fns),
        ", ".join(f"{s!r}: nan_{s}" for s in stats),
        ", ".join(f"{n!r}: fail_{n}" for n in derived)))
    if grid:
        params = "xs, ys, ts, pxs, pys"
    else:
        params = "count, r, a, b, w, lo, tw, da, db, alpha, beta, apply"
    params = ", ".join([params, "emit, found", *(["seeds"] if seeds else []), "atol, rtol",
                        *slots.names.values()])
    return f"def _sweep({params}):\n" + "\n".join(src.lines) + "\n"


def _gap_source(roots: dict, kernel: Node, slots: _Slots) -> str:
    """Source of _bind, which returns (gap, |defect_f|, defect_g) at a point
    (x, y, t) as a function: the per-sample body of the random plan's loop,
    with its kernel, phi-domain and finiteness checks.  Where the body
    raises, the result is fallback's (_gap_parts, which names the fault)."""
    src = _Body(roots, kernel, ("gap",), slots, False)
    src.put(3, "omt = 1.0 - t")
    src.drawn(3, False)
    src.put(3, "return gap, a_f, d_g")
    params = ", ".join(["da, db, alpha, beta, apply, fallback", *slots.names.values()])
    return (f"def _bind({params}):\n    def _gap(x, y, t):\n        try:\n"
            + "\n".join(src.lines)
            + "\n        except (DomcertError, OverflowError, ValueError):"
            "\n            return fallback(x, y, t)\n    return _gap\n")


class _SweepData(NamedTuple):
    samples: int
    worst: dict  # statement -> (worst value, witness, lhs, rhs)
    neg: dict  # function -> whether it took a negative sampled value
    nans: dict  # statement -> how many samples gave it a nan value


def _plan_sweep(
    fns: tuple[Expr, ...],
    stats: tuple[str, ...],
    h: Kernel,
    phi: AffineMap,
    interval: Interval,
    plan: SamplePlan,
    emit=None,
    found: dict | None = None,
    seeds: list | None = None,
) -> _SweepData:
    """One pass over the plan reducing every statement in stats.

    fns is (u,) for the statement "u", else (f, g).  A row of a sample is
    (x, y, t, value, lhs, rhs) of the last statement, or (x, y, t, defect)
    for "u".  emit, when given, is called with a new list of the next rows
    in plan order, _CHUNK_ROWS of them but the last, until every sample's
    row has been passed; the rows of a chunk that a fault cuts short are
    dropped.  An OverflowError or ValueError of emit's own reaches the
    caller as it is.
    found, when given, gets each row that violates the plan's tolerances
    (_violates) under its point (x, y, t), a later row replacing an equal
    point's.  seeds, when given, ends up holding the REFINE_SEEDS least rows
    in _ORDER, ascending, none with a nan value (_least of those rows).
    """
    grid = plan.strategy == "grid"
    roots = dict(zip("u" if len(fns) == 1 else "fg", (e.root for e in fns)))
    wide = False
    if grid:
        xs, ys, ts = grid_axes(plan, interval)
        args = (xs, ys, ts, [phi.apply(v) for v in xs], [phi.apply(v) for v in ys])
        samples = len(xs) * len(ys) * len(ts)
    else:
        a, b, lo = interval.a, interval.b, plan.t_clamp
        samples, wide = plan.count, b - a == math.inf
        # the widths rng.uniform(a, b) and rng.uniform(lo, 1.0 - lo) draw with
        args = (a, b, b - a, lo, (1.0 - lo) - lo, phi.domain.a, phi.domain.b, phi.alpha,
                phi.beta, phi.apply)

    def run(guarded: bool, emit, found, seeds):
        env = {**_SWEEP_ENV, "_nonpositive": h.nonpositive_error}
        slots = _Slots()
        source = _sweep_source(roots, h.expr.root, stats, grid, emit is not None, slots,
                               guarded, found is not None, wide, seeds is not None)
        exec(_shape_code(source, "exec"), env)
        # each run draws a random plan from the start
        draws = () if grid else (samples, random.Random(plan.seed).random)
        held = () if seeds is None else (seeds,)
        return env["_sweep"](*draws, *args, emit, found, *held, plan.atol, plan.rtol,
                             *slots.values)

    try:
        worst, neg, nans, fails = run(False, emit, found, seeds)
    except _Rerun as rerun:
        run(True, None, None, None)  # faults at the same op and sample, and names the op
        raise rerun.args[0] from None
    for n in _DERIVED:  # the sum sweep ran before the difference sweep
        if fails.get(n):
            p, *where = fails[n]
            raise _annotate(_nonfinite(p), *where)
    return _SweepData(samples, worst, neg, nans)


def _gap_function(pair: FunctionPair, h: Kernel, phi: AffineMap):
    """_gap_parts(pair, h, phi, x, y, t) as a function of (x, y, t), through
    the compiled per-sample body: the same bits where it returns.  Where the
    body raises, _gap_parts runs instead and raises its fault."""
    slots = _Slots()
    source = _gap_source({"f": pair.f.root, "g": pair.g.root}, h.expr.root, slots)
    env = {**_SWEEP_ENV, "_nonpositive": h.nonpositive_error}
    exec(_shape_code(source, "exec"), env)

    def fallback(x, y, t):
        return _gap_parts(pair, h, phi, x, y, t)

    return env["_bind"](phi.domain.a, phi.domain.b, phi.alpha, phi.beta, phi.apply, fallback,
                        *slots.values)


def _finish_report(data: _SweepData, stat: str, plan: SamplePlan, roles: tuple) -> CheckReport:
    """The report of statement stat; raises DomcertError when no sample
    compared, its witness still the loop's (nan, nan, nan) placeholder."""
    worst, witness, lhs, rhs = data.worst[stat]
    if worst == math.inf:
        name = {"u": "convexity defect of the function", "g": "convexity defect of g",
                "gap": "dominance gap", "l": "convexity defect of g + f",
                "k": "convexity defect of g - f"}[stat]
        raise DomcertError(f"no sampled {name} is below +inf (each of the {data.samples} "
                           "samples is +inf or nan), so the samples decide nothing")
    warnings = [NEG_VALUES_WARNING.format(role=role) for role, n in roles if data.neg[n]]
    if data.nans[stat]:
        warnings.append(NAN_WARNING.format(nans=data.nans[stat], samples=data.samples))
    if _violates(worst, lhs, rhs, plan.atol, plan.rtol):
        verdict = VIOLATED
    else:
        verdict = HOLDS
        if worst < 0.0:
            warnings.append(WITHIN_TOL_WARNING)
    return CheckReport(verdict, data.samples, worst, witness, lhs, rhs, warnings)


# ---------------------------------------------------------------------------
# Public checks
# ---------------------------------------------------------------------------

_PAIR_ROLES = (("f", "f"), ("g", "g"))


def check_phi_h_convex(
    f: Expr,
    h: Kernel,
    phi: AffineMap,
    interval: Interval,
    plan: SamplePlan,
    emit=None,
) -> CheckReport:
    """Sample the convexity defect of f; worst_gap is the minimum defect.

    emit, when given, is called with new lists of the samples' rows
    (x, y, t, defect) in plan order, at most _CHUNK_ROWS (512) at a time,
    from the sweep loop itself; a fault drops the rows of its chunk.
    """
    data = _plan_sweep((f,), ("u",), h, phi, interval, plan, emit)
    return _finish_report(data, "u", plan, (("function", "u"),))


def _require_dominator(gate: CheckReport) -> None:
    if gate.verdict == VIOLATED:
        raise PreconditionError(
            "dominator g fails its convexity check: worst defect "
            f"{gate.worst_gap!r} at (x, y, t) = {gate.witness!r}"
        )


def check_dominated(
    pair: FunctionPair,
    h: Kernel,
    phi: AffineMap,
    interval: Interval,
    plan: SamplePlan,
    emit=None,
) -> CheckReport:
    """Sample the dominance gap of (f, g); g must pass its own convexity check.

    Raises PreconditionError when the dominator g is itself refuted on the
    same plan, since the dominance statement presumes g in the class.  The
    gate and the gap come from one pass; emit, when given, is called with
    new lists of the samples' rows (x, y, t, gap, |defect_f|, defect_g) in
    plan order, at most _CHUNK_ROWS (512) at a time, from the sweep loop
    itself; a fault drops the rows of its chunk.
    """
    try:
        data = _plan_sweep((pair.f, pair.g), ("g", "gap"), h, phi, interval, plan, emit)
    except DomcertError:
        # g's own fault or refutation outranks a fault of f: decide on g alone
        _require_dominator(check_phi_h_convex(pair.g, h, phi, interval, plan))
        raise
    _require_dominator(_finish_report(data, "g", plan, ()))
    return _finish_report(data, "gap", plan, _PAIR_ROLES)


def decompose(pair: FunctionPair) -> tuple[Expr, Expr]:
    """Return (l, k) = (g + f, g - f) as expression trees, unsimplified."""
    l = combine("+", pair.g, pair.f)
    k = combine("-", pair.g, pair.f)
    return l, k


def equivalence_report(
    pair: FunctionPair,
    h: Kernel,
    phi: AffineMap,
    interval: Interval,
    plan: SamplePlan,
) -> EquivalenceReport:
    """Evaluate the three equivalent dominance characterizations on one plan.

    Unlike check_dominated, g's own convexity is not a gate here; it is
    part of what the statements themselves measure.  One pass evaluates f
    and g once per point and reduces the gap and the defects of g + f and
    g - f.  decompose() builds those same two trees, so the third
    statement's reports (l_convex, k_convex) are the second's.
    """
    data = _plan_sweep((pair.f, pair.g), ("gap", "l", "k"), h, phi, interval, plan)
    dom = _finish_report(data, "gap", plan, _PAIR_ROLES)
    sum_check = _finish_report(data, "l", plan, (("function", "l"),))
    diff_check = _finish_report(data, "k", plan, (("function", "k"),))
    convex_both = diff_check.holds() and sum_check.holds()
    return EquivalenceReport(
        dominance=dom,
        sum_convex=sum_check,
        diff_convex=diff_check,
        l_convex=sum_check,
        k_convex=diff_check,
        statement_holds=(dom.holds(), convex_both, convex_both),
        agreement=dom.holds() == convex_both,
    )
