"""Adaptive quadrature on finite intervals plus an open-(0,1) integrator.

The panel rule is the embedded 7-point Gauss / 15-point Kronrod pair; the
difference between the two rule values is the panel error estimate.  The
adaptive driver always splits the panel with the largest estimate (ties go
to the leftmost), so runs are deterministic.

A panel is straight-line code calling the integrand's raw body (Expr.raw
for an expression, else the callable itself) and checking once that both
sums are finite.  A panel that raises EvalError, ArithmeticError or
ValueError there, or ends with a sum that is not finite, is computed again
by the looped form through _guarded, which names the fault and retries a
fault at an end one nudge inside; a panel's bits do not depend on which
pass computed it.

integrate_open01 handles integrands only defined on the open unit interval
by integrating over [eps, 1-eps] for eps = 1e-2, 1e-4, ..., 1e-12.  If the
last step changed the value by more than 1% the integral is reported as
+inf; otherwise the tail is extrapolated geometrically: with d the last
two steps and rho = |d_last| / |d_prev| < 0.9, it adds d_last * rho /
(1 - rho).  Divergence is a value here, not an error.  Known misreadings:
a convergent t^-p with p above about 0.8 still changes by more than 1% at
the last step and comes back +inf (t^-0.9, whose integral is 10, does), and
an integrand that diverges slower than any power of eps can pass as
convergent with a large error estimate.
"""

from __future__ import annotations

import math
from heapq import heappush, heappop
from typing import Callable, NamedTuple

from .errors import DomcertError
from .expr import EvalError, Expr


class QuadratureError(DomcertError):
    """reason is 'budget' (panel limit hit) or 'eval' (integrand fault)."""

    def __init__(self, reason: str, message: str):
        self.reason = reason
        super().__init__(message)


class QuadResult(NamedTuple):
    value: float
    error_estimate: float
    subdivisions: int


# 15-point Kronrod nodes (positive half, descending) with Kronrod weights;
# every second node starting at index 1 is also a 7-point Gauss node.
_XGK = (
    0.99145537112081264,
    0.94910791234275852,
    0.86486442335976907,
    0.74153118559939444,
    0.58608723546769113,
    0.40584515137739717,
    0.20778495500789847,
)
_WGK = (
    0.022935322010529225,
    0.063092092629978553,
    0.10479001032225018,
    0.14065325971552592,
    0.16900472663926790,
    0.19035057806478541,
    0.20443294007529889,
)
_WG = (
    0.12948496616886969,
    0.27970539148927664,
    0.38183005050511894,
)
# Center weights chosen so each rule integrates a constant exactly
# (weights sum to exactly 2.0 in double precision).
_WGK_CENTER = 2.0 - 2.0 * math.fsum(_WGK)
_WG_CENTER = 2.0 - 2.0 * math.fsum(_WG)


def _looped_panel(fun, a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod pass over [a, b]: (kronrod value, error estimate).

    The reference form, run through _guarded when the straight-line pass
    below faults or ends with a non-finite sum.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    acc_k = 0.0
    acc_g = 0.0
    # symmetric pairs first, center last: keeps constants exact by
    # construction of the center weights above
    for i in range(7):
        dx = h * _XGK[i]
        fs = fun(c - dx) + fun(c + dx)
        acc_k += _WGK[i] * fs
        if i % 2 == 1:
            acc_g += _WG[i // 2] * fs
    fc = fun(c)
    acc_k += _WGK_CENTER * fc
    acc_g += _WG_CENTER * fc
    return h * acc_k, abs(h * (acc_k - acc_g))


def _panel(fun, a: float, b: float) -> tuple[float, float] | None:
    """_looped_panel in straight-line code with the nodes and weights as
    literals, calling fun unguarded: the same calls, and the same sums in
    the same order, so the same bits.  None when a sum is not finite (the
    difference of the two sums is then inf or nan; it can also overflow on
    its own, which costs only a rerun)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    d = h * 0.9914553711208126
    s0 = fun(c - d) + fun(c + d)
    d = h * 0.9491079123427585
    s1 = fun(c - d) + fun(c + d)
    d = h * 0.8648644233597691
    s2 = fun(c - d) + fun(c + d)
    d = h * 0.7415311855993945
    s3 = fun(c - d) + fun(c + d)
    d = h * 0.5860872354676911
    s4 = fun(c - d) + fun(c + d)
    d = h * 0.4058451513773972
    s5 = fun(c - d) + fun(c + d)
    d = h * 0.20778495500789848
    s6 = fun(c - d) + fun(c + d)
    fc = fun(c)
    k = (0.0 + 0.022935322010529224 * s0 + 0.06309209262997856 * s1
         + 0.10479001032225017 * s2 + 0.14065325971552592 * s3
         + 0.1690047266392679 * s4 + 0.19035057806478542 * s5
         + 0.20443294007529889 * s6 + 0.20948214108472785 * fc)
    e = k - (0.0 + 0.1294849661688697 * s1 + 0.27970539148927664 * s3
             + 0.3818300505051189 * s5 + 0.4179591836734695 * fc)
    if e - e == 0.0:
        return h * k, abs(h * e)
    return None


def _guarded(fun: Callable[[float], float], a: float, b: float):
    """Wrap an integrand: faults within a hair of a/b retry one nudge inside."""
    nudge = 1e-12 * (b - a)

    def wrapped(x: float) -> float:
        try:
            return fun(x)
        except (EvalError, ArithmeticError, ValueError) as exc:
            if abs(x - a) <= nudge or abs(b - x) <= nudge:
                retry = a + nudge if abs(x - a) <= nudge else b - nudge
                try:
                    return fun(retry)
                except (EvalError, ArithmeticError, ValueError) as exc2:
                    raise QuadratureError(
                        "eval", f"integrand failed at x={retry!r}: {exc2}"
                    ) from exc2
            raise QuadratureError("eval", f"integrand failed at x={x!r}: {exc}") from exc

    return wrapped


def integrate(
    fun: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_panels: int = 1_000_000,
) -> QuadResult:
    """Adaptively integrate fun over [a, b] to the requested tolerance.

    fun is a callable or an Expr, whose raw body the panels call.
    Returns a QuadResult whose error_estimate is the summed panel
    estimates.  Raises QuadratureError('budget') when the panel limit is
    reached first and QuadratureError('eval') when the integrand faults
    at an interior node.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got [{a!r}, {b!r}]")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    raw = fun.raw if isinstance(fun, Expr) else fun

    def panel(pa: float, pb: float) -> tuple[float, float]:
        try:
            out = _panel(raw, pa, pb)
        except (EvalError, ArithmeticError, ValueError):
            out = None
        if out is None:  # the guarded loop names the fault, or gives the same values
            out = _looped_panel(_guarded(fun, a, b), pa, pb)
        return out

    value, err = panel(a, b)
    # heap entries: (-error, left, right, value, error); leftmost wins ties
    heap: list[tuple[float, float, float, float, float]] = []
    heappush(heap, (-err, a, b, value, err))
    total_err = err
    panels = 1
    frozen: list[tuple[float, float, float, float, float]] = []
    frozen_err = 0.0

    while total_err + frozen_err > tol and heap:
        if panels >= max_panels:
            raise QuadratureError(
                "budget",
                f"panel budget {max_panels} exhausted with error "
                f"{total_err + frozen_err!r} > tol {tol!r}",
            )
        entry = heappop(heap)
        _, pa, pb, pv, pe = entry
        mid = 0.5 * (pa + pb)
        if not pa < mid < pb:
            # cannot split further at double precision; park the panel
            frozen.append(entry)
            frozen_err += pe
            total_err -= pe
            continue
        lv, le = panel(pa, mid)
        rv, re_ = panel(mid, pb)
        heappush(heap, (-le, pa, mid, lv, le))
        heappush(heap, (-re_, mid, pb, rv, re_))
        total_err += le + re_ - pe
        panels += 1

    pieces = sorted(heap + frozen, key=lambda p: p[1])
    total_value = math.fsum(p[3] for p in pieces)
    total_error = math.fsum(p[4] for p in pieces)
    return QuadResult(total_value, total_error, len(pieces))


_LADDER = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12)


def integrate_open01(
    fun: Callable[[float], float],
    tol: float = 1e-10,
    max_panels: int = 1_000_000,
) -> QuadResult:
    """Integrate over the open interval (0, 1), tolerating endpoint blowup.

    A divergent integral comes back as QuadResult(inf, inf, n); check
    math.isinf(result.value) rather than expecting an exception.
    """
    results = [
        integrate(fun, eps, 1.0 - eps, tol, max_panels=max_panels) for eps in _LADDER
    ]
    values = [r.value for r in results]
    subdivisions = sum(r.subdivisions for r in results)

    d_last = values[-1] - values[-2]
    if abs(d_last) > 0.01 * max(abs(values[-1]), 1e-300):
        return QuadResult(math.inf, math.inf, subdivisions)

    # geometric tail extrapolation from the last two refinements
    d_prev = values[-2] - values[-3]
    tail = 0.0
    if d_last != 0.0 and d_prev != 0.0:
        rho = abs(d_last) / abs(d_prev)
        if rho < 0.9:
            tail = d_last * rho / (1.0 - rho)
    value = values[-1] + tail
    err = results[-1].error_estimate + abs(d_last) + abs(tail)
    return QuadResult(value, err, subdivisions)
