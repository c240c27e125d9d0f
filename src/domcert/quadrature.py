"""Adaptive quadrature on finite intervals plus an open-(0,1) integrator.

The panel rule is the embedded 7-point Gauss / 15-point Kronrod pair; the
difference between the two rule values is the panel error estimate.  The
adaptive driver always splits the panel with the largest estimate (ties go
to the leftmost), so runs are deterministic.

The rule is written once, as the straight-line _panel, and a panel runs it
once or twice.  The first pass calls the integrand's raw body (Expr.raw
for an expression, else the callable itself).  A pass that raises
EvalError, ArithmeticError or ValueError, or ends with an estimate that is
not finite, is run again on the integrand through _guarded, which names
the fault and retries a fault at an end one nudge inside.  Where the raw
body returns a finite value the integrand returns the same bits, so a
panel's bits do not depend on which pass computed it.

Every midpoint in the package is midpoint(a, b), which takes halves only
when a + b overflows, so intervals near the top of the float range keep
finite panel centers.  integrate's total is +-inf when it overflows and
nan when the panels hold inf and -inf, where math.fsum would raise.

integrate_split, the entry point for an integral of an Expr, splits [a, b]
at the kinks of its abs(v) subtrees with an affine v (analysis.breakpoints),
where a panel can miss the kink with an estimate of zero: each kink is the
float where the evaluated v changes sign.  Any other callable or tree is
one call of integrate, which never splits.

integrate_open01 handles integrands only defined on the open unit interval
by integrating over [eps, 1-eps] with integrate_split for eps = 1e-8, 1e-10
and 1e-12.  If the last step changed the value by more than 1% the
integral is reported as +inf; otherwise the tail is extrapolated
geometrically: with d the last two steps and rho = |d_last| / |d_prev| <
0.9, it adds d_last * rho / (1 - rho).  Divergence is a value here, not an
error.  kernels._integral calls it only for a tree without a power form or a
sum of them.  An integrand that diverges slower than any power of eps can
pass as convergent with a large error estimate.
"""

from __future__ import annotations

import math
from heapq import heappush, heappop
from typing import Callable, NamedTuple

from .errors import ReasonError
from .analysis import breakpoints
from .expr import EvalError, Expr


class QuadratureError(ReasonError):
    """reason is 'budget' (panel limit hit) or 'eval' (integrand fault)."""


class QuadResult(NamedTuple):
    value: float
    error_estimate: float
    subdivisions: int


def midpoint(a: float, b: float) -> float:
    """0.5 * (a + b), from halves only when a + b overflows: a finite sum
    keeps its bits.  Half the width of [a, b] is midpoint(b, -a)."""
    m = 0.5 * (a + b)
    if math.isinf(m):
        return 0.5 * a + 0.5 * b
    return m


def _panel(fun, a: float, b: float) -> tuple[float, float]:
    """One pass of the 7-point Gauss / 15-point Kronrod pair (QUADPACK's
    qk15) over [a, b]: (Kronrod value, |Kronrod - Gauss| as its error
    estimate).  The Kronrod nodes go in symmetric pairs from the outside
    in, left node first, then the center; every second pair is also a
    Gauss pair.  Nothing is checked: a fault of fun propagates, and a sum
    that is not finite leaves an estimate that is not finite."""
    c = midpoint(a, b)
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
    # each center weight is 2 - 2*math.fsum(the rule's other weights), so
    # that both rules integrate a dyadic constant exactly
    k = (0.0 + 0.022935322010529224 * s0 + 0.06309209262997856 * s1
         + 0.10479001032225017 * s2 + 0.14065325971552592 * s3
         + 0.1690047266392679 * s4 + 0.19035057806478542 * s5
         + 0.20443294007529889 * s6 + 0.20948214108472785 * fc)
    e = k - (0.0 + 0.1294849661688697 * s1 + 0.27970539148927664 * s3
             + 0.3818300505051189 * s5 + 0.4179591836734695 * fc)
    return h * k, abs(h * e)


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

    fun is a callable or an Expr, whose raw body each panel calls first;
    a panel that faults there or ends with an estimate that is not finite
    runs again through _guarded(fun, a, b).  Returns a QuadResult whose
    error_estimate is the summed panel estimates.  Raises
    QuadratureError('budget') when the panel limit is reached first and
    QuadratureError('eval') when the integrand faults at an interior node,
    and ValueError unless a < b and b - a is finite.
    """
    if not (a < b and math.isfinite(b - a)):
        raise ValueError(f"need a < b with a finite width b - a, got [{a!r}, {b!r}]")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    raw = fun.raw if isinstance(fun, Expr) else fun

    def panel(pa: float, pb: float) -> tuple[float, float]:
        try:
            value, err = _panel(raw, pa, pb)
        except (EvalError, ArithmeticError, ValueError):
            err = math.nan
        if err - err != 0.0:  # through _guarded: it names the fault, or gives the same bits
            value, err = _panel(_guarded(fun, a, b), pa, pb)
        return value, err

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
        mid = midpoint(pa, pb)
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

    pieces = heap + frozen  # _total is exactly rounded: the order is free
    return QuadResult(_total([p[3] for p in pieces]), _total([p[4] for p in pieces]),
                      len(pieces))


def _total(parts: list[float]) -> float:
    """math.fsum(parts), or where fsum raises: +-inf for a total beyond the
    largest float (summed at a power-of-two scale that keeps every partial
    sum finite), nan for inf and -inf among the parts."""
    try:
        return math.fsum(parts)
    except OverflowError:
        scale = 2.0 ** len(parts).bit_length()
        return math.fsum([p / scale for p in parts]) * scale
    except ValueError:  # inf and -inf among the parts
        return math.nan


def integrate_split(fun: Callable[[float], float], a: float, b: float, tol: float) -> QuadResult:
    """integrate(fun, a, b, tol) split at the kinks of an Expr fun: the pieces get
    equal shares of tol, not below the least double, and add up with _total."""
    valid = a < b and math.isfinite(b - a) and tol > 0.0  # else integrate refuses it whole
    edges = [a, *breakpoints(fun, a, b), b] if valid and isinstance(fun, Expr) else [a, b]
    if len(edges) == 2:
        return integrate(fun, a, b, tol)
    share = max(tol / (len(edges) - 1), 5e-324)
    parts = [integrate(fun, p, q, share) for p, q in zip(edges, edges[1:])]
    return QuadResult(_total([p.value for p in parts]),
                      _total([p.error_estimate for p in parts]),
                      sum(p.subdivisions for p in parts))


_LADDER = (1e-8, 1e-10, 1e-12)


def integrate_open01(fun: Callable[[float], float], tol: float = 1e-10) -> QuadResult:
    """Integrate over the open interval (0, 1), tolerating endpoint blowup.

    A divergent integral comes back as QuadResult(inf, inf, n); check
    math.isinf(result.value) rather than expecting an exception.
    """
    results = [integrate_split(fun, eps, 1.0 - eps, tol) for eps in _LADDER]
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
