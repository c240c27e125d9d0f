"""Weighting kernels h on the open unit interval.

Every kernel carries its h as an expression in t.  Built-in kinds and
their constants, fixed when the kernel is built:

    kind         h(t)    h(1/2)   1/(2 h(1/2))   integral over (0,1)
    linear       t       1/2      1              1/2
    power        t^s     2^-s     2^(s-1)        1/(s+1)     (0 < s < 1)
    reciprocal   1/t     2        1/4            +inf
    one          1       1        1/2            1

Custom kernels are arbitrary positive expressions in t; positivity and
evaluability are spot-checked point by point on a fixed 4097-point Chebyshev
grid at construction, and the first bad point raises.  The integral is
computed numerically (possibly +inf).

A custom kernel's constants are computed once per process for each
expression tree and quad_tol, and the 128 most recent are kept: a later
build of an equal tree, in any spelling, skips the probe and the integral
and keeps its own expression, so describe() shows its own source.  A build
that fails is never kept; it runs again in full and raises again.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import ReasonError
from .expr import EvalError, Expr, parse
from .quadrature import QuadratureError, integrate_open01, midpoint
from .record import Record

PROBE_POINTS = 4097


class KernelError(ReasonError):
    """reason is 'invalid', 'nonpositive' or 'domain'."""


def chebyshev_points(n: int, lo: float, hi: float) -> list[float]:
    """n Chebyshev-spaced points strictly inside (lo, hi), ascending."""
    mid, half = midpoint(lo, hi), midpoint(hi, -lo)  # half is half the width
    pts = [mid + half * math.cos(math.pi * (2 * j - 1) / (2 * n)) for j in range(1, n + 1)]
    pts.reverse()
    return pts


@lru_cache(maxsize=None)
def _probe_grid() -> list[float]:
    return chebyshev_points(PROBE_POINTS, 0.0, 1.0)


# kind -> (h(t), h(1/2), 1 / (2 h(1/2)), integral over (0, 1)) of the table above
_BUILT_IN = {
    "linear": lambda s: ("t", 0.5, 1.0, 0.5),
    "power": lambda s: (f"t^{s!r}", 0.5 ** s, 2.0 ** (s - 1.0), 1.0 / (s + 1.0)),
    "reciprocal": lambda s: ("1/t", 2.0, 0.25, math.inf),
    "one": lambda s: ("1", 1.0, 0.5, 1.0),
}


@lru_cache(maxsize=256)
def _built_in_expr(source: str) -> Expr:
    """parse(source), once per source: an Expr is immutable, so kernels share it."""
    return parse(source)


def outside_error(t: float) -> EvalError:
    return EvalError("domain", f"kernel argument {t!r} outside (0, 1)")


class Kernel(Record):
    """h(t) = expr, with its constants fixed here: closed forms for the
    built-in kinds, computed with quad_tol for a custom expression.  Raises
    KernelError for an invalid kind, exponent or expression.  The constants
    are fields: they take part in equality and hashing.
    """

    # midpoint_coefficient is 1 / (2 h(1/2))
    __slots__ = ("kind", "s", "expr", "half_value", "midpoint_coefficient", "integral",
                 "integral_error")

    def __init__(
        self,
        kind: str,
        s: float | None = None,
        expr: Expr | None = None,
        quad_tol: float = 1e-10,
    ):
        if kind not in (*_BUILT_IN, "custom"):
            raise KernelError("invalid", f"unknown kernel kind {kind!r}")
        if kind != "power":
            s = None
        elif s is None or not (0.0 < s < 1.0):
            raise KernelError("invalid", f"power kernel needs 0 < s < 1, got {s!r}")
        if kind == "custom":
            half, coefficient, integral, error = _custom_constants(expr, quad_tol)
        else:
            source, half, coefficient, integral = _BUILT_IN[kind](s)
            expr, error = _built_in_expr(source), 0.0
        self._set(kind, s, expr, half, coefficient, integral, error)

    def value(self, t: float) -> float:
        """h(t) for t in the open unit interval; always positive."""
        if not 0.0 < t < 1.0:
            raise outside_error(t)
        v = self.expr.evaluate(t)
        if v <= 0.0:
            raise self.nonpositive_error(v, t)
        return v

    def nonpositive_error(self, v: float, t: float) -> KernelError:
        return KernelError(
            "nonpositive", f"{self.kind} kernel {self.expr.source!r} is {v!r} at t={t!r}"
        )

    @property
    def divergent(self) -> bool:
        return math.isinf(self.integral)

    def describe(self) -> str:
        return f"{self.kind}: h(t) = {self.expr.source}"


@lru_cache(maxsize=128)
def _custom_constants(expr: Expr | None, quad_tol: float) -> tuple[float, ...]:
    """(h(1/2), 1 / (2 h(1/2)), integral, its error) of a custom kernel.
    Memoized on (expr, quad_tol): Expr equality compares the tree and the
    variable, not the spelling, and keeps 0.0 and -0.0 apart.  A build that
    raises is not stored, so it raises again, naming its own source."""
    if expr is None:
        raise KernelError("invalid", "custom kernel needs an expression")
    if expr.var_name not in (None, "t"):
        raise KernelError(
            "invalid", f"custom kernels use the variable t, got '{expr.var_name}'"
        )
    _check_probe(expr)
    half = expr.evaluate(0.5)
    try:
        result = integrate_open01(expr, quad_tol)
    except QuadratureError as exc:
        if exc.reason == "eval":
            raise KernelError(
                "domain", f"custom kernel {expr.source!r} fails inside (0,1): {exc}"
            ) from exc
        raise
    error = 0.0 if math.isinf(result.value) else result.error_estimate
    return half, 0.5 / half, result.value, error


def _check_probe(expr: Expr) -> None:
    """Raise KernelError unless expr is finite and positive at every probe
    point; the first point that faults or is not positive raises."""
    for t in _probe_grid():
        try:
            v = expr.evaluate(t)
        except EvalError as exc:
            raise KernelError(
                "domain", f"custom kernel {expr.source!r} fails at t={t!r}: {exc}"
            ) from exc
        if v <= 0.0:
            raise KernelError(
                "nonpositive",
                f"custom kernel {expr.source!r} is {v!r} at t={t!r}; kernels must be positive",
            )


def make_kernel(
    kind: str,
    s: float | None = None,
    expr: Expr | None = None,
    quad_tol: float = 1e-10,
) -> Kernel:
    """Construct a kernel; s is read only by 'power', expr only by 'custom'."""
    return Kernel(kind, s, expr, quad_tol)
