"""Weighting kernels h on the open unit interval.

Every kernel carries its h as an expression in t.  Built-in kinds and
their constants, fixed when the kernel is built:

    kind         h(t)    h(1/2)   1/(2 h(1/2))   integral over (0,1)
    linear       t       1/2      1              1/2
    power        t^s     2^-s     2^(s-1)        1/(s+1)     (0 < s < 1)
    reciprocal   1/t     2        1/4            +inf
    one          1       1        1/2            1

Custom kernels are arbitrary positive expressions in t; positivity and
evaluability are spot-checked on a fixed 4097-point Chebyshev grid at
construction, and the integral is computed numerically (possibly +inf).
The probe is one compiled comprehension over the grid and one check of the
whole list; the point-by-point loop runs only when that fails, and raises
the error of the first bad point.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import DomcertError
from .expr import _EVAL_ENV, EvalError, Expr, _specialized, parse
from .quadrature import QuadratureError, integrate_open01
from .record import Record

PROBE_POINTS = 4097
_probe_cache: list[float] | None = None


class KernelError(DomcertError):
    """reason is 'invalid', 'nonpositive' or 'domain'."""

    def __init__(self, reason: str, message: str):
        self.reason = reason
        super().__init__(message)


def chebyshev_points(n: int, lo: float, hi: float) -> list[float]:
    """n Chebyshev-spaced points strictly inside (lo, hi), ascending."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = [mid + half * math.cos(math.pi * (2 * j - 1) / (2 * n)) for j in range(1, n + 1)]
    pts.reverse()
    return pts


def _probe_grid() -> list[float]:
    global _probe_cache
    if _probe_cache is None:
        _probe_cache = chebyshev_points(PROBE_POINTS, 0.0, 1.0)
    return _probe_cache


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


def _custom_constants(expr: Expr | None, quad_tol: float) -> tuple[float, ...]:
    """(h(1/2), 1 / (2 h(1/2)), integral, its error) of a custom kernel."""
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
    return half, 1.0 / (2.0 * half), result.value, error


def _check_probe(expr: Expr) -> None:
    """Raise KernelError unless expr is finite and positive at every probe
    point.  One compiled comprehension evaluates the whole grid; only when
    it faults, or its values are not all finite and positive, does the
    pointwise loop run, to find the first bad point and name it."""
    source = f"lambda ts: [{_specialized(expr.root)} for v in ts]"
    try:
        values = eval(compile(source, "<probe>", "eval"), _EVAL_ENV)(_probe_grid())
    except (EvalError, ArithmeticError, ValueError):
        values = None
    if values is not None and min(values) > 0.0:
        total = sum(values)  # inf or nan unless every value is finite (or it overflows)
        if total - total == 0.0:
            return
    _check_probe_pointwise(expr)


def _check_probe_pointwise(expr: Expr) -> None:
    """The probe one point at a time: the first point that faults or is not
    positive raises."""
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
