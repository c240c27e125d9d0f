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
_integral's: closed for a power form or a sum of them, else numerical
(possibly +inf).

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
from .analysis import power_form, summands
from .expr import EvalError, Expr, parse
from .quadrature import QuadratureError, _total, integrate_open01, midpoint
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


# kind -> (h(t), h(1/2), 1 / (2 h(1/2))) of the table above, not 0.5 / h(1/2)
_BUILT_IN = {
    "linear": lambda s: ("t", 0.5, 1.0),
    "power": lambda s: (f"t^{s!r}", 0.5 ** s, 2.0 ** (s - 1.0)),
    "reciprocal": lambda s: ("1/t", 2.0, 0.25),
    "one": lambda s: ("1", 1.0, 0.5),
}


@lru_cache(maxsize=256)
def _built_in_expr(source: str) -> tuple[Expr, float, float]:
    """(parse(source), H, its error) once per source: kernels share the Expr."""
    expr = parse(source)
    return (expr, *_integral(expr, 1e-10))  # a power form: quad_tol goes unread


def _integral(expr: Expr, quad_tol: float) -> tuple[float, float]:
    """(H, its error) of h = expr over (0, 1): _closed_form's for a power
    form, _sum_integral's for a sum of them, else integrate_open01's.  +inf
    has error 0."""
    form = power_form(expr.root)
    result = form and _closed_form(*form) or _sum_integral(expr.root)
    if result is None:
        try:
            ladder = integrate_open01(expr, quad_tol)
        except QuadratureError as exc:
            if exc.reason != "eval":
                raise
            raise KernelError("domain", f"custom kernel {expr.source!r} fails inside (0,1): "
                              f"{exc}") from exc
        result = ladder.value, ladder.error_estimate
    value, error = result
    return value, 0.0 if math.isinf(value) else error


_NORMAL = 2.0 ** -1022  # the least normal float


def _closed_form(c, log_c, a: float, b: float) -> tuple[float, float] | None:
    """(H, its error) of C*t^a*(1-t)^b, C = c if c is positive and finite,
    else log_c = (sign, log C, n) if its C is positive with a finite log,
    else None: H = +inf if a <= -1 or b <= -1, C/(a+1) or C/(b+1) if the
    other exponent is 0, else C*B(a+1, b+1) by lgamma, with error
    H*4*eps*(1 + the lgammas' magnitudes (+ n)).  H is exp(log C + log B)
    for log_c, and also where c*B is below the least normal float, which
    the product may have rounded to 0: there |log C| joins the magnitudes.
    An H below the least normal float, by either path, gains ulp(H) in its
    error, the rounding step of a subnormal or 0.
    Where a lgamma overflows (a + b + 2 past about 2.5e305), log B(x, y) is
    lgamma(m) - m*log(M) + theta, m <= M the two arguments, with theta
    between -m^2/M and m/M (ln z - 1/z < digamma(z) < ln z), so H gains the
    error H*min(e - 1, expm1(m*max(m, 1)/M)); None if lgamma(m) overflows
    too."""
    scaled = c is None or not 0.0 < c < math.inf
    if scaled and not (log_c and log_c[0] > 0.0 and math.isfinite(log_c[1])):
        return None
    if a <= -1.0 or b <= -1.0:
        return math.inf, 0.0
    if (a == 0.0 or b == 0.0) and not scaled:  # a + b + 1.0 is a + 1.0 or b + 1.0
        return c / (a + b + 1.0), 0.0
    spread = 0.0
    try:
        terms = (math.lgamma(a + 1.0), math.lgamma(b + 1.0), math.lgamma(a + b + 2.0))
    except OverflowError:
        m, big = sorted((a + 1.0, b + 1.0))
        try:
            terms = (math.lgamma(m), 0.0, m * math.log(big))
        except OverflowError:
            return None
        spread = min(math.e - 1.0, math.expm1(m * max(m, 1.0) / big))
    beta = terms[0] + terms[1] - terms[2]
    try:
        value = math.exp(log_c[1] + beta) if scaled else c * math.exp(beta)
    except OverflowError:  # H past the largest float
        value = math.inf
    size = 1.0 + sum(map(abs, terms)) + (log_c[2] if scaled else 0.0)
    floor = 0.0
    if value < _NORMAL:
        if not scaled:  # exp(beta) or the product underflowed
            ln_c = math.log(c)
            value = math.exp(ln_c + beta)
            size += abs(ln_c)
        floor = math.ulp(value)  # a subnormal's rounding step, not relative
    error = (value * 4.0 * math.ulp(1.0) * size if value else 0.0) + floor  # size may be inf
    return value, error + value * spread if spread else error


def _sum_integral(root) -> tuple[float, float] | None:
    """(H, its error) of a sum of two or more power forms, each term's finite
    nonzero C signed by the +, - and unary minus above it, or None (the
    ladder).  The Cs are collected by (a, b), a total of 0 cancelling.  An
    end whose least exponent left (a at 0, b at 1) is <= -1 diverges with
    the sign of the total of the Cs there: H = +inf if every one is
    positive, else None.  With none, H is the fsum of the terms' closed
    forms, with error the sum of theirs plus eps times that of |term|."""
    terms = summands(root)
    if len(terms) < 2:
        return None
    collected: dict[tuple[float, float], list[float]] = {}
    for sign, node in terms:
        c, _, a, b = power_form(node) or (None,) * 4
        if c is None or not 0.0 < abs(c) < math.inf:
            return None
        collected.setdefault((a, b), []).append(sign * c)
    live = [key for key, cs in collected.items() if _total(cs)]
    least = [min([key[end] for key in live], default=0.0) for end in (0, 1)]
    ends = [_total([c for key in live if key[end] == least[end] for c in collected[key]])
            for end in (0, 1) if least[end] <= -1.0]
    if ends:
        return (math.inf, 0.0) if min(ends) > 0.0 else None
    values, error = [], 0.0
    for (a, b), cs in collected.items():
        if a <= -1.0 or b <= -1.0:  # its Cs cancel
            continue
        for c in cs:
            closed = _closed_form(abs(c), None, a, b)
            if closed is None:  # both exponents past about 2.5e305
                return None
            value, term_error = closed
            values.append(math.copysign(value, c))
            error += term_error
    value = _total(values)
    if value != value:  # terms past the float range of both signs
        return None
    return value, error + math.ulp(1.0) * _total(list(map(abs, values)))


def outside_error(t: float) -> EvalError:
    return EvalError("domain", f"kernel argument {t!r} outside (0, 1)")


class Kernel(Record):
    """h(t) = expr, with its constants fixed here, the integral by _integral
    with quad_tol, which only a custom expression may read.  Raises
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
            source, half, coefficient = _BUILT_IN[kind](s)
            expr, integral, error = _built_in_expr(source)
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
    return half, 0.5 / half, *_integral(expr, quad_tol)


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
