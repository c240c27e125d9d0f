"""Hermite-Hadamard style two-sided bound verification for dominated pairs.

With W = phi(b) - phi(a), m = (phi(a) + phi(b))/2, c = 1/(2 h(1/2)) and
H = integral of h over (0, 1), the verified statements are

    midpoint:  |mean(f) - c f(m)|            <=  mean(g) - c g(m)
    endpoint:  |(f(phi a) + f(phi b)) H - mean(f)|
                                              <=  (g(phi a) + g(phi b)) H - mean(g)

where mean(u) is the integral average of u over the image of phi.  Both
right sides can only be trusted when g actually belongs to the kernel's
convexity class; a negative right side therefore produces a warning, not
an error.  The endpoint form needs no symmetric h (the integral of h(1-t)
is H for every h); c and H are fixed when the kernel is built.  When H
diverges, a side with a nonzero endpoint sum is infinite with that sum's
sign (lhs = +inf) and a zero sum leaves -mean; the report is vacuous, and
cannot fail, only when rhs = +inf.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .convexity import FunctionPair, check_tolerances
from .errors import DomcertError
from .geometry import AffineMap
from .kernels import Kernel, make_kernel
from .quadrature import integrate

NEGATIVE_RHS_WARNING = (
    "right side is negative: the dominator may violate its convexity precondition"
)
NEG_VALUES_WARNING = "{role} is negative at a probed point (codomain should be [0, inf))"


class ReportError(DomcertError):
    """reason is 'degenerate'."""

    def __init__(self, reason: str, message: str):
        self.reason = reason
        super().__init__(message)


class _HHReport(NamedTuple):
    bound_kind: str  # 'midpoint' or 'endpoint'
    lhs: float
    rhs: float
    margin: float
    holds: bool
    vacuous: bool
    quad_error: float
    warnings: list[str]
    inputs_echo: dict


class HHReport(_HHReport):
    __slots__ = ()

    def __new__(
        cls,
        bound_kind: str,
        lhs: float,
        rhs: float,
        margin: float,
        holds: bool,
        vacuous: bool,
        quad_error: float,
        warnings: list[str] | None = None,
        inputs_echo: dict | None = None,
    ):
        # a new list and dict for each report
        return super().__new__(
            cls, bound_kind, lhs, rhs, margin, holds, vacuous, quad_error,
            [] if warnings is None else warnings, {} if inputs_echo is None else inputs_echo,
        )


class SpecialCaseEntry(NamedTuple):
    label: str
    report: HHReport


def _echo(pair: FunctionPair, h: Kernel, phi: AffineMap) -> dict:
    return {
        "f": pair.f.source,
        "g": pair.g.source,
        "kernel": h.describe(),
        "phi": phi.describe(),
        "interval": [phi.domain.a, phi.domain.b],
    }


def _image_bounds(phi: AffineMap) -> tuple[float, float]:
    if phi.image_width == 0.0:
        raise ReportError(
            "degenerate",
            f"phi has a single-point image at {phi.image_a!r}; bounds are undefined",
        )
    lo, hi = phi.image_a, phi.image_b
    if lo > hi:
        lo, hi = hi, lo
    return lo, hi


def _means(pair: FunctionPair, lo: float, hi: float, tol: float):
    rf = integrate(pair.f, lo, hi, tol)
    rg = integrate(pair.g, lo, hi, tol)
    width = hi - lo
    return rf.value / width, rg.value / width, (rf.error_estimate + rg.error_estimate) / width


def _holds(lhs: float, rhs: float, atol: float, rtol: float) -> tuple[float, bool]:
    if math.isinf(rhs) and rhs > 0.0:
        # an infinite bound cannot be violated, whatever the left side
        return math.inf, True
    margin = rhs - lhs
    scale = max(abs(lhs), abs(rhs))
    if math.isinf(scale):
        return margin, margin > 0.0
    return margin, margin >= -(atol + rtol * scale)


def hh_bounds_report(
    pair: FunctionPair,
    phi: AffineMap,
    jobs: Iterable[tuple[Kernel, str]],
    tol: float = 1e-10,
    atol: float = 1e-9,
    rtol: float = 1e-9,
) -> list[HHReport]:
    """One report per (kernel, 'midpoint' or 'endpoint') job, in job order.

    f and g are integrated once for all jobs; jobs is consumed lazily after
    the image bounds are checked.  Each job raises its faults in the order
    of a lone report: means, then f and g at the midpoint or at the
    endpoints, each computed on first use.  Raises ValueError for atol or
    rtol not finite and >= 0 and for tol not finite and > 0.
    """
    check_tolerances(atol, rtol)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    lo, hi = _image_bounds(phi)
    means = mid = ends = None
    reports = []
    for h, bound in jobs:
        if means is None:
            means = _means(pair, lo, hi, tol / 4.0)
        mean_f, mean_g, quad_err = means
        vacuous = False
        if bound == "midpoint":
            if mid is None:
                m = 0.5 * (phi.image_a + phi.image_b)
                mid = pair.f.evaluate(m), pair.g.evaluate(m)
            vf, vg = mid
            c = h.midpoint_coefficient
            lhs = abs(mean_f - c * vf)
            rhs = mean_g - c * vg
        else:
            if ends is None:
                ends = (
                    pair.f.evaluate(phi.image_a) + pair.f.evaluate(phi.image_b),
                    pair.g.evaluate(phi.image_a) + pair.g.evaluate(phi.image_b),
                )
            vf, vg = ends
            if math.isinf(h.integral):
                # an endpoint sum of exactly zero kills the divergent term
                lhs = math.inf if vf != 0.0 else abs(0.0 - mean_f)
                rhs = math.copysign(math.inf, vg) if vg != 0.0 else 0.0 - mean_g
                vacuous = rhs == math.inf
            else:
                lhs = abs(vf * h.integral - mean_f)
                rhs = vg * h.integral - mean_g
                quad_err = quad_err + h.integral_error * (abs(vf) + abs(vg))

        warnings = []
        if vf < 0.0:
            warnings.append(NEG_VALUES_WARNING.format(role="f"))
        if vg < 0.0:
            warnings.append(NEG_VALUES_WARNING.format(role="g"))
        if rhs < 0.0:
            warnings.append(NEGATIVE_RHS_WARNING)
        margin, holds = _holds(lhs, rhs, atol, rtol)
        reports.append(
            HHReport(
                bound_kind=bound,
                lhs=lhs,
                rhs=rhs,
                margin=margin,
                holds=holds,
                vacuous=vacuous,
                quad_error=quad_err,
                warnings=warnings,
                inputs_echo=_echo(pair, h, phi),
            )
        )
    return reports


def hh_midpoint_report(
    pair: FunctionPair,
    h: Kernel,
    phi: AffineMap,
    tol: float = 1e-10,
    atol: float = 1e-9,
    rtol: float = 1e-9,
) -> HHReport:
    """Check the midpoint-form bound; tol is the total quadrature budget."""
    return hh_bounds_report(pair, phi, [(h, "midpoint")], tol, atol, rtol)[0]


def hh_endpoint_report(
    pair: FunctionPair,
    h: Kernel,
    phi: AffineMap,
    tol: float = 1e-10,
    atol: float = 1e-9,
    rtol: float = 1e-9,
) -> HHReport:
    """Check the endpoint-form bound; vacuous when the kernel integral diverges."""
    return hh_bounds_report(pair, phi, [(h, "endpoint")], tol, atol, rtol)[0]


_SPECIAL_KINDS = ("linear", "power", "reciprocal", "one")


def special_case_report(
    pair: FunctionPair,
    phi: AffineMap,
    which: str = "all",
    s: float | None = None,
    tol: float = 1e-10,
    atol: float = 1e-9,
    rtol: float = 1e-9,
) -> list[SpecialCaseEntry]:
    """Run the bounds for the named built-in kernels.

    which is one of the built-in kinds or 'all'.  Each selected kernel
    contributes a midpoint entry, plus an endpoint entry only when its
    integral is finite (so 'reciprocal' yields a single entry).
    """
    if which == "all":
        kinds = _SPECIAL_KINDS
    elif which in _SPECIAL_KINDS:
        kinds = (which,)
    else:
        raise ValueError(f"unknown special case {which!r}")

    labels = []

    def jobs():  # kernels are built as the engine pulls them: earlier faults win
        for kind in kinds:
            k = make_kernel(kind, s=s if kind == "power" else None)
            name = f"power(s={k.s!r})" if kind == "power" else kind
            for bound in ("midpoint",) if k.divergent else ("midpoint", "endpoint"):
                labels.append(f"{name}/{bound}")
                yield k, bound

    reports = hh_bounds_report(pair, phi, jobs(), tol, atol, rtol)
    return [SpecialCaseEntry(label, r) for label, r in zip(labels, reports)]
