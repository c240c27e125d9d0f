"""Hermite-Hadamard style two-sided bound verification for dominated pairs.

With W = phi(b) - phi(a), m = (phi(a) + phi(b))/2, c = 1/(2 h(1/2)) and
H = integral of h over (0, 1), the verified statements are

    midpoint:  |mean(f) - c f(m)|            <=  mean(g) - c g(m)
    endpoint:  |(f(phi a) + f(phi b)) H - mean(f)|
                                              <=  (g(phi a) + g(phi b)) H - mean(g)

where mean(u) is the integral average of u over the image of phi, each
integral split at u's kinks by quadrature.integrate_split.  Both right
sides can only be trusted when g actually belongs to the kernel's
convexity class; a negative right side therefore produces a warning, not
an error, as does a bound that holds only by the tolerance (a negative
margin).  The endpoint form needs no symmetric h (the integral of h(1-t)
is H for every h); c and H are fixed when the kernel is built.  When H
diverges, a side with a nonzero endpoint sum is infinite with that sum's
sign (lhs = +inf) and a zero sum leaves -mean; the report is vacuous, and
cannot fail, only when rhs = +inf.  That is the only bound with a side
that may be infinite: any other whose lhs or rhs overflows is refused.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .convexity import FunctionPair, _violates, check_tolerances
from .errors import ReasonError
from .geometry import AffineMap
from .kernels import _BUILT_IN, Kernel, make_kernel
from .quadrature import integrate_split, midpoint

NEGATIVE_RHS_WARNING = (
    "right side is negative: the dominator may violate its convexity precondition"
)
NEG_VALUES_WARNING = "{role} is negative at a probed point (codomain should be [0, inf))"
WITHIN_TOL_WARNING = "margin is negative but within tolerance"


class ReportError(ReasonError):
    """reason is 'degenerate' (phi has a single-point image, or a midpoint
    weight is not finite) or 'range' (the image of phi is wider than the
    largest float, or the integral of f or g over it, or its error, is not
    finite, so the means are undefined, or a side of a bound is not finite
    although the kernel's integral is)."""


class HHReport(NamedTuple):
    bound_kind: str  # 'midpoint' or 'endpoint'
    lhs: float
    rhs: float
    margin: float
    holds: bool
    vacuous: bool
    quad_error: float
    warnings: list[str] | tuple[()] = ()


class SpecialCaseEntry(NamedTuple):
    label: str
    report: HHReport


def _image_bounds(phi: AffineMap) -> tuple[float, float]:
    if phi.image_width == 0.0:
        raise ReportError(
            "degenerate",
            f"phi has a single-point image at {phi.image_a!r}; bounds are undefined",
        )
    lo, hi = phi.image_a, phi.image_b
    if lo > hi:
        lo, hi = hi, lo
    if math.isinf(hi - lo):
        raise ReportError(
            "range",
            f"phi's image [{lo!r}, {hi!r}] is wider than the largest float; bounds are undefined",
        )
    return lo, hi


def quad_tol_problem(tol: float) -> str | None:
    """What keeps tol from being the quadrature budget of hh_bounds_report,
    which gives each of the two means a quarter of it, or None."""
    if not 0.0 < tol < math.inf:
        return f"must be positive and finite, got {tol!r}"
    if tol / 4.0 == 0.0:
        return f"must be large enough that a quarter of it is not 0.0, got {tol!r}"
    return None


def _integral(u, role: str, lo: float, hi: float, tol: float):
    r = integrate_split(u, lo, hi, tol)
    if math.isfinite(r.value) and math.isfinite(r.error_estimate):
        return r
    raise ReportError("range", f"the integral of {role} = {u.source!r} over [{lo!r}, {hi!r}] is "
                               f"{r.value!r} with error {r.error_estimate!r}; bounds are undefined")


def _means(pair: FunctionPair, lo: float, hi: float, tol: float):
    rf = _integral(pair.f, "f", lo, hi, tol)
    rg = _integral(pair.g, "g", lo, hi, tol)
    width = hi - lo
    return rf.value / width, rg.value / width, (rf.error_estimate + rg.error_estimate) / width


def _holds(lhs: float, rhs: float, atol: float, rtol: float) -> tuple[float, bool]:
    """(margin, holds): holds unless the margin violates as a sampled gap does."""
    if rhs == math.inf:
        # an infinite bound cannot be violated, whatever the left side
        return math.inf, True
    margin = rhs - lhs
    return margin, not _violates(margin, lhs, rhs, atol, rtol)


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
    of a lone report: a midpoint weight 1/(2 h(1/2)) that is not finite
    (ReportError 'degenerate'), then means, then f and g at the midpoint or
    at the endpoints, each computed on first use.  Raises ValueError for
    atol or rtol not finite and >= 0, and for tol not finite and > 0 or so
    small that tol / 4 is 0.0 (quad_tol_problem).
    """
    check_tolerances(atol, rtol)
    problem = quad_tol_problem(tol)
    if problem:
        raise ValueError(f"tol {problem}")
    lo, hi = _image_bounds(phi)
    means = mid = ends = None
    reports = []
    for h, bound in jobs:
        if bound == "midpoint" and not math.isfinite(h.midpoint_coefficient):
            raise ReportError(
                "degenerate",
                f"kernel {h.describe()!r} has h(1/2) = {h.half_value!r}, so its midpoint "
                f"weight 1/(2 h(1/2)) is {h.midpoint_coefficient!r}; the midpoint bound "
                "is undefined",
            )
        if means is None:
            means = _means(pair, lo, hi, tol / 4.0)
        mean_f, mean_g, quad_err = means
        divergent = vacuous = False
        if bound == "midpoint":
            if mid is None:
                m = midpoint(phi.image_a, phi.image_b)
                vf, vg = pair.f.evaluate(m), pair.g.evaluate(m)
                mid = vf, vg, vf < 0.0, vg < 0.0
            vf, vg, neg_f, neg_g = mid
            c = h.midpoint_coefficient
            lhs = abs(mean_f - c * vf)
            rhs = mean_g - c * vg
        else:
            if ends is None:
                fa, fb = pair.f.evaluate(phi.image_a), pair.f.evaluate(phi.image_b)
                ga, gb = pair.g.evaluate(phi.image_a), pair.g.evaluate(phi.image_b)
                # each endpoint value is probed, not only their sum
                ends = fa + fb, ga + gb, fa < 0.0 or fb < 0.0, ga < 0.0 or gb < 0.0
            vf, vg, neg_f, neg_g = ends
            divergent = math.isinf(h.integral)
            if divergent:
                # an endpoint sum of exactly zero kills the divergent term
                lhs = math.inf if vf != 0.0 else abs(0.0 - mean_f)
                rhs = math.copysign(math.inf, vg) if vg != 0.0 else 0.0 - mean_g
                vacuous = rhs == math.inf
            else:
                lhs = abs(vf * h.integral - mean_f)
                rhs = vg * h.integral - mean_g
                quad_err = quad_err + h.integral_error * (abs(vf) + abs(vg))
        if not divergent and not (math.isfinite(lhs) and math.isfinite(rhs)):
            raise ReportError("range", f"the {bound} bound has lhs = {lhs!r} and rhs = {rhs!r}, "
                                       "not both finite; the bound is undefined")

        margin, holds = _holds(lhs, rhs, atol, rtol)
        warnings = []
        if neg_f:
            warnings.append(NEG_VALUES_WARNING.format(role="f"))
        if neg_g:
            warnings.append(NEG_VALUES_WARNING.format(role="g"))
        if rhs < 0.0:
            warnings.append(NEGATIVE_RHS_WARNING)
        if holds and margin < 0.0:
            warnings.append(WITHIN_TOL_WARNING)
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
        kinds = tuple(_BUILT_IN)
    elif which in _BUILT_IN:
        kinds = (which,)
    else:
        raise ValueError(f"unknown special case {which!r}")

    labels = []

    def jobs():  # kernels are built as the engine pulls them: earlier faults win
        for kind in kinds:
            k = make_kernel(kind, s=s)
            name = f"power(s={k.s!r})" if kind == "power" else kind
            for bound in ("midpoint",) if k.divergent else ("midpoint", "endpoint"):
                labels.append(f"{name}/{bound}")
                yield k, bound

    reports = hh_bounds_report(pair, phi, jobs(), tol, atol, rtol)
    return [SpecialCaseEntry(label, r) for label, r in zip(labels, reports)]
