"""Hermite-Hadamard style two-sided bound verification for dominated pairs.

With W = phi(b) - phi(a), m = (phi(a) + phi(b))/2, c = 1/(2 h(1/2)) and
H = integral of h over (0, 1), the verified statements are

    midpoint:  |mean(f) - c f(m)|            <=  mean(g) - c g(m)
    endpoint:  |(f(phi a) + f(phi b)) H - mean(f)|
                                              <=  (g(phi a) + g(phi b)) H - mean(g)

where mean(u) is the integral average of u over the image of phi.  Each
integral is split at the kinks of u's abs(v) subtrees whose argument v is
affine (geometry._degree), where a Gauss-Kronrod panel can miss the kink
with an estimate of zero: each kink is the float where the evaluated v
changes sign, and the pieces share the quadrature budget.  A tree without
such a kink is integrated whole, as one call of integrate.  Both
right sides can only be trusted when g actually belongs to the kernel's
convexity class; a negative right side therefore produces a warning, not
an error.  The endpoint form needs no symmetric h (the integral of h(1-t)
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
from .expr import Binary, EvalError, Expr, Unary
from .geometry import AffineMap, _degree
from .kernels import _BUILT_IN, Kernel, make_kernel
from .quadrature import QuadResult, _total, integrate, midpoint

NEGATIVE_RHS_WARNING = (
    "right side is negative: the dominator may violate its convexity precondition"
)
NEG_VALUES_WARNING = "{role} is negative at a probed point (codomain should be [0, inf))"


class ReportError(ReasonError):
    """reason is 'degenerate' (phi has a single-point image, or a midpoint
    weight is not finite) or 'range' (the image of phi is wider than the
    largest float, or the integral of f or g over it, or its error, is not
    finite, so the means are undefined, or a side of a bound is not finite
    although the kernel's integral is)."""


class _HHReport(NamedTuple):
    bound_kind: str  # 'midpoint' or 'endpoint'
    lhs: float
    rhs: float
    margin: float
    holds: bool
    vacuous: bool
    quad_error: float
    warnings: list[str] | None = None


class HHReport(_HHReport):
    __slots__ = ()

    def __new__(cls, *fields, **named):
        report = super().__new__(cls, *fields, **named)
        # a new list for each report
        if report.warnings is None:
            report = report._replace(warnings=[])
        return report


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


def _sign_change(v, lo: float, hi: float) -> float | None:
    """The float in (lo, hi) where v, of opposite signs at lo and hi,
    leaves lo's sign: the upper end of a bracket of two adjacent doubles,
    bisected over the doubles in order after a try at a few of them around
    the secant root, where an affine v changes sign.  None when v does not
    change sign strictly inside, or faults."""
    import struct  # only an integrand with an abs pays for it

    def ordinal(x: float) -> int:  # doubles in order: -0.0 and 0.0 are 0
        n = struct.unpack("<q", struct.pack("<d", x))[0]
        return n if n >= 0 else -(n & 0x7FFFFFFFFFFFFFFF)

    def at(n: int) -> float:
        return struct.unpack("<d", struct.pack("<Q", n if n >= 0 else -n | 1 << 63))[0]

    try:
        va, vb = v(lo), v(hi)
        if not (va < 0.0 < vb or vb < 0.0 < va):
            return None
        negative = va < 0.0

        def lo_side(n: int) -> bool:
            w = v(at(n))
            return w < 0.0 if negative else w > 0.0

        a, top = ordinal(lo), ordinal(hi)
        b = top
        n = ordinal(lo + (hi - lo) * (va / (va - vb)))
        if a < n - 4 and n + 4 < b and lo_side(n - 4) and not lo_side(n + 4):
            a, b = n - 4, n + 4
        while b - a > 1:
            m = (a + b) // 2
            if lo_side(m):
                a = m
            else:
                b = m
    except (EvalError, ArithmeticError, ValueError):
        return None
    return at(b) if b != top else None


def _kinks(u: Expr, lo: float, hi: float) -> list[float]:
    """The sign changes in (lo, hi) of the affine arguments of u's abs
    subtrees, ascending.  A tree with no abs has none, read from its
    source without a walk."""
    if "abs" not in u.source:
        return []
    kinks = set()
    stack = [u.root]
    while stack:
        node = stack.pop()
        if isinstance(node, Unary):
            if node.op == "abs" and _degree(node.arg) == 1:
                kink = _sign_change(Expr(node.arg, u.var_name).raw, lo, hi)
                if kink is not None:
                    kinks.add(kink)
            stack.append(node.arg)
        elif isinstance(node, Binary):
            stack += (node.left, node.right)
    return sorted(kinks)


def _integral(u, role: str, lo: float, hi: float, tol: float):
    edges = [lo, *_kinks(u, lo, hi), hi]
    if len(edges) == 2:
        r = integrate(u, lo, hi, tol)
    else:
        # each piece a share of tol (not below the least double, for a tol near it)
        share = max(tol / (len(edges) - 1), 5e-324)
        parts = [integrate(u, a, b, share) for a, b in zip(edges, edges[1:])]
        r = QuadResult(_total([p.value for p in parts]),
                       _total([p.error_estimate for p in parts]),
                       sum(p.subdivisions for p in parts))
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

        warnings = []
        if neg_f:
            warnings.append(NEG_VALUES_WARNING.format(role="f"))
        if neg_g:
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
