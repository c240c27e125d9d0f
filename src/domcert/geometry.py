"""Closed intervals and affine self-maps of an interval.

An AffineMap x -> alpha*x + beta is only accepted when it maps its domain
interval into itself; every downstream sampling and bound computation
relies on that containment.  A map given as an expression is accepted only
when it is affine within a relative tolerance: it is never replaced by the
line through its end values.
"""

from __future__ import annotations

import math

from .errors import ReasonError
from .analysis import is_affine
from .expr import Expr
from .kernels import PROBE_POINTS, chebyshev_points
from .quadrature import midpoint
from .record import Record


class GeometryError(ReasonError):
    """reason is 'invalid' (bad interval/shape), 'range' or 'domain'."""


class Interval(Record):
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self._set(a, b)
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise GeometryError("invalid", "interval endpoints must be finite")
        if not self.a < self.b:
            raise GeometryError(
                "invalid", f"interval needs a < b, got [{self.a!r}, {self.b!r}]"
            )

    @property
    def width(self) -> float:
        return self.b - self.a

    def contains(self, x: float) -> bool:
        return self.a <= x <= self.b


class AffineMap(Record):
    """x -> alpha*x + beta with image contained in the domain interval."""

    __slots__ = ("alpha", "beta", "domain", "image_a", "image_b")

    def __init__(
        self, alpha: float, beta: float, domain: Interval, image_a: float, image_b: float
    ):
        self._set(alpha, beta, domain, image_a, image_b)
        for name in ("alpha", "beta", "image_a", "image_b"):
            if not math.isfinite(getattr(self, name)):
                raise GeometryError("invalid", f"{name} must be finite")
        for label, value in (("image of a", self.image_a), ("image of b", self.image_b)):
            if not self.domain.contains(value):
                raise GeometryError(
                    "range",
                    f"{label} ({value!r}) leaves the domain "
                    f"[{self.domain.a!r}, {self.domain.b!r}]",
                )

    def apply(self, x: float) -> float:
        if not self.domain.contains(x):
            raise GeometryError(
                "domain",
                f"{x!r} outside the map domain [{self.domain.a!r}, {self.domain.b!r}]",
            )
        return self.alpha * x + self.beta

    @property
    def image_width(self) -> float:
        return self.image_b - self.image_a

    @property
    def is_identity(self) -> bool:
        return self.alpha == 1.0 and self.beta == 0.0

    def describe(self) -> str:
        if self.is_identity:
            return "identity"
        return f"{self.alpha!r}*x + {self.beta!r}"


def make_affine(alpha: float, beta: float, domain: Interval) -> AffineMap:
    image_a = alpha * domain.a + beta
    image_b = alpha * domain.b + beta
    return AffineMap(alpha, beta, domain, image_a, image_b)


def identity_map(domain: Interval) -> AffineMap:
    return make_affine(1.0, 0.0, domain)


def affine_from_expr(e: Expr, domain: Interval, tol: float = 1e-9) -> AffineMap:
    """Build an AffineMap from an expression, verifying it is affine.

    alpha and beta come from the values u(a) and u(b) at the ends (alpha
    from their halves when b - a overflows).  A tree built only from affine
    ops passes as it is.  Any other must pass two probes within tol times
    the largest of 1 and |u| at a, the midpoint m and b: the second
    difference u(a) - 2u(m) + u(b) (from halves when that form overflows),
    then the distance of u from the line alpha*x + beta at PROBE_POINTS
    Chebyshev points in (a, b).
    """
    a, b = domain.a, domain.b
    m = midpoint(a, b)
    ua, um, ub = e.evaluate(a), e.evaluate(m), e.evaluate(b)
    if math.isinf(b - a):  # halving is exact: a finite width keeps the bits of the plain ratio
        alpha = (0.5 * ub - 0.5 * ua) / (0.5 * b - 0.5 * a)
    else:
        alpha = (ub - ua) / (b - a)
    beta = ua - alpha * a
    if not is_affine(e.root):
        bound = tol * max(abs(ua), abs(um), abs(ub), 1.0)
        second = ua - 2.0 * um + ub
        if math.isinf(second):  # 2u(m) or a partial sum overflows: a finite form keeps its bits
            second = 2.0 * (0.5 * ua - um + 0.5 * ub)
        if abs(second) > bound:
            raise GeometryError(
                "invalid",
                f"expression {e.source!r} is not affine "
                f"(second difference {second!r} on a 3-point probe)",
            )
        far, at = max((abs(e.evaluate(x) - (alpha * x + beta)), x)
                      for x in chebyshev_points(PROBE_POINTS, a, b))
        if far > bound:
            raise GeometryError(
                "invalid",
                f"expression {e.source!r} is not affine "
                f"({far:.3g} from the line through its end values at x={at:.3g})",
            )
    return make_affine(alpha, beta, domain)
