"""Closed intervals and affine self-maps of an interval.

An AffineMap x -> alpha*x + beta is only accepted when it maps its domain
interval into itself; every downstream sampling and bound computation
relies on that containment.
"""

from __future__ import annotations

import math

from .errors import DomcertError
from .expr import Expr
from .record import Record


class GeometryError(DomcertError):
    """reason is 'invalid' (bad interval/shape), 'range' or 'domain'."""

    def __init__(self, reason: str, message: str):
        self.reason = reason
        super().__init__(message)


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

    The check probes three points and requires the second difference
    u(a) - 2u(m) + u(b) to vanish relative to the probed values.
    """
    a, b = domain.a, domain.b
    m = 0.5 * (a + b)
    ua, um, ub = e.evaluate(a), e.evaluate(m), e.evaluate(b)
    second = ua - 2.0 * um + ub
    scale = max(abs(ua), abs(um), abs(ub), 1.0)
    if abs(second) > tol * scale:
        raise GeometryError(
            "invalid",
            f"expression {e.source!r} is not affine "
            f"(second difference {second!r} on a 3-point probe)",
        )
    alpha = (ub - ua) / (b - a)
    beta = ua - alpha * a
    return make_affine(alpha, beta, domain)
