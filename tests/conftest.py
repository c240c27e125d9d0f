"""Shared oracles and generators for the test suite.

The integration oracle here is deliberately independent of the package's
own quadrature: plain composite Simpson on a fixed uniform mesh, accurate
to ~1e-12 for the smooth integrands used in tests.
"""

from __future__ import annotations

import math
import random
import subprocess
import sys

import pytest


def simpson(fn, a: float, b: float, n: int = 4096) -> float:
    """Composite Simpson oracle. n must be even."""
    if n % 2:
        n += 1
    h = (b - a) / n
    acc = fn(a) + fn(b)
    for i in range(1, n):
        acc += fn(a + i * h) * (4.0 if i % 2 else 2.0)
    return acc * h / 3.0


def poly_source(coeffs) -> str:
    """Expression source for sum(c_k * x^k), repr'd for round-trip exactness."""
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0.0:
            continue
        if k == 0:
            parts.append(repr(float(c)))
        elif k == 1:
            parts.append(f"{float(c)!r}*x")
        else:
            parts.append(f"{float(c)!r}*x^{k}")
    if not parts:
        return "0.0"
    return " + ".join(parts).replace("+ -", "- ")


def poly_eval(coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def random_convex_coeffs(rng: random.Random, degree: int = 4):
    """Coefficients of a convex polynomial of the requested degree.

    Built as line + w*(x-r)^2 + v*(x-s)^4 with w, v >= 0, so convexity
    holds on all of R, not just the sampled window.
    """
    a0 = rng.uniform(-2.0, 2.0)
    a1 = rng.uniform(-2.0, 2.0)
    coeffs = [a0, a1, 0.0, 0.0, 0.0]
    w = rng.uniform(0.0, 3.0)
    r = rng.uniform(-1.0, 1.0)
    coeffs[0] += w * r * r
    coeffs[1] -= 2.0 * w * r
    coeffs[2] += w
    if degree >= 4:
        v = rng.uniform(0.0, 2.0)
        s = rng.uniform(-1.0, 1.0)
        # (x - s)^4 expanded
        coeffs[0] += v * s**4
        coeffs[1] -= 4.0 * v * s**3
        coeffs[2] += 6.0 * v * s * s
        coeffs[3] = coeffs[3] - 4.0 * v * s
        coeffs[4] = coeffs[4] + v
    return coeffs


def shift_nonnegative(coeffs, lo: float, hi: float, slack: float = 0.01):
    """Shift the constant term so the polynomial is >= slack/2 on [lo, hi]."""
    worst = min(poly_eval(coeffs, lo + (hi - lo) * i / 400.0) for i in range(401))
    out = list(coeffs)
    out[0] += slack - min(worst, 0.0)
    return out


def _constant_class(c: float) -> tuple[bool, bool, bool]:
    return c == 0.0, c.is_integer(), c > 0.0


def respelled(root):
    """root with each constant moved by 2 away from zero where that keeps it
    on the same side of every branch a compiled body takes on a constant
    (zero, integer, sign), so its body has root's shape.  A node shared
    within root stays shared, and equal constants stay equal."""
    from domcert.expr import Binary, Const, Unary

    done: dict = {}

    def walk(node):
        if id(node) not in done:
            if isinstance(node, Const):
                c = node.value
                moved = c + math.copysign(2.0, c)
                out = Const(moved if _constant_class(moved) == _constant_class(c) else c)
            elif isinstance(node, Unary):
                out = Unary(node.op, walk(node.arg))
            elif isinstance(node, Binary):
                out = Binary(node.op, walk(node.left), walk(node.right))
            else:
                out = node
            done[id(node)] = out
        return done[id(node)]

    return walk(root)


def run_cli(*args: str) -> tuple[int, str]:
    """Run the installed CLI in a subprocess; returns (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, "-m", "domcert", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


@pytest.fixture
def rng():
    return random.Random(20240816)
