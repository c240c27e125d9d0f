"""Questions about the shape of an expression tree, each answered by one
fold: power_form (read by kernels), and _degree, read by is_affine
(geometry) and breakpoints (quadrature, the kinks an integral is split at)."""

from __future__ import annotations

import math

from .expr import Binary, Const, EvalError, Expr, Node, Unary, Var, _compile


def power_form(node: Node) -> tuple | None:
    """(C, log C, a, b) with node = C*t^a*(1-t)^b on (0, 1), a + b finite;
    None unless node is built from constants, t, 1 - t, *, /, unary minus
    and ^ with a constant exponent.  C is a float of any sign, or None past
    a division by zero, a ^ past the largest float or a ^ of a C that is
    not positive.  log C is (sign, log |C|, n), the log within n*eps, or
    None past a ^ of a negative C: the form of a C past the float range."""
    form = _fold(node)
    return form if form is not None and math.isfinite(form[2] + form[3]) else None


def _fold(node: Node) -> tuple | None:
    """power_form's form, a + b unchecked: each rounded log adds half an ulp
    of itself to n, and ^ scales the error of log |C| by |k|."""
    if isinstance(node, Const):  # math.log is within an ulp, so n = |log v|
        v = node.value
        log = math.log(abs(v)) if v else math.nan
        return v, (math.copysign(1.0, v), log, abs(log)), 0.0, 0.0
    if isinstance(node, Var):
        return 1.0, (1.0, 0.0, 0.0), 1.0, 0.0
    if isinstance(node, Unary):  # -u is -1*u
        return _fold(Binary("*", Const(-1.0), node.arg)) if node.op == "neg" else None
    op = node.op
    if op == "-" and node.left == Const(1.0) and isinstance(node.right, Var):
        return 1.0, (1.0, 0.0, 0.0), 0.0, 1.0
    left = _fold(node.left) if op not in "+-" else None
    right = left and _fold(node.right)
    if right is None:
        return None
    (c, log_c, a, b), (k, log_k, p, q) = left, right
    if op == "^":  # a constant exponent k, on a positive C
        if p or q or k is None:
            return None
        exponents = a * k, b * k
        c = c if c is not None and c > 0.0 else None
        log_c = (1.0, log_c[1] * k, abs(k) * log_c[2]) if log_c and log_c[0] > 0.0 else None
    else:
        exponents = (a + p, b + q) if op == "*" else (a - p, b - q)
        c = c if k is not None else None
        log_c = log_c and log_k and (
            log_c[0] * log_k[0], log_c[1] + log_k[1] if op == "*" else log_c[1] - log_k[1],
            log_c[2] + log_k[2])
    if c is not None:
        try:
            c = c * k if op == "*" else c / k if op == "/" else math.pow(c, k)
        except (ZeroDivisionError, OverflowError):  # by zero, or past the largest float
            c = None
    if log_c:
        sign, log, n = log_c
        log_c = sign, log, n + 0.5 * abs(log)
    return c, log_c, *exponents


def summands(node: Node, sign: float = 1.0) -> list[tuple[float, Node]]:
    """node as a signed sum: (sign, term) for each term of its top-level
    +, - and unary minus, left to right."""
    if isinstance(node, Unary) and node.op == "neg":
        return summands(node.arg, -sign)
    if isinstance(node, Binary) and node.op in "+-":
        return [*summands(node.left, sign),
                *summands(node.right, -sign if node.op == "-" else sign)]
    return [(sign, node)]


def _degree(node: Node, kinked: list[Node]) -> int | None:
    """0 for a tree without the variable and 1 for an affine one, built from
    +, -, unary minus, * with a constant side and / by a constant, else None;
    appends to kinked each affine argument of an abs at any depth."""
    if isinstance(node, Const):
        return 0
    if isinstance(node, Var):
        return 1
    if isinstance(node, Unary):
        degree = _degree(node.arg, kinked)
        if node.op == "abs" and degree == 1:
            kinked.append(node.arg)
        return degree if node.op == "neg" else None
    left, right = _degree(node.left, kinked), _degree(node.right, kinked)
    if left is None or right is None:
        return None
    if node.op in "+-":
        return max(left, right)
    if node.op == "*" and left + right <= 1 or node.op == "/" and right == 0:
        return left + right
    return None


def is_affine(node: Node) -> bool:
    """Whether node is built only from affine ops (_degree), a constant too."""
    return _degree(node, []) is not None


def breakpoints(u: Expr, lo: float, hi: float) -> list[float]:
    """The sign changes in (lo, hi) of the affine arguments of u's abs
    subtrees, ascending; none, without a walk, for a source with no abs."""
    if "abs" not in u.source:
        return []
    kinked: list[Node] = []
    _degree(u.root, kinked)
    return sorted({_sign_change(_compile(arg), lo, hi) for arg in kinked} - {None})


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
