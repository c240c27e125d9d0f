"""Seeded request generator for the three benchmark workloads.

A workload is a list of *cycles*.  Each cycle holds every slot template of
the workload once for every expression family, in a seeded order.  The
choices that change a request's cost (subcommand, plan size, family,
kernel, map, pair shape) are the same for every seed; the seed picks
constants, intervals and the order.  That keeps the latency distribution,
and with it every end-to-end metric, comparable across seeds.  A run
executes whole cycles, chosen from ``--seconds``, so the same seed always
sends the same requests and the output digest repeats.

Every generated function carries its own closed forms (value and
antiderivative) so the oracle can judge bounds without trusting the
package's quadrature.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("sweep-grid", "rows-random", "bounds-mix")

# Seconds one cycle takes on the reference machine (2-core Xeon, CPython
# 3.11).  Only used to turn --seconds into whole cycles and passes.
NOMINAL_CYCLE_S = {"sweep-grid": 5.3, "rows-random": 4.3, "bounds-mix": 1.7}

WHY = {
    "sweep-grid": "grid sweeps of 20k-100k samples with tiny JSON output: the sweep loop and "
    "Expr.evaluate do the work, quadrature and rendering idle",
    "rows-random": "search (half refined) and CSV checks on grid and random plans where most "
    "samples violate: every row is buffered, refined and rendered",
    "bounds-mix": "2-7 ms bound requests, text output, malformed input and custom kernels: "
    "quadrature, kernel build and per-request CLI overhead, no sweeps",
}


def num(v: float) -> str:
    """Source text for a constant; negatives are parenthesised."""
    text = repr(float(v))
    return f"({text})" if text.startswith("-") else text


def shift(m: float) -> str:
    """Source text for x - m."""
    return f"(x-{num(m)})" if m >= 0 else f"(x+{num(-m)})"


# ---------------------------------------------------------------------------
# Functions with closed forms
# ---------------------------------------------------------------------------


class Term:
    src: str

    def value(self, x: float) -> float:
        raise NotImplementedError

    def anti(self, x: float) -> float:
        raise NotImplementedError


class Poly(Term):
    """a*(x-m)^k"""

    def __init__(self, a, m, k):
        self.a, self.m, self.k = a, m, k
        self.src = f"{num(a)}*{shift(m)}^{k}"

    def value(self, x):
        return self.a * (x - self.m) ** self.k

    def anti(self, x):
        return self.a * (x - self.m) ** (self.k + 1) / (self.k + 1)


class Const(Term):
    def __init__(self, c):
        self.c = c
        self.src = num(c)

    def value(self, x):
        return self.c

    def anti(self, x):
        return self.c * x


class Exp(Term):
    """a*exp(b*x)"""

    def __init__(self, a, b):
        self.a, self.b = a, b
        self.src = f"{num(a)}*exp({num(b)}*x)"

    def value(self, x):
        return self.a * math.exp(self.b * x)

    def anti(self, x):
        return self.a / self.b * math.exp(self.b * x)


class Kink(Term):
    """a*|x-m|"""

    def __init__(self, a, m):
        self.a, self.m = a, m
        self.src = f"{num(a)}*abs({shift(m)[1:-1]})"

    def value(self, x):
        return self.a * abs(x - self.m)

    def anti(self, x):
        d = x - self.m
        return self.a * 0.5 * d * abs(d)


class Sqrt(Term):
    """a*sqrt(x+c), concave and increasing"""

    def __init__(self, a, c):
        self.a, self.c = a, c
        self.src = f"{num(a)}*sqrt(x+{num(c)})"

    def value(self, x):
        return self.a * math.sqrt(x + self.c)

    def anti(self, x):
        return self.a * (2.0 / 3.0) * (x + self.c) ** 1.5


class Sin(Term):
    """a*sin(w*x)"""

    def __init__(self, a, w):
        self.a, self.w = a, w
        self.src = f"{num(a)}*sin({num(w)}*x)"

    def value(self, x):
        return self.a * math.sin(self.w * x)

    def anti(self, x):
        return -self.a / self.w * math.cos(self.w * x)


@dataclass
class Fn:
    """A sum of terms, optionally scaled: scale * (t1 + t2 + ...).

    convex_nonneg: convex and nonnegative on the interval, hence in the
    convexity class of every built-in kernel (all satisfy h(t) >= t).
    """

    terms: list
    scale: float = 1.0
    convex_nonneg: bool = True

    @property
    def src(self) -> str:
        body = "+".join(t.src for t in self.terms)
        return body if self.scale == 1.0 else f"{num(self.scale)}*({body})"

    def value(self, x: float) -> float:
        return self.scale * sum(t.value(x) for t in self.terms)

    def anti(self, x: float) -> float:
        return self.scale * sum(t.anti(x) for t in self.terms)

    def scaled(self, c: float) -> "Fn":
        convex = self.convex_nonneg and c > 0.0
        return Fn(self.terms, self.scale * c, convex)

    def plus(self, other: "Fn") -> "Fn":
        assert self.scale == 1.0 and other.scale == 1.0
        return Fn(self.terms + other.terms, 1.0, self.convex_nonneg and other.convex_nonneg)


def r4(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def family_fn(rng: random.Random, family: str, a: float, b: float) -> Fn:
    """A convex nonnegative member of the family on [a, b] (sqrt: concave)."""
    m = r4(rng, a + 0.2 * (b - a), a + 0.8 * (b - a))
    if family == "quad":
        return Fn([Poly(r4(rng, 0.5, 2.0), m, 2), Const(r4(rng, 0.0, 0.5))])
    if family == "quart":
        return Fn([Poly(r4(rng, 0.5, 2.0), m, 4), Const(r4(rng, 0.05, 0.5))])
    if family == "exp":
        return Fn([Exp(r4(rng, 0.2, 1.0), r4(rng, 0.5, 1.5)), Const(r4(rng, 0.0, 0.3))])
    if family == "kink":
        return Fn([Kink(r4(rng, 0.5, 2.0), m), Const(r4(rng, 0.0, 0.5))])
    if family == "sqrt":
        return Fn([Sqrt(r4(rng, 0.5, 2.0), r4(rng, 0.1, 1.0) - a)], convex_nonneg=False)
    if family == "osc":
        # convex bowl plus a small fast oscillation: neither convex nor cheap
        # to integrate
        return Fn([Poly(r4(rng, 1.0, 2.0), m, 2), Const(r4(rng, 0.1, 0.5)),
                   Sin(r4(rng, 0.01, 0.05), r4(rng, 20.0, 40.0))], convex_nonneg=False)
    raise ValueError(family)


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


@dataclass
class Request:
    rid: int
    slot: str
    argv: list
    sub: str
    fmt: str = "json"
    f: Fn | None = None
    g: Fn | None = None
    kernel: dict = field(default_factory=dict)
    interval: tuple = (0.0, 1.0)
    phi: tuple | None = None  # (alpha, beta) or None for identity
    plan: dict = field(default_factory=dict)
    bound: str = ""
    quad_tol: float = 1e-10
    truth: str | None = None  # 'holds' / 'violated' where the family knows it
    malformed: bool = False

    def key(self) -> tuple:
        """Everything that reaches the program, for determinism checks."""
        return (self.slot, tuple(self.argv))


INTERVALS = ((0.0, 1.0), (0.0, 2.0), (0.5, 2.5), (-1.0, 1.0), (0.25, 1.5))

BUILTIN = ("t", "t^s", "1/t", "1")


def kernel_args(rng: random.Random, name: str) -> tuple[list, dict]:
    if name == "t^s":
        s = round(rng.uniform(0.2, 0.8), 2)
        return ["--h", "t^s", "--s", repr(s)], {"kind": "power", "s": s}
    kind = {"t": "linear", "1/t": "reciprocal", "1": "one"}[name]
    return ["--h", name], {"kind": kind}


def phi_args(rng: random.Random, a: float, b: float, contract: bool):
    """(argv, (alpha, beta) or None, image interval) of an identity or contraction map."""
    if not contract:
        return [], None, (a, b)
    r = round(rng.uniform(0.3, 0.9), 2)
    # keep the image a little inside [a, b] so rounding cannot push it out
    start = rng.uniform(a + 0.01, b - r * (b - a) - 0.01)
    beta = round(start - r * a, 4)
    expr = f"{r!r}*x+{num(beta)}"
    lo, hi = r * a + beta, r * b + beta
    return ["--phi", expr], (r, beta), (lo, hi)


def pick_interval(rng: random.Random, family: str) -> tuple[float, float]:
    while True:
        a, b = rng.choice(INTERVALS)
        if family == "sqrt" and a < 0.0:
            continue
        return a, b


def base_argv(sub, f, g, a, b):
    argv = [sub, "--f", f.src]
    if g is not None:
        argv += ["--g", g.src]
    return argv + ["--interval", repr(a), repr(b)]


def _pair(rng, family, a, b, dominated: bool, plus: bool = False):
    """(f, g): g = c*f with c < 1 (violated), c > 1 or f + k (dominated)."""
    f = family_fn(rng, family, a, b)
    if not dominated:
        return f, f.scaled(round(rng.uniform(0.3, 0.8), 3))
    if plus:
        return f, f.plus(family_fn(rng, family, a, b))
    return f, f.scaled(round(rng.uniform(1.3, 3.0), 3))


# Choices that change the cost of a request (kernel, map, pair shape) are
# fixed by the slot and family indices, so every seed sends the same mix of
# work; the seed picks constants, intervals and the order.


# --- sweep-grid -------------------------------------------------------------

SWEEP_SIZES = ((21, 21, 45), (29, 29, 47), (37, 37, 47), (45, 45, 49))
SWEEP_FAMILIES = ("quad", "quart", "exp", "kink")


def _sweep_slots():
    return [(sub, size) for sub in ("check-convex", "check-dominated", "equivalence")
            for size in SWEEP_SIZES]


def _sweep_request(rng, rid, slot, family, si, fi):
    sub, (nx, ny, nt) = slot
    a, b = pick_interval(rng, family)
    kargs, kernel = kernel_args(rng, BUILTIN[(si + fi) % 4])
    pargs, phi, image = phi_args(rng, a, b, (si + fi // 2) % 2 == 1)
    plan = {"strategy": "grid", "n_x": nx, "n_y": ny, "n_t": nt}
    grid = ["--grid", str(nx), str(ny), str(nt)]
    if sub == "check-convex":
        f, g = family_fn(rng, family, *image), None
        truth = "holds"
    else:
        dominated = fi % 2 == 0
        f, g = _pair(rng, family, *image, dominated, plus=si % 2 == 1)
        truth = "holds" if dominated else "violated"
    argv = base_argv(sub, f, g, a, b) + kargs + pargs + grid
    return Request(rid, f"{sub}/{nx * ny * nt // 1000}k/{family}", argv, sub, f=f, g=g,
                   kernel=kernel, interval=(a, b), phi=phi, plan=plan, truth=truth)


# --- rows-random ------------------------------------------------------------

ROWS_FAMILIES = ("quad", "quart", "exp")
ROWS_SLOTS = (
    ("search", "grid", 21, True),
    ("search", "grid", 21, False),
    ("search", "random", 7500, True),
    ("search", "random", 7500, False),
    ("check-convex", "grid", 25, False),
    ("check-convex", "random", 10000, False),
    ("check-dominated", "grid", 21, False),
    ("check-dominated", "random", 10000, False),
)


def _rows_request(rng, rid, slot, family, si, fi):
    sub, strategy, size, refine = slot
    a, b = pick_interval(rng, family)
    kargs, kernel = kernel_args(rng, BUILTIN[(si + fi) % 4])
    pargs, phi, image = phi_args(rng, a, b, (si + fi) % 2 == 1)
    if strategy == "grid":
        nt = size - 2 if size % 2 else size
        plan = {"strategy": "grid", "n_x": size, "n_y": size, "n_t": nt}
        pl = ["--grid", str(size), str(size), str(nt)]
    else:
        pseed = rng.randrange(1, 10**6)
        plan = {"strategy": "random", "count": size, "seed": pseed}
        pl = ["--random", str(size), "--seed", str(pseed)]
    fmt = "json"
    if sub == "search":
        # most samples violate: g is a shrunken copy of f
        f, g = _pair(rng, family, *image, dominated=False)
        truth = "violated"
    elif sub == "check-convex":
        f, g = family_fn(rng, family, *image), None
        if strategy == "grid":
            # a negated class member: every off-diagonal sample violates
            f = f.scaled(-1.0)
        truth = "holds" if f.convex_nonneg else "violated"
        fmt = "csv"
    else:
        dominated = strategy == "grid"
        f, g = _pair(rng, family, *image, dominated, plus=fi % 2 == 1)
        truth = "holds" if dominated else "violated"
        fmt = "csv"
    argv = base_argv(sub, f, g, a, b) + kargs + pargs + pl
    if refine:
        argv.append("--refine")
    if fmt != "json":
        argv += ["--format", fmt]
    name = f"{sub}/{strategy}{'/refine' if refine else ''}/{family}"
    return Request(rid, name, argv, sub, fmt=fmt, f=f, g=g, kernel=kernel, interval=(a, b),
                   phi=phi, plan=plan, truth=truth)


# --- bounds-mix -------------------------------------------------------------

# (name, subcommand, kernel, bound, pair family, format)
_BOUND_SLOTS = []
for _k in BUILTIN:
    for _b in ("midpoint", "endpoint", "both"):
        for _fam in ("quad", "exp"):
            _BOUND_SLOTS.append((f"verify-hh/{_k}/{_b}/{_fam}", "verify-hh", _k, _b, _fam))
_BOUND_SLOTS += [
    ("verify-hh/kink-osc/tight", "verify-hh", "t", "both", "kink-osc"),
    ("verify-hh/kink-osc/tight-s", "verify-hh", "t^s", "both", "kink-osc"),
    ("verify-hh/sqrt-kink/tight", "verify-hh", "1", "both", "sqrt-kink"),
    ("verify-hh/osc-quart/tight", "verify-hh", "1/t", "midpoint", "osc-quart"),
    ("special-case/quad", "special-case", None, "", "quad"),
    ("special-case/exp", "special-case", None, "", "exp"),
    ("special-case/kink", "special-case", None, "", "kink"),
    ("special-case/sqrt", "special-case", None, "", "sqrt"),
    # custom kernels, a stated small share (5 of 42 requests per cycle)
    ("custom/t^-0.5/midpoint", "verify-hh", "t^(-0.5)", "midpoint", "quad"),
    ("custom/t^-0.5/both", "verify-hh", "t^(-0.5)", "both", "exp"),
    ("custom/t^-0.9/endpoint", "verify-hh", "t^(-0.9)", "endpoint", "quad"),
    ("custom/1/t/midpoint", "verify-hh", "1/t", "midpoint", "exp"),
    ("custom/1/t/endpoint", "verify-hh", "1/t", "endpoint", "quad"),
    # negative endpoint values under a divergent kernel
    ("verify-hh/1/t/endpoint/negative", "verify-hh", "1/t", "endpoint", "negative"),
]
# every fourth light slot renders as text
TEXT_SLOTS = {i for i, s in enumerate(_BOUND_SLOTS) if not s[0].startswith("custom/")
              and i % 4 == 1}

CUSTOM_KERNELS = {
    "t^(-0.5)": {"kind": "custom", "p": 0.5},
    "t^(-0.9)": {"kind": "custom", "p": 0.9},
    "1/t": {"kind": "custom", "p": 1.0},
}

# malformed requests (about 10% of a cycle); each must exit 2
_MALFORMED = (
    ("bad-syntax", lambda rng: ["verify-hh", "--f", "x^^2", "--g", "2*x^2", "--interval", "0", "1"]),
    ("juxtaposed", lambda rng: ["verify-hh", "--f", "2x", "--g", "x^2", "--interval", "0", "1"]),
    ("unknown-kernel", lambda rng: ["verify-hh", "--f", "x^2", "--g", "2*x^2", "--interval",
                                     "0", "1", "--h", "t^2"]),
    ("missing-s", lambda rng: ["special-case", "--f", "x^2", "--g", "2*x^2", "--interval",
                                "0", "1"]),
    ("reversed-interval", lambda rng: ["verify-hh", "--f", "x^2", "--g", "2*x^2",
                                        "--interval", "1", "0"]),
    ("nonaffine-phi", lambda rng: ["verify-hh", "--f", "x^2", "--g", "2*x^2", "--interval",
                                    "0", "1", "--phi", "x^2"]),
    ("escaping-phi", lambda rng: ["verify-hh", "--f", "x^2", "--g", "2*x^2", "--interval",
                                   "0", "1", "--phi", "2*x+1"]),
    ("nonpositive-kernel", lambda rng: ["verify-hh", "--f", "x^2", "--g", "2*x^2",
                                         "--interval", "0", "1", "--h-custom", "t-0.5"]),
    ("unknown-flag", lambda rng: ["verify-hh", "--f", "x^2", "--g", "2*x^2", "--interval",
                                   "0", "1", "--bogus", "1"]),
    ("missing-g", lambda rng: ["verify-hh", "--f", "x^2", "--interval", "0", "1"]),
)
MALFORMED_PER_CYCLE = 4


def _bound_pair(rng, family, a, b, si):
    if family == "kink-osc":
        return family_fn(rng, "kink", a, b), family_fn(rng, "osc", a, b)
    if family == "sqrt-kink":
        return family_fn(rng, "sqrt", a, b), family_fn(rng, "kink", a, b)
    if family == "osc-quart":
        return family_fn(rng, "osc", a, b), family_fn(rng, "quart", a, b)
    if family == "negative":
        f = family_fn(rng, "quad", a, b)
        g = family_fn(rng, "quad", a, b)
        # quad terms stay below 5.7 on intervals of width <= 2: both endpoint sums < 0
        f = Fn(f.terms + [Const(-r4(rng, 6.0, 7.0))], convex_nonneg=False)
        g = Fn(g.terms + [Const(-r4(rng, 8.0, 9.0))], convex_nonneg=False)
        return f, g
    return _pair(rng, family, a, b, dominated=si % 3 != 0, plus=si % 2 == 1)


def _bound_request(rng, rid, slot, si, text):
    name, sub, kname, bound, family = slot
    if family in ("sqrt", "sqrt-kink"):
        a, b = rng.choice(INTERVALS[:3])
    else:
        a, b = rng.choice(INTERVALS)
    pargs, phi, image = phi_args(rng, a, b, si % 5 in (1, 3))
    f, g = (_bound_pair(rng, family, *image, si) if sub == "verify-hh"
            else _pair(rng, family, *image, dominated=si % 3 != 0, plus=si % 2 == 1))
    argv = base_argv(sub, f, g, a, b) + pargs
    quad_tol = 1e-10
    if sub == "special-case":
        s = round(rng.uniform(0.2, 0.8), 2)
        argv += ["--which", "all", "--s", repr(s)]
        kernel = {"kind": "special", "s": s}
    elif kname in CUSTOM_KERNELS and name.startswith("custom/"):
        argv += ["--h-custom", kname]
        kernel = dict(CUSTOM_KERNELS[kname])
    else:
        kargs, kernel = kernel_args(rng, kname)
        argv += kargs
    if sub == "verify-hh":
        argv += ["--bound", bound]
    if "tight" in name:
        quad_tol = 1e-13
        argv += ["--quad-tol", repr(quad_tol)]
    fmt = "text" if text else "json"
    if text:
        argv += ["--format", "text"]
    return Request(rid, name, argv, sub, fmt=fmt, f=f, g=g, kernel=kernel, interval=(a, b),
                   phi=phi, bound=bound, quad_tol=quad_tol)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


# cycles per timed pass where a run repeats passes: two for rows-random so
# that its tail percentile has 48 requests under it
PASS_CYCLES = {"sweep-grid": 1, "rows-random": 2}


def run_plan(workload: str, seconds: float) -> tuple[int, int]:
    """(cycles, timed passes) filling about `seconds`.

    A request's latency is its best pass.  The host's speed drifts by tens
    of percent over seconds, and repeats a whole pass apart rarely all land
    in a slow spell.  bounds-mix instead makes one pass of many cycles, so
    that a run holds at least 11 divergent-kernel requests for the tail.
    """
    if workload == "bounds-mix":
        return max(1, round(seconds / NOMINAL_CYCLE_S[workload])), 1
    cycles = PASS_CYCLES[workload]
    return cycles, max(1, round(seconds / (cycles * NOMINAL_CYCLE_S[workload])))


def _shrink(slot):
    """The same slot with plans about 1/50 the size, for the self-check."""
    if isinstance(slot[1], tuple):
        return slot[0], tuple(max(3, n // 4) | 1 for n in slot[1])
    sub, strategy, size, refine = slot
    return sub, strategy, max(5, size // 50) if strategy == "random" else max(5, size // 4) | 1, \
        refine


def generate(workload: str, seed: int, cycles: int, small: bool = False) -> list[Request]:
    """The request list of a run; identical for identical arguments."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    out: list[Request] = []
    for cycle in range(cycles):
        if workload == "sweep-grid":
            slots = [_shrink(s) for s in _sweep_slots()] if small else _sweep_slots()
            jobs = [(si, fi) for si in range(len(slots)) for fi in range(len(SWEEP_FAMILIES))]
            rng.shuffle(jobs)
            for si, fi in jobs:
                out.append(_sweep_request(rng, len(out), slots[si], SWEEP_FAMILIES[fi], si, fi))
        elif workload == "rows-random":
            slots = [_shrink(s) for s in ROWS_SLOTS] if small else ROWS_SLOTS
            jobs = [(si, fi) for si in range(len(slots)) for fi in range(len(ROWS_FAMILIES))]
            rng.shuffle(jobs)
            for si, fi in jobs:
                out.append(_rows_request(rng, len(out), slots[si], ROWS_FAMILIES[fi], si, fi))
        else:
            jobs = [("valid", i) for i in range(len(_BOUND_SLOTS))]
            jobs += [("malformed", (MALFORMED_PER_CYCLE * cycle + j) % len(_MALFORMED))
                     for j in range(MALFORMED_PER_CYCLE)]
            rng.shuffle(jobs)
            for kind, i in jobs:
                rid = len(out)
                if kind == "valid":
                    out.append(_bound_request(rng, rid, _BOUND_SLOTS[i], i, i in TEXT_SLOTS))
                else:
                    name, make = _MALFORMED[i]
                    argv = make(rng)
                    if (i + cycle) % 4 == 0:
                        argv = argv + ["--format", "text"]
                    fmt = "text" if "text" in argv else "json"
                    out.append(Request(rid, f"malformed/{name}", argv, argv[0], fmt=fmt,
                                       malformed=True))
    return out
