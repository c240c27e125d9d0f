"""Numerical certificates for kernel-weighted convexity dominance.

The package samples and certifies three related statements about a pair
of functions (f, g) composed with an affine map, relative to a positive
weight kernel h on (0, 1):

* convexity of a single function in the kernel-weighted sense,
* pointwise dominance of f's convexity defect by g's,
* the two-sided integral bounds (midpoint and endpoint forms) that the
  dominance implies.

Everything is deterministic: identical inputs produce byte-identical
reports, including the JSON emitted by the command line tool.
"""

__version__ = "0.1.0"

from .convexity import (
    CheckReport,
    EquivalenceReport,
    FunctionPair,
    PreconditionError,
    SamplePlan,
    check_dominated,
    check_phi_h_convex,
    decompose,
    dominance_gap,
    equivalence_report,
    phi_h_defect,
)
from .errors import DomcertError
from .expr import EvalError, Expr, ParseError, combine, constant, parse
from .geometry import (
    AffineMap,
    GeometryError,
    Interval,
    affine_from_expr,
    identity_map,
    make_affine,
)
from .hadamard import (
    HHReport,
    ReportError,
    SpecialCaseEntry,
    hh_endpoint_report,
    hh_midpoint_report,
    special_case_report,
)
from .kernels import Kernel, KernelError, make_kernel
from .quadrature import QuadratureError, QuadResult, integrate, integrate_open01
from .search import ViolationRecord, search_violations

__all__ = [
    "AffineMap",
    "CheckReport",
    "DomcertError",
    "EquivalenceReport",
    "EvalError",
    "Expr",
    "FunctionPair",
    "GeometryError",
    "HHReport",
    "Interval",
    "Kernel",
    "KernelError",
    "ParseError",
    "PreconditionError",
    "QuadResult",
    "QuadratureError",
    "ReportError",
    "SamplePlan",
    "SpecialCaseEntry",
    "ViolationRecord",
    "affine_from_expr",
    "check_dominated",
    "check_phi_h_convex",
    "combine",
    "constant",
    "decompose",
    "dominance_gap",
    "equivalence_report",
    "hh_endpoint_report",
    "hh_midpoint_report",
    "identity_map",
    "integrate",
    "integrate_open01",
    "make_affine",
    "make_kernel",
    "parse",
    "phi_h_defect",
    "search_violations",
    "special_case_report",
    "__version__",
]
