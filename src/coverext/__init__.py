"""Exact toolkit for coverage set functions.

Decides whether a partial set function extends to a coverage function
(with verifiable witnesses and infeasibility certificates), bounds the
best multiplicative stretch factor, computes the restricted L1 norm
extension with its additive guarantee, and builds the classic reduction
gadgets between cut, span, and coverage membership problems. Everything
runs in exact rational arithmetic at desk scale.
"""

from .errors import (
    CapExceededError,
    CoverextError,
    InstanceParseError,
    MalformedProgramError,
    SeedExhaustedError,
)
from .lp import (
    EQUAL,
    FEASIBLE,
    GREATER_EQUAL,
    INFEASIBLE,
    LESS_EQUAL,
    UNBOUNDED,
    LinearProgram,
    LpOutcome,
    solve,
    verify_farkas,
    verify_solution,
)
from .setfun import (
    DEFAULT_ENUMERATION_CAP,
    CoverageCheck,
    PartialFunction,
    TotalSetFunction,
    WCoefficients,
    eval_from_w,
    is_coverage,
    w_transform,
)
from .extension import (
    ExtensionVerdict,
    decide_extension,
    extension_program,
    verify_certificate,
    verify_witness,
)
from .approx import (
    AlphaBounds,
    alpha_bounds,
    alpha_star_exact,
    ceil_two_thirds,
    generate_tight_instance,
    harmonic,
    replacement_ratio_exact,
    replacement_ratio_greedy,
)
from .norm import (
    NormResult,
    norm_extension_approx,
    norm_opt_exact,
    verify_dual_feasible,
)
from .gadgets import (
    DeltaSpec,
    DensestCutReport,
    FractionalColoring,
    Graph,
    MembershipCheck,
    MembershipInstance,
    check_cut_membership,
    check_span_membership,
    chromatic_gadget,
    coverage_span_sums,
    cut_to_span_gadget,
    densest_cut_gadget,
    densest_cut_report,
    fractional_chromatic,
    setcover_membership_gadget,
)

__all__ = [
    "CapExceededError", "CoverextError", "InstanceParseError", "MalformedProgramError",
    "SeedExhaustedError", "EQUAL", "FEASIBLE", "GREATER_EQUAL", "INFEASIBLE",
    "LESS_EQUAL", "UNBOUNDED", "LinearProgram", "LpOutcome", "solve", "verify_farkas",
    "verify_solution", "DEFAULT_ENUMERATION_CAP", "CoverageCheck", "PartialFunction",
    "TotalSetFunction", "WCoefficients", "eval_from_w", "is_coverage",
    "w_transform", "ExtensionVerdict", "decide_extension",
    "extension_program", "verify_certificate", "verify_witness", "AlphaBounds",
    "alpha_bounds", "alpha_star_exact", "ceil_two_thirds", "generate_tight_instance",
    "harmonic", "replacement_ratio_exact", "replacement_ratio_greedy", "NormResult",
    "norm_extension_approx", "norm_opt_exact", "verify_dual_feasible", "DeltaSpec",
    "DensestCutReport", "FractionalColoring", "Graph", "MembershipCheck",
    "MembershipInstance", "check_cut_membership", "check_span_membership",
    "chromatic_gadget", "coverage_span_sums", "cut_to_span_gadget",
    "densest_cut_gadget", "densest_cut_report",
    "fractional_chromatic", "setcover_membership_gadget",
]
