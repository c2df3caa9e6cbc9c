"""Exact toolkit for coverage set functions.

Decides whether a partial set function extends to a coverage function
(with verifiable witnesses and infeasibility certificates), bounds the
best multiplicative stretch factor, computes the restricted L1 norm
extension with its additive guarantee, and builds the classic reduction
gadgets between cut, span, and coverage membership problems. Everything
runs in exact rational arithmetic at desk scale.

Each library module is imported the first time one of its names, or the
module itself, is read from the package (PEP 562).
"""

import importlib

# library module -> the public names it defines, in the order of __all__
_EXPORTS = {
    "errors": ("CapExceededError", "CoverextError", "InstanceParseError",
               "MalformedProgramError", "SeedExhaustedError"),
    "lp": ("EQUAL", "FEASIBLE", "GREATER_EQUAL", "INFEASIBLE", "LESS_EQUAL", "UNBOUNDED",
           "LinearProgram", "LpOutcome", "solve", "verify_farkas", "verify_solution"),
    "setfun": ("DEFAULT_ENUMERATION_CAP", "CoverageCheck", "PartialFunction", "TotalSetFunction",
               "WCoefficients", "eval_from_w", "is_coverage", "w_transform"),
    "extension": ("ExtensionVerdict", "decide_extension", "extension_program",
                  "verify_certificate", "verify_witness"),
    "approx": ("AlphaBounds", "alpha_bounds", "alpha_star_exact", "ceil_two_thirds",
               "generate_tight_instance", "harmonic", "replacement_ratio_exact",
               "replacement_ratio_greedy"),
    "norm": ("NormResult", "norm_extension_approx", "norm_opt_exact", "verify_dual_feasible"),
    "gadgets": ("DeltaSpec", "DensestCutReport", "FractionalColoring", "Graph", "MembershipCheck",
                "MembershipInstance", "check_cut_membership", "check_span_membership",
                "chromatic_gadget", "coverage_span_sums", "cut_to_span_gadget",
                "densest_cut_gadget", "densest_cut_report",
                "fractional_chromatic", "setcover_membership_gadget"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    """Import the module behind a library module name or a public name on first use."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")  # the import binds it here
    for module_name, names in _EXPORTS.items():
        if name in names:
            module = importlib.import_module(f"{__name__}.{module_name}")
            value = globals()[name] = getattr(module, name)  # later reads skip this hook
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
