"""Deciding whether a partial function extends to a coverage function.

The decision is a feasibility question for an exact linear program with
one equality row per defined point and one nonnegative variable (a
W-coefficient) per distinct hit pattern, represented by its smallest
set: sets meeting the same defined sets are interchangeable there. A
feasible basic solution is a witness whose support size cannot exceed
the number of points, because at a vertex the nonzero variables are
limited by the row count. An infeasible program yields multipliers
l_1..l_n over the points with

    sum of l_i over points meeting S  <=  0   for every nonempty S, and
    sum of f_i * l_i                  >   0,

which refutes every candidate coverage extension at once. S enters the
first line only through the points it meets, so the check prices each
hit pattern once (setfun.span_violation), not every subset of [m]. Both
artifacts are re-verified here before being returned; we never trust the
solver's algebra blindly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .lp import EQUAL, FEASIBLE, INFEASIBLE, LinearProgram, solve
from .setfun import (
    DEFAULT_ENUMERATION_CAP,
    Mask,
    PartialFunction,
    WCoefficients,
    coverage_check,
    eval_from_w,
    require_enumerable,
    span_columns,
    span_rows,
    span_violation,
)

_ZERO = Fraction(0)


class ExtensionVerdict(NamedTuple):
    extendible: bool
    witness: Optional[WCoefficients] = None
    certificate: Optional[tuple[Fraction, ...]] = None


def extension_program(pf: PartialFunction, columns: Sequence[tuple[Mask, Mask]]) -> LinearProgram:
    """Feasibility program over one coefficient per distinct hit pattern.

    Variable c carries w(S), (S, pattern) = columns[c] from span_columns;
    every point contributes the equality row: weight on sets meeting T_i = f_i.
    """
    rows, scale = span_rows(columns, pf.points, EQUAL)
    return LinearProgram._stored(len(columns), (_ZERO,) * len(columns), rows, scale)


def decide_extension(pf: PartialFunction, cap: int = DEFAULT_ENUMERATION_CAP) -> ExtensionVerdict:
    """Exact verdict with a verified witness or a verified certificate."""
    require_enumerable(pf.m, cap)
    columns = span_columns(pf.m, pf.masks())
    outcome = solve(extension_program(pf, columns))
    if outcome.status == FEASIBLE:
        support = tuple((s, v) for (s, _), v in zip(columns, outcome.solution) if v)
        witness = WCoefficients(pf.m, support)
        if len(witness.support) > pf.n:
            raise AssertionError("basic solution exceeded the support bound")
        if not verify_witness(pf, witness):
            raise AssertionError("internal error: witness failed verification")
        return ExtensionVerdict(True, witness=witness)
    if outcome.status != INFEASIBLE:
        raise AssertionError("feasibility program cannot be unbounded")
    certificate = tuple(-r for r in outcome.farkas_ray)
    if not verify_certificate(pf, certificate, cap=cap):
        raise AssertionError("internal error: certificate failed verification")
    return ExtensionVerdict(False, certificate=certificate)


def verify_witness(pf: PartialFunction, w: WCoefficients) -> bool:
    """True iff w is nonnegative and reproduces every defined value exactly."""
    if w.m != pf.m or not coverage_check(w.support).is_coverage:
        return False
    return all(eval_from_w(w, mask) == value for mask, value in pf.points)


def verify_certificate(
    pf: PartialFunction, certificate: Sequence[Fraction], cap: int = DEFAULT_ENUMERATION_CAP
) -> bool:
    """Check the refutation: every span sum <= 0 and a positive objective.

    The span sums are priced once per hit pattern (setfun.span_violation),
    which covers every nonempty subset of [m] without listing them.
    """
    require_enumerable(pf.m, cap)
    if len(certificate) != pf.n:
        return False
    inside = span_violation(pf.m, pf.masks(), certificate) is None
    objective = sum((v * l for (_, v), l in zip(pf.points, certificate)), _ZERO)
    return inside and objective > 0
