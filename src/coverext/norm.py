"""L1 norm extension: restricted polynomial-size approximation and exact oracle.

The full problem minimizes the total absolute error sum |f(T_i) - f_i|
over coverage functions f, written as an LP with one coefficient
variable per distinct hit pattern, represented by its smallest set, and
one over-estimate eps+_i per point. The under-estimate eps-_i is the
slack of the point's <= row, so w = 0, eps+ = 0 is a feasible start
(f >= 0) and the solver's phase 1 is empty. Restricting the coefficients
to singletons gives a polynomial-size program whose optimum OPT_R
satisfies

    OPT  <=  OPT_R  <=  OPT + (1 - 1/d) * F,

with d the maximum defined-set size and F the total defined value. The
guarantee is certified through the dual: the restricted duals y_R (one
plus the <= rows' duals) live in [-1, 1] and respect only the singleton
span constraints; dividing the positive entries by d repairs every
other span constraint, and the repaired vector prices out against the
full program.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .lp import FEASIBLE, LESS_EQUAL, LinearProgram, solve
from .setfun import (
    DEFAULT_ENUMERATION_CAP,
    Mask,
    PartialFunction,
    WCoefficients,
    eval_from_w,
    hit_patterns,
    require_enumerable,
    span_columns,
    span_rows,
    span_violation,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)
_TWO = Fraction(2)


class NormResult(NamedTuple):
    opt_restricted: Fraction
    witness: WCoefficients                  # support contained in singletons
    primal_errors: tuple[Fraction, ...]     # f(T_i) - f_i under the witness
    dual_restricted: tuple[Fraction, ...]
    dual_rounded: tuple[Fraction, ...]
    additive_bound: Fraction                # (1 - 1/d) * F
    opt_exact: Optional[Fraction] = None


def _held_singletons(pf: PartialFunction) -> list[tuple[Mask, Mask]]:
    """The singleton of every element some point holds, with its hit pattern, ascending.

    Any other singleton is an all-zero column, which never enters.
    """
    top = max(pf.masks()).bit_length()  # the highest held element; past it every column is zero
    return [(1 << j, hit) for j, hit in enumerate(hit_patterns(top, pf.masks())) if hit]


def _norm_program(pf: PartialFunction, columns: Sequence[tuple[Mask, Mask]]) -> LinearProgram:
    """min 2 sum(eps+) - sum |pattern_c| w_c, with (weight meeting T_i) - eps+_i <= f_i.

    eps-_i is the row's slack, f_i - (weight meeting T_i) + eps+_i, so
    sum(eps+ + eps-) is this objective plus F: OPT = LP value + F.
    """
    nw = len(columns)
    spans, scale = span_rows(columns, pf.points, LESS_EQUAL)
    rows = tuple((idx + (nw + i,), coeffs + (-scale,), relation, rhs)
                 for i, (idx, coeffs, relation, rhs) in enumerate(spans))  # then eps+_i
    cost = [Fraction(-k) for k in range(pf.n + 1)]  # one Fraction per |pattern|, not per column
    objective = tuple(cost[p.bit_count()] for _, p in columns) + (_TWO,) * pf.n
    return LinearProgram._make((nw + pf.n, objective, rows, scale))


def norm_extension_approx(
    pf: PartialFunction,
    with_exact: bool = False,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> NormResult:
    """Solve the singleton-restricted program; optionally attach the exact optimum.

    The restricted program has one column per held singleton; only
    with_exact builds one per hit pattern.
    """
    exact = norm_opt_exact(pf, cap=cap) if with_exact else None  # its cap gate refuses first
    singletons = _held_singletons(pf)
    outcome = solve(_norm_program(pf, singletons))
    if outcome.status != FEASIBLE:
        raise AssertionError("restricted norm program is always feasible")
    support = [(s, v) for (s, _), v in zip(singletons, outcome.solution) if v]
    witness = WCoefficients(pf.m, tuple(support))
    errors = tuple(eval_from_w(witness, mask) - value for mask, value in pf.points)
    total = pf.total_value
    opt_restricted = outcome.objective_value + total
    if sum(abs(e) for e in errors) != opt_restricted:
        raise AssertionError("internal error: witness errors disagree with the LP optimum")

    dual = tuple(1 + u for u in outcome.row_duals)  # the L1 dual y = 1 + u, u the <= rows' duals
    if any(y < -1 or y > 1 for y in dual):
        raise AssertionError("internal error: restricted duals escaped [-1, 1]")
    if sum((v * y for (_, v), y in zip(pf.points, dual)), _ZERO) != opt_restricted:
        raise AssertionError("internal error: dual value disagrees with the optimum")
    d = pf.d
    rounded = tuple(y if y <= 0 else y / d for y in dual)
    bound = (_ONE - Fraction(1, d)) * total
    return NormResult(opt_restricted, witness, errors, dual, rounded, bound, exact)


def norm_opt_exact(pf: PartialFunction, cap: int = DEFAULT_ENUMERATION_CAP) -> Fraction:
    """Exact optimum over all coverage functions (one column per hit pattern)."""
    require_enumerable(pf.m, cap)
    outcome = solve(_norm_program(pf, span_columns(pf.m, pf.masks())))
    if outcome.status != FEASIBLE:
        raise AssertionError("full norm program is always feasible")
    return outcome.objective_value + pf.total_value


def verify_dual_feasible(
    pf: PartialFunction, y: Sequence[Fraction], cap: int = DEFAULT_ENUMERATION_CAP
) -> bool:
    """Box |y_i| <= 1 plus span sums <= 0 over every nonempty subset.

    The span sums are priced once per hit pattern (setfun.span_violation),
    not once per subset of [m].
    """
    require_enumerable(pf.m, cap)
    if len(y) != pf.n:
        return False
    return span_violation(pf.m, pf.masks(), y) is None and all(-1 <= v <= 1 for v in y)
