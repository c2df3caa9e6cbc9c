"""Multiplicative approximate extension: exact optimum and certified bounds.

The stretch optimum alpha* is the least alpha >= 1 admitting a coverage
function with f_i <= f(T_i) <= alpha * f_i at every point. At desk scale
it is an exact LP with one variable per distinct hit pattern, represented
by its smallest set, plus the stretch variable.

The bound machinery views the instance as a bipartite graph (points on
the left, ground elements on the right). A replacement for a left vertex
v is a set of other left vertices jointly covering v's neighborhood; the
replacement ratio kappa is the cheapest replacement weight relative to
f_v over all v. Then

    1 / kappa  <=  alpha*  <=  min(d, ceil(m^(2/3))) / kappa,

where d is the maximum defined-set size. kappa is computed exactly per
point v by setfun.cheapest_unions, the least-cost union DP that also
builds the LP columns, over the other points' sets projected onto T_v.
Such a union is a subset of T_v built from at most n - 1 sets, so at
most 2^min(d, n-1) unions arise per point, and the enumeration cap gates
that exponent; for fixed d, the paper's bounded-degree regime, the DP
takes O(n^2 * 2^d) steps. Weighted greedy cover approximates kappa
within the harmonic factor H_d instead.

generate_tight_instance builds the family showing the lower bound is
real: sqrt(m) consecutive blocks of weight sqrt(m) against random unit
transversals, validated over every hit pattern (setfun.span_violation)
so that every subset meets at least as many transversals as blocks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .errors import CapExceededError, SeedExhaustedError
from .lp import FEASIBLE, GREATER_EQUAL, INFEASIBLE, LESS_EQUAL, LinearProgram, solve
from .setfun import (
    DEFAULT_ENUMERATION_CAP,
    PartialFunction,
    _is_int,
    cheapest_unions,
    require_enumerable,
    span_columns,
    span_rows,
    span_violation,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

Ratio = Union[Fraction, float]  # float only ever holds math.inf

#: Transversal draws generate_tight_instance validates before it gives up.
_MAX_ATTEMPTS = 64


def harmonic(k: int) -> Fraction:
    """Exact k-th harmonic number, the greedy cover guarantee."""
    return sum((Fraction(1, i) for i in range(1, k + 1)), _ZERO)


def ceil_two_thirds(m: int) -> int:
    """Smallest integer t >= 1 with t^3 >= m^2, by bisection; rational stand-in for m^(2/3)."""
    lo, hi = 1, max(1, abs(m))  # hi^3 >= m^2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** 3 < m * m:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _least_ratio(pf: PartialFunction, cover) -> Ratio:
    """Least cover(pts, v) / f_v over points v with f_v > 0; math.inf if no T_v is covered.

    cover gives the weight of a cover of T_v by the other points, or None.
    Zero-weight points never enter the minimization (their ratio is
    undefined) but may serve inside covers for free.
    """
    best: Ratio = math.inf
    pts = pf.points
    for v, (_, weight_v) in enumerate(pts):
        total = cover(pts, v) if weight_v else None
        if total is not None:
            best = min(best, total / weight_v)
    return best


def _cheapest_cover(pts, v) -> Optional[Fraction]:
    """Least weight of other points whose sets, projected onto T_v, cover T_v."""
    target = pts[v][0]
    parts = ((mask & target, weight) for i, (mask, weight) in enumerate(pts) if i != v)
    return cheapest_unions(parts).get(target)


def _greedy_cover(pts, v) -> Optional[Fraction]:
    """Weighted greedy cover: least weight per new element, then smallest index."""
    uncovered, total = pts[v][0], _ZERO
    while uncovered:
        # (weight per newly covered element, index) of every other point meeting it
        keys = [(w / (t & uncovered).bit_count(), i)
                for i, (t, w) in enumerate(pts) if i != v and t & uncovered]
        if not keys:
            return None
        _, pick = min(keys)
        total += pts[pick][1]
        uncovered &= ~pts[pick][0]
    return total


def replacement_ratio_exact(pf: PartialFunction, cap: int = DEFAULT_ENUMERATION_CAP) -> Ratio:
    """kappa by an exact cover DP per point; math.inf when nothing is replaceable.

    For each point v, cheapest_unions over the other points' sets
    projected onto T_v keeps the least weight of every union, so the
    weight kept at T_v is the cheapest cover. A point missing T_v is an
    empty part and changes nothing.
    """
    require_enumerable(min(pf.d, pf.n - 1), cap, "kappa cover DP bound min(d, n-1) =")
    return _least_ratio(pf, _cheapest_cover)


def replacement_ratio_greedy(pf: PartialFunction) -> Ratio:
    """kappa' via weighted greedy cover per vertex; kappa <= kappa' <= kappa * H_d."""
    return _least_ratio(pf, _greedy_cover)


def alpha_star_program(pf: PartialFunction) -> LinearProgram:
    """min alpha with f_i <= (weight on sets meeting T_i) <= alpha * f_i.

    The last variable is beta = alpha - 1 >= 0, so the program is in
    standard form and its optimum is alpha* - 1.
    """
    columns = span_columns(pf.m, pf.masks())
    beta = len(columns)  # last variable
    spans, scale = span_rows(columns, pf.points, GREATER_EQUAL)
    rows = []
    for idx, coeffs, relation, rhs in spans:
        rows.append((idx, coeffs, relation, rhs))
        rows.append((idx + (beta,), coeffs + (-rhs,), LESS_EQUAL, rhs))
    return LinearProgram._stored(beta + 1, (_ZERO,) * beta + (_ONE,), rows, scale)


def alpha_star_exact(pf: PartialFunction, cap: int = DEFAULT_ENUMERATION_CAP) -> Ratio:
    """The exact optimum, or math.inf when no stretch makes the system feasible.

    Infeasibility for every alpha can happen when zero-valued points force
    all weights meeting some positive point to vanish.
    """
    require_enumerable(pf.m, cap)
    outcome = solve(alpha_star_program(pf))
    if outcome.status == INFEASIBLE:
        return math.inf
    if outcome.status != FEASIBLE:
        raise AssertionError("stretch program is bounded below by 1, cannot be unbounded")
    return _ONE + outcome.objective_value


class AlphaBounds(NamedTuple):
    """A certified sandwich around alpha*; degenerate means kappa was infinite."""

    kappa_estimate: Ratio
    kappa_is_exact: bool
    lower: Ratio
    upper: Ratio
    alpha_star: Optional[Ratio] = None
    degenerate: bool = False


def alpha_bounds(
    pf: PartialFunction,
    mode: str = "exact",
    include_alpha_star: bool = False,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> AlphaBounds:
    """Bracket alpha* using the replacement ratio.

    exact mode: [1/kappa, min(d, ceil(m^(2/3))) / kappa]. greedy mode uses
    kappa' and pays the extra harmonic factor on the upper side, which
    keeps the bracket valid since kappa <= kappa' <= kappa * H_d.

    The upper bound is clamped to the definitional floor alpha* >= 1:
    whenever the raw ratio bound dips below 1 (kappa exceeds the factor),
    the same replacement argument shows the instance is plainly extendible,
    so alpha* = 1 and the clamp is exact, not a relaxation.

    cap gates the exact kappa (on min(d, n-1)) and alpha* (on m); greedy
    kappa is polynomial and ignores it.
    """
    if mode not in ("exact", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    # alpha* first: since d <= m, its gate on m refuses wherever kappa's would, at no cost
    star = alpha_star_exact(pf, cap=cap) if include_alpha_star else None
    if mode == "exact":
        kappa = replacement_ratio_exact(pf, cap=cap)
    else:
        kappa = replacement_ratio_greedy(pf)

    factor = min(pf.d, ceil_two_thirds(pf.m))

    if kappa == math.inf:
        # nothing replaceable anywhere: fall back to the universal bounds
        return AlphaBounds(kappa, mode == "exact", _ONE, math.inf, star, degenerate=True)
    if kappa == 0:
        # a free replacement pins the replaced point's value to zero under
        # every candidate function, so no stretch is ever feasible
        return AlphaBounds(kappa, mode == "exact", math.inf, math.inf, star, degenerate=True)

    slack = _ONE if mode == "exact" else harmonic(pf.d)  # greedy kappa is within H_d
    upper = max(_ONE, factor * slack / kappa)
    return AlphaBounds(kappa, mode == "exact", 1 / kappa, upper, star, degenerate=star == math.inf)


def generate_tight_instance(
    m: int,
    k: int = 2,
    seed: int = 0,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> PartialFunction:
    """Blocks-versus-transversals family with d = sqrt(m) and kappa = 1.

    The ground set splits into sqrt(m) consecutive blocks of size sqrt(m),
    each a point of value sqrt(m); k * sqrt(m) * ceil(log2 m) random
    transversals (one uniform element per block) get value 1. A draw is
    accepted only if every nonempty subset of the ground set meets at
    least as many transversals as blocks, checked once per hit pattern by
    setfun.span_violation; otherwise the transversals are redrawn, up to
    _MAX_ATTEMPTS times. More than 2^cap draws raise CapExceededError
    before any is drawn, the budget that cap sets on enumerated objects.
    """
    if not _is_int(m):
        raise ValueError(f"m must be an int, got {m!r}")
    if m < 1:
        raise ValueError("ground set must be nonempty")
    root = math.isqrt(m)
    if root * root != m:
        raise ValueError(f"m = {m} is not a perfect square")
    if root == 1:
        raise ValueError("m = 1 has no transversal to draw; the smallest family is m = 4")
    require_enumerable(m, cap)
    if not _is_int(k):
        raise ValueError(f"k must be an int, got {k!r}")
    if k < 1:
        raise ValueError("k must be at least 1")

    blocks = [((1 << root) - 1) << (b * root) for b in range(root)]
    log_factor = (m - 1).bit_length()  # ceil(log2 m)
    count = k * root * log_factor
    # the bit-length test keeps a huge cap from building 2^cap
    if count.bit_length() > cap and count > 1 << cap:
        raise CapExceededError(f"k * {root * log_factor} transversal draws exceed 2^{cap}")

    import random  # only gen tight draws, so no other command loads it

    rng = random.Random(seed)
    for _ in range(_MAX_ATTEMPTS):
        # A transversal meets all root >= 2 blocks, so it is never a block itself.
        trans = sorted({sum(1 << (b * root + rng.randrange(root)) for b in range(root))
                        for _ in range(count)})
        points = [(mask, Fraction(root)) for mask in blocks]
        points += [(mask, _ONE) for mask in trans]
        # Blocks weigh +1 and transversals -1, so no positive span sum
        # means every subset meets at least as many transversals as blocks.
        weights = [1] * len(blocks) + [-1] * len(trans)
        if span_violation(m, blocks + trans, weights) is None:
            return PartialFunction(m, tuple(points))
    raise SeedExhaustedError(
        f"no valid transversal draw within {_MAX_ATTEMPTS} attempts (m={m}, k={k}, seed={seed})"
    )

