"""Exact linear programming over the rationals.

Two-phase primal simplex on a dense fraction-free (Bareiss) tableau:
integer entries over one common denominator, the determinant of the
current basis, so no entry needs a gcd and every division is exact.
Programs, solutions and certificates are fractions.Fraction; there is no
floating point and no tolerance anywhere in this module. Feasible
programs yield a basic (vertex) solution, optimal when an objective is
present. Infeasible programs yield a Farkas ray over the input rows,
checkable by direct aggregation (verify_farkas). Bland's smallest-index
rule drives both the entering and leaving choices, so the solver cannot
cycle and is bit-for-bit deterministic.

Programs are in standard form: minimize c'x over sparse rows (<=, =, >=)
with every variable x_j >= 0 and no other per-variable bound; any other
limit on a variable is written as a row. Internally each row gets a slack
or an artificial so that the initial basis is the identity; that identity
is also what lets us read dual multipliers and Farkas rays straight off
the final reduced-cost row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import MalformedProgramError
from .setfun import ExactLike, _coerce_value

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="
_RELATIONS = (LESS_EQUAL, EQUAL, GREATER_EQUAL)

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)

@dataclass(frozen=True)
class Row:
    coeffs: tuple[tuple[int, Fraction], ...]  # sparse, sorted by index
    relation: str
    rhs: Fraction


class LinearProgram:
    """Immutable standard-form program: min objective'x, sparse rows, x >= 0.

    rows are given as (coeffs, relation, rhs) where coeffs is a mapping or
    an iterable of (index, value) pairs. Every variable is nonnegative and
    has no other bound; write any other limit as a row.
    """

    __slots__ = ("num_vars", "objective", "rows")

    def __init__(
        self,
        num_vars: int,
        objective: Optional[Sequence[ExactLike]] = None,
        rows: Iterable[tuple] = (),
    ):
        if not isinstance(num_vars, int) or num_vars < 1:
            raise MalformedProgramError(f"num_vars must be a positive int, got {num_vars!r}")
        self.num_vars = num_vars

        if objective is None:
            obj = (_ZERO,) * num_vars
        else:
            if len(objective) != num_vars:
                raise MalformedProgramError(
                    f"objective has {len(objective)} entries for {num_vars} variables"
                )
            what = "objective coefficient"
            obj = tuple(_coerce_value(c, what, MalformedProgramError) for c in objective)
        self.objective = obj

        norm_rows = []
        for k, row in enumerate(rows):
            try:
                coeffs, relation, rhs = row
            except (TypeError, ValueError):
                raise MalformedProgramError(f"row {k} is not a (coeffs, relation, rhs) triple")
            if relation not in _RELATIONS:
                raise MalformedProgramError(f"row {k}: unknown relation {relation!r}")
            items: Iterable
            if isinstance(coeffs, Mapping):
                items = coeffs.items()
            else:
                items = coeffs
            seen = {}
            for idx, val in items:
                if not isinstance(idx, int) or not (0 <= idx < num_vars):
                    raise MalformedProgramError(f"row {k}: variable index {idx!r} out of range")
                if idx in seen:
                    raise MalformedProgramError(f"row {k}: duplicate index {idx}")
                seen[idx] = _coerce_value(val, f"row {k} coefficient", MalformedProgramError)
            rhs = _coerce_value(rhs, f"row {k} rhs", MalformedProgramError)
            norm_rows.append(Row(tuple(sorted(seen.items())), relation, rhs))
        self.rows = tuple(norm_rows)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def dump(self) -> str:
        """Canonical text form, one row per line, rationals as p/q. Debug aid."""
        def term(c, j):
            return f"{c} x{j}"

        lines = ["min " + (" + ".join(term(c, j) for j, c in enumerate(self.objective) if c) or "0")]
        for row in self.rows:
            lhs = " + ".join(term(c, j) for j, c in row.coeffs) or "0"
            lines.append(f"{lhs} {row.relation} {row.rhs}")
        return "\n".join(lines)


@dataclass(frozen=True)
class LpOutcome:
    """Result of solve(): exact status plus the relevant certificate.

    solution is a basic feasible point (vertex) when feasible; farkas_ray
    has one multiplier per input row when infeasible (see verify_farkas for
    the exact convention); row_duals carries the simplex multipliers of the
    input rows at optimality. pivots counts simplex pivots over both phases.
    """

    status: str
    solution: Optional[tuple[Fraction, ...]] = None
    objective_value: Optional[Fraction] = None
    farkas_ray: Optional[tuple[Fraction, ...]] = None
    row_duals: Optional[tuple[Fraction, ...]] = None
    pivots: int = 0


def verify_solution(lp: LinearProgram, solution: Sequence[ExactLike]) -> bool:
    """True iff x >= 0 and every row holds exactly."""
    if len(solution) != lp.num_vars:
        raise MalformedProgramError("solution length does not match num_vars")
    x = [_coerce_value(v, "solution entry", MalformedProgramError) for v in solution]
    if any(v < 0 for v in x):
        return False
    for row in lp.rows:
        lhs = sum((c * x[j] for j, c in row.coeffs), _ZERO)
        if row.relation == LESS_EQUAL and lhs > row.rhs:
            return False
        if row.relation == GREATER_EQUAL and lhs < row.rhs:
            return False
        if row.relation == EQUAL and lhs != row.rhs:
            return False
    return True


def verify_farkas(lp: LinearProgram, ray: Sequence[ExactLike]) -> bool:
    """Check an infeasibility certificate by direct aggregation.

    The ray must have nonnegative multipliers on <= rows and nonpositive
    multipliers on >= rows. Aggregating the rows with these multipliers
    gives g'x <= beta, valid for every feasible x; since x >= 0, the
    certificate is good iff g >= 0 and beta < 0.
    """
    if len(ray) != lp.num_rows:
        return False
    r = [_coerce_value(v, "ray entry", MalformedProgramError) for v in ray]
    g = [_ZERO] * lp.num_vars
    beta = _ZERO
    for mult, row in zip(r, lp.rows):
        if row.relation == LESS_EQUAL and mult < 0:
            return False
        if row.relation == GREATER_EQUAL and mult > 0:
            return False
        if mult:
            for j, c in row.coeffs:
                g[j] += mult * c
            beta += mult * row.rhs
    return all(gj >= 0 for gj in g) and beta < 0


# --- internals -------------------------------------------------------------


class _Simplex:
    """Fraction-free (Bareiss) simplex tableau with Bland pivoting.

    Every entry is an int over one common denominator d > 0, the
    determinant of the current basis: the exact tableau entry is
    tab[p][j] / d. Each row ends in its rhs, and the last row is the cost
    row [d * reduced costs | -d * objective]. A pivot on (r, c) with
    pv = tab[r][c] > 0 replaces every other row, cost row included, by
    (row * pv - row[c] * tab[r]) // d, which divides exactly (Sylvester's
    identity), and then sets d = pv. Since d stays positive, every sign
    and every ratio comparison reads as it would on the exact tableau.
    """

    def __init__(self, rows, basis):
        self.tab = rows + [[0] * len(rows[0])]
        self.basis = basis        # basis[p] = column index basic in row p
        self.d = 1
        self.pivots = 0

    def set_costs(self, costs):
        """Rebuild the cost row for integer column costs under the current basis."""
        cost = [self.d * c for c in costs] + [0]
        for row, b in zip(self.tab, self.basis):
            cb = costs[b]
            if cb:
                cost = [v - cb * a for v, a in zip(cost, row)]
        self.tab[-1] = cost

    def pivot(self, pr: int, pc: int):
        tab, d = self.tab, self.d
        prow = tab[pr]
        pv = prow[pc]
        for i, row in enumerate(tab):
            if i == pr:
                continue
            f = row[pc]
            if f:
                tab[i] = [(a * pv - f * b) // d for a, b in zip(row, prow)]
            elif pv != d:
                tab[i] = [a * pv // d for a in row]
        self.d = pv
        self.basis[pr] = pc
        self.pivots += 1

    def run(self, ncand: int) -> str:
        """Minimize until optimal or unbounded, entering only columns below ncand.

        Bland's rule throughout: the first column with a negative reduced cost
        enters; the least ratio rhs/t leaves, ties going to the smaller basic
        column. Ratios are compared by cross-multiplying, all over the same d.
        """
        tab, basis = self.tab, self.basis
        nrows = len(tab) - 1
        while True:
            cost = tab[-1]
            pc = next((j for j in range(ncand) if cost[j] < 0), -1)
            if pc < 0:
                return "optimal"
            pr = -1
            for r in range(nrows):
                row = tab[r]
                t = row[pc]
                if t > 0:
                    if pr < 0:
                        pr, best_t, best_rhs = r, t, row[-1]
                        continue
                    lhs, rhs = row[-1] * best_t, best_rhs * t
                    if lhs < rhs or (lhs == rhs and basis[r] < basis[pr]):
                        pr, best_t, best_rhs = r, t, row[-1]
            if pr < 0:
                return "unbounded"
            self.pivot(pr, pc)


# Per-process accounting for run reports. Purely observational; reset it
# before a batch and snapshot after. Parallel batch runs use one process
# per instance, so there is no shared mutable state to worry about.
_COUNTERS = {"solves": 0, "pivots": 0, "rows": 0, "vars": 0}


def stats_reset() -> None:
    for key in _COUNTERS:
        _COUNTERS[key] = 0


def stats_snapshot() -> dict:
    return dict(_COUNTERS)


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve exactly; see LpOutcome for what each status carries."""
    outcome = _solve(lp)
    _COUNTERS["solves"] += 1
    _COUNTERS["pivots"] += outcome.pivots
    _COUNTERS["rows"] += lp.num_rows
    _COUNTERS["vars"] += lp.num_vars
    return outcome


def _scaled(v: Fraction, scale: int) -> int:
    """v * scale, for a scale that v's denominator divides."""
    return v.numerator * (scale // v.denominator)


def _solve(lp: LinearProgram) -> LpOutcome:
    nv = lp.num_vars

    # Trivially satisfied all-zero rows are the only presolve: they are
    # skipped and get multiplier zero on the way out.
    kept = []  # input row indices that enter the tableau
    for i, row in enumerate(lp.rows):
        if not any(c for _, c in row.coeffs):
            sat = (
                (row.relation == LESS_EQUAL and row.rhs >= 0)
                or (row.relation == GREATER_EQUAL and row.rhs <= 0)
                or (row.relation == EQUAL and row.rhs == 0)
            )
            if sat:
                continue
        kept.append(i)

    if not kept:
        # No constraints: the origin is optimal unless some objective
        # coefficient is negative, which makes that direction unbounded.
        if any(c < 0 for c in lp.objective):
            return LpOutcome(status=UNBOUNDED)
        return LpOutcome(FEASIBLE, (_ZERO,) * nv, _ZERO, None, (_ZERO,) * lp.num_rows, 0)

    # One scale S for every row (coefficients and rhs) and one scale L for
    # the objective make the program integer. The slack and artificial
    # columns stay unit, which rescales those variables by S; a common
    # positive factor per column keeps every sign, ratio order and Bland
    # choice of the unscaled program, and with it the pivot path.
    scale = math.lcm(
        *(lp.rows[i].rhs.denominator for i in kept),
        *(c.denominator for i in kept for _, c in lp.rows[i].coeffs),
    )
    obj_scale = math.lcm(*(c.denominator for c in lp.objective))

    nrows = len(kept)
    n_slack = sum(1 for i in kept if lp.rows[i].relation != EQUAL)

    # Tableau layout: structural | slacks | artificials | rhs.
    slack_base = nv
    art_base = nv + n_slack
    orig = list(kept)            # input row index of each tableau row
    sigma = [1] * nrows          # -1 where the row was negated to make rhs >= 0
    init_col = [0] * nrows       # identity column of each row (slack or artificial)
    is_art_seed = [False] * nrows

    tab = []
    rhs_col = []
    slack_idx = 0
    for p, i in enumerate(kept):
        row = lp.rows[i]
        srow = [0] * art_base
        for j, c in row.coeffs:
            srow[j] = _scaled(c, scale)
        rhs = _scaled(row.rhs, scale)
        scol = -1
        if row.relation != EQUAL:
            scol = slack_base + slack_idx
            srow[scol] = 1 if row.relation == LESS_EQUAL else -1
            slack_idx += 1
        if rhs < 0:
            sigma[p] = -1
            srow = [-v for v in srow]
            rhs = -rhs
        if scol >= 0 and srow[scol] == 1:
            init_col[p] = scol
        else:
            is_art_seed[p] = True
        tab.append(srow)
        rhs_col.append(rhs)

    n_art = sum(is_art_seed)
    k = 0
    for p in range(nrows):
        pad = [0] * n_art
        if is_art_seed[p]:
            pad[k] = 1
            init_col[p] = art_base + k
            k += 1
        tab[p] += pad
        tab[p].append(rhs_col[p])

    ncols = nv + n_slack + n_art
    sx = _Simplex(tab, list(init_col))

    # Phase 1: minimize the artificial total.
    if n_art:
        sx.set_costs([0] * art_base + [1] * n_art)
        status = sx.run(ncols)
        if status != "optimal":
            raise AssertionError("phase 1 cannot be unbounded")
        d, cost = sx.d, sx.tab[-1]
        if cost[-1] < 0:  # the artificial total is -cost[-1] / d > 0
            ray = [_ZERO] * lp.num_rows
            for p in range(nrows):
                ic = init_col[p]
                y = (d if ic >= art_base else 0) - cost[ic]  # d * (phase-1 cost - reduced cost)
                ray[orig[p]] = Fraction(-sigma[p] * y, d)
            if not verify_farkas(lp, ray):
                raise AssertionError("internal error: extracted Farkas ray failed verification")
            return LpOutcome(INFEASIBLE, None, None, tuple(ray), None, sx.pivots)
        # Drive basic artificials out; delete rows that turned out redundant.
        drop = []
        for p in range(nrows):
            if sx.basis[p] < art_base:
                continue
            row = sx.tab[p]
            if row[-1] != 0:
                raise AssertionError("basic artificial with nonzero value at phase-1 optimum")
            pc = next((j for j in range(art_base) if row[j]), -1)
            if pc < 0:
                drop.append(p)
                continue
            if row[pc] < 0:
                # The rhs is zero, so negating the row keeps it valid; the
                # pivot entry turns positive and d stays positive.
                sx.tab[p] = [-v for v in row]
            sx.pivot(p, pc)
        for p in reversed(drop):
            del sx.tab[p], sx.basis[p], orig[p], sigma[p], init_col[p]

    # Phase 2: the objective on the structural columns, zero elsewhere.
    costs = [_scaled(c, obj_scale) for c in lp.objective]
    sx.set_costs(costs + [0] * (ncols - nv))
    status = sx.run(art_base)
    if status == "unbounded":
        return LpOutcome(status=UNBOUNDED, pivots=sx.pivots)

    d, cost = sx.d, sx.tab[-1]
    x = [_ZERO] * nv
    for row, b in zip(sx.tab, sx.basis):
        if b < nv:
            x[b] = Fraction(row[-1], d)
    obj = sum((lp.objective[j] * x[j] for j in range(nv)), _ZERO)

    # The identity columns carry zero phase-2 cost and were scaled by S, and
    # the costs by L, so each dual is -reduced cost * S / L.
    duals = [_ZERO] * lp.num_rows
    for p, ic in enumerate(init_col):
        duals[orig[p]] = Fraction(-sigma[p] * cost[ic] * scale, d * obj_scale)

    out = LpOutcome(FEASIBLE, tuple(x), obj, None, tuple(duals), sx.pivots)
    if not verify_solution(lp, out.solution):
        raise AssertionError("internal error: simplex solution failed verification")
    return out
