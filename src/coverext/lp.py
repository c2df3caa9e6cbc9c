"""Exact linear programming over the rationals.

Two-phase primal simplex on a dense fraction-free (Bareiss) tableau:
integer entries over one common denominator, the determinant of the
current basis, so no entry needs a gcd and every division is exact. A
pivot whose entry equals that denominator (85% of the pivots on planted
m = 8 extension programs) keeps it and changes a row only under the pivot
row's nonzeros, so it updates those entries in place, still exactly (by
Sylvester's identity; see _Simplex.pivot).
Programs take int or fractions.Fraction input, and solutions and
certificates are Fractions; there is no floating point and no tolerance
anywhere in this module. Feasible programs yield a basic (vertex)
solution, optimal when an objective is present. Infeasible programs
yield a Farkas ray over the input rows, checkable by direct aggregation
(verify_farkas).

Dantzig's rule picks the entering column (the most negative reduced cost
on the integer tableau, smallest index on ties); the least ratio leaves,
ties going to the smaller basic column. After _STALL_LIMIT degenerate
pivots in a row, Bland's smallest-index rule enters instead until the
vertex moves, so the solver cannot cycle; every choice is a pure function
of the program, so it is bit-for-bit deterministic.

A program keeps its rows in one integer form (LinearProgram.rows): every
row times the least common denominator S of all coefficients and
right-hand sides (LinearProgram.scale). The library builds its own
programs in that form directly (setfun.span_rows), and the solver and
both verifiers read that form alone. The solver divides the rows it
keeps by their common factor, so the tableau is scaled by the least
common denominator of the kept rows alone.

Programs are in standard form: minimize c'x over sparse rows (<=, =, >=)
with every variable x_j >= 0 and no other per-variable bound; any other
limit on a variable is written as a row. Internally each row gets a slack
or an artificial so that the initial basis is the identity; that identity
is also what lets us read dual multipliers and Farkas rays straight off
the final reduced-cost row.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import MalformedProgramError
from .setfun import ExactLike, _coerce_value, _is_int, _scaled

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="
_RELATIONS = (LESS_EQUAL, EQUAL, GREATER_EQUAL)
_SLACK_SIGN = {LESS_EQUAL: 1, EQUAL: 0, GREATER_EQUAL: -1}
_HOLDS = {LESS_EQUAL: operator.le, EQUAL: operator.eq, GREATER_EQUAL: operator.ge}

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)

#: Degenerate pivots in a row after which Bland's rule picks the entering column.
_STALL_LIMIT = 50


class LinearProgram:
    """Immutable standard-form program: min objective'x, sparse rows, x >= 0.

    Input rows are (coeffs, relation, rhs) where coeffs is a mapping from
    variable index to an int or Fraction coefficient. Every variable is
    nonnegative and has no other bound; write any other limit as a row.

    The rows are stored once, in integer form: scale is the least common
    denominator S of every coefficient and rhs, and rows[k] is
    (indices, S * coefficients, relation, S * rhs), sorted by index,
    which holds exactly where input row k does.
    """

    __slots__ = ("num_vars", "objective", "rows", "scale")

    def __init__(
        self,
        num_vars: int,
        objective: Optional[Sequence[ExactLike]] = None,
        rows: Iterable[tuple] = (),
    ):
        if not _is_int(num_vars) or num_vars < 1:
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

        checked = []  # (sorted (index, coefficient) pairs, relation, rhs) per row
        for k, row in enumerate(rows):
            try:
                coeffs, relation, rhs = row
            except (TypeError, ValueError):
                raise MalformedProgramError(f"row {k} is not a (coeffs, relation, rhs) triple")
            if relation not in _RELATIONS:
                raise MalformedProgramError(f"row {k}: unknown relation {relation!r}")
            if not isinstance(coeffs, Mapping):
                raise MalformedProgramError(
                    f"row {k}: coefficients must be a mapping, got {type(coeffs).__name__}")
            for idx, val in coeffs.items():
                if not (_is_int(idx) and 0 <= idx < num_vars):
                    raise MalformedProgramError(f"row {k}: variable index {idx!r} out of range")
                if not _is_int(val):  # ints stay ints: _scaled reads both
                    _coerce_value(val, f"row {k} coefficient", MalformedProgramError)
            rhs = _coerce_value(rhs, f"row {k} rhs", MalformedProgramError)
            checked.append((sorted(coeffs.items()), relation, rhs))

        nums, self.scale = _scaled([v for items, _, rhs in checked
                                    for v in (rhs, *(c for _, c in items))])
        nums = iter(nums)  # each row's rhs, then its coefficients
        self.rows = tuple(
            (tuple(j for j, _ in items), tuple(itertools.islice(nums, len(items))), relation, rhs)
            for (items, relation, _), rhs in zip(checked, nums)
        )

    @classmethod
    def _stored(cls, num_vars: int, objective: tuple[Fraction, ...], rows: list, scale: int):
        """A program whose objective and rows are already in the stored form; nothing is checked."""
        lp = object.__new__(cls)
        lp.num_vars, lp.objective, lp.rows, lp.scale = num_vars, objective, tuple(rows), scale
        return lp

    @property
    def num_rows(self) -> int:
        return len(self.rows)


class LpOutcome(NamedTuple):
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
    """True iff x >= 0 and every row holds exactly.

    Checked in integers: with X the least common denominator of x, each
    integer row of lp holds at X * x iff the row holds at x.
    """
    if len(solution) != lp.num_vars:
        raise MalformedProgramError("solution length does not match num_vars")
    x = [_coerce_value(v, "solution entry", MalformedProgramError) for v in solution]
    if any(v < 0 for v in x):
        return False
    xs, scale = _scaled(x)
    for idx, coeffs, relation, rhs in lp.rows:
        lhs = sum(map(operator.mul, coeffs, map(xs.__getitem__, idx)))
        if not _HOLDS[relation](lhs, rhs * scale):
            return False
    return True


def verify_farkas(lp: LinearProgram, ray: Sequence[ExactLike]) -> bool:
    """Check an infeasibility certificate by direct aggregation.

    The ray must have nonnegative multipliers on <= rows and nonpositive
    multipliers on >= rows. Aggregating the rows with these multipliers
    gives g'x <= beta, valid for every feasible x; since x >= 0, the
    certificate is good iff g >= 0 and beta < 0. The aggregation runs on
    the integer rows with the ray's numerators over its least common
    denominator, which scales g and beta by one positive factor.
    """
    if len(ray) != lp.num_rows:
        return False
    r = [_coerce_value(v, "ray entry", MalformedProgramError) for v in ray]
    ys, _ = _scaled(r)
    g = [0] * lp.num_vars
    beta = 0
    for y, (idx, coeffs, relation, rhs) in zip(ys, lp.rows):
        if (relation == LESS_EQUAL and y < 0) or (relation == GREATER_EQUAL and y > 0):
            return False
        if y:
            for j, a in zip(idx, coeffs):
                g[j] += y * a
            beta += y * rhs
    return min(g) >= 0 and beta < 0


# --- internals -------------------------------------------------------------


class _Simplex:
    """Fraction-free (Bareiss) simplex tableau with Dantzig pricing.

    Every entry is an int over one common denominator d > 0, the
    determinant of the current basis: the exact tableau entry is
    tab[p][j] / d. Each row ends in its rhs, and the last row is the cost
    row [d * reduced costs | -d * objective]. A pivot on (r, c) with
    pv = tab[r][c] > 0 takes every other row, cost row included, to
    (row * pv - row[c] * tab[r]) // d, which divides exactly (Sylvester's
    identity), and then sets d = pv. When pv == d that is
    row - row[c] * tab[r] // d, done in place under the nonzeros of tab[r]
    only. Since d stays positive, every sign and every ratio comparison
    reads as it would on the exact tableau.
    """

    def __init__(self, rows, basis, width):
        self.tab = rows + [[0] * width]
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
        """Pivot on (pr, pc), pv = tab[pr][pc] > 0, leaving d = pv.

        When pv == d, (a * d - f * b) // d is a - f * b // d, and the
        division is still exact: a * d - f * b is a multiple of d, so
        f * b is too. Then a row moves only where the pivot row is
        nonzero, and a row with f == 0 not at all, so each row is updated
        in place at those columns alone. Otherwise d changes, which
        rescales every row, and each row is rebuilt in full.
        """
        tab, d = self.tab, self.d
        prow = tab[pr]
        pv = prow[pc]
        if pv == d:
            nz = list(itertools.compress(range(len(prow)), prow))
            for i, row in enumerate(tab):
                f = row[pc]
                if f and i != pr:
                    for j in nz:
                        row[j] -= f * prow[j] // d
        else:
            for i, row in enumerate(tab):
                if i == pr:
                    continue
                f = row[pc]
                if f:
                    tab[i] = [(a * pv - f * b) // d for a, b in zip(row, prow)]
                else:
                    tab[i] = [a * pv // d for a in row]
        self.d = pv
        self.basis[pr] = pc
        self.pivots += 1

    def run(self, ncand: int) -> str:
        """Minimize until optimal or unbounded, entering only columns below ncand.

        Dantzig pricing: the column with the most negative cost-row entry
        enters, ties going to the smallest index. After _STALL_LIMIT
        degenerate pivots in a row (the leaving rhs is 0, so the vertex
        stays put), Bland's rule enters the first column with a negative
        entry instead, until a pivot moves the vertex. Bland's rule cannot
        cycle and every nondegenerate pivot lowers the objective, so no
        basis repeats. The least ratio rhs/t leaves, ties going to the
        smaller basic column. Ratios are compared by cross-multiplying,
        all over the same d.
        """
        tab, basis = self.tab, self.basis
        nrows = len(tab) - 1
        stall = 0  # degenerate pivots in a row
        while True:
            cost = tab[-1]
            if stall < _STALL_LIMIT:
                least = min(cost[:ncand])
                pc = cost.index(least, 0, ncand) if least < 0 else -1
            else:
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
            stall = stall + 1 if best_rhs == 0 else 0
            self.pivot(pr, pc)


# Per-process accounting for run reports. Purely observational: cli._run
# resets it before each run and snapshots it after, so a report counts its
# own run only, also in a directory batch, which runs many instances in turn.
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


def _solve(lp: LinearProgram) -> LpOutcome:
    nv = lp.num_vars

    # Trivially satisfied all-zero rows are the only presolve: they are
    # skipped and get multiplier zero on the way out.
    orig = [  # input row index of each tableau row
        i for i, (_, coeffs, relation, rhs) in enumerate(lp.rows)
        if any(coeffs) or not _HOLDS[relation](0, rhs)
    ]

    # The kept rows are divided by g, which leaves them S / g times the
    # input rows, S / g being the least common denominator of the kept
    # rows alone, so dropped rows do not change the path. The objective
    # scale L makes the costs integer. The slack and artificial columns
    # stay unit, which rescales those variables by S / g: signs and ratio
    # orders are those of the unscaled program, and pricing compares a
    # unit column's reduced cost at g / S of a structural column's.
    rows = [lp.rows[i] for i in orig]
    g = math.gcd(lp.scale, *(v for _, coeffs, _, rhs in rows for v in (rhs, *coeffs)))
    costs, obj_scale = _scaled(lp.objective)

    # Tableau layout: structural | slacks | artificials | rhs. A row is
    # negated when its rhs is negative (sigma = -1); its slack is its
    # identity column when the slack then reads +1, and any other row
    # gets an artificial.
    sigma = [-1 if rhs < 0 else 1 for *_, rhs in rows]
    # the sign of each row's slack column, 0 for no slack
    slack = [_SLACK_SIGN[relation] * s for (_, _, relation, _), s in zip(rows, sigma)]
    art_base = nv + len(slack) - slack.count(0)
    ncols = art_base + len(slack) - slack.count(1)
    next_slack, next_art = itertools.count(nv), itertools.count(art_base)
    tab = []
    init_col = []  # identity column of each row (slack or artificial)
    for (idx, coeffs, _, rhs), s, t in zip(rows, sigma, slack):
        srow = [0] * (ncols + 1)
        srow[-1] = s * rhs // g
        for j, a in zip(idx, coeffs):
            srow[j] = s * a // g
        if t:
            ic = next(next_slack)
            srow[ic] = t
        if t != 1:
            ic = next(next_art)
            srow[ic] = 1
        init_col.append(ic)
        tab.append(srow)
    sx = _Simplex(tab, list(init_col), ncols + 1)

    # Phase 1: minimize the artificial total.
    sx.set_costs([0] * art_base + [1] * (ncols - art_base))
    status = sx.run(ncols)
    if status != "optimal":
        raise AssertionError("phase 1 cannot be unbounded")
    d, cost = sx.d, sx.tab[-1]
    if cost[-1] < 0:  # the artificial total is -cost[-1] / d > 0
        ray = [_ZERO] * lp.num_rows
        for i, s, ic in zip(orig, sigma, init_col):
            y = (d if ic >= art_base else 0) - cost[ic]  # d * (phase-1 cost - reduced cost)
            ray[i] = Fraction(-s * y, d)
        if not verify_farkas(lp, ray):
            raise AssertionError("internal error: extracted Farkas ray failed verification")
        return LpOutcome(INFEASIBLE, None, None, tuple(ray), None, sx.pivots)
    # Drive basic artificials out; delete rows that turned out redundant.
    drop = []
    for p, b in enumerate(sx.basis):
        if b < art_base:
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
    sx.set_costs(costs + [0] * (ncols - nv))
    status = sx.run(art_base)
    if status == "unbounded":
        return LpOutcome(status=UNBOUNDED, pivots=sx.pivots)

    d, cost = sx.d, sx.tab[-1]
    x = [_ZERO] * nv
    for row, b in zip(sx.tab, sx.basis):
        if b < nv:
            x[b] = Fraction(row[-1], d)
    # c'x from the basic rows: the costs are L * c and each rhs is d * x_b
    obj = Fraction(sum(costs[b] * row[-1] for row, b in zip(sx.tab, sx.basis) if b < nv),
                   d * obj_scale)

    # The identity columns carry zero phase-2 cost and were scaled by S / g,
    # and the costs by L, so each dual is -reduced cost * (S / g) / L.
    duals = [_ZERO] * lp.num_rows
    for i, s, ic in zip(orig, sigma, init_col):
        duals[i] = Fraction(-s * cost[ic] * (lp.scale // g), d * obj_scale)

    out = LpOutcome(FEASIBLE, tuple(x), obj, None, tuple(duals), sx.pivots)
    if not verify_solution(lp, out.solution):
        raise AssertionError("internal error: simplex solution failed verification")
    return out
