"""Exact linear programming over the rationals.

Two-phase primal simplex on a dense tableau. Every number is a
fractions.Fraction; there is no floating point and no tolerance anywhere
in this module. Feasible programs yield a basic (vertex) solution,
optimal when an objective is present. Infeasible programs yield a Farkas
ray over the input rows, checkable by direct aggregation (verify_farkas).
Bland's smallest-index rule drives both the entering and leaving choices,
so the solver cannot cycle and is bit-for-bit deterministic.

Programs are in standard form: minimize c'x over sparse rows (<=, =, >=)
with every variable x_j >= 0 and no other per-variable bound; any other
limit on a variable is written as a row. Internally each row gets a slack
or an artificial so that the initial basis is the identity; that identity
is also what lets us read dual multipliers and Farkas rays straight off
the final reduced-cost row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import MalformedProgramError

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="
_RELATIONS = (LESS_EQUAL, EQUAL, GREATER_EQUAL)

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)

ExactLike = Union[int, Fraction]


def _exact(value: ExactLike, what: str = "coefficient") -> Fraction:
    """Coerce to Fraction; floats are rejected, exactness is the contract."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise MalformedProgramError(f"{what} must be an int or Fraction, got {type(value).__name__}")


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
            obj = tuple(_exact(c, "objective coefficient") for c in objective)
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
                seen[idx] = _exact(val, f"row {k} coefficient")
            norm_rows.append(
                Row(tuple(sorted(seen.items())), relation, _exact(rhs, f"row {k} rhs"))
            )
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
    x = [_exact(v, "solution entry") for v in solution]
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
    r = [_exact(v, "ray entry") for v in ray]
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
    """Dense simplex tableau with Bland pivoting."""

    def __init__(self, tab, rhs, basis):
        self.tab = tab            # list of rows, each a list[Fraction]
        self.rhs = rhs            # list[Fraction], kept >= 0
        self.basis = basis        # basis[p] = column index basic in row p
        self.ncols = len(tab[0]) if tab else 0
        self.red = [_ZERO] * self.ncols
        self.zval = _ZERO
        self.pivots = 0

    def set_costs(self, costs):
        red = list(costs)
        zval = _ZERO
        for p, b in enumerate(self.basis):
            cb = costs[b]
            if cb:
                row = self.tab[p]
                for j in range(self.ncols):
                    if row[j]:
                        red[j] -= cb * row[j]
                zval += cb * self.rhs[p]
        self.red = red
        self.zval = zval

    def pivot(self, pr: int, pc: int):
        tab, rhs = self.tab, self.rhs
        prow = tab[pr]
        pv = prow[pc]
        if pv != 1:
            inv = _ONE / pv
            prow = [v * inv if v else _ZERO for v in prow]
            tab[pr] = prow
            rhs[pr] *= inv
        nz = [(j, v) for j, v in enumerate(prow) if v]
        bp = rhs[pr]
        for r, row in enumerate(tab):
            if r == pr:
                continue
            f = row[pc]
            if f:
                for j, v in nz:
                    row[j] -= f * v
                if bp:
                    rhs[r] -= f * bp
        f = self.red[pc]
        if f:
            red = self.red
            for j, v in nz:
                red[j] -= f * v
            if bp:
                # the tableau z-row stores [reduced costs | -objective], so the
                # objective moves by red[pc] * theta on each pivot
                self.zval += f * bp
        self.basis[pr] = pc
        self.pivots += 1

    def run(self, barred=frozenset()) -> str:
        """Minimize until optimal or unbounded. Bland's rule throughout."""
        tab, rhs, red = self.tab, self.rhs, self.red
        nrows = len(tab)
        while True:
            pc = -1
            for j in range(self.ncols):
                if red[j] < 0 and j not in barred:
                    pc = j
                    break
            if pc < 0:
                return "optimal"
            pr = -1
            best_ratio = None
            best_basis = -1
            for r in range(nrows):
                t = tab[r][pc]
                if t > 0:
                    ratio = rhs[r] / t
                    if (
                        pr < 0
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[r] < best_basis)
                    ):
                        pr, best_ratio, best_basis = r, ratio, self.basis[r]
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


def _solve(lp: LinearProgram) -> LpOutcome:
    nv = lp.num_vars

    # Assemble dense rows. Trivially satisfied all-zero rows are the only
    # presolve: they are skipped and get multiplier zero on the way out.
    std = []  # (dense, rhs, relation, orig_index)
    for i, row in enumerate(lp.rows):
        dense = [_ZERO] * nv
        for j, c in row.coeffs:
            dense[j] = c
        if not any(dense):
            sat = (
                (row.relation == LESS_EQUAL and row.rhs >= 0)
                or (row.relation == GREATER_EQUAL and row.rhs <= 0)
                or (row.relation == EQUAL and row.rhs == 0)
            )
            if sat:
                continue
        std.append((dense, row.rhs, row.relation, i))

    if not std:
        # No constraints: the origin is optimal unless some objective
        # coefficient is negative, which makes that direction unbounded.
        if any(c < 0 for c in lp.objective):
            return LpOutcome(status=UNBOUNDED)
        return LpOutcome(FEASIBLE, (_ZERO,) * nv, _ZERO, None, (_ZERO,) * lp.num_rows, 0)

    nrows = len(std)
    n_slack = sum(1 for s in std if s[2] != EQUAL)

    # Tableau layout: structural | slacks | artificials.
    slack_base = nv
    art_base = nv + n_slack
    orig = [s[3] for s in std]   # input row index of each tableau row
    sigma = [1] * nrows          # -1 where the row was negated to make rhs >= 0
    init_col = [0] * nrows       # identity column of each row (slack or artificial)
    is_art_seed = [False] * nrows

    tab = []
    rhs_col = []
    slack_idx = 0
    for p, (dense, rhs, rel, _) in enumerate(std):
        srow = dense + [_ZERO] * n_slack
        scol = -1
        if rel != EQUAL:
            scol = slack_base + slack_idx
            srow[scol] = _ONE if rel == LESS_EQUAL else -_ONE
            slack_idx += 1
        if rhs < 0:
            sigma[p] = -1
            srow = [-v if v else _ZERO for v in srow]
            rhs = -rhs
        seeded = scol >= 0 and srow[scol] == 1
        if seeded:
            init_col[p] = scol
        else:
            is_art_seed[p] = True
        tab.append(srow)
        rhs_col.append(rhs)

    n_art = sum(is_art_seed)
    k = 0
    for p in range(nrows):
        pad = [_ZERO] * n_art
        if is_art_seed[p]:
            pad[k] = _ONE
            init_col[p] = art_base + k
            k += 1
        tab[p] = tab[p] + pad

    ncols = nv + n_slack + n_art
    basis = [init_col[p] for p in range(nrows)]

    sx = _Simplex(tab, rhs_col, basis)
    artificial = frozenset(range(art_base, ncols))

    # Phase 1: minimize the artificial total.
    if n_art:
        costs1 = [_ZERO] * ncols
        for c in range(art_base, ncols):
            costs1[c] = _ONE
        sx.set_costs(costs1)
        status = sx.run()
        if status != "optimal":
            raise AssertionError("phase 1 cannot be unbounded")
        if sx.zval > 0:
            ray = [_ZERO] * lp.num_rows
            for p in range(nrows):
                ic = init_col[p]
                y = costs1[ic] - sx.red[ic]
                ray[orig[p]] = -sigma[p] * y
            if not verify_farkas(lp, ray):
                raise AssertionError("internal error: extracted Farkas ray failed verification")
            return LpOutcome(INFEASIBLE, None, None, tuple(ray), None, sx.pivots)
        # Drive basic artificials out; delete rows that turned out redundant.
        drop = []
        for p in range(nrows):
            b = sx.basis[p]
            if b < art_base:
                continue
            if sx.rhs[p] != 0:
                raise AssertionError("basic artificial with nonzero value at phase-1 optimum")
            pc = -1
            for j in range(art_base):
                if sx.tab[p][j]:
                    pc = j
                    break
            if pc >= 0:
                sx.pivot(p, pc)
            else:
                drop.append(p)
        for p in reversed(drop):
            del sx.tab[p], sx.rhs[p], sx.basis[p], orig[p], sigma[p], init_col[p]

    # Phase 2: the objective on the structural columns, zero elsewhere.
    sx.set_costs(list(lp.objective) + [_ZERO] * (ncols - nv))
    status = sx.run(barred=artificial)
    if status == "unbounded":
        return LpOutcome(status=UNBOUNDED, pivots=sx.pivots)

    x = [_ZERO] * nv
    for p, b in enumerate(sx.basis):
        if b < nv:
            x[b] = sx.rhs[p]
    obj = sum((lp.objective[j] * x[j] for j in range(nv)), _ZERO)

    duals = [_ZERO] * lp.num_rows
    for p in range(len(sx.tab)):
        y = -sx.red[init_col[p]]  # phase-2 cost of every identity column is zero
        duals[orig[p]] = sigma[p] * y

    out = LpOutcome(FEASIBLE, tuple(x), obj, None, tuple(duals), sx.pivots)
    if not verify_solution(lp, out.solution):
        raise AssertionError("internal error: simplex solution failed verification")
    return out
