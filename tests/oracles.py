"""Independent brute-force oracles and random generators used by the tests.

Everything here is deliberately naive: literal definitions, full
enumeration, no shortcuts shared with the library code paths under test.
"""

from __future__ import annotations

import collections
import itertools
import math
from fractions import Fraction

from hypothesis import strategies as st

from coverext.lp import (
    EQUAL,
    FEASIBLE,
    GREATER_EQUAL,
    INFEASIBLE,
    LESS_EQUAL,
    UNBOUNDED,
    LinearProgram,
    LpOutcome,
)
from coverext.errors import MalformedProgramError
from coverext.setfun import PartialFunction, WCoefficients, _coerce_value, eval_from_w

ZERO = Fraction(0)


# --- set labels ---------------------------------------------------------------

def mask_to_elements_naive(mask):
    """Sorted 1-based labels by shifting the mask one bit per step."""
    out = []
    j = 1
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return out


# --- W-transform, straight from the defining sum -----------------------------

def w_coefficient_naive(values, m, smask):
    """w(S) by literally summing over all T with S u T = [m]."""
    full = (1 << m) - 1
    total = ZERO
    for t in range(1 << m):
        if smask | t == full:
            sign = -1 if (smask & t).bit_count() % 2 == 0 else 1
            total += sign * values[t]
    return total


def w_transform_naive(values, m):
    """Dense map mask -> w(mask) over all nonempty masks."""
    return {s: w_coefficient_naive(values, m, s) for s in range(1, 1 << m)}


def span_sum_naive(sets, weights, smask):
    """Total weight on the listed sets (repeats included) that meet the subset."""
    total = ZERO
    for mask, w in zip(sets, weights):
        if mask & smask:
            total += w
    return total


# --- coverage programs with one column per nonempty subset -------------------

def span_columns_naive(m, points):
    """(smallest set, pattern) of each nonempty hit pattern, grouping every S by the points it meets.

    The pattern is returned as a mask with bit i for points[i].
    """
    smallest = {}
    for s in range(1, 1 << m):
        pattern = frozenset(i for i, t in enumerate(points) if s & t)
        if pattern:
            smallest.setdefault(pattern, s)
    return sorted((s, sum(1 << i for i in pattern)) for pattern, s in smallest.items())


def cheapest_unions_naive(parts):
    """Least total cost of each union, over every subset of the listed parts (repeats distinct)."""
    best = {}
    for size in range(len(parts) + 1):
        for chosen in itertools.combinations(parts, size):
            union, cost = 0, ZERO
            for part, weight in chosen:
                union, cost = union | part, cost + weight
            if union not in best or cost < best[union]:
                best[union] = cost
    return best


def span_row(columns, point):
    """LP row over set columns: coefficient 1 on every column whose set meets point."""
    return {c: 1 for c, s in enumerate(columns) if s & point}


# The reference builders write each program through the public LinearProgram
# constructor, one dict row per point from span_row; columns[c] is the set
# carried by variable c. The library builds the same programs directly in the
# stored integer form from the hit patterns.

def reference_extension_program(pf, columns):
    """Feasibility rows: weight on the columns meeting T_i equals f_i."""
    rows = [(span_row(columns, mask), EQUAL, value) for mask, value in pf.points]
    return LinearProgram(len(columns), rows=rows)


def reference_alpha_star_program(pf, columns):
    """Stretch rows f_i <= span <= alpha * f_i; the last variable is beta = alpha - 1."""
    beta = len(columns)
    rows = []
    for mask, value in pf.points:
        span = span_row(columns, mask)
        rows.append((span, GREATER_EQUAL, value))
        rows.append(({**span, beta: -value}, LESS_EQUAL, value))
    return LinearProgram(beta + 1, objective=[0] * beta + [1], rows=rows)


def reference_norm_program(pf, columns):
    """L1 error rows over the columns, then eps+_i, eps-_i for each point."""
    nw = len(columns)
    rows = []
    for i, (mask, value) in enumerate(pf.points):
        coeffs = span_row(columns, mask)
        coeffs[nw + 2 * i] = -1
        coeffs[nw + 2 * i + 1] = 1
        rows.append((coeffs, EQUAL, value))
    return LinearProgram(nw + 2 * pf.n, objective=[0] * nw + [1] * (2 * pf.n), rows=rows)


def reference_coloring_program(num_vertices, sets):
    """Each vertex covered exactly once by the independent sets, at total weight minimized."""
    rows = [(span_row(sets, 1 << v), EQUAL, 1) for v in range(num_vertices)]
    return LinearProgram(len(sets), objective=[1] * len(sets), rows=rows)


def held_singletons_naive(pf):
    """{j} for every element j that some defined set holds, ascending."""
    return [1 << j for j in range(pf.m) if any(mask >> j & 1 for mask in pf.masks())]


def full_extension_program(pf):
    """Feasibility rows over all 2^m - 1 subsets; variable S - 1 carries w(S)."""
    return reference_extension_program(pf, range(1, 1 << pf.m))


def full_alpha_star_program(pf):
    """Stretch program over all subsets; the last variable is beta = alpha - 1."""
    return reference_alpha_star_program(pf, range(1, 1 << pf.m))


def full_norm_program(pf):
    """L1 error program over all subsets, then eps+_i, eps-_i for each point."""
    return reference_norm_program(pf, range(1, 1 << pf.m))


def all_singletons_norm_program(pf):
    """Restricted L1 error program with one column per singleton {j}, j = 1..m."""
    return reference_norm_program(pf, [1 << j for j in range(pf.m)])


# --- replacement ratio by full enumeration -----------------------------------

def replacement_ratio_bruteforce(pf: PartialFunction):
    """Minimum of cover-weight / f_v over all vertices and ALL subsets."""
    pts = pf.points
    best = None
    for v, (tv, fv) in enumerate(pts):
        if fv == 0:
            continue
        others = [(tm, fw) for i, (tm, fw) in enumerate(pts) if i != v]
        for r in range(1, len(others) + 1):
            for combo in itertools.combinations(others, r):
                covered = 0
                weight = ZERO
                for tm, fw in combo:
                    covered |= tm
                    weight += fw
                if covered & tv == tv:
                    ratio = weight / fv
                    if best is None or ratio < best:
                        best = ratio
    return best if best is not None else math.inf


# --- graph cut / span sums from the definitions ------------------------------

def cut_weight_naive(num_vertices, edges, weights, smask):
    total = ZERO
    for (u, v), w in zip(edges, weights):
        inu = bool(smask >> (u - 1) & 1)
        inv = bool(smask >> (v - 1) & 1)
        if inu != inv:
            total += w
    return total


def span_weight_naive(num_vertices, edges, weights, smask):
    total = ZERO
    for (u, v), w in zip(edges, weights):
        if (smask >> (u - 1) & 1) or (smask >> (v - 1) & 1):
            total += w
    return total


def independent_set_masks_naive(num_vertices, edges):
    """Every nonempty mask with no edge inside it, ascending."""
    return [smask for smask in range(1, 1 << num_vertices)
            if not any(smask >> (u - 1) & 1 and smask >> (v - 1) & 1 for u, v in edges)]


def max_cut_weight(num_vertices, edges, weights, proper=False):
    """Maximum cut sum over nonempty subsets (proper ones only if asked)."""
    best = None
    top = (1 << num_vertices) - 1
    last = top if not proper else top - 1
    for smask in range(1, last + 1):
        val = cut_weight_naive(num_vertices, edges, weights, smask)
        if best is None or val > best:
            best = val
    return best


# --- small set-cover ground truth --------------------------------------------

def setcover_has_cover(universe_size, family, k):
    """YES iff some at-most-k subfamily covers all of [universe_size]."""
    want = (1 << universe_size) - 1
    fam_masks = []
    for s in family:
        mask = 0
        for e in s:
            mask |= 1 << (e - 1)
        fam_masks.append(mask)
    for r in range(0, k + 1):
        for combo in itertools.combinations(fam_masks, r):
            got = 0
            for mk in combo:
                got |= mk
            if got == want:
                return True
    return False


def setcover_owner_masks(universe_size, family):
    """Per element e of [universe_size], the members holding it (bit i: family[i])."""
    owners = []
    for e in range(1, universe_size + 1):
        mask = 0
        for i, s in enumerate(family):
            if e in s:
                mask |= 1 << i
        owners.append(mask)
    return owners


# --- tiny LPs by vertex enumeration --------------------------------------------

FractionRow = collections.namedtuple("FractionRow", "coeffs relation rhs")


def fraction_rows(lp):
    """lp's rows read back in Fraction form: Fraction(a, lp.scale) for every stored a.

    coeffs are (index, coefficient) pairs in index order.
    """
    return [
        FractionRow(tuple((j, Fraction(a, lp.scale)) for j, a in zip(idx, coeffs)),
                    relation, Fraction(rhs, lp.scale))
        for idx, coeffs, relation, rhs in lp.rows
    ]


def _solve_square(matrix, rhs):
    """Unique solution of a square system by Gauss elimination, or None if singular."""
    n = len(matrix)
    a = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] / a[r][r] for r in range(n)]


def lp_vertex_optimum(lp):
    """Least objective over the vertices of a tiny standard-form program.

    For at most 3 variables, each boxed by a row x_j <= u so the feasible
    set is bounded: try every choice of num_vars constraints among the rows
    and x_j >= 0, make them tight, solve the square system exactly, keep
    the points satisfying everything. None when no vertex is feasible.
    """
    nv = lp.num_vars
    assert nv <= 3
    constraints = []  # (dense coefficients, rhs)
    for row in fraction_rows(lp):
        dense = [ZERO] * nv
        for j, c in row.coeffs:
            dense[j] = c
        constraints.append((dense, row.rhs))
    for j in range(nv):
        constraints.append(([Fraction(int(i == j)) for i in range(nv)], ZERO))

    def feasible(x):
        if any(v < 0 for v in x):
            return False
        for row in fraction_rows(lp):
            lhs = sum((c * x[j] for j, c in row.coeffs), ZERO)
            if (row.relation == "<=" and lhs > row.rhs) or (
                row.relation == ">=" and lhs < row.rhs
            ) or (row.relation == "=" and lhs != row.rhs):
                return False
        return True

    best = None
    for chosen in itertools.combinations(constraints, nv):
        x = _solve_square([c for c, _ in chosen], [b for _, b in chosen])
        if x is None or not feasible(x):
            continue
        value = sum((c * v for c, v in zip(lp.objective, x)), ZERO)
        if best is None or value < best:
            best = value
    return best


# --- certificate checks over Fraction -----------------------------------------
#
# The verifiers' earlier Fraction loops, kept as the reference that the
# integer lp.verify_solution and lp.verify_farkas must agree with.

def fraction_verify_solution(lp, solution):
    """True iff x >= 0 and every row holds exactly, summed in Fraction."""
    if len(solution) != lp.num_vars:
        raise MalformedProgramError("solution length does not match num_vars")
    x = [_coerce_value(v, "solution entry", MalformedProgramError) for v in solution]
    if any(v < 0 for v in x):
        return False
    for row in fraction_rows(lp):
        lhs = sum((c * x[j] for j, c in row.coeffs), ZERO)
        if row.relation == LESS_EQUAL and lhs > row.rhs:
            return False
        if row.relation == GREATER_EQUAL and lhs < row.rhs:
            return False
        if row.relation == EQUAL and lhs != row.rhs:
            return False
    return True


def fraction_verify_farkas(lp, ray):
    """Farkas check by aggregating the Fraction rows: signs, g >= 0, beta < 0."""
    if len(ray) != lp.num_rows:
        return False
    r = [_coerce_value(v, "ray entry", MalformedProgramError) for v in ray]
    g = [ZERO] * lp.num_vars
    beta = ZERO
    for mult, row in zip(r, fraction_rows(lp)):
        if row.relation == LESS_EQUAL and mult < 0:
            return False
        if row.relation == GREATER_EQUAL and mult > 0:
            return False
        if mult:
            for j, c in row.coeffs:
                g[j] += mult * c
            beta += mult * row.rhs
    return all(gj >= 0 for gj in g) and beta < 0


# --- reference simplex over Fraction ----------------------------------------
#
# The solver's earlier tableau, kept as the reference that lp.solve must match
# exactly: status, solution, objective, Farkas ray, duals and pivot count.
#
# Pricing follows lp.solve, which runs on the rows times S (the least common
# denominator of every coefficient and rhs of the rows presolve keeps) with
# unit slack and artificial columns: there a unit column's reduced cost reads
# 1/S of what it reads here next to a structural column's, so structural
# reduced costs are weighted by S before the most negative one is taken.

_ZERO = Fraction(0)
_ONE = Fraction(1)


class _FractionSimplex:
    """Dense simplex tableau with Dantzig pricing, every entry a Fraction.

    The most negative weighted reduced cost enters, smallest index on
    ties; after stall_limit degenerate pivots in a row, the first negative
    one enters (Bland's rule) until a pivot moves the vertex. So
    stall_limit 0 is Bland's rule throughout.
    """

    def __init__(self, tab, rhs, basis, weights, stall_limit):
        self.tab = tab            # list of rows, each a list[Fraction]
        self.rhs = rhs            # list[Fraction], kept >= 0
        self.basis = basis        # basis[p] = column index basic in row p
        self.ncols = len(tab[0]) if tab else 0
        self.weights = weights    # pricing weight of each column
        self.stall_limit = stall_limit
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
        """Minimize until optimal or unbounded."""
        tab, rhs, red = self.tab, self.rhs, self.red
        nrows = len(tab)
        stall = 0
        while True:
            pc = -1
            best = _ZERO
            for j in range(self.ncols):
                if j in barred or red[j] >= 0:
                    continue
                if stall >= self.stall_limit:
                    pc = j  # Bland: the first negative reduced cost
                    break
                priced = red[j] * self.weights[j]
                if priced < best:
                    pc, best = j, priced
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
            stall = stall + 1 if rhs[pr] == 0 else 0
            self.pivot(pr, pc)


def fraction_simplex_solve(lp: LinearProgram, stall_limit: int = 50) -> LpOutcome:
    """Reference solve: the same two phases and pivots on a Fraction tableau.

    stall_limit is the run of degenerate pivots after which Bland's rule
    enters, 50 as in lp.solve; 0 gives Bland's rule throughout.
    """
    nv = lp.num_vars

    # Assemble dense rows. Trivially satisfied all-zero rows are the only
    # presolve: they are skipped and get multiplier zero on the way out.
    std = []  # (dense, rhs, relation, orig_index)
    for i, row in enumerate(fraction_rows(lp)):
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

    # the least common denominator of the kept rows, as lp.solve scales them
    scale = math.lcm(*(v.denominator for dense, rhs, _, _ in std for v in (rhs, *dense)))
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

    weights = [scale] * nv + [_ONE] * (ncols - nv)
    sx = _FractionSimplex(tab, rhs_col, basis, weights, stall_limit)
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
            if not fraction_verify_farkas(lp, ray):
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
    if not fraction_verify_solution(lp, out.solution):
        raise AssertionError("internal error: simplex solution failed verification")
    return out


def bareiss_pivot_dense(tab, d, pr, pc):
    """The fraction-free pivot on (pr, pc) that rebuilds every row it changes.

    tab holds integer rows over the common denominator d; every row but pr
    is replaced by (row * pv - row[pc] * tab[pr]) // d, pv = tab[pr][pc],
    and the new denominator is pv. It replaces rows and mutates none. lp's
    pivot must leave the same rows.
    """
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
    return tab


# --- random generators --------------------------------------------------------

def random_fraction(rng, max_num=12, max_den=4, allow_zero=True):
    lo = 0 if allow_zero else 1
    return Fraction(rng.randint(lo, max_num), rng.randint(1, max_den))


def random_wcoeffs(rng, max_m=10, max_support=8):
    m = rng.randint(1, max_m)
    capacity = (1 << m) - 1
    size = rng.randint(1, min(max_support, capacity))
    masks = rng.sample(range(1, capacity + 1), size)
    support = {mask: random_fraction(rng, allow_zero=False) for mask in masks}
    return WCoefficients(m, tuple(support.items()))


def random_partial_function(rng, max_m=7, max_n=8, positive=False, force_d1=False):
    m = rng.randint(1, max_m)
    if force_d1:
        size = rng.randint(1, m)
        masks = [1 << j for j in rng.sample(range(m), size)]
    else:
        capacity = (1 << m) - 1
        size = rng.randint(1, min(max_n, capacity))
        masks = rng.sample(range(1, capacity + 1), size)
    points = [(mask, random_fraction(rng, allow_zero=not positive)) for mask in masks]
    return PartialFunction(m, tuple(points))


def random_extendible_instance(rng, max_m=7, max_n=8, max_support=6):
    """Sample coefficients first, then read values off the recovered function."""
    w = random_wcoeffs(rng, max_m=max_m, max_support=max_support)
    capacity = (1 << w.m) - 1
    size = rng.randint(1, min(max_n, capacity))
    masks = rng.sample(range(1, capacity + 1), size)
    points = [(mask, eval_from_w(w, mask)) for mask in masks]
    return PartialFunction(w.m, tuple(points)), w


def random_weighted_graph(rng, max_vertices=6, density=0.6):
    """Connected-ish random graph with rational weights in [-1, 1]."""
    n = rng.randint(2, max_vertices)
    edges = []
    weights = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < density:
                edges.append((u, v))
                num = rng.randint(-8, 8)
                weights.append(Fraction(num, 8))
    if not edges:
        edges.append((1, 2))
        weights.append(Fraction(rng.randint(-8, 8), 8))
    return n, edges, weights


@st.composite
def partial_functions(draw):
    """m <= 6, up to 8 distinct points; values random or read off random W-coefficients."""
    m = draw(st.integers(1, 6))
    masks = draw(st.lists(st.integers(1, (1 << m) - 1), min_size=1, max_size=8, unique=True))
    if draw(st.booleans()):
        support = draw(st.dictionaries(st.integers(1, (1 << m) - 1),
                                       st.builds(Fraction, st.integers(1, 9), st.integers(1, 3)),
                                       min_size=1, max_size=6))
        w = WCoefficients(m, tuple(support.items()))
        values = [eval_from_w(w, mask) for mask in masks]
    else:
        values = draw(st.lists(st.builds(Fraction, st.integers(0, 9), st.integers(1, 3)),
                               min_size=len(masks), max_size=len(masks)))
    return PartialFunction(m, tuple(zip(masks, values)))
