"""Independent brute-force oracles and random generators used by the tests.

Everything here is deliberately naive: literal definitions, full
enumeration, no shortcuts shared with the library code paths under test.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from coverext.lp import EQUAL, GREATER_EQUAL, LESS_EQUAL, LinearProgram
from coverext.setfun import PartialFunction, WCoefficients, full_mask, span_row

ZERO = Fraction(0)


# --- W-transform, straight from the defining sum -----------------------------

def w_coefficient_naive(values, m, smask):
    """w(S) by literally summing over all T with S u T = [m]."""
    full = full_mask(m)
    total = ZERO
    for t in range(1 << m):
        if smask | t == full:
            sign = -1 if (smask & t).bit_count() % 2 == 0 else 1
            total += sign * values[t]
    return total


def w_transform_naive(values, m):
    """Dense map mask -> w(mask) over all nonempty masks."""
    return {s: w_coefficient_naive(values, m, s) for s in range(1, 1 << m)}


def eval_from_w_naive(support, subset):
    return sum((w for mask, w in support.items() if mask & subset), ZERO)


def span_sum_naive(sets, weights, smask):
    """Total weight on the listed sets (repeats included) that meet the subset."""
    total = ZERO
    for mask, w in zip(sets, weights):
        if mask & smask:
            total += w
    return total


# --- coverage programs with one column per nonempty subset -------------------

def span_columns_naive(m, points):
    """Smallest set of each nonempty hit pattern, grouping every S by the points it meets."""
    smallest = {}
    for s in range(1, 1 << m):
        pattern = frozenset(i for i, t in enumerate(points) if s & t)
        if pattern:
            smallest.setdefault(pattern, s)
    return sorted(smallest.values())


def full_extension_program(pf):
    """Feasibility rows over all 2^m - 1 subsets; variable S - 1 carries w(S)."""
    columns = range(1, 1 << pf.m)
    rows = [(span_row(columns, mask), EQUAL, value) for mask, value in pf.points]
    return LinearProgram(len(columns), rows=rows)


def full_alpha_star_program(pf):
    """Stretch program over all subsets; the last variable is beta = alpha - 1."""
    columns = range(1, 1 << pf.m)
    beta = len(columns)
    rows = []
    for mask, value in pf.points:
        span = span_row(columns, mask)
        rows.append((span, GREATER_EQUAL, value))
        rows.append(({**span, beta: -value}, LESS_EQUAL, value))
    return LinearProgram(beta + 1, objective=[0] * beta + [1], rows=rows)


def full_norm_program(pf):
    """L1 error program over all subsets, then eps+_i, eps-_i for each point."""
    columns = range(1, 1 << pf.m)
    nw = len(columns)
    rows = []
    for i, (mask, value) in enumerate(pf.points):
        coeffs = span_row(columns, mask)
        coeffs[nw + 2 * i] = -1
        coeffs[nw + 2 * i + 1] = 1
        rows.append((coeffs, EQUAL, value))
    return LinearProgram(nw + 2 * pf.n, objective=[0] * nw + [1] * (2 * pf.n), rows=rows)


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


# --- tiny LPs by vertex enumeration --------------------------------------------

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
    for row in lp.rows:
        dense = [ZERO] * nv
        for j, c in row.coeffs:
            dense[j] = c
        constraints.append((dense, row.rhs))
    for j in range(nv):
        constraints.append(([Fraction(int(i == j)) for i in range(nv)], ZERO))

    def feasible(x):
        if any(v < 0 for v in x):
            return False
        for row in lp.rows:
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
    return WCoefficients.from_dict(m, support)


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
    from coverext.setfun import eval_from_w

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
