"""Seeded instances with a planted or known answer, and the benchmark's own checks.

Nothing here calls a coverext verifier: each answer is checked against the
planted truth or re-derived by plain enumeration or an integer subset-sum
(zeta) pass written out below.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add

from coverext.setfun import PartialFunction


class WrongAnswer(Exception):
    """An answer disagrees with the planted or independently derived truth."""


def expect(condition, what: str) -> None:
    if not condition:
        raise WrongAnswer(what)


def subset_sums(table, m: int) -> list:
    """g[S] = sum of table[R] over all R contained in S, for every mask S."""
    g = list(table)
    for i in range(m):
        h = 1 << i
        for base in range(0, 1 << m, 2 * h):
            g[base + h: base + 2 * h] = map(add, g[base + h: base + 2 * h], g[base: base + h])
    return g


def span_sums(m: int, masks, values) -> list:
    """sum of values[i] over the masks meeting S, for every S, in one zeta pass."""
    table = [0] * (1 << m)
    for mask, v in zip(masks, values):
        table[mask] += v
    inside = subset_sums(table, m)
    total = inside[-1]
    full = (1 << m) - 1
    return [total - inside[full ^ s] for s in range(1 << m)]


def _scaled(values) -> tuple[list[int], int]:
    scale = 1
    for v in values:
        scale = math.lcm(scale, Fraction(v).denominator)
    return [int(Fraction(v) * scale) for v in values], scale


def _random_mask(rng, m: int) -> int:
    return rng.randrange(1, 1 << m)


def _distinct_points(rng, m: int, n: int, taken: dict, value) -> dict:
    while len(taken) < n:
        mask = _random_mask(rng, m)
        if mask not in taken:
            taken[mask] = value(mask)
    return taken


# --- extension instances -----------------------------------------------------------


def random_universe(rng, m: int, size: int) -> list[tuple[int, int]]:
    return [(_random_mask(rng, m), rng.randint(1, 9)) for _ in range(size)]


def coverage_value(universe, subset: int) -> int:
    return sum(w for mask, w in universe if mask & subset)


def planted_extendible(rng, m: int, n: int) -> PartialFunction:
    """Points valued by a random weighted universe, so a coverage extension exists."""
    universe = random_universe(rng, m, 2 * m)
    points = _distinct_points(rng, m, n, {}, lambda t: coverage_value(universe, t))
    return PartialFunction(m, tuple(points.items()))


def _disjoint_pair(rng, m: int) -> tuple[int, int]:
    elements = list(range(m))
    rng.shuffle(elements)
    a_size = rng.randint(1, m // 2)
    b_size = rng.randint(1, m - a_size - 1)
    a = sum(1 << j for j in elements[:a_size])
    b = sum(1 << j for j in elements[a_size:a_size + b_size])
    return a, b


def planted_refutable(rng, m: int, n: int) -> PartialFunction:
    """Coverage values except f(A u B) = f(A) + f(B) + 1 on a disjoint pair.

    Coverage functions are subadditive, so no extension exists.
    """
    universe = random_universe(rng, m, 2 * m)
    a, b = _disjoint_pair(rng, m)
    fa, fb = coverage_value(universe, a), coverage_value(universe, b)
    points = {a: fa, b: fb, a | b: fa + fb + 1}
    points = _distinct_points(rng, m, n, points, lambda t: coverage_value(universe, t))
    return PartialFunction(m, tuple(points.items()))


def random_points(rng, m: int, n: int, big: int = 0) -> PartialFunction:
    """Random positive values; with big > 0 one point has exactly big elements."""
    points = {}
    if big:
        points[sum(1 << j for j in rng.sample(range(m), big))] = rng.randint(1, 9)
    points = _distinct_points(rng, m, n, points, lambda t: rng.randint(1, 9))
    return PartialFunction(m, tuple(points.items()))


def check_witness(pf: PartialFunction, support) -> None:
    """Nonnegative weights that reproduce every point, re-summed naively."""
    expect(len(support) <= pf.n, "witness support exceeds the number of points")
    expect(all(w >= 0 for _, w in support), "witness has a negative weight")
    for mask, value in pf.points:
        total = sum((w for s, w in support if s & mask), Fraction(0))
        expect(total == value, f"witness misses the value at mask {mask}")


def check_norm(pf: PartialFunction, opt_r, support, opt) -> None:
    """The restricted witness re-sums to OPT_R, and OPT <= OPT_R <= OPT + (1 - 1/d) F."""
    errors = [sum((w for s, w in support if s & mask), Fraction(0)) - v for mask, v in pf.points]
    expect(sum(abs(e) for e in errors) == opt_r, "restricted witness misses OPT_R")
    slack = (1 - Fraction(1, pf.d)) * pf.total_value
    expect(opt <= opt_r <= opt + slack, "OPT <= OPT_R <= OPT + (1-1/d)F fails")


def check_coefficients(found, support) -> None:
    """W-coefficients, as sorted (mask, weight) pairs, equal the planted support."""
    expect(tuple(found) == tuple(sorted((s, Fraction(w)) for s, w in support.items())),
           "W-coefficients differ from the planted support")


def check_certificate(pf: PartialFunction, certificate) -> None:
    """Positive value against the points, nonpositive span sum on every nonempty S."""
    expect(len(certificate) == pf.n, "certificate length differs from the point count")
    expect(sum(v * l for (_, v), l in zip(pf.points, certificate)) > 0,
           "certificate has no positive value")
    for s in range(1, 1 << pf.m):
        total = sum((l for (mask, _), l in zip(pf.points, certificate) if mask & s), 0)
        expect(total <= 0, f"certificate span sum is positive at mask {s}")


def planted_certificate(rng, m: int, n: int) -> tuple[PartialFunction, tuple[Fraction, ...]]:
    """Superadditive triple plus random points, and the certificate refuting it.

    Multipliers are -1 on A and B, +1 on A u B and -1/(4F) elsewhere: every
    S meeting A u B meets A or B, so no span sum is positive, while the
    value against the points is 1 - (share of F off the triple)/4 > 0.
    """
    a, b = _disjoint_pair(rng, m)
    fa, fb = rng.randint(1, 9), rng.randint(1, 9)
    points = _distinct_points(rng, m, n, {a: fa, b: fb, a | b: fa + fb + 1},
                              lambda t: rng.randint(1, 9))
    pf = PartialFunction(m, tuple(points.items()))
    small = Fraction(-1, 4 * sum(points.values()))
    cert = {a: Fraction(-1), b: Fraction(-1), a | b: Fraction(1)}
    return pf, tuple(cert.get(mask, small) for mask, _ in pf.points)


def check_tight(pf: PartialFunction, m: int) -> None:
    """Blocks of weight sqrt(m) first, unit transversals after, spans dominated."""
    root = math.isqrt(m)
    blocks = [((1 << root) - 1) << (b * root) for b in range(root)]
    expect([mask for mask, _ in pf.points[:root]] == blocks, "tight blocks are wrong")
    expect(all(v == root for _, v in pf.points[:root]), "tight block values are wrong")
    trans = pf.points[root:]
    for mask, v in trans:
        expect(v == 1, "transversal value is not 1")
        expect(all((mask & blk).bit_count() == 1 for blk in blocks), "not a transversal")
    block_hits = span_sums(m, blocks, [1] * root)
    trans_hits = span_sums(m, [t for t, _ in trans], [1] * len(trans))
    expect(all(t >= b for t, b in zip(trans_hits, block_hits)), "a subset is not dominated")


# --- full tables ----------------------------------------------------------------------


def planted_table(rng, m: int, negative: bool, extra: int = 24):
    """Value table of a planted W-coefficient support.

    Every singleton has weight 2..9, so each nonempty set has value at least
    2; an optional single coefficient of -1 on a set of two or more elements
    keeps all values positive and is then the only violating set.
    Returns (values, support, violating mask or None).
    """
    support = {1 << j: rng.randint(2, 9) for j in range(m)}
    while len(support) < m + extra:
        mask = _random_mask(rng, m)
        if mask.bit_count() > 1 and mask not in support:
            support[mask] = rng.randint(1, 9)
    violating = None
    if negative:
        while violating is None or violating in support or violating.bit_count() < 2:
            violating = _random_mask(rng, m)
        support[violating] = -1
    values = span_sums(m, support.keys(), support.values())
    return values, support, violating


# --- graphs -----------------------------------------------------------------------------


def random_edges(rng, vertices: int, density: float) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u in range(1, vertices + 1) for v in range(u + 1, vertices + 1)
                 if rng.random() < density)


def densest_best(vertices: int, edges, density: Fraction) -> Fraction:
    """Best gadget cut over proper nonempty S: (|cut S| - M|S||V - S|) / L."""
    adj = [0] * vertices
    for u, v in edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    full = (1 << vertices) - 1
    num, den = density.numerator, density.denominator
    best = None
    for s in range(1, full):
        outside = full ^ s
        cut = sum((adj[v] & outside).bit_count() for v in range(vertices) if s >> v & 1)
        k = s.bit_count()
        value = cut * den - num * k * (vertices - k)
        if best is None or value > best:
            best = value
    scale = 2 * max(density, abs(1 - density))
    return Fraction(best, den) / scale


# --- set cover -----------------------------------------------------------------------------


def setcover_family(rng, universe: int, size: int, k: int, plant: bool) -> list[list[int]]:
    """Random family; with plant, k of its members partition the universe."""
    family = []
    for _ in range(size):
        members = [e for e in range(1, universe + 1) if rng.random() < 0.25]
        family.append(members or [rng.randint(1, universe)])
    if plant:
        owner = [rng.randrange(k) for _ in range(universe)]
        slots = rng.sample(range(size), k)
        for part, slot in enumerate(slots):
            family[slot] = [e + 1 for e in range(universe) if owner[e] == part] or [1]
    return family


def has_cover(universe: int, family, k: int) -> bool:
    """Some k members (or all, if fewer) cover the universe; plain enumeration."""
    full = (1 << universe) - 1
    masks = [sum(1 << (e - 1) for e in s) for s in family]
    for combo in itertools.combinations(masks, min(k, len(masks))):
        union = 0
        for mask in combo:
            union |= mask
        if union == full:
            return True
    return False


def check_span_sums(instance, sums, cover: bool, universe: int, k: int) -> None:
    """Every span sum against a zeta pass, and the +-1/(2L) sign rule of the gadget."""
    m = instance.family_m
    expect(len(sums) == (1 << m) - 1, "span sums do not cover every nonempty subset")
    scaled, scale = _scaled(instance.point)
    mine = span_sums(m, instance.family_sets, scaled)
    expect(all(sums[s] * scale == mine[s] for s in range(1, 1 << m)), "a span sum is wrong")
    half_margin = 1 / (2 * (Fraction(k * universe - k) - Fraction(1, 2)))
    top = Fraction(max(mine[1:]), scale)
    if cover:
        expect(top >= half_margin, "a cover exists but no span sum reaches +1/(2L)")
    else:
        expect(top <= -half_margin, "no cover exists but a span sum exceeds -1/(2L)")
