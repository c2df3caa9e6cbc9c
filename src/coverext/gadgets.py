"""Reduction gadgets between graph cut/span membership and coverage problems.

Constructors and brute-force validators for four classic instance
translations, plus the exact fractional chromatic number of small graphs:

  * graph coloring -> extension: value 1 on vertices, 2 on edges, k on the
    full vertex set; the instance extends iff the fractional chromatic
    number is at most k.
  * set cover -> coverage membership: a point near the span polytope whose
    side (violation vs slack, each of magnitude 1/(2L)) encodes whether a
    k-cover exists.
  * cut membership -> span membership: two extra vertices and scaled
    weights with L * (span weight of S in the gadget) = (cut weight of S)/2
    for every S inside the original vertex set.
  * densest cut -> cut membership: a complete graph reweighting with
    L * (gadget cut of S) = |cut(S)| - M * |S| * |V minus S|.

Membership in the cut polytope (all cut sums <= 0) and the span polytope
(all span sums <= 0), each intersected with the unit box, is checked by
full subset enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .lp import EQUAL, FEASIBLE, LinearProgram, solve
from .setfun import (
    DEFAULT_ENUMERATION_CAP,
    ExactLike,
    Mask,
    PartialFunction,
    _coerce_value,
    _is_int,
    _require_positive_int,
    mask_from_elements,
    require_enumerable,
    span_sums,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on 1-based vertices, optionally edge-weighted."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    weights: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self):
        n = self.num_vertices
        _require_positive_int(n, "num_vertices")
        seen = set()
        norm = []
        for u, v in self.edges:
            if not (_is_int(u) and _is_int(v) and 1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        object.__setattr__(self, "edges", tuple(norm))
        if self.weights is not None:
            if len(self.weights) != len(self.edges):
                raise ValueError("weights length does not match edges")
            weights = tuple(_coerce_value(w, "weight") for w in self.weights)
            object.__setattr__(self, "weights", weights)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def require_weights(self) -> tuple[Fraction, ...]:
        if self.weights is None:
            raise ValueError("operation needs an edge-weighted graph")
        return self.weights

    def adjacency_masks(self) -> list[Mask]:
        adj = [0] * (self.num_vertices + 1)
        for u, v in self.edges:
            adj[u] |= 1 << (v - 1)
            adj[v] |= 1 << (u - 1)
        return adj

    def cut_weight(self, smask: Mask) -> Fraction:
        """Total weight of edges with exactly one endpoint in the subset."""
        w = self.require_weights()
        total = _ZERO
        for (u, v), wt in zip(self.edges, w):
            if bool(smask >> (u - 1) & 1) != bool(smask >> (v - 1) & 1):
                total += wt
        return total


# --- fractional chromatic number ---------------------------------------------


@dataclass(frozen=True)
class FractionalColoring:
    """Weights on independent sets; every vertex is covered to exactly 1."""

    independent_sets: tuple[Mask, ...]
    weights: tuple[Fraction, ...]

    @property
    def total(self) -> Fraction:
        return sum(self.weights, _ZERO)


def _independent_set_masks(graph: Graph) -> list[Mask]:
    """Nonempty independent sets, ascending.

    S is independent when S minus its lowest vertex v is and v has no neighbor in it.
    """
    adj = graph.adjacency_masks()
    independent = bytearray(1 << graph.num_vertices)
    independent[0] = 1
    out = []
    for mask in range(1, 1 << graph.num_vertices):
        low = mask & -mask
        rest = mask ^ low
        if independent[rest] and not adj[low.bit_length()] & rest:
            independent[mask] = 1
            out.append(mask)
    return out


def _coloring_program(graph: Graph, sets: Sequence[Mask]) -> LinearProgram:
    rows = []
    for v in range(1, graph.num_vertices + 1):
        bit = 1 << (v - 1)
        rows.append(({i: 1 for i, s in enumerate(sets) if s & bit}, EQUAL, 1))
    return LinearProgram(len(sets), objective=[1] * len(sets), rows=rows)


def fractional_chromatic(
    graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[Fraction, FractionalColoring]:
    """Exact optimum of the independent-set covering LP, and an optimal coloring.

    The program covers each vertex exactly once (equality rows). That keeps
    the covering optimum: independent sets are closed under subsets, so an
    over-covered vertex can leave one of its sets at no cost. It also
    forces the unit box on the set weights, and lets equalize_coloring mix
    the coloring with the singletons.
    """
    require_enumerable(graph.num_vertices, cap)
    sets = _independent_set_masks(graph)
    outcome = solve(_coloring_program(graph, sets))
    if outcome.status != FEASIBLE:
        raise AssertionError("covering program is always feasible")
    chosen = [(s, x) for s, x in zip(sets, outcome.solution) if x]
    coloring = FractionalColoring(
        tuple(s for s, _ in chosen), tuple(x for _, x in chosen)
    )
    return outcome.objective_value, coloring


def equalize_coloring(
    graph: Graph, t: ExactLike, cap: int = DEFAULT_ENUMERATION_CAP
) -> FractionalColoring:
    """Coloring with per-vertex cover exactly 1 and total weight exactly t.

    Uses the convex combination of fractional_chromatic's coloring with
    the all-singletons coloring, which works for any t between the
    fractional chromatic number and the vertex count.
    """
    t = _coerce_value(t, "target total")
    chi, coloring = fractional_chromatic(graph, cap)
    nv = Fraction(graph.num_vertices)
    if not (chi <= t <= nv):
        raise ValueError(f"target {t} outside [{chi}, {nv}]")
    if t == chi:
        lam = _ONE
    else:
        lam = (nv - t) / (nv - chi)
    combined = {s: lam * x for s, x in zip(coloring.independent_sets, coloring.weights)}
    for v in range(graph.num_vertices):
        s = 1 << v
        combined[s] = combined.get(s, _ZERO) + (_ONE - lam)
    items = sorted((s, x) for s, x in combined.items() if x)
    return FractionalColoring(tuple(s for s, _ in items), tuple(x for _, x in items))


def chromatic_gadget(graph: Graph, k: ExactLike) -> PartialFunction:
    """Extension instance over the vertex set: 1 on vertices, 2 on edges, k overall.

    Extendible exactly when the fractional chromatic number is at most k;
    the tests enforce that equivalence rather than assuming it. When the
    graph is a single edge the full set collides with that edge; the
    collision is merged if the values agree (k = 2) and rejected otherwise.
    """
    k = _coerce_value(k, "target k")
    n = graph.num_vertices
    if not (1 <= k <= n):
        raise ValueError(f"k = {k} outside [1, {n}]")
    points: dict[Mask, Fraction] = {}
    for v in range(n):
        points[1 << v] = _ONE
    for u, v in graph.edges:
        points[(1 << (u - 1)) | (1 << (v - 1))] = Fraction(2)
    full = (1 << n) - 1
    if full in points and points[full] != k:
        raise ValueError("full vertex set collides with an edge point of different value")
    points[full] = points.get(full, k)
    return PartialFunction(n, tuple(sorted(points.items())))


# --- membership instances ------------------------------------------------------


@dataclass(frozen=True)
class DeltaSpec:
    """Tolerance coefficient / sqrt(radicand), kept symbolic to stay exact."""

    coefficient: Fraction
    radicand: int


@dataclass(frozen=True)
class MembershipInstance:
    """A point to test against the coverage polytope of a set family.

    Coverage-only: point[i] is the value at family_sets[i], a subset of
    [family_m], and the point is inside when every span sum is <= 0.
    """

    point: tuple[Fraction, ...]
    delta: DeltaSpec
    family_m: int
    family_sets: tuple[Mask, ...]

    def __post_init__(self):
        m = self.family_m
        _require_positive_int(m, "family_m")
        if len(self.point) != len(self.family_sets):
            raise ValueError(
                f"{len(self.point)} point entries but {len(self.family_sets)} family sets"
            )
        for mask in self.family_sets:
            if not (_is_int(mask) and mask >= 0 and mask.bit_length() <= m):
                raise ValueError(f"family set mask {mask} not a subset of [{m}]")
        point = tuple(_coerce_value(v, "point entry") for v in self.point)
        object.__setattr__(self, "point", point)


def setcover_membership_gadget(
    universe_size: int, family: Sequence[Sequence[int]], k: int
) -> MembershipInstance:
    """Coverage membership point encoding a set-cover question.

    Family indices become the ground set. The defined sets are: one
    singleton {i} per family member at -1/L, the whole index set at
    (k - k*n' + 1/2)/L, and one set per universe element (the indices of
    the members containing it) at k/L, with L = k*n' - k - 1/2. A k-cover
    exists iff some subset's span sum reaches +1/(2L); otherwise every
    span sum stays at or below -1/(2L). L >= 1/2, since n' >= 2 and k >= 1.
    """
    if universe_size < 2:
        raise ValueError("universe must have at least 2 elements")
    if k < 1:
        raise ValueError("k must be at least 1")
    if not family:
        raise ValueError("family must be nonempty")
    scale = Fraction(k * universe_size - k) - Fraction(1, 2)

    m = len(family)
    fam_masks = []
    for idx, s in enumerate(family):
        try:
            fam_masks.append(mask_from_elements(s, universe_size))
        except ValueError as exc:
            raise ValueError(f"family[{idx}]: {exc}") from exc

    sets: list[Mask] = []
    point: list[Fraction] = []
    for i in range(m):
        sets.append(1 << i)
        point.append(-1 / scale)
    sets.append((1 << m) - 1)
    point.append((Fraction(k) - k * universe_size + Fraction(1, 2)) / scale)
    for e in range(1, universe_size + 1):
        bit = 1 << (e - 1)
        owner = 0
        for i, fm in enumerate(fam_masks):
            if fm & bit:
                owner |= 1 << i
        sets.append(owner)
        point.append(Fraction(k) / scale)

    delta = DeltaSpec(1 / (4 * scale), len(sets))
    return MembershipInstance(tuple(point), delta, m, tuple(sets))


def coverage_span_sums(instance: MembershipInstance) -> dict[Mask, Fraction]:
    """All span sums of a coverage membership instance, by full enumeration."""
    m = instance.family_m
    require_enumerable(m)
    sums, scale = span_sums(m, instance.family_sets, instance.point)
    return {s: Fraction(sums[s], scale) for s in range(1, 1 << m)}


def cut_to_span_gadget(graph: Graph, enforce_box: bool = True) -> tuple[Graph, Fraction]:
    """Append a hub s and pendant t so span sums track half the cut sums.

    New weights: original over L, minus half the vertex cut weight over L
    on each hub edge, and -1 on the hub-pendant edge, where
    L = 2|E| + |V||E|. For every subset S of the original vertices,
    L * (span weight in the gadget) equals (cut weight in the input) / 2.

    Membership semantics need the input inside the unit box (a point
    outside it is trivially outside the cut polytope). The identity itself
    is weight-agnostic, so enforce_box=False lets callers reproduce the
    textbook illustration with raw weights.
    """
    y = graph.require_weights()
    if enforce_box and any(w < -1 or w > 1 for w in y):
        raise ValueError("input weights must lie in [-1, 1]")
    ne = graph.num_edges
    if ne == 0:
        raise ValueError("gadget needs at least one edge")
    nv = graph.num_vertices
    scale = Fraction(2 * ne + nv * ne)

    s_vertex = nv + 1
    t_vertex = nv + 2
    vertex_cut = [_ZERO] * (nv + 1)  # total weight at each vertex
    for (u, v), w in zip(graph.edges, y):
        vertex_cut[u] += w
        vertex_cut[v] += w
    edges = list(graph.edges)
    weights = [w / scale for w in y]
    for v in range(1, nv + 1):
        edges.append((v, s_vertex))
        weights.append(-vertex_cut[v] / (2 * scale))
    edges.append((s_vertex, t_vertex))
    weights.append(Fraction(-1))
    return Graph(nv + 2, tuple(edges), tuple(weights)), scale


def densest_cut_gadget(graph: Graph, density: ExactLike) -> Graph:
    """Complete reweighting whose cut signs compare cut density against M.

    Edge weight is (1-M)/L on original edges and -M/L on non-edges with
    L = 2 * max(M, |1-M|), so L * (gadget cut of S) counts |cut(S)| minus
    M times |S| * |V minus S|.
    """
    m_val = _coerce_value(density, "density threshold")
    if m_val <= 0:
        raise ValueError("density threshold must be positive")
    if graph.num_vertices < 2:
        raise ValueError("need at least two vertices")
    scale = 2 * max(m_val, abs(1 - m_val))
    present = set(graph.edges)
    edges = []
    weights = []
    for u in range(1, graph.num_vertices + 1):
        for v in range(u + 1, graph.num_vertices + 1):
            edges.append((u, v))
            weights.append((1 - m_val) / scale if (u, v) in present else -m_val / scale)
    return Graph(graph.num_vertices, tuple(edges), tuple(weights))


@dataclass(frozen=True)
class DensestCutReport:
    gadget: Graph
    max_cut_value: Fraction          # over proper nonempty subsets
    exceeds_density: bool            # some cut strictly denser than M
    boundary: bool                   # some cut at exactly density M


def densest_cut_report(
    graph: Graph, density: ExactLike, cap: int = DEFAULT_ENUMERATION_CAP
) -> DensestCutReport:
    """Build the gadget and classify it, flagging the exact-boundary case.

    Strict and non-strict density comparisons differ exactly when the best
    gadget cut lands on zero; the report exposes that case instead of
    picking a convention.
    """
    require_enumerable(graph.num_vertices, cap)
    gadget = densest_cut_gadget(graph, density)
    cuts, scale = _edge_sums(gadget)
    proper = itertools.islice(cuts, 1, (1 << graph.num_vertices) - 1)
    best = Fraction(max(proper), scale)
    return DensestCutReport(gadget, best, best > 0, best == 0)


@dataclass(frozen=True)
class MembershipCheck:
    inside: bool
    violated_set: Optional[Mask] = None
    box_edge: Optional[int] = None  # index of an edge breaking the unit box


def check_cut_membership(
    graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP
) -> MembershipCheck:
    """Brute-force test against the cut polytope (all cut sums <= 0, unit box)."""
    return _check_membership(graph, cap, lambda: next(
        (s for s, value in enumerate(_edge_sums(graph)[0]) if value > 0), None))


def check_span_membership(
    graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP
) -> MembershipCheck:
    """Brute-force test against the span polytope (all span sums <= 0, unit box).

    A graph's edges meet nearly every vertex subset in its own way, so the
    pattern closure that setfun.span_violation walks is close to 2^m here
    (12,381 of 16,383 patterns on 14 vertices at edge density 0.35), and
    the 2^m table is cheaper: at 18 vertices it takes 170 ms and 13 MB
    where the closure walk takes 268 ms and 22 MB.
    """
    return _check_membership(graph, cap, lambda: _first_positive(span_sums(
        graph.num_vertices, _edge_masks(graph), graph.require_weights())[0]))


def _first_positive(sums: list[int]) -> Optional[Mask]:
    """The first mask with a positive sum, or None; max() rules out most scans in C."""
    if max(sums) <= 0:
        return None
    return next(s for s, value in enumerate(sums) if value > 0)


def _edge_masks(graph: Graph) -> list[Mask]:
    return [(1 << (u - 1)) | (1 << (v - 1)) for u, v in graph.edges]


def _edge_sums(graph: Graph):
    """Scaled cut sums of all vertex subsets in mask order, and the scale.

    An edge meets both S and its complement (the mirrored index) exactly
    when it is cut, so cut(S) = span(S) + span(complement) - total weight.
    """
    sums, scale = span_sums(graph.num_vertices, _edge_masks(graph), graph.require_weights())
    total = sums[-1]
    return (a + b - total for a, b in zip(sums, reversed(sums))), scale


def _check_membership(graph: Graph, cap: int, violation) -> MembershipCheck:
    """The unit box first, edge by edge, then violation(): a violated set or None."""
    require_enumerable(graph.num_vertices, cap)
    for i, wt in enumerate(graph.require_weights()):
        if wt < -1 or wt > 1:
            return MembershipCheck(False, box_edge=i)
    violated = violation()
    return MembershipCheck(violated is None, violated_set=violated)
