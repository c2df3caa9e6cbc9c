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
import operator
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import CapExceededError
from .lp import EQUAL, FEASIBLE, LinearProgram, solve
from .setfun import (
    DEFAULT_ENUMERATION_CAP,
    ExactLike,
    Mask,
    PartialFunction,
    _checked_make,
    _coerce_value,
    _is_int,
    _require_positive_int,
    _scaled,
    hit_patterns,
    mask_from_elements,
    require_enumerable,
    span_rows,
    span_sums,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

class Graph(NamedTuple("Graph", [("num_vertices", int), ("edges", tuple[tuple[int, int], ...]),
                                 ("weights", Optional[tuple[Fraction, ...]])])):
    """Simple undirected graph on 1-based vertices, optionally edge-weighted."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, num_vertices, edges, weights=None):
        n = num_vertices
        _require_positive_int(n, "num_vertices")
        seen = set()
        norm = []
        for u, v in edges:
            if not (_is_int(u) and _is_int(v) and 1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        if weights is not None:
            if len(weights) != len(norm):
                raise ValueError("weights length does not match edges")
            weights = tuple(_coerce_value(w, "weight") for w in weights)
        return super().__new__(cls, n, tuple(norm), weights)

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


class FractionalColoring(NamedTuple):
    """Weights on independent sets; every vertex is covered to exactly 1."""

    independent_sets: tuple[Mask, ...]
    weights: tuple[Fraction, ...]


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
    """The vertices are the points, each covered once; each independent set is its own pattern."""
    vertices = [(1 << v, 1) for v in range(graph.num_vertices)]
    rows, scale = span_rows(zip(sets, sets), vertices, EQUAL)
    return LinearProgram._make((len(sets), (_ONE,) * len(sets), tuple(rows), scale))


def fractional_chromatic(
    graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[Fraction, FractionalColoring]:
    """Exact optimum of the independent-set covering LP, and an optimal coloring.

    The program covers each vertex exactly once (equality rows). That keeps
    the covering optimum: independent sets are closed under subsets, so an
    over-covered vertex can leave one of its sets at no cost. It also
    forces the unit box on the set weights.
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


class DeltaSpec(NamedTuple):
    """Tolerance coefficient / sqrt(radicand), kept symbolic to stay exact."""

    coefficient: Fraction
    radicand: int


class MembershipInstance(NamedTuple("MembershipInstance", [
        ("point", tuple[Fraction, ...]), ("delta", DeltaSpec), ("family_m", int),
        ("family_sets", tuple[Mask, ...])])):
    """A point to test against the coverage polytope of a set family.

    Coverage-only: point[i] is the value at family_sets[i], a subset of
    [family_m], and the point is inside when every span sum is <= 0.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, point, delta, family_m, family_sets):
        _require_positive_int(family_m, "family_m")
        if len(point) != len(family_sets):
            raise ValueError(f"{len(point)} point entries but {len(family_sets)} family sets")
        for mask in family_sets:
            if not (_is_int(mask) and mask >= 0 and mask.bit_length() <= family_m):
                raise ValueError(f"family set mask {mask} not a subset of [{family_m}]")
        point = tuple(_coerce_value(v, "point entry") for v in point)
        return super().__new__(cls, point, delta, family_m, tuple(family_sets))


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
    if not _is_int(universe_size):
        raise ValueError(f"universe must be an int, got {universe_size!r}")
    if not _is_int(k):
        raise ValueError(f"k must be an int, got {k!r}")
    if universe_size < 2:
        raise ValueError("universe must have at least 2 elements")
    if k < 1:
        raise ValueError("k must be at least 1")
    if not family:
        raise ValueError("family must be nonempty")
    points = len(family) + 1 + universe_size
    if points > 1 << DEFAULT_ENUMERATION_CAP:  # read here, not bound as a default
        raise CapExceededError(f"{points} points exceed 2^{DEFAULT_ENUMERATION_CAP}")
    scale = Fraction(k * universe_size - k) - Fraction(1, 2)

    m = len(family)
    fam_masks = []
    for idx, s in enumerate(family):
        try:
            fam_masks.append(mask_from_elements(s, universe_size))
        except ValueError as exc:
            raise ValueError(f"family[{idx}]: {exc}") from exc

    sets = [1 << i for i in range(m)] + [(1 << m) - 1] + hit_patterns(universe_size, fam_masks)
    point = ([-1 / scale] * m + [(Fraction(k) - k * universe_size + Fraction(1, 2)) / scale]
             + [Fraction(k) / scale] * universe_size)
    delta = DeltaSpec(1 / (4 * scale), len(sets))
    return MembershipInstance(tuple(point), delta, m, tuple(sets))


def coverage_span_sums(instance: MembershipInstance) -> dict[Mask, Fraction]:
    """All span sums of a coverage membership instance, by full enumeration.

    The table repeats a few values many times (the set-cover gadget's
    2^14 entries hold under 30), so each distinct value is one Fraction.
    """
    m = instance.family_m
    require_enumerable(m)
    sums, scale = span_sums(m, instance.family_sets, instance.point)
    value = {v: Fraction(v, scale) for v in set(sums)}
    return {s: value[sums[s]] for s in range(1, 1 << m)}


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
    ne = len(graph.edges)
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


class DensestCutReport(NamedTuple):
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
    cuts, scale = _graph_sums(gadget, 2)
    proper = itertools.islice(cuts, 1, (1 << graph.num_vertices) - 1)
    best = Fraction(max(proper), scale)
    return DensestCutReport(gadget, best, best > 0, best == 0)


class MembershipCheck(NamedTuple):
    inside: bool
    violated_set: Optional[Mask] = None
    box_edge: Optional[int] = None  # index of an edge breaking the unit box


def check_cut_membership(
    graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP
) -> MembershipCheck:
    """Brute-force test against the cut polytope (all cut sums <= 0, unit box)."""
    return _check_membership(graph, cap, 2)


def check_span_membership(
    graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP
) -> MembershipCheck:
    """Brute-force test against the span polytope (all span sums <= 0, unit box).

    A graph's edges meet nearly every vertex subset in its own way, so the
    pattern closure that setfun.span_violation walks is close to 2^m here
    (12,381 of 16,383 patterns on 14 vertices at edge density 0.35), and
    the 2^m table is cheaper: on a seeded 18-vertex graph at that density
    it takes 23 ms and a traced peak of 11.3 MB where the closure walk
    takes 205-334 ms and 29.1 MB (BENCH_18.json per_call notes; Python
    3.11.7 on a 2-core Intel Xeon host).
    """
    return _check_membership(graph, cap, 1)


def _graph_sums(graph: Graph, k: int) -> tuple[list[int], int]:
    """Scaled d(S) - k * inside(S) for every vertex mask S, in mask order, and the scale.

    d(S) sums the weighted degrees of the vertices in S and inside(S) is
    the weight of the edges with both ends in S, so k = 1 gives the span
    sums and k = 2 the cut sums.
    Adding vertex v to a set S of lower vertices adds d(v) - k * w(v, S),
    where w(v, S) is the weight of v's edges into S; that row over all S
    doubles once per lower vertex, so the table costs about 2 * 2^n steps.
    """
    ints, scale = _scaled(graph.require_weights())
    degree = [0] * (graph.num_vertices + 1)
    lower: list[dict[int, int]] = [{} for _ in degree]  # lower[v][u]: k * w(u, v), u < v
    for (u, v), w in zip(graph.edges, ints):
        degree[u] += w
        degree[v] += w
        lower[v][u] = k * w
    table = [0]
    for v in range(1, graph.num_vertices + 1):
        row = [degree[v]]
        for u in range(1, v):
            w = lower[v].get(u)
            row += row if w is None else [r - w for r in row]
        # row runs out first, so the map reads only the entries already there
        table.extend(map(operator.add, row, table))
    return table, scale


def _check_membership(graph: Graph, cap: int, k: int) -> MembershipCheck:
    """The cap, the unit box edge by edge, then the first positive mask of _graph_sums(k)."""
    require_enumerable(graph.num_vertices, cap)
    for i, wt in enumerate(graph.require_weights()):
        if wt < -1 or wt > 1:
            return MembershipCheck(False, box_edge=i)
    sums = _graph_sums(graph, k)[0]
    if max(sums) <= 0:
        return MembershipCheck(True)
    return MembershipCheck(False, violated_set=next(s for s, value in enumerate(sums) if value > 0))
