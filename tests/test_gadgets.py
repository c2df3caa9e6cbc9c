"""Gadget constructions, their exact identities, and the chromatic oracle."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from coverext.errors import CapExceededError
from coverext.extension import decide_extension
from coverext.gadgets import (
    DeltaSpec,
    Graph,
    MembershipInstance,
    _independent_set_masks,
    check_cut_membership,
    check_span_membership,
    chromatic_gadget,
    coverage_span_sums,
    cut_to_span_gadget,
    densest_cut_gadget,
    densest_cut_report,
    fractional_chromatic,
    setcover_membership_gadget,
)

import oracles

F = Fraction

K3 = Graph(3, ((1, 2), (2, 3), (1, 3)))
C4 = Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
C5 = Graph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)))
K4 = Graph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, ((1, 1),))
    with pytest.raises(ValueError):
        Graph(2, ((1, 2), (2, 1)))
    with pytest.raises(ValueError):
        Graph(2, ((1, 3),))
    with pytest.raises(ValueError):
        Graph(2, ((1, 2),), (F(1), F(2)))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Graph(0, ()), "num_vertices must be a positive int, got 0"),
        # int fields are checked here, not left to fail later in an LP or a scan
        (lambda: Graph(2.0, ()), "num_vertices must be a positive int, got 2.0"),
        (lambda: Graph(True, ()), "num_vertices must be a positive int, got True"),
        (lambda: Graph(3, ((1.5, 2),), (F(0),)), "edge (1.5,2) out of range"),
        (lambda: Graph(3, ((1, True),), (F(0),)), "edge (1,True) out of range"),
        (lambda: cut_to_span_gadget(K3), "operation needs an edge-weighted graph"),
        (lambda: check_cut_membership(K3), "operation needs an edge-weighted graph"),
        (lambda: chromatic_gadget(K3, 0), "k = 0 outside [1, 3]"),
        (lambda: chromatic_gadget(K3, F(7, 2)), "k = 7/2 outside [1, 3]"),
        (lambda: setcover_membership_gadget(1, [[1]], 1),
         "universe must have at least 2 elements"),
        (lambda: setcover_membership_gadget(2, [[1]], 0), "k must be at least 1"),
        (lambda: setcover_membership_gadget(2, [], 1), "family must be nonempty"),
        (lambda: setcover_membership_gadget(3.0, [[1], [2, 3]], 1),
         "universe must be an int, got 3.0"),
        (lambda: setcover_membership_gadget(3, [[1], [2, 3]], True), "k must be an int, got True"),
        (lambda: setcover_membership_gadget(3, [[1], [2, 3]], 2.0), "k must be an int, got 2.0"),
        (lambda: cut_to_span_gadget(Graph(2, (), ())), "gadget needs at least one edge"),
        (lambda: densest_cut_gadget(K3, 0), "density threshold must be positive"),
        (lambda: densest_cut_gadget(K3, F(-1, 2)), "density threshold must be positive"),
        (lambda: densest_cut_gadget(Graph(1, ()), 1), "need at least two vertices"),
    ],
)
def test_graph_and_gadget_refusals_keep_their_text(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_fractional_chromatic_anchors():
    # duals pin the anchors: weight 1 per K3 vertex fits every independent
    # set (all singletons), weight 1/2 per C5 vertex fits every independent
    # set (at most two vertices), so 3 and 5/2 are optimal, not just feasible.
    assert fractional_chromatic(K3)[0] == F(3)
    assert fractional_chromatic(C5)[0] == F(5, 2)
    for n in range(4, 9):  # the whole vertex set is one independent set
        assert fractional_chromatic(Graph(n, ()))[0] == F(1)


@pytest.mark.parametrize(
    "graph",
    [K3, C4, C5, Graph(5, ()), Graph(6, ((1, 2), (2, 3)))],  # the last: vertices 4-6 isolated
)
def test_fractional_chromatic_coloring_covers_each_vertex_once(graph):
    chi, coloring = fractional_chromatic(graph)
    assert sum(coloring.weights) == chi
    adj = graph.adjacency_masks()
    for s, x in zip(coloring.independent_sets, coloring.weights):
        assert x > 0
        for v in range(1, graph.num_vertices + 1):
            if s >> (v - 1) & 1:
                assert not (adj[v] & s)
    for v in range(graph.num_vertices):
        cover = sum(x for s, x in zip(coloring.independent_sets, coloring.weights)
                    if s >> v & 1)
        assert cover == 1


@st.composite
def graphs_up_to_10(draw):
    """Random, edgeless and complete graphs on 1-10 vertices; random ones
    often leave vertices isolated."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    kind = draw(st.sampled_from(["random", "edgeless", "complete"]))
    if kind == "edgeless":
        return Graph(n, ())
    if kind == "complete" or not pairs:
        return Graph(n, tuple(pairs))
    return Graph(n, tuple(draw(st.lists(st.sampled_from(pairs), unique=True))))


@settings(max_examples=100, deadline=None, database=None)
@given(graphs_up_to_10())
@example(Graph(5, ()))
@example(Graph(10, ()))
@example(Graph(6, ((1, 2), (2, 3))))  # vertices 4-6 isolated
def test_independent_sets_match_a_literal_scan(graph):
    assert _independent_set_masks(graph) == oracles.independent_set_masks_naive(
        graph.num_vertices, graph.edges)


@pytest.mark.parametrize(
    "graph,k,expected",
    [
        (K3, F(3), True),
        (K3, F(2), False),
        (C5, F(5, 2), True),
        (C5, F(2), False),
        (C4, F(2), True),
        (K4, F(4), True),
        (K4, F(3), False),
    ],
)
def test_chromatic_gadget_matches_oracle(graph, k, expected):
    chi, _ = fractional_chromatic(graph)
    assert (chi <= k) == expected
    verdict = decide_extension(chromatic_gadget(graph, k))
    assert verdict.extendible == expected


def test_chromatic_gadget_edge_collision():
    single_edge = Graph(2, ((1, 2),))
    instance = chromatic_gadget(single_edge, 2)  # edge point and full set agree
    assert dict(instance.points)[0b11] == F(2)
    with pytest.raises(ValueError):
        chromatic_gadget(single_edge, F(3, 2))


def test_figure_instance_cut_to_span():
    # 4-cycle with raw weights 5, -7, 1, -3; scale is 2*4 + 4*4 = 24 and the
    # hub edges carry -1/24, 1/24, 3/24, 1/24 with the pendant at -1.
    graph = Graph(
        4,
        ((1, 2), (2, 3), (3, 4), (1, 4)),
        (F(5), F(-7), F(1), F(-3)),
    )
    gadget, scale = cut_to_span_gadget(graph, enforce_box=False)
    assert scale == 24
    w = dict(zip(gadget.edges, gadget.weights))
    assert w[(1, 5)] == F(-1, 24)
    assert w[(2, 5)] == F(1, 24)
    assert w[(3, 5)] == F(3, 24)
    assert w[(4, 5)] == F(1, 24)
    assert w[(5, 6)] == F(-1)
    assert w[(1, 2)] == F(5, 24)


def test_cut_to_span_identity_and_equivalence():
    rng = random.Random(909)
    for _ in range(60):
        n, edges, weights = oracles.random_weighted_graph(rng, max_vertices=5)
        graph = Graph(n, tuple(edges), tuple(weights))
        gadget, scale = cut_to_span_gadget(graph)
        for s in range(1 << n):
            lhs = scale * oracles.span_weight_naive(n + 2, gadget.edges, gadget.weights, s)
            rhs = graph.cut_weight(s) / 2
            assert lhs == rhs
        has_pos_cut = any(graph.cut_weight(s) > 0 for s in range(1, 1 << n))
        span_check = check_span_membership(gadget)
        assert has_pos_cut == (not span_check.inside)


def test_cut_to_span_box_enforcement():
    wild = Graph(2, ((1, 2),), (F(2),))
    with pytest.raises(ValueError):
        cut_to_span_gadget(wild)
    tame = Graph(2, ((1, 2),), (F(1),))
    gadget, _ = cut_to_span_gadget(tame)
    assert not check_span_membership(gadget).inside  # positive cut becomes violation
    flat = Graph(3, ((1, 2), (2, 3)), (F(0), F(0)))
    gadget, _ = cut_to_span_gadget(flat)
    assert check_span_membership(gadget).inside  # no positive cut, no violation


def test_scaled_figure_weights_membership_matches_cut_sign():
    # the 4-cycle weights scaled into the unit box: S = {a} has cut 2/7 > 0,
    # so the point must sit outside the cut polytope
    graph = Graph(
        4,
        ((1, 2), (2, 3), (3, 4), (1, 4)),
        (F(5, 7), F(-7, 7), F(1, 7), F(-3, 7)),
    )
    best = max(graph.cut_weight(s) for s in range(1, 16))
    assert best > 0
    assert not check_cut_membership(graph).inside


def test_densest_cut_identity():
    rng = random.Random(910)
    for _ in range(40):
        n, edges, _ = oracles.random_weighted_graph(rng, max_vertices=5)
        graph = Graph(n, tuple(edges))
        m_val = F(rng.randint(1, 4), rng.randint(1, 3))
        gadget = densest_cut_gadget(graph, m_val)
        scale = 2 * max(m_val, abs(1 - m_val))
        unit = Graph(n, tuple(edges), (F(1),) * len(edges))
        for s in range(1, 1 << n):
            size = s.bit_count()
            lhs = scale * gadget.cut_weight(s)
            rhs = unit.cut_weight(s) - m_val * size * (n - size)
            assert lhs == rhs


def test_densest_cut_path_examples():
    path = Graph(3, ((1, 2), (2, 3)))
    report = densest_cut_report(path, F(1, 2))
    assert report.exceeds_density  # S = {2} has density 1 > 1/2
    report = densest_cut_report(path, F(2))
    assert not report.exceeds_density and not report.boundary
    single = Graph(2, ((1, 2),))
    report = densest_cut_report(single, F(1))
    assert report.boundary and not report.exceeds_density


def test_membership_checks():
    zero = Graph(3, ((1, 2), (2, 3)), (F(0), F(0)))
    assert check_cut_membership(zero).inside
    assert check_span_membership(zero).inside
    positive = Graph(2, ((1, 2),), (F(1, 2),))
    cut = check_cut_membership(positive)
    assert not cut.inside and cut.violated_set in (0b01, 0b10)
    negative = Graph(3, ((1, 2), (1, 3)), (F(-1, 2), F(-1, 3)))
    assert check_span_membership(negative).inside
    boxy = Graph(2, ((1, 2),), (F(3),))
    assert check_cut_membership(boxy).box_edge == 0


def test_setcover_gadget_frozen_yes_instance():
    # one set covering both elements, k = 1: L = 1/2, the cover's index set
    # has span sum exactly +1 = 1/(2L)
    inst = setcover_membership_gadget(2, [[1, 2]], 1)
    assert inst.point == (F(-2), F(-1), F(2), F(2))
    sums = coverage_span_sums(inst)
    assert max(sums.values()) == F(1)
    assert inst.delta.coefficient == F(1, 2)
    assert inst.delta.radicand == 4


def test_setcover_gadget_frozen_no_instance():
    inst = setcover_membership_gadget(2, [[1], [2]], 1)
    sums = coverage_span_sums(inst)
    assert max(sums.values()) == F(-1)  # every span sum <= -1/(2L) = -1


def test_coverage_span_sums_refuse_a_family_past_the_cap():
    # 25 members would ask for a 2^25-entry table
    inst = setcover_membership_gadget(2, [[1]] * 25, 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError):
            coverage_span_sums(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


DELTA = DeltaSpec(F(1, 4), 2)


def test_membership_instance_validated_at_construction():
    # mask 0 is legal: the set-cover gadget emits it for an element no member holds
    inst = MembershipInstance((1, F(-1, 2)), DELTA, 2, (0, 3))
    assert inst.point == (F(1), F(-1, 2))
    with pytest.raises(ValueError, match="point entries"):
        MembershipInstance((F(1),), DELTA, 2, (1, 2))
    with pytest.raises(ValueError, match="not a subset"):
        MembershipInstance((F(1), F(1)), DELTA, 2, (1, 4))
    with pytest.raises(ValueError, match="family_m"):
        MembershipInstance((F(1),), DELTA, 0, (0,))
    with pytest.raises(ValueError, match="point entry"):
        MembershipInstance((0.5,), DELTA, 1, (1,))
    # integer fields are ints, not floats or bools
    with pytest.raises(ValueError, match=r"^family_m must be a positive int, got 2\.0$"):
        MembershipInstance((F(1),), DELTA, 2.0, (1,))
    with pytest.raises(ValueError, match="^family_m must be a positive int, got True$"):
        MembershipInstance((F(1),), DELTA, True, (1,))
    with pytest.raises(ValueError, match=r"^family set mask 1\.0 not a subset of \[2\]$"):
        MembershipInstance((F(1),), DELTA, 2, (1.0,))


def test_membership_instance_keeps_its_own_copy_of_the_family_sets():
    sets = [1, 2]
    inst = MembershipInstance([F(1), F(1)], DELTA, 2, sets)
    same = MembershipInstance((F(1), F(1)), DELTA, 2, (1, 2))
    assert inst == same and hash(inst) == hash(same)
    sets.append(1 << 40)  # an unchecked mask must not reach the validated instance
    assert inst.family_sets == (1, 2) and inst == same


def test_setcover_gadget_margins_random():
    rng = random.Random(911)
    for _ in range(30):
        universe = rng.randint(2, 5)
        fam_size = rng.randint(1, 5)
        family = []
        for _ in range(fam_size):
            size = rng.randint(1, universe)
            family.append(sorted(rng.sample(range(1, universe + 1), size)))
        k = rng.randint(1, 3)
        inst = setcover_membership_gadget(universe, family, k)
        margin = 1 / (2 * (F(k * universe - k) - F(1, 2)))
        sums = coverage_span_sums(inst)  # one shared Fraction per distinct value
        sets = inst.family_sets
        assert sums == {s: oracles.span_sum_naive(sets, inst.point, s)
                        for s in range(1, 1 << inst.family_m)}
        best = max(sums.values())
        if oracles.setcover_has_cover(universe, family, k):
            assert best >= margin
        else:
            assert best <= -margin


@st.composite
def setcover_families(draw):
    """A universe of 2..9 elements and 1..8 members, empty and repeated members allowed."""
    universe = draw(st.integers(2, 9))
    member = st.lists(st.integers(1, universe), unique=True).map(sorted)
    return universe, draw(st.lists(member, min_size=1, max_size=8))


@settings(max_examples=60, deadline=None, database=None)
@given(setcover_families())
@example((4, [[1, 2], [2], [3]]))  # element 4 has no owner
def test_setcover_gadget_sets_are_singletons_all_and_owners(data):
    universe, family = data
    m = len(family)
    inst = setcover_membership_gadget(universe, family, 1)
    assert inst.family_m == m
    singletons = tuple(1 << i for i in range(m))
    owners = tuple(oracles.setcover_owner_masks(universe, family))
    assert inst.family_sets == singletons + ((1 << m) - 1,) + owners
