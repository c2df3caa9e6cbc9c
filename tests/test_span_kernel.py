"""The integer span-sum kernel and every scan built on it, against literal loops.

Each property draws small cases (m <= 8) and compares the library with a
full ascending enumeration written straight from the definitions.
"""

import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from coverext.extension import verify_certificate
from coverext.gadgets import (
    Graph,
    _graph_sums,
    check_cut_membership,
    check_span_membership,
    densest_cut_report,
)
from coverext.norm import verify_dual_feasible
from coverext.setfun import (
    PartialFunction,
    _subset_pass,
    hit_patterns,
    span_sums,
    span_violation,
)

import oracles

F = Fraction
PROPERTY = settings(max_examples=40, deadline=None, database=None)

signed = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
nonnegative = st.builds(F, st.integers(0, 9), st.integers(1, 3))


def _same_length(draw, strategy, items):
    return draw(st.lists(strategy, min_size=len(items), max_size=len(items)))


@st.composite
def families(draw):
    """Sets over [m], repeats and the empty set allowed, with signed weights."""
    m = draw(st.integers(1, 8))
    sets = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=12))
    return m, sets, _same_length(draw, signed, sets)


@st.composite
def instances_with_multipliers(draw):
    """A partial function and one multiplier per point.

    Half the draws lower the multiplier on the full set, which meets every
    nonempty S, until the largest span sum is exactly 0, so accepted and
    boundary cases occur as often as rejected ones.
    """
    m = draw(st.integers(1, 8))
    full = (1 << m) - 1
    masks = draw(st.lists(st.integers(1, full), min_size=1, max_size=8, unique=True))
    values = _same_length(draw, nonnegative, masks)
    mult = _same_length(draw, signed, masks)
    if draw(st.booleans()):
        top = max(oracles.span_sum_naive(masks, mult, s) for s in range(1, full + 1))
        if full not in masks:
            masks.append(full)
            values.append(draw(nonnegative))
            mult.append(F(0))
        mult[masks.index(full)] -= top
    return PartialFunction(m, tuple(zip(masks, values))), tuple(mult)


def _edges(draw, n, min_size=1):
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return draw(st.lists(st.sampled_from(pairs), min_size=min_size, unique=True)) if pairs else []


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(1, 8))
    edges = _edges(draw, n)
    numerators = st.integers(-8, 8) if draw(st.booleans()) else st.integers(-4, 4)
    weights = _same_length(draw, st.builds(F, numerators, st.integers(4, 6)), edges)
    return Graph(n, tuple(edges), tuple(weights))


@st.composite
def any_weighted_graphs(draw):
    """Edgeless graphs and isolated vertices too, weights off the unit box, mixed denominators."""
    n = draw(st.integers(1, 8))
    edges = _edges(draw, n, min_size=0)
    weights = _same_length(draw, st.builds(F, st.integers(-12, 12), st.integers(1, 7)), edges)
    return Graph(n, tuple(edges), tuple(weights))


def _all_spans_nonpositive(masks, weights, m):
    return all(oracles.span_sum_naive(masks, weights, s) <= 0 for s in range(1, 1 << m))


@st.composite
def subset_tables(draw):
    """A signed int table over [m]: entries of a few bits, of several words, or past 8 bytes."""
    m = draw(st.integers(1, 8))
    bound = 1 << draw(st.sampled_from([1, 6, 13, 40, 70]))
    return m, tuple(draw(st.lists(st.integers(-bound, bound), min_size=1 << m, max_size=1 << m)))


@PROPERTY
@given(subset_tables(), st.sampled_from([1, -1]))
@example((3, (0, 1, -2, 3, 4, -5, 6, 7)), -1)
@example((2, (1 << 70, -1, 0, 5)), 1)  # too wide for 8-byte lanes: the slice loop
@example((3, (-(1 << 20), 1, 0, 0, 0, 0, 0, 0)), 1)  # max(table) alone would fit 1-byte lanes
def test_subset_pass_matches_literal_subset_sums(case, sign):
    # a signed table takes its lane width from max|v|; a table its caller
    # knows to be nonnegative (a stored set function's numerators) from max
    m, table = case
    assert _subset_pass(table, m, sign) == oracles.subset_pass_naive(table, m, sign)
    table = tuple(map(abs, table))
    assert (_subset_pass(table, m, sign, nonnegative=True)
            == oracles.subset_pass_naive(table, m, sign))


@pytest.mark.parametrize("m", [2, 5])
@pytest.mark.parametrize("nbytes", [1, 2, 4, 8])
def test_subset_pass_is_exact_at_the_lane_edges(nbytes, m):
    # |v| * 2^m bounds every sum: one below 2^(8 * nbytes - 1) still fits a lane
    # of nbytes, and 2^(8 * nbytes - 1) itself needs the next width (past 8
    # bytes, the slice loop)
    edge = 1 << 8 * nbytes - 1 - m
    for v in (edge - 1, edge):
        alternating = [v * (-1) ** r.bit_count() for r in range(1 << m)]
        for table in ([v] * (1 << m), [-v] * (1 << m), alternating):
            for sign in (1, -1):
                assert _subset_pass(table, m, sign) == oracles.subset_pass_naive(table, m, sign)
        for sign in (1, -1):  # the nonnegative bound at the same edges
            assert (_subset_pass([v] * (1 << m), m, sign, nonnegative=True)
                    == oracles.subset_pass_naive([v] * (1 << m), m, sign))


@PROPERTY
@given(families())
@example((1, [1], [F(-3, 2)]))
@example((3, [0b101, 0b101, 0b010, 0], [F(1, 2), F(-1, 3), F(2), F(5)]))
def test_span_sums_match_literal_sums(family):
    m, sets, weights = family
    sums, scale = span_sums(m, sets, weights)
    assert len(sums) == 1 << m and scale > 0
    for s in range(1 << m):
        assert F(sums[s], scale) == oracles.span_sum_naive(sets, weights, s)


@PROPERTY
@given(families())
@example((2, [0b01, 0b11], [F(1), F(-1)]))  # largest span sum exactly 0
@example((2, [0b01, 0b10], [F(1), F(2)]))  # first violation is not the largest
@example((2, [0b11], [F(1)]))  # {1} and {2} share one hit pattern: the smaller answers
@example((2, [0b01, 0b10, 0b11], [F(1), F(1), F(-1)]))  # only the union of two patterns
@example((2, [0b01] * 8 + [0b10], [F(-1)] * 8 + [F(1)]))  # decided by the ninth set
def test_span_violation_is_the_first_positive_span_in_ascending_order(family):
    m, sets, weights = family
    want = next((s for s in range(1, 1 << m)
                 if oracles.span_sum_naive(sets, weights, s) > 0), None)
    assert span_violation(m, sets, weights) == want


@PROPERTY
@given(st.integers(1, 8), st.lists(st.integers(0, (1 << 10) - 1), max_size=12))
@example(3, [0b1010, 0b111, 0])  # element 4 lies past m = 3 and holds no pattern bit
def test_hit_patterns_match_a_literal_loop(m, sets):
    assert hit_patterns(m, sets) == oracles.hit_patterns_naive(m, sets)


def test_hit_patterns_pay_per_element_not_per_height():
    # a shift of the whole set per element below the highest took about 2.6 s here
    h = 3 * 10**5
    started = time.monotonic()
    assert hit_patterns(h, [1, 1 << (h - 1)])[::h - 1] == [0b01, 0b10]
    assert time.monotonic() - started < 1


def test_span_violation_memory_follows_the_patterns():
    rng = random.Random(20)
    sets = [rng.randrange(1, 1 << 20) for _ in range(40)]
    weights = [F(rng.randint(-1, 1)) for _ in sets]  # first violation: S = {12}
    tracemalloc.start()
    try:
        found = span_violation(20, sets, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == next(s for s in range(1, 1 << 20)
                         if sum(w for t, w in zip(sets, weights) if t & s) > 0)
    assert peak < 2 * 1024 * 1024  # a 2^20 table of ints alone takes about 8 MB


@PROPERTY
@given(weighted_graphs())
# the cut check fails first at {1, 2}, the span check at {3}
@example(Graph(3, ((1, 2), (1, 3), (2, 3)), (F(-1), F(1, 2), F(1, 2))))
def test_membership_matches_an_ascending_scan(graph):
    n, edges, weights = graph.num_vertices, graph.edges, graph.weights
    for check, weigh in ((check_cut_membership, oracles.cut_weight_naive),
                         (check_span_membership, oracles.span_weight_naive)):
        want = (True, None, None)
        box = [i for i, w in enumerate(weights) if w < -1 or w > 1]
        if box:
            want = (False, None, box[0])
        else:
            for s in range(1, 1 << n):
                if weigh(n, edges, weights, s) > 0:
                    want = (False, s, None)
                    break
        got = check(graph)
        assert (got.inside, got.violated_set, got.box_edge) == want


@PROPERTY
@given(any_weighted_graphs())
@example(Graph(3, (), ()))
@example(Graph(4, ((1, 3), (3, 4)), (F(5, 2), F(-1, 3))))  # vertex 2 isolated
def test_graph_tables_match_literal_sums_at_every_mask(graph):
    n, edges, weights = graph.num_vertices, graph.edges, graph.weights
    for k, weigh in ((1, oracles.span_weight_naive), (2, oracles.cut_weight_naive)):
        sums, scale = _graph_sums(graph, k)
        assert scale > 0
        assert [F(value, scale) for value in sums] == [weigh(n, edges, weights, s)
                                                       for s in range(1 << n)]


def test_span_membership_memory_stays_near_one_table():
    rng = random.Random(18)
    edges = [(u, v) for u in range(1, 19) for v in range(u + 1, 19) if rng.random() < 0.35]
    graph = Graph(18, tuple(edges), tuple(F(-rng.randint(0, 4), 4) for _ in edges))
    tracemalloc.start()
    try:
        check = check_span_membership(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check.inside  # every weight is <= 0, so every entry of the table is read
    assert peak < 16 * 1024 * 1024  # the 2^18 table of ints alone takes about 10 MB


@PROPERTY
@given(st.integers(2, 7), st.builds(F, st.integers(1, 6), st.integers(1, 6)), st.data())
def test_densest_max_cut_matches_enumeration(n, density, data):
    edges = _edges(data.draw, n)
    report = densest_cut_report(Graph(n, tuple(edges)), density)
    gadget = report.gadget
    best = oracles.max_cut_weight(n, gadget.edges, gadget.weights, proper=True)
    assert report.max_cut_value == best
    assert (report.exceeds_density, report.boundary) == (best > 0, best == 0)


@PROPERTY
@given(instances_with_multipliers())
def test_certificate_check_matches_a_literal_scan(case):
    pf, cert = case
    objective = sum((v * l for (_, v), l in zip(pf.points, cert)), F(0))
    want = objective > 0 and _all_spans_nonpositive(pf.masks(), cert, pf.m)
    assert verify_certificate(pf, cert) is want


@PROPERTY
@given(instances_with_multipliers())
def test_dual_check_matches_a_literal_scan(case):
    pf, y = case
    in_box = all(-1 <= v <= 1 for v in y)
    want = in_box and _all_spans_nonpositive(pf.masks(), y, pf.m)
    assert verify_dual_feasible(pf, y) is want


@PROPERTY
@given(instances_with_multipliers(), st.data())
def test_spans_dominated_matches_hit_counts(case, data):
    pf, _ = case
    blocks = data.draw(st.integers(0, pf.n))
    want = True
    for s in range(1, 1 << pf.m):
        hit = [i for i, mask in enumerate(pf.masks()) if mask & s]
        hit_blocks = sum(1 for i in hit if i < blocks)
        if len(hit) - hit_blocks < hit_blocks:
            want = False
            break
    weights = [1] * blocks + [-1] * (pf.n - blocks)
    assert (span_violation(pf.m, pf.masks(), weights) is None) is want


@PROPERTY
@given(st.floats(min_value=-4, max_value=4))
def test_float_weight_is_rejected(x):
    pf = PartialFunction(2, ((0b01, F(1)), (0b11, F(2))))
    with pytest.raises(ValueError):
        span_sums(2, [0b01, 0b11], [F(1), x])
    with pytest.raises(ValueError):
        verify_dual_feasible(pf, (F(-1), x))
    with pytest.raises(ValueError):
        verify_certificate(pf, (F(0), x))
