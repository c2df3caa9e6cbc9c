"""The integer span-sum kernel and every scan built on it, against literal loops.

Each property draws small cases (m <= 8) and compares the library with a
full ascending enumeration written straight from the definitions.
"""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from coverext.errors import CapExceededError
from coverext.extension import verify_certificate
from coverext.gadgets import (
    Graph,
    check_cut_membership,
    check_span_membership,
    densest_cut_report,
)
from coverext.norm import verify_dual_feasible
from coverext.setfun import DEFAULT_ENUMERATION_CAP, PartialFunction, span_sums, span_violation

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


def _edges(draw, n):
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)) if pairs else []


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(1, 8))
    edges = _edges(draw, n)
    numerators = st.integers(-8, 8) if draw(st.booleans()) else st.integers(-4, 4)
    weights = _same_length(draw, st.builds(F, numerators, st.integers(4, 6)), edges)
    return Graph(n, tuple(edges), tuple(weights))


def _all_spans_nonpositive(masks, weights, m):
    return all(oracles.span_sum_naive(masks, weights, s) <= 0 for s in range(1, 1 << m))


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
    assert span_violation(m, sets, weights, DEFAULT_ENUMERATION_CAP) == want


def test_span_violation_memory_follows_the_patterns():
    rng = random.Random(20)
    sets = [rng.randrange(1, 1 << 20) for _ in range(40)]
    weights = [F(rng.randint(-1, 1)) for _ in sets]  # first violation: S = {12}
    tracemalloc.start()
    try:
        found = span_violation(20, sets, weights, DEFAULT_ENUMERATION_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == next(s for s in range(1, 1 << 20)
                         if sum(w for t, w in zip(sets, weights) if t & s) > 0)
    assert peak < 2 * 1024 * 1024  # a 2^20 table of ints alone takes about 8 MB


def test_span_violation_is_gated_by_its_cap():
    with pytest.raises(CapExceededError):
        span_violation(4, [0b1], [F(1)], 3)
    assert span_violation(3, [0b1], [F(1)], 3) == 0b1


@PROPERTY
@given(weighted_graphs())
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
    assert (span_violation(pf.m, pf.masks(), weights, DEFAULT_ENUMERATION_CAP) is None) is want


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
