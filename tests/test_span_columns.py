"""One LP column per distinct hit pattern, against the all-subset programs.

The extension, stretch and norm programs keep only the smallest set of
each hit pattern; span_columns returns it together with the pattern. The
full programs below carry every nonempty subset as its own column; both
must solve to the same pivots, rays and duals, and the full solution
must be the deduplicated one placed at S - 1. The columns come from the
least-cost union DP, which is pinned here against a minimum over every
subset of its parts.
"""

import random
import tracemalloc
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverext.approx import alpha_star_program
from coverext.extension import extension_program
from coverext.lp import solve
from coverext.norm import _norm_program
from coverext.setfun import _span_closure, cheapest_unions, span_columns

import oracles

F = Fraction
PROPERTY = settings(max_examples=40, deadline=None, database=None)


def test_span_columns_examples():
    # each column is (smallest set, pattern), bit i of the pattern for point i
    assert span_columns(1, [0b1]) == [(0b1, 0b1)]
    # {2} meets nothing; {1, 2} meets {1} just as {1} does
    assert span_columns(2, [0b01]) == [(0b01, 0b1)]
    # {1} meets T_0 only, {3} T_1 only, {2} both; every larger set meets both
    assert span_columns(3, [0b011, 0b110]) == [(0b001, 0b01), (0b010, 0b11), (0b100, 0b10)]
    # disjoint points: one column per nonempty union of them
    assert span_columns(3, [0b001, 0b110]) == [(0b001, 0b01), (0b010, 0b10), (0b011, 0b11)]


def test_span_columns_match_bruteforce_grouping():
    # the smallest set and the pattern of every column, against grouping all 2^m sets
    rng = random.Random(5)
    for _ in range(200):
        m = rng.randint(1, 7)
        n = rng.randint(1, min(8, (1 << m) - 1))
        points = rng.sample(range(1, 1 << m), n)
        columns = span_columns(m, points)
        assert columns == oracles.span_columns_naive(m, points)
        assert columns == sorted(set(columns))
        assert all(any(s & t for t in points) for s, _ in columns)


def test_keeping_every_point_builds_the_whole_closure():
    # a keep mask holding every point prunes nothing, at any m
    rng = random.Random(34)
    for _ in range(100):
        m = rng.randint(1, 8)
        points = [rng.randrange(1, 1 << m) for _ in range(rng.randint(1, 8))]
        want = oracles.span_columns_naive(m, points)
        assert _span_closure(m, points, (1 << len(points)) - 1) == want
        assert _span_closure(m, points, -1) == want


def test_a_pruned_closure_grows_sets_only_by_new_kept_points():
    # points {1}, {1, 2}, {3}, keeping the first and third: {2} meets no kept point,
    # so it neither starts a set nor joins one
    points = [0b001, 0b011, 0b100]
    assert _span_closure(3, points, 0b101) == [(0b001, 0b011), (0b100, 0b100), (0b101, 0b111)]
    assert (0b010, 0b010) in span_columns(3, points)
    assert _span_closure(3, points, 0) == []
    # points {1, 2}, {1}, {2}, keeping the first: {2} meets it, but it adds nothing
    # to {1}, so {1, 2} and its pattern of all three points are left out
    points = [0b11, 0b01, 0b10]
    assert _span_closure(2, points, 0b001) == [(0b01, 0b011), (0b10, 0b101)]
    assert span_columns(2, points)[-1] == (0b11, 0b111)


# Masks from a 4-bit range, so empty, repeated and overlapping parts are common.
PARTS = st.lists(
    st.tuples(st.integers(0, 15), st.fractions(min_value=0, max_value=3, max_denominator=4)),
    max_size=8,
)


@PROPERTY
@given(PARTS)
def test_cheapest_unions_match_every_subset_of_parts(parts):
    assert cheapest_unions(parts) == oracles.cheapest_unions_naive(parts)


def test_cheapest_unions_keep_the_least_cost_not_the_first():
    parts = [(0b01, F(5)), (0b11, F(1)), (0b10, F(0)), (0b01, F(0)), (0, F(0))]
    assert cheapest_unions(parts) == {0: 0, 0b01: 0, 0b10: 0, 0b11: 0}
    assert cheapest_unions([]) == {0: 0}


@PROPERTY
@given(PARTS, st.integers(0, 15))
@example([(0b011, F(1)), (0b101, F(2))], 0b001)  # the second adds no kept bit to the first
def test_keep_gives_the_least_cost_over_chains_of_new_kept_bits(parts, keep):
    pruned = cheapest_unions(parts, keep)
    assert pruned == oracles.cheapest_chains_naive(parts, keep)
    # keeping every bit prunes nothing
    assert cheapest_unions(parts, 15) == cheapest_unions(parts)


def test_a_part_grows_a_union_only_by_a_new_kept_bit():
    parts = [(0b01, F(1)), (0b11, F(2)), (0b10, F(4))]
    # the second part adds only bit 2 to {bit 1}; the third adds no kept bit at all
    assert cheapest_unions(parts, 0b01) == {0: 0, 0b01: 1, 0b11: 2}
    assert cheapest_unions(parts, 0) == {0: 0}


def test_span_columns_follow_the_patterns_not_the_ground_set():
    # three single-element points far apart: 2^3 - 1 patterns, whatever m is
    a, b, c = 1, 1 << 39, 1 << 59
    assert span_columns(60, [a, b, c]) == [
        (a, 0b001), (b, 0b010), (a | b, 0b011), (c, 0b100), (a | c, 0b101), (b | c, 0b110),
        (a | b | c, 0b111)]


def test_span_columns_memory_follows_the_patterns():
    rng = random.Random(20)
    points = [rng.randrange(1, 1 << 20) for _ in range(40)]
    tracemalloc.start()
    try:
        columns = span_columns(20, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert columns == sorted(set(columns)) and columns[0][0] == 1
    assert peak < 2 * 1024 * 1024  # a 2^20 table of ints alone takes about 8 MB


def _expand(sets, solution, m):
    """A deduplicated solution in the full layout: column c goes to sets[c] - 1."""
    full = [F(0)] * ((1 << m) - 1)
    for s, v in zip(sets, solution):
        full[s - 1] = v
    return tuple(full) + tuple(solution[len(sets):])


@PROPERTY
@given(oracles.partial_functions())
def test_deduplicated_programs_solve_like_full_ones(pf):
    columns = span_columns(pf.m, pf.masks())
    sets = [s for s, _ in columns]
    pairs = [
        (extension_program(pf, columns), oracles.full_extension_program(pf)),
        (alpha_star_program(pf), oracles.full_alpha_star_program(pf)),
        (_norm_program(pf, columns), oracles.full_norm_program(pf)),
    ]
    for dedup, full in pairs:
        assert dedup.num_vars - len(columns) == full.num_vars - ((1 << pf.m) - 1)
        got, want = solve(dedup), solve(full)
        assert (got.status, got.pivots, got.objective_value, got.farkas_ray, got.row_duals) == (
            want.status, want.pivots, want.objective_value, want.farkas_ray, want.row_duals)
        if got.solution is not None:
            assert _expand(sets, got.solution, pf.m) == want.solution
