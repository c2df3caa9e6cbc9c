"""Restricted L1 extension, exact oracle, dual rounding."""

import random
import tracemalloc
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from coverext import norm
from coverext.lp import solve
from coverext.setfun import PartialFunction, eval_from_w, hit_patterns
from coverext.norm import (
    _held_singletons,
    _norm_program,
    norm_extension_approx,
    norm_opt_exact,
    verify_dual_feasible,
)

import oracles

F = Fraction


def pf(m, *pairs):
    return PartialFunction(m, tuple((mask, F(v)) for mask, v in pairs))


def test_triangle_instance():
    # f(1)=f(2)=f(12)=1: singletons alone must pay 1 somewhere (summing the
    # three absolute errors bounds any singleton solution below by 1), while
    # a single shared universe element fits exactly, so the true optimum is 0.
    instance = pf(2, (0b01, 1), (0b10, 1), (0b11, 1))
    result = norm_extension_approx(instance, with_exact=True)
    assert result.opt_restricted == F(1)
    assert result.opt_exact == F(0)
    assert result.additive_bound == F(3, 2)
    assert result.opt_exact <= result.opt_restricted <= result.opt_exact + result.additive_bound


def test_superadditive_instance():
    instance = pf(2, (0b01, 1), (0b10, 1), (0b11, 3))
    result = norm_extension_approx(instance, with_exact=True)
    assert result.opt_restricted == F(1)
    assert result.opt_exact == F(1)
    assert result.additive_bound == F(5, 2)


def test_singletons_only_is_exact():
    instance = pf(3, (0b001, 2), (0b010, 3), (0b100, 1))
    result = norm_extension_approx(instance, with_exact=True)
    assert instance.d == 1
    assert result.additive_bound == F(0)
    assert result.opt_restricted == result.opt_exact == F(0)


def test_zero_point_with_superset():
    assert norm_opt_exact(pf(2, (0b01, 0), (0b11, 1))) == F(0)


def test_extendible_instances_have_zero_exact_optimum():
    rng = random.Random(611)
    for _ in range(40):
        instance, _ = oracles.random_extendible_instance(rng, max_m=6, max_n=6)
        assert norm_opt_exact(instance) == F(0)


def test_dual_feasibility_examples():
    instance = pf(2, (0b01, 1), (0b11, 1))
    assert verify_dual_feasible(instance, (F(0), F(0)))
    assert verify_dual_feasible(instance, (F(1), F(-1)))
    assert not verify_dual_feasible(instance, (F(2), F(0)))
    assert not verify_dual_feasible(instance, (F(1), F(0)))  # span sum at {1} is +1
    assert not verify_dual_feasible(instance, (F(0),))  # wrong length


def test_guarantees_on_random_instances():
    rng = random.Random(612)
    for _ in range(80):
        instance = oracles.random_partial_function(rng, max_m=6, max_n=6)
        result = norm_extension_approx(instance, with_exact=True)
        opt, opt_r = result.opt_exact, result.opt_restricted
        assert opt <= opt_r <= opt + result.additive_bound
        assert opt_r <= instance.total_value  # zero function is always available
        assert sum(abs(e) for e in result.primal_errors) == opt_r
        assert all(mask.bit_count() == 1 for mask, _ in result.witness.support)
        assert verify_dual_feasible(instance, result.dual_rounded)
        priced = sum(v * y for (_, v), y in zip(instance.points, result.dual_rounded))
        assert priced <= opt


def test_witness_evaluates_consistently():
    instance = pf(2, (0b01, 1), (0b10, 1), (0b11, 3))
    result = norm_extension_approx(instance)
    for (mask, value), err in zip(instance.points, result.primal_errors):
        assert eval_from_w(result.witness, mask) - value == err


@settings(max_examples=60, deadline=None, database=None)
@given(oracles.partial_functions(), st.integers(0, 3))
def test_restricted_program_solves_like_all_singletons(instance, unheld):
    # up to three more elements that no point holds
    instance = PartialFunction(instance.m + unheld, instance.points)
    got = solve(_norm_program(instance, _held_singletons(instance)))
    want = solve(oracles.all_singletons_norm_program(instance))
    assert (got.status, got.objective_value, got.row_duals, got.pivots) == (
        want.status, want.objective_value, want.row_duals, want.pivots)
    # the held singletons, then the error variables, in the same order
    held = [j for j in range(instance.m) if any(mask >> j & 1 for mask in instance.masks())]
    assert got.solution == tuple(want.solution[j] for j in held) + want.solution[instance.m:]
    assert all(want.solution[j] == 0 for j in range(instance.m) if j not in held)
    witness = {1 << j: v for j, v in enumerate(want.solution[: instance.m]) if v}
    assert dict(norm_extension_approx(instance).witness.support) == witness


@settings(max_examples=80, deadline=None, database=None)
@given(oracles.partial_functions())
@example(pf(3, (0b111, 1), (0b100, 1), (0b101, 1)))  # nested points: a dual at the box edge
@example(pf(3, (0b011, 0), (0b110, F(5, 2)), (0b100, 0)))  # zero values around a fraction
def test_slack_form_matches_the_equality_form(instance):
    # eps- as the row slack: the same OPT_R and OPT as the split-error program,
    # and duals y = 1 + u that keep their meaning
    result = norm_extension_approx(instance, with_exact=True)
    held = oracles.held_singletons_naive(instance)
    columns = range(1, 1 << instance.m)
    assert result.opt_restricted == solve(
        oracles.equality_norm_program(instance, held)).objective_value
    assert result.opt_exact == solve(
        oracles.equality_norm_program(instance, columns)).objective_value
    y = result.dual_restricted
    assert all(-1 <= v <= 1 for v in y)
    assert sum(v * yi for (_, v), yi in zip(instance.points, y)) == result.opt_restricted
    assert verify_dual_feasible(instance, result.dual_rounded)


def test_restricted_program_memory_follows_the_points_not_m():
    # three points on m = 20,000: one column per held element, no 1 << j for
    # every j < m (about 25 MB)
    instance = pf(20_000, (0b011, 1), (0b110, 2), ((1 << 19_999) | 1, 3))
    tracemalloc.start()
    try:
        result = norm_extension_approx(instance)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert result.opt_restricted == 0


def test_held_singletons_scan_no_element_past_the_highest_held_one(monkeypatch):
    # {1} and {1, 2} at m = 10^7: a scan of every element took seconds
    asked = []

    def spy(m, sets):
        asked.append(m)
        return hit_patterns(m, sets) if m <= 2 else []  # a longer scan fails below, at once

    monkeypatch.setattr(norm, "hit_patterns", spy)
    got = _held_singletons(PartialFunction(10**7, ((1, 1), (3, 2))))
    assert asked == [2]
    # the m = 2 columns: {1} meets both points, {2} the second
    assert got == [(0b01, 0b11), (0b10, 0b10)]
