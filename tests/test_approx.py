"""Replacement ratio, exact stretch optimum, bound sandwich, tight instances."""

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings

from coverext import approx, setfun
from coverext.errors import CapExceededError, SeedExhaustedError
from coverext.setfun import PartialFunction, _first_positive, cheapest_unions, span_columns
from coverext.approx import (
    alpha_bounds,
    alpha_star_exact,
    ceil_two_thirds,
    generate_tight_instance,
    harmonic,
    replacement_ratio_exact,
    replacement_ratio_greedy,
)

import oracles

F = Fraction


def pf(m, *pairs):
    return PartialFunction(m, tuple((mask, F(v)) for mask, v in pairs))


TIGHT_R4 = pf(2, (0b01, 4), (0b10, 4), (0b11, 1))


def test_tight_family_ratio_and_optimum():
    assert replacement_ratio_exact(TIGHT_R4) == F(1, 4)
    assert alpha_star_exact(TIGHT_R4) == F(4)


def test_replacement_ratio_enumerated_by_hand():
    # the pair point is replaced by the two singletons at cost 2/2 = 1;
    # each singleton needs the pair point at cost 2/1 = 2
    instance = pf(2, (0b01, 1), (0b10, 1), (0b11, 2))
    assert replacement_ratio_exact(instance) == F(1)


def test_no_replacement_anywhere_is_infinite():
    assert replacement_ratio_exact(pf(1, (0b1, 1))) == math.inf
    assert replacement_ratio_greedy(pf(1, (0b1, 2))) == math.inf


def test_greedy_on_tight_family():
    assert replacement_ratio_greedy(TIGHT_R4) == F(1, 4)


def test_greedy_within_harmonic_of_exact():
    rng = random.Random(515)
    compared = 0
    for _ in range(150):
        instance = oracles.random_partial_function(rng, max_m=6, max_n=10, positive=True)
        if instance.d > 4:
            continue
        exact = replacement_ratio_exact(instance)
        greedy = replacement_ratio_greedy(instance)
        brute = oracles.replacement_ratio_bruteforce(instance)
        assert exact == brute
        if exact == math.inf:
            assert greedy == math.inf
            continue
        assert exact <= greedy <= exact * harmonic(instance.d)
        compared += 1
    assert compared > 40


@settings(deadline=None, database=None)
@given(oracles.partial_functions())
def test_cover_dp_matches_bruteforce(instance):
    assert replacement_ratio_exact(instance) == oracles.replacement_ratio_bruteforce(instance)


def test_kappa_beyond_the_old_degree_and_subset_gate():
    # m = 7: the full set (value 9) plus the 7 singletons, 7 cyclic pairs and
    # 7 cyclic triples (value 1 each), so d = 7 and n = 22. Sets of at most
    # three elements need ceil(7/3) = 3 members to cover the full set, and
    # three cyclic triples do it: ratio 3/9. Every other point has value 1
    # and any cover of it weighs at least 1, so kappa = 1/3.
    cyclic = [sum(1 << ((j + k) % 7) for k in range(size)) for size in (1, 2, 3)
              for j in range(7)]
    instance = pf(7, (0b1111111, 9), *((mask, 1) for mask in cyclic))
    assert (instance.d, instance.n) == (7, 22)
    assert replacement_ratio_exact(instance) == F(1, 3)


def test_exact_kappa_gate_is_min_of_degree_and_other_points():
    rng = random.Random(517)
    for _ in range(40):
        instance = oracles.random_partial_function(rng, max_m=6, max_n=8)
        bound = min(instance.d, instance.n - 1)
        with pytest.raises(CapExceededError, match=rf"min\(d, n-1\) = {bound} exceeds"):
            replacement_ratio_exact(instance, cap=bound - 1)
        kappa = replacement_ratio_exact(instance, cap=bound)
        assert kappa == oracles.replacement_ratio_bruteforce(instance)


def test_alpha_bounds_passes_its_cap_to_exact_kappa_only():
    # m = 3, d = 3, n = 4: the exact kappa needs cap >= 3, greedy none
    instance = pf(3, (0b111, 6), (0b001, 1), (0b010, 1), (0b100, 1))
    with pytest.raises(CapExceededError):
        alpha_bounds(instance, mode="exact", cap=2)
    assert alpha_bounds(instance, mode="exact", cap=3).kappa_estimate == F(1, 2)
    assert alpha_bounds(instance, mode="greedy", cap=0).kappa_estimate == F(1, 2)


def test_alpha_bounds_refuses_an_unknown_mode():
    with pytest.raises(ValueError, match="^unknown mode 'x'$"):
        alpha_bounds(pf(1, (0b1, 1)), mode="x")


def test_alpha_star_examples():
    extendible = pf(2, (0b01, 1), (0b10, 1), (0b11, 2))
    assert alpha_star_exact(extendible) == F(1)
    # a zero above a positive point kills every stretch
    assert alpha_star_exact(pf(2, (0b11, 0), (0b01, 1))) == math.inf


def test_ceil_two_thirds():
    assert ceil_two_thirds(1) == 1
    assert ceil_two_thirds(2) == 2  # 2^(2/3) ~ 1.59
    assert ceil_two_thirds(4) == 3  # 4^(2/3) ~ 2.52
    assert ceil_two_thirds(8) == 4
    assert ceil_two_thirds(27) == 9
    for m in [*range(1, 3001), 10**18]:
        t = ceil_two_thirds(m)
        assert t ** 3 >= m * m > (t - 1) ** 3
    assert ceil_two_thirds(10**18) == 10**12


def test_greedy_tie_goes_to_the_smaller_index():
    # covering {1,2,3} (value 10): {1,2} at 2 and {1,2,3,4} at 3 both cost 1
    # per new element; the smaller index {1,2} wins, and {3} at 2 then
    # completes the cover at 4, where {1,2,3,4} alone would have cost 3.
    # The other points cover at ratio 3/2 or not at all (element 4).
    instance = pf(4, (0b0111, 10), (0b0011, 2), (0b1111, 3), (0b0100, 2))
    assert replacement_ratio_greedy(instance) == F(2, 5)
    assert replacement_ratio_exact(instance) == F(3, 10)


def test_huge_ground_set_costs_no_memory():
    # bounds on m = 10^8 over three small points: no 2^m-bit mask and no
    # loop up to m^(2/3) on the way
    tracemalloc.start()
    try:
        instance = pf(10**8, (0b011, 1), (0b110, 2), (0b101, 3))
        bounds = alpha_bounds(instance, mode="greedy")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert bounds.kappa_estimate == F(1)  # {1,3} at 3 is covered by the other two at 3


def test_alpha_bounds_on_tight_family():
    bounds = alpha_bounds(TIGHT_R4, mode="exact", include_alpha_star=True)
    assert bounds.kappa_estimate == F(1, 4)
    assert bounds.kappa_is_exact
    assert bounds.lower == F(4)
    assert bounds.upper == F(8)  # min(d=2, ceil(2^(2/3))=2) / (1/4)
    assert bounds.alpha_star == F(4)
    assert bounds.lower <= bounds.alpha_star <= bounds.upper


@pytest.mark.parametrize("mode, upper", [("exact", F(4)), ("greedy", F(761, 70))])  # 4 * H_8
def test_alpha_bounds_upper_binds_at_the_two_thirds_power(mode, upper):
    # the full set at 8 plus its eight singletons at 1: d = 8, kappa = 1, and
    # ceil(8^(2/3)) = 4 < d is the factor of the upper bound
    star = pf(8, (0xFF, 8), *((1 << j, 1) for j in range(8)))
    bounds = alpha_bounds(star, mode=mode)
    assert (bounds.kappa_estimate, bounds.lower) == (F(1), F(1))
    assert bounds.upper == upper


def test_alpha_bounds_degenerate_instance():
    bounds = alpha_bounds(pf(1, (0b1, 1)), mode="exact", include_alpha_star=True)
    assert bounds.degenerate
    assert bounds.lower == F(1)
    assert bounds.upper == math.inf
    assert bounds.alpha_star == F(1)


def test_zero_weight_replacement_means_no_stretch():
    # the zero-valued pair point covers the singleton for free, so kappa = 0
    # and no stretch is feasible at all
    instance = pf(2, (0b11, 0), (0b01, 1))
    assert replacement_ratio_exact(instance) == F(0)
    assert replacement_ratio_greedy(instance) == F(0)
    bounds = alpha_bounds(instance, mode="exact", include_alpha_star=True)
    assert bounds.degenerate
    assert bounds.lower == math.inf and bounds.upper == math.inf
    assert bounds.alpha_star == math.inf


def test_sandwich_property_small():
    rng = random.Random(516)
    for _ in range(60):
        instance = oracles.random_partial_function(rng, max_m=6, max_n=7, positive=True)
        star = alpha_star_exact(instance)
        assert star != math.inf
        for mode in ("exact", "greedy"):
            bounds = alpha_bounds(instance, mode=mode)
            if bounds.degenerate:
                assert star >= bounds.lower
                continue
            assert bounds.lower <= star <= bounds.upper


def test_upper_bound_clamps_at_definitional_floor():
    # kappa = 27/8 exceeds d = 3 here; the raw ratio bound would be 8/9,
    # below the floor alpha >= 1, and indeed the instance extends exactly
    instance = PartialFunction(4, ((0b1011, F(9)), (0b1010, F(8, 3))))
    assert replacement_ratio_exact(instance) == F(27, 8)
    assert alpha_star_exact(instance) == F(1)
    bounds = alpha_bounds(instance, mode="exact", include_alpha_star=True)
    assert bounds.upper == F(1)
    assert bounds.lower <= bounds.alpha_star <= bounds.upper


def test_generate_tight_instance_m4():
    instance = generate_tight_instance(4, k=2, seed=7)
    assert instance.m == 4
    assert instance.d == 2
    # blocks {1,2} and {3,4} carry value 2
    by_mask = dict(instance.points)
    assert by_mask[0b0011] == F(2)
    assert by_mask[0b1100] == F(2)
    assert all(v == F(1) for mask, v in instance.points if mask not in (0b0011, 0b1100))
    assert replacement_ratio_exact(instance) == F(1)
    # re-verify the accepted draw with an independent enumeration
    blocks = [0b0011, 0b1100]
    trans = [mask for mask, v in instance.points if v == F(1)]
    for s in range(1, 16):
        hit_b = sum(1 for b in blocks if b & s)
        hit_t = sum(1 for t in trans if t & s)
        assert hit_t >= hit_b


def _tight_weights(instance):
    root = math.isqrt(instance.m)
    return [1] * root + [-1] * (instance.n - root)


@pytest.mark.parametrize("m", [4, 9])
def test_accepted_draws_pass_a_literal_scan(m):
    # k = 1 draws are often refused: at m = 4, seeds 0, 3 and 7 refuse their first draw
    for seed in range(12):
        instance = generate_tight_instance(m, k=1, seed=seed)
        weights = _tight_weights(instance)
        assert all(oracles.span_sum_naive(instance.masks(), weights, s) <= 0
                   for s in range(1, 1 << m))


def test_tight_validation_prices_at_most_one_element_per_block(monkeypatch):
    # a set grows only by an element of a new block: (4 + 1)^4 - 1 sets at m = 16,
    # against a closure of about 9,000 patterns
    sizes = []

    def counting(parts, keep=-1):
        unions = cheapest_unions(parts, keep)
        sizes.append(len(unions) - 1)
        return unions

    monkeypatch.setattr(setfun, "cheapest_unions", counting)
    families = [generate_tight_instance(16, seed=seed) for seed in range(4)]
    assert sizes and max(sizes) <= 624
    monkeypatch.undo()
    for instance in families:
        full = span_columns(16, instance.masks())
        assert len(full) > 624 and _first_positive(full, _tight_weights(instance)) is None


def test_tight_family_at_m_25_is_drawn_quickly_and_dominated():
    # drawing took 2.35 s and 223 MB while every draw built the whole closure
    started = time.monotonic()
    instance = generate_tight_instance(25, k=2, seed=0, cap=25)
    assert time.monotonic() - started < 1
    # Another element of a block S already meets adds transversals and no block,
    # so the least of (transversals - blocks) met lies on a set holding at most
    # one element per block; a literal scan of those 6^5 - 1 sets stands in for
    # the whole closure (1,005,840 patterns, 2.2 s and 223 MB to build).
    blocks, trans = instance.masks()[:5], instance.masks()[5:]
    for picks in itertools.product(range(6), repeat=5):
        s = sum(1 << (5 * b + p - 1) for b, p in enumerate(picks) if p)
        assert sum(1 for t in trans if t & s) >= sum(1 for b in blocks if b & s)


def test_generate_tight_instance_rejects_bad_m():
    with pytest.raises(ValueError):
        generate_tight_instance(5)
    with pytest.raises(ValueError, match="^ground set must be nonempty$"):
        generate_tight_instance(0)
    with pytest.raises(ValueError):
        generate_tight_instance(4, k=0)
    # a 1-element ground set has no transversal besides its lone block
    with pytest.raises(ValueError) as info:
        generate_tight_instance(1, k=1, seed=3)
    assert str(info.value) == "m = 1 has no transversal to draw; the smallest family is m = 4"


def test_generator_gives_up_after_its_attempts(monkeypatch):
    monkeypatch.setattr(approx, "span_violation", lambda m, points, weights: 1)  # refuse all draws
    with pytest.raises(SeedExhaustedError) as info:
        generate_tight_instance(4, k=1, seed=3)
    assert str(info.value) == "no valid transversal draw within 64 attempts (m=4, k=1, seed=3)"


def test_generate_tight_instance_rejects_non_int_m_and_k():
    for m in (4.0, True):
        with pytest.raises(ValueError) as info:
            generate_tight_instance(m)
        assert str(info.value) == f"m must be an int, got {m!r}"
    with pytest.raises(ValueError, match=r"^k must be an int, got 1\.5$"):
        generate_tight_instance(4, k=1.5)


def test_generator_is_deterministic_per_seed():
    a = generate_tight_instance(4, k=2, seed=42)
    b = generate_tight_instance(4, k=2, seed=42)
    assert a == b
