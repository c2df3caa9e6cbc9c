"""Extension decision: witnesses, certificates, and soundness both ways."""

import random
from fractions import Fraction

import pytest

from coverext import extension, setfun
from coverext.errors import CapExceededError
from coverext.lp import INFEASIBLE, LpOutcome, verify_solution
from coverext.setfun import (
    PartialFunction,
    WCoefficients,
    cheapest_unions,
    eval_from_w,
    span_columns,
)
from coverext.extension import (
    decide_extension,
    extension_program,
    verify_certificate,
    verify_witness,
)

import oracles

F = Fraction


def pf(m, *pairs):
    return PartialFunction(m, tuple((mask, F(v)) for mask, v in pairs))


def test_additive_pair_is_extendible():
    verdict = decide_extension(pf(2, (0b01, 1), (0b10, 1), (0b11, 2)))
    assert verdict.extendible
    assert verify_witness(pf(2, (0b01, 1), (0b10, 1), (0b11, 2)), verdict.witness)
    # disjoint singleton weights are the canonical witness here
    assert eval_from_w(verdict.witness, 0b01) == F(1)
    assert eval_from_w(verdict.witness, 0b11) == F(2)


def test_superadditive_point_is_not_extendible():
    instance = pf(2, (0b01, 1), (0b10, 1), (0b11, 3))
    verdict = decide_extension(instance)
    assert not verdict.extendible
    assert verify_certificate(instance, verdict.certificate)
    # the hand-built refutation: l = (-1, -1, +1)
    assert verify_certificate(instance, (F(-1), F(-1), F(1)))


def test_monotonicity_violation_is_not_extendible():
    instance = pf(2, (0b11, 1), (0b01, 2))
    verdict = decide_extension(instance)
    assert not verdict.extendible
    assert verify_certificate(instance, verdict.certificate)


@pytest.mark.parametrize("extendible", [True, False])
def test_columns_are_built_once_per_decision(monkeypatch, extendible):
    # the certificate check prices the columns the program was built over,
    # so a refutation runs the closure DP no more often than a witness
    calls = []

    def counting(parts, keep=-1):
        calls.append(1)
        return cheapest_unions(parts, keep)

    monkeypatch.setattr(setfun, "cheapest_unions", counting)
    values = (1, 1, 2) if extendible else (1, 1, 3)
    instance = pf(2, *zip((0b01, 0b10, 0b11), values))
    assert decide_extension(instance).extendible is extendible
    assert calls == [1]


def test_a_ray_with_a_positive_span_sum_is_refused(monkeypatch):
    # the negated ray (1, 0, 0) has a positive objective but spans {1} positively
    ray = (F(-1), F(0), F(0))
    monkeypatch.setattr(extension, "solve", lambda program: LpOutcome(INFEASIBLE, farkas_ray=ray))
    with pytest.raises(AssertionError, match="^internal error: certificate failed verification$"):
        decide_extension(pf(2, (0b01, 1), (0b10, 1), (0b11, 2)))


def test_program_solution_verifies_directly():
    # the one-point instance's program is satisfied by weight 1 on {1} alone
    single = pf(1, (0b1, 1))
    program = extension_program(single, span_columns(1, single.masks()))
    assert verify_solution(program, [F(1)])
    # at m = 2, {1, 2} meets {1} just as {1} does and {2} meets nothing,
    # so the only column is {1}
    wide = pf(2, (0b01, 1))
    program = extension_program(wide, span_columns(2, wide.masks()))
    assert program.num_vars == 1
    assert verify_solution(program, [F(1)])
    assert not verify_solution(program, [F(0)])
    assert not verify_solution(program, [F(2)])


def test_verify_witness_examples():
    single = pf(1, (0b1, 1))
    assert verify_witness(single, WCoefficients(1, ((0b1, F(1)),)))
    wide = pf(2, (0b01, 1))
    assert verify_witness(wide, WCoefficients(2, ((0b11, F(1)),)))
    assert not verify_witness(wide, WCoefficients(2, ((0b10, F(1)),)))
    assert not verify_witness(wide, WCoefficients(3, ((0b01, F(1)),)))  # wrong m
    negative = WCoefficients(2, ((0b01, F(2)), (0b11, F(-1))))  # sums to 1 at {1}
    assert eval_from_w(negative, 0b01) == 1
    assert not verify_witness(wide, negative)


def test_verify_certificate_examples():
    instance = pf(2, (0b01, 1), (0b10, 1), (0b11, 3))
    assert verify_certificate(instance, (F(-1), F(-1), F(1)))
    assert not verify_certificate(instance, (F(0), F(0), F(0)))  # strict part fails
    assert not verify_certificate(pf(1, (0b1, 1)), (F(1),))  # span sum positive
    assert not verify_certificate(instance, (F(1),))  # wrong arity


def test_zero_valued_points_are_legal():
    verdict = decide_extension(pf(2, (0b01, 0), (0b10, 1)))
    assert verdict.extendible
    assert eval_from_w(verdict.witness, 0b01) == 0

    # zero on a superset forces zero everywhere it meets
    verdict = decide_extension(pf(2, (0b11, 0), (0b01, 1)))
    assert not verdict.extendible


def test_random_constructed_instances_are_extendible():
    rng = random.Random(815)
    for _ in range(120):
        instance, _ = oracles.random_extendible_instance(rng, max_m=8, max_n=8, max_support=6)
        verdict = decide_extension(instance)
        assert verdict.extendible
        assert verify_witness(instance, verdict.witness)
        assert len(verdict.witness.support) <= instance.n


def test_perturbing_one_value_above_singleton_sum_refutes():
    # instances that contain every singleton of some set T plus T itself:
    # raising f(T) strictly above the singleton total breaks subadditivity
    rng = random.Random(816)
    for _ in range(60):
        m = rng.randint(2, 6)
        t = rng.randint(1, (1 << m) - 1)
        while t.bit_count() < 2:
            t = rng.randint(1, (1 << m) - 1)
        singles = [1 << j for j in range(m) if t >> j & 1]
        values = {s: oracles.random_fraction(rng, allow_zero=False) for s in singles}
        good_total = sum(values.values())
        points = tuple((s, values[s]) for s in singles) + ((t, good_total + 1),)
        verdict = decide_extension(PartialFunction(m, points))
        assert not verdict.extendible
        assert verify_certificate(PartialFunction(m, points), verdict.certificate)


def test_every_random_verdict_is_sound():
    rng = random.Random(817)
    seen_yes = seen_no = 0
    for _ in range(150):
        instance = oracles.random_partial_function(rng, max_m=6, max_n=6)
        verdict = decide_extension(instance)
        if verdict.extendible:
            seen_yes += 1
            assert verify_witness(instance, verdict.witness)
            assert len(verdict.witness.support) <= instance.n
        else:
            seen_no += 1
            assert verify_certificate(instance, verdict.certificate)
    assert seen_yes and seen_no


def test_cap_gating():
    wide = PartialFunction(30, ((1, F(1)),))
    with pytest.raises(CapExceededError):
        decide_extension(wide)
    small = pf(3, (0b1, 1))
    with pytest.raises(CapExceededError):
        decide_extension(small, cap=2)
