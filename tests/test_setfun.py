"""W-transform, its inverse, and the coverage characterization."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from coverext.errors import CapExceededError
from coverext.setfun import (
    PartialFunction,
    TotalSetFunction,
    WCoefficients,
    eval_from_w,
    is_coverage,
    mask_from_elements,
    mask_to_elements,
    span_sums,
    w_roundtrip_check,
    w_transform,
)

import oracles

F = Fraction


def tsf(m, mapping):
    return TotalSetFunction(m, tuple(Fraction(mapping[mask]) for mask in range(1 << m)))


def test_mask_helpers():
    assert mask_from_elements([1, 3], 3) == 0b101
    assert mask_to_elements(0b101) == [1, 3]
    with pytest.raises(ValueError):
        mask_from_elements([4], 3)
    with pytest.raises(ValueError):
        mask_from_elements([2, 2], 3)


@settings(max_examples=200, deadline=None, database=None)
@given(st.one_of(
    st.integers(0, 1 << 70),
    st.lists(st.integers(0, 5000), max_size=12).map(lambda bits: sum(1 << b for b in set(bits))),
))
@example(0)
@example(1 << 20_000)
@example((1 << 4000) - 1)
def test_mask_to_elements_matches_the_shifting_loop(mask):
    assert mask_to_elements(mask) == oracles.mask_to_elements_naive(mask)


def test_transform_two_element_coverage():
    # f(1)=f(2)=f(12)=1: one universe element shared by both sets, computed
    # by hand from the alternating sum and cross-checked by the naive oracle.
    f = tsf(2, {0b00: 0, 0b01: 1, 0b10: 1, 0b11: 1})
    w = w_transform(f)
    assert w.as_dict() == {0b11: F(1)}
    assert oracles.w_transform_naive(f.values, 2) == {0b01: 0, 0b10: 0, 0b11: F(1)}


def test_transform_single_element():
    f = tsf(1, {0: 0, 1: 5})
    assert w_transform(f).as_dict() == {1: F(5)}


def test_transform_detects_negative_coefficient():
    # f(12)=3 breaks subadditivity; w(12) = f(1) + f(2) - f(12) = -1
    f = tsf(2, {0b00: 0, 0b01: 1, 0b10: 1, 0b11: 3})
    w = w_transform(f)
    assert w.as_dict()[0b11] == F(-1)
    check = is_coverage(f)
    assert not check.is_coverage
    assert check.violating_set == 0b11
    assert check.coefficient == F(-1)


def test_coverage_yes_case():
    f = tsf(2, {0b00: 0, 0b01: 2, 0b10: 1, 0b11: 2})
    w = w_transform(f)
    assert w.as_dict() == {0b01: F(1), 0b11: F(1)}
    assert is_coverage(f).is_coverage


def test_eval_from_w():
    w = WCoefficients.from_dict(2, {0b11: F(1)})
    assert eval_from_w(w, 0b01) == F(1)
    assert eval_from_w(w, 0) == F(0)
    w2 = WCoefficients.from_dict(2, {0b01: F(1), 0b10: F(1)})
    assert eval_from_w(w2, 0b11) == F(2)


def test_roundtrip_examples():
    assert w_roundtrip_check(WCoefficients(3, ()))
    assert w_roundtrip_check(WCoefficients.from_dict(2, {0b11: F(1)}))


def test_roundtrip_property_small():
    rng = random.Random(411)
    for _ in range(200):
        w = oracles.random_wcoeffs(rng, max_m=8, max_support=6)
        assert w_roundtrip_check(w)


def test_transform_matches_naive_oracle():
    rng = random.Random(412)
    for _ in range(60):
        m = rng.randint(1, 6)
        values = [oracles.random_fraction(rng) for _ in range(1 << m)]
        values[0] = F(0)
        f = TotalSetFunction(m, tuple(values))
        dense = oracles.w_transform_naive(f.values, m)
        assert w_transform(f).as_dict() == {s: v for s, v in dense.items() if v}


def test_monotone_and_submodular_when_nonnegative():
    rng = random.Random(413)
    for _ in range(150):
        w = oracles.random_wcoeffs(rng, max_m=7, max_support=6)
        full = (1 << w.m) - 1
        a = rng.randint(0, full)
        b = rng.randint(0, full)
        small, big = a & b, a | b
        assert eval_from_w(w, small) <= eval_from_w(w, big)
        assert eval_from_w(w, a) + eval_from_w(w, b) >= eval_from_w(w, big) + eval_from_w(w, small)


def test_flipping_one_weight_flips_the_verdict():
    rng = random.Random(414)
    for _ in range(60):
        w = oracles.random_wcoeffs(rng, max_m=6, max_support=5)
        table = [eval_from_w(w, mask) for mask in range(1 << w.m)]
        assert is_coverage(TotalSetFunction(w.m, tuple(table))).is_coverage
        victim = rng.choice(w.support)
        flipped = dict(w.support)
        flipped[victim[0]] = -victim[1]
        wbad = WCoefficients.from_dict(w.m, flipped)
        table = [eval_from_w(wbad, mask) for mask in range(1 << w.m)]
        if min(table) < 0:
            continue  # not a valid nonnegative set function; nothing to test
        assert not is_coverage(TotalSetFunction(w.m, tuple(table))).is_coverage


def test_constructor_rejections():
    with pytest.raises(ValueError):
        TotalSetFunction(1, (F(1), F(1)))  # f(empty) != 0
    with pytest.raises(ValueError):
        TotalSetFunction(1, (F(0), F(-1)))  # negative value
    with pytest.raises(ValueError):
        WCoefficients.from_dict(1, {0: F(1)})  # empty set in support
    with pytest.raises(ValueError):
        PartialFunction(2, ((0b01, F(1)), (0b01, F(2))))  # duplicate set
    with pytest.raises(ValueError):
        PartialFunction(2, ((0b01, F(-1)),))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TotalSetFunction(0, (F(0),)), "m must be a positive int, got 0"),
        (lambda: TotalSetFunction(2, (F(0), F(1))), "need 4 values, got 2"),
        (lambda: WCoefficients(0, ()), "m must be a positive int, got 0"),
        (lambda: WCoefficients(2, ((0b01, F(1)), (0b01, F(2)))), "duplicate support mask 1"),
        (lambda: PartialFunction(0, ((1, F(1)),)), "m must be a positive int, got 0"),
        (lambda: PartialFunction(2, ()), "a partial function needs at least one point"),
        (lambda: PartialFunction(2, ((0, F(1)),)),
         "defined set mask 0 not a nonempty subset of [2]"),
        (lambda: PartialFunction(2, ((0b100, F(1)),)),
         "defined set mask 4 not a nonempty subset of [2]"),
        (lambda: span_sums(2, [0b01, 0b10], [F(1)]), "2 sets but 1 weights"),
        # m and the masks are ints, not floats or bools
        (lambda: TotalSetFunction(2.0, (F(0),) * 4), "m must be a positive int, got 2.0"),
        (lambda: TotalSetFunction(True, (F(0), F(1))), "m must be a positive int, got True"),
        (lambda: WCoefficients(2.5, ((1, F(1)),)), "m must be a positive int, got 2.5"),
        (lambda: PartialFunction(2.5, ((1, F(1)),)), "m must be a positive int, got 2.5"),
        (lambda: PartialFunction(2, ((1.0, F(1)),)),
         "defined set mask 1.0 not a nonempty subset of [2]"),
        (lambda: PartialFunction(2, ((True, F(1)),)),
         "defined set mask True not a nonempty subset of [2]"),
    ],
)
def test_constructor_refusals_keep_their_text(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_support_masks_are_ints():
    # a float mask has no bit_length; True == 1 but is no set
    for mask in (1.0, True):
        with pytest.raises(ValueError) as info:
            WCoefficients(2, ((mask, F(1)),))
        assert str(info.value) == f"support mask {mask!r} not a nonempty subset of [2]"


def test_partial_function_derived_quantities():
    pf = PartialFunction(3, ((0b001, F(1)), (0b011, F(2)), (0b111, F(1, 2))))
    assert pf.n == 3
    assert pf.d == 3
    assert pf.total_value == F(7, 2)


def test_enumeration_cap_enforced():
    w = WCoefficients.from_dict(30, {1: F(1)})
    with pytest.raises(CapExceededError):
        w_roundtrip_check(w)
    with pytest.raises(CapExceededError):
        w_roundtrip_check(WCoefficients.from_dict(5, {1: F(1)}), cap=4)
