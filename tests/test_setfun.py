"""W-transform, its inverse, and the coverage characterization."""

import copy
import math
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from coverext.setfun import (
    PartialFunction,
    TotalSetFunction,
    WCoefficients,
    coverage_check,
    eval_from_w,
    is_coverage,
    mask_from_elements,
    mask_to_elements,
    span_sums,
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


def test_mask_to_elements_skips_zero_bits_in_c():
    # a Python step per bit position took about 2 s at this length
    started = time.monotonic()
    assert mask_to_elements((1 << (4 * 10**7 - 1)) | 1) == [1, 4 * 10**7]
    assert time.monotonic() - started < 1


def test_transform_two_element_coverage():
    # f(1)=f(2)=f(12)=1: one universe element shared by both sets, computed
    # by hand from the alternating sum and cross-checked by the naive oracle.
    f = tsf(2, {0b00: 0, 0b01: 1, 0b10: 1, 0b11: 1})
    w = w_transform(f)
    assert dict(w.support) == {0b11: F(1)}
    assert oracles.w_transform_naive(f.values, 2) == {0b01: 0, 0b10: 0, 0b11: F(1)}


def test_transform_single_element():
    f = tsf(1, {0: 0, 1: 5})
    assert dict(w_transform(f).support) == {1: F(5)}


def test_transform_detects_negative_coefficient():
    # f(12)=3 breaks subadditivity; w(12) = f(1) + f(2) - f(12) = -1
    f = tsf(2, {0b00: 0, 0b01: 1, 0b10: 1, 0b11: 3})
    w = w_transform(f)
    assert dict(w.support)[0b11] == F(-1)
    check = is_coverage(f)
    assert not check.is_coverage
    assert check.violating_set == 0b11
    assert check.coefficient == F(-1)


def test_coverage_yes_case():
    f = tsf(2, {0b00: 0, 0b01: 2, 0b10: 1, 0b11: 2})
    w = w_transform(f)
    assert dict(w.support) == {0b01: F(1), 0b11: F(1)}
    assert is_coverage(f).is_coverage


def test_eval_from_w():
    w = WCoefficients(2, ((0b11, F(1)),))
    assert eval_from_w(w, 0b01) == F(1)
    assert eval_from_w(w, 0) == F(0)
    w2 = WCoefficients(2, ((0b01, F(1)), (0b10, F(1))))
    assert eval_from_w(w2, 0b11) == F(2)


def test_roundtrip_examples():
    # w -> table -> w through the public pair, including the zero function,
    # whose support is empty (criterion 01 draws at least one set)
    for w in (WCoefficients(3, ()), WCoefficients(2, ((0b11, F(1)),))):
        table = tuple(eval_from_w(w, mask) for mask in range(1 << w.m))
        assert w_transform(TotalSetFunction(w.m, table)) == w


def test_roundtrip_property_small():
    # table -> w -> table: most random tables are not coverage functions, so
    # this pins the inverse on signed coefficients too, unlike criterion 01
    rng = random.Random(411)
    signed = 0
    for _ in range(200):
        m = rng.randint(1, 8)
        values = [oracles.random_fraction(rng) for _ in range(1 << m)]
        values[0] = F(0)
        w = w_transform(TotalSetFunction(m, tuple(values)))
        signed += any(x < 0 for _, x in w.support)
        assert [eval_from_w(w, mask) for mask in range(1 << m)] == values
    assert signed >= 100


def test_transform_matches_naive_oracle():
    rng = random.Random(412)
    for _ in range(60):
        m = rng.randint(1, 6)
        values = [oracles.random_fraction(rng) for _ in range(1 << m)]
        values[0] = F(0)
        f = TotalSetFunction(m, tuple(values))
        dense = oracles.w_transform_naive(f.values, m)
        assert dict(w_transform(f).support) == {s: v for s, v in dense.items() if v}


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
        wbad = WCoefficients(w.m, tuple(flipped.items()))
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
        WCoefficients(1, ((0, F(1)),))  # empty set in support
    with pytest.raises(ValueError):
        PartialFunction(2, ((0b01, F(1)), (0b01, F(2))))  # duplicate set
    with pytest.raises(ValueError):
        PartialFunction(2, ((0b01, F(-1)),))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TotalSetFunction(0, (F(0),)), "m must be a positive int, got 0"),
        (lambda: TotalSetFunction(2, (F(0), F(1))), "need 4 values, got 2"),
        (lambda: TotalSetFunction(2, (F(0),) * 5), "need 4 values, got 5"),
        # past 64 bits the count is written as a power
        (lambda: TotalSetFunction(64, ()), "need 18446744073709551616 values, got 0"),
        (lambda: TotalSetFunction(65, ()), "need 2^65 values, got 0"),
        # and never built: at m = 10**9 it would be a 125 MB int
        (lambda: TotalSetFunction(10 ** 9, ()), "need 2^1000000000 values, got 0"),
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
        # a table's checks run in order: types, then f(empty), then the first negative mask
        (lambda: TotalSetFunction(2, (F(1), 0, 0, 1.5)),
         "set function value must be an int or Fraction, got float"),
        (lambda: TotalSetFunction(2, (0, True, 1, 1)),
         "set function value must be an int or Fraction, got bool"),
        (lambda: TotalSetFunction(2, (-1, 1, -1, 1)),
         "f(empty set) must be 0 for coverage candidacy"),
        (lambda: TotalSetFunction(2, (0, 1, F(-1, 2), -1)), "negative value at mask 2"),
    ],
)
def test_constructor_refusals_keep_their_text(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


exact_values = st.one_of(st.integers(0, 20), st.builds(F, st.integers(0, 20), st.integers(1, 6)))


@st.composite
def value_tables(draw):
    """m <= 6 and a value for every mask, f(empty) = 0; ints and Fractions mixed."""
    m = draw(st.integers(1, 6))
    size = (1 << m) - 1
    return m, [0] + draw(st.lists(exact_values, min_size=size, max_size=size))


INTEGER_FORM = settings(max_examples=60, deadline=None, database=None)


@INTEGER_FORM
@given(value_tables())
@example((2, [0, F(1, 2), F(1, 3), 1]))
def test_stored_integers_are_the_values_over_their_least_common_denominator(table):
    m, values = table
    f = TotalSetFunction(m, values)
    assert f.m == m and len(f.numerators) == 1 << m
    assert all(type(n) is int for n in f.numerators) and type(f.scale) is int
    assert f.values == tuple(F(v) for v in values)
    for s in range(1 << m):
        assert F(f.numerators[s], f.scale) == f.values[s]
    assert f.scale == math.lcm(*(F(v).denominator for v in values))
    # the same function from Fractions only, and with every whole value an int
    for twin in ([F(v) for v in values], [int(v) if F(v).denominator == 1 else v for v in values]):
        other = TotalSetFunction(m, twin)
        assert other == f and hash(other) == hash(f)
        assert (other.numerators, other.scale) == (f.numerators, f.scale)


@INTEGER_FORM
@given(value_tables(), st.data())
def test_replacing_pickling_and_copying_a_stored_table_run_the_checks(table, data):
    m, values = table
    f = TotalSetFunction(m, values)
    mask = data.draw(st.integers(1, (1 << m) - 1))
    negative = f.numerators[:mask] + (-1,) + f.numerators[mask + 1:]
    message = f"^negative value at mask {mask}$"
    with pytest.raises(ValueError, match=message):
        f._replace(numerators=negative)
    with pytest.raises(ValueError, match="^scale must be a positive int, got 0$"):
        f._replace(scale=0)
    assert f._replace(scale=2 * f.scale).values == tuple(F(v) / 2 for v in values)
    # a stored form no constructor would return: every way of copying it refuses
    forged = tuple.__new__(TotalSetFunction, (m, negative, f.scale))
    for clone in (lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy):
        assert clone(f) == f
        with pytest.raises(ValueError, match=message):
            clone(forged)


@st.composite
def coverage_tables(draw):
    """m <= 6 and the table of positive W-coefficients on a few masks: a coverage function."""
    m = draw(st.integers(1, 6))
    masks = draw(st.lists(st.integers(1, (1 << m) - 1), max_size=6, unique=True))
    weights = draw(st.lists(st.builds(F, st.integers(1, 9), st.integers(1, 4)),
                            min_size=len(masks), max_size=len(masks)))
    w = WCoefficients(m, tuple(zip(masks, weights)))
    return m, [eval_from_w(w, mask) for mask in range(1 << m)]


@INTEGER_FORM
@given(st.one_of(value_tables(), coverage_tables()))
@example((2, [0, 1, 1, 3]))  # w({1, 2}) = -1
@example((3, [0] * 8))  # no coefficient at all
def test_is_coverage_gives_the_verdict_of_the_transforms_support(table):
    m, values = table
    f = TotalSetFunction(m, values)
    w = w_transform(f)
    assert is_coverage(f) == coverage_check(w.support)
    # built without the constructor's checks, yet equal to what they return
    assert type(w) is WCoefficients and w == WCoefficients(m, w.support)
    assert all(type(mask) is int and type(weight) is F for mask, weight in w.support)


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
