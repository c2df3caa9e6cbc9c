"""Set functions over a ground set [m], their W-transform, and the coverage test.

Subsets of [m] are plain Python ints used as bitmasks: bit j-1 stands for
element j, so elements are 1-based externally and the full ground set is
(1 << m) - 1. A total set function is a table of 2^m exact rationals
indexed by mask. Its W-transform assigns to every nonempty S the signed
sum

    w(S) = sum over T with S u T = [m] of (-1)^(|S and T| + 1) f(T),

and f is recovered from the coefficients by

    f(T) = sum over S with S and T nonempty of w(S).

A set function is a coverage function exactly when all its W-coefficients
are nonnegative; the positive coefficients then play the role of weighted
universe elements, so the support size is the universe size.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import CapExceededError

#: Exhaustive operations over 2^[m] refuse to run past this many elements.
DEFAULT_ENUMERATION_CAP = 24

Mask = int
ExactLike = Union[int, Fraction]

_ZERO = Fraction(0)
_checked_make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs __new__'s checks


def require_enumerable(
    size: int, cap: int = DEFAULT_ENUMERATION_CAP, what: str = "ground set size"
) -> None:
    """Refuse an exhaustive pass over 2^size subsets when size exceeds cap."""
    if size > cap:
        raise CapExceededError(f"{what} {size} exceeds enumeration cap {cap}")


def _is_int(x) -> bool:
    """An int that is not a bool: JSON true/false parse to bools, which are ints too."""
    return isinstance(x, int) and not isinstance(x, bool)


def _require_positive_int(x, what: str) -> None:
    if not _is_int(x) or x < 1:
        raise ValueError(f"{what} must be a positive int, got {x!r}")


def _table_size_mismatch(count: int, m: int) -> Optional[str]:
    """2^m as text when count is not 2^m, else None; a huge m never builds 2^m."""
    if count.bit_length() == m + 1 and count == 1 << m:
        return None
    return str(1 << m) if m <= 64 else f"2^{m}"


def mask_from_elements(elements: Iterable[int], m: int) -> Mask:
    """Bitmask of distinct 1-based element labels."""
    mask = 0
    for e in elements:
        if not _is_int(e) or not (1 <= e <= m):
            raise ValueError(f"element {e!r} outside 1..{m}")
        bit = 1 << (e - 1)
        if mask & bit:
            raise ValueError(f"duplicate element {e}")
        mask |= bit
    return mask


def mask_to_elements(mask: Mask) -> list[int]:
    """Sorted 1-based element labels of a bitmask, in Python time per element, not per bit."""
    bits = bin(mask)
    end = len(bits)  # the lowest bit sits at bits[end - 1]
    labels = []
    j = bits.rfind("1", 2)  # str.rfind skips the zero bits in C; 2 skips the "0b"
    while j >= 0:
        labels.append(end - j)
        j = bits.rfind("1", 2, j)
    return labels


def _coerce_value(v: ExactLike, what: str, error: type[ValueError] = ValueError) -> Fraction:
    """Coerce to Fraction; floats and bools are rejected, exactness is the contract."""
    if isinstance(v, Fraction):
        return v
    if _is_int(v):
        return Fraction(v)
    raise error(f"{what} must be an int or Fraction, got {type(v).__name__}")


class TotalSetFunction(NamedTuple("TotalSetFunction", [("m", int),
                                                       ("values", tuple[Fraction, ...])])):
    """A nonnegative set function given on all 2^m subsets, with f(empty) = 0.

    The empty-set value is pinned to zero at construction: the inverse
    W-transform always produces 0 there, so any other value could never be
    consistent and would poison the transform silently.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, m, values):  # values[mask] is f(mask)
        _require_positive_int(m, "m")
        need = _table_size_mismatch(len(values), m)
        if need:
            raise ValueError(f"need {need} values, got {len(values)}")
        values = tuple(_coerce_value(v, "set function value") for v in values)
        if values[0] != 0:
            raise ValueError("f(empty set) must be 0 for coverage candidacy")
        for mask, v in enumerate(values):
            if v < 0:
                raise ValueError(f"negative value at mask {mask}")
        return super().__new__(cls, m, values)


class WCoefficients(NamedTuple("WCoefficients", [("m", int),
                                                 ("support", tuple[tuple[Mask, Fraction], ...])])):
    """Sparse W-coefficients: nonzero weights on nonempty subsets of [m].

    Stored sorted by mask so equal coefficient sets compare equal. All
    stored weights are nonzero; nonnegativity is what coverage validity
    adds on top (see is_coverage).
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, m, support):
        _require_positive_int(m, "m")
        items = []
        seen = set()
        for mask, weight in support:
            if not (_is_int(mask) and mask > 0 and mask.bit_length() <= m):
                raise ValueError(f"support mask {mask} not a nonempty subset of [{m}]")
            if mask in seen:
                raise ValueError(f"duplicate support mask {mask}")
            seen.add(mask)
            w = _coerce_value(weight, "weight")
            if w != 0:
                items.append((mask, w))
        return super().__new__(cls, m, tuple(sorted(items)))


class PartialFunction(NamedTuple("PartialFunction", [("m", int),
                                                     ("points", tuple[tuple[Mask, Fraction], ...])])):
    """The input data: distinct nonempty defined sets T_i with values f_i >= 0.

    Point order is preserved; certificates and dual vectors index into it.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, m, points):
        _require_positive_int(m, "m")
        if not points:
            raise ValueError("a partial function needs at least one point")
        seen = set()
        norm = []
        for mask, value in points:
            if not (_is_int(mask) and mask > 0 and mask.bit_length() <= m):
                raise ValueError(f"defined set mask {mask} not a nonempty subset of [{m}]")
            if mask in seen:
                raise ValueError(f"duplicate defined set {mask_to_elements(mask)}")
            seen.add(mask)
            v = _coerce_value(value, "point value")
            if v < 0:
                raise ValueError(f"negative value at set {mask_to_elements(mask)}")
            norm.append((mask, v))
        return super().__new__(cls, m, tuple(norm))

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def d(self) -> int:
        return max(mask.bit_count() for mask, _ in self.points)

    @property
    def total_value(self) -> Fraction:
        return sum((v for _, v in self.points), _ZERO)

    def masks(self) -> tuple[Mask, ...]:
        return tuple(mask for mask, _ in self.points)


# --- transforms --------------------------------------------------------------


def _scaled(values: Sequence[ExactLike]) -> tuple[list[int], int]:
    """Numerators over the least common denominator, and that denominator."""
    pairs = [v.as_integer_ratio() for v in values]
    scale = math.lcm(*{q for _, q in pairs})
    return [p * (scale // q) for p, q in pairs], scale


def _subset_pass(table: list[int], m: int, sign: int) -> None:
    """In place: table[S] becomes the sum of sign^|S - R| * table[R] over R subset of S.

    sign +1 is the zeta (subset-sum) transform and -1 its Mobius inverse.
    The masks holding bit b form b strided runs or 2^m / 2b contiguous
    ones; taking the fewer keeps the slice count near 2^(m/2).
    """
    combine = operator.add if sign > 0 else operator.sub
    size = 1 << m
    for i in range(m):
        bit = 1 << i
        step = bit << 1
        if bit * step <= size:
            for hi in range(bit, step):
                table[hi::step] = list(map(combine, table[hi::step], table[hi - bit::step]))
        else:
            for hi in range(bit, size, step):
                table[hi:hi + bit] = map(combine, table[hi:hi + bit], table[hi - bit:hi])


def _scaled_weights(sets: Sequence[Mask], weights: Sequence[ExactLike]) -> tuple[list[int], int]:
    """One exact weight per set, as integers over their least common denominator."""
    if len(sets) != len(weights):
        raise ValueError(f"{len(sets)} sets but {len(weights)} weights")
    return _scaled([_coerce_value(w, "weight") for w in weights])


def span_sums(
    m: int, sets: Sequence[Mask], weights: Sequence[ExactLike]
) -> tuple[list[int], int]:
    """Span sums of every subset of [m], as integers over a common scale.

    sums[S] / scale is the total weight of the sets meeting S, for every
    mask S (sums[0] is 0). Repeated sets add up. A set misses S exactly
    when it lies inside the complement full ^ S, so span(S) is the total
    minus sub(full ^ S), the weight of the sets inside it. One zeta pass
    over the negated weights, with the total placed on the empty mask,
    leaves total - sub(X) at every X; since full ^ S == full - S,
    reversing the list in place moves span(S) to S.
    """
    ints, scale = _scaled_weights(sets, weights)
    table = [0] * (1 << m)
    table[0] = sum(ints)
    for mask, w in zip(sets, ints):
        table[mask] -= w
    _subset_pass(table, m, 1)
    table.reverse()
    return table, scale


def cheapest_unions(parts: Iterable[tuple[Mask, ExactLike]]) -> dict[Mask, ExactLike]:
    """Least total cost of every union of some of the parts (costs >= 0), by mask.

    The exact 0/1 DP behind the LP columns, the span-sign test and the
    exact kappa; it stores only the unions that occur.
    """
    cheapest = {0: 0}
    for part, cost in parts:
        if not part:  # grows no union, and a cost >= 0 lowers none
            continue
        for union, total in list(cheapest.items()):
            grown, total = union | part, total + cost
            known = cheapest.get(grown)
            if known is None or total < known:
                cheapest[grown] = total
    return cheapest


def hit_patterns(m: int, sets: Sequence[Mask]) -> list[Mask]:
    """hit[j] for j < m: the sets holding element j + 1, as a mask (bit i: sets[i])."""
    return [sum(1 << i for i, t in enumerate(sets) if t >> j & 1) for j in range(m)]


def _smallest_sets(m: int, sets: Sequence[Mask]) -> dict[Mask, Mask]:
    """The smallest S of every hit pattern, by pattern (bit i: S meets sets[i]).

    With hit[j] the sets holding element j, the pattern of S is the union
    of hit[j] over its elements and S is the sum of their 2^j, so
    cheapest_unions over the parts (hit[j], 2^j) gives each pattern its
    smallest set. The patterns are the OR-closure of the hit[j], at most
    2^min(m, n) of them; the empty pattern maps to the empty set.
    """
    return cheapest_unions((hit, 1 << j) for j, hit in enumerate(hit_patterns(m, sets)))


def span_violation(m: int, sets: Sequence[Mask], weights: Sequence[ExactLike]) -> Optional[Mask]:
    """The smallest S with a positive span sum, or None when every span sum is <= 0.

    The one span-sign test on point families: certificates, rounded norm
    duals and the tight-family validation run it. S enters its span sum
    only through its hit pattern, and the patterns of the nonempty S are
    the nonzero members of the pattern closure (the empty pattern sums to
    0). So each pattern is priced once, and the least S with a positive
    sum is the smallest representative among the positive patterns.

    A pattern's price is the total of its sets' weights, scaled to
    integers and read from one subset-sum table per byte of set indices:
    about n/8 lookups. The cost is O(m * closure + closure * n/8) steps
    and O(closure + 32n) memory, not a 2^m table. A family whose closure
    comes close to 2^m pays more than a table scan would (all singletons
    at m = 18 peak at 45 MB traced against 12.7 MB, in about the same
    time), but decide_extension's program over that same closure costs
    far more.

    Like the other kernels it does not gate m: its callers refuse an
    oversized m before they call it.
    """
    ints, _ = _scaled_weights(sets, weights)
    smallest = _smallest_sets(m, sets)
    sums = [0] * len(smallest)
    for start in range(0, len(ints), 8):
        table = [0]  # table[x]: the total weight of the sets start + i for the bits i of x
        for w in ints[start:start + 8]:
            table += [t + w for t in table]
        sums = [total + table[p >> start & 255] for total, p in zip(sums, smallest)]
    return min(itertools.compress(smallest.values(), [total > 0 for total in sums]), default=None)


def span_columns(m: int, points: Sequence[Mask]) -> list[tuple[Mask, Mask]]:
    """One LP column per distinct hit pattern: (smallest set, pattern) pairs, ascending.

    Bit i of a pattern is set exactly when its sets meet points[i]. A set
    S enters the extension, stretch and norm programs only through the
    points it meets, so sets with the same pattern are the same column,
    and _smallest_sets gives each pattern its smallest set in time and
    memory that follow the number of patterns, not 2^m. The empty pattern
    is left out: a set meeting no point is an all-zero column.

    Keeping only the smallest copy changes no simplex outcome: copies keep
    equal reduced costs and tableau entries under every pivot, so they tie
    under both Dantzig's and Bland's entering rule, ties go to the smallest
    index, and the smallest copy is the one that enters; a zero column
    never enters.
    """
    return sorted((s, pattern) for pattern, s in _smallest_sets(m, points).items() if pattern)


def span_rows(columns: Iterable[tuple[Mask, Mask]], points: Sequence[tuple[Mask, ExactLike]],
              relation: str) -> tuple[list[tuple], int]:
    """Rows over (set, pattern) columns in LinearProgram's stored form, and their scale S.

    Row i puts S on every column whose pattern holds bit i (whose sets
    meet point i), and S * value_i, with relation, on the right; S is the
    least common denominator of the values.
    """
    patterns = [p for _, p in columns]
    nums, scale = _scaled([v for _, v in points])
    spans = [tuple(itertools.compress(range(len(patterns)), map((1 << i).__and__, patterns)))
             for i in range(len(nums))]
    return [(idx, (scale,) * len(idx), relation, rhs) for idx, rhs in zip(spans, nums)], scale


def _w_values(table: list[int], scale: int, m: int) -> list[tuple[Mask, Fraction]]:
    """All nonzero W-coefficients of a value table given as integers over scale.

    table[T] / scale is f(T); the table is consumed (reversed and
    transformed in place). Rearranging the defining sum: the T with
    S u T = [m] are exactly (complement of S) u R over R subset of S, so
    w(S) is an inclusion-exclusion over the complement table, which one
    in-place subset (Mobius) pass computes for all S in m * 2^m steps.
    """
    table.reverse()  # table[S] = f(full ^ S) * scale
    _subset_pass(table, m, -1)
    return [(mask, Fraction(-table[mask], scale)) for mask in range(1, 1 << m) if table[mask]]


def w_transform(f: TotalSetFunction, cap: int = DEFAULT_ENUMERATION_CAP) -> WCoefficients:
    """W-coefficients of f; zero coefficients are omitted from the support."""
    require_enumerable(f.m, cap)
    return WCoefficients(f.m, tuple(_w_values(*_scaled(f.values), f.m)))


def eval_from_w(w: WCoefficients, subset: Mask) -> Fraction:
    """Recovered function value: total weight on sets meeting the subset, over one denominator."""
    nums, scale = _scaled([weight for mask, weight in w.support if mask & subset])
    return Fraction(sum(nums), scale)


class CoverageCheck(NamedTuple):
    is_coverage: bool
    violating_set: Optional[Mask] = None
    coefficient: Optional[Fraction] = None


def is_coverage(f: TotalSetFunction, cap: int = DEFAULT_ENUMERATION_CAP) -> CoverageCheck:
    """Coverage iff every W-coefficient is nonnegative.

    On failure reports the smallest violating mask (fixed ascending order,
    so reruns and tests see the same witness).
    """
    require_enumerable(f.m, cap)
    return coverage_check(_w_values(*_scaled(f.values), f.m))


def coverage_check(support: Iterable[tuple[Mask, Fraction]]) -> CoverageCheck:
    """The coverage verdict of W-coefficients given in ascending mask order.

    The first negative weight is the witness, so a caller holding the
    coefficients (a WCoefficients support, say) needs no second transform.
    """
    for mask, weight in support:
        if weight < 0:
            return CoverageCheck(False, mask, weight)
    return CoverageCheck(True)

