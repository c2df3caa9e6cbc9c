"""Set functions over a ground set [m], their W-transform, and the coverage test.

Subsets of [m] are plain Python ints used as bitmasks: bit j-1 stands for
element j, so elements are 1-based externally and the full ground set is
(1 << m) - 1. A total set function is a table of 2^m exact rationals
indexed by mask, stored as integer numerators over one common scale so
that the transforms below run on it without rescaling. Its W-transform
assigns to every nonempty S the signed sum

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
import sys
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

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
                                                       ("numerators", tuple[int, ...]),
                                                       ("scale", int)])):
    """A nonnegative set function given on all 2^m subsets, with f(empty) = 0.

    Built from its values and stored once in integer form: f(mask) is
    numerators[mask] / scale, with scale the least common denominator of
    the values, so equal functions store equal fields. The empty-set value
    is pinned to zero at construction: the inverse W-transform always
    produces 0 there, so any other value could never be consistent and
    would poison the transform silently.
    """

    __slots__ = ()

    def __new__(cls, m, values):  # values[mask] is f(mask)
        _require_positive_int(m, "m")
        need = _table_size_mismatch(len(values), m)
        if need:
            raise ValueError(f"need {need} values, got {len(values)}")
        kinds = set(map(type, values))
        if not kinds <= {int, Fraction}:  # names the first inexact value; subclasses pass
            for v in values:
                _coerce_value(v, "set function value")
        numerators, scale = (values, 1) if kinds == {int} else _scaled(values)
        if numerators[0]:
            raise ValueError("f(empty set) must be 0 for coverage candidacy")
        if min(numerators) < 0:
            first = next(mask for mask, n in enumerate(numerators) if n < 0)
            raise ValueError(f"negative value at mask {first}")
        return super().__new__(cls, m, tuple(numerators), scale)

    @classmethod
    def _make(cls, fields):  # _replace and copy.replace pass the stored fields
        m, numerators, scale = fields
        _require_positive_int(scale, "scale")
        return cls(m, [_coerce_value(n, "set function value") / scale for n in numerators])

    def __getnewargs__(self):  # pickle and copy rebuild through __new__'s checks
        return self.m, self.values

    @property
    def values(self) -> tuple[Fraction, ...]:
        """f(mask) for every mask, as Fractions rebuilt from the stored integers."""
        return tuple(Fraction(n, self.scale) for n in self.numerators)


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


def _subset_pass(table: Sequence[int], m: int, sign: int, nonnegative: bool = False) -> list[int]:
    """A new list holding, at every S, the sum of sign^|S - R| * table[R] over R subset of S.

    sign +1 is the zeta (subset-sum) transform and -1 its Mobius inverse.
    A caller whose table is known to hold no negative entry says so with
    nonnegative, and max|v| is then max(table), found in one scan.
    No sum exceeds max|v| * 2^m in size, so the table packs into one int,
    entry S in the lane at bit S * bits, with lanes of the smallest of 1,
    2, 4 or 8 bytes that hold (max|v|).bit_length() + m + 1 bits. A lane
    holds its entry plus 2^(bits - 1) (its top bit flipped), so none goes
    negative and no borrow or carry crosses lanes. Each bit i, highest
    first, is then one shift, mask and add over all lanes: every lane S
    in held (the masks holding bit i, got from the previous bit's by one
    shift) adds sign * lane S - 2^i and drops the second excess.

    Values too wide for 8-byte lanes run the slice loop instead, as do
    big-endian hosts (their arrays order a lane's bytes the other way):
    the masks holding bit b form b strided runs or 2^m / 2b contiguous
    ones; taking the fewer keeps the slice count near 2^(m/2).
    """
    from array import array  # here: a module-level import would slow every CLI start

    peak = max(table) if nonnegative else max(max(table), -min(table))
    width = (peak.bit_length() + m + 8) // 8  # bytes for peak * 2^m and a sign bit
    code = next((c for c in "bhiq" if array(c).itemsize >= width), None)
    if code is not None and sys.byteorder == "little":  # lane S must sit at bit S * bits
        bits = 8 * array(code).itemsize
        top = int.from_bytes((bytes(bits // 8 - 1) + b"\x80") * len(table), "little")
        # the array lives only until x holds the table; kept, it would raise the peak
        x = int.from_bytes(array(code, table).tobytes(), "little") ^ top
        held = (1 << bits * len(table)) - 1  # every lane; then those holding bit i
        for i in reversed(range(m)):
            s = bits << i
            held ^= held >> s
            if sign > 0:
                x = x + ((x << s) & held) - (top & held)
            else:
                x = x - ((x << s) & held) + (top & held)
        return array(code, (x ^ top).to_bytes(len(table) * bits // 8, "little")).tolist()
    table = list(table)
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
    return table


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
    if len(sets) != len(weights):
        raise ValueError(f"{len(sets)} sets but {len(weights)} weights")
    ints, scale = _scaled([_coerce_value(w, "weight") for w in weights])
    table = [0] * (1 << m)
    table[0] = sum(ints)
    for mask, w in zip(sets, ints):
        table[mask] -= w
    table = _subset_pass(table, m, 1)
    table.reverse()
    return table, scale


def cheapest_unions(parts: Iterable[tuple[Mask, ExactLike]],
                    keep: Mask = -1) -> dict[Mask, ExactLike]:
    """Least total cost of every union of some of the parts (costs >= 0), by mask.

    The exact 0/1 DP behind the LP columns, the span-sign test and the
    exact kappa; it stores only the unions that occur. A part grows a
    union only when it adds a bit of keep that the union lacks. With keep
    every bit (the default) that skips only a part inside its union,
    which a cost >= 0 never makes cheaper, so the table is that of every
    union; a narrower keep leaves out the unions that no chain of parts,
    each adding a new bit of keep, reaches.
    """
    cheapest = {0: 0}
    for part, cost in parts:
        new = part & keep
        if not new:  # grows no union
            continue
        for union, total in list(cheapest.items()):
            if new & ~union:
                grown, total = union | part, total + cost
                known = cheapest.get(grown)
                if known is None or total < known:
                    cheapest[grown] = total
    return cheapest


def hit_patterns(m: int, sets: Sequence[Mask]) -> list[Mask]:
    """hit[j] for j < m: the sets holding element j + 1, as a mask (bit i: sets[i])."""
    hit = [0] * m
    for i, t in enumerate(sets):
        t &= (1 << m) - 1
        while t:  # one step per element of the set, not per bit below its highest
            low = t & -t
            hit[low.bit_length() - 1] |= 1 << i
            t ^= low
    return hit


def span_columns(m: int, points: Sequence[Mask]) -> list[tuple[Mask, Mask]]:
    """One LP column per distinct hit pattern: (smallest set, pattern) pairs, ascending.

    Bit i of a pattern is set exactly when its sets meet points[i]. A set
    S enters the programs and its span sums only through the points it
    meets, so sets with the same pattern are the same column. With hit[j]
    the points holding element j, the pattern of S is the union of hit[j]
    over its elements and S is the sum of their 2^j, so cheapest_unions
    over the parts (hit[j], 2^j) gives each pattern its smallest set in
    O(m * closure) steps, the closure being at most 2^min(m, n) patterns.
    The empty pattern is left out: a set meeting no point is an all-zero
    column. This is the whole closure, which an instance's programs and
    its certificate check read as one list.

    Keeping only the smallest copy changes no simplex outcome: copies keep
    equal reduced costs and tableau entries under every pivot, so they tie
    under both Dantzig's and Bland's entering rule, ties go to the smallest
    index, and the smallest copy is the one that enters; a zero column
    never enters.
    """
    return _span_closure(m, points, -1)


def _span_closure(m: int, points: Sequence[Mask], keep: Mask) -> list[tuple[Mask, Mask]]:
    """The span_columns of the sets grown one element at a time, each meeting a new point of keep.

    keep, a mask over the points, is every point for span_columns; each
    pattern is listed once, with its smallest set so grown, ascending.
    """
    parts = ((hit, 1 << j) for j, hit in enumerate(hit_patterns(m, points)))
    smallest = cheapest_unions(parts, keep)
    # ascending with no sort: part j costs more than all earlier parts together, so
    # each union enters at its least cost and in order of it; the first is empty
    return list(zip(smallest.values(), smallest))[1:]


def span_violation(m: int, points: Sequence[Mask],
                   weights: Sequence[ExactLike]) -> Optional[Mask]:
    """The smallest nonempty S with a positive span sum, or None when none has one.

    The one standalone span-sign test on point families: certificates,
    rounded norm duals and the tight-family validation call it with
    weights[i] on points[i]. The weights become integers once; the
    points of positive weight are the keep of a pruned closure, whose
    columns are then priced.

    The pruning loses no answer. Call a set irredundant when each of its
    elements meets a positive point that no other element meets.
    Dropping an element without such a private point keeps every
    positive point met and can only unmeet negative ones, so it lowers
    no span sum and gives a smaller set; hence the smallest S with a
    positive span sum is irredundant. Taken in ascending order, each of
    its elements adds its private positive point, so the pruned closure
    holds S's pattern, at a set no larger than S, with the same sum, and
    so at S itself. Every pruned column is a real set with its real sum,
    the pruned list ascends too, and no positive column comes before S;
    with no positive S, none is positive.
    """
    if len(points) != len(weights):  # an unpaired weight would go unpriced
        raise ValueError(f"{len(points)} points but {len(weights)} weights")
    ints, _ = _scaled([_coerce_value(w, "weight") for w in weights])
    keep = sum(1 << i for i, w in enumerate(ints) if w > 0)
    return _first_positive(_span_closure(m, points, keep), ints)


def _first_positive(columns: Sequence[tuple[Mask, Mask]], ints: Sequence[int]) -> Optional[Mask]:
    """The set of the first column whose points' integer weights sum above 0, or None.

    A nonempty S has a column's pattern or the empty one (which sums to
    0), and the columns ascend by smallest set, so over span_columns the
    first positive column names the smallest S with a positive span sum;
    a decision prices the columns its program was built over this way.

    A pattern's price is read from one subset-sum table per byte of point
    indices: about n/8 lookups, O(closure * n/8) steps and O(closure +
    32n) memory against a closure the instance built once. A closure
    near 2^m costs more than a table scan would, but decide_extension's
    program over the same closure costs far more.
    """
    sums = [0] * len(columns)
    for start in range(0, len(ints), 8):
        table = [0]  # table[x]: the total weight of the points start + i for the bits i of x
        for w in ints[start:start + 8]:
            table += [t + w for t in table]
        sums = [total + table[p >> start & 255] for total, (_, p) in zip(sums, columns)]
    return next((s for (s, _), total in zip(columns, sums) if total > 0), None)


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


def _w_values(f: TotalSetFunction) -> Iterator[tuple[Mask, int]]:
    """(S, -w(S) * f.scale) for every S with w(S) nonzero, ascending, from one Mobius pass.

    Rearranging the defining sum: the T with S u T = [m] are exactly
    (complement of S) u R over R subset of S, so w(S) is an
    inclusion-exclusion over the complement table, the numerators
    reversed, which one subset (Mobius) pass computes for all S in
    m * 2^m steps.
    """
    # [S] = f(full ^ S) * scale; the constructor refused negative values
    table = _subset_pass(f.numerators[::-1], f.m, -1, nonnegative=True)
    nonzero = table[1:]
    return zip(itertools.compress(range(1, 1 << f.m), nonzero), filter(None, nonzero))


def w_transform(f: TotalSetFunction, cap: int = DEFAULT_ENUMERATION_CAP) -> WCoefficients:
    """W-coefficients of f; zero coefficients are omitted from the support."""
    require_enumerable(f.m, cap)
    support = tuple((mask, Fraction(-t, f.scale)) for mask, t in _w_values(f))
    return tuple.__new__(WCoefficients, (f.m, support))  # sorted, nonzero and in range already


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
    # one Fraction, for the first violation: w(S) < 0 exactly where t > 0
    return coverage_check((mask, Fraction(-t, f.scale)) for mask, t in _w_values(f) if t > 0)


def coverage_check(support: Iterable[tuple[Mask, Fraction]]) -> CoverageCheck:
    """The coverage verdict of W-coefficients given in ascending mask order.

    The first negative weight is the witness, so a caller holding the
    coefficients (a WCoefficients support, say) needs no second transform.
    """
    for mask, weight in support:
        if weight < 0:
            return CoverageCheck(False, mask, weight)
    return CoverageCheck(True)

