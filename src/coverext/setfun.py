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

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import CapExceededError

#: Exhaustive operations over 2^[m] refuse to run past this many elements.
DEFAULT_ENUMERATION_CAP = 24

Mask = int
ExactLike = Union[int, Fraction]

_ZERO = Fraction(0)


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
    """Sorted 1-based element labels of a bitmask, in time linear in its bit length."""
    bits = bin(mask)[:1:-1]  # lowest bit first, without the "0b"
    return [j for j, bit in enumerate(bits, 1) if bit == "1"]


def _coerce_value(v: ExactLike, what: str, error: type[ValueError] = ValueError) -> Fraction:
    """Coerce to Fraction; floats and bools are rejected, exactness is the contract."""
    if isinstance(v, Fraction):
        return v
    if _is_int(v):
        return Fraction(v)
    raise error(f"{what} must be an int or Fraction, got {type(v).__name__}")


@dataclass(frozen=True)
class TotalSetFunction:
    """A nonnegative set function given on all 2^m subsets, with f(empty) = 0.

    The empty-set value is pinned to zero at construction: the inverse
    W-transform always produces 0 there, so any other value could never be
    consistent and would poison the transform silently.
    """

    m: int
    values: tuple[Fraction, ...]  # indexed by mask

    def __post_init__(self):
        _require_positive_int(self.m, "m")
        if len(self.values) != (1 << self.m):
            raise ValueError(f"need {1 << self.m} values, got {len(self.values)}")
        vals = tuple(_coerce_value(v, "set function value") for v in self.values)
        object.__setattr__(self, "values", vals)
        if vals[0] != 0:
            raise ValueError("f(empty set) must be 0 for coverage candidacy")
        for mask, v in enumerate(vals):
            if v < 0:
                raise ValueError(f"negative value at mask {mask}")


@dataclass(frozen=True)
class WCoefficients:
    """Sparse W-coefficients: nonzero weights on nonempty subsets of [m].

    Stored sorted by mask so equal coefficient sets compare equal. All
    stored weights are nonzero; nonnegativity is what coverage validity
    adds on top (see is_coverage).
    """

    m: int
    support: tuple[tuple[Mask, Fraction], ...]

    def __post_init__(self):
        _require_positive_int(self.m, "m")
        items = []
        seen = set()
        for mask, weight in self.support:
            if not (_is_int(mask) and mask > 0 and mask.bit_length() <= self.m):
                raise ValueError(f"support mask {mask} not a nonempty subset of [{self.m}]")
            if mask in seen:
                raise ValueError(f"duplicate support mask {mask}")
            seen.add(mask)
            w = _coerce_value(weight, "weight")
            if w != 0:
                items.append((mask, w))
        object.__setattr__(self, "support", tuple(sorted(items)))

    @classmethod
    def from_dict(cls, m: int, mapping: Mapping[Mask, ExactLike]) -> "WCoefficients":
        return cls(m, tuple(mapping.items()))

    def as_dict(self) -> dict[Mask, Fraction]:
        return dict(self.support)

    @property
    def support_size(self) -> int:
        return len(self.support)

    @property
    def is_nonnegative(self) -> bool:
        return all(w >= 0 for _, w in self.support)


@dataclass(frozen=True)
class PartialFunction:
    """The input data: distinct nonempty defined sets T_i with values f_i >= 0.

    Point order is preserved; certificates and dual vectors index into it.
    """

    m: int
    points: tuple[tuple[Mask, Fraction], ...]

    def __post_init__(self):
        _require_positive_int(self.m, "m")
        if not self.points:
            raise ValueError("a partial function needs at least one point")
        seen = set()
        norm = []
        for mask, value in self.points:
            if not (_is_int(mask) and mask > 0 and mask.bit_length() <= self.m):
                raise ValueError(f"defined set mask {mask} not a nonempty subset of [{self.m}]")
            if mask in seen:
                raise ValueError(f"duplicate defined set {mask_to_elements(mask)}")
            seen.add(mask)
            v = _coerce_value(value, "point value")
            if v < 0:
                raise ValueError(f"negative value at set {mask_to_elements(mask)}")
            norm.append((mask, v))
        object.__setattr__(self, "points", tuple(norm))

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
    _subset_pass(table, m, 1)
    table.reverse()
    return table, scale


def span_violation(
    m: int, sets: Sequence[Mask], weights: Sequence[ExactLike], cap: int
) -> Optional[Mask]:
    """The smallest S with a positive span sum, or None when every span sum is <= 0.

    The one span-polytope test: certificates, rounded norm duals, the
    tight-family validation and span membership all run it.
    """
    require_enumerable(m, cap)
    sums, _ = span_sums(m, sets, weights)
    if max(sums) <= 0:
        return None
    return next(s for s, value in enumerate(sums) if value > 0)


def span_columns(m: int, points: Sequence[Mask]) -> list[Mask]:
    """One LP column per distinct hit pattern: the smallest set of each, ascending.

    A set S enters the extension, stretch and norm programs only through
    the points it meets, so sets with the same pattern are the same
    column. With hit[j] the points holding element j, the pattern of S is
    that of S without its lowest element plus hit[lowest], one integer
    pass over 2^m masks. A set meeting no point is an all-zero column and
    is left out.

    Keeping only the smallest copy changes no simplex outcome: copies keep
    equal reduced costs and tableau entries under every pivot, so they tie
    under both Dantzig's and Bland's entering rule, ties go to the smallest
    index, and the smallest copy is the one that enters; a zero column
    never enters.
    """
    hit = [0] * m
    for i, point in enumerate(points):
        for j in range(m):
            if point >> j & 1:
                hit[j] |= 1 << i
    pat = [0] * (1 << m)
    seen = {0}
    columns = []
    for s in range(1, 1 << m):
        low = s & -s
        p = pat[s] = pat[s ^ low] | hit[low.bit_length() - 1]
        if p not in seen:
            seen.add(p)
            columns.append(s)
    return columns


def span_row(columns: Sequence[Mask], point: Mask) -> dict[int, int]:
    """LP row over set columns: coefficient 1 on every column whose set meets point.

    The extension, stretch and norm programs all price a defined set T_i
    this way; columns[c] is the set carried by variable c.
    """
    return {c: 1 for c, s in enumerate(columns) if s & point}


def _w_values(values: Sequence[Fraction], m: int) -> list[tuple[Mask, Fraction]]:
    """All nonzero W-coefficients of a full value table, exactly.

    Rearranging the defining sum: the T with S u T = [m] are exactly
    (complement of S) u R over R subset of S, so w(S) is an inclusion-
    exclusion over the complement table, which one in-place subset (Mobius)
    pass computes for all S in m * 2^m steps. Values are rescaled to
    integers first; Fraction arithmetic would dominate otherwise.
    """
    table, scale = _scaled(values)
    table.reverse()  # table[S] = values[full ^ S]
    _subset_pass(table, m, -1)
    return [(mask, Fraction(-table[mask], scale)) for mask in range(1, 1 << m) if table[mask]]


def w_transform(f: TotalSetFunction, cap: int = DEFAULT_ENUMERATION_CAP) -> WCoefficients:
    """W-coefficients of f; zero coefficients are omitted from the support."""
    require_enumerable(f.m, cap)
    return WCoefficients(f.m, tuple(_w_values(f.values, f.m)))


def eval_from_w(w: WCoefficients, subset: Mask) -> Fraction:
    """Recovered function value: total weight on sets meeting the subset."""
    return sum((weight for mask, weight in w.support if mask & subset), _ZERO)


@dataclass(frozen=True)
class CoverageCheck:
    is_coverage: bool
    violating_set: Optional[Mask] = None
    coefficient: Optional[Fraction] = None


def is_coverage(f: TotalSetFunction, cap: int = DEFAULT_ENUMERATION_CAP) -> CoverageCheck:
    """Coverage iff every W-coefficient is nonnegative.

    On failure reports the smallest violating mask (fixed ascending order,
    so reruns and tests see the same witness).
    """
    require_enumerable(f.m, cap)
    for mask, weight in _w_values(f.values, f.m):  # already sorted by mask
        if weight < 0:
            return CoverageCheck(False, mask, weight)
    return CoverageCheck(True)


def w_roundtrip_check(w: WCoefficients, cap: int = DEFAULT_ENUMERATION_CAP) -> bool:
    """True iff transforming the recovered table reproduces w exactly."""
    require_enumerable(w.m, cap)
    sums, scale = span_sums(w.m, [mask for mask, _ in w.support], [x for _, x in w.support])
    return tuple(_w_values([Fraction(v, scale) for v in sums], w.m)) == w.support
