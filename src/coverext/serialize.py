"""JSON forms for every artifact; rationals travel as strings, never floats.

Sets are sorted 1-based element lists, masks ascending, so emitted files
diff cleanly and re-parse to equal values.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from .errors import InstanceParseError
from .gadgets import Graph
from .setfun import (
    PartialFunction,
    TotalSetFunction,
    WCoefficients,
    _is_int,
    _table_size_mismatch,
    mask_from_elements,
    mask_to_elements,
)

if TYPE_CHECKING:  # result types appear in annotations only
    from .approx import AlphaBounds
    from .extension import ExtensionVerdict
    from .gadgets import MembershipInstance
    from .norm import NormResult

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")  # ASCII digits; \d takes any Unicode digit
_DEFAULT_DIGIT_LIMIT = getattr(sys.int_info, "default_max_str_digits", 4300)


def _int_text(n: int) -> str:
    """Decimal text of an int of any length.

    str() refuses ints past the interpreter's int-string limit (4300 digits
    by default, never under 640), so a long int is printed in halves of
    under 600 digits each.
    """
    if n < 0:
        return "-" + _int_text(-n)
    if n.bit_length() <= 1990:  # 2^1990 has 600 digits
        return str(n)
    half = n.bit_length() * 3 // 20  # about half the digit count: log10(2) = 0.301
    high, low = divmod(n, 10 ** half)
    return _int_text(high) + _int_text(low).zfill(half)


def format_rational(x) -> str:
    """A Fraction as "p" or "p/q" in lowest terms, at any length; math.inf as "inf"."""
    if x == math.inf:
        return "inf"
    text = _int_text(x.numerator)
    return text if x.denominator == 1 else f"{text}/{_int_text(x.denominator)}"


def parse_int(text: str, where: str = "integer") -> int:
    """int(text), refusing a digit run past the interpreter's int-string limit.

    The limit is Python's default of 4300 digits unless the interpreter's
    was changed; it is checked before converting, because converting takes
    time quadratic in the length. Refused text is an InstanceParseError.
    """
    if len(text) > 640:  # the least limit Python accepts: shorter text always converts
        get_limit = getattr(sys, "get_int_max_str_digits", None)
        limit = get_limit() if get_limit else _DEFAULT_DIGIT_LIMIT
        digits = len(text) - text.startswith(("+", "-"))
        if limit and digits > limit:
            raise InstanceParseError(f"{where}: {digits} digits exceed the limit of {limit}")
    return int(text)


def parse_rational(text, where: str = "value") -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise InstanceParseError(f"{where}: expected an integer or p/q string, got {text!r}")
    num, _, den = text.partition("/")
    numerator = parse_int(num, where)
    if not den:
        return Fraction(numerator)
    denominator = parse_int(den, where)
    if denominator == 0:
        raise InstanceParseError(f"{where}: zero denominator in {text!r}")
    return Fraction(numerator, denominator)


def _positive_int(data: Mapping, field: str) -> int:
    value = data.get(field)
    if not _is_int(value) or value < 1:
        raise InstanceParseError(f"field {field!r} must be a positive integer")
    return value


def _parse_set(entry, m: int, where: str) -> int:
    if not isinstance(entry, list):
        raise InstanceParseError(f"{where}: set must be a list of 1-based integers")
    try:
        return mask_from_elements(entry, m)
    except ValueError as exc:
        raise InstanceParseError(f"{where}: {exc}") from exc


def _read_entries(entries: list, m: int, name: str, key: str, nonempty: str = "",
                  cite_first: bool = False) -> Iterator[tuple[str, int, Fraction]]:
    """(location, mask, value) of each {"set": [...], key: "p/q"} entry, in input order.

    Locations read name[i]. A nonempty label ("defined", "coefficient")
    refuses the empty set; cite_first names the first copy of a repeated set.
    """
    first: dict[int, int] = {}
    for i, entry in enumerate(entries):
        where = f"{name}[{i}]"
        if not isinstance(entry, Mapping) or "set" not in entry or key not in entry:
            raise InstanceParseError(f"{where}: need 'set' and '{key}'")
        mask = _parse_set(entry["set"], m, where)
        if mask == 0 and nonempty:
            raise InstanceParseError(f"{where}: {nonempty} set must be nonempty")
        if mask in first:
            cited = f" {sorted(entry['set'])} (first at {name}[{first[mask]}])"
            raise InstanceParseError(f"{where}: duplicate set{cited if cite_first else ''}")
        first[mask] = i
        yield where, mask, parse_rational(entry[key], f"{where}.{key}")


# --- partial functions ---------------------------------------------------------


def partial_function_to_json(pf: PartialFunction) -> dict:
    return {
        "m": pf.m,
        "points": [
            {"set": mask_to_elements(mask), "value": format_rational(v)}
            for mask, v in pf.points
        ],
    }


def partial_function_from_json(data: Any) -> PartialFunction:
    if not isinstance(data, Mapping):
        raise InstanceParseError("instance file must be a JSON object")
    m = _positive_int(data, "m")
    points = data.get("points")
    if not isinstance(points, list) or not points:
        raise InstanceParseError("field 'points' must be a nonempty list")
    parsed = []
    entries = _read_entries(points, m, "points", "value", "defined", cite_first=True)
    for where, mask, value in entries:
        if value < 0:
            raise InstanceParseError(f"{where}: value must be nonnegative")
        parsed.append((mask, value))
    return PartialFunction(m, tuple(parsed))


def total_function_from_json(data: Any) -> TotalSetFunction:
    if not isinstance(data, Mapping):
        raise InstanceParseError("total function file must be a JSON object")
    m = _positive_int(data, "m")
    entries = data.get("values")
    if not isinstance(entries, list):
        raise InstanceParseError("field 'values' must be a list")
    table = {mask: value for _, mask, value in _read_entries(entries, m, "values", "value")}
    need = _table_size_mismatch(len(table), m)
    if need:
        raise InstanceParseError(
            f"total function on m={m} needs all {need} subsets, got {len(table)}")
    try:
        return TotalSetFunction(m, tuple(table[mask] for mask in range(1 << m)))
    except ValueError as exc:
        raise InstanceParseError(str(exc)) from exc


# --- coefficients and verdicts --------------------------------------------------


def wcoeffs_to_json(w: WCoefficients) -> list:
    return [
        {"set": mask_to_elements(mask), "weight": format_rational(value)}
        for mask, value in w.support
    ]


def wcoeffs_from_json(m: int, data: Any) -> WCoefficients:
    if not isinstance(data, list):
        raise InstanceParseError("coefficients must be a list")
    entries = _read_entries(data, m, "coefficients", "weight", "coefficient")
    return WCoefficients(m, tuple((mask, weight) for _, mask, weight in entries))


def verdict_to_json(verdict: ExtensionVerdict) -> dict:
    if verdict.extendible:
        return {"status": "extendible", "witness": wcoeffs_to_json(verdict.witness)}
    return {
        "status": "not_extendible",
        "certificate": [format_rational(l) for l in verdict.certificate],
    }


def alpha_bounds_to_json(bounds: AlphaBounds) -> dict:
    out = {
        "kappa": format_rational(bounds.kappa_estimate),
        "kappa_is_exact": bounds.kappa_is_exact,
        "lower": format_rational(bounds.lower),
        "upper": format_rational(bounds.upper),
        "degenerate": bounds.degenerate,
    }
    if bounds.alpha_star is not None:
        out["alpha_star"] = format_rational(bounds.alpha_star)
    return out


def norm_result_to_json(result: NormResult) -> dict:
    out = {
        "opt_restricted": format_rational(result.opt_restricted),
        "witness": wcoeffs_to_json(result.witness),
        "primal_errors": [format_rational(e) for e in result.primal_errors],
        "dual_restricted": [format_rational(y) for y in result.dual_restricted],
        "dual_rounded": [format_rational(y) for y in result.dual_rounded],
        "additive_bound": format_rational(result.additive_bound),
    }
    if result.opt_exact is not None:
        out["opt_exact"] = format_rational(result.opt_exact)
    return out


# --- graphs and membership -------------------------------------------------------


def graph_to_json(graph: Graph) -> dict:
    out: dict = {
        "vertices": graph.num_vertices,
        "edges": [[u, v] for u, v in graph.edges],
    }
    if graph.weights is not None:
        out["weights"] = [format_rational(w) for w in graph.weights]
    return out


def graph_from_json(data: Any) -> Graph:
    if not isinstance(data, Mapping):
        raise InstanceParseError("graph file must be a JSON object")
    n = _positive_int(data, "vertices")
    edges_raw = data.get("edges")
    if not isinstance(edges_raw, list):
        raise InstanceParseError("field 'edges' must be a list of pairs")
    edges = []
    for i, pair in enumerate(edges_raw):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise InstanceParseError(f"edges[{i}]: expected a pair [u, v]")
        u, v = pair
        if not (_is_int(u) and _is_int(v)):
            raise InstanceParseError(f"edges[{i}]: endpoints must be integers")
        edges.append((u, v))
    weights = None
    if "weights" in data:
        raw = data["weights"]
        if not isinstance(raw, list) or len(raw) != len(edges):
            raise InstanceParseError("field 'weights' must match the edge list")
        weights = tuple(parse_rational(w, f"weights[{i}]") for i, w in enumerate(raw))
    try:
        return Graph(n, tuple(edges), weights)
    except ValueError as exc:
        raise InstanceParseError(str(exc)) from exc


def setcover_from_json(data: Any) -> tuple[int, list[list[int]], int]:
    if not isinstance(data, Mapping):
        raise InstanceParseError("set-cover file must be a JSON object")
    universe = _positive_int(data, "universe")
    family = data.get("family")
    if not isinstance(family, list) or not family:
        raise InstanceParseError("field 'family' must be a nonempty list of element lists")
    for i, s in enumerate(family):
        if not isinstance(s, list) or not all(_is_int(e) for e in s):
            raise InstanceParseError(f"family[{i}]: expected a list of integers")
    return universe, family, _positive_int(data, "k")


def membership_to_json(inst: MembershipInstance) -> dict:
    return {
        "variant": "coverage",
        "point": [format_rational(y) for y in inst.point],
        "delta": {
            "coefficient": format_rational(inst.delta.coefficient),
            "radicand": inst.delta.radicand,
        },
        "m": inst.family_m,
        "sets": [mask_to_elements(mask) for mask in inst.family_sets],
    }

