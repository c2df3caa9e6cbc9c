"""Round-trips and located parse errors for the JSON forms."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coverext.errors import InstanceParseError
from coverext.gadgets import Graph
from coverext.setfun import PartialFunction, TotalSetFunction, WCoefficients, mask_to_elements
from coverext.serialize import (
    format_rational,
    graph_from_json,
    graph_to_json,
    parse_rational,
    partial_function_from_json,
    partial_function_to_json,
    setcover_from_json,
    total_function_from_json,
    wcoeffs_from_json,
    wcoeffs_to_json,
)

import oracles

F = Fraction
PROPERTY = settings(max_examples=60, deadline=None, database=None)
RATIONALS = st.builds(F, st.integers(-9, 9), st.integers(1, 4))


def through_text(data):
    """The JSON value as a file would carry it."""
    return json.loads(json.dumps(data))


def test_rational_strings():
    assert format_rational(F(3)) == "3"
    assert format_rational(F(-5, 2)) == "-5/2"
    assert format_rational(math.inf) == "inf"
    assert parse_rational("7") == F(7)
    assert parse_rational("-3/9") == F(-1, 3)
    # a trailing newline and non-ASCII digits (Arabic-Indic 12) are not rationals
    for bad in ("1/0", "1.5", "inf", "", "a/b", "1/2/3", "5\n", "1/2\n", "\u0661\u0662"):
        with pytest.raises(InstanceParseError):
            parse_rational(bad)


def _long_int(text):
    """An int read back from text in 1000-digit pieces, each inside the int-string limit."""
    digits = text.lstrip("-")
    value = 0
    for i in range(0, len(digits), 1000):
        piece = digits[i:i + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return -value if text.startswith("-") else value


def test_rationals_print_past_the_int_digit_limit_and_parse_up_to_it():
    big = 7 ** 12000 + 1  # 10,142 digits
    for x in (F(0), F(big), F(-big, 3), F(3, big), F(-(10 ** 4300), 10 ** 601 + 1)):
        num, _, den = format_rational(x).partition("/")
        assert (_long_int(num), _long_int(den or "1")) == (x.numerator, x.denominator)
        assert num.lstrip("-")[:1] != "0" or x == 0
    assert len(format_rational(F(big))) == 10142
    assert parse_rational("9" * 4300) == 10 ** 4300 - 1
    assert parse_rational("-1/" + "9" * 4300) == F(-1, 10 ** 4300 - 1)
    for bad in ("9" * 4301, "-" + "9" * 4301, "1/" + "9" * 4301, "9" * 4301 + "/2"):
        with pytest.raises(InstanceParseError, match="4301 digits exceed the limit of 4300"):
            parse_rational(bad)


def test_partial_function_roundtrip():
    pf = PartialFunction(3, ((0b001, F(1)), (0b110, F(3, 2))))
    data = partial_function_to_json(pf)
    assert data == {
        "m": 3,
        "points": [
            {"set": [1], "value": "1"},
            {"set": [2, 3], "value": "3/2"},
        ],
    }
    assert partial_function_from_json(data) == pf


def test_partial_function_errors_carry_location():
    with pytest.raises(InstanceParseError, match=r"points\[1\].*duplicate"):
        partial_function_from_json(
            {"m": 2, "points": [{"set": [1], "value": "1"}, {"set": [1], "value": "2"}]}
        )
    with pytest.raises(InstanceParseError, match=r"points\[0\].value"):
        partial_function_from_json({"m": 2, "points": [{"set": [1], "value": "1/0"}]})
    with pytest.raises(InstanceParseError, match=r"points\[0\]"):
        partial_function_from_json({"m": 2, "points": [{"set": [3], "value": "1"}]})


def test_total_function_parsing():
    data = {
        "m": 1,
        "values": [{"set": [], "value": "0"}, {"set": [1], "value": "5"}],
    }
    total = total_function_from_json(data)
    assert total.values == (F(0), F(5))
    with pytest.raises(InstanceParseError, match="all 4 subsets"):
        total_function_from_json({"m": 2, "values": data["values"]})


def test_wcoeffs_roundtrip():
    w = WCoefficients(2, ((0b11, F(1, 3)), (0b01, F(2))))
    data = wcoeffs_to_json(w)
    assert data[0] == {"set": [1], "weight": "2"}
    assert wcoeffs_from_json(2, data) == w


@pytest.mark.parametrize(
    "data, where",
    [
        ([[1]], r"coefficients\[0\]: need 'set' and 'weight'"),
        ([{"set": [1]}], r"coefficients\[0\]: need 'set' and 'weight'"),
        ([{"set": [], "weight": "1"}], r"coefficients\[0\]: .*nonempty"),
        ([{"set": [1], "weight": "1"}, {"set": [1], "weight": "2"}],
         r"coefficients\[1\]: duplicate"),
        ([{"set": [2], "weight": "0.5"}], r"coefficients\[0\]\.weight"),
    ],
)
def test_wcoeffs_errors_carry_location(data, where):
    with pytest.raises(InstanceParseError, match=where):
        wcoeffs_from_json(2, data)


def parse_wcoeffs_m2(data):
    return wcoeffs_from_json(2, data)


@pytest.mark.parametrize(
    "parse, data, message",
    [
        (partial_function_from_json,
         {"m": 2, "points": [{"set": [1], "value": "1"}, {"set": [1], "value": "x"}]},
         "points[1]: duplicate set [1] (first at points[0])"),
        (partial_function_from_json, {"m": 2, "points": [{"set": [], "value": "x"}]},
         "points[0]: defined set must be nonempty"),
        (partial_function_from_json,
         {"m": 2, "points": [{"set": [1], "value": "-1"}, {"set": [3]}]},
         "points[0]: value must be nonnegative"),
        (total_function_from_json,
         {"m": 1, "values": [{"set": [], "value": "0"}, {"set": [], "value": "x"}]},
         "values[1]: duplicate set [] (first at values[0])"),
        (total_function_from_json, {"m": 1, "values": [{"set": []}]},
         "values[0]: need 'set' and 'value'"),
        (parse_wcoeffs_m2, [{"set": [1], "weight": "1"}, {"set": [1], "weight": "x"}],
         "coefficients[1]: duplicate set [1] (first at coefficients[0])"),
        (parse_wcoeffs_m2, [{"set": [], "weight": "x"}],
         "coefficients[0]: coefficient set must be nonempty"),
    ],
)
def test_entry_errors_keep_their_text(parse, data, message):
    # where an entry has two faults, the one checked first is reported
    with pytest.raises(InstanceParseError) as info:
        parse(data)
    assert str(info.value) == message


def parse_wcoeffs_m1(data):
    return wcoeffs_from_json(1, data)


@pytest.mark.parametrize(
    "parse, data, message",
    [
        # a file that is not a JSON object
        (partial_function_from_json, [], "instance file must be a JSON object"),
        (total_function_from_json, [], "total function file must be a JSON object"),
        (graph_from_json, [], "graph file must be a JSON object"),
        (setcover_from_json, [], "set-cover file must be a JSON object"),
        (parse_wcoeffs_m1, {}, "coefficients must be a list"),
        # fields that are not lists
        (partial_function_from_json, {"m": 1, "points": {"set": [1]}},
         "field 'points' must be a nonempty list"),
        (partial_function_from_json, {"m": 1, "points": []},
         "field 'points' must be a nonempty list"),
        (total_function_from_json, {"m": 1, "values": {}}, "field 'values' must be a list"),
        (graph_from_json, {"vertices": 2, "edges": {}}, "field 'edges' must be a list of pairs"),
        (setcover_from_json, {"universe": 2, "family": {}, "k": 1},
         "field 'family' must be a nonempty list of element lists"),
        (setcover_from_json, {"universe": 2, "family": [], "k": 1},
         "field 'family' must be a nonempty list of element lists"),
        # a set that is not a list
        (partial_function_from_json, {"m": 1, "points": [{"set": 1, "value": "1"}]},
         "points[0]: set must be a list of 1-based integers"),
        # graph entries
        (graph_from_json, {"vertices": 2, "edges": [[1, 2, 3]]},
         "edges[0]: expected a pair [u, v]"),
        (graph_from_json, {"vertices": 2, "edges": [[1, 2]], "weights": ["1", "1"]},
         "field 'weights' must match the edge list"),
        (graph_from_json, {"vertices": 2, "edges": [[1, 2]], "weights": "1"},
         "field 'weights' must match the edge list"),
        # a full table whose empty-set value is not 0
        (total_function_from_json,
         {"m": 1, "values": [{"set": [], "value": "1"}, {"set": [1], "value": "1"}]},
         "f(empty set) must be 0 for coverage candidacy"),
    ],
)
def test_file_refusals_keep_their_text(parse, data, message):
    with pytest.raises(InstanceParseError) as info:
        parse(data)
    assert str(info.value) == message


def test_graph_roundtrip():
    g = Graph(3, ((1, 2), (2, 3)), (F(1, 2), F(-1)))
    data = graph_to_json(g)
    assert graph_from_json(data) == g
    with pytest.raises(InstanceParseError):
        graph_from_json({"vertices": 2, "edges": [[1, 1]]})
    with pytest.raises(InstanceParseError, match=r"weights\[0\]"):
        graph_from_json({"vertices": 2, "edges": [[1, 2]], "weights": ["0.5"]})


@PROPERTY
@given(oracles.partial_functions())
def test_partial_function_roundtrip_property(pf):
    assert partial_function_from_json(through_text(partial_function_to_json(pf))) == pf


@st.composite
def total_functions(draw):
    m = draw(st.integers(1, 4))
    values = [F(0)] + draw(st.lists(RATIONALS.map(abs), min_size=(1 << m) - 1,
                                    max_size=(1 << m) - 1))
    return TotalSetFunction(m, tuple(values)), draw(st.permutations(range(1 << m)))


@PROPERTY
@given(total_functions())
def test_total_function_roundtrip_property(case):
    # entries may come in any order; the table is indexed by set
    f, order = case
    entries = [{"set": mask_to_elements(s), "value": format_rational(f.values[s])} for s in order]
    assert total_function_from_json(through_text({"m": f.m, "values": entries})) == f


@st.composite
def coefficients(draw):
    m = draw(st.integers(1, 6))
    support = draw(st.dictionaries(st.integers(1, (1 << m) - 1), RATIONALS, max_size=8))
    return WCoefficients(m, tuple(support.items()))  # zero weights drop out


@PROPERTY
@given(coefficients())
def test_wcoeffs_roundtrip_property(w):
    assert wcoeffs_from_json(w.m, through_text(wcoeffs_to_json(w))) == w


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weighted = draw(st.booleans())
    weights = tuple(draw(RATIONALS) for _ in edges) if weighted else None
    return Graph(n, tuple(edges), weights)


@PROPERTY
@given(graphs())
def test_graph_roundtrip_property(g):
    assert graph_from_json(through_text(graph_to_json(g))) == g
