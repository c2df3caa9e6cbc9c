"""Round-trips and located parse errors for the JSON forms."""

import math
from fractions import Fraction

import pytest

from coverext.errors import InstanceParseError
from coverext.gadgets import Graph
from coverext.setfun import PartialFunction, WCoefficients
from coverext.serialize import (
    format_rational,
    graph_from_json,
    graph_to_json,
    parse_rational,
    partial_function_from_json,
    partial_function_to_json,
    total_function_from_json,
    wcoeffs_from_json,
    wcoeffs_to_json,
)

F = Fraction


def test_rational_strings():
    assert format_rational(F(3)) == "3"
    assert format_rational(F(-5, 2)) == "-5/2"
    assert format_rational(math.inf) == "inf"
    assert parse_rational("7") == F(7)
    assert parse_rational("-3/9") == F(-1, 3)
    for bad in ("1/0", "1.5", "inf", "", "a/b", "1/2/3"):
        with pytest.raises(InstanceParseError):
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
    w = WCoefficients.from_dict(2, {0b11: F(1, 3), 0b01: F(2)})
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


def test_graph_roundtrip():
    g = Graph(3, ((1, 2), (2, 3)), (F(1, 2), F(-1)))
    data = graph_to_json(g)
    assert graph_from_json(data) == g
    with pytest.raises(InstanceParseError):
        graph_from_json({"vertices": 2, "edges": [[1, 1]]})
    with pytest.raises(InstanceParseError, match=r"weights\[0\]"):
        graph_from_json({"vertices": 2, "edges": [[1, 2]], "weights": ["0.5"]})
