"""Golden CLI output: each command's stdout and exit code, byte for byte.

One small input per command and kind runs in-process, from a fresh
working directory so that the argv paths in each report are relative.
Only wall_time_ms is masked; everything else, solver statistics
included, must match the file under tests/golden/.

To regenerate the files after a deliberate output change, run
`PYTHONPATH=src python tests/test_cli_golden.py` and review the diff.
"""

import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest

from coverext.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def _points(m, pairs):
    return {"m": m, "points": [{"set": s, "value": v} for s, v in pairs]}


def _table(m, values):
    return {"m": m, "values": [{"set": [j + 1 for j in range(m) if mask >> j & 1], "value": v}
                               for mask, v in enumerate(values)]}


# f(T) = total weight of {1}: 1, {1,2}: 1, {2,3}: 1/2, {3}: 2 meeting T
EXTENDIBLE = _points(3, [([1], "2"), ([2], "3/2"), ([3], "5/2"), ([1, 2], "5/2"),
                         ([2, 3], "7/2")])
# f({1,2}) = 4 exceeds f({1}) + f({2})
REFUTABLE = _points(3, [([1], "2"), ([2], "3/2"), ([3], "5/2"), ([1, 2], "4"),
                        ([2, 3], "7/2")])
C5 = {"vertices": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]}
WEIGHTED = {"vertices": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 3]],
            "weights": ["1/2", "-1", "1/3", "-1/4"]}

INPUTS = {
    "ext.json": EXTENDIBLE,
    "ref.json": REFUTABLE,
    "cover.json": _table(2, ["0", "1", "1", "1"]),
    "notcover.json": _table(2, ["0", "1", "1", "3"]),
    "c5.json": C5,
    "sc.json": {"universe": 3, "family": [[1, 2], [2, 3], [1]], "k": 2},
    "weighted.json": WEIGHTED,
}

CASES = {
    "extend_extendible": ["extend", "--input", "ext.json", "--certify"],
    "extend_refutable": ["extend", "--input", "ref.json", "--certify"],
    "approx_exact": ["approx", "--input", "ref.json", "--mode", "exact", "--alpha-star"],
    "approx_greedy": ["approx", "--input", "ext.json", "--mode", "greedy", "--alpha-star"],
    "norm_exact": ["norm", "--input", "ref.json", "--exact"],
    "wtransform_coverage": ["wtransform", "--input", "cover.json"],
    "wtransform_not_coverage": ["wtransform", "--input", "notcover.json"],
    "gadget_chromatic": ["gadget", "chromatic", "--graph", "c5.json", "--k", "5/2", "--chi"],
    "gadget_setcover": ["gadget", "setcover", "--input", "sc.json"],
    "gadget_cut2span": ["gadget", "cut2span", "--graph", "weighted.json"],
    "gadget_densest": ["gadget", "densest", "--graph", "c5.json", "--density", "1/2"],
    "gen_tight": ["gen", "tight", "--m", "4", "--k", "1", "--seed", "3"],
    "check_cut": ["check", "cut", "--graph", "weighted.json"],
    "check_span": ["check", "span", "--graph", "weighted.json"],
}

_WALL_TIME = re.compile(r'"wall_time_ms": \d+')


def _run(argv):
    """Exit code line, then stdout with the wall time masked; runs in the cwd."""
    for name, payload in INPUTS.items():
        Path(name).write_text(json.dumps(payload))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n" + _WALL_TIME.sub('"wall_time_ms": "*"', out.getvalue())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert _run(CASES[name]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            (GOLDEN / f"{name}.txt").write_text(_run(argv))
