"""CLI dispatch, exit codes, file round-trips, and pipelines."""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from coverext import approx, cli, serialize, setfun
from coverext.approx import alpha_bounds, alpha_star_program
from coverext.cli import main
from coverext.extension import extension_program
from coverext.gadgets import _coloring_program, _independent_set_masks
from coverext.lp import solve
from coverext.norm import _held_singletons, _norm_program, norm_extension_approx
from coverext.setfun import span_columns

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


ADDITIVE = {
    "m": 2,
    "points": [
        {"set": [1], "value": "1"},
        {"set": [2], "value": "1"},
        {"set": [1, 2], "value": "2"},
    ],
}
SUPERADDITIVE = {
    "m": 2,
    "points": [
        {"set": [1], "value": "1"},
        {"set": [2], "value": "1"},
        {"set": [1, 2], "value": "3"},
    ],
}
K3_GRAPH = {"vertices": 3, "edges": [[1, 2], [2, 3], [1, 3]]}


def test_extend_positive(tmp_path, capsys):
    path = write(tmp_path, "inst.json", ADDITIVE)
    code, out, _ = run_cli(["extend", "--input", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["status"] == "extendible"
    assert len(report["result"]["witness"]) <= 3
    assert report["solver"]["pivots"] > 0
    assert report["command"] == "extend"


def test_extend_negative(tmp_path, capsys):
    path = write(tmp_path, "inst.json", SUPERADDITIVE)
    code, out, _ = run_cli(["extend", "--input", path], capsys)
    assert code == 2
    report = json.loads(out)
    assert report["result"]["status"] == "not_extendible"
    assert len(report["result"]["certificate"]) == 3


def test_parse_error_exit_code(tmp_path, capsys):
    bad = dict(ADDITIVE)
    bad["points"] = [{"set": [1], "value": "1/0"}]
    path = write(tmp_path, "bad.json", bad)
    code, _, err = run_cli(["extend", "--input", path], capsys)
    assert code == 1
    assert "points[0]" in err


def test_cap_exceeded_exit_code(tmp_path, capsys):
    wide = {"m": 30, "points": [{"set": [1], "value": "1"}]}
    path = write(tmp_path, "wide.json", wide)
    code, _, err = run_cli(["extend", "--input", path], capsys)
    assert code == 3
    assert "cap" in err


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(["extend"], capsys)
    assert code == 1


def test_approx_report(tmp_path, capsys):
    tight = {
        "m": 2,
        "points": [
            {"set": [1], "value": "4"},
            {"set": [2], "value": "4"},
            {"set": [1, 2], "value": "1"},
        ],
    }
    path = write(tmp_path, "tight.json", tight)
    code, out, _ = run_cli(["approx", "--input", path, "--alpha-star"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["kappa"] == "1/4"
    assert result["lower"] == "4"
    assert result["upper"] == "8"
    assert result["alpha_star"] == "4"


def test_norm_report_matches_hand_values(tmp_path, capsys):
    path = write(tmp_path, "inst.json", SUPERADDITIVE)
    code, out, _ = run_cli(["norm", "--input", path, "--exact"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["opt_restricted"] == "1"
    assert result["opt_exact"] == "1"
    assert result["additive_bound"] == "5/2"


def test_wtransform_negative(tmp_path, capsys):
    total = {
        "m": 2,
        "values": [
            {"set": [], "value": "0"},
            {"set": [1], "value": "1"},
            {"set": [2], "value": "1"},
            {"set": [1, 2], "value": "3"},
        ],
    }
    path = write(tmp_path, "total.json", total)
    code, out, _ = run_cli(["wtransform", "--input", path], capsys)
    assert code == 2
    result = json.loads(out)["result"]
    assert result["is_coverage"] is False
    assert result["violating_set"] == [1, 2]
    assert result["coefficient"] == "-1"


def test_wtransform_runs_one_moebius_pass(tmp_path, capsys, monkeypatch):
    calls = []
    w_values = setfun._w_values
    monkeypatch.setattr(setfun, "_w_values", lambda *args: calls.append(args) or w_values(*args))
    for top, want in (("2", 0), ("3", 2)):  # f({1, 2}) = 3 makes w({1, 2}) = -1
        total = {"m": 2, "values": [{"set": [], "value": "0"}, {"set": [1], "value": "1"},
                                    {"set": [2], "value": "1"}, {"set": [1, 2], "value": top}]}
        calls.clear()
        code, _, _ = run_cli(["wtransform", "--input", write(tmp_path, "t.json", total)], capsys)
        assert (code, len(calls)) == (want, 1)


def test_gadget_chromatic_to_file_roundtrip(tmp_path, capsys):
    graph = write(tmp_path, "k3.json", K3_GRAPH)
    out_file = str(tmp_path / "inst.json")
    code, out, _ = run_cli(
        ["gadget", "chromatic", "--graph", graph, "--k", "3", "--chi", "--out", out_file],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["result"]["chi"] == "3"
    emitted = json.loads(Path(out_file).read_text())
    # emitted instance re-parses and decides positively at k = 3
    code, out, _ = run_cli(["extend", "--input", out_file], capsys)
    assert code == 0

    code, _, _ = run_cli(
        ["gadget", "chromatic", "--graph", graph, "--k", "2", "--out", out_file], capsys
    )
    assert code == 0
    code, _, _ = run_cli(["extend", "--input", out_file], capsys)
    assert code == 2


def test_gen_tight_then_approx(tmp_path, capsys):
    out_file = str(tmp_path / "tight.json")
    code, out, _ = run_cli(["gen", "tight", "--m", "4", "--k", "2", "--seed", "7",
                            "--out", out_file], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["seed"] == 7
    # the digest gen reports is that of the file it wrote, as extend and approx read it
    assert report["input_digest"] == hashlib.sha256(Path(out_file).read_bytes()).hexdigest()
    code, out, _ = run_cli(["approx", "--input", out_file], capsys)
    assert code == 0
    assert json.loads(out)["input_digest"] == report["input_digest"]
    result = json.loads(out)["result"]
    assert result["kappa"] == "1"
    assert result["d"] == 2


def test_check_cut_and_span(tmp_path, capsys):
    inside = write(tmp_path, "in.json",
                   {"vertices": 2, "edges": [[1, 2]], "weights": ["-1/2"]})
    outside = write(tmp_path, "out.json",
                    {"vertices": 2, "edges": [[1, 2]], "weights": ["1/2"]})
    assert run_cli(["check", "cut", "--graph", inside], capsys)[0] == 0
    code, out, _ = run_cli(["check", "cut", "--graph", outside], capsys)
    assert code == 2
    assert json.loads(out)["result"]["violated_set"] == [1]
    assert run_cli(["check", "span", "--graph", inside], capsys)[0] == 0


def test_gadget_cut2span_pipeline(tmp_path, capsys):
    graph = write(tmp_path, "g.json",
                  {"vertices": 2, "edges": [[1, 2]], "weights": ["1"]})
    gadget_file = str(tmp_path / "gadget.json")
    code, out, _ = run_cli(["gadget", "cut2span", "--graph", graph, "--out", gadget_file],
                           capsys)
    assert code == 0
    assert json.loads(out)["result"]["scale"] == "4"
    code, _, _ = run_cli(["check", "span", "--graph", gadget_file], capsys)
    assert code == 2  # positive cut in the input becomes a span violation


# The paper's 4-cycle: its weights lie outside the unit box until scaled.
WIDE_CYCLE = {"vertices": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]],
              "weights": ["5", "-7", "1", "-3"]}


def test_gadget_cut2span_allow_wide_weights(tmp_path, capsys):
    graph = write(tmp_path, "c4.json", WIDE_CYCLE)
    code, out, err = run_cli(["gadget", "cut2span", "--graph", graph], capsys)
    assert (code, out) == (1, "")
    assert err == "error: input weights must lie in [-1, 1]\n"
    code, out, _ = run_cli(["gadget", "cut2span", "--graph", graph, "--allow-wide-weights"],
                           capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["scale"] == "24"
    hub = [w for (u, v), w in zip(result["graph"]["edges"], result["graph"]["weights"])
           if 5 in (u, v)]
    assert hub == ["-1/24", "1/24", "1/8", "1/24", "-1"]


@pytest.mark.parametrize("argv, payload, key", [
    (["gadget", "setcover", "--input"], {"universe": 3, "family": [[1, 2], [2, 3]], "k": 1},
     "instance"),
    (["gadget", "densest", "--density", "1", "--graph"], K3_GRAPH, "graph"),
], ids=["setcover", "densest"])
def test_gadget_out_writes_the_embedded_artifact(tmp_path, capsys, argv, payload, key):
    path = write(tmp_path, "in.json", payload)
    out_file = tmp_path / "artifact.json"
    code, out, _ = run_cli(argv + [path, "--out", str(out_file)], capsys)
    assert code == 0
    assert out_file.read_text() == json.dumps(json.loads(out)["result"][key], indent=2) + "\n"


def test_gadget_densest_boundary_flag(tmp_path, capsys):
    graph = write(tmp_path, "edge.json", {"vertices": 2, "edges": [[1, 2]]})
    code, out, _ = run_cli(["gadget", "densest", "--graph", graph, "--density", "1"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["boundary"] is True
    assert result["exceeds_density"] is False


def test_gadget_setcover(tmp_path, capsys):
    sc = write(tmp_path, "sc.json", {"universe": 2, "family": [[1, 2]], "k": 1})
    code, out, _ = run_cli(["gadget", "setcover", "--input", sc], capsys)
    assert code == 0
    result = json.loads(out)["result"]["instance"]
    assert result["point"] == ["-2", "-1", "2", "2"]
    assert result["delta"] == {"coefficient": "1/2", "radicand": 4}


def test_gadget_setcover_refuses_a_universe_past_the_cap_at_once(tmp_path, capsys):
    sc = write(tmp_path, "sc.json", {"universe": 1 << 24, "family": [[1], [2]], "k": 1})
    started = time.monotonic()
    code, out, err = run_cli(["gadget", "setcover", "--input", sc], capsys)
    assert time.monotonic() - started < 1
    assert code == 3
    assert out == ""
    assert err == "error: 16777219 points exceed 2^24\n"


@pytest.mark.parametrize("kind, flag", [("chromatic", "--k"), ("densest", "--density")])
def test_rational_arguments_are_usage_errors(tmp_path, capsys, kind, flag):
    graph = write(tmp_path, "k3.json", K3_GRAPH)
    code, out, err = run_cli(["gadget", kind, "--graph", graph, flag, "x"], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: argument {flag}: argument: expected an integer or p/q string, got 'x'\n"


def test_stdin_input_in_process(capsys, monkeypatch):
    raw = json.dumps(ADDITIVE).encode()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw)))
    code, out, err = run_cli(["extend", "--input", "-"], capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["result"]["status"] == "extendible"
    assert report["input_digest"] == hashlib.sha256(raw).hexdigest()


def test_unreadable_or_invalid_input_is_a_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    code, out, err = run_cli(["extend", "--input", missing], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {missing}: ")
    broken = tmp_path / "broken.json"
    broken.write_text('{"m": 1,\n  "points": [}')
    code, out, err = run_cli(["extend", "--input", str(broken)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {broken}: invalid JSON at line 2: Expecting value\n"


# Nested deeper than the C JSON decoder's recursion limit on every supported Python
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
@pytest.mark.parametrize(
    "raw, error",
    [
        (DEEP_JSON, "invalid JSON: nested too deeply"),
        (b"\xff\xfe{", "invalid JSON encoding: 'utf-16-le' codec can't decode byte 0x7b "
                       "in position 2: truncated data"),
    ],
    ids=["deep", "undecodable"],
)
def test_unparseable_json_exits_1_naming_the_file(tmp_path, capsys, batch, raw, error):
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    if batch:
        write(tmp_path, "a.json", ADDITIVE)
    code, out, err = run_cli(["extend", "--input", str(tmp_path if batch else bad)], capsys)
    assert code == 1
    if batch:
        assert err == ""
        assert json.loads(out)[1] == {"command": "extend", "input": str(bad),
                                      "error": f"{bad}: {error}"}
    else:
        assert (out, err) == ("", f"error: {bad}: {error}\n")


def test_check_refuses_an_unweighted_graph(tmp_path, capsys):
    graph = write(tmp_path, "k3.json", K3_GRAPH)
    code, out, err = run_cli(["check", "span", "--graph", graph], capsys)
    assert (code, out) == (1, "")
    assert err == "error: membership checks need an edge-weighted graph\n"


@pytest.mark.parametrize("kind", ["cut", "span"])
def test_check_names_the_edge_outside_the_box(tmp_path, capsys, kind):
    graph = write(tmp_path, "wide.json", {"vertices": 3, "edges": [[1, 2], [2, 3]],
                                          "weights": ["-1/2", "3/2"]})
    code, out, err = run_cli(["check", kind, "--graph", graph], capsys)
    assert (code, err) == (2, "")
    assert json.loads(out)["result"] == {"kind": kind, "inside": False, "box_edge": [2, 3]}


def test_directory_batch_reports_each_verdict(tmp_path, capsys):
    write(tmp_path, "a.json", ADDITIVE)
    write(tmp_path, "b.json", SUPERADDITIVE)
    code, out, _ = run_cli(["extend", "--input", str(tmp_path)], capsys)
    assert code == 2  # worst result in the batch
    reports = json.loads(out)
    assert [r["result"]["status"] for r in reports] == ["extendible", "not_extendible"]


def test_jobs_is_an_unrecognized_argument(tmp_path, capsys):
    write(tmp_path, "a.json", ADDITIVE)
    code, out, err = run_cli(["extend", "--input", str(tmp_path), "--jobs", "2"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: unrecognized arguments: --jobs 2\n"


def test_certify_is_an_unrecognized_argument(tmp_path, capsys):
    # every extend run verifies its witness or certificate; a failure exits 4
    path = write(tmp_path, "inst.json", ADDITIVE)
    code, out, err = run_cli(["extend", "--input", path, "--certify"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: unrecognized arguments: --certify\n"


def test_stdin_pipeline_subprocess(tmp_path):
    # the real pipe: gadget chromatic --out - | extend --input -
    graph = write(tmp_path, "k3.json", K3_GRAPH)
    env = dict(os.environ, PYTHONPATH=SRC)
    gadget = subprocess.run(
        [sys.executable, "-m", "coverext.cli", "gadget", "chromatic",
         "--graph", graph, "--k", "3", "--out", "-"],
        capture_output=True, env=env, check=True,
    )
    extend = subprocess.run(
        [sys.executable, "-m", "coverext.cli", "extend", "--input", "-"],
        input=gadget.stdout, capture_output=True, env=env,
    )
    assert extend.returncode == 0
    report = json.loads(extend.stdout)
    assert report["result"]["status"] == "extendible"


REPORT_KEYS = ["command", "argv", "input_digest", "result", "wall_time_ms", "solver"]
RUNNER_FILES = {
    "add.json": ADDITIVE,
    "sup.json": SUPERADDITIVE,
    "total.json": {"m": 2, "values": [{"set": s, "value": v} for s, v in
                                      (([], "0"), ([1], "1"), ([2], "1"), ([1, 2], "3"))]},
    "k3.json": K3_GRAPH,
    "out.json": {"vertices": 2, "edges": [[1, 2]], "weights": ["1/2"]},
}


@pytest.mark.parametrize(
    "argv, code, routed",
    [
        (["extend", "--input", "sup.json"], 2, False),
        (["approx", "--input", "add.json", "--mode", "greedy"], 0, False),
        (["norm", "--input", "sup.json"], 0, False),
        (["wtransform", "--input", "total.json"], 2, False),
        (["gadget", "chromatic", "--graph", "k3.json", "--k", "3", "--out", "-"], 0, True),
        (["gen", "tight", "--m", "4", "--seed", "7"], 0, False),
        (["gen", "tight", "--m", "4", "--seed", "7", "--out", "-"], 0, True),
        (["check", "cut", "--graph", "out.json"], 2, False),
    ],
)
def test_every_command_reports_through_one_runner(tmp_path, capsys, monkeypatch, argv, code,
                                                  routed):
    monkeypatch.chdir(tmp_path)
    for name, payload in RUNNER_FILES.items():
        write(tmp_path, name, payload)
    got, out, err = run_cli(argv, capsys)
    assert got == code
    report = json.loads(err if routed else out)
    assert list(report) == REPORT_KEYS
    assert report["command"] == argv[0]
    assert report["argv"] == argv
    if argv[0] == "gen":  # reads nothing: the digest is that of the emitted instance
        emitted = (json.dumps(report["result"]["instance"], indent=2) + "\n").encode()
    else:
        emitted = (tmp_path / argv[argv.index("--graph" if "--graph" in argv else "--input")
                            + 1]).read_bytes()
    assert report["input_digest"] == hashlib.sha256(emitted).hexdigest()
    if routed:  # --out -: the artifact alone on stdout, the report on stderr
        assert json.loads(out) == report["result"]["instance"]
    else:
        assert err == ""


def _extension_programs(pf):
    return [extension_program(pf, span_columns(pf.m, pf.masks()))]


def _norm_exact_programs(pf):
    return [_norm_program(pf, _held_singletons(pf)),
            _norm_program(pf, span_columns(pf.m, pf.masks()))]


def _coloring_programs(graph):
    return [_coloring_program(graph, _independent_set_masks(graph))]


C5_GRAPH = {"vertices": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]}


@pytest.mark.parametrize(
    "argv, payload, parse, programs",
    [
        (["extend", "--input"], ADDITIVE, serialize.partial_function_from_json,
         _extension_programs),
        (["extend", "--input"], SUPERADDITIVE, serialize.partial_function_from_json,
         _extension_programs),
        (["approx", "--alpha-star", "--input"], SUPERADDITIVE,
         serialize.partial_function_from_json, lambda pf: [alpha_star_program(pf)]),
        (["norm", "--exact", "--input"], SUPERADDITIVE, serialize.partial_function_from_json,
         _norm_exact_programs),
        (["gadget", "chromatic", "--k", "3", "--chi", "--graph"], C5_GRAPH,
         serialize.graph_from_json, _coloring_programs),
    ],
    ids=["extend-extendible", "extend-refutable", "approx-alpha-star", "norm-exact",
         "gadget-chromatic-chi"],
)
def test_solver_block_sums_the_programs_the_command_solves(tmp_path, capsys, argv, payload,
                                                           parse, programs):
    # one solve per program, plus its pivots, rows and variables
    code, out, _ = run_cli(argv + [write(tmp_path, "in.json", payload)], capsys)
    assert code in (0, 2)
    want = [0, 0, 0, 0]
    for program in programs(parse(payload)):
        outcome = solve(program)
        for k, value in enumerate((1, outcome.pivots, program.num_rows, program.num_vars)):
            want[k] += value
    solver = json.loads(out)["solver"]
    assert [solver[key] for key in ("solves", "pivots", "rows", "vars")] == want


def test_batch_records_errors_and_exits_with_the_worst_code(tmp_path, capsys):
    good = write(tmp_path, "a.json", ADDITIVE)
    bad = write(tmp_path, "b.json", {"m": 2, "points": [{"set": [1], "value": "1/0"}]})
    wide = write(tmp_path, "c.json", {"m": 30, "points": [{"set": [1], "value": "1"}]})
    code, out, err = run_cli(["extend", "--input", str(tmp_path)], capsys)
    assert (code, err) == (3, "")
    first, parse_error, cap_error = json.loads(out)
    assert list(first) == REPORT_KEYS
    assert first["input_digest"] == hashlib.sha256(Path(good).read_bytes()).hexdigest()
    assert first["result"]["status"] == "extendible"
    assert parse_error == {"command": "extend", "input": bad,
                           "error": "points[0].value: zero denominator in '1/0'"}
    assert cap_error == {"command": "extend", "input": wide,
                         "error": "ground set size 30 exceeds enumeration cap 24"}


@pytest.mark.parametrize(
    "first, second, want",
    [
        # files run in name order, so the worse outcome comes first here
        ({"m": 30, "points": [{"set": [1], "value": "1"}]}, ADDITIVE, 3),
        (SUPERADDITIVE, {"m": 2, "points": [{"set": [1], "value": "1/0"}]}, 2),
    ],
    ids=["cap-error-then-extendible", "refutable-then-parse-error"],
)
def test_batch_exit_code_is_the_worst_not_the_last(tmp_path, capsys, first, second, want):
    write(tmp_path, "a.json", first)
    write(tmp_path, "b.json", second)
    code, _, err = run_cli(["extend", "--input", str(tmp_path)], capsys)
    assert (code, err) == (want, "")


def test_internal_error_in_one_file_does_not_abort_the_batch(tmp_path, capsys, monkeypatch):
    real = cli.decide_extension

    def failing_on_m3(pf, cap):
        if pf.m == 3:
            raise AssertionError("internal error: simplex solution failed verification")
        return real(pf, cap=cap)

    monkeypatch.setattr(cli, "decide_extension", failing_on_m3)
    write(tmp_path, "a.json", ADDITIVE)
    wide = write(tmp_path, "b.json", {"m": 30, "points": [{"set": [1], "value": "1"}]})
    broken = write(tmp_path, "c.json", {"m": 3, "points": [{"set": [1, 3], "value": "2"}]})
    code, out, err = run_cli(["extend", "--input", str(tmp_path)], capsys)
    assert code == 4  # an internal error outranks a cap error, 3
    assert "Traceback" in err and err.endswith(
        "AssertionError: internal error: simplex solution failed verification\n")
    first, cap_error, internal = json.loads(out)
    assert first["result"]["status"] == "extendible"
    assert cap_error["input"] == wide
    assert internal == {
        "command": "extend",
        "input": broken,
        "error": "AssertionError: internal error: simplex solution failed verification",
    }


def test_empty_batch_directory_is_a_usage_error(tmp_path, capsys):
    write(tmp_path, "notes.txt", {})
    code, out, err = run_cli(["extend", "--input", str(tmp_path)], capsys)
    assert (code, out) == (1, "")
    assert "no *.json instances found" in err


@pytest.mark.parametrize(
    "argv, payload, where",
    [
        (["extend", "--input"], {"m": True, "points": [{"set": [1], "value": "1"}]},
         "field 'm'"),
        (["wtransform", "--input"],
         {"m": True, "values": [{"set": [], "value": "0"}, {"set": [1], "value": "1"}]},
         "field 'm'"),
        (["extend", "--input"], {"m": 2, "points": [{"set": [True], "value": "1"}]},
         "points[0]: element True"),
        (["check", "cut", "--graph"], {"vertices": True, "edges": [], "weights": []},
         "field 'vertices'"),
        (["check", "cut", "--graph"],
         {"vertices": 2, "edges": [[True, 2]], "weights": ["-1/2"]}, "edges[0]"),
        (["gadget", "setcover", "--input"], {"universe": True, "family": [[1]], "k": 1},
         "field 'universe'"),
        (["gadget", "setcover", "--input"], {"universe": 2, "family": [[1, 2]], "k": True},
         "field 'k'"),
        (["gadget", "setcover", "--input"], {"universe": 2, "family": [[True, 2]], "k": 1},
         "family[0]"),
    ],
)
def test_json_booleans_are_not_integers(tmp_path, capsys, argv, payload, where):
    path = write(tmp_path, "bool.json", payload)
    code, out, err = run_cli([*argv, path], capsys)
    assert (code, out) == (1, "")
    assert where in err


@pytest.mark.parametrize(
    "family, where",
    [
        ([[1, 1]], "family[0]: duplicate element 1"),
        ([[1, 2], [3]], "family[1]: element 3 outside 1..2"),
    ],
)
def test_setcover_family_entries_are_sets(tmp_path, capsys, family, where):
    path = write(tmp_path, "sc.json", {"universe": 2, "family": family, "k": 1})
    code, out, err = run_cli(["gadget", "setcover", "--input", path], capsys)
    assert (code, out) == (1, "")
    assert where in err


@pytest.mark.parametrize("value", ["5\n", "1/2\n", "\u0661\u0662"])
def test_rational_strings_are_strict(tmp_path, capsys, value):
    path = write(tmp_path, "inst.json", {"m": 1, "points": [{"set": [1], "value": value}]})
    code, out, err = run_cli(["extend", "--input", path], capsys)
    assert (code, out) == (1, "")
    assert "points[0].value: expected an integer or p/q string" in err


def test_internal_error_in_a_single_file_run_exits_4(tmp_path, capsys, monkeypatch):
    def failing(pf, cap):
        raise AssertionError("internal error: simplex solution failed verification")

    monkeypatch.setattr(cli, "decide_extension", failing)
    path = write(tmp_path, "one.json", ADDITIVE)
    code, out, err = run_cli(["extend", "--input", path], capsys)
    assert (code, out) == (4, "")
    assert err.startswith("Traceback") and err.endswith(
        "AssertionError: internal error: simplex solution failed verification\n"
        "error: AssertionError: internal error: simplex solution failed verification\n")


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "missing" / "tight.json")
    code, out, err = run_cli(["gen", "tight", "--m", "4", "--out", missing], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {missing}: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["extend", "--input", "{instance}"],
        ["extend", "--input", "{batch}"],
        ["gadget", "chromatic", "--graph", "{graph}", "--k", "3", "--out", "-"],
    ],
    ids=["report", "batch", "artifact"],
)
def test_a_closed_stdout_exits_1_with_one_line(tmp_path, argv):
    batch = tmp_path / "batch"
    batch.mkdir()
    files = {"instance": write(batch, "add.json", ADDITIVE), "batch": str(batch),
             "graph": write(tmp_path, "k3.json", K3_GRAPH)}
    read_end, write_end = os.pipe()
    os.close(read_end)  # so the child's first write to stdout fails with EPIPE
    try:
        done = subprocess.run(
            [sys.executable, "-m", "coverext.cli", *(arg.format(**files) for arg in argv)],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (
        1, "error: cannot write stdout: [Errno 32] Broken pipe\n")


def test_exact_kappa_over_the_cap_exits_3(tmp_path, capsys):
    # d = 3 and n - 1 = 3: the cover DP bound min(d, n-1) = 3 exceeds --cap 2
    star = {"m": 3, "points": [{"set": [1, 2, 3], "value": "6"}]
                              + [{"set": [j], "value": "1"} for j in (1, 2, 3)]}
    path = write(tmp_path, "star.json", star)
    code, out, err = run_cli(["approx", "--input", path, "--mode", "exact", "--cap", "2"], capsys)
    assert (code, out) == (3, "")
    assert err == "error: kappa cover DP bound min(d, n-1) = 3 exceeds enumeration cap 2\n"
    code, out, _ = run_cli(["approx", "--input", path, "--mode", "greedy", "--cap", "2"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["kappa"] == "1/2"
    # m = 3 exceeds the cap too, and alpha*'s gate on m is checked first
    code, out, err = run_cli(["approx", "--input", path, "--alpha-star", "--cap", "2"], capsys)
    assert (code, out) == (3, "")
    assert err == "error: ground set size 3 exceeds enumeration cap 2\n"


def _refuse(*args, **kwargs):
    raise AssertionError("work done before the cap was checked")


def test_alpha_star_cap_refuses_before_the_kappa_dp(tmp_path, capsys, monkeypatch):
    # min(d, n-1) = 3 passes --cap 3, m = 4 does not: the cover DP must not run first
    star = {"m": 4, "points": [{"set": [1, 2, 3], "value": "3"}]
                              + [{"set": [j], "value": "1"} for j in (1, 2, 3)]}
    path = write(tmp_path, "star.json", star)
    monkeypatch.setattr(approx, "cheapest_unions", _refuse)
    code, out, err = run_cli(["approx", "--input", path, "--alpha-star", "--cap", "3"], capsys)
    assert (code, out) == (3, "")
    assert err == "error: ground set size 4 exceeds enumeration cap 3\n"


def test_norm_exact_over_the_cap_refuses_before_any_program_is_built(tmp_path, capsys,
                                                                     monkeypatch):
    # at m = 10^7 the restricted program took about 10 s before --exact refused
    pair = {"m": 10**7, "points": [{"set": [1], "value": "1"}, {"set": [1, 2], "value": "2"}]}
    path = write(tmp_path, "pair.json", pair)
    monkeypatch.setattr("coverext.norm._held_singletons", _refuse)
    monkeypatch.setattr("coverext.norm.solve", _refuse)
    code, out, err = run_cli(["norm", "--input", path, "--exact"], capsys)
    assert (code, out) == (3, "")
    assert err == "error: ground set size 10000000 exceeds enumeration cap 24\n"


def test_chi_cap_refuses_before_the_gadget_is_built(tmp_path, capsys, monkeypatch):
    graph = write(tmp_path, "k3.json", K3_GRAPH)
    chromatic = ["gadget", "chromatic", "--graph", graph, "--chi"]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "chromatic_gadget", _refuse)
        code, out, err = run_cli(chromatic + ["--k", "2", "--cap", "2"], capsys)
    assert (code, out) == (3, "")
    assert err == "error: ground set size 3 exceeds enumeration cap 2\n"
    # a bad k: over the cap the cap is named, within it k is, before any LP runs
    assert run_cli(chromatic + ["--k", "5", "--cap", "2"], capsys)[0] == 3
    monkeypatch.setattr(cli, "fractional_chromatic", _refuse)
    code, out, err = run_cli(chromatic + ["--k", "5"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: k = 5 outside [1, 3]\n"


# One run per --cap option in OPTIONS, with the flag that makes the cap bind.
CAP_CASES = {
    "extend": ["extend", "--input", "pf.json"],
    "approx": ["approx", "--input", "pf.json", "--alpha-star"],
    "norm": ["norm", "--input", "pf.json", "--exact"],
    "wtransform": ["wtransform", "--input", "table.json"],
    "gadget-chromatic": ["gadget", "chromatic", "--graph", "graph.json", "--k", "2", "--chi"],
    "gadget-densest": ["gadget", "densest", "--graph", "graph.json", "--density", "1"],
    "gen-tight": ["gen", "tight", "--m", "4"],
    "check-cut": ["check", "cut", "--graph", "graph.json"],
    "check-span": ["check", "span", "--graph", "graph.json"],
}


@pytest.mark.parametrize("argv", CAP_CASES.values(), ids=CAP_CASES.keys())
def test_every_cap_refuses_one_past_it(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "pf.json", {"m": 3, "points": [{"set": [1], "value": "1"},
                                                   {"set": [1, 2, 3], "value": "2"}]})
    write(tmp_path, "table.json",
          {"m": 3, "values": [{"set": [j + 1 for j in range(3) if mask >> j & 1],
                               "value": str(min(mask, 1))} for mask in range(8)]})
    write(tmp_path, "graph.json", {**K3_GRAPH, "weights": ["-1/2", "-1/2", "-1/2"]})
    size = 4 if argv[0] == "gen" else 3
    code, out, err = run_cli(argv + ["--cap", str(size - 1)], capsys)
    assert (code, out) == (3, "")
    assert err == f"error: ground set size {size} exceeds enumeration cap {size - 1}\n"
    assert run_cli(argv + ["--cap", str(size)], capsys)[0] in (0, 2)


@pytest.mark.parametrize("argv", CAP_CASES.values(), ids=CAP_CASES.keys())
def test_a_negative_cap_is_a_usage_error_before_any_input_is_read(tmp_path, capsys,
                                                                   monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # no input file exists: reading one would be a parse error
    code, out, err = run_cli(argv + ["--cap", "-1"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: argument --cap: must be nonnegative, got -1\n"
    assert run_cli(argv + ["--cap", "abc"], capsys) == (
        1, "", "error: argument --cap: invalid int value: 'abc'\n")
    assert "--cap" not in run_cli(argv + ["--cap", "0"], capsys)[2]  # 0 stays a valid cap


# Values 1/(10^2200 + 1) and 1/(10^2200 + 3): exact answers carry denominators
# of about 4400 digits, past Python's default int-string limit of 4300.
LONG_DIGITS = {
    "m": 2,
    "points": [
        {"set": [1], "value": f"1/{10 ** 2200 + 1}"},
        {"set": [2], "value": f"1/{10 ** 2200 + 3}"},
        {"set": [1, 2], "value": "1"},
    ],
}


def test_answers_past_the_int_digit_limit_print_exactly(tmp_path, capsys):
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    before = digit_limit()
    path = write(tmp_path, "long.json", LONG_DIGITS)
    batch = tmp_path / "batch"
    batch.mkdir()
    write(batch, "long.json", LONG_DIGITS)

    def run(command, flag, target):
        code, out, err = run_cli([command, flag, "--input", target], capsys)
        assert (code, err) == (0, "")
        assert digit_limit() == before
        return json.loads(out)

    norm_out = run("norm", "--exact", path)["result"]
    approx_out = run("approx", "--alpha-star", path)["result"]
    assert [report["result"] for report in run("norm", "--exact", str(batch))] == [norm_out]

    instance = serialize.partial_function_from_json(LONG_DIGITS)
    norm = norm_extension_approx(instance, with_exact=True)
    bounds = alpha_bounds(instance, include_alpha_star=True)
    pairs = [(norm_out[key], getattr(norm, key))
             for key in ("opt_restricted", "opt_exact", "additive_bound")]
    for key in ("primal_errors", "dual_restricted", "dual_rounded"):
        pairs += zip(norm_out[key], getattr(norm, key), strict=True)
    pairs += [(approx_out["kappa"], bounds.kappa_estimate), (approx_out["lower"], bounds.lower),
              (approx_out["upper"], bounds.upper), (approx_out["alpha_star"], bounds.alpha_star)]
    assert max(len(text) for text, _ in pairs) > 6000
    if before:  # re-parsing the long strings needs the limit lifted here too
        sys.set_int_max_str_digits(0)
    try:
        assert all(serialize.parse_rational(text) == value for text, value in pairs)
    finally:
        if before:
            sys.set_int_max_str_digits(before)


# One digit past Python's default int-string limit; parsing it would take
# time quadratic in its length, so it is refused before any conversion.
LONG = "1" * 4301
ONE_POINT = '{"m": %s, "points": [{"set": [1], "value": "%s"}]}'


@pytest.mark.parametrize("argv, text, error", [
    (["extend", "--input", "IN"], ONE_POINT % (LONG, "1"), "IN: 4301 digits exceed"),
    (["extend", "--input", "IN"], ONE_POINT % (1, LONG), "points[0].value: 4301 digits exceed"),
    (["extend", "--input", "IN"], ONE_POINT % (1, "1/" + LONG), "points[0].value: 4301 digits"),
    (["gen", "tight", "--m", "4", "--k", LONG], None, "argument --k: invalid int value"),
    (["gadget", "chromatic", "--graph", "IN", "--k", LONG], json.dumps(K3_GRAPH),
     "argument --k: argument: 4301 digits exceed"),
], ids=["m", "value", "denominator", "gen-k", "chromatic-k"])
def test_input_digits_past_the_limit_exit_1_at_once(tmp_path, capsys, argv, text, error):
    path = tmp_path / "in.json"
    if text is not None:
        path.write_text(text)
    argv = [str(path) if arg == "IN" else arg for arg in argv]
    started = time.monotonic()
    code, out, err = run_cli(argv, capsys)
    assert time.monotonic() - started < 1
    assert (code, out) == (1, "")
    assert err.startswith("error: " + error.replace("IN", str(path)))


def test_a_value_at_the_digit_limit_parses_and_prints(tmp_path, capsys):
    path = write(tmp_path, "long.json", json.loads(ONE_POINT % (1, "9" * 4300)))
    code, out, _ = run_cli(["extend", "--input", path], capsys)
    assert code == 0
    assert json.loads(out)["result"]["witness"] == [{"set": [1], "weight": "9" * 4300}]


@pytest.mark.parametrize("k", [10 ** 8, int("9" * 4300)], ids=["1e8", "4300-digits"])
def test_gen_tight_refuses_more_draws_than_the_cap_at_once(capsys, k):
    started = time.monotonic()
    code, out, err = run_cli(["gen", "tight", "--m", "4", "--k", str(k)], capsys)
    assert time.monotonic() - started < 1
    assert (code, out) == (3, "")
    assert err == "error: k * 4 transversal draws exceed 2^24\n"


def test_gen_tight_exits_1_on_m_1_and_when_the_draws_run_out(capsys, monkeypatch):
    code, out, err = run_cli(["gen", "tight", "--m", "1"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: m = 1 has no transversal to draw; the smallest family is m = 4\n"
    monkeypatch.setattr(approx, "span_violation", lambda m, sets, weights: 1)  # refuse every draw
    code, out, err = run_cli(["gen", "tight", "--m", "4", "--seed", "5"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: no valid transversal draw within 64 attempts (m=4, k=2, seed=5)\n"


def test_wtransform_refuses_a_short_table_at_a_huge_m_at_once(tmp_path, capsys):
    # 2^m is never built: at m = 10**9 it would be a 125 MB int
    path = write(tmp_path, "huge.json", {"m": 10 ** 9, "values": []})
    started = time.monotonic()
    code, out, err = run_cli(["wtransform", "--input", path], capsys)
    assert time.monotonic() - started < 1
    assert (code, out) == (1, "")
    assert err == "error: total function on m=1000000000 needs all 2^1000000000 subsets, got 0\n"


# Every option of every command with its default: a new or changed knob
# shows up here as a reviewed edit.
OPTIONS = [
    ("extend", "--input", None),
    ("extend", "--cap", 24),
    ("approx", "--input", None),
    ("approx", "--mode", "exact"),
    ("approx", "--alpha-star", False),
    ("approx", "--cap", 24),
    ("norm", "--input", None),
    ("norm", "--exact", False),
    ("norm", "--cap", 24),
    ("wtransform", "--input", None),
    ("wtransform", "--cap", 24),
    ("gadget chromatic", "--graph", None),
    ("gadget chromatic", "--k", None),
    ("gadget chromatic", "--chi", False),
    ("gadget chromatic", "--out", None),
    ("gadget chromatic", "--cap", 24),
    ("gadget setcover", "--input", None),
    ("gadget setcover", "--out", None),
    ("gadget cut2span", "--graph", None),
    ("gadget cut2span", "--allow-wide-weights", False),
    ("gadget cut2span", "--out", None),
    ("gadget densest", "--graph", None),
    ("gadget densest", "--density", None),
    ("gadget densest", "--out", None),
    ("gadget densest", "--cap", 24),
    ("gen tight", "--m", None),
    ("gen tight", "--k", 2),
    ("gen tight", "--seed", 0),
    ("gen tight", "--out", None),
    ("gen tight", "--cap", 24),
    ("check cut", "--graph", None),
    ("check cut", "--cap", 24),
    ("check span", "--graph", None),
    ("check span", "--cap", 24),
]


def _options(parser, command=()):
    """(command path, option strings, default) of every option under parser, in --help order."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _options(sub, command + (name,))
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            yield " ".join(command), ", ".join(action.option_strings), action.default


def test_every_option_and_default_is_pinned():
    assert list(_options(cli._build_parser())) == OPTIONS
