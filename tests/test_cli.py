"""CLI dispatch, exit codes, file round-trips, and pipelines."""

import argparse
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from coverext import cli, serialize, setfun
from coverext.approx import alpha_bounds
from coverext.cli import main
from coverext.norm import norm_extension_approx

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
    code, out, _ = run_cli(["extend", "--input", path, "--certify"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["status"] == "extendible"
    assert report["result"]["verified"] is True
    assert len(report["result"]["witness"]) <= 3
    assert report["solver"]["pivots"] > 0
    assert report["command"] == "extend"


def test_extend_negative(tmp_path, capsys):
    path = write(tmp_path, "inst.json", SUPERADDITIVE)
    code, out, _ = run_cli(["extend", "--input", path, "--certify"], capsys)
    assert code == 2
    report = json.loads(out)
    assert report["result"]["status"] == "not_extendible"
    assert report["result"]["verified"] is True
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
    assert json.loads(out)["result"]["seed"] == 7
    code, out, _ = run_cli(["approx", "--input", out_file], capsys)
    assert code == 0
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


def test_directory_batch_with_jobs(tmp_path, capsys):
    write(tmp_path, "a.json", ADDITIVE)
    write(tmp_path, "b.json", SUPERADDITIVE)
    code, out, _ = run_cli(["extend", "--input", str(tmp_path), "--jobs", "2"], capsys)
    assert code == 2  # worst result in the batch
    reports = json.loads(out)
    assert len(reports) == 2
    statuses = {r["result"]["status"] for r in reports}
    assert statuses == {"extendible", "not_extendible"}



def test_jobs_below_one_is_a_usage_error(tmp_path, capsys):
    write(tmp_path, "a.json", ADDITIVE)
    code, out, err = run_cli(["extend", "--input", str(tmp_path), "--jobs", "0"], capsys)
    assert code == 1
    assert out == ""
    assert "--jobs" in err


def test_jobs_clamped_to_batch_and_cpus(tmp_path, capsys, monkeypatch):
    requested = []

    class RecordingPool:
        def __init__(self, size):
            requested.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    for name in ("a.json", "b.json", "c.json"):
        write(tmp_path, name, ADDITIVE)
    for cpus, want in ((8, 3), (2, 2)):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        code, out, _ = run_cli(["extend", "--input", str(tmp_path), "--jobs", "5000"], capsys)
        assert code == 0
        assert len(json.loads(out)) == 3
        assert requested[-1] == want
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    run_cli(["extend", "--input", str(tmp_path), "--jobs", "5000"], capsys)
    assert len(requested) == 2  # one usable CPU: the batch runs in this process

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


def test_importing_the_cli_leaves_multiprocessing_out():
    # only a directory batch with --jobs > 1 needs a process pool
    probe = "import sys, coverext.cli; print('multiprocessing' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), check=True)
    assert done.stdout == "False\n"


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
        emitted = json.dumps(report["result"]["instance"]).encode()
    else:
        emitted = (tmp_path / argv[argv.index("--graph" if "--graph" in argv else "--input")
                            + 1]).read_bytes()
    assert report["input_digest"] == hashlib.sha256(emitted).hexdigest()
    if routed:  # --out -: the artifact alone on stdout, the report on stderr
        assert json.loads(out) == report["result"]["instance"]
    else:
        assert err == ""


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


# Every option of every command with its default: a new or changed knob
# shows up here as a reviewed edit.
OPTIONS = [
    ("extend", "--input", None),
    ("extend", "--certify", False),
    ("extend", "--jobs", 1),
    ("extend", "--cap", 24),
    ("approx", "--input", None),
    ("approx", "--mode", "exact"),
    ("approx", "--alpha-star", False),
    ("approx", "--jobs", 1),
    ("approx", "--cap", 24),
    ("norm", "--input", None),
    ("norm", "--exact", False),
    ("norm", "--jobs", 1),
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
