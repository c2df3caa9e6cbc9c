"""CLI dispatch, exit codes, file round-trips, and pipelines."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coverext import cli
from coverext.cli import main

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

    monkeypatch.setattr(cli.multiprocessing, "Pool", RecordingPool)
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
