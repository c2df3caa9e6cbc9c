"""cli-small: one coverext subprocess at a time on small inputs.

Interpreter start, import, JSON parse and emit and report assembly
dominate; the LP solves are tiny and carry duals. A change that adds fixed
cost per solve, per import or per command shows here even when exact-solve
gains. Each block holds twelve commands in a seeded order, on instances
with m <= 7 (tables up to m = 12):

  extend (planted extendible, exit 0; planted refutable, exit 2),
  approx --mode exact --alpha-star, approx --mode greedy --alpha-star,
  norm --exact, wtransform (m = 10 coverage, exit 0; m = 12 with one
  planted negative coefficient, exit 2), gen tight --m 9, check span,
  check cut, and the pipe ``gadget chromatic --graph C5 --k K --out - |
  extend --input -`` with K = 5/2 (exit 0) and K = 2 (exit 2).

The two processes of a pipe are the only concurrency. A traced command
runs through clitrace.py, which records spans inside the child process.
Commands run in the work directory and name their input files relative
to it, because the CLI echoes its argv into every report: the bytes it
emits must not depend on where the checkout lies.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from coverext.setfun import PartialFunction

import planted
from paths import HERE, child_env
from planted import expect

MIN_SAMPLES = 100
# Times stay raw: the commands run in child processes on either CPU, and a
# probe in this process does not follow their speed. Scaled by the mean
# probe of both CPUs, answers_per_s over seeds 201-205 spread by 0.14
# instead of 0.06.
HOST_PROBE = None
# About as many blocks as a run covers: the approx commands near the p90
# tail cost what their random instance makes them cost, so a run should
# see many instances, not the same few again.
BLOCKS = 12
TIMEOUT_S = 120
C5 = {"vertices": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]}


def _write(workdir: Path, name: str, payload) -> str:
    """Write payload as JSON under workdir; returns the name relative to it."""
    (workdir / name).write_text(json.dumps(payload))
    return name


def _pf_json(pf: PartialFunction) -> dict:
    return {"m": pf.m, "points": [{"set": _elements(mask), "value": str(v)}
                                  for mask, v in pf.points]}


def _elements(mask: int) -> list[int]:
    return [j + 1 for j in range(mask.bit_length()) if mask >> j & 1]


def _mask(elements) -> int:
    return sum(1 << (e - 1) for e in elements)


def _graph_json(rng, vertices: int) -> dict:
    edges = planted.random_edges(rng, vertices, 0.5)
    return {"vertices": vertices, "edges": [list(e) for e in edges],
            "weights": [str(Fraction(-rng.randint(0, 4), 4)) for _ in edges]}


def make_requests(seed: int, workdir: Path) -> list[list[tuple]]:
    c5 = _write(workdir, "c5.json", C5)
    blocks = []
    for b in range(BLOCKS):
        rng = random.Random(f"cli-small:{seed}:{b}")
        (workdir / f"block{b}").mkdir()

        def write(name, payload, b=b):
            return _write(workdir, f"block{b}/{name}", payload)

        ext = planted.planted_extendible(rng, 7, 10)
        ref = planted.planted_refutable(rng, 7, 10)
        rand = planted.random_points(rng, 7, 10)
        norm = planted.random_points(rng, 7, 10)
        block = [
            ("extend", (True, ext), ["extend", "--input", write("ext.json", _pf_json(ext))]),
            ("extend", (False, ref), ["extend", "--input", write("ref.json", _pf_json(ref))]),
            ("norm", norm, ["norm", "--input", write("norm.json", _pf_json(norm)), "--exact"]),
            ("gen", None, ["gen", "tight", "--m", "9", "--seed", str(rng.randrange(1 << 30))]),
        ]
        path = write("rand.json", _pf_json(rand))
        for mode in ("exact", "greedy"):
            block.append(("approx", rand, ["approx", "--input", path, "--mode", mode,
                                           "--alpha-star"]))
        for m, negative in ((10, False), (12, True)):
            values, support, violating = planted.planted_table(rng, m, negative)
            table = {"m": m, "values": [{"set": _elements(s), "value": str(v)}
                                        for s, v in enumerate(values)]}
            path = write(f"table{m}.json", table)
            block.append(("wtransform", (support, violating), ["wtransform", "--input", path]))
        for kind in ("span", "cut"):
            path = write(f"graph_{kind}.json", _graph_json(rng, 7))
            block.append(("check", None, ["check", kind, "--graph", path]))
        for k, extendible in (("5/2", True), ("2", False)):
            block.append(("pipe", extendible, [
                ["gadget", "chromatic", "--graph", c5, "--k", k, "--out", "-"],
                ["extend", "--input", "-"],
            ]))
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def _command(argv, spans):
    if spans is None:
        return [sys.executable, "-m", "coverext.cli", *argv]
    return [sys.executable, str(HERE / "clitrace.py"), str(spans), *argv]


def _spans_paths(tracer, workdir: Path, count: int):
    if tracer is None:
        return [None] * count
    return [workdir / f"spans{i}.json" for i in range(count)]


def execute(request, tracer, workdir: Path):
    """Run the command (or pipe); returns (exit codes, stdout of the last command)."""
    kind, _, argv = request
    env = child_env()
    if kind != "pipe":
        (spans,) = _spans_paths(tracer, workdir, 1)
        proc = subprocess.run(_command(argv, spans), env=env, cwd=workdir,
                              capture_output=True, timeout=TIMEOUT_S)
        codes, out = (proc.returncode,), proc.stdout
        spans_files = [spans]
    else:
        spans_files = _spans_paths(tracer, workdir, 2)
        first = subprocess.Popen(_command(argv[0], spans_files[0]), env=env, cwd=workdir,
                                 stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            second = subprocess.Popen(_command(argv[1], spans_files[1]), env=env,
                                      cwd=workdir, stdin=first.stdout, stdout=subprocess.PIPE,
                                      stderr=subprocess.DEVNULL)
            first.stdout.close()
            try:
                out, _ = second.communicate(timeout=TIMEOUT_S)
            finally:
                if second.poll() is None:
                    second.kill()
                    second.wait()
        finally:
            try:
                first.wait(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                first.kill()
                first.wait()
        codes = (first.returncode, second.returncode)
    if tracer is not None:
        for path in spans_files:
            recorded = json.loads(path.read_text())
            tracer.adopt(recorded["spans"], recorded["counts"])
            path.unlink()
    return codes, out


def import_costs(reps: int = 5) -> dict[str, float]:
    """Median wall ms of a bare interpreter and of one that imports coverext.cli."""
    bare, loaded = [], []
    env = child_env()
    for _ in range(reps):
        for code, into in (("pass", bare), ("import coverext.cli", loaded)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=TIMEOUT_S)
            into.append((time.perf_counter() - start) * 1000)
    bare_ms = sorted(bare)[reps // 2]
    return {"cli.interpreter_ms": bare_ms,
            "cli.import_ms": sorted(loaded)[reps // 2] - bare_ms}


# --- checks ---------------------------------------------------------------------------------


def _rational(text):
    return math.inf if text == "inf" else Fraction(text)


def _support(entries):
    return tuple((_mask(e["set"]), Fraction(e["weight"])) for e in entries)


def check(request, answer) -> None:
    kind, truth, argv = request
    codes, out = answer
    if kind == "pipe":
        expect(codes == (0, 0 if truth else 2), f"pipe exit codes {codes}")
        status = json.loads(out)["result"]["status"]
        expect(status == ("extendible" if truth else "not_extendible"), "pipe verdict is wrong")
        return
    code = codes[0]
    result = json.loads(out)["result"] if out else None
    if kind == "extend":
        extendible, pf = truth
        expect(code == (0 if extendible else 2), f"extend exit code {code}")
        if extendible:
            planted.check_witness(pf, _support(result["witness"]))
        else:
            planted.check_certificate(pf, [Fraction(x) for x in result["certificate"]])
    elif kind == "approx":
        expect(code == 0, f"approx exit code {code}")
        lower, upper = _rational(result["lower"]), _rational(result["upper"])
        expect(lower <= _rational(result["alpha_star"]) <= upper, "alpha* outside its bracket")
    elif kind == "norm":
        expect(code == 0, f"norm exit code {code}")
        planted.check_norm(truth, Fraction(result["opt_restricted"]),
                           _support(result["witness"]), Fraction(result["opt_exact"]))
    elif kind == "wtransform":
        support, violating = truth
        expect(code == (0 if violating is None else 2), f"wtransform exit code {code}")
        planted.check_coefficients(_support(result["coefficients"]), support)
        if violating is not None:
            expect(_mask(result["violating_set"]) == violating, "violating set is wrong")
    elif kind == "gen":
        expect(code == 0, f"gen exit code {code}")
        inst = result["instance"]
        pf = PartialFunction(inst["m"], tuple((_mask(p["set"]), Fraction(p["value"]))
                                              for p in inst["points"]))
        planted.check_tight(pf, 9)
    else:
        expect(code == 0 and result["inside"] is True, "graph with weights in [-1, 0] is outside")
