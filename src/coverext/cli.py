"""Command-line front end.

Every command reads JSON artifacts, dispatches to the library, and emits
a run report (command echo, input digest, result payload, wall time,
solver statistics) as JSON on stdout. Generator commands can write their
artifact to a file with --out, or to stdout with --out - (the report then
moves to stderr) so commands compose in a pipeline.

Exit codes are a stable contract for scripting:
  0  success
  1  usage or parse error
  2  mathematical negative (not extendible / outside the polytope / not coverage)
  3  enumeration cap exceeded
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

from . import lp, serialize
from .approx import alpha_bounds, generate_tight_instance
from .errors import CapExceededError, InstanceParseError, SeedExhaustedError
from .extension import decide_extension
from .gadgets import (
    check_cut_membership,
    check_span_membership,
    chromatic_gadget,
    cut_to_span_gadget,
    densest_cut_report,
    fractional_chromatic,
    setcover_membership_gadget,
)
from .norm import norm_extension_approx
from .setfun import DEFAULT_ENUMERATION_CAP, is_coverage, mask_to_elements, w_transform

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_CAP = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 by default; our contract reserves 2 for
    # mathematical negatives, so usage problems are rethrown as exceptions.
    def error(self, message):
        raise _UsageError(message)


def _rational_arg(text):
    try:
        return serialize.parse_rational(text, "argument")
    except InstanceParseError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _read_json(path: str):
    if path == "-":
        raw = sys.stdin.buffer.read()
    else:
        try:
            raw = Path(path).read_bytes()
        except OSError as exc:
            raise InstanceParseError(f"cannot read {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        return json.loads(raw), digest
    except json.JSONDecodeError as exc:
        raise InstanceParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def _report(command, argv, digest, payload, started):
    return {
        "command": command,
        "argv": list(argv),
        "input_digest": digest,
        "result": payload,
        "wall_time_ms": int((time.monotonic() - started) * 1000),
        "solver": lp.stats_snapshot(),
    }


def _emit(report, artifact, out):
    """Route report/artifact between stdout, stderr, and files."""
    text = json.dumps(report, indent=2)
    if out is None:
        print(text)
    elif out == "-":
        json.dump(artifact, sys.stdout, indent=2)
        sys.stdout.write("\n")
        print(text, file=sys.stderr)
    else:
        Path(out).write_text(json.dumps(artifact, indent=2) + "\n")
        print(text)


# --- instance commands (extend / approx / norm) --------------------------------


def _instance_paths(path: str):
    p = Path(path)
    if path != "-" and p.is_dir():
        return sorted(str(f) for f in p.glob("*.json"))
    return None


def _cmd_extend_single(path, opts, argv):
    started = time.monotonic()
    lp.stats_reset()
    data, digest = _read_json(path)
    instance = serialize.partial_function_from_json(data)
    verdict = decide_extension(instance, cap=opts["cap"])
    payload = serialize.verdict_to_json(verdict)
    if opts["certify"]:  # decide_extension returns only what it has verified
        payload["verified"] = True
    code = EXIT_OK if verdict.extendible else EXIT_NEGATIVE
    return _report("extend", argv, digest, payload, started), code


def _cmd_approx_single(path, opts, argv):
    started = time.monotonic()
    lp.stats_reset()
    data, digest = _read_json(path)
    instance = serialize.partial_function_from_json(data)
    bounds = alpha_bounds(
        instance,
        mode=opts["mode"],
        include_alpha_star=opts["alpha_star"],
        cap=opts["cap"],
    )
    payload = serialize.alpha_bounds_to_json(bounds)
    payload["n"] = instance.n
    payload["d"] = instance.d
    return _report("approx", argv, digest, payload, started), EXIT_OK


def _cmd_norm_single(path, opts, argv):
    started = time.monotonic()
    lp.stats_reset()
    data, digest = _read_json(path)
    instance = serialize.partial_function_from_json(data)
    result = norm_extension_approx(instance, with_exact=opts["exact"], cap=opts["cap"])
    payload = serialize.norm_result_to_json(result)
    return _report("norm", argv, digest, payload, started), EXIT_OK


_SINGLE_RUNNERS = {
    "extend": _cmd_extend_single,
    "approx": _cmd_approx_single,
    "norm": _cmd_norm_single,
}


def _pool_worker(job):
    name, path, opts, argv = job
    try:
        return _SINGLE_RUNNERS[name](path, opts, argv)
    except CapExceededError as exc:
        return {"command": name, "input": path, "error": str(exc)}, EXIT_CAP
    except (InstanceParseError, ValueError) as exc:
        return {"command": name, "input": path, "error": str(exc)}, EXIT_USAGE


def _run_instance_command(name, args, argv):
    opts = {
        "cap": args.cap,
        "certify": getattr(args, "certify", False),
        "mode": getattr(args, "mode", "exact"),
        "alpha_star": getattr(args, "alpha_star", False),
        "exact": getattr(args, "exact", False),
    }
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
    batch = _instance_paths(args.input)
    if batch is None:
        report, code = _SINGLE_RUNNERS[name](args.input, opts, argv)
        print(json.dumps(report, indent=2))
        return code
    jobs = [(name, path, opts, argv) for path in batch]
    workers = min(args.jobs, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_pool_worker, jobs)
    else:
        results = [_pool_worker(job) for job in jobs]
    print(json.dumps([r for r, _ in results], indent=2))
    return max((code for _, code in results), default=EXIT_OK)


# --- remaining commands ---------------------------------------------------------


def _cmd_wtransform(args, argv):
    started = time.monotonic()
    lp.stats_reset()
    data, digest = _read_json(args.input)
    total = serialize.total_function_from_json(data)
    coeffs = w_transform(total, cap=args.cap)
    check = is_coverage(total, cap=args.cap)
    payload = {
        "m": total.m,
        "coefficients": serialize.wcoeffs_to_json(coeffs),
        "is_coverage": check.is_coverage,
    }
    if not check.is_coverage:
        payload["violating_set"] = mask_to_elements(check.violating_set)
        payload["coefficient"] = serialize.format_rational(check.coefficient)
    print(json.dumps(_report("wtransform", argv, digest, payload, started), indent=2))
    return EXIT_OK if check.is_coverage else EXIT_NEGATIVE


def _cmd_gadget(args, argv):
    started = time.monotonic()
    lp.stats_reset()
    kind = args.kind
    if kind == "chromatic":
        data, digest = _read_json(args.graph)
        graph = serialize.graph_from_json(data)
        instance = chromatic_gadget(graph, args.k)
        artifact = serialize.partial_function_to_json(instance)
        payload = {"kind": kind, "k": serialize.format_rational(args.k), "instance": artifact}
        if args.chi:
            chi, _ = fractional_chromatic(graph, cap=args.cap)
            payload["chi"] = serialize.format_rational(chi)
    elif kind == "setcover":
        data, digest = _read_json(args.input)
        universe, family, k = serialize.setcover_from_json(data)
        inst = setcover_membership_gadget(universe, family, k)
        artifact = serialize.membership_to_json(inst)
        payload = {"kind": kind, "instance": artifact}
    elif kind == "cut2span":
        data, digest = _read_json(args.graph)
        graph = serialize.graph_from_json(data)
        gadget, scale = cut_to_span_gadget(graph, enforce_box=not args.allow_wide_weights)
        artifact = serialize.graph_to_json(gadget)
        payload = {"kind": kind, "scale": serialize.format_rational(scale), "graph": artifact}
    elif kind == "densest":
        data, digest = _read_json(args.graph)
        graph = serialize.graph_from_json(data)
        report = densest_cut_report(graph, args.density, cap=args.cap)
        artifact = serialize.graph_to_json(report.gadget)
        payload = {
            "kind": kind,
            "density": serialize.format_rational(args.density),
            "graph": artifact,
            "max_cut_value": serialize.format_rational(report.max_cut_value),
            "exceeds_density": report.exceeds_density,
            "boundary": report.boundary,
        }
    else:  # pragma: no cover - argparse restricts choices
        raise _UsageError(f"unknown gadget {kind!r}")
    _emit(_report("gadget", argv, digest, payload, started), artifact, args.out)
    return EXIT_OK


def _cmd_gen(args, argv):
    started = time.monotonic()
    lp.stats_reset()
    instance = generate_tight_instance(args.m, k=args.k, seed=args.seed, cap=args.cap)
    artifact = serialize.partial_function_to_json(instance)
    payload = {"kind": "tight", "m": args.m, "k": args.k, "seed": args.seed, "instance": artifact}
    digest = hashlib.sha256(json.dumps(payload["instance"]).encode()).hexdigest()
    _emit(_report("gen", argv, digest, payload, started), artifact, args.out)
    return EXIT_OK


def _cmd_check(args, argv):
    started = time.monotonic()
    lp.stats_reset()
    data, digest = _read_json(args.graph)
    graph = serialize.graph_from_json(data)
    if graph.weights is None:
        raise InstanceParseError("membership checks need an edge-weighted graph")
    checker = check_cut_membership if args.kind == "cut" else check_span_membership
    result = checker(graph, cap=args.cap)
    payload = {"kind": args.kind, "inside": result.inside}
    if result.violated_set is not None:
        payload["violated_set"] = mask_to_elements(result.violated_set)
    if result.box_edge is not None:
        payload["box_edge"] = list(graph.edges[result.box_edge])
    print(json.dumps(_report("check", argv, digest, payload, started), indent=2))
    return EXIT_OK if result.inside else EXIT_NEGATIVE


# --- parser -----------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="coverext", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cap(p):
        p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                       help="exhaustive-enumeration cap on the ground set size")

    p = sub.add_parser("extend", help="decide coverage extendibility; emit a witness "
                                      "(weighted universe) or a refuting certificate")
    p.add_argument("--input", required=True, help="instance file, directory, or - for stdin")
    p.add_argument("--certify", action="store_true",
                   help="report that the witness/certificate passed verification")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for a directory input")
    add_cap(p)

    p = sub.add_parser("approx", help="bracket the least multiplicative stretch alpha* "
                                      "via the replacement ratio")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=["exact", "greedy"], default="exact")
    p.add_argument("--alpha-star", action="store_true", dest="alpha_star",
                   help="also solve the exact stretch optimum (enumerates 2^m)")
    p.add_argument("--jobs", type=int, default=1)
    add_cap(p)

    p = sub.add_parser("norm", help="minimize total absolute error with singleton "
                                    "universe elements; certified additive guarantee")
    p.add_argument("--input", required=True)
    p.add_argument("--exact", action="store_true",
                   help="also solve the unrestricted optimum (enumerates 2^m)")
    p.add_argument("--jobs", type=int, default=1)
    add_cap(p)

    p = sub.add_parser("wtransform", help="transform a full value table to universe "
                                          "weights and test coverage validity")
    p.add_argument("--input", required=True)
    add_cap(p)

    p = sub.add_parser("gadget", help="build a reduction instance")
    gsub = p.add_subparsers(dest="kind", required=True)

    g = gsub.add_parser("chromatic", help="graph coloring threshold as an extension "
                                          "instance (1 on vertices, 2 on edges, k overall)")
    g.add_argument("--graph", required=True)
    g.add_argument("--k", type=_rational_arg, required=True)
    g.add_argument("--chi", action="store_true",
                   help="also compute the fractional chromatic number")
    g.add_argument("--out", help="write the instance here; - for stdout")
    add_cap(g)

    g = gsub.add_parser("setcover", help="set-cover question as a coverage membership "
                                         "point with a +/- 1/(2L) margin")
    g.add_argument("--input", required=True)
    g.add_argument("--out", help="write the membership instance here; - for stdout")

    g = gsub.add_parser("cut2span", help="cut membership as span membership via a hub "
                                         "vertex; span sums track half the cut sums")
    g.add_argument("--graph", required=True)
    g.add_argument("--allow-wide-weights", action="store_true",
                   help="skip the unit-box precondition on input weights")
    g.add_argument("--out", help="write the gadget graph here; - for stdout")

    g = gsub.add_parser("densest", help="cut-density threshold as a complete reweighted "
                                        "graph whose cut signs answer the comparison")
    g.add_argument("--graph", required=True)
    g.add_argument("--density", type=_rational_arg, required=True)
    g.add_argument("--out", help="write the gadget graph here; - for stdout")
    add_cap(g)

    p = sub.add_parser("gen", help="generate a validated instance family")
    gsub = p.add_subparsers(dest="kind", required=True)
    g = gsub.add_parser("tight", help="blocks-vs-transversals family with unit "
                                      "replacement ratio, validated over all subsets")
    g.add_argument("--m", type=int, required=True, help="ground set size (perfect square)")
    g.add_argument("--k", type=int, default=2, help="transversal multiplier")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", help="write the instance here; - for stdout")
    add_cap(g)

    p = sub.add_parser("check", help="brute-force polytope membership of a weighted graph")
    csub = p.add_subparsers(dest="kind", required=True)
    for kind, blurb in (("cut", "all cut sums <= 0"), ("span", "all span sums <= 0")):
        c = csub.add_parser(kind, help=f"{blurb}, plus the unit box")
        c.add_argument("--graph", required=True)
        add_cap(c)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in _SINGLE_RUNNERS:
            return _run_instance_command(args.command, args, argv)
        if args.command == "wtransform":
            return _cmd_wtransform(args, argv)
        if args.command == "gadget":
            return _cmd_gadget(args, argv)
        if args.command == "gen":
            return _cmd_gen(args, argv)
        if args.command == "check":
            return _cmd_check(args, argv)
        raise _UsageError(f"unknown command {args.command!r}")
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (_UsageError, SeedExhaustedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
