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
  4  internal error, with its traceback on stderr (a directory batch goes on past it)
"""

from __future__ import annotations

import argparse
import hashlib
import json
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
from .setfun import DEFAULT_ENUMERATION_CAP, coverage_check, mask_to_elements
from .setfun import require_enumerable, w_transform
from .setfun import is_coverage  # unused here, but perfbench's command probes wrap it by name

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


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
        return json.loads(raw, parse_int=lambda text: serialize.parse_int(text, path)), digest
    except json.JSONDecodeError as exc:
        raise InstanceParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise InstanceParseError(f"{path}: invalid JSON: nested too deeply") from exc
    except UnicodeDecodeError as exc:
        raise InstanceParseError(f"{path}: invalid JSON encoding: {exc}") from exc


def _emit(report, artifact, out):
    """Route the report and the artifact's JSON text between stdout, stderr, and files."""
    text = json.dumps(report, indent=2)
    if out not in (None, "-"):
        try:
            Path(out).write_text(artifact)
        except OSError as exc:
            raise _UsageError(f"cannot write {out}: {exc}") from exc
    try:
        if out == "-":
            sys.stdout.write(artifact)
        else:
            print(text)
        sys.stdout.flush()  # here, where a closed stdout is still an error to report
    except OSError as exc:
        import os  # here, not at the top: only a failed write needs it

        # Python flushes stdout once more at exit; devnull takes that flush instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise _UsageError(f"cannot write stdout: {exc}") from exc
    if out == "-":
        print(text, file=sys.stderr)


# --- command bodies: (args, parsed input) -> (payload, artifact, exit code) --------
#
# Library functions are looked up as module globals when a body runs, so a
# caller may wrap them (the benchmark's probes do) without touching this table.


def _extend(args, data):
    verdict = decide_extension(serialize.partial_function_from_json(data), cap=args.cap)
    payload = serialize.verdict_to_json(verdict)
    return payload, None, EXIT_OK if verdict.extendible else EXIT_NEGATIVE


def _approx(args, data):
    instance = serialize.partial_function_from_json(data)
    bounds = alpha_bounds(
        instance, mode=args.mode, include_alpha_star=args.alpha_star, cap=args.cap
    )
    payload = serialize.alpha_bounds_to_json(bounds)
    payload["n"] = instance.n
    payload["d"] = instance.d
    return payload, None, EXIT_OK


def _norm(args, data):
    instance = serialize.partial_function_from_json(data)
    result = norm_extension_approx(instance, with_exact=args.exact, cap=args.cap)
    return serialize.norm_result_to_json(result), None, EXIT_OK


def _wtransform(args, data):
    total = serialize.total_function_from_json(data)
    coeffs = w_transform(total, cap=args.cap)
    check = coverage_check(coeffs.support)
    payload = {
        "m": total.m,
        "coefficients": serialize.wcoeffs_to_json(coeffs),
        "is_coverage": check.is_coverage,
    }
    if not check.is_coverage:
        payload["violating_set"] = mask_to_elements(check.violating_set)
        payload["coefficient"] = serialize.format_rational(check.coefficient)
    return payload, None, EXIT_OK if check.is_coverage else EXIT_NEGATIVE


def _gadget(args, data):
    kind = args.kind
    if kind == "setcover":
        universe, family, k = serialize.setcover_from_json(data)
        artifact = serialize.membership_to_json(setcover_membership_gadget(universe, family, k))
        return {"kind": kind, "instance": artifact}, artifact, EXIT_OK
    graph = serialize.graph_from_json(data)
    if kind == "chromatic":
        if args.chi:  # chi's cap, before the gadget builds its n-bit point masks
            require_enumerable(graph.num_vertices, args.cap)
        artifact = serialize.partial_function_to_json(chromatic_gadget(graph, args.k))
        payload = {"kind": kind, "k": serialize.format_rational(args.k), "instance": artifact}
        if args.chi:
            chi, _ = fractional_chromatic(graph, cap=args.cap)
            payload["chi"] = serialize.format_rational(chi)
    elif kind == "cut2span":
        gadget, scale = cut_to_span_gadget(graph, enforce_box=not args.allow_wide_weights)
        artifact = serialize.graph_to_json(gadget)
        payload = {"kind": kind, "scale": serialize.format_rational(scale), "graph": artifact}
    else:  # densest
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
    return payload, artifact, EXIT_OK


def _gen(args, data):
    instance = generate_tight_instance(args.m, k=args.k, seed=args.seed, cap=args.cap)
    artifact = serialize.partial_function_to_json(instance)
    payload = {"kind": "tight", "m": args.m, "k": args.k, "seed": args.seed, "instance": artifact}
    return payload, artifact, EXIT_OK


def _check(args, data):
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
    return payload, None, EXIT_OK if result.inside else EXIT_NEGATIVE


_COMMANDS = {
    "extend": _extend,
    "approx": _approx,
    "norm": _norm,
    "wtransform": _wtransform,
    "gadget": _gadget,
    "gen": _gen,
    "check": _check,
}

# Errors that end a run with an exit code and a message instead of a traceback.
_EXIT_CODES = {
    CapExceededError: EXIT_CAP,
    _UsageError: EXIT_USAGE,
    SeedExhaustedError: EXIT_USAGE,
    ValueError: EXIT_USAGE,  # includes InstanceParseError
}


def _failure(exc: Exception) -> tuple[str, int]:
    """Message and exit code of an exception that ends a run (main or one batch entry).

    Anything outside _EXIT_CODES, say a failed internal verification, is an
    internal error: EXIT_INTERNAL, with its traceback on stderr.
    """
    for kind, code in _EXIT_CODES.items():
        if isinstance(exc, kind):
            return str(exc), code
    import traceback  # here, not at the top: every command would pay for the import

    traceback.print_exception(exc)
    return f"{type(exc).__name__}: {exc}", EXIT_INTERNAL


def _run(args, argv, path):
    """Run one command on one input; returns (run report, artifact JSON text, exit code).

    path is None for commands that read nothing (gen); their input digest is
    that of the artifact's text, the bytes that --out writes.
    """
    started = time.monotonic()
    lp.stats_reset()
    data, digest = (None, None) if path is None else _read_json(path)
    payload, artifact, code = _COMMANDS[args.command](args, data)
    if artifact is not None:
        artifact = json.dumps(artifact, indent=2) + "\n"
    if path is None:
        digest = hashlib.sha256(artifact.encode()).hexdigest()
    report = {
        "command": args.command,
        "argv": list(argv),
        "input_digest": digest,
        "result": payload,
        "wall_time_ms": int((time.monotonic() - started) * 1000),
        "solver": lp.stats_snapshot(),
    }
    return report, artifact, code


# --- directory batches (extend / approx / norm) ------------------------------------


def _batch_paths(args):
    """The *.json files when an instance command is given a directory, else None."""
    if not args.batch or args.input == "-" or not Path(args.input).is_dir():
        return None
    paths = sorted(str(f) for f in Path(args.input).glob("*.json"))
    if not paths:
        raise _UsageError(f"no *.json instances found in {args.input}")
    return paths


def _run_batch(args, argv, paths):
    """Run the files one at a time; returns the worst exit code in the batch.

    Every exception becomes an error record, so one instance cannot abort
    the batch.
    """
    reports, worst = [], EXIT_OK
    for path in paths:
        try:
            report, _, code = _run(args, argv, path)
        except Exception as exc:
            error, code = _failure(exc)
            report = {"command": args.command, "input": path, "error": error}
        reports.append(report)
        worst = max(worst, code)
    _emit(reports, None, None)
    return worst


# --- parser -----------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="coverext", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.set_defaults(batch=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cap(p, bounds):
        p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                       help=f"exhaustive-enumeration cap on {bounds}")

    def add_graph(p):  # read through args.input, like every other input file
        p.add_argument("--graph", required=True, dest="input", metavar="GRAPH")

    def instance_command(name, blurb):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--input", required=True, help="instance file, directory, or - for stdin")
        p.set_defaults(batch=True)
        return p

    p = instance_command("extend", "decide coverage extendibility; emit a witness "
                                   "(weighted universe) or a refuting certificate")
    add_cap(p, "the ground set size m")
    p = instance_command("approx", "bracket the least multiplicative stretch alpha* "
                                   "via the replacement ratio")
    p.add_argument("--mode", choices=["exact", "greedy"], default="exact",
                   help="exact kappa reaches up to 2^min(d, n-1) unions per point, "
                        "so --cap also bounds min(d, n-1)")
    p.add_argument("--alpha-star", action="store_true", dest="alpha_star",
                   help="also solve the exact stretch optimum (one column per hit "
                        "pattern, at most 2^min(m, n) - 1; --cap bounds m)")
    add_cap(p, "min(d, n-1) for --mode exact and on m for --alpha-star")
    p = instance_command("norm", "minimize total absolute error with singleton "
                                 "universe elements; certified additive guarantee")
    p.add_argument("--exact", action="store_true",
                   help="also solve the unrestricted optimum (one column per hit "
                        "pattern, at most 2^min(m, n) - 1; --cap bounds m)")
    add_cap(p, "the ground set size m, for --exact only")

    p = sub.add_parser("wtransform", help="transform a full value table to universe "
                                          "weights and test coverage validity")
    p.add_argument("--input", required=True)
    add_cap(p, "the ground set size m")

    p = sub.add_parser("gadget", help="build a reduction instance")
    gsub = p.add_subparsers(dest="kind", required=True)

    g = gsub.add_parser("chromatic", help="graph coloring threshold as an extension "
                                          "instance (1 on vertices, 2 on edges, k overall)")
    add_graph(g)
    g.add_argument("--k", type=_rational_arg, required=True)
    g.add_argument("--chi", action="store_true",
                   help="also compute the fractional chromatic number")
    g.add_argument("--out", help="write the instance here; - for stdout")
    add_cap(g, "the vertex count, for --chi only")

    g = gsub.add_parser("setcover", help="set-cover question as a coverage membership "
                                         "point with a +/- 1/(2L) margin")
    g.add_argument("--input", required=True)
    g.add_argument("--out", help="write the membership instance here; - for stdout")

    g = gsub.add_parser("cut2span", help="cut membership as span membership via a hub "
                                         "vertex; span sums track half the cut sums")
    add_graph(g)
    g.add_argument("--allow-wide-weights", action="store_true",
                   help="skip the unit-box precondition on input weights")
    g.add_argument("--out", help="write the gadget graph here; - for stdout")

    g = gsub.add_parser("densest", help="cut-density threshold as a complete reweighted "
                                        "graph whose cut signs answer the comparison")
    add_graph(g)
    g.add_argument("--density", type=_rational_arg, required=True)
    g.add_argument("--out", help="write the gadget graph here; - for stdout")
    add_cap(g, "the vertex count")

    p = sub.add_parser("gen", help="generate a validated instance family")
    gsub = p.add_subparsers(dest="kind", required=True)
    g = gsub.add_parser("tight", help="blocks-vs-transversals family with unit "
                                      "replacement ratio, validated over all subsets")
    g.add_argument("--m", type=int, required=True,
                   help="ground set size: a perfect square, at least 4")
    g.add_argument("--k", type=int, default=2, help="transversal multiplier")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", help="write the instance here; - for stdout")
    add_cap(g, "m; at most 2^cap transversal draws")

    p = sub.add_parser("check", help="brute-force polytope membership of a weighted graph")
    csub = p.add_subparsers(dest="kind", required=True)
    for kind, blurb in (("cut", "all cut sums <= 0"), ("span", "all span sums <= 0")):
        c = csub.add_parser(kind, help=f"{blurb}, plus the unit box")
        add_graph(c)
        add_cap(c, "the vertex count")

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
        paths = _batch_paths(args)
        if paths is not None:
            return _run_batch(args, argv, paths)
        report, artifact, code = _run(args, argv, getattr(args, "input", None))
        _emit(report, artifact, getattr(args, "out", None))
        return code
    except Exception as exc:
        error, code = _failure(exc)
        print(f"error: {error}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
