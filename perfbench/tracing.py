"""In-memory spans and counts for the traced benchmark run.

A span records a name, its start and end (``time.perf_counter_ns``, which
is CLOCK_MONOTONIC on Linux and so comparable across processes), the index
of its parent span and the request it belongs to. Spans stay in memory and
are written out once, when the run ends.

Spans are opened by the benchmark's own code: either explicitly, or by
probes that wrap the public functions of each coverext module for the
duration of a traced request. Probes patch the names each module looks up
at call time (``coverext.extension.solve``, ``coverext.cli.decide_extension``
and so on) and restore them afterwards; no library file is changed.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into the span list, -1 for a root
    request: Optional[int]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.request: Optional[int] = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = Span(name, time.perf_counter_ns(), 0, parent, self.request)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def adopt(self, spans: list[dict], counts: dict[str, int]) -> None:
        """Attach spans recorded by a child process under the open span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for s in spans:
            p = s["parent"]
            self.spans.append(
                Span(s["name"], s["start_ns"], s["end_ns"], base + p if p >= 0 else parent,
                     self.request)
            )
        for name, amount in counts.items():
            self.count(name, amount)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"spans": [vars(s) for s in self.spans], "counts": self.counts}, fh
            )

    @contextmanager
    def probes(self, table):
        """Wrap each (module, attribute, span name, after-hook) for the block."""
        saved = []
        try:
            for module, attr, name, after in table:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, _probe(self, original, name, after))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _probe(tracer: Tracer, fn: Callable, name: str, after) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cursor = s.start_ns
        for c in sorted(children.get(i, ()), key=lambda c: c.start_ns):
            lo = max(c.start_ns, cursor)
            hi = min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.end_ns - s.start_ns - covered)
    return out


def distinct_patterns(pf) -> int:
    """Distinct "which points does S meet" patterns over nonempty S.

    pat[S] = pat[S without its lowest element] | hit[lowest element], where
    hit[j] is the set of points containing element j: O(2^m) integer work.
    """
    hit = [0] * pf.m
    for i, (mask, _) in enumerate(pf.points):
        for j in range(pf.m):
            if mask >> j & 1:
                hit[j] |= 1 << i
    pat = [0] * (1 << pf.m)
    for s in range(1, 1 << pf.m):
        low = s & -s
        pat[s] = pat[s ^ low] | hit[low.bit_length() - 1]
    return len(set(pat[1:]))


# --- probe tables --------------------------------------------------------------


def _after_solve(tracer, args, outcome):
    tracer.count("lp.solves")
    tracer.count("lp.pivots", outcome.pivots)


def _after_build(extra_vars: int):
    """Counts for a built program with `extra_vars` variables that are not set columns."""

    def after(tracer, args, program):
        tracer.count("lp.cells", program.num_rows * program.num_vars)
        tracer.count("lp.columns", program.num_vars - extra_vars)
        tracer.count("lp.distinct_columns", distinct_patterns(args[0]))

    return after


def library_probes():
    """Probe sites inside the library: every solve and every public entry point."""
    from coverext import approx, extension, gadgets, lp, norm, setfun

    table = [(mod, "solve", "lp.solve", _after_solve)
             for mod in (lp, extension, approx, norm, gadgets)]
    table += [
        (extension, "extension_program", "lp.build", _after_build(0)),
        # the stretch program's last variable is alpha itself
        (approx, "alpha_star_program", "lp.build", _after_build(1)),
        (extension, "verify_witness", "extension.verify_witness", None),
        (extension, "verify_certificate", "extension.verify_certificate", None),
        (approx, "replacement_ratio_exact", "approx.kappa_exact", None),
        (approx, "replacement_ratio_greedy", "approx.kappa_greedy", None),
        (approx, "generate_tight_instance", "approx.tight_gen", None),
        (norm, "norm_extension_approx", "norm.restricted", None),
        (norm, "norm_opt_exact", "norm.exact", None),
        (norm, "verify_dual_feasible", "norm.dual_check", None),
        (setfun, "w_transform", "setfun.w_transform", None),
        (setfun, "is_coverage", "setfun.is_coverage", None),
        (gadgets, "check_cut_membership", "gadgets.membership", None),
        (gadgets, "check_span_membership", "gadgets.membership", None),
        (gadgets, "densest_cut_report", "gadgets.densest", None),
        (gadgets, "coverage_span_sums", "gadgets.span_sums", None),
    ]
    return table


class _JsonProbe:
    """Stands in for the json module inside coverext.cli.

    Decoding is a serialize.parse span and encoding a serialize.emit span;
    both count the bytes of JSON text they handle.
    """

    def __init__(self, tracer, json_module):
        self.JSONDecodeError = json_module.JSONDecodeError
        self.loads = _probe(tracer, json_module.loads, "serialize.parse", _count_in)
        self.dumps = _probe(tracer, json_module.dumps, "serialize.emit", _count_out)

    def dump(self, obj, fp, **kwargs):
        fp.write(self.dumps(obj, **kwargs))


def _count_in(tracer, args, result):
    tracer.count("serialize.bytes_in", len(args[0]))


def _count_out(tracer, args, text):
    # the run report's wall_time_ms varies from run to run; its digits are left
    # out so that the count repeats exactly
    obj = args[0]
    timing = len(str(obj["wall_time_ms"])) if isinstance(obj, dict) and "wall_time_ms" in obj else 0
    tracer.count("serialize.bytes_out", len(text) - timing)


def cli_probes():
    """Probe sites of the command layer used by the cli-small commands."""
    from coverext import cli, serialize

    names = {
        "decide_extension": "extension.decide",
        "alpha_bounds": "approx.alpha_bounds",
        "generate_tight_instance": "approx.tight_gen",
        "norm_extension_approx": "norm.restricted",
        "w_transform": "setfun.w_transform",
        "is_coverage": "setfun.is_coverage",
        "check_cut_membership": "gadgets.membership",
        "check_span_membership": "gadgets.membership",
        "chromatic_gadget": "gadgets.chromatic",
    }
    table = [(cli, attr, name, None) for attr, name in names.items()]
    table += [(serialize, attr, "serialize.parse", None)
              for attr in ("partial_function_from_json", "total_function_from_json",
                           "graph_from_json")]
    table += [(serialize, attr, "serialize.emit", None)
              for attr in ("partial_function_to_json", "wcoeffs_to_json", "verdict_to_json",
                           "alpha_bounds_to_json", "norm_result_to_json")]
    return table


@contextmanager
def cli_tracing(tracer):
    """Library and command-layer probes, with cli's json swapped for a probe."""
    from coverext import cli

    original_json = cli.json
    cli.json = _JsonProbe(tracer, original_json)
    try:
        with tracer.probes(library_probes() + cli_probes()):
            yield
    finally:
        cli.json = original_json
