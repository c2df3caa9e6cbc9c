"""Benchmark of coverext: seeded workloads, verified answers, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload exact-solve --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics, with every time scaled to a
reference host speed by a probe taken after each request; --trace 1
measures the per-layer metrics from spans, in raw wall time. Every answer
is checked against a planted or independently derived truth; the last
line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}, and the exit code is 1 when any answer was wrong. A result
file with the run's provenance goes to perfbench/out/. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import metrics
import tracing
from paths import OUT, ROOT, SRC, child_env

WORKLOADS = {"exact-solve": "exact_solve", "enum-scan": "enum_scan", "cli-small": "cli_small"}
IMPORTS = {"exact-solve": "coverext", "enum-scan": "coverext", "cli-small": "coverext.cli"}
SETUP_REPS = 5  # set-ups per plain run: at least this many, and
SETUP_MIN_S = 2  # more until they have taken this many seconds
HARD_STOP_S = 140  # the run must end within 180 s whatever the sample count

#: per-layer time metrics, in ms per traced request; self time except cli.main
LAYER_TIMES = (
    "lp.build", "lp.solve", "approx.kappa_exact", "approx.kappa_greedy", "approx.tight_gen",
    "norm.exact", "norm.restricted", "norm.dual_check", "extension.verify_certificate",
    "extension.verify_witness", "setfun.w_transform", "setfun.is_coverage",
    "gadgets.membership", "gadgets.densest", "gadgets.span_sums", "serialize.parse",
    "serialize.emit", "cli.main",
)
INCLUSIVE = frozenset({"cli.main"})
#: exact counts, summed over the first block of requests
LAYER_COUNTS = ("lp.solves", "lp.pivots", "lp.cells", "lp.columns", "lp.distinct_columns",
                "serialize.bytes_in", "serialize.bytes_out")


def load_library():
    """Import coverext from this checkout's src/, or stop with an error."""
    if not (SRC / "coverext" / "__init__.py").is_file():
        sys.exit(f"error: no coverext sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import coverext

    if os.path.dirname(os.path.realpath(coverext.__file__)) != os.path.realpath(SRC / "coverext"):
        sys.exit(f"error: imported coverext from {coverext.__file__}, not from {SRC}")


def setup(name, module, seed, workdir, reps, min_s=0.0):
    """Fresh-interpreter import plus input generation.

    Repeats `reps` times, then on until the set-ups have taken `min_s`
    seconds. Returns the median seconds at reference host speed, the raw
    median seconds and the inputs.
    """
    host = metrics.HostScale(module.HOST_PROBE)
    raw, scaled = [], []
    while len(raw) < reps or sum(raw) < min_s:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {IMPORTS[name]}"], env=child_env(),
                       check=True, timeout=120)
        blocks = module.make_requests(seed, workdir)
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * host.factor())
    return statistics.median(scaled), statistics.median(raw), blocks


def attempt(module, request, tracer, workdir):
    """Run and check one request; returns (seconds, failure message or None)."""
    start = time.perf_counter()
    try:
        answer = module.execute(request, tracer, workdir)
    except Exception:
        return time.perf_counter() - start, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    try:
        module.check(request, answer)
    except Exception as exc:
        return elapsed, f"{request[0]}: {type(exc).__name__}: {exc}"
    return elapsed, None


def run_plain(module, blocks, seconds, workdir):
    """Whole blocks, cycling, until the time is up and there are enough samples.

    Ending on a block boundary keeps the mix of request kinds fixed. A host
    probe follows every request. Each sample is (kind, latency, the
    request's share of the run's wall time with its check, scale to the
    reference host speed); the times are raw seconds.
    """
    samples, failures = [], []
    host = metrics.HostScale(module.HOST_PROBE)
    start = time.perf_counter()
    for b in itertools.count():
        if time.perf_counter() - start >= seconds and len(samples) >= module.MIN_SAMPLES:
            break
        for request in blocks[b % len(blocks)]:
            if time.perf_counter() - start >= HARD_STOP_S:
                return samples, failures, host.probes
            begun = time.perf_counter()
            latency, failure = attempt(module, request, None, workdir)
            busy = time.perf_counter() - begun
            samples.append((request[0], latency, busy, host.factor()))
            if failure:
                failures.append(failure)
    return samples, failures, host.probes


def run_traced(module, blocks, seconds, workdir):
    """Each request plain and traced, in alternating order, then the first block again.

    The repeat must reproduce the first block's counts exactly. The paired
    latencies are scaled to the reference host speed like a plain run's.
    """
    requests = [r for block in blocks for r in block]
    tracer = tracing.Tracer()
    host = metrics.HostScale(module.HOST_PROBE)
    counts, pairs, failures = [], [], []

    def traced(i, request):
        tracer.request = i
        tracer.counts = {}
        with tracer.span("request"):
            latency, failure = attempt(module, request, tracer, workdir)
        counts.append(tracer.counts)
        return latency * host.factor(), failure

    def plain(request):
        latency, failure = attempt(module, request, None, workdir)
        return latency * host.factor(), failure

    start = time.perf_counter()
    i = 0
    while i < len(blocks[0]) or time.perf_counter() - start < seconds:
        request = requests[i % len(requests)]
        if i % 2:
            t_traced, f1 = traced(i, request)
            t_plain, f2 = plain(request)
        else:
            t_plain, f2 = plain(request)
            t_traced, f1 = traced(i, request)
        pairs.append((t_plain, t_traced))
        failures += [f for f in (f1, f2) if f]
        i += 1
    first = counts[: len(blocks[0])]
    for j, request in enumerate(blocks[0]):
        _, failure = traced(i + j, request)
        if failure:
            failures.append(failure)
    if counts[i:] != first:
        failures.append("counts of the first block did not repeat exactly")
    return tracer, counts, first, pairs, failures


def layer_metrics(module, tracer, counts, first, pairs):
    times = metrics.layer_times_ms(tracer.spans, inclusive=INCLUSIVE)
    traced = len(counts)
    out = {f"{name}_ms": (times.get(name, 0.0) / traced, "ms") for name in LAYER_TIMES}
    totals = {name: sum(c.get(name, 0) for c in first) for name in LAYER_COUNTS}
    out.update({name: (value, "count") for name, value in totals.items()})
    distinct = totals["lp.distinct_columns"]
    out["lp.columns_per_distinct"] = (totals["lp.columns"] / distinct if distinct else 0.0, "ratio")
    costs = module.import_costs() if hasattr(module, "import_costs") else {}
    for name in ("cli.import_ms", "cli.interpreter_ms"):
        out[name] = (costs.get(name, 0.0), "ms")
    plain = sum(p for p, _ in pairs)
    extra = sum(t for _, t in pairs) - plain
    out["trace.overhead_ms"] = (extra * 1000 / len(pairs), "ms")
    out["trace.overhead_pct"] = (100 * extra / plain, "%")
    modules = {}
    for name, ms in metrics.layer_times_ms(tracer.spans).items():
        key = name.split(".")[0]
        modules[key] = modules.get(key, 0.0) + ms / traced
    return out, {"module_self_ms_per_request": modules,
                 "span_self_ms_per_request": {k: v / traced for k, v in times.items()},
                 "first_block_counts": totals, "traced_requests": traced}


def end_to_end(name, module, setup_s, samples, failures):
    """The end-to-end metrics at reference host speed, and the same times raw."""
    n = len(samples)
    # the rule applied to the sample count every run reaches, so that the
    # percentile stays the same when a fast run collects more samples
    p = metrics.tail_percentile(min(n, module.MIN_SAMPLES))
    answered = n - len(failures)

    def times(scaled):
        latencies = [latency * (k if scaled else 1) for _, latency, _, k in samples]
        busy = sum(b * (k if scaled else 1) for _, _, b, k in samples)
        return (answered / busy, metrics.percentile(latencies, 50) * 1000,
                metrics.percentile(latencies, p) * 1000, latencies)

    answers, p50, tail, latencies = times(scaled=True)
    who = resource.RUSAGE_CHILDREN if name == "cli-small" else resource.RUSAGE_SELF
    out = {
        "setup_s": (setup_s[0], "s"),
        "answers_per_s": (answers, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    raw_answers, raw_p50, raw_tail, _ = times(scaled=False)
    by_kind = {}
    for (kind, *_), latency in zip(samples, latencies):
        by_kind.setdefault(kind, []).append(latency * 1000)
    extra = {
        "raw": {"setup_s": setup_s[1], "answers_per_s": raw_answers,
                "latency_p50_ms": raw_p50, "latency_tail_ms": raw_tail},
        "failed_frac": len(failures) / n,
        "tail_percentile": p,
        "samples": n,
        "samples_beyond_tail": sum(1 for x in latencies if x * 1000 > tail),
        "latency_p50_ms_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "requests_by_kind": {k: len(v) for k, v in sorted(by_kind.items())},
    }
    return out, extra


def provenance(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    load_library()
    module = importlib.import_module(WORKLOADS[args.workload])
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{stem}"  # no pid: file names echoed by the CLI stay the same
    probe_before = metrics.host_probe_ms()
    try:
        *setup_s, blocks = setup(args.workload, module, args.seed, workdir,
                                 *((1,) if args.trace else (SETUP_REPS, SETUP_MIN_S)))
        probes = []
        if args.trace:
            tracer, counts, first, pairs, failures = run_traced(
                module, blocks, args.seconds, workdir)
            metrics_out, extra = layer_metrics(module, tracer, counts, first, pairs)
            attempted = 2 * len(pairs) + len(blocks[0])
            tracer.dump(OUT / f"{stem}-spans.json")
        else:
            samples, failures, probes = run_plain(module, blocks, args.seconds, workdir)
            metrics_out, extra = end_to_end(args.workload, module, setup_s, samples, failures)
            attempted = len(samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "provenance": provenance(args),
        "probe_ref_ms": metrics.PROBE_REF_MS,
        "host_probe_ms": {"before": probe_before, "after": metrics.host_probe_ms(),
                          **({"median": statistics.median(probes), "min": min(probes),
                              "max": max(probes)} if probes else {})},
        "setup_s": {"reference_speed": setup_s[0], "raw": setup_s[1]},
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics_out.items()},
        **extra,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={len(failures)}")
    for failure in failures[:5]:
        print("FAILED:", failure.strip().splitlines()[-1])
    if not args.trace:
        print(f"failed_frac {extra['failed_frac']:.4f}; latency_tail_ms is "
              f"p{extra['tail_percentile']:g} of {extra['samples']} samples "
              f"({extra['samples_beyond_tail']} beyond)")
        if probes:
            print(f"times at reference host speed (probe {metrics.PROBE_REF_MS:g} ms; here "
                  f"median {statistics.median(probes):.3f} ms); raw: " +
                  ", ".join(f"{k} {v:.4f}" for k, v in extra["raw"].items()))
        else:
            print("times are raw wall time: this workload does not scale them")
    for k, (v, u) in metrics_out.items():
        print(f"  {k:32s} {v:14.4f} {u}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics_out.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
