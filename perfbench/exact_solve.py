"""exact-solve: one user's exact questions about one instance at a time.

The dense n x (2^m - 1) Fraction tableau and the kappa enumeration dominate
here, so LP column deduplication and a revised simplex should show up in
this workload. Each block holds twenty-eight requests in a seeded order
(the first block twenty-nine):

  * decide_extension at m = 8 (twenty-four), 9 and 10 (one each), n = 2m;
    half the instances are planted extendible, half planted refutable (at
    m = 9 and 10 the two alternate from block to block);
  * alpha_bounds(exact, with alpha*) on a random instance with m = 7,
    d = 7 > 6 and n = 12 or 13, so the exhaustive kappa branch runs;
  * norm_extension_approx(with_exact=True) at m = 8 or 9;
  * in the first block, alpha_bounds(exact, with alpha*) on
    generate_tight_instance(9, k=1, seed).

The m = 8 decisions are six in seven requests, and their latencies spread
evenly over a wide range, so both the median and the p75 tail fall inside
that one group. On the edge between two kinds a percentile would jump
from run to run. The larger requests take about half of the wall time.
Every run starts with the first block and covers about five, so each run
has exactly one tight stretch. Its cost varies up to sevenfold with the
seed; if a run could cover one or two of them, answers_per_s would depend
on which.

A traced request makes the same library call as a plain one, under
probes: the library calls its public parts (extension_program, then
solve, then verify_*; replacement_ratio_exact, then alpha_star_program
and solve; the restricted norm, then norm_opt_exact) through module
attributes, so each part still shows as its own span.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from coverext import approx, extension, norm

import metrics
import planted
import tracing
from planted import expect

MIN_SAMPLES = 40
HOST_PROBE = metrics.host_probe_ms
BLOCKS = 8


def make_requests(seed: int, workdir) -> list[list[tuple]]:
    blocks = []
    for b in range(BLOCKS):
        rng = random.Random(f"exact-solve:{seed}:{b}")
        block = []
        for _ in range(12):
            block.append(("decide", True, planted.planted_extendible(rng, 8, 16)))
            block.append(("decide", False, planted.planted_refutable(rng, 8, 16)))
        for m in (9, 10):
            extendible = (b + m) % 2 == 1
            make = planted.planted_extendible if extendible else planted.planted_refutable
            block.append(("decide", extendible, make(rng, m, 2 * m)))
        block.append(("alpha", None, planted.random_points(rng, 7, 12 + b % 2, big=7)))
        block.append(("norm", None, planted.random_points(rng, 8 + b % 2, 2 * (8 + b % 2))))
        if b == 0:
            tight = approx.generate_tight_instance(9, k=1, seed=rng.randrange(1 << 30))
            block.append(("alpha", "tight", tight))
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def execute(request, tracer, workdir):
    kind, _, pf = request
    if tracer is None:
        return _RUN[kind](pf)
    with tracer.probes(tracing.library_probes()):
        return _RUN[kind](pf)


def _decide(pf):
    verdict = extension.decide_extension(pf)
    if verdict.extendible:
        return True, verdict.witness.support
    return False, verdict.certificate


def _alpha(pf):
    b = approx.alpha_bounds(pf, mode="exact", include_alpha_star=True)
    return b.kappa_estimate, b.lower, b.upper, b.alpha_star


def _norm(pf):
    r = norm.norm_extension_approx(pf, with_exact=True)
    return r.opt_restricted, r.witness.support, r.opt_exact


_RUN = {"decide": _decide, "alpha": _alpha, "norm": _norm}


def bracket(pf, kappa):
    """[1/kappa, max(1, min(d, ceil(m^(2/3))) / kappa)], or [1, inf] when kappa = inf."""
    if kappa == math.inf:
        return Fraction(1), math.inf
    t = 1
    while t ** 3 < pf.m ** 2:
        t += 1
    return 1 / kappa, max(Fraction(1), min(pf.d, t) / kappa)


def check(request, answer) -> None:
    kind, truth, pf = request
    if kind == "decide":
        extendible, artifact = answer
        expect(extendible == truth, f"planted {'extendible' if truth else 'refutable'} "
                                    "instance got the other verdict")
        if extendible:
            planted.check_witness(pf, artifact)
        else:
            planted.check_certificate(pf, artifact)
    elif kind == "alpha":
        kappa, lower, upper, star = answer
        expect((lower, upper) == bracket(pf, kappa), "bounds do not follow from kappa")
        expect(lower <= star <= upper, "alpha* lies outside its bracket")
        if truth == "tight":
            expect(kappa == 1, "tight family has kappa != 1")
    else:
        planted.check_norm(pf, *answer)
