"""enum-scan: full 2^m scans at m = 14..16 with at most a tiny LP.

This workload exercises the five all-subset span loops and the Moebius
pass that an integer zeta kernel would replace; a change to the LP alone
should read as no change here. Each block holds eleven requests in a
seeded order:

  * w_transform plus is_coverage on planted tables at m = 14 and 15
    (nonnegative W-coefficients) and m = 16 (exactly one planted negative
    coefficient, so the violating set is known);
  * verify_certificate on planted superadditive certificates, m = 14 with
    n = 14 and m = 15 with n = 12;
  * verify_dual_feasible on norm_extension_approx(pf).dual_rounded at
    m = 14, n = 14; the restricted LP has m + 2n columns;
  * generate_tight_instance(16, seed);
  * check_span_membership and check_cut_membership on 14-vertex graphs
    with weights in [-1, 0], so every subset is scanned;
  * densest_cut_report on a 12-vertex graph;
  * coverage_span_sums on a set-cover gadget with 14 family members, with
    a planted 3-cover in every other block.

Scan cost hardly depends on the instance, so three distinct blocks are
generated and the run cycles through them. An odd number of kinds puts
the median inside one kind instead of on the edge between two.
"""

from __future__ import annotations

import random
from fractions import Fraction

from coverext import approx, extension, gadgets, norm, setfun
from coverext.gadgets import Graph
from coverext.setfun import TotalSetFunction

import metrics
import planted
import tracing
from planted import expect

MIN_SAMPLES = 40
HOST_PROBE = metrics.host_probe_ms
BLOCKS = 3
DENSITIES = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))


def make_requests(seed: int, workdir) -> list[list[tuple]]:
    blocks = []
    for b in range(BLOCKS):
        rng = random.Random(f"enum-scan:{seed}:{b}")
        block = []
        for m, negative in ((14, False), (15, False), (16, True)):
            values, support, violating = planted.planted_table(rng, m, negative)
            block.append(("table", (support, violating), TotalSetFunction(m, tuple(values))))
        for m, n in ((14, 14), (15, 12)):
            pf, cert = planted.planted_certificate(rng, m, n)
            block.append(("certificate", None, (pf, cert)))
        block.append(("dual", None, planted.random_points(rng, 14, 14)))
        block.append(("tight", None, rng.randrange(1 << 30)))
        for kind in ("span", "cut"):
            edges = planted.random_edges(rng, 14, 0.35)
            weights = tuple(Fraction(-rng.randint(0, 4), 4) for _ in edges)
            block.append((kind, None, Graph(14, edges, weights)))
        density = rng.choice(DENSITIES)
        graph = Graph(12, planted.random_edges(rng, 12, 0.5))
        block.append(("densest", planted.densest_best(12, graph.edges, density), (graph, density)))
        family = planted.setcover_family(rng, 10, 14, 3, plant=b % 2 == 0)
        block.append(("span_sums", planted.has_cover(10, family, 3),
                      gadgets.setcover_membership_gadget(10, family, 3)))
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def execute(request, tracer, workdir):
    kind, _, data = request
    if tracer is None:
        return _RUN[kind](data)
    with tracer.probes(tracing.library_probes()):
        return _RUN[kind](data)


def _table(f):
    coeffs = setfun.w_transform(f)
    check = setfun.is_coverage(f)
    return coeffs.support, check.is_coverage, check.violating_set, check.coefficient


def _dual(pf):
    rounded = norm.norm_extension_approx(pf).dual_rounded
    return norm.verify_dual_feasible(pf, rounded)


# Each entry looks its function up on the module at call time, so that the
# probes a traced run installs on those module attributes see the call.
_RUN = {
    "table": _table,
    "certificate": lambda data: extension.verify_certificate(*data),
    "dual": _dual,
    "tight": lambda seed: approx.generate_tight_instance(16, seed=seed),
    "span": lambda graph: gadgets.check_span_membership(graph),
    "cut": lambda graph: gadgets.check_cut_membership(graph),
    "densest": lambda data: gadgets.densest_cut_report(*data),
    "span_sums": lambda instance: gadgets.coverage_span_sums(instance),
}


def check(request, answer) -> None:
    kind, truth, data = request
    if kind == "table":
        support, violating = truth
        coeffs, is_cov, found, coefficient = answer
        planted.check_coefficients(coeffs, support)
        expect(is_cov == (violating is None), "coverage verdict is wrong")
        if violating is not None:
            expect((found, coefficient) == (violating, -1), "violating set is not the planted one")
    elif kind in ("certificate", "dual"):
        expect(answer is True, f"a valid {kind} was rejected")
    elif kind == "tight":
        planted.check_tight(answer, 16)
    elif kind in ("span", "cut"):
        expect(answer.inside and answer.violated_set is None and answer.box_edge is None,
               "graph with weights in [-1, 0] reported outside the polytope")
    elif kind == "densest":
        expect(answer.max_cut_value == truth, "max gadget cut differs from enumeration")
        expect((answer.exceeds_density, answer.boundary) == (truth > 0, truth == 0),
               "density classification is wrong")
    else:
        planted.check_span_sums(data, answer, truth, universe=10, k=3)
