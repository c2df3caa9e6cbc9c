"""Tests for the benchmark's helpers: planted generators, the tail rule, self time.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import metrics  # noqa: E402
import planted  # noqa: E402
import tracing  # noqa: E402
from coverext import extension, gadgets, norm  # noqa: E402
from coverext.approx import generate_tight_instance  # noqa: E402
from tracing import Span  # noqa: E402

SEEDS = range(25)


def union_weight(universe, subset):
    """Weight of the union of A_j over j in subset, with A_j = {u : j in mask_u}."""
    covered = set()
    for j in range(subset.bit_length()):
        if subset >> j & 1:
            covered |= {u for u, (mask, _) in enumerate(universe) if mask >> j & 1}
    return sum(universe[u][1] for u in covered)


def w_naive(values, m, s):
    """The defining sum of the W-transform."""
    full = (1 << m) - 1
    return sum((-1) ** ((s & t).bit_count() + 1) * values[t]
               for t in range(1 << m) if s | t == full)


@pytest.mark.parametrize("seed", SEEDS)
def test_planted_extendible_matches_its_universe(seed):
    m = 3 + seed % 3
    pf = planted.planted_extendible(random.Random(seed), m, 2 * m - 1)
    universe = planted.random_universe(random.Random(seed), m, 2 * m)
    assert all(v == union_weight(universe, mask) for mask, v in pf.points)
    assert extension.decide_extension(pf).extendible


@pytest.mark.parametrize("seed", SEEDS)
def test_planted_refutable_breaks_subadditivity(seed):
    m = 3 + seed % 3
    pf = planted.planted_refutable(random.Random(seed), m, 2 * m - 1)
    value = dict(pf.points)
    assert any(a & b == 0 and a | b in value and value[a | b] > value[a] + value[b]
               for a, b in itertools.permutations(value, 2))
    verdict = extension.decide_extension(pf)
    assert not verdict.extendible
    planted.check_certificate(pf, verdict.certificate)


@pytest.mark.parametrize("seed", SEEDS)
def test_planted_certificate_is_valid_and_checked(seed):
    m = 3 + seed % 3
    pf, cert = planted.planted_certificate(random.Random(seed), m, m + 1)
    planted.check_certificate(pf, cert)
    assert extension.verify_certificate(pf, cert)
    broken = tuple(-c if c == 1 else c for c in cert)
    with pytest.raises(planted.WrongAnswer):
        planted.check_certificate(pf, broken)


@pytest.mark.parametrize("seed", SEEDS)
def test_planted_table_has_the_planted_transform(seed):
    m = 3 + seed % 3
    values, support, violating = planted.planted_table(random.Random(seed), m, seed % 2 == 1,
                                                       extra=3)
    assert values[0] == 0 and all(v > 0 for v in values[1:])
    naive = {s: w_naive(values, m, s) for s in range(1, 1 << m)}
    assert {s: w for s, w in naive.items() if w} == support
    negative = [s for s, w in naive.items() if w < 0]
    assert negative == ([] if violating is None else [violating])


@pytest.mark.parametrize("seed", SEEDS)
def test_span_sums_match_a_plain_loop(seed):
    rng = random.Random(seed)
    m = 1 + seed % 5
    masks = [rng.randrange(1, 1 << m) for _ in range(6)]
    values = [rng.randint(-5, 5) for _ in masks]
    got = planted.span_sums(m, masks, values)
    assert got == [sum(v for mask, v in zip(masks, values) if mask & s) for s in range(1 << m)]


@pytest.mark.parametrize("seed", SEEDS)
def test_densest_best_matches_the_gadget(seed):
    rng = random.Random(seed)
    n = 3 + seed % 3
    edges = planted.random_edges(rng, n, 0.5)
    density = Fraction(rng.randint(1, 5), rng.randint(1, 5))
    gadget = gadgets.densest_cut_gadget(gadgets.Graph(n, edges), density)
    best = max(gadget.cut_weight(s) for s in range(1, (1 << n) - 1))
    assert planted.densest_best(n, edges, density) == best


@pytest.mark.parametrize("seed", SEEDS)
def test_has_cover_matches_brute_force(seed):
    rng = random.Random(seed)
    universe, k = 4, 1 + seed % 3
    family = planted.setcover_family(rng, universe, 5, k, plant=seed % 2 == 0)
    full = set(range(1, universe + 1))
    brute = any(set().union(*combo) == full
                for r in range(1, k + 1) for combo in itertools.combinations(family, r))
    assert planted.has_cover(universe, family, k) == brute
    if seed % 2 == 0:
        assert brute
    instance = gadgets.setcover_membership_gadget(universe, family, k)
    planted.check_span_sums(instance, gadgets.coverage_span_sums(instance), brute, universe, k)


def test_check_tight_accepts_the_generator_and_rejects_tampering():
    for m in (4, 9):
        pf = generate_tight_instance(m, seed=3)
        planted.check_tight(pf, m)
    points = list(pf.points)
    points[-1] = (points[-1][0], Fraction(2))
    with pytest.raises(planted.WrongAnswer):
        planted.check_tight(type(pf)(pf.m, tuple(points)), 9)


@pytest.mark.parametrize("seed", SEEDS)
def test_distinct_patterns_match_brute_force(seed):
    m = 1 + seed % 5
    pf = planted.random_points(random.Random(seed), m, min(4, (1 << m) - 1))
    brute = {tuple(bool(mask & s) for mask, _ in pf.points) for s in range(1, 1 << m)}
    assert tracing.distinct_patterns(pf) == len(brute)


# --- tail rule ----------------------------------------------------------------------


@pytest.mark.parametrize("n, p", [(20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
                                  (199, 90), (200, 95), (999, 95), (1000, 99), (10000, 99.9)])
def test_tail_percentile_ladder(n, p):
    assert metrics.tail_percentile(n) == p


def test_tail_percentile_leaves_ten_beyond_and_is_the_highest():
    for n in [*range(20, 260), *range(990, 1010), *range(9990, 10010, 5)]:
        p = metrics.tail_percentile(n)
        values = list(range(n))
        beyond = sum(1 for v in values if v > metrics.percentile(values, p))
        assert beyond >= 10
        higher = [q for q in metrics.TAIL_LADDER if q > p]
        if higher:
            assert sum(1 for v in values if v > metrics.percentile(values, higher[0])) < 10


def test_tail_percentile_needs_twenty_samples():
    with pytest.raises(ValueError):
        metrics.tail_percentile(19)


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert [metrics.percentile(values, p) for p in (1, 20, 21, 50, 100)] == [1, 1, 2, 3, 5]


# --- spans and self time -----------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0, 100, -1, 1),
        Span("a", 10, 40, 0, 1),
        Span("a.inner", 20, 30, 1, 1),
        Span("b", 50, 70, 0, 1),
        Span("c", 60, 80, 0, 1),  # overlaps b: the overlap counts once
    ]
    assert tracing.self_times(spans) == [40, 20, 10, 20, 20]
    assert metrics.layer_times_ms(spans, inclusive=frozenset({"a"}))["a"] == 30 / 1e6


def test_tracer_nests_spans_and_adopts_child_process_spans():
    tracer = tracing.Tracer()
    tracer.request = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        tracer.adopt([{"name": "child", "start_ns": 1, "end_ns": 2, "parent": -1},
                      {"name": "grandchild", "start_ns": 1, "end_ns": 2, "parent": 0}],
                     {"lp.pivots": 3})
    assert [(s.name, s.parent, s.request) for s in tracer.spans] == [
        ("outer", -1, 7), ("inner", 0, 7), ("child", 0, 7), ("grandchild", 2, 7)]
    assert tracer.counts == {"lp.pivots": 3}


def test_probes_record_calls_and_restore_the_module():
    from coverext import extension as ext

    original = ext.extension_program
    pf = planted.planted_extendible(random.Random(1), 4, 5)
    tracer = tracing.Tracer()
    with tracer.probes(tracing.library_probes()):
        ext.decide_extension(pf)
    assert ext.extension_program is original
    names = [s.name for s in tracer.spans]
    assert names == ["lp.build", "lp.solve", "extension.verify_witness"]
    assert tracer.counts["lp.solves"] == 1 and tracer.counts["lp.columns"] == 15


@pytest.mark.parametrize("seed", range(5))
def test_check_norm_accepts_the_library_and_rejects_a_wrong_optimum(seed):
    pf = planted.random_points(random.Random(seed), 5, 7)
    r = norm.norm_extension_approx(pf, with_exact=True)
    planted.check_norm(pf, r.opt_restricted, r.witness.support, r.opt_exact)
    with pytest.raises(planted.WrongAnswer):
        planted.check_norm(pf, r.opt_restricted, r.witness.support, r.opt_restricted + 1)


def test_build_counts_come_from_the_built_program():
    from coverext import approx

    pf = planted.random_points(random.Random(3), 4, 5)
    tracer = tracing.Tracer()
    with tracer.probes(tracing.library_probes()):
        approx.alpha_bounds(pf, mode="exact", include_alpha_star=True)
    program = approx.alpha_star_program(pf)
    assert tracer.counts["lp.columns"] == program.num_vars - 1 == 15
    assert tracer.counts["lp.cells"] == program.num_rows * program.num_vars
    assert tracer.counts["lp.distinct_columns"] == tracing.distinct_patterns(pf)


# --- cli-small ------------------------------------------------------------------------


def test_cli_byte_counts_do_not_depend_on_the_work_directory(tmp_path):
    import cli_small

    counts = []
    for workdir in (tmp_path / "a", tmp_path / "deeper" / "path" / "b"):
        workdir.mkdir(parents=True)
        block = cli_small.make_requests(5, workdir)[0]
        requests = [next(r for r in block if r[0] == kind) for kind in ("extend", "pipe")]
        tracer = tracing.Tracer()
        for request in requests:
            cli_small.check(request, cli_small.execute(request, tracer, workdir))
        counts.append((tracer.counts["serialize.bytes_in"], tracer.counts["serialize.bytes_out"]))
    assert counts[0] == counts[1]


# --- host-speed scaling -------------------------------------------------------------


def test_host_scale_uses_the_mean_of_the_probes_around_each_interval():
    readings = iter([2.0, 2.0, 4.0, 1.0])
    host = metrics.HostScale(probe=lambda: next(readings))
    ref = metrics.PROBE_REF_MS
    assert [host.factor() for _ in range(3)] == [ref / 2.0, ref / 3.0, ref / 2.5]
    assert host.probes == [2.0, 2.0, 4.0, 1.0]
    assert metrics.HostScale(probe=None).factor() == 1.0


def test_host_probe_is_positive_and_leaves_the_collector_as_it_was():
    import gc

    assert gc.isenabled()
    assert metrics.host_probe_ms() > 0
    assert gc.isenabled()
