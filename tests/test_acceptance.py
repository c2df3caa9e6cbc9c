"""Acceptance suite: one test per shipped guarantee, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -v -s` to get one pass/fail line
per criterion. Sizes and tolerances are pinned here; every tolerance is
zero (equality or exact inequality of rationals).
"""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from coverext.approx import (
    alpha_bounds,
    alpha_star_exact,
    ceil_two_thirds,
    generate_tight_instance,
    harmonic,
    replacement_ratio_exact,
    replacement_ratio_greedy,
)
from coverext.extension import decide_extension, verify_certificate, verify_witness
from coverext.gadgets import (
    Graph,
    check_span_membership,
    chromatic_gadget,
    coverage_span_sums,
    cut_to_span_gadget,
    densest_cut_gadget,
    fractional_chromatic,
    setcover_membership_gadget,
)
from coverext.norm import norm_extension_approx, verify_dual_feasible
from coverext.setfun import (
    PartialFunction,
    TotalSetFunction,
    eval_from_w,
    is_coverage,
    w_transform,
)

import oracles

F = Fraction
SRC = str(Path(__file__).resolve().parent.parent / "src")


def _ok(num, text):
    print(f"\n[criterion {num:02d}] PASS: {text}")


def test_criterion_01_w_transform_roundtrip():
    # >= 1000 random sparse nonnegative coefficient sets, m <= 10: recover
    # the full table, transform back, demand bit-identical support.
    rng = random.Random(101)
    for _ in range(1000):
        w = oracles.random_wcoeffs(rng, max_m=10, max_support=8)
        table = [eval_from_w(w, mask) for mask in range(1 << w.m)]
        again = w_transform(TotalSetFunction(w.m, tuple(table)))
        assert again == w
    _ok(1, "1000/1000 roundtrips reproduced the coefficients exactly (m <= 10)")


def test_criterion_02_coverage_characterization():
    # >= 500 random total functions on m <= 8: the library verdict must
    # agree with a literal evaluation of the alternating sum, an
    # independent code path.
    rng = random.Random(102)
    yes = no = 0
    for trial in range(500):
        m = rng.randint(1, 8)
        if trial % 2 == 0:
            w = oracles.random_wcoeffs(rng, max_m=m, max_support=6)
            m = w.m
            values = [eval_from_w(w, mask) for mask in range(1 << m)]
        else:
            values = [oracles.random_fraction(rng) for _ in range(1 << m)]
            values[0] = F(0)
        f = TotalSetFunction(m, tuple(values))
        dense = oracles.w_transform_naive(f.values, m)
        oracle_negative = [s for s in sorted(dense) if dense[s] < 0]
        verdict = is_coverage(f)
        assert verdict.is_coverage == (not oracle_negative)
        if verdict.is_coverage:
            yes += 1
        else:
            no += 1
            assert verdict.violating_set == oracle_negative[0]
            assert verdict.coefficient == dense[oracle_negative[0]]
    assert yes >= 100 and no >= 100
    _ok(2, f"500 functions, verdicts match the direct alternating sum ({yes} yes / {no} no)")


def test_criterion_03_extension_soundness():
    # >= 500 random instances (m <= 7, n <= 8): every verdict re-verified,
    # every witness within the support bound.
    rng = random.Random(103)
    yes = no = 0
    for trial in range(500):
        style = trial % 5
        if style in (0, 1):
            instance, _ = oracles.random_extendible_instance(rng, max_m=7, max_n=8)
        elif style in (2, 3):
            instance = oracles.random_partial_function(rng, max_m=7, max_n=8)
        else:
            base, _ = oracles.random_extendible_instance(rng, max_m=7, max_n=7)
            bumped = list(base.points)
            idx = rng.randrange(base.n)
            mask, value = bumped[idx]
            bumped[idx] = (mask, value + base.total_value + 1)
            instance = PartialFunction(base.m, tuple(bumped))
        verdict = decide_extension(instance)
        if verdict.extendible:
            yes += 1
            assert verify_witness(instance, verdict.witness)
            assert len(verdict.witness.support) <= instance.n
        else:
            no += 1
            assert verify_certificate(instance, verdict.certificate)
    assert yes >= 100 and no >= 100
    _ok(3, f"500 verdicts re-verified, support bound held ({yes} extendible / {no} refuted)")


PETERSEN_EDGES = (
    (1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
    (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
    (6, 8), (7, 9), (8, 10), (6, 9), (7, 10),
)


def _petersen_induced(keep):
    edges = tuple((u, v) for u, v in PETERSEN_EDGES if u <= keep and v <= keep)
    return Graph(keep, edges)


def test_criterion_04_chromatic_reduction_fidelity():
    k3 = Graph(3, ((1, 2), (2, 3), (1, 3)))
    c4 = Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
    c5 = Graph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)))
    k4 = Graph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))
    graphs = [k3, c4, c5, k4, _petersen_induced(7), _petersen_induced(8)]

    chi_k3, _ = fractional_chromatic(k3)
    chi_c5, _ = fractional_chromatic(c5)
    assert chi_k3 == F(3)
    assert chi_c5 == F(5, 2)

    checked = 0
    for graph in graphs:
        chi, _ = fractional_chromatic(graph)
        nv = graph.num_vertices
        grid = {F(1), F(2), F(nv), chi, chi - F(1, 5), chi + F(1, 5)}
        if nv <= 5:
            grid |= {F(h, 2) for h in range(2, 2 * nv + 1)}
        for k in sorted(grid):
            if not (1 <= k <= nv):
                continue
            verdict = decide_extension(chromatic_gadget(graph, k))
            assert verdict.extendible == (chi <= k)
            checked += 1
    _ok(4, f"gadget extendibility matched the coloring LP on {checked} (graph, k) pairs; "
           f"anchors chi*(K3)=3, chi*(C5)=5/2")


def test_criterion_05_alpha_sandwich():
    # >= 300 random positive instances (m <= 7, n <= 8): exact bracket with
    # zero tolerance, plus the greedy bracket and the harmonic envelope.
    # When kappa exceeds the factor the raw ratio bound dips below the
    # definitional floor alpha* >= 1; there the replacement argument proves
    # extendibility outright, so the strictly stronger fact alpha* == 1 is
    # asserted instead of a vacuous inequality.
    rng = random.Random(105)
    trials = degenerate = clamped = 0
    for _ in range(300):
        instance = oracles.random_partial_function(rng, max_m=7, max_n=8, positive=True)
        star = alpha_star_exact(instance)
        assert star != math.inf and star >= 1
        kappa = replacement_ratio_exact(instance)
        kappa_greedy = replacement_ratio_greedy(instance)
        trials += 1
        if kappa == math.inf:
            degenerate += 1
            assert kappa_greedy == math.inf
            continue
        factor = min(instance.d, ceil_two_thirds(instance.m))
        if kappa <= factor:
            assert 1 / kappa <= star <= factor / kappa
        else:
            clamped += 1
            assert star == 1
        assert kappa <= kappa_greedy <= kappa * harmonic(instance.d)
        greedy = alpha_bounds(instance, mode="greedy")
        assert greedy.lower <= star <= greedy.upper
    assert trials == 300
    _ok(5, f"brackets held on {trials} instances ({degenerate} with no replacements, "
           f"{clamped} in the kappa > factor regime where alpha* == 1 exactly)")


def test_criterion_06_tight_family_and_generator():
    for r in (2, 4, 8):
        instance = PartialFunction(2, ((0b01, F(r)), (0b10, F(r)), (0b11, F(1))))
        assert replacement_ratio_exact(instance) == F(1, r)
        assert alpha_star_exact(instance) == F(r)

    instance = generate_tight_instance(4, k=2, seed=11)
    assert instance.d == 2
    assert replacement_ratio_exact(instance) == F(1)
    blocks = [mask for mask, v in instance.points if v == F(2)]
    trans = [mask for mask, v in instance.points if v == F(1)]
    assert sorted(blocks) == [0b0011, 0b1100]
    for s in range(1, 16):
        assert sum(1 for t in trans if t & s) >= sum(1 for b in blocks if b & s)
    _ok(6, "kappa = 1/r and alpha* = r for r in {2,4,8}; generated m=4 instance "
           "passed the all-subsets span validation with kappa = 1, d = 2")


def test_criterion_07_norm_guarantee():
    rng = random.Random(107)
    checked = d1 = 0
    for trial in range(300):
        force_d1 = trial % 10 == 0
        instance = oracles.random_partial_function(rng, max_m=7, max_n=8, force_d1=force_d1)
        result = norm_extension_approx(instance, with_exact=True)
        opt, opt_r = result.opt_exact, result.opt_restricted
        assert opt <= opt_r <= opt + result.additive_bound
        assert verify_dual_feasible(instance, result.dual_rounded)
        priced = sum(v * y for (_, v), y in zip(instance.points, result.dual_rounded))
        assert priced <= opt
        assert sum(abs(e) for e in result.primal_errors) == opt_r
        if instance.d == 1:
            d1 += 1
            assert opt_r == opt
        checked += 1
    assert checked == 300 and d1 >= 20
    _ok(7, f"additive guarantee, dual rounding, and pricing held on {checked} instances "
           f"({d1} with d = 1, restricted = exact)")


def test_criterion_08_gadget_identities():
    rng = random.Random(108)
    for _ in range(200):
        n, edges, weights = oracles.random_weighted_graph(rng, max_vertices=6)
        weighted = Graph(n, tuple(edges), tuple(weights))
        gadget, scale = cut_to_span_gadget(weighted)
        for s in range(1 << n):
            span = oracles.span_weight_naive(n + 2, gadget.edges, gadget.weights, s)
            assert scale * span == weighted.cut_weight(s) / 2
        has_positive_cut = any(weighted.cut_weight(s) > 0 for s in range(1, 1 << n))
        assert has_positive_cut == (not check_span_membership(gadget).inside)

        m_val = F(rng.randint(1, 4), rng.randint(1, 3))
        plain = Graph(n, tuple(edges))
        unit = Graph(n, tuple(edges), (F(1),) * len(edges))
        dense = densest_cut_gadget(plain, m_val)
        dscale = 2 * max(m_val, abs(1 - m_val))
        for s in range(1, 1 << n):
            size = s.bit_count()
            assert dscale * dense.cut_weight(s) == unit.cut_weight(s) - m_val * size * (n - size)

    figure = Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4)), (F(5), F(-7), F(1), F(-3)))
    gadget, scale = cut_to_span_gadget(figure, enforce_box=False)
    assert scale == 24
    w = dict(zip(gadget.edges, gadget.weights))
    assert (w[(1, 5)], w[(2, 5)], w[(3, 5)], w[(4, 5)]) == (
        F(-1, 24), F(1, 24), F(3, 24), F(1, 24),
    )
    assert w[(5, 6)] == F(-1)
    _ok(8, "both exact identities held on every subset of 200 random graphs; "
           "4-cycle anchor gave scale 24 and hub weights (-1, 1, 3, 1)/24")


def test_criterion_09_setcover_margins():
    rng = random.Random(109)
    yes = no = 0
    for _ in range(50):
        universe = rng.randint(2, 5)
        family = []
        for _ in range(rng.randint(1, 5)):
            size = rng.randint(1, universe)
            family.append(sorted(rng.sample(range(1, universe + 1), size)))
        k = rng.randint(1, 3)
        inst = setcover_membership_gadget(universe, family, k)
        margin = 1 / (2 * (F(k * universe - k) - F(1, 2)))
        best = max(coverage_span_sums(inst).values())
        if oracles.setcover_has_cover(universe, family, k):
            yes += 1
            assert best >= margin
        else:
            no += 1
            assert best <= -margin
    assert yes >= 5 and no >= 5
    _ok(9, f"50 instances: YES spans reached +1/(2L), NO spans stayed at or below "
           f"-1/(2L) ({yes} yes / {no} no)")


def test_criterion_10_cli_end_to_end(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)

    def cli(args, stdin=None):
        return subprocess.run(
            [sys.executable, "-m", "coverext.cli", *args],
            input=stdin, capture_output=True, env=env,
        )

    k3 = tmp_path / "k3.json"
    k3.write_text(json.dumps({"vertices": 3, "edges": [[1, 2], [2, 3], [1, 3]]}))

    # pipeline 1: gadget chromatic -> extend, both outcomes
    piped = cli(["gadget", "chromatic", "--graph", str(k3), "--k", "3", "--out", "-"])
    assert piped.returncode == 0
    step = cli(["extend", "--input", "-"], stdin=piped.stdout)
    assert step.returncode == 0
    assert json.loads(step.stdout)["result"]["status"] == "extendible"

    piped = cli(["gadget", "chromatic", "--graph", str(k3), "--k", "2", "--out", "-"])
    step = cli(["extend", "--input", "-"], stdin=piped.stdout)
    assert step.returncode == 2
    assert json.loads(step.stdout)["result"]["status"] == "not_extendible"

    # pipeline 2: gen tight -> approx
    piped = cli(["gen", "tight", "--m", "4", "--k", "2", "--seed", "7", "--out", "-"])
    assert piped.returncode == 0
    step = cli(["approx", "--input", "-", "--alpha-star"], stdin=piped.stdout)
    assert step.returncode == 0
    result = json.loads(step.stdout)["result"]
    assert result["kappa"] == "1"
    assert result["d"] == 2

    # stable exit codes: parse error 1, cap exceeded 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"m": 2, "points": [{"set": [1], "value": "1/0"}]}))
    assert cli(["extend", "--input", str(bad)]).returncode == 1
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"m": 30, "points": [{"set": [1], "value": "1"}]}))
    assert cli(["extend", "--input", str(wide)]).returncode == 3

    _ok(10, "documented pipelines ran green with exit codes 0/2/1/3 as contracted")
