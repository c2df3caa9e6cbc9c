"""Exact simplex kernel: statuses, certificates, determinism."""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from coverext import lp as lp_module
from coverext.approx import alpha_star_program
from coverext.errors import MalformedProgramError
from coverext.extension import extension_program
from coverext.lp import (
    EQUAL,
    FEASIBLE,
    GREATER_EQUAL,
    INFEASIBLE,
    LESS_EQUAL,
    UNBOUNDED,
    LinearProgram,
    LpOutcome,
    solve,
    verify_farkas,
    verify_solution,
)
from coverext.norm import _norm_program
from coverext.setfun import PartialFunction, span_columns

import oracles

F = Fraction


def test_single_variable_bounds_via_rows():
    lp = LinearProgram(
        1,
        objective=[1],
        rows=[({0: 1}, GREATER_EQUAL, 3), ({0: 1}, LESS_EQUAL, 10)],
    )
    out = solve(lp)
    assert out.status == FEASIBLE
    assert out.solution == (F(3),)
    assert out.objective_value == F(3)


def test_contradictory_rows_give_verified_ray():
    lp = LinearProgram(1, rows=[({0: 1}, GREATER_EQUAL, 1), ({0: 1}, LESS_EQUAL, 0)])
    out = solve(lp)
    assert out.status == INFEASIBLE
    assert out.farkas_ray is not None
    assert verify_farkas(lp, out.farkas_ray)
    # sign convention: <= rows nonnegative, >= rows nonpositive
    assert out.farkas_ray[0] <= 0 and out.farkas_ray[1] >= 0


def test_two_variable_optimum_is_a_vertex():
    # min x + y subject to x + y >= 5/2, x, y >= 0. The two vertices of the
    # optimal face are (5/2, 0) and (0, 5/2); enumerating vertices by hand
    # shows the optimum is 5/2 and is attained only there.
    lp = LinearProgram(2, objective=[1, 1], rows=[({0: 1, 1: 1}, GREATER_EQUAL, F(5, 2))])
    out = solve(lp)
    assert out.status == FEASIBLE
    assert out.objective_value == F(5, 2)
    assert out.solution in ((F(5, 2), F(0)), (F(0), F(5, 2)))


def test_unbounded_detection():
    lp = LinearProgram(1, objective=[-1], rows=[({0: 1}, GREATER_EQUAL, 0)])
    assert solve(lp).status == UNBOUNDED


def test_equality_rows_and_duals():
    # min 3x + 2y with x + y = 4, x - y = 0 has the unique solution (2, 2).
    lp = LinearProgram(
        2,
        objective=[3, 2],
        rows=[({0: 1, 1: 1}, EQUAL, 4), ({0: 1, 1: -1}, EQUAL, 0)],
    )
    out = solve(lp)
    assert out.solution == (F(2), F(2))
    assert out.objective_value == F(10)
    # duals certify optimality: c_j - sum_i y_i a_ij >= 0 and y.b = objective
    y = out.row_duals
    assert y[0] * 4 + y[1] * 0 == F(10)
    assert F(3) - (y[0] + y[1]) >= 0
    assert F(2) - (y[0] - y[1]) >= 0


def test_rowless_program_is_origin_or_unbounded():
    out = solve(LinearProgram(2, objective=[1, 0]))
    assert out.status == FEASIBLE and out.solution == (F(0), F(0))
    assert out.objective_value == 0
    assert solve(LinearProgram(2, objective=[1, -1])).status == UNBOUNDED


def test_rowless_programs_keep_their_outcome():
    # no rows at all, or only all-zero rows that every x satisfies
    trivial = [({}, LESS_EQUAL, 5), ({0: 0}, EQUAL, 0), ({1: F(0)}, GREATER_EQUAL, F(-1, 3))]
    origin = "solution=(Fraction(0, 1), Fraction(0, 1)), objective_value=Fraction(0, 1)"
    assert repr(solve(LinearProgram(2, objective=[1, 0]))) == (
        f"LpOutcome(status='feasible', {origin}, farkas_ray=None, row_duals=(), pivots=0)")
    assert repr(solve(LinearProgram(2, objective=[1, 0], rows=trivial))) == (
        f"LpOutcome(status='feasible', {origin}, farkas_ray=None, "
        "row_duals=(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)), pivots=0)")
    for rows in ([], trivial):
        assert repr(solve(LinearProgram(2, objective=[F(1, 2), -1], rows=rows))) == (
            "LpOutcome(status='unbounded', solution=None, objective_value=None, "
            "farkas_ray=None, row_duals=None, pivots=0)")


def test_verify_farkas_needs_nonnegative_aggregate():
    # x0 - x1 >= 1 aggregates (ray -1) to -x0 + x1 <= -1: g has a negative
    # entry, so x >= 0 alone does not refute it (x0 = 1 is feasible).
    lp = LinearProgram(2, rows=[({0: 1, 1: -1}, GREATER_EQUAL, 1)])
    assert not verify_farkas(lp, [F(-1)])
    lp = LinearProgram(2, rows=[({0: 1, 1: 1}, LESS_EQUAL, -1)])
    assert verify_farkas(lp, [F(1)])
    assert not verify_farkas(lp, [F(-1)])  # wrong sign on a <= row


def test_verify_solution_examples():
    lp = LinearProgram(1, rows=[({0: 1}, GREATER_EQUAL, 3)])
    assert verify_solution(lp, [F(3)])
    assert not verify_solution(lp, [F(2)])


def test_malformed_programs_rejected():
    with pytest.raises(MalformedProgramError):
        LinearProgram(0)
    with pytest.raises(MalformedProgramError):
        LinearProgram(1, objective=[1, 2])
    with pytest.raises(MalformedProgramError):
        LinearProgram(1, rows=[({1: 1}, EQUAL, 0)])
    with pytest.raises(MalformedProgramError):
        LinearProgram(1, rows=[({0: 1}, "<", 0)])
    with pytest.raises(MalformedProgramError):
        LinearProgram(1, rows=[({0: 0.5}, EQUAL, 0)])
    with pytest.raises(MalformedProgramError, match="row 0 coefficient .* got bool"):
        LinearProgram(1, rows=[({0: True}, EQUAL, 0)])


def test_variable_indices_are_ints():
    # True == 1 and 1.0 == 1, but neither is a variable index
    for idx in (True, 1.0):
        with pytest.raises(MalformedProgramError) as info:
            LinearProgram(2, rows=[({idx: 1}, EQUAL, 1)])
        assert str(info.value) == f"row 0: variable index {idx!r} out of range"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LinearProgram(1, rows=[({0: 1}, EQUAL)]),
         "row 0 is not a (coeffs, relation, rhs) triple"),
        (lambda: LinearProgram(1, rows=[5]), "row 0 is not a (coeffs, relation, rhs) triple"),
        # rows are mappings: (index, value) pairs and bare numbers are refused
        (lambda: LinearProgram(2, rows=[({0: 1}, EQUAL, 1), ([(0, 1)], EQUAL, 0)]),
         "row 1: coefficients must be a mapping, got list"),
        (lambda: LinearProgram(1, rows=[(5, EQUAL, 0)]),
         "row 0: coefficients must be a mapping, got int"),
        # each pair's index is checked before its value, every value before the rhs
        (lambda: LinearProgram(1, rows=[({0: 1}, EQUAL, 0.5)]),
         "row 0 rhs must be an int or Fraction, got float"),
        (lambda: LinearProgram(1, rows=[({0: 0.5}, EQUAL, 0.5)]),
         "row 0 coefficient must be an int or Fraction, got float"),
        (lambda: LinearProgram(1, rows=[({0: 0.5, 1: 1}, EQUAL, 0)]),
         "row 0 coefficient must be an int or Fraction, got float"),
        (lambda: LinearProgram(1, rows=[({1: 0.5}, EQUAL, 0)]),
         "row 0: variable index 1 out of range"),
        # num_vars is an int, not a bool or a float
        (lambda: LinearProgram(True), "num_vars must be a positive int, got True"),
        (lambda: LinearProgram(2.0), "num_vars must be a positive int, got 2.0"),
    ],
)
def test_malformed_programs_keep_their_text(build, message):
    with pytest.raises(MalformedProgramError) as info:
        build()
    assert str(info.value) == message


def test_trivial_zero_rows_are_skipped_or_refuted():
    lp = LinearProgram(1, rows=[({}, LESS_EQUAL, 5), ({0: 1}, GREATER_EQUAL, 2)])
    out = solve(lp)
    assert out.status == FEASIBLE and out.solution == (F(2),)

    bad = LinearProgram(1, rows=[({}, LESS_EQUAL, -1)])
    out = solve(bad)
    assert out.status == INFEASIBLE
    assert verify_farkas(bad, out.farkas_ray)


def test_determinism_bit_for_bit():
    rng = random.Random(20240)
    for _ in range(30):
        lp = _random_lp(rng)
        a, b = solve(lp), solve(lp)
        assert a == b


def _random_lp(rng):
    nv = rng.randint(1, 5)
    nrows = rng.randint(1, 5)
    rows = []
    for _ in range(nrows):
        coeffs = {j: Fraction(rng.randint(-4, 4)) for j in rng.sample(range(nv), rng.randint(1, nv))}
        rel = rng.choice([LESS_EQUAL, EQUAL, GREATER_EQUAL])
        rows.append((coeffs, rel, Fraction(rng.randint(-6, 6), rng.randint(1, 3))))
    for j in range(nv):
        if rng.random() < 0.4:
            rows.append(({j: 1}, LESS_EQUAL, rng.randint(1, 6)))  # box x_j <= u
    obj = [Fraction(rng.randint(-3, 3)) for _ in range(nv)]
    return LinearProgram(nv, objective=obj, rows=rows)


def test_random_programs_yield_verified_certificates():
    # Certificates are self-proving: a solution that checks out proves
    # feasibility, a ray that checks out proves infeasibility. Box rows
    # x_j <= 4 keep every program bounded, so unbounded must not appear;
    # rays may lean on them, so infeasibility can come from the boxes.
    rng = random.Random(7171)
    feasible = infeasible = 0
    for _ in range(250):
        nv = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, 5)):
            coeffs = {j: Fraction(rng.randint(-3, 3)) for j in range(nv)}
            rel = rng.choice([LESS_EQUAL, EQUAL, GREATER_EQUAL])
            rows.append((coeffs, rel, Fraction(rng.randint(-4, 4), rng.randint(1, 2))))
        rows += [({j: 1}, LESS_EQUAL, 4) for j in range(nv)]
        lp = LinearProgram(
            nv,
            objective=[Fraction(rng.randint(-2, 2)) for _ in range(nv)],
            rows=rows,
        )
        out = solve(lp)
        assert out.status in (FEASIBLE, INFEASIBLE)
        if out.status == FEASIBLE:
            feasible += 1
            assert verify_solution(lp, out.solution)
            assert out.objective_value == sum(
                c * v for c, v in zip(lp.objective, out.solution)
            )
        else:
            infeasible += 1
            assert verify_farkas(lp, out.farkas_ray)
    assert feasible > 20 and infeasible > 20


def test_duals_certify_optimality_on_equality_programs():
    # For min c.x, Ax = b, x >= 0: any y with c_j - y.A_j >= 0 proves
    # y.b <= optimum; equality of y.b with the claimed objective therefore
    # certifies optimality independent of the pivot path.
    rng = random.Random(99)
    checked = 0
    for _ in range(120):
        nv = rng.randint(2, 5)
        nr = rng.randint(1, 3)
        rows = []
        for _ in range(nr):
            coeffs = {j: Fraction(rng.randint(0, 3)) for j in range(nv)}
            rows.append((coeffs, EQUAL, Fraction(rng.randint(0, 5))))
        lp = LinearProgram(nv, objective=[Fraction(rng.randint(0, 4)) for _ in range(nv)], rows=rows)
        out = solve(lp)
        if out.status != FEASIBLE:
            continue
        y = out.row_duals
        rows = oracles.fraction_rows(lp)
        for j in range(nv):
            reduced = lp.objective[j] - sum(
                y[i] * dict(row.coeffs).get(j, Fraction(0)) for i, row in enumerate(rows)
            )
            assert reduced >= 0
        assert sum(y[i] * row.rhs for i, row in enumerate(rows)) == out.objective_value
        checked += 1
    assert checked > 40


@st.composite
def boxed_programs(draw):
    """Up to 3 variables, a few random rows, and a box row x_j <= 4 on each."""
    nv = draw(st.integers(1, 3))
    small = st.integers(-3, 3)
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        coeffs = dict(enumerate(draw(st.lists(small, min_size=nv, max_size=nv))))
        relation = draw(st.sampled_from([LESS_EQUAL, EQUAL, GREATER_EQUAL]))
        rhs = F(draw(st.integers(-6, 6)), draw(st.integers(1, 3)))
        rows.append((coeffs, relation, rhs))
    rows += [({j: 1}, LESS_EQUAL, 4) for j in range(nv)]
    objective = draw(st.lists(small, min_size=nv, max_size=nv))
    return LinearProgram(nv, objective=objective, rows=rows)


@settings(max_examples=60, deadline=None, database=None)
@given(boxed_programs())
def test_simplex_matches_vertex_enumeration(lp):
    out = solve(lp)
    best = oracles.lp_vertex_optimum(lp)
    assert out.status == (FEASIBLE if best is not None else INFEASIBLE)
    if best is not None:
        assert out.objective_value == best
    else:
        assert verify_farkas(lp, out.farkas_ray)


# --- the integer tableau against the Fraction reference -----------------------


def _outcome(out):
    return (out.status, out.solution, out.objective_value, out.farkas_ray, out.row_duals,
            out.pivots)


def assert_matches_reference(lp, stall_limit=None):
    """lp.solve against the reference, both at stall_limit or each at its own default.

    Stall limit 0 is Bland's rule throughout; 1 hands over to it after
    every degenerate pivot and back after the next nondegenerate one.
    """
    if stall_limit is None:
        got, want = solve(lp), oracles.fraction_simplex_solve(lp)
    else:
        with mock.patch.object(lp_module, "_STALL_LIMIT", stall_limit):
            got = solve(lp)
        want = oracles.fraction_simplex_solve(lp, stall_limit)
    # repr, not ==: an int where the reference has a Fraction would show
    assert repr(_outcome(got)) == repr(_outcome(want))


@st.composite
def mixed_program_inputs(draw):
    """(num_vars, objective, rows) with mixed denominators in coefficients and
    rhs, negative rhs, every relation, explicit zero coefficients, and
    redundant equality rows."""
    nv = draw(st.integers(1, 5))
    value = st.builds(F, st.integers(-5, 5), st.sampled_from([1, 2, 3, 4, 6]))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        support = draw(st.lists(st.integers(0, nv - 1), max_size=nv, unique=True))
        coeffs = {j: draw(value) for j in support}  # a drawn 0 stays as an explicit zero
        relation = draw(st.sampled_from([LESS_EQUAL, EQUAL, GREATER_EQUAL]))
        rows.append((coeffs, relation, draw(value)))
    for _ in range(draw(st.integers(0, 2))):
        # a combination of equality rows is implied by them: phase 1 leaves
        # its artificial basic at zero, to be driven out or dropped
        if not any(rel == EQUAL for _, rel, _ in rows):
            coeffs, _, rhs = rows[0]
            rows[0] = (coeffs, EQUAL, rhs)
        equalities = [row for row in rows if row[1] == EQUAL]
        a, b = draw(st.sampled_from(equalities)), draw(st.sampled_from(equalities))
        ka, kb = draw(value.filter(bool)), draw(value)
        coeffs = {j: ka * a[0].get(j, 0) + kb * b[0].get(j, 0) for j in set(a[0]) | set(b[0])}
        rows.append((coeffs, EQUAL, ka * a[2] + kb * b[2]))
    objective = draw(st.lists(value, min_size=nv, max_size=nv))
    return nv, objective, rows


def mixed_programs():
    return mixed_program_inputs().map(lambda args: LinearProgram(*args))


@settings(max_examples=200, deadline=None, database=None)
@given(mixed_programs())
def test_solve_matches_fraction_reference(lp):
    assert_matches_reference(lp)


# Seeded instances with larger values than partial_functions() draws, run on
# every pass: a change in how unit columns price against structural ones
# moves the pivot path of seed 0, which the draws hit only on some runs.
_SEEDED_INSTANCES = [oracles.random_partial_function(random.Random(seed), max_m=6, max_n=8)
                     for seed in range(12)]


def with_seeded_instances(test):
    for pf in _SEEDED_INSTANCES:
        test = example(pf)(test)
    return test


# Planted-style decisions at the benchmark's size, m = 8 and n = 16: one
# extendible and one refutable instance with integer values (scale 1, where
# most pivots run at d == 1) and two with the values over 6 (scale 6, where
# most pivots run at d > 1).
_PLANTED_INSTANCES = [
    oracles.planted_partial_function(random.Random(seed), 8, 16, extendible, denominator)
    for seed, extendible, denominator in ((0, True, 1), (1, False, 1), (2, True, 6), (3, False, 6))
]


def with_planted_instances(test):
    for pf in _PLANTED_INSTANCES:
        test = example(pf)(test)
    return test


@settings(max_examples=40, deadline=None, database=None)
@given(oracles.partial_functions())
@with_seeded_instances
@with_planted_instances
def test_coverage_programs_match_fraction_reference(pf):
    columns = span_columns(pf.m, pf.masks())
    assert_matches_reference(extension_program(pf, columns))
    assert_matches_reference(alpha_star_program(pf))
    assert_matches_reference(_norm_program(pf, columns))


@settings(max_examples=60, deadline=None, database=None)
@given(mixed_programs())
def test_solve_matches_reference_with_bland_fallback(lp):
    for limit in (0, 1):
        assert_matches_reference(lp, limit)


@settings(max_examples=25, deadline=None, database=None)
@given(oracles.partial_functions())
@with_seeded_instances
def test_coverage_programs_match_reference_with_bland_fallback(pf):
    columns = span_columns(pf.m, pf.masks())
    for limit in (0, 1):
        assert_matches_reference(extension_program(pf, columns), limit)
        assert_matches_reference(alpha_star_program(pf), limit)
        assert_matches_reference(_norm_program(pf, columns), limit)


def _verdict(check, lp, vector):
    """What a verifier says about vector: its bool, or the error it raises."""
    try:
        return check(lp, vector)
    except MalformedProgramError as err:
        return repr(err)


@settings(max_examples=100, deadline=None, database=None)
@given(mixed_programs(), st.data())
def test_integer_verifiers_match_fraction_references(lp, data):
    value = st.builds(F, st.integers(-5, 5), st.sampled_from([1, 2, 3, 4, 6]))
    out = solve(lp)
    candidates = [v for v in (out.solution, out.farkas_ray, out.row_duals) if v is not None]
    for size in (lp.num_vars, lp.num_rows):
        candidates.append(data.draw(st.lists(value, min_size=size, max_size=size)))
    for base in list(candidates):
        # one entry moved by +-1/k, which may or may not break the certificate
        i = data.draw(st.integers(0, len(base) - 1))
        step = F(data.draw(st.sampled_from([-1, 1])), data.draw(st.integers(1, 6)))
        candidates.append(tuple(base[:i]) + (base[i] + step,) + tuple(base[i + 1:]))
    candidates.append(data.draw(st.lists(value, max_size=lp.num_vars + lp.num_rows + 1)))
    candidates.append([F(1, 2)] * (lp.num_rows - 1) + [0.5])  # a float entry
    for vector in candidates:
        assert _verdict(verify_solution, lp, vector) == _verdict(
            oracles.fraction_verify_solution, lp, vector)
        assert _verdict(verify_farkas, lp, vector) == _verdict(
            oracles.fraction_verify_farkas, lp, vector)


def test_verify_solution_reads_every_row():
    # (1, 0) holds all three rows, and each other point breaks one row alone
    lp = LinearProgram(2, rows=[({0: 1}, LESS_EQUAL, 1), ({1: 1}, LESS_EQUAL, 1),
                                ({0: 1, 1: 1}, GREATER_EQUAL, 1)])
    points = [(1, 0), (2, 0), (0, 2), (0, 0)]
    assert [verify_solution(lp, x) for x in points] == [True, False, False, False]


def test_beale_degenerate_program_reaches_its_optimum():
    # Chvatal's form of Beale's example, built so that Dantzig's rule cycles
    # through degenerate pivots at the origin when the slacks come first in
    # the index order. Here they come last and the solver takes six pivots.
    # The optimum -1/20 is at x = (1/25, 0, 1, 0), reached along the
    # reference's path under every stall limit.
    lp = LinearProgram(
        4,
        objective=[F(-3, 4), 150, F(-1, 50), 6],
        rows=[
            ({0: F(1, 4), 1: -60, 2: F(-1, 25), 3: 9}, LESS_EQUAL, 0),
            ({0: F(1, 2), 1: -90, 2: F(-1, 50), 3: 3}, LESS_EQUAL, 0),
            ({2: 1}, LESS_EQUAL, 1),
        ],
    )
    out = solve(lp)
    assert out.objective_value == F(-1, 20)
    assert out.solution == (F(1, 25), F(0), F(1), F(0))
    assert out.pivots == 6
    assert verify_solution(lp, out.solution)
    for limit in (None, 1, 0):
        assert_matches_reference(lp, limit)


def test_driving_out_through_a_negative_entry_drops_the_redundant_row():
    # The last row is three times the one before it. Phase 1 needs no pivot:
    # both equality rows keep their artificials basic at zero. The first of
    # them meets x1 through a negative entry, so the row is negated before x1
    # enters and the common denominator stays positive; the second then has
    # only zeros outside the artificials and is dropped. Phase 2 still has a
    # choice to make, which a wrong sign of the denominator would turn around.
    lp = LinearProgram(
        2,
        objective=[-1, 2],
        rows=[
            ({0: 1}, LESS_EQUAL, 2),
            ({0: -2, 1: -1}, GREATER_EQUAL, -1),
            ({1: F(-3, 2)}, EQUAL, 0),
            ({1: F(-9, 2)}, EQUAL, 0),
        ],
    )
    out = solve(lp)
    assert out == oracles.fraction_simplex_solve(lp)
    assert out == LpOutcome(
        FEASIBLE,
        solution=(F(1, 2), F(0)),
        objective_value=F(-1, 2),
        row_duals=(F(0), F(1, 2), F(-5, 3), F(0)),
        pivots=2,
    )


# --- the integer form against its input ----------------------------------------


@settings(max_examples=100, deadline=None, database=None)
@given(mixed_program_inputs())
def test_integer_rows_give_back_their_input(args):
    nv, objective, rows = args
    lp = LinearProgram(nv, objective, rows)
    values = [v for coeffs, _, rhs in rows for v in (rhs, *coeffs.values())]
    assert lp.scale == math.lcm(*(v.denominator for v in values))
    assert all(type(a) is int for idx, coeffs, _, rhs in lp.rows for a in (*idx, *coeffs, rhs))
    # Fraction(a, lp.scale) is every input coefficient, in index order, and rhs
    want = [(tuple(sorted(coeffs.items())), relation, rhs) for coeffs, relation, rhs in rows]
    assert [tuple(row) for row in oracles.fraction_rows(lp)] == want
    # the same rows with every integral value given as an int store the same form
    as_int = [({j: int(c) if c.denominator == 1 else c for j, c in coeffs.items()}, relation,
               int(rhs) if rhs.denominator == 1 else rhs) for coeffs, relation, rhs in rows]
    same = LinearProgram(nv, objective, as_int)
    assert (same.rows, same.scale) == (lp.rows, lp.scale)


def test_rows_of_ones_and_of_fraction_ones_are_equal():
    ones = LinearProgram(3, rows=[({0: 1, 2: 1}, EQUAL, F(1, 2)), ({1: 1}, LESS_EQUAL, 3)])
    fractions = LinearProgram(3, rows=[({2: F(1), 0: F(1)}, EQUAL, F(1, 2)),
                                       ({1: F(1)}, LESS_EQUAL, F(3))])
    assert ones.rows == fractions.rows == (((0, 2), (2, 2), EQUAL, 1), ((1,), (2,), LESS_EQUAL, 6))
    assert ones.scale == fractions.scale == 2


# --- presolve and the in-place pivot ------------------------------------------


@st.composite
def trivial_zero_rows(draw):
    """All-zero rows that every x satisfies: every relation, odd denominators,
    sometimes an explicit zero coefficient."""
    relation = draw(st.sampled_from([LESS_EQUAL, EQUAL, GREATER_EQUAL]))
    rhs = F(draw(st.integers(0, 20)), draw(st.sampled_from([1, 3, 5, 7, 97])))
    rhs = {LESS_EQUAL: rhs, EQUAL: F(0), GREATER_EQUAL: -rhs}[relation]
    coeffs = {0: F(0)} if draw(st.booleans()) else {}
    return coeffs, relation, rhs


# Two stretch programs whose paths a 1/97 row would move if the scale were
# taken over every row: unit columns would price 97 times lower against
# structural ones (10 -> 11 pivots to infeasibility, 13 -> 12 to the optimum).
_STRETCH_PROGRAMS = [alpha_star_program(PartialFunction(5, points)) for points in (
    ((16, F(8, 3)), (27, F(7)), (12, F(6)), (14, F(5)), (29, F(4)), (1, F(1, 3)), (18, F(0))),
    ((1, F(2, 3)), (18, F(5)), (26, F(1, 2)), (8, F(1, 2)), (14, F(9)), (6, F(4)), (22, F(3))),
)]


@settings(max_examples=100, deadline=None, database=None)
@given(mixed_programs(), st.lists(trivial_zero_rows(), min_size=1, max_size=3))
@example(_STRETCH_PROGRAMS[0], [({}, LESS_EQUAL, F(1, 97))])
@example(_STRETCH_PROGRAMS[1], [({}, LESS_EQUAL, F(1, 97))])
def test_trivial_zero_rows_leave_the_path_unchanged(lp, extra):
    # presolve drops such rows, so they must not move the pivot path either:
    # the solver scales the tableau by the rows it keeps
    rows = [(dict(row.coeffs), row.relation, row.rhs) for row in oracles.fraction_rows(lp)]
    padded = LinearProgram(lp.num_vars, objective=lp.objective, rows=rows + extra)
    base = solve(lp)

    def with_zero_rows(multipliers):
        return None if multipliers is None else multipliers + (F(0),) * len(extra)

    want = LpOutcome(base.status, base.solution, base.objective_value,
                     with_zero_rows(base.farkas_ray), with_zero_rows(base.row_duals), base.pivots)
    assert repr(_outcome(solve(padded))) == repr(_outcome(want))
    assert_matches_reference(padded)


def test_in_place_pivot_matches_the_dense_update():
    # (in place, d == 1) for each pivot checked: in place when pv == d, and
    # neither path divides when d == 1
    kinds = set()
    library_pivot = lp_module._Simplex.pivot

    def checked_pivot(self, pr, pc):
        before, d = [list(row) for row in self.tab], self.d
        kinds.add((before[pr][pc] == d, d == 1))
        library_pivot(self, pr, pc)
        assert self.tab == oracles.bareiss_pivot_dense(before, d, pr, pc)
        assert self.d == before[pr][pc]

    @settings(max_examples=60, deadline=None, database=None)
    @given(mixed_programs())
    def mixed(lp):
        solve(lp)

    @settings(max_examples=15, deadline=None, database=None)
    @given(oracles.partial_functions())
    @with_planted_instances
    def coverage(pf):
        columns = span_columns(pf.m, pf.masks())
        solve(extension_program(pf, columns))
        solve(alpha_star_program(pf))
        solve(_norm_program(pf, columns))

    with mock.patch.object(lp_module._Simplex, "pivot", checked_pivot):
        for limit in (lp_module._STALL_LIMIT, 0):
            with mock.patch.object(lp_module, "_STALL_LIMIT", limit):
                coverage()  # first: a broken pivot fails on a planted example, unshrunk
                mixed()
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_cost_rows_match_the_loop_over_basic_rows():
    # whether every nonzero basic cost is 1 (phase 1, and some phase-2
    # objectives), for each cost row checked
    kinds = set()
    library_set_costs = lp_module._Simplex.set_costs

    def checked_set_costs(self, costs):
        tab, basis = [list(row) for row in self.tab[:-1]], list(self.basis)
        kinds.add(all(costs[b] in (0, 1) for b in basis))
        library_set_costs(self, costs)
        assert self.tab[-1] == oracles.cost_row_loop(tab, basis, costs, self.d)
        assert self.tab[:-1] == tab and self.basis == basis

    @settings(max_examples=60, deadline=None, database=None)
    @given(mixed_programs())
    @example(LinearProgram(2, objective=[F(3), F(-2)], rows=[({0: 1, 1: 1}, EQUAL, 4)]))
    def mixed(lp):
        solve(lp)

    with mock.patch.object(lp_module._Simplex, "set_costs", checked_set_costs):
        mixed()
        for pf in _PLANTED_INSTANCES:
            solve(alpha_star_program(pf))
    assert kinds == {True, False}
