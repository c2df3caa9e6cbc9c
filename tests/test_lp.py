"""Exact simplex kernel: statuses, certificates, determinism."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

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
        for j in range(nv):
            reduced = lp.objective[j] - sum(
                y[i] * dict(row.coeffs).get(j, Fraction(0)) for i, row in enumerate(lp.rows)
            )
            assert reduced >= 0
        assert sum(y[i] * row.rhs for i, row in enumerate(lp.rows)) == out.objective_value
        checked += 1
    assert checked > 40


def test_dump_is_readable():
    lp = LinearProgram(2, objective=[1, F(1, 2)], rows=[({0: 2, 1: -1}, GREATER_EQUAL, F(5, 2))])
    text = lp.dump()
    assert "min 1 x0 + 1/2 x1" in text
    assert "2 x0 + -1 x1 >= 5/2" in text


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
def mixed_programs(draw):
    """Mixed denominators in coefficients and rhs, negative rhs, every relation,
    explicit zero coefficients, and redundant equality rows."""
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
    return LinearProgram(nv, objective=objective, rows=rows)


@settings(max_examples=200, deadline=None, database=None)
@given(mixed_programs())
def test_solve_matches_fraction_reference(lp):
    assert_matches_reference(lp)


@settings(max_examples=40, deadline=None, database=None)
@given(oracles.partial_functions())
def test_coverage_programs_match_fraction_reference(pf):
    assert_matches_reference(extension_program(pf))
    assert_matches_reference(alpha_star_program(pf))
    assert_matches_reference(_norm_program(pf, singleton_only=False))


@settings(max_examples=60, deadline=None, database=None)
@given(mixed_programs())
def test_solve_matches_reference_with_bland_fallback(lp):
    for limit in (0, 1):
        assert_matches_reference(lp, limit)


@settings(max_examples=25, deadline=None, database=None)
@given(oracles.partial_functions())
def test_coverage_programs_match_reference_with_bland_fallback(pf):
    for limit in (0, 1):
        assert_matches_reference(extension_program(pf), limit)
        assert_matches_reference(alpha_star_program(pf), limit)
        assert_matches_reference(_norm_program(pf, singleton_only=False), limit)


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
