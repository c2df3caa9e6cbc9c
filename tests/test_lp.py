"""Exact simplex kernel: statuses, certificates, determinism."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coverext.errors import MalformedProgramError
from coverext.lp import (
    EQUAL,
    FEASIBLE,
    GREATER_EQUAL,
    INFEASIBLE,
    LESS_EQUAL,
    UNBOUNDED,
    LinearProgram,
    solve,
    verify_farkas,
    verify_solution,
)

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
