"""The library's programs against the reference path through the public constructor.

The extension, stretch, norm and coloring programs are built directly in
LinearProgram's stored integer form, with their rows read off the hit
patterns (setfun.span_rows). The reference builders in oracles write the
same programs as dict rows from span_row, over naively found columns,
and let the public constructor check, sort and scale them. Both paths
must store the same program, field for field.
"""

import random
from fractions import Fraction

import pytest

from coverext.approx import alpha_star_program
from coverext.extension import extension_program
from coverext.gadgets import Graph, _coloring_program, _independent_set_masks
from coverext.lp import LinearProgram
from coverext.norm import _held_singletons, _norm_program
from coverext.setfun import PartialFunction, span_columns

import oracles

F = Fraction


def _checked(program):
    assert type(program) is LinearProgram
    assert all(type(c) is Fraction for c in program.objective)  # == would take 0 for Fraction(0)
    return program


def _sets(pf):
    return [s for s, _ in oracles.span_columns_naive(pf.m, pf.masks())]


PROGRAMS = {
    "extension": (lambda pf: extension_program(pf, span_columns(pf.m, pf.masks())),
                  lambda pf: oracles.reference_extension_program(pf, _sets(pf))),
    "stretch": (alpha_star_program,
                lambda pf: oracles.reference_alpha_star_program(pf, _sets(pf))),
    "exact-norm": (lambda pf: _norm_program(pf, span_columns(pf.m, pf.masks())),
                   lambda pf: oracles.reference_norm_program(pf, _sets(pf))),
    "restricted-norm": (lambda pf: _norm_program(pf, _held_singletons(pf)),
                        lambda pf: oracles.reference_norm_program(
                            pf, oracles.held_singletons_naive(pf))),
}


def _instances(seed):
    """Random instances with fractional and zero values, plus hand-picked edge cases."""
    rng = random.Random(seed)
    yield PartialFunction(1, ((0b1, F(0)),))
    yield PartialFunction(4, ((0b0011, F(1, 2)), (0b1100, F(2, 3)), (0b0110, F(0))))
    yield PartialFunction(5, ((0b10000, F(3)),))  # elements 1..4 held by no point
    for _ in range(150):
        yield oracles.random_partial_function(rng, max_m=7, max_n=8)


@pytest.mark.parametrize("kind", list(PROGRAMS))
def test_builders_store_the_reference_program(kind):
    build, reference = PROGRAMS[kind]
    scaled = 0
    for pf in _instances(26):
        assert _checked(build(pf)) == _checked(reference(pf))
        scaled += build(pf).scale > 1
    assert scaled >= 100  # most draws have fractional values, so the scale is exercised


def test_coloring_builder_stores_the_reference_program():
    rng = random.Random(27)
    for _ in range(100):
        n, edges, weights = oracles.random_weighted_graph(rng, max_vertices=7)
        graph = Graph(n, edges, weights)
        sets = _independent_set_masks(graph)
        want = oracles.reference_coloring_program(n, oracles.independent_set_masks_naive(n, edges))
        assert _checked(_coloring_program(graph, sets)) == _checked(want)
