"""The value types' contract, independent of how the types are defined.

Each record returned by the library, and each input type that checks its
fields, keeps its field names, order and defaults, refuses assignment,
prints as Name(first_field=...), and hashes equal values equally. The
input types also run their checks again when a copy is made with a field
replaced, or when one is unpickled or deep-copied. A LinearProgram's
constructor takes input rows, not its stored fields, so it has checks of
its own here.
"""

import copy
import inspect
import pickle
import re
from fractions import Fraction as F

import pytest

from coverext import (
    AlphaBounds,
    CoverageCheck,
    DeltaSpec,
    DensestCutReport,
    ExtensionVerdict,
    FractionalColoring,
    Graph,
    LinearProgram,
    LpOutcome,
    MembershipCheck,
    MembershipInstance,
    NormResult,
    PartialFunction,
    TotalSetFunction,
    WCoefficients,
    alpha_bounds,
    check_cut_membership,
    decide_extension,
    densest_cut_report,
    fractional_chromatic,
    is_coverage,
    norm_extension_approx,
    setcover_membership_gadget,
    solve,
    w_transform,
)
from coverext.extension import extension_program
from coverext.setfun import span_columns

REQUIRED = inspect.Parameter.empty

PF = PartialFunction(2, ((0b01, F(1)), (0b10, F(1)), (0b11, F(3))))
C5 = Graph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)))
WEIGHTED = Graph(3, ((1, 2), (2, 3)), (F(1, 2), F(-1)))
TABLE = (0, 1, F(1, 2), F(3, 2))  # a coverage function: w({1}) = 1, w({2}) = 1/2

# input type, its (field, default) list, and a call that builds one
INPUTS = [
    (PartialFunction,
     [("m", REQUIRED), ("points", REQUIRED)],
     lambda: PartialFunction(2, ((0b01, 1), (0b10, 1), (0b11, 3)))),
    (WCoefficients,
     [("m", REQUIRED), ("support", REQUIRED)],
     lambda: w_transform(TotalSetFunction(2, TABLE))),
    (TotalSetFunction,
     [("m", REQUIRED), ("values", REQUIRED)],
     lambda: TotalSetFunction(2, TABLE)),
    (Graph,
     [("num_vertices", REQUIRED), ("edges", REQUIRED), ("weights", None)],
     lambda: Graph(3, [(2, 1), (2, 3)], [F(1, 2), -1])),
    (MembershipInstance,
     [("point", REQUIRED), ("delta", REQUIRED), ("family_m", REQUIRED), ("family_sets", REQUIRED)],
     lambda: setcover_membership_gadget(3, [[1, 2], [2, 3], [1]], 2)),
]
INPUT_IDS = [cls.__name__ for cls, _, _ in INPUTS]

# record type, its (field, default) list, and a call that returns one
RECORDS = [
    (LpOutcome,
     [("status", REQUIRED), ("solution", None), ("objective_value", None),
      ("farkas_ray", None), ("row_duals", None), ("pivots", 0)],
     lambda: solve(LinearProgram(1, [1], [({0: 1}, ">=", 1)]))),
    (ExtensionVerdict,
     [("extendible", REQUIRED), ("witness", None), ("certificate", None)],
     lambda: decide_extension(PF)),
    (AlphaBounds,
     [("kappa_estimate", REQUIRED), ("kappa_is_exact", REQUIRED), ("lower", REQUIRED),
      ("upper", REQUIRED), ("alpha_star", None), ("degenerate", False)],
     lambda: alpha_bounds(PF, include_alpha_star=True)),
    (NormResult,
     [("opt_restricted", REQUIRED), ("witness", REQUIRED), ("primal_errors", REQUIRED),
      ("dual_restricted", REQUIRED), ("dual_rounded", REQUIRED),
      ("additive_bound", REQUIRED), ("opt_exact", None)],
     lambda: norm_extension_approx(PF, with_exact=True)),
    (CoverageCheck,
     [("is_coverage", REQUIRED), ("violating_set", None), ("coefficient", None)],
     lambda: is_coverage(TotalSetFunction(2, (F(0), F(1), F(1), F(3))))),
    (FractionalColoring,
     [("independent_sets", REQUIRED), ("weights", REQUIRED)],
     lambda: fractional_chromatic(C5)[1]),
    (DeltaSpec,
     [("coefficient", REQUIRED), ("radicand", REQUIRED)],
     lambda: setcover_membership_gadget(3, [[1, 2], [2, 3], [1]], 2).delta),
    (DensestCutReport,
     [("gadget", REQUIRED), ("max_cut_value", REQUIRED), ("exceeds_density", REQUIRED),
      ("boundary", REQUIRED)],
     lambda: densest_cut_report(C5, F(1, 2))),
    (MembershipCheck,
     [("inside", REQUIRED), ("violated_set", None), ("box_edge", None)],
     lambda: check_cut_membership(WEIGHTED)),
] + INPUTS
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, make", RECORDS, ids=IDS)
def test_fields_keep_their_names_order_and_defaults(cls, fields, make):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == fields
    record = make()
    assert type(record) is cls
    assert cls(*(getattr(record, name) for name, _ in fields)) == record


@pytest.mark.parametrize("cls, fields, make", RECORDS, ids=IDS)
def test_fields_refuse_assignment(cls, fields, make):
    record = make()
    for name, _ in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("cls, fields, make", RECORDS, ids=IDS)
def test_repr_names_the_type_and_first_field(cls, fields, make):
    assert repr(make()).startswith(f"{cls.__name__}({fields[0][0]}=")


@pytest.mark.parametrize("cls, fields, make", RECORDS, ids=IDS)
def test_equal_records_hash_equal(cls, fields, make):
    first, second = make(), make()
    assert first == second and first is not second
    assert hash(first) == hash(second)


# input type, a stored field, a value the constructor refuses for it, and its message
BAD_FIELDS = [
    (PartialFunction, "m", 0, "m must be a positive int, got 0"),
    (WCoefficients, "support", ((0, F(1)),), "support mask 0 not a nonempty subset of [2]"),
    (TotalSetFunction, "numerators", (1, 1, 1, 1),
     "f(empty set) must be 0 for coverage candidacy"),
    (Graph, "edges", ((1, 1),), "self-loop at 1"),
    (MembershipInstance, "family_m", 0, "family_m must be a positive int, got 0"),
]
MAKERS = {cls: make for cls, _, make in INPUTS}
# the constructor's arguments for a type whose stored fields are not its parameters
ARGUMENTS = {TotalSetFunction: lambda m, numerators, scale: {
    "m": m, "values": [F(n, scale) for n in numerators]}}


@pytest.mark.parametrize("cls, field, bad, message", BAD_FIELDS, ids=INPUT_IDS)
def test_replacing_a_field_runs_the_constructors_checks(cls, field, bad, message):
    value = MAKERS[cls]()
    with pytest.raises(ValueError) as direct:
        cls(**ARGUMENTS.get(cls, dict)(**{**value._asdict(), field: bad}))
    assert str(direct.value) == message
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        value._replace(**{field: bad})
    if hasattr(copy, "replace"):  # Python 3.13 and later
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            copy.replace(value, **{field: bad})


@pytest.mark.parametrize("cls", MAKERS, ids=INPUT_IDS)
def test_input_types_take_no_new_attributes(cls):
    value = MAKERS[cls]()
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("cls", MAKERS, ids=INPUT_IDS)
def test_input_types_survive_pickle_and_deepcopy(cls):
    value = MAKERS[cls]()
    for clone in pickle.loads(pickle.dumps(value)), copy.deepcopy(value):
        assert type(clone) is cls and clone == value and clone is not value


# a program from the public constructor, and one the library builds in stored form
PROGRAMS = {
    "constructor": lambda: LinearProgram(2, [1, F(1, 2)],
                                         [({1: F(1, 3), 0: 1}, ">=", 2), ({0: 1}, "<=", 5)]),
    "extension_program": lambda: extension_program(PF, span_columns(PF.m, PF.masks())),
}


@pytest.mark.parametrize("make", PROGRAMS.values(), ids=PROGRAMS)
def test_programs_refuse_assignment_and_new_attributes(make):
    program = make()
    assert LinearProgram._fields == ("num_vars", "objective", "rows", "scale")
    for name in LinearProgram._fields:
        with pytest.raises(AttributeError):
            setattr(program, name, getattr(program, name))
    with pytest.raises(AttributeError):
        program.extra = 1
    assert repr(program).startswith("LinearProgram(num_vars=")


@pytest.mark.parametrize("make", PROGRAMS.values(), ids=PROGRAMS)
def test_programs_built_alike_compare_and_hash_equal(make):
    first, second = make(), make()  # a built program hashes: its rows are tuples, not a list
    assert first == second and first is not second
    assert hash(first) == hash(second)


@pytest.mark.parametrize("make", PROGRAMS.values(), ids=PROGRAMS)
def test_programs_survive_pickle_and_copies(make):
    program = make()
    for clone in pickle.loads(pickle.dumps(program)), copy.copy(program), copy.deepcopy(program):
        assert type(clone) is LinearProgram and clone == program
        assert solve(clone) == solve(program)


def test_program_make_and_replace_check_only_the_field_count():
    program = PROGRAMS["constructor"]()
    assert LinearProgram._make(tuple(program)) == program
    assert program._replace(scale=1).rows == program.rows  # the stored rows are taken as they are
    with pytest.raises(TypeError, match="^Expected 4 arguments, got 3$"):
        LinearProgram._make(tuple(program)[:3])
