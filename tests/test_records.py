"""The result records' contract, independent of how the records are defined.

Each record returned by the library keeps its field names, order and
defaults, refuses assignment, prints as Name(first_field=...), and hashes
equal records equally.
"""

import inspect
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
    NormResult,
    PartialFunction,
    TotalSetFunction,
    alpha_bounds,
    check_cut_membership,
    decide_extension,
    densest_cut_report,
    fractional_chromatic,
    is_coverage,
    norm_extension_approx,
    setcover_membership_gadget,
    solve,
)

REQUIRED = inspect.Parameter.empty

PF = PartialFunction(2, ((0b01, F(1)), (0b10, F(1)), (0b11, F(3))))
C5 = Graph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)))
WEIGHTED = Graph(3, ((1, 2), (2, 3)), (F(1, 2), F(-1)))

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
]
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
