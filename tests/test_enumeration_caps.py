"""Every exhaustive entry point refuses cap + 1 before anything else, and runs at the cap."""

from fractions import Fraction

import pytest

from coverext.approx import alpha_bounds, alpha_star_exact, generate_tight_instance
from coverext.errors import CapExceededError
from coverext.extension import decide_extension, verify_certificate
from coverext import gadgets
from coverext.gadgets import (
    Graph,
    check_cut_membership,
    check_span_membership,
    densest_cut_report,
    fractional_chromatic,
    setcover_membership_gadget,
)
from coverext.norm import norm_extension_approx, norm_opt_exact, verify_dual_feasible
from coverext.setfun import (
    PartialFunction,
    TotalSetFunction,
    is_coverage,
    w_transform,
)

F = Fraction
CAP = 3


def singletons(m):
    """Unit singletons over [m]: d = 1, so only the 2^m gates apply."""
    return PartialFunction(m, tuple((1 << j, F(1)) for j in range(m)))


def path(n, weight):
    return Graph(n, tuple((v, v + 1) for v in range(1, n)), (F(weight),) * (n - 1))


def cardinality(m):
    """f(S) = |S|, a coverage function."""
    return TotalSetFunction(m, tuple(F(s.bit_count()) for s in range(1 << m)))


def tight(n, cap):
    # m must be a perfect square with a transversal to draw, so m = 4 is the
    # smallest that runs: the row keeps m = 4 and moves the cap instead,
    # cap 3 at size 4 and cap 4 at size 3
    return generate_tight_instance(4, k=1, cap=cap + 4 - n)


# entry point -> call at ground set (or vertex set) size n under the given cap
GATED = {
    "decide_extension": lambda n, cap: decide_extension(singletons(n), cap),
    "verify_certificate": lambda n, cap: verify_certificate(singletons(n), (F(0),) * n, cap),
    "alpha_star_exact": lambda n, cap: alpha_star_exact(singletons(n), cap),
    "alpha_bounds(include_alpha_star=True)":
        lambda n, cap: alpha_bounds(singletons(n), include_alpha_star=True, cap=cap),
    "norm_opt_exact": lambda n, cap: norm_opt_exact(singletons(n), cap),
    "norm_extension_approx(with_exact=True)":
        lambda n, cap: norm_extension_approx(singletons(n), with_exact=True, cap=cap),
    "verify_dual_feasible": lambda n, cap: verify_dual_feasible(singletons(n), (F(0),) * n, cap),
    "w_transform": lambda n, cap: w_transform(cardinality(n), cap),
    "is_coverage": lambda n, cap: is_coverage(cardinality(n), cap),
    "fractional_chromatic": lambda n, cap: fractional_chromatic(path(n, 0), cap),
    "densest_cut_report": lambda n, cap: densest_cut_report(path(n, 0), 1, cap),
    "check_cut_membership": lambda n, cap: check_cut_membership(path(n, F(-1, 2)), cap),
    "check_span_membership": lambda n, cap: check_span_membership(path(n, F(-1, 2)), cap),
    "generate_tight_instance": tight,
}

# calls with a second fault that the cap must still outrank
OVER_THE_CAP = {
    "verify_certificate, wrong length": lambda: verify_certificate(singletons(4), (F(0),), CAP),
    "verify_dual_feasible, wrong length":
        lambda: verify_dual_feasible(singletons(4), (F(0),), CAP),
    "check_cut_membership, out-of-box weight": lambda: check_cut_membership(path(4, 3), CAP),
    "check_span_membership, out-of-box weight": lambda: check_span_membership(path(4, 3), CAP),
    "densest_cut_report, density 0": lambda: densest_cut_report(path(4, 0), 0, CAP),
    "generate_tight_instance, k = 0": lambda: generate_tight_instance(4, k=0, cap=CAP),
}


@pytest.mark.parametrize("name", GATED)
def test_exhaustive_entry_points_refuse_one_past_the_cap(name):
    call = GATED[name]
    with pytest.raises(CapExceededError) as info:
        call(CAP + 1, CAP)
    assert str(info.value) == f"ground set size {CAP + 1} exceeds enumeration cap {CAP}"
    call(CAP, CAP)


@pytest.mark.parametrize("name", OVER_THE_CAP)
def test_the_cap_is_checked_before_other_faults(name):
    with pytest.raises(CapExceededError) as info:
        OVER_THE_CAP[name]()
    assert str(info.value) == f"ground set size 4 exceeds enumeration cap {CAP}"


def test_tight_draws_are_bounded_by_2_to_the_cap():
    # m = 4 draws k * sqrt(4) * ceil(log2 4) = 4k transversals; cap 4 allows 16
    assert generate_tight_instance(4, k=4, cap=4).m == 4
    with pytest.raises(CapExceededError) as info:
        generate_tight_instance(4, k=5, cap=4)
    assert str(info.value) == "k * 4 transversal draws exceed 2^4"


def test_setcover_points_are_bounded_by_2_to_the_cap(monkeypatch):
    # the point has one entry per family member, one for the whole index set
    # and one per universe element: 2 + 1 + 5 = 2^3 builds, one more refuses
    monkeypatch.setattr(gadgets, "DEFAULT_ENUMERATION_CAP", CAP)
    assert len(setcover_membership_gadget(5, [[1], [2]], 1).point) == 1 << CAP
    with pytest.raises(CapExceededError) as info:
        setcover_membership_gadget(6, [[1], [2]], 1)
    assert str(info.value) == "9 points exceed 2^3"
