"""The package's public names."""

import inspect
import types

import coverext


def test_all_lists_public_objects_not_modules():
    assert len(coverext.__all__) == len(set(coverext.__all__))
    for name in coverext.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(coverext, name), types.ModuleType), name


# Every public function's parameters (name, kind, default) and every public
# class's own members: a new or changed library knob shows up here as a
# reviewed edit, as a new CLI option does in test_cli.OPTIONS.
SIGNATURES = {
    "solve": "(lp)",
    "verify_farkas": "(lp, ray)",
    "verify_solution": "(lp, solution)",
    "eval_from_w": "(w, subset)",
    "is_coverage": "(f, cap=24)",
    "w_transform": "(f, cap=24)",
    "decide_extension": "(pf, cap=24)",
    "extension_program": "(pf, columns)",
    "verify_certificate": "(pf, certificate, cap=24)",
    "verify_witness": "(pf, w)",
    "alpha_bounds": "(pf, mode='exact', include_alpha_star=False, cap=24)",
    "alpha_star_exact": "(pf, cap=24)",
    "ceil_two_thirds": "(m)",
    "generate_tight_instance": "(m, k=2, seed=0, cap=24)",
    "harmonic": "(k)",
    "replacement_ratio_exact": "(pf, cap=24)",
    "replacement_ratio_greedy": "(pf)",
    "norm_extension_approx": "(pf, with_exact=False, cap=24)",
    "norm_opt_exact": "(pf, cap=24)",
    "verify_dual_feasible": "(pf, y, cap=24)",
    "check_cut_membership": "(graph, cap=24)",
    "check_span_membership": "(graph, cap=24)",
    "chromatic_gadget": "(graph, k)",
    "coverage_span_sums": "(instance)",
    "cut_to_span_gadget": "(graph, enforce_box=True)",
    "densest_cut_gadget": "(graph, density)",
    "densest_cut_report": "(graph, density, cap=24)",
    "fractional_chromatic": "(graph, cap=24)",
    "setcover_membership_gadget": "(universe_size, family, k)",
}
MEMBERS = {
    "PartialFunction": ["d", "m", "masks", "n", "points", "total_value"],
    "WCoefficients": ["m", "support"],
    "TotalSetFunction": ["m", "values"],
    "Graph": ["adjacency_masks", "cut_weight", "edges", "num_vertices", "require_weights",
              "weights"],
    "MembershipInstance": ["delta", "family_m", "family_sets", "point"],
}


def test_library_signatures_and_members_are_pinned():
    signatures = {}
    for name in coverext.__all__:
        obj = getattr(coverext, name)
        if inspect.isfunction(obj):
            sig = inspect.signature(obj)
            bare = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
            signatures[name] = str(sig.replace(parameters=bare, return_annotation=sig.empty))
    assert signatures == SIGNATURES
    members = {}
    for name in MEMBERS:
        cls = getattr(coverext, name)
        own = {*vars(cls), *cls.__annotations__}  # fields without a default are not in vars
        members[name] = sorted(n for n in own if not n.startswith("_"))
    assert members == MEMBERS
