"""The package's public names."""

import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import coverext

SRC = str(Path(__file__).resolve().parent.parent / "src")


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
    "TotalSetFunction": ["m", "numerators", "scale", "values"],
    "Graph": ["adjacency_masks", "cut_weight", "edges", "num_vertices", "require_weights",
              "weights"],
    "MembershipInstance": ["delta", "family_m", "family_sets", "point"],
    "LinearProgram": ["num_rows", "num_vars", "objective", "rows", "scale"],
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
        own = {*vars(cls), *cls._fields}  # the fields live on the named tuple base, not in vars
        members[name] = sorted(n for n in own if not n.startswith("_"))
    assert members == MEMBERS


# Each library module and the public names it defines; __all__ lists them in this order.
EXPORTS = {
    "errors": ["CapExceededError", "CoverextError", "InstanceParseError",
               "MalformedProgramError", "SeedExhaustedError"],
    "lp": ["EQUAL", "FEASIBLE", "GREATER_EQUAL", "INFEASIBLE", "LESS_EQUAL", "UNBOUNDED",
           "LinearProgram", "LpOutcome", "solve", "verify_farkas", "verify_solution"],
    "setfun": ["DEFAULT_ENUMERATION_CAP", "CoverageCheck", "PartialFunction", "TotalSetFunction",
               "WCoefficients", "eval_from_w", "is_coverage", "w_transform"],
    "extension": ["ExtensionVerdict", "decide_extension", "extension_program",
                  "verify_certificate", "verify_witness"],
    "approx": ["AlphaBounds", "alpha_bounds", "alpha_star_exact", "ceil_two_thirds",
               "generate_tight_instance", "harmonic", "replacement_ratio_exact",
               "replacement_ratio_greedy"],
    "norm": ["NormResult", "norm_extension_approx", "norm_opt_exact", "verify_dual_feasible"],
    "gadgets": ["DeltaSpec", "DensestCutReport", "FractionalColoring", "Graph", "MembershipCheck",
                "MembershipInstance", "check_cut_membership", "check_span_membership",
                "chromatic_gadget", "coverage_span_sums", "cut_to_span_gadget",
                "densest_cut_gadget", "densest_cut_report", "fractional_chromatic",
                "setcover_membership_gadget"],
}


def fresh(code):
    """Run code in a new interpreter after `import coverext`; return what it prints, as JSON.

    The code reads EXPORTS as `exports` and prints through `out`.
    """
    prelude = ("import importlib, json, sys\n"
               "import coverext\n"
               "exports = json.loads(sys.argv[1])\n"
               "def out(value): print(json.dumps(value))\n")
    done = subprocess.run([sys.executable, "-c", prelude + code, json.dumps(EXPORTS)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_loads_each_module_on_first_use():
    loaded = "sorted(m for m in sys.modules if m.startswith('coverext.'))"
    before, after, cached, same = fresh(
        f"before = {loaded}\n"
        "solve = coverext.solve\n"
        f"out([before, {loaded}, 'solve' in vars(coverext), solve is coverext.lp.solve])"
    )
    assert before == []
    assert after == ["coverext.errors", "coverext.lp", "coverext.setfun"]
    assert cached and same


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # -S: no site-packages, whose .pth files may import either module on their own
    code = (f"import sys; sys.path.insert(0, {SRC!r}); import coverext.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_serialize_imports_no_solver_module():
    # the result types it writes appear in its annotations only, and Graph is
    # imported by the one function that builds one
    code = (f"import sys; sys.path.insert(0, {SRC!r}); import coverext.serialize as s\n"
            "print(sorted({'coverext.approx', 'coverext.extension', 'coverext.norm',"
            " 'coverext.gadgets', 'coverext.lp'} & set(sys.modules)))\n"
            "graph = s.graph_from_json({'vertices': 2, 'edges': [[1, 2]]})\n"
            "import coverext.gadgets; print(type(graph) is coverext.gadgets.Graph)")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\nTrue\n", "")


def test_pytest_loads_hypothesis_plugin_alone(pytestconfig):
    # pyproject.toml turns plugin autoload off and names hypothesis's plugin:
    # an autoloaded plugin has its whole package assert-rewritten at every start
    plugins = pytestconfig.pluginmanager.list_plugin_distinfo()
    assert [dist.metadata["name"] for _, dist in plugins] == ["hypothesis"]


def test_all_lists_every_name_once_in_table_order():
    listed = fresh("out(coverext.__all__)")
    assert len(listed) == 56
    assert listed == [name for names in EXPORTS.values() for name in names]


def test_every_public_name_is_its_modules_object():
    wrong = fresh(
        "out([name for module, names in exports.items() for name in names\n"
        "     if getattr(coverext, name) is not\n"
        "        getattr(importlib.import_module('coverext.' + module), name)])"
    )
    assert wrong == []


def test_the_library_modules_resolve_after_a_bare_import():
    names, elements = fresh(
        "out([[getattr(coverext, m).__name__ for m in exports],\n"
        "     coverext.setfun.mask_to_elements(0b101)])"
    )
    assert names == ["coverext." + m for m in EXPORTS]
    assert elements == [1, 3]


def test_dir_lists_every_public_name_before_use():
    assert fresh("out(sorted(set(coverext.__all__) - set(dir(coverext))))") == []


def test_an_unknown_name_raises_attribute_error():
    message = fresh(
        "try:\n"
        "    coverext.nope\n"
        "except AttributeError as exc:\n"
        "    out(str(exc))"
    )
    assert message == "module 'coverext' has no attribute 'nope'"


def test_star_import_binds_every_public_name():
    missing = fresh(
        "names = {}\n"
        "exec('from coverext import *', names)\n"
        "out([n for n in coverext.__all__ if names.get(n) is not getattr(coverext, n)])"
    )
    assert missing == []
