"""Mutation check: each mutant breaks src/coverext in one place, and named tests must catch it.

Run from anywhere with `python tests/mutants.py` (needs pytest>=8.4, like the suite).
The source and the tests are copied to two temporary directories once. The
named tests must pass in the first copy, or a failure under a mutant would
prove nothing. Then two mutants run at a time, never more, one in each copy:
each replaces its snippet, which must occur exactly once in its file, runs
only its named tests against its copy and restores the file. The results
print in the order of MUTANTS. The run exits 1 if a snippet is missing or
repeated, or if any named test passes under its mutant. A named test that is
parametrized counts as caught when one of its cases fails.

Pytest does not collect this file (its name has no test_ prefix). When a
change to the tests is meant to catch a new fault, add the fault here.
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # under src/coverext
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root


MUTANTS = [
    Mutant(
        "gen tight draws at m = 1",
        "approx.py",
        "if root == 1:",
        "if False:",
        ("tests/test_approx.py::test_generate_tight_instance_rejects_bad_m",
         "tests/test_cli.py::test_gen_tight_exits_1_on_m_1_and_when_the_draws_run_out"),
    ),
    Mutant(
        "alpha_bounds computes kappa before alpha*",
        "approx.py",
        "    star = alpha_star_exact(pf, cap=cap) if include_alpha_star else None\n"
        '    if mode == "exact":\n'
        "        kappa = replacement_ratio_exact(pf, cap=cap)\n"
        "    else:\n"
        "        kappa = replacement_ratio_greedy(pf)\n",
        '    if mode == "exact":\n'
        "        kappa = replacement_ratio_exact(pf, cap=cap)\n"
        "    else:\n"
        "        kappa = replacement_ratio_greedy(pf)\n"
        "    star = alpha_star_exact(pf, cap=cap) if include_alpha_star else None\n",
        ("tests/test_cli.py::test_alpha_star_cap_refuses_before_the_kappa_dp",
         "tests/test_cli.py::test_exact_kappa_over_the_cap_exits_3"),
    ),
    Mutant(
        "stretch upper bound drops the m^(2/3) factor",
        "approx.py",
        "factor = min(pf.d, ceil_two_thirds(pf.m))",
        "factor = pf.d",
        ("tests/test_approx.py::test_alpha_bounds_upper_binds_at_the_two_thirds_power",),
    ),
    Mutant(
        "gen digest taken over compact JSON",
        "cli.py",
        "digest = hashlib.sha256(artifact.encode()).hexdigest()",
        "digest = hashlib.sha256(json.dumps(json.loads(artifact)).encode()).hexdigest()",
        ("tests/test_cli.py::test_gen_tight_then_approx",
         "tests/test_cli.py::test_every_command_reports_through_one_runner",
         "tests/test_cli_golden.py::test_cli_output_matches_golden[gen_tight]"),
    ),
    Mutant(
        "a batch exits with its last file's code",
        "cli.py",
        "worst = max(worst, code)",
        "worst = code",
        ("tests/test_cli.py::test_batch_exit_code_is_the_worst_not_the_last",),
    ),
    Mutant(
        "a batch stops at its first failing file",
        "cli.py",
        "        worst = max(worst, code)\n",
        "        worst = max(worst, code)\n        if code:\n            break\n",
        ("tests/test_cli.py::test_internal_error_in_one_file_does_not_abort_the_batch",),
    ),
    Mutant(
        "gadget chromatic --chi builds the gadget before its cap gate",
        "cli.py",
        "            require_enumerable(graph.num_vertices, args.cap)\n",
        "            pass\n",
        ("tests/test_cli.py::test_chi_cap_refuses_before_the_gadget_is_built",),
    ),
    Mutant(
        "wtransform checks its cap after the table is parsed",
        "cli.py",
        "    if isinstance(data, dict):  # the cap on m, before the parse reads all 2^m entries\n"
        '        require_enumerable(serialize._positive_int(data, "m"), args.cap)\n'
        "    total = serialize.total_function_from_json(data)\n",
        "    total = serialize.total_function_from_json(data)\n"
        "    if isinstance(data, dict):\n"
        '        require_enumerable(serialize._positive_int(data, "m"), args.cap)\n',
        ("tests/test_cli.py::test_wtransform_checks_its_cap_before_reading_the_table",),
    ),
    Mutant(
        "gadget cut2span ignores --allow-wide-weights",
        "cli.py",
        "enforce_box=not args.allow_wide_weights",
        "enforce_box=True",
        ("tests/test_cli.py::test_gadget_cut2span_allow_wide_weights",),
    ),
    Mutant(
        "over-deep JSON escapes as a RecursionError",
        "cli.py",
        "    except RecursionError as exc:\n",
        "    except ZeroDivisionError as exc:\n",
        ("tests/test_cli.py::test_unparseable_json_exits_1_naming_the_file",),
    ),
    Mutant(
        "a closed stdout escapes as a BrokenPipeError",
        "cli.py",
        "        sys.stdout.flush()  # here, where a closed stdout is still an error to report\n"
        "    except OSError as exc:\n",
        "        sys.stdout.flush()\n    except ZeroDivisionError as exc:\n",
        ("tests/test_cli.py::test_a_closed_stdout_exits_1_with_one_line",),
    ),
    Mutant(
        "InstanceParseError is no ValueError",
        "errors.py",
        "class InstanceParseError(CoverextError, ValueError):",
        "class InstanceParseError(CoverextError):",
        ("tests/test_cli.py::test_parse_error_exit_code",),
    ),
    Mutant(
        "fractional_chromatic drops the last set of its coloring",
        "gadgets.py",
        "chosen = [(s, x) for s, x in zip(sets, outcome.solution) if x]",
        "chosen = [(s, x) for s, x in zip(sets, outcome.solution) if x][:-1]",
        ("tests/test_gadgets.py::test_fractional_chromatic_coloring_covers_each_vertex_once",),
    ),
    Mutant(
        "independent sets of 5 or more vertices are dropped",
        "gadgets.py",
        "if independent[rest] and not adj[low.bit_length()] & rest:",
        "if independent[rest] and not adj[low.bit_length()] & rest and mask.bit_count() < 5:",
        ("tests/test_gadgets.py::test_independent_sets_match_a_literal_scan",),
    ),
    Mutant(
        "setcover_membership_gadget accepts k=True",
        "gadgets.py",
        "    if not _is_int(k):\n",
        "    if not isinstance(k, int):\n",
        ("tests/test_gadgets.py::test_graph_and_gadget_refusals_keep_their_text",),
    ),
    Mutant(
        "check_cut_membership tests the span polytope",
        "gadgets.py",
        "return _check_membership(graph, cap, 2)",
        "return _check_membership(graph, cap, 1)",
        ("tests/test_span_kernel.py::test_membership_matches_an_ascending_scan",),
    ),
    Mutant(
        "verify_certificate without its cap gate",
        "extension.py",
        "    require_enumerable(pf.m, cap)\n    if len(certificate) != pf.n:",
        "    if len(certificate) != pf.n:",
        ("tests/test_enumeration_caps.py::test_exhaustive_entry_points_refuse_one_past_the_cap"
         "[verify_certificate]",
         "tests/test_enumeration_caps.py::test_the_cap_is_checked_before_other_faults"
         "[verify_certificate, wrong length]"),
    ),
    Mutant(
        "decide_extension skips its certificate check",
        "extension.py",
        "if violation is not None or _objective(pf, certificate) <= 0:",
        "if False:",
        ("tests/test_extension.py::test_a_ray_with_a_positive_span_sum_is_refused",),
    ),
    Mutant(
        "a decision rebuilds its closure for the check",
        "extension.py",
        "if violation is not None or _objective(pf, certificate) <= 0:",
        "if not verify_certificate(pf, certificate, cap=cap):",
        ("tests/test_extension.py::test_columns_are_built_once_per_decision",),
    ),
    Mutant(
        "verify_witness accepts negative weights",
        "extension.py",
        "if w.m != pf.m or not coverage_check(w.support).is_coverage:",
        "if w.m != pf.m:",
        ("tests/test_extension.py::test_verify_witness_examples",),
    ),
    Mutant(
        "verify_dual_feasible without its cap gate",
        "norm.py",
        "    require_enumerable(pf.m, cap)\n    if len(y) != pf.n:",
        "    if len(y) != pf.n:",
        ("tests/test_enumeration_caps.py::test_exhaustive_entry_points_refuse_one_past_the_cap"
         "[verify_dual_feasible]",
         "tests/test_enumeration_caps.py::test_the_cap_is_checked_before_other_faults"
         "[verify_dual_feasible, wrong length]"),
    ),
    Mutant(
        "LinearProgram skips the coefficient type check",
        "lp.py",
        '                if not _is_int(val):  # ints stay ints: _scaled reads both\n'
        '                    _coerce_value(val, f"row {k} coefficient", MalformedProgramError)\n',
        "",
        ("tests/test_lp.py::test_malformed_programs_rejected",),
    ),
    Mutant(
        "LinearProgram keeps each row's coefficients unsorted",
        "lp.py",
        "checked.append((sorted(coeffs.items()), relation, rhs))",
        "checked.append((list(coeffs.items()), relation, rhs))",
        ("tests/test_lp.py::test_integer_rows_give_back_their_input",),
    ),
    Mutant(
        "partial functions accept negative values",
        "serialize.py",
        '        if value < 0:\n'
        '            raise InstanceParseError(f"{where}: value must be nonnegative")\n',
        "",
        ("tests/test_serialize.py::test_entry_errors_keep_their_text",),
    ),
    Mutant(
        "W-coefficients ignore the table's scale",
        "setfun.py",
        "Fraction(-t, f.scale)) for mask, t in _w_values(f))",
        "Fraction(-t)) for mask, t in _w_values(f))",
        ("tests/test_setfun.py::test_transform_matches_naive_oracle",
         "tests/test_acceptance.py::test_criterion_01_w_transform_roundtrip"),
    ),
    Mutant(
        "is_coverage flags the first positive coefficient",
        "setfun.py",
        "for mask, t in _w_values(f) if t > 0)",
        "for mask, t in _w_values(f) if t < 0)",
        ("tests/test_setfun.py::test_is_coverage_gives_the_verdict_of_the_transforms_support",),
    ),
    Mutant(
        "subset-pass lanes one bit short",
        "setfun.py",
        "(peak.bit_length() + m + 8) // 8",
        "(peak.bit_length() + m + 7) // 8",
        ("tests/test_span_kernel.py::test_subset_pass_is_exact_at_the_lane_edges",),
    ),
    Mutant(
        "Mobius lanes lose their excess",
        "setfun.py",
        "x = x - ((x << s) & held) + (top & held)",
        "x = x - ((x << s) & held)",
        ("tests/test_span_kernel.py::test_subset_pass_matches_literal_subset_sums",),
    ),
    Mutant(
        "lanes holding bit i derived upward",
        "setfun.py",
        "held ^= held >> s",
        "held ^= held << s",
        ("tests/test_span_kernel.py::test_subset_pass_matches_literal_subset_sums",),
    ),
    Mutant(
        "the subset pass bounds a signed table by its max alone",
        "setfun.py",
        "peak = max(table) if nonnegative else max(max(table), -min(table))",
        "peak = max(table)",
        ("tests/test_span_kernel.py::test_subset_pass_matches_literal_subset_sums",),
    ),
    Mutant(
        "the packed pass keeps its array through the shift loop",
        "setfun.py",
        'x = int.from_bytes(array(code, table).tobytes(), "little") ^ top',
        'lanes = array(code, table)\n        x = int.from_bytes(lanes.tobytes(), "little") ^ top',
        ("tests/test_span_kernel.py::test_packed_pass_lets_its_array_go_once_packed",),
    ),
    Mutant(
        "hit patterns read the next element",
        "setfun.py",
        "hit[low.bit_length() - 1] |= 1 << i",
        "hit[low.bit_length() - 2] |= 1 << i",
        ("tests/test_span_kernel.py::"
         "test_span_violation_is_the_first_positive_span_in_ascending_order",
         "tests/test_span_kernel.py::test_hit_patterns_match_a_literal_loop"),
    ),
    Mutant(
        "scale not least",
        "setfun.py",
        "return super().__new__(cls, m, tuple(numerators), scale)",
        "return super().__new__(cls, m, tuple(2 * n for n in numerators), scale * 2)",
        ("tests/test_setfun.py::"
         "test_stored_integers_are_the_values_over_their_least_common_denominator",),
    ),
    Mutant(
        "negativity check skipped",
        "setfun.py",
        "        if min(numerators) < 0:\n",
        "        if False:\n",
        ("tests/test_setfun.py::test_constructor_refusals_keep_their_text",
         "tests/test_setfun.py::"
         "test_replacing_pickling_and_copying_a_stored_table_run_the_checks"),
    ),
    Mutant(
        "values ignores scale",
        "setfun.py",
        "Fraction(n, self.scale) for n in self.numerators",
        "Fraction(n) for n in self.numerators",
        ("tests/test_setfun.py::"
         "test_stored_integers_are_the_values_over_their_least_common_denominator",),
    ),
    Mutant(
        "the union DP skips every part that holds a kept bit",
        "setfun.py",
        "if not new:  # grows no union",
        "if new:  # grows no union",
        ("tests/test_span_columns.py::test_span_columns_match_bruteforce_grouping",
         "tests/test_span_kernel.py::test_pruned_closure_finds_the_smallest_positive_set"),
    ),
    Mutant(
        "the union DP grows a union by a part that adds no kept bit",
        "setfun.py",
        "if new & ~union:",
        "if new:",
        ("tests/test_span_columns.py::test_keep_gives_the_least_cost_over_chains_of_new_kept_bits",
         "tests/test_span_columns.py::test_a_pruned_closure_grows_sets_only_by_new_kept_points",
         "tests/test_approx.py::test_tight_validation_prices_at_most_one_element_per_block"),
    ),
    Mutant(
        "span_violation prices weights that pair with no point",
        "setfun.py",
        "    if len(points) != len(weights):  # an unpaired weight would go unpriced\n",
        "    if False:\n",
        ("tests/test_span_kernel.py::test_span_violation_pairs_every_point_with_one_weight",),
    ),
    Mutant(
        "the span checks keep the negative points",
        "setfun.py",
        "keep = sum(1 << i for i, w in enumerate(ints) if w > 0)",
        "keep = sum(1 << i for i, w in enumerate(ints) if w < 0)",
        ("tests/test_extension.py::test_verify_certificate_examples",
         "tests/test_norm.py::test_dual_feasibility_examples",
         "tests/test_span_kernel.py::test_pruned_closure_finds_the_smallest_positive_set"),
    ),
    Mutant(
        "span_columns feeds the union DP its highest element first",
        "setfun.py",
        "parts = ((hit, 1 << j) for j, hit in enumerate(hit_patterns(m, points)))",
        "parts = reversed([(hit, 1 << j) for j, hit in enumerate(hit_patterns(m, points))])",
        ("tests/test_span_columns.py::test_span_columns_match_bruteforce_grouping",),
    ),
    Mutant(
        "span_violation returns the last positive column",
        "setfun.py",
        "return next((s for (s, _), total in zip(columns, sums) if total > 0), None)",
        "return ([None] + [s for (s, _), total in zip(columns, sums) if total > 0])[-1]",
        ("tests/test_span_kernel.py::"
         "test_span_violation_is_the_first_positive_span_in_ascending_order",),
    ),
    Mutant(
        "gadget setcover builds any universe",
        "gadgets.py",
        "    if points > 1 << DEFAULT_ENUMERATION_CAP:  # read here, not bound as a default\n"
        '        raise CapExceededError(f"{points} points exceed 2^{DEFAULT_ENUMERATION_CAP}")\n',
        "",
        ("tests/test_enumeration_caps.py::test_setcover_points_are_bounded_by_2_to_the_cap",),
    ),
    Mutant(
        "fractional_chromatic leaves __all__",
        "__init__.py",
        '"fractional_chromatic", ',
        "",
        ("tests/test_package.py::test_library_signatures_and_members_are_pinned",),
    ),
    Mutant(
        "the package's __getattr__ returns the module, not the name",
        "__init__.py",
        "value = globals()[name] = getattr(module, name)",
        "value = globals()[name] = module",
        ("tests/test_package.py::test_every_public_name_is_its_modules_object",),
    ),
    Mutant(
        "verify_solution filed under setfun",
        "__init__.py",
        '"verify_solution"),\n    "setfun": ("DEFAULT_ENUMERATION_CAP", ',
        '),\n    "setfun": ("verify_solution", "DEFAULT_ENUMERATION_CAP", ',
        ("tests/test_package.py::test_every_public_name_is_its_modules_object",),
    ),
    Mutant(
        "the package's __dir__ dropped",
        "__init__.py",
        "def __dir__():",
        "def _dir():",
        ("tests/test_package.py::test_dir_lists_every_public_name_before_use",),
    ),
    Mutant(
        "PartialFunction._replace skips the checks",
        "setfun.py",
        "    _make = _checked_make\n\n    def __new__(cls, m, points):",
        "\n    def __new__(cls, m, points):",
        ("tests/test_records.py::"
         "test_replacing_a_field_runs_the_constructors_checks[PartialFunction]",),
    ),
    Mutant(
        "Graph instances get a __dict__",
        "gadgets.py",
        "    __slots__ = ()\n    _make = _checked_make\n\n    def __new__(cls, num_vertices,",
        "    _make = _checked_make\n\n    def __new__(cls, num_vertices,",
        ("tests/test_records.py::test_input_types_take_no_new_attributes[Graph]",),
    ),
    Mutant(
        "MembershipInstance keeps the caller's family_sets object",
        "gadgets.py",
        "delta, family_m, tuple(family_sets))",
        "delta, family_m, family_sets)",
        ("tests/test_gadgets.py::"
         "test_membership_instance_keeps_its_own_copy_of_the_family_sets",),
    ),
    Mutant(
        "a negative --cap is accepted",
        "cli.py",
        'if getattr(args, "cap", 0) < 0:',
        "if False:",
        ("tests/test_cli.py::test_a_negative_cap_is_a_usage_error_before_any_input_is_read",),
    ),
    Mutant(
        "span_rows reads the next pattern bit",
        "setfun.py",
        "map((1 << i).__and__, patterns)",
        "map((2 << i).__and__, patterns)",
        ("tests/test_span_rows.py::test_builders_store_the_reference_program[extension]",
         "tests/test_span_rows.py::test_coloring_builder_stores_the_reference_program"),
    ),
    Mutant(
        "the norm program drops the scale from its error coefficients",
        "norm.py",
        "coeffs + (-scale,)",
        "coeffs + (-1,)",
        ("tests/test_span_rows.py::test_builders_store_the_reference_program[exact-norm]",
         "tests/test_span_rows.py::test_builders_store_the_reference_program[restricted-norm]"),
    ),
    Mutant(
        "extension_program hands _make the list from span_rows",
        "extension.py",
        "(_ZERO,) * len(columns), tuple(rows), scale))",
        "(_ZERO,) * len(columns), rows, scale))",
        ("tests/test_records.py::test_programs_built_alike_compare_and_hash_equal",),
    ),
    Mutant(
        "the in-place pivot at d == 1 updates the pivot row too",
        "lp.py",
        "                if f and i != pr:\n                    if d == 1:\n",
        "                if f and (i != pr or d == 1):\n                    if d == 1:\n",
        ("tests/test_lp.py::test_in_place_pivot_matches_the_dense_update",),
    ),
    Mutant(
        "the sparse rescale skips the rhs column",
        "lp.py",
        "for j in itertools.compress(range(len(row)), row):",
        "for j in itertools.compress(range(len(row) - 1), row):",
        ("tests/test_lp.py::test_in_place_pivot_matches_the_dense_update",),
    ),
    Mutant(
        "a full pivot from d == 1 leaves the row unscaled",
        "lp.py",
        "tab[i] = [a * pv - f * b for a, b in zip(row, prow)]",
        "tab[i] = [a - f * b for a, b in zip(row, prow)]",
        ("tests/test_lp.py::test_in_place_pivot_matches_the_dense_update",),
    ),
    Mutant(
        "the column-sum cost row serves basic costs other than 1",
        "lp.py",
        "if basic and all(cb == 1 for _, cb in basic):",
        "if basic:",
        ("tests/test_lp.py::test_cost_rows_match_the_loop_over_basic_rows",),
    ),
    Mutant(
        "only positive reduced costs give a row dual",
        "lp.py",
        "        if cost[ic]:\n",
        "        if cost[ic] > 0:\n",
        ("tests/test_lp.py::test_coverage_programs_match_fraction_reference",),
    ),
    Mutant(
        "the solution check skips the first row",
        "lp.py",
        "    for idx, coeffs, relation, rhs in lp.rows:\n",
        "    for idx, coeffs, relation, rhs in lp.rows[1:]:\n",
        ("tests/test_lp.py::test_verify_solution_reads_every_row",),
    ),
    Mutant(
        "LinearProgram copies through __new__",
        "lp.py",
        "    def __reduce__(self):  # copies rebuild the stored form; __new__ takes input rows\n"
        "        return tuple.__new__, (type(self), tuple(self))\n",
        "",
        ("tests/test_records.py::test_programs_survive_pickle_and_copies",),
    ),
    Mutant(
        "serialize imports Graph at module level again",
        "serialize.py",
        "from .errors import InstanceParseError\n",
        "from .errors import InstanceParseError\nfrom .gadgets import Graph\n",
        ("tests/test_package.py::test_serialize_imports_no_solver_module",),
    ),
    Mutant(
        "norm_extension_approx computes exact after the restricted solve",
        "norm.py",
        "    exact = norm_opt_exact(pf, cap=cap) if with_exact else None  # its cap gate refuses first\n"
        "    singletons = _held_singletons(pf)\n"
        "    outcome = solve(_norm_program(pf, singletons))\n",
        "    singletons = _held_singletons(pf)\n"
        "    outcome = solve(_norm_program(pf, singletons))\n"
        "    exact = norm_opt_exact(pf, cap=cap) if with_exact else None\n",
        ("tests/test_cli.py::test_norm_exact_over_the_cap_refuses_before_any_program_is_built",),
    ),
    Mutant(
        "norm_opt_exact drops F from OPT",
        "norm.py",
        "return outcome.objective_value + pf.total_value",
        "return outcome.objective_value",
        ("tests/test_norm.py::test_slack_form_matches_the_equality_form",
         "tests/test_norm.py::test_triangle_instance"),
    ),
    Mutant(
        "the restricted duals lose their 1 + shift",
        "norm.py",
        "dual = tuple(1 + u for u in outcome.row_duals)",
        "dual = tuple(outcome.row_duals)",
        ("tests/test_norm.py::test_slack_form_matches_the_equality_form",),
    ),
    Mutant(
        "a column's objective counts 1 in place of |pattern|",
        "norm.py",
        "cost[p.bit_count()]",
        "cost[1]",
        ("tests/test_norm.py::test_slack_form_matches_the_equality_form",
         "tests/test_span_rows.py::test_builders_store_the_reference_program[restricted-norm]"),
    ),
    Mutant(
        "eps+ costs 1 in place of 2",
        "norm.py",
        "(_TWO,) * pf.n",
        "(_ONE,) * pf.n",
        ("tests/test_norm.py::test_slack_form_matches_the_equality_form",
         "tests/test_span_rows.py::test_builders_store_the_reference_program[restricted-norm]"),
    ),
    Mutant(
        "eps+ enters its row with a plus sign",
        "norm.py",
        "coeffs + (-scale,)",
        "coeffs + (scale,)",
        ("tests/test_norm.py::test_slack_form_matches_the_equality_form",
         "tests/test_span_rows.py::test_builders_store_the_reference_program[restricted-norm]"),
    ),
    Mutant(
        "_held_singletons scans every element below m",
        "norm.py",
        "hit_patterns(top, pf.masks())",
        "hit_patterns(pf.m, pf.masks())",
        ("tests/test_norm.py::test_held_singletons_scan_no_element_past_the_highest_held_one",),
    ),
]

#: Mutants that run at once, each in its own copy of the source and the tests.
_COPIES = 2

# A mutant needs only to know that a test fails, not its smallest failing
# example: shrinking took up to 10 s of a mutant's run. The profile is loaded
# before the tests are imported, so their own settings(...) inherit it.
_PYTEST_WITHOUT_SHRINKING = (
    "import sys, pytest\n"
    "from hypothesis import Phase, settings\n"
    "settings.register_profile('mutants', phases=[p for p in Phase\n"
    "                                             if p not in (Phase.shrink, Phase.explain)])\n"
    "settings.load_profile('mutants')\n"
    "sys.exit(pytest.main(sys.argv[1:]))\n"
)


def _failures(root: Path, tests) -> set[str]:
    """The ids among tests (or their cases) that fail or error when run against root."""
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", _PYTEST_WITHOUT_SHRINKING,
         "-q", "--tb=no", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, capture_output=True, text=True,
    )
    shutil.rmtree(root / ".hypothesis", ignore_errors=True)  # no replay across mutants
    if done.returncode not in (0, 1):  # 0: all passed, 1: some failed; else a usage error
        raise RuntimeError(f"pytest exited {done.returncode}:\n{done.stdout}{done.stderr}")
    return {line.split(" ", 1)[1].split(" - ", 1)[0]
            for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))}


def _caught(test: str, failed: set[str]) -> bool:
    return any(f == test or f.startswith(test + "[") for f in failed)


def _verdict(mutant: Mutant, copies: queue.Queue) -> str:
    """Run one mutant in a free copy, restore the copy, and give the line to print."""
    root = copies.get()
    try:
        path = root / "src" / "coverext" / mutant.file
        original = path.read_text()
        count = original.count(mutant.snippet)
        if count != 1:
            return f"BAD SNIPPET  {mutant.name}: found {count} times in {mutant.file}"
        path.write_text(original.replace(mutant.snippet, mutant.replacement))
        try:
            failed = _failures(root, mutant.tests)
        finally:
            path.write_text(original)
    finally:
        copies.put(root)
    survivors = [t for t in mutant.tests if not _caught(t, failed)]
    if survivors:
        return "\n  ".join([f"SURVIVED     {mutant.name}: passed", *survivors])
    return f"killed       {mutant.name}"


def main() -> int:
    repo = Path(__file__).resolve().parent.parent
    started = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        copies = queue.Queue()
        for k in range(_COPIES):
            root = Path(tmp) / str(k)
            for part in ("src", "tests"):
                shutil.copytree(repo / part, root / part,
                                ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(repo / "pyproject.toml", root)
            copies.put(root)

        failed = _failures(Path(tmp) / "0", sorted({t for m in MUTANTS for t in m.tests}))
        if failed:
            print("named tests fail on the unmutated source:", *sorted(failed), sep="\n  ")
            return 1

        bad = 0
        with ThreadPoolExecutor(max_workers=_COPIES) as pool:
            for line in pool.map(_verdict, MUTANTS, [copies] * len(MUTANTS)):
                print(line, flush=True)
                bad += not line.startswith("killed")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed "
          f"in {time.monotonic() - started:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
