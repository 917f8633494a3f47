"""Mutation probe of the certificate path, the run's screen, the
constants it forms once and its stall span, the a priori run, a trace's
budgets, the table's refusals before its first cell, the apex start's
digits, the proof-chain audit, the spans it reads from the trace, the
constants it forms once and the range of its modulus core, the start
check, the cyclic validators and their declaration slacks, the norm
constants, the two-coordinate norm kernel and its skip of a negligible
term, the length checks of `lp_norm` and `dist`, the map's signed terms,
its y image and its zero branch, the convexity check, the pattern
search's step, trial points and skipped trials, the argmins' skipped
points, the sampler's candidates and its box check, the suites' residual
and separation checks, the norms suite's seeds and the check of an empty
`--out`: apply hand-written mutants, one at a time, to a copy of the
package and report which the tests kill.

Each mutant replaces one text, which must occur exactly once in its file,
by another, and names the test that kills it.  The copy lives in a
temporary directory; the checkout is never written.  Run from anywhere,
with the standard library and the test dependencies only:

    python3 tools/mutation_probe.py

Each mutant runs its named test first.  Where that test passes on the
mutant, the probe prints that the map of mutants to tests is stale and runs
all of `tests` on it.  A mutant is killed when the tests fail on it, or
when they run past TIMEOUT_S (a mutant that makes a search walk can hang
the suite instead of failing it).  The unmutated copy runs first: all of
`tests`, then the named tests together, and both must pass.  Exits 1
unless every mutant is killed.  A named test takes about a second, most of
it pytest's start; a run of the full suite about as long as Tier-1.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOLVER = "src/bestprox/solver.py"
ORACLE = "src/bestprox/oracle.py"
CYCLIC = "src/bestprox/cyclic.py"
NORMS = "src/bestprox/norms.py"
CLI = "src/bestprox/cli.py"
TIMEOUT_S = 600.0  # a run this long counts as killed by a hang


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    test: str  # a test id that fails on the mutant


MUTANTS = [
    Mutant("STOP_MARGIN 2^-20 -> 2^-8", SOLVER,
           "STOP_MARGIN = 2.0 ** -20", "STOP_MARGIN = 2.0 ** -8",
           "tests/test_solver.py::TestStopExcess::test_unresolved_power_factor_forms_no_threshold"),
    Mutant("screen hi = h (1 - width)", SOLVER,
           "else h * (1 + consts.q * STOP_MARGIN)", "else h * (1 - consts.q * STOP_MARGIN)",
           "tests/test_solver.py::TestStopScreen::test_a_run_stops_at_a_step_just_inside_the_threshold[None-2.0]"),
    Mutant("STALL_HALF_LIVES 10 -> 3", SOLVER,
           "STALL_HALF_LIVES = 10", "STALL_HALF_LIVES = 3",
           "tests/test_cli.py::TestVerify::test_bounds_suite_matches_golden_bytes[0.05-1]"),
    Mutant("span taken with floor, not ceil", SOLVER,
           "span = math.ceil(", "span = math.floor(",
           "tests/test_cli.py::TestVerify::test_bounds_suite_matches_golden_bytes[0.05-1]"),
    Mutant("a priori loop one step short", SOLVER,
           "for _ in range(target):", "for _ in range(target - 1):",
           "tests/test_acceptance.py::test_criterion_8_uniqueness_periodicity"),
    Mutant("cap refusal's fewest step + 2", ORACLE,
           "/ mp.log(lam)) / 2))\n", "/ mp.log(lam)) / 2)) + 2\n",
           "tests/test_cli.py::test_a_posteriori_table_beyond_the_cap_is_refused_before_it_runs"),
    Mutant("table pre-pass skipped", ORACLE,
           "            _plan_cell(lam, p, x0, eps)\n", "            pass\n",
           "tests/test_cli.py::test_a_table_refuses_a_later_cell_before_the_first_runs"),
    Mutant("digit cushion 20 -> 8", ORACLE,
           "int(mp.ceil(mp.log10(d / h))) + 20)", "int(mp.ceil(mp.log10(d / h))) + 8)",
           "tests/test_oracle.py::TestWorkingPrecisionDigits::test_deepest_cell_is_sized_from_its_threshold_excess"),
    Mutant("certificate x 0.999", SOLVER,
           "return X / denom * (gap / Cd) ** root * tail",
           "return X / denom * (gap / Cd) ** root * tail * 0.999",
           "tests/test_cli.py::TestSolve::test_trace_csv_matches_golden_bytes"),
    Mutant("certificate labels X as D at m = 1", SOLVER,
           'name = "P" if m == 1 else "D"', 'name = "D" if m == 1 else "P"',
           "tests/test_solver.py::TestAprioriBound::test_gap_just_beyond_the_clamp_is_rejected"),
    Mutant("certificate admits 1 - k^(2/q) = 0", SOLVER,
           "if not (denom > 0 and", "if not (denom >= 0 and",
           "tests/test_cli.py::test_k_whose_power_rounds_to_1_is_exit_2_naming_k_and_q[apriori-solve]"),
    Mutant("certificate admits an infinite d / (1 - k^(2/q))", SOLVER,
           "d / denom < math.inf", "d / denom <= math.inf",
           "tests/test_solver.py::TestCertificateEvaluator::test_run_constants_without_a_finite_bound_are_refused_naming_d_k_and_q[1e+305-0.99999999-2.0]"),
    Mutant("C d x 1.001", SOLVER,
           "return denom, consts.C * d, k ** (m / q)",
           "return denom, consts.C * d * 1.001, k ** (m / q)",
           "tests/test_cli.py::TestSolve::test_trace_csv_matches_golden_bytes"),
    Mutant("GAP_CLAMP 1e-12 -> 1e-6", SOLVER,
           "GAP_CLAMP = 1e-12", "GAP_CLAMP = 1e-6",
           "tests/test_solver.py::TestAprioriBound::test_gap_just_beyond_the_clamp_is_rejected"),
    Mutant("stop_excess guard tol = margin * 8", SOLVER,
           "tol = q * STOP_MARGIN / 8", "tol = q * STOP_MARGIN * 8",
           "tests/test_solver.py::TestStopScreen::test_threshold_resolved_within_the_margin_but_not_its_eighth"),
    Mutant("stop_excess guard drops h / Cd", SOLVER,
           " and factor * (1 + tol) > factor", "",
           "tests/test_solver.py::TestStopExcess::test_unresolved_power_factor_forms_no_threshold"),
    Mutant("the run's h formed from constants at m = 0", SOLVER,
           "h = _excess(d, consts, eps, *run)",
           "h = _excess(d, consts, eps, *_run_constants(d, k, consts, 0))",
           "tests/test_solver.py::test_stops_and_confirmations_match_golden"),
    Mutant("stop_excess guard drops _FLOAT_MIN < Cd", SOLVER,
           "if not (_FLOAT_MIN < Cd and Cd * (1 + 2.0 ** -40) > Cd):",
           "if not (Cd * (1 + 2.0 ** -40) > Cd):",
           "tests/test_cli.py::test_a_posteriori_table_without_a_threshold_is_exit_2_naming_p"),
    Mutant("reference check 1e-12 -> 1e-6", ORACLE,
           "if abs(gap) > 1e-12 or not periodic:", "if abs(gap) > 1e-6 or not periodic:",
           "tests/test_oracle.py::TestReferenceBestProximity::test_declaration_just_beyond_1e_12_is_a_declaration_error"),
    Mutant("audit_soundness slack 1e-9 -> 1e-3", ORACLE,
           "true_error > budget.apriori + 1e-9 or true_error > budget.aposteriori + 1e-9",
           "true_error > budget.apriori + 1e-3 or true_error > budget.aposteriori + 1e-3",
           "tests/test_cli.py::TestVerify::test_bounds_suite_matches_golden_bytes[0.05-1]"),
    Mutant("a priori search starts at lo, n = 1, 2", SOLVER,
           "lo, n = 0, 1", "lo, n = 1, 2",
           "tests/test_solver.py::TestAprioriStepsNeeded::test_gap_zero_gives_two"),
    Mutant("a priori search scans linearly", SOLVER,
           "lo, n = n, 2 * n", "lo, n = n, n + 1",
           "tests/test_solver.py::TestAprioriStepsNeeded::test_subnormal_target_is_the_first_crossing[2.0-1e-310]"),
    Mutant("a priori search returns 2 n + 2", SOLVER,
           "else (mid, n)\n    return 2 * n\n", "else (mid, n)\n    return 2 * n + 2\n",
           "tests/test_acceptance.py::test_criterion_2_apriori_table"),
    Mutant("contraction slack 1e-9 -> 1e-3", CYCLIC,
           "if violation > K_SLACK * (1 + dxy):", "if violation > 1e-3 * (1 + dxy):",
           "tests/test_cyclic.py::TestVerifyContraction::test_k_declared_just_low_fails_within_the_relative_slack"),
    Mutant("decay check drops disp < d - D_SLACK", CYCLIC,
           "        if disp < spec.d - D_SLACK:\n            passed = False\n", "",
           "tests/test_cyclic.py::TestDisplacementDecayCheck::test_d_declared_too_large_fails_on_a_displacement_below_d"),
    Mutant("envelope slack 1e-9 -> 1e-3", CYCLIC,
           "if excess > K_SLACK * (1 + abs(envelope)):", "if excess > 1e-3 * (1 + abs(envelope)):",
           "tests/test_cyclic.py::TestDisplacementDecayCheck::test_k_declared_just_low_fails_within_the_relative_slack"),
    Mutant("K_SLACK 1e-9 -> 1e-3", CYCLIC, "K_SLACK = 1e-9", "K_SLACK = 1e-3",
           "tests/test_cyclic.py::TestVerifyContraction::test_k_declared_just_low_fails_within_the_relative_slack"),
    Mutant("D_SLACK 1e-9 -> 1e-6", CYCLIC, "D_SLACK = 1e-9", "D_SLACK = 1e-6",
           "tests/test_oracle.py::TestRederiveDistance::test_distance_overdeclared_by_1e_8_is_flagged"),
    Mutant("XI_PERIOD_SLACK 1e-15 -> 1e-12", CYCLIC,
           "XI_PERIOD_SLACK = 1e-15", "XI_PERIOD_SLACK = 1e-12",
           "tests/test_cli.py::TestVerify::test_corrupted_k_matches_golden_bytes"),
    Mutant("a priori tail reads k ** (n / q)", SOLVER,
           "prefactor * k ** (2 * n / q)", "prefactor * k ** (n / q)",
           "tests/test_solver.py::TestBudgetsBits::test_match_the_paper_expression_bit_for_bit[0.5-1.5-x00-80-None]"),
    Mutant("a priori prefactor formed at m = 1", SOLVER,
           "prefactor = certificate_evaluator(d, k, consts, 0)(D)\n    q = consts.q",
           "prefactor = certificate_evaluator(d, k, consts, 1)(D)\n    q = consts.q",
           "tests/test_solver.py::TestBudgetsBits::test_match_the_paper_expression_bit_for_bit[0.5-1.5-x00-80-None]"),
    Mutant("a posteriori budget reads P[n - 1]", SOLVER,
           "aposteriori(displacements[n])", "aposteriori(displacements[n - 1])",
           "tests/test_solver.py::TestBudgetsBits::test_match_the_paper_expression_bit_for_bit[0.5-1.5-x00-80-None]"),
    Mutant("chain's lookback-1 span reads the previous displacement", ORACLE,
           "displacements[step // 2], near", "displacements[step // 2 - 1], near",
           "tests/test_oracle.py::TestAuditProofChain::test_failures_match_spans_taken_by_dist[0.5-1.1-0.05-x00]"),
    Mutant("chain's lookback-2n span reads P_1", ORACLE,
           "= displacements[0], k ** step", "= displacements[1], k ** step",
           "tests/test_oracle.py::TestAuditProofChain::test_failures_match_spans_taken_by_dist[0.5-1.1-0.05-x00]"),
    Mutant("proof chain distance slack 1e-9 -> 1e-3", ORACLE,
           "if even_move > rhs_dist + 1e-9 * (1 + rhs_dist):",
           "if even_move > rhs_dist + 1e-3 * (1 + rhs_dist):",
           "tests/test_cli.py::TestVerify::test_bounds_suite_matches_golden_bytes[0.05-1]"),
    Mutant("proof chain drops the distance form", ORACLE,
           "            if even_move > rhs_dist + 1e-9 * (1 + rhs_dist):\n"
           "                failures.append((step, lookback, \"distance\", even_move, rhs_dist))\n",
           "",
           "tests/test_cli.py::TestVerify::test_bounds_suite_matches_golden_bytes[0.05-1]"),
    Mutant("proof chain modulus slack 1e-9 -> 1e-3", ORACLE,
           "if lhs_mod > rhs_mod + 1e-9:", "if lhs_mod > rhs_mod + 1e-3:",
           "tests/test_cli.py::TestVerify::test_bounds_suite_matches_golden_bytes[0.05-1]"),
    Mutant("proof chain drops the modulus form", ORACLE,
           "            if lhs_mod > rhs_mod + 1e-9:\n"
           "                failures.append((step, lookback, \"modulus\", lhs_mod, rhs_mod))\n",
           "",
           "tests/test_cli.py::TestVerify::test_bounds_suite_matches_golden_bytes[0.05-1]"),
    Mutant("chain's lookback-2 pair formed at l = 1", ORACLE,
           "second = k ** 2, k ** (2 / q)", "second = k ** 1, k ** (1 / q)",
           "tests/test_oracle.py::TestAuditProofChain::test_report_equals_the_per_step_loop_bit_for_bit[0.5-0.05]"),
    Mutant("chain counts one check per lookback", ORACLE,
           "            checks += 2\n", "            checks += 1\n",
           "tests/test_oracle.py::TestAuditProofChain::test_report_equals_the_per_step_loop_bit_for_bit[0.3-None]"),
    Mutant("chain calls the modulus core without the clamp at 2", ORACLE,
           "ratio = min(max(even_move / radius, 0.0), 2.0)", "ratio = max(even_move / radius, 0.0)",
           "tests/test_oracle.py::TestAuditProofChain::test_the_modulus_core_reads_only_ratios_in_0_2"),
    Mutant("chain sends a NaN ratio to the modulus core", ORACLE,
           "            if ratio > 0:\n", "            if ratio != 0:\n",
           "tests/test_oracle.py::TestAuditProofChain::test_a_ratio_that_is_not_a_number_is_refused_naming_eps"),
    Mutant("apex digits planned at any spread", ORACLE,
           "    if not spread:", "    if spread >= 0:",
           "tests/test_oracle.py::TestWorkingPrecisionDigits::test_apex_start_plans_the_floor_digits[5e-324-1013.0-5e-324]"),
    Mutant("C = 1.001/(p 2^p)", NORMS, "C = 1 / (p * 2 ** p)", "C = 1.001 / (p * 2 ** p)",
           "tests/test_acceptance.py::test_criterion_5_geometry_suite"),
    Mutant("C = (p - 1)/7.99", NORMS, "C=(p - 1) / 8", "C=(p - 1) / 7.99",
           "tests/test_acceptance.py::test_criterion_5_geometry_suite"),
    Mutant("NEWTON_STEP_TOL 1e-15 -> 1e-6", NORMS,
           "NEWTON_STEP_TOL = 1e-15", "NEWTON_STEP_TOL = 1e-6",
           "tests/test_norms.py::TestModulusOfConvexity::test_agrees_with_independent_bisection_on_the_grid[1.1]"),
    Mutant("NEWTON_CAP 100 -> 3", NORMS, "NEWTON_CAP = 100", "NEWTON_CAP = 3",
           "tests/test_acceptance.py::test_criterion_5_geometry_suite"),
    Mutant("dist pairs u[0] - v[1]", NORMS,
           "(u0 - v0, u1 - v1)", "(u0 - v1, u1 - v0)",
           "tests/test_acceptance.py::test_criterion_1_aposteriori_table"),
    Mutant("kernel drops the 1 of the larger term", NORMS,
           "else space.one + (small / scale) ** space.p", "else (small / scale) ** space.p",
           "tests/test_acceptance.py::test_criterion_1_aposteriori_table"),
    Mutant("kernel's skip returns scale without the space's type", NORMS,
           "return scale * space.one\n", "return scale\n",
           "tests/test_norms.py::TestNegligibleTerm::test_a_skipped_term_keeps_the_result_type_of_the_space[v0]"),
    Mutant("kernel's tie 2.0 -> 1.0", NORMS,
           "total = 2.0 if small == scale", "total = 1.0 if small == scale",
           "tests/test_norms.py::TestLpNormBits::test_float_norm_is_bit_identical[1.1]"),
    Mutant("kernel's zero branch returns 0.0", NORMS,
           "total = 0 + a + b  # a NaN behind a zero is not a zero norm\n"
           "        return 0.0 if total == 0 else total\n",
           "return 0.0\n",
           "tests/test_norms.py::TestLpNormBits::test_nan_after_a_zero_is_not_a_zero_norm[space0]"),
    Mutant("skip margin bits + 3 -> bits - 1", NORMS,
           "(-(bits + 3) / p)", "(-(bits - 1) / p)",
           "tests/test_norms.py::TestNegligibleTerm::test_ratios_near_the_threshold_are_bit_identical[None]"),
    Mutant("root formed as 1.0 / float(p)", NORMS,
           '"root", 1 / p)', '"root", 1.0 / float(p))',
           "tests/test_norms.py::TestLpNormBits::test_mpf_norm_and_dist_are_bit_identical[1.1-50]"),
    Mutant("convexity check slack 1e-12 -> 1e-6", NORMS,
           "slack = 1e-12 * R", "slack = 1e-6 * R",
           "tests/test_norms.py::TestConvexityInequality::test_hypotheses_hold_to_the_slack_and_no_further[1e-09]"),
    Mutant("convexity check slack scaled by max(R, 1)", NORMS,
           "slack = 1e-12 * R", "slack = 1e-12 * max(R, 1.0)",
           "tests/test_norms.py::TestConvexityInequality::test_hypotheses_hold_to_the_slack_and_no_further[1e-09]"),
    Mutant("convexity check tolerance 1e-9 -> 1e-3", NORMS,
           "return lhs <= rhs + 1e-9 * R", "return lhs <= rhs + 1e-3 * R",
           "tests/test_norms.py::TestConvexityInequality::test_a_modulus_overstated_by_1e_6_fails_at_an_extremal_pair[0.25]"),
    Mutant("convexity check tolerance scaled by max(R, 1)", NORMS,
           "return lhs <= rhs + 1e-9 * R", "return lhs <= rhs + 1e-9 * max(R, 1.0)",
           "tests/test_norms.py::TestConvexityInequality::test_a_modulus_of_1_fails_at_every_radius[1e-09]"),
    Mutant("convexity check ratio floor 0 -> 0.5", NORMS,
           "0.0 if ratio <= 0 else", "0.0 if ratio <= 0.5 else",
           "tests/test_norms.py::TestConvexityInequality::test_a_modulus_overstated_by_1e_6_fails_at_an_extremal_pair[0.25]"),
    Mutant("convexity check ratio without its clamp at 2", NORMS,
           "2.0 if ratio > 2.0 else ratio", "ratio",
           "tests/test_norms.py::TestConvexityInequality::test_r_at_the_diameter_holds_at_every_scale[1e+308]"),
    Mutant("midpoint reads z[1] in its first coordinate", NORMS,
           "(y[0] - z[0]) / 2.0,", "(y[0] - z[1]) / 2.0,",
           "tests/test_acceptance.py::test_criterion_5_geometry_suite"),
    Mutant("midpoint subtracts z after the halved sum", NORMS,
           "(x[0] - z[0]) / 2.0 + (y[0] - z[0]) / 2.0,", "x[0] / 2.0 + y[0] / 2.0 - z[0],",
           "tests/test_norms.py::TestConvexityInequality::test_admissible_triples_pass_at_small_radii_far_from_the_origin[True-z0-1e-09-1.5]"),
    Mutant("implicit residual tolerance 1e-10 -> 1e-6", ORACLE,
           "abs(_implicit_equation(delta, p, eps)[0]) > 1e-10",
           "abs(_implicit_equation(delta, p, eps)[0]) > 1e-6",
           "tests/test_oracle.py::test_implicit_residual_check_fails_a_modulus_off_by_1e_9[1.1]"),
    Mutant("separation check reads 20 of its 200 pairs", ORACLE,
           "zip(us, vs)", "zip(us[:20], vs[:20])",
           "tests/test_oracle.py::TestCyclicSuite::test_separation_reads_every_sampled_pair"),
    Mutant("pattern search quarters its step", ORACLE,
           "        step /= 2\n", "        step /= 4\n",
           "tests/test_oracle.py::TestRederiveDistance::test_estimate_is_pinned[1.5-2.0000000002566827]"),
    Mutant("pattern search adds my to u's x", ORACLE,
           "cx, cy = ux + mx,", "cx, cy = ux + my,",
           "tests/test_oracle.py::TestRederiveDistance::test_estimate_is_pinned_at_every_suite_p[50-1-1.1-2.0000000002001106]"),
    Mutant("pattern search adds mx to v's y", ORACLE,
           "vx + mx, vy + my", "vx + mx, vy + mx",
           "tests/test_oracle.py::TestRederiveDistance::test_estimate_is_pinned_at_every_suite_p[50-1-1.1-2.0000000002001106]"),
    Mutant("pattern search prunes u's trials at half the best distance", ORACLE,
           "if abs(a) < best and abs(b) < best and spec.in_a(",
           "if abs(a) < best / 2 and abs(b) < best / 2 and spec.in_a(",
           "tests/test_oracle.py::TestRederiveDistance::test_estimate_is_pinned_at_every_suite_p[50-1-1.1-2.0000000002001106]"),
    Mutant("pattern search never prunes v's trials", ORACLE,
           "if abs(a) < best and abs(b) < best and spec.in_b(", "if spec.in_b(",
           "tests/test_oracle.py::TestRederiveDistance::test_norms_taken_per_call_are_pinned[1.1-50-204]"),
    Mutant("argmin never prunes", ORACLE,
           "        if abs(a) < best and abs(b) < best:\n", "        if True:\n",
           "tests/test_oracle.py::TestRederiveDistance::test_norms_taken_per_call_are_pinned[1.1-50-204]"),
    Mutant("cap refusal's fewest step reads h", ORACLE,
           "mp.log(excess / spread)", "mp.log(h / spread)",
           "tests/test_cli.py::test_a_table_whose_excess_bound_lies_beyond_the_cap_is_refused_at_once[2]"),
    Mutant("sampler draws x over the y width", CYCLIC,
           "(lo0 + w0 * draw(),", "(lo0 + w1 * draw(),",
           "tests/test_cyclic.py::TestVerifyCyclicity::test_built_in_sample_is_pinned[1-7266750f2fc073a5ccd842c24d1417203eb047386967af11ccb491380e0aa963]"),
    Mutant("contraction floor x 1.001", CYCLIC,
           "floor = (1 - k) * spec.d", "floor = (1 - k) * spec.d * 1.001",
           "tests/test_cyclic.py::TestVerifyContraction::test_benchmark_map_passes"),
    Mutant("map's neg term built as rest * 1", CYCLIC,
           "-(rest * -1)", "-(rest * 1)",
           "tests/test_acceptance.py::test_criterion_1_aposteriori_table"),
    Mutant("map's zero branch built as nzero + flip * x", CYCLIC,
           "return (nzero, flip * y)", "return (nzero + flip * x, flip * y)",
           "tests/test_step_bits.py::test_map_images_keep_their_bits"),
    Mutant("map's y image lam * y on the positive branch", CYCLIC,
           "return (pos + flip * x, flip * y)", "return (pos + flip * x, lam * y)",
           "tests/test_step_bits.py::test_map_images_keep_their_bits"),
    Mutant("map's positive branch taken at x >= zero", CYCLIC,
           "if x > zero:", "if x >= zero:",
           "tests/test_step_bits.py::test_map_images_keep_their_bits"),
    Mutant("map sends NaN to the zero branch", CYCLIC,
           "if x:  # x < 0, or NaN", "if x < zero:",
           "tests/test_step_bits.py::test_map_images_keep_their_bits"),
    Mutant("_check_point tests only the first coordinate", CYCLIC,
           "if not (x - x == 0 and y - y == 0):", "if not x - x == 0:",
           "tests/test_cyclic.py::TestCheckStart::test_non_finite_start_rejected_naming_x0[x03]"),
    Mutant("dist names one length where two differ", NORMS,
           "        if len(u) != len(v):\n", "        if False:\n",
           "tests/test_step_bits.py::test_refusals_keep_their_messages"),
    Mutant("sampler's box check catches ValueError only", CYCLIC,
           "    except (TypeError, ValueError):\n", "    except ValueError:\n",
           "tests/test_cyclic.py::TestOrbitGeometry::test_sampler_refuses_a_box_that_is_not_two_intervals_before_drawing[None]"),
    Mutant("an empty --out passes its check", CLI,
           "    if not out_path:\n        raise InputError", "    if False:\n        raise InputError",
           "tests/test_cli.py::test_empty_out_is_exit_2_before_the_run[solve]"),
    Mutant("norms suite seeds with seed + int(p * 1000)", ORACLE,
           "random.Random(seed + int(p * 100))", "random.Random(seed + int(p * 1000))",
           "tests/test_oracle.py::test_norms_suite_draws_each_p_from_its_own_seed"),
]


def mutated(mutant: Mutant, tree: Path) -> str:
    """The mutant's file in `tree` with its old text replaced; stops the
    probe, naming the mutant, unless the old text occurs exactly once."""
    text = (tree / mutant.path).read_text()
    count = text.count(mutant.old)
    if count != 1:
        sys.exit(f"mutant {mutant.name!r}: its old text occurs {count} times in {mutant.path}")
    return text.replace(mutant.old, mutant.new)


def run_tests(tree: Path, tests=("tests",)):
    """(passed, first failing test or outcome, seconds) of `tests` in `tree`,
    stopping at the first failure."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timeout after {TIMEOUT_S:.0f} s", time.perf_counter() - start
    seconds = time.perf_counter() - start
    if done.returncode == 0:
        return True, "", seconds
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return False, failed.group(1) if failed else f"exit {done.returncode}", seconds


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as scratch:
        pristine = Path(scratch) / "pristine"
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, pristine / name, ignore=ignore)
        for name in ("pyproject.toml", "README.md"):  # the tests read the README
            shutil.copy2(ROOT / name, pristine)
        for mutant in MUTANTS:  # every old text is checked before any run
            mutated(mutant, pristine)

        passed, why, seconds = run_tests(pristine)
        if not passed:
            sys.exit(f"the unmutated copy fails its tests ({why}); no mutant was run")
        print(f"unmutated copy passes ({seconds:.1f} s)", flush=True)
        # a named test that is gone would count as a kill: pytest exits 4
        passed, why, seconds = run_tests(pristine, sorted({m.test for m in MUTANTS}))
        if not passed:
            sys.exit(f"the mutants' named tests fail on the unmutated copy ({why}); "
                     "no mutant was run")
        print(f"the named tests pass on the unmutated copy ({seconds:.1f} s)", flush=True)

        rows = []
        for mutant in MUTANTS:
            tree = Path(scratch) / "mutant"
            shutil.copytree(pristine, tree, ignore=ignore)
            (tree / mutant.path).write_text(mutated(mutant, tree))
            passed, why, seconds = run_tests(tree, (mutant.test,))
            if passed:
                print(f"  the map is stale: {mutant.test} passes on {mutant.name!r}; "
                      "running all of tests", flush=True)
                passed, why, more = run_tests(tree)
                seconds += more
            shutil.rmtree(tree)
            rows.append((mutant.name, "survived" if passed else "killed", why, seconds))
            print(f"  {mutant.name}: {rows[-1][1]} ({seconds:.1f} s)", flush=True)

    width = max(len(row[0]) for row in rows)
    print(f"\n| {'mutant':<{width}} | outcome  | first failing test | s |")
    print(f"|{'-' * (width + 2)}|----------|--------------------|---|")
    for name, outcome, why, seconds in rows:
        print(f"| {name:<{width}} | {outcome:<8} | {why or '-'} | {seconds:.1f} |")
    survivors = sum(outcome == "survived" for _, outcome, _, _ in rows)
    print(f"\n{len(rows) - survivors} of {len(rows)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
