import dataclasses
import hashlib
import random
import re
from pathlib import Path

import mpmath as mp
import pytest

from bestprox import (
    BudgetExhaustedError,
    ConfigurationError,
    DeclarationError,
    Example1Params,
    InputError,
    ResolutionFloorError,
    StopKind,
    StopRule,
    audit_proof_chain,
    audit_soundness,
    dist,
    lp_norm,
    make_example1,
    picard_iterate,
    power_type_constants,
    rederive_distance,
    reference_best_proximity,
    reproduce_table,
    run_with_stop,
)
from bestprox import cyclic, oracle, solver
from bestprox.cyclic import (
    apply_map,
    displacement_decay_check,
    sample_points,
    verify_contraction,
    verify_cyclicity,
    verify_period,
)
from bestprox.oracle import (
    DEFAULT_EPS_LIST,
    DEFAULT_P_LIST,
    DEFAULT_X0,
    SUITE_LAMBDAS,
    SUITE_PS,
    apriori_dominates,
    columns_match_reference,
    columns_monotone,
    cyclic_suite,
    grid_within,
    load_reference_counts,
    midpoint_inequality_holds,
    stop_with_escalation,
    suite_map,
)

E1 = (1.0, 0.0)


def _cell_excess(lam, p, eps):
    """h of a cell of the built-in map (d = 2), formed on mpf numbers as
    the oracle forms it."""
    return solver.stop_excess(mp.mpf(2), lam, power_type_constants(p), mp.mpf(eps))


def benchmark_map(lam=0.5, p=2.0):
    return make_example1(Example1Params(lam=lam, p=p))


@pytest.fixture(scope="module")
def default_grids():
    return {
        StopKind.APOSTERIORI: reproduce_table(StopKind.APOSTERIORI),
        StopKind.APRIORI: reproduce_table(StopKind.APRIORI),
    }


class TestReferenceBestProximity:
    def test_benchmark_scenario(self):
        spec = benchmark_map()
        assert reference_best_proximity(spec) == E1
        assert spec.apply(E1) == (-1.0, -0.0)

    def test_start_at_the_answer(self):
        # the orbit from xi is the 2-cycle xi, T xi: the stop fires at step 2
        spec = benchmark_map()
        xi = reference_best_proximity(spec)
        rule = StopRule(StopKind.APOSTERIORI, 1e-12)
        assert run_with_stop(spec, xi, rule)[:2] == (xi, 2)

    def test_answer_is_parameter_independent(self):
        assert reference_best_proximity(benchmark_map(lam=0.9, p=5)) == E1

    def test_periodicity_invariant(self):
        spec = benchmark_map(lam=0.73, p=1.3)
        xi = reference_best_proximity(spec)
        double = spec.apply(spec.apply(xi))
        assert dist(spec.space, xi, double) <= 1e-12

    def test_input_validation(self):
        # the map must declare the point it is checked against
        spec = dataclasses.replace(benchmark_map(), best_proximity=None)
        with pytest.raises(ConfigurationError):
            reference_best_proximity(spec)

    def test_wrong_declaration_is_a_declaration_error(self):
        spec = dataclasses.replace(benchmark_map(), best_proximity=(2.0, 0.0))
        with pytest.raises(DeclarationError, match=r"\(2\.0, 0\.0\)"):
            reference_best_proximity(spec)

    def test_declaration_just_beyond_1e_12_is_a_declaration_error(self):
        # (1, 0) is fixed by T^2, but ||xi - T xi|| = 2 falls 2e-12 short of d
        spec = dataclasses.replace(benchmark_map(), d=2.0 + 2e-12)
        with pytest.raises(DeclarationError, match=r"\(1\.0, 0\.0\).* d = -2\.0\d*e-12"):
            reference_best_proximity(spec)

    @pytest.mark.parametrize("y, moved", [(1.4e-15, True), (1.2e-15, False)])
    def test_declaration_that_t2_moves_beyond_1e_15_is_a_declaration_error(self, y, moved):
        # T^2 maps (1, y) to (1, y / 4) at lam = 0.5: 1.05e-15 and 0.9e-15
        # away.  (1, y) lies outside A, which is refused only after the
        # period passes, so the message shows which check refused it.
        spec = dataclasses.replace(benchmark_map(), best_proximity=(1.0, y))
        with pytest.raises(DeclarationError) as raised:
            reference_best_proximity(spec)
        period = f"T^2 xi = (1.0, {y / 4})"
        assert (period in str(raised.value)) == moved
        assert str(raised.value).endswith("is not in A") != moved

    @pytest.mark.parametrize("xi", [(1.0, 1.2e-15), (-1.0, 0.0)])
    def test_declaration_outside_a_is_a_declaration_error(self, xi):
        # both realize d to 1e-12 and T^2 fixes both to 1e-15; (-1, 0) is
        # the best proximity point of B, the apex of its cone
        spec = dataclasses.replace(benchmark_map(), best_proximity=xi)
        with pytest.raises(DeclarationError, match=re.escape(f"point {xi} is not in A")):
            reference_best_proximity(spec)

    def test_wrong_declaration_fails_the_soundness_audit(self):
        # the orbit converges to (1, 0), so a (2, 0) reference would make
        # every true error about 1; the audit refuses the point instead
        spec = dataclasses.replace(benchmark_map(), best_proximity=(2.0, 0.0))
        with pytest.raises(DeclarationError):
            audit_soundness(spec, (1000.0, 8.0), steps=100)


class TestAuditSoundness:
    def test_benchmark_passes_with_loose_bounds(self):
        spec = benchmark_map()
        report = audit_soundness(spec, (1000.0, 8.0), steps=100)
        assert report.passed and not report.failures
        # certificates are intentionally conservative: every finite
        # a priori / true-error ratio of the audited run is far above 1
        xi = reference_best_proximity(spec)
        trace = picard_iterate(spec, (1000.0, 8.0), 100)
        errors = [(b.apriori, dist(spec.space, trace.iterates[b.step], xi)) for b in trace.budgets]
        finite = [bound / error for bound, error in errors if error > 0 and bound != float("inf")]
        assert finite and all(r > 10 for r in finite)

    def test_small_p_scenario(self):
        report = audit_soundness(benchmark_map(p=1.1), (1000.0, 8.0), steps=100)
        assert report.passed

    def test_trivial_orbit(self):
        report = audit_soundness(benchmark_map(), E1, steps=20)
        assert report.passed

    def test_understated_k_is_caught(self):
        # declaring k = 0.2 for a map contracting at 0.9 makes the
        # certificates decay faster than the truth; the audit must fail
        spec = dataclasses.replace(benchmark_map(lam=0.9), k=0.2)
        report = audit_soundness(spec, (1000.0, 8.0), steps=100)
        assert not report.passed
        assert report.failures

    def test_bound_just_short_of_the_true_error_is_caught(self, monkeypatch):
        # an a posteriori bound 1e-6 below the true error at one even step
        # is unsound, far beyond the round-off the audit's slack absorbs
        spec, x0, short_step = benchmark_map(), (1000.0, 8.0), 12
        iterate = picard_iterate(spec, x0, 20).iterates[short_step]
        true_error = dist(spec.space, iterate, E1)
        budgets = solver.IterationTrace.budgets.fget

        def short(trace):
            return [
                dataclasses.replace(budget, aposteriori=true_error - 1e-6)
                if budget.step == short_step else budget
                for budget in budgets(trace)
            ]

        monkeypatch.setattr(solver.IterationTrace, "budgets", property(short))
        report = audit_soundness(spec, x0, steps=20)
        assert not report.passed
        assert [failure[0] for failure in report.failures] == [short_step]

    def test_steps_validation(self):
        with pytest.raises(InputError):
            audit_soundness(benchmark_map(), (1000.0, 8.0), steps=7)


#: Starts of the zero-slack check: far off, near the limit, a hair off the
#: best proximity point, and beside the edge of A.
ZERO_SLACK_STARTS = ((1000, 8), (3, -1.5), (1 + mp.mpf(2) ** -20, 0), (500, 499))


def test_every_even_step_bound_holds_with_no_slack_at_working_precision():
    # at 60 digits the orbit's round-off is far below every bound, so the
    # theorem is checked as stated: bound >= true error, with no slack
    checks, ratios = 0, []
    with mp.workdps(60):
        xi = tuple(mp.mpf(c) for c in E1)
        for lam in (0.3, 0.5, 0.9):
            for p in SUITE_PS:
                spec = make_example1(Example1Params(lam=mp.mpf(lam), p=mp.mpf(p)))
                for x0 in ZERO_SLACK_STARTS:
                    trace = picard_iterate(spec, tuple(mp.mpf(c) for c in x0), 100)
                    for budget in trace.budgets:
                        true_error = dist(spec.space, trace.iterates[budget.step], xi)
                        for bound in (budget.apriori, budget.aposteriori):
                            assert bound >= true_error, (lam, p, x0, budget, true_error)
                            checks += 1
                        ratios.append(min(budget.apriori, budget.aposteriori) / true_error)
    assert checks == 7200
    # the tightest is 16.4, at lam = 0.3, p = 2, start (500, 499), step 6
    assert min(ratios) > 16


def _chain_failures_from_dist(spec, x0, steps):
    """(failures, checks) of the proof chain as `audit_proof_chain` states
    it, with every span ||x_{2n-l} - x_{2n+1-l}|| taken by `dist`."""
    pts = picard_iterate(spec, x0, steps).iterates
    space, k, d = spec.space, spec.k, spec.d
    consts = power_type_constants(space.p)
    C, q = consts.C, consts.q
    failures, checks = [], 0
    for step in range(2, steps - 1, 2):
        even_move = dist(space, pts[step], pts[step + 2])
        for lookback in {1, 2, step}:
            span = dist(space, pts[step - lookback], pts[step + 1 - lookback])
            excess = max(span - d, 0.0)
            scaled = (k ** lookback) * excess
            rhs_dist = span * (excess / (C * d)) ** (1.0 / q) * k ** (lookback / q)
            if even_move > rhs_dist + 1e-9 * (1 + rhs_dist):
                failures.append((step, lookback, "distance", even_move, rhs_dist))
            radius = d + scaled
            ratio = min(max(even_move / radius, 0.0), 2.0)
            lhs_mod = 0.0 if ratio == 0 else oracle.modulus_of_convexity(space.p, ratio)
            if lhs_mod > scaled / radius + 1e-9:
                failures.append((step, lookback, "modulus", lhs_mod, scaled / radius))
            checks += 2
    return failures, checks


def _per_step_chain(spec, x0, steps):
    """The proof-chain audit as it was written before its constants were
    formed once per audit: every constant formed at its step, and the
    modulus read through the checked `modulus_of_convexity`."""
    trace = picard_iterate(spec, x0, steps)
    pts, displacements = trace.iterates, trace.displacements
    space, k, d = spec.space, spec.k, spec.d
    consts = trace.constants
    report = oracle.ProofChainReport(passed=True)
    for step in range(2, steps - 1, 2):
        even_move = dist(space, pts[step], pts[step + 2])
        for lookback in {1, 2, step}:
            if lookback == 1:
                span = displacements[step // 2]
            elif lookback == step:
                span = displacements[0]
            else:
                span = dist(space, pts[step - 2], pts[step - 1])
            excess = max(span - d, 0.0)
            scaled = (k ** lookback) * excess

            rhs_dist = span * (excess / (consts.C * d)) ** (1.0 / consts.q) * k ** (
                lookback / consts.q
            )
            report.checks += 1
            if even_move > rhs_dist + 1e-9 * (1 + rhs_dist):
                report.passed = False
                report.failures.append((step, lookback, "distance", even_move, rhs_dist))

            radius = d + scaled
            ratio = min(max(even_move / radius, 0.0), 2.0)
            lhs_mod = 0.0 if ratio == 0 else oracle.modulus_of_convexity(space.p, ratio)
            rhs_mod = scaled / radius
            report.checks += 1
            if lhs_mod > rhs_mod + 1e-9:
                report.passed = False
                report.failures.append((step, lookback, "modulus", lhs_mod, rhs_mod))
    return report


#: Starts of the bit-identity check: far off, near the limit, a hair off the
#: best proximity point, beside the edge of A, and at the float64 range.
CHAIN_STARTS = ((1000.0, 8.0), (3.0, -1.5), (1 + 2.0 ** -20, 0.0), (500.0, 499.0), (1e308, 0.0))


def _bits(report):
    """A report as text: repr gives every float to the bit."""
    return repr((report.passed, report.checks, report.failures))


class TestAuditProofChain:
    @pytest.mark.parametrize("p", [1.1, 2.0, 5.0])
    def test_benchmark_chain(self, p):
        report = audit_proof_chain(benchmark_map(p=p), (1000.0, 8.0), steps=60)
        assert report.passed, report.failures
        assert report.checks > 0

    def test_flat_orbit(self):
        report = audit_proof_chain(benchmark_map(), E1, steps=20)
        assert report.passed

    @pytest.mark.parametrize("lam, p, k, failures, forms", [
        # the worst modulus-form excess is 6.4e-5; the distance form holds
        (0.9, 2.0, 0.8125, 3, {"modulus"}),
        # the worst distance-form excess is 3.7e-5 relative
        (0.5, 1.5, 0.15, 21, {"distance", "modulus"}),
    ])
    def test_understated_k_fails_each_form_within_its_slack(self, lam, p, k, failures, forms):
        spec = dataclasses.replace(benchmark_map(lam=lam, p=p), k=k)
        report = audit_proof_chain(spec, (1000.0, 8.0), steps=60)
        assert not report.passed
        assert len(report.failures) == failures
        assert {failure[2] for failure in report.failures} == forms

    def test_steps_validation(self):
        with pytest.raises(InputError):
            audit_proof_chain(benchmark_map(), (1000.0, 8.0), steps=2)

    @pytest.mark.parametrize("k", [None, 0.05, 0.15, 0.8125])
    @pytest.mark.parametrize("lam", SUITE_LAMBDAS)
    def test_report_equals_the_per_step_loop_bit_for_bit(self, lam, k):
        # the constants formed once per audit and the modulus core give
        # the same passed flag, check count and failures, values and order
        failing = 0
        for p in SUITE_PS:
            spec = benchmark_map(lam=lam, p=p)
            if k is not None:
                spec = dataclasses.replace(spec, k=k)
            for x0 in CHAIN_STARTS:
                report = audit_proof_chain(spec, x0, steps=60)
                assert _bits(report) == _bits(_per_step_chain(spec, x0, steps=60)), (p, x0)
                failing += not report.passed
        # a k below lam is understated, and its failures enter the comparison
        assert (failing > 0) == (k is not None and k < lam)

    def test_a_ratio_that_is_not_a_number_is_refused_naming_eps(self):
        # from (1e308, 9e307) D overflows to inf and, past step 1074,
        # k^(2n) underflows to 0, so the radius of lookback 2n is 0 * inf
        spec = benchmark_map(lam=0.5, p=2.0)
        for audit in (audit_proof_chain, _per_step_chain):
            with pytest.raises(InputError, match=r"^eps must lie in \(0, 2\], got nan$"):
                audit(spec, (1e308, 9e307), 2200)

    def test_the_modulus_core_reads_only_ratios_in_0_2(self, monkeypatch):
        # the core checks neither p nor eps; the audit clamps every ratio
        # into [0, 2] and short-circuits 0 (a NaN has its own test above)
        seen = []

        def core(p, eps):
            seen.append(eps)
            return modulus(p, eps)

        modulus = oracle._modulus
        monkeypatch.setattr(oracle, "_modulus", core)
        for p in (1.5, 2.0):
            spec = dataclasses.replace(benchmark_map(lam=0.5, p=p), k=0.05)
            audit_proof_chain(spec, (1000.0, 8.0), steps=60)
            audit_proof_chain(spec, E1, steps=20)
        assert seen and all(0 < eps <= 2 for eps in seen)
        assert 2.0 in seen  # an even move beyond twice the radius is clamped

    @pytest.mark.parametrize("x0", [(1000.0, 8.0), (3.0, -1.5)])
    @pytest.mark.parametrize("k", [None, 0.05, 0.15, 0.8125])
    @pytest.mark.parametrize("lam, p", [(0.5, 1.1), (0.5, 1.5), (0.9, 2.0), (0.5, 5.0), (0.9, 20.0)])
    def test_failures_match_spans_taken_by_dist(self, lam, p, k, x0):
        # the audit reads the spans of lookbacks 1 and 2n from the trace;
        # an understated k makes their figures enter the failures
        spec = benchmark_map(lam=lam, p=p)
        if k is not None:
            spec = dataclasses.replace(spec, k=k)
        report = audit_proof_chain(spec, x0, steps=60)
        failures, checks = _chain_failures_from_dist(spec, x0, steps=60)
        assert report.failures == failures
        assert report.checks == checks
        assert report.passed == (not failures)
        if k == 0.05 and x0 == (1000.0, 8.0):
            assert any(failure[1] == failure[0] > 2 for failure in failures)
            assert lam == 0.9 or any(failure[1] == 1 for failure in failures)


def _unpruned_rederive(spec, sample_count, seed):
    """`rederive_distance` as it was written before it skipped trials: three
    `min` argmins over `dist`, and a pattern search that evaluates every
    trial's membership and distance."""
    space = spec.space
    us, vs = cyclic.sample_sets(spec, sample_count, seed)
    best_u = min(us, key=lambda u: dist(space, u, vs[0]))
    best_v = min(vs, key=lambda v: dist(space, best_u, v))
    best_u = min(us, key=lambda u: dist(space, u, best_v))
    best = dist(space, best_u, best_v)
    step = max(1.0, best / 4)
    while step > 1e-10:
        moves = [(step * dx, step * dy) for dx, dy in oracle.PATTERN_DIRECTIONS]
        improved = True
        while improved:
            improved = False
            for mx, my in moves:
                cu = (best_u[0] + mx, best_u[1] + my)
                if spec.in_a(cu):
                    trial = dist(space, cu, best_v)
                    if trial < best:
                        best_u, best, improved = cu, trial, True
                cv = (best_v[0] + mx, best_v[1] + my)
                if spec.in_b(cv):
                    trial = dist(space, best_u, cv)
                    if trial < best:
                        best_v, best, improved = cv, trial, True
        step /= 2
    if best < spec.d - cyclic.D_SLACK:
        raise DeclarationError(
            f"declared d={spec.d} is too large: refined separation is {best}"
        )
    return best


class TestRederiveDistance:
    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0])
    def test_matches_declaration(self, p):
        estimate = rederive_distance(benchmark_map(p=p), sample_count=200, seed=7)
        assert estimate == pytest.approx(2.0, abs=1e-6)

    def test_deterministic(self):
        spec = benchmark_map(p=1.5)
        first = rederive_distance(spec, sample_count=100, seed=21)
        second = rederive_distance(spec, sample_count=100, seed=21)
        assert first == second

    @pytest.mark.parametrize("p, expected", [
        (1.5, 2.0000000002566827),
        (2.0, 2.000000000196815),
        (20.0, 2.0000000002762066),
    ])
    def test_estimate_is_pinned(self, p, expected):
        # recorded from the generator-built pattern search: same bits
        assert rederive_distance(benchmark_map(p=p), sample_count=100, seed=21) == expected

    @pytest.mark.parametrize("count, seed, p, expected", [
        (50, 1, 1.1, 2.0000000002001106),
        (50, 1, 1.5, 2.000000000110895),
        (50, 1, 2.0, 2.0000000003199068),
        (50, 1, 3.0, 2.000000000154575),
        (50, 1, 5.0, 2.000000000141804),
        (50, 1, 20.0, 2.000000000274686),
        (50, 2, 1.1, 2.0000000001492366),
        (50, 2, 1.5, 2.0000000002436003),
        (50, 2, 2.0, 2.0000000001316565),
        (50, 2, 3.0, 2.0000000002057114),
        (50, 2, 5.0, 2.0000000003395586),
        (50, 2, 20.0, 2.0000000003500786),
        (100, 1, 1.1, 2.0000000001823524),
        (100, 1, 1.5, 2.000000000257213),
        (100, 1, 2.0, 2.000000000140191),
        (100, 1, 3.0, 2.0000000001639364),
        (100, 1, 5.0, 2.0000000002313802),
        (100, 1, 20.0, 2.0000000002018465),
        (100, 2, 1.1, 2.000000000274304),
        (100, 2, 1.5, 2.000000000288615),
        (100, 2, 2.0, 2.0000000001990066),
        (100, 2, 3.0, 2.0000000002406333),
        (100, 2, 5.0, 2.0000000003352194),
        (100, 2, 20.0, 2.00000000022151),
    ])
    def test_estimate_is_pinned_at_every_suite_p(self, count, seed, p, expected):
        # recorded from the pattern search that built its trial points with
        # map(add, ...) over the sampler's list of spans: same bits.  50 is the
        # sample count of the benchmark's verify workload.
        assert rederive_distance(suite_map(0.5, p), count, seed) == expected

    def test_overdeclared_distance_is_flagged(self):
        spec = dataclasses.replace(benchmark_map(), d=3.0)
        with pytest.raises(DeclarationError):
            rederive_distance(spec, sample_count=200, seed=7)

    def test_distance_overdeclared_by_1e_8_is_flagged(self):
        # the estimate exceeds 2 by 3.4e-10, far short of 2 + 1e-8 - D_SLACK
        spec = dataclasses.replace(benchmark_map(), d=2.0 + 1e-8)
        with pytest.raises(DeclarationError, match="refined separation is 2.0000000003441505"):
            rederive_distance(spec, sample_count=200, seed=7)

    def test_spec_without_boxes_is_a_configuration_error(self):
        spec = dataclasses.replace(benchmark_map(), box_a=None)
        with pytest.raises(ConfigurationError, match=re.escape("two (lo, hi) intervals, got None")):
            rederive_distance(spec, sample_count=10, seed=7)

    @pytest.mark.parametrize("p", SUITE_PS)
    def test_estimate_equals_the_unpruned_search_bit_for_bit(self, p):
        # a skipped trial is one whose norm could not have won, so the
        # estimate is the one every trial's norm gives.  The search reads the
        # sets, their boxes, d and the space, none of which lambda changes, so
        # one reference serves the three lambdas.
        specs = [suite_map(lam, p) for lam in SUITE_LAMBDAS]
        for count in (10, 50, 200):
            for seed in range(10):
                want = _unpruned_rederive(specs[0], count, seed)
                got = [rederive_distance(spec, count, seed) for spec in specs]
                assert got == [want] * len(specs), (count, seed)

    @pytest.mark.parametrize("d", [3.0, 2.0 + 1e-8])
    def test_overdeclared_distance_is_refused_as_by_the_unpruned_search(self, d):
        spec = dataclasses.replace(benchmark_map(), d=d)
        with pytest.raises(DeclarationError) as want:
            _unpruned_rederive(spec, sample_count=200, seed=7)
        with pytest.raises(DeclarationError) as got:
            rederive_distance(spec, sample_count=200, seed=7)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("p, count, norms", [
        (1.1, 50, 204), (2.0, 50, 172), (20.0, 50, 83),
        (1.1, 200, 228), (2.0, 200, 167), (20.0, 200, 90),
    ])
    def test_norms_taken_per_call_are_pinned(self, monkeypatch, p, count, norms):
        # counted at seed 1; a search that stops skipping the trials that
        # cannot win takes more (`_unpruned_rederive`: 859 at 50 points, p = 2)
        taken = []

        def counted(space, v):
            taken.append(v)
            return lp_norm(space, v)

        monkeypatch.setattr(oracle, "lp_norm", counted)
        rederive_distance(suite_map(0.5, p), count, seed=1)
        assert len(taken) == norms


class TestMidpointInequalityHolds:
    @pytest.mark.parametrize("p, digest", [
        (1.1, "ab99775dc0234f995827d5bf79537fa8adb6871014c0b07f43e9940a64b29416"),
        (2.0, "180d36713fb81ee25ac8f78df92677ae98f7dd96a7f1e287c97e74b74cfc3369"),
        (20.0, "92cbbb40e6a4c09a67bd4a0c956a18ec43ba0e726899959c4f89354a4ad14d58"),
    ])
    def test_draws_and_triples_are_pinned(self, monkeypatch, p, digest):
        # the next draw and a digest of every checked triple were recorded from
        # the generator-built sweep; criterion 5 and the verify fingerprint
        # depend on the draws staying in order and the points keeping their bits
        seen = hashlib.sha256()
        check = oracle.check_convexity_inequality

        def recording_check(space, x, y, z, R, r):
            seen.update(repr((x, y, z, R, r)).encode())
            return check(space, x, y, z, R, r)

        monkeypatch.setattr(oracle, "check_convexity_inequality", recording_check)
        rng = random.Random(1)
        assert midpoint_inequality_holds(p, rng) == (True, "")
        assert rng.random() == 0.010934935118938616
        assert seen.hexdigest() == digest


def test_norms_suite_draws_each_p_from_its_own_seed(monkeypatch):
    # a passing norms suite prints no draw, so its golden cannot show the
    # seed rule: p's checks draw from random.Random(seed + int(p * 100))
    seen = []
    monkeypatch.setattr(oracle, "norms_checks", lambda p, rng: seen.append((p, rng.random())) or [])
    assert oracle.norms_suite(42) == []
    assert seen == [(p, random.Random(42 + int(p * 100)).random()) for p in SUITE_PS]


def _per_configuration_cyclic_suite(seed, k_override):
    """The cyclic suite with every (lambda, p) drawing its own samples."""
    checks = []
    for lam in SUITE_LAMBDAS:
        for p in SUITE_PS:
            tag = f"(lambda={lam}, p={p})"
            spec = suite_map(lam, p, k_override)
            samples = []
            for own_seed in (seed, seed + 1):
                rng = random.Random(own_seed)
                samples.append((sample_points(rng, spec.box_a, spec.in_a, 1000),
                                sample_points(rng, spec.box_b, spec.in_b, 1000)))
            checks += [
                (f"T(A) in B and T(B) in A, 1000 samples {tag}",
                 *verify_cyclicity(spec, *samples[0])),
                (f"contraction inequality, 1000 pairs {tag}",
                 *verify_contraction(spec, *samples[1])),
                (f"displacement-excess geometric decay, 60 steps {tag}",
                 *displacement_decay_check(spec, DEFAULT_X0, n_max=60)),
                (f"T^2 fixes (1, 0) to 1e-15 {tag}", *verify_period(spec)),
            ]
            rng = random.Random(seed + 7)
            point, alternation = sample_points(rng, spec.box_a, spec.in_a, 1)[0], True
            for step in range(1, 41):
                point = apply_map(spec, point)
                alternation = alternation and (spec.in_b if step % 2 else spec.in_a)(point)
            checks.append((f"orbit alternates between A and B {tag}", alternation, ""))
            us = sample_points(rng, spec.box_a, spec.in_a, 200)
            vs = sample_points(rng, spec.box_b, spec.in_b, 200)
            separated = all(dist(spec.space, u, v) >= spec.d - 1e-9 for u, v in zip(us, vs))
            checks.append((f"sampled pairs separated by at least d {tag}", separated, ""))
    return checks


class TestCyclicSuite:
    @pytest.mark.parametrize("k_override", [None, 0.05])
    @pytest.mark.parametrize("seed", [1, 2, 42])
    def test_shared_samples_give_the_per_configuration_results(self, seed, k_override):
        assert cyclic_suite(seed, k_override) == _per_configuration_cyclic_suite(seed, k_override)

    def test_samples_are_drawn_once_per_run(self, monkeypatch):
        calls = []
        original = cyclic.sample_points

        def counting(*args):
            calls.append(args[3])
            return original(*args)

        monkeypatch.setattr(cyclic, "sample_points", counting)
        monkeypatch.setattr(oracle, "sample_points", counting)
        cyclic_suite(1, None)
        assert calls == [1000, 1000, 1000, 1000, 1, 200, 200]

    def test_separation_reads_every_sampled_pair(self, monkeypatch):
        # only the last of the 200 pairs lies closer than d - D_SLACK
        original = oracle.sample_points
        last = {cyclic.example1_in_a: (1.0, 0.0), cyclic.example1_in_b: (-1.0 + 1e-8, 0.0)}

        def close_last_pair(rng, box, predicate, count):
            points = original(rng, box, predicate, count)
            return points[:-1] + [last[predicate]] if count == 200 else points

        monkeypatch.setattr(oracle, "sample_points", close_last_pair)
        separated = [
            ok for label, ok, _ in cyclic_suite(1, None)
            if label.startswith("sampled pairs separated")
        ]
        assert len(separated) == 18 and not any(separated)


@pytest.mark.parametrize("p", [1.1, 1.5])
def test_implicit_residual_check_fails_a_modulus_off_by_1e_9(p):
    # a shift of 1e-9 leaves residuals of a few 1e-9: above the check's
    # 1e-10, far below 1e-6
    values = [oracle.modulus_of_convexity(p, eps) for eps in oracle.MODULUS_GRID]
    assert oracle.implicit_residual_small(p, values) == (True, "")
    assert oracle.implicit_residual_small(p, [v + 1e-9 for v in values]) == (False, "")


class TestTrueErrorsCheckTheDeclaredPoint:
    @pytest.fixture(autouse=True)
    def wrong_point(self, monkeypatch):
        build = oracle.make_example1
        monkeypatch.setattr(
            oracle, "make_example1",
            lambda params: dataclasses.replace(build(params), best_proximity=(1.0, 1e-3)),
        )

    # a float64 stop, and a floored one that escalates to working precision
    @pytest.mark.parametrize("lam, eps", [(0.5, 1e-2), (0.9, 1e-10)])
    def test_escalating_stop(self, lam, eps):
        with pytest.raises(DeclarationError, match=r"\(1\.0, 0\.001\)"):
            stop_with_escalation(lam, 2.0, (1000.0, 8.0), eps)

    def test_working_precision_stop(self):
        with pytest.raises(DeclarationError, match=r"\(1\.0, 0\.001\)"):
            oracle.aposteriori_stop_working_precision(0.5, 2.0, (1000.0, 8.0), 1e-2)


class TestStopWithEscalation:
    def test_floored_run_escalates_and_certifies(self):
        # at lam = 0.9 the float64 displacement pins a few ulps above d
        # long before the certificate reaches 1e-10
        stopped_at, err, escalated = stop_with_escalation(0.9, 2.0, (1000.0, 8.0), 1e-10)
        assert escalated
        assert stopped_at % 2 == 0 and err < 1e-10

    def test_cap_without_plateau_is_a_failure(self):
        # at lam = 0.999 the excess is still far above the float64 floor
        # when the cap is hit, so there is nothing to escalate past
        with pytest.raises(BudgetExhaustedError) as excinfo:
            stop_with_escalation(0.999, 2.0, (1000.0, 8.0), 1e-2)
        assert not isinstance(excinfo.value, ResolutionFloorError)
        assert excinfo.value.trace.steps == oracle.FLOAT64_CAP

    def test_overridden_k_does_not_escalate(self):
        # the floored run above, with k declared by hand: working
        # precision would rebuild the map with its true k instead
        with pytest.raises(ResolutionFloorError):
            stop_with_escalation(0.9, 2.0, (1000.0, 8.0), 1e-10, k_override=0.9)

    def test_stop_rule_report_names_the_floor(self):
        # under k_override the float64 run at eps = 1e-6 stalls at its
        # resolution floor; the report says so instead of "no stop"
        ok, detail = oracle._stop_rule_delivers(0.9, 2.0, 0.95)
        assert not ok
        assert detail.startswith("eps=1e-06: ") and "resolution floor" in detail


class TestWorkingPrecisionDigits:
    def test_deepest_cell_is_sized_from_its_threshold_excess(self):
        # lam = 0.9, p = 20, eps = 1e-10: g* is about 2e-253 of d, plus a
        # cushion of 20 digits; sizing from the a priori prefactor gave 355
        assert oracle._working_dps(2.0, _cell_excess(0.9, 20.0, 1e-10)) == 273

    def test_shallow_cell_takes_the_floor(self):
        assert oracle._working_dps(2.0, _cell_excess(0.5, 2.0, 1e-2)) == (
            oracle.WORKING_DPS_FLOOR
        )

    @pytest.mark.parametrize(
        "lam, p, eps, dps",
        [
            (0.01, 1.01, 1e-30, 82),
            (0.1, 1.5, 1e-100, 221),
            (0.3, 2.5, 1e-30, 97),
            (0.5, 7.5, 1e-6, 76),
            (0.5, 20.0, 1e-10, 257),
            (0.9, 5.0, 1e-16, 111),
            (0.99, 2.0, 1e-200, 426),
            (0.1, 100.0, 1.0, 216),
            (0.3, 100.0, 1e-10, 1245),
            (0.01, 20.0, 5e-324, 6507),
            (0.99, 1.1, 1e-310, 647),
            # a target above every bound within d of d
            (0.5, 2.0, 1e2, 60),
        ],
    )
    def test_digits_are_pinned(self, lam, p, eps, dps):
        assert oracle._working_dps(2.0, _cell_excess(lam, p, eps)) == dps

    @pytest.mark.parametrize(
        "lam, p, eps",
        [(0.5, p, eps) for p in (5.0, 20.0) for eps in (1e-2, 1e-10)] + [(0.9, 20.0, 1e-10)],
    )
    def test_stopping_step_holds_at_40_more_digits(self, monkeypatch, lam, p, eps):
        sized, _ = oracle.aposteriori_stop_working_precision(lam, p, (1000.0, 8.0), eps)
        working_dps = oracle._working_dps
        monkeypatch.setattr(oracle, "_working_dps", lambda *args: working_dps(*args) + 40)
        wider, _ = oracle.aposteriori_stop_working_precision(lam, p, (1000.0, 8.0), eps)
        assert wider == sized

    def test_fewest_steps_bound_every_published_count(self, monkeypatch):
        # a cell is refused only where its fewest possible stopping step
        # lies beyond the cap: with the cap at a published count the cell
        # runs, and with the cap 4 below it, under that bound, it is refused
        def no_run(*args, **kwargs):
            raise AssertionError("the cell ran")

        monkeypatch.setattr(oracle, "run_with_stop", no_run)
        eps_list, p_list, counts = load_reference_counts(StopKind.APOSTERIORI)
        for eps, row in zip(eps_list, counts):
            for p, count in zip(p_list, row):
                monkeypatch.setattr(oracle, "WORKING_PRECISION_CAP", count)
                with pytest.raises(AssertionError, match="the cell ran"):
                    oracle.aposteriori_stop_working_precision(0.5, p, (1000.0, 8.0), eps)
                monkeypatch.setattr(oracle, "WORKING_PRECISION_CAP", count - 4)
                with pytest.raises(BudgetExhaustedError, match=f"cap is {count - 4}"):
                    oracle.aposteriori_stop_working_precision(0.5, p, (1000.0, 8.0), eps)

    def test_apex_start_is_not_refused(self, monkeypatch):
        monkeypatch.setattr(oracle, "WORKING_PRECISION_CAP", 2)
        assert oracle.aposteriori_stop_working_precision(0.5, 20.0, E1, 1e-10) == (2, 0.0)

    @pytest.mark.parametrize("lam, p, eps", [(5e-324, 1013.0, 5e-324), (0.5, 20.0, 1e-10)])
    def test_apex_start_plans_the_floor_digits(self, lam, p, eps):
        # every iterate is (+-1, +-0), so P = d at any digits: h sized
        # 327,934 digits at lam = 5e-324, p = 1013, eps = 5e-324
        assert oracle._plan_cell(lam, p, E1, eps)[2] == oracle.WORKING_DPS_FLOOR
        one_ulp_off = (1 + 2.0 ** -52, 0.0)
        assert oracle._plan_cell(lam, p, one_ulp_off, eps)[2] == oracle._working_dps(
            2.0, _cell_excess(lam, p, eps)
        )

    def test_excess_is_formed_once_per_cell(self, monkeypatch):
        # the digits and the cap refusal read the same h
        calls = []

        def counted(*args):
            calls.append(args)
            return solver.stop_excess(*args)

        monkeypatch.setattr(oracle, "stop_excess", counted)
        assert oracle.aposteriori_stop_working_precision(0.5, 2.0, (1000.0, 8.0), 1e-2)[0] == 30
        assert len(calls) == 1
        assert oracle.aposteriori_stop_working_precision(0.5, 20.0, E1, 1e-10) == (2, 0.0)
        assert len(calls) == 2

    def test_coarse_ambient_precision_still_forms_the_threshold(self):
        # h is formed at 53 bits at least: a caller's 30-bit context, which
        # resolves no 2^-40, is not a missing threshold
        with mp.workprec(30):
            stopped_at, _ = oracle.aposteriori_stop_working_precision(0.5, 2.0, (1000.0, 8.0), 1e-2)
        assert stopped_at == 30

    def test_c_d_below_the_float64_normal_range_is_an_input_error_naming_p(self):
        # C d = 1.1e-308 at p = 1014: the stop would form no threshold
        assert _cell_excess(0.5, 1014.0, 1e-2) is None
        with pytest.raises(InputError, match=r"p=1014"):
            oracle.aposteriori_stop_working_precision(0.5, 1014.0, (1000.0, 8.0), 1e-2)


#: The a posteriori counts from (1000, 8) at eps = 1e-10 and lam 0.3 and
#: 0.9 that the benchmark's fingerprint pins beside the published grid.
PINNED_CELLS = {
    (0.3, 1.1): 50, (0.3, 1.5): 48, (0.3, 2.0): 48, (0.3, 3.0): 70, (0.3, 5.0): 114,
    (0.3, 20.0): 450, (0.9, 1.1): 602, (0.9, 1.5): 586, (0.9, 2.0): 580, (0.9, 3.0): 848,
    (0.9, 5.0): 1392, (0.9, 20.0): 5594,
}


def _pinned_counts():
    """(lam, p, eps, count) of the 30 published cells and the 12 pinned ones."""
    eps_list, p_list, counts = load_reference_counts(StopKind.APOSTERIORI)
    cells = [(0.5, p, eps, count)
             for eps, row in zip(eps_list, counts) for p, count in zip(p_list, row)]
    return cells + [(lam, p, 1e-10, count) for (lam, p), count in PINNED_CELLS.items()]


def _exact_count(lam, p, x0, eps, dps):
    """The first even step 2n whose a posteriori certificate at the exact
    orbit's P_n is below eps, at dps digits, written here from the closed
    form and independently of `solver` and `norms`.

    From x0 in A the two-cone map gives |x_n| - 1 = lam^n (x0 - 1) and
    y_n = (-lam)^n y0, with x_n > 0 at even n.  So x_{2n-1} - x_{2n} =
    -(2 + g (x0 - 1), g y0), g = lam^(2n-1) (1 + lam), and P_n is its
    l_p norm.  The certificate is P/(1 - k^(2/q)) ((P - d)/(C d))^(1/q)
    k^(1/q), with k = lam, d = 2, and (C, q) = (1/(p 2^p), p) for p >= 2,
    ((p - 1)/8, 2) below.  It decreases in n, so the first n is bisected.
    """
    with mp.workdps(dps):
        lam, p, eps = mp.mpf(lam), mp.mpf(p), mp.mpf(eps)
        spread, y0 = mp.mpf(x0[0]) - 1, mp.mpf(x0[1])
        C, q = (1 / (p * 2 ** p), p) if p >= 2 else ((p - 1) / 8, mp.mpf(2))
        d = 2

        def certificate(n):
            g = lam ** (2 * n - 1) * (1 + lam)
            P = (abs(2 + g * spread) ** p + abs(g * y0) ** p) ** (1 / p)
            return P / (1 - lam ** (2 / q)) * ((P - d) / (C * d)) ** (1 / q) * lam ** (1 / q)

        lo, n = 0, 1  # the certificate at lo is >= eps (lo = 0: no step yet)
        while not certificate(n) < eps:
            lo, n = n, 2 * n
        while n - lo > 1:
            mid = (lo + n) // 2
            lo, n = (lo, mid) if certificate(mid) < eps else (mid, n)
        return 2 * n


class TestExactOrbit:
    def test_every_pinned_count_is_the_exact_orbit_count(self):
        for lam, p, eps, count in _pinned_counts():
            dps = oracle._plan_cell(lam, p, (1000.0, 8.0), eps)[2]
            assert _exact_count(lam, p, (1000.0, 8.0), eps, dps + 20) == count, (lam, p, eps)

    def test_the_cap_refusal_admits_every_pinned_count(self, monkeypatch):
        # the fewest step of the refusal is at most the count: 796 <= 798
        # at lam = 0.5, p = 20, eps = 1e-10
        for lam, p, eps, count in _pinned_counts():
            monkeypatch.setattr(oracle, "WORKING_PRECISION_CAP", count)
            oracle._plan_cell(lam, p, (1000.0, 8.0), eps)


#: Digests of working-precision orbits, one cell a line: lam, p, eps, the
#: stopping step and the sha256 that `_orbit_digest` forms.
ORBIT_DIGESTS = Path(__file__).parent / "data" / "working_precision_orbits.txt"


def _orbit_digest(monkeypatch, lam, p, eps):
    """Run one working-precision cell and return its stopping step and the
    sha256 of every displacement it recorded (D and each P), the returned
    point and the stopping step.  Each mpf enters as its exact signed
    mantissa, in hex, and exponent, so the digest reads every bit whatever
    the ambient precision and mpmath's backend."""
    runs = []

    def recorded(*args, **kwargs):
        runs.append(run_with_stop(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(oracle, "run_with_stop", recorded)
    oracle.aposteriori_stop_working_precision(lam, p, DEFAULT_X0, eps)
    (approx, stopped_at, trace), = runs

    def exact(value):
        man, exp = value.man_exp
        return f"{int(man):x}p{int(exp)}"

    text = "\n".join([*map(exact, trace.displacements), *map(exact, approx), repr(stopped_at)])
    return stopped_at, hashlib.sha256(text.encode("ascii")).hexdigest()


def _pinned_orbits():
    rows = [line.split() for line in ORBIT_DIGESTS.read_text(encoding="ascii").splitlines()]
    return [
        (float(lam), float(p), float(eps), int(step), digest)
        for lam, p, eps, step, digest in (row for row in rows if row and row[0] != "#")
    ]


class TestWorkingPrecisionOrbitBits:
    """mpmath rounds on exact integers, with no libm, so a working-precision
    orbit has the same bits on every platform; the float64 stops are pinned
    by the benchmark's fingerprint instead, since libm's pow may differ."""

    def test_seven_cells_are_pinned(self):
        assert len(_pinned_orbits()) == 7

    @pytest.mark.parametrize("cell", _pinned_orbits(), ids=lambda cell: "-".join(map(str, cell[:3])))
    def test_orbit_keeps_its_bits(self, monkeypatch, cell):
        lam, p, eps, step, digest = cell
        assert _orbit_digest(monkeypatch, lam, p, eps) == (step, digest)


class TestReferenceGrids:
    def test_embedded_grids_load(self):
        eps_list, p_list, post = load_reference_counts(StopKind.APOSTERIORI)
        assert eps_list == DEFAULT_EPS_LIST
        assert p_list == DEFAULT_P_LIST
        assert post[0] == [34, 32, 30, 42, 66, 266]
        assert post[4] == [88, 84, 84, 122, 200, 798]
        # benchmark_scenario compares a grid with these lists, not the headers
        eps_list, p_list, pri = load_reference_counts(StopKind.APRIORI)
        assert eps_list == DEFAULT_EPS_LIST
        assert p_list == DEFAULT_P_LIST
        assert pri[0] == [54, 50, 46, 64, 104, 428]
        assert pri[4] == [106, 104, 98, 144, 238, 960]
        assert all(c % 2 == 0 and c >= 2 for grid in (post, pri) for row in grid for c in row)


class TestReproduceTable:
    def test_single_aposteriori_cells(self):
        cell = reproduce_table(StopKind.APOSTERIORI, eps_list=[1e-6], p_list=[5.0])
        assert cell.counts == [[132]]
        cell = reproduce_table(StopKind.APOSTERIORI, eps_list=[1e-2], p_list=[20.0])
        assert cell.counts == [[266]]
        assert cell.reference_counts is None  # not the benchmark grid
        assert cell.deltas is None

    def test_single_apriori_cell_offset_is_recorded(self, default_grids):
        cell = reproduce_table(StopKind.APRIORI, eps_list=[1e-10], p_list=[20.0])
        assert cell.counts == [[988]]
        # the benchmark grid cell is 960; the +28 offset shows up in the
        # delta grid of the full reproduction, never silently absorbed
        full = default_grids[StopKind.APRIORI]
        i, j = full.eps_list.index(1e-10), full.p_list.index(20.0)
        assert full.reference_counts[i][j] == 960
        assert full.deltas[i][j] == 28

    @pytest.mark.parametrize(
        "check",
        [lambda grid: grid_within(grid, 2), lambda grid: columns_match_reference(grid, [0])],
        ids=["grid_within", "columns_match_reference"],
    )
    def test_grid_checks_refuse_a_grid_without_published_counts(self, check):
        grid = reproduce_table(StopKind.APRIORI, lam=0.9)
        assert grid.reference_counts is None
        with pytest.raises(InputError, match="not the published scenario"):
            check(grid)

    def test_default_aposteriori_grid_matches_reference(self, default_grids):
        result = default_grids[StopKind.APOSTERIORI]
        assert result.reference_counts is not None
        assert result.counts == result.reference_counts
        assert all(d == 0 for row in result.deltas for d in row)

    def test_apriori_exact_below_p2_offset_above(self, default_grids):
        result = default_grids[StopKind.APRIORI]
        for j, p in enumerate(result.p_list):
            col_deltas = [row[j] for row in result.deltas]
            if p < 2:
                assert col_deltas == [0, 0, 0, 0, 0]
            else:
                assert all(d > 0 for d in col_deltas)

    def test_apriori_count_dominates_aposteriori(self, default_grids):
        pri = default_grids[StopKind.APRIORI]
        post = default_grids[StopKind.APOSTERIORI]
        assert apriori_dominates(pri, post)[0]

    def test_columns_monotone_in_eps(self, default_grids):
        for result in default_grids.values():
            assert columns_monotone(result)[0]

    def test_input_validation(self):
        with pytest.raises(InputError):
            reproduce_table("max-steps")
        with pytest.raises(InputError):
            reproduce_table(StopKind.APRIORI, lam=1.0)
        with pytest.raises(InputError):
            reproduce_table(StopKind.APRIORI, eps_list=[0.0])
        with pytest.raises(InputError):
            reproduce_table(StopKind.APRIORI, p_list=[1.0])
