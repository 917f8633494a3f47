import dataclasses
import hashlib
import random

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
    make_example1,
    picard_iterate,
    power_type_constants,
    rederive_distance,
    reference_best_proximity,
    reproduce_table,
    run_with_stop,
)
from bestprox import cyclic, oracle, solver
from bestprox.cyclic import apply_map, sample_points
from bestprox.oracle import (
    DEFAULT_EPS_LIST,
    DEFAULT_P_LIST,
    SUITE_LAMBDAS,
    SUITE_PS,
    apex_fixed_by_t2,
    apriori_dominates,
    columns_match_reference,
    columns_monotone,
    contraction_holds,
    cyclic_suite,
    cyclicity_holds,
    displacement_decays,
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
        # T^2 maps (1, y) to (1, lam^2 y): 7.5e-12 away at lam = 0.5
        spec = dataclasses.replace(benchmark_map(), best_proximity=(1.0, 1e-11))
        with pytest.raises(DeclarationError, match=r"\(1\.0, 1e-11\)"):
            reference_best_proximity(spec)

    def test_wrong_declaration_fails_the_soundness_audit(self):
        # the orbit converges to (1, 0), so a (2, 0) reference would make
        # every true error about 1; the audit refuses the point instead
        spec = dataclasses.replace(benchmark_map(), best_proximity=(2.0, 0.0))
        with pytest.raises(DeclarationError):
            audit_soundness(spec, (1000.0, 8.0), steps=100)


class TestAuditSoundness:
    def test_benchmark_passes_with_loose_bounds(self):
        report = audit_soundness(benchmark_map(), (1000.0, 8.0), steps=100)
        assert report.passed and not report.failures
        # certificates are intentionally conservative: every finite
        # tightness ratio is far above 1
        finite = [r for _, r, _ in report.tightness if r != float("inf")]
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
        budget_at = solver.error_budget_at

        def short(trace, n):
            budget = budget_at(trace, n)
            if budget.step == short_step:
                budget = dataclasses.replace(budget, aposteriori=true_error - 1e-6)
            return budget

        monkeypatch.setattr(solver, "error_budget_at", short)
        report = audit_soundness(spec, x0, steps=20)
        assert not report.passed
        assert [failure[0] for failure in report.failures] == [short_step]

    def test_steps_validation(self):
        with pytest.raises(InputError):
            audit_soundness(benchmark_map(), (1000.0, 8.0), steps=7)


class TestAuditProofChain:
    @pytest.mark.parametrize("p", [1.1, 2.0, 5.0])
    def test_benchmark_chain(self, p):
        report = audit_proof_chain(benchmark_map(p=p), (1000.0, 8.0), steps=60)
        assert report.passed, report.failures
        assert report.checks > 0

    def test_flat_orbit(self):
        report = audit_proof_chain(benchmark_map(), E1, steps=20)
        assert report.passed

    def test_steps_validation(self):
        with pytest.raises(InputError):
            audit_proof_chain(benchmark_map(), (1000.0, 8.0), steps=2)


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

    def test_overdeclared_distance_is_flagged(self):
        spec = dataclasses.replace(benchmark_map(), d=3.0)
        with pytest.raises(DeclarationError):
            rederive_distance(spec, sample_count=200, seed=7)

    def test_spec_without_boxes_is_a_configuration_error(self):
        spec = dataclasses.replace(benchmark_map(), box_a=None)
        with pytest.raises(ConfigurationError, match="no sampling boxes"):
            rederive_distance(spec, sample_count=10, seed=7)


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
                 *cyclicity_holds(spec, samples[0])),
                (f"contraction inequality, 1000 pairs {tag}", *contraction_holds(spec, samples[1])),
                (f"displacement-excess geometric decay, 60 steps {tag}",
                 *displacement_decays(spec)),
                (f"T^2 fixes (1, 0) to 1e-15 {tag}", *apex_fixed_by_t2(spec)),
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
