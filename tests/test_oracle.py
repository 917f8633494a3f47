import dataclasses
import hashlib
import random

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
    rederive_distance,
    reference_best_proximity,
    reproduce_table,
    run_with_stop,
)
from bestprox import oracle
from bestprox.oracle import (
    DEFAULT_EPS_LIST,
    DEFAULT_P_LIST,
    apriori_dominates,
    columns_monotone,
    load_reference_counts,
    midpoint_inequality_holds,
    stop_with_escalation,
)

E1 = (1.0, 0.0)


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
        assert oracle._working_dps(2.0, 0.9, 20.0, 1e-10) == 273

    def test_shallow_cell_takes_the_floor(self):
        assert oracle._working_dps(2.0, 0.5, 2.0, 1e-2) == oracle.WORKING_DPS_FLOOR

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

    def test_c_d_below_the_float64_normal_range_is_an_input_error_naming_p(self):
        # C d = 1.1e-308 at p = 1014: the stop would form no threshold
        with pytest.raises(InputError, match=r"p=1014"):
            oracle._working_dps(2.0, 0.5, 1014.0, 1e-2)
        with pytest.raises(InputError, match=r"p=1014"):
            oracle.aposteriori_stop_working_precision(0.5, 1014.0, (1000.0, 8.0), 1e-2)


class TestReferenceGrids:
    def test_embedded_grids_load(self):
        eps_list, p_list, post = load_reference_counts(StopKind.APOSTERIORI)
        assert eps_list == DEFAULT_EPS_LIST
        assert p_list == DEFAULT_P_LIST
        assert post[0] == [34, 32, 30, 42, 66, 266]
        assert post[4] == [88, 84, 84, 122, 200, 798]
        _, _, pri = load_reference_counts(StopKind.APRIORI)
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

    def test_single_apriori_cell_offset_is_recorded(self, default_grids):
        cell = reproduce_table(StopKind.APRIORI, eps_list=[1e-10], p_list=[20.0])
        assert cell.counts == [[988]]
        # the benchmark grid cell is 960; the +28 offset shows up in the
        # delta grid of the full reproduction, never silently absorbed
        full = default_grids[StopKind.APRIORI]
        i, j = full.eps_list.index(1e-10), full.p_list.index(20.0)
        assert full.reference_counts[i][j] == 960
        assert full.deltas[i][j] == 28

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
