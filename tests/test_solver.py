import dataclasses
import math
import re
import sys
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bestprox import (
    BudgetExhaustedError,
    Example1Params,
    InputError,
    PowerTypeConstants,
    ResolutionFloorError,
    StopKind,
    StopRule,
    aposteriori_bound,
    aposteriori_stop_working_precision,
    apriori_bound,
    apriori_steps_needed,
    dist,
    error_budget_at,
    make_example1,
    picard_iterate,
    power_type_constants,
    reproduce_table,
    run_with_stop,
)
from bestprox import solver
from bestprox.oracle import (
    FLOAT64_CAP,
    WORKING_PRECISION_CAP,
    _working_dps,
)
from bestprox.solver import (
    certificate_evaluator,
    stop_excess,
)

E1 = (1.0, 0.0)
C18_Q2 = PowerTypeConstants(C=0.125, q=2)
#: (lam, p, eps) of the benchmark map whose float64 a posteriori stop from
#: (1000, 8) reaches its resolution floor before eps.
FLOORED_CELLS = {(0.9, 1.1, 1e-6), (0.9, 2.0, 1e-6), (0.9, 20.0, 1e-2), (0.9, 20.0, 1e-6)}


def benchmark_map(lam=0.5, p=2.0):
    return make_example1(Example1Params(lam=lam, p=p))


def _cell_dps(lam, p, eps):
    """The digits the oracle sizes for a cell of the built-in map (d = 2),
    from h formed on mpf numbers as it forms it."""
    h = stop_excess(mp.mpf(2), lam, power_type_constants(p), mp.mpf(eps))
    return _working_dps(2.0, h)


class TestAprioriBound:
    def test_vanishes_when_gap_is_zero(self):
        assert apriori_bound(2.0, 2.0, 0.25, C18_Q2, 1) == 0.0
        assert apriori_bound(2.0, 2.0, 0.25, C18_Q2, 50) == 0.0

    def test_worked_example(self):
        # D/(1 - k^(2/q)) * ((D - d)/(C d))^(1/q) * k^(2n/q)
        # = 3/(3/4) * sqrt(1/(1/4)) * 1/4 = 4 * 2 * 1/4 = 2
        assert apriori_bound(3.0, 2.0, 0.25, C18_Q2, 1) == pytest.approx(2.0, rel=1e-14)

    def test_benchmark_prefactor(self):
        # for q = 2 the bound specializes to 2 D sqrt(4 (D - d)) k^n;
        # recompute that shape with math.sqrt as a cross-check
        spec = benchmark_map()
        x0 = (1000.0, 8.0)
        tx0 = spec.apply(x0)
        D = dist(spec.space, x0, tx0)
        expected_pref = 2 * D * math.sqrt((D - 2.0) / 0.25)
        for n in (1, 5, 20):
            got = apriori_bound(D, 2.0, 0.5, C18_Q2, n)
            assert got == pytest.approx(expected_pref * 0.5 ** n, rel=1e-12)

    def test_round_off_gap_clamps_to_zero(self):
        assert apriori_bound(2.0 - 1e-13, 2.0, 0.5, C18_Q2, 1) == 0.0

    def test_true_gap_violation_rejected(self):
        with pytest.raises(InputError):
            apriori_bound(1.9, 2.0, 0.5, C18_Q2, 1)

    def test_gap_just_beyond_the_clamp_is_rejected(self):
        # 1e-9 below d is a true gap violation, far beyond round-off, and
        # the error names the displacement that lies below d
        with pytest.raises(InputError, match=r"^D=1\.999999999 is below d=2\.0$"):
            apriori_bound(2.0 - 1e-9, 2.0, 0.5, C18_Q2, 1)
        with pytest.raises(InputError, match=r"^P=1\.999999999 is below d=2\.0$"):
            aposteriori_bound(2.0 - 1e-9, 2.0, 0.5, C18_Q2)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(InputError):
            apriori_bound(3.0, 0.0, 0.5, C18_Q2, 1)
        with pytest.raises(InputError):
            apriori_bound(3.0, -1.0, 0.5, C18_Q2, 1)

    def test_bad_k_and_n(self):
        with pytest.raises(InputError):
            apriori_bound(3.0, 2.0, 1.0, C18_Q2, 1)
        with pytest.raises(InputError):
            apriori_bound(3.0, 2.0, 0.5, C18_Q2, 0)

    @given(
        st.floats(min_value=2.001, max_value=1e4),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=1.01, max_value=25),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=200)
    def test_geometric_decay_identity(self, D, k, p, n):
        from bestprox import power_type_constants

        consts = power_type_constants(p)
        ratio = apriori_bound(D, 2.0, k, consts, n + 1) / apriori_bound(D, 2.0, k, consts, n)
        assert ratio == pytest.approx(k ** (2.0 / consts.q), rel=1e-12)


class TestAposterioriBound:
    def test_vanishes_when_gap_is_zero(self):
        assert aposteriori_bound(2.0, 2.0, 0.25, C18_Q2) == 0.0

    def test_worked_example(self):
        # 3/(3/4) * sqrt(1/(1/4)) * sqrt(1/4) = 4 * 2 * 1/2 = 4
        assert aposteriori_bound(3.0, 2.0, 0.25, C18_Q2) == pytest.approx(4.0, rel=1e-14)

    def test_benchmark_stopping_window(self):
        # a posteriori budget crosses 1e-2 between even steps 28 and 30
        trace = picard_iterate(benchmark_map(), (1000.0, 8.0), steps=30)
        budget_28 = error_budget_at(trace, 14)
        budget_30 = error_budget_at(trace, 15)
        assert budget_28.aposteriori > 1e-2
        assert budget_30.aposteriori < 1e-2

    def test_validation(self):
        with pytest.raises(InputError):
            aposteriori_bound(1.0, 2.0, 0.5, C18_Q2)
        with pytest.raises(InputError):
            aposteriori_bound(3.0, 2.0, 0.0, C18_Q2)


def _first_crossing(D, d, k, consts, eps):
    """The smallest even step whose a priori bound is below eps, by a
    direct scan."""
    n = 1
    while apriori_bound(D, d, k, consts, n) >= eps:
        n += 1
    return 2 * n


def _searched_step(monkeypatch, lam, p, eps):
    """`apriori_steps_needed` on the benchmark map from (1000, 8), with
    `solver.apriori_bound` counted.  The search fails at once when its calls
    exceed 2 ceil(log2 n) + 2 for the largest n asked for, the budget of
    doubling and bisection, so one that walks a step at a time fails within
    a few hundred evaluations.  Checks that the step is a local crossing;
    returns (steps, D, consts)."""
    spec = benchmark_map(lam=lam, p=p)
    consts = power_type_constants(p)
    x0 = (1000.0, 8.0)
    D = dist(spec.space, x0, spec.apply(x0))
    calls = []
    real = solver.apriori_bound

    def counted(D, d, k, consts, n):
        calls.append(n)
        if len(calls) > 2 * (max(calls) - 1).bit_length() + 2:
            raise AssertionError(f"{len(calls)} a priori bound evaluations, up to n={max(calls)}")
        return real(D, d, k, consts, n)

    with monkeypatch.context() as patched:
        patched.setattr(solver, "apriori_bound", counted)
        steps = apriori_steps_needed(D, spec.d, spec.k, consts, eps)
    n = steps // 2
    assert steps % 2 == 0 and n >= 1
    assert len(calls) <= 2 * (n - 1).bit_length() + 2
    assert apriori_bound(D, spec.d, spec.k, consts, n) < eps
    if n > 1:
        assert apriori_bound(D, spec.d, spec.k, consts, n - 1) >= eps
    return steps, D, consts


class TestAprioriStepsNeeded:
    def test_gap_zero_gives_two(self):
        assert apriori_steps_needed(2.0, 2.0, 0.5, C18_Q2, 1e-12) == 2

    def test_loose_target_gives_two(self):
        # bound at n = 1 is 2 < 3.5
        assert apriori_steps_needed(3.0, 2.0, 0.25, C18_Q2, 3.5) == 2

    def test_benchmark_counts(self):
        # frozen from a 50-digit evaluation of the closed-form criterion;
        # the published grid cell for (1e-2, p=2) is 46, a documented
        # systematic offset from the literal formula (see the table tests)
        spec = benchmark_map()
        x0 = (1000.0, 8.0)
        D = dist(spec.space, x0, spec.apply(x0))
        assert apriori_steps_needed(D, 2.0, 0.5, C18_Q2, 1e-2) == 50
        assert apriori_steps_needed(D, 2.0, 0.5, C18_Q2, 1e-10) == 104

    def test_returned_step_is_the_first_crossing(self):
        D, k = 777.0, 0.37
        for p in (1.1, 2.0, 3.0, 20.0):
            from bestprox import power_type_constants

            consts = power_type_constants(p)
            for eps in (1e-3, 1e-8):
                steps = apriori_steps_needed(D, 2.0, k, consts, eps)
                n = steps // 2
                assert apriori_bound(D, 2.0, k, consts, n) < eps
                if n > 1:
                    assert apriori_bound(D, 2.0, k, consts, n - 1) >= eps

    @pytest.mark.parametrize(
        "lam, p, eps",
        [
            pytest.param(lam, p, eps, id=("" if lam == 0.5 else f"lam={lam}-") + f"{p}-{eps}")
            for lam in (0.5, 0.9999)
            for p in (2.0, 20.0)
            for eps in (1e-310, 5e-324)
        ],
    )
    def test_subnormal_target_is_the_first_crossing(self, monkeypatch, lam, p, eps):
        # prefactor / eps overflows float64 here, and at lam = 0.9999, p = 20,
        # eps = 5e-324 the bound crosses only where the float64 tail
        # k^(2n/q) underflows to 0; the search compares the bound with eps
        steps, _, _ = _searched_step(monkeypatch, lam, p, eps)
        assert steps > 2

    @pytest.mark.parametrize("lam", [0.9999999999999999, 0.999999999999])
    def test_lambda_next_to_one_matches_the_closed_form(self, monkeypatch, lam):
        # 1 / k rounds to a float64 whose log is far from -log(k) here; the
        # search reads no log, and its step is the closed form's crossing
        # 2n = q log(prefactor / eps) / log(1 / k), evaluated at 50 digits
        # from the float's exact k
        eps = 1e-2
        steps, D, consts = _searched_step(monkeypatch, lam, 2.0, eps)
        with mp.workdps(50):
            k, d, q, C = mp.mpf(lam), mp.mpf(2), mp.mpf(consts.q), mp.mpf(consts.C)
            D = mp.mpf(D)
            prefactor = D / (1 - k ** (2 / q)) * ((D - d) / (C * d)) ** (1 / q)
            closed = q * mp.log(prefactor / mp.mpf(eps)) / mp.log(1 / k)
            assert abs(steps - closed) <= 1e-12 * closed

    def test_eps_validation(self):
        with pytest.raises(InputError):
            apriori_steps_needed(3.0, 2.0, 0.5, C18_Q2, 0.0)

    def test_overflowing_prefactor_is_an_input_error_naming_d(self):
        # finite D, but D / (1 - k) * sqrt(4 (D - d)) overflows float64;
        # the step predictor reads the prefactor
        with pytest.raises(InputError, match=r"D=1\.5e\+308"):
            apriori_steps_needed(1.5e308, 2.0, 0.5, C18_Q2, 1e-2)

    @pytest.mark.parametrize(
        "D, eps",
        [(mp.mpf("1e400"), 1e-10), (mp.mpf(3), mp.mpf("1e-400"))],
        ids=["D=1e400", "eps=1e-400"],
    )
    def test_beyond_the_float64_range_is_the_first_crossing(self, D, eps):
        # float(D) overflows, or float(eps) underflows to 0: the search
        # compares mpf bounds with eps, so no number passes through float64
        consts = power_type_constants(2.0)
        assert _first_crossing(D, 2.0, 0.5, consts, eps) == 2150
        assert apriori_steps_needed(D, 2.0, 0.5, consts, eps) == 2150

    def test_run_with_a_target_below_the_float64_range(self):
        eps = mp.mpf("1e-400")
        with mp.workdps(50):
            spec = make_example1(Example1Params(lam=mp.mpf(0.5), p=mp.mpf(2)))
            start = (mp.mpf(1000), mp.mpf(8))
            rule = StopRule(StopKind.APRIORI, eps)
            _, stopped_at, trace = run_with_stop(spec, start, rule, store_iterates=False)
            D = trace.displacements[0]
            scanned = _first_crossing(D, spec.d, spec.k, trace.constants, eps)
        assert stopped_at == scanned == 2694


class TestPicardIterate:
    def test_apex_two_cycle(self):
        trace = picard_iterate(benchmark_map(), E1, steps=4)
        assert trace.iterates == [
            (1.0, 0.0), (-1.0, -0.0), (1.0, 0.0), (-1.0, -0.0), (1.0, 0.0)
        ]
        assert all(d == pytest.approx(2.0, abs=1e-15) for d in trace.displacements)
        assert [b.step for b in trace.budgets] == [2, 4]
        assert all(b.apriori == 0.0 and b.aposteriori == 0.0 for b in trace.budgets)

    def test_benchmark_first_steps(self):
        trace = picard_iterate(benchmark_map(), (1000.0, 8.0), steps=2)
        assert trace.iterates[1] == (-500.5, -4.0)
        assert trace.iterates[2] == (250.75, 2.0)

    def test_single_step_trace_shape(self):
        trace = picard_iterate(benchmark_map(), (1000.0, 8.0), steps=1)
        assert len(trace.iterates) == 2
        assert len(trace.displacements) == 1
        assert trace.budgets == []

    def test_displacements_respect_set_distance(self):
        spec = benchmark_map(lam=0.9, p=1.5)
        trace = picard_iterate(spec, (400.0, -100.0), steps=80)
        pts = trace.iterates
        every = [dist(spec.space, a, b) for a, b in zip(pts, pts[1:])]
        assert len(every) == 80
        assert all(d >= 2.0 - 1e-9 for d in every)
        gaps = [d - 2.0 for d in every]
        assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))
        # the trace records D and the even-step displacements, bit for bit
        assert trace.displacements == [every[0]] + every[1::2]

    def test_even_iterates_converge_monotonically(self):
        spec = benchmark_map(lam=0.7, p=3)
        trace = picard_iterate(spec, (600.0, -40.0), steps=60)
        errors = [
            dist(spec.space, trace.iterates[s], E1)
            for s in range(0, 61, 2)
        ]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 1e-6 < errors[0]

    def test_displacement_only_mode(self):
        rule = StopRule(StopKind.APOSTERIORI, 1e-2)
        _, stopped_at, trace = run_with_stop(benchmark_map(), (1000.0, 8.0), rule,
                                             store_iterates=False)
        assert trace.iterates == [(1000.0, 8.0)]
        assert trace.steps == stopped_at == 30
        assert len(trace.displacements) == 1 + trace.steps // 2

    def test_runs_exactly_the_given_steps(self):
        trace = picard_iterate(benchmark_map(), (1000.0, 8.0), steps=12)
        assert trace.steps == 12
        assert len(trace.iterates) == 13

    @pytest.mark.parametrize("steps", [1, 2, 7, 12])
    def test_norms_taken_are_d_and_the_even_steps(self, monkeypatch, steps):
        calls = []

        def counted(space, u, v):
            calls.append((u, v))
            return dist(space, u, v)

        monkeypatch.setattr(solver, "dist", counted)
        picard_iterate(benchmark_map(), (1000.0, 8.0), steps=steps)
        assert len(calls) == 1 + steps // 2
        calls.clear()
        _, stopped_at, _ = run_with_stop(
            benchmark_map(), (1000.0, 8.0), StopRule(StopKind.APOSTERIORI, 1e-2)
        )
        assert len(calls) == 1 + stopped_at // 2

    def test_start_outside_a_rejected(self):
        with pytest.raises(InputError):
            picard_iterate(benchmark_map(), (-5.0, 0.0), steps=3)

    def test_step_count_validated(self):
        with pytest.raises(InputError):
            picard_iterate(benchmark_map(), (1000.0, 8.0), steps=0)


class TestRunWithStop:
    def test_apex_stops_immediately(self):
        approx, stopped_at, trace = run_with_stop(
            benchmark_map(), E1, StopRule(StopKind.APOSTERIORI, 1e-6)
        )
        assert stopped_at == 2
        assert approx == (1.0, 0.0)

    def test_benchmark_cell(self):
        approx, stopped_at, _ = run_with_stop(
            benchmark_map(), (1000.0, 8.0), StopRule(StopKind.APOSTERIORI, 1e-2)
        )
        assert stopped_at == 30
        err = dist(benchmark_map().space, approx, E1)
        assert err < 1e-2

    def test_deep_cell_at_working_precision(self):
        # displacement excesses at this depth are far below float64
        # resolution; the same solver code at 80 working digits recovers
        # the exact stopping step of the published grid
        with mp.workdps(80):
            spec = make_example1(Example1Params(lam=mp.mpf(0.5), p=mp.mpf(2)))
            start = (mp.mpf(1000), mp.mpf(8))
            _, stopped_at, _ = run_with_stop(
                spec, start, StopRule(StopKind.APOSTERIORI, 1e-10)
            )
        assert stopped_at == 84

    @pytest.mark.parametrize("dps", [None, 60])
    def test_an_aposteriori_run_forms_its_constants_once(self, monkeypatch, dps):
        # the certificate and the screen's h read one (1 - k^(2/q), C d, k^(1/q))
        calls = []
        formed = solver._run_constants

        def counted(*args):
            calls.append(args)
            return formed(*args)

        monkeypatch.setattr(solver, "_run_constants", counted)
        if dps is None:
            spec, start = benchmark_map(), (1000.0, 8.0)
            run_with_stop(spec, start, StopRule(StopKind.APOSTERIORI, 1e-2))
        else:
            with mp.workdps(dps):
                spec = make_example1(Example1Params(lam=mp.mpf(0.5), p=mp.mpf(2)))
                start = (mp.mpf(1000), mp.mpf(8))
                run_with_stop(spec, start, StopRule(StopKind.APOSTERIORI, 1e-10))
        assert len(calls) == 1

    def test_deep_cell_in_float64_stops_early_but_correct(self):
        # in float64 the excess collapses to zero once the iterate reaches
        # the limit to machine precision; the run stops earlier than the
        # exact-arithmetic count but the returned point is genuinely within eps
        approx, stopped_at, _ = run_with_stop(
            benchmark_map(), (1000.0, 8.0), StopRule(StopKind.APOSTERIORI, 1e-10)
        )
        assert stopped_at % 2 == 0
        assert stopped_at <= 84
        err = dist(benchmark_map().space, approx, E1)
        assert err < 1e-10

    def test_apriori_kind_runs_predicted_count(self):
        approx, stopped_at, trace = run_with_stop(
            benchmark_map(), (1000.0, 8.0), StopRule(StopKind.APRIORI, 1e-2)
        )
        assert stopped_at == 50
        assert trace.steps == 50
        err = dist(benchmark_map().space, approx, E1)
        assert err < 1e-2

    def test_cap_exhaustion_carries_partial_trace(self):
        with pytest.raises(BudgetExhaustedError) as excinfo:
            run_with_stop(
                benchmark_map(), (1000.0, 8.0),
                StopRule(StopKind.APOSTERIORI, 1e-2, max_steps=10),
            )
        assert excinfo.value.trace.steps == 10

    def test_apriori_cap_exhaustion(self):
        with pytest.raises(BudgetExhaustedError) as excinfo:
            run_with_stop(
                benchmark_map(), (1000.0, 8.0),
                StopRule(StopKind.APRIORI, 1e-10, max_steps=20),
            )
        assert excinfo.value.trace.steps == 0

    def test_apriori_refusal_takes_no_step(self, monkeypatch):
        # the prediction reads D from the map, not from a step
        def no_step(*args, **kwargs):
            raise AssertionError("a step ran before the refusal")

        monkeypatch.setattr(solver, "_advance", no_step)
        with pytest.raises(BudgetExhaustedError, match="needs 104 steps, cap is 20"):
            run_with_stop(
                benchmark_map(), (1000.0, 8.0),
                StopRule(StopKind.APRIORI, 1e-10, max_steps=20),
            )

    def test_zero_set_distance_rejected_before_stepping(self):
        spec = dataclasses.replace(benchmark_map(), d=0.0)
        with pytest.raises(InputError, match="d=0.0"):
            picard_iterate(spec, (1000.0, 8.0), steps=1)
        with pytest.raises(InputError, match="d=0.0"):
            run_with_stop(spec, (1000.0, 8.0), StopRule(StopKind.APOSTERIORI, 1e-2))

    @pytest.mark.parametrize("eps", [1e-2, 1e-6])
    @pytest.mark.parametrize("p", [1.1, 2.0, 20.0])
    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.9])
    def test_stop_agrees_with_derived_budgets(self, lam, p, eps):
        # the stop rule evaluates its bound inline; the budgets a trace
        # reports are derived afterwards from its displacements
        spec = benchmark_map(lam=lam, p=p)
        x0 = (1000.0, 8.0)
        rule = StopRule(StopKind.APOSTERIORI, eps, max_steps=4000)
        if (lam, p, eps) in FLOORED_CELLS:
            # the float64 floor, not the cap: P holds at d + 6 ulps of d
            # (2.66e-15) from step 390 to step 456
            with pytest.raises(ResolutionFloorError) as excinfo:
                run_with_stop(spec, x0, rule)
            trace = excinfo.value.trace
            assert trace.steps == 456
            assert trace.displacements[-1] - spec.d == 6 * math.ulp(spec.d)
            return
        _, stopped_at, trace = run_with_stop(spec, x0, rule)
        n = stopped_at // 2
        budgets = trace.budgets
        assert len(budgets) == n
        assert budgets[-1].aposteriori < eps
        assert all(b.aposteriori >= eps for b in budgets[:-1])
        consts = trace.constants
        D = dist(spec.space, x0, spec.apply(x0))
        P = dist(spec.space, trace.iterates[-2], trace.iterates[-1])
        assert budgets[-1].step == stopped_at
        assert budgets[-1].apriori == apriori_bound(D, spec.d, spec.k, consts, n)
        assert budgets[-1].aposteriori == aposteriori_bound(P, spec.d, spec.k, consts)

    @pytest.mark.parametrize("p", [1.5, 2.0, 5.0])
    @pytest.mark.parametrize("lam", [0.5, 0.9])
    def test_stop_agrees_with_derived_budgets_at_working_precision(self, lam, p):
        # the stop's per-run evaluator against the one-shot bounds the
        # trace derives, both at the digits the oracle sizes for the cell
        eps = 1e-6
        x0 = (1000.0, 8.0)
        with mp.workdps(_cell_dps(lam, p, eps)):
            spec = make_example1(Example1Params(lam=mp.mpf(lam), p=mp.mpf(p)))
            start = tuple(mp.mpf(c) for c in x0)
            _, stopped_at, trace = run_with_stop(spec, start, StopRule(StopKind.APOSTERIORI, eps))
            budgets = trace.budgets
            P = dist(spec.space, trace.iterates[-2], trace.iterates[-1])
            last = aposteriori_bound(P, spec.d, spec.k, trace.constants)
        assert len(budgets) == stopped_at // 2
        assert budgets[-1].aposteriori < eps
        assert all(b.aposteriori >= eps for b in budgets[:-1])
        assert budgets[-1].aposteriori == last

    def test_declared_distance_above_true_one_is_caught_at_an_even_step(self):
        # k and d are checked once per run; the gap check stays per step
        spec = dataclasses.replace(benchmark_map(), d=2.5)
        with pytest.raises(InputError, match=r"P=.* is below d=2\.5"):
            run_with_stop(spec, (1000.0, 8.0), StopRule(StopKind.APOSTERIORI, 1e-6))

    def test_stop_rule_validation(self):
        with pytest.raises(InputError):
            StopRule(StopKind.APOSTERIORI, 0.0)
        with pytest.raises(InputError):
            StopRule(StopKind.APOSTERIORI, 1e-2, max_steps=11)
        with pytest.raises(InputError):
            StopRule(StopKind.APOSTERIORI, 1e-2, max_steps=0)


class TestResolutionFloor:
    def test_stalled_run_raises_at_the_floor(self):
        # at lam = 0.9 the float64 displacement pins a few ulps above d;
        # the run gives up after the span of 33 still even steps at
        # k = 0.9 instead of running on to its cap
        spec = benchmark_map(lam=0.9, p=2)
        rule = StopRule(StopKind.APOSTERIORI, 1e-10, max_steps=1_000_000)
        with pytest.raises(ResolutionFloorError) as excinfo:
            run_with_stop(spec, (1000.0, 8.0), rule)
        exc = excinfo.value
        assert isinstance(exc, BudgetExhaustedError)
        trace = exc.trace
        assert trace.steps < 600 and trace.steps % 2 == 0
        assert 0 < trace.displacements[-1] - spec.d < 1e-13
        P = dist(spec.space, trace.iterates[-2], trace.iterates[-1])
        assert exc.floor == aposteriori_bound(P, spec.d, spec.k, trace.constants)
        assert exc.floor >= 1e-10
        held = trace.displacements[-1 - 33 :]
        assert len(set(held)) == 1 and "(33 even steps)" in str(exc)
        # the screen decided every even step on its own
        assert trace.confirmations == 0

    def test_stalled_run_at_working_precision_raises_too(self):
        # 20 digits resolve excesses down to about 1e-19, far above 1e-30
        with mp.workdps(20):
            spec = make_example1(Example1Params(lam=mp.mpf(0.9), p=mp.mpf(2)))
            rule = StopRule(StopKind.APOSTERIORI, 1e-30, max_steps=100_000)
            with pytest.raises(ResolutionFloorError) as excinfo:
                run_with_stop(spec, (mp.mpf(1000), mp.mpf(8)), rule, store_iterates=False)
        assert excinfo.value.trace.steps < 1000
        assert excinfo.value.floor >= 1e-30

    def test_stall_that_breaks_still_certifies(self):
        # the longest stall that later broke in a sweep over lam 0.6-0.999,
        # p 1.01-20 and ten starts: 108 even steps, 1.57 half-lives of the
        # 692 that the span allows at lam = 0.995
        spec = benchmark_map(lam=0.995, p=1.01)
        x0 = (536.3461223023825, -268.622166174829)
        trace = picard_iterate(spec, x0, steps=8400)
        even = trace.displacements[1:]  # even[n - 1] is P at step 2n
        runs, start = [], 0
        for i in range(1, len(even)):
            if even[i] != even[i - 1]:
                runs.append((i - 1 - start, start))
                start = i
        held, start = max(runs)
        assert held == 108 and held < _stall_span(spec.k) == 692
        breaks_at = 2 * (start + held + 2)
        bound_held, bound_after = (
            aposteriori_bound(P, spec.d, spec.k, trace.constants)
            for P in (even[start], even[start + held + 1])
        )
        eps = (bound_held + bound_after) / 2
        assert bound_after < eps < bound_held
        _, stopped_at, _ = run_with_stop(
            spec, x0, StopRule(StopKind.APOSTERIORI, eps, max_steps=20_000),
            store_iterates=False,
        )
        assert stopped_at == breaks_at

    def test_span_is_ten_half_lives_of_the_declared_k(self):
        assert _stall_span(0.9) == 33
        assert _stall_span(0.995) == 692
        assert _stall_span(mp.mpf(0.9)) == 33
        # a declared k that rounds to 1 in float64 never gives up, and one
        # that rounds to 0 gives up at the first repeat
        assert _stall_span(1 - mp.mpf(10) ** -30) == math.inf
        assert _stall_span(mp.mpf(10) ** -400) == _stall_span(1e-300) == 1

    @pytest.mark.parametrize("k", [1e-300, mp.mpf(10) ** -400], ids=["1e-300", "1e-400"])
    def test_a_run_whose_k_is_tiny_gives_up_at_the_first_repeat(self, k):
        # the float64 orbit at lam = 0.9 holds its displacement from step
        # 390; eps lies below every bound, so only the span of 1 ends the run
        spec = dataclasses.replace(benchmark_map(lam=0.9, p=2), k=k)
        rule = StopRule(StopKind.APOSTERIORI, 1e-300, max_steps=1000)
        with pytest.raises(ResolutionFloorError, match=r"\(1 even steps\)$") as excinfo:
            run_with_stop(spec, (1000.0, 8.0), rule, store_iterates=False)
        assert excinfo.value.trace.steps == 392

    def test_a_run_whose_k_rounds_to_1_never_gives_up(self):
        spec = benchmark_map(lam=0.9, p=2)
        with mp.workdps(40):
            spec = dataclasses.replace(spec, k=1 - mp.mpf(10) ** -30)
            rule = StopRule(StopKind.APOSTERIORI, 1e-2, max_steps=600)
            with pytest.raises(BudgetExhaustedError, match="within 600 steps") as excinfo:
                run_with_stop(spec, (1000.0, 8.0), rule, store_iterates=False)
        assert excinfo.value.trace.steps == 600


def _stall_span(k):
    """The even steps of unchanged displacement after which an a
    posteriori run gives up, as `run_with_stop` documents them:
    STALL_HALF_LIVES half-lives of the decay k^2 per even step, for k taken
    as a float, inf if that rounds to 1 and 1 if it rounds to 0."""
    k = float(k)
    if k == 0:
        return 1
    rate = -2.0 * math.log(k)
    return math.ceil(solver.STALL_HALF_LIVES * math.log(2.0) / rate) if rate > 0 else math.inf


def _inline_certificate(X, d, k, consts, m):
    """The estimate written out as one expression: the reference that the
    evaluator, with its run constants formed once, must match bit for bit."""
    gap = X - d
    if gap < 0:
        gap = 0.0
    if gap == 0:
        return 0.0
    C, q = consts.C, consts.q
    return X / (1 - k ** (2.0 / q)) * (gap / (C * d)) ** (1.0 / q) * k ** (m / q)


class TestCertificateEvaluator:
    @pytest.mark.parametrize("p", [1.1, 2.0, 20.0])
    @pytest.mark.parametrize("dps", [None, 80, 355])
    def test_matches_one_shot_certificate_bit_for_bit(self, dps, p):
        with mp.workdps(dps or mp.mp.dps):
            num = float if dps is None else mp.mpf
            spec = make_example1(Example1Params(lam=num(0.5), p=num(p)))
            d, k = spec.d, spec.k
            consts = power_type_constants(spec.space.p)
            xs = [d, d - 1e-13, d + 1e-13, d * (1 + num(1e-6)), d + num(0.5), 3 * d, num(1000)]
            for m in (0, 1, 2, 40):
                evaluate = certificate_evaluator(d, k, consts, m)
                for X in xs:
                    value = evaluate(X)
                    assert value == _inline_certificate(X, d, k, consts, m)

    def test_run_constants_are_checked_when_built(self):
        with pytest.raises(InputError, match="k must lie in"):
            certificate_evaluator(2.0, 1.0, C18_Q2, 1)
        with pytest.raises(InputError, match="d=0.0"):
            certificate_evaluator(0.0, 0.5, C18_Q2, 1)
        evaluate = certificate_evaluator(2.0, 0.5, C18_Q2, 1)
        with pytest.raises(InputError, match="P=1.5 is below d=2.0"):
            evaluate(1.5)
        for m in (0, 2, 40):
            with pytest.raises(InputError, match="D=1.5 is below d=2.0"):
                certificate_evaluator(2.0, 0.5, C18_Q2, m)(1.5)

    @pytest.mark.parametrize("d, k, p", [
        # k^(2/q) rounds to 1 at q >= 4, so 1 - k^(2/q) is 0
        (2.0, 0.9999999999999999, 4.0),
        (2.0, 0.9999999999999999, 20.0),
        # d / (1 - k^(2/q)) overflows, so the bound at X = d would be NaN
        (1e305, 0.99999999, 2.0),
    ])
    def test_run_constants_without_a_finite_bound_are_refused_naming_d_k_and_q(self, d, k, p):
        consts = power_type_constants(p)
        for build in (lambda: certificate_evaluator(d, k, consts, 1),
                      lambda: stop_excess(d, k, consts, 1e-2)):
            with pytest.raises(InputError, match=re.escape(f"finite at d={d}, k={k}, q={p}:")):
                build()

    def test_at_q_3_the_same_k_gives_finite_bounds_and_0_at_d(self):
        # 1 - k^(2/3) is 1.1e-16 here; the bound at X = d is exactly 0, at
        # float64 and on mpmath numbers
        evaluate = certificate_evaluator(2.0, 0.9999999999999999, power_type_constants(3.0), 1)
        assert 0 < evaluate(3.0) < math.inf and evaluate(2.0) == 0.0
        consts = power_type_constants(mp.mpf(3))
        assert certificate_evaluator(mp.mpf(2), mp.mpf(0.5), consts, 1)(mp.mpf(2)) == 0


#: (p, q) of the screen tests: q = 2 below p = 2, q = p above, and
#: one non-integral q.
POWER_CASES = [(1.5, 2), (2, 2), (3, 3), (5, 5), (20, 20), (2.5, 2.5)]


def _ulp(x):
    """Spacing of the working arithmetic at x > 0."""
    if isinstance(x, float):
        return math.ulp(x)
    return mp.ldexp(1, mp.frexp(x)[1] - mp.mp.prec)


def _stop_threshold(bound, d, k, consts, eps):
    """The largest P whose bound is below eps, to the last ulp: solved in
    the q-th power domain at 20 extra digits, then stepped by ulps."""
    num = type(d)
    with mp.workdps(mp.mp.dps + 20):
        D, K, C, q = (mp.mpf(x) for x in (d, k, consts.C, consts.q))
        a = K ** (1 / q) / (1 - K ** (2 / q))
        # log of (P a / eps)^q (P - d) / (C d) at P = d + e^t, increasing in t
        excess = lambda t: q * mp.log((D + mp.exp(t)) * a / eps) + t - mp.log(C * D)
        t = mp.findroot(excess, mp.log(C * D) - q * mp.log(D * a / eps))
        P = D + mp.exp(t)
    P = num(P)
    while bound(P) >= eps:
        P -= _ulp(P)
    while bound(P + _ulp(P)) < eps:
        P += _ulp(P)
    return P


def _closed_form_excess(d, k, consts, eps):
    """h = C d (eps / (a d))^q, a = k^(1/q) / (1 - k^(2/q)): the excess
    above which the a posteriori bound, at least d a ((P - d)/(C d))^(1/q),
    exceeds eps."""
    q = consts.q
    a = k ** (1 / q) / (1 - k ** (2 / q))
    return consts.C * d * (eps / (a * d)) ** q


def _stop_case(p, k, num):
    consts = power_type_constants(num(p))
    return num(2), num(k), consts


def _screen(d, k, consts, eps):
    """The screen of `run_with_stop` as a function of P, built from
    `stop_excess` and STOP_MARGIN as the run builds it: False where the
    run rules P out without the certificate, True where the certificate
    decides, as at every P where no h is formed."""
    h = stop_excess(d, k, consts, eps)
    if h is None:
        return lambda P: True
    hi = h * (1 + consts.q * solver.STOP_MARGIN)
    return lambda P: not P - d > hi


def _decided_right(may_fire, bound, P, eps):
    """The screen at P is sound: it rules P out only where the certificate
    would not fire."""
    return may_fire(P) or bound(P) >= eps


def _working_precision_run(lam, p, eps):
    """The a posteriori stop of a grid cell from (1000, 8), at the digits
    the oracle sizes for it; returns (stopped_at, trace)."""
    with mp.workdps(_cell_dps(lam, p, eps)):
        spec = make_example1(Example1Params(lam=mp.mpf(lam), p=mp.mpf(p)))
        start = (mp.mpf(1000), mp.mpf(8))
        rule = StopRule(StopKind.APOSTERIORI, eps, max_steps=WORKING_PRECISION_CAP)
        _, stopped_at, trace = run_with_stop(spec, start, rule, store_iterates=False)
    return stopped_at, trace


class TestStopExcess:
    def test_c_d_below_the_normal_range_forms_no_threshold(self):
        # p = 2, d = 8e-310: C d = 1e-310 is subnormal but resolves 2^-40,
        # and at eps = a d the power factor is exactly 1, so h would be C d
        consts = power_type_constants(2.0)
        d, k = 8e-310, 0.5
        a = k ** (1 / consts.q) / (1 - k ** (2 / consts.q))
        Cd = consts.C * d
        assert 0 < Cd < sys.float_info.min and Cd * (1 + 2.0 ** -40) > Cd
        assert stop_excess(d, k, consts, a * d) is None
        assert stop_excess(2.0, k, consts, a * 2.0) == consts.C * 2.0

    def test_unresolved_power_factor_forms_no_threshold(self):
        # d = 1e20, p = 2: the power factor h / (C d) is near 1e-320,
        # subnormal and spaced by 5e-4 of itself, while h, near 1.25e-301,
        # is resolved; no h is formed, so every P goes to the certificate
        consts = power_type_constants(2.0)
        d, k = 1e20, 0.5
        a = k ** (1 / consts.q) / (1 - k ** (2 / consts.q))
        eps = a * d * 1e-160
        h = _closed_form_excess(d, k, consts, eps)
        factor, tol = h / (consts.C * d), consts.q * solver.STOP_MARGIN / 8
        assert h * (1 + tol) > h and factor * (1 + tol) == factor
        assert stop_excess(d, k, consts, eps) is None
        may_fire = _screen(d, k, consts, eps)
        assert all(may_fire(P) is True for P in (math.nextafter(d, math.inf), 2 * d))


class TestStopScreen:
    @pytest.mark.parametrize("p, q", POWER_CASES)
    @pytest.mark.parametrize("dps", [None, 60, 300])
    @pytest.mark.parametrize("k", [0.5, 0.9])
    def test_agrees_with_the_certificate_at_the_threshold(self, k, dps, p, q):
        with mp.workdps(dps or mp.mp.dps):
            num = float if dps is None else mp.mpf
            d, k, consts = _stop_case(p, k, num)
            assert consts.q == q
            # at eps = 1e3 the threshold excess is of the size of P, so
            # one ulp of P moves both forms by about their rounding
            for eps in (1e3, 1e-2, 1e-6, 1e-10):
                bound = certificate_evaluator(d, k, consts, 1)
                may_fire = _screen(d, k, consts, eps)
                edge = _stop_threshold(bound, d, k, consts, eps)
                assert bound(edge) < eps <= bound(edge + _ulp(edge))
                near = [edge + j * _ulp(edge) for j in range(-8, 9)] + [d]
                for P in near:
                    assert _decided_right(may_fire, bound, P, eps)
                assert may_fire(d) is True
                # a P with 4 times the threshold's excess, where the
                # arithmetic resolves it, is screened out, and one with a
                # quarter of it is not, for integral and non-integral q;
                # at eps = 1e3 the screen's excess h lies (1 + h/d)^q above
                # the threshold's, so there a P at twice h is screened out
                far = [(P, P < edge) for P in (d + (edge - d) / 4, d + 4 * (edge - d))]
                if eps == 1e3:
                    far[1] = (d + 2 * _closed_form_excess(d, k, consts, eps), False)
                for P, fires in far:
                    if P > d:
                        assert may_fire(P) is fires

    @given(
        st.sampled_from(POWER_CASES),
        st.floats(min_value=-300, max_value=-0.01),
        st.floats(min_value=-300, max_value=300),
        st.floats(min_value=-300, max_value=300),
    )
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_the_certificate_in_float64(self, case, log_k, log_eps, log_gap):
        d, k, consts = _stop_case(case[0], 10.0 ** log_k, float)
        eps, P = 10.0 ** log_eps, d + 10.0 ** log_gap
        bound = certificate_evaluator(d, k, consts, 1)
        assert _decided_right(_screen(d, k, consts, eps), bound, P, eps)

    @given(
        st.sampled_from(POWER_CASES),
        st.floats(min_value=-30, max_value=-0.01),
        st.floats(min_value=-30, max_value=5),
        st.floats(min_value=-55, max_value=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_the_certificate_at_60_digits(self, case, log_k, log_eps, log_gap):
        with mp.workdps(60):
            d, k, consts = _stop_case(case[0], mp.mpf(10) ** log_k, mp.mpf)
            eps, P = 10.0 ** log_eps, d + mp.mpf(10) ** log_gap
            bound = certificate_evaluator(d, k, consts, 1)
            assert _decided_right(_screen(d, k, consts, eps), bound, P, eps)

    def test_float64_overflow_and_underflow_go_to_the_certificate(self):
        d, k, consts = _stop_case(20, 0.5, float)
        bound = certificate_evaluator(d, k, consts, 1)
        # at a target far below every bound, the power factor
        # (eps / (a d))^20 underflows to 0, so h is not formed
        may_fire = _screen(d, k, consts, 1e-300)
        P = math.nextafter(d, math.inf)
        assert may_fire(P) is True and bound(P) >= 1e-300
        # at a target far above every bound, the power factor overflows
        # float64, so h is not formed
        may_fire = _screen(d, k, consts, 1e300)
        assert may_fire(P) is (bound(P) < 1e300) is True
        # with k = 1e-300 the factor a is tiny and h is about 6e294
        d, k, consts = _stop_case(2, 1e-300, float)
        bound = certificate_evaluator(d, k, consts, 1)
        may_fire = _screen(d, k, consts, 1e-2)
        assert may_fire(P) is (bound(P) < 1e-2) is True
        # an infinite P is screened out; a P below d goes to the
        # certificate, which checks it
        assert may_fire(math.inf) is False and bound(math.inf) >= 1e-2
        assert may_fire(d - 1e-13) is True

    def test_overflowing_certificate_is_not_screened_out(self):
        # eps / (a d) overflows float64 here, so h is not formed; at
        # P - d = 1e206 the bound is 8.9e159 < eps while the float64
        # certificate overflows, so the step is not screened out and the
        # certificate, which cannot fire, decides it
        d, k, consts = _stop_case(1.5, 1e-299, float)
        eps, P = 1e160, d + 1e206
        may_fire = _screen(d, k, consts, eps)
        assert may_fire(P) is True
        assert certificate_evaluator(d, k, consts, 1)(P) == math.inf
        with mp.workdps(30):
            exact = certificate_evaluator(mp.mpf(d), mp.mpf(k), consts, 1)
            assert exact(mp.mpf(P)) < eps
        assert may_fire(d + 1e220) is True
        assert certificate_evaluator(d, k, consts, 1)(d + 1e220) >= eps

    def test_run_constants_outside_float64_disable_it(self):
        # a / eps subnormal (k tiny, eps huge): eps / (a d) overflows
        # float64, so h is not formed, and where the float64 certificate
        # overflows it decides
        d, k, q, eps = 2.0, 1e-300, 2, 1e170
        consts = PowerTypeConstants(C=1 / (q * 2.0 ** q), q=q)
        may_fire = _screen(d, k, consts, eps)
        assert may_fire(1e300) is True
        assert certificate_evaluator(d, k, consts, 1)(1e300) >= eps
        assert all(may_fire(P) is True for P in (d * 1.5, d * 10, 1.0))
        # a band C d below the smallest normal (d = 1e-300, q = 30), where
        # P = 1 gives a finite product far above it; and an arithmetic
        # coarser than 2^-40: no threshold, so every P goes to the certificate
        d, k, q, eps = 1e-300, 0.5, 30, 1e-2
        consts = PowerTypeConstants(C=1 / (q * 2.0 ** q), q=q)
        assert consts.C * d < sys.float_info.min
        may_fire = _screen(d, k, consts, eps)
        assert all(may_fire(P) is True for P in (d * 1.5, d * 10, 1.0, 1e300))
        with mp.workprec(30):
            d, k, consts = _stop_case(2, 0.5, mp.mpf)
            assert _screen(d, k, consts, 1e-2)(mp.mpf(1000)) is True
        with mp.workprec(53):
            d, k, consts = _stop_case(2, 0.5, mp.mpf)
            assert _screen(d, k, consts, 1e-2)(mp.mpf(1000)) is False

    @pytest.mark.parametrize("p", [1.5, 2.5, 3, 20])
    @pytest.mark.parametrize("dps", [None, 60])
    @pytest.mark.parametrize("eps", [1e3, 1e-2, 1e-10])
    def test_threshold_solves_its_equation(self, eps, dps, p):
        # the screen's excess h lies above the threshold's: the largest P
        # whose certificate is below eps is at most h above d, and the
        # exact certificate at d + h, with h taken to the resolution the
        # screen requires of it, is at least eps; also at eps = 1e3, where
        # the threshold's excess is several times d
        with mp.workdps(dps or mp.mp.dps):
            num = float if dps is None else mp.mpf
            d, k, consts = _stop_case(p, 0.5, num)
            q, h = consts.q, stop_excess(d, k, consts, eps)
            assert h == _closed_form_excess(d, k, consts, eps)
            bound = certificate_evaluator(d, k, consts, 1)
            assert _stop_threshold(bound, d, k, consts, eps) - d <= h
        with mp.workdps(400):
            exact = certificate_evaluator(mp.mpf(d), mp.mpf(k), consts, 1)
            assert exact(d + mp.mpf(h) * (1 + q * solver.STOP_MARGIN / 8)) >= eps

    def test_threshold_below_the_float64_range_at_working_precision(self):
        # a threshold excess far below 1e-308 is still formed and screens
        # at working precision: a deep target at p = 20 (g* near 7e-357)
        with mp.workdps(400):
            d, k, consts = _stop_case(20, 0.5, mp.mpf)
            bound = certificate_evaluator(d, k, consts, 1)
            may_fire = _screen(d, k, consts, 1e-16)
            edge = _stop_threshold(bound, d, k, consts, 1e-16)
            assert 0 < edge - d < mp.mpf(10) ** -350
            for P in [edge + j * _ulp(edge) for j in range(-8, 9)]:
                assert _decided_right(may_fire, bound, P, 1e-16)
            assert may_fire(d + (edge - d) / 4) is True
            assert may_fire(d + 4 * (edge - d)) is False

    def test_subnormal_threshold_decides_only_where_resolved(self):
        # float64, p = 20: g* near 7e-313 is subnormal but resolved to 7e-12
        # relative, far inside the margin, and still screens; g* near
        # 8e-321 is resolved only to 6e-4 and every P goes to the certificate
        d, k, consts = _stop_case(20, 0.5, float)
        bound = certificate_evaluator(d, k, consts, 1)
        P = math.nextafter(d, math.inf)
        fine = _screen(d, k, consts, 1.6e-14)
        assert fine(P) is False and bound(P) >= 1.6e-14
        coarse = _screen(d, k, consts, 6.4e-15)
        assert all(coarse(X) is True for X in (P, d + 1e-3, 3.0))

    def test_threshold_resolved_within_the_margin_but_not_its_eighth(self):
        # float64, p = 2: h near 5e-318 is subnormal and spaced by about
        # 1e-6 of itself, finer than the margin 2 STOP_MARGIN but coarser
        # than the eighth of it the screen requires, so every P, d + one
        # ulp included, goes to the certificate
        d, k, consts = _stop_case(2, 0.5, float)
        a = k ** (1 / consts.q) / (1 - k ** (2 / consts.q))
        eps = a * d * math.sqrt(5e-318 / (consts.C * d))
        h = _closed_form_excess(d, k, consts, eps)
        width = consts.q * solver.STOP_MARGIN
        assert 4e-318 < h < 6e-318
        assert h * (1 + width) > h and h * (1 + width / 8) == h
        assert stop_excess(d, k, consts, eps) is None
        may_fire = _screen(d, k, consts, eps)
        for P in (math.nextafter(d, math.inf), d + 1e-3, 3.0):
            assert may_fire(P) is True

    @pytest.mark.parametrize("num", [float, mp.mpf])
    def test_non_finite_p_goes_to_the_certificate(self, num):
        # a NaN P, d and a P below d go to the certificate; an infinite P,
        # whose certificate is inf, is screened out
        d, k, consts = _stop_case(2, 0.5, num)
        may_fire = _screen(d, k, consts, 1e-2)
        assert may_fire(d + num(1000)) is False and may_fire(d + num(1e-9)) is True
        for P in (num("nan"), d, d - num(1e-13)):
            assert may_fire(P) is True
        assert may_fire(num("inf")) is False

    @pytest.mark.parametrize("p", [2.0, 20.0, 2.5])
    def test_a_run_confirms_only_near_the_threshold(self, p):
        # integral and non-integral q alike: the certificate is evaluated
        # only at the stopping step
        with mp.workdps(80):
            spec = make_example1(Example1Params(lam=mp.mpf(0.5), p=mp.mpf(p)))
            start = (mp.mpf(1000), mp.mpf(8))
            _, stopped_at, trace = run_with_stop(
                spec, start, StopRule(StopKind.APOSTERIORI, 1e-6), store_iterates=False
            )
        assert trace.confirmations == 1 < stopped_at // 2

    @pytest.mark.parametrize("p", [2.0, 20.0, 2.5])
    @pytest.mark.parametrize("dps", [None, 80])
    def test_a_run_stops_at_a_step_just_inside_the_threshold(self, dps, p):
        # eps 1e-9 relative above the certificate at step 38, where P - d
        # is about 5e-9 d: that excess lies below h by less than the
        # screen's margin, and the run still asks the certificate there
        with mp.workdps(dps or mp.mp.dps):
            num = float if dps is None else mp.mpf
            spec = make_example1(Example1Params(lam=num(0.5), p=num(p)))
            start = (num(1000), num(8))
            P = picard_iterate(spec, start, steps=38).displacements[19]
            assert 0 < P - spec.d < 1e-8 * spec.d
            eps = float(aposteriori_bound(P, spec.d, spec.k, power_type_constants(spec.space.p)))
            eps *= 1 + 1e-9
            _, stopped_at, trace = run_with_stop(spec, start, StopRule(StopKind.APOSTERIORI, eps))
        assert (stopped_at, trace.confirmations) == (38, 1)

    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.9])
    def test_every_float64_stop_confirms_once(self, lam):
        # every certified stop fires on the certificate, evaluated once;
        # a run at its resolution floor, as 14 of the 18 at lam = 0.9 are,
        # gives up unconfirmed
        certified = 0
        for p in (1.1, 1.5, 2.0, 3.0, 5.0, 20.0):
            spec = benchmark_map(lam=lam, p=p)
            for eps in (1e-2, 1e-6, 1e-10):
                rule = StopRule(StopKind.APOSTERIORI, eps, max_steps=FLOAT64_CAP)
                try:
                    _, stopped_at, trace = run_with_stop(
                        spec, (1000.0, 8.0), rule, store_iterates=False
                    )
                except ResolutionFloorError as exc:
                    assert exc.trace.confirmations == 0
                    continue
                certified += 1
                assert trace.confirmations == 1, (p, eps, stopped_at)
        assert certified == (4 if lam == 0.9 else 18)

    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 5.0, 20.0])
    def test_every_working_precision_cell_confirms_once(self, p):
        for eps in (1e-2, 1e-6, 1e-10):
            stopped_at, trace = _working_precision_run(0.5, p, eps)
            assert trace.confirmations == 1, (eps, stopped_at)

    def test_subnormal_target_confirms_once_at_working_precision(self):
        # a subnormal eps still forms the threshold at working precision,
        # so the certificate is evaluated at the stop alone, not at each
        # of its 1,083 even steps
        assert _cell_dps(0.5, 2.0, 5e-324) == 669
        stopped_at, trace = _working_precision_run(0.5, 2.0, 5e-324)
        assert (stopped_at, trace.confirmations) == (2166, 1)


#: Stopping steps and confirmation counts of a posteriori runs from
#: (1000, 8), one run a line: at the digits the oracle sizes for a cell,
#: and in float64 at FLOAT64_CAP, where a give-up is its error class and
#: the step it raised at.
STOPS_AND_CONFIRMATIONS = Path(__file__).parent / "data" / "stops_and_confirmations.csv"


def _stop_outcome(run):
    """(outcome, step, confirmations) of a run: "stopped", or the class of
    the error it gave up with."""
    try:
        _, stopped_at, trace = run()
        return "stopped", stopped_at, trace.confirmations
    except BudgetExhaustedError as exc:
        return type(exc).__name__, exc.trace.steps, exc.trace.confirmations


def test_stops_and_confirmations_match_golden():
    rows = []
    for p in (1.1, 3.0, 20.0):
        for eps in (1e-2, 1e-6):
            outcome = _stop_outcome(lambda: (None, *_working_precision_run(0.5, p, eps)))
            rows.append(("working", 0.5, p, eps, *outcome))
    for lam in (0.3, 0.5, 0.9):
        for p in (1.1, 2.0, 20.0):
            spec = benchmark_map(lam=lam, p=p)
            for eps in (1e-2, 1e-10):
                rule = StopRule(StopKind.APOSTERIORI, eps, max_steps=FLOAT64_CAP)
                outcome = _stop_outcome(
                    lambda: run_with_stop(spec, (1000.0, 8.0), rule, store_iterates=False)
                )
                rows.append(("float64", lam, p, eps, *outcome))
    lines = [",".join(map(str, (a, f"{lam:g}", f"{p:g}", f"{eps:.0e}", *rest)))
             for a, lam, p, eps, *rest in rows]
    expected = STOPS_AND_CONFIRMATIONS.read_text(encoding="ascii").splitlines()
    assert ["arithmetic,lambda,p,eps,outcome,step,confirmations", *lines] == expected


class TestTargetCheck:
    @pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, math.nan])
    def test_every_entry_point_rejects_bad_eps_by_name(self, eps):
        with pytest.raises(InputError, match=f"eps={eps}"):
            StopRule(StopKind.APOSTERIORI, eps)
        with pytest.raises(InputError, match=f"eps={eps}"):
            apriori_steps_needed(1000.0, 2.0, 0.5, C18_Q2, eps)
        with pytest.raises(InputError, match=f"eps={eps}"):
            reproduce_table(StopKind.APRIORI, eps_list=[1e-2, eps])
        with pytest.raises(InputError, match=f"eps={eps}"):
            aposteriori_stop_working_precision(0.5, 2.0, (1000.0, 8.0), eps)


class TestErrorBudgetAt:
    def test_apex_budgets_are_zero(self):
        trace = picard_iterate(benchmark_map(), E1, steps=8)
        for n in range(1, 5):
            budget = error_budget_at(trace, n)
            assert budget.apriori == 0.0 and budget.aposteriori == 0.0

    def test_cross_read_at_n15(self):
        trace = picard_iterate(benchmark_map(), (1000.0, 8.0), steps=30)
        budget = error_budget_at(trace, 15)
        assert budget.aposteriori < 1e-2
        assert budget.apriori > 1e-2

    def test_budgets_non_increasing(self):
        trace = picard_iterate(benchmark_map(), (1000.0, 8.0), steps=60)
        budgets = [error_budget_at(trace, n) for n in range(1, 31)]
        for a, b in zip(budgets, budgets[1:]):
            assert b.apriori <= a.apriori
            assert b.aposteriori <= a.aposteriori * (1 + 1e-12)

    def test_matches_inline_budgets(self):
        trace = picard_iterate(benchmark_map(lam=0.7, p=3), (512.0, 100.0), steps=40)
        for inline in trace.budgets:
            recomputed = error_budget_at(trace, inline.step // 2)
            assert recomputed.apriori == pytest.approx(inline.apriori, rel=1e-15)
            assert recomputed.aposteriori == pytest.approx(inline.aposteriori, rel=1e-15)

    def test_short_trace_rejected(self):
        trace = picard_iterate(benchmark_map(), (1000.0, 8.0), steps=4)
        with pytest.raises(InputError):
            error_budget_at(trace, 3)
        with pytest.raises(InputError):
            error_budget_at(trace, 0)


def _same(a, b):
    """Equal, or both NaN."""
    return a == b or (a != a and b != b)


class TestBudgetsBits:
    """A trace's budgets, read in one pass or one step at a time, are the
    paper's expression: the a priori one from D with m = 2n, the a
    posteriori one from P_n with m = 1."""

    @pytest.mark.parametrize("dps", [None, 50, 300])
    @pytest.mark.parametrize("lam, p, x0, steps", [
        (0.5, 1.5, (1000.0, 8.0), 80),
        (0.9, 20.0, (3.0, -1.5), 60),
        (0.3, 3.0, (500.0, 499.0), 40),
        # D = d: every budget is 0
        (0.5, 2.0, E1, 10),
    ])
    def test_match_the_paper_expression_bit_for_bit(self, dps, lam, p, x0, steps):
        with mp.workdps(dps or mp.mp.dps):
            num = float if dps is None else mp.mpf
            spec = make_example1(Example1Params(lam=num(lam), p=num(p)))
            trace = picard_iterate(spec, tuple(num(c) for c in x0), steps)
            d, k, consts, displacements = spec.d, spec.k, trace.constants, trace.displacements
            budgets = trace.budgets
            assert [b.step for b in budgets] == list(range(2, steps + 1, 2))
            for budget in budgets:
                n = budget.step // 2
                apriori = _inline_certificate(displacements[0], d, k, consts, 2 * n)
                aposteriori = _inline_certificate(displacements[n], d, k, consts, 1)
                for read in (budget, error_budget_at(trace, n)):
                    assert type(read.apriori) is type(read.aposteriori) is type(k)
                    assert read.apriori == apriori and read.aposteriori == aposteriori
        if x0 == E1:
            assert all(b.apriori == 0 and b.aposteriori == 0 for b in budgets)

    def test_an_overflowed_d_gives_inf_then_nan_bit_for_bit(self):
        # D overflows to inf, so the a priori budget is inf until k^(2n/q)
        # underflows to 0 and inf * 0 is NaN
        spec = benchmark_map(lam=0.3, p=1.5)
        trace = picard_iterate(spec, (1.7e308, 1e308), 1300)
        d, k, consts, displacements = spec.d, spec.k, trace.constants, trace.displacements
        assert displacements[0] == math.inf
        budgets = trace.budgets
        for budget in budgets:
            n = budget.step // 2
            apriori = _inline_certificate(displacements[0], d, k, consts, 2 * n)
            aposteriori = _inline_certificate(displacements[n], d, k, consts, 1)
            for read in (budget, error_budget_at(trace, n)):
                assert _same(read.apriori, apriori) and _same(read.aposteriori, aposteriori)
        aprioris = [b.apriori for b in budgets]
        assert aprioris[0] == math.inf and math.isnan(aprioris[-1])

    @pytest.mark.parametrize("dps", [None, 50])
    def test_a_d_below_the_set_distance_is_refused_naming_d(self, dps):
        with mp.workdps(dps or mp.mp.dps):
            num = float if dps is None else mp.mpf
            spec = make_example1(Example1Params(lam=num(0.5), p=num(2)))
            trace = picard_iterate(spec, (num(1000), num(8)), 6)
            low = dataclasses.replace(trace, displacements=[num(1.5), *trace.displacements[1:]])
            pattern = f"D={num(1.5)} is below d={spec.d}"
            with pytest.raises(InputError, match=re.escape(pattern)):
                low.budgets
            with pytest.raises(InputError, match=re.escape(pattern)):
                error_budget_at(low, 1)
