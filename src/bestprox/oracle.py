"""Ground-truth references and the verification harness.

Four jobs live here:

* the reference best proximity point: the one the map declares, checked
  to realize the set distance and to be fixed by T^2
  (`reference_best_proximity`);

* auditing the solver's certificates: bound soundness against that
  reference at every even step, and the two inner inequalities of the
  convexity argument along traces;

* reproducing the benchmark iteration-count grids and diffing them
  against the published reference grids embedded under data/;

* the checked properties themselves.  Each is one function returning
  (passed, detail); the suites that `bestprox verify` prints (norms,
  cyclic, bounds, tables) and the acceptance tests both call them, so
  every property is computed in exactly one place.

Iteration-count reproduction needs care with precision.  The a
posteriori criterion reads the displacement excess P - d, which decays
like k^m; for large q the stopping step is so deep that the excess falls
far below float64 resolution (the iterate coordinates collapse onto the
limit).  Counting stops faithfully therefore runs the *same* solver code
on mpmath numbers with enough working digits, sized per cell from the
excess g* below which the stop fires: the digits of d / g* plus a
cushion of 20 (`_working_dps`).  Everyday solves stay in float64, where a
collapsed displacement legitimately reports a zero bound (the iterate is
the limit to machine precision); `stop_with_escalation` is the one place
that falls back from a floored float64 run to working precision.

Grid cells are independent pure computations; reports are assembled in a
fixed order regardless of evaluation order.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import random
from dataclasses import dataclass, field
from importlib import resources

import mpmath as mp

from .cyclic import (
    CyclicMapSpec,
    Example1Params,
    _require_boxes,
    apply_map,
    check_start,
    displacement_decay_check,
    make_example1,
    sample_points,
    verify_contraction,
    verify_cyclicity,
)
from .errors import (
    BudgetExhaustedError,
    ConfigurationError,
    DeclarationError,
    InputError,
    ResolutionFloorError,
)
from .norms import (
    LpSpace,
    Vector,
    _implicit_equation,
    check_convexity_inequality,
    check_exponent,
    dist,
    inverse_modulus_bound,
    lp_norm,
    modulus_of_convexity,
    power_type_constants,
)
from .solver import (
    StopKind,
    StopRule,
    _FLOAT_MIN,
    _run_constants,
    _threshold_log_excess,
    apriori_bound,
    apriori_steps_needed,
    check_target,
    picard_iterate,
    run_with_stop,
)

#: Default grids of the benchmark scenario (lam = 1/2, x0 = (1000, 8)).
DEFAULT_EPS_LIST = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
DEFAULT_P_LIST = (1.1, 1.5, 2.0, 3.0, 5.0, 20.0)
DEFAULT_LAMBDA = 0.5
DEFAULT_X0 = (1000.0, 8.0)

#: Float64 step cap of `stop_with_escalation`.
FLOAT64_CAP = 4000
#: Step cap of the working-precision a posteriori stop.
WORKING_PRECISION_CAP = 1_000_000
#: Fewest digits of a working-precision cell.  It lifts only shallow cells
#: (g* above about 1e-40 d), whose time does not measurably depend on the
#: digits; `perfbench/tests` checks that the p = 2 column runs at no fewer.
WORKING_DPS_FLOOR = 60


def reference_best_proximity(spec: CyclicMapSpec) -> Vector:
    """The map's declared best proximity point xi, the reference of every
    true error, after checking that ||xi - T xi|| - d and ||xi - T^2 xi||
    are both within 1e-12 of 0.

    Raises ConfigurationError when the map declares no point, and
    DeclarationError naming the point when it fails either check.
    """
    xi = spec.best_proximity
    if xi is None:
        raise ConfigurationError("the map declares no best proximity point")
    t_xi = apply_map(spec, xi)
    gap = dist(spec.space, xi, t_xi) - spec.d
    period = dist(spec.space, xi, apply_map(spec, t_xi))
    if abs(gap) > 1e-12 or period > 1e-12:
        raise DeclarationError(
            f"declared best proximity point {xi} is wrong: "
            f"||xi - T xi|| - d = {gap}, ||xi - T^2 xi|| = {period}"
        )
    return tuple(xi)


@dataclass
class SoundnessReport:
    passed: bool
    #: (step, true_error, apriori, aposteriori) for every violated step.
    failures: list = field(default_factory=list)
    #: (step, apriori/true, aposteriori/true); ratios are inf when the true
    #: error is zero.  Reported, never asserted against thresholds.
    tightness: list = field(default_factory=list)


def audit_soundness(spec: CyclicMapSpec, x0: Vector, steps: int) -> SoundnessReport:
    """Check true error <= both bounds at every even step up to `steps`.

    The true error is measured against `reference_best_proximity`, so a
    wrong declared point raises DeclarationError.  1e-9 absolute slack
    absorbs float round-off in bounds that collapse to zero once the orbit
    reaches the limit to machine precision.
    """
    if steps < 2 or steps % 2 != 0:
        raise InputError(f"steps must be an even integer >= 2, got {steps}")
    xi = reference_best_proximity(spec)
    trace = picard_iterate(spec, x0, steps)
    report = SoundnessReport(passed=True)
    for budget in trace.budgets:
        true_error = dist(spec.space, trace.iterates[budget.step], xi)
        if true_error > budget.apriori + 1e-9 or true_error > budget.aposteriori + 1e-9:
            report.passed = False
            report.failures.append(
                (budget.step, true_error, budget.apriori, budget.aposteriori)
            )
        if true_error > 0:
            report.tightness.append(
                (budget.step, budget.apriori / true_error, budget.aposteriori / true_error)
            )
        else:
            report.tightness.append((budget.step, float("inf"), float("inf")))
    return report


@dataclass
class ProofChainReport:
    passed: bool
    #: (step, l, which, lhs, rhs) for each violated inequality.
    failures: list = field(default_factory=list)
    checks: int = 0


def audit_proof_chain(spec: CyclicMapSpec, x0: Vector, steps: int) -> ProofChainReport:
    """Verify the two inner inequalities of the convexity argument.

    Along the orbit, for even 2n and lookbacks l in {1, 2, 2n}, with
    S = ||x_{2n-l} - x_{2n+1-l}|| - d:

    * modulus form:   delta_p(||x_2n - x_{2n+2}|| / (d + k^l S))
                        <= k^l S / (d + k^l S);
    * distance form:  ||x_2n - x_{2n+2}||
                        <= ||x_{2n-l} - x_{2n+1-l}|| (S/(C d))^(1/q) k^(l/q).

    Checked within 1e-9 mixed tolerance.
    """
    if steps < 4 or steps % 2 != 0:
        raise InputError(f"steps must be an even integer >= 4, got {steps}")
    trace = picard_iterate(spec, x0, steps)
    pts = trace.iterates
    space, k, d = spec.space, spec.k, spec.d
    consts = trace.constants
    report = ProofChainReport(passed=True)
    for step in range(2, steps - 1, 2):
        even_move = dist(space, pts[step], pts[step + 2])
        for lookback in {1, 2, step}:
            span = dist(space, pts[step - lookback], pts[step + 1 - lookback])
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
            lhs_mod = 0.0 if ratio == 0 else modulus_of_convexity(space.p, ratio)
            rhs_mod = scaled / radius
            report.checks += 1
            if lhs_mod > rhs_mod + 1e-9:
                report.passed = False
                report.failures.append((step, lookback, "modulus", lhs_mod, rhs_mod))
    return report


def _pattern_directions(dim: int):
    """Unit coordinate moves plus pairwise diagonals.

    Diagonals matter: on a polyhedral boundary like x = 1 + |y| the only
    improving feasible directions can be edge-parallel, where pure
    coordinate moves stall.
    """
    directions = []
    for i in range(dim):
        for sign in (1.0, -1.0):
            vec = [0.0] * dim
            vec[i] = sign
            directions.append(tuple(vec))
    for i in range(dim):
        for j in range(i + 1, dim):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    vec = [0.0] * dim
                    vec[i], vec[j] = si, sj
                    directions.append(tuple(vec))
    return directions


def rederive_distance(spec: CyclicMapSpec, sample_count: int, seed: int) -> float:
    """Numerically re-derive dist(A, B) and cross-check the declaration.

    Takes the closest pair over all sampled (u in A, v in B) combinations,
    then refines it by pattern search with a halving step, moving either
    endpoint while its membership predicate allows.  Raises
    DeclarationError when the refined estimate undercuts the declared d by
    more than 1e-6 (the declaration claims a separation the sets do not
    have).
    """
    if sample_count < 1:
        raise InputError("sample_count must be >= 1")
    _require_boxes(spec)
    rng = random.Random(seed)
    space = spec.space
    us = sample_points(rng, spec.box_a, spec.in_a, sample_count)
    vs = sample_points(rng, spec.box_b, spec.in_b, sample_count)
    best_u = min(us, key=lambda u: dist(space, u, vs[0]))
    best_v = min(vs, key=lambda v: dist(space, best_u, v))
    best_u = min(us, key=lambda u: dist(space, u, best_v))
    best = dist(space, best_u, best_v)

    directions = _pattern_directions(space.dim)
    step = max(1.0, best / 4)
    while step > 1e-10:
        improved = False
        for direction in directions:
            cu = tuple([c + step * dc for c, dc in zip(best_u, direction)])
            if spec.in_a(cu):
                trial = dist(space, cu, best_v)
                if trial < best:
                    best_u, best, improved = cu, trial, True
            cv = tuple([c + step * dc for c, dc in zip(best_v, direction)])
            if spec.in_b(cv):
                trial = dist(space, best_u, cv)
                if trial < best:
                    best_v, best, improved = cv, trial, True
        if not improved:
            step /= 2

    if best < spec.d - 1e-6:
        raise DeclarationError(
            f"declared d={spec.d} is too large: refined separation is {best}"
        )
    return best


# ---------------------------------------------------------------------------
# Iteration-count grids
# ---------------------------------------------------------------------------


@dataclass
class TableResult:
    kind: StopKind
    lam: float
    x0: Vector
    eps_list: tuple
    p_list: tuple
    #: counts[i][j] is the even stopping step for (eps_list[i], p_list[j]).
    counts: list
    #: Published reference grid for the benchmark scenario, when applicable.
    reference_counts: list | None = None
    #: counts - reference_counts, cell by cell.
    deltas: list | None = None


def load_reference_counts(kind: StopKind) -> tuple[tuple, tuple, list]:
    """Load an embedded reference grid; returns (eps_list, p_list, counts)."""
    name = {
        StopKind.APOSTERIORI: "table_aposteriori_reference.csv",
        StopKind.APRIORI: "table_apriori_reference.csv",
    }[kind]
    text = resources.files("bestprox.data").joinpath(name).read_text(encoding="ascii")
    rows = list(csv.reader(text.strip().splitlines()))
    p_list = tuple(float(cell) for cell in rows[0][1:])
    eps_list = tuple(float(row[0]) for row in rows[1:])
    counts = [[int(cell) for cell in row[1:]] for row in rows[1:]]
    return eps_list, p_list, counts


def _working_dps(d, k, p, eps) -> int:
    """Decimal digits of a working-precision a posteriori stop at eps: those
    of d / g*, where g* is the threshold excess at which the bound equals
    eps (`solver._threshold_log_excess`, solved in float64), plus a cushion
    of 20, and at least WORKING_DPS_FLOOR.  The stop fires once P - d falls
    below about g*, so these digits resolve the excesses it reads to about
    20 digits.

    InputError naming p when C d is below the float64 normal range: the
    stop then forms no threshold and would evaluate the certificate at
    every even step, at thousands of digits.
    """
    consts = power_type_constants(p)
    denom, Cd, tail = _run_constants(d, k, consts, 1)
    if not _FLOAT_MIN < Cd:
        raise InputError(
            f"the a posteriori stop forms no threshold at p={p}: "
            f"C*d = {Cd:.3g} is below the float64 normal range"
        )
    q = consts.q
    # log(C (eps / (a d))^q), a sum of logs: eps / (a d) may underflow
    L = math.log(Cd / d) + q * (math.log(eps) - math.log(tail / denom) - math.log(d))
    t = _threshold_log_excess(L, q)
    if t is None:  # g* beyond the float64 range, far above d
        return WORKING_DPS_FLOOR
    return max(WORKING_DPS_FLOOR, math.ceil(-t / math.log(10)) + 20)


def aposteriori_stop_working_precision(lam: float, p: float, x0: Vector, eps: float):
    """Run the a posteriori stop rule for the built-in map at working precision.

    Displacement excesses decay like k^m, so certifying small eps at large q
    requires resolving excesses far below float64; this sizes the working
    digits from the threshold excess the stop compares them with
    (`_working_dps`) and runs the ordinary solver on mpmath numbers,
    capped at WORKING_PRECISION_CAP steps.  Returns (stopped_at,
    true_error) with the true error measured against the map's exact best
    proximity point (as a float).
    """
    check_target(eps)
    spec = make_example1(Example1Params(lam, p))
    check_start(spec, x0)
    dps = _working_dps(spec.d, lam, p, eps)
    with mp.workdps(dps):
        # lam, p and the start must all be working-precision numbers;
        # a float64 exponent alone floors displacement excesses near 1e-17.
        spec = make_example1(Example1Params(lam=mp.mpf(lam), p=mp.mpf(p)))
        start = tuple(mp.mpf(c) for c in x0)
        rule = StopRule(
            kind=StopKind.APOSTERIORI, epsilon=eps, max_steps=WORKING_PRECISION_CAP
        )
        approx, stopped_at, _ = run_with_stop(spec, start, rule, store_iterates=False)
        err = dist(spec.space, approx, spec.best_proximity)
    return stopped_at, float(err)


def reproduce_table(
    kind: StopKind,
    lam: float = DEFAULT_LAMBDA,
    x0: Vector = DEFAULT_X0,
    eps_list=None,
    p_list=None,
) -> TableResult:
    """Fill the (eps, p) grid of even stopping steps for the two-cone map.

    APOSTERIORI cells run the live stopping rule (at working precision
    sized per cell); APRIORI cells evaluate the closed-form step
    predictor from D = ||x0 - Tx0||_p.  When the scenario matches the
    embedded benchmark grids, the published counts and cell deltas are
    attached; deltas are reported as computed, never reconciled.
    """
    if kind not in (StopKind.APRIORI, StopKind.APOSTERIORI):
        raise InputError(f"table kind must be APRIORI or APOSTERIORI, got {kind}")
    if not (0 < lam < 1):
        raise InputError(f"lam must lie in (0, 1), got {lam}")
    eps_list = tuple(eps_list) if eps_list is not None else DEFAULT_EPS_LIST
    p_list = tuple(p_list) if p_list is not None else DEFAULT_P_LIST
    for eps in eps_list:
        check_target(eps)
    for p in p_list:
        check_exponent(p)

    counts = [[0] * len(p_list) for _ in eps_list]
    for j, p in enumerate(p_list):
        if kind is StopKind.APRIORI:
            spec = make_example1(Example1Params(lam, p))
            check_start(spec, x0)
            D = dist(spec.space, x0, apply_map(spec, x0))
            consts = power_type_constants(p)
            for i, eps in enumerate(eps_list):
                counts[i][j] = apriori_steps_needed(D, spec.d, spec.k, consts, eps)
        else:
            for i, eps in enumerate(eps_list):
                counts[i][j], _ = aposteriori_stop_working_precision(lam, p, x0, eps)

    result = TableResult(
        kind=kind, lam=lam, x0=tuple(x0), eps_list=eps_list, p_list=p_list, counts=counts
    )
    ref_eps, ref_p, ref_counts = load_reference_counts(kind)
    if (
        lam == DEFAULT_LAMBDA
        and tuple(x0) == DEFAULT_X0
        and eps_list == ref_eps
        and p_list == ref_p
    ):
        result.reference_counts = ref_counts
        result.deltas = [
            [c - r for c, r in zip(crow, rrow)]
            for crow, rrow in zip(counts, ref_counts)
        ]
    return result


# ---------------------------------------------------------------------------
# Checked properties and the verify suites
# ---------------------------------------------------------------------------

#: Scenario matrix of the cyclic and bounds suites.
SUITE_LAMBDAS = (0.3, 0.5, 0.9)
SUITE_PS = (1.1, 1.5, 2.0, 3.0, 5.0, 20.0)
#: eps grid on (0, 2] for the modulus properties.
MODULUS_GRID = tuple(2.0 * (i + 1) / 1000 for i in range(1000))


def suite_map(lam: float, p: float, k_override: float | None = None) -> CyclicMapSpec:
    """The built-in map, with its declared k replaced when k_override is given."""
    spec = make_example1(Example1Params(lam=lam, p=p))
    if k_override is not None:
        spec = dataclasses.replace(spec, k=k_override)
    return spec


def stop_with_escalation(lam, p, x0: Vector, eps: float, k_override: float | None = None):
    """Stop the built-in map by the a posteriori rule at eps; returns
    (stopped_at, true_error, escalated).

    Float64 runs up to FLOAT64_CAP steps.  A run that raises
    ResolutionFloorError has stalled at the float64 resolution floor and is
    re-run at working precision, unless k_override fault-injects k: that
    re-run would use the true k, so the ResolutionFloorError is raised
    instead.  A run that hits the cap raises its BudgetExhaustedError.
    Either error carries the float64 trace.
    """
    spec = suite_map(lam, p, k_override)
    rule = StopRule(kind=StopKind.APOSTERIORI, epsilon=eps, max_steps=FLOAT64_CAP)
    try:
        approx, stopped_at, _ = run_with_stop(spec, x0, rule, store_iterates=False)
    except ResolutionFloorError:
        if k_override is not None:
            raise
        return (*aposteriori_stop_working_precision(lam, p, x0, eps), True)
    return stopped_at, dist(spec.space, approx, spec.best_proximity), False


def modulus_on_grid(p: float) -> list:
    return [modulus_of_convexity(p, eps) for eps in MODULUS_GRID]


def modulus_increasing(values):
    """delta_p, given on MODULUS_GRID, is strictly increasing."""
    return all(a < b for a, b in zip(values, values[1:])), ""


def power_type_dominated(p: float, values):
    """delta_p >= C eps^q on MODULUS_GRID, up to an absolute 1e-12
    (the power bound is asymptotically tight as eps -> 0)."""
    consts = power_type_constants(p)
    return all(
        v >= consts.C * eps ** consts.q - 1e-12 for v, eps in zip(values, MODULUS_GRID)
    ), ""


def inverse_bound_inverts(p: float):
    """inverse_modulus_bound undoes C eps^q on every tenth grid point."""
    consts = power_type_constants(p)
    return all(
        abs(inverse_modulus_bound(consts.C * eps ** consts.q, consts) - eps) <= 1e-12
        for eps in MODULUS_GRID[::10]
    ), ""


def implicit_residual_small(p: float, values):
    """For 1 < p < 2, delta_p solves its defining equation to 1e-10."""
    return not any(
        abs(_implicit_equation(delta, p, eps)[0]) > 1e-10
        for eps, delta in zip(MODULUS_GRID, values)
    ), ""


def midpoint_inequality_holds(p: float, rng: random.Random):
    """The midpoint convexity inequality on 1e4 random admissible triples."""
    # Keep the draws as they are: criterion 5 and the verify fingerprint pin their order.
    space = LpSpace(dim=2, p=p)
    for _ in range(10_000):
        z = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        R = rng.uniform(0.1, 3.0)
        pts = []
        for _i in range(2):
            raw = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            nrm = lp_norm(space, raw)
            scale = rng.random() / nrm if nrm > 0 else 0.0
            pts.append((z[0] + R * scale * raw[0], z[1] + R * scale * raw[1]))
        x, y = pts
        # ||x - y|| <= 2R exactly; round-off may overshoot it by an ulp.
        r = min(dist(space, x, y), 2 * R)
        if not check_convexity_inequality(space, x, y, z, R, r):
            return False, f"violated at x={x}, y={y}, z={z}, R={R}, r={r}"
    return True, ""


def cyclicity_holds(spec: CyclicMapSpec, seed: int):
    report = verify_cyclicity(spec, sample_count=1000, seed=seed)
    return report.passed, (f"{len(report.violations)} violations" if report.violations else "")


def contraction_holds(spec: CyclicMapSpec, seed: int):
    report = verify_contraction(spec, sample_count=1000, seed=seed)
    return report.passed, f"max violation {report.max_violation:.3g}"


def displacement_decays(spec: CyclicMapSpec):
    report = displacement_decay_check(spec, DEFAULT_X0, n_max=60)
    return report.passed, f"max envelope excess {report.max_envelope_excess:.3g}"


def apex_fixed_by_t2(spec: CyclicMapSpec):
    """T^2 fixes the declared best proximity point to 1e-15."""
    xi = spec.best_proximity
    twice = apply_map(spec, apply_map(spec, xi))
    return max(abs(a - b) for a, b in zip(twice, xi)) <= 1e-15, f"T^2 e1 = {twice}"


def bounds_sound(spec: CyclicMapSpec, starts, steps: int):
    """True error within both certificates at every even step, from each start."""
    for x0 in starts:
        report = audit_soundness(spec, x0, steps)
        if not report.passed:
            return False, f"first failure {report.failures[0]}"
    return True, ""


def proof_chain_holds(spec: CyclicMapSpec):
    report = audit_proof_chain(spec, DEFAULT_X0, steps=60)
    return report.passed, (
        f"{len(report.failures)} failures of {report.checks}" if report.failures else ""
    )


def grid_within(result: TableResult, tolerance: int):
    """Every cell of a reproduced grid within +-tolerance of the reference."""
    worst = max(abs(d) for row in result.deltas for d in row)
    return worst <= tolerance, f"worst |delta| = {worst}"


def columns_match_reference(result: TableResult, columns):
    """The given columns of a reproduced grid equal the reference exactly."""
    return all(
        row[j] == ref[j]
        for row, ref in zip(result.counts, result.reference_counts)
        for j in columns
    ), ""


def columns_monotone(result: TableResult):
    """Every column of a reproduced grid is non-decreasing as eps shrinks."""
    return all(
        a <= b for row, below in zip(result.counts, result.counts[1:]) for a, b in zip(row, below)
    ), ""


def apriori_dominates(pri: TableResult, post: TableResult):
    """Each a priori count is at least the a posteriori count of its cell."""
    return all(
        a >= b for prow, qrow in zip(pri.counts, post.counts) for a, b in zip(prow, qrow)
    ), ""


def norms_suite(seed: int):
    checks = []
    for p in SUITE_PS:
        values = modulus_on_grid(p)
        checks += [
            (f"delta_p strictly increasing on (0,2] grid (p={p})", *modulus_increasing(values)),
            (f"delta_p >= C*eps^q on grid (p={p})", *power_type_dominated(p, values)),
            (f"inverse bound inverts C*eps^q (p={p})", *inverse_bound_inverts(p)),
        ]
        if p < 2:
            checks.append((f"implicit-equation residual <= 1e-10 (p={p})",
                           *implicit_residual_small(p, values)))
        checks.append((f"midpoint convexity inequality, 1e4 random triples (p={p})",
                       *midpoint_inequality_holds(p, random.Random(seed + int(p * 100)))))
    return checks


def cyclic_suite(seed: int, k_override: float | None):
    checks = []
    for lam in SUITE_LAMBDAS:
        for p in SUITE_PS:
            tag = f"(lambda={lam}, p={p})"
            spec = suite_map(lam, p, k_override)
            checks += [
                (f"T(A) in B and T(B) in A, 1000 samples {tag}", *cyclicity_holds(spec, seed)),
                (f"contraction inequality, 1000 pairs {tag}", *contraction_holds(spec, seed + 1)),
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


def _stop_rule_delivers(lam: float, p: float, k_override: float | None):
    for eps in (1e-2, 1e-6, 1e-10):
        try:
            stopped_at, err, _ = stop_with_escalation(lam, p, DEFAULT_X0, eps, k_override)
        except BudgetExhaustedError as exc:
            return False, f"eps={eps}: {exc}"
        if not err < eps:
            return False, f"eps={eps}: stopped {stopped_at}, true error {err:.3g}"
    return True, ""


def bounds_suite(seed: int, k_override: float | None):
    checks = []
    rng = random.Random(seed)
    for lam in SUITE_LAMBDAS:
        for p in SUITE_PS:
            tag = f"(lambda={lam}, p={p})"
            spec = suite_map(lam, p, k_override)
            starts = sample_points(rng, spec.box_a, spec.in_a, 5)
            checks += [
                (f"true error within both budgets, 5 starts x 100 steps {tag}",
                 *bounds_sound(spec, starts, 100)),
                (f"inner chain inequalities along the trace {tag}", *proof_chain_holds(spec)),
                (f"stop rule delivers true error < eps {tag}",
                 *_stop_rule_delivers(lam, p, k_override)),
            ]

    consts = power_type_constants(3.0)
    bounds = [apriori_bound(7.0, 2.0, 0.4, consts, n) for n in range(1, 41)]
    decay_ok = all(abs(b / a - 0.4 ** (2.0 / 3.0)) <= 1e-12 for a, b in zip(bounds, bounds[1:]))
    checks.append(("a priori budget decays by exactly k^(2/q) per even step", decay_ok, ""))
    return checks


def tables_suite():
    post = reproduce_table(StopKind.APOSTERIORI)
    pri = reproduce_table(StopKind.APRIORI)
    checks = [
        ("a posteriori grid matches reference within +-2", *grid_within(post, 2)),
        ("a posteriori p=2 column matches reference exactly",
         *columns_match_reference(post, [post.p_list.index(2.0)])),
        ("a priori p<2 columns match reference exactly",
         *columns_match_reference(pri, [j for j, p in enumerate(pri.p_list) if p < 2])),
        ("a priori deltas are a nonnegative systematic offset (documented, not tuned)",
         all(d >= 0 for row in pri.deltas for d in row), f"deltas={pri.deltas}"),
    ]
    for result, label in ((post, "a posteriori"), (pri, "a priori")):
        checks.append((f"{label} columns non-decreasing as eps shrinks", *columns_monotone(result)))
    checks.append(("a priori count >= a posteriori count per cell", *apriori_dominates(pri, post)))
    return checks
