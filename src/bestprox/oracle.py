"""Ground-truth references and the verification harness.

Four jobs live here:

* the reference best proximity point: the one the map declares, checked
  to realize the set distance and to be fixed by T^2
  (`reference_best_proximity`, whose period check is the cyclic suite's,
  `cyclic.verify_period`);

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
excess h below which the stop can fire: the digits of d / h plus a
cushion of 20 (`_working_dps`).  Everyday solves stay in float64, where a
displacement that collapses onto d reports a bound of exactly 0 and the
stop fires on it.  That is a known defect, not a certificate: the zero
bounds no error of the point returned (`solve --lambda 0.5 --p 2
--eps 1e-300` stops at step 64 with a true error of 4.3e-19).
`stop_with_escalation` is the one place that falls back from a floored
float64 run to working precision.

Grid cells are independent pure computations; reports are assembled in a
fixed order regardless of evaluation order.  That holds for float64 cells
only: mpmath's working precision is process-global, so working-precision
cells must not run in threads of one process.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import random
from dataclasses import dataclass, field
from importlib import resources

import mpmath as mp

from .cyclic import (
    D_SLACK,
    XI_PERIOD_SLACK,
    CyclicMapSpec,
    Example1Params,
    apply_map,
    check_start,
    displacement_decay_check,
    make_example1,
    sample_points,
    sample_sets,
    verify_contraction,
    verify_cyclicity,
    verify_period,
)
from .errors import (
    BudgetExhaustedError,
    DeclarationError,
    InputError,
    ResolutionFloorError,
)
from .norms import (
    LpSpace,
    Vector,
    _implicit_equation,
    _modulus,
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
    apriori_bound,
    apriori_steps_needed,
    check_target,
    picard_iterate,
    run_with_stop,
    stop_excess,
)

#: The published scenario of both reference grids, whose headers are these
#: eps and p lists.
DEFAULT_EPS_LIST = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
DEFAULT_P_LIST = (1.1, 1.5, 2.0, 3.0, 5.0, 20.0)
DEFAULT_LAMBDA = 0.5
DEFAULT_X0 = (1000.0, 8.0)
#: Largest |computed - published| count a reproduced grid may show, per kind.
PUBLISHED_TOLERANCE = {StopKind.APOSTERIORI: 2, StopKind.APRIORI: 4}

#: Float64 step cap of `stop_with_escalation`.
FLOAT64_CAP = 4000
#: Step cap of the working-precision a posteriori stop.
WORKING_PRECISION_CAP = 1_000_000
#: Fewest digits of a working-precision cell.  It lifts only shallow cells
#: (h above about 1e-40 d), whose time does not measurably depend on the
#: digits; `perfbench/tests` checks that the p = 2 column runs at no fewer.
WORKING_DPS_FLOOR = 60


def reference_best_proximity(spec: CyclicMapSpec) -> Vector:
    """The map's declared best proximity point xi, the reference of every
    true error, after checking that ||xi - T xi|| is within 1e-12 of d,
    that T^2 fixes xi (`cyclic.verify_period`) and that xi lies in A.

    Raises ConfigurationError when the map declares no point, and
    DeclarationError naming the point when it fails any check.
    """
    periodic, period = verify_period(spec)
    xi = spec.best_proximity
    gap = dist(spec.space, xi, apply_map(spec, xi)) - spec.d
    if abs(gap) > 1e-12 or not periodic:
        raise DeclarationError(
            f"declared best proximity point {xi} is wrong: "
            f"||xi - T xi|| - d = {gap}, {period}"
        )
    if not spec.in_a(xi):
        raise DeclarationError(f"declared best proximity point {xi} is not in A")
    return tuple(xi)


@dataclass
class SoundnessReport:
    passed: bool
    #: (step, true_error, apriori, aposteriori) for every violated step.
    failures: list = field(default_factory=list)


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

    Checked within 1e-9 mixed tolerance.  The spans of lookbacks 1 and 2n,
    P_n and D, are the trace's own displacements: the run took them with
    the same `dist(x_i, x_{i+1})`.  What does not change along the orbit,
    C d, 1/q and the pairs (k^l, k^(l/q)) of lookbacks 1 and 2, is formed
    once per audit; lookback 2n forms its own.  The modulus is read through
    `norms._modulus`: p is the validated space's, and the ratio is clamped
    into [0, 2], with 0 taken as delta = 0.  A ratio that is not a number
    (0 * inf, where D overflows and k^(2n) underflows) goes to
    `modulus_of_convexity`, which refuses it naming eps.  The report equals
    that of the same checks, each formed in full at its step, to the bit.
    """
    if steps < 4 or steps % 2 != 0:
        raise InputError(f"steps must be an even integer >= 4, got {steps}")
    trace = picard_iterate(spec, x0, steps)
    pts, displacements = trace.iterates, trace.displacements
    space, k, d = spec.space, spec.k, spec.d
    p, q = space.p, trace.constants.q
    c_d, root = trace.constants.C * d, 1.0 / q
    near = k, k ** root
    second = k ** 2, k ** (2 / q)
    failures, checks = [], 0
    for step in range(2, steps - 1, 2):
        even_move = dist(space, pts[step], pts[step + 2])
        for lookback in {1, 2, step}:
            if lookback == 1:
                span, (k_l, k_lq) = displacements[step // 2], near
            elif lookback == step:
                span, k_l, k_lq = displacements[0], k ** step, k ** (step / q)
            else:
                span, (k_l, k_lq) = dist(space, pts[step - 2], pts[step - 1]), second
            excess = max(span - d, 0.0)
            scaled = k_l * excess

            rhs_dist = span * (excess / c_d) ** root * k_lq
            if even_move > rhs_dist + 1e-9 * (1 + rhs_dist):
                failures.append((step, lookback, "distance", even_move, rhs_dist))

            radius = d + scaled
            ratio = min(max(even_move / radius, 0.0), 2.0)
            if ratio > 0:
                lhs_mod = _modulus(p, ratio)
            elif ratio == 0:
                lhs_mod = 0.0
            else:  # NaN, from 0 * inf: the public function refuses it, naming eps
                lhs_mod = modulus_of_convexity(p, ratio)
            rhs_mod = scaled / radius
            if lhs_mod > rhs_mod + 1e-9:
                failures.append((step, lookback, "modulus", lhs_mod, rhs_mod))
            checks += 2
    return ProofChainReport(passed=not failures, failures=failures, checks=checks)


#: Pattern-search moves of the plane: unit coordinate moves, then the four
#: diagonals.  Diagonals matter: on a polyhedral boundary like x = 1 + |y|
#: the only improving feasible directions can be edge-parallel, where pure
#: coordinate moves stall.
PATTERN_DIRECTIONS = (
    (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
    (1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0),
)


def _nearest(space: LpSpace, points: list[Vector], target: Vector):
    """The first of points nearest to target, and its distance.

    A point replaces the nearest so far only when strictly nearer, as with
    `min(points, key=...)` over `dist`.  `lp_norm` is never below the larger
    coordinate gap, so a point with a gap not below the best distance so far
    cannot be nearer, and its norm is not taken.
    """
    t0, t1 = target
    nearest = points[0]
    best = lp_norm(space, (nearest[0] - t0, nearest[1] - t1))
    for point in points[1:]:
        a, b = point[0] - t0, point[1] - t1
        if abs(a) < best and abs(b) < best:
            trial = lp_norm(space, (a, b))
            if trial < best:
                nearest, best = point, trial
    return nearest, best


def rederive_distance(spec: CyclicMapSpec, sample_count: int, seed: int) -> float:
    """Numerically re-derive dist(A, B) and cross-check the declaration.

    Draws sample_count points of A and of B, then three alternating
    argmins: the u closest to the first v drawn, the v closest to that u,
    and the u closest to that v.  Refines that pair by pattern search with
    a halving step, moving either endpoint while its membership predicate
    allows.  A trial whose larger coordinate gap is not below the best
    distance so far cannot improve it (`lp_norm` is never below that gap),
    so neither its predicate nor its norm is evaluated; the estimate is the
    one every trial's norm would give, to the bit.  Raises DeclarationError
    when the refined estimate undercuts the declared d by more than
    `cyclic.D_SLACK` (the declaration claims a separation the sets do not
    have).
    """
    space = spec.space
    us, vs = sample_sets(spec, sample_count, seed)
    best_u, _ = _nearest(space, us, vs[0])
    best_v, _ = _nearest(space, vs, best_u)
    best_u, best = _nearest(space, us, best_v)

    step = max(1.0, best / 4)
    (ux, uy), (vx, vy) = best_u, best_v
    while step > 1e-10:
        moves = [(step * dx, step * dy) for dx, dy in PATTERN_DIRECTIONS]
        improved = True
        while improved:
            improved = False
            for mx, my in moves:
                cx, cy = ux + mx, uy + my
                a, b = cx - vx, cy - vy
                if abs(a) < best and abs(b) < best and spec.in_a((cx, cy)):
                    trial = lp_norm(space, (a, b))
                    if trial < best:
                        ux, uy, best, improved = cx, cy, trial, True
                cx, cy = vx + mx, vy + my
                a, b = ux - cx, uy - cy
                if abs(a) < best and abs(b) < best and spec.in_b((cx, cy)):
                    trial = lp_norm(space, (a, b))
                    if trial < best:
                        vx, vy, best, improved = cx, cy, trial, True
        step /= 2

    if best < spec.d - D_SLACK:
        raise DeclarationError(
            f"declared d={spec.d} is too large: refined separation is {best}"
        )
    return best


# ---------------------------------------------------------------------------
# Iteration-count grids
# ---------------------------------------------------------------------------


@dataclass
class TableResult:
    eps_list: tuple
    p_list: tuple
    #: counts[i][j] is the even stopping step for (eps_list[i], p_list[j]).
    counts: list
    #: Published reference grid for the benchmark scenario, when applicable.
    reference_counts: list | None = None

    @property
    def deltas(self) -> list | None:
        """counts - reference_counts, cell by cell; None without a reference."""
        if self.reference_counts is not None:
            pairs = zip(self.counts, self.reference_counts)
            return [[c - r for c, r in zip(crow, rrow)] for crow, rrow in pairs]


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


def benchmark_scenario(kind: StopKind, lam, x0: Vector, eps_list, p_list) -> bool:
    """Whether a grid is the published scenario: DEFAULT_LAMBDA and
    DEFAULT_X0 over DEFAULT_EPS_LIST and DEFAULT_P_LIST.  First raises
    InputError naming a bad kind, lam, eps or p, so that a caller can ask
    before any cell runs."""
    if kind not in (StopKind.APRIORI, StopKind.APOSTERIORI):
        raise InputError(f"table kind must be APRIORI or APOSTERIORI, got {kind}")
    if not (0 < lam < 1):
        raise InputError(f"lam must lie in (0, 1), got {lam}")
    for eps in eps_list:
        check_target(eps)
    for p in p_list:
        check_exponent(p)
    return (lam, tuple(x0), tuple(eps_list), tuple(p_list)) == (
        DEFAULT_LAMBDA, DEFAULT_X0, DEFAULT_EPS_LIST, DEFAULT_P_LIST
    )


def _working_dps(d, h) -> int:
    """Decimal digits of a working-precision a posteriori stop that can fire
    only below the excess h (`solver.stop_excess`): those of d / h plus a
    cushion of 20, at least WORKING_DPS_FLOOR, so that the excesses it
    reads, which fall to about h, resolve to about 20 digits."""
    return max(WORKING_DPS_FLOOR, int(mp.ceil(mp.log10(d / h))) + 20)


def _plan_cell(lam: float, p: float, x0: Vector, eps: float):
    """Everything a working-precision a posteriori cell decides before it
    runs, with every refusal it raises: returns (rule, xi, dps).

    The rule holds eps, checked first, and the cap WORKING_PRECISION_CAP;
    xi is `reference_best_proximity`, checked after the start.  The digits
    are sized from the excess h the stop compares P - d with
    (`_working_dps`), formed at 53 bits at least.  On mpf numbers, which
    neither overflow nor underflow, h is formed unless C d is below the
    float64 normal range, where the stop would evaluate the certificate at
    every even step, at thousands of digits: InputError naming p.  On this
    map |x_n| - 1 = lam^n (x0 - 1), so the even-step excess P - d is at
    least lam^(m-1) (1 + lam) (x0 - 1) at step m.  The bound is below eps
    only where that excess g has g (1 + g/d)^q < h, so the stop needs g
    below min(h, (h d^q)^(1/(q+1))), also formed at 53 bits; the second
    term is the smaller where h exceeds d.  A cell whose fewest such step
    lies beyond the cap raises BudgetExhaustedError.  A start with zero
    spread, the apex (1, 0), plans WORKING_DPS_FLOOR digits whatever h is:
    its every iterate is exactly (+-1, +-0) at 54 bits or more, so P = d
    and the stop fires at step 2 at any digits.
    """
    rule = StopRule(StopKind.APOSTERIORI, eps, WORKING_PRECISION_CAP)
    spec = make_example1(Example1Params(lam, p))
    check_start(spec, x0)
    xi = reference_best_proximity(spec)
    consts = power_type_constants(p)
    with mp.workprec(max(mp.mp.prec, 53)):  # resolved at any ambient precision
        d, q = mp.mpf(spec.d), consts.q
        h = stop_excess(d, lam, consts, mp.mpf(eps))
        if h is None:
            raise InputError(
                f"the a posteriori stop forms no threshold at p={p}: "
                f"C*d = {consts.C * spec.d:.3g} is below the float64 normal range"
            )
        excess = min(h, (h * d ** q) ** (1 / (q + 1)))
    spread = (1 + mp.mpf(lam)) * (mp.mpf(x0[0]) - 1)
    if not spread:  # the apex start, whose every iterate is (+-1, +-0)
        return rule, xi, WORKING_DPS_FLOOR
    fewest = 2 * int(mp.floor((1 + mp.log(excess / spread) / mp.log(lam)) / 2))
    if fewest > WORKING_PRECISION_CAP:
        raise BudgetExhaustedError(
            f"a posteriori criterion needs at least {fewest} steps, "
            f"cap is {WORKING_PRECISION_CAP}"
        )
    return rule, xi, _working_dps(spec.d, h)


def aposteriori_stop_working_precision(lam: float, p: float, x0: Vector, eps: float):
    """Run the a posteriori stop rule for the built-in map at working precision.

    Displacement excesses decay like k^m, so certifying small eps at large q
    requires resolving excesses far below float64; the cell is planned
    first (`_plan_cell`, which raises every refusal), then the ordinary
    solver runs on mpmath numbers at the planned digits, capped at
    WORKING_PRECISION_CAP steps.  Returns (stopped_at, true_error) with
    the true error measured against `reference_best_proximity` (as a float).
    """
    rule, xi, dps = _plan_cell(lam, p, x0, eps)
    with mp.workdps(dps):
        # lam, p and the start must all be working-precision numbers;
        # a float64 exponent alone floors displacement excesses near 1e-17.
        spec = make_example1(Example1Params(lam=mp.mpf(lam), p=mp.mpf(p)))
        start = tuple(mp.mpf(c) for c in x0)
        approx, stopped_at, _ = run_with_stop(spec, start, rule, store_iterates=False)
        err = dist(spec.space, approx, xi)
    return stopped_at, float(err)


def reproduce_table(
    kind: StopKind,
    lam: float = DEFAULT_LAMBDA,
    x0: Vector = DEFAULT_X0,
    eps_list=DEFAULT_EPS_LIST,
    p_list=DEFAULT_P_LIST,
) -> TableResult:
    """Fill the (eps, p) grid of even stopping steps for the two-cone map.

    APOSTERIORI cells run the live stopping rule (at working precision
    sized per cell), and every cell is planned (`_plan_cell`) before the
    first one runs, so that a refusal of any cell comes before any step;
    the first cell plans itself as it runs, so a one-cell table is planned
    once.  APRIORI cells run the a priori step search
    (`apriori_steps_needed`) from D = ||x0 - Tx0||_p.  When the scenario
    matches the embedded benchmark grids (`benchmark_scenario`), the
    published counts are attached, and the result's deltas are reported as
    computed, never reconciled.
    """
    eps_list, p_list = tuple(eps_list), tuple(p_list)
    on_benchmark = benchmark_scenario(kind, lam, x0, eps_list, p_list)
    if kind is StopKind.APOSTERIORI:
        # every refusal before the first cell runs; the first plans itself
        for p, eps in itertools.islice(itertools.product(p_list, eps_list), 1, None):
            _plan_cell(lam, p, x0, eps)
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

    reference = load_reference_counts(kind)[2] if on_benchmark else None
    return TableResult(eps_list, p_list, counts, reference)


# ---------------------------------------------------------------------------
# Checked properties and the verify suites
# ---------------------------------------------------------------------------

#: Scenario matrix of the cyclic and bounds suites.
SUITE_LAMBDAS = (0.3, 0.5, 0.9)
SUITE_PS = DEFAULT_P_LIST
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
    (stopped_at, true_error, escalated), the true error measured against
    `reference_best_proximity`.

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
    return stopped_at, dist(spec.space, approx, reference_best_proximity(spec)), False


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
    # Keep the draws as they are: criterion 5 and the verify fingerprint pin
    # their order and bits.  Each uniform draw on [lo, hi] is written as
    # lo + (hi - lo) * rng.random(), the expression random.uniform evaluates.
    space = LpSpace(p)
    draw = rng.random

    def point(z0, z1, R):
        a0, a1 = -1 + 2 * draw(), -1 + 2 * draw()
        nrm = lp_norm(space, (a0, a1))
        s = R * (draw() / nrm) if nrm > 0 else 0.0
        return (z0 + s * a0, z1 + s * a1)

    for _ in range(10_000):
        z0, z1 = -5 + 10 * draw(), -5 + 10 * draw()
        R = 0.1 + (3.0 - 0.1) * draw()
        x = point(z0, z1, R)
        y = point(z0, z1, R)
        z = (z0, z1)
        # ||x - y|| <= 2R exactly; round-off may overshoot it by an ulp.
        r = min(dist(space, x, y), 2 * R)
        if not check_convexity_inequality(space, x, y, z, R, r):
            return False, f"violated at x={x}, y={y}, z={z}, R={R}, r={r}"
    return True, ""


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


def _published_counts(result: TableResult) -> list:
    """The published counts of a reproduced grid; InputError when the grid
    is not the published scenario, which has none."""
    if result.reference_counts is None:
        raise InputError("the grid is not the published scenario, so it has no published counts")
    return result.reference_counts


def grid_within(result: TableResult, tolerance: int):
    """Every cell of a reproduced grid within +-tolerance of the reference."""
    _published_counts(result)
    worst = max(abs(d) for row in result.deltas for d in row)
    return worst <= tolerance, f"worst |delta| = {worst}"


def columns_match_reference(result: TableResult, columns):
    """The given columns of a reproduced grid equal the reference exactly."""
    return all(
        row[j] == ref[j]
        for row, ref in zip(result.counts, _published_counts(result))
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


def norms_checks(p: float, rng: random.Random):
    """The geometry checks of one p, as (label, passed, detail) triples; the
    midpoint inequality draws its triples from rng."""
    values = [modulus_of_convexity(p, eps) for eps in MODULUS_GRID]
    checks = [
        (f"delta_p strictly increasing on (0,2] grid (p={p})", *modulus_increasing(values)),
        (f"delta_p >= C*eps^q on grid (p={p})", *power_type_dominated(p, values)),
        (f"inverse bound inverts C*eps^q (p={p})", *inverse_bound_inverts(p)),
    ]
    if p < 2:
        checks.append((f"implicit-equation residual <= 1e-10 (p={p})",
                       *implicit_residual_small(p, values)))
    checks.append((f"midpoint convexity inequality, 1e4 random triples (p={p})",
                   *midpoint_inequality_holds(p, rng)))
    return checks


def norms_suite(seed: int):
    return [c for p in SUITE_PS for c in norms_checks(p, random.Random(seed + int(p * 100)))]


def cyclic_map_checks(spec: CyclicMapSpec, inclusion_sample, pair_sample, tag: str):
    """The four checks of one map, as (label, passed, detail) triples whose
    labels end in tag: cyclicity on inclusion_sample and the contraction
    inequality on pair_sample, two `sample_sets` samples, then the
    displacement decay and T^2 at the declared point, which its label
    names with the slack it is checked to."""
    xi = ", ".join(format(c, "g") for c in spec.best_proximity or ())
    return [
        (f"T(A) in B and T(B) in A, {len(inclusion_sample[0])} samples {tag}",
         *verify_cyclicity(spec, *inclusion_sample)),
        (f"contraction inequality, {len(pair_sample[0])} pairs {tag}",
         *verify_contraction(spec, *pair_sample)),
        (f"displacement-excess geometric decay, 60 steps {tag}",
         *displacement_decay_check(spec, DEFAULT_X0, n_max=60)),
        (f"T^2 fixes ({xi}) to {XI_PERIOD_SLACK:g} {tag}", *verify_period(spec)),
    ]


def cyclic_suite(seed: int, k_override: float | None):
    """The cyclic-map checks for every (lambda, p) of the suite: those of
    `cyclic_map_checks`, then the orbit alternation and the separation of
    sampled pairs.

    A, B, their boxes and the seeds do not depend on lambda, p or
    k_override, so the three samples are drawn once, from the first spec,
    and every configuration is checked on the same points.
    """
    specs = [(lam, p, suite_map(lam, p, k_override)) for lam in SUITE_LAMBDAS for p in SUITE_PS]
    first = specs[0][2]
    inclusion_sample = sample_sets(first, 1000, seed)
    pair_sample = sample_sets(first, 1000, seed + 1)
    rng = random.Random(seed + 7)
    start = sample_points(rng, first.box_a, first.in_a, 1)[0]
    us = sample_points(rng, first.box_a, first.in_a, 200)
    vs = sample_points(rng, first.box_b, first.in_b, 200)

    checks = []
    for lam, p, spec in specs:
        tag = f"(lambda={lam}, p={p})"
        checks += cyclic_map_checks(spec, inclusion_sample, pair_sample, tag)

        point, alternation = start, True
        for step in range(1, 41):
            point = apply_map(spec, point)
            alternation = alternation and (spec.in_b if step % 2 else spec.in_a)(point)
        checks.append((f"orbit alternates between A and B {tag}", alternation, ""))

        separated = all(dist(spec.space, u, v) >= spec.d - D_SLACK for u, v in zip(us, vs))
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
    tol = PUBLISHED_TOLERANCE[StopKind.APOSTERIORI]
    checks = [
        (f"a posteriori grid matches reference within +-{tol}", *grid_within(post, tol)),
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
