"""Picard iteration with certified error budgets for best proximity points.

For a cyclic contraction T with coefficient k on sets at distance d > 0,
inside a space whose modulus of convexity dominates C * eps^q, the even
Picard iterates x_{2n} converge to the unique best proximity point xi in
A, and two computable bounds certify the remaining error:

* a priori, from the initial displacement D = ||x - Tx|| alone:

      ||xi - x_{2n}|| <= D / (1 - k^(2/q)) * ((D - d)/(C d))^(1/q) * k^(2n/q);

* a posteriori, from the latest odd-to-even displacement
  P = ||x_{2n-1} - x_{2n}||:

      ||xi - x_{2n}|| <= P / (1 - k^(2/q)) * ((P - d)/(C d))^(1/q) * k^(1/q).

Both are one expression, built by `certificate_evaluator`.  The a
posteriori form is a direct stopping criterion: halt at the first even
step whose bound falls below the target eps.  The bound grows with the
excess P - d, so `run_with_stop` solves once per run for the excess g*
at which it equals eps and decides each even step by comparing P - d
with g*, evaluating the certificate only where that comparison is too
close to call (`powered_stop_test` gives the full account), so an even
step pays one subtraction and two comparisons besides its one norm, P.
The bound can fire only while the computed excess P - d keeps shrinking:
once the even-step displacement has held still for STALL_HALF_LIVES
half-lives of the excess decay, the run is at the resolution floor of
its arithmetic and raises ResolutionFloorError rather than stepping on
to the cap.  The a priori form predicts the required step count before
iterating.  A run records only its orbit, D and the even-step
displacements P; the per-even-step budgets of a trace are derived from
those when read (`IterationTrace.budgets`, `error_budget_at`).

Bound evaluators and the iteration engine use only `**`, `abs` and
comparisons, so they run unchanged on higher-precision number types
(useful when displacement excesses decay below float64 resolution; see
the oracle module).  Each run is sequential by nature, but independent
runs may proceed concurrently; everything here is reentrant.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from operator import sub

from .cyclic import CyclicMapSpec, apply_map, check_start
from .errors import BudgetExhaustedError, InputError, ResolutionFloorError
from .norms import PowerTypeConstants, Vector, lp_norm, power_type_constants

#: Gap D - d (or P - d) more negative than this is an input error; anything
#: in (-GAP_CLAMP, 0) is round-off below a true gap of 0 and clamps to 0.
GAP_CLAMP = 1e-12

#: Half-lives of the excess decay k^2 per even step for which the even-step
#: displacement must hold exactly still before the a posteriori stop gives
#: up.  A stall that later breaks was measured at up to 1.57 half-lives
#: (lam 0.6-0.999, p 1.01-20); one repeat alone is not a floor.
STALL_HALF_LIVES = 10

#: Relative half-width, per unit of q, of the band around the threshold
#: excess g* inside which `powered_stop_test` confirms its decision by the
#: certificate; its docstring says why the band suffices.
STOP_MARGIN = 2.0 ** -20

#: Smallest normal float64; a C d below it has lost relative precision to
#: gradual underflow.
_FLOAT_MIN = sys.float_info.min

#: Newton steps of `_threshold_excess`: it stops after a step below the
#: tolerance, which leaves an error near q/8 times its square; the cap is
#: never reached on finite input.
_NEWTON_TOL = 2.0 ** -26
_NEWTON_CAP = 100


def check_target(eps):
    """Raise InputError, naming eps, unless eps is a finite target > 0."""
    if not (eps > 0 and math.isfinite(eps)):
        raise InputError(f"the target must be a finite eps > 0, got eps={eps}")


class StopKind(Enum):
    APRIORI = "apriori"
    APOSTERIORI = "aposteriori"


@dataclass(frozen=True)
class StopRule:
    """Stopping policy: which bound to watch, the target eps, and a step cap."""

    kind: StopKind
    epsilon: float
    max_steps: int = 100_000

    def __post_init__(self):
        check_target(self.epsilon)
        if self.max_steps < 2 or self.max_steps % 2 != 0:
            raise InputError(f"max_steps must be an even integer >= 2, got {self.max_steps}")


@dataclass(frozen=True)
class ErrorBudget:
    """Both error bounds at an even step 2n."""

    step: int
    apriori: float
    aposteriori: float


@dataclass
class IterationTrace:
    """Record of a Picard run: orbit and the displacements the bounds read.

    `displacements` is [D, P_1, P_2, ...]: `displacements[0]` is
    D = ||x_0 - x_1|| and `displacements[n]` is P = ||x_{2n-1} - x_{2n}||,
    so `displacements[-1]` is the latest P.  The norms of even-to-odd
    steps are not taken; with stored iterates, `norms.dist` gives any
    step's displacement.  `iterates[0]` is always x0; when `store_iterates`
    is False it is the only point kept (long runs).
    `confirmations` counts the even steps of an a posteriori stop whose
    decision needed the certificate itself (the cases `powered_stop_test`
    leaves undecided).  A run usually confirms once, at its stop, or not
    at all.
    The declared (k, d) and power-type constants are carried so that
    `budgets` can be derived from the displacements when read; on mpmath
    numbers they are evaluated at the working precision in force at the
    time of reading.
    """

    k: float
    d: float
    constants: PowerTypeConstants
    iterates: list = field(default_factory=list)
    displacements: list = field(default_factory=list)
    store_iterates: bool = True
    steps: int = 0
    confirmations: int = 0

    @property
    def budgets(self) -> list:
        """The ErrorBudget of every even step 2n >= 2, in step order."""
        return [error_budget_at(self, n) for n in range(1, self.steps // 2 + 1)]


def _check_distance(d):
    if not d > 0:
        raise InputError(f"finite bounds require dist(A, B) > 0, got d={d}")


def _run_constants(d, k, consts: PowerTypeConstants, m):
    """(1 - k^(2/q), C d, k^(m/q)) at the working precision in force now,
    after checking k in (0, 1) and d > 0."""
    if not (0 < k < 1):
        raise InputError(f"k must lie in (0, 1), got {k}")
    _check_distance(d)
    q = consts.q
    return 1 - k ** (2.0 / q), consts.C * d, k ** (m / q)


def certificate_evaluator(d, k, consts: PowerTypeConstants, m, name: str):
    """The paper's error estimate X/(1 - k^(2/q)) * ((X - d)/(C d))^(1/q) * k^(m/q)
    as a one-argument function of X.

    X = D and m = 2n give the a priori bound at step 2n, X = P and m = 1
    the a posteriori bound, and m = 0 the prefactor of both.  k in (0, 1)
    and d > 0 are checked here, once; `name` labels X in the error an
    evaluation raises when X lies below d.  An evaluation returns exactly
    0 when X = d; a gap X - d in (-GAP_CLAMP, 0) is round-off and counts
    as 0.

    The factors that do not depend on X are formed here, at the working
    precision in force now, so an evaluator must be built at the
    precision it is evaluated at, and must not be cached across calls:
    an mpf hashes without its precision.  Each evaluation performs the same
    operations in the same order as the full expression, so its value
    is the same to the bit.
    """
    denom, Cd, tail = _run_constants(d, k, consts, m)
    root = 1.0 / consts.q

    def evaluate(X):
        gap = X - d
        if gap < 0:
            if gap < -GAP_CLAMP:
                raise InputError(f"{name}={X} is below d={d}")
            gap = 0.0
        if gap == 0:
            return 0.0
        return X / denom * (gap / Cd) ** root * tail

    return evaluate


def _threshold_log_excess(L, q):
    """log(g*/d) for the threshold excess g* at which the a posteriori bound
    equals eps, in float64, from L = log(C (eps / (a d))^q) and q; None when
    the root lies outside the float64 range.

    g* is the root of g = C d (eps / (a (d + g)))^q.  In t = log(g / d) the
    equation reads F(t) = t + q log(1 + e^t) - L.  F is increasing and
    convex, so Newton's method from its upper bound min(L, L / (q + 1))
    descends to the root monotonically, quadratically near it: at most 6
    steps for q <= 20, one when g* << d.  `_threshold_excess` forms g* from
    this root, and the oracle sizes its working digits by it.
    """
    try:
        t = min(L, L / (q + 1))
        for _ in range(_NEWTON_CAP):
            e = math.exp(t)
            step = (t + q * math.log1p(e) - L) / (1 + q * e / (1 + e))
            t -= step
            if abs(step) < _NEWTON_TOL:
                return t
    except OverflowError:  # e^t beyond the float64 range
        pass
    return None


def _threshold_excess(d, Cd, a, eps, q, tol):
    """The excess g* at which the a posteriori bound equals eps (see
    `_threshold_log_excess`).  None when a run constant or the root lies
    outside the float64 range, or when the arithmetic does not resolve g*
    or its power factor to tol relative (float64 underflow).

    The root t = log(g*/d) is located in float64; the excess is then
    formed in the working arithmetic by one evaluation of the equation at
    P = d (1 + e^t), which keeps its relative error near q times that of
    the float64 root.

    L takes the log of the float64 quotient eps / (a d), not a sum of logs
    as the oracle's digit sizing does: the quotient overflows where the
    certificate's X / (1 - k^(2/q)) * ((X - d)/(C d))^(1/q) does, before
    its tiny factor k^(1/q), so such runs stay with the certificate (p =
    1.5, k = 1e-299, eps = 1e160, P - d = 1e206: bound 8.9e159, float64 inf).
    """
    qf = float(q)
    try:
        L = math.log(float(Cd / d)) + qf * math.log(float(eps / (a * d)))
        if not math.isfinite(L):
            return None
        t = _threshold_log_excess(L, qf)
        if t is None:
            return None
        power = (eps / (a * (d + d * math.exp(t)))) ** q
    except (ValueError, OverflowError):  # beyond the float64 range
        return None
    g_star = Cd * power
    # x (1 + tol) > x: numbers near x are spaced by less than 2 tol x
    if power * (1 + tol) > power and g_star * (1 + tol) > g_star:
        return g_star
    return None


def powered_stop_test(d, k, consts: PowerTypeConstants, eps):
    """The a posteriori stop test bound(P) < eps as a comparison of the
    excess P - d with a threshold formed once, as a one-argument function
    of P returning True, False, or None when it cannot decide and the
    caller must evaluate the certificate.

    With a = k^(1/q) / (1 - k^(2/q)) the bound is P a ((P - d)/(C d))^(1/q),
    so for P > d the test is (P a / eps)^q (P - d) < C d, whose left side
    increases with the excess g = P - d.  It holds exactly below the g*
    that solves g = C d (eps / (a (d + g)))^q (`_threshold_excess`), for
    integral and non-integral q alike.

    The comparison is trusted only outside the band g* (1 +- q STOP_MARGIN).
    Outside it the bound differs from eps by at least STOP_MARGIN
    relative, since the bound grows at least like (P - d)^(1/q).  That is
    wider than the rounding of the certificate, a few units plus the
    rounding of the exponent 1/q times |log(gap / (C d))|, under 1e-13
    relative in float64; and g* is formed to within an eighth of the band
    (the tolerance passed to `_threshold_excess`, whose float64 root is far
    more accurate still).  So a decision the comparison returns is that of
    the certificate.

    None is returned for every P when C d is not a normal float64 number
    or the arithmetic resolves less than 2^-40 relative; when g* is not
    formed (`_threshold_excess`); and for a P with P - d <= 0 or not
    finite.  Built, like `certificate_evaluator`, at the precision it is
    evaluated at.
    """
    denom, Cd, tail = _run_constants(d, k, consts, 1)
    q = consts.q
    width = q * STOP_MARGIN
    g_star = None
    if _FLOAT_MIN < Cd and Cd * (1 + 2.0 ** -40) > Cd:
        g_star = _threshold_excess(d, Cd, tail / denom, eps, q, width / 8)
    if g_star is None:
        return lambda P: None
    lo, hi = g_star * (1 - width), g_star * (1 + width)
    # d and the outer limits 0 and inf in the run's arithmetic, so that an
    # even step converts no number; d only where the conversion is exact
    num = type(g_star)
    zero, top = num(0), num(math.inf)
    if num(d) == d:
        d = num(d)

    def decide(P):
        gap = P - d
        if hi < gap < top:
            return False
        if zero < gap < lo:
            return True
        return None

    return decide


def apriori_bound(D, d, k, consts: PowerTypeConstants, n: int):
    """Error bound at even step 2n from the initial displacement D.

    Returns exactly 0 when D = d (the orbit already realizes the set
    distance, so the best proximity point is reached).
    """
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    return certificate_evaluator(d, k, consts, 2 * n, "D")(D)


def aposteriori_bound(P, d, k, consts: PowerTypeConstants):
    """Error bound at even step 2n from P = ||x_{2n-1} - x_{2n}||.

    Returns exactly 0 when P = d.
    """
    return certificate_evaluator(d, k, consts, 1, "P")(P)


def apriori_steps_needed(D, d, k, consts: PowerTypeConstants, eps) -> int:
    """Smallest even step 2n (n >= 1) whose a priori bound is below eps.

    Solved in closed form from the logarithm of the geometric tail, then
    verified by direct evaluation at n and n - 1 to absorb floating-point
    drift.  Returns 2 when the bound at n = 1 is already below eps.  The
    guess takes log(prefactor) - log(eps), where the prefactor is the
    certificate at D with m = 0, so a subnormal eps, whose quotient would
    overflow, is solved too.  InputError naming D unless the prefactor is
    finite.
    """
    check_target(eps)
    prefactor = certificate_evaluator(d, k, consts, 0, "D")(D)
    if not prefactor - prefactor == 0:
        raise InputError(f"the a priori prefactor is not finite at D={D}, got {prefactor}")
    q = consts.q

    def bound(n: int):
        return apriori_bound(D, d, k, consts, n)

    if bound(1) < eps:
        return 2
    log_ratio = math.log(float(prefactor)) - math.log(float(eps))
    n = math.floor(q * log_ratio / (2.0 * math.log(1.0 / float(k)))) + 1
    n = max(n, 1)
    while bound(n) >= eps:
        n += 1
    while n > 1 and bound(n - 1) < eps:
        n -= 1
    return 2 * n


def stall_span(k):
    """Even steps of unchanged displacement after which the a posteriori
    stop gives up: STALL_HALF_LIVES half-lives of the decay k^2 per even
    step, for the declared k taken as a float (inf if that rounds to 1,
    1 if it rounds to 0)."""
    k = float(k)
    if k == 0:
        return 1
    rate = -2.0 * math.log(k)
    return math.ceil(STALL_HALF_LIVES * math.log(2.0) / rate) if rate > 0 else math.inf


def _start_trace(spec: CyclicMapSpec, x0: Vector, store_iterates: bool) -> IterationTrace:
    check_start(spec, x0)
    _check_distance(spec.d)
    return IterationTrace(
        k=spec.k,
        d=spec.d,
        constants=power_type_constants(spec.space.p),
        iterates=[tuple(x0)],
        store_iterates=store_iterates,
    )


def _advance(spec: CyclicMapSpec, trace: IterationTrace, current: Vector):
    """One Picard step: record the image and, at step 1 (D) and at even
    steps (P), the displacement; return the image."""
    nxt = apply_map(spec, current)
    step = trace.steps = trace.steps + 1
    if step % 2 == 0 or step == 1:
        # Not norms.dist: on this per-step path one more Python call per
        # step is a measurable slowdown of long float64 runs.
        trace.displacements.append(
            lp_norm(spec.space, tuple(map(sub, current, nxt)))
        )
    if trace.store_iterates:
        trace.iterates.append(nxt)
    return nxt


def picard_iterate(spec: CyclicMapSpec, x0: Vector, steps: int) -> IterationTrace:
    """Run exactly `steps` Picard steps from x0 in A.

    The trace holds all steps + 1 points and the displacements D and P of
    every even step; its `budgets` derive an ErrorBudget for every even
    step >= 2 from them.
    """
    if steps < 1:
        raise InputError(f"steps must be >= 1, got {steps}")
    trace = _start_trace(spec, x0, store_iterates=True)
    current = trace.iterates[0]
    for _ in range(steps):
        current = _advance(spec, trace, current)
    return trace


def run_with_stop(
    spec: CyclicMapSpec, x0: Vector, rule: StopRule, store_iterates: bool = True
):
    """Iterate until the rule fires; returns (approx, stopped_at, trace).

    APOSTERIORI stops at the first even step 2n whose a posteriori bound
    is strictly below eps.  When instead the displacement of
    `stall_span(k)` consecutive even steps equals that of the even step
    before each, it raises ResolutionFloorError carrying the trace and the
    stalled bound as `floor`.  The test is decided by comparing P - d with
    the threshold excess (`powered_stop_test`) where it can and by the
    certificate where it cannot; the trace counts the latter as
    `confirmations`.  APRIORI predicts the step count from
    the initial displacement and runs exactly that many steps; a
    prediction above the cap raises BudgetExhaustedError at once,
    carrying the one-step trace the prediction was read from.  Hitting
    the cap before a criterion fires raises BudgetExhaustedError carrying
    the partial trace.  With `store_iterates` False the trace keeps only
    x0; approx is the final point either way.
    """
    trace = _start_trace(spec, x0, store_iterates)
    current = trace.iterates[0]

    if rule.kind is StopKind.APRIORI:
        current = _advance(spec, trace, current)  # need D = ||x0 - Tx0||
        target = apriori_steps_needed(
            trace.displacements[0], spec.d, spec.k, trace.constants, rule.epsilon
        )
        if target > rule.max_steps:
            raise BudgetExhaustedError(
                f"a priori criterion needs {target} steps, cap is {rule.max_steps}",
                trace=trace,
            )
        for _ in range(target - 1):
            current = _advance(spec, trace, current)
        return current, target, trace

    # APOSTERIORI: aposteriori_bound and its threshold test, with their run
    # constants and the threshold excess formed once, at the working
    # precision of this run.
    eps = rule.epsilon
    bound = certificate_evaluator(spec.d, spec.k, trace.constants, 1, "P")
    below = powered_stop_test(spec.d, spec.k, trace.constants, eps)
    span = stall_span(spec.k)
    held, previous = 0, None
    while trace.steps < rule.max_steps:  # max_steps is even: step in pairs
        current = _advance(spec, trace, current)
        current = _advance(spec, trace, current)
        P = trace.displacements[-1]
        fires = below(P)
        if fires is None:
            trace.confirmations += 1
            fires = bound(P) < eps
        if fires:
            return current, trace.steps, trace
        held = held + 1 if P == previous else 0
        if held >= span:
            floor = bound(P)
            raise ResolutionFloorError(
                f"a posteriori bound stalled at its resolution floor "
                f"{floor} >= eps={eps}: the displacement has not "
                f"changed since step {trace.steps - 2 * held} ({held} even steps)",
                trace=trace,
                floor=floor,
            )
        previous = P
    raise BudgetExhaustedError(
        f"a posteriori bound did not reach eps={eps} within {rule.max_steps} steps",
        trace=trace,
    )


def error_budget_at(trace: IterationTrace, n: int) -> ErrorBudget:
    """Both bounds at even step 2n, derived from D = `displacements[0]`
    and P = `displacements[n]`."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if trace.steps < 2 * n:
        raise InputError(f"trace has {trace.steps} steps, need at least {2 * n}")
    return ErrorBudget(
        step=2 * n,
        apriori=apriori_bound(trace.displacements[0], trace.d, trace.k, trace.constants, n),
        aposteriori=aposteriori_bound(
            trace.displacements[n], trace.d, trace.k, trace.constants
        ),
    )
