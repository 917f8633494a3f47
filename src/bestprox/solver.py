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
step whose bound falls below the target eps.  The bound is at least
d a ((P - d)/(C d))^(1/q), with a = k^(1/q) / (1 - k^(2/q)), so it can
fall below eps only where P - d < h = C d (eps / (a d))^q.  Before its
first step, `run_with_stop` forms h and screens out each even step whose
P - d lies clearly above it (its docstring gives the full account).  Such
a step pays one subtraction and one comparison besides its one norm, P;
the certificate decides every stop, and is evaluated as a rule only
there.
The bound can fire only while the computed excess P - d keeps shrinking:
once the even-step displacement has held still for STALL_HALF_LIVES
half-lives of the excess decay, the run is at the resolution floor of
its arithmetic and raises ResolutionFloorError rather than stepping on
to the cap.  The a priori form predicts the required step count from
x0 before the first step.  A run records only its orbit, D and the
even-step displacements P; the per-even-step budgets of a trace are
derived from those when read (`IterationTrace.budgets`, `error_budget_at`).

Bound evaluators and the iteration engine use only `**`, `abs` and
comparisons, so they run unchanged on higher-precision number types
(useful when displacement excesses decay below float64 resolution; see
the oracle module).  Each run is sequential by nature, but independent
float64 runs may proceed concurrently; everything here is reentrant.
mpmath's working precision is process-global, so runs at working
precision must not share one process's threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum

from .cyclic import CyclicMapSpec, apply_map, check_start
from .errors import BudgetExhaustedError, InputError, ResolutionFloorError
from .norms import PowerTypeConstants, Vector, dist, power_type_constants

#: Gap D - d (or P - d) more negative than this is an input error; anything
#: in (-GAP_CLAMP, 0) is round-off below a true gap of 0 and clamps to 0.
GAP_CLAMP = 1e-12

#: Half-lives of the excess decay k^2 per even step for which the even-step
#: displacement must hold exactly still before the a posteriori stop gives
#: up.  A stall that later breaks was measured at up to 1.57 half-lives
#: (lam 0.6-0.999, p 1.01-20); one repeat alone is not a floor.
STALL_HALF_LIVES = 10

#: Relative margin, per unit of q, above the closed-form excess h beyond
#: which the screen of `run_with_stop` rules a step out without the
#: certificate; its docstring says why the margin suffices.
STOP_MARGIN = 2.0 ** -20

#: Smallest normal float64; a C d below it has lost relative precision to
#: gradual underflow.
_FLOAT_MIN = sys.float_info.min

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
    `confirmations` counts the even steps of an a posteriori stop at which
    the certificate was evaluated: those the screen of `run_with_stop`
    does not rule out.  A certified stop confirms once, at its stop.
    The declared (k, d) and power-type constants are carried so that
    `budgets` can be derived from the displacements when read; on mpmath
    numbers they are evaluated at the working precision in force at the
    time of reading.  A read forms the a posteriori evaluator and the
    a priori prefactor once, not once per even step, and its budgets equal
    those of `error_budget_at` to the bit.
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
        if self.steps < 2:
            return []
        d, k, consts, displacements = self.d, self.k, self.constants, self.displacements
        apriori = _apriori(displacements[0], d, k, consts)
        aposteriori = certificate_evaluator(d, k, consts, 1)
        return [
            ErrorBudget(2 * n, apriori(n), aposteriori(displacements[n]))
            for n in range(1, self.steps // 2 + 1)
        ]


def _check_distance(d):
    if not d > 0:
        raise InputError(f"finite bounds require dist(A, B) > 0, got d={d}")


def _run_constants(d, k, consts: PowerTypeConstants, m):
    """(1 - k^(2/q), C d, k^(m/q)) at the working precision in force now,
    after checking k in (0, 1) and d > 0.  InputError, naming d, k and q,
    where d / (1 - k^(2/q)) is not finite, as where k^(2/q) rounds to 1: no
    bound is then finite, and X = d would not give 0."""
    if not (0 < k < 1):
        raise InputError(f"k must lie in (0, 1), got {k}")
    _check_distance(d)
    q = consts.q
    denom = 1 - k ** (2.0 / q)
    if not (denom > 0 and d / denom < math.inf):
        raise InputError(f"no bound is finite at d={d}, k={k}, q={q}: 1 - k^(2/q) = {denom}")
    return denom, consts.C * d, k ** (m / q)


def certificate_evaluator(d, k, consts: PowerTypeConstants, m):
    """The paper's error estimate X/(1 - k^(2/q)) * ((X - d)/(C d))^(1/q) * k^(m/q)
    as a one-argument function of X.

    X = D and m = 2n give the a priori bound at step 2n, X = P and m = 1
    the a posteriori bound, and m = 0 the prefactor of both.  The tail
    k^(m/q) multiplies last and k^0 is exactly 1, so the prefactor at D times
    k^(2n/q) is the a priori bound to the bit (`apriori_bound`).  k in (0, 1),
    d > 0 and a finite d / (1 - k^(2/q)) are checked here, once; an
    evaluation at an X below d raises an error naming X as P (m = 1) or D.  An evaluation
    returns exactly 0 when X = d; a gap X - d in (-GAP_CLAMP, 0) is
    round-off and counts as 0.

    The factors that do not depend on X are formed here, at the working
    precision in force now, so an evaluator must be built at the
    precision it is evaluated at, and must not be cached across calls:
    an mpf hashes without its precision.  Each evaluation performs the same
    operations in the same order as the full expression, so its value
    is the same to the bit.
    """
    return _evaluator(d, consts, m, *_run_constants(d, k, consts, m))


def _evaluator(d, consts: PowerTypeConstants, m, denom, Cd, tail):
    """The evaluator of `certificate_evaluator` from the run constants
    (1 - k^(2/q), C d, k^(m/q)) that `_run_constants` formed."""
    root = 1.0 / consts.q
    name = "P" if m == 1 else "D"

    def evaluate(X):
        gap = X - d
        if gap < 0:
            if gap < -GAP_CLAMP:
                raise InputError(f"{name}={X} is below d={d}")
            gap = 0.0
        return X / denom * (gap / Cd) ** root * tail

    return evaluate


def stop_excess(d, k, consts: PowerTypeConstants, eps):
    """The excess h = C d (eps / (a d))^q, a = k^(1/q) / (1 - k^(2/q)), in
    the arithmetic of its arguments, or None where that arithmetic cannot
    resolve it.  The a posteriori bound is at least d a ((P - d)/(C d))^(1/q),
    which equals eps at P - d = h, so it is below eps only where P - d < h.
    The screen of `run_with_stop`, and the digit sizing and the cap
    refusal of a working-precision run, all read h from here.

    None when C d is not a normal float64 number, the arithmetic resolves
    less than 2^-40 relative, the float64 power overflows, or h or its power
    factor h / (C d) is not resolved to within an eighth of the screen's
    margin q STOP_MARGIN.  Checks k in (0, 1) and d > 0 first.
    """
    return _excess(d, consts, eps, *_run_constants(d, k, consts, 1))


def _excess(d, consts: PowerTypeConstants, eps, denom, Cd, tail):
    """The h of `stop_excess` from the run constants at m = 1."""
    if not (_FLOAT_MIN < Cd and Cd * (1 + 2.0 ** -40) > Cd):
        return None
    q = consts.q
    try:
        h = Cd * (eps / (tail / denom * d)) ** q
    except OverflowError:  # beyond the float64 range
        return None
    # x (1 + tol) > x: numbers near x are spaced by less than 2 tol x
    tol = q * STOP_MARGIN / 8
    factor = h / Cd
    return h if h * (1 + tol) > h and factor * (1 + tol) > factor else None


def _apriori(D, d, k, consts: PowerTypeConstants):
    """The a priori bound as a function of n >= 1: the prefactor, the
    certificate at D with m = 0, formed once at the precision in force now,
    times k^(2n/q)."""
    prefactor = certificate_evaluator(d, k, consts, 0)(D)
    q = consts.q
    return lambda n: prefactor * k ** (2 * n / q)


def apriori_bound(D, d, k, consts: PowerTypeConstants, n: int):
    """Error bound at even step 2n from the initial displacement D.

    It is the prefactor, the certificate at D with m = 0, times k^(2n/q):
    the certificate with m = 2n, to the bit, and the one product that
    `error_budget_at` and `IterationTrace.budgets` read.  Returns exactly 0
    when D = d (the orbit already realizes the set distance, so the best
    proximity point is reached).
    """
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    return _apriori(D, d, k, consts)(n)


def aposteriori_bound(P, d, k, consts: PowerTypeConstants):
    """Error bound at even step 2n from P = ||x_{2n-1} - x_{2n}||.

    Returns exactly 0 when P = d.
    """
    return certificate_evaluator(d, k, consts, 1)(P)


def apriori_steps_needed(D, d, k, consts: PowerTypeConstants, eps) -> int:
    """Smallest even step 2n (n >= 1) whose a priori bound is below eps.

    Found by comparisons of `apriori_bound` with eps alone, in the
    arithmetic of the arguments: n doubles from 1 until the bound falls
    below eps, then bisection between the last two n finds the step whose
    bound is below eps where that of the step before is not.  The bound
    decreases in n, so that is the first crossing, found in at most
    2 ceil(log2 n) + 2 evaluations, in float64 and on mpmath numbers
    beyond its range alike.  InputError naming D unless the prefactor, the
    certificate at D with m = 0, is finite.
    """
    check_target(eps)
    prefactor = certificate_evaluator(d, k, consts, 0)(D)
    if not prefactor - prefactor == 0:
        raise InputError(f"the a priori prefactor is not finite at D={D}, got {prefactor}")
    lo, n = 0, 1  # the bound at lo is >= eps (lo = 0: no step yet)
    while apriori_bound(D, d, k, consts, n) >= eps:
        lo, n = n, 2 * n
    while n - lo > 1:
        mid = (lo + n) // 2
        lo, n = (lo, mid) if apriori_bound(D, d, k, consts, mid) < eps else (mid, n)
    return 2 * n


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
        trace.displacements.append(dist(spec.space, current, nxt))
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

    Everything the run decides is formed once, before its first step, and
    every refusal is raised there.  Hitting the cap before a criterion
    fires raises BudgetExhaustedError carrying the partial trace.  With
    `store_iterates` False the trace keeps only x0; approx is the final
    point either way.

    APRIORI predicts the step count from D = ||x0 - Tx0|| and runs exactly
    that many steps; a prediction above the cap raises BudgetExhaustedError
    before any step, carrying the trace of 0 steps.

    APOSTERIORI stops at the first even step 2n whose a posteriori bound
    is strictly below eps.  The certificate decides every stop; a screen
    rules out, without it, each step whose excess P - d lies above
    hi = h (1 + q STOP_MARGIN), for the excess h of `stop_excess`, and the
    trace counts the steps the certificate is evaluated at as
    `confirmations`.  The screen is sound: since the bound is at least
    d a ((P - d)/(C d))^(1/q), above hi it exceeds
    eps (1 + q STOP_MARGIN)^(1/q), so eps by about STOP_MARGIN relative.
    That is wider than the rounding of the certificate, a few units plus
    the rounding of the exponent 1/q times |log(gap / (C d))|, under 1e-13
    relative in float64, and than that of h and its power factor, each
    resolved to within an eighth of the margin.  So a screened-out step is
    one whose certificate would not fire (an infinite P among them), and
    every stop fires on the certificate.  The bound equals eps at an excess
    g with h = g (1 + g/d)^q, so h is close to g where it is small against
    d, and a run evaluates the certificate, as a rule, once, at its stop.
    Where `stop_excess` forms no h, the certificate decides every step.

    When the displacement of each of a span of consecutive even steps
    equals that of the even step before it, the run raises
    ResolutionFloorError carrying the trace and the stalled bound as
    `floor`.  The span is STALL_HALF_LIVES half-lives of the decay k^2 per
    even step, for the declared k taken as a float: inf if that rounds to
    1, and 1 if it rounds to 0.
    """
    trace = _start_trace(spec, x0, store_iterates)
    current = trace.iterates[0]
    d, k, consts, eps = spec.d, spec.k, trace.constants, rule.epsilon

    if rule.kind is StopKind.APRIORI:
        D = dist(spec.space, current, apply_map(spec, current))
        target = apriori_steps_needed(D, d, k, consts, eps)
        if target > rule.max_steps:
            raise BudgetExhaustedError(
                f"a priori criterion needs {target} steps, cap is {rule.max_steps}",
                trace=trace,
            )
        for _ in range(target):
            current = _advance(spec, trace, current)
        return current, target, trace

    # APOSTERIORI: the certificate, its screen and the stall span, formed
    # at the working precision of this run; the certificate and h read one
    # set of run constants
    run = _run_constants(d, k, consts, 1)
    bound = _evaluator(d, consts, 1, *run)
    h = _excess(d, consts, eps, *run)
    hi = math.inf if h is None else h * (1 + consts.q * STOP_MARGIN)
    # d in the screen's arithmetic, so that an even step converts no
    # number; only where the conversion is exact
    if type(hi)(d) == d:
        d = type(hi)(d)
    # a k below the float64 normal range, 0 included, gives a span of 1
    rate = -2.0 * math.log(max(float(k), _FLOAT_MIN))
    span = math.ceil(STALL_HALF_LIVES * math.log(2.0) / rate) if rate > 0 else math.inf
    held, previous = 0, None
    cap, displacements = rule.max_steps, trace.displacements
    while trace.steps < cap:  # the cap is even: step in pairs
        current = _advance(spec, trace, current)
        current = _advance(spec, trace, current)
        P = displacements[-1]
        if not P - d > hi:
            trace.confirmations += 1
            if bound(P) < eps:
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
    if trace.steps < 2 * n:
        raise InputError(f"trace has {trace.steps} steps, need at least {2 * n}")
    return ErrorBudget(
        step=2 * n,
        apriori=apriori_bound(trace.displacements[0], trace.d, trace.k, trace.constants, n),
        aposteriori=aposteriori_bound(
            trace.displacements[n], trace.d, trace.k, trace.constants
        ),
    )
