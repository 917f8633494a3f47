"""Cyclic contraction maps on a pair of sets, plus empirical validators.

A map T : A u B -> A u B is *cyclic* when T(A) is contained in B and
T(B) in A, and a *cyclic contraction* with coefficient k in (0, 1) when

    ||Tx - Ty|| <= k ||x - y|| + (1 - k) d,      x in A, y in B,

where d = dist(A, B).  A `CyclicMapSpec` carries the map together with
its *declared* k and d and membership predicates for A and B.  The
validators below audit those declarations by sampling; inferring k or d
from samples would be ill-posed, so declarations are checked, never
inferred.  Each validator returns (passed, detail), the pair that
`bestprox verify` prints, like every checked property in `oracle`.
The declared k, d and best proximity point each have one slack, K_SLACK,
D_SLACK and XI_PERIOD_SLACK, listed beside the validators and read by every
check of that declaration, here and in `oracle`.
`sample_sets` draws the points; the validators check the points they are
given.  A sample depends only on A, B, their boxes, the count and the
seed, never on the map or its declared k and d, so one sample serves
every spec over the same sets (`oracle.cyclic_suite` checks all its
(lambda, p) configurations on one sample).

The built-in instance lives on two closed convex cones in the plane,

    A = {(x, y) : y - x + 1 <= 0,  y + x - 1 >= 0}   (apex (1, 0)),
    B = {(x, y) : y - x - 1 >= 0,  y + x + 1 <= 0}   (apex (-1, 0)),

with dist(A, B) = 2 in every l_p norm, realized by the two apexes.  The
map

    T(x, y) = (-((1 - lam) * sign(x) + lam * x), -lam * y),

with sign(0) = 0, is a cyclic contraction on A u B with k = lam, and
(1, 0) is its best proximity point in A.

`CyclicMapSpec` is immutable after construction and `apply` is pure, so
all operations here are safe to call concurrently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigurationError, InputError
from .norms import LpSpace, Vector, check_exponent, dist

#: Sampling window for the built-in sets: A is drawn from this box, B from
#: its mirror image.  The sets themselves are unbounded cones, so any
#: sampler needs some bounded window; this one matches the scale of the
#: benchmark scenarios.
EXAMPLE1_BOX_A = ((1.0, 1000.0), (-1000.0, 1000.0))
EXAMPLE1_BOX_B = ((-1000.0, -1.0), (-1000.0, 1000.0))

#: Attempts per requested point before the rejection sampler gives up.
SAMPLER_RETRY_CAP = 10_000


@dataclass(frozen=True)
class CyclicMapSpec:
    """A cyclic map with declared contraction data.

    `apply` must be pure.  `box_a`/`box_b` are per-coordinate bounds used
    by rejection samplers; None disables sampling-based validators.
    `best_proximity` optionally records an exactly known best proximity
    point in A; `oracle.reference_best_proximity` checks it (with
    `verify_period`) and makes it the reference of every true error.
    """

    space: LpSpace
    apply: Callable[[Vector], Vector]
    in_a: Callable[[Vector], bool]
    in_b: Callable[[Vector], bool]
    k: float
    d: float
    box_a: tuple | None = None
    box_b: tuple | None = None
    best_proximity: Vector | None = None

    def __post_init__(self):
        if not (0 < self.k < 1):
            raise InputError(f"contraction coefficient must lie in (0, 1), got {self.k}")
        if self.d < 0:
            raise InputError(f"set distance must be nonnegative, got {self.d}")


@dataclass(frozen=True)
class Example1Params:
    """Parameters of the built-in map: contraction factor and norm exponent."""

    lam: float
    p: float

    def __post_init__(self):
        if not (0 < self.lam < 1):
            raise InputError(f"lam must lie in (0, 1), got {self.lam}")
        check_exponent(self.p)


def example1_in_a(v: Vector) -> bool:
    """Membership in the built-in A: the cone with apex (1, 0)."""
    x, y = v
    return y - x + 1 <= 0 and y + x - 1 >= 0


def example1_in_b(v: Vector) -> bool:
    """Membership in the built-in B: the cone with apex (-1, 0)."""
    x, y = v
    return y - x - 1 >= 0 and y + x + 1 <= 0


def make_example1(params: Example1Params) -> CyclicMapSpec:
    """Build the two-cone benchmark map for the given (lam, p).

    Works verbatim with higher-precision `lam` and point coordinates
    (all closures use only `*`, `+`, `-` and comparisons).  The map's
    constants 1 - lam, the negated signed multiples -((1 - lam) sign(x)),
    its zero and -lam are formed here, once, at the working precision in
    force now, and so is the space's
    threshold (`norms.LpSpace`), so build the spec at the precision it is
    applied at (as for `solver.certificate_evaluator`).  d = 2 for every
    p; `oracle.rederive_distance` re-derives it numerically, a cross-check
    that acceptance criterion 8 and the `verify` benchmark workload run.
    Every spec built here shares the sets A and B (`example1_in_a`,
    `example1_in_b`) and their boxes, whatever (lam, p).
    """
    lam = params.lam
    rest, flip = 1 - lam, -lam
    # The negated terms -(rest * sign(x)), formed once, and x compared with
    # the map's own zero: a step converts no int.  Round to nearest is
    # symmetric in float64 and in mpmath, so term + flip * x has the bits of
    # -(rest * sign(x) + lam * x); not at a zero x, where that sum would take
    # the sign of x, and the image is -0.0 from either zero.
    zero = rest * 0
    pos, neg, nzero = -(rest * 1), -(rest * -1), -zero

    def apply(v: Vector) -> Vector:
        x, y = v
        if x > zero:
            return (pos + flip * x, flip * y)
        if x:  # x < 0, or NaN
            return (neg + flip * x, flip * y)
        return (nzero, flip * y)

    return CyclicMapSpec(
        space=LpSpace(params.p),
        apply=apply,
        in_a=example1_in_a,
        in_b=example1_in_b,
        k=lam,
        d=2.0,
        box_a=EXAMPLE1_BOX_A,
        box_b=EXAMPLE1_BOX_B,
        best_proximity=(1.0, 0.0),
    )


def apply_map(spec: CyclicMapSpec, x: Vector) -> Vector:
    """Apply T once, after checking that x is a point of the plane."""
    if len(x) != 2:
        raise InputError(f"point has {len(x)} coordinates, space has dim 2")
    return spec.apply(x)


def _check_point(spec: CyclicMapSpec, x0: Vector):
    """Raise InputError, naming x0, unless x0 is a finite point of the
    map's space.  Coordinates may be floats or mpmath numbers."""
    if len(x0) != 2:
        raise InputError(f"x0={tuple(x0)} has {len(x0)} coordinates, space has dim 2")
    # c - c is exactly 0 for a finite c of any number type and magnitude
    # (math.isfinite would reject an mpf beyond the float range), nan else.
    x, y = x0
    if not (x - x == 0 and y - y == 0):
        raise InputError(f"x0={tuple(x0)} has a non-finite coordinate")


def check_start(spec: CyclicMapSpec, x0: Vector):
    """Raise InputError, naming x0, unless x0 is a finite point of A in the
    map's space."""
    _check_point(spec, x0)
    if not spec.in_a(x0):
        raise InputError(f"x0={tuple(x0)} is not in A (runs must start in A)")


def sample_points(
    rng: random.Random,
    box: tuple | None,
    predicate: Callable[[Vector], bool],
    count: int,
) -> list[Vector]:
    """Rejection-sample `count` points of a predicate set inside a box of
    the plane, two (lo, hi) intervals; ConfigurationError, before the first
    draw, when the box is not two intervals (None, a spec's default, is not).

    Each coordinate is drawn as lo + (hi - lo) * rng.random(), the
    expression `random.uniform(lo, hi)` evaluates, so the points have the
    bits of uniform draws without a call frame per draw.
    """
    try:
        (lo0, hi0), (lo1, hi1) = box
        w0, w1 = hi0 - lo0, hi1 - lo1
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"sampling box must be two (lo, hi) intervals, got {box!r}"
        ) from None
    points = []
    draw = rng.random
    for _ in range(count):
        for _attempt in range(SAMPLER_RETRY_CAP):
            candidate = (lo0 + w0 * draw(), lo1 + w1 * draw())
            if predicate(candidate):
                points.append(candidate)
                break
        else:
            raise ConfigurationError(
                f"sampler failed to hit the set within {SAMPLER_RETRY_CAP} "
                f"attempts (box={box})"
            )
    return points


def sample_sets(
    spec: CyclicMapSpec, count: int, seed: int
) -> tuple[list[Vector], list[Vector]]:
    """Draw `count` points of A, then `count` of B, from random.Random(seed).

    The points depend on the sets, their boxes, count and seed only, so
    one sample serves every spec over the same A and B.  InputError when
    count < 1; ConfigurationError, from `sample_points`' one box check, when
    a box is None or not two intervals.
    """
    if count < 1:
        raise InputError("sample_count must be >= 1")
    rng = random.Random(seed)
    return (
        sample_points(rng, spec.box_a, spec.in_a, count),
        sample_points(rng, spec.box_b, spec.in_b, count),
    )


#: k, relative: a value may exceed its contraction bound (the contraction
#: inequality or the decay envelope) by K_SLACK * (1 + the bound's scale).
K_SLACK = 1e-9
#: d, absolute: a computed distance between A and B may fall below d by D_SLACK.
D_SLACK = 1e-9
#: xi: T^2 may move each coordinate of the declared point by XI_PERIOD_SLACK.
XI_PERIOD_SLACK = 1e-15


def verify_cyclicity(spec: CyclicMapSpec, points_a: list[Vector], points_b: list[Vector]):
    """Check T(A) in B on the given points of A and T(B) in A on those of B.

    Returns (passed, detail), the detail "{n} violations" for the n points
    whose image lands outside the opposite set, and empty when none does.
    """
    violations = sum(
        not other(apply_map(spec, point))
        for points, other in ((points_a, spec.in_b), (points_b, spec.in_a))
        for point in points
    )
    return not violations, (f"{violations} violations" if violations else "")


def verify_contraction(spec: CyclicMapSpec, xs: list[Vector], ys: list[Vector]):
    """Check the contraction inequality on the pairs (xs[i] in A, ys[i] in B).

    A pair passes when the slack ||Tx - Ty|| - (k||x - y|| + (1 - k)d)
    stays below K_SLACK * (1 + ||x - y||).  Returns (passed, detail), the
    detail "max violation {x:.3g}" for the largest slack seen.  InputError,
    naming both counts, unless there are equally many points of A and B, at
    least one.
    """
    if not xs or len(xs) != len(ys):
        raise InputError(
            f"need equally many points of A and B, at least one; got {len(xs)} and {len(ys)}"
        )
    space, k = spec.space, spec.k
    floor = (1 - k) * spec.d
    max_violation = float("-inf")
    passed = True
    for x, y in zip(xs, ys):
        dxy = dist(space, x, y)
        violation = dist(space, apply_map(spec, x), apply_map(spec, y)) - (k * dxy + floor)
        max_violation = max(max_violation, violation)
        if violation > K_SLACK * (1 + dxy):
            passed = False
    return passed, f"max violation {max_violation:.3g}"


def displacement_decay_check(spec: CyclicMapSpec, x0: Vector, n_max: int):
    """Audit the geometric decay of displacement excesses along an orbit.

    Successive displacements of a cyclic contraction satisfy

        ||T^n x - T^{n+1} x|| - d <= k^n (||x - Tx|| - d),

    and, because consecutive iterates lie in opposite sets, every
    displacement is at least d.  Both facts are checked for n = 0..n_max,
    the first within K_SLACK * (1 + |envelope|), the second within D_SLACK.
    Returns (passed, detail), the detail "max envelope excess {x:.3g}" for
    the largest excess of disp_n - d over the envelope k^n (disp_0 - d).
    """
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    _check_point(spec, x0)
    if not (spec.in_a(x0) or spec.in_b(x0)):
        raise InputError(f"x0={x0} lies outside A u B")
    orbit = [tuple(x0)]
    for _ in range(n_max + 1):
        orbit.append(apply_map(spec, orbit[-1]))
    disps = [dist(spec.space, orbit[i], orbit[i + 1]) for i in range(n_max + 1)]
    base_gap = disps[0] - spec.d
    passed = True
    max_excess = float("-inf")
    for n, disp in enumerate(disps):
        envelope = (spec.k ** n) * base_gap
        excess = (disp - spec.d) - envelope
        max_excess = max(max_excess, excess)
        if excess > K_SLACK * (1 + abs(envelope)):
            passed = False
        if disp < spec.d - D_SLACK:
            passed = False
    return passed, f"max envelope excess {max_excess:.3g}"


def verify_period(spec: CyclicMapSpec):
    """Check that T^2 moves no coordinate of the declared best proximity
    point xi by more than XI_PERIOD_SLACK.  Returns (passed, detail), the
    detail "T^2 xi = {T^2 xi}"; ConfigurationError when there is no xi."""
    xi = spec.best_proximity
    if xi is None:
        raise ConfigurationError("the map declares no best proximity point")
    twice = apply_map(spec, apply_map(spec, xi))
    return max(abs(a - b) for a, b in zip(twice, xi)) <= XI_PERIOD_SLACK, f"T^2 xi = {twice}"
