"""Cyclic contraction maps on a pair of sets, plus empirical validators.

A map T : A u B -> A u B is *cyclic* when T(A) is contained in B and
T(B) in A, and a *cyclic contraction* with coefficient k in (0, 1) when

    ||Tx - Ty|| <= k ||x - y|| + (1 - k) d,      x in A, y in B,

where d = dist(A, B).  A `CyclicMapSpec` carries the map together with
its *declared* k and d and membership predicates for A and B.  The
validators below audit those declarations by sampling; inferring k or d
from samples would be ill-posed, so declarations are checked, never
inferred.

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
from dataclasses import dataclass, field
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
    point in A; `oracle.reference_best_proximity` checks it and makes it
    the reference of every true error.
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


def make_example1(params: Example1Params) -> CyclicMapSpec:
    """Build the two-cone benchmark map for the given (lam, p).

    Works verbatim with higher-precision `lam` and point coordinates
    (all closures use only `*`, `+`, `-` and comparisons).  d = 2 for
    every p; the oracle module re-derives it numerically as a cross-check.
    """
    lam = params.lam

    def apply(v: Vector) -> Vector:
        x, y = v
        sign = (x > 0) - (x < 0)
        return (-((1 - lam) * sign + lam * x), -lam * y)

    def in_a(v: Vector) -> bool:
        x, y = v
        return y - x + 1 <= 0 and y + x - 1 >= 0

    def in_b(v: Vector) -> bool:
        x, y = v
        return y - x - 1 >= 0 and y + x + 1 <= 0

    return CyclicMapSpec(
        space=LpSpace(dim=2, p=params.p),
        apply=apply,
        in_a=in_a,
        in_b=in_b,
        k=lam,
        d=2.0,
        box_a=EXAMPLE1_BOX_A,
        box_b=EXAMPLE1_BOX_B,
        best_proximity=(1.0, 0.0),
    )


def apply_map(spec: CyclicMapSpec, x: Vector) -> Vector:
    """Apply T once, after checking the dimension."""
    if len(x) != spec.space.dim:
        raise InputError(
            f"point has {len(x)} coordinates, space has dim {spec.space.dim}"
        )
    return spec.apply(x)


def _check_point(spec: CyclicMapSpec, x0: Vector):
    """Raise InputError, naming x0, unless x0 is a finite point of the
    map's space.  Coordinates may be floats or mpmath numbers."""
    if len(x0) != spec.space.dim:
        raise InputError(
            f"x0={tuple(x0)} has {len(x0)} coordinates, space has dim {spec.space.dim}"
        )
    # c - c is exactly 0 for a finite c of any number type and magnitude
    # (math.isfinite would reject an mpf beyond the float range), nan else.
    if not all(c - c == 0 for c in x0):
        raise InputError(f"x0={tuple(x0)} has a non-finite coordinate")


def check_start(spec: CyclicMapSpec, x0: Vector):
    """Raise InputError, naming x0, unless x0 is a finite point of A in the
    map's space."""
    _check_point(spec, x0)
    if not spec.in_a(x0):
        raise InputError(f"x0={tuple(x0)} is not in A (runs must start in A)")


def sample_points(
    rng: random.Random,
    box: tuple,
    predicate: Callable[[Vector], bool],
    count: int,
) -> list[Vector]:
    """Rejection-sample `count` points of a predicate set inside a box."""
    points = []
    lows, highs = zip(*box)
    for _ in range(count):
        for _attempt in range(SAMPLER_RETRY_CAP):
            candidate = tuple(map(rng.uniform, lows, highs))
            if predicate(candidate):
                points.append(candidate)
                break
        else:
            raise ConfigurationError(
                f"sampler failed to hit the set within {SAMPLER_RETRY_CAP} "
                f"attempts (box={box})"
            )
    return points


def _require_boxes(spec: CyclicMapSpec):
    if spec.box_a is None or spec.box_b is None:
        raise ConfigurationError("map spec has no sampling boxes for A/B")


@dataclass
class CyclicityReport:
    passed: bool
    #: (source set, point, image) for every point whose image landed outside
    #: the opposite set.
    violations: list[tuple[str, Vector, Vector]] = field(default_factory=list)


def verify_cyclicity(spec: CyclicMapSpec, sample_count: int, seed: int) -> CyclicityReport:
    """Check T(A) in B and T(B) in A on sampled points."""
    if sample_count < 1:
        raise InputError("sample_count must be >= 1")
    _require_boxes(spec)
    rng = random.Random(seed)
    violations = []
    for label, box, pred, other in (
        ("A", spec.box_a, spec.in_a, spec.in_b),
        ("B", spec.box_b, spec.in_b, spec.in_a),
    ):
        for point in sample_points(rng, box, pred, sample_count):
            image = apply_map(spec, point)
            if not other(image):
                violations.append((label, point, image))
    return CyclicityReport(
        passed=not violations,
        violations=violations,
    )


@dataclass
class ContractionReport:
    passed: bool
    #: Largest value of ||Tx - Ty|| - (k ||x - y|| + (1 - k) d) over the sample.
    max_violation: float
    worst_pair: tuple[Vector, Vector] | None


def verify_contraction(spec: CyclicMapSpec, sample_count: int, seed: int) -> ContractionReport:
    """Check the contraction inequality on sampled pairs (x in A, y in B).

    A pair passes when the slack ||Tx - Ty|| - (k||x - y|| + (1 - k)d)
    stays below 1e-9 * (1 + ||x - y||); the report carries the largest
    slack seen and the pair that produced it.
    """
    if sample_count < 1:
        raise InputError("sample_count must be >= 1")
    _require_boxes(spec)
    rng = random.Random(seed)
    xs = sample_points(rng, spec.box_a, spec.in_a, sample_count)
    ys = sample_points(rng, spec.box_b, spec.in_b, sample_count)
    max_violation = float("-inf")
    worst = None
    passed = True
    for x, y in zip(xs, ys):
        dxy = dist(spec.space, x, y)
        dtxty = dist(spec.space, apply_map(spec, x), apply_map(spec, y))
        violation = dtxty - (spec.k * dxy + (1 - spec.k) * spec.d)
        if violation > max_violation:
            max_violation = violation
            worst = (x, y)
        if violation > 1e-9 * (1 + dxy):
            passed = False
    return ContractionReport(
        passed=passed,
        max_violation=max_violation,
        worst_pair=worst,
    )


@dataclass
class DisplacementDecayReport:
    passed: bool
    #: Largest excess of (disp_n - d) over the geometric envelope k^n (disp_0 - d).
    max_envelope_excess: float
    min_displacement: float


def displacement_decay_check(spec: CyclicMapSpec, x0: Vector, n_max: int) -> DisplacementDecayReport:
    """Audit the geometric decay of displacement excesses along an orbit.

    Successive displacements of a cyclic contraction satisfy

        ||T^n x - T^{n+1} x|| - d <= k^n (||x - Tx|| - d),

    and, because consecutive iterates lie in opposite sets, every
    displacement is at least d.  Both facts are checked for n = 0..n_max
    within 1e-9 relative tolerance.
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
        if excess > 1e-9 * (1 + abs(envelope)):
            passed = False
        if disp < spec.d - 1e-9:
            passed = False
    return DisplacementDecayReport(
        passed=passed,
        max_envelope_excess=max_excess,
        min_displacement=min(disps),
    )
