"""l_p geometry of the plane: the norm and the modulus of convexity.

The system has one space, R^2 with the l_p norm, `LpSpace(p)`: p alone
fixes it, and with it every quantity below.  The modulus of
convexity delta_p quantifies how "round" its unit ball is.  Two facts
drive everything downstream:

* for p >= 2 there is a closed form
      delta_p(eps) = 1 - (1 - (eps/2)^p)^(1/p),
  while for 1 < p < 2 delta_p(eps) is the unique root in [0, 1] of
      (1 - d + eps/2)^p + |1 - d - eps/2|^p = 2
  (Hanner, Ark. Mat. 3, 1956), found by Newton's method;

* delta_p is bounded below by a power function C * eps^q (the "power
  type" property), which is what turns the convexity argument into a
  geometric series and hence into computable error bounds.

All arithmetic is plain Python operators (`**`, `abs`, comparisons), so
every function accepts float by default but also works unchanged with
higher-precision number types such as `mpmath.mpf`.  Everything here is a
pure function; concurrent callers need no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import InputError, NumericalError, PreconditionError

Vector = Sequence[float]

#: Newton step below which the implicit-equation root (1 < p < 2 branch)
#: is taken as found.
NEWTON_STEP_TOL = 1e-15
#: Iteration cap for the Newton solve.  It takes at most 28 steps, near
#: eps = 2 where the root turns double; the cap only guards against a defect.
NEWTON_CAP = 100


def check_exponent(p):
    """Raise InputError, naming p, unless p is a finite exponent > 1."""
    if not (p > 1 and math.isfinite(p)):
        raise InputError(f"uniform convexity requires a finite p > 1, got p={p}")


def _significand_bits(one):
    """The significand bits b of one's arithmetic: the least b with
    one + 2^-b == one (53 in float64, the working precision in bits for an
    mpf).  Doubles, then bisects, on exact powers of two."""
    two, lo, hi = one + one, 0, 1  # one + 2^-lo != one throughout
    while one + two ** -hi != one:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if one + two ** -mid == one else (mid, hi)
    return hi


@dataclass(frozen=True)
class LpSpace:
    """The plane R^2 equipped with the l_p norm, p > 1.

    Three fields are derived from p when the space is built, in p's own
    arithmetic (float64, or an mpf at the working precision in force then):
    `one`, `root` = 1/p, and `negligible` = 2^(-(b + 3)/p), where b is the
    arithmetic's significand bits.  A ratio below `negligible` has a p-th
    power below 2^-(b + 3), which cannot move 1 + t off 1, so `lp_norm`
    skips that term.  A space must therefore be built at the precision it
    is used at, as `cyclic.make_example1` and
    `solver.certificate_evaluator` already require; its coordinates are
    numbers of that arithmetic.
    """

    p: float
    one: float = field(init=False, repr=False, compare=False)
    root: float = field(init=False, repr=False, compare=False)
    negligible: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = self.p
        check_exponent(p)
        one = p / p
        bits = _significand_bits(one)
        object.__setattr__(self, "one", one)
        object.__setattr__(self, "root", 1 / p)
        object.__setattr__(self, "negligible", (one + one) ** (-(bits + 3) / p))


@dataclass(frozen=True)
class PowerTypeConstants:
    """Constants (C, q) with delta_p(eps) >= C * eps^q on (0, 2]."""

    C: float
    q: float

    def __post_init__(self):
        if not self.C > 0:
            raise InputError(f"C must be positive, got {self.C}")
        if not self.q >= 2:
            raise InputError(f"q must be >= 2, got {self.q}")


def lp_norm(space: LpSpace, v: Vector):
    """Return (sum |v_i|^p)^(1/p); zero exactly when v is the zero vector,
    inf when a coordinate is infinite, NaN when one is NaN.

    The result is never below max(|v_0|, |v_1|), round-off included: it is
    that coordinate times a factor of at least 1.  That holds where the
    coordinates are numbers of the space's arithmetic (an mpf formed at the
    working precision the space was built at); a coordinate carrying more
    digits is rounded to the working precision, possibly downward.
    `oracle.rederive_distance` skips the norms this floor rules out."""
    try:  # the unpacking checks the length; only a refusal reads len
        a, b = v
    except ValueError:
        raise InputError(f"vector has {len(v)} coordinates, space has dim 2") from None
    # Scaling by the larger coordinate prevents overflow/underflow of the
    # p-th powers.  A NaN in the first slot is the scale, as with max.
    a = abs(a)
    b = abs(b)
    if b > a:
        scale, small = b, a
    else:
        scale, small = a, b
    if not scale:  # scale == 0, for floats and mpfs alike, NaN included
        total = 0 + a + b  # a NaN behind a zero is not a zero norm
        return 0.0 if total == 0 else total
    # The larger term is exactly 1, so an infinite coordinate gives inf,
    # where inf / inf would give NaN.  Below `negligible` the smaller term
    # rounds away and so does the root (1 ** y is 1 in float64 and in
    # mpmath).  The multiply by one is not redundant: abs has already
    # rounded an mpf scale to the working precision, but float coordinates
    # on an mpf space need it for an mpf result, as scale * total ** root
    # gives one.
    if small < scale * space.negligible:
        return scale * space.one
    total = 2.0 if small == scale else space.one + (small / scale) ** space.p
    return scale * total ** space.root


def dist(space: LpSpace, u: Vector, v: Vector):
    """Return ||u - v||_p; InputError, naming both lengths, when u and v
    differ in length (map would drop the extra coordinates)."""
    try:
        (u0, u1), (v0, v1) = u, v
    except ValueError:
        if len(u) != len(v):
            raise InputError(
                f"cannot take the distance of vectors of lengths {len(u)} and {len(v)}"
            ) from None
        raise InputError(f"vector has {len(u)} coordinates, space has dim 2") from None
    return lp_norm(space, (u0 - v0, u1 - v1))


def power_type_constants(p: float) -> PowerTypeConstants:
    """Power-type constants for the canonical l_p norm.

    (C, q) = (1/(p*2^p), p) for p >= 2 and ((p-1)/8, 2) for 1 < p < 2.
    The two branches agree at p = 2, where both give (1/8, 2).  A p whose
    C is 0 in its arithmetic (float64 p above about 1014) is an InputError
    naming p.
    """
    check_exponent(p)
    if p >= 2:
        try:
            C = 1 / (p * 2 ** p)
        except OverflowError:  # 2^p beyond the float64 range
            C = 0.0
        if C == 0:
            raise InputError(
                f"the power-type constant C = 1/(p*2^p) underflows to 0 at p={p}"
            )
        return PowerTypeConstants(C=C, q=p)
    return PowerTypeConstants(C=(p - 1) / 8, q=2.0)


def _implicit_equation(delta, p: float, eps: float):
    """Return g(delta) and -g'(delta)/p for the defining equation of
    delta_p(eps), 1 < p < 2:

        g(d) = (w + h)^p + |w - h|^p - 2,   w = 1 - d,  h = eps/2.

    The slope reuses the two powers, a^(p-1) = a^p / a; the signed base
    w - h carries the sign of its term, which is 0 when w = h.
    """
    w = 1.0 - delta
    h = eps / 2.0
    a = w + h
    b = w - h
    ap = a ** p
    bp = abs(b) ** p
    return ap + bp - 2.0, ap / a + (bp / b if b else 0.0)


def modulus_of_convexity(p: float, eps: float):
    """delta_p(eps) for eps in (0, 2]: InputError naming p unless p is a
    finite exponent > 1, and naming eps unless eps lies in (0, 2] (a NaN
    among them); then the value of `_modulus`.
    """
    check_exponent(p)
    if not (0 < eps <= 2):
        raise InputError(f"eps must lie in (0, 2], got {eps}")
    return _modulus(p, eps)


def _modulus(p, eps):
    """delta_p(eps) for a p already checked (`check_exponent`, as an
    `LpSpace` does) and an eps in (0, 2], which the caller guarantees: a NaN
    or an eps above 2 is not refused here.

    Closed form for p >= 2.  For 1 < p < 2 the root in [0, 1] of
    g(d) = (1 - d + eps/2)^p + |1 - d - eps/2|^p - 2 is found by Newton's
    method from d = 0.  On [0, 1] g is convex and strictly decreasing, and
    g(0) >= 0, so each tangent meets zero between the iterate and the root:
    the iterates climb monotonically to it and, but for round-off, never
    overshoot.  They stop once a step is below NEWTON_STEP_TOL or round-off
    makes g(d) <= 0 (which returns 0 when eps is so small that g(0) rounds
    to 0).  Each step takes two powers; near eps = 2, where the root turns
    double, convergence is linear at first, and at eps = 2 the root d = 1
    is returned exactly.
    """
    if p >= 2:
        u = (eps / 2.0) ** p
        if u >= 1.0:
            return 1.0
        # expm1/log1p keeps full relative accuracy when u is far below
        # machine epsilon (large p, small eps), where the naive form
        # 1 - (1 - u)^(1/p) would round to exactly 0.
        return -math.expm1(math.log1p(-u) / p)
    if eps == 2:
        return 1.0

    delta = 0.0
    for _ in range(NEWTON_CAP):
        g, slope = _implicit_equation(delta, p, eps)
        if g <= 0:
            return delta
        step = g / (p * slope)
        delta += step
        if delta >= 1.0:
            # round-off past a root within an ulp-sized eps of 2
            return 1.0
        if step <= NEWTON_STEP_TOL:
            return delta
    raise NumericalError(
        f"Newton's method for delta_p did not take a step below "
        f"{NEWTON_STEP_TOL} within {NEWTON_CAP} iterations (p={p}, eps={eps})"
    )


def inverse_modulus_bound(t, consts: PowerTypeConstants):
    """Upper bound (t/C)^(1/q) for the inverse modulus delta^{-1}(t).

    Follows from delta(eps) >= C * eps^q: any eps with delta(eps) <= t
    satisfies eps <= (t/C)^(1/q).
    """
    if not t >= 0:
        raise InputError(f"t must be nonnegative, got t={t}")
    return (t / consts.C) ** (1.0 / consts.q)


def _hypothesis_error(distance, u_name, u, v_name, v, claim):
    label = f"||{u_name} - {v_name}||"
    if distance - distance == 0:
        return PreconditionError(f"{label} = {distance} {claim}")
    return InputError(
        f"{label} = {distance}: coordinates and their differences must be "
        f"finite, got {u_name}={u}, {v_name}={v}"
    )


def check_convexity_inequality(
    space: LpSpace,
    x: Vector,
    y: Vector,
    z: Vector,
    R: float,
    r: float,
) -> bool:
    """Check the uniform-convexity inequality for a midpoint.

    For ||x - z|| <= R, ||y - z|| <= R and ||x - y|| >= r with
    r in [0, 2R], uniform convexity forces

        ||(x + y)/2 - z|| <= (1 - delta_p(r/R)) * R.

    The hypotheses are re-verified first, up to a slack of 1e-12 R; a
    violation raises PreconditionError so it can never be mistaken for a
    failure of the inequality itself, and a non-finite R or coordinate
    raises InputError.  Returns True iff the displayed inequality, taken
    at that slack, holds within 1e-9 R.  Both scale with R, as the
    inequality does, so the check can fail at any radius.
    """
    if not (R > 0 and R - R == 0):
        raise InputError(f"R must be finite and positive, got R={R}")
    if not (0 <= r <= 2 * R):
        raise InputError(f"r must lie in [0, 2R]=[0, {2 * R}], got {r}")

    slack = 1e-12 * R
    dxz = dist(space, x, z)
    dyz = dist(space, y, z)
    dxy = dist(space, x, y)
    # A non-finite distance means a non-finite coordinate or difference; a
    # NaN fails each test below and inf the first two.
    if not dxz <= R + slack:
        raise _hypothesis_error(dxz, "x", x, "z", z, f"exceeds R = {R}")
    if not dyz <= R + slack:
        raise _hypothesis_error(dyz, "y", y, "z", z, f"exceeds R = {R}")
    if not dxy >= r - slack:
        raise _hypothesis_error(dxy, "x", x, "y", y, f"is below r = {r}")

    # The hypotheses hold only up to the slack, plus the far smaller
    # round-off of the distances, so the inequality is applied to radius
    # R + 2 slack and separation r - 2 slack: near r = 2R delta is so steep
    # that one ulp of r moves it by a few hundredths (delta_10: 1 -> 0.968).
    # The ratio is clamped to [0, 2] with comparisons, which give min and
    # max's result; 2 is passed only by an infinite r, which 0 <= r <= 2R
    # admits where 2R overflows, and the separation test where x - y does.
    wide = 2 * slack
    ratio = (r - wide) / (R + wide)
    delta = 0.0 if ratio <= 0 else modulus_of_convexity(space.p, 2.0 if ratio > 2.0 else ratio)
    # The midpoint's offset from z sums the halved offsets of x and y, the
    # differences `dist` forms: finite once the hypotheses hold, and exact
    # where a point lies close to z, so the round-off scales with R however
    # far z lies from the origin.  The distances above have checked that
    # x, y and z are points of the plane.
    mid = ((x[0] - z[0]) / 2.0 + (y[0] - z[0]) / 2.0,
           (x[1] - z[1]) / 2.0 + (y[1] - z[1]) / 2.0)
    lhs = lp_norm(space, mid)
    rhs = (1.0 - delta) * (R + wide)
    return lhs <= rhs + 1e-9 * R
