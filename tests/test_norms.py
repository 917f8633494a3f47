import contextlib
import math
import random
import sys

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bestprox import (
    Example1Params,
    InputError,
    LpSpace,
    PowerTypeConstants,
    PreconditionError,
    check_convexity_inequality,
    dist,
    inverse_modulus_bound,
    lp_norm,
    modulus_of_convexity,
    power_type_constants,
)
from bestprox import norms
from bestprox.oracle import MODULUS_GRID


#: Exponents of the 1 < p < 2 branch, from near 1 to near 2.
MODULUS_PS = [1.01, 1.1, 1.5, 1.9, 1.99]


def bisect_modulus(p, eps, tol=1e-14):
    """Independent oracle for the 1 < p < 2 modulus: plain bisection on the
    defining equation, written separately from the library routine."""
    def lhs(d):
        return (1 - d + eps / 2) ** p + abs(1 - d - eps / 2) ** p

    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if lhs(mid) > 2:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def reference_lp_norm(space, v):
    """The two-pass form of lp_norm, the reference that lp_norm must match
    bit for bit.  Its terms are added left to right by a loop, not by
    sum(), which from Python 3.12 compensates float sums."""
    p = space.p
    scale = max(abs(c) for c in v)
    if scale == 0:
        return 0.0
    total = 0.0
    for c in v:
        total += (abs(c) / scale) ** p
    return scale * total ** (1 / p)


BIT_EXPONENTS = [1.1, 1.5, 2, 3, 5, 20]
EDGE_COORDS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300, -1e-300,
               1e300, -1e300]
# Differences of these never overflow, so dist stays finite.
BOUNDED_COORDS = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300), st.sampled_from(EDGE_COORDS)
)


@st.composite
def _tied_vectors(draw):
    """Points of the plane whose two coordinates have one magnitude M, with
    either sign."""
    m = draw(st.one_of(
        st.floats(min_value=5e-324, max_value=1e300), st.sampled_from(EDGE_COORDS[2:])
    ))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=2, max_size=2))
    return [s * abs(m) for s in signs]


TIED_VECTORS = _tied_vectors()
#: A larger magnitude, and the fraction of the other coordinate before it is
#: shrunk until its term rounds away beside it.
MAXIMA = st.floats(min_value=1e-300, max_value=1e300)
MINOR_FRACTIONS = st.floats(min_value=0, max_value=1)
#: Points of the plane, and pairs of them, for the bit tests.
PLANE_POINTS = st.lists(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_COORDS)),
    min_size=2, max_size=2,
)
PLANE_PAIRS = st.lists(st.tuples(BOUNDED_COORDS, BOUNDED_COORDS), min_size=2, max_size=2)
#: Vectors each p-instance of a float64 bit test draws (150 per exponent).
FLOAT_DRAWS = 150 // len(BIT_EXPONENTS)


def _lead(p):
    """BIT_EXPONENTS with p first."""
    return [p] + [e for e in BIT_EXPONENTS if e != p]


class TestLpNormBits:
    # The float64 tests below keep one instance per exponent p.  Each draws
    # its own FLOAT_DRAWS vectors and checks every one at all six exponents,
    # p first, so each exponent is checked on the draws of all six
    # instances: 150 vectors, one hypothesis example per vector.

    @pytest.mark.parametrize("p", BIT_EXPONENTS)
    @given(PLANE_POINTS)
    @settings(max_examples=FLOAT_DRAWS)
    def test_float_norm_is_bit_identical(self, p, coords):
        for e in _lead(p):
            space = LpSpace(e)
            assert lp_norm(space, coords) == reference_lp_norm(space, coords), f"p={e}"

    @pytest.mark.parametrize("p", BIT_EXPONENTS)
    @given(PLANE_PAIRS)
    @settings(max_examples=FLOAT_DRAWS)
    def test_float_dist_is_bit_identical(self, p, pairs):
        u, v = [a for a, _ in pairs], [b for _, b in pairs]
        diff = [a - b for a, b in pairs]
        for e in _lead(p):
            space = LpSpace(e)
            assert dist(space, u, v) == reference_lp_norm(space, diff), f"p={e}"

    @pytest.mark.parametrize("dps", [50, 300])
    @pytest.mark.parametrize("p", BIT_EXPONENTS)
    @given(PLANE_PAIRS)
    @settings(max_examples=20, deadline=None)
    def test_mpf_norm_and_dist_are_bit_identical(self, dps, p, pairs):
        with mp.workdps(dps):
            space = LpSpace(mp.mpf(p))
            # thirds and sevenths are not float64 numbers: every digit is used
            u = [mp.mpf(a) / 3 for a, _ in pairs]
            v = [mp.mpf(b) / 7 for _, b in pairs]
            assert lp_norm(space, u) == reference_lp_norm(space, u)
            assert dist(space, u, v) == reference_lp_norm(
                space, [a - b for a, b in zip(u, v)]
            )

    @pytest.mark.parametrize("p", BIT_EXPONENTS)
    @given(TIED_VECTORS)
    @settings(max_examples=FLOAT_DRAWS)
    def test_float_norm_with_a_tied_maximum_is_bit_identical(self, p, coords):
        zero = [0.0, 0.0]
        for e in _lead(p):
            space = LpSpace(e)
            want = reference_lp_norm(space, coords)
            assert lp_norm(space, coords) == want, f"p={e}"
            assert dist(space, coords, zero) == want, f"p={e}"

    @pytest.mark.parametrize("dps", [50, 300])
    @pytest.mark.parametrize("p", BIT_EXPONENTS)
    @given(TIED_VECTORS)
    @settings(max_examples=20, deadline=None)
    def test_mpf_norm_with_a_tied_maximum_is_bit_identical(self, dps, p, coords):
        with mp.workdps(dps):
            space = LpSpace(mp.mpf(p))
            # thirds are not float64 numbers; ties stay exact ties
            u = [mp.mpf(c) / 3 for c in coords]
            v = [mp.mpf(c) / 7 for c in coords]
            w = [a + b for a, b in zip(u, v)]
            assert lp_norm(space, u) == reference_lp_norm(space, u)
            assert dist(space, w, v) == reference_lp_norm(
                space, [a - b for a, b in zip(w, v)]
            )

    @pytest.mark.parametrize("p", BIT_EXPONENTS)
    @given(MAXIMA, MINOR_FRACTIONS, st.booleans())
    @settings(max_examples=FLOAT_DRAWS)
    def test_float_norm_whose_minor_terms_round_away_is_bit_identical(
        self, p, m, fraction, first
    ):
        for e in _lead(p):
            # the other term (c / m)^e is at most about 2^-56, so the sum
            # is exactly 1 in float64
            coords = [m * fraction * 2.0 ** (-56 / e)]
            coords.insert(0 if first else 1, -m)
            space = LpSpace(e)
            assert sum((abs(c) / m) ** e for c in coords) == 1, f"p={e}"
            assert lp_norm(space, coords) == reference_lp_norm(space, coords), f"p={e}"

    @pytest.mark.parametrize("dps", [50, 355])
    @pytest.mark.parametrize("p", BIT_EXPONENTS)
    @given(MAXIMA, MINOR_FRACTIONS, st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_mpf_norm_whose_minor_terms_round_away_is_bit_identical(
        self, dps, p, m, fraction, first
    ):
        with mp.workdps(dps):
            prec = mp.mp.prec
            shrink = mp.mpf(2) ** (-(prec + 3) / mp.mpf(p))
        with mp.workdps(2 * dps):
            # a bit far past the working precision: the norm must round the
            # largest coordinate as the written-out formula does
            top = mp.mpf(m) * (1 + mp.mpf(2) ** -(prec + 10)) / 3
            coords = [top * mp.mpf(fraction) / 7 * shrink]
            coords.insert(0 if first else 1, top)
        with mp.workdps(dps):
            space = LpSpace(mp.mpf(p))
            scale = max(abs(c) for c in coords)
            assert scale != top
            assert sum((abs(c) / scale) ** space.p for c in coords) == 1
            assert lp_norm(space, coords) == reference_lp_norm(space, coords)
            assert dist(space, coords, [0, 0]) == reference_lp_norm(space, coords)

    @pytest.mark.parametrize("v", [(2.0, -2.0), (-1e300, 1e300), (5e-324, -5e-324)])
    def test_listed_ties_are_bit_identical(self, v):
        for p in BIT_EXPONENTS:
            space = LpSpace(p)
            assert lp_norm(space, v) == reference_lp_norm(space, v)
            with mp.workdps(50):
                space = LpSpace(mp.mpf(p))
                u = [mp.mpf(c) for c in v]
                assert lp_norm(space, u) == reference_lp_norm(space, u)

    @pytest.mark.parametrize("num", [float, mp.mpf])
    def test_infinite_coordinate_gives_inf(self, num):
        inf = num("inf")
        with mp.workdps(50):
            for v in [(inf, 0.0), (0.0, -inf), (inf, -inf), (inf, 1e300)]:
                v = tuple(num(c) for c in v)
                assert lp_norm(LpSpace(num(2)), v) == inf
                assert lp_norm(LpSpace(num(20)), v) == inf
            # a difference that overflows float64 is an infinite coordinate
            if num is float:
                assert dist(LpSpace(2), (1e308, 0.0), (-1e308, 0.0)) == inf
            for v in [(inf, num("nan")), (num("nan"), inf), (num("nan"), 1.0)]:
                norm = lp_norm(LpSpace(num(2)), tuple(num(c) for c in v))
                assert norm != norm

    @pytest.mark.parametrize("space", [LpSpace(2), LpSpace(mp.mpf(3))])
    def test_nan_after_a_zero_is_not_a_zero_norm(self, space):
        nan = mp.mpf("nan") if isinstance(space.p, mp.mpf) else float("nan")
        for v in [(0.0, nan), (nan, 0.0), (1.0, nan)]:
            norm = lp_norm(space, v)
            assert norm != norm


#: Coordinates for each slot of a dim-2 vector: NaN and infinities, signed
#: zeros, a subnormal, the top of the range, and pairs of opposite sign, so
#: that the product of the list with itself holds every order of NaN and
#: zero and ties of the largest magnitude.
EDGE_PAIR_COORDS = [float("nan"), 0.0, -0.0, float("inf"), -float("inf"), 5e-324,
                    1e308, -1e308, 1.0, -1.0, 0.3]
EDGE_PAIRS = [(a, b) for a in EDGE_PAIR_COORDS for b in EDGE_PAIR_COORDS]
#: Second operands of dist; their coordinates differ, so a swapped pairing shows.
DIST_OPERANDS = [(0.0, 0.0), (0.5, -0.25), (-3.0, 7.0)]


def reference_with_specials(space, v):
    """reference_lp_norm, extended to the coordinates it leaves out by
    lp_norm's contract: NaN when a coordinate is NaN, else inf when one is
    infinite.  (The two-pass form would give 0 for (0, NaN) and NaN for an
    infinite coordinate.)"""
    for c in v:
        if c != c:
            return c
    for c in v:
        if abs(c) == float("inf"):
            return abs(c)
    return reference_lp_norm(space, v)


class TestTwoCoordinateKernel:
    """lp_norm is one two-coordinate kernel; on every edge pair it must give
    what the two-pass reference gives, to the bit.  Results are compared by
    repr, which tells NaN, inf, the sign of 0.0, float from mpf, and every
    bit of a float or of an mpf at its working precision."""

    @pytest.mark.parametrize("p", BIT_EXPONENTS)
    def test_float_edge_pairs_are_bit_identical(self, p):
        space = LpSpace(p)
        for v in EDGE_PAIRS:
            want = repr(reference_with_specials(space, v))
            assert repr(lp_norm(space, v)) == want, v
            assert repr(lp_norm(space, list(v))) == want, v
            for w in DIST_OPERANDS:
                diff = (v[0] - w[0], v[1] - w[1])
                assert repr(dist(space, v, w)) == repr(reference_with_specials(space, diff)), (v, w)

    @pytest.mark.parametrize("dps", [50, 300])
    @pytest.mark.parametrize("p", BIT_EXPONENTS)
    def test_mpf_edge_pairs_are_bit_identical(self, dps, p):
        with mp.workdps(dps):
            space = LpSpace(mp.mpf(p))
            for a, b in EDGE_PAIRS:
                # thirds are not float64 numbers: every digit is used
                v = (mp.mpf(a) / 3, mp.mpf(b) / 3)
                assert repr(lp_norm(space, v)) == repr(reference_with_specials(space, v)), v
                for w in DIST_OPERANDS:
                    w = (mp.mpf(w[0]) / 7, mp.mpf(w[1]) / 7)
                    diff = (v[0] - w[0], v[1] - w[1])
                    assert repr(dist(space, v, w)) == repr(
                        reference_with_specials(space, diff)
                    ), (v, w)

    @pytest.mark.parametrize("v", [("x",), ("x", "y", "z")])
    def test_other_lengths_are_refused_before_any_unpacking(self, v):
        # abs of a string would raise TypeError, unpacking three ValueError
        with pytest.raises(InputError, match=f"vector has {len(v)} coordinates, space has dim 2"):
            lp_norm(LpSpace(2.0), v)

    def test_dist_refuses_lengths_2_and_3(self):
        with pytest.raises(InputError, match="lengths 2 and 3"):
            dist(LpSpace(2.0), (3.0, 4.0), (0.0, 0.0, 100.0))
        # two points of R^3 would lose their third coordinates
        with pytest.raises(InputError, match="vector has 3 coordinates, space has dim 2"):
            dist(LpSpace(2.0), (3.0, 4.0, 100.0), (0.0, 0.0, 0.0))


#: Exponents of the threshold test, from near 1 to far past the grid's 20.
THRESHOLD_EXPONENTS = [1.01, 1.1, 1.5, 2, 3, 5, 20, 100, 1000]
#: Arithmetics of the threshold test: float64, and mpf at these digits.
THRESHOLD_DIGITS = [None, 50, 300]


def _near_threshold_points(rng, space, bits, count, num):
    """`count` points whose smaller-to-larger ratio r has a p-th power within
    12 bits of 2^-(bits + 3), the threshold below which lp_norm skips the
    smaller term, in random order and signs."""
    p = space.p
    points = []
    for _ in range(count):
        shift = rng.uniform(-12.0, 12.0)
        r = num(2) ** ((shift - bits - 3) / p)
        # an odd multiple of a third is no float64 number: every digit is used
        scale = num(rng.uniform(1e-3, 1e3)) * rng.choice([1, 2, 5]) / 3
        v = [scale * rng.choice([1, -1]), scale * r * rng.choice([1, -1])]
        points.append(tuple(v[::rng.choice([1, -1])]))
    return points


class TestNegligibleTerm:
    """Where the smaller ratio lies below `negligible`, lp_norm returns the
    scale without forming the smaller term; around that threshold it must
    still give the two-pass reference's bits."""

    @pytest.mark.parametrize("dps", THRESHOLD_DIGITS)
    def test_ratios_near_the_threshold_are_bit_identical(self, dps):
        rng = random.Random(26)
        num = mp.mpf if dps else float
        cases = 0
        with mp.workdps(dps) if dps else contextlib.nullcontext():
            for p in THRESHOLD_EXPONENTS:
                space = LpSpace(num(p))
                bits = mp.mp.prec if dps else 53
                for v in _near_threshold_points(rng, space, bits, 74, num):
                    want = repr(reference_with_specials(space, v))
                    assert repr(lp_norm(space, v)) == want, (p, v)
                    cases += 1
        assert cases == 666

    @pytest.mark.parametrize("p", THRESHOLD_EXPONENTS)
    def test_derived_fields_are_formed_at_the_build_precision(self, p):
        space = LpSpace(p)
        assert (space.one, space.root) == (1.0, 1 / p)
        assert space.negligible == 2.0 ** (-(sys.float_info.mant_dig + 3) / p)
        for dps in (15, 50, 300):
            with mp.workdps(dps):
                q = mp.mpf(p)
                space = LpSpace(q)
                want = (mp.mpf(2) ** (-(mp.mp.prec + 3) / q), 1 / q)
            # read at another precision, the fields keep their build bits
            assert (space.negligible, space.root) == want
            assert type(space.one) is mp.mpf and space.one == 1

    @pytest.mark.parametrize("prec", [2, 30, 53, 54, 167, 1000])
    def test_significand_bits_are_the_working_precision(self, prec):
        assert norms._significand_bits(1.0) == 53
        with mp.workprec(prec):
            assert norms._significand_bits(mp.mpf(1)) == prec

    def test_derived_fields_take_no_part_in_equality(self):
        with mp.workdps(50):
            wide = LpSpace(mp.mpf(3))
        assert wide == LpSpace(mp.mpf(3)) and hash(wide) == hash(LpSpace(mp.mpf(3)))
        assert repr(LpSpace(3.0)) == "LpSpace(p=3.0)"

    @pytest.mark.parametrize("v", [(1.0, 0.0), (0.0, -3.0), (2.0, 1e-300), (mp.mpf(1), 0.0)])
    def test_a_skipped_term_keeps_the_result_type_of_the_space(self, v):
        # float coordinates on an mpf space gave an mpf before the skip
        with mp.workdps(50):
            space = LpSpace(mp.mpf(3))
            assert type(lp_norm(space, v)) is mp.mpf
        assert type(lp_norm(LpSpace(3.0), tuple(map(float, v)))) is float


#: Exponents of the floor tests, from the least float64 p above 1 to 1013.
FLOOR_PS = st.one_of(
    st.floats(min_value=1 + 2.0 ** -52, max_value=1013), st.sampled_from([1 + 2.0 ** -52, 1013.0])
)
FLOOR_COORDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_COORDS + [1e308, -1e308])
)


@st.composite
def _floor_vectors(draw):
    """Points of the plane: two drawn coordinates, or a coordinate and one a
    few ulps from it, of either sign."""
    a = draw(FLOOR_COORDS)
    if draw(st.booleans()):
        return a, draw(FLOOR_COORDS)
    b, ulps = a, draw(st.integers(-4, 4))
    for _ in range(abs(ulps)):
        b = math.nextafter(b, math.copysign(math.inf, ulps))
    return a, draw(st.sampled_from([1.0, -1.0])) * b


FLOOR_VECTORS = _floor_vectors()


class TestLpNorm:
    def test_pythagorean(self):
        assert lp_norm(LpSpace(2), (3.0, 4.0)) == 5.0

    def test_single_coordinate(self):
        assert lp_norm(LpSpace(7), (2.0, 0.0)) == 2.0

    def test_benchmark_displacement(self):
        # ||x0 - Tx0||_2 for the benchmark start; frozen from a 50-digit
        # evaluation of sqrt(1500.5^2 + 12^2).
        assert lp_norm(LpSpace(2), (1500.5, 12.0)) == pytest.approx(
            1500.5479832381236, abs=1e-9
        )

    def test_zero_iff_zero_vector(self):
        assert lp_norm(LpSpace(1.5), (0.0, 0.0)) == 0.0
        assert lp_norm(LpSpace(1.5), (0.0, 1e-300)) > 0.0
        assert lp_norm(LpSpace(1.5), (1e-300, -0.0)) > 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            lp_norm(LpSpace(2), (1.0, 2.0, 3.0))

    def test_distance_of_vectors_of_unequal_length_names_both_lengths(self):
        # map(sub, u, v) alone would stop at the shorter vector and give 5.0
        with pytest.raises(InputError, match="lengths 3 and 2"):
            dist(LpSpace(2.0), (3.0, 4.0, 100.0), (0.0, 0.0))

    def test_space_validation(self):
        with pytest.raises(InputError):
            LpSpace(1.0)
        # the plane is the only space: p alone builds it
        with pytest.raises(TypeError):
            LpSpace(2, 2.0)

    @pytest.mark.parametrize("p", [1.0, float("inf"), float("nan")])
    @pytest.mark.parametrize("build", [
        lambda p: LpSpace(p),
        lambda p: Example1Params(0.5, p),
        power_type_constants,
        lambda p: modulus_of_convexity(p, 1.0),
    ])
    def test_every_entry_point_rejects_bad_p_by_name(self, build, p):
        with pytest.raises(InputError, match=f"p={p}"):
            build(p)

    @given(
        st.floats(min_value=1.01, max_value=30),
        st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=2),
    )
    def test_homogeneity(self, p, coords):
        space = LpSpace(p)
        doubled = lp_norm(space, [2 * c for c in coords])
        assert doubled == pytest.approx(2 * lp_norm(space, coords), rel=1e-12, abs=1e-12)

    @given(FLOOR_PS, FLOOR_VECTORS)
    def test_norm_is_never_below_the_larger_coordinate(self, p, v):
        # the floor that lets oracle.rederive_distance skip a trial whose
        # larger gap is not below the best distance so far
        assert lp_norm(LpSpace(p), v) >= max(abs(v[0]), abs(v[1]))

    @given(FLOOR_PS, FLOOR_VECTORS)
    @settings(max_examples=50, deadline=None)
    def test_mpf_norm_is_never_below_the_larger_coordinate(self, p, v):
        with mp.workdps(60):
            space = LpSpace(mp.mpf(p))
            # thirds are not float64 numbers, and are formed at 60 digits as
            # the space's coordinates must be; equal pairs stay equal
            u = (mp.mpf(v[0]) / 3, mp.mpf(v[1]) / 3)
            assert lp_norm(space, u) >= max(abs(u[0]), abs(u[1]))


class TestModulusOfConvexity:
    def test_endpoint_p2(self):
        assert modulus_of_convexity(2, 2) == 1.0

    def test_closed_form_p2(self):
        # 1 - sqrt(3)/2
        assert modulus_of_convexity(2, 1) == pytest.approx(
            0.13397459621556135, abs=1e-12
        )

    def test_small_p_against_independent_bisection(self):
        got = modulus_of_convexity(1.5, 1)
        assert got == pytest.approx(bisect_modulus(1.5, 1), abs=1e-11)
        assert got == pytest.approx(0.06712261032901617, abs=1e-10)

    @pytest.mark.parametrize("p", [1.01, 1.1, 1.5, 1.9])
    def test_exactly_one_at_the_diameter(self, p):
        assert modulus_of_convexity(p, 2.0) == 1.0

    @pytest.mark.parametrize("p", MODULUS_PS)
    def test_at_most_the_hilbert_modulus(self, p):
        # Nordlander (Ark. Mat. 4, 1960): no space is more convex than a
        # Hilbert space, delta_p <= delta_2, down to eps = 1e-300
        for k in range(1, 301):
            eps = 10.0 ** -k
            assert 0 <= modulus_of_convexity(p, eps) <= modulus_of_convexity(2, eps) + 1e-15

    # The grid ends at eps = 2, where the root is double and bisection
    # stops short of it; test_exactly_one_at_the_diameter covers that point.
    @pytest.mark.parametrize("p", MODULUS_PS)
    def test_agrees_with_independent_bisection_on_the_grid(self, p):
        for eps in MODULUS_GRID[:-1]:
            assert modulus_of_convexity(p, eps) == pytest.approx(
                bisect_modulus(p, eps), abs=1e-12
            )

    # Near eps = 2 the root turns double, so the round-off of the float64
    # equation moves it by (round-off) / |slope|: at p = 1.01 and
    # eps = 2 - 1e-6 the two solvers lie within 2e-12 of a 50-digit root,
    # on opposite sides of it.  Within 1e-4 of 2 they are held to 1e-11.
    @given(st.sampled_from(MODULUS_PS), st.floats(min_value=1e-300, max_value=2 - 1e-6))
    @settings(max_examples=300)
    def test_agrees_with_independent_bisection(self, p, eps):
        assert modulus_of_convexity(p, eps) == pytest.approx(
            bisect_modulus(p, eps), abs=1e-12 if eps <= 2 - 1e-4 else 1e-11
        )

    def test_newton_step_count_is_bounded(self, monkeypatch):
        steps = []
        equation = norms._implicit_equation

        def counted(*args):
            steps[-1] += 1
            return equation(*args)

        monkeypatch.setattr(norms, "_implicit_equation", counted)
        near_two = tuple(2.0 - 2.0 ** -k for k in range(1, 53))
        for p in MODULUS_PS:
            for eps in MODULUS_GRID[:-1] + near_two:
                steps.append(0)
                modulus_of_convexity(p, eps)
        # 28 at most, just below eps = 2, where the root turns double and
        # convergence is linear; bisection to 1e-12 took 40
        assert max(steps) <= 30
        assert sum(steps) / len(steps) <= 6

    def test_small_p_residual(self):
        for eps in (0.1, 0.5, 1.0, 1.7, 2.0):
            for p in (1.1, 1.5, 1.9):
                d = modulus_of_convexity(p, eps)
                residual = (1 - d + eps / 2) ** p + abs(1 - d - eps / 2) ** p - 2
                assert abs(residual) <= 1e-10

    @pytest.mark.parametrize("p", [*MODULUS_PS, 2.0, 3.0, 5.0, 20.0])
    def test_core_equals_the_public_function_bit_for_bit(self, p):
        # the proof-chain audit reads the core without the public checks
        assert [norms._modulus(p, eps).hex() for eps in MODULUS_GRID] == [
            modulus_of_convexity(p, eps).hex() for eps in MODULUS_GRID
        ]

    @pytest.mark.parametrize("p, eps, named", [
        (1.0, 1.0, r"p=1\.0"),
        (float("nan"), 1.0, r"p=nan"),
        (float("inf"), 1.0, r"p=inf"),
        (2.0, 0.0, r"eps must lie in \(0, 2\], got 0\.0"),
        (1.5, 2.0000001, r"eps must lie in \(0, 2\], got 2\.0000001"),
        (1.5, float("nan"), r"eps must lie in \(0, 2\], got nan"),
        (2.0, float("nan"), r"eps must lie in \(0, 2\], got nan"),
    ])
    def test_the_public_function_refuses_naming_p_or_eps(self, p, eps, named):
        with pytest.raises(InputError, match=named):
            modulus_of_convexity(p, eps)

    def test_domain_errors(self):
        with pytest.raises(InputError):
            modulus_of_convexity(2, 0)
        with pytest.raises(InputError):
            modulus_of_convexity(2, 2.0000001)
        with pytest.raises(InputError):
            modulus_of_convexity(1.0, 1)

    def test_no_collapse_for_large_p(self):
        # (eps/2)^p far below machine epsilon must still give a positive,
        # strictly increasing modulus.
        small = modulus_of_convexity(20, 0.002)
        larger = modulus_of_convexity(20, 0.004)
        assert 0 < small < larger

    @given(
        st.floats(min_value=1.01, max_value=25),
        st.floats(min_value=1e-3, max_value=2.0),
        st.floats(min_value=1e-3, max_value=2.0),
    )
    @settings(max_examples=150)
    def test_strictly_increasing(self, p, e1, e2):
        assume(abs(e2 - e1) > 1e-4)
        lo, hi = min(e1, e2), max(e1, e2)
        assert modulus_of_convexity(p, lo) < modulus_of_convexity(p, hi)

    @given(
        st.floats(min_value=1.01, max_value=25),
        st.floats(min_value=1e-3, max_value=2.0),
    )
    @settings(max_examples=200)
    def test_power_type_domination(self, p, eps):
        consts = power_type_constants(p)
        # absolute slack: the bound is tight as eps -> 0
        assert modulus_of_convexity(p, eps) >= consts.C * eps ** consts.q - 1e-12


class TestPowerTypeConstants:
    def test_p2(self):
        consts = power_type_constants(2)
        assert consts.C == pytest.approx(0.125) and consts.q == 2

    def test_p3(self):
        consts = power_type_constants(3)
        assert consts.C == pytest.approx(1 / 24) and consts.q == 3

    def test_small_p(self):
        consts = power_type_constants(1.5)
        assert consts.C == pytest.approx(1 / 16) and consts.q == 2

    def test_branches_agree_at_two(self):
        eps = 1e-9
        below = power_type_constants(2 - eps)
        at = power_type_constants(2)
        assert below.q == 2 == at.q
        assert below.C == pytest.approx(at.C, rel=1e-8)

    def test_validation(self):
        with pytest.raises(InputError):
            power_type_constants(1.0)
        with pytest.raises(InputError):
            PowerTypeConstants(C=0.0, q=2)
        with pytest.raises(InputError):
            PowerTypeConstants(C=0.1, q=1.5)

    @pytest.mark.parametrize("p", [1015.0, 1023.0, 1024.0, 1100.0])
    def test_float64_c_below_range_names_p(self, p):
        # 1015 <= p < 1024: p * 2^p overflows to inf and C to 0; p >= 1024:
        # 2^p itself overflows
        with pytest.raises(InputError, match=f"p={p}"):
            power_type_constants(p)

    def test_positive_c_at_float64_p_1014_and_mpmath_p_1100(self):
        assert power_type_constants(1014.0).C > 0
        consts = power_type_constants(mp.mpf(1100))
        assert consts.C == 1 / (1100 * mp.mpf(2) ** 1100) and consts.q == 1100


class TestInverseModulusBound:
    def test_zero(self):
        assert inverse_modulus_bound(0, PowerTypeConstants(0.125, 2)) == 0.0

    def test_unit(self):
        assert inverse_modulus_bound(0.125, PowerTypeConstants(0.125, 2)) == pytest.approx(1.0)

    def test_cube_root(self):
        got = inverse_modulus_bound(0.5, PowerTypeConstants(1 / 24, 3))
        assert got == pytest.approx(2.2894284851066637, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            inverse_modulus_bound(-1e-9, PowerTypeConstants(0.125, 2))

    def test_nan_rejected_naming_t(self):
        with pytest.raises(InputError, match="t=nan"):
            inverse_modulus_bound(float("nan"), PowerTypeConstants(0.125, 2))

    @given(
        st.floats(min_value=1.01, max_value=25),
        st.floats(min_value=1e-3, max_value=2.0),
    )
    @settings(max_examples=200)
    def test_inverts_the_power_bound(self, p, eps):
        consts = power_type_constants(p)
        t = consts.C * eps ** consts.q
        assert inverse_modulus_bound(t, consts) == pytest.approx(eps, abs=1e-12)


class TestConvexityInequality:
    def test_degenerate_origin(self):
        x, y, z = (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)
        assert check_convexity_inequality(LpSpace(2), x, y, z, R=1.0, r=0.0)

    def test_equality_at_diameter(self):
        x, y, z = (1.0, 0.0), (-1.0, 0.0), (0.0, 0.0)
        assert check_convexity_inequality(LpSpace(2), x, y, z, R=1.0, r=2.0)

    def test_one_ulp_of_r_at_the_diameter_is_not_a_violation(self):
        # ||y|| = (2^-50 + 1)^(1/10) rounds to 1 and ||x - y|| rounds to 2R,
        # where delta_10 = 1; one ulp below 2R it is 0.968.  The check applies
        # the inequality at its slack, so the rounding cannot fail it.
        space = LpSpace(10.0)
        x, y, z = (0.0, -1.0), (0.03125, 1.0), (0.0, 0.0)
        assert dist(space, x, y) == 2.0
        assert check_convexity_inequality(space, x, y, z, R=1.0, r=2.0)

    @pytest.mark.parametrize("shift", [1e308, -1e308])
    def test_midpoint_of_far_points_agrees_with_the_origin(self, shift):
        # the distances are 0.5, 0.5 and 1 in both triples; (a + b) / 2 of
        # the far first coordinates overflows to inf and failed the check
        space = LpSpace(2.0)
        far = (shift, 0.0), (shift, 1.0), (shift, 0.5)
        near = (0.0, 0.0), (0.0, 1.0), (0.0, 0.5)
        assert check_convexity_inequality(space, *far, 1.0, 1.0)
        assert check_convexity_inequality(space, *near, 1.0, 1.0)

    @pytest.mark.parametrize("R", [1e-300, 0.5, 1.0, 3.0, 1e300, 8e307, 1e308])
    def test_r_at_the_diameter_holds_at_every_scale(self, R):
        # at R = 1e308, 2R and x - y overflow, so r = inf is admitted and
        # separated, and the check clamps the ratio to 2 for the modulus
        space = LpSpace(2)
        x, y, z = (R, 0.0), (-R, 0.0), (0.0, 0.0)
        assert dist(space, x, y) == 2 * R
        assert check_convexity_inequality(space, x, y, z, R=R, r=2 * R)

    def test_point_with_an_extra_coordinate_is_an_input_error(self):
        # the third coordinate of x would be dropped, and the check pass
        with pytest.raises(InputError, match="lengths 3 and 2"):
            check_convexity_inequality(
                LpSpace(2.0), (0.5, 0.0, 9.0), (-0.5, 0.0), (0.0, 0.0), 1.0, 1.0
            )

    @pytest.mark.parametrize("R", [1e-9, 0.5, 1.0, 1e6])
    def test_hypotheses_hold_to_the_slack_and_no_further(self, R):
        # the slack is 1e-12 * R; four slacks past R or below r is a
        # violated hypothesis, half a slack is not
        space, slack, z = LpSpace(2), 1e-12 * R, (0.0, 0.0)
        assert check_convexity_inequality(space, (R + slack / 2, 0.0), z, z, R=R, r=0.0)
        with pytest.raises(PreconditionError, match="exceeds R"):
            check_convexity_inequality(space, (R + 4 * slack, 0.0), z, z, R=R, r=0.0)
        x, y = (R / 2, 0.0), (-R / 2, 0.0)
        assert check_convexity_inequality(space, x, y, z, R=R, r=R + slack / 2)
        with pytest.raises(PreconditionError, match="is below r"):
            check_convexity_inequality(space, x, y, z, R=R, r=R + 4 * slack)

    @pytest.mark.parametrize("eps", [0.25, 1.0])
    def test_a_modulus_overstated_by_1e_6_fails_at_an_extremal_pair(self, monkeypatch, eps):
        # for p >= 2, x = (a, eps/2) and y = (a, -eps/2) with
        # a = (1 - (eps/2)^p)^(1/p) are unit vectors whose midpoint has norm
        # exactly 1 - delta_p(eps); the check's tolerance is 1e-9 of R
        space = LpSpace(4.0)
        a = (1 - (eps / 2) ** 4) ** 0.25
        x, y, z = (a, eps / 2), (a, -eps / 2), (0.0, 0.0)
        assert check_convexity_inequality(space, x, y, z, R=1.0, r=eps)
        modulus = norms.modulus_of_convexity
        monkeypatch.setattr(norms, "modulus_of_convexity", lambda p, e: modulus(p, e) + 1e-6)
        assert not check_convexity_inequality(space, x, y, z, R=1.0, r=eps)

    @pytest.mark.parametrize("R", [1.0, 1e-3, 1e-9, 1e-10])
    def test_a_modulus_of_1_fails_at_every_radius(self, monkeypatch, R):
        # a modulus of 1 claims every midpoint is the centre; the midpoint of
        # (R, 0) and (0, R) is not, and the tolerance, 1e-9 R, scales with
        # the inequality, so the check fails at small R too
        monkeypatch.setattr(norms, "modulus_of_convexity", lambda p, e: 1.0)
        x, y, z = (R, 0.0), (0.0, R), (0.0, 0.0)
        assert not check_convexity_inequality(LpSpace(2), x, y, z, R=R, r=1.4 * R)

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("z, scale", [((1000.0, -7.0), 1e-9), ((5.0, 0.0), 1e-12)])
    @pytest.mark.parametrize("on_sphere", [False, True])
    def test_admissible_triples_pass_at_small_radii_far_from_the_origin(
        self, p, z, scale, on_sphere
    ):
        # the slack and the tolerance scale with R, yet coordinates far larger
        # than R raise no false violation, even for points on the sphere,
        # where the inequality is tightest; R is the larger computed
        # distance from z, so every triple is admissible
        space, rng = LpSpace(p), random.Random(5)

        def ball_point():
            a = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            s = scale * (1.0 if on_sphere else rng.random()) / lp_norm(space, a)
            return (z[0] + s * a[0], z[1] + s * a[1])

        for _ in range(2000):
            x, y = ball_point(), ball_point()
            R = max(dist(space, x, z), dist(space, y, z))
            r = min(dist(space, x, y), 2 * R)
            assert check_convexity_inequality(space, x, y, z, R=R, r=r), (x, y)

    def test_precondition_violation_is_distinct(self):
        x, y, z = (5.0, 0.0), (0.0, 0.0), (0.0, 0.0)
        with pytest.raises(PreconditionError):
            check_convexity_inequality(LpSpace(2), x, y, z, R=1.0, r=0.5)

    def test_bad_radius_inputs(self):
        space = LpSpace(2)
        with pytest.raises(InputError):
            check_convexity_inequality(space, (0, 0), (0, 0), (0, 0), R=0.0, r=0.0)
        with pytest.raises(InputError):
            check_convexity_inequality(space, (0, 0), (0, 0), (0, 0), R=1.0, r=2.5)

    @pytest.mark.parametrize("R", [float("inf"), float("nan")])
    def test_non_finite_radius_is_an_input_error_naming_it(self, R):
        space = LpSpace(2)
        with pytest.raises(InputError, match=f"R={R}"):
            check_convexity_inequality(space, (0, 0), (0, 0), (0, 0), R=R, r=0.0)

    @pytest.mark.parametrize("x, y, z", [
        ((float("nan"), 0.0), (0.0, 0.0), (0.0, 0.0)),
        ((0.0, 0.0), (0.0, float("nan")), (0.0, 0.0)),
        ((0.0, 0.0), (0.0, 0.0), (float("nan"), 0.0)),
        # a NaN behind a zero coordinate, which max() alone would skip
        ((0.0, float("nan")), (0.0, float("nan")), (0.0, 0.0)),
        ((float("inf"), 0.0), (0.0, 0.0), (0.0, 0.0)),
        ((0.0, 0.0), (float("-inf"), 0.0), (0.0, 0.0)),
    ])
    def test_non_finite_coordinate_is_an_input_error_naming_it(self, x, y, z):
        space = LpSpace(2)
        with pytest.raises(InputError, match=r"must be finite, got .*(nan|inf)"):
            check_convexity_inequality(space, x, y, z, R=1.0, r=0.0)

    def test_overflowing_difference_is_an_input_error_naming_it(self):
        # finite coordinates whose difference overflows give an infinite
        # distance, named as an input error rather than a violated hypothesis
        x, y, z = (1e308, 0.0), (0.0, 0.0), (-1e308, 0.0)
        with pytest.raises(InputError, match=r"\|\|x - z\|\| = inf.*must be finite"):
            check_convexity_inequality(LpSpace(2), x, y, z, R=1.0, r=0.0)

    @given(
        st.floats(min_value=1.05, max_value=25),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=0.2, max_value=2.0),
        st.floats(min_value=-1, max_value=1),
        st.floats(min_value=-1, max_value=1),
        st.floats(min_value=-1, max_value=1),
        st.floats(min_value=-1, max_value=1),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=300)
    def test_holds_on_admissible_data(self, p, zx, zy, R, ux, uy, vx, vy, su, sv):
        space = LpSpace(p)
        z = (zx, zy)

        def ball_point(cx, cy, scale):
            nrm = lp_norm(space, (cx, cy))
            if nrm < 1e-100:  # degenerate direction: collapse to the center
                return z
            factor = R * scale / nrm
            return (zx + factor * cx, zy + factor * cy)

        x = ball_point(ux, uy, su)
        y = ball_point(vx, vy, sv)
        r = dist(space, x, y)
        assert check_convexity_inequality(space, x, y, z, R=R, r=min(r, 2 * R))
