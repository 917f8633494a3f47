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
    """The two-pass generator form of lp_norm, the reference that lp_norm
    must match bit for bit."""
    p = space.p
    scale = max(abs(c) for c in v)
    if scale == 0:
        return 0.0
    return scale * sum((abs(c) / scale) ** p for c in v) ** (1 / p)


BIT_EXPONENTS = [1.1, 1.5, 2, 3, 5, 20]
EDGE_COORDS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300, -1e-300,
               1e300, -1e300]
# Differences of these never overflow, so dist stays finite.
BOUNDED_COORDS = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300), st.sampled_from(EDGE_COORDS)
)


@st.composite
def _tied_vectors(draw):
    """Vectors of dim 1-5 whose largest magnitude M appears at least twice
    (once in dim 1), with both signs, beside smaller coordinates."""
    m = draw(st.one_of(
        st.floats(min_value=5e-324, max_value=1e300), st.sampled_from(EDGE_COORDS[2:])
    ))
    m = abs(m)
    dim = draw(st.integers(min_value=1, max_value=5))
    ties = min(dim, draw(st.integers(min_value=2, max_value=5)))
    rest = draw(st.lists(st.floats(min_value=0, max_value=1), min_size=dim - ties,
                         max_size=dim - ties))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=dim, max_size=dim))
    coords = [m] * ties + [m * f for f in rest]
    return draw(st.permutations([s * c for s, c in zip(signs, coords)]))


TIED_VECTORS = _tied_vectors()


class TestLpNormBits:
    @pytest.mark.parametrize("p", BIT_EXPONENTS)
    @given(st.lists(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_COORDS)),
        min_size=1, max_size=5,
    ))
    @settings(max_examples=150)
    def test_float_norm_is_bit_identical(self, p, coords):
        space = LpSpace(len(coords), p)
        assert lp_norm(space, coords) == reference_lp_norm(space, coords)

    @pytest.mark.parametrize("p", BIT_EXPONENTS)
    @given(st.lists(st.tuples(BOUNDED_COORDS, BOUNDED_COORDS), min_size=1, max_size=5))
    @settings(max_examples=150)
    def test_float_dist_is_bit_identical(self, p, pairs):
        space = LpSpace(len(pairs), p)
        u, v = [a for a, _ in pairs], [b for _, b in pairs]
        assert dist(space, u, v) == reference_lp_norm(space, [a - b for a, b in pairs])

    @pytest.mark.parametrize("dps", [50, 300])
    @pytest.mark.parametrize("p", BIT_EXPONENTS)
    @given(st.lists(st.tuples(BOUNDED_COORDS, BOUNDED_COORDS), min_size=1, max_size=5))
    @settings(max_examples=20, deadline=None)
    def test_mpf_norm_and_dist_are_bit_identical(self, dps, p, pairs):
        with mp.workdps(dps):
            space = LpSpace(len(pairs), mp.mpf(p))
            # thirds and sevenths are not float64 numbers: every digit is used
            u = [mp.mpf(a) / 3 for a, _ in pairs]
            v = [mp.mpf(b) / 7 for _, b in pairs]
            assert lp_norm(space, u) == reference_lp_norm(space, u)
            assert dist(space, u, v) == reference_lp_norm(
                space, [a - b for a, b in zip(u, v)]
            )

    @pytest.mark.parametrize("p", BIT_EXPONENTS)
    @given(TIED_VECTORS)
    @settings(max_examples=150)
    def test_float_norm_with_a_tied_maximum_is_bit_identical(self, p, coords):
        space = LpSpace(len(coords), p)
        assert lp_norm(space, coords) == reference_lp_norm(space, coords)
        assert dist(space, coords, [0.0] * len(coords)) == reference_lp_norm(space, coords)

    @pytest.mark.parametrize("dps", [50, 300])
    @pytest.mark.parametrize("p", BIT_EXPONENTS)
    @given(TIED_VECTORS)
    @settings(max_examples=20, deadline=None)
    def test_mpf_norm_with_a_tied_maximum_is_bit_identical(self, dps, p, coords):
        with mp.workdps(dps):
            space = LpSpace(len(coords), mp.mpf(p))
            # thirds are not float64 numbers; ties stay exact ties
            u = [mp.mpf(c) / 3 for c in coords]
            v = [mp.mpf(c) / 7 for c in coords]
            w = [a + b for a, b in zip(u, v)]
            assert lp_norm(space, u) == reference_lp_norm(space, u)
            assert dist(space, w, v) == reference_lp_norm(
                space, [a - b for a, b in zip(w, v)]
            )

    @pytest.mark.parametrize("v", [(2.0, -2.0, 1 / 3), (-1e300, 1e300), (5e-324, -5e-324, 0.0)])
    def test_listed_ties_are_bit_identical(self, v):
        for p in BIT_EXPONENTS:
            space = LpSpace(len(v), p)
            assert lp_norm(space, v) == reference_lp_norm(space, v)
            with mp.workdps(50):
                space = LpSpace(len(v), mp.mpf(p))
                u = [mp.mpf(c) for c in v]
                assert lp_norm(space, u) == reference_lp_norm(space, u)

    @pytest.mark.parametrize("num", [float, mp.mpf])
    def test_infinite_coordinate_gives_inf(self, num):
        inf = num("inf")
        with mp.workdps(50):
            for v in [(inf, 0.0), (0.0, -inf), (inf, -inf), (inf, 1e300)]:
                v = tuple(num(c) for c in v)
                assert lp_norm(LpSpace(2, num(2)), v) == inf
                assert lp_norm(LpSpace(2, num(20)), v) == inf
            # a difference that overflows float64 is an infinite coordinate
            if num is float:
                assert dist(LpSpace(2, 2), (1e308, 0.0), (-1e308, 0.0)) == inf
            for v in [(inf, num("nan")), (num("nan"), inf), (num("nan"), 1.0)]:
                norm = lp_norm(LpSpace(2, num(2)), tuple(num(c) for c in v))
                assert norm != norm

    @pytest.mark.parametrize("space", [LpSpace(2, 2), LpSpace(2, mp.mpf(3))])
    def test_nan_after_a_zero_is_not_a_zero_norm(self, space):
        nan = mp.mpf("nan") if isinstance(space.p, mp.mpf) else float("nan")
        for v in [(0.0, nan), (nan, 0.0), (1.0, nan)]:
            norm = lp_norm(space, v)
            assert norm != norm


class TestLpNorm:
    def test_pythagorean(self):
        assert lp_norm(LpSpace(2, 2), (3.0, 4.0)) == 5.0

    def test_single_coordinate(self):
        assert lp_norm(LpSpace(2, 7), (2.0, 0.0)) == 2.0

    def test_benchmark_displacement(self):
        # ||x0 - Tx0||_2 for the benchmark start; frozen from a 50-digit
        # evaluation of sqrt(1500.5^2 + 12^2).
        assert lp_norm(LpSpace(2, 2), (1500.5, 12.0)) == pytest.approx(
            1500.5479832381236, abs=1e-9
        )

    def test_zero_iff_zero_vector(self):
        assert lp_norm(LpSpace(3, 1.5), (0.0, 0.0, 0.0)) == 0.0
        assert lp_norm(LpSpace(3, 1.5), (0.0, 1e-300, 0.0)) > 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            lp_norm(LpSpace(2, 2), (1.0, 2.0, 3.0))

    def test_space_validation(self):
        with pytest.raises(InputError):
            LpSpace(2, 1.0)
        with pytest.raises(InputError):
            LpSpace(0, 2.0)

    @pytest.mark.parametrize("p", [1.0, float("inf"), float("nan")])
    @pytest.mark.parametrize("build", [
        lambda p: LpSpace(2, p),
        lambda p: Example1Params(0.5, p),
        power_type_constants,
        lambda p: modulus_of_convexity(p, 1.0),
    ])
    def test_every_entry_point_rejects_bad_p_by_name(self, build, p):
        with pytest.raises(InputError, match=f"p={p}"):
            build(p)

    @given(
        st.floats(min_value=1.01, max_value=30),
        st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=5),
    )
    def test_homogeneity(self, p, coords):
        space = LpSpace(len(coords), p)
        doubled = lp_norm(space, [2 * c for c in coords])
        assert doubled == pytest.approx(2 * lp_norm(space, coords), rel=1e-12, abs=1e-12)


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
        space = LpSpace(2, 2)
        zero = (0.0, 0.0)
        assert check_convexity_inequality(space, zero, zero, zero, R=1.0, r=0.0)

    def test_equality_at_diameter(self):
        space = LpSpace(2, 2)
        assert check_convexity_inequality(
            space, (1.0, 0.0), (-1.0, 0.0), (0.0, 0.0), R=1.0, r=2.0
        )

    def test_one_ulp_of_r_at_the_diameter_is_not_a_violation(self):
        # ||y|| = (2^-50 + 1)^(1/10) rounds to 1 and ||x - y|| rounds to 2R,
        # where delta_10 = 1; one ulp below 2R it is 0.968.  The check applies
        # the inequality at its slack, so the rounding cannot fail it.
        space = LpSpace(2, 10.0)
        x, y, z = (0.0, -1.0), (0.03125, 1.0), (0.0, 0.0)
        assert dist(space, x, y) == 2.0
        assert check_convexity_inequality(space, x, y, z, R=1.0, r=2.0)

    def test_precondition_violation_is_distinct(self):
        space = LpSpace(2, 2)
        with pytest.raises(PreconditionError):
            check_convexity_inequality(
                space, (5.0, 0.0), (0.0, 0.0), (0.0, 0.0), R=1.0, r=0.5
            )

    def test_bad_radius_inputs(self):
        space = LpSpace(2, 2)
        with pytest.raises(InputError):
            check_convexity_inequality(space, (0, 0), (0, 0), (0, 0), R=0.0, r=0.0)
        with pytest.raises(InputError):
            check_convexity_inequality(space, (0, 0), (0, 0), (0, 0), R=1.0, r=2.5)

    @pytest.mark.parametrize("R", [float("inf"), float("nan")])
    def test_non_finite_radius_is_an_input_error_naming_it(self, R):
        space = LpSpace(2, 2)
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
        space = LpSpace(2, 2)
        with pytest.raises(InputError, match=r"must be finite, got .*(nan|inf)"):
            check_convexity_inequality(space, x, y, z, R=1.0, r=0.0)

    def test_overflowing_difference_is_an_input_error_naming_it(self):
        # finite coordinates whose difference overflows give an infinite
        # distance, named as an input error rather than a violated hypothesis
        space = LpSpace(2, 2)
        with pytest.raises(InputError, match=r"\|\|x - z\|\| = inf.*must be finite"):
            check_convexity_inequality(
                space, (1e308, 0.0), (0.0, 0.0), (-1e308, 0.0), R=1.0, r=0.0
            )

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
        space = LpSpace(2, p)
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
