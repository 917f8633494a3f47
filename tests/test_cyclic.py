import math
import random
import re

import mpmath as mp
import pytest

from bestprox import (
    ConfigurationError,
    CyclicMapSpec,
    Example1Params,
    InputError,
    apply_map,
    displacement_decay_check,
    dist,
    lp_norm,
    make_example1,
    verify_contraction,
    verify_cyclicity,
)
from bestprox.cyclic import (
    EXAMPLE1_BOX_A,
    EXAMPLE1_BOX_B,
    check_start,
    example1_in_a,
    example1_in_b,
    sample_points,
    sample_sets,
)

E1 = (1.0, 0.0)


def two_cone_map(lam=0.5, p=2.0):
    return make_example1(Example1Params(lam=lam, p=p))


class TestMakeExample1:
    def test_apex_maps_to_mirror_apex(self):
        spec = two_cone_map()
        assert apply_map(spec, E1) == (-1.0, -0.0)

    def test_two_cycle_on_apex(self):
        spec = two_cone_map()
        assert apply_map(spec, (-1.0, 0.0)) == (1.0, 0.0)

    def test_generic_point(self):
        spec = two_cone_map()
        assert apply_map(spec, (1000.0, 8.0)) == (-500.5, -4.0)

    def test_origin_is_fixed_by_sign_zero(self):
        # (0, 0) is outside A u B but the formula still fixes it
        spec = two_cone_map()
        assert apply_map(spec, (0.0, 0.0)) == (0.0, 0.0)

    def test_steeper_contraction(self):
        spec = two_cone_map(lam=0.9)
        x, y = apply_map(spec, (2.0, 0.0))
        assert x == pytest.approx(-1.9, abs=1e-15)
        assert y == 0.0

    def test_declared_constants(self):
        spec = two_cone_map(lam=0.37, p=3)
        assert spec.k == 0.37
        assert spec.d == 2.0
        assert spec.best_proximity == E1

    def test_every_spec_shares_the_sets_and_boxes(self):
        specs = [two_cone_map(lam, p) for lam in (0.3, 0.9) for p in (1.1, 20.0)]
        for spec in specs:
            assert spec.in_a is example1_in_a and spec.in_b is example1_in_b
            assert (spec.box_a, spec.box_b) == (EXAMPLE1_BOX_A, EXAMPLE1_BOX_B)

    def test_membership_predicates(self):
        spec = two_cone_map()
        assert spec.in_a((1.0, 0.0)) and spec.in_a((10.0, 5.0)) and spec.in_a((10.0, -5.0))
        assert not spec.in_a((0.5, 0.0)) and not spec.in_a((2.0, 1.5))
        assert spec.in_b((-1.0, 0.0)) and spec.in_b((-10.0, 5.0))
        assert not spec.in_b((1.0, 0.0))

    def test_param_validation(self):
        with pytest.raises(InputError):
            Example1Params(lam=0.0, p=2)
        with pytest.raises(InputError):
            Example1Params(lam=1.0, p=2)
        with pytest.raises(InputError):
            Example1Params(lam=0.5, p=1.0)

    def test_square_fixes_apex_exactly(self):
        for lam in (0.3, 0.5, 0.9):
            spec = two_cone_map(lam=lam)
            twice = apply_map(spec, apply_map(spec, E1))
            assert max(abs(a - b) for a, b in zip(twice, E1)) <= 1e-15


class TestApplyMap:
    def test_dimension_check(self):
        spec = two_cone_map()
        with pytest.raises(InputError):
            apply_map(spec, (1.0, 2.0, 3.0))


class TestVerifyCyclicity:
    def test_benchmark_map_passes(self):
        spec = two_cone_map()
        report = verify_cyclicity(spec, *sample_sets(spec, 1000, 11))
        assert report.passed and not report.violations

    def test_near_degenerate_contraction_passes(self):
        spec = two_cone_map(lam=0.99)
        report = verify_cyclicity(spec, *sample_sets(spec, 1000, 11))
        assert report.passed

    def test_identity_map_fails_with_witnesses(self):
        base = two_cone_map()
        broken = CyclicMapSpec(
            space=base.space,
            apply=lambda v: v,
            in_a=base.in_a,
            in_b=base.in_b,
            k=0.5,
            d=2.0,
            box_a=base.box_a,
            box_b=base.box_b,
        )
        report = verify_cyclicity(broken, *sample_sets(broken, 50, 3))
        assert not report.passed
        assert len(report.violations) == 100  # every A and B sample stays put
        label, point, image = report.violations[0]
        assert label == "A" and point == image

    def test_sampler_without_boxes_is_config_error(self):
        base = two_cone_map()
        bare = CyclicMapSpec(
            space=base.space, apply=base.apply, in_a=base.in_a, in_b=base.in_b,
            k=0.5, d=2.0,
        )
        with pytest.raises(ConfigurationError):
            sample_sets(bare, 10, 0)

    def test_impossible_set_is_config_error(self):
        base = two_cone_map()
        empty = CyclicMapSpec(
            space=base.space, apply=base.apply,
            in_a=lambda v: False, in_b=base.in_b,
            k=0.5, d=2.0, box_a=base.box_a, box_b=base.box_b,
        )
        with pytest.raises(ConfigurationError):
            sample_sets(empty, 1, 0)

    def test_sample_count_validation(self):
        with pytest.raises(InputError):
            sample_sets(two_cone_map(), 0, 0)

    def test_sample_is_drawn_as_a_then_b_from_one_generator(self):
        spec = two_cone_map()
        rng = random.Random(11)
        expected_a = sample_points(rng, spec.box_a, spec.in_a, 30)
        expected_b = sample_points(rng, spec.box_b, spec.in_b, 30)
        assert sample_sets(spec, 30, 11) == (expected_a, expected_b)


class TestVerifyContraction:
    def test_benchmark_map_passes(self):
        spec = two_cone_map()
        report = verify_contraction(spec, *sample_sets(spec, 1000, 5))
        assert report.passed
        assert report.max_violation <= 0 + 1e-9

    def test_high_p_passes(self):
        spec = two_cone_map(p=20)
        report = verify_contraction(spec, *sample_sets(spec, 1000, 5))
        assert report.passed

    def test_equality_at_apex_pair(self):
        spec = two_cone_map()
        x, y = E1, (-1.0, 0.0)
        tx, ty = apply_map(spec, x), apply_map(spec, y)
        lhs = dist(spec.space, tx, ty)
        rhs = spec.k * dist(spec.space, x, y) + (1 - spec.k) * spec.d
        assert lhs == pytest.approx(2.0, abs=1e-15)
        assert rhs == pytest.approx(2.0, abs=1e-15)

    def test_understated_k_fails(self):
        import dataclasses

        # declaring k = 0.2 for a map that contracts at 0.9 must be caught
        spec = dataclasses.replace(two_cone_map(lam=0.9), k=0.2)
        report = verify_contraction(spec, *sample_sets(spec, 500, 5))
        assert not report.passed
        assert report.max_violation > 0
        assert report.worst_pair is not None

    @pytest.mark.parametrize("xs, ys", [([], []), ([E1, E1], [(-1.0, 0.0)])])
    def test_unpaired_or_empty_points_are_an_input_error_naming_the_counts(self, xs, ys):
        with pytest.raises(InputError, match=f"got {len(xs)} and {len(ys)}"):
            verify_contraction(two_cone_map(), xs, ys)


class TestDisplacementDecayCheck:
    def test_benchmark_orbit(self):
        report = displacement_decay_check(two_cone_map(), (1000.0, 8.0), n_max=60)
        assert report.passed
        assert report.min_displacement >= 2.0 - 1e-9

    def test_apex_orbit_is_flat(self):
        report = displacement_decay_check(two_cone_map(), E1, n_max=10)
        assert report.passed
        # orbit alternates the two apexes: displacement stays exactly d
        assert report.min_displacement == pytest.approx(2.0, abs=1e-15)
        assert report.max_envelope_excess == pytest.approx(0.0, abs=1e-15)

    def test_n_zero_is_equality(self):
        spec = two_cone_map(lam=0.7, p=3)
        x0 = (300.0, -12.0)
        tx0 = apply_map(spec, x0)
        disp0 = dist(spec.space, x0, tx0)
        report = displacement_decay_check(spec, x0, n_max=1)
        # at n = 0 both sides equal disp0 - d by construction
        assert report.passed
        assert disp0 - spec.d >= 0

    def test_start_in_b_is_accepted(self):
        report = displacement_decay_check(two_cone_map(), (-800.0, 5.0), n_max=30)
        assert report.passed

    def test_outside_union_rejected(self):
        with pytest.raises(InputError):
            displacement_decay_check(two_cone_map(), (0.0, 0.0), n_max=5)

    # (inf, 0) satisfies the membership test of A, so only the finiteness
    # check stops it
    @pytest.mark.parametrize("x0", [(math.inf, 0.0), (math.nan, 0.0), (-math.inf, 0.0)])
    def test_non_finite_start_rejected_naming_x0(self, x0):
        with pytest.raises(InputError, match=re.escape(f"x0={x0} has a non-finite")):
            displacement_decay_check(two_cone_map(), x0, n_max=10)

    @pytest.mark.parametrize("x0", [(1000.0,), (1000.0, 8.0, 1.0)])
    def test_wrong_dimension_rejected_naming_x0(self, x0):
        with pytest.raises(InputError, match=re.escape(f"x0={x0} has {len(x0)} coordinates")):
            displacement_decay_check(two_cone_map(), x0, n_max=10)


class TestCheckStart:
    @pytest.mark.parametrize("x0", [(math.inf, 0.0), (math.nan, 0.0), (1000.0, -math.inf)])
    def test_non_finite_start_rejected_naming_x0(self, x0):
        with pytest.raises(InputError, match=re.escape(f"x0={x0} has a non-finite")):
            check_start(two_cone_map(), x0)

    def test_working_precision_starts_accepted(self):
        with mp.workdps(355):
            spec = make_example1(Example1Params(lam=mp.mpf(0.5), p=mp.mpf(20)))
            check_start(spec, (mp.mpf(1000), mp.mpf(8)))
            # finite, though beyond the float range
            check_start(spec, (mp.mpf(10) ** 400, mp.mpf(0)))
            with pytest.raises(InputError, match="non-finite"):
                check_start(spec, (mp.inf, mp.mpf(0)))


class TestOrbitGeometry:
    def test_alternation(self):
        spec = two_cone_map(lam=0.8, p=1.5)
        rng = random.Random(17)
        for start in sample_points(rng, spec.box_a, spec.in_a, 20):
            point = start
            for step in range(1, 30):
                point = apply_map(spec, point)
                assert (spec.in_a(point) if step % 2 == 0 else spec.in_b(point))

    def test_separation_of_sampled_pairs(self):
        spec = two_cone_map(p=1.1)
        rng = random.Random(23)
        us = sample_points(rng, spec.box_a, spec.in_a, 300)
        vs = sample_points(rng, spec.box_b, spec.in_b, 300)
        for u, v in zip(us, vs):
            assert dist(spec.space, u, v) >= spec.d - 1e-9

    def test_separation_equality_at_apexes(self):
        for p in (1.1, 2.0, 20.0):
            spec = two_cone_map(p=p)
            assert lp_norm(spec.space, (2.0, 0.0)) == pytest.approx(2.0, abs=1e-14)

    def test_sampler_deterministic(self):
        a = sample_points(random.Random(99), EXAMPLE1_BOX_A, lambda v: v[0] >= 1 + abs(v[1]), 10)
        b = sample_points(random.Random(99), EXAMPLE1_BOX_A, lambda v: v[0] >= 1 + abs(v[1]), 10)
        assert a == b

    def test_sampler_without_a_box_is_config_error(self):
        with pytest.raises(ConfigurationError, match="no sampling boxes"):
            sample_points(random.Random(0), None, two_cone_map().in_a, 1)

    def test_sampler_draw_order_is_pinned(self):
        # values recorded from the generator-built sampler; the verify
        # fingerprint depends on every draw staying where it is
        spec = two_cone_map()
        rng = random.Random(3)
        points = sample_points(rng, spec.box_a, spec.in_a, 50)
        assert points[0] == (238.7266624647995, 88.45845059190378)
        assert points[-1] == (903.7056725185417, 387.4112145945096)
        assert rng.random() == 0.923854799557242

    @pytest.mark.parametrize("seed", [0, 1, 3, 42, 20151031])
    @pytest.mark.parametrize("box, predicate", [
        (EXAMPLE1_BOX_A, example1_in_a),
        (EXAMPLE1_BOX_B, example1_in_b),
        (EXAMPLE1_BOX_A, lambda v: True),
        # rejects about 19 candidates of 20
        (EXAMPLE1_BOX_B, lambda v: abs(v[1]) < 50),
    ])
    def test_sampler_draws_the_bits_of_uniform(self, seed, box, predicate):
        def uniform_sampler(rng, count):
            lows, highs = zip(*box)
            points = []
            while len(points) < count:
                candidate = tuple(map(rng.uniform, lows, highs))
                if predicate(candidate):
                    points.append(candidate)
            return points

        rng, reference = random.Random(seed), random.Random(seed)
        assert sample_points(rng, box, predicate, 200) == uniform_sampler(reference, 200)
        assert rng.random() == reference.random()

    def test_boxes_cover_expected_window(self):
        assert EXAMPLE1_BOX_A == ((1.0, 1000.0), (-1000.0, 1000.0))
        assert EXAMPLE1_BOX_B == ((-1000.0, -1.0), (-1000.0, 1000.0))


class TestSpecValidation:
    def test_k_range(self):
        base = two_cone_map()
        with pytest.raises(InputError):
            CyclicMapSpec(space=base.space, apply=base.apply, in_a=base.in_a,
                          in_b=base.in_b, k=1.0, d=2.0)

    def test_negative_distance(self):
        base = two_cone_map()
        with pytest.raises(InputError):
            CyclicMapSpec(space=base.space, apply=base.apply, in_a=base.in_a,
                          in_b=base.in_b, k=0.5, d=-1.0)
