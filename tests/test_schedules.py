"""Power-law sequences, keyed Laplace streams, and the expanding ball radius."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagopt.schedules import (
    TAG_XI,
    TAG_ZETA,
    BallRadiusTracker,
    DecayProfile,
    ball_radius,
    eval_profile,
    noise_vector,
)


class TestDecayProfile:
    def test_power_law_value(self):
        # base/(t+1)^e at t=9, e=3.1 equals 10^-3.1; cross-checked via exp/log.
        p = DecayProfile(base=1.0, exponent=3.1)
        assert eval_profile(p, 9) == pytest.approx(10.0 ** (-3.1), rel=1e-15)
        assert eval_profile(p, 9) == pytest.approx(math.exp(-3.1 * math.log(10.0)), rel=1e-15)

    def test_t_zero_gives_base(self):
        assert eval_profile(DecayProfile(2.5, 0.7), 0) == 2.5

    def test_zero_exponent_is_constant(self):
        p = DecayProfile(0.3, 0.0)
        assert [eval_profile(p, t) for t in (0, 7, 10**6)] == [0.3, 0.3, 0.3]

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError):
            eval_profile(DecayProfile(1.0, 1.0), -1)

    def test_nonpositive_base_rejected(self):
        with pytest.raises(ValueError):
            DecayProfile(0.0, 1.0)

    @given(
        base=st.floats(1e-6, 1e6),
        exp=st.floats(0.0, 4.0),
        t=st.integers(0, 10**9),
    )
    def test_positive_and_nonincreasing(self, base, exp, t):
        p = DecayProfile(base, exp)
        assert eval_profile(p, t) > 0.0
        assert eval_profile(p, t + 1) <= eval_profile(p, t)


class TestNoiseStreams:
    def test_same_key_bit_identical(self):
        a = noise_vector(seed=3, t=77, tag=TAG_ZETA, sigma=1.0, m=5, dim=13)
        b = noise_vector(seed=3, t=77, tag=TAG_ZETA, sigma=1.0, m=5, dim=13)
        assert np.array_equal(a, b)

    def test_golden_draw(self):
        # frozen output of the keyed draw; it also equals a Laplace draw from
        # a Philox generator keyed seed<<64 | t<<2 | tag, built here by hand
        a = noise_vector(seed=11, t=9, tag=TAG_XI, sigma=0.7, m=3, dim=4)
        golden = np.array(
            [
                [0.13911082538608402, -0.20797318060437722, -0.005613766006201505, 0.3273387478613306],
                [1.0008957351678178, 0.5744840860697646, 0.1841970664802979, -0.036981134225464556],
                [-1.4413589688742483, -0.14884923161011035, -0.2070960554957828, 0.09497559860460816],
            ]
        )
        np.testing.assert_allclose(a, golden, rtol=1e-12, atol=0.0)
        rng = np.random.Generator(np.random.Philox(key=(11 << 64) | (9 << 2) | TAG_XI))
        assert np.array_equal(a, rng.laplace(scale=0.7 / math.sqrt(2.0), size=(3, 4)))

    def test_agent_row_does_not_depend_on_agent_count(self):
        small = noise_vector(5, 40, TAG_ZETA, 1.3, 3, 13)
        large = noise_vector(5, 40, TAG_ZETA, 1.3, 50, 13)
        assert np.array_equal(small, large[:3])

    def test_out_of_range_key_fields_raise(self):
        # iterations 2**62 apart or seeds 2**64 apart would otherwise share
        # a key and draw identical noise
        for seed, t, tag in [(0, 1 << 62, TAG_ZETA), (1 << 64, 5, TAG_ZETA), (-1, 5, TAG_ZETA), (0, -1, TAG_ZETA),
                             (0, 5, 2), (0, 5, -1)]:
            with pytest.raises(ValueError):
                noise_vector(seed, t, tag, 1.0, 2, 4)

    def test_largest_key_fields_still_draw(self):
        top = noise_vector(2**64 - 1, (1 << 62) - 1, TAG_XI, 1.0, 2, 4)
        assert np.all(np.isfinite(top))
        assert not np.array_equal(top, noise_vector(0, (1 << 62) - 1, TAG_XI, 1.0, 2, 4))
        assert not np.array_equal(top, noise_vector(2**64 - 1, 0, TAG_XI, 1.0, 2, 4))
        assert not np.array_equal(top, noise_vector(2**64 - 1, (1 << 62) - 1, TAG_ZETA, 1.0, 2, 4))

    @given(
        seed=st.integers(0, 2**64 - 1),
        t=st.integers(0, 2**62 - 1),
        tag=st.sampled_from([TAG_ZETA, TAG_XI]),
    )
    @settings(max_examples=25, deadline=None)
    def test_reproducible_for_any_key(self, seed, t, tag):
        a = noise_vector(seed, t, tag, sigma=1.0, m=3, dim=4)
        b = noise_vector(seed, t, tag, sigma=1.0, m=3, dim=4)
        assert np.array_equal(a, b)

    def test_distinct_keys_differ(self):
        base = noise_vector(0, 0, TAG_ZETA, 1.0, 4, 16)
        for other in (
            noise_vector(1, 0, TAG_ZETA, 1.0, 4, 16),
            noise_vector(0, 1, TAG_ZETA, 1.0, 4, 16),
            noise_vector(0, 0, TAG_XI, 1.0, 4, 16),
        ):
            assert not np.array_equal(base, other)

    def test_agents_draw_distinct_rows(self):
        draw = noise_vector(0, 0, TAG_ZETA, 1.0, 50, 16)
        assert len({row.tobytes() for row in draw}) == 50

    def test_elementwise_variance_is_sigma_squared(self):
        # std-dev sigma maps to Laplace scale sigma/sqrt(2): variance sigma^2.
        sigma = 1.7
        draws = np.concatenate([noise_vector(0, t, TAG_XI, sigma, 10, 64) for t in range(50)])
        assert draws.var() == pytest.approx(sigma**2, rel=0.05)
        assert abs(draws.mean()) < 0.05

    def test_sigma_scales_linearly(self):
        a = noise_vector(4, 2, TAG_ZETA, 1.0, 3, 6)
        b = noise_vector(4, 2, TAG_ZETA, 3.0, 3, 6)
        assert np.allclose(b, 3.0 * a, rtol=1e-12)


class TestBallRadius:
    def test_initial_radius_is_gradient_bound(self):
        g1 = DecayProfile(1.0, 1.2)
        assert ball_radius(g1, 2.0, 0) == 2.0  # empty partial sum

    def test_partial_sum_construction(self):
        # radius(t) = (1 + sum_{p<t} gamma1(p)) * L_f2, accumulated directly.
        g1 = DecayProfile(0.5, 0.8)
        acc = 0.0
        for t in range(6):
            assert ball_radius(g1, 3.0, t) == pytest.approx((1.0 + acc) * 3.0, rel=1e-14)
            acc += eval_profile(g1, t)

    def test_tracker_matches_closed_form(self):
        g1 = DecayProfile(1.0, 1.2)
        tracker = BallRadiusTracker(gamma1=g1, L_f2=4.2)
        for t in range(200):
            assert tracker.radius() == pytest.approx(ball_radius(g1, 4.2, t), rel=1e-14)
            tracker.advance()

    def test_radius_nondecreasing_and_bounded_when_summable(self):
        g1 = DecayProfile(1.0, 1.2)  # exponent > 1: summable, radius stays finite
        vals = [ball_radius(g1, 1.0, t) for t in (0, 10, 100, 1000)]
        assert vals == sorted(vals)
        # sum_{p>=0} (p+1)^-1.2 <= 1 + integral = 1 + 1/0.2 = 6
        assert vals[-1] <= 1.0 + 6.0
