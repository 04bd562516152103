"""Power-law sequences, per-run Laplace noise streams, and the expanding ball radius."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagopt import schedules
from dagopt.schedules import (
    NOISE_BLOCK_ELEMENTS,
    TAG_XI,
    TAG_ZETA,
    DecayProfile,
    LaplaceStream,
    noise_streams,
    noise_vector,
    standard_laplace,
)


def ball_radius(gamma1, L_f2, t):
    """Radius (1 + sum_{p=0}^{t-1} gamma_{p,1}) * L_f2 of the projection ball,
    recomputed from scratch: the reference for a run's ``RunState.gamma1_sum``."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if not (L_f2 > 0):
        raise ValueError("L_f2 must be > 0")
    partial = math.fsum(gamma1.value(p) for p in range(t))
    return (1.0 + partial) * L_f2


def philox(key):
    return np.random.Generator(np.random.Philox(key=key))


def same_state(a, b):
    return repr(a.bit_generator.state) == repr(b.bit_generator.state)


def scalar_laplace(rng, size, scale):
    """The inverse-CDF formula one uniform at a time with the scalar libm
    ``math.log``, skipping a zero uniform."""
    out = []
    while len(out) < size:
        u = rng.random()
        if u != 0.0:
            out.append(math.copysign(math.log(min(u + u, (2.0 - u) - u)), u - 0.5) * scale)
    return np.array(out)


class ScriptedUniforms:
    """A generator stand-in whose ``random`` hands out a fixed sequence."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        taken, self.values = self.values[:size], self.values[size:]
        return np.array(taken)


class TestDecayProfile:
    def test_power_law_value(self):
        # base/(t+1)^e at t=9, e=3.1 equals 10^-3.1; cross-checked via exp/log.
        p = DecayProfile(base=1.0, exponent=3.1)
        assert p.value(9) == pytest.approx(10.0 ** (-3.1), rel=1e-15)
        assert p.value(9) == pytest.approx(math.exp(-3.1 * math.log(10.0)), rel=1e-15)

    def test_t_zero_gives_base(self):
        assert DecayProfile(2.5, 0.7).value(0) == 2.5

    def test_zero_exponent_is_constant(self):
        p = DecayProfile(0.3, 0.0)
        assert [p.value(t) for t in (0, 7, 10**6)] == [0.3, 0.3, 0.3]

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
        assert p.value(t) > 0.0
        assert p.value(t + 1) <= p.value(t)


class TestNoiseStreams:
    def test_same_key_bit_identical(self):
        # two runs of one seed draw the same sequence of blocks
        a, b = noise_streams(3, 5, 13)[TAG_ZETA], noise_streams(3, 5, 13)[TAG_ZETA]
        for _ in range(3):
            assert np.array_equal(noise_vector(a, 1.0), noise_vector(b, 1.0))

    def test_golden_draw(self):
        # frozen second xi block of seed 11; it also equals the second Laplace
        # draw from a Philox generator keyed seed<<64 | tag, built here by hand
        rng = noise_streams(11, 3, 4)[TAG_XI]
        noise_vector(rng, 0.7)
        a = noise_vector(rng, 0.7)
        golden = np.array(
            [
                [1.0337589601604589, -1.578248901768547, 0.08319827095964998, 0.32521585159134625],
                [-0.0030834625975812865, -0.10463233756965264, 1.3483525648086974, -0.23288046684672567],
                [0.04698744363658766, 0.28491964379636336, 0.2679140325983776, 0.1730992620075908],
            ]
        )
        np.testing.assert_allclose(a, golden, rtol=1e-12, atol=0.0)
        ref = np.random.Generator(np.random.Philox(key=(11 << 64) | TAG_XI))
        ref.laplace(scale=0.7 / math.sqrt(2.0), size=(3, 4))
        assert np.array_equal(a, ref.laplace(scale=0.7 / math.sqrt(2.0), size=(3, 4)))

    def test_out_of_range_key_fields_raise(self):
        # seeds 2**64 apart would otherwise share a key and draw identical noise
        for seed in (-1, 1 << 64, -(1 << 64)):
            with pytest.raises(ValueError):
                noise_streams(seed, 2, 4)

    def test_largest_key_fields_still_draw(self):
        top = noise_streams(2**64 - 1, 2, 4)
        zeta, xi = (noise_vector(rng, 1.0) for rng in top)
        assert np.all(np.isfinite(zeta)) and np.all(np.isfinite(xi))
        assert not np.array_equal(zeta, xi)
        assert not np.array_equal(xi, noise_vector(noise_streams(0, 2, 4)[TAG_XI], 1.0))

    @given(seed=st.integers(0, 2**64 - 1), tag=st.sampled_from([TAG_ZETA, TAG_XI]))
    @settings(max_examples=25, deadline=None)
    def test_reproducible_for_any_key(self, seed, tag):
        a = noise_vector(noise_streams(seed, 3, 4)[tag], sigma=1.0)
        b = noise_vector(noise_streams(seed, 3, 4)[tag], sigma=1.0)
        assert np.array_equal(a, b)

    def test_distinct_keys_differ(self):
        zeta0 = noise_streams(0, 4, 16)[TAG_ZETA]
        base = noise_vector(zeta0, 1.0)
        for other in (
            noise_vector(noise_streams(1, 4, 16)[TAG_ZETA], 1.0),
            noise_vector(noise_streams(0, 4, 16)[TAG_XI], 1.0),
            noise_vector(zeta0, 1.0),  # the next round's block
        ):
            assert not np.array_equal(base, other)

    def test_agents_draw_distinct_rows(self):
        draw = noise_vector(noise_streams(0, 50, 16)[TAG_ZETA], 1.0)
        assert len({row.tobytes() for row in draw}) == 50

    def test_elementwise_variance_is_sigma_squared(self):
        # std-dev sigma maps to Laplace scale sigma/sqrt(2): variance sigma^2.
        sigma = 1.7
        rng = noise_streams(0, 10, 64)[TAG_XI]
        draws = np.concatenate([noise_vector(rng, sigma) for _ in range(50)])
        assert draws.var() == pytest.approx(sigma**2, rel=0.05)
        assert abs(draws.mean()) < 0.05

    def test_sigma_scales_linearly(self):
        a = noise_vector(noise_streams(4, 3, 6)[TAG_ZETA], 1.0)
        b = noise_vector(noise_streams(4, 3, 6)[TAG_ZETA], 3.0)
        assert np.allclose(b, 3.0 * a, rtol=1e-12)


class TestLaplaceKernel:
    SCALE = 0.7 / math.sqrt(2.0)

    def test_within_two_ulp_of_generator_laplace_and_same_state(self):
        a, b = philox(5), philox(5)
        got = standard_laplace(a, 200_000) * self.SCALE
        want = b.laplace(scale=self.SCALE, size=200_000)
        ulps = np.abs(got.view(np.int64) - want.view(np.int64))
        assert ulps.max() <= 2
        assert np.array_equal(np.sign(got), np.sign(want))
        assert same_state(a, b)

    def test_scalar_formula_is_generator_laplace_bit_for_bit(self):
        a, b = philox(9), philox(9)
        assert np.array_equal(scalar_laplace(a, 20_000, self.SCALE), b.laplace(scale=self.SCALE, size=20_000))
        assert same_state(a, b)

    @pytest.mark.parametrize("m, dim", [(10, 13), (3, 4), (1000, 13)])
    def test_blocks_do_not_depend_on_rounds_per_refill(self, monkeypatch, m, dim):
        # a stream fixes K when it is built; its blocks come round by round
        streams = []
        for K in (1, 2, 7, 31):
            monkeypatch.setattr(schedules, "NOISE_BLOCK_ELEMENTS", K * m * dim)
            streams.append(LaplaceStream(philox((7 << 64) | TAG_ZETA), m, dim))
            assert streams[-1].rounds == K
        for _ in range(41):
            blocks = [stream.next_block() for stream in streams]
            assert all(block.shape == (m, dim) for block in blocks)
            assert all(np.array_equal(blocks[0], other) for other in blocks[1:])

    def test_default_refill_within_the_element_bound(self):
        for m, dim, K in ((10, 13, 31), (20, 13, 15), (1000, 13, 1), (1, 1, NOISE_BLOCK_ELEMENTS)):
            stream = noise_streams(0, m, dim)[TAG_XI]
            assert stream.rounds == K and K * m * dim <= max(NOISE_BLOCK_ELEMENTS, m * dim)

    def test_zero_uniform_skipped(self, monkeypatch):
        uniforms = [0.25, 0.0, 0.75, 0.5, 0.0, 0.0, 0.1, 0.9, 0.3]
        draws = standard_laplace(ScriptedUniforms(uniforms), 4)
        assert np.all(np.isfinite(draws))
        assert np.array_equal(draws, scalar_laplace(ScriptedUniforms(uniforms), 4, 1.0))
        # two rounds of (1, 2) per refill: the zeros fall inside one refill
        monkeypatch.setattr(schedules, "NOISE_BLOCK_ELEMENTS", 4)
        stream = LaplaceStream(ScriptedUniforms(uniforms), 1, 2)
        blocks = [stream.next_block(), stream.next_block()]
        assert np.array_equal(np.concatenate(blocks).ravel(), scalar_laplace(ScriptedUniforms(uniforms), 4, 1.0))


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
            acc += g1.value(t)

    def test_radius_nondecreasing_and_bounded_when_summable(self):
        g1 = DecayProfile(1.0, 1.2)  # exponent > 1: summable, radius stays finite
        vals = [ball_radius(g1, 1.0, t) for t in (0, 10, 100, 1000)]
        assert vals == sorted(vals)
        # sum_{p>=0} (p+1)^-1.2 <= 1 + integral = 1 + 1/0.2 = 6
        assert vals[-1] <= 1.0 + 6.0
