"""Unit tests for swept-movement discretisation."""

import numpy as np
import pytest

from repro.geometry import interpolate_configs, motion_steps
from repro.geometry.motion import (
    UNIT_FRACTION_CACHE_MAX_STEPS,
    interpolate_edges,
    unit_fractions,
    unit_fractions_cache_info,
)


class TestMotionSteps:
    def test_counts_by_resolution(self):
        assert motion_steps(np.zeros(2), np.array([1.0, 0.0]), resolution=0.25) == 4

    def test_rounds_up(self):
        assert motion_steps(np.zeros(2), np.array([1.0, 0.0]), resolution=0.3) == 4

    def test_zero_length_has_one_step(self):
        assert motion_steps(np.ones(3), np.ones(3), resolution=0.5) == 1

    def test_rejects_nonpositive_resolution(self):
        with pytest.raises(ValueError):
            motion_steps(np.zeros(2), np.ones(2), resolution=0.0)


class TestInterpolate:
    def test_includes_both_endpoints(self):
        configs = interpolate_configs(np.zeros(2), np.array([1.0, 2.0]), resolution=0.5)
        np.testing.assert_allclose(configs[0], [0.0, 0.0])
        np.testing.assert_allclose(configs[-1], [1.0, 2.0])

    def test_uniform_spacing(self):
        configs = interpolate_configs(np.zeros(2), np.array([2.0, 0.0]), resolution=0.5)
        gaps = np.linalg.norm(np.diff(configs, axis=0), axis=1)
        np.testing.assert_allclose(gaps, gaps[0])
        assert gaps[0] <= 0.5 + 1e-12

    def test_spacing_never_exceeds_resolution(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            start, end = rng.uniform(-5, 5, 4), rng.uniform(-5, 5, 4)
            configs = interpolate_configs(start, end, resolution=0.7)
            gaps = np.linalg.norm(np.diff(configs, axis=0), axis=1)
            assert np.all(gaps <= 0.7 + 1e-9)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            interpolate_configs(np.zeros(2), np.zeros(3), resolution=0.5)

    def test_high_dim(self):
        configs = interpolate_configs(np.zeros(7), np.ones(7), resolution=0.1)
        assert configs.shape[1] == 7
        assert configs.shape[0] >= 27


class TestUnitFractionCache:
    def test_recurring_counts_share_one_cached_array(self):
        first = unit_fractions(12)
        again = unit_fractions(12)
        assert first is again
        assert not first.flags.writeable
        np.testing.assert_array_equal(first, np.linspace(0.0, 1.0, 13))

    def test_oversized_ladders_bypass_the_cache(self):
        # Ladders beyond the clamp come from one-off workspace-scale
        # probes; they must never enter (and thrash) the LRU.
        before = unit_fractions_cache_info()
        huge = UNIT_FRACTION_CACHE_MAX_STEPS + 1
        a = unit_fractions(huge)
        b = unit_fractions(huge)
        after = unit_fractions_cache_info()
        assert a is not b
        assert not a.flags.writeable
        np.testing.assert_array_equal(a, b)
        assert after.currsize == before.currsize
        assert after.misses == before.misses

    def test_clamped_count_is_still_cached(self):
        a = unit_fractions(UNIT_FRACTION_CACHE_MAX_STEPS)
        b = unit_fractions(UNIT_FRACTION_CACHE_MAX_STEPS)
        assert a is b

    def test_bypass_values_match_cached_arithmetic(self):
        huge = UNIT_FRACTION_CACHE_MAX_STEPS + 7
        np.testing.assert_array_equal(
            unit_fractions(huge), np.linspace(0.0, 1.0, huge + 1)
        )


class TestInterpolateEdges:
    def test_matches_per_edge_ladders_bitwise(self):
        rng = np.random.default_rng(9)
        starts = rng.uniform(-3, 3, size=(17, 6))
        ends = starts + rng.normal(size=(17, 6)) * 0.4
        configs, offsets = interpolate_edges(starts, ends, resolution=0.11)
        assert offsets[0] == 0 and offsets[-1] == len(configs)
        for e in range(17):
            expected = interpolate_configs(starts[e], ends[e], resolution=0.11)
            block = configs[offsets[e]:offsets[e + 1]]
            assert np.array_equal(block, expected)

    def test_single_edge_matches_ladder_bitwise(self):
        start, end = np.array([0.3, -1.2, 2.0]), np.array([0.9, -0.7, 1.1])
        configs, offsets = interpolate_edges(start[None], end[None], resolution=0.11)
        assert list(offsets) == [0, len(configs)]
        assert np.array_equal(configs, interpolate_configs(start, end, resolution=0.11))

    def test_empty_batch(self):
        configs, offsets = interpolate_edges(
            np.empty((0, 4)), np.empty((0, 4)), resolution=0.5
        )
        assert configs.shape == (0, 4)
        assert list(offsets) == [0]

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            interpolate_edges(np.zeros((2, 3)), np.zeros((3, 3)), resolution=0.5)
