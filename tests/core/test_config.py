"""Unit tests for PlannerConfig and the ablation presets."""

import pytest

from repro.core.config import PlannerConfig, baseline_config, moped_config


class TestValidation:
    def test_defaults_are_valid(self):
        PlannerConfig()

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            PlannerConfig(max_samples=0)

    def test_rejects_bad_goal_bias(self):
        with pytest.raises(ValueError):
            PlannerConfig(goal_bias=1.0)
        with pytest.raises(ValueError):
            PlannerConfig(goal_bias=-0.1)

    def test_rejects_bad_radius_factor(self):
        with pytest.raises(ValueError):
            PlannerConfig(neighbor_radius_factor=0.0)

    def test_rejects_negative_speculation(self):
        with pytest.raises(ValueError):
            PlannerConfig(speculation_depth=-1)

    def test_rejects_simbr_capacity_below_three(self):
        with pytest.raises(ValueError, match="simbr_capacity"):
            PlannerConfig(simbr_capacity=2)
        PlannerConfig(simbr_capacity=3)


class TestResolution:
    def test_step_defaults_to_robot(self):
        assert PlannerConfig().resolved_step(7.0) == 7.0
        assert PlannerConfig(step_size=3.0).resolved_step(7.0) == 3.0

    def test_motion_resolution_derivation(self):
        config = PlannerConfig()
        assert config.resolved_motion_resolution(8.0) == pytest.approx(2.0)
        assert PlannerConfig(motion_resolution=1.0).resolved_motion_resolution(8.0) == 1.0

    def test_goal_tolerance_derivation(self):
        assert PlannerConfig().resolved_goal_tolerance(5.0) == 5.0
        assert PlannerConfig(goal_tolerance=2.0).resolved_goal_tolerance(5.0) == 2.0


class TestNeighborRadius:
    def test_initial_radius_is_cap(self):
        config = PlannerConfig(neighbor_radius_factor=2.0)
        assert config.neighbor_radius(1, dim=3, step=5.0) == pytest.approx(10.0)

    def test_radius_shrinks_with_n(self):
        config = PlannerConfig(neighbor_radius_factor=2.0)
        radii = [config.neighbor_radius(n, dim=3, step=5.0) for n in (10, 100, 1000, 10000)]
        assert all(a >= b for a, b in zip(radii, radii[1:]))

    def test_radius_floored_at_step(self):
        config = PlannerConfig(neighbor_radius_factor=2.0)
        assert config.neighbor_radius(10**6, dim=2, step=5.0) >= 5.0

    def test_radius_capped(self):
        config = PlannerConfig(neighbor_radius_factor=2.0)
        for n in (2, 5, 50):
            assert config.neighbor_radius(n, dim=3, step=5.0) <= 10.0 + 1e-9


class TestPresets:
    def test_baseline(self):
        config = baseline_config()
        assert config.checker == "obb"
        assert config.neighbor_strategy == "brute"

    def test_v1_adds_two_stage_only(self):
        config = moped_config("v1")
        assert config.checker == "two_stage"
        assert config.neighbor_strategy == "brute"

    def test_v2_adds_simbr(self):
        config = moped_config("v2")
        assert config.neighbor_strategy == "simbr"
        assert not config.approx_neighborhood
        assert not config.steering_insert

    def test_v3_adds_approx(self):
        config = moped_config("v3")
        assert config.approx_neighborhood
        assert not config.steering_insert

    def test_v4_adds_lci(self):
        for name in ("v4", "full"):
            config = moped_config(name)
            assert config.approx_neighborhood
            assert config.steering_insert

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            moped_config("v9")

    def test_overrides_apply(self):
        config = moped_config("v4", max_samples=123, seed=9)
        assert config.max_samples == 123
        assert config.seed == 9
