"""Wavefront planner: bit-equality with the scalar speculative loop.

The wavefront mode (``wave_width = W``) batches W rounds per wave through
the vectorized kernels but commits in sample order with the same
speculate-and-repair semantics as ``speculation_depth = W``; plans, costs,
operation counters, and per-round telemetry must therefore be bitwise
identical to the scalar planner at the equivalent depth.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.collision import CollisionChecker
from repro.core.metrics import RoundRecord, wave_occupancy
from repro.core.moped import config_for_variant
from repro.core.robots import get_robot
from repro.core.rrtstar import RRTStarPlanner, plan
from repro.workloads.generator import random_task


def _plan(robot_name, variant, seed=2, samples=100, obstacles=8, **overrides):
    task = random_task(robot_name, obstacles, seed=seed)
    config = config_for_variant(
        variant, max_samples=samples, seed=seed, **overrides
    )
    return plan(get_robot(robot_name), task, config)


def _assert_bit_identical(a, b):
    assert len(a.path) == len(b.path)
    for p, q in zip(a.path, b.path):
        assert np.array_equal(p, q)
    assert a.path_cost == b.path_cost
    assert a.num_nodes == b.num_nodes
    assert a.counter.to_dict() == b.counter.to_dict()
    assert len(a.rounds) == len(b.rounds)
    for r, s in zip(a.rounds, b.rounds):
        assert (r.ns_macs, r.cc_macs, r.maint_macs, r.other_macs) == (
            s.ns_macs, s.cc_macs, s.maint_macs, s.other_macs
        )
        assert (r.accepted, r.missing_used, r.repaired) == (
            s.accepted, s.missing_used, s.repaired
        )
        assert r.events == s.events


class TestWaveBitEquality:
    @pytest.mark.parametrize("robot", ["rozum", "xarm7", "mobile2d"])
    @pytest.mark.parametrize("width", [1, 4, 16])
    def test_wave_matches_scalar_at_equivalent_depth(self, robot, width):
        # wave_width = 1 degenerates to the plain scalar loop (depth 0);
        # any wider wave carries its own speculation depth of W.
        depth = width if width > 1 else 0
        wave = _plan(robot, "v4", wave_width=width)
        scalar = _plan(robot, "v4", speculation_depth=depth)
        _assert_bit_identical(wave, scalar)

    @pytest.mark.parametrize("variant", ["baseline", "v1", "v3"])
    def test_wave_matches_scalar_across_variants(self, variant):
        wave = _plan("mobile2d", variant, obstacles=12, wave_width=8)
        scalar = _plan("mobile2d", variant, obstacles=12, speculation_depth=8)
        _assert_bit_identical(wave, scalar)

    def test_wave_without_rewire(self):
        wave = _plan("mobile2d", "v1", rewire=False, wave_width=8)
        scalar = _plan("mobile2d", "v1", rewire=False, speculation_depth=8)
        _assert_bit_identical(wave, scalar)


class TestWaveBatchedExtend:
    """Choose-parent/rewire edges batched per wave, replayed at commit."""

    @pytest.fixture
    def replays(self, monkeypatch):
        """Count verdict-map hits while keeping the real lookup."""
        hits = []
        take = RRTStarPlanner._take_verdict

        def spy(verdicts, start, end):
            result = take(verdicts, start, end)
            hits.append(result is not None)
            return result

        monkeypatch.setattr(RRTStarPlanner, "_take_verdict", staticmethod(spy))
        return hits

    @pytest.mark.parametrize("robot", ["xarm7", "rozum"])
    @pytest.mark.parametrize("width", [2, 8])
    def test_rewiring_wave_matches_scalar(self, robot, width, replays):
        wave = _plan(robot, "v4", samples=300, obstacles=24, wave_width=width)
        # Rewire and choose-parent edges really were served from the batch.
        assert sum(replays) > 0
        scalar = _plan(robot, "v4", samples=300, obstacles=24,
                       speculation_depth=width)
        _assert_bit_identical(wave, scalar)

    def test_every_lookup_missing_is_still_bit_identical(self, monkeypatch):
        monkeypatch.setattr(RRTStarPlanner, "_take_verdict",
                            staticmethod(lambda verdicts, start, end: None))
        wave = _plan("xarm7", "v4", samples=300, obstacles=24, wave_width=8)
        scalar = _plan("xarm7", "v4", samples=300, obstacles=24,
                       speculation_depth=8)
        _assert_bit_identical(wave, scalar)

    def test_extend_single_edge_checks_drop_below_a_quarter(self, monkeypatch):
        """Counts, not time: _extend's one-at-a-time edge checks."""
        calls = {"in_extend": False, "single": 0}
        extend = RRTStarPlanner._extend
        check = CollisionChecker.motion_in_collision

        def counting_extend(self, *args, **kwargs):
            calls["in_extend"] = True
            try:
                return extend(self, *args, **kwargs)
            finally:
                calls["in_extend"] = False

        def counting_check(self, *args, **kwargs):
            calls["single"] += calls["in_extend"]
            return check(self, *args, **kwargs)

        monkeypatch.setattr(RRTStarPlanner, "_extend", counting_extend)
        monkeypatch.setattr(CollisionChecker, "motion_in_collision", counting_check)
        _plan("xarm7", "v4", samples=300, obstacles=24, speculation_depth=8)
        scalar_checks = calls["single"]
        calls["single"] = 0
        _plan("xarm7", "v4", samples=300, obstacles=24, wave_width=8)
        assert scalar_checks > 40
        assert calls["single"] < scalar_checks / 4


class TestWaveRepairProperty:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        width=st.sampled_from([2, 4, 8, 16]),
    )
    def test_wave_never_accepts_what_scalar_rejects(self, seed, width):
        """Intra-wave repair is exactly the scalar pending-repair.

        Round by round, the wave planner accepts a node if and only if the
        scalar speculative planner at the equivalent depth accepts one —
        a wave must never commit a speculative edge the scalar loop's
        repair would have rejected (or vice versa).
        """
        wave = _plan("mobile2d", "v1", seed=seed, samples=60, wave_width=width)
        scalar = _plan(
            "mobile2d", "v1", seed=seed, samples=60, speculation_depth=width
        )
        wave_accepts = [r.accepted for r in wave.rounds]
        scalar_accepts = [r.accepted for r in scalar.rounds]
        assert wave_accepts == scalar_accepts
        assert wave.num_nodes == scalar.num_nodes
        assert wave.path_cost == scalar.path_cost


class TestWaveTelemetry:
    def test_round_record_wave_fields_round_trip(self):
        record = RoundRecord(
            ns_macs=10.0, cc_macs=20.0, maint_macs=3.0, other_macs=1.0,
            accepted=True, missing_used=2, repaired=True,
            events={"dist": 5, "sat_obb_obb": 2},
            wave_width=8, repaired_in_wave=True,
        )
        assert RoundRecord.from_dict(record.to_dict()) == record

    def test_round_record_defaults_are_scalar(self):
        record = RoundRecord(
            ns_macs=1.0, cc_macs=1.0, maint_macs=0.0, other_macs=0.0,
            accepted=False,
        )
        assert record.wave_width == 1
        assert record.repaired_in_wave is False
        # Legacy dicts without the wave fields load as scalar rounds.
        data = record.to_dict()
        del data["wave_width"], data["repaired_in_wave"]
        assert RoundRecord.from_dict(data) == record

    def test_wave_rounds_carry_width_and_brief_reports_occupancy(self):
        result = _plan("mobile2d", "v1", wave_width=8)
        widths = {r.wave_width for r in result.rounds}
        # A truncated trailing wave records its actual (smaller) width.
        assert max(widths) == 8
        assert all(w > 1 for w in widths)
        occupancy = result.brief()["wave_occupancy"]
        assert occupancy is not None
        assert 0.0 <= occupancy <= 1.0
        assert occupancy == wave_occupancy(result.rounds)

    def test_scalar_brief_has_no_occupancy(self):
        result = _plan("mobile2d", "v1", samples=40)
        assert result.brief()["wave_occupancy"] is None

    def test_wave_lane_utilization_stats(self):
        from repro.hardware.pipeline import wave_lane_utilization

        result = _plan("mobile2d", "v1", wave_width=8)
        stats = wave_lane_utilization(result.rounds)
        assert stats.lanes == 8
        assert stats.slots == len(result.rounds)
        assert stats.committed <= stats.slots
        assert stats.occupancy == wave_occupancy(result.rounds)

        scalar = wave_lane_utilization(_plan("mobile2d", "v1", samples=30).rounds)
        assert scalar.lanes == 0
        assert scalar.occupancy is None
