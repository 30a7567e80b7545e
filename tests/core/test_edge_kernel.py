"""Whole-edge validation: bit-identity against the scalar reference.

Property tests (Hypothesis) that :meth:`motion_results_batch` — the stacked
whole-edge kernel path with its conservative AABB broadphase — returns, for
every checker variant, exactly the verdict, the first-colliding ladder
index, and the per-phase OpCounter totals of the scalar reference's
start-side early-exit walk; plus planner-level wave/scalar bit-equality at
W in {1, 4, 16} and mask-equality of the broadphased kernels against the
full grids they replace.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collision import make_checker
from repro.core.config import PlannerConfig
from repro.core.counters import OpCounter
from repro.core.robots import get_robot
from repro.core.rrtstar import plan
from repro.geometry.motion import interpolate_configs, interpolate_edges
from repro.kernels import batch as kernels_batch, reference as kernels_reference
from repro.kernels.tensors import BodyBatch
from repro.workloads.generator import random_task

CHECKER_NAMES = ("obb", "aabb", "two_stage", "grid")

ROBOT = get_robot("mobile2d")
ENV = random_task("mobile2d", 12, seed=3).environment
RESOLUTION = ROBOT.step_size / 4.0


def _checker(name, **kwargs):
    return make_checker(name, ROBOT, ENV, RESOLUTION, **kwargs)


def _scalar_reference(golden, start, end):
    """The golden semantics: per-config walk from the start side.

    Returns (verdict, captured counter, first-colliding ladder index or
    None) using the reference backend's scalar single-config check.
    """
    configs = interpolate_configs(start, end, golden.motion_resolution)
    captured = OpCounter()
    for i, config in enumerate(configs):
        if golden._config_scalar(config, captured):
            return True, captured, i
    return False, captured, None


@st.composite
def edge_batches(draw):
    """1-5 short random movements inside the robot's configuration bounds."""
    n = draw(st.integers(1, 5))
    dof = ROBOT.dof
    unit = st.floats(0.0, 1.0, allow_nan=False)
    lo, hi = ROBOT.config_lo, ROBOT.config_hi
    u = np.array([[draw(unit) for _ in range(dof)] for _ in range(n)])
    v = np.array([[draw(unit) for _ in range(dof)] for _ in range(n)])
    lengths = np.array([draw(st.floats(0.0, 2.0)) for _ in range(n)])
    starts = lo + u * (hi - lo)
    deltas = (v - 0.5) * 2.0
    norms = np.linalg.norm(deltas, axis=1, keepdims=True)
    deltas = np.where(norms > 1e-9, deltas / np.maximum(norms, 1e-9), 1.0)
    ends = np.clip(
        starts + deltas * lengths[:, None] * ROBOT.step_size, lo, hi
    )
    return starts, ends


class TestWholeEdgeBitIdentity:
    @pytest.mark.parametrize("name", CHECKER_NAMES)
    @settings(max_examples=25, deadline=None)
    @given(batch=edge_batches())
    def test_matches_scalar_reference(self, name, batch):
        """Whole-edge verdicts and counters equal the golden scalar walk."""
        starts, ends = batch
        checker = _checker(name)
        golden = _checker(name, kernels="reference")
        results = checker.motion_results_batch(starts, ends)
        assert len(results) == len(starts)
        for e, (verdict, events) in enumerate(results):
            gold_verdict, gold_events, _ = _scalar_reference(
                golden, starts[e], ends[e]
            )
            assert verdict == gold_verdict
            assert events.to_dict() == gold_events.to_dict()

    @pytest.mark.parametrize("name", CHECKER_NAMES)
    @settings(max_examples=15, deadline=None)
    @given(batch=edge_batches())
    def test_first_colliding_index_matches(self, name, batch):
        """The per-config path agrees on *which* waypoint collides first."""
        starts, ends = batch
        checker = _checker(name)
        golden = _checker(name, kernels="reference")
        for e in range(len(starts)):
            _, _, gold_first = _scalar_reference(golden, starts[e], ends[e])
            configs = interpolate_configs(starts[e], ends[e], RESOLUTION)
            rows = checker.config_results(configs)
            hits = [i for i, (verdict, _) in enumerate(rows) if verdict]
            first = hits[0] if hits else None
            assert first == gold_first


class TestWavePlannerBitIdentity:
    @pytest.mark.parametrize("name", CHECKER_NAMES)
    @pytest.mark.parametrize("width", [1, 4, 16])
    def test_wave_equals_scalar_speculation(self, name, width):
        """plan(wave_width=W) is bit-identical to plan(speculation_depth=W).

        wave_width = 1 degenerates to the plain scalar loop (depth 0).
        """
        depth = width if width > 1 else 0
        task = random_task("mobile2d", 10, seed=6)
        robot = get_robot("mobile2d")
        scalar = plan(robot, task, PlannerConfig(
            checker=name, max_samples=150, seed=5, speculation_depth=depth,
        ))
        wave = plan(robot, task, PlannerConfig(
            checker=name, max_samples=150, seed=5, wave_width=width,
        ))
        assert len(scalar.path) == len(wave.path)
        for a, b in zip(scalar.path, wave.path):
            assert np.array_equal(a, b)
        assert scalar.path_cost == wave.path_cost
        assert scalar.counter.to_dict() == wave.counter.to_dict()


class TestGatheredKernels:
    """The gathered-term SAT tests the planner runs must reproduce the
    scalar reference kernels bit-for-bit on every pair."""

    @pytest.mark.parametrize("robot_name", ["mobile2d", "rozum"])
    def test_gathered_tests_equal_reference(self, robot_name):
        robot = get_robot(robot_name)
        env = random_task(robot_name, 12, seed=3).environment
        rng = np.random.default_rng(4)
        configs = rng.uniform(robot.config_lo, robot.config_hi, size=(60, robot.dof))
        bodies = BodyBatch.from_frames(*robot.body_frames_batch(configs))
        obs, ftree = env.obstacle_tensors, env.flat_rtree
        rows = np.repeat(np.arange(bodies.rows), obs.count)
        cols = np.tile(np.arange(obs.count), bodies.rows)
        exact = kernels_batch.obb_obb_gathered(bodies.terms(), rows, obs.terms, cols)
        assert np.array_equal(exact, kernels_reference.obb_obb_pairs(
            bodies.centers[rows], bodies.half_extents[rows], bodies.rotations[rows],
            obs.centers[cols], obs.half_extents[cols], obs.rotations[cols],
        ))
        units = np.tile(np.arange(ftree.num_units), bodies.rows)
        unit_rows = np.repeat(np.arange(bodies.rows), ftree.num_units)
        stage1 = kernels_batch.aabb_obb_gathered(
            ftree.unit_terms, units, bodies.terms(), unit_rows
        )
        assert np.array_equal(stage1, kernels_reference.aabb_obb_pairs(
            ftree.unit_lo[units], ftree.unit_hi[units], bodies.centers[unit_rows],
            bodies.half_extents[unit_rows], bodies.rotations[unit_rows],
        ))
        assert exact.any() and not exact.all()
        assert stage1.any() and not stage1.all()

    def test_overlap_filtered_runs_the_test_on_overlaps_only(self):
        bodies, _ = self._bodies()
        lo, hi = bodies.aabb_corners()
        obs = ENV.obstacle_tensors
        seen = []

        def pair_test(rows, cols):
            seen.append((rows, cols))
            return kernels_batch.obb_obb_gathered(bodies.terms(), rows, obs.terms, cols)

        overlap, verdicts = kernels_batch.overlap_filtered(
            lo, hi, obs.aabb_lo_t, obs.aabb_hi_t, pair_test
        )
        assert np.array_equal(overlap, kernels_batch.aabb_aabb_grid(
            lo, hi, obs.aabb_lo, obs.aabb_hi))
        (rows, cols), = seen
        assert np.array_equal(np.stack([rows, cols]), np.stack(overlap.nonzero()))
        assert np.array_equal(verdicts, kernels_batch.obb_obb_grid(
            bodies.centers, bodies.half_extents, bodies.rotations,
            obs.centers, obs.half_extents, obs.rotations,
        ))

    def test_aabb_grid_t_equals_grid(self):
        bodies, _ = self._bodies()
        lo, hi = bodies.aabb_corners()
        ftree = ENV.flat_rtree
        assert np.array_equal(
            kernels_batch.aabb_aabb_grid_t(lo, hi, ftree.unit_lo_t, ftree.unit_hi_t),
            kernels_batch.aabb_aabb_grid(lo, hi, ftree.unit_lo, ftree.unit_hi),
        )

    def _bodies(self, seed=0, edges=6):
        rng = np.random.default_rng(seed)
        lo, hi = ROBOT.config_lo, ROBOT.config_hi
        starts = rng.uniform(lo, hi, size=(edges, ROBOT.dof))
        ends = np.clip(
            starts + rng.normal(size=(edges, ROBOT.dof)) * ROBOT.step_size,
            lo, hi,
        )
        configs, offsets = interpolate_edges(starts, ends, RESOLUTION)
        return BodyBatch.from_frames(*ROBOT.body_frames_batch(configs)), offsets


