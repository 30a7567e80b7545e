"""Backend equivalence: ``kernels="batch"`` == ``kernels="reference"``.

The acceptance contract of the vectorized hot paths: switching the kernel
backend changes wall time and nothing else.  Per-query collision verdicts,
full plans (paths and costs, bit-for-bit), and every
:class:`~repro.core.counters.OpCounter` total must be identical, because
the batch path replays the scalar control flow over its precomputed masks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collision import make_checker
from repro.core.config import PlannerConfig, baseline_config, moped_config
from repro.core.counters import OpCounter
from repro.core.robots import get_robot
from repro.core.rrtstar import plan
from repro.geometry.motion import interpolate_configs
from repro.workloads.generator import random_task

CHECKERS = ["obb", "aabb", "two_stage", "grid"]


def checker_pair(task, checker, **kwargs):
    robot = get_robot(task.robot_name)
    resolution = robot.step_size / 4.0
    fast = make_checker(
        checker, robot, task.environment, resolution, kernels="batch", **kwargs
    )
    gold = make_checker(
        checker, robot, task.environment, resolution, kernels="reference", **kwargs
    )
    return robot, fast, gold


class TestCheckerEquivalence:
    @pytest.mark.parametrize("checker", CHECKERS)
    @pytest.mark.parametrize("robot_name", ["mobile2d", "rozum"])
    def test_config_checks_identical(self, checker, robot_name):
        task = random_task(robot_name, 24, seed=11)
        robot, fast, gold = checker_pair(task, checker)
        rng = np.random.default_rng(2)
        configs = rng.uniform(robot.config_lo, robot.config_hi, size=(60, robot.dof))
        for config in configs:
            c_fast, c_gold = OpCounter(), OpCounter()
            assert fast.config_in_collision(config, counter=c_fast) == \
                gold.config_in_collision(config, counter=c_gold)
            assert c_fast.to_dict() == c_gold.to_dict()

    @pytest.mark.parametrize("checker", CHECKERS)
    def test_motion_checks_identical(self, checker):
        task = random_task("rozum", 24, seed=12)
        robot, fast, gold = checker_pair(task, checker)
        rng = np.random.default_rng(3)
        starts = rng.uniform(robot.config_lo, robot.config_hi, size=(20, robot.dof))
        ends = starts + rng.normal(scale=0.3, size=starts.shape)
        for a, b in zip(starts, ends):
            c_fast, c_gold = OpCounter(), OpCounter()
            assert fast.motion_in_collision(a, b, counter=c_fast) == \
                gold.motion_in_collision(a, b, counter=c_gold)
            assert c_fast.to_dict() == c_gold.to_dict()

    def test_two_stage_coarse_only_identical(self):
        task = random_task("rozum", 24, seed=13)
        robot, fast, gold = checker_pair(task, "two_stage", fine_stage=False)
        rng = np.random.default_rng(4)
        configs = rng.uniform(robot.config_lo, robot.config_hi, size=(40, robot.dof))
        for config in configs:
            c_fast, c_gold = OpCounter(), OpCounter()
            assert fast.config_in_collision(config, counter=c_fast) == \
                gold.config_in_collision(config, counter=c_gold)
            assert c_fast.to_dict() == c_gold.to_dict()

    def test_empty_environment_identical(self):
        task = random_task("mobile2d", 0, seed=1)
        robot, fast, gold = checker_pair(task, "obb")
        config = robot.clip(np.zeros(robot.dof))
        c_fast, c_gold = OpCounter(), OpCounter()
        assert fast.config_in_collision(config, counter=c_fast) == \
            gold.config_in_collision(config, counter=c_gold)
        assert c_fast.to_dict() == c_gold.to_dict()


#: Every checker variant of the unified block walk: (checker, kwargs).
UNIFIED_CASES = [
    ("obb", {}),
    ("aabb", {}),
    ("two_stage", {}),
    ("two_stage", {"fine_stage": False}),
    ("grid", {}),
]
UNIFIED_IDS = ["obb", "aabb", "two_stage", "two_stage-coarse", "grid"]


def _unit_rows(n_min, n_max):
    """Lists of 1..n configuration rows as unit-cube coordinates."""
    unit = st.floats(0.0, 1.0, allow_nan=False)
    return st.integers(n_min, n_max).flatmap(
        lambda n: st.lists(st.lists(unit, min_size=8, max_size=8),
                           min_size=n, max_size=n)
    )


def _scale(robot, rows):
    """Map unit-cube rows into the robot's configuration bounds."""
    u = np.asarray(rows, dtype=float)[:, : robot.dof]
    return robot.config_lo + u * (robot.config_hi - robot.config_lo)


@pytest.mark.parametrize("robot_name", ["mobile2d", "rozum"])
@pytest.mark.parametrize("obstacles", [0, 24])
@pytest.mark.parametrize("checker,kwargs", UNIFIED_CASES, ids=UNIFIED_IDS)
class TestUnifiedValidationPath:
    """Per-configuration queries and movements share one block walk.

    ``config_results`` checks every row as a block of its own, so its rows
    must equal the reference backend's per-configuration verdicts and
    events; and an interpolated ladder's rows, merged up to the first hit,
    must equal what ``motion_in_collision`` records for that movement.
    """

    def test_config_results_rows_match_reference(
        self, checker, kwargs, obstacles, robot_name
    ):
        task = random_task(robot_name, obstacles, seed=14)
        robot, fast, gold = checker_pair(task, checker, **kwargs)

        @settings(max_examples=10, deadline=None)
        @given(rows=_unit_rows(1, 6))
        def check(rows):
            configs = _scale(robot, rows)
            results = fast.config_results(configs)
            assert len(results) == len(configs)
            for config, (verdict, events) in zip(configs, results):
                want = OpCounter()
                assert verdict == gold.config_in_collision(config, counter=want)
                assert events.to_dict() == want.to_dict()

        check()

    def test_ladder_rows_merge_to_motion_events(
        self, checker, kwargs, obstacles, robot_name
    ):
        task = random_task(robot_name, obstacles, seed=14)
        robot, fast, _ = checker_pair(task, checker, **kwargs)

        @settings(max_examples=10, deadline=None)
        @given(rows=_unit_rows(2, 2), length=st.floats(0.0, 3.0))
        def check(rows, length):
            start, toward = _scale(robot, rows)
            delta = toward - start
            norm = float(np.linalg.norm(delta))
            if norm > 1e-9:
                delta *= length * robot.step_size / norm
            end = robot.clip(start + delta)
            ladder = interpolate_configs(start, end, fast.motion_resolution)
            merged, blocked = OpCounter(), False
            for verdict, events in fast.config_results(ladder):
                merged.merge(events)
                if verdict:
                    blocked = True
                    break
            direct = OpCounter()
            assert blocked == fast.motion_in_collision(start, end, counter=direct)
            assert merged.to_dict() == direct.to_dict()

        check()


def run_pair(robot_name, num_obstacles, make_config, samples=150):
    task = random_task(robot_name, num_obstacles, seed=3)
    robot = get_robot(robot_name)
    out = {}
    for backend in ("batch", "reference"):
        config = make_config(kernels=backend, max_samples=samples, seed=5)
        out[backend] = plan(robot, task, config)
    return out["batch"], out["reference"]


class TestPlanEquivalence:
    @pytest.mark.parametrize(
        "robot_name,variant",
        [("mobile2d", "v4"), ("rozum", "v1"), ("rozum", "v4"), ("drone3d", "v2")],
    )
    def test_moped_plans_bit_identical(self, robot_name, variant):
        fast, gold = run_pair(
            robot_name, 20, lambda **kw: moped_config(variant, **kw)
        )
        assert fast.success == gold.success
        assert fast.path_cost == gold.path_cost
        assert len(fast.path) == len(gold.path)
        for a, b in zip(fast.path, gold.path):
            assert np.array_equal(a, b)
        assert fast.counter.to_dict() == gold.counter.to_dict()

    def test_baseline_plans_bit_identical(self):
        fast, gold = run_pair("mobile2d", 16, baseline_config)
        assert fast.path_cost == gold.path_cost
        assert fast.counter.to_dict() == gold.counter.to_dict()

    def test_node_sequences_identical(self):
        fast, gold = run_pair("rozum", 20, lambda **kw: moped_config("v4", **kw))
        assert fast.num_nodes == gold.num_nodes
        assert fast.iterations == gold.iterations
        assert fast.first_solution_iteration == gold.first_solution_iteration


class TestBackendSelection:
    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="kernels"):
            PlannerConfig(kernels="simd")

    def test_checker_rejects_unknown_backend(self):
        task = random_task("mobile2d", 4, seed=0)
        robot = get_robot("mobile2d")
        with pytest.raises((KeyError, ValueError)):
            make_checker(
                "obb", robot, task.environment, robot.step_size / 4.0, kernels="simd"
            )

    def test_default_backend_is_batch(self):
        assert PlannerConfig().kernels == "batch"
