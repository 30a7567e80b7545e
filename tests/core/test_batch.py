"""Unit tests for batched sampling rounds in RRT\\*.

The planner's run loop processes its samples in waves of up to
``wave_width``; a wave is the batch.  A wave of one sample is the plain
sequential round, which checks every edge directly and never speculates.
"""

import numpy as np
import pytest

from repro.core.config import moped_config
from repro.core.collision import BruteOBBChecker
from repro.core.robots import get_robot
from repro.core.rrtstar import RRTStarPlanner
from repro.workloads import random_task


@pytest.fixture(scope="module")
def task2d():
    return random_task("mobile2d", 12, seed=6)


def batch_plan(task, batch_size=4, **overrides):
    robot = get_robot(task.robot_name)
    config = moped_config("v4", max_samples=300, seed=0, goal_bias=0.15,
                          wave_width=batch_size, **overrides)
    return RRTStarPlanner(robot, task, config).plan()


class TestBatchPlanner:
    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            moped_config("v4", wave_width=0)

    def test_solves_task(self, task2d):
        result = batch_plan(task2d)
        assert result.success

    def test_sampling_budget_respected(self, task2d):
        result = batch_plan(task2d, batch_size=7)
        assert result.counter.events["sample"] <= 300 + 1

    def test_rounds_are_batched(self, task2d):
        result = batch_plan(task2d, batch_size=4)
        # 300 samples in waves of 4 -> 75 waves of 4 committed rounds each.
        assert len(result.rounds) == 300
        assert all(r.wave_width == 4 for r in result.rounds)
        assert len(result.rounds) // 4 == 75

    def test_batch_one_equals_sequential_structure(self, task2d, monkeypatch):
        """A one-sample wave is the plain round: it never speculates."""
        robot = get_robot("mobile2d")
        config = moped_config("v4", max_samples=200, seed=3, goal_bias=0.15)
        plain = RRTStarPlanner(robot, task2d, config).plan()

        def no_speculation(*args, **kwargs):
            raise AssertionError("a one-sample wave must not speculate")

        monkeypatch.setattr(RRTStarPlanner, "_speculate", no_speculation)
        batched = RRTStarPlanner(
            robot, task2d, moped_config("v4", max_samples=200, seed=3,
                                        goal_bias=0.15, wave_width=1)
        ).plan()
        assert batched.num_nodes == plain.num_nodes
        assert batched.path_cost == pytest.approx(plain.path_cost)
        assert all(r.wave_width == 1 and not r.repaired_in_wave
                   for r in batched.rounds)

    def test_path_collision_free(self, task2d):
        result = batch_plan(task2d)
        robot = get_robot("mobile2d")
        checker = BruteOBBChecker(robot, task2d.environment, motion_resolution=1.5)
        for a, b in zip(result.path[:-1], result.path[1:]):
            assert not checker.motion_in_collision(a, b)

    def test_tree_valid(self, task2d):
        robot = get_robot("mobile2d")
        config = moped_config("v4", max_samples=200, seed=1, goal_bias=0.15,
                              wave_width=6)
        planner = RRTStarPlanner(robot, task2d, config)
        planner.plan()
        planner.tree.validate()

    def test_quality_comparable_to_sequential(self, task2d):
        """Speculating over a wave costs little path quality."""
        robot = get_robot("mobile2d")
        seq_costs, batch_costs = [], []
        for seed in range(3):
            config = moped_config("v4", max_samples=300, seed=seed, goal_bias=0.15)
            seq = RRTStarPlanner(robot, task2d, config).plan()
            bat = RRTStarPlanner(
                robot, task2d, moped_config("v4", max_samples=300, seed=seed,
                                            goal_bias=0.15, wave_width=4)
            ).plan()
            if seq.success and bat.success:
                seq_costs.append(seq.path_cost)
                batch_costs.append(bat.path_cost)
        assert seq_costs, "sequential planner never succeeded"
        assert np.mean(batch_costs) <= 1.3 * np.mean(seq_costs)
