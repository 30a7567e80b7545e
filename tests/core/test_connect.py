"""Unit tests for the bidirectional RRT-Connect planner."""

import numpy as np
import pytest

from repro.core.config import baseline_config, moped_config
from repro.core.connect import RRTConnectPlanner
from repro.core.collision import BruteOBBChecker
from repro.core.robots import get_robot
from repro.core.rrtstar import RRTStarPlanner
from repro.core.world import Environment, PlanningTask
from repro.workloads import random_task


@pytest.fixture(scope="module")
def task2d():
    return random_task("mobile2d", 16, seed=4)


def connect_plan(task, config=None, **overrides):
    robot = get_robot(task.robot_name)
    config = config or moped_config("v4", max_samples=500, seed=0, **overrides)
    return RRTConnectPlanner(robot, task, config).plan()


class TestBasics:
    def test_finds_path(self, task2d):
        result = connect_plan(task2d)
        assert result.success
        assert len(result.path) >= 2

    def test_path_endpoints(self, task2d):
        result = connect_plan(task2d)
        np.testing.assert_allclose(result.path[0], task2d.start)
        np.testing.assert_allclose(result.path[-1], task2d.goal)

    def test_path_is_collision_free(self, task2d):
        result = connect_plan(task2d)
        robot = get_robot("mobile2d")
        checker = BruteOBBChecker(robot, task2d.environment, motion_resolution=1.5)
        for a, b in zip(result.path[:-1], result.path[1:]):
            assert not checker.motion_in_collision(a, b)

    def test_cost_matches_path(self, task2d):
        from repro.core.metrics import path_length

        result = connect_plan(task2d)
        assert result.path_cost == pytest.approx(path_length(result.path))

    def test_both_trees_valid(self, task2d):
        robot = get_robot("mobile2d")
        planner = RRTConnectPlanner(robot, task2d, moped_config("v4", max_samples=300, seed=1))
        planner.plan()
        planner.trees[0].validate()
        planner.trees[1].validate()

    def test_deterministic(self, task2d):
        a = connect_plan(task2d)
        b = connect_plan(task2d)
        assert a.path_cost == b.path_cost
        assert a.iterations == b.iterations

    def test_rejects_dim_mismatch(self, task2d):
        robot = get_robot("drone3d")
        with pytest.raises(ValueError):
            RRTConnectPlanner(robot, task2d, moped_config("v4"))

    def test_failure_when_boxed_in(self):
        from repro.geometry.obb import OBB

        walls = [
            OBB(np.array([50.0, 30.0]), np.array([30.0, 5.0]), np.eye(2)),
            OBB(np.array([50.0, 70.0]), np.array([30.0, 5.0]), np.eye(2)),
            OBB(np.array([30.0, 50.0]), np.array([5.0, 30.0]), np.eye(2)),
            OBB(np.array([70.0, 50.0]), np.array([5.0, 30.0]), np.eye(2)),
        ]
        env = Environment(2, 300.0, walls)
        task = PlanningTask(
            "mobile2d", env, np.array([50.0, 50.0, 0.0]), np.array([250.0, 250.0, 0.0])
        )
        result = connect_plan(task, config=moped_config("v4", max_samples=150, seed=0))
        assert not result.success
        assert result.path == []


def _assert_plans_bit_equal(a, b):
    """Full bit-equality: paths, costs, counters, and per-round records."""
    assert len(a.path) == len(b.path)
    for p, q in zip(a.path, b.path):
        assert np.array_equal(p, q)
    assert a.path_cost == b.path_cost
    assert a.num_nodes == b.num_nodes
    assert a.iterations == b.iterations
    assert a.counter.to_dict() == b.counter.to_dict()
    assert len(a.rounds) == len(b.rounds)
    for r, s in zip(a.rounds, b.rounds):
        assert (r.ns_macs, r.cc_macs, r.maint_macs, r.other_macs) == (
            s.ns_macs, s.cc_macs, s.maint_macs, s.other_macs
        )
        assert (r.accepted, r.events) == (s.accepted, s.events)


def boxed_in_task():
    """An unsolvable task (goal walled off) to force budget expiry."""
    from repro.geometry.obb import OBB

    walls = [
        OBB(np.array([50.0, 30.0]), np.array([30.0, 5.0]), np.eye(2)),
        OBB(np.array([50.0, 70.0]), np.array([30.0, 5.0]), np.eye(2)),
        OBB(np.array([30.0, 50.0]), np.array([5.0, 30.0]), np.eye(2)),
        OBB(np.array([70.0, 50.0]), np.array([5.0, 30.0]), np.eye(2)),
    ]
    env = Environment(2, 300.0, walls)
    return PlanningTask(
        "mobile2d", env, np.array([50.0, 50.0, 0.0]), np.array([250.0, 250.0, 0.0])
    )


class TestBitReproducibility:
    """Fixed-seed RRT-Connect is bit-reproducible across repeats and widths."""

    def test_repeats_bit_identical(self, task2d):
        a = connect_plan(task2d)
        b = connect_plan(task2d)
        _assert_plans_bit_equal(a, b)

    @pytest.mark.parametrize("width", [2, 4, 8])
    def test_wave_widths_bit_identical(self, task2d, width):
        scalar = connect_plan(task2d, wave_width=1)
        wave = connect_plan(task2d, wave_width=width)
        _assert_plans_bit_equal(scalar, wave)

    def test_arm_robot_bit_identical_across_widths(self):
        task = random_task("rozum", 12, seed=2)
        scalar = connect_plan(task, config=moped_config(
            "v4", max_samples=300, seed=5, mode="connect", wave_width=1))
        wave = connect_plan(task, config=moped_config(
            "v4", max_samples=300, seed=5, mode="connect", wave_width=8))
        _assert_plans_bit_equal(scalar, wave)


class TestBudgets:
    """Connect honors the PR 5 anytime budgets and race cancellation."""

    @pytest.mark.parametrize("width", [1, 8])
    def test_deadline_degrades(self, width):
        task = boxed_in_task()
        result = connect_plan(
            task,
            config=moped_config("v4", max_samples=1_000_000, seed=0,
                                wave_width=width, deadline_s=0.05,
                                mode="connect"),
        )
        assert result.status == "degraded"
        assert result.degraded_reason == "deadline"
        assert result.iterations < 1_000_000
        assert not result.success

    @pytest.mark.parametrize("width", [1, 8])
    def test_op_budget_degrades(self, width):
        task = boxed_in_task()
        result = connect_plan(
            task,
            config=moped_config("v4", max_samples=100_000, seed=0,
                                wave_width=width, op_budget=20_000.0,
                                mode="connect"),
        )
        assert result.status == "degraded"
        assert result.degraded_reason == "op_budget"
        assert result.counter.total_macs() >= 20_000.0

    def test_degraded_returns_collision_free_prefix(self):
        task = boxed_in_task()
        result = connect_plan(
            task,
            config=moped_config("v4", max_samples=100_000, seed=0,
                                op_budget=20_000.0, mode="connect"),
        )
        assert len(result.path) >= 1
        np.testing.assert_allclose(result.path[0], task.start)
        assert result.best_goal_distance is not None
        robot = get_robot("mobile2d")
        checker = BruteOBBChecker(robot, task.environment, motion_resolution=1.0)
        for a, b in zip(result.path[:-1], result.path[1:]):
            assert not checker.motion_in_collision(a, b)

    @pytest.mark.parametrize("width", [1, 8])
    def test_unreachable_budgets_do_not_perturb_the_run(self, task2d, width):
        bare = connect_plan(task2d, wave_width=width)
        armed = connect_plan(task2d, wave_width=width,
                             deadline_s=3600.0, op_budget=1e18)
        assert armed.success
        _assert_plans_bit_equal(bare, armed)

    def test_cancel_predicate_stops_the_run(self):
        from repro.core import cancel

        task = boxed_in_task()
        polls = []

        def predicate():
            polls.append(1)
            return len(polls) > 3

        previous = cancel.install(predicate)
        try:
            result = connect_plan(
                task,
                config=moped_config("v4", max_samples=100_000, seed=0,
                                    mode="connect"),
            )
        finally:
            cancel.install(previous)
        assert result.status == "degraded"
        assert result.degraded_reason == "cancelled"
        assert result.iterations <= len(polls)


class TestFaultedConnect:
    """connect.extend fault site: a faulted connect always terminates."""

    def teardown_method(self):
        from repro import faults

        faults.clear()

    def test_error_fault_fires_and_terminates(self, task2d):
        from repro import faults
        from repro.errors import FaultInjected

        injector = faults.install_plan(
            faults.FaultPlan.from_spec("connect.extend:error"))
        with pytest.raises(FaultInjected, match="connect.extend"):
            connect_plan(task2d)
        assert injector.counts().get("connect.extend:error", 0) >= 1

    def test_collision_error_ends_wide_and_one_sample_waves_alike(self, task2d):
        """``planner.collision`` fires once per commit-time collision step."""
        from repro import faults
        from repro.errors import FaultInjected

        def until_fault(width):
            planner = RRTConnectPlanner(
                get_robot("mobile2d"), task2d,
                moped_config("v4", max_samples=500, seed=0, wave_width=width))
            faults.install_plan(
                faults.FaultPlan.from_spec("planner.collision:error:after=5"))
            try:
                with pytest.raises(FaultInjected) as raised:
                    planner.plan()
            finally:
                faults.clear()
            return planner, str(raised.value)

        wide, wide_error = until_fault(8)
        one, one_error = until_fault(1)
        assert wide_error == one_error
        for wide_tree, one_tree in zip(wide.trees, one.trees):
            assert len(wide_tree) == len(one_tree)
            assert np.array_equal(wide_tree.points_view(), one_tree.points_view())
        assert len(one.trees[0]) + len(one.trees[1]) > 2

    def test_slow_fault_under_deadline_degrades_promptly(self):
        import time

        from repro import faults

        task = boxed_in_task()
        injector = faults.install_plan(
            faults.FaultPlan.from_spec("connect.extend:slow:delay=0.002"))
        started = time.monotonic()
        result = connect_plan(
            task,
            config=moped_config("v4", max_samples=1_000_000, seed=0,
                                deadline_s=0.1, mode="connect"),
        )
        elapsed = time.monotonic() - started
        assert result.status == "degraded"
        assert result.degraded_reason == "deadline"
        assert elapsed < 5.0  # the per-chunk poll keeps the overshoot bounded
        assert injector.counts().get("connect.extend:slow", 0) >= 1


class TestVsRRTStar:
    def test_finds_first_solution_faster(self, task2d):
        """Connect reaches feasibility in fewer iterations than RRT\\*."""
        connect = connect_plan(task2d)
        robot = get_robot("mobile2d")
        star = RRTStarPlanner(
            robot, task2d, moped_config("v4", max_samples=500, seed=0, goal_bias=0.1)
        ).plan()
        assert connect.success and star.success
        assert connect.iterations < star.first_solution_iteration + 50

    def test_works_with_baseline_config(self, task2d):
        result = connect_plan(task2d, config=baseline_config(max_samples=500, seed=0))
        assert result.success

    def test_composes_with_moped_optimisations(self, task2d):
        """Two-stage checking cuts RRT-Connect's cost too (Section VI)."""
        base = connect_plan(task2d, config=baseline_config(max_samples=500, seed=0))
        moped = connect_plan(task2d, config=moped_config("v4", max_samples=500, seed=0))
        assert moped.total_macs < base.total_macs

    def test_rounds_recorded(self, task2d):
        result = connect_plan(task2d)
        assert len(result.rounds) == result.iterations
        assert any(r.accepted for r in result.rounds)
