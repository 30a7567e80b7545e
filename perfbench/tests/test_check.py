"""The output checks reject planted faults and accept real plans."""

import pytest

import check
from repro.core.moped import config_for_variant
from repro.core.planners import make_planner
from repro.core.robots import get_robot
from repro.service.request import PlanRequest
from repro.workloads import random_task


@pytest.fixture(scope="module")
def planned():
    task = random_task("mobile2d", 8, seed=2, task_id=3)
    config = config_for_variant("v4", wave_width=1, max_samples=150, seed=3)
    result = make_planner(get_robot("mobile2d"), task, config).plan()
    assert result.success
    return task, config, [p.tolist() for p in result.path], float(result.path_cost)


def test_real_plan_passes(planned):
    task, config, path, cost = planned
    check.check_path(task, config, path, cost, True)
    check.check_replay(PlanRequest(task=task, config=config), path, cost)


def test_planted_colliding_path_is_rejected(planned):
    task, config, path, _ = planned
    bad = check.colliding_path(task, path)
    with pytest.raises(check.CheckFailure, match="collides"):
        check.check_path(task, config, bad, check.path_length(bad), True)


def test_plant_collision_makes_the_edge_check_fail(planned):
    task, config, path, cost = planned
    outputs = [{"task": task, "path": list(path), "path_cost": cost,
                "success": True}]
    check.plant("collision", outputs)
    with pytest.raises(check.CheckFailure, match="collides"):
        check.check_path(task, config, outputs[0]["path"],
                         outputs[0]["path_cost"], True)


def test_tampered_cost_is_rejected(planned):
    task, config, path, cost = planned
    with pytest.raises(check.CheckFailure, match="cost"):
        check.check_path(task, config, path, cost + 1.0, True)
    with pytest.raises(check.CheckFailure, match="cost"):
        check.check_replay(PlanRequest(task=task, config=config), path,
                           cost * (1 + 1e-12))


def test_path_must_start_at_start_and_reach_goal(planned):
    task, config, path, cost = planned
    with pytest.raises(check.CheckFailure, match="start"):
        check.check_path(task, config, path[1:], cost, True)
    with pytest.raises(check.CheckFailure, match="goal"):
        check.check_path(task, config, path[:2], cost, True)
