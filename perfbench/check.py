"""Output checks: every returned path is valid, sampled results replay.

A path is valid when it starts at the task's start, ends within the goal
tolerance (for a successful plan), its reported cost equals its length,
and every edge is free under :class:`repro.core.collision.BruteOBBChecker`
at the planner's motion resolution.  That checker tests every robot link
against every obstacle with exact OBB tests, so it shares no broad phase,
R-tree or two-stage code with the checkers the planners use.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Relative tolerance between a reported cost and the recomputed length
#: (the planners accumulate edge lengths in another order).
COST_RTOL = 1e-9


class CheckFailure(Exception):
    """An output of the system under test is wrong."""


def _checker(task, config):
    from repro.core.collision import BruteOBBChecker
    from repro.core.robots import get_robot

    robot = get_robot(task.robot_name)
    resolution = config.resolved_motion_resolution(robot.step_size)
    return robot, BruteOBBChecker(robot, task.environment,
                                  motion_resolution=resolution)


def check_path(task, config, path: Sequence[Sequence[float]], cost: float,
               success: bool, label: str = "") -> None:
    """Raise :class:`CheckFailure` unless ``path`` is a valid plan output."""
    if not path:
        if success:
            raise CheckFailure(f"{label}: success without a path")
        return
    robot, checker = _checker(task, config)
    points = np.asarray(path, dtype=float)
    if points.ndim != 2 or points.shape[1] != robot.dof:
        raise CheckFailure(f"{label}: path has shape {points.shape}")
    if not np.allclose(points[0], task.start, rtol=0.0, atol=1e-9):
        raise CheckFailure(f"{label}: path does not start at the task start")
    if success:
        tolerance = config.resolved_goal_tolerance(robot.step_size)
        gap = float(np.linalg.norm(points[-1] - task.goal))
        if gap > tolerance + 1e-9:
            raise CheckFailure(
                f"{label}: path ends {gap:.4g} from the goal (> {tolerance:.4g})")
    for k in range(len(points) - 1):
        if checker.motion_in_collision(points[k], points[k + 1]):
            raise CheckFailure(f"{label}: edge {k} collides")
    if success:
        length = path_length(points)
        if not math.isclose(length, cost, rel_tol=COST_RTOL, abs_tol=1e-9):
            raise CheckFailure(
                f"{label}: reported cost {cost!r} != path length {length!r}")


def path_length(points) -> float:
    points = np.asarray(points, dtype=float)
    return float(np.sum(np.linalg.norm(np.diff(points, axis=0), axis=1)))


def check_replay(request, served_path: List[List[float]],
                 served_cost: Optional[float], label: str = "") -> None:
    """The served result must equal an in-process ``plan()`` of the request."""
    from repro.core.planners import make_planner
    from repro.core.robots import get_robot

    robot = get_robot(request.task.robot_name)
    result = make_planner(robot, request.task, request.config).plan()
    local = [p.tolist() for p in result.path]
    if local != [list(p) for p in served_path]:
        raise CheckFailure(f"{label}: served path differs from in-process plan()")
    local_cost = float(result.path_cost)
    if served_cost is None:
        served_cost = float("inf")
    if not (local_cost == served_cost
            or (math.isinf(local_cost) and math.isinf(served_cost))):
        raise CheckFailure(
            f"{label}: served cost {served_cost!r} != in-process {local_cost!r}")


def plant(kind: str, outputs: List[Dict]) -> None:
    """Corrupt the first successful output on purpose (``--plant``).

    ``collision`` routes its path through a configuration in collision
    (and reports the new path's true length, so only the edge check can
    catch it); ``cost`` adds 1.0 to the reported cost.
    """
    for out in outputs:
        if out["success"] and len(out["path"]) >= 2:
            if kind == "cost":
                out["path_cost"] = float(out["path_cost"]) + 1.0
            elif kind == "collision":
                out["path"] = colliding_path(out["task"], out["path"])
                out["path_cost"] = path_length(out["path"])
            else:
                raise ValueError(f"unknown plant {kind!r}")
            return
    raise CheckFailure("nothing to plant into: no successful output")


def colliding_path(task, path: List[List[float]]) -> List[List[float]]:
    """``path`` with a detour through a configuration in collision.

    Samples configurations (seeded) until one collides, then inserts it
    between the first two waypoints; start and goal are unchanged.
    """
    from repro.core.collision import BruteOBBChecker
    from repro.core.robots import get_robot

    robot = get_robot(task.robot_name)
    checker = BruteOBBChecker(robot, task.environment,
                              motion_resolution=robot.step_size)
    rng = np.random.default_rng(0)
    for _ in range(100_000):
        config = rng.uniform(robot.config_lo, robot.config_hi)
        if checker.config_in_collision(config):
            return [path[0], config.tolist()] + [list(p) for p in path[1:]]
    raise RuntimeError("no colliding configuration found")
