"""JSON persistence for environments, tasks, and planning results.

Round-trippable serialisation so workloads can be pinned to disk and
planning outcomes archived — the glue a downstream user needs to share
regression cases or compare planner versions on identical inputs.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Union

import numpy as np

from repro.core.metrics import PlanResult
from repro.core.world import Environment, PlanningTask
from repro.geometry.obb import OBB

PathLike = Union[str, pathlib.Path]


# ----------------------------------------------------------------- encoding


def obb_to_dict(obb: OBB) -> Dict:
    """OBB -> plain dict (lists, no numpy)."""
    return {
        "center": obb.center.tolist(),
        "half_extents": obb.half_extents.tolist(),
        "rotation": obb.rotation.tolist(),
    }


def obb_from_dict(data: Dict) -> OBB:
    """Inverse of :func:`obb_to_dict`."""
    return OBB(
        np.asarray(data["center"], dtype=float),
        np.asarray(data["half_extents"], dtype=float),
        np.asarray(data["rotation"], dtype=float),
    )


def environment_to_dict(environment: Environment) -> Dict:
    """Environment -> plain dict."""
    return {
        "workspace_dim": environment.workspace_dim,
        "size": environment.size,
        "obstacles": [obb_to_dict(o) for o in environment.obstacles],
    }


def environment_from_dict(data: Dict) -> Environment:
    """Inverse of :func:`environment_to_dict`."""
    return Environment(
        int(data["workspace_dim"]),
        float(data["size"]),
        [obb_from_dict(o) for o in data["obstacles"]],
    )


def task_to_dict(task: PlanningTask) -> Dict:
    """PlanningTask -> plain dict."""
    return {
        "robot_name": task.robot_name,
        "environment": environment_to_dict(task.environment),
        "start": task.start.tolist(),
        "goal": task.goal.tolist(),
        "task_id": task.task_id,
    }


def task_from_dict(data: Dict) -> PlanningTask:
    """Inverse of :func:`task_to_dict`."""
    return PlanningTask(
        robot_name=data["robot_name"],
        environment=environment_from_dict(data["environment"]),
        start=np.asarray(data["start"], dtype=float),
        goal=np.asarray(data["goal"], dtype=float),
        task_id=int(data.get("task_id", 0)),
    )


def result_to_dict(result: PlanResult) -> Dict:
    """PlanResult -> plain dict (path, cost, op counts; rounds omitted)."""
    return {
        "success": result.success,
        "path": [p.tolist() for p in result.path],
        "path_cost": result.path_cost if np.isfinite(result.path_cost) else None,
        "num_nodes": result.num_nodes,
        "iterations": result.iterations,
        "first_solution_iteration": result.first_solution_iteration,
        "events": dict(result.counter.events),
        "macs": dict(result.counter.macs),
        "total_macs": result.total_macs,
        "neighborhood_macs": result.neighborhood_macs,
        "status": result.status,
        "degraded_reason": result.degraded_reason,
        "best_goal_distance": result.best_goal_distance,
    }


def result_from_dict(data: Dict) -> PlanResult:
    """Inverse of :func:`result_to_dict` (rounds are not archived).

    The counter is rebuilt via :meth:`OpCounter.from_dict`, so a result
    that crossed a JSON file or a process boundary still answers
    ``total_macs`` / ``macs_by_category`` queries exactly.
    """
    from repro.core.counters import OpCounter

    cost = data.get("path_cost")
    return PlanResult(
        success=bool(data["success"]),
        path=[np.asarray(p, dtype=float) for p in data.get("path", [])],
        path_cost=float(cost) if cost is not None else float("inf"),
        num_nodes=int(data.get("num_nodes", 0)),
        iterations=int(data.get("iterations", 0)),
        counter=OpCounter.from_dict(
            {"events": data.get("events", {}), "macs": data.get("macs", {})}
        ),
        first_solution_iteration=data.get("first_solution_iteration"),
        neighborhood_macs=float(data.get("neighborhood_macs", 0.0)),
        status=str(data.get("status", "complete")),
        degraded_reason=data.get("degraded_reason"),
        best_goal_distance=data.get("best_goal_distance"),
    )


# --------------------------------------------------------------------- files


def save_task(task: PlanningTask, path: PathLike) -> None:
    """Write a task to a JSON file."""
    pathlib.Path(path).write_text(json.dumps(task_to_dict(task), indent=2))


def load_task(path: PathLike) -> PlanningTask:
    """Read a task from a JSON file."""
    return task_from_dict(json.loads(pathlib.Path(path).read_text()))


def save_tasks(tasks: List[PlanningTask], path: PathLike) -> None:
    """Write a task suite to a JSON file."""
    payload = [task_to_dict(t) for t in tasks]
    pathlib.Path(path).write_text(json.dumps(payload, indent=2))


def load_tasks(path: PathLike) -> List[PlanningTask]:
    """Read a task suite, or a single task as a one-task suite, from JSON."""
    payload = json.loads(pathlib.Path(path).read_text())
    if isinstance(payload, dict):
        return [task_from_dict(payload)]
    return [task_from_dict(d) for d in payload]


def save_result(result: PlanResult, path: PathLike) -> None:
    """Write a planning result summary to a JSON file."""
    pathlib.Path(path).write_text(json.dumps(result_to_dict(result), indent=2))


def load_result(path: PathLike) -> PlanResult:
    """Read a planning result summary back from a JSON file."""
    return result_from_dict(json.loads(pathlib.Path(path).read_text()))
