"""MOPED core: the planning algorithms and their cost instrumentation.

Public surface:

* :class:`~repro.core.moped.MopedEngine` — the high-level planning engine.
* :func:`~repro.core.robots.get_robot` / :func:`~repro.core.robots.all_robots`
  — the five Section V evaluation robots.
* :class:`~repro.core.world.Environment` / :class:`~repro.core.world.PlanningTask`.
* :class:`~repro.core.config.PlannerConfig` with the ``baseline``/``v1``..``v4``
  ablation presets.
* :class:`~repro.core.counters.OpCounter` — the MAC-level cost model every
  figure's "computational cost" axis is measured in.
"""

from repro.core.config import PlannerConfig, baseline_config, moped_config
from repro.core.counters import OpCounter, mac_cost
from repro.core.connect import RRTConnectPlanner
from repro.core.informed import InformedSampler
from repro.core.quantization import (
    QuantizingSampler,
    quantization_step,
    quantize_config,
    quantize_environment,
    quantize_obb,
    quantize_task,
    quantize_values,
)
from repro.core.replan import ReplanningSession, environment_prep_macs
from repro.core.smoothing import shortcut_smooth
from repro.core.trajectory import Trajectory, TrajectorySegment, time_parameterize
from repro.core.metrics import PlanResult, RoundRecord, path_length
from repro.core.moped import MopedEngine, config_for_variant, VARIANTS
from repro.core.planners import make_planner
from repro.core.portfolio import PLANNERS, PortfolioStats, task_signature
from repro.core.robots import RobotModel, all_robots, get_robot, ROBOT_FACTORIES
from repro.core.rrtstar import RRTStarPlanner, plan
from repro.core.tree import ExpTree
from repro.core.world import Environment, PlanningTask

__all__ = [
    "Environment",
    "ExpTree",
    "InformedSampler",
    "Trajectory",
    "TrajectorySegment",
    "time_parameterize",
    "RRTConnectPlanner",
    "QuantizingSampler",
    "ReplanningSession",
    "quantization_step",
    "quantize_config",
    "quantize_environment",
    "quantize_obb",
    "quantize_task",
    "quantize_values",
    "environment_prep_macs",
    "shortcut_smooth",
    "MopedEngine",
    "OpCounter",
    "PLANNERS",
    "PlanResult",
    "PlannerConfig",
    "PlanningTask",
    "PortfolioStats",
    "ROBOT_FACTORIES",
    "RRTStarPlanner",
    "RobotModel",
    "RoundRecord",
    "VARIANTS",
    "all_robots",
    "baseline_config",
    "config_for_variant",
    "get_robot",
    "mac_cost",
    "make_planner",
    "moped_config",
    "path_length",
    "plan",
    "task_signature",
]
