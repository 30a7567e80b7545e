"""Seeded inputs of the two workloads.

Everything the system under test receives in a measured phase is built
here from the run's ``--seed``: planning tasks for the library workload,
and the request bodies, classes and arrival schedule of the serving
workload.  The same seed always yields the same inputs.  Set-up's single
warm-up request is the same for every seed (:data:`SETUP_SEED`), so that
``setup_s`` does not vary with the seed's inputs.

Request classes of the serving workload (all on the ``v4`` MOPED
variant; environments come from a few fixed workcells, start/goal is
fresh per request):

* ``connect`` -- xarm7, 8 obstacles, RRT-Connect at wave width 8, on a
  short repositioning move (see :data:`MOVE`): one direct edge, a few
  milliseconds of planning, so the serving overhead dominates;
* ``light``   -- mobile2d, 8 obstacles, RRT* W=1, 150 samples (about
  120 ms; RRT* always draws all its samples, so its time is steady).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from stats import TAIL_BEYOND

#: Workcell (environment) seeds per robot.  Fixed across benchmark seeds:
#: only start/goal, class order and tasks depend on ``--seed``.
WORKCELLS: Dict[str, Tuple[int, ...]] = {
    "xarm7": (1, 2, 3),
    "mobile2d": (1, 2),
}

#: class -> (obstacles, planner overrides for config_for_variant)
CLASSES: Dict[str, Tuple[int, Dict]] = {
    "connect": (8, dict(wave_width=8, max_samples=600, mode="connect")),
    "light": (8, dict(wave_width=1, max_samples=150)),
}

#: ``serve-cold-mixed`` (class, robot) shares.  Both the median and the
#: tail quantile fall inside the mobile2d RRT* class (its 29th and about
#: 90th percentile): a fixed-work plan of about 120 ms whose time tracks
#: the CPU.  With connect requests in the majority the median was a few
#: milliseconds of thread and process hand-offs, whose time in this
#: virtual machine swung by half from run to run.  A class of 500 ms RRT*
#: plans made the queue, not the layers, decide the tail, and was left out.
COLD_MIX: Dict[Tuple[str, str], float] = {
    ("light", "mobile2d"): 0.7,
    ("connect", "xarm7"): 0.3,
}

#: Library workload: xarm7, 24 obstacles, RRT* W=8, 400 samples.  At 600
#: samples a plan took about a second, and a 25 s run held too few plans
#: for a tail quantile with ten samples beyond it to be a tail.  At 300
#: samples only two thirds of the tasks found a path, and
#: ``path_found_share`` spread by up to 0.18 between seeds.
PLAN_ROBOT, PLAN_OBSTACLES = "xarm7", 24
PLAN_OVERRIDES = dict(wave_width=8, max_samples=400)

#: The library workload plans ``--seconds / NOMINAL_PLAN_S`` tasks (at
#: least :data:`MIN_PLAN_TASKS`), however fast they go: a fixed count
#: keeps the task set, and so the tail quantile and the behaviour
#: metrics, the same for a seed on every commit and host.  A plan takes
#: about 0.56 s on a 2-vCPU virtual machine, so the phase lasts about
#: 1.1 times ``--seconds`` there.
NOMINAL_PLAN_S = 0.5
MIN_PLAN_TASKS = 4 * TAIL_BEYOND

#: Seed of the set-up warm-up inputs, fixed across benchmark seeds.
SETUP_SEED = 0

#: Index of the first ``serve-cold-mixed`` capacity-phase request; its
#: requests are distinct from the open-loop ones.
CAPACITY_FIRST = 500_000

#: ``connect`` requests are short repositioning moves: the goal lies this
#: far (C-space norm, radians) from the start.  RRT-Connect answers them
#: with one direct edge in a few milliseconds.  On random far-apart
#: queries its time is bimodal (a direct edge for about half of them,
#: 10-300 ms of search for the rest).
MOVE = (1.0, 2.0)

_RID = "@@RID@@"


def _seed_base(seed: int) -> int:
    return 1_000_003 * (int(seed) + 1)


def plan_task_count(seconds: float) -> int:
    return max(MIN_PLAN_TASKS, int(round(seconds / NOMINAL_PLAN_S)))


def plan_task(seed: int, index: int):
    """Task ``index`` of the library workload (own environment per task)."""
    from repro.workloads import random_task

    return random_task(PLAN_ROBOT, PLAN_OBSTACLES,
                       seed=_seed_base(seed) + index, task_id=index)


def plan_config(seed: int, index: int):
    from repro.core.moped import config_for_variant

    return config_for_variant("v4", seed=_seed_base(seed) + index,
                              **PLAN_OVERRIDES)


@dataclass
class ServeRequest:
    """One generated serving request: its class and wire body template."""

    klass: str
    request: object  # repro.service.request.PlanRequest
    _prefix: bytes = b""
    _suffix: bytes = b""

    def body(self, request_id: str) -> bytes:
        """The full-form wire body carrying ``request_id``."""
        return self._prefix + json.dumps(request_id).encode() + self._suffix


def make_request(klass: str, robot: str, seed: int, index: int,
                 task=None) -> ServeRequest:
    """A request of ``klass`` for ``robot`` with its own planner seed.

    Without ``task``, the task is fresh: one of the robot's workcells
    (round robin) with a new start/goal.
    """
    from repro.core.moped import config_for_variant
    from repro.net.wire import request_to_wire
    from repro.service.request import PlanRequest
    from repro.workloads import random_task

    obstacles, overrides = CLASSES[klass]
    workcell = WORKCELLS[robot][index % len(WORKCELLS[robot])]
    task_id = _seed_base(seed) + index
    if task is None:
        task = random_task(robot, obstacles, seed=workcell, task_id=task_id)
    config = config_for_variant("v4", seed=task_id % 100_000, **overrides)
    request = PlanRequest(task=task, config=config, request_id=_RID)
    text = json.dumps(request_to_wire(request))
    prefix, suffix = text.split(json.dumps(_RID))
    return ServeRequest(klass, request, prefix.encode(), suffix.encode())


def exact_shuffle(rng: random.Random, weights: Dict, n: int) -> List:
    """``n`` labels with exact (rounded) shares, in seeded order.

    Exact counts keep the class mix identical from run to run, so a
    quantile never drifts between classes because one run drew more slow
    requests than another.
    """
    names = sorted(weights)
    counts = {name: int(round(weights[name] * n)) for name in names}
    counts[names[0]] += n - sum(counts.values())
    labels = [name for name in names for _ in range(counts[name])]
    rng.shuffle(labels)
    return labels


def paced_schedule(rate: float, seconds: float) -> List[float]:
    """Due offsets (s) of ``rate * seconds`` evenly paced arrivals.

    Paced, not Poisson: with Poisson arrivals the run-to-run spread of
    both latency quantiles was several times the bound a 5% change needs
    (queueing after random bursts decided them), at any rate that keeps
    the single worker below half busy.
    """
    n = max(1, int(round(rate * seconds)))
    return [i / rate for i in range(n)]


def cold_inputs(seed: int, rate: float, seconds: float):
    """(due offsets, requests) of ``serve-cold-mixed``; every one a miss."""
    due = paced_schedule(rate, seconds)
    return due, mixed_requests(seed, len(due), 0)


def mixed_requests(seed: int, n: int, first: int) -> List[ServeRequest]:
    """``n`` fresh requests in the :data:`COLD_MIX` shares, indexed from
    ``first``."""
    rng = random.Random(_seed_base(seed) + first)
    labels = exact_shuffle(rng, COLD_MIX, n)
    return [make_request(klass, robot, seed, first + i,
                         task=short_move_task(seed, first + i)
                         if klass == "connect" else None)
            for i, (klass, robot) in enumerate(labels)]


def short_move_task(seed: int, index: int):
    """An xarm7 task in a fixed workcell whose goal is a short move away."""
    import numpy as np

    from repro.core.collision import BruteOBBChecker
    from repro.core.robots import get_robot
    from repro.core.world import PlanningTask
    from repro.workloads import random_task

    robot = get_robot("xarm7")
    obstacles, _ = CLASSES["connect"]
    workcells = WORKCELLS["xarm7"]
    task_id = _seed_base(seed) + index
    base = random_task("xarm7", obstacles, seed=workcells[index % len(workcells)],
                       task_id=task_id)
    checker = BruteOBBChecker(robot, base.environment,
                              motion_resolution=robot.step_size)
    rng = np.random.default_rng(task_id)
    for _ in range(1000):
        step = rng.normal(size=robot.dof)
        step *= rng.uniform(*MOVE) / np.linalg.norm(step)
        goal = np.clip(base.start + step, robot.config_lo, robot.config_hi)
        if not checker.config_in_collision(goal):
            return PlanningTask(robot_name="xarm7", environment=base.environment,
                                start=base.start, goal=goal, task_id=index)
    raise RuntimeError("no collision-free short move found")


def warmup_request() -> ServeRequest:
    """The single warm-up request every serving set-up sends."""
    return make_request("connect", "xarm7", SETUP_SEED, 800_000,
                        task=short_move_task(SETUP_SEED, 800_000))
