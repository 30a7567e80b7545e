"""The whole-edge block walk equals the scalar reference, block by block.

Every checker's batch walk (environment-constant unit and obstacle terms,
per-row body terms shared by both stages, the one-gather-per-level R-tree
replay) must return, for each block of a ``motion_results_batch`` call, the
verdict and the ``OpCounter`` of ``kernels="reference"``.  Covered: the
three robot families, the brute OBB / AABB checkers and the two-stage
checker with and without its fine stage, single- and multi-edge calls,
one-node R-trees (the light serving shape, <= 8 obstacles) and multi-level
ones, zero-length edges, and hits on the first and on the last ladder row.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collision import make_checker
from repro.core.robots import get_robot
from repro.workloads.generator import random_task

ROBOTS = ("mobile2d", "drone3d", "xarm7")
#: (checker name, extra kwargs)
CHECKERS = (
    ("obb", {}),
    ("aabb", {}),
    ("two_stage", {}),
    ("two_stage", {"fine_stage": False}),
)
#: 8 obstacles build a one-node R-tree; 40 a multi-level one.
OBSTACLES = (8, 40)

_SETUPS = {}


def _setup(robot_name, obstacles):
    key = (robot_name, obstacles)
    if key not in _SETUPS:
        robot = get_robot(robot_name)
        env = random_task(robot_name, obstacles, seed=11).environment
        resolution = robot.step_size / 4.0
        _SETUPS[key] = (robot, env, resolution, _special_edges(robot, env, resolution))
    return _SETUPS[key]


def _special_edges(robot, env, resolution):
    """Edges that hit on their first row and on their last row, and two
    zero-length edges (one colliding, one free)."""
    checker = make_checker("obb", robot, env, resolution)
    rng = np.random.default_rng(0)
    free, hit = [], []
    while len(free) < 2 or len(hit) < 2:
        configs = rng.uniform(robot.config_lo, robot.config_hi, size=(500, robot.dof))
        for config, (verdict, _) in zip(configs, checker.config_results(configs)):
            (hit if verdict else free).append(config)
    # Walk back from a colliding configuration, one resolution step at a
    # time, to the first free one: that step is a two-row edge whose last
    # row is its first hit.
    direction = rng.normal(size=robot.dof)
    direction *= resolution / np.linalg.norm(direction)
    end = hit[0]
    start = end - direction
    while checker.config_in_collision(start):
        end, start = start, start - direction
    return [(hit[0], free[0]), (start, end), (hit[1], hit[1].copy()),
            (free[1], free[1].copy())]


def _check_equal(name, kwargs, robot, env, resolution, starts, ends):
    batch = make_checker(name, robot, env, resolution, **kwargs)
    golden = make_checker(name, robot, env, resolution, kernels="reference", **kwargs)
    got = batch.motion_results_batch(starts, ends)
    want = golden.motion_results_batch(starts, ends)
    assert len(got) == len(want) == len(starts)
    for e, ((hit, events), (ref_hit, ref_events)) in enumerate(zip(got, want)):
        assert hit == ref_hit, f"edge {e}: verdict"
        assert events.to_dict() == ref_events.to_dict(), f"edge {e}: counters"
    return [hit for hit, _ in got]


@pytest.mark.parametrize("robot_name", ROBOTS)
@pytest.mark.parametrize("obstacles", OBSTACLES)
@pytest.mark.parametrize("name,kwargs", CHECKERS)
def test_first_last_and_zero_length_edges(robot_name, obstacles, name, kwargs):
    robot, env, resolution, special = _setup(robot_name, obstacles)
    assert (env.flat_rtree.num_nodes == 1) == (obstacles <= 8)
    starts = np.array([s for s, _ in special])
    ends = np.array([e for _, e in special])
    # One call per edge (the W=1 shape), then all in one call.
    for start, end in zip(starts, ends):
        _check_equal(name, kwargs, robot, env, resolution, start[None], end[None])
    hits = _check_equal(name, kwargs, robot, env, resolution, starts, ends)
    if name != "aabb" and kwargs.get("fine_stage", True):
        assert hits[:3] == [True, True, True]


@st.composite
def _calls(draw):
    robot_name = draw(st.sampled_from(ROBOTS))
    obstacles = draw(st.sampled_from(OBSTACLES))
    name, kwargs = draw(st.sampled_from(CHECKERS))
    robot, env, resolution, special = _setup(robot_name, obstacles)
    count = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    starts = rng.uniform(robot.config_lo, robot.config_hi, size=(count, robot.dof))
    lengths = rng.uniform(0.0, 2.0, size=(count, 1)) * robot.step_size
    directions = rng.normal(size=(count, robot.dof))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    ends = np.clip(starts + directions * lengths, robot.config_lo, robot.config_hi)
    # Mix in the special edges (first/last-row hits, zero length).
    for i in range(count):
        if draw(st.booleans()) and draw(st.booleans()):
            starts[i], ends[i] = special[draw(st.integers(0, len(special) - 1))]
    return name, kwargs, robot, env, resolution, starts, ends


@settings(max_examples=80, deadline=None)
@given(_calls())
def test_walk_equals_reference(call):
    name, kwargs, robot, env, resolution, starts, ends = call
    _check_equal(name, kwargs, robot, env, resolution, starts, ends)
