"""Collision checkers: brute OBB, AABB-only, two-stage, and occupancy grid.

Four interchangeable checkers cover the paper's design space:

* :class:`BruteOBBChecker` — the vanilla RRT\\* checker: every body OBB is
  SAT-tested against every obstacle OBB at every interpolated configuration
  of a movement (the Section II-C cost bottleneck).
* :class:`BruteAABBChecker` — obstacles represented by their AABBs and
  checked with the cheaper AABB-OBB SAT.  Conservative: clear means clear,
  but its false positives degrade path quality (Section III-A, Fig 5/18).
* :class:`TwoStageChecker` — MOPED's contribution (Section III-A): an
  R-tree traversal of AABB-OBB checks filters the obstacle set, and only the
  surviving candidates receive the accurate OBB-OBB second stage.  Decisions
  are *identical* to :class:`BruteOBBChecker` (the filter is conservative
  and the second stage exact) at a fraction of the cost.
* :class:`OccupancyGridChecker` — the CODAcc baseline (ISCA'22, ref [4]):
  the workspace is discretised at one unit per cell and a configuration is
  checked by probing the voxels covered by the robot body.  Conservative by
  construction (voxels are outer approximations).

One validation path
-------------------

Every query — a single configuration, a batch of configurations, one
movement, or a wave of movements — is a list of contiguous *blocks* of
configuration rows, each walked in row order with the scalar early exit
(the first colliding row ends its block).  For a movement the block is its
interpolation ladder (:func:`repro.geometry.motion.interpolate_edges`),
checked from the tree side so collisions are found with the fewest checks;
for per-configuration queries every row is a block of its own.  All four
entry points — :meth:`CollisionChecker.config_in_collision`,
:meth:`~CollisionChecker.config_results`,
:meth:`~CollisionChecker.motion_in_collision` and
:meth:`~CollisionChecker.motion_results_batch` — reduce to that one block
walk and return, per block, a verdict and the
:class:`~repro.core.counters.OpCounter` events the scalar walk records.

VAMP ("Motions in Microseconds") shows that validating the *entire*
interpolated edge as one wide batched operation — instead of looping per
intermediate configuration — is where sampling-based planners find their
orders of magnitude, and that a single query is just a narrow batch.  So
the block walk has one implementation per kernel backend
(:data:`repro.kernels.KERNEL_BACKENDS`):

* ``"batch"`` (default) — forward kinematics runs once over all rows
  (``body_frames_batch``), the (rows x links x obstacles) SAT grids are
  evaluated in one stacked kernel invocation, and each checker's
  ``_batch_motion_results`` reduces every block to the scalar loop's
  early-exit statistics (:func:`repro.kernels.batch.segment_first_hit`
  and friends) — so decisions *and* operation counts are bit-identical to
  the reference backend while the arithmetic runs at ndarray speed.
* ``"reference"`` — the original scalar code path, ``_config_scalar``: one
  Python-level SAT call per (configuration, body, obstacle), early-exiting
  exactly where the hardware would.  It is the oracle the batch backend is
  tested against.

The occupancy-grid checker's inner loop is already an ndarray pass per
body, so it always walks ``_config_scalar``.  Registry metrics
(``repro_cc_*``) count executed work; OpCounters report the modeled
hardware cost.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.core.counters import OpCounter
from repro.core.robots import RobotModel
from repro.core.world import Environment
from repro.geometry.motion import interpolate_edges
from repro.kernels import KERNEL_BACKENDS, batch as kernels_batch
from repro.kernels.tensors import BodyBatch
from repro.obs import bump, observe
from repro.geometry.obb import OBB
from repro.geometry.sat import aabb_intersects_obb, obb_intersects_obb

#: Ladder-length histogram buckets for ``repro_cc_edge_ladder_steps``:
#: steered planner edges sit in the single digits (resolution = step / 4),
#: rewire-radius edges in the tens, workspace-scale probes beyond.
LADDER_STEP_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)

#: Block bounds of a single-configuration query.
_ONE_BLOCK = [0, 1]


class CollisionChecker:
    """Base class wiring a robot model to an environment.

    Args:
        kernels: ``"batch"`` evaluates checks through the vectorized
            kernels with exact count replay; ``"reference"`` keeps the
            original scalar per-object loops.
    """

    #: Subclasses with a vectorized block walk (``_batch_motion_results``)
    #: set this True; others (the grid checker) always run the scalar loop.
    _has_batch_kernels = False

    def __init__(
        self,
        robot: RobotModel,
        environment: Environment,
        motion_resolution: float,
        kernels: str = "batch",
    ):
        if robot.workspace_dim != environment.workspace_dim:
            raise ValueError(
                f"robot workspace dim {robot.workspace_dim} != "
                f"environment dim {environment.workspace_dim}"
            )
        if motion_resolution <= 0:
            raise ValueError("motion_resolution must be positive")
        if kernels not in KERNEL_BACKENDS:
            raise ValueError(
                f"unknown kernel backend {kernels!r}; available: {KERNEL_BACKENDS}"
            )
        self.robot = robot
        self.environment = environment
        self.motion_resolution = motion_resolution
        self.kernels = kernels
        # True when block walks run through the stacked kernels.
        self._batch_walk = bool(
            kernels == "batch"
            and self._has_batch_kernels
            and environment.num_obstacles
        )
        # ``edge.validate`` fault hook: bound once (checkers are built per
        # plan, after any injector install) and refreshed by the planner at
        # plan() time; None in the steady state, one is-None check per edge.
        from repro.faults import get_injector

        self._injector = get_injector()

    def config_in_collision(self, config: np.ndarray, counter=None) -> bool:
        """True when the robot at ``config`` intersects any obstacle."""
        config = np.asarray(config, dtype=float)
        verdict, events = self._block_results(config[None, :], _ONE_BLOCK)[0]
        if counter is not None:
            counter.merge(events)
        return verdict

    def config_results(self, configs: np.ndarray) -> List[tuple]:
        """Per-configuration ``(verdict, events)`` for every row of ``configs``.

        Each row is checked on its own (a block of one), so its captured
        :class:`OpCounter` holds exactly the events the scalar check of
        that configuration records.
        """
        configs = np.asarray(configs, dtype=float)
        return self._block_results(configs, list(range(len(configs) + 1)))

    def motion_in_collision(self, start: np.ndarray, end: np.ndarray, counter=None) -> bool:
        """True when the movement from ``start`` to ``end`` hits an obstacle.

        The straight C-space segment is discretised at ``motion_resolution``
        and each configuration checked from the ``start`` side, stopping at
        the first collision.  This is the single-edge case of
        :meth:`motion_results_batch`, with the captured events merged into
        ``counter``.
        """
        bump("repro_cc_motion_checks_total",
             help="Motion (edge) collision queries issued")
        start = np.asarray(start, dtype=float)
        end = np.asarray(end, dtype=float)
        verdict, events = self.motion_results_batch(start[None, :], end[None, :])[0]
        if counter is not None:
            counter.merge(events)
        return verdict

    def motion_results_batch(self, starts, ends) -> List[tuple]:
        """Whole-edge ``(verdict, events)`` for a batch of movements.

        For each edge ``e`` the returned verdict and captured
        :class:`OpCounter` equal what the scalar reference's start-side
        early-exit walk of ``interpolate_configs(starts[e], ends[e])``
        decides and records.  All edges share one ladder construction, one
        forward-kinematics batch, and one stacked kernel pass.

        The wavefront planner calls this once per wave with every
        speculative edge; ``motion_in_collision`` routes through it with a
        single edge.  Counter events are *captured* (not recorded into a
        caller counter) so one computation can serve the planner's
        per-round sub-counters; integer cost weights make the merged totals
        bitwise equal to direct recording.
        """
        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        count = len(starts)
        injector = self._injector
        if injector is not None:
            for _ in range(count):
                injector.fire("edge.validate")
        configs, bounds = interpolate_edges(starts, ends, self.motion_resolution)
        for lo, hi in zip(bounds, bounds[1:]):
            observe("repro_cc_edge_ladder_steps", hi - lo - 1,
                    help="Interpolation ladder length per validated edge",
                    buckets=LADDER_STEP_BUCKETS)
        bump("repro_cc_edge_validations_total", count,
             path="edge_kernel" if self._batch_walk else "scalar",
             help="Edge validations by execution path")
        return self._block_results(configs, bounds)

    def _block_results(self, configs: np.ndarray, bounds: List[int]) -> List[tuple]:
        """``(verdict, events)`` per block ``configs[bounds[b]:bounds[b + 1]]``.

        Each block is walked in row order and stops at its first colliding
        row.  On the batch backend one FK batch and one stacked kernel pass
        cover every block; otherwise (reference backend, grid checker, empty
        environment) ``_config_scalar`` walks each block into a fresh
        counter.
        """
        if self._batch_walk:
            bodies = BodyBatch.from_frames(*self.robot.body_frames_batch(configs))
            return self._batch_motion_results(bodies, bounds)
        pairs = []
        for lo, hi in zip(bounds, bounds[1:]):
            captured = OpCounter()
            verdict = False
            for config in configs[lo:hi]:
                if self._config_scalar(config, captured):
                    verdict = True
                    break
            pairs.append((verdict, captured))
        return pairs

    def _config_scalar(self, config: np.ndarray, counter) -> bool:
        """Scalar single-configuration check (the reference code path)."""
        raise NotImplementedError

    def _batch_motion_results(self, bodies: BodyBatch, bounds: List[int]):
        """Per-block ``(verdict, events)`` over stacked body rows.

        ``bounds`` bounds each block's configuration rows (body rows are
        ``bodies_per_config`` times that).  Implemented per checker from
        the :mod:`repro.kernels.batch` edge entry points.
        """
        raise NotImplementedError

    @staticmethod
    def _edge_replay(mask, bounds: List[int], bodies_per_config: int,
                     kind: str, dim: int) -> List[tuple]:
        """Per-block replay of a brute checker's ``(rows, obstacles)`` mask.

        The scalar loop walks (configuration, body, obstacle) in row-major
        order and stops at its first hit, so block ``b``'s SAT tests of
        ``kind`` are :func:`~repro.kernels.batch.segment_first_hit`'s
        visited count over its flat segment of ``mask``; one aggregated
        record per block reproduces those totals exactly (integer cost
        weights).
        """
        scale = bodies_per_config * mask.shape[1]
        hits, visited = kernels_batch.segment_first_hit(
            mask, [b * scale for b in bounds]
        )
        return [
            (hit, OpCounter.of(dim, **{kind: n}))
            for hit, n in zip(hits.tolist(), visited.tolist())
        ]


class BruteOBBChecker(CollisionChecker):
    """Exhaustive OBB-OBB checking (vanilla RRT\\*)."""

    _has_batch_kernels = True

    def _config_scalar(self, config: np.ndarray, counter) -> bool:
        dim = self.environment.workspace_dim
        for body in self.robot.body_obbs(config):
            for obstacle in self.environment.obstacles:
                if counter is not None:
                    counter.record("sat_obb_obb", dim=dim)
                if obb_intersects_obb(body, obstacle):
                    return True
        return False

    def _batch_motion_results(self, bodies: BodyBatch, bounds: List[int]):
        # The AABB interval grid prunes first: an enclosing-AABB miss proves
        # OBB separation, so the exact SAT runs only on surviving pairs.
        obs = self.environment.obstacle_tensors
        _, mask = kernels_batch.overlap_filtered(
            *bodies.aabb_corners(), obs.aabb_lo_t, obs.aabb_hi_t,
            lambda rows, cols: kernels_batch.obb_obb_gathered(
                bodies.terms(), rows, obs.terms, cols),
        )
        return self._edge_replay(
            mask, bounds, bodies.bodies_per_config, "sat_obb_obb", obs.dim
        )


class BruteAABBChecker(CollisionChecker):
    """Exhaustive AABB-OBB checking with AABB-represented obstacles.

    Cheaper per query than :class:`BruteOBBChecker` but over-approximates
    obstacles, so it may flag collision-free movements as colliding.
    """

    _has_batch_kernels = True

    def _config_scalar(self, config: np.ndarray, counter) -> bool:
        dim = self.environment.workspace_dim
        for body in self.robot.body_obbs(config):
            for box in self.environment.obstacle_aabbs:
                if counter is not None:
                    counter.record("sat_aabb_obb", dim=dim)
                if aabb_intersects_obb(box, body):
                    return True
        return False

    def _batch_motion_results(self, bodies: BodyBatch, bounds: List[int]):
        # Same broadphase as the brute OBB checker: a body whose AABB misses
        # the obstacle box cannot intersect it.
        obs = self.environment.obstacle_tensors
        _, mask = kernels_batch.overlap_filtered(
            *bodies.aabb_corners(), obs.aabb_lo_t, obs.aabb_hi_t,
            lambda rows, cols: kernels_batch.aabb_obb_gathered(
                obs.aabb_terms, cols, bodies.terms(), rows),
        )
        return self._edge_replay(
            mask, bounds, bodies.bodies_per_config, "sat_aabb_obb", obs.dim
        )


class TwoStageChecker(CollisionChecker):
    """MOPED's two-stage processing scheme (Section III-A).

    First stage: walk the obstacle R-tree with cheap AABB-OBB checks; clear
    subtrees are skipped wholesale.  Second stage: the surviving leaf
    candidates get the accurate OBB-OBB check.

    With ``fine_stage=False`` the checker stops after the first stage and
    treats every surviving candidate as a collision — the AABB-only MOPED
    variant of Fig 18 (right).

    The batch backend keeps the funnel: stage-1 masks are computed for
    every (waypoint row, R-tree unit) pair in two stacked passes, but the
    exact OBB-OBB SAT is evaluated *only* for the (row, obstacle) pairs
    whose leaf entry passes both stage-1 masks — the same pairs the scalar
    traversal would forward to the second stage.
    """

    _has_batch_kernels = True

    def __init__(
        self,
        robot: RobotModel,
        environment: Environment,
        motion_resolution: float,
        fine_stage: bool = True,
        kernels: str = "batch",
    ):
        super().__init__(robot, environment, motion_resolution, kernels=kernels)
        self.fine_stage = fine_stage
        self._rtree = environment.rtree

    def _config_scalar(self, config: np.ndarray, counter) -> bool:
        dim = self.environment.workspace_dim
        for body in self.robot.body_obbs(config):
            if counter is not None:
                counter.record("aabb_derive", dim=dim)
            candidates = self._rtree.query_obb(
                body, counter=counter, prefilter_aabb=body.to_aabb()
            )
            # Filter-efficiency metrics: how many obstacles survive the
            # cheap first stage and reach the exact OBB-OBB second stage.
            bump("repro_cc_stage1_queries_total",
                 help="Two-stage first-stage (R-tree AABB filter) queries")
            if candidates:
                bump("repro_cc_stage1_survivors_total", len(candidates),
                     help="Obstacles surviving the first-stage AABB filter")
            if not self.fine_stage:
                if candidates:
                    return True
                continue
            for idx in candidates:
                if counter is not None:
                    counter.record("sat_obb_obb", dim=dim)
                bump("repro_cc_stage2_checks_total",
                     help="Exact OBB-OBB checks run in the second stage")
                if obb_intersects_obb(body, self.environment.obstacles[idx]):
                    return True
        return False

    def _batch_motion_results(self, bodies: BodyBatch, bounds: List[int]):
        """Per-block two-stage results from one stacked traversal pass.

        Stage 1 runs over *all* blocks' body rows at once: the AABB
        interval grid against every R-tree unit, then the AABB-OBB SAT on
        the surviving (row, unit) pairs only (the traversal reads the OBB
        result only where the interval test passed).  The R-tree replay
        gives per-row test counts and the candidate funnel; the exact
        OBB-OBB SAT runs only on the candidates.  Each block's walk then
        stops at its first hitting row, and its events are the scalar
        loop's totals through that row.
        """
        env = self.environment
        ftree = env.flat_rtree
        body = bodies.terms()
        aabb_mask, passed = kernels_batch.overlap_filtered(
            *bodies.aabb_corners(), ftree.unit_lo_t, ftree.unit_hi_t,
            lambda rows, cols: kernels_batch.aabb_obb_gathered(
                ftree.unit_terms, cols, body, rows),
        )
        counts, candidates = ftree.batch_query_counts(aabb_mask, passed)
        rows, cols = candidates.nonzero()
        exact = None
        if not self.fine_stage:
            hit_rows = rows.tolist()
        elif rows.size:
            exact = kernels_batch.obb_obb_gathered(
                body, rows, env.obstacle_tensors.terms, cols
            )
            hit_rows = rows[exact].tolist()
        else:
            hit_rows = []
        row_bounds = [b * bodies.bodies_per_config for b in bounds]
        hits, stops = kernels_batch.first_hit_stops(hit_rows, row_bounds)
        totals = kernels_batch.segment_sums(counts, row_bounds[:-1], stops)

        dim = env.workspace_dim
        pairs = []
        dones = checks = survivors = 0
        for hit, start, stop, (n_aabb, n_obb, n_sur) in zip(
            hits, row_bounds, stops, totals
        ):
            n_checks = n_sur if self.fine_stage else 0
            if hit and self.fine_stage:
                # Misses run the exact SAT on every surviving candidate; a
                # hit stops inside its row at the hitting candidate.
                n_checks += self._hit_position(
                    stop - 1, rows, cols, exact, ftree.entry_rank
                ) - int(counts[2, stop - 1])
            pairs.append((hit, OpCounter.of(
                dim, aabb_derive=stop - start, sat_aabb_aabb=n_aabb,
                sat_aabb_obb=n_obb, sat_obb_obb=n_checks,
            )))
            dones += stop - start
            survivors += n_sur
            checks += n_checks
        bump("repro_cc_stage1_queries_total", dones,
             help="Two-stage first-stage (R-tree AABB filter) queries")
        if survivors:
            bump("repro_cc_stage1_survivors_total", survivors,
                 help="Obstacles surviving the first-stage AABB filter")
        if checks:
            bump("repro_cc_stage2_checks_total", checks,
                 help="Exact OBB-OBB checks run in the second stage")
        return pairs

    @staticmethod
    def _hit_position(row: int, rows, cols, exact, entry_rank) -> int:
        """1-based place of ``row``'s first hitting candidate among its
        candidates, in the traversal's static visit order."""
        in_row = rows == row
        ranks = entry_rank[cols[in_row]]
        return int(np.count_nonzero(ranks <= ranks[exact[in_row]].min()))


class OccupancyGridChecker(CollisionChecker):
    """CODAcc-style occupancy-grid checking (baseline of Section V-B).

    The grid is built offline by rasterising every obstacle OBB at
    ``resolution`` units per cell (paper setting: 1.0).  A configuration is
    in collision when any grid cell covered by a body OBB is occupied.  The
    checker is conservative: cells partially covered by an obstacle are
    marked occupied, so clear means clear.

    Attributes:
        grid: boolean occupancy array.
        grid_bytes: storage the grid needs at one bit per cell — with the
            paper's 300^3 workspace this exceeds 3.2 MB, the on-chip memory
            pressure the paper charges against the CODAcc baseline.
    """

    def __init__(
        self,
        robot: RobotModel,
        environment: Environment,
        motion_resolution: float,
        resolution: float = 1.0,
        kernels: str = "batch",
    ):
        super().__init__(robot, environment, motion_resolution, kernels=kernels)
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.resolution = resolution
        self._cells = int(math.ceil(environment.size / resolution))
        # Cell-centre coordinates per axis, computed once for the whole
        # obstacle batch (and reused by every query); rasterisation slices
        # this instead of rebuilding per-obstacle centre grids.
        self._axis_centers = (np.arange(self._cells) + 0.5) * resolution
        shape = (self._cells,) * environment.workspace_dim
        self.grid = np.zeros(shape, dtype=bool)
        for obstacle in environment.obstacles:
            self._rasterise(obstacle)

    @property
    def grid_bytes(self) -> int:
        """Grid storage at one bit per cell."""
        return int(math.ceil(self.grid.size / 8))

    def _index_range(self, box) -> Optional[Tuple[slice, ...]]:
        """Grid index slices covering an AABB, clipped to the workspace."""
        lo_idx = np.clip(np.floor(box.lo / self.resolution).astype(int), 0, self._cells)
        hi_idx = np.clip(np.ceil(box.hi / self.resolution).astype(int), 0, self._cells)
        if np.any(lo_idx >= hi_idx):
            return None
        return tuple(slice(int(lo_idx[d]), int(hi_idx[d])) for d in range(box.dim))

    def _region_inside(self, region: Tuple[slice, ...], obb: OBB, pad: float = 0.0):
        """Mask of region cells whose centres fall inside the (padded) OBB.

        Returned flat (C-order raveled over the region), matching how
        ``grid[region]`` ravels.
        """
        mesh = np.meshgrid(*(self._axis_centers[s] for s in region), indexing="ij")
        centers = np.stack([m.ravel() for m in mesh], axis=1)
        local = (centers - obb.center) @ obb.rotation
        return np.all(np.abs(local) <= obb.half_extents + pad, axis=1)

    def _rasterise(self, obstacle: OBB) -> None:
        """Mark every cell whose centre region intersects ``obstacle``.

        Cells are tested at their centres with the obstacle's half-extents
        padded by half a cell diagonal, a conservative cover.
        """
        region = self._index_range(obstacle.to_aabb())
        if region is None:
            return
        pad = 0.5 * self.resolution * math.sqrt(obstacle.dim)
        inside = self._region_inside(region, obstacle, pad=pad)
        self.grid[region] |= inside.reshape(self.grid[region].shape)

    def _config_scalar(self, config: np.ndarray, counter) -> bool:
        for body in self.robot.body_obbs(config):
            region = self._index_range(body.to_aabb())
            if region is None:
                continue
            inside = self._region_inside(region, body)
            probes = int(np.count_nonzero(inside))
            if counter is not None and probes:
                counter.record(
                    "grid_lookup", dim=self.environment.workspace_dim, n=probes
                )
            if probes and bool(np.any(self.grid[region].reshape(-1)[inside])):
                return True
        return False


CHECKERS = {
    "obb": BruteOBBChecker,
    "aabb": BruteAABBChecker,
    "two_stage": TwoStageChecker,
    "grid": OccupancyGridChecker,
}


def make_checker(
    name: str, robot: RobotModel, environment: Environment, motion_resolution: float, **kwargs
) -> CollisionChecker:
    """Factory over the checker registry."""
    try:
        cls = CHECKERS[name]
    except KeyError:
        raise KeyError(f"unknown checker {name!r}; available: {sorted(CHECKERS)}") from None
    return cls(robot, environment, motion_resolution, **kwargs)
