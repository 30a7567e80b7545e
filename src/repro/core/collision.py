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

All checkers share one interface: ``config_in_collision`` for a single
configuration and ``motion_in_collision`` for a movement, which walks the
interpolated configurations from the tree side so collisions are found with
the fewest checks.

Whole-edge validation
---------------------

A movement check is the planner's unit of work, and VAMP ("Motions in
Microseconds") shows that validating the *entire* interpolated edge as one
wide batched operation — instead of looping per intermediate configuration
— is where sampling-based planners find their orders of magnitude.  The
checkers therefore expose :meth:`CollisionChecker.motion_results_batch`:
given a batch of edges, the full interpolation ladder of every edge is
built in one vectorized pass (:func:`repro.geometry.motion.
interpolate_edges`), forward kinematics runs once over all ladder rows
(``body_frames_batch``), and the (configs x links x obstacles) SAT grids
are evaluated in a single stacked kernel invocation whose per-edge
early-exit statistics come from segment reductions
(:func:`repro.kernels.batch.segment_first_hit` and friends) — preserving
the start-side first-collision semantics and the exact per-phase
:class:`~repro.core.counters.OpCounter` totals of the scalar reference.
``motion_in_collision`` is the single-edge special case of the same path,
and the wavefront planner feeds a whole wave of speculative edges through
one ``motion_results_batch`` call.

With ``edge_cache_size > 0`` results are additionally memoised per
*edge* (keyed on both endpoint configurations): a cached edge skips
ladder construction, FK, and the kernels entirely, replaying the stored
verdict and counter events — bit-identical to recomputation, like the
per-configuration cache below.

Kernel backends
---------------

Each checker runs on one of two interchangeable backends
(:data:`repro.kernels.KERNEL_BACKENDS`):

* ``"reference"`` — the original scalar code path: one Python-level SAT
  call per (configuration, body, obstacle), early-exiting exactly where the
  hardware would.
* ``"batch"`` (default) — the geometry for a whole movement (every
  interpolated waypoint x every body x every obstacle) is evaluated in a
  few stacked ndarray passes (:mod:`repro.kernels.batch`), and the scalar
  control flow is then *replayed* over the precomputed boolean masks.  The
  replay visits checks in the scalar order and stops at the scalar early
  exits, recording aggregated :class:`~repro.core.counters.OpCounter`
  events — so decisions *and* operation counts are bit-identical to the
  reference backend while the arithmetic runs at ndarray speed.

The occupancy-grid checker's inner loop is already an ndarray pass per
body, so it has no separate batch path.

Collision-result cache
----------------------

With ``cache_size > 0`` every checker keeps a quantized-configuration LRU
(:class:`repro.core.lru.LRUMap`, the software rendition of the Section IV-C
multi-level caching): each configuration's verdict *and* the counter events
its scalar check records are stored under the configuration's key, and a
hit replays the stored events instead of recomputing — so cached runs stay
bit-identical to uncached ones in both decisions and operation counts.
The cache serves the batched :meth:`CollisionChecker.config_results` entry
point (the wavefront planner's per-wave collision call); only cache misses
touch forward kinematics and the SAT kernels (in one batched pass per
call).  ``cache_quantum = 0``
(default) keys on exact float bytes; a positive quantum buckets nearby
configurations together, a documented approximation.  Registry metrics
(``repro_cc_*``, ``repro_cache_events_total``) count *executed* work, while
OpCounters always report the modeled hardware cost — the distinction that
makes the cache observable without perturbing the cost model.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.core.counters import OpCounter
from repro.core.lru import LRUMap
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


class CollisionChecker:
    """Base class wiring a robot model to an environment.

    Args:
        kernels: ``"batch"`` evaluates movement checks through the
            vectorized kernels with exact count replay; ``"reference"``
            keeps the original scalar per-object loops.
        cache_size: capacity of the quantized-configuration collision
            result cache; 0 (default) disables caching.
        cache_quantum: configuration quantisation step for cache keys;
            0.0 keys on exact float bytes (bit-identical planning).
        edge_cache_size: capacity of the whole-edge result cache (keyed on
            both endpoint configurations, quantised with the same
            ``cache_quantum``); 0 (default) disables it.
    """

    #: Subclasses with a vectorized movement check set this True; others
    #: (the grid checker) always run the scalar per-configuration loop.
    _has_batch_kernels = False

    def __init__(
        self,
        robot: RobotModel,
        environment: Environment,
        motion_resolution: float,
        kernels: str = "batch",
        cache_size: int = 0,
        cache_quantum: float = 0.0,
        edge_cache_size: int = 0,
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
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if cache_quantum < 0:
            raise ValueError("cache_quantum must be >= 0")
        if edge_cache_size < 0:
            raise ValueError("edge_cache_size must be >= 0")
        self.robot = robot
        self.environment = environment
        self.motion_resolution = motion_resolution
        self.kernels = kernels
        self._config_cache = LRUMap(cache_size) if cache_size > 0 else None
        self._edge_cache = LRUMap(edge_cache_size) if edge_cache_size > 0 else None
        self._cache_quantum = cache_quantum
        # ``edge.validate`` fault hook: bound once (checkers are built per
        # plan, after any injector install) and refreshed by the planner at
        # plan() time; None in the steady state, one is-None check per edge.
        from repro.faults import get_injector

        self._injector = get_injector()

    @property
    def config_cache(self) -> Optional[LRUMap]:
        """The collision-result cache (None when caching is disabled)."""
        return self._config_cache

    @property
    def edge_cache(self) -> Optional[LRUMap]:
        """The whole-edge result cache (None when disabled)."""
        return self._edge_cache

    def config_in_collision(self, config: np.ndarray, counter=None) -> bool:
        """True when the robot at ``config`` intersects any obstacle."""
        config = np.asarray(config, dtype=float)
        return self._check_configs(config[None, :], counter)

    def motion_in_collision(self, start: np.ndarray, end: np.ndarray, counter=None) -> bool:
        """True when the movement from ``start`` to ``end`` hits an obstacle.

        The straight C-space segment is discretised at ``motion_resolution``
        and each configuration checked from the ``start`` side, stopping at
        the first collision.  This is the single-edge case of
        :meth:`motion_results_batch`: whole-ladder FK + one stacked kernel
        pass (batch backend), the edge cache when enabled, and the captured
        events merged into ``counter`` — bit-identical to the scalar
        per-configuration walk.
        """
        bump("repro_cc_motion_checks_total",
             help="Motion (edge) collision queries issued")
        start = np.asarray(start, dtype=float)
        end = np.asarray(end, dtype=float)
        verdict, events = self.motion_results_batch(start[None, :], end[None, :])[0]
        if counter is not None:
            counter.merge(events)
        return verdict

    # ----------------------------------------------------- whole-edge results

    def motion_results_batch(self, starts, ends) -> List[tuple]:
        """Whole-edge ``(verdict, events)`` for a batch of movements.

        For each edge ``e`` the returned verdict and captured
        :class:`OpCounter` equal what the scalar reference's start-side
        early-exit walk of ``interpolate_configs(starts[e], ends[e])``
        decides and records.  All cache-missing edges share one ladder
        construction, one forward-kinematics batch, and one stacked kernel
        pass; with ``edge_cache_size > 0`` previously seen edges replay
        their stored result and skip the kernels entirely.

        The wavefront planner calls this once per wave with every
        speculative edge; ``motion_in_collision`` routes through it with a
        single edge.  Counter events are *captured* (not recorded into a
        caller counter) so one computation can serve cache replays and the
        planner's per-round sub-counters; integer cost weights make the
        merged totals bitwise equal to direct recording.
        """
        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        count = len(starts)
        results: List[tuple] = [None] * count
        injector = self._injector
        if injector is not None:
            for e in range(count):
                injector.fire("edge.validate")
        cache = self._edge_cache
        if cache is None:
            computed = self._compute_motion_results(starts, ends)
            for e, (verdict, events, steps) in enumerate(computed):
                results[e] = (verdict, events)
                observe("repro_cc_edge_ladder_steps", steps,
                        help="Interpolation ladder length per validated edge",
                        buckets=LADDER_STEP_BUCKETS)
            if count:
                bump("repro_cc_edge_validations_total", count,
                     path="edge_kernel" if self._edge_batchable() else "scalar",
                     help="Edge validations by execution path")
            return results
        keys: List[bytes] = [b""] * count
        miss_idx: List[int] = []
        evictions_before = cache.evictions
        for e in range(count):
            key = self._cache_key(starts[e]) + self._cache_key(ends[e])
            keys[e] = key
            entry = cache.get(key)
            if entry is not None:
                verdict, events, steps = entry
                results[e] = (verdict, events)
                observe("repro_cc_edge_ladder_steps", steps,
                        help="Interpolation ladder length per validated edge",
                        buckets=LADDER_STEP_BUCKETS)
            else:
                miss_idx.append(e)
        if miss_idx:
            computed = self._compute_motion_results(starts[miss_idx], ends[miss_idx])
            for e, (verdict, events, steps) in zip(miss_idx, computed):
                results[e] = (verdict, events)
                cache.put(keys[e], (verdict, events, steps))
                observe("repro_cc_edge_ladder_steps", steps,
                        help="Interpolation ladder length per validated edge",
                        buckets=LADDER_STEP_BUCKETS)
            bump("repro_cc_edge_validations_total", len(miss_idx),
                 path="edge_kernel" if self._edge_batchable() else "scalar",
                 help="Edge validations by execution path")
            bump("repro_cache_events_total", len(miss_idx), cache="edge",
                 event="miss", help="Software cache events by cache and outcome")
        hit_count = count - len(miss_idx)
        if hit_count:
            bump("repro_cc_edge_validations_total", hit_count, path="cache",
                 help="Edge validations by execution path")
            bump("repro_cache_events_total", hit_count, cache="edge",
                 event="hit", help="Software cache events by cache and outcome")
        evicted = cache.evictions - evictions_before
        if evicted:
            bump("repro_cache_events_total", evicted, cache="edge",
                 event="evict", help="Software cache events by cache and outcome")
        return results

    def _edge_batchable(self) -> bool:
        """True when movement checks run through the stacked edge kernels."""
        return bool(
            self.kernels == "batch"
            and self._has_batch_kernels
            and self.environment.num_obstacles
        )

    def _compute_motion_results(self, starts: np.ndarray, ends: np.ndarray):
        """Uncached whole-edge results: ``(verdict, events, steps)`` rows.

        One vectorized ladder construction and (on the batch backend) one
        FK batch + one stacked kernel pass cover *all* edges; the reference
        backend and the grid checker keep the scalar per-configuration walk
        per edge, captured into fresh counters.
        """
        configs, offsets = interpolate_edges(starts, ends, self.motion_resolution)
        bounds = offsets.tolist()
        if self._edge_batchable():
            bodies = BodyBatch.from_frames(*self.robot.body_frames_batch(configs))
            pairs = self._batch_motion_results(bodies, offsets)
        else:
            pairs = []
            for e in range(len(starts)):
                captured = OpCounter()
                verdict = False
                for config in configs[offsets[e]:offsets[e + 1]]:
                    if self._config_scalar(config, captured):
                        verdict = True
                        break
                pairs.append((verdict, captured))
        return [
            (verdict, events, bounds[e + 1] - bounds[e] - 1)
            for e, (verdict, events) in enumerate(pairs)
        ]

    def _batch_motion_results(self, bodies: BodyBatch, offsets: np.ndarray):
        """Per-edge ``(verdict, events)`` over stacked ladder body rows.

        ``offsets`` bounds each edge's configuration block (body rows are
        ``bodies_per_config`` times that).  Implemented per checker from
        the :mod:`repro.kernels.batch` edge entry points.
        """
        raise NotImplementedError

    @staticmethod
    def _edge_replay(hits, visited, kind: str, dim: int) -> List[tuple]:
        """Per-edge replay of segment early-exit statistics.

        ``visited[e]`` SAT tests of ``kind`` are what the scalar loop
        records for edge ``e`` before its early exit; one aggregated record
        per edge reproduces those totals exactly (integer cost weights).
        """
        pairs = []
        for hit, n in zip(hits.tolist(), visited.tolist()):
            captured = OpCounter()
            if n:
                captured.record(kind, dim=dim, n=int(n))
            pairs.append((bool(hit), captured))
        return pairs

    # ----------------------------------------------------------- dispatch

    def _check_configs(self, configs: np.ndarray, counter) -> bool:
        """Collision verdict over ordered configurations (first hit wins).

        The batch path computes every waypoint's geometry wholesale, then
        replays the scalar waypoint/body/obstacle iteration over the masks;
        configurations past the first colliding one therefore contribute no
        counter events, exactly like the scalar early exit.

        Note the collision cache is deliberately NOT consulted here: the
        per-configuration bookkeeping it needs costs more than it saves on
        a single query.  Cached results flow through
        :meth:`config_results`, where the wavefront planner amortises the
        bookkeeping over a whole wave of edges; per-configuration event
        sums equal the aggregate replay (integer cost weights), so both
        entry points produce identical counters.
        """
        if (
            self.kernels == "batch"
            and self._has_batch_kernels
            and self.environment.num_obstacles
        ):
            bodies = BodyBatch.from_frames(*self.robot.body_frames_batch(configs))
            return self._batch_check(bodies, counter)
        for config in configs:
            if self._config_scalar(config, counter):
                return True
        return False

    @staticmethod
    def _replay_config_results(verdicts, events, counter) -> bool:
        """Scalar early-exit scan over per-configuration results.

        Merges each configuration's stored counter events in order and stops
        at the first collision — the exact event stream the scalar loop
        produces for the same movement.
        """
        for verdict, captured in zip(verdicts, events):
            if counter is not None:
                counter.merge(captured)
            if verdict:
                return True
        return False

    # --------------------------------------------- per-configuration results

    def _cache_key(self, config: np.ndarray) -> bytes:
        if self._cache_quantum > 0.0:
            return np.round(config / self._cache_quantum).astype(np.int64).tobytes()
        return config.tobytes()

    def config_results(self, configs: np.ndarray):
        """Per-configuration ``(verdicts, events)`` with cache reuse.

        Returns a boolean verdict and an :class:`OpCounter` of the events the
        scalar check of that configuration records, for every row of
        ``configs``.  Cache misses are computed in one batched kernel pass
        (or the scalar loop on the reference backend) and inserted; hits
        return the stored pair.  The wavefront planner calls this once per
        wave with every speculative edge's waypoints concatenated, then
        replays per-edge slices at commit time.
        """
        configs = np.asarray(configs, dtype=float)
        cache = self._config_cache
        if cache is None:
            return self._compute_config_results(configs)
        count = len(configs)
        verdicts: List = [None] * count
        events: List = [None] * count
        missing: "dict" = {}
        for i in range(count):
            key = self._cache_key(configs[i])
            entry = cache.get(key)
            if entry is not None:
                verdicts[i], events[i] = entry
            else:
                missing.setdefault(key, []).append(i)
        hit_count = count - sum(len(rows) for rows in missing.values())
        evictions_before = cache.evictions
        if missing:
            order = list(missing)
            miss_configs = configs[[missing[key][0] for key in order]]
            miss_verdicts, miss_events = self._compute_config_results(miss_configs)
            for key, verdict, captured in zip(order, miss_verdicts, miss_events):
                cache.put(key, (verdict, captured))
                for i in missing[key]:
                    verdicts[i], events[i] = verdict, captured
        if hit_count:
            bump("repro_cache_events_total", hit_count, cache="collision",
                 event="hit", help="Software cache events by cache and outcome")
        if missing:
            bump("repro_cache_events_total", len(missing), cache="collision",
                 event="miss", help="Software cache events by cache and outcome")
        evicted = cache.evictions - evictions_before
        if evicted:
            bump("repro_cache_events_total", evicted, cache="collision",
                 event="evict", help="Software cache events by cache and outcome")
        return verdicts, events

    def _compute_config_results(self, configs: np.ndarray):
        """Uncached per-configuration results (batched when possible)."""
        if (
            self.kernels == "batch"
            and self._has_batch_kernels
            and self.environment.num_obstacles
        ):
            bodies = BodyBatch.from_frames(*self.robot.body_frames_batch(configs))
            return self._batch_config_results(bodies, len(configs))
        verdicts, events = [], []
        for config in configs:
            captured = OpCounter()
            verdicts.append(self._config_scalar(config, captured))
            events.append(captured)
        return verdicts, events

    def _batch_config_results(self, bodies: BodyBatch, count: int):
        """Vectorized per-configuration verdicts + events (batch backend)."""
        raise NotImplementedError

    @staticmethod
    def _per_config_replay(mask: np.ndarray, kind: str, dim: int, count: int):
        """Per-configuration replay of a flat SAT mask.

        ``mask`` rows follow the scalar order (configuration-major,
        body-minor, obstacle-innermost); each configuration's block gets its
        own early-exit event count, so merging the blocks in order
        reproduces the aggregate :meth:`_replay_flat` totals exactly.
        """
        flat = mask.reshape(count, -1)
        block = flat.shape[1]
        hit_any = flat.any(axis=1)
        firsts = np.argmax(flat, axis=1)
        verdicts, events = [], []
        for i in range(count):
            hit = bool(hit_any[i])
            n = int(firsts[i]) + 1 if hit else block
            captured = OpCounter()
            if n:
                captured.record(kind, dim=dim, n=n)
            verdicts.append(hit)
            events.append(captured)
        return verdicts, events

    def _config_scalar(self, config: np.ndarray, counter) -> bool:
        """Scalar single-configuration check (the reference code path)."""
        raise NotImplementedError

    def _batch_check(self, bodies: BodyBatch, counter) -> bool:
        """Vectorized check over a :class:`BodyBatch` of waypoint rows."""
        raise NotImplementedError

    @staticmethod
    def _replay_flat(mask: np.ndarray, kind: str, dim: int, counter) -> bool:
        """Replay a scalar early-exit scan over a flattened boolean mask.

        ``mask`` rows follow the scalar iteration order (row-major over the
        (configuration, body, obstacle) nest).  The scalar loop records one
        ``kind`` event per test and returns at the first hit; the replay
        records the same number of events in one aggregated call.
        """
        flat = mask.ravel()
        hit = bool(flat.any())
        if counter is not None:
            n = int(np.argmax(flat)) + 1 if hit else flat.size
            if n:
                counter.record(kind, dim=dim, n=n)
        return hit


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

    def _batch_check(self, bodies: BodyBatch, counter) -> bool:
        obs = self.environment.obstacle_tensors
        mask = kernels_batch.obb_obb_grid(
            bodies.centers, bodies.half_extents, bodies.rotations,
            obs.centers, obs.half_extents, obs.rotations,
        )
        # The scalar nest iterates waypoint-major, body-minor, obstacle-
        # innermost: exactly the row-major flattening of ``mask``.
        return self._replay_flat(mask, "sat_obb_obb", obs.dim, counter)

    def _batch_config_results(self, bodies: BodyBatch, count: int):
        obs = self.environment.obstacle_tensors
        mask = kernels_batch.obb_obb_grid(
            bodies.centers, bodies.half_extents, bodies.rotations,
            obs.centers, obs.half_extents, obs.rotations,
        )
        return self._per_config_replay(mask, "sat_obb_obb", obs.dim, count)

    def _batch_motion_results(self, bodies: BodyBatch, offsets: np.ndarray):
        obs = self.environment.obstacle_tensors
        bpc = bodies.rows // int(offsets[-1])
        lo, hi = bodies.aabb_corners()
        hits, visited = kernels_batch.edge_obb_obb_grid(
            bodies.centers, bodies.half_extents, bodies.rotations, lo, hi,
            obs.centers, obs.half_extents, obs.rotations,
            obs.aabb_lo, obs.aabb_hi,
            np.asarray(offsets, dtype=np.intp) * bpc,
        )
        return self._edge_replay(hits, visited, "sat_obb_obb", obs.dim)


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

    def _batch_check(self, bodies: BodyBatch, counter) -> bool:
        obs = self.environment.obstacle_tensors
        mask = kernels_batch.aabb_obb_grid(
            obs.aabb_lo, obs.aabb_hi,
            bodies.centers, bodies.half_extents, bodies.rotations,
        )
        return self._replay_flat(mask, "sat_aabb_obb", obs.dim, counter)

    def _batch_config_results(self, bodies: BodyBatch, count: int):
        obs = self.environment.obstacle_tensors
        mask = kernels_batch.aabb_obb_grid(
            obs.aabb_lo, obs.aabb_hi,
            bodies.centers, bodies.half_extents, bodies.rotations,
        )
        return self._per_config_replay(mask, "sat_aabb_obb", obs.dim, count)

    def _batch_motion_results(self, bodies: BodyBatch, offsets: np.ndarray):
        obs = self.environment.obstacle_tensors
        bpc = bodies.rows // int(offsets[-1])
        lo, hi = bodies.aabb_corners()
        hits, visited = kernels_batch.edge_aabb_obb_grid(
            obs.aabb_lo, obs.aabb_hi,
            bodies.centers, bodies.half_extents, bodies.rotations, lo, hi,
            np.asarray(offsets, dtype=np.intp) * bpc,
        )
        return self._edge_replay(hits, visited, "sat_aabb_obb", obs.dim)


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
        cache_size: int = 0,
        cache_quantum: float = 0.0,
        edge_cache_size: int = 0,
    ):
        super().__init__(
            robot, environment, motion_resolution, kernels=kernels,
            cache_size=cache_size, cache_quantum=cache_quantum,
            edge_cache_size=edge_cache_size,
        )
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

    def _stage2_hits(self, bodies: BodyBatch, entry_pass: np.ndarray) -> np.ndarray:
        """Exact OBB-OBB verdicts for the stage-1 surviving (row, obstacle)
        pairs, scattered back into an ``(R, M)`` boolean matrix."""
        obs = self.environment.obstacle_tensors
        hits = np.zeros(entry_pass.shape, dtype=bool)
        rows, cols = np.nonzero(entry_pass)
        if rows.size:
            hits[rows, cols] = kernels_batch.obb_obb_pairs(
                bodies.centers[rows], bodies.half_extents[rows],
                bodies.rotations[rows],
                obs.centers[cols], obs.half_extents[cols], obs.rotations[cols],
            )
        return hits

    def _batch_check(self, bodies: BodyBatch, counter) -> bool:
        env = self.environment
        ftree = env.flat_rtree
        dim = env.workspace_dim
        lo, hi = bodies.aabb_corners()
        # Stage-1 masks against every traversal unit (node MBRs, then leaf
        # entry boxes) in two stacked passes, then the per-row traversal
        # statistics via ndarray reductions over the static tree structure.
        aabb_mask = kernels_batch.aabb_aabb_grid(lo, hi, ftree.unit_lo, ftree.unit_hi)
        obb_mask = kernels_batch.aabb_obb_grid(
            ftree.unit_lo, ftree.unit_hi,
            bodies.centers, bodies.half_extents, bodies.rotations,
        )
        split = ftree.num_nodes
        n_aabb, n_obb, candidates = ftree.batch_query_counts(
            aabb_mask[:, :split], obb_mask[:, :split],
            aabb_mask[:, split:], obb_mask[:, split:],
        )
        survivors = candidates.sum(axis=1)

        if not self.fine_stage:
            # A row with any surviving candidate is a collision; rows after
            # the first such row are never reached by the scalar loop.
            hit_rows = survivors > 0
            hit = bool(hit_rows.any())
            done = int(np.argmax(hit_rows)) + 1 if hit else bodies.rows
            self._record_stage1(counter, dim, done, n_aabb, n_obb, survivors)
            return hit

        # Second stage, funnelled: the exact SAT runs only on the candidate
        # pairs.  Columns are then permuted into the traversal's static
        # visit order so per-row early-exit counts are cumulative sums.
        stage2 = self._stage2_hits(bodies, candidates)
        order = ftree.entry_order
        cand_ord = candidates[:, order]
        hits_ord = stage2[:, order]
        row_hit = hits_ord.any(axis=1)
        hit = bool(row_hit.any())
        if hit:
            row = int(np.argmax(row_hit))
            done = row + 1
            # Checks in the hitting row stop at the hitting candidate; the
            # candidate's position in visit order is its cumulative count.
            first = int(np.argmax(hits_ord[row]))
            checks = int(survivors[:row].sum()) + int(
                np.count_nonzero(cand_ord[row, : first + 1])
            )
        else:
            done = bodies.rows
            checks = int(survivors.sum())
        self._record_stage1(counter, dim, done, n_aabb, n_obb, survivors)
        if checks:
            if counter is not None:
                counter.record("sat_obb_obb", dim=dim, n=checks)
            bump("repro_cc_stage2_checks_total", checks,
                 help="Exact OBB-OBB checks run in the second stage")
        return hit

    def _batch_config_results(self, bodies: BodyBatch, count: int):
        """Per-configuration two-stage results from one stacked kernel pass.

        The stage-1/stage-2 tensors are computed exactly as in
        :meth:`_batch_check`; each configuration's contiguous block of body
        rows is then replayed independently, so a block's events equal what
        the scalar loop records for that configuration alone.
        """
        env = self.environment
        ftree = env.flat_rtree
        dim = env.workspace_dim
        lo, hi = bodies.aabb_corners()
        aabb_mask = kernels_batch.aabb_aabb_grid(lo, hi, ftree.unit_lo, ftree.unit_hi)
        obb_mask = kernels_batch.aabb_obb_grid(
            ftree.unit_lo, ftree.unit_hi,
            bodies.centers, bodies.half_extents, bodies.rotations,
        )
        split = ftree.num_nodes
        n_aabb, n_obb, candidates = ftree.batch_query_counts(
            aabb_mask[:, :split], obb_mask[:, :split],
            aabb_mask[:, split:], obb_mask[:, split:],
        )
        survivors = candidates.sum(axis=1)
        bpc = bodies.rows // count
        rng = np.arange(count)
        # Per-configuration traversal statistics as (config, body) blocks;
        # cumulative sums give each block's "first done rows" totals without
        # per-config slicing.
        na_cum = n_aabb.reshape(count, bpc).cumsum(axis=1)
        no_cum = n_obb.reshape(count, bpc).cumsum(axis=1)
        su_cum = survivors.reshape(count, bpc).cumsum(axis=1)

        if not self.fine_stage:
            block_hit = survivors.reshape(count, bpc) > 0
            hit_any = block_hit.any(axis=1)
            dones = np.where(hit_any, np.argmax(block_hit, axis=1) + 1, bpc)
            checks_arr = np.zeros(count, dtype=np.int64)
        else:
            stage2 = self._stage2_hits(bodies, candidates)
            order = ftree.entry_order
            cand_ord = candidates[:, order]
            hits_ord = stage2[:, order]
            block_hit = hits_ord.any(axis=1).reshape(count, bpc)
            hit_any = block_hit.any(axis=1)
            rels = np.argmax(block_hit, axis=1)
            dones = np.where(hit_any, rels + 1, bpc)
            # Misses run the SAT on every surviving candidate; hits stop at
            # the hitting candidate of the hitting row.
            checks_arr = su_cum[:, -1].astype(np.int64)
            for k in np.nonzero(hit_any)[0]:
                rel = int(rels[k])
                row = k * bpc + rel
                first = int(np.argmax(hits_ord[row]))
                before = int(su_cum[k, rel - 1]) if rel else 0
                checks_arr[k] = before + int(
                    np.count_nonzero(cand_ord[row, : first + 1])
                )

        aabb_tot = na_cum[rng, dones - 1]
        obb_tot = no_cum[rng, dones - 1]
        sur_tot = su_cum[rng, dones - 1]
        # Python lists: the per-config loop below indexes every entry once,
        # and list indexing is several times cheaper than ndarray scalars.
        dones_l = dones.tolist()
        aabb_l = aabb_tot.tolist()
        obb_l = obb_tot.tolist()
        checks_l = checks_arr.tolist()
        verdicts: List[bool] = [bool(h) for h in hit_any.tolist()]
        events: List[OpCounter] = []
        for k in range(count):
            captured = OpCounter()
            captured.record("aabb_derive", dim=dim, n=dones_l[k])
            if aabb_l[k]:
                captured.record("sat_aabb_aabb", dim=dim, n=int(aabb_l[k]))
            if obb_l[k]:
                captured.record("sat_aabb_obb", dim=dim, n=int(obb_l[k]))
            if checks_l[k]:
                captured.record("sat_obb_obb", dim=dim, n=checks_l[k])
            events.append(captured)
        bump("repro_cc_stage1_queries_total", int(dones.sum()),
             help="Two-stage first-stage (R-tree AABB filter) queries")
        if int(sur_tot.sum()):
            bump("repro_cc_stage1_survivors_total", int(sur_tot.sum()),
                 help="Obstacles surviving the first-stage AABB filter")
        if int(checks_arr.sum()):
            bump("repro_cc_stage2_checks_total", int(checks_arr.sum()),
                 help="Exact OBB-OBB checks run in the second stage")
        return verdicts, events

    def _batch_motion_results(self, bodies: BodyBatch, offsets: np.ndarray):
        """Whole-edge two-stage results from one stacked traversal pass.

        Stage-1 masks and (for ``fine_stage``) the funnelled exact SAT are
        computed exactly as in :meth:`_batch_check` over *all* edges' body
        rows at once; :func:`repro.kernels.batch.edge_two_stage_counts`
        then reduces each edge's contiguous row block to the scalar loop's
        early-exit totals, so an edge's events equal what the scalar
        reference records for that movement alone.
        """
        env = self.environment
        ftree = env.flat_rtree
        dim = env.workspace_dim
        lo, hi = bodies.aabb_corners()
        aabb_mask = kernels_batch.aabb_aabb_grid(lo, hi, ftree.unit_lo, ftree.unit_hi)
        # The traversal only ever consumes the OBB mask conjoined with the
        # AABB mask (node descent, candidate funnel), so the exact AABB-OBB
        # SAT need only run where the cheap interval test already passed.
        obb_mask = kernels_batch.masked_aabb_obb_grid(
            ftree.unit_lo, ftree.unit_hi,
            bodies.centers, bodies.half_extents, bodies.rotations,
            aabb_mask,
        )
        split = ftree.num_nodes
        n_aabb, n_obb, candidates = ftree.batch_query_counts(
            aabb_mask[:, :split], obb_mask[:, :split],
            aabb_mask[:, split:], obb_mask[:, split:],
        )
        survivors = candidates.sum(axis=1)
        count = len(offsets) - 1
        bpc = bodies.rows // int(offsets[-1])
        row_offsets = np.asarray(offsets, dtype=np.intp) * bpc

        if not self.fine_stage:
            hits, dones, aabb_tot, obb_tot, sur_tot, _ = (
                kernels_batch.edge_two_stage_counts(
                    survivors > 0, n_aabb, n_obb, survivors, row_offsets
                )
            )
            checks = [0] * count
        else:
            stage2 = self._stage2_hits(bodies, candidates)
            hits, dones, aabb_tot, obb_tot, sur_tot, last_rows = (
                kernels_batch.edge_two_stage_counts(
                    stage2.any(axis=1), n_aabb, n_obb, survivors, row_offsets
                )
            )
            # Misses run the exact SAT on every surviving candidate; hits
            # stop inside the hitting row at the hitting candidate (its
            # position in the traversal's static visit order).
            checks = list(sur_tot)
            order = ftree.entry_order
            for e, hit in enumerate(hits):
                if hit:
                    row = last_rows[e]
                    first = int(np.argmax(stage2[row, order]))
                    checks[e] += int(
                        np.count_nonzero(candidates[row, order][: first + 1])
                    ) - int(survivors[row])

        pairs = []
        for e, hit in enumerate(hits):
            captured = OpCounter()
            captured.record("aabb_derive", dim=dim, n=dones[e])
            if aabb_tot[e]:
                captured.record("sat_aabb_aabb", dim=dim, n=aabb_tot[e])
            if obb_tot[e]:
                captured.record("sat_aabb_obb", dim=dim, n=obb_tot[e])
            if checks[e]:
                captured.record("sat_obb_obb", dim=dim, n=checks[e])
            pairs.append((hit, captured))
        bump("repro_cc_stage1_queries_total", sum(dones),
             help="Two-stage first-stage (R-tree AABB filter) queries")
        total_survivors = sum(sur_tot)
        if total_survivors:
            bump("repro_cc_stage1_survivors_total", total_survivors,
                 help="Obstacles surviving the first-stage AABB filter")
        total_checks = sum(checks)
        if total_checks:
            bump("repro_cc_stage2_checks_total", total_checks,
                 help="Exact OBB-OBB checks run in the second stage")
        return pairs

    @staticmethod
    def _record_stage1(counter, dim: int, done: int, n_aabb, n_obb, survivors) -> None:
        """Record the stage-1 work of the first ``done`` rows (the rows the
        scalar loop processes before returning)."""
        if counter is not None:
            counter.record("aabb_derive", dim=dim, n=done)
            total_aabb = int(n_aabb[:done].sum())
            if total_aabb:
                counter.record("sat_aabb_aabb", dim=dim, n=total_aabb)
            total_obb = int(n_obb[:done].sum())
            if total_obb:
                counter.record("sat_aabb_obb", dim=dim, n=total_obb)
        bump("repro_cc_stage1_queries_total", done,
             help="Two-stage first-stage (R-tree AABB filter) queries")
        total_survivors = int(survivors[:done].sum())
        if total_survivors:
            bump("repro_cc_stage1_survivors_total", total_survivors,
                 help="Obstacles surviving the first-stage AABB filter")


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
        cache_size: int = 0,
        cache_quantum: float = 0.0,
        edge_cache_size: int = 0,
    ):
        super().__init__(
            robot, environment, motion_resolution, kernels=kernels,
            cache_size=cache_size, cache_quantum=cache_quantum,
            edge_cache_size=edge_cache_size,
        )
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
