"""Planner configuration and the paper's ablation presets.

The single :class:`PlannerConfig` drives both the vanilla RRT\\* baseline and
every MOPED variant; the presets mirror the Fig 16 ablation ladder:

* ``baseline``  — original RRT\\*: brute NN, exhaustive OBB-OBB collision.
* ``v1`` (TSPS) — + two-stage collision processing (Section III-A).
* ``v2`` (STNS) — + SI-MBR-Tree neighbor search (Section III-B).
* ``v3`` (SIAS) — + steering-informed approximated neighborhood.
* ``v4`` (LCI)  — + low-cost O(1) insertion (Section III-C) = full MOPED.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass(frozen=True)
class PlannerConfig:
    """All knobs of the planning loop.

    Attributes:
        mode: planning algorithm — ``"rrtstar"`` (the default single-tree
            optimizing planner) or ``"connect"`` (bidirectional RRT-Connect:
            two trees rooted at start and goal, alternating extend + greedy
            connect, stops at the first bridge).  Connect is a feasibility
            planner: ``rewire``, ``goal_bias``, ``stop_on_goal`` and
            ``informed`` do not apply (``informed=True`` is rejected), and
            every other knob — checker, kernels, neighbor strategy, caches,
            ``wave_width``, deadline/op budgets — behaves identically.
        max_samples: sampling budget (the paper evaluates at 5 000).
        goal_bias: probability of sampling the goal configuration.
        step_size: steering step; ``None`` uses the robot's default.
        motion_resolution: movement-check discretisation; ``None`` derives
            ``step_size / 4``.
        goal_tolerance: C-space distance at which a node counts as reaching
            the goal; ``None`` derives ``step_size``.
        neighbor_radius_factor: neighborhood radius = ``factor * step_size``
            shrunk by the standard RRT\\* ``(log n / n)^(1/d)`` schedule and
            floored at ``step_size``.
        rewire: run the Tree Refinement stage (choose-parent + rewiring).
            False degrades RRT\\* to plain RRT — the paper notes MOPED's
            optimisations apply to the whole RRT family (Section VI).
        checker: ``"obb"`` | ``"aabb"`` | ``"two_stage"`` | ``"grid"``.
        kernels: collision kernel backend — ``"batch"`` (vectorized ndarray
            kernels with bit-exact count replay, the default) or
            ``"reference"`` (the original scalar per-object loops).  Both
            produce identical plans and identical operation counts; the
            reference backend exists as the equivalence/benchmark baseline.
        fine_stage: second-stage OBB-OBB refinement for the two-stage
            checker (off = the AABB-only MOPED of Fig 18 right).
        neighbor_strategy: ``"brute"`` | ``"kd"`` | ``"simbr"``.
        approx_neighborhood: SIAS flag (SI-MBR strategy only).
        approx_scope: approximated-neighborhood scope — ``"leaf"``
            (paper-literal: the node-C population holding ``x_nearest``) or
            ``"parent"`` (wider; trades some of the saving for path quality
            in low-dimensional spaces).
        steering_insert: LCI flag (SI-MBR strategy only).
        simbr_capacity: SI-MBR-Tree fanout.
        kd_rebuild_every: periodic KD rebuild interval.
        speculation_depth: functional speculate-and-repair model — the
            nearest-neighbor search for round *i* cannot see nodes inserted
            in the last ``depth`` rounds and repairs against the missing-
            neighbors buffer instead (Section IV-B).  0 disables.
        wave_width: wavefront planner mode — each wave draws ``W`` samples
            at once and runs speculative nearest/steer/collision for the
            whole wave as batched kernel calls, then commits the samples in
            order with the speculate-and-repair semantics of
            ``speculation_depth = W``.  Plans, costs, and operation counts
            are bit-identical to the scalar planner at that depth.  1 (the
            default) keeps the scalar loop; values > 1 require
            ``speculation_depth == 0`` (the wave implies its own depth) and
            ``informed = False`` (informed sampling is sequential by
            construction).
        collision_cache: capacity of the quantized-configuration collision
            result cache (Section IV-C multi-level caching, in software).
            ``None`` (default) auto-enables 4096 entries when
            ``wave_width > 1`` and disables otherwise; 0 disables.
        neighborhood_cache: capacity of the reused-neighborhood cache inside
            the SI-MBR-Tree (leaf-scope ``leaf_siblings`` results).  Same
            ``None``/0 convention as ``collision_cache`` (auto = 1024).
        edge_cache: capacity of the whole-edge collision-result cache —
            keyed on both endpoint configurations, a hit replays the stored
            verdict and counter events and skips ladder construction, FK,
            and the SAT kernels entirely.  ``None`` (default, auto) and 0
            disable it; a positive capacity enables it at any wave width.
        cache_quantum: configuration-space quantisation step for collision
            cache keys.  0.0 (default) keys on exact float bytes, which
            preserves bit-identical planning; > 0 trades exactness for a
            higher hit rate (a documented approximation — keep it 0 for
            equivalence checks).
        sampler: ``"numpy"`` | ``"lfsr"``.
        informed: wrap the sampler with Informed-RRT\\* prolate-hyperspheroid
            sampling once a first solution is found (the [22] variant the
            paper calls complementary to MOPED).
        seed: RNG seed.
        stop_on_goal: stop sampling once the goal is first connected
            (early-termination footnote 2 of the paper); default runs the
            full budget so Tree Refinement keeps improving the path.
        deadline_s: anytime-planning wall deadline in seconds.  When the
            deadline expires mid-run the planner stops sampling and returns
            the best result found so far with ``status="degraded"`` (a
            solved-but-still-refining path, or the collision-free prefix
            toward the node closest to the goal).  ``None`` (default)
            disables the check entirely — no clock reads, bit-identical
            results.
        op_budget: same degradation triggered by cumulative MAC-equivalents
            (:meth:`repro.core.counters.OpCounter.total_macs`) instead of
            wall time; deterministic, so degraded runs replay exactly under
            a fixed seed.  ``None`` disables.
    """

    mode: str = "rrtstar"
    max_samples: int = 1000
    goal_bias: float = 0.05
    step_size: Optional[float] = None
    motion_resolution: Optional[float] = None
    goal_tolerance: Optional[float] = None
    neighbor_radius_factor: float = 2.0
    rewire: bool = True
    checker: str = "obb"
    kernels: str = "batch"
    fine_stage: bool = True
    neighbor_strategy: str = "brute"
    approx_neighborhood: bool = False
    approx_scope: str = "leaf"
    steering_insert: bool = False
    simbr_capacity: int = 8
    kd_rebuild_every: Optional[int] = None
    speculation_depth: int = 0
    wave_width: int = 1
    collision_cache: Optional[int] = None
    neighborhood_cache: Optional[int] = None
    edge_cache: Optional[int] = None
    cache_quantum: float = 0.0
    sampler: str = "numpy"
    informed: bool = False
    seed: int = 0
    stop_on_goal: bool = False
    deadline_s: Optional[float] = None
    op_budget: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mode not in ("rrtstar", "connect"):
            raise ValueError(
                f"mode must be 'rrtstar' or 'connect', got {self.mode!r}"
            )
        if self.mode == "connect" and self.informed:
            raise ValueError(
                "mode='connect' is incompatible with informed sampling "
                "(connect stops at the first feasible path; there is no "
                "solution cost to focus the sampler on)"
            )
        if self.max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        if not 0.0 <= self.goal_bias < 1.0:
            raise ValueError("goal_bias must be in [0, 1)")
        if self.neighbor_radius_factor <= 0:
            raise ValueError("neighbor_radius_factor must be positive")
        if self.speculation_depth < 0:
            raise ValueError("speculation_depth must be >= 0")
        if self.wave_width < 1:
            raise ValueError("wave_width must be >= 1")
        if self.wave_width > 1 and self.speculation_depth != 0:
            raise ValueError(
                "wave_width > 1 implies speculation_depth = wave_width; "
                "set speculation_depth = 0 in wave mode"
            )
        if self.wave_width > 1 and self.informed:
            raise ValueError(
                "wave_width > 1 is incompatible with informed sampling "
                "(the wave draws all samples before any commit)"
            )
        if self.collision_cache is not None and self.collision_cache < 0:
            raise ValueError("collision_cache must be >= 0 (or None for auto)")
        if self.neighborhood_cache is not None and self.neighborhood_cache < 0:
            raise ValueError("neighborhood_cache must be >= 0 (or None for auto)")
        if self.edge_cache is not None and self.edge_cache < 0:
            raise ValueError("edge_cache must be >= 0 (or None for auto)")
        if self.cache_quantum < 0:
            raise ValueError("cache_quantum must be >= 0")
        if self.kernels not in ("batch", "reference"):
            raise ValueError(
                f"kernels must be 'batch' or 'reference', got {self.kernels!r}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None to disable)")
        if self.op_budget is not None and self.op_budget <= 0:
            raise ValueError("op_budget must be positive (or None to disable)")

    def resolved_step(self, robot_step: float) -> float:
        """Steering step after applying the robot default."""
        return self.step_size if self.step_size is not None else robot_step

    def resolved_motion_resolution(self, robot_step: float) -> float:
        """Movement-check resolution after applying the derivation rule."""
        if self.motion_resolution is not None:
            return self.motion_resolution
        return self.resolved_step(robot_step) / 4.0

    def resolved_goal_tolerance(self, robot_step: float) -> float:
        """Goal tolerance after applying the derivation rule."""
        if self.goal_tolerance is not None:
            return self.goal_tolerance
        return self.resolved_step(robot_step)

    def resolved_collision_cache(self) -> int:
        """Collision-cache capacity after the auto rule (0 = disabled)."""
        if self.collision_cache is not None:
            return self.collision_cache
        return 4096 if self.wave_width > 1 else 0

    def resolved_neighborhood_cache(self) -> int:
        """Neighborhood-cache capacity after the auto rule (0 = disabled)."""
        if self.neighborhood_cache is not None:
            return self.neighborhood_cache
        return 1024 if self.wave_width > 1 else 0

    def resolved_edge_cache(self) -> int:
        """Whole-edge cache capacity after the auto rule (0 = disabled).

        Auto is off at every wave width: planner edges almost never repeat,
        and the wavefront's per-wave verdict map already replays each
        batched edge once.
        """
        return self.edge_cache if self.edge_cache is not None else 0

    def neighbor_radius(self, n: int, dim: int, step: float) -> float:
        """Shrinking RRT\\* neighborhood radius at tree size ``n``.

        The standard ``gamma * (log n / n)^(1/d)`` schedule of Karaman &
        Frazzoli, capped at ``factor * step`` and floored at one steering
        step so rewiring always sees the immediate vicinity.
        """
        cap = self.neighbor_radius_factor * step
        if n < 2:
            return cap
        gamma = 4.0 * cap
        radius = gamma * (math.log(n) / n) ** (1.0 / dim)
        return float(min(cap, max(step, radius)))


def baseline_config(**overrides) -> PlannerConfig:
    """Original RRT\\*: brute NN + exhaustive OBB-OBB collision checks."""
    return PlannerConfig(**overrides)


def moped_config(variant: str = "v4", **overrides) -> PlannerConfig:
    """MOPED ablation presets ``v1``..``v4`` (``v4`` = full MOPED).

    Fig 16's ladder: v1 adds the two-stage collision scheme, v2 adds
    SI-MBR-Tree search, v3 adds the approximated neighborhood, v4 adds the
    O(1) insertion.
    """
    base = dict(checker="two_stage", neighbor_strategy="brute")
    if variant == "v1":
        pass
    elif variant == "v2":
        base.update(neighbor_strategy="simbr", approx_neighborhood=False, steering_insert=False)
    elif variant == "v3":
        base.update(neighbor_strategy="simbr", approx_neighborhood=True, steering_insert=False)
    elif variant in ("v4", "full"):
        base.update(neighbor_strategy="simbr", approx_neighborhood=True, steering_insert=True)
    else:
        raise ValueError(f"unknown MOPED variant {variant!r}; use v1..v4 or full")
    base.update(overrides)
    return PlannerConfig(**base)
