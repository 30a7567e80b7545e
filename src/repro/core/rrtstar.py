"""The RRT\\* planning loop shared by the baseline and every MOPED variant.

One parameterised planner implements the Section II-B processing scheme —
sample, nearest-neighbor, steer, collision check, choose-parent, rewire —
with the collision checker and neighbor-search strategy injected through
:class:`~repro.core.config.PlannerConfig`.  The MOPED presets
(:func:`~repro.core.config.moped_config`) select the paper's optimisations;
the defaults reproduce the original RRT\\* baseline.

The planner also hosts the *functional* speculate-and-repair model
(Section IV-B): with speculation depth ``k``, the nearest-neighbor search
of each round is blinded to the nodes inserted in the previous ``k`` rounds
(they are still in flight in the hardware pipeline) and a repair step then
compares the speculated result against those pending nodes — the Missing
Neighbors Buffer.  The repaired result is provably the true nearest
neighbor, so planning outcomes are identical with and without speculation
(a tested invariant mirroring the paper's "functionally equivalent" claim).

There is one run loop, and it works in waves of ``wave_width`` samples.
A wave of ``W > 1`` samples turns the functional model into a throughput
mechanism at depth ``W``: it evaluates the nearest-neighbor distance
matrix, speculative steering, and the collision check of every
speculative edge against a snapshot of the tree, with one batched kernel
call per wave, then commits the samples *in order* — a sample whose
speculative result is invalidated by an intra-wave accept is repaired
exactly like a pending-node miss.  The matrix row answers the commit's
nearest-neighbor search, whose counts the strategy replays.  Every
counter event of the sequential round is replayed at commit time
(batched arithmetic feeds verdicts, not counts), so paths, costs, and
OpCounter totals are bit-identical to one-sample waves at
``speculation_depth = W``.  A one-sample wave has nothing to
batch: its commit checks each edge directly, and that direct path is the
reference the speculative one is tested against.

The wave's choose-parent and rewire edges are batched the same way
(mask-then-replay).  Edge verdicts do not depend on tree state; only which
edges the sequential extend checks does.  So once the speculation has
fixed each likely accept's ``x_new``, a cost-pruned superset of its
neighborhood edges rides along in the wave's one collision call, and
``_extend`` replays each verdict it actually needs from a per-wave map.
Edges it never asks for are charged nothing; an edge the map lacks is
checked singly, so a misprediction costs time, never correctness.
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.core.collision import make_checker
from repro.core.config import PlannerConfig
from repro.core.counters import OpCounter
from repro.obs import PhaseRecorder, bump, get_registry, get_tracer
from repro.core.informed import InformedSampler
from repro.core.metrics import PlanResult, RoundRecord
from repro.core.neighbors import make_strategy, wave_nearest
from repro.core.rng import LFSRSampler, NumpySampler
from repro.core.robots import RobotModel
from repro.core.tree import ExpTree
from repro.core.world import PlanningTask
from repro.geometry.motion import distance

# Operation kinds executed on each hardware unit, used to split a round's
# counter diff into per-unit loads for the pipeline timing model.
_NS_KINDS = ("dist", "mindist", "plane_compare", "buffer_read", "rebuild_item")
_CC_KINDS = ("sat_obb_obb", "sat_aabb_obb", "sat_aabb_aabb", "aabb_derive", "grid_lookup")
_MAINT_KINDS = ("enlargement", "mbr_update", "insert_direct", "split")

_EXTEND_EDGES_HELP = (
    "Wave-batched choose-parent/rewire edges by commit outcome "
    "(replayed, fallback single check, unused)"
)


class _RunState:
    """Mutable bookkeeping of one planning run."""

    __slots__ = (
        "goal_nodes", "first_solution", "rounds", "cost_history",
        "best_known", "pending", "deadline", "op_budget", "degraded_reason",
        "cancel", "armed",
    )

    def __init__(self):
        self.goal_nodes: List[int] = []
        self.first_solution: Optional[int] = None
        self.rounds: List[RoundRecord] = []
        self.cost_history: List[tuple] = []
        self.best_known = float("inf")
        # (round index, node id) pairs still "in flight" for speculation.
        self.pending: Deque[Tuple[int, int]] = deque()
        # Anytime-planning budgets: a monotonic wall deadline and a MAC
        # budget.  None = disabled; the loops guard every poll with
        # ``armed`` so absent budgets cost nothing and perturb neither RNG
        # streams nor operation counts.
        self.deadline: Optional[float] = None
        self.op_budget: Optional[float] = None
        self.degraded_reason: Optional[str] = None
        # Cooperative cancellation (portfolio racing): a zero-arg predicate
        # polled alongside the budgets.  None = no race in flight.
        self.cancel = None
        self.armed = False

    def budget_expired(self, *counters) -> bool:
        """Check budgets, the MAC budget against the sum of ``counters``;
        records the degradation reason on expiry."""
        if self.cancel is not None and self.cancel():
            self.degraded_reason = "cancelled"
            return True
        if self.deadline is not None and time.monotonic() >= self.deadline:
            self.degraded_reason = "deadline"
            return True
        if (self.op_budget is not None
                and sum(c.total_macs() for c in counters) >= self.op_budget):
            self.degraded_reason = "op_budget"
            return True
        return False


class _SamplingPlanner:
    """What the RRT\\* and RRT-Connect planners share: task validation, the
    collision checker, sampler and neighbor strategies, the per-run budgets
    and fault injector, steering, speculative-edge replay, and telemetry."""

    def __init__(self, robot: RobotModel, task: PlanningTask, config: PlannerConfig):
        if task.start.shape != (robot.dof,) or task.goal.shape != (robot.dof,):
            raise ValueError(
                f"task configurations must be {robot.dof}-dimensional for {robot.name}"
            )
        self.robot = robot
        self.task = task
        self.config = config
        self.step = config.resolved_step(robot.step_size)
        resolution = config.resolved_motion_resolution(robot.step_size)
        checker_kwargs = {"kernels": config.kernels}
        if config.checker == "two_stage":
            checker_kwargs["fine_stage"] = config.fine_stage
        self.checker = make_checker(
            config.checker, robot, task.environment, resolution, **checker_kwargs
        )
        sampler_cls = {"numpy": NumpySampler, "lfsr": LFSRSampler}.get(config.sampler)
        if sampler_cls is None:
            raise KeyError(f"unknown sampler {config.sampler!r}; use 'numpy' or 'lfsr'")
        self.sampler = sampler_cls(robot.config_lo, robot.config_hi, seed=config.seed)

    def _make_strategy(self):
        config = self.config
        return make_strategy(
            config.neighbor_strategy,
            self.robot.dof,
            steering_insert=config.steering_insert,
            approx_neighborhood=config.approx_neighborhood,
            capacity=config.simbr_capacity,
            kd_rebuild_every=config.kd_rebuild_every,
            approx_scope=config.approx_scope,
        )

    def _begin_run(self) -> _RunState:
        """Arm one run's budgets, race cancellation and fault injector."""
        from repro.core import cancel
        from repro.faults import get_injector

        config = self.config
        state = _RunState()
        state.op_budget = config.op_budget
        if config.deadline_s is not None:
            state.deadline = time.monotonic() + config.deadline_s
        state.cancel = cancel.active()
        state.armed = (state.deadline is not None or state.op_budget is not None
                       or state.cancel is not None)
        # Fault-injection front end (repro.faults): None in the steady
        # state, so the hot loops pay one is-None check per round.  The
        # checker bound its injector at construction; refresh it so an
        # injector installed after planner construction still sees the
        # ``edge.validate`` site.
        self._injector = get_injector()
        self.checker._injector = self._injector
        return state

    def _plan_span(self, **attrs):
        """The run's ``plan`` span (dormant unless tracing is on)."""
        config = self.config
        return get_tracer().span(
            "plan",
            robot=self.robot.name,
            dof=self.robot.dof,
            checker=config.checker,
            strategy=config.neighbor_strategy,
            max_samples=config.max_samples,
            wave_width=config.wave_width,
            **attrs,
        )

    def _steer(self, origin: np.ndarray, target: np.ndarray, dist: float) -> np.ndarray:
        """Move from ``origin`` toward ``target`` by at most one step."""
        if dist <= self.step:
            return target.copy()
        return origin + (self.step / dist) * (target - origin)

    @staticmethod
    def _draw(draw, xs, subs) -> List[Tuple[float, float]]:
        """Draw a wave's samples: ``xs[j] = draw(subs[j])``.

        Returns each draw's ``(seconds, macs)`` for :meth:`_charge_draws`;
        which phase a draw belongs to is known only once the wave ends.
        """
        cost = []
        for j, sub in enumerate(subs):
            began = time.perf_counter()
            xs[j] = draw(sub)
            cost.append((time.perf_counter() - began, sub.total_macs()))
        return cost

    @staticmethod
    def _charge_draws(obs: PhaseRecorder, cost, used: int) -> None:
        """Time the draws of a wave's first ``used`` samples (the ones
        whose sub-counters reached the run counter) as ``sample`` calls.
        The rest were drawn for commits the run never made (a bridge or
        goal stop mid-wave), so their seconds go to ``speculate``, with no
        call: ``sample`` calls then equal the run's ``sample`` events."""
        for seconds, macs in cost[:used]:
            obs.add("sample", seconds, macs=macs)
        if used < len(cost):
            obs.add("speculate", sum(seconds for seconds, _ in cost[used:]),
                    calls=0)

    def _replay_motion(self, result, counter) -> bool:
        """Commit a speculatively validated edge from its stored result.

        Mirrors :meth:`~repro.core.collision.CollisionChecker.
        motion_in_collision`: one motion-query metric, then the whole-edge
        verdict with its captured counter events merged in.
        """
        bump("repro_cc_motion_checks_total",
             help="Motion (edge) collision queries issued")
        verdict, events = result
        counter.merge(events)
        return verdict

    def _anytime_prefix(self, tree) -> Tuple[List[np.ndarray], float]:
        """Best-so-far ``(path, distance to goal)`` of a degraded run.

        Every tree edge was collision checked at insertion, so the path to
        ANY node is a valid collision-free prefix.  Returns the one
        minimizing cost-to-come plus the straight-line remainder to the
        goal (the classic anytime heuristic).
        """
        remainder = np.linalg.norm(tree.points_view() - self.task.goal[None, :], axis=1)
        best_node = int(np.argmin(tree.costs_view() + remainder))
        return tree.path_to(best_node), float(remainder[best_node])

    def cache_stats(self) -> dict:
        """Per-cache hit/miss statistics: always empty, the planner keeps no
        result caches."""
        return {}

    def _finish_run(self, obs: PhaseRecorder, result: PlanResult,
                    started: float) -> PlanResult:
        """Attach the run's phase totals to ``result`` and, with metrics
        on, record the run."""
        result.phases = obs.totals()
        registry = get_registry()
        if registry.enabled:
            self._record_run_metrics(
                registry, result, time.perf_counter() - started
            )
        return result

    @staticmethod
    def _record_run_metrics(registry, result: PlanResult, elapsed_s: float) -> None:
        """Run-level metrics: plan count/latency, Fig-3 MAC categories and
        the per-phase totals (the only writer of ``repro_phase_*``)."""
        registry.counter("repro_plans_total", "Completed planning runs").inc(
            outcome="success" if result.success else "failure"
        )
        registry.counter("repro_plan_rounds_total", "Sampling rounds executed").inc(
            result.iterations
        )
        registry.histogram(
            "repro_plan_seconds", "End-to-end planner wall time"
        ).observe(elapsed_s)
        for category, macs in result.counter.macs_by_category().items():
            registry.counter(
                "repro_macs_total", "MAC-equivalents by cost-model category"
            ).inc(macs, category=category)
        seconds = registry.counter(
            "repro_phase_seconds_total", "Wall seconds spent per planner phase"
        )
        calls = registry.counter(
            "repro_phase_calls_total", "Times each planner phase executed"
        )
        macs = registry.counter(
            "repro_phase_macs_total", "MAC-equivalents accumulated per planner phase"
        )
        for phase, entry in result.phases.items():
            seconds.inc(entry["seconds"], phase=phase)
            calls.inc(entry["calls"], phase=phase)
            if entry["macs"]:
                macs.inc(entry["macs"], phase=phase)

    @staticmethod
    def _round_record(diff: OpCounter, accepted, missing_used=0, repaired=False,
                      wave_width: int = 1, repaired_in_wave: bool = False) -> RoundRecord:
        loads = {"ns": 0.0, "cc": 0.0, "maint": 0.0, "other": 0.0}
        for kind, macs in diff.macs.items():
            if kind in _NS_KINDS:
                loads["ns"] += macs
            elif kind in _CC_KINDS:
                loads["cc"] += macs
            elif kind in _MAINT_KINDS:
                loads["maint"] += macs
            else:
                loads["other"] += macs
        return RoundRecord(
            ns_macs=loads["ns"],
            cc_macs=loads["cc"],
            maint_macs=loads["maint"],
            other_macs=loads["other"],
            accepted=accepted,
            missing_used=missing_used,
            repaired=repaired,
            events=dict(diff.events),
            wave_width=wave_width,
            repaired_in_wave=repaired_in_wave,
        )


class RRTStarPlanner(_SamplingPlanner):
    """RRT\\* planner over a robot model and planning task."""

    def __init__(self, robot: RobotModel, task: PlanningTask, config: PlannerConfig):
        super().__init__(robot, task, config)
        self.goal_tolerance = config.resolved_goal_tolerance(robot.step_size)
        self.strategy = self._make_strategy()
        if config.informed:
            self.sampler = InformedSampler(
                self.sampler, task.start, task.goal, seed=config.seed
            )

    # ------------------------------------------------------------------- plan

    def plan(self) -> PlanResult:
        """Run the sampling loop and return the planning outcome."""
        task = self.task
        counter = OpCounter()
        tree = ExpTree(task.start)
        self.strategy.insert(tree.root, task.start, counter=counter)
        self.tree = tree
        self._neighborhood_macs = 0.0
        state = self._begin_run()

        obs = PhaseRecorder()
        started = time.perf_counter()
        with self._plan_span():
            self._run(tree, counter, obs, state)

        self._cost_history = state.cost_history
        result = self._result(
            tree, state.goal_nodes, state.first_solution, counter,
            state.rounds, len(state.rounds),
            degraded_reason=state.degraded_reason,
        )
        return self._finish_run(obs, result, started)

    def _run(self, tree, counter, obs, state) -> None:
        """The sampling loop: waves of up to ``wave_width`` samples.

        A wave draws its samples, then commits them in sample order.  Each
        commit is one sequential round — nearest + missing-neighbors
        repair, steer, collision, extend — recorded into its own
        sub-counter and merged into ``counter``.  An accepted node stays
        pending (blinded from the nearest search, repaired against) for
        the speculation depth: ``wave_width`` when that is above one, else
        ``speculation_depth``.

        A wave of more than one sample is first evaluated speculatively
        (:meth:`_speculate`).  When the committed edge matches the
        speculated one bitwise at both ends (the nearest's point and the
        steered ``x_new``; a sample within one step steers to itself
        whichever node is nearest, so ``x_new`` alone does not identify
        the edge), its verdict and captured counter events are
        replayed; otherwise (an intra-wave conflict repaired the nearest)
        the edge is checked singly, exactly like a speculation miss in the
        hardware pipeline.  Inside ``_extend`` each choose-parent/rewire
        edge is looked up in the wave's verdict map and replayed on a hit,
        checked singly on a miss; ``repro_cc_extend_edges_total`` counts
        replayed, fallback and unused edges.  A one-sample wave skips the
        speculation and checks every edge directly.  Because all
        cost-model weights are integers, merging the sub-counters
        reproduces the direct path's totals bit-for-bit.
        """
        config, task, dim = self.config, self.task, self.robot.dof
        width_cfg = config.wave_width
        depth = width_cfg if width_cfg > 1 else config.speculation_depth
        pending = state.pending
        injector = self._injector

        def draw(sub):
            return self.sampler.sample_biased(task.goal, config.goal_bias, counter=sub)

        start = 0
        while start < config.max_samples:
            if state.armed and state.budget_expired(counter):
                break
            if injector is not None:
                injector.fire("planner.round", detail=f"wave at {start}")
            width = min(width_cfg, config.max_samples - start)
            subs = [OpCounter() for _ in range(width)]
            xs = np.empty((width, dim), dtype=float)
            draws = self._draw(draw, xs, subs)
            spec = (self._speculate(tree, xs, start, depth, pending, obs)
                    if width > 1 else None)
            verdicts = spec["verdicts"] if spec is not None else None

            for j in range(width):
                iteration = start + j
                sub = subs[j]
                x_rand = xs[j]
                if spec is None:
                    nearest = self._nearest_with_repair(
                        tree, x_rand, pending, sub, obs
                    )
                else:
                    # Intra-wave accepts are all still pending, so the
                    # visible set is the snapshot prefix the matrix row
                    # searched: its unique minimum is the search's answer.
                    nearest = self._nearest_with_repair(
                        tree, x_rand, pending, sub, obs,
                        d_sq_row=spec["d_sq"][j], snapshot_len=spec["n0"],
                        known_key=spec["known_key"][j],
                    )
                nearest_key, nearest_point, nearest_dist, missing_used, repaired = nearest

                accepted = False
                node_id: Optional[int] = None
                used_spec = False
                if nearest_dist > 1e-12:
                    with obs.phase("steer", sub):
                        sub.record("steer", dim=dim)
                        x_new = self._steer(nearest_point, x_rand, nearest_dist)
                    if injector is not None:
                        injector.fire("planner.collision")
                    used_spec = (
                        spec is not None
                        and spec["spec_results"][j] is not None
                        and np.array_equal(nearest_point, spec["spec_start"][j])
                        and np.array_equal(x_new, spec["spec_new"][j])
                    )
                    with obs.phase("collision", sub):
                        if used_spec:
                            blocked = self._replay_motion(spec["spec_results"][j], sub)
                        else:
                            blocked = self.checker.motion_in_collision(
                                nearest_point, x_new, counter=sub
                            )
                    if not blocked:
                        with obs.phase("rewire", sub):
                            node_id = self._extend(
                                tree, x_new, nearest_key, nearest_point, sub,
                                verdicts,
                            )
                        accepted = True
                        self._after_accept(tree, node_id, x_new, iteration, state)

                state.rounds.append(
                    self._round_record(
                        sub, accepted, missing_used, repaired,
                        wave_width=width,
                        repaired_in_wave=(spec is not None and not used_spec
                                          and spec["pre_dist"][j] > 1e-12),
                    )
                )

                if accepted and depth > 0:
                    pending.append((iteration, node_id))
                while pending and pending[0][0] <= iteration - depth:
                    pending.popleft()

                counter.merge(sub)

                if config.stop_on_goal and state.first_solution is not None:
                    break
            self._charge_draws(obs, draws, j + 1)
            if verdicts:
                bump("repro_cc_extend_edges_total", len(verdicts),
                     outcome="unused", help=_EXTEND_EDGES_HELP)
            if config.stop_on_goal and state.first_solution is not None:
                break
            start += width

    def _speculate(self, tree, xs, start, depth, pending, obs) -> dict:
        """Speculative batched evaluation of a multi-sample wave.

        Against a snapshot of the tree, the wave's nearest-neighbor lookups
        run as one distance matrix in the strategy's own arithmetic
        (:meth:`~repro.core.neighbors.NeighborStrategy.wave_sq_distances`),
        and each sample's speculative ``x_new`` is steered.  Each sample
        only sees the tree prefix a one-sample wave at speculation depth
        ``depth`` would see (pending rounds are blinded), so a row's unique
        minimum over that prefix is the commit's nearest, and the commit
        only replays the search's counts.

        :meth:`_simulate_commit` then walks the commit order ahead of time
        and validates the wave's edges whole in one
        :meth:`~repro.core.collision.CollisionChecker.motion_results_batch`
        call, so a wave makes one kernel call.

        Returns the snapshot (``n0`` nodes, distance matrix ``d_sq``), the
        known nearest ``known_key`` per sample (None when the row minimum
        is tied), the predicted post-repair distance ``pre_dist`` per
        sample, the final speculation (``spec_start``/``spec_new``/
        ``spec_results``), and the wave's ``verdicts`` map, keyed on exact
        endpoint bytes.  Everything is a prediction: commits verify it
        bitwise before replaying anything.
        """
        width = len(xs)
        n0 = len(tree)
        points = tree.points_view()
        pend_rounds = [r for r, _ in pending]
        # Entering round start+j a one-sample wave has popped rounds
        # <= start+j-1-depth, so the blinded suffix is rounds >=
        # start+j-depth; node ids are insertion-ordered, hence the visible
        # set is a prefix of the snapshot.
        limits = np.array([
            n0 - sum(1 for r in pend_rounds if r >= start + j - depth)
            for j in range(width)
        ])
        spec_start: List[Optional[np.ndarray]] = [None] * width
        spec_new: List[Optional[np.ndarray]] = [None] * width
        #: Per-sample whole-edge (verdict, events) for the commit replay.
        spec_results: List[Optional[tuple]] = [None] * width
        with get_tracer().span("wave", width=width, nodes=n0), \
                obs.phase("speculate"):
            d_sq = self.strategy.wave_sq_distances(points, xs)
            keys, unique = wave_nearest(d_sq, np.arange(n0) < limits[:, None])
            known_key = [k if once else None for k, once in zip(keys, unique)]
            pre_key = [0] * width
            pre_dist = [0.0] * width
            for j in range(width):
                k = keys[j]
                dist = math.sqrt(d_sq[j, k])
                # Predict the POST-repair nearest among the snapshot:
                # replay the repair scan against the pending entries
                # that will still be in flight at this sample's commit
                # (bitwise the same arithmetic the commit-time repair
                # performs).  The matrix distance prunes entries that
                # provably cannot win (it agrees with the exact norm
                # to a few ulp, dwarfed by the 1e-9 relative margin).
                cut = start + j - depth
                bound = dist * dist * (1.0 + 1e-9)
                for r, pkey in pending:
                    if r >= cut and d_sq[j, pkey] <= bound:
                        pdist = distance(points[pkey], xs[j])
                        if pdist < dist:
                            k, dist = pkey, pdist
                            bound = dist * dist * (1.0 + 1e-9)
                pre_key[j] = k
                pre_dist[j] = dist
                if dist > 1e-12:
                    spec_new[j] = self._steer(points[k], xs[j], dist)
            verdicts = self._simulate_commit(
                xs, width, n0, pre_key, pre_dist, points, tree.costs_view(),
                spec_start, spec_new, spec_results,
            )
        return {
            "n0": n0, "d_sq": d_sq, "known_key": known_key, "pre_dist": pre_dist,
            "spec_start": spec_start, "spec_new": spec_new,
            "spec_results": spec_results, "verdicts": verdicts,
        }

    def _simulate_commit(self, xs, width, n0, pre_key, pre_dist, points, costs,
                         spec_start, spec_new, spec_results) -> dict:
        """Fold intra-wave accepts into the speculation; one kernel call.

        The pre-pass speculation only sees the tree snapshot, so a sample
        whose true nearest is a node accepted *earlier in the same wave*
        would miss at commit and fall back to a single-edge collision check.
        This walks the commit order ahead of time:

        * Pass A assumes every speculative edge is free (a blocked one is
          rare).  Samples whose predicted nearest moves to an intra-wave
          accept get their edge re-steered, again assumed free.  The
          speculative edges, the re-steered edges and the choose-parent/
          rewire edges of every likely accept (:meth:`_extend_edges`) are
          validated whole in one :meth:`~repro.core.collision.
          CollisionChecker.motion_results_batch` call.
        * Pass B re-walks the chain with those verdicts and fixes the final
          per-sample speculation (``spec_start``/``spec_new``/
          ``spec_results``), predicting each edge's start point, an
          intra-wave accept's ``x_new`` included.

        The simulation uses bitwise the same steering and distance
        arithmetic as the commit.  A blocked speculative edge makes pass A
        check edges the commit never asks for; a chain pass A got wrong
        leaves a sample without a batched result.  Either misprediction
        costs time only: the commit checks that sample's edge singly.

        Returns the wave's verdict map for :meth:`_extend`: batched
        choose-parent/rewire ``(verdict, events)`` keyed on the exact
        ``(start, end)`` endpoint bytes.

        Both passes prefilter with squared-distance matrices to the
        candidate accept points (one stacked einsum per candidate set);
        the exact norm runs only on entries inside the 1e-9
        relative margin, which dwarfs the few-ulp matrix/norm divergence.
        """
        cand_idx = [j for j in range(width) if spec_new[j] is not None]
        if not cand_idx:
            for j in range(width):
                spec_start[j] = points[pre_key[j]]
            return {}
        margin = 1.0 + 1e-9
        cmat = np.stack([spec_new[j] for j in cand_idx])
        d_a = cmat[None, :, :] - xs[:, None, :]
        sq_a = np.einsum("wmd,wmd->wm", d_a, d_a).tolist()
        col_of = {j: i for i, j in enumerate(cand_idx)}

        # ---- pass A: collect the wave's edges, every speculation free
        # (candidate column, or None when not in sq_a; point; likely index)
        accepts = []
        resteer = []
        # Likely accepts in commit order: (x_new, nearest), nearest being
        # a snapshot key or n0 + the index of an earlier likely accept.
        likely = []
        for j in range(width):
            dist = pre_dist[j]
            bound = dist * dist * margin
            row = sq_a[j]
            pt = ref = None
            for col, apt, idx in accepts:
                if col is None or row[col] <= bound:
                    pdist = distance(apt, xs[j])
                    if pdist < dist:
                        dist, pt, ref = pdist, apt, n0 + idx
                        bound = dist * dist * margin
            if pt is not None:
                # Moved intra-wave: re-steer.
                if dist > 1e-12:
                    x2 = self._steer(pt, xs[j], dist)
                    resteer.append((j, pt, x2))
                    accepts.append((None, x2, len(likely)))
                    likely.append((x2, ref))
                continue
            if spec_new[j] is not None:
                accepts.append((col_of[j], spec_new[j], len(likely)))
                likely.append((spec_new[j], pre_key[j]))
        starts = [points[pre_key[j]] for j in cand_idx]
        ends = [spec_new[j] for j in cand_idx]
        starts.extend(pt for _, pt, _ in resteer)
        ends.extend(x2 for _, _, x2 in resteer)
        if likely and self.config.rewire:
            extend_starts, extend_ends = self._extend_edges(
                likely, points, costs, n0
            )
            starts.extend(extend_starts)
            ends.extend(extend_ends)
        edge_results = self.checker.motion_results_batch(
            np.stack(starts), np.stack(ends)
        )
        spec_edges = dict(zip(cand_idx, edge_results))
        resteered: dict = {}
        bcol_of: dict = {}
        first = len(cand_idx)
        for i, (j, pt, x2) in enumerate(resteer):
            resteered[j] = (pt, x2, edge_results[first + i])
            bcol_of[j] = i
        verdicts = {
            (starts[i].tobytes(), ends[i].tobytes()): edge_results[i]
            for i in range(first + len(resteer), len(starts))
        }
        sq_b = None
        if resteer:
            bmat = np.stack([x2 for _, _, x2 in resteer])
            d_b = bmat[None, :, :] - xs[:, None, :]
            sq_b = np.einsum("wmd,wmd->wm", d_b, d_b).tolist()

        # ---- pass B: exact chain replay with the verdicts
        accepts = []  # (matrix flag, column, point); id = n0 + position
        for j in range(width):
            k, dist = pre_key[j], pre_dist[j]
            pt = points[k]
            bound = dist * dist * margin
            row_a = sq_a[j]
            row_b = sq_b[j] if sq_b is not None else None
            for idx, (in_b, col, apt) in enumerate(accepts):
                sq = row_b[col] if in_b else row_a[col]
                if sq <= bound:
                    pdist = distance(apt, xs[j])
                    if pdist < dist:
                        k, dist, pt = n0 + idx, pdist, apt
                        bound = dist * dist * margin
            spec_start[j] = pt
            if dist <= 1e-12:
                spec_new[j] = None
                spec_results[j] = None
                continue
            if k == pre_key[j]:
                x2 = spec_new[j]
                results = spec_edges.get(j)
                in_b, col = False, col_of.get(j)
            else:
                x2 = self._steer(pt, xs[j], dist)
                spec_new[j] = x2
                entry = resteered.get(j)
                results = None
                in_b, col = True, bcol_of.get(j)
                if (entry is not None and np.array_equal(entry[0], pt)
                        and np.array_equal(entry[1], x2)):
                    results = entry[2]
            spec_results[j] = results
            if results is not None and not results[0]:
                accepts.append((in_b, col, spec_new[j]))
        return verdicts

    def _extend_edges(self, likely, points, costs, n0):
        """Choose-parent and rewire edges ``_extend`` may check this wave.

        ``likely`` lists the wave's likely accepts in commit order as
        ``(x_new, nearest)``, where ``nearest`` indexes the snapshot points
        followed by the likely accepts themselves (``n0 + i``).  Each
        accept's candidates are the snapshot nodes and earlier likely
        accepts within the snapshot's neighborhood radius: the radius never
        grows with the tree, so it bounds the commit-time one and with it
        SI-MBR's approximated neighborhood.  Snapshot costs then prune
        them.  A choose-parent edge ``point -> x_new`` is kept when
        ``cost + dist`` undercuts the nearest's ``cost + edge``; a rewire
        edge ``x_new -> point`` when a lower bound of the new node's cost
        plus ``dist`` undercuts ``cost``.  A likely accept is costed from
        above by its nearest and from below by its best candidate.
        Rewires earlier in the wave only lower costs, so the sets are
        supersets up to those drops; an edge missed here is checked singly
        at commit.

        Returns the ``(starts, ends)`` endpoint arrays of the edges.
        """
        slack = 1.0 + 1e-9
        count = len(likely)
        radius = self.config.neighbor_radius(n0, self.robot.dof, self.step)
        new_pts = np.stack([x for x, _ in likely])
        cand_pts = np.concatenate([points, new_pts])
        diffs = cand_pts[None, :, :] - new_pts[:, None, :]
        dist = np.sqrt(np.einsum("and,and->an", diffs, diffs))
        inside = dist <= radius * slack
        # Only accepts committed earlier can be a candidate.
        inside[:, n0:] &= np.tri(count, k=-1, dtype=bool)
        high = np.concatenate([costs, np.zeros(count)])
        low = high.copy()
        parent = np.zeros_like(inside)
        for i, (_, near) in enumerate(likely):
            high[n0 + i] = (high[near] + dist[i, near]) * slack
            via = low + dist[i]
            parent[i] = inside[i] & (via < high[n0 + i])
            # The nearest ties best_cost, so choose-parent never checks it.
            parent[i, near] = False
            low[n0 + i] = min(high[n0 + i], via[parent[i]].min(initial=np.inf))
        rewire = inside & (low[n0:, None] + dist < high * slack)
        p_rows, p_cols = np.nonzero(parent)
        r_rows, r_cols = np.nonzero(rewire)
        starts = np.concatenate([cand_pts[p_cols], new_pts[r_rows]])
        ends = np.concatenate([new_pts[p_rows], cand_pts[r_cols]])
        return starts, ends

    def _after_accept(self, tree, node_id, x_new, iteration, state) -> None:
        """Goal bookkeeping for an accepted sample."""
        task = self.task
        if distance(x_new, task.goal) <= self.goal_tolerance:
            state.goal_nodes.append(node_id)
            if state.first_solution is None:
                state.first_solution = iteration
        if state.goal_nodes:
            best = min(
                tree.cost(n) + distance(tree.point(n), task.goal)
                for n in state.goal_nodes
            )
            if best < state.best_known - 1e-9:
                state.best_known = best
                state.cost_history.append((iteration, best))
            if isinstance(self.sampler, InformedSampler):
                self.sampler.update_best_cost(best)

    # -------------------------------------------------------------- internals

    def _nearest_with_repair(self, tree, x_rand, pending, counter, obs,
                             d_sq_row=None, snapshot_len=0, known_key=None):
        """Speculated nearest-neighbor search plus the repair step.

        Without speculation this is a plain exact search.  With speculation,
        the index search cannot see the pending (in-flight) node ids; the
        repair step then reads each pending node from the Missing Neighbors
        Buffer and keeps whichever candidate is truly nearest.  In a
        speculated wave ``d_sq_row`` is the sample's row of the snapshot
        distance matrix and ``known_key`` its unique minimum over the
        visible prefix: when the strategy can replay the search's counts
        (:meth:`~repro.core.neighbors.NeighborStrategy.count_nearest`) the
        row answers the search, otherwise the index searches.
        """
        with obs.phase("nearest", counter):
            exclude = {key for _, key in pending} if pending else None
            if known_key is not None and self.strategy.count_nearest(
                    x_rand, known_key, float(d_sq_row[known_key]),
                    counter=counter, exclude=exclude):
                found = (known_key, tree.point(known_key),
                         float(np.sqrt(d_sq_row[known_key])))
            else:
                found = self.strategy.nearest(x_rand, counter=counter, exclude=exclude)
                assert found is not None, "tree root can never be excluded"
        nearest_key, nearest_point, nearest_dist = found
        missing_used = 0
        repaired = False
        if pending:
            with obs.phase("repair", counter):
                (nearest_key, nearest_point, nearest_dist,
                 missing_used, repaired) = self._repair(
                    tree, x_rand, pending, counter,
                    nearest_key, nearest_point, nearest_dist,
                    d_sq_row=d_sq_row, snapshot_len=snapshot_len,
                )
        return nearest_key, nearest_point, nearest_dist, missing_used, repaired

    def _repair(self, tree, x_rand, pending, counter,
                nearest_key, nearest_point, nearest_dist,
                d_sq_row=None, snapshot_len=0):
        """Missing-neighbors repair: compare against every pending node.

        Every pending entry is charged its buffer read and distance (the
        hardware always performs them), but when the wavefront planner
        supplies its precomputed squared-distance row the actual norm is
        skipped for snapshot entries that provably cannot beat the current
        nearest — the matrix agrees with the exact norm to a few ulp,
        dwarfed by the 1e-9 relative margin, so the selected neighbor is
        bitwise unchanged.
        """
        dim = self.robot.dof
        missing_used = len(pending)
        repaired = False
        # One aggregated record per kind: integer cost weights make the
        # n-fold record bitwise equal to n single records.
        counter.record("buffer_read", dim=dim, n=missing_used)
        counter.record("dist", dim=dim, n=missing_used)
        bound = (
            nearest_dist * nearest_dist * (1.0 + 1e-9)
            if d_sq_row is not None else 0.0
        )
        for _, key in pending:
            if d_sq_row is not None and key < snapshot_len and d_sq_row[key] > bound:
                continue
            point = tree.point(key)
            dist = distance(point, x_rand)
            if dist < nearest_dist:
                nearest_key, nearest_point, nearest_dist = key, point, dist
                repaired = True
                if d_sq_row is not None:
                    bound = nearest_dist * nearest_dist * (1.0 + 1e-9)
        return nearest_key, nearest_point, nearest_dist, missing_used, repaired

    def _extend(self, tree, x_new, nearest_key, nearest_point, counter,
                verdicts=None):
        """Choose-parent + insert + rewire for an accepted sample.

        With ``config.rewire`` disabled the sample is attached straight to
        ``x_nearest`` (plain RRT): no neighborhood query, no refinement.
        ``verdicts`` is the wavefront's per-wave map of batched edge
        results (see :meth:`_edge_in_collision`); None in a one-sample wave.
        """
        config, dim = self.config, self.robot.dof
        if not config.rewire:
            edge = distance(x_new, nearest_point)
            node_id = tree.add(x_new, nearest_key, edge)
            self.strategy.insert(node_id, x_new, nearest_key=nearest_key, counter=counter)
            return node_id
        radius = config.neighbor_radius(len(tree), dim, self.step)
        before_neighborhood = counter.snapshot()
        neighborhood = self.strategy.neighborhood(
            x_new, radius, nearest_key=nearest_key, counter=counter
        )
        self._neighborhood_macs += counter.diff(before_neighborhood).total_macs()
        candidates = {key: (point, dist) for key, point, dist in neighborhood}
        nearest_edge = distance(x_new, nearest_point)
        candidates.setdefault(nearest_key, (nearest_point, nearest_edge))

        # Choose parent: lowest cost-to-come through a collision-free edge.
        # The edge from x_nearest was already verified by the extension check.
        parent_key, parent_edge = nearest_key, candidates[nearest_key][1]
        best_cost = tree.cost(nearest_key) + parent_edge
        ranked = sorted(
            candidates.items(), key=lambda kv: tree.cost(kv[0]) + kv[1][1]
        )
        for key, (point, dist) in ranked:
            counter.record("cost_update", dim=dim)
            cost = tree.cost(key) + dist
            if cost >= best_cost:
                break
            if not self._edge_in_collision(point, x_new, counter, verdicts):
                parent_key, parent_edge, best_cost = key, dist, cost
                break

        node_id = tree.add(x_new, parent_key, parent_edge)
        self.strategy.insert(node_id, x_new, nearest_key=nearest_key, counter=counter)

        # Rewire: route neighbors through x_new when cheaper and collision free.
        new_cost = tree.cost(node_id)
        for key, (point, dist) in candidates.items():
            if key == parent_key:
                continue
            counter.record("cost_update", dim=dim)
            if new_cost + dist >= tree.cost(key) - 1e-12:
                continue
            if self._is_ancestor(tree, key, node_id):
                continue
            if not self._edge_in_collision(x_new, point, counter, verdicts):
                tree.rewire(key, node_id, dist)
        return node_id

    def _edge_in_collision(self, start, end, counter, verdicts) -> bool:
        """One choose-parent/rewire edge check, replayed when wave-batched.

        A hit in the wave's verdict map replays the batched edge exactly
        like a single check would record it; a miss (or a one-sample wave,
        ``verdicts is None``) runs the single-edge check.
        """
        if verdicts is None:
            return self.checker.motion_in_collision(start, end, counter=counter)
        result = self._take_verdict(verdicts, start, end)
        if result is None:
            bump("repro_cc_extend_edges_total", outcome="fallback",
                 help=_EXTEND_EDGES_HELP)
            return self.checker.motion_in_collision(start, end, counter=counter)
        bump("repro_cc_extend_edges_total", outcome="replayed",
             help=_EXTEND_EDGES_HELP)
        return self._replay_motion(result, counter)

    @staticmethod
    def _take_verdict(verdicts, start, end):
        """Pop the batched ``(verdict, events)`` of edge start -> end, if any.

        Keyed on the exact endpoint bytes in check direction: a verdict
        depends on nothing else, so a hit is the single check's result.
        """
        return verdicts.pop((start.tobytes(), end.tobytes()), None)

    @staticmethod
    def _is_ancestor(tree, candidate: int, node_id: int) -> bool:
        current = tree.parent(node_id)
        while current is not None:
            if current == candidate:
                return True
            current = tree.parent(current)
        return False

    def _result(self, tree, goal_nodes, first_solution, counter, rounds, iterations,
                *, degraded_reason: Optional[str] = None):
        task = self.task
        status = "complete" if degraded_reason is None else "degraded"
        if goal_nodes:
            # Pick the cheapest goal-region node whose final hop to the
            # exact goal is itself collision free (the hop can be up to one
            # goal_tolerance long, so it must be verified like any edge).
            # Falls back to ending the path at the in-tolerance node.
            best, best_cost, best_tail = None, float("inf"), 0.0
            fallback, fallback_cost = None, float("inf")
            for node in goal_nodes:
                tail = distance(tree.point(node), task.goal)
                cost = tree.cost(node) + tail
                if cost < fallback_cost:
                    fallback, fallback_cost = node, cost
                if cost < best_cost and (
                    tail <= 1e-12
                    or not self.checker.motion_in_collision(
                        tree.point(node), task.goal, counter=counter
                    )
                ):
                    best, best_cost, best_tail = node, cost, tail
            if best is not None:
                path = tree.path_to(best)
                if best_tail > 1e-12:
                    path = path + [task.goal.copy()]
                path_cost = best_cost
                goal_node = best
                goal_distance = 0.0
            else:
                goal_node = fallback
                path = tree.path_to(fallback)
                path_cost = tree.cost(fallback)
                goal_distance = distance(tree.point(fallback), task.goal)
            return PlanResult(
                success=True,
                path=path,
                path_cost=path_cost,
                num_nodes=len(tree),
                iterations=iterations,
                counter=counter,
                rounds=rounds,
                goal_node=goal_node,
                first_solution_iteration=first_solution,
                neighborhood_macs=self._neighborhood_macs,
                cost_history=list(getattr(self, "_cost_history", [])),
                status=status,
                degraded_reason=degraded_reason,
                best_goal_distance=goal_distance,
            )
        path: List[np.ndarray] = []
        goal_distance = None
        if degraded_reason is not None:
            # The goal was not reached, only approached: path_cost stays inf.
            path, goal_distance = self._anytime_prefix(tree)
        return PlanResult(
            success=False,
            path=path,
            path_cost=float("inf"),
            num_nodes=len(tree),
            iterations=iterations,
            counter=counter,
            rounds=rounds,
            neighborhood_macs=self._neighborhood_macs,
            status=status,
            degraded_reason=degraded_reason,
            best_goal_distance=goal_distance,
        )


def plan(robot: RobotModel, task: PlanningTask, config: PlannerConfig) -> PlanResult:
    """Convenience wrapper: build a planner and run it once."""
    return RRTStarPlanner(robot, task, config).plan()
