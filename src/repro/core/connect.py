"""RRT-Connect: the bidirectional variant (Kuffner & LaValle, ref [45]).

Section VI places RRT-Connect at the *exploration-tree level* of the
parallelisation design space — two trees grow from start and goal and the
planner tries to connect them after every extension.  MOPED's algorithmic
optimisations (two-stage collision checking, SI-MBR-Tree search, O(1)
insertion) apply per tree unchanged, which is the paper's claim that its
techniques transfer across the whole RRT family.  This implementation
shares the RRT\\* planner's scaffolding — batch collision kernels, whole-edge
:meth:`~repro.core.collision.CollisionChecker.motion_results_batch`
validation, the deadline / op-budget anytime plumbing, and cooperative
cancellation for portfolio racing — so ablations compose and
``PlannerConfig.mode = "connect"`` is a drop-in backend everywhere a
planner runs.

RRT-Connect is a feasibility planner: it returns the first path that joins
the trees (no cost refinement), typically after far fewer samples than
RRT\\* needs for a first solution.  ``goal_bias``, ``rewire``,
``stop_on_goal`` and ``informed`` do not apply.

Two mechanics matter for throughput:

* **Greedy whole-segment connect.**  After each accepted extension the
  other tree extends greedily toward the new node.  The full segment is
  first validated as ONE whole edge (single ladder + FK batch + stacked
  kernel pass); only when that long edge is blocked does the loop
  fall back to advancing chunk by chunk (``_CHUNK_STEPS`` steering steps
  per chunk, each chunk again a whole edge), keeping the free prefix.
  Compared to the classic one-steering-step-at-a-time loop this collapses
  up to hundreds of collision calls into a handful of batched ones and
  inserts far fewer tree nodes.

* **Wavefront speculation.**  The run loop works in waves of
  ``wave_width`` samples.  A wave of ``W > 1`` samples speculates every
  sample's nearest neighbor from a snapshot distance matrix of its
  (alternating) active tree, steers the speculative extension edges and
  validates them in one ``motion_results_batch`` call, then speculates the
  whole-segment connect edge of each predicted accept against the *other*
  tree's snapshot in a second batch.  Commits then run in sample order
  with exact sequential semantics: when the committed edge equals the
  speculated one its stored verdict and counter events are replayed; any
  mismatch (an intra-wave accept moved the nearest) falls back to a
  direct check, which is all a one-sample wave does.  Paths, costs and
  operation counters are therefore **bit-identical across wave widths** —
  W only changes what is precomputed, never what is decided.

Deadline / op-budget expiry (and race cancellation via
:mod:`repro.core.cancel`) is polled at every round *and* inside the greedy
connect chunk loop, so even a long connect is promptly interruptible; a
degraded run returns the collision-free prefix of the start tree that ends
closest to the goal, exactly like the RRT\\* anytime path.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import PlannerConfig
from repro.core.counters import OpCounter
from repro.core.metrics import PlanResult, path_length
from repro.core.robots import RobotModel
from repro.core.tree import ExpTree
from repro.core.world import PlanningTask
from repro.core.rrtstar import _SamplingPlanner
from repro.geometry.motion import distance
from repro.obs import PhaseRecorder, get_tracer

#: Steering steps per greedy-connect chunk.  A blocked whole-segment
#: connect advances in chunks of this many steps, each validated as one
#: whole edge; larger values mean fewer batched calls but a coarser stop
#: point before the obstacle.
_CHUNK_STEPS = 8


class RRTConnectPlanner(_SamplingPlanner):
    """Bidirectional RRT with greedy whole-segment connect extensions."""

    def __init__(self, robot: RobotModel, task: PlanningTask, config: PlannerConfig):
        super().__init__(robot, task, config)
        self.chunk = _CHUNK_STEPS * self.step
        self.strategies = (self._make_strategy(), self._make_strategy())

    # ------------------------------------------------------------------- plan

    def plan(self) -> PlanResult:
        """Grow both trees until they connect or the budget runs out."""
        counter = OpCounter()
        trees = (ExpTree(self.task.start), ExpTree(self.task.goal))
        self.trees = trees
        self.strategies[0].insert(trees[0].root, self.task.start, counter=counter)
        self.strategies[1].insert(trees[1].root, self.task.goal, counter=counter)
        state = self._begin_run()

        obs = PhaseRecorder()
        started = time.perf_counter()
        with self._plan_span(mode="connect"):
            bridge = self._run(counter, obs, state)

        return self._finish_run(obs, self._result(bridge, counter, state), started)

    # ---------------------------------------------------------------- run loop

    def _run(self, counter, obs, state) -> Optional[Tuple[int, int]]:
        """The sampling loop: waves of up to ``wave_width`` samples.

        A wave draws its samples, then commits them in sample order; each
        commit extends the alternating active tree toward its sample and,
        on an accept, greedily connects the other tree to the new node,
        recording into its own sub-counter that is merged into ``counter``.
        A wave of more than one sample is first evaluated speculatively
        (:meth:`_speculate`) and its commits replay every edge result the
        speculation got right; a one-sample wave checks every edge
        directly.  Merging the integer-weighted sub-counters reproduces the
        direct totals bit-for-bit, so plans and counters are identical at
        every W.

        With one-sample waves the budget is polled before each round's
        sample is drawn; wider waves poll before each commit, so that
        budgets and race cancellation interrupt a wave between its commits.
        """
        config = self.config
        trees = self.trees
        injector = self._injector
        width_cfg = config.wave_width

        def draw(sub):
            return self.sampler.sample(counter=sub)

        start = 0
        while start < config.max_samples:
            if width_cfg == 1 and state.armed and state.budget_expired(counter):
                break
            if injector is not None:
                injector.fire("planner.round", detail=f"wave at {start}")
            width = min(width_cfg, config.max_samples - start)
            subs = [OpCounter() for _ in range(width)]
            xs = np.empty((width, self.robot.dof), dtype=float)
            draws = self._draw(draw, xs, subs)
            spec = self._speculate(xs, width, start, obs) if width > 1 else None

            bridge = None
            for j in range(width):
                sub = subs[j]
                if (width_cfg > 1 and state.armed
                        and state.budget_expired(counter, sub)):
                    counter.merge(sub)
                    break
                active = (start + j) % 2
                new_id = self._commit_extend(active, xs[j], sub, obs, spec, j)
                accepted = new_id is not None
                if accepted:
                    target = trees[active].point(new_id)
                    other, reached = self._connect(
                        1 - active, target, sub, obs, state, counter, spec, j,
                    )
                    if reached:
                        bridge = (new_id, other) if active == 0 else (other, new_id)
                state.rounds.append(
                    self._round_record(sub, accepted, wave_width=width)
                )
                counter.merge(sub)
                if bridge is not None or state.degraded_reason is not None:
                    break
            self._charge_draws(obs, draws, j + 1)
            if bridge is not None or state.degraded_reason is not None:
                return bridge
            start += width
        return None

    def _speculate(self, xs, width, start, obs):
        """Stage-1 speculation: snapshot nearest + batched edge validation.

        Returns a dict with per-sample speculative extension edges
        (``ext_key``/``ext_new``/``ext_res``) and whole-segment connect
        edges (``con_key``/``con_end``/``con_res``).  Everything here is a
        pure prediction — commits verify bitwise equality before replaying
        any stored result.
        """
        trees = self.trees
        points = (trees[0].points_view(), trees[1].points_view())
        ext_key = [None] * width
        ext_new: List[Optional[np.ndarray]] = [None] * width
        ext_res: List[Optional[tuple]] = [None] * width
        con_key = [None] * width
        con_end: List[Optional[np.ndarray]] = [None] * width
        con_res: List[Optional[tuple]] = [None] * width
        with get_tracer().span("wave", width=width,
                               nodes=len(trees[0]) + len(trees[1])), \
                obs.phase("speculate"):
            # One distance matrix per tree (both are needed: extensions hit
            # the alternating active tree, connects hit the other one).
            d_sq = []
            for side in (0, 1):
                diffs = points[side][None, :, :] - xs[:, None, :]
                d_sq.append(np.einsum("wnd,wnd->wn", diffs, diffs))
            seg_starts, seg_ends, seg_js = [], [], []
            for j in range(width):
                active = (start + j) % 2
                k = int(np.argmin(d_sq[active][j]))
                dist = distance(points[active][k], xs[j])
                if dist <= 1e-12:
                    continue
                x_new = self._steer(points[active][k], xs[j], dist)
                ext_key[j] = k
                ext_new[j] = x_new
                seg_starts.append(points[active][k])
                seg_ends.append(x_new)
                seg_js.append(j)
            if seg_js:
                for j, res in zip(seg_js, self.checker.motion_results_batch(
                        np.stack(seg_starts), np.stack(seg_ends))):
                    ext_res[j] = res
            # Speculative whole-segment connects for the predicted accepts.
            seg_starts, seg_ends, seg_js = [], [], []
            for j in range(width):
                res = ext_res[j]
                if res is None or res[0]:
                    continue
                other = 1 - (start + j) % 2
                x_new = ext_new[j]
                d = points[other] - x_new[None, :]
                k = int(np.argmin(np.einsum("nd,nd->n", d, d)))
                near = points[other][k]
                if distance(near, x_new) <= 1e-9:
                    continue
                con_key[j] = k
                con_end[j] = x_new
                seg_starts.append(near)
                seg_ends.append(x_new)
                seg_js.append(j)
            if seg_js:
                for j, res in zip(seg_js, self.checker.motion_results_batch(
                        np.stack(seg_starts), np.stack(seg_ends))):
                    con_res[j] = res
        return {
            "ext_key": ext_key, "ext_new": ext_new, "ext_res": ext_res,
            "con_key": con_key, "con_end": con_end, "con_res": con_res,
        }

    # -------------------------------------------------------------- internals

    def _commit_extend(self, side: int, target, counter, obs, spec, j) -> Optional[int]:
        """One bounded step of tree ``side`` toward ``target``.

        Replays the speculated extension edge of sample ``j`` when it
        bitwise matches the committed one; without ``spec`` (a one-sample
        wave) the edge is checked directly.  Returns the new node id, or
        None when the step is blocked or the target coincides with the
        nearest node.
        """
        strategy = self.strategies[side]
        injector = self._injector
        with obs.phase("nearest", counter):
            found = strategy.nearest(target, counter=counter)
        nearest_key, nearest_point, dist = found
        if dist <= 1e-12:
            return None
        with obs.phase("steer", counter):
            counter.record("steer", dim=self.robot.dof)
            x_new = self._steer(nearest_point, target, dist)
        if injector is not None:
            injector.fire("planner.collision")
        used_spec = (
            spec is not None
            and spec["ext_res"][j] is not None
            and nearest_key == spec["ext_key"][j]
            and np.array_equal(x_new, spec["ext_new"][j])
        )
        with obs.phase("collision", counter):
            if used_spec:
                blocked = self._replay_motion(spec["ext_res"][j], counter)
            else:
                blocked = self.checker.motion_in_collision(
                    nearest_point, x_new, counter=counter
                )
        if blocked:
            return None
        return self._add(side, x_new, nearest_key, nearest_point, counter)

    def _connect(self, side: int, target, counter, obs, state, run_counter,
                 spec, j):
        """Greedily extend tree ``side`` toward ``target`` until blocked.

        Returns ``(node, reached)``: the tree node closest to the advance
        front (the bridge node when ``reached``), or ``(None, False)`` when
        not a single step succeeded.  The whole segment is validated first
        as one edge; only a blocked segment falls back to chunk-wise
        advance.  Budgets and race cancellation are polled per chunk so a
        long greedy connect cannot overshoot a deadline; the MAC budget
        counts ``run_counter`` (the run's merged work) plus ``counter``.
        ``spec`` replays sample ``j``'s speculated whole-segment edge when
        it matches; None checks the segment directly.
        """
        strategy = self.strategies[side]
        tree = self.trees[side]
        injector = self._injector
        with obs.phase("nearest", counter):
            found = strategy.nearest(target, counter=counter)
        nearest_key, nearest_point, dist = found
        if dist <= 1e-9:
            # The trees already touch: the nearest node IS the bridge.
            return nearest_key, True
        if injector is not None:
            injector.fire("connect.extend", detail=f"segment {dist:.3f}")
        # Whole-segment attempt: one ladder, one FK batch, one kernel pass.
        used_spec = (
            spec is not None
            and spec["con_res"][j] is not None
            and nearest_key == spec["con_key"][j]
            and np.array_equal(target, spec["con_end"][j])
        )
        with obs.phase("collision", counter):
            if used_spec:
                blocked = self._replay_motion(spec["con_res"][j], counter)
            else:
                blocked = self.checker.motion_in_collision(
                    nearest_point, target, counter=counter
                )
        if not blocked:
            node = self._add(side, target.copy(), nearest_key, nearest_point, counter)
            return node, True
        if dist <= self.chunk:
            # The blocked segment is at most one chunk long: nothing to
            # salvage at chunk granularity.
            return None, False
        # Chunk-wise advance along the free prefix of the blocked segment.
        cur_key, cur_point = nearest_key, nearest_point
        last = None
        while True:
            if state.armed and state.budget_expired(run_counter, counter):
                return last, False
            remaining = distance(target, cur_point)
            if remaining <= 1e-9:
                return cur_key, True
            if injector is not None:
                injector.fire("connect.extend", detail=f"chunk {remaining:.3f}")
            if remaining <= self.chunk:
                nxt = target.copy()
            else:
                nxt = cur_point + (self.chunk / remaining) * (target - cur_point)
            with obs.phase("collision", counter):
                blocked = self.checker.motion_in_collision(
                    cur_point, nxt, counter=counter
                )
            if blocked:
                return last, False
            node = self._add(side, nxt, cur_key, cur_point, counter)
            last = node
            cur_key, cur_point = node, nxt

    def _add(self, side: int, x_new, parent_key, parent_point, counter) -> int:
        edge = distance(x_new, parent_point)
        node_id = self.trees[side].add(x_new, parent_key, edge)
        self.strategies[side].insert(
            node_id, x_new, nearest_key=parent_key, counter=counter
        )
        return node_id

    # ---------------------------------------------------------------- results

    def _result(self, bridge, counter, state) -> PlanResult:
        trees = self.trees
        rounds = state.rounds
        num_nodes = len(trees[0]) + len(trees[1])
        if bridge is not None:
            forward = trees[0].path_to(bridge[0])
            backward = trees[1].path_to(bridge[1])
            if (backward and forward
                    and distance(forward[-1], backward[-1]) <= 1e-9):
                backward = backward[:-1]  # the bridge point appears once
            path = forward + backward[::-1]
            return PlanResult(
                success=True,
                path=path,
                path_cost=path_length(path),
                num_nodes=num_nodes,
                iterations=len(rounds),
                counter=counter,
                rounds=rounds,
                goal_node=bridge[0],
                first_solution_iteration=len(rounds) - 1,
                best_goal_distance=0.0,
            )
        status = "complete" if state.degraded_reason is None else "degraded"
        path: List[np.ndarray] = []
        goal_distance = None
        if state.degraded_reason is not None:
            path, goal_distance = self._anytime_prefix(trees[0])
        return PlanResult(
            success=False,
            path=path,
            path_cost=float("inf"),
            num_nodes=num_nodes,
            iterations=len(rounds),
            counter=counter,
            rounds=rounds,
            status=status,
            degraded_reason=state.degraded_reason,
            best_goal_distance=goal_distance,
        )
