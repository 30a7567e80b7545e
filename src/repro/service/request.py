"""The service wire format: :class:`PlanRequest` / :class:`PlanResponse`.

A request bundles everything one planning job needs (task, planner config,
in-job lane parallelism, post-processing flags) and hashes deterministically
so identical work is recognisable across processes and sessions — the cache
key mirrors MOPED's multi-level caching idea at the *request* level: the
same (task, config) pair always maps to the same digest, so a repeat
request is a pure cache lookup.

A response is deliberately plain data (lists / dicts / scalars only): it
must cross a ``multiprocessing`` boundary, survive a worker crash on the
supervisor side, and serialise to JSON for telemetry dumps without custom
encoders.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.config import PlannerConfig
from repro.core.counters import OpCounter
from repro.core.world import PlanningTask
from repro.errors import InvalidRequest

#: Terminal job statuses a response can carry.  ``"degraded"`` is the
#: anytime-planning outcome (deadline/op budget expired, best-so-far result
#: attached); ``"cancelled"`` is a portfolio-race loser stopped after a
#: sibling won; ``"invalid"`` is a rejected malformed request; ``"poison"``
#: is a dead-lettered job that crashed too many workers.
STATUSES = ("ok", "degraded", "cancelled", "error", "timeout", "crash",
            "poison", "invalid")

#: Statuses that mean "the job is settled and will not be retried".  Every
#: submitted job must end in one of these (the chaos harness asserts it).
TERMINAL_STATUSES = STATUSES


def _digest(payload: object) -> str:
    """SHA-256 of the canonical (sorted-key, compact) JSON of ``payload``."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def task_fingerprint(task: PlanningTask) -> str:
    """Deterministic digest of a planning task (robot, world, start, goal).

    Built on :func:`repro.io.task_to_dict`, so anything that round-trips
    through the JSON persistence layer hashes identically before and after.
    """
    from repro.io import task_to_dict

    payload = task_to_dict(task)
    # task_id is bookkeeping, not geometry: two tasks that differ only in
    # their id describe the same planning problem.
    payload.pop("task_id", None)
    return _digest(payload)


def config_fingerprint(config: PlannerConfig) -> str:
    """Deterministic digest of a planner configuration (all knobs)."""
    return _digest(asdict(config))


@dataclass(frozen=True)
class PlanRequest:
    """One unit of work for the planning service.

    Attributes:
        task: the planning problem.
        config: full planner configuration (includes the seed, so the job
            is deterministic and therefore cacheable).
        smooth: shortcut-smooth the path after a successful plan.
        timeout_s: per-job wall-clock budget; ``None`` uses the pool
            default.
        request_id: caller-chosen label echoed back in the response.
        fault: testing/chaos hook honoured by the worker before planning:
            ``"hang"`` sleeps past any timeout, ``"crash"`` hard-exits the
            worker process, ``"error"`` raises, ``"flaky:<path>"`` crashes
            once while ``<path>`` exists (the worker deletes it first, so
            the retry succeeds).  Faulted requests bypass the cache.
        trace: run the job under the observability layer — the worker plans
            with a private span tracer and metrics registry and ships the
            drained buffers back in the response (``trace_spans`` /
            ``metric_deltas``).  Traced requests always execute (they bypass
            the cache): an observability run wants fresh measurements, not a
            replayed result.
        portfolio: race these named planners (see
            :data:`repro.core.portfolio.PLANNERS`, plus ``"auto"`` for the
            learned default) on this task and answer with the winner.  The
            service expands the request into one member job per entry —
            each a copy of this request with the entry's config — and the
            first feasible ``ok`` response wins; losers are cancelled into
            terminal ``"cancelled"`` / ``"degraded"`` states.  Portfolio
            requests bypass the cache (the race *is* the measurement).
        planner: portfolio-member label (set by the service on expanded
            member requests; callers leave it None).
        race_token: shared cancellation token of the member's race (set by
            the service; callers leave it None).
        recovered: this request was rebuilt from the job journal by
            crash recovery (set by :meth:`PlanningService.recover`;
            callers leave it False).  Recovered requests are not
            re-admitted to the journal — their original admit record is
            the one being settled — and telemetry tags them so RCA can
            attribute post-recovery latency.
    """

    task: PlanningTask
    config: PlannerConfig
    smooth: bool = False
    timeout_s: Optional[float] = None
    request_id: str = ""
    fault: Optional[str] = None
    trace: bool = False
    portfolio: Optional[Tuple[str, ...]] = None
    planner: Optional[str] = None
    race_token: Optional[int] = None
    recovered: bool = False

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.portfolio is not None:
            entries = tuple(self.portfolio)
            if not entries:
                raise ValueError("portfolio must name at least one planner")
            from repro.core.portfolio import AUTO, PLANNERS

            for name in entries:
                if name != AUTO and name not in PLANNERS:
                    raise ValueError(
                        f"unknown portfolio planner {name!r}; available: "
                        f"{sorted(PLANNERS)} (or {AUTO!r})"
                    )
            object.__setattr__(self, "portfolio", entries)
        self.validate()

    def validate(self) -> None:
        """Reject malformed planning input with :class:`InvalidRequest`.

        Construction already runs this, but the worker and the inline
        runner call it again at the execution boundary: a request that
        crossed a pickle/pipe hop (or was built by hostile/buggy code that
        bypassed ``__init__``) is untrusted until revalidated.
        """
        import numpy as np

        from repro.core.robots import ROBOT_FACTORIES, get_robot

        task = self.task
        if task.robot_name not in ROBOT_FACTORIES:
            raise InvalidRequest(
                f"unknown robot {task.robot_name!r}; "
                f"available: {sorted(ROBOT_FACTORIES)}"
            )
        start = np.asarray(task.start, dtype=float)
        goal = np.asarray(task.goal, dtype=float)
        if not (np.isfinite(start).all() and np.isfinite(goal).all()):
            raise InvalidRequest("start and goal configurations must be finite")
        robot = get_robot(task.robot_name)
        if start.shape != (robot.dof,) or goal.shape != (robot.dof,):
            raise InvalidRequest(
                f"start/goal must be {robot.dof}-dimensional for {robot.name}"
            )
        margin = 1e-9
        for label, config in (("start", start), ("goal", goal)):
            if ((config < robot.config_lo - margin).any()
                    or (config > robot.config_hi + margin).any()):
                raise InvalidRequest(
                    f"{label} configuration outside {robot.name} C-space bounds"
                )

    def cache_key(self) -> str:
        """Digest identifying the *work* (not the labels) of this request.

        Two requests with equal keys produce byte-identical responses, so
        the plan cache may answer one with the other's result.  The id and
        timeout are excluded (labels / scheduling, not work); the fault
        hook is excluded too because faulted requests never touch the
        cache.  Portfolio requests never touch the cache either (pool
        completion order makes the winner non-deterministic), but the
        entries still contribute to the digest for any caller hashing
        requests generically.
        """
        payload = {
            "task": task_fingerprint(self.task),
            "config": config_fingerprint(self.config),
            "smooth": self.smooth,
        }
        if self.portfolio is not None:
            payload["portfolio"] = list(self.portfolio)
        return _digest(payload)


@dataclass
class PlanResponse:
    """Outcome of one service job — always produced, even on failure.

    ``status`` is one of :data:`STATUSES`: ``"ok"`` means the planner ran
    to completion (``success`` then reports whether a path was found);
    ``"timeout"`` / ``"crash"`` / ``"error"`` are structured failures the
    pool synthesises so a sick worker never takes the service down.
    """

    request_id: str
    status: str
    success: bool = False
    path_cost: Optional[float] = None
    num_nodes: int = 0
    iterations: int = 0
    first_solution_iteration: Optional[int] = None
    path: List[List[float]] = field(default_factory=list)
    #: Per-kind operation counts / MAC-equivalents shipped back across the
    #: process boundary as plain dicts (see :meth:`OpCounter.to_dict`).
    op_events: Dict[str, int] = field(default_factory=dict)
    op_macs: Dict[str, float] = field(default_factory=dict)
    #: Worker-measured planning wall time (excludes queueing/transport).
    plan_seconds: float = 0.0
    #: Anytime-planning fields: why a ``"degraded"`` response stopped early
    #: (``"deadline"`` / ``"op_budget"``) and how far the returned path's
    #: endpoint remains from the goal (0.0 when solved).
    degraded_reason: Optional[str] = None
    best_goal_distance: Optional[float] = None
    error: Optional[str] = None
    cache_hit: bool = False
    worker_id: Optional[int] = None
    attempts: int = 1
    #: Served by a non-primary replica of the sharded cache tier after a
    #: read failover (set by :class:`repro.net.shard.ShardedPlanCache`).
    via_replica: bool = False
    #: Portfolio fields: which planner produced this response (the member
    #: label, or the winner's label on a race's answer) and the race
    #: summary a portfolio request's answer carries (``planners`` raced,
    #: ``winner``, per-member ``statuses``, loser accounting).
    planner: Optional[str] = None
    race: Dict = field(default_factory=dict)
    #: Observability payloads of traced requests: the worker-side span
    #: buffer and the worker registry snapshot.
    trace_spans: List[Dict] = field(default_factory=list)
    metric_deltas: Dict = field(default_factory=dict)
    #: Per-phase wall seconds of the planner run (every executed request);
    #: the telemetry's per-phase latency axes consume it.
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    def counter(self) -> OpCounter:
        """Rebuild an :class:`OpCounter` from the shipped dicts."""
        return OpCounter.from_dict({"events": self.op_events, "macs": self.op_macs})

    @property
    def total_macs(self) -> float:
        """Total MAC-equivalents the job consumed."""
        return sum(self.op_macs.values())

    def macs_by_category(self) -> Dict[str, float]:
        """MAC totals per breakdown category (collision_check, ...)."""
        return self.counter().macs_by_category()

    def as_cache_hit(self, request_id: str) -> "PlanResponse":
        """Copy of this response relabelled as a cache hit for ``request_id``."""
        return replace(self, request_id=request_id, cache_hit=True,
                       worker_id=None, attempts=0)

    def to_dict(self, include_path: bool = True) -> Dict:
        """Plain-dict form for JSON persistence."""
        out = {
            "request_id": self.request_id,
            "status": self.status,
            "success": self.success,
            "path_cost": self.path_cost,
            "num_nodes": self.num_nodes,
            "iterations": self.iterations,
            "first_solution_iteration": self.first_solution_iteration,
            "op_events": dict(self.op_events),
            "op_macs": dict(self.op_macs),
            "plan_seconds": self.plan_seconds,
            "degraded_reason": self.degraded_reason,
            "best_goal_distance": self.best_goal_distance,
            "error": self.error,
            "cache_hit": self.cache_hit,
            "worker_id": self.worker_id,
            "attempts": self.attempts,
            "via_replica": self.via_replica,
            "phase_seconds": dict(self.phase_seconds),
            "planner": self.planner,
            "race": dict(self.race),
        }
        if include_path:
            out["path"] = [list(p) for p in self.path]
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "PlanResponse":
        """Inverse of :meth:`to_dict`."""
        return cls(
            request_id=data["request_id"],
            status=data["status"],
            success=bool(data.get("success", False)),
            path_cost=data.get("path_cost"),
            num_nodes=int(data.get("num_nodes", 0)),
            iterations=int(data.get("iterations", 0)),
            first_solution_iteration=data.get("first_solution_iteration"),
            path=[list(p) for p in data.get("path", [])],
            op_events=dict(data.get("op_events", {})),
            op_macs=dict(data.get("op_macs", {})),
            plan_seconds=float(data.get("plan_seconds", 0.0)),
            degraded_reason=data.get("degraded_reason"),
            best_goal_distance=data.get("best_goal_distance"),
            error=data.get("error"),
            cache_hit=bool(data.get("cache_hit", False)),
            worker_id=data.get("worker_id"),
            attempts=int(data.get("attempts", 1)),
            via_replica=bool(data.get("via_replica", False)),
            phase_seconds=dict(data.get("phase_seconds", {})),
            planner=data.get("planner"),
            race=dict(data.get("race", {})),
        )


def failure_response(request: PlanRequest, status: str, error: str) -> PlanResponse:
    """Structured failure the supervisor synthesises for a sick job."""
    if status not in STATUSES or status == "ok":
        raise ValueError(f"not a failure status: {status!r}")
    return PlanResponse(request_id=request.request_id, status=status, error=error)
