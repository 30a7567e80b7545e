"""Structured per-job telemetry and aggregate summaries.

Each finished job becomes one :class:`JobRecord` — flat, JSON-ready, with
the scheduling timings (queue wait, plan latency, wall time), the planning
outcome, and the operation-cost counters pulled from the worker's
:class:`~repro.core.counters.OpCounter` snapshot (collision-check and
neighbor-search MACs, sample count).  The :class:`TelemetrySink` collects
records and reduces them to the summary the CLIs print: status counts,
cache hit-rate, and p50/p95/mean/max percentiles for the latency axes.

Percentiles come from :mod:`repro.obs.stats` — one shared implementation
(linear interpolation between order statistics, the numpy default) serves
the service axes, the analysis suites, and the observability reports, and
keeps the records plain Python.  Each record also carries the per-phase
wall-time split of the planner run that produced its response
(:attr:`~repro.core.metrics.PlanResult.phases`), and the sink folds every
job's :class:`~repro.core.counters.OpCounter` into one run-level counter
via :meth:`OpCounter.merge`.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.core.counters import OpCounter
from repro.obs.rca import DUMP_SCHEMA
from repro.obs.stats import axis_summary as _axis_summary
from repro.obs.stats import percentile  # re-export: the one shared impl
from repro.service.jobs import Job
from repro.service.request import PlanResponse

__all__ = [
    "JobRecord",
    "TELEMETRY_EMITTER",
    "TELEMETRY_SCHEMA",
    "TelemetrySink",
    "percentile",
    "record_from_job",
    "record_from_response",
    "request_attributes",
]

#: Version stamp written into every dump so downstream consumers (e.g.
#: ``repro.obs.rca``) can reject or upgrade mismatched dumps instead of
#: mis-parsing them: the drill-down row format's version (rows are
#: :meth:`JobRecord.to_dict`).
TELEMETRY_SCHEMA = DUMP_SCHEMA
TELEMETRY_EMITTER = "repro.service.telemetry"


def request_attributes(request) -> Dict[str, str]:
    """Drill-down attributes for a :class:`~repro.service.request.PlanRequest`.

    The flat string→string map every job record carries so RCA tooling can
    slice telemetry by robot × planner mode × wave width × fault state
    without re-deriving anything from the request hash.
    """
    config = request.config
    wave_width = getattr(config, "wave_width", 1)
    deadline_armed = bool(
        getattr(config, "deadline_s", None) or getattr(config, "op_budget", None)
    )
    if getattr(config, "mode", "rrtstar") == "connect":
        mode = "connect"
    else:
        mode = "wave" if wave_width > 1 else "scalar"
    attributes = {
        "robot": request.task.robot_name,
        "obstacles": str(request.task.environment.num_obstacles),
        "mode": mode,
        "wave_width": str(wave_width),
        "kernels": str(getattr(config, "kernels", "batch")),
        "deadline": "armed" if deadline_armed else "none",
        "fault": str(request.fault) if request.fault else "clean",
        # Crash-recovery provenance: jobs replayed from the journal carry
        # recovered=1 so RCA can attribute post-recovery tail latency.
        # getattr, not attribute access: the chaos harness builds hostile
        # requests via object.__new__ that predate the field.
        "recovered": "1" if getattr(request, "recovered", False) else "0",
    }
    planner = getattr(request, "planner", None)
    if planner:
        # Portfolio race members: which entry this job raced as.
        attributes["planner"] = str(planner)
    return attributes


@dataclass
class JobRecord:
    """One job's flattened telemetry row."""

    job_id: int
    request_id: str
    status: str
    cache_hit: bool
    attempts: int
    worker_id: Optional[int]
    queue_wait_s: float
    plan_seconds: float
    wall_seconds: float
    success: bool
    path_cost: Optional[float]
    iterations: int
    num_nodes: int
    total_macs: float
    collision_check_macs: float
    neighbor_search_macs: float
    samples: int
    error: Optional[str] = None
    #: Per-phase wall seconds (sample/nearest/...) of the planner run;
    #: empty for responses no planner produced.  Feeds the summary's
    #: per-phase latency axes.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Drill-down dimensions (robot, planner mode, wave width, fault
    #: state, ...) from :func:`request_attributes` — the axes RCA tooling
    #: slices on.  Empty when the request wasn't available at record time.
    attributes: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        """The drill-down row (see :mod:`repro.obs.rca`): every field, with
        the status and the cache outcome (``hit``/``miss``) also in
        ``attributes``, so RCA can slice on them."""
        row = asdict(self)
        row["attributes"] = {
            **self.attributes,
            "status": self.status,
            "cache_hit": "hit" if self.cache_hit else "miss",
        }
        return row


def record_from_job(job: Job, request=None) -> JobRecord:
    """Telemetry row for a pool-executed job (response must be set)."""
    assert job.response is not None
    return record_from_response(
        job.response,
        job_id=job.job_id,
        queue_wait_s=job.queue_wait_s,
        wall_seconds=job.wall_seconds,
        request=request if request is not None else job.request,
    )


def record_from_response(
    response: PlanResponse,
    job_id: int = -1,
    queue_wait_s: float = 0.0,
    wall_seconds: float = 0.0,
    request=None,
) -> JobRecord:
    """Telemetry row straight from a response (cache hits never queue)."""
    categories = response.macs_by_category()
    attributes = request_attributes(request) if request is not None else {}
    if getattr(response, "via_replica", False):
        # Served by a cache-shard replica after a read failover: tagged so
        # RCA can split replica-served hits from primary hits.
        attributes["replica_read"] = "1"
    return JobRecord(
        job_id=job_id,
        request_id=response.request_id,
        status=response.status,
        cache_hit=response.cache_hit,
        attempts=response.attempts,
        worker_id=response.worker_id,
        queue_wait_s=round(queue_wait_s, 6),
        plan_seconds=round(response.plan_seconds, 6),
        wall_seconds=round(wall_seconds, 6),
        success=response.success,
        path_cost=response.path_cost,
        iterations=response.iterations,
        num_nodes=response.num_nodes,
        total_macs=response.total_macs,
        collision_check_macs=categories.get("collision_check", 0.0),
        neighbor_search_macs=categories.get("neighbor_search", 0.0),
        samples=response.op_events.get("sample", 0),
        error=response.error,
        phase_seconds=dict(response.phase_seconds),
        attributes=attributes,
    )


class TelemetrySink:
    """Accumulates job records and reduces them to the service summary."""

    def __init__(self) -> None:
        self.records: List[JobRecord] = []
        #: Run-level operation counter: every job's shipped-back OpCounter
        #: folded in-place (no dict round trips) via :meth:`OpCounter.merge`.
        self.op_totals = OpCounter()

    def record(self, record: JobRecord, counter: Optional[OpCounter] = None) -> None:
        self.records.append(record)
        if counter is not None:
            self.op_totals.merge(counter)

    def __len__(self) -> int:
        return len(self.records)

    def summary(
        self,
        cache_stats: Optional[Dict] = None,
        pool_stats: Optional[Dict] = None,
        include_records: bool = False,
    ) -> Dict:
        """Aggregate view: status counts, latency percentiles, op totals.

        Cache hits are excluded from the ``plan`` latency axis (they would
        report the *original* run's latency again) but included in job
        counts and the op totals count real work only once because hits
        carry the cached counters — so ``ops`` reports *served* work, and
        ``ops_executed`` the subset actually planned.
        """
        rows = self.records
        executed = [r for r in rows if not r.cache_hit]
        ok = [r for r in rows if r.status == "ok"]
        degraded = [r for r in rows if r.status == "degraded"]
        failures: Dict[str, int] = {}
        for r in rows:
            if r.status not in ("ok", "degraded"):
                failures[r.status] = failures.get(r.status, 0) + 1
        out: Dict[str, object] = {
            "jobs": len(rows),
            "ok": len(ok),
            "degraded": len(degraded),
            "failed": failures,
            "planning_success_rate": round(
                sum(1 for r in ok if r.success) / len(ok), 4
            ) if ok else None,
            "attempts": sum(r.attempts for r in rows),
            "latency_s": {
                "plan": _axis_summary(
                    [r.plan_seconds for r in executed if r.status == "ok"]
                ),
                "queue_wait": _axis_summary([r.queue_wait_s for r in executed]),
                "wall": _axis_summary([r.wall_seconds for r in executed]),
                "phases": self._phase_axes(executed),
            },
            "ops": {
                "total_macs": sum(r.total_macs for r in rows),
                "collision_check_macs": sum(r.collision_check_macs for r in rows),
                "neighbor_search_macs": sum(r.neighbor_search_macs for r in rows),
                "samples": sum(r.samples for r in rows),
                "by_kind_macs": dict(self.op_totals.macs),
            },
            "ops_executed": {
                "total_macs": sum(r.total_macs for r in executed),
                "samples": sum(r.samples for r in executed),
            },
        }
        if cache_stats is not None:
            out["cache"] = cache_stats
        if pool_stats is not None:
            out["workers"] = pool_stats
        if include_records:
            out["records"] = [r.to_dict() for r in rows]
        return out

    @staticmethod
    def _phase_axes(records: List[JobRecord]) -> Dict[str, Dict[str, Optional[float]]]:
        """Per-phase latency axes over the records that carry phases."""
        names: List[str] = []
        for record in records:
            for name in record.phase_seconds:
                if name not in names:
                    names.append(name)
        return {
            name: _axis_summary(
                [r.phase_seconds[name] for r in records if name in r.phase_seconds]
            )
            for name in names
        }

    def dump(self, path, **summary_kwargs) -> None:
        """Write the summary (plus records) to a versioned JSON file.

        The ``schema`` / ``emitter`` stamps let consumers such as
        ``repro.obs.rca`` verify they are parsing the dump shape they
        expect and reject newer or foreign dumps outright; ``measure``
        names the row measure RCA analyzes by default.
        """
        summary_kwargs.setdefault("include_records", True)
        payload = {"schema": TELEMETRY_SCHEMA, "emitter": TELEMETRY_EMITTER,
                   "measure": "plan_seconds"}
        payload.update(self.summary(**summary_kwargs))
        pathlib.Path(path).write_text(json.dumps(payload, indent=2))
