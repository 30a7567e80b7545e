"""Planning service layer: queueing, pooling, caching, and telemetry.

``repro.service`` turns the one-shot planner into a *serving* substrate: a
:class:`PlanningService` accepts many :class:`PlanRequest` jobs, answers
repeats from an LRU :class:`PlanCache`, fans misses out across a
:class:`WorkerPool` of planner processes (per-job timeouts, bounded retries
with backoff, crash isolation), and emits structured per-job telemetry with
aggregate percentiles.

Layering: the service sits *above* ``repro.core`` / ``repro.io`` — it never
changes planning semantics, it only schedules and observes planning runs.
The planner's wavefront (``PlannerConfig.wave_width``) batches work *inside*
a job; the pool provides job parallelism *across* cores.

Quickstart::

    from repro.core.moped import config_for_variant
    from repro.service import PlanningService, build_requests

    config = config_for_variant("full", max_samples=400, goal_bias=0.1)
    requests = build_requests(config, robot="mobile2d", obstacles=8, jobs=8)
    service = PlanningService(num_workers=4)
    responses = service.run_batch(requests)
    print(service.summary()["latency_s"]["plan"])
"""

from repro.service.cache import PlanCache
from repro.service.jobs import Job, JobQueue
from repro.service.pool import PoolConfig, WorkerPool
from repro.service.request import (
    PlanRequest,
    PlanResponse,
    config_fingerprint,
    task_fingerprint,
)
from repro.service.runner import PlanningService, build_requests
from repro.service.telemetry import JobRecord, TelemetrySink, percentile
from repro.service.worker import execute_request

__all__ = [
    "Job",
    "JobQueue",
    "JobRecord",
    "PlanCache",
    "PlanRequest",
    "PlanResponse",
    "PlanningService",
    "PoolConfig",
    "TelemetrySink",
    "WorkerPool",
    "build_requests",
    "config_fingerprint",
    "execute_request",
    "percentile",
    "task_fingerprint",
]
