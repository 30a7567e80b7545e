"""The chaos harness: randomized fault schedules against a live pool.

``python -m repro.faults chaos`` builds a seeded, randomized schedule of
planning jobs — healthy ones interleaved with hangs, hard crashes,
worker-poisoning repeat crashes, corrupted pipe payloads, dropped and
duplicated results, malformed NaN requests, and deadline-degraded anytime
jobs — runs it through a real :class:`~repro.service.runner.PlanningService`
worker pool, and asserts the robustness invariants the service layer
promises:

1. every submitted job reaches a terminal status (1:1, original order);
2. the supervisor never deadlocks (a watchdog hard-exits if it does);
3. no duplicate responses (telemetry records exactly one row per request);
4. the cache never serves a non-``"ok"`` result, and never stores one;
5. each fault category lands in its expected terminal status.

Every fault in the schedule is *request-driven* (carried by the request's
``fault`` hook or its planner config), so the terminal status of every job
is a pure function of the seed — the same seed replays the same schedule
digest and the same statuses, which is what makes a chaos failure
debuggable.  An optional :class:`~repro.faults.FaultPlan` layers
probabilistic injector faults on top for sites the hooks cannot reach.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.moped import config_for_variant
from ..core.world import PlanningTask
from ..obs.rca import DUMP_SCHEMA
from ..service.pool import PoolConfig
from ..service.request import PlanRequest, TERMINAL_STATUSES
from . import FaultInjector, FaultPlan, set_injector

#: (category, weight, expected terminal statuses).  Weights are relative;
#: expected statuses are exact — the schedule is constructed so each
#: category's outcome is deterministic (see the fault semantics in
#: :mod:`repro.service.worker` / :mod:`repro.service.pool`).
CATEGORIES: Tuple[Tuple[str, float, Tuple[str, ...]], ...] = (
    ("healthy", 0.40, ("ok",)),
    ("slow", 0.06, ("ok",)),                 # worker sleeps, then plans
    ("hang", 0.07, ("timeout",)),            # sleeps past its 0.4 s budget
    ("crash", 0.07, ("poison",)),            # crashes every worker -> quarantined
    ("error", 0.06, ("error",)),             # raises every attempt -> retries exhausted
    ("flaky", 0.07, ("ok",)),                # crashes once, retry succeeds
    ("corrupt", 0.06, ("poison",)),          # garbage pipe payload every attempt
    ("duplicate", 0.05, ("ok",)),            # result sent twice; second dropped
    ("wrong_id", 0.04, ("timeout",)),        # mislabelled result dropped -> reaped
    ("drop", 0.04, ("timeout",)),            # result never sent -> reaped
    ("crash_after_send", 0.05, ("ok",)),     # dies after delivering the result
    ("malformed", 0.05, ("invalid",)),       # NaN start config, bypasses __init__
    ("degraded", 0.08, ("degraded",)),       # tiny deadline -> best-so-far
    ("connect", 0.05, ("ok",)),              # bidirectional RRT-Connect mode
    # Connect-mode jobs under injector faults at the greedy-connect site
    # plus a wall deadline: the invariant is *termination* — the chunked
    # connect loop polls the budget, so a perturbed (slowed) extend run
    # ends "ok" if it bridged in time and "degraded" (deadline) if not,
    # never hung.
    ("connect_faulted", 0.05, ("ok", "degraded")),
)

#: Wall budget for jobs whose *outcome* is a supervisor-side timeout.
_REAP_TIMEOUT_S = 0.4
#: Sampling budget for the deadline-degraded jobs: big enough that the
#: deadline always expires long before the budget would complete.
_DEGRADED_SAMPLES = 50_000
_DEGRADED_DEADLINE_S = 0.05
#: Wall deadline on the faulted-connect jobs: generous enough that clean
#: runs bridge in time, tight enough that a slowed one degrades promptly.
_CONNECT_DEADLINE_S = 0.25


class ChaosInvariantError(AssertionError):
    """A robustness invariant was violated during a chaos run."""


@dataclass
class ChaosJob:
    """One scheduled request plus the statuses it is allowed to end in."""

    category: str
    request: PlanRequest
    expected: Tuple[str, ...]


#: Version stamp on written chaos reports so downstream consumers
#: (``repro.obs.rca``) can reject or upgrade mismatched dumps: the
#: drill-down row format's version.  Each record's schedule ``category``
#: and ``fault`` (``clean``/``armed``) sit in its ``attributes``.
CHAOS_SCHEMA = DUMP_SCHEMA
CHAOS_EMITTER = "repro.faults.chaos"


@dataclass
class ChaosReport:
    """Outcome of one chaos run (plain data, JSON-ready)."""

    seed: int
    jobs: int
    digest: str
    elapsed_s: float
    statuses: Dict[str, int] = field(default_factory=dict)
    categories: Dict[str, int] = field(default_factory=dict)
    pool: Dict[str, object] = field(default_factory=dict)
    cache: Dict[str, object] = field(default_factory=dict)
    injector_fires: Dict[str, int] = field(default_factory=dict)
    #: Per-job telemetry rows tagged with their schedule category, so
    #: fault-induced tail latency can be attributed to its fault site
    #: (``python -m repro.obs rca chaos.json --split fault=clean``).
    records: List[Dict[str, object]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": CHAOS_SCHEMA,
            "emitter": CHAOS_EMITTER,
            "measure": "wall_seconds",
            "seed": self.seed,
            "jobs": self.jobs,
            "digest": self.digest,
            "elapsed_s": round(self.elapsed_s, 3),
            "statuses": dict(self.statuses),
            "categories": dict(self.categories),
            "pool": self.pool,
            "cache": self.cache,
            "injector_fires": dict(self.injector_fires),
            "records": [dict(r) for r in self.records],
        }


def _bypass_request(task: PlanningTask, **fields) -> PlanRequest:
    """Build a PlanRequest WITHOUT running validation (hostile input sim)."""
    request = object.__new__(PlanRequest)
    defaults = dict(task=task, smooth=False, timeout_s=None,
                    request_id="", fault=None, trace=False)
    defaults.update(fields)
    for name, value in defaults.items():
        object.__setattr__(request, name, value)
    return request


def _malformed_task(task: PlanningTask) -> PlanningTask:
    """Clone ``task`` with a NaN start, bypassing PlanningTask validation."""
    bad_start = np.array(task.start, dtype=float)
    bad_start[0] = float("nan")
    clone = object.__new__(PlanningTask)
    object.__setattr__(clone, "robot_name", task.robot_name)
    object.__setattr__(clone, "environment", task.environment)
    object.__setattr__(clone, "start", bad_start)
    object.__setattr__(clone, "goal", np.array(task.goal, dtype=float))
    object.__setattr__(clone, "task_id", task.task_id)
    return clone


def build_schedule(
    seed: int,
    jobs: int,
    robot: str = "mobile2d",
    obstacles: int = 8,
    samples: int = 60,
    flag_dir: Optional[str] = None,
) -> List[ChaosJob]:
    """Seeded randomized schedule of ``jobs`` chaos jobs.

    ``flag_dir`` hosts the one-shot flag files of ``flaky`` jobs; pass the
    same directory to every build of a schedule you intend to *run* (the
    files are created here so the first attempt finds them).
    """
    from repro.workloads import random_task

    rng = random.Random(seed)
    names = [c[0] for c in CATEGORIES]
    weights = [c[1] for c in CATEGORIES]
    expected = {c[0]: c[2] for c in CATEGORIES}
    schedule: List[ChaosJob] = []
    for i in range(jobs):
        category = rng.choices(names, weights=weights, k=1)[0]
        task_seed, gen_id = seed * 100_003 + i, i
        if category == "degraded":
            # Every degraded job in a schedule shares one task (and hence
            # one cache key): the duplicates coalesce, so the run also
            # exercises the follower-echo path and the rule that a
            # degraded result is never cached or served as a hit.  The
            # generation id is pinned too (random_task mixes it into the
            # start/goal RNG).
            task_seed, gen_id = seed * 100_003 + jobs, jobs
        task = random_task(robot, obstacles, seed=task_seed, task_id=gen_id)
        config = config_for_variant("full", max_samples=samples,
                                    seed=task_seed, goal_bias=0.1)
        request_id = f"chaos-{i:04d}-{category}"
        fault: Optional[str] = None
        timeout_s: Optional[float] = None
        if category == "slow":
            fault = "slow:0.03"
        elif category == "hang":
            fault, timeout_s = "hang", _REAP_TIMEOUT_S
        elif category == "crash":
            fault = "crash"
        elif category == "error":
            fault = "error"
        elif category == "flaky":
            assert flag_dir is not None, "flaky jobs need flag_dir"
            flag = os.path.join(flag_dir, f"flaky-{seed}-{i}.flag")
            with open(flag, "w"):
                pass
            fault = f"flaky:{flag}"
        elif category in ("corrupt", "duplicate", "wrong_id", "drop",
                          "crash_after_send"):
            fault = category
            if category in ("wrong_id", "drop"):
                timeout_s = 2 * _REAP_TIMEOUT_S
        elif category == "degraded":
            config = config_for_variant(
                "full", max_samples=_DEGRADED_SAMPLES, seed=task_seed,
                goal_bias=0.1, deadline_s=_DEGRADED_DEADLINE_S,
            )
        elif category == "connect":
            config = config_for_variant(
                "full", max_samples=samples, seed=task_seed,
                goal_bias=0.1, mode="connect",
            )
        elif category == "connect_faulted":
            config = config_for_variant(
                "full", max_samples=_DEGRADED_SAMPLES, seed=task_seed,
                goal_bias=0.1, mode="connect", deadline_s=_CONNECT_DEADLINE_S,
            )
        if category == "malformed":
            request = _bypass_request(
                _malformed_task(task), config=config, request_id=request_id
            )
        else:
            request = PlanRequest(
                task=task, config=config, request_id=request_id,
                fault=fault, timeout_s=timeout_s,
            )
        schedule.append(ChaosJob(category, request, expected[category]))
    return schedule


def schedule_digest(schedule: Sequence[ChaosJob]) -> str:
    """SHA-256 fingerprint of a schedule (determinism check).

    Degraded jobs are keyed on their config fingerprint rather than the
    full cache key only because ``cache_key`` re-digests the same fields;
    malformed requests hash their NaN-bearing payloads too (canonical JSON
    keeps ``NaN`` tokens stable).  A ``flaky`` job's fault is hashed by
    its flag file's name alone: the file sits in a per-run ``flag_dir``,
    and the digest must replay across runs.
    """
    rows = []
    for job in schedule:
        request = job.request
        fault = request.fault
        if job.category == "flaky":
            fault = "flaky:" + os.path.basename(fault.partition(":")[2])
        rows.append({
            "category": job.category,
            "request_id": request.request_id,
            "fault": fault,
            "timeout_s": request.timeout_s,
            "seed": request.config.seed,
            "max_samples": request.config.max_samples,
            "deadline_s": request.config.deadline_s,
            "mode": request.config.mode,
            "start": [repr(x) for x in np.asarray(request.task.start).tolist()],
        })
    canonical = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _check(condition: bool, message: str, violations: List[str]) -> None:
    if not condition:
        violations.append(message)


def run_chaos(
    seed: int = 0,
    jobs: int = 200,
    workers: int = 4,
    robot: str = "mobile2d",
    obstacles: int = 8,
    samples: int = 60,
    fault_plan: Optional[FaultPlan] = None,
    watchdog_s: Optional[float] = None,
    log=print,
) -> ChaosReport:
    """Run one chaos schedule and enforce every invariant.

    Raises :class:`ChaosInvariantError` listing every violated invariant;
    returns a :class:`ChaosReport` when the run is clean.  A watchdog
    thread hard-exits the process (code 3) if the pool deadlocks — a hung
    supervisor must fail the CI job, not hang it.
    """
    from repro.service.runner import PlanningService

    if fault_plan is None:
        # Injector faults that perturb timing but never terminal statuses,
        # so the per-category expectations stay deterministic.
        fault_plan = FaultPlan.from_spec(
            "worker.recv:slow@0.15:delay=0.005;"
            "planner.round:slow@0.001:delay=0.002;"
            "edge.validate:slow@0.0005:delay=0.001;"
            "connect.extend:slow@0.01:delay=0.002;"
            "pool.recv:slow@0.05:delay=0.001",
            seed=max(1, seed),
        )

    watchdog_budget = watchdog_s if watchdog_s is not None else max(120.0, jobs * 2.0)

    def _watchdog_fire() -> None:
        log(f"chaos: WATCHDOG fired after {watchdog_budget:.0f}s — "
            "supervisor deadlock suspected")
        os._exit(3)

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as flag_dir:
        schedule = build_schedule(seed, jobs, robot=robot, obstacles=obstacles,
                                  samples=samples, flag_dir=flag_dir)
        digest = schedule_digest(schedule)
        # Determinism invariant: rebuilding from the same seed replays the
        # exact same schedule.
        replay = build_schedule(seed, jobs, robot=robot, obstacles=obstacles,
                                samples=samples, flag_dir=flag_dir)
        if schedule_digest(replay) != digest:
            raise ChaosInvariantError("schedule is not deterministic under its seed")
        log(f"chaos: seed={seed} jobs={jobs} workers={workers} digest={digest[:12]}")

        requests = [job.request for job in schedule]
        pool_config = PoolConfig(
            num_workers=max(1, workers),
            default_timeout_s=30.0,
            max_retries=3,
            backoff_base_s=0.01,
            poll_interval_s=0.005,
            poison_threshold=2,
            breaker_threshold=8,
            breaker_cooldown_s=0.05,
            fault_plan=fault_plan,
        )
        watchdog = threading.Timer(watchdog_budget, _watchdog_fire)
        watchdog.daemon = True
        watchdog.start()
        # The workers install their own scoped injectors from the pool
        # config; the supervisor's ``pool.*`` sites read the process-global
        # one, so install it here (and restore whatever was there before).
        supervisor_injector = FaultInjector(fault_plan, scope="pool")
        previous_injector = set_injector(supervisor_injector)
        started = time.perf_counter()
        try:
            with PlanningService(pool_config=pool_config) as service:
                responses = service.run_batch(requests)
                elapsed = time.perf_counter() - started
                cache_entries = list(service.cache._store.values())
                cache_stats = service.cache.stats()
                pool_stats = service.summary()["workers"]
                records = list(service.telemetry.records)
        finally:
            set_injector(previous_injector)
            watchdog.cancel()

    violations: List[str] = []
    # 1. Every job terminal, 1:1, original order.
    _check(len(responses) == len(requests),
           f"{len(requests)} submitted but {len(responses)} answered", violations)
    for request, response in zip(requests, responses):
        _check(response is not None and response.request_id == request.request_id,
               f"response order broken at {request.request_id}", violations)
        _check(response.status in TERMINAL_STATUSES,
               f"{request.request_id}: non-terminal status {response.status!r}",
               violations)
    # 2. No duplicate responses: one telemetry row per request.
    _check(len(records) == len(requests),
           f"{len(records)} telemetry rows for {len(requests)} requests "
           "(duplicate or lost responses)", violations)
    seen_ids = [r.request_id for r in records]
    _check(len(set(seen_ids)) == len(seen_ids),
           "duplicate request_ids in telemetry", violations)
    # 3. The cache never stores or serves a non-ok result.
    for entry in cache_entries:
        _check(entry.status == "ok",
               f"cache stores a {entry.status!r} response", violations)
    for response in responses:
        _check(not (response.cache_hit and response.status != "ok"),
               f"{response.request_id}: cache served status {response.status!r}",
               violations)
    # 4. Per-category expected outcomes (deterministic under the seed).
    categories: Dict[str, int] = {}
    statuses: Dict[str, int] = {}
    for job, response in zip(schedule, responses):
        categories[job.category] = categories.get(job.category, 0) + 1
        statuses[response.status] = statuses.get(response.status, 0) + 1
        _check(response.status in job.expected,
               f"{response.request_id}: expected {job.expected}, "
               f"got {response.status!r} ({response.error})", violations)
        if job.category == "degraded" and response.status == "degraded":
            _check(response.degraded_reason == "deadline",
                   f"{response.request_id}: degraded for "
                   f"{response.degraded_reason!r}, not the deadline", violations)
            _check(len(response.path) >= 1,
                   f"{response.request_id}: degraded without a best-so-far path",
                   violations)
        if job.category == "connect_faulted" and response.status == "degraded":
            _check(response.degraded_reason == "deadline",
                   f"{response.request_id}: faulted connect degraded for "
                   f"{response.degraded_reason!r}, not the deadline", violations)
    # 5. Connect-mode jobs carry the mode dimension in their telemetry rows
    # (the RCA drill-down attribute the planner mode lands on).
    record_by_id = {r.request_id: r for r in records}
    for job in schedule:
        if job.category in ("connect", "connect_faulted"):
            record = record_by_id.get(job.request.request_id)
            _check(record is not None
                   and record.attributes.get("mode") == "connect",
                   f"{job.request.request_id}: telemetry row missing "
                   "mode=connect attribute", violations)
    if violations:
        preview = "\n  ".join(violations[:20])
        raise ChaosInvariantError(
            f"{len(violations)} invariant violation(s):\n  {preview}"
        )
    # Per-job drill-down rows: each telemetry row labelled with its
    # schedule category (by request_id) so RCA can split fault-armed vs
    # clean jobs and attribute tail latency to the fault site.  The
    # schedule's category is authoritative for armed-vs-clean, over the
    # request's own ``fault`` attribute.
    category_by_id = {job.request.request_id: job.category for job in schedule}
    job_rows = []
    for record in records:
        row = record.to_dict()
        category = category_by_id.get(record.request_id, "?")
        row["attributes"]["category"] = category
        row["attributes"]["fault"] = (
            "clean" if category == "healthy" else "armed"
        )
        job_rows.append(row)
    report = ChaosReport(
        seed=seed, jobs=jobs, digest=digest, elapsed_s=elapsed,
        statuses=statuses, categories=categories,
        pool=pool_stats, cache=cache_stats,
        injector_fires=supervisor_injector.counts(),
        records=job_rows,
    )
    log(f"chaos: OK — {jobs} jobs terminal in {elapsed:.1f}s; "
        f"statuses={statuses} restarts={pool_stats.get('restarts')}")
    return report
