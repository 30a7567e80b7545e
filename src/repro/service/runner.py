"""The service facade: cache -> coalesce -> pool -> telemetry.

:class:`PlanningService` is the object callers hold.  ``run_batch`` takes a
list of :class:`PlanRequest` and returns one :class:`PlanResponse` per
request, in order, after routing each through:

1. **Cache lookup** — a previously-planned (task, config, smooth)
   digest is answered immediately with the stored response.
2. **Single-flight coalescing** — duplicate keys *within* a batch plan
   once; the followers are answered from the leader's freshly-cached
   result (and count as cache hits, which is what they are).
3. **The worker pool** — misses fan out across processes with timeouts,
   retries, and crash isolation (:mod:`repro.service.pool`).
4. **Telemetry** — every response (hit, miss, or structured failure)
   becomes a :class:`~repro.service.telemetry.JobRecord`, is appended to
   the service's JSONL :class:`~repro.obs.EventLog`, and — for traced
   requests — has its worker-side span buffer and metric deltas absorbed
   into the ambient ``repro.obs`` tracer/registry, tagged with the job id.

The pool is created lazily and reused across batches, so worker start-up
cost is amortised over the service lifetime — the request-level analogue of
the engine's amortised setup.  ``num_workers=0`` selects *inline* mode
(plan sequentially in-process, no timeout enforcement): handy for tests
and for environments where ``multiprocessing`` is unwelcome.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import portfolio as portfolio_mod
from repro.core.moped import config_for_variant
from repro.core.world import PlanningTask
from repro.obs import EventLog, bump, get_registry, get_tracer
from repro.service.cache import PlanCache
from repro.service.jobs import DONE, FAILED, Job, JobQueue
from repro.service.journal import JobJournal
from repro.service.pool import PoolConfig, WorkerPool
from repro.service.request import PlanRequest, PlanResponse, failure_response
from repro.service.telemetry import (
    TelemetrySink,
    record_from_job,
    record_from_response,
)
from repro.service.worker import execute_request


class PlanningService:
    """Accepts planning jobs; caches, schedules, and observes them."""

    def __init__(
        self,
        num_workers: int = 2,
        cache_capacity: int = 128,
        pool_config: Optional[PoolConfig] = None,
        telemetry: Optional[TelemetrySink] = None,
        cache: Optional[PlanCache] = None,
        portfolio_stats: Optional[portfolio_mod.PortfolioStats] = None,
        portfolio_stats_path: Optional[str] = None,
        journal: Optional[JobJournal] = None,
    ) -> None:
        if pool_config is not None:
            num_workers = pool_config.num_workers
        self.inline = num_workers == 0
        self.pool_config = (
            pool_config
            if pool_config is not None
            else (None if self.inline else PoolConfig(num_workers=num_workers))
        )
        #: The plan cache: the in-process LRU by default, or any object
        #: with the same ``get``/``put``/``stats``/``clear`` surface — the
        #: network layer injects its consistent-hash sharded tier here
        #: (:class:`repro.net.shard.ShardedPlanCache`), which is how N
        #: front-end processes share cached plans.
        self.cache = cache if cache is not None else PlanCache(cache_capacity)
        self.telemetry = telemetry if telemetry is not None else TelemetrySink()
        #: Structured JSONL event log; every event carries this service
        #: instance's ``run_id`` so traces, telemetry records, and events
        #: from one run correlate.
        self.events = EventLog()
        #: Learned portfolio win-rate table driving ``portfolio=("auto",)``.
        #: Pass an instance to share across services, or a path to persist.
        self.portfolio_stats = (
            portfolio_stats
            if portfolio_stats is not None
            else portfolio_mod.PortfolioStats(path=portfolio_stats_path)
        )
        #: Durable write-ahead job journal (:mod:`repro.service.journal`).
        #: ``None`` (the default) costs each hook one ``is not None`` check;
        #: with a journal, every admission, dispatch, and terminal status is
        #: logged so :meth:`recover` can replay work a crash lost.
        self.journal = journal
        self._pool: Optional[WorkerPool] = None

    # ----------------------------------------------------------- lifecycle

    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None:
            self._pool = WorkerPool(self.pool_config)
        return self._pool

    @property
    def breaker(self):
        """The live pool's circuit breaker, or ``None`` before it exists.

        The network front end reads this to shed load at the edge while
        the breaker is open (429 + Retry-After instead of queueing jobs
        into a sick pool).
        """
        return self._pool.breaker if self._pool is not None else None

    def close(self) -> None:
        """Shut down the worker pool (idempotent; service stays queryable)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self.journal is not None:
            self.journal.sync()

    def __enter__(self) -> "PlanningService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- serving

    def recover(self) -> Dict:
        """Replay the journal after a crash: settle every admitted job.

        Scans the journal (truncating a torn tail), then for every admit
        record with no terminal status since the last clean shutdown:

        * **quarantined** hashes (too many interrupted dispatches across
          restarts — the job keeps killing the process) are dead-lettered
          with a terminal ``"poison"`` instead of replayed;
        * admit payloads that no longer parse are settled ``"invalid"``;
        * everything else is rebuilt from its wire payload, marked
          ``recovered=True``, and re-run through :meth:`run_batch` —
          idempotently: duplicates coalesce by request hash, and a job
          whose result already reached the cache tier (its ``done`` record
          was the one torn off) is answered from the cache without
          re-planning.

        Degraded and cancelled results are terminal statuses, so they are
        never resurrected.  Returns the recovery summary (counts plus the
        replayed responses).
        """
        if self.journal is None:
            return {"enabled": False, "replayed": 0, "quarantined": 0,
                    "invalid": 0}
        from repro.errors import InvalidRequest
        from repro.net.wire import request_from_wire

        state = self.journal.recover_state()
        self.journal.start_epoch(
            pending=len(state.pending),
            quarantined=len(state.quarantined),
            torn=state.torn,
        )
        for record in state.quarantined:
            rid = str(record.get("request_id", ""))
            self.journal.record_done(rid, "poison")
            self._observe_response(
                PlanResponse(
                    request_id=rid, status="poison",
                    error="quarantined by recovery: job repeatedly "
                          "interrupted the process mid-dispatch",
                ),
                job_id=None,
            )
            bump("repro_recovery_replayed_total",
                 help="Journal admits settled by crash recovery",
                 outcome="quarantined")
        requests: List[PlanRequest] = []
        invalid = 0
        for record in state.pending:
            rid = str(record.get("request_id", ""))
            try:
                request = request_from_wire(
                    record.get("request") or {}, request_id=rid
                )
            except InvalidRequest as exc:
                invalid += 1
                self.journal.record_done(rid, "invalid")
                self._observe_response(
                    PlanResponse(request_id=rid, status="invalid",
                                 error=f"unreplayable admit record: {exc}"),
                    job_id=None,
                )
                bump("repro_recovery_replayed_total",
                     help="Journal admits settled by crash recovery",
                     outcome="invalid")
                continue
            requests.append(replace(request, recovered=True))
            bump("repro_recovery_replayed_total",
                 help="Journal admits settled by crash recovery",
                 outcome="replayed")
        responses = self.run_batch(requests) if requests else []
        self.journal.sync()
        self.events.emit(
            "recovery.done",
            replayed=len(requests),
            quarantined=len(state.quarantined),
            invalid=invalid,
            torn=state.torn,
            records=state.records,
        )
        return {
            "enabled": True,
            "replayed": len(requests),
            "quarantined": len(state.quarantined),
            "invalid": invalid,
            "torn": state.torn,
            "records": state.records,
            "responses": responses,
        }

    def run_batch(self, requests: Sequence[PlanRequest]) -> List[PlanResponse]:
        """Plan a batch; one response per request, original order."""
        tracer = get_tracer()
        with tracer.span(
            "service.batch", run_id=self.events.run_id, requests=len(requests)
        ):
            self.events.emit("batch.start", requests=len(requests))
            responses = self._run_batch_inner(requests)
            self.events.emit(
                "batch.end",
                requests=len(requests),
                ok=sum(1 for r in responses if r.status == "ok"),
            )
        return responses

    def _run_batch_inner(self, requests: Sequence[PlanRequest]) -> List[PlanResponse]:
        responses: List[Optional[PlanResponse]] = [None] * len(requests)
        queue = JobQueue()
        job_index: Dict[int, Tuple[int, Optional[str]]] = {}
        leaders: Dict[str, int] = {}
        followers: Dict[str, List[int]] = {}
        races: Dict[int, Dict] = {}  # request index -> race bookkeeping
        race_jobs: Dict[int, int] = {}  # member job_id -> request index

        journal = self.journal
        for i, request in enumerate(requests):
            if journal is not None and not getattr(request, "recovered", False):
                # Write-ahead: admission is durable before any work starts.
                # Recovered requests are already in the journal — their
                # original admit record is the one being settled.
                journal.record_admit(request)
            if request.portfolio:
                # Portfolio race: expand into K member jobs sharing a race
                # token.  Races bypass the cache both ways — each race is a
                # fresh controlled experiment, and the parent response is a
                # synthesis, not a single planner's cacheable answer.
                if journal is not None:
                    journal.record_dispatch(request.request_id)
                self._start_race(i, request, queue, races, race_jobs)
                continue
            # Faulted and traced requests always execute (chaos hooks and
            # observability runs both want a real execution, not a replay).
            key = None if (request.fault or request.trace) else request.cache_key()
            if key is not None:
                if key in leaders:  # coalesce before a (miss-counting) lookup
                    followers.setdefault(key, []).append(i)
                    continue
                cached = self.cache.get(key, request.request_id)
                if cached is not None:
                    responses[i] = cached
                    self._observe_response(cached, job_id=None, request=request)
                    continue
            if journal is not None:
                journal.record_dispatch(request.request_id)
            job = queue.submit(request, time.monotonic())
            job_index[job.job_id] = (i, key)
            if key is not None:
                leaders[key] = job.job_id

        if self.inline:
            jobs = self._run_inline(queue)
        else:
            pool = self._ensure_pool()
            on_settle = None
            if races:
                def on_settle(job: Job) -> None:
                    # First feasible member wins; flip the shared bit so the
                    # losers degrade out through the cancel -> deadline path.
                    idx = race_jobs.get(job.job_id)
                    if idx is None:
                        return
                    race = races[idx]
                    race["jobs"][job.job_id] = job
                    response = job.response
                    if (race["winner_job"] is None and response is not None
                            and response.status == "ok" and response.success):
                        race["winner_job"] = job.job_id
                        pool.cancel_race(race["token"])
            try:
                jobs = pool.run(queue, on_settle=on_settle)
            finally:
                for race in races.values():
                    pool.clear_race(race["token"])

        for job in jobs:
            if job.job_id in race_jobs:
                races[race_jobs[job.job_id]]["jobs"][job.job_id] = job
                continue
            i, key = job_index[job.job_id]
            response = job.response
            assert response is not None
            responses[i] = response
            self._absorb_job_obs(job.job_id, response)
            self.telemetry.record(record_from_job(job), counter=response.counter())
            self.events.emit(
                "job.done",
                job_id=job.job_id,
                request_id=response.request_id,
                status=response.status,
                cache_hit=False,
                worker_id=response.worker_id,
                attempts=job.attempts,
                plan_seconds=response.plan_seconds,
            )
            if key is not None and response.status == "ok":
                self.cache.put(key, replace(response))

        for i, race in races.items():
            responses[i] = self._finalise_race(race)

        for key, indices in followers.items():
            leader_i = job_index[leaders[key]][0]
            leader = responses[leader_i]
            assert leader is not None
            for i in indices:
                hit = self.cache.get(key, requests[i].request_id)
                if hit is None:  # leader failed; echo its failure (miss counted)
                    hit = replace(leader, request_id=requests[i].request_id)
                responses[i] = hit
                self._observe_response(hit, job_id=None, request=requests[i])

        if journal is not None:
            # Terminal records for the whole batch, then one sync: in
            # fsync="batch" mode at most one batch of terminal statuses is
            # at risk, and a lost ``done`` only means a redundant (and
            # idempotent, cache-served) replay after the next crash.
            for request, response in zip(requests, responses):
                assert response is not None
                journal.record_done(request.request_id, response.status)
            journal.sync()

        assert all(r is not None for r in responses)
        return responses  # type: ignore[return-value]

    # ------------------------------------------------------------- racing

    def _start_race(
        self,
        i: int,
        request: PlanRequest,
        queue: JobQueue,
        races: Dict[int, Dict],
        race_jobs: Dict[int, int],
    ) -> None:
        """Expand one portfolio request into member jobs sharing a token.

        Each member is an ordinary job carrying ``planner=name``, the
        member's derived config (:func:`repro.core.portfolio.member_config`)
        and the shared ``race_token`` that the supervisor's cancel bit and
        the worker's cancel predicate meet on.  ``"auto"`` entries resolve
        through :attr:`portfolio_stats` here, so the learned default is
        whatever the stats file said at submit time.
        """
        signature = portfolio_mod.task_signature(request.task)
        names = portfolio_mod.resolve(
            request.portfolio, signature, self.portfolio_stats
        )
        # Inline mode has no shared bitmask; the token only needs to be a
        # unique race key, and the request index already is one.
        token = i if self.inline else self._ensure_pool().new_race_token()
        members: List[Tuple[str, int]] = []
        for name in names:
            member = replace(
                request,
                request_id=f"{request.request_id}#{name}",
                planner=name,
                portfolio=None,
                race_token=token,
                config=portfolio_mod.member_config(name, request.config),
            )
            job = queue.submit(member, time.monotonic())
            race_jobs[job.job_id] = i
            members.append((name, job.job_id))
        races[i] = {
            "token": token,
            "signature": signature,
            "names": names,
            "members": members,
            "request": request,
            "winner_job": None,
            "jobs": {},
        }
        self.events.emit(
            "race.start",
            request_id=request.request_id,
            planners=list(names),
            signature=signature,
            token=token,
        )

    def _finalise_race(self, race: Dict) -> PlanResponse:
        """Pick the race winner, account for the losers, learn from the win.

        Winner policy: the first-feasible member recorded at settle time;
        otherwise (no ``ok`` arrived while racing — e.g. inline mode, or
        every member degraded) the cheapest feasible response, then the
        first member that answered at all, in member order.  The parent
        response is the winner's response re-labelled with the parent
        request id plus a ``race`` summary; every member is observed as its
        own job so telemetry/RCA see the losers' terminal statuses too.
        """
        request: PlanRequest = race["request"]
        members = [(name, race["jobs"].get(job_id))
                   for name, job_id in race["members"]]

        winner_name: Optional[str] = None
        winner_job: Optional[Job] = None
        if race["winner_job"] is not None:
            winner_job = race["jobs"][race["winner_job"]]
            winner_name = next(
                name for name, job_id in race["members"]
                if job_id == race["winner_job"]
            )
        else:
            answered = [(n, j) for n, j in members
                        if j is not None and j.response is not None]
            feasible = [(n, j) for n, j in answered if j.response.success]
            best = [(n, j) for n, j in feasible if j.response.status == "ok"]
            candidates = best or feasible
            if candidates:
                winner_name, winner_job = min(
                    candidates, key=lambda nj: nj[1].response.path_cost
                )
            elif answered:
                winner_name, winner_job = answered[0]

        statuses: Dict[str, str] = {}
        cancelled = 0
        for name, job in members:
            if job is None or job.response is None:
                statuses[name] = "lost"
                continue
            response = job.response
            statuses[name] = response.status
            if response.status == "cancelled":
                cancelled += 1
            self._absorb_job_obs(job.job_id, response)
            self.telemetry.record(
                record_from_job(job), counter=response.counter()
            )
            self.events.emit(
                "job.done",
                job_id=job.job_id,
                request_id=response.request_id,
                status=response.status,
                cache_hit=False,
                worker_id=response.worker_id,
                attempts=job.attempts,
                plan_seconds=response.plan_seconds,
            )

        summary = {
            "planners": list(race["names"]),
            "winner": winner_name,
            "statuses": statuses,
            "cancelled": cancelled,
            "signature": race["signature"],
        }
        if winner_job is not None:
            parent = replace(
                winner_job.response,
                request_id=request.request_id,
                planner=winner_name,
                race=summary,
            )
        else:
            parent = failure_response(
                request, "error", "portfolio race produced no responses"
            )
            parent.race = summary

        won = (winner_job is not None
               and winner_job.response.status == "ok"
               and winner_job.response.success)
        if won:
            bump(
                "repro_portfolio_wins_total",
                help="Portfolio race wins by planner.",
                planner=winner_name,
                robot=request.task.robot_name,
            )
            self.portfolio_stats.record(race["signature"], winner_name)
        self.events.emit(
            "race.done",
            request_id=request.request_id,
            winner=winner_name,
            won=won,
            planners=list(race["names"]),
            statuses=statuses,
            cancelled=cancelled,
        )
        return parent

    def _observe_response(
        self,
        response: PlanResponse,
        job_id: Optional[int],
        request: Optional[PlanRequest] = None,
    ) -> None:
        """Telemetry + event for a response that did not run through a job."""
        self.telemetry.record(
            record_from_response(response, request=request),
            counter=response.counter(),
        )
        self.events.emit(
            "job.done",
            job_id=job_id,
            request_id=response.request_id,
            status=response.status,
            cache_hit=response.cache_hit,
            worker_id=response.worker_id,
            attempts=response.attempts,
            plan_seconds=response.plan_seconds,
        )

    def _absorb_job_obs(self, job_id: int, response: PlanResponse) -> None:
        """Fold a traced job's shipped-back buffers into the ambient
        tracer/registry, tagging every span with the job's identity."""
        if response.trace_spans:
            tracer = get_tracer()
            if tracer.enabled:
                tracer.absorb(
                    response.trace_spans,
                    job_id=job_id,
                    request_id=response.request_id,
                )
        if response.metric_deltas:
            registry = get_registry()
            if registry.enabled:
                registry.merge_dict(response.metric_deltas)

    def _run_inline(self, queue: JobQueue) -> List[Job]:
        """Sequential in-process execution (no pool, no timeouts).

        Portfolio races degenerate gracefully here: members run in member
        order and the first feasible win marks the race token, so later
        members of the same race settle ``"cancelled"`` without executing —
        sequential first-feasible, the one-worker limit of the race.
        """
        from repro.errors import InvalidRequest

        won_races: set = set()
        done: List[Job] = []
        while True:
            job = queue.pop_ready(time.monotonic())
            if job is None:
                break
            token = job.request.race_token
            if token is not None and token in won_races:
                job.attempts = 1
                job.response = failure_response(
                    job.request, "cancelled", "portfolio race already won"
                )
                job.response.planner = job.request.planner
                job.response.attempts = 1
                job.state = FAILED
                job.finished_at = time.monotonic()
                done.append(job)
                continue
            job.attempts = 1
            job.dispatched_at = time.monotonic()
            try:
                job.response = execute_request(job.request)
            except InvalidRequest as exc:
                job.response = PlanResponse(
                    request_id=job.request.request_id,
                    status="invalid",
                    error=str(exc),
                )
            except Exception as exc:
                job.response = PlanResponse(
                    request_id=job.request.request_id,
                    status="error",
                    error=f"{type(exc).__name__}: {exc}",
                )
            job.response.attempts = 1
            job.state = DONE if job.response.status in ("ok", "degraded") else FAILED
            job.finished_at = time.monotonic()
            done.append(job)
            if (token is not None and job.response.status == "ok"
                    and job.response.success):
                won_races.add(token)
        return done

    # ----------------------------------------------------------- telemetry

    def summary(self, include_records: bool = False) -> Dict:
        """Aggregate telemetry: counts, cache stats, latency percentiles."""
        pool_stats = (
            self._pool.stats()
            if self._pool is not None
            else {"count": 0 if self.inline else self.pool_config.num_workers,
                  "restarts": 0}
        )
        return self.telemetry.summary(
            cache_stats=self.cache.stats(),
            pool_stats=pool_stats,
            include_records=include_records,
        )


def build_requests(
    robot: str = "mobile2d",
    obstacles: int = 8,
    jobs: int = 8,
    seed: int = 0,
    variant: str = "full",
    samples: int = 500,
    goal_bias: float = 0.1,
    smooth: bool = False,
    timeout_s: Optional[float] = None,
    duplicate: int = 1,
    inject: Optional[str] = None,
    tasks: Optional[Sequence[PlanningTask]] = None,
    trace: bool = False,
    deadline_s: Optional[float] = None,
    mode: str = "rrtstar",
    portfolio: Optional[Sequence[str]] = None,
) -> List[PlanRequest]:
    """Seeded request batch for the CLIs and tests.

    Without ``tasks``, generates ``jobs`` tasks with seeds ``seed .. seed +
    jobs - 1`` (each task's planner config uses the matching seed, so the
    whole request is deterministic).  ``duplicate=k`` repeats the batch k
    times — duplicates coalesce or hit the cache, which is how the CLIs
    demonstrate a non-zero hit rate.  ``inject="kind"`` or ``"kind:index"``
    arms the fault hook on one request (default index 0); ``kind`` is any
    :class:`PlanRequest.fault` spec (``hang`` / ``crash`` / ``error`` /
    ``slow:<s>`` / transport kinds).  ``trace=True`` marks every request
    for the observability layer (workers ship spans/metrics back).
    ``deadline_s`` arms anytime planning on every request's config (expired
    budgets return ``status="degraded"`` best-so-far results).
    ``mode="connect"`` plans every request with the bidirectional
    RRT-Connect planner; ``portfolio=("connect", "wave")`` turns every
    request into a planner race instead (``mode`` is then the base config
    the members derive from).
    """
    if jobs < 1 and tasks is None:
        raise ValueError("jobs must be >= 1")
    if duplicate < 1:
        raise ValueError("duplicate must be >= 1")
    base: List[PlanRequest] = []
    if tasks is not None:
        source = [(t, seed) for t in tasks]
    else:
        from repro.workloads import random_task

        source = [
            (random_task(robot, obstacles, seed=seed + i, task_id=i), seed + i)
            for i in range(jobs)
        ]
    for i, (task, task_seed) in enumerate(source):
        config = config_for_variant(
            variant, max_samples=samples, seed=task_seed, goal_bias=goal_bias,
            deadline_s=deadline_s, mode=mode,
        )
        base.append(
            PlanRequest(
                task=task,
                config=config,
                smooth=smooth,
                timeout_s=timeout_s,
                request_id=f"job-{i:03d}",
                trace=trace,
                portfolio=tuple(portfolio) if portfolio else None,
            )
        )
    requests: List[PlanRequest] = []
    for k in range(duplicate):
        for req in base:
            rid = req.request_id if k == 0 else f"{req.request_id}-dup{k}"
            requests.append(replace(req, request_id=rid))
    if inject:
        kind, _, index_str = inject.partition(":")
        index = int(index_str) if index_str else 0
        if not 0 <= index < len(requests):
            raise ValueError(f"inject index {index} out of range")
        requests[index] = replace(requests[index], fault=kind)
    return requests
