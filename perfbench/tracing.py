"""Benchmark-side tracing: timing wrappers around each layer's public calls.

Nothing here changes the program.  The ``install_*`` functions replace
public functions and methods of the layers with wrappers that time each
call on the shared Linux monotonic clock and keep the results in memory;
the owning process writes them to a JSON file when it ends
(:meth:`Recorder.dump`).  The serving launcher installs the wrappers
before the worker pool forks, so workers inherit them.

Two kinds of records are kept:

* **aggregates** per layer call name: calls, total time, self time (the
  call's duration minus the time its wrapped children and GC pauses
  took) and an amount (configurations, edges, bytes).  Only the
  outermost call of a layer group counts, so a batch check issued from
  inside a single-edge check is part of that check, not a second call.
* **events** per request: ``(name, request_id, start, end, extra)`` for
  the request-level spans that are joined across processes by
  ``request_id`` (decode, handle, batch, job, execute, setup, plan).

Recording starts with the first measured request (request ids that start
with ``m-``), so set-up traffic never enters the per-layer numbers.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

now = time.monotonic

MEASURED_PREFIX = "m-"


class Recorder:
    """In-memory span and counter store of one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        self.active = False
        #: name -> [calls, total_s, self_s, amount]
        self.agg: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        #: name -> per-call durations (s)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.events: List = []
        self.gc: List = []
        self.plans: List[Dict] = []
        self.current_rid: Optional[str] = None

    def stack(self) -> List:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def activate_for(self, request_id: str) -> None:
        if not self.active and str(request_id).startswith(MEASURED_PREFIX):
            self.active = True

    def event(self, name: str, rid: str, start: float, end: float,
              **extra) -> None:
        self.events.append((name, rid, start, end, extra))

    def dump(self, path: str) -> None:
        payload = {
            "pid": os.getpid(),
            "agg": dict(self.agg),
            "samples": dict(self.samples),
            "events": self.events,
            "gc": self.gc,
            "plans": self.plans,
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)

    # ----------------------------------------------------------- timing

    def timed(self, name: str, group: str, fn: Callable,
              amount: Optional[Callable] = None, keep: bool = False,
              after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each active call is timed under ``name``.

        ``amount(args, kwargs)`` adds a work count; ``keep`` stores each
        call's duration; ``after(args, kwargs, result, dur, self_s)`` sees
        every recorded call's outcome.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            stack = rec.stack()
            nested = bool(stack) and stack[-1][0] == group
            frame = [group, 0.0]
            stack.append(frame)
            t0 = now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = now() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                if not nested:
                    self_s = dur - frame[1]
                    entry = rec.agg[name]
                    entry[0] += 1
                    entry[1] += dur
                    entry[2] += self_s
                    if amount is not None:
                        entry[3] += amount(args, kwargs)
                    if keep:
                        rec.samples[name].append(dur)
                    if after is not None:
                        after(args, kwargs, result, dur, self_s)

        return wrapper

    def gc_callback(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._local.gc_start = now()
            return
        start = getattr(self._local, "gc_start", None)
        if start is None:
            return
        end = now()
        self._local.gc_start = None
        # A pause inside a wrapped call is that call's child, not self time.
        stack = self.stack()
        if stack:
            stack[-1][1] += end - start
        if self.active:
            self.gc.append((info.get("generation", 0), start, end))


def _wrap_method(rec: Recorder, cls, attr: str, name: str, group: str,
                 **options) -> None:
    """Replace ``cls.attr`` by ``rec.timed(name, group, ...)`` of itself."""
    setattr(cls, attr, rec.timed(name, group, cls.__dict__[attr], **options))


def _patch_everywhere(module, attr: str, wrapper_factory: Callable) -> None:
    """Replace ``module.attr`` and every ``from module import attr`` copy
    held by an already imported ``repro`` module."""
    import sys

    original = getattr(module, attr)
    wrapped = wrapper_factory(original)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def _len_arg(index: int):
    def amount(args, kwargs):
        try:
            return len(args[index])
        except (IndexError, TypeError):
            return 1
    return amount


def _array_bytes(args, kwargs) -> float:
    total = 0
    for value in list(args) + list(kwargs.values()):
        total += getattr(value, "nbytes", 0)
    return float(total)


def install_core(rec: Recorder) -> None:
    """Wrap the planner layers: planners, collision, neighbors, FK, kernels."""
    import repro.core.planners as planners
    from repro.core.collision import CollisionChecker
    from repro.core.connect import RRTConnectPlanner
    from repro.core import neighbors
    from repro.core.robots import RobotModel
    from repro.core.rrtstar import RRTStarPlanner
    from repro.kernels import batch as kernels

    def plan_after(mode):
        def after(args, kwargs, result, dur, self_s):
            planner = args[0]
            if result is None:
                return
            stats = planner.cache_stats()
            rec.plans.append({
                "rid": rec.current_rid, "mode": mode, "plan_s": dur,
                "self_s": self_s, "iterations": result.iterations,
                "nodes": result.num_nodes,
                "caches": {k: [v["hits"], v["misses"]] for k, v in stats.items()},
            })
        return after

    _wrap_method(rec, RRTStarPlanner, "plan", "core.rrtstar.plan",
                 "core.planner", after=plan_after("rrtstar"))
    _wrap_method(rec, RRTConnectPlanner, "plan", "core.connect.plan",
                 "core.planner", after=plan_after("connect"))

    def setup_after(args, kwargs, result, dur, self_s):
        end = now()
        rec.event("planner.setup", rec.current_rid, end - dur, end)
    planners.make_planner = rec.timed(
        "planner.setup", "planner.setup", planners.make_planner,
        after=setup_after)

    _wrap_method(rec, CollisionChecker, "motion_in_collision",
                 "core.collision.motion", "core.collision")
    _wrap_method(rec, CollisionChecker, "motion_results_batch",
                 "core.collision.batch", "core.collision", amount=_len_arg(1))
    for attr in ("config_in_collision", "config_results"):
        _wrap_method(rec, CollisionChecker, attr, "core.collision.config",
                     "core.collision")

    for cls in (neighbors.BruteStrategy, neighbors.KDTreeStrategy,
                neighbors.SIMBRStrategy):
        for attr in ("nearest", "neighborhood", "insert"):
            if attr in cls.__dict__:
                _wrap_method(rec, cls, attr, f"core.neighbors.{attr}",
                             "core.neighbors")

    _wrap_method(rec, RobotModel, "body_obbs", "core.robots.fk", "core.robots",
                 amount=lambda args, kwargs: 1.0)
    _wrap_method(rec, RobotModel, "body_frames_batch", "core.robots.fk",
                 "core.robots", amount=_len_arg(1))

    for attr in kernels.__all__:
        _patch_everywhere(kernels, attr, lambda f: rec.timed(
            "kernels.batch", "kernels.batch", f, amount=_array_bytes))

    gc.callbacks.append(rec.gc_callback)


def install_worker(rec: Recorder, dump_path: Callable[[], str]) -> None:
    """Wrap the pool worker's job body and make workers dump on exit."""
    import repro.service.pool as pool
    import repro.service.worker as worker

    execute = worker.execute_request

    def traced_execute(request):
        rid = request.request_id
        rec.activate_for(rid)
        rec.current_rid = rid
        t0 = now()
        try:
            return execute(request)
        finally:
            if rec.active:
                rec.event("worker.execute", rid, t0, now(),
                          robot=request.task.robot_name,
                          mode=request.config.mode)
            rec.current_rid = None

    worker.execute_request = traced_execute
    worker_main = pool.worker_main

    def traced_worker_main(*args, **kwargs):
        # A forked worker inherits the front end's buffers: start empty.
        rec.reset()
        try:
            worker_main(*args, **kwargs)
        finally:
            rec.dump(dump_path())

    pool.worker_main = traced_worker_main


def install_frontend(rec: Recorder) -> None:
    """Wrap wire, front end, runner, cache, journal and pool supervisor."""
    import repro.net.frontend as frontend
    from repro.service.cache import PlanCache
    from repro.service.journal import JobJournal
    from repro.service.pool import WorkerPool
    from repro.service.runner import PlanningService

    decode = frontend.request_from_wire

    def traced_decode(data, request_id=""):
        t0 = now()
        request = decode(data, request_id=request_id)
        t1 = now()
        rec.activate_for(request.request_id)
        if rec.active:
            rec.event("net.wire.decode", request.request_id, t0, t1)
        return request

    frontend.request_from_wire = traced_decode

    encode = frontend.response_to_wire

    def traced_encode(response, include_path=True):
        t0 = now()
        out = encode(response, include_path=include_path)
        if rec.active:
            rec.event("net.wire.encode", response.request_id, t0, now())
        return out

    frontend.response_to_wire = traced_encode

    handle = frontend.PlanFrontEnd._handle_plan

    async def traced_handle(self, query, body):
        t0 = now()
        result = await handle(self, query, body)
        if rec.active:
            payload = result[1] if isinstance(result[1], dict) else {}
            rec.event("net.frontend.handle", payload.get("request_id", ""),
                      t0, now(), code=result[0])
        return result

    frontend.PlanFrontEnd._handle_plan = traced_handle

    def batch_after(args, kwargs, result, dur, self_s):
        end = now()
        rids = [r.request_id for r in args[1]]
        rec.event("service.runner.batch", rids[0] if rids else "",
                  end - dur, end, rids=rids, self_s=self_s)

    _wrap_method(rec, PlanningService, "run_batch", "service.runner.batch",
                 "service.runner", after=batch_after)

    def cache_after(args, kwargs, result, dur, self_s):
        rec.agg["service.cache.hits"][0] += result is not None
    _wrap_method(rec, PlanCache, "get", "service.cache.get", "service.cache",
                 keep=True, after=cache_after)
    _wrap_method(rec, PlanCache, "put", "service.cache.put", "service.cache",
                 keep=True)
    _wrap_method(rec, JobJournal, "append", "service.journal.append",
                 "service.journal", keep=True)
    _wrap_method(rec, JobJournal, "sync", "service.journal.sync",
                 "service.journal", keep=True)

    def pool_after(args, kwargs, result, dur, self_s):
        for job in result or ():
            response = job.response
            rec.event(
                "service.pool.job", job.request.request_id,
                job.dispatched_at if job.dispatched_at is not None
                else job.submitted_at,
                job.finished_at if job.finished_at is not None else now(),
                queue_wait_s=job.queue_wait_s, attempts=job.attempts,
                crashes=job.crash_count,
                status=response.status if response is not None else None)

    _wrap_method(rec, WorkerPool, "run", "service.pool.run", "service.pool",
                 after=pool_after)
