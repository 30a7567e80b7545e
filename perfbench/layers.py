"""Per-layer metrics from a traced run (``--trace 1``).

The traced processes write their records (see :mod:`tracing`); this
module joins them by ``request_id`` with what the client saw and reduces
them to :data:`PER_LAYER`.  A layer the workload bypasses reports 0: its
calls never happened.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from typing import Dict, List, Tuple

import benchpath
from stats import mean, p50, tail

#: name -> unit, from BENCHMARK.json's ``per_layer``.
PER_LAYER: Dict[str, str] = {m["name"]: m["unit"]
                             for m in benchpath.spec()["per_layer"]}

#: Counter totals are taken over this many planned requests, the first
#: ones in request order, so they repeat exactly for a given seed.
COUNTER_PLANS = 8

CATEGORIES = ("collision_check", "neighbor_search", "tree_maintenance", "other")


def _p50(values) -> float:
    return p50(values) if values else 0.0


def _tail(values) -> float:
    try:
        return tail(values)[0]
    except ValueError:
        return max(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Dumps:
    """The merged records of every traced process."""

    def __init__(self, files: List[str]) -> None:
        self.agg: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        self.samples: Dict[str, list] = defaultdict(list)
        self.events: Dict[str, list] = defaultdict(list)
        self.gc: List[Tuple[str, list]] = []
        self.plans: List[Dict] = []
        for path in files:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            role = os.path.basename(path).split("-", 1)[0]
            for name, entry in data["agg"].items():
                for k in range(4):
                    self.agg[name][k] += entry[k]
            for name, values in data["samples"].items():
                self.samples[name].extend(values)
            for name, rid, start, end, extra in data["events"]:
                self.events[name].append((rid, start, end, extra))
            self.gc.extend((role, g) for g in data["gc"])
            self.plans.extend(p for p in data["plans"]
                              if str(p["rid"]).startswith("m-"))

    def durations(self, name: str) -> List[float]:
        return [end - start for _, start, end, _ in self.events[name]]

    def by_rid(self, name: str) -> Dict[str, Tuple[float, float, dict]]:
        return {rid: (start, end, extra)
                for rid, start, end, extra in self.events[name]}

    def calls(self, name: str) -> float:
        return self.agg[name][0] if name in self.agg else 0.0

    def total_ms(self, name: str) -> float:
        return self.agg[name][1] * 1000.0 if name in self.agg else 0.0


def per_layer(workload: str, base, traced) -> Dict[str, Dict]:
    """Every :data:`PER_LAYER` metric of one traced run."""
    d = Dumps(traced.trace_files)
    reqs = traced.requests
    n_req = len(reqs)
    klass_of = {r.request_id: r.klass for r in reqs}
    plans = d.plans
    n_plans = len(plans)
    v: Dict[str, float] = {}

    late = [r.late_s * 1000.0 for r in reqs]
    v["loadgen.late_ms.p50"] = _p50(late)
    v["loadgen.late_ms.tail"] = _tail(late)

    # ---- net
    serving = workload != "plan-rrtstar-xarm7"
    v["net.wire.decode_us.p50"] = _p50(d.durations("net.wire.decode")) * 1e6
    v["net.wire.encode_us.p50"] = _p50(d.durations("net.wire.encode")) * 1e6
    v["net.wire.request_kb.mean"] = mean([r.bytes_out for r in reqs]) / 1024 \
        if serving else 0.0
    v["net.wire.response_kb.mean"] = mean([r.bytes_in for r in reqs]) / 1024 \
        if serving else 0.0
    decoded = {rid: end for rid, (_, end, _) in d.by_rid("net.wire.decode").items()}
    waits, sizes, batch_ms, batch_self = [], [], [], []
    for _, start, end, extra in d.events["service.runner.batch"]:
        rids = extra["rids"]
        sizes.append(len(rids))
        batch_ms.append((end - start) * 1000.0)
        batch_self.append(extra["self_s"] * 1000.0)
        waits.extend((start - decoded[rid]) * 1000.0
                     for rid in rids if rid in decoded)
    v["net.frontend.engine_wait_ms.p50"] = _p50(waits)
    v["net.frontend.engine_wait_ms.tail"] = _tail(waits)
    v["net.frontend.batch_size.mean"] = mean(sizes) if sizes else 0.0
    handled = d.by_rid("net.frontend.handle")
    residual = [(r.latency_s - r.late_s - (handled[r.request_id][1]
                                            - handled[r.request_id][0])) * 1000.0
                for r in reqs if r.request_id in handled]
    v["net.frontend.residual_ms.p50"] = _p50(residual)

    # ---- service
    v["service.runner.batch_ms.p50"] = _p50(batch_ms)
    v["service.runner.self_ms.p50"] = _p50(batch_self)
    lookups = d.calls("service.cache.get")
    v["service.cache.lookups"] = lookups
    v["service.cache.hit_share"] = _ratio(d.calls("service.cache.hits"), lookups)
    v["service.cache.get_us.p50"] = _p50(d.samples["service.cache.get"]) * 1e6
    v["service.cache.put_us.p50"] = _p50(d.samples["service.cache.put"]) * 1e6
    v["service.journal.records_per_request"] = _ratio(
        d.calls("service.journal.append"), n_req)
    v["service.journal.append_us.p50"] = _p50(
        d.samples["service.journal.append"]) * 1e6
    v["service.journal.sync_ms.p50"] = _p50(d.samples["service.journal.sync"]) * 1e3
    v["service.journal.syncs_per_request"] = _ratio(
        d.calls("service.journal.sync"), n_req)
    jobs = d.events["service.pool.job"]
    executed = d.by_rid("worker.execute")
    v["service.pool.queue_wait_ms.p50"] = _p50(
        [e["queue_wait_s"] * 1000.0 for _, _, _, e in jobs])
    v["service.pool.queue_wait_ms.tail"] = _tail(
        [e["queue_wait_s"] * 1000.0 for _, _, _, e in jobs])
    v["service.pool.ipc_ms.p50"] = _p50(
        [((end - start) - (executed[rid][1] - executed[rid][0])) * 1000.0
         for rid, start, end, _ in jobs if rid in executed])
    v["service.pool.retries"] = float(sum(e["attempts"] - 1
                                          for _, _, _, e in jobs))
    v["service.pool.crashes"] = float(sum(e["crashes"] for _, _, _, e in jobs))
    v["service.worker.execute_ms.p50"] = _p50(d.durations("worker.execute")) * 1e3
    setups = d.by_rid("planner.setup")
    v["service.worker.setup_ms.p50"] = _p50(
        [(end - start) * 1000.0 for start, end, _ in setups.values()]) \
        if serving else 0.0
    for klass in ("connect", "light"):
        v[f"service.worker.plan_ms.p50.{klass}"] = _p50(
            [p["plan_s"] * 1000.0 for p in plans
             if klass_of.get(p["rid"]) == klass]) if serving else 0.0

    # ---- planners
    for mode in ("rrtstar", "connect"):
        mine = [p for p in plans if p["mode"] == mode]
        v[f"core.{mode}.plan_ms.p50"] = _p50([p["plan_s"] * 1000.0 for p in mine])
        v[f"core.{mode}.self_ms_per_plan"] = \
            mean([p["self_s"] * 1000.0 for p in mine]) if mine else 0.0
        if mode == "rrtstar":
            v["core.rrtstar.iterations.mean"] = \
                mean([p["iterations"] for p in mine]) if mine else 0.0
            v["core.rrtstar.nodes.mean"] = \
                mean([p["nodes"] for p in mine]) if mine else 0.0

    def per_plan(value: float) -> float:
        return _ratio(value, n_plans)

    def cache_share(name: str) -> float:
        hits = sum(p["caches"].get(name, [0, 0])[0] for p in plans)
        misses = sum(p["caches"].get(name, [0, 0])[1] for p in plans)
        return _ratio(hits, hits + misses)

    v["core.collision.motion_calls_per_plan"] = per_plan(d.calls("core.collision.motion"))
    v["core.collision.motion_ms_per_plan"] = per_plan(d.total_ms("core.collision.motion"))
    v["core.collision.batch_calls_per_plan"] = per_plan(d.calls("core.collision.batch"))
    v["core.collision.batch_edges_per_call.mean"] = _ratio(
        d.agg["core.collision.batch"][3], d.calls("core.collision.batch"))
    v["core.collision.batch_ms_per_plan"] = per_plan(d.total_ms("core.collision.batch"))
    v["core.collision.config_calls_per_plan"] = per_plan(d.calls("core.collision.config"))
    v["core.collision.config_ms_per_plan"] = per_plan(d.total_ms("core.collision.config"))
    v["core.collision.edge_cache_hit_share"] = cache_share("edge")
    v["core.collision.config_cache_hit_share"] = cache_share("collision")
    v["core.neighbors.nearest_calls_per_plan"] = per_plan(d.calls("core.neighbors.nearest"))
    v["core.neighbors.nearest_ms_per_plan"] = per_plan(d.total_ms("core.neighbors.nearest"))
    v["core.neighbors.neighborhood_calls_per_plan"] = per_plan(
        d.calls("core.neighbors.neighborhood"))
    v["core.neighbors.neighborhood_ms_per_plan"] = per_plan(
        d.total_ms("core.neighbors.neighborhood"))
    v["core.neighbors.insert_ms_per_plan"] = per_plan(d.total_ms("core.neighbors.insert"))
    v["core.neighbors.neighborhood_cache_hit_share"] = cache_share("neighborhood")
    v["core.robots.fk_calls_per_plan"] = per_plan(d.calls("core.robots.fk"))
    v["core.robots.fk_configs_per_plan"] = per_plan(d.agg["core.robots.fk"][3])
    v["core.robots.fk_ms_per_plan"] = per_plan(d.total_ms("core.robots.fk"))
    v["kernels.batch.calls_per_plan"] = per_plan(d.calls("kernels.batch"))
    v["kernels.batch.ms_per_plan"] = per_plan(d.total_ms("kernels.batch"))
    v["kernels.batch.computed_mb_per_plan"] = per_plan(
        d.agg["kernels.batch"][3] / 1e6)

    # ---- exact counters over the first planned requests
    planned = sorted((r for r in reqs if r.macs),
                     key=lambda r: r.seq)[:COUNTER_PLANS]
    v["core.counters.macs_per_plan"] = \
        mean([sum(r.macs.values()) for r in planned]) if planned else 0.0
    for category in CATEGORIES:
        v[f"core.counters.macs_per_plan.{category}"] = \
            mean([r.macs.get(category, 0.0) for r in planned]) if planned else 0.0

    # ---- runtime.gc, within the measured window
    lo = min(r.start for r in reqs)
    hi = max(r.end for r in reqs)
    pauses = [(role, g) for role, g in d.gc if lo <= g[1] <= hi]
    v["runtime.gc.collections_per_request"] = _ratio(len(pauses), n_req)
    v["runtime.gc.gen2_collections_per_request"] = _ratio(
        sum(1 for _, g in pauses if g[0] == 2), n_req)
    v["runtime.gc.pause_ms_per_request"] = _ratio(
        sum(g[2] - g[1] for _, g in pauses) * 1000.0, n_req)
    planning_pause = sum(g[2] - g[1] for role, g in pauses
                         if role in ("worker", "libplan"))
    v["runtime.gc.pause_share"] = _ratio(planning_pause,
                                         sum(p["plan_s"] for p in plans))

    # ---- whole run
    if serving:
        spans = [r.late_s + (handled[r.request_id][1] - handled[r.request_id][0])
                 if r.request_id in handled else r.late_s for r in reqs]
    else:
        plan_of = {p["rid"]: p["plan_s"] for p in plans}
        spans = [(setups[r.request_id][1] - setups[r.request_id][0]
                  if r.request_id in setups else 0.0)
                 + plan_of.get(r.request_id, 0.0) for r in reqs]
    total = sum(r.latency_s for r in reqs)
    v["unattributed_share"] = _ratio(
        sum(r.latency_s - s for r, s in zip(reqs, spans)), total)
    v["trace.overhead_share"] = overhead_share(base.requests, reqs)

    if set(PER_LAYER) != set(v):
        raise RuntimeError("per-layer metrics computed differ from "
                           f"BENCHMARK.json: {sorted(set(PER_LAYER) ^ set(v))}")
    return {name: {"value": float(v[name]), "unit": unit}
            for name, unit in PER_LAYER.items()}


def overhead_share(untraced, traced) -> float:
    """(traced − untraced) p50 latency over untraced, on the requests both
    runs completed (the same seeded inputs in the same order)."""
    common = min(len(untraced), len(traced))
    a = p50([r.latency_s for r in sorted(untraced, key=lambda r: r.seq)[:common]])
    b = p50([r.latency_s for r in sorted(traced, key=lambda r: r.seq)[:common]])
    return (b - a) / a
