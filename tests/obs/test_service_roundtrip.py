"""Observability through the service: worker spans ship back, tagged.

The round trip under test: a traced request plans inside a worker under a
private tracer/registry, the drained buffers cross the pipe as plain data,
and the supervisor absorbs them into the ambient instruments tagged with
the job id that ran them.
"""

import pytest

from repro import obs
from repro.core.moped import config_for_variant
from repro.service import PlanningService, build_requests
from repro.service.pool import PoolConfig

CONFIG = config_for_variant("full", max_samples=120, goal_bias=0.1)


@pytest.fixture
def ambient():
    """Fresh enabled tracer+registry installed as the process globals."""
    previous = obs.install(
        obs.Tracer(enabled=True), obs.MetricsRegistry(enabled=True)
    )
    yield obs.get_tracer(), obs.get_registry()
    obs.restore(previous)


def run_traced_batch(num_workers: int, jobs: int = 2):
    requests = build_requests(CONFIG, jobs=jobs, trace=True)
    pool_config = None
    if num_workers:
        pool_config = PoolConfig(num_workers=num_workers, default_timeout_s=30.0,
                                 poll_interval_s=0.01)
    with PlanningService(num_workers=num_workers, pool_config=pool_config) as svc:
        responses = svc.run_batch(requests)
        summary = svc.summary()
    return requests, responses, summary, svc


class TestInlineRoundTrip:
    def test_worker_spans_arrive_tagged_with_job_id(self, ambient):
        tracer, _ = ambient
        _, responses, _, _ = run_traced_batch(num_workers=0)
        assert all(r.status == "ok" for r in responses)
        job_spans = [s for s in tracer.spans if s["name"] == "job"]
        assert len(job_spans) == 2
        # job ids are assigned in submission order; request ids must match.
        tags = sorted(
            (s["args"]["job_id"], s["args"]["request_id"]) for s in job_spans
        )
        assert tags == [(0, "job-000"), (1, "job-001")]
        # The planner's plan spans inherit the same tag (absorb merges
        # into every span); planner phases are not spans.
        plan_spans = [s for s in tracer.spans if s["name"] == "plan"]
        assert plan_spans and all("job_id" in s["args"] for s in plan_spans)
        assert not any(s["name"] in obs.PHASES for s in tracer.spans)

    def test_metric_deltas_merge_into_ambient_registry(self, ambient):
        _, registry = ambient
        _, responses, _, _ = run_traced_batch(num_workers=0)
        seconds = registry.get("repro_phase_seconds_total")
        assert seconds is not None
        assert seconds.value(phase="sample") > 0
        plans = registry.get("repro_plans_total")
        assert sum(plans.series.values()) == len(responses)

    def test_phase_seconds_reach_telemetry_axes(self, ambient):
        _, _, summary, _ = run_traced_batch(num_workers=0)
        phases = summary["latency_s"]["phases"]
        assert "sample" in phases and "collision" in phases
        assert phases["collision"]["max"] > 0

    def test_response_payloads_are_plain_data(self, ambient):
        import json

        _, responses, _, _ = run_traced_batch(num_workers=0, jobs=1)
        (response,) = responses
        assert response.trace_spans and response.metric_deltas
        json.dumps(response.trace_spans)  # pipe-safe: pure JSON types
        json.dumps(response.metric_deltas)
        assert set(response.phase_seconds) <= set(obs.PHASES)

    def test_traced_requests_bypass_cache(self, ambient):
        requests = build_requests(CONFIG, jobs=1, trace=True, duplicate=2)
        with PlanningService(num_workers=0) as svc:
            responses = svc.run_batch(requests)
        assert not any(r.cache_hit for r in responses)
        assert svc.cache.stats()["hits"] == 0


class TestPooledRoundTrip:
    def test_spans_cross_the_process_boundary_tagged(self, ambient):
        tracer, registry = ambient
        _, responses, _, _ = run_traced_batch(num_workers=1)
        assert all(r.status == "ok" for r in responses)
        job_spans = [s for s in tracer.spans if s["name"] == "job"]
        assert sorted(s["args"]["job_id"] for s in job_spans) == [0, 1]
        # Worker spans keep the worker's pid: a separate Perfetto track.
        assert all(s["pid"] != tracer.pid for s in job_spans)
        # The supervisor adds its own service.job span per settled job.
        svc_spans = [s for s in tracer.spans if s["name"] == "service.job"]
        assert sorted(s["args"]["job_id"] for s in svc_spans) == [0, 1]
        assert all(s["pid"] == tracer.pid for s in svc_spans)
        assert registry.get("repro_phase_seconds_total") is not None

    def test_untraced_batch_ships_no_buffers(self, ambient):
        tracer, _ = ambient
        requests = build_requests(CONFIG, jobs=1)  # trace=False
        with PlanningService(num_workers=1,
                             pool_config=PoolConfig(num_workers=1,
                                                    poll_interval_s=0.01)) as svc:
            (response,) = svc.run_batch(requests)
        assert response.status == "ok"
        assert response.trace_spans == [] and response.metric_deltas == {}
        assert [s["name"] for s in tracer.spans if s["name"] == "job"] == []
        # The phase split is not a trace payload: every executed response
        # carries it.
        assert {"sample", "nearest", "collision"} <= set(response.phase_seconds)
        assert set(response.phase_seconds) <= set(obs.PHASES)


class TestDisabledDefaults:
    def test_untraced_plan_leaves_global_instruments_empty(self):
        # No fixture: the real (disabled) globals must stay untouched.
        requests = build_requests(CONFIG, jobs=1)
        with PlanningService(num_workers=0) as svc:
            (response,) = svc.run_batch(requests)
        assert response.status == "ok"
        assert obs.get_tracer().spans == []
        assert len(obs.get_registry()) == 0
