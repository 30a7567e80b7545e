"""Unit tests for telemetry records, percentiles, and the summary schema."""

import json

import pytest

from repro.service.request import PlanResponse
from repro.service.telemetry import (
    JobRecord,
    TelemetrySink,
    percentile,
    record_from_response,
)


class TestPercentile:
    def test_empty_is_none(self):
        assert percentile([], 50.0) is None

    def test_single_value(self):
        assert percentile([3.0], 95.0) == pytest.approx(3.0)

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)

    def test_matches_numpy_linear(self):
        import numpy as np

        values = [0.3, 1.7, 0.1, 4.2, 2.8, 0.9, 3.3]
        for q in (0.0, 25.0, 50.0, 95.0, 100.0):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q))
            )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


def make_record(status="ok", cache_hit=False, plan=0.1, wait=0.0, **over):
    fields = dict(
        job_id=0, request_id="r", status=status, cache_hit=cache_hit,
        attempts=1, worker_id=0, queue_wait_s=wait, plan_seconds=plan,
        wall_seconds=plan + wait, success=status == "ok", path_cost=1.0,
        iterations=10, num_nodes=5, total_macs=100.0,
        collision_check_macs=60.0, neighbor_search_macs=30.0, samples=10,
    )
    fields.update(over)
    return JobRecord(**fields)


class TestSummary:
    def test_counts_and_failures(self):
        sink = TelemetrySink()
        sink.record(make_record())
        sink.record(make_record(status="timeout"))
        sink.record(make_record(status="crash"))
        summary = sink.summary()
        assert summary["jobs"] == 3 and summary["ok"] == 1
        assert summary["failed"] == {"timeout": 1, "crash": 1}

    def test_cache_hits_excluded_from_plan_latency(self):
        sink = TelemetrySink()
        sink.record(make_record(plan=1.0))
        sink.record(make_record(plan=1.0, cache_hit=True))
        latency = sink.summary()["latency_s"]["plan"]
        assert latency["max"] == pytest.approx(1.0)
        # ops count served work (hit included), ops_executed only real runs
        summary = sink.summary()
        assert summary["ops"]["total_macs"] == pytest.approx(200.0)
        assert summary["ops_executed"]["total_macs"] == pytest.approx(100.0)

    def test_percentile_block(self):
        sink = TelemetrySink()
        for plan in (0.1, 0.2, 0.3, 0.4):
            sink.record(make_record(plan=plan))
        block = sink.summary()["latency_s"]["plan"]
        assert block["p50"] == pytest.approx(0.25)
        assert block["p95"] == pytest.approx(0.385)
        assert block["max"] == pytest.approx(0.4)

    def test_summary_is_json_serialisable(self, tmp_path):
        sink = TelemetrySink()
        sink.record(make_record())
        path = tmp_path / "telemetry.json"
        sink.dump(path, cache_stats={"hits": 0}, pool_stats={"count": 1})
        payload = json.loads(path.read_text())
        assert payload["jobs"] == 1
        assert len(payload["records"]) == 1
        assert payload["records"][0]["status"] == "ok"

    def test_dump_is_schema_stamped(self, tmp_path):
        # Version + emitter identity let repro.obs.rca reject or upgrade
        # mismatched dumps instead of mis-parsing them.
        sink = TelemetrySink()
        sink.record(make_record())
        path = tmp_path / "telemetry.json"
        sink.dump(path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == 2
        assert payload["emitter"] == "repro.service.telemetry"
        assert payload["measure"] == "plan_seconds"
        # Drill-down rows: status and cache outcome are labels too.
        attributes = payload["records"][0]["attributes"]
        assert attributes["status"] == "ok"
        assert attributes["cache_hit"] == "miss"

    def test_empty_sink_summary(self):
        summary = TelemetrySink().summary()
        assert summary["jobs"] == 0
        assert summary["planning_success_rate"] is None
        assert summary["latency_s"]["plan"]["p50"] is None


class TestRecordFromResponse:
    def test_category_macs_extracted(self):
        response = PlanResponse(
            request_id="r", status="ok", success=True,
            op_events={"sample": 12, "dist": 5, "sat_obb_obb": 2},
            op_macs={"sample": 24.0, "dist": 15.0, "sat_obb_obb": 48.0},
            plan_seconds=0.5,
        )
        record = record_from_response(response, job_id=7, queue_wait_s=0.1)
        assert record.job_id == 7
        assert record.samples == 12
        assert record.neighbor_search_macs == pytest.approx(15.0)
        assert record.collision_check_macs == pytest.approx(48.0)
        assert record.total_macs == pytest.approx(87.0)
        assert record.attributes == {}  # no request in scope

    def test_request_attributes_flattened_onto_the_record(self):
        from repro.core.moped import config_for_variant
        from repro.service.request import PlanRequest
        from repro.service.telemetry import request_attributes
        from repro.workloads import random_task

        task = random_task("mobile2d", 4, seed=0)
        config = config_for_variant("full", max_samples=30, seed=0)
        request = PlanRequest(task=task, config=config)
        attrs = request_attributes(request)
        assert attrs["robot"] == "mobile2d"
        assert attrs["obstacles"] == "4"
        assert attrs["fault"] == "clean"
        assert attrs["mode"] in ("scalar", "wave")
        response = PlanResponse(request_id=request.request_id, status="ok",
                                success=True, plan_seconds=0.1)
        record = record_from_response(response, request=request)
        assert record.attributes == attrs
