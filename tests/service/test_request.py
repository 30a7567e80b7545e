"""Unit tests for the service wire format and deterministic hashing."""

import json
from dataclasses import replace

import pytest

from repro.core.moped import config_for_variant
from repro.service.request import (
    PlanRequest,
    PlanResponse,
    config_fingerprint,
    failure_response,
    task_fingerprint,
)
from repro.workloads import random_task


def make_request(seed=0, **overrides):
    task = random_task("mobile2d", 6, seed=seed)
    config = config_for_variant("full", max_samples=80, seed=seed)
    fields = dict(task=task, config=config)
    fields.update(overrides)
    return PlanRequest(**fields)


class TestFingerprints:
    def test_task_fingerprint_deterministic(self):
        a = random_task("mobile2d", 6, seed=3)
        b = random_task("mobile2d", 6, seed=3)
        assert task_fingerprint(a) == task_fingerprint(b)

    def test_task_fingerprint_distinguishes_seeds(self):
        a = random_task("mobile2d", 6, seed=3)
        b = random_task("mobile2d", 6, seed=4)
        assert task_fingerprint(a) != task_fingerprint(b)

    def test_task_fingerprint_ignores_task_id(self):
        import dataclasses

        a = random_task("mobile2d", 6, seed=3)
        b = dataclasses.replace(a, task_id=9)  # same problem, new label
        assert task_fingerprint(a) == task_fingerprint(b)

    def test_task_fingerprint_survives_json_round_trip(self, tmp_path):
        from repro.io import load_task, save_task

        task = random_task("mobile2d", 6, seed=5)
        path = tmp_path / "task.json"
        save_task(task, path)
        assert task_fingerprint(load_task(path)) == task_fingerprint(task)

    def test_config_fingerprint_sensitive_to_every_knob(self):
        base = config_for_variant("full", max_samples=80, seed=0)
        assert config_fingerprint(base) == config_fingerprint(
            config_for_variant("full", max_samples=80, seed=0)
        )
        for change in (dict(seed=1), dict(max_samples=81), dict(goal_bias=0.3)):
            assert config_fingerprint(replace(base, **change)) != config_fingerprint(base)


class TestCacheKey:
    def test_same_work_same_key(self):
        assert make_request(seed=2).cache_key() == make_request(seed=2).cache_key()

    def test_key_changes_with_smooth(self):
        base = make_request(seed=2)
        assert replace(base, smooth=True).cache_key() != base.cache_key()

    def test_lanes_is_not_a_request_field(self):
        with pytest.raises(TypeError):
            make_request(lanes=4)
        assert not hasattr(make_request(seed=2), "lanes")

    def test_key_ignores_labels_and_timeout(self):
        base = make_request(seed=2)
        relabelled = replace(base, request_id="elsewhere", timeout_s=5.0)
        assert relabelled.cache_key() == base.cache_key()

    def test_validation(self):
        with pytest.raises(ValueError):
            make_request(timeout_s=0.0)


class TestPlanResponse:
    def test_dict_round_trip(self):
        response = PlanResponse(
            request_id="r1", status="ok", success=True, path_cost=12.5,
            num_nodes=40, iterations=80, path=[[0.0, 0.0], [1.0, 2.0]],
            op_events={"dist": 10}, op_macs={"dist": 30.0}, plan_seconds=0.2,
        )
        clone = PlanResponse.from_dict(json.loads(json.dumps(response.to_dict())))
        assert clone == response

    def test_counter_rebuild(self):
        response = PlanResponse(
            request_id="r1", status="ok",
            op_events={"dist": 4}, op_macs={"dist": 12.0},
        )
        counter = response.counter()
        assert counter.events["dist"] == 4
        assert response.total_macs == pytest.approx(12.0)
        assert response.macs_by_category()["neighbor_search"] == pytest.approx(12.0)

    def test_as_cache_hit_relabels(self):
        response = PlanResponse(request_id="orig", status="ok", worker_id=3)
        hit = response.as_cache_hit("later")
        assert hit.cache_hit and hit.request_id == "later"
        assert hit.worker_id is None and hit.attempts == 0
        assert not response.cache_hit  # original untouched

    def test_failure_response_rejects_ok(self):
        request = make_request()
        with pytest.raises(ValueError):
            failure_response(request, "ok", "not a failure")
        failure = failure_response(request, "timeout", "budget blown")
        assert failure.status == "timeout" and not failure.success
