"""Worker-pool behaviour: fan-out, timeouts, crash recovery, retries."""

import time
from dataclasses import replace

import pytest

from repro.service.jobs import JobQueue
from repro.service.pool import PoolConfig, WorkerPool
from repro.service.request import PlanRequest
from repro.service.worker import execute_request
from tests.service.test_request import make_request

FAST = dict(default_timeout_s=20.0, max_retries=1,
            backoff_base_s=0.01, poll_interval_s=0.01)


def run_pool(requests, **config_overrides):
    config = PoolConfig(**{**dict(num_workers=2), **FAST, **config_overrides})
    queue = JobQueue()
    for request in requests:
        queue.submit(request, time.monotonic())
    with WorkerPool(config) as pool:
        done = pool.run(queue)
    return done, pool


class TestExecuteRequest:
    def test_plans_deterministically(self):
        a = execute_request(make_request(seed=1))
        b = execute_request(make_request(seed=1))
        assert a.status == "ok"
        assert a.path == b.path
        assert a.op_events == b.op_events
        assert a.iterations == b.iterations


class TestFanOut:
    def test_end_to_end_over_eight_tasks(self):
        requests = [make_request(seed=s, request_id=f"job-{s}") for s in range(8)]
        done, pool = run_pool(requests, num_workers=4)
        assert len(done) == 8
        assert all(job.response.status == "ok" for job in done)
        assert pool.restarts == 0
        # Work actually spread across the pool.
        assert len({job.response.worker_id for job in done}) > 1
        # Every job's timings are coherent.
        for job in done:
            assert job.attempts == 1
            assert job.queue_wait_s >= 0.0
            assert job.wall_seconds >= job.response.plan_seconds * 0.5

    def test_pool_results_match_inline_execution(self):
        request = make_request(seed=3)
        done, _ = run_pool([request], num_workers=1)
        pooled = done[0].response
        inline = execute_request(request)
        assert pooled.op_events == inline.op_events
        assert pooled.path == inline.path
        assert pooled.path_cost == inline.path_cost


class TestTimeouts:
    def test_hang_becomes_structured_timeout(self):
        hang = replace(make_request(seed=0, request_id="stuck"), fault="hang",
                       timeout_s=0.4)
        healthy = [make_request(seed=s) for s in (1, 2, 3)]
        done, pool = run_pool([hang] + healthy)
        by_id = {job.request.request_id: job for job in done}
        stuck = by_id["stuck"].response
        assert stuck.status == "timeout"
        assert stuck.success is False
        assert "budget" in stuck.error
        assert pool.restarts == 1  # the hung worker was replaced
        others = [j.response for j in done if j.request.request_id != "stuck"]
        assert all(r.status == "ok" for r in others)

    def test_timeouts_not_retried_by_default(self):
        hang = replace(make_request(seed=0), fault="hang", timeout_s=0.3)
        done, _ = run_pool([hang])
        assert done[0].attempts == 1
        assert done[0].response.status == "timeout"


class TestCrashes:
    def test_crash_exhausts_retries_then_structured_failure(self):
        crash = replace(make_request(seed=0, request_id="boom"), fault="crash")
        healthy = [make_request(seed=s) for s in (1, 2)]
        done, pool = run_pool([crash] + healthy, max_retries=1)
        by_id = {job.request.request_id: job for job in done}
        boom = by_id["boom"]
        assert boom.response.status == "crash"
        assert boom.attempts == 2  # first run + one retry
        assert len(boom.failures) == 2
        assert pool.restarts >= 2
        assert all(j.response.status == "ok"
                   for j in done if j.request.request_id != "boom")

    def test_flaky_crash_recovers_on_retry(self, tmp_path):
        flag = tmp_path / "crash-once"
        flag.touch()
        flaky = replace(make_request(seed=0, request_id="flaky"),
                        fault=f"flaky:{flag}")
        done, pool = run_pool([flaky, make_request(seed=1)])
        by_id = {job.request.request_id: job for job in done}
        assert by_id["flaky"].response.status == "ok"
        assert by_id["flaky"].attempts == 2
        assert not flag.exists()  # first attempt consumed the flag
        assert pool.restarts == 1

    def test_injected_error_is_structured_and_retried(self):
        bad = replace(make_request(seed=0, request_id="err"), fault="error")
        done, pool = run_pool([bad], max_retries=1)
        response = done[0].response
        assert response.status == "error"
        assert "injected worker error" in response.error
        assert done[0].attempts == 2
        assert pool.restarts == 0  # errors don't kill the worker


class TestPoolLifecycle:
    def test_close_is_idempotent_and_run_after_close_raises(self):
        pool = WorkerPool(PoolConfig(num_workers=1, **FAST))
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError):
            pool.run(JobQueue())

    def test_pool_reusable_across_batches(self):
        config = PoolConfig(num_workers=2, **FAST)
        with WorkerPool(config) as pool:
            for seed in (0, 5):
                queue = JobQueue()
                queue.submit(make_request(seed=seed), time.monotonic())
                done = pool.run(queue)
                assert done[0].response.status == "ok"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PoolConfig(num_workers=0)
        with pytest.raises(ValueError):
            PoolConfig(max_retries=-1)
        with pytest.raises(ValueError):
            PoolConfig(default_timeout_s=0.0)
