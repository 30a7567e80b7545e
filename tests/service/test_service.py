"""End-to-end service behaviour: caching, coalescing, telemetry, CLIs."""

import json
from dataclasses import replace

import pytest

from repro.service import PlanningService, build_requests
from repro.service.pool import PoolConfig
from tests.service.test_request import make_request

FAST_POOL = PoolConfig(num_workers=2, default_timeout_s=20.0, max_retries=1,
                       backoff_base_s=0.01, poll_interval_s=0.01)


class TestCachingDeterminism:
    def test_same_seed_and_config_hits_cache(self):
        with PlanningService(pool_config=FAST_POOL) as service:
            first = service.run_batch([make_request(seed=4, request_id="a")])[0]
            second = service.run_batch([make_request(seed=4, request_id="b")])[0]
        assert first.status == "ok" and not first.cache_hit
        assert second.cache_hit and second.request_id == "b"
        # The hit is the planner's deterministic output, byte for byte.
        assert second.path == first.path
        assert second.path_cost == first.path_cost
        assert second.op_events == first.op_events
        assert service.cache.stats()["hits"] == 1

    def test_different_seed_misses(self):
        service = PlanningService(num_workers=0)
        service.run_batch([make_request(seed=4)])
        miss = service.run_batch([make_request(seed=5)])[0]
        assert not miss.cache_hit
        assert service.cache.stats()["hits"] == 0

    def test_duplicates_within_batch_coalesce(self):
        service = PlanningService(num_workers=0)
        batch = [make_request(seed=4, request_id=f"r{i}") for i in range(3)]
        responses = service.run_batch(batch)
        assert [r.request_id for r in responses] == ["r0", "r1", "r2"]
        assert not responses[0].cache_hit
        assert responses[1].cache_hit and responses[2].cache_hit
        assert responses[1].path == responses[0].path
        # Only one planning run actually happened.
        executed = [r for r in service.telemetry.records if not r.cache_hit]
        assert len(executed) == 1
        stats = service.cache.stats()
        assert stats["hits"] == 2 and stats["misses"] == 1

    def test_failures_are_not_cached(self):
        service = PlanningService(num_workers=0)
        bad = replace(make_request(seed=4), fault="error")
        first = service.run_batch([bad])[0]
        assert first.status == "error"
        assert len(service.cache) == 0
        retry = service.run_batch([make_request(seed=4)])[0]
        assert retry.status == "ok" and not retry.cache_hit


class TestInlineMode:
    def test_inline_matches_pooled(self):
        request = make_request(seed=6)
        inline = PlanningService(num_workers=0).run_batch([request])[0]
        with PlanningService(pool_config=FAST_POOL) as service:
            pooled = service.run_batch([replace(request)])[0]
        assert inline.op_events == pooled.op_events
        assert inline.path == pooled.path


class TestServiceSummary:
    def test_summary_schema(self):
        service = PlanningService(num_workers=0)
        service.run_batch([make_request(seed=s) for s in (1, 1, 2)])
        summary = service.summary(include_records=True)
        assert summary["jobs"] == 3 and summary["ok"] == 3
        assert summary["cache"]["hits"] == 1
        for axis in ("plan", "queue_wait", "wall"):
            assert set(summary["latency_s"][axis]) == {"p50", "p95", "mean", "max"}
        assert len(summary["records"]) == 3
        json.dumps(summary)  # JSON-safe throughout


class TestBuildRequests:
    def test_generates_seeded_batch(self):
        requests = build_requests(jobs=4, seed=10, samples=50)
        assert len(requests) == 4
        seeds = [r.config.seed for r in requests]
        assert seeds == [10, 11, 12, 13]
        assert len({r.cache_key() for r in requests}) == 4

    def test_duplicate_repeats_work(self):
        requests = build_requests(jobs=2, seed=0, samples=50, duplicate=2)
        assert len(requests) == 4
        assert requests[0].cache_key() == requests[2].cache_key()
        assert requests[0].request_id != requests[2].request_id

    def test_inject_arms_one_fault(self):
        requests = build_requests(jobs=3, seed=0, samples=50, inject="hang:1")
        assert [r.fault for r in requests] == [None, "hang", None]
        with pytest.raises(ValueError):
            build_requests(jobs=2, seed=0, inject="hang:9")

    def test_tasks_override(self):
        from repro.workloads import random_task

        tasks = [random_task("mobile2d", 4, seed=77)]
        requests = build_requests(tasks=tasks, seed=3, samples=50)
        assert len(requests) == 1
        assert requests[0].task is tasks[0]
        assert requests[0].config.seed == 3

    def test_lanes_keyword_is_gone(self):
        # Batches are sized by config.wave_width, not by in-job lanes.
        with pytest.raises(TypeError):
            build_requests(jobs=1, seed=0, samples=50, lanes=2)


class TestCliBatchMode:
    def test_jobs_flag_is_rejected(self, capsys):
        # Batches go through ``python -m repro.service``; the one-shot CLI
        # has no batch flags left.
        from repro.cli import main

        with pytest.raises(SystemExit) as info:
            main(["--jobs", "1"])
        assert info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_one_shot_path_unchanged(self, capsys):
        from repro.cli import main

        code = main(["--robot", "mobile2d", "--obstacles", "8",
                     "--samples", "150", "--seed", "1", "--goal-bias", "0.2"])
        out = capsys.readouterr().out
        assert "2D Mobile" in out and code in (0, 1)


class TestServiceMain:
    def test_module_entry_prints_summary(self, capsys, tmp_path):
        from repro.service.__main__ import main

        out_file = tmp_path / "telemetry.json"
        code = main(["--jobs", "4", "--workers", "0", "--samples", "60",
                     "--obstacles", "6", "--duplicate", "2",
                     "--out", str(out_file)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["jobs"] == 8
        assert summary["cache"]["hits"] == 4
        payload = json.loads(out_file.read_text())
        assert len(payload["records"]) == 8

    def test_jobs_route_through_pool(self, capsys):
        from repro.service.__main__ import main

        code = main(["--jobs", "8", "--workers", "2", "--samples", "60",
                     "--obstacles", "6", "--duplicate", "2"])
        captured = capsys.readouterr()
        assert code == 0
        summary = json.loads(captured.out)
        assert summary["jobs"] == 16 and summary["ok"] == 16
        assert summary["cache"]["hit_rate"] > 0.0
        assert summary["latency_s"]["plan"]["p50"] is not None
        assert summary["latency_s"]["plan"]["p95"] is not None
        assert "job-000: ok" in captured.err

    def test_jobs_survive_injected_timeout(self, capsys):
        from repro.service.__main__ import main

        code = main(["--jobs", "4", "--workers", "2", "--samples", "60",
                     "--obstacles", "6", "--inject", "hang:1",
                     "--timeout", "0.5"])
        assert code == 2  # failure reported, service survived
        summary = json.loads(capsys.readouterr().out)
        assert summary["failed"] == {"timeout": 1}
        assert summary["ok"] == 3
        assert summary["workers"]["restarts"] == 1

    def test_portfolio_names_a_winner_per_job(self, capsys):
        from repro.service.__main__ import main

        code = main(["--jobs", "2", "--workers", "2", "--samples", "60",
                     "--obstacles", "6", "--portfolio", "connect,wave"])
        captured = capsys.readouterr()
        assert code == 0
        lines = [line for line in captured.err.splitlines()
                 if line.startswith("job-")]
        assert len(lines) == 2
        for line in lines:
            assert "race[connect+wave]" in line
            winner = line.split("winner=")[1].split()[0]
            assert winner in ("connect", "wave")
        summary = json.loads(captured.out)
        assert summary["jobs"] == 4  # every race member is a job

    def test_mode_flag_plans_with_connect(self, tmp_path, capsys):
        from repro.service.__main__ import main

        out_file = tmp_path / "telemetry.json"
        code = main(["--jobs", "2", "--workers", "0", "--samples", "60",
                     "--obstacles", "6", "--mode", "connect",
                     "--out", str(out_file)])
        assert code == 0
        rows = json.loads(out_file.read_text())["records"]
        assert {row["attributes"]["mode"] for row in rows} == {"connect"}

    def test_module_entry_reports_failures(self, capsys):
        from repro.service.__main__ import main

        code = main(["--jobs", "2", "--workers", "2", "--samples", "60",
                     "--obstacles", "6", "--inject", "error:0",
                     "--retries", "0"])
        assert code == 2
        summary = json.loads(capsys.readouterr().out)
        assert summary["failed"] == {"error": 1}

    def test_lanes_flag_is_rejected(self, capsys):
        from repro.service.__main__ import main

        with pytest.raises(SystemExit) as exited:
            main(["--jobs", "1", "--workers", "0", "--lanes", "2"])
        assert exited.value.code == 2
        assert "--lanes" in capsys.readouterr().err
