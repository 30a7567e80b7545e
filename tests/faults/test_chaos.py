"""Tests for the chaos harness: schedules, determinism, and a live run."""

import numpy as np
import pytest

from repro.errors import InvalidRequest
from repro.faults.chaos import (
    CATEGORIES,
    ChaosInvariantError,
    build_schedule,
    run_chaos,
    schedule_digest,
)
from repro.service.request import TERMINAL_STATUSES


class TestSchedule:
    def test_weights_positive_and_statuses_terminal(self):
        for name, weight, expected in CATEGORIES:
            assert weight > 0, name
            assert expected, name
            assert set(expected) <= set(TERMINAL_STATUSES), name

    def test_deterministic_under_seed(self, tmp_path):
        a = build_schedule(3, 40, flag_dir=str(tmp_path))
        b = build_schedule(3, 40, flag_dir=str(tmp_path))
        assert schedule_digest(a) == schedule_digest(b)
        assert [j.category for j in a] == [j.category for j in b]

    def test_digest_ignores_the_flag_directory(self, tmp_path):
        # The replay fingerprint: two runs build their flaky flags in
        # different temp directories yet must print the same digest.
        dirs = [tmp_path / "run-a", tmp_path / "run-b"]
        for path in dirs:
            path.mkdir()
        a, b = (build_schedule(3, 40, flag_dir=str(path)) for path in dirs)
        assert any(j.category == "flaky" for j in a), "no flaky job drawn"
        assert [j.request.fault for j in a] != [j.request.fault for j in b]
        assert schedule_digest(a) == schedule_digest(b)

    def test_different_seeds_differ(self, tmp_path):
        a = build_schedule(1, 40, flag_dir=str(tmp_path))
        b = build_schedule(2, 40, flag_dir=str(tmp_path))
        assert schedule_digest(a) != schedule_digest(b)

    def test_malformed_jobs_carry_nan_and_fail_validation(self, tmp_path):
        schedule = build_schedule(0, 120, flag_dir=str(tmp_path))
        malformed = [j for j in schedule if j.category == "malformed"]
        assert malformed, "no malformed jobs in 120 draws?"
        for job in malformed:
            assert np.isnan(np.asarray(job.request.task.start)).any()
            with pytest.raises(InvalidRequest):
                job.request.validate()

    def test_degraded_jobs_share_one_cache_key(self, tmp_path):
        schedule = build_schedule(0, 120, flag_dir=str(tmp_path))
        degraded = [j for j in schedule if j.category == "degraded"]
        assert len(degraded) >= 2, "need duplicates to exercise coalescing"
        keys = {j.request.cache_key() for j in degraded}
        assert len(keys) == 1

    def test_faulted_jobs_carry_their_hook(self, tmp_path):
        schedule = build_schedule(0, 120, flag_dir=str(tmp_path))
        by_category = {}
        for job in schedule:
            by_category.setdefault(job.category, job)
        assert by_category["hang"].request.fault == "hang"
        assert by_category["crash"].request.fault == "crash"
        assert by_category["corrupt"].request.fault == "corrupt"
        assert by_category["healthy"].request.fault is None
        flaky = by_category.get("flaky")
        if flaky is not None:
            assert flaky.request.fault.startswith("flaky:")


class TestRunChaos:
    def test_small_live_run_holds_every_invariant(self):
        # A miniature end-to-end chaos run: real pool, real faults.  The
        # harness raises ChaosInvariantError on any violation, so a clean
        # report *is* the assertion; spot-check the bookkeeping anyway.
        report = run_chaos(seed=0, jobs=12, workers=2, log=lambda *_: None)
        assert report.jobs == 12
        assert sum(report.statuses.values()) == 12
        assert sum(report.categories.values()) == 12
        assert set(report.statuses) <= set(TERMINAL_STATUSES)
        assert len(report.digest) == 64
        payload = report.to_dict()
        assert payload["seed"] == 0
        assert payload["pool"]["count"] == 2
        # Drill-down wiring: the report is schema-stamped and carries one
        # category-tagged telemetry row per job, so repro.obs.rca can
        # attribute fault-induced tail latency to its fault site.
        assert payload["schema"] == 2
        assert payload["emitter"] == "repro.faults.chaos"
        assert len(payload["records"]) == 12
        categories = {row["attributes"]["category"]
                      for row in payload["records"]}
        assert categories <= set(report.categories)
        from repro.obs.rca import read_dump

        rows = read_dump(payload).records
        assert len(rows) == 12
        assert {r.attributes["fault"] for r in rows} <= {"clean", "armed"}

    def test_cli_quick_smoke(self, capsys):
        from repro.faults.__main__ import main

        code = main(["chaos", "--jobs", "8", "--seed", "1", "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert '"digest"' in out
