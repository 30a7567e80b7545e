"""The ``python -m repro.obs report`` profile builder and CLI."""

import json

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import build_report, render_report, report_from_files
from repro.obs.trace import Tracer
from tests.obs.test_trace import FakeClock


def synthetic_artifacts(tmp_path):
    """One deterministic traced 'run': 2 sample + 1 collision phases."""
    clock = FakeClock()
    tracer = Tracer(enabled=True, clock=clock, pid=7, process_name="test")
    for _ in range(2):
        with tracer.span("sample"):
            clock.tick(0.001)
    with tracer.span("collision"):
        clock.tick(0.003)
    with tracer.span("plan"):  # not a phase: lands in other_spans
        clock.tick(0.010)
    trace_path = tmp_path / "t.json"
    tracer.export_chrome(trace_path)

    reg = MetricsRegistry()
    macs = reg.counter("repro_phase_macs_total")
    macs.inc(100, phase="sample")
    macs.inc(900, phase="collision")
    reg.counter("repro_macs_total").inc(1000, category="collision_check")
    metrics_path = tmp_path / "m.prom"
    reg.export(metrics_path)
    return trace_path, metrics_path


class TestBuildReport:
    def test_merges_trace_time_with_metric_macs(self, tmp_path):
        trace, metrics = synthetic_artifacts(tmp_path)
        report = report_from_files(trace=str(trace), metrics=str(metrics))
        rows = {p["phase"]: p for p in report["phases"]}
        assert list(rows) == ["sample", "collision"]  # canonical phase order
        assert rows["sample"]["calls"] == 2
        assert rows["sample"]["total_ms"] == pytest.approx(2.0)
        assert rows["sample"]["mean_us"] == pytest.approx(1000.0)
        assert rows["collision"]["time_pct"] == pytest.approx(60.0)
        assert rows["collision"]["mac_pct"] == pytest.approx(90.0)
        assert report["other_spans"]["plan"]["calls"] == 1
        assert report["categories"] == {"collision_check": 1000.0}

    def test_metrics_alone_provide_phase_times(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("repro_phase_seconds_total").inc(0.5, phase="sample")
        reg.counter("repro_phase_calls_total").inc(5, phase="sample")
        path = tmp_path / "m.prom"
        reg.export(path)
        report = report_from_files(metrics=str(path))
        (row,) = report["phases"]
        assert row["phase"] == "sample"
        assert row["total_ms"] == pytest.approx(500.0)
        assert row["calls"] == 5

    def test_json_registry_export_is_accepted(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("repro_phase_macs_total").inc(10, phase="rewire")
        reg.histogram("repro_plan_seconds", buckets=(1.0,)).observe(0.5)
        path = tmp_path / "m.json"
        reg.export(path)
        report = report_from_files(metrics=str(path))
        assert report["phases"][0]["phase"] == "rewire"

    def test_events_digest(self):
        events = [
            {"event": "batch.start", "run_id": "r1", "ts": 10.0},
            {"event": "job.done", "run_id": "r1", "ts": 11.5},
        ]
        report = build_report(events=events)
        assert report["events"]["count"] == 2
        assert report["events"]["run_ids"] == ["r1"]
        assert report["events"]["span_s"] == pytest.approx(1.5)
        assert report["events"]["by_kind"] == {"batch.start": 1, "job.done": 1}


class TestCli:
    def test_report_renders_table(self, tmp_path, capsys):
        trace, metrics = synthetic_artifacts(tmp_path)
        assert obs_main(["report", "--trace", str(trace),
                         "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "per-phase breakdown" in out
        assert "collision" in out and "MACs by category" in out

    def test_report_json_output(self, tmp_path, capsys):
        trace, metrics = synthetic_artifacts(tmp_path)
        assert obs_main(["report", "--trace", str(trace), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {p["phase"] for p in doc["phases"]} == {"sample", "collision"}

    def test_report_without_inputs_fails(self, capsys):
        assert obs_main(["report"]) == 2
        assert "need --trace" in capsys.readouterr().err


class TestCacheSection:
    """Cache hit/miss/evict counters flow export -> report -> rendering."""

    def _cache_metrics(self, tmp_path, as_json=False):
        reg = MetricsRegistry()
        events = reg.counter("repro_cache_events_total")
        events.inc(30, cache="collision", event="hit")
        events.inc(10, cache="collision", event="miss")
        events.inc(2, cache="collision", event="evict")
        events.inc(5, cache="neighborhood", event="hit")
        events.inc(15, cache="neighborhood", event="miss")
        path = tmp_path / ("m.json" if as_json else "m.prom")
        reg.export(path)
        return path

    @pytest.mark.parametrize("as_json", [False, True])
    def test_caches_golden_export_round_trip(self, tmp_path, as_json):
        """Golden schema: both export formats yield the same caches block."""
        path = self._cache_metrics(tmp_path, as_json=as_json)
        report = report_from_files(metrics=str(path))
        assert report["caches"] == {
            "collision": {
                "hit": 30.0, "miss": 10.0, "evict": 2.0, "hit_rate": 0.75,
            },
            "neighborhood": {
                "hit": 5.0, "miss": 15.0, "evict": 0.0, "hit_rate": 0.25,
            },
        }

    def test_caches_rendered_as_table(self, tmp_path, capsys):
        path = self._cache_metrics(tmp_path)
        assert obs_main(["report", "--metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "software caches" in out
        assert "collision" in out and "neighborhood" in out
        assert "75" in out  # collision hit_%

    def test_no_cache_metrics_no_section(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("repro_phase_seconds_total").inc(0.5, phase="sample")
        path = tmp_path / "m.prom"
        reg.export(path)
        report = report_from_files(metrics=str(path))
        assert report["caches"] == {}

    def test_planner_run_populates_cache_metrics(self, tmp_path):
        """End to end: a wavefront run's exported metrics carry cache events."""
        from repro import obs
        from repro.core.moped import config_for_variant
        from repro.core.robots import get_robot
        from repro.core.rrtstar import plan
        from repro.workloads.generator import random_task

        previous = obs.install(
            obs.Tracer(enabled=False), obs.MetricsRegistry(enabled=True)
        )
        try:
            task = random_task("mobile2d", 12, seed=6)
            config = config_for_variant("v1", max_samples=80, seed=6,
                                        wave_width=8, edge_cache=4096)
            plan(get_robot("mobile2d"), task, config)
            path = tmp_path / "run.prom"
            obs.get_registry().export(path)
        finally:
            obs.restore(previous)
        report = report_from_files(metrics=str(path))
        # The wavefront planner validates edges whole, so with the
        # whole-edge cache enabled explicitly (auto leaves it off) its cache
        # traffic lands there (the per-configuration cache still serves the
        # config_results entry point).
        edge = report["caches"]["edge"]
        assert edge["hit"] + edge["miss"] > 0
        assert 0.0 <= edge["hit_rate"] <= 1.0
        validation = report["edge_validation"]
        assert validation["motion_checks"] > 0
        assert validation["by_path"].get("edge_kernel", 0) > 0
        assert validation["ladders_observed"] > 0
        assert validation["ladder_steps_mean"] > 1.0
        # Wave-batched choose-parent/rewire edges are accounted per outcome.
        extend = validation["extend_edges"]
        assert extend.get("replayed", 0) > 0
        assert set(extend) <= {"replayed", "fallback", "unused"}
        assert "extend edges: replayed" in render_report(report)
