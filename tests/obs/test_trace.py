"""Span tracer: nesting, disabled path, shipping, Chrome export."""

import json

import pytest

from repro.obs.trace import (
    _NULL_SPAN,
    Tracer,
    get_tracer,
    set_tracer,
    traced,
)


class FakeClock:
    """Deterministic, manually-advanced time source."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt):
        self.t += dt


def make_tracer(**kwargs):
    clock = FakeClock()
    kwargs.setdefault("pid", 7)
    kwargs.setdefault("process_name", "test")
    return Tracer(enabled=True, clock=clock, **kwargs), clock


class TestNesting:
    def test_nested_spans_record_depth_and_close_order(self):
        tracer, clock = make_tracer()
        with tracer.span("outer"):
            clock.tick(0.001)
            with tracer.span("inner"):
                clock.tick(0.002)
            clock.tick(0.001)
        # Inner closes first, so it lands in the buffer first.
        assert [s["name"] for s in tracer.spans] == ["inner", "outer"]
        inner, outer = tracer.spans
        assert inner["depth"] == 1 and outer["depth"] == 0
        assert inner["ts"] == pytest.approx(0.001)
        assert inner["dur"] == pytest.approx(0.002)
        assert outer["ts"] == pytest.approx(0.0)
        assert outer["dur"] == pytest.approx(0.004)

    def test_sibling_spans_share_depth(self):
        tracer, clock = make_tracer()
        for name in ("a", "b"):
            with tracer.span(name):
                clock.tick(0.001)
        assert [s["depth"] for s in tracer.spans] == [0, 0]
        assert tracer.spans[1]["ts"] > tracer.spans[0]["ts"]

    def test_span_args_are_copied(self):
        tracer, clock = make_tracer()
        with tracer.span("job", job_id=3, request_id="r-1"):
            clock.tick(0.001)
        assert tracer.spans[0]["args"] == {"job_id": 3, "request_id": "r-1"}

    def test_span_at_records_external_interval(self):
        tracer, clock = make_tracer()
        start = tracer.now()
        clock.tick(0.5)
        tracer.span_at("service.job", start, tracer.now(), job_id=9)
        (span,) = tracer.spans
        assert span["dur"] == pytest.approx(0.5)
        assert span["args"] == {"job_id": 9}


class TestDisabledPath:
    def test_disabled_span_is_shared_null_singleton(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("x") is _NULL_SPAN
        assert tracer.span("y", arg=1) is _NULL_SPAN

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x"):
            pass
        tracer.span_at("y", 0.0, 1.0)
        assert tracer.spans == []

    def test_global_tracer_starts_disabled(self):
        assert get_tracer().enabled is False

    def test_traced_decorator_is_passthrough_when_disabled(self):
        calls = []

        @traced("work")
        def fn(x):
            calls.append(x)
            return x * 2

        assert fn(3) == 6
        assert calls == [3]
        assert get_tracer().spans == []


class TestShipping:
    def test_drain_detaches_buffer(self):
        tracer, clock = make_tracer()
        with tracer.span("a"):
            clock.tick(0.001)
        spans = tracer.drain()
        assert len(spans) == 1 and tracer.spans == []

    def test_absorb_tags_spans_and_keeps_pid(self):
        worker, wclock = make_tracer(pid=101)
        with worker.span("plan", seed=4):
            wclock.tick(0.01)
        supervisor, _ = make_tracer(pid=1)
        supervisor.absorb(worker.drain(), job_id=5, request_id="r-0")
        (span,) = supervisor.spans
        assert span["pid"] == 101  # worker keeps its own track
        assert span["args"] == {"seed": 4, "job_id": 5, "request_id": "r-0"}

    def test_reset_clears_and_restarts_timebase(self):
        tracer, clock = make_tracer()
        with tracer.span("a"):
            clock.tick(1.0)
        tracer.reset()
        assert tracer.spans == [] and tracer.now() == pytest.approx(0.0)


class TestChromeExport:
    def test_golden_chrome_document(self):
        tracer, clock = make_tracer()
        with tracer.span("outer", job=1):
            clock.tick(0.001)
            with tracer.span("inner"):
                clock.tick(0.002)
            clock.tick(0.001)
        assert tracer.to_chrome() == {
            "traceEvents": [
                {"name": "process_name", "ph": "M", "pid": 7, "tid": 0,
                 "args": {"name": "test"}},
                {"name": "outer", "cat": "repro", "ph": "X", "ts": 0.0,
                 "dur": 4000.0, "pid": 7, "tid": 0, "args": {"job": 1}},
                {"name": "inner", "cat": "repro", "ph": "X", "ts": 1000.0,
                 "dur": 2000.0, "pid": 7, "tid": 0, "args": {}},
            ],
            "displayTimeUnit": "ms",
        }

    def test_absorbed_pids_get_worker_track_names(self):
        tracer, clock = make_tracer()
        with tracer.span("local"):
            clock.tick(0.001)
        tracer.absorb([{"name": "remote", "ts": 0.0, "dur": 0.5,
                        "pid": 42, "tid": 0, "depth": 0, "args": {}}])
        meta = [e for e in tracer.to_chrome()["traceEvents"] if e["ph"] == "M"]
        assert {m["args"]["name"] for m in meta} == {"test", "test-worker-42"}

    def test_export_chrome_writes_loadable_json(self, tmp_path):
        tracer, clock = make_tracer()
        with tracer.span("a"):
            clock.tick(0.001)
        path = tmp_path / "trace.json"
        tracer.export_chrome(path)
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"] == ["a"]


class TestHelpers:
    def test_traced_decorator_records_span_when_enabled(self):
        previous = set_tracer(Tracer(enabled=True, clock=FakeClock()))
        try:
            @traced(kind="unit")
            def helper():
                return 1

            helper()
            (span,) = get_tracer().spans
            assert span["name"].endswith("helper")
            assert span["args"] == {"kind": "unit"}
        finally:
            set_tracer(previous)
