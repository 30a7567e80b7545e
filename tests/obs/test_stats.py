"""Edge cases for the shared stats helpers and registry merging.

``percentile`` is the single implementation behind the service latency
axes, the bench reports, the traffic reports, and the RCA counterfactuals
— its edge behaviour (empty, single-element, duplicate-heavy inputs) is a
contract all of them rely on.  ``MetricsRegistry.merge_dict`` is how
workers ship deltas across the process boundary, so disjoint and
overlapping label sets must fold correctly.
"""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.stats import axis_summary, percentile


class TestPercentileEdges:
    def test_empty_returns_none(self):
        assert percentile([], 50.0) is None
        assert percentile([], 0.0) is None
        assert percentile([], 100.0) is None

    def test_single_element_is_every_percentile(self):
        for q in (0.0, 1.0, 50.0, 95.0, 99.9, 100.0):
            assert percentile([7.5], q) == 7.5

    def test_duplicate_heavy_input(self):
        values = [3.0] * 97 + [9.0] * 3
        assert percentile(values, 50.0) == 3.0
        assert percentile(values, 95.0) == 3.0
        assert percentile(values, 100.0) == 9.0
        # All-identical input: flat at every q.
        flat = [2.0] * 10
        for q in (0.0, 25.0, 50.0, 99.0, 100.0):
            assert percentile(flat, q) == 2.0

    def test_endpoints_are_min_and_max(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 5.0

    def test_linear_interpolation_between_order_stats(self):
        # numpy-default linear interpolation: p25 of [1..4] sits at rank
        # 0.75 -> 1 + 0.75*(2-1).
        assert percentile([1.0, 2.0, 3.0, 4.0], 25.0) == pytest.approx(1.75)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)
        with pytest.raises(ValueError):
            percentile([1.0], 100.1)

    def test_input_order_is_irrelevant_and_preserved(self):
        values = [9.0, 1.0, 5.0]
        assert percentile(values, 50.0) == 5.0
        assert values == [9.0, 1.0, 5.0]  # no in-place sort

    def test_axis_summary_of_empty_axis(self):
        summary = axis_summary([])
        assert summary == {"p50": None, "p95": None, "mean": None, "max": None}


class TestSharedStats:
    def test_percentile_matches_linear_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == 2.5
        assert percentile([], 50) is None

    def test_percentile_is_the_single_shared_impl(self):
        from repro.analysis import suite
        from repro.obs import stats
        from repro.service import telemetry

        assert telemetry.percentile is stats.percentile
        assert suite.percentile is stats.percentile

    def test_axis_summary_shape(self):
        summary = axis_summary([1.0, 2.0, 3.0])
        assert set(summary) == {"p50", "p95", "mean", "max"}
        assert summary["max"] == 3.0


class TestMergeDictLabelSets:
    def test_disjoint_label_sets_coexist(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total").inc(2, robot="xarm7")
        reg.merge_dict({
            "metrics": [{
                "name": "jobs_total", "type": "counter", "help": "",
                "series": [{"labels": {"robot": "rozum"}, "value": 5.0}],
            }]
        })
        c = reg.counter("jobs_total")
        assert c.value(robot="xarm7") == 2
        assert c.value(robot="rozum") == 5

    def test_overlapping_label_sets_add(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total")
        c.inc(2, robot="xarm7", mode="wave")
        reg.merge_dict({
            "metrics": [{
                "name": "jobs_total", "type": "counter", "help": "",
                "series": [
                    {"labels": {"robot": "xarm7", "mode": "wave"}, "value": 3},
                    {"labels": {"robot": "xarm7", "mode": "scalar"}, "value": 1},
                ],
            }]
        })
        assert c.value(robot="xarm7", mode="wave") == 5
        assert c.value(robot="xarm7", mode="scalar") == 1

    def test_label_order_does_not_split_series(self):
        # {a,b} and {b,a} are the same label set: keys are sorted.
        reg = MetricsRegistry()
        reg.counter("jobs_total").inc(1, a="1", b="2")
        reg.merge_dict({
            "metrics": [{
                "name": "jobs_total", "type": "counter", "help": "",
                "series": [{"labels": {"b": "2", "a": "1"}, "value": 4}],
            }]
        })
        assert reg.counter("jobs_total").value(a="1", b="2") == 5

    def test_merge_roundtrip_disjoint_and_overlapping_histograms(self):
        a = MetricsRegistry()
        h = a.histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05, robot="xarm7")
        h.observe(0.5, robot="xarm7")
        b = MetricsRegistry()
        hb = b.histogram("lat", buckets=(0.1, 1.0))
        hb.observe(0.05, robot="xarm7")   # overlapping label set
        hb.observe(2.0, robot="rozum")    # disjoint label set
        a.merge_dict(b.to_dict())
        merged = {tuple(s["labels"].items()): s
                  for entry in a.to_dict()["metrics"]
                  for s in entry["series"]}
        xarm = merged[(("robot", "xarm7"),)]
        rozum = merged[(("robot", "rozum"),)]
        assert xarm["count"] == 3 and xarm["counts"][0] == 2
        assert rozum["count"] == 1 and rozum["counts"][-1] == 1

    def test_gauges_overwrite_on_merge(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(3, queue="main")
        reg.merge_dict({
            "metrics": [{
                "name": "depth", "type": "gauge", "help": "",
                "series": [{"labels": {"queue": "main"}, "value": 9}],
            }]
        })
        assert reg.gauge("depth").value(queue="main") == 9
