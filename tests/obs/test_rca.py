"""Root-cause drill-down analytics: loader, search core, CLI, smoke.

The acceptance contract for ``repro.obs.rca``: on a fixture with a known
planted regression slice, the analyzer ranks exactly that attribute
combination #1, deterministically; the one loader reads what every
emitter really writes, and rejects dumps with mismatched schema/emitter
stamps instead of mis-parsing them; and the CLI round-trips the machine
report.
"""

import json
import pathlib
import threading

import pytest

from repro.obs.rca import (
    DUMP_SCHEMA,
    DimensionalRecord,
    analyze,
    load_dump,
    rca_smoke,
    read_dump,
    render_smoke_fixture,
    split_records,
)

REPO = pathlib.Path(__file__).resolve().parents[2]


def _cell(attrs, value, n, measure="latency_s"):
    return [DimensionalRecord(dict(attrs), {measure: v})
            for v in [value] * n]


class TestAnalyzeCore:
    def test_planted_slice_ranks_first_and_deterministically(self):
        baseline, candidate = render_smoke_fixture()
        expected = {"robot": "xarm7", "wave_width": "16", "cache_hit": "miss"}
        results = [
            analyze(baseline, candidate, measure="plan_seconds", metric="p95")
            for _ in range(3)
        ]
        for result in results:
            assert result.findings[0].attributes == expected
        # Deterministic: identical machine reports across repeated runs.
        dumps = {json.dumps(r.to_dict(), sort_keys=True) for r in results}
        assert len(dumps) == 1

    def test_additive_metric_decomposes_exactly(self):
        baseline = _cell({"robot": "a"}, 1.0, 4) + _cell({"robot": "b"}, 1.0, 4)
        candidate = _cell({"robot": "a"}, 2.0, 4) + _cell({"robot": "b"}, 1.0, 4)
        result = analyze(baseline, candidate, measure="latency_s", metric="sum")
        top = result.findings[0]
        assert top.attributes == {"robot": "a"}
        assert top.explained_fraction == pytest.approx(1.0)

    def test_mean_metric_uses_counterfactual(self):
        baseline = _cell({"robot": "a"}, 1.0, 5) + _cell({"robot": "b"}, 1.0, 5)
        candidate = _cell({"robot": "a"}, 3.0, 5) + _cell({"robot": "b"}, 1.0, 5)
        result = analyze(baseline, candidate, measure="latency_s", metric="mean")
        top = result.findings[0]
        assert top.attributes == {"robot": "a"}
        assert top.explained_fraction == pytest.approx(1.0, abs=1e-6)

    def test_refinement_pruned_when_ancestor_explains_it(self):
        # The regression covers ALL of robot=a (both modes); the refined
        # robot=a × mode=x slices add no power and must be pruned.
        baseline = (_cell({"robot": "a", "mode": "x"}, 1.0, 4)
                    + _cell({"robot": "a", "mode": "y"}, 1.0, 4)
                    + _cell({"robot": "b", "mode": "x"}, 1.0, 4))
        candidate = (_cell({"robot": "a", "mode": "x"}, 2.0, 4)
                     + _cell({"robot": "a", "mode": "y"}, 2.0, 4)
                     + _cell({"robot": "b", "mode": "x"}, 1.0, 4))
        result = analyze(baseline, candidate, measure="latency_s",
                         metric="mean", top=10)
        assert result.findings[0].attributes == {"robot": "a"}
        labels = [f.label() for f in result.findings]
        assert "mode=x × robot=a" not in labels
        assert "mode=y × robot=a" not in labels

    def test_no_delta_reports_nothing(self):
        records = _cell({"robot": "a"}, 1.0, 4)
        result = analyze(records, list(records), measure="latency_s",
                         metric="p95")
        assert result.findings == []
        assert "no material delta" in result.note

    def test_missing_measure_noted(self):
        baseline = _cell({"robot": "a"}, 1.0, 2)
        candidate = [DimensionalRecord({"robot": "a"}, {"other": 2.0})]
        result = analyze(baseline, candidate, measure="latency_s")
        assert result.findings == []
        assert result.candidate_records == 0

    def test_unknown_metric_rejected(self):
        records = _cell({"robot": "a"}, 1.0, 2)
        with pytest.raises(ValueError):
            analyze(records, records, measure="latency_s", metric="p33")

    def test_vanished_slice_surfaces_for_improvements(self):
        # A slice present only in the baseline: its disappearance explains
        # a *negative* delta (candidate faster).
        baseline = _cell({"robot": "a"}, 5.0, 3) + _cell({"robot": "b"}, 1.0, 3)
        candidate = _cell({"robot": "b"}, 1.0, 3)
        result = analyze(baseline, candidate, measure="latency_s", metric="sum")
        assert result.findings[0].attributes == {"robot": "a"}
        assert result.findings[0].support_cand == 0

    def test_render_names_the_top_slice(self):
        baseline = _cell({"robot": "a"}, 1.0, 4) + _cell({"robot": "b"}, 1.0, 4)
        candidate = _cell({"robot": "a"}, 3.0, 4) + _cell({"robot": "b"}, 1.0, 4)
        result = analyze(baseline, candidate, measure="latency_s", metric="sum")
        text = result.render()
        assert "top finding: robot=a explains" in text
        assert "sum(latency_s)" in text


class TestSplit:
    def test_split_matching_side_is_baseline(self):
        records = (_cell({"fault": "clean"}, 1.0, 3)
                   + _cell({"fault": "armed"}, 2.0, 3))
        baseline, candidate = split_records(records, "fault=clean")
        assert all(r.attributes["fault"] == "clean" for r in baseline)
        assert all(r.attributes["fault"] == "armed" for r in candidate)

    def test_negated_split(self):
        records = (_cell({"fault": "clean"}, 1.0, 3)
                   + _cell({"fault": "armed"}, 2.0, 3))
        baseline, candidate = split_records(records, "fault!=armed")
        assert all(r.attributes["fault"] == "clean" for r in baseline)

    def test_empty_side_rejected(self):
        records = _cell({"fault": "clean"}, 1.0, 3)
        with pytest.raises(ValueError):
            split_records(records, "fault=clean")

    def test_malformed_predicate_rejected(self):
        with pytest.raises(ValueError):
            split_records(_cell({"a": "b"}, 1.0, 2), "nonsense")


@pytest.fixture(scope="module")
def telemetry_dump(tmp_path_factory):
    """A real ``repro.service --out`` dump: two jobs submitted twice, so
    the second pass is served from the cache."""
    from repro.service import PlanningService, build_requests

    path = tmp_path_factory.mktemp("telemetry") / "telemetry.json"
    requests = build_requests(jobs=2, samples=60, obstacles=6, duplicate=2)
    with PlanningService(num_workers=0) as service:
        service.run_batch(requests)
        service.telemetry.dump(path, cache_stats=service.cache.stats())
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def chaos_dump():
    """A real chaos report (``ChaosReport.to_dict``) of a small run."""
    from repro.faults.chaos import run_chaos

    return run_chaos(seed=0, jobs=12, workers=2,
                     log=lambda *_: None).to_dict()


class _FakeClient:
    """Answers ``POST /plan`` with a fixed (code, body), like a server."""

    def __init__(self, code, body):
        self.code, self.body = code, body

    def request(self, method, path, payload):
        return self.code, self.body


def _traffic_dump():
    """A real ``repro.net.traffic`` report: records made by the load
    generator's own per-request path against canned server answers (two
    served, one shed, one 500 error)."""
    from repro.net.traffic import (
        TrafficConfig,
        TrafficResult,
        _one_request,
        build_report,
    )

    config = TrafficConfig(mode="closed", mix="smoke", arrival="burst")
    result = TrafficResult(started_at=0.0, finished_at=1.0)
    lock = threading.Lock()
    answers = [
        (200, {"status": "ok", "cache_hit": True}),
        (200, {"status": "ok", "cache_hit": False}),
        (429, {"error": "overloaded"}),
        (500, {"status": "error"}),
    ]
    for i, (code, body) in enumerate(answers):
        spec = {"robot": "mobile2d", "obstacles": 8, "samples": 60,
                "seed": i, "deadline_s": 0.05 if i == 3 else None}
        _one_request([_FakeClient(code, body)], spec, result, lock, config)
    return build_report(result, config, include_records=True)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestLoader:
    def test_telemetry_dump_rows(self, telemetry_dump):
        dump = read_dump(telemetry_dump)
        assert (dump.emitter, dump.measure) == \
            ("repro.service.telemetry", "plan_seconds")
        assert len(dump.records) == 4
        first = dump.records[0]
        assert first.attributes["robot"] == "mobile2d"
        assert first.attributes["status"] == "ok"
        assert {r.attributes["cache_hit"] for r in dump.records} == \
            {"hit", "miss"}
        for name in ("plan_seconds", "wall_seconds", "queue_wait_s",
                     "total_macs", "samples", "attempts"):
            assert name in first.measures
        # Labels and flags are attributes, never measures.
        assert "cache_hit" not in first.measures
        assert "success" not in first.measures

    def test_chaos_rows_split_armed_vs_clean(self, chaos_dump):
        dump = read_dump(chaos_dump)
        assert (dump.emitter, dump.measure) == \
            ("repro.faults.chaos", "wall_seconds")
        assert len(dump.records) == 12
        for record, row in zip(dump.records, chaos_dump["records"]):
            category = record.attributes["category"]
            assert category == row["attributes"]["category"]
            assert record.attributes["fault"] == \
                ("clean" if category == "healthy" else "armed")
            assert record.attributes["cache_hit"] in ("hit", "miss")
            assert record.attributes["status"] == row["status"]
        baseline, candidate = split_records(dump.records, "fault=clean")
        assert len(baseline) + len(candidate) == 12

    def test_traffic_rows_carry_outcome_and_run_labels(self):
        dump = read_dump(_traffic_dump())
        assert (dump.emitter, dump.measure) == \
            ("repro.net.traffic", "latency_s")
        outcomes = [r.attributes["outcome"] for r in dump.records]
        assert outcomes == ["served", "served", "shed", "error"]
        first = dump.records[0].attributes
        assert first["robot"] == "mobile2d" and first["obstacles"] == "8"
        assert (first["mix"], first["arrival"], first["mode"]) == \
            ("smoke", "burst", "closed")
        assert first["code"] == "200" and first["cache_hit"] == "hit"
        assert dump.records[3].attributes["deadline"] == "armed"
        assert set(dump.records[0].measures) == {"latency_s", "attempt"}

    def test_outcome_indicator_matches_the_error_rate(self):
        report = _traffic_dump()
        records = read_dump(report).records
        result = analyze(records[:2], records, measure="outcome=error",
                         metric="mean")
        # The indicator's mean is what the old per-kind ``error`` measure
        # (1.0 on non-200/202/429 codes, else 0.0) averaged to.
        old_error = [0.0 if r["attributes"]["code"] in ("200", "202", "429")
                     else 1.0 for r in report["records"]]
        assert result.candidate_value == sum(old_error) / len(old_error)
        assert result.candidate_value == report["error_rate"] == 0.25
        assert result.baseline_value == 0.0

    def test_bench_report_rows(self, monkeypatch):
        # A report of run_benchmarks' own shape and stamps, its timed
        # sections taken from the committed baselines instead of re-timed.
        import dataclasses

        import repro.bench as bench

        def committed(name, key):
            text = (REPO / "benchmarks" / name).read_text()
            return json.loads(text)[key]

        sections = {
            "kernels": committed("BENCH_baseline.json", "kernels"),
            "end_to_end": committed("BENCH_baseline.json", "end_to_end"),
            "wave": committed("BENCH_wave.json", "wave"),
            "edge": committed("BENCH_edge.json", "edge"),
            "connect": committed("BENCH_connect.json", "connect"),
        }
        monkeypatch.setattr(bench, "SECTIONS", tuple(
            dataclasses.replace(s, run=lambda quick, e=sections[s.name]: e)
            for s in bench.SECTIONS if s.name in sections
        ))
        report = bench.run_benchmarks()
        dump = read_dump(report)
        assert (dump.emitter, dump.measure) == ("repro.bench", "time_s")
        labels = [r.attributes["section"] for r in dump.records]
        assert set(labels) == {"kernel", "e2e", "wave", "edge", "connect"}
        assert len(labels) == sum(len(e) for e in sections.values())
        by_section = {r.attributes["section"]: r for r in dump.records}
        for section, field in (("kernel", "batch_s"), ("e2e", "batch_s"),
                               ("wave", "wave_s"), ("edge", "edge_s"),
                               ("connect", "connect_s")):
            record = by_section[section]
            assert record.measures["time_s"] == record.measures[field]
        kernel = by_section["kernel"].attributes
        assert set(kernel) == {"section", "kernel", "dim", "size"}
        assert by_section["wave"].attributes["wave_width"] == "8"

    @pytest.mark.parametrize("name", sorted(
        p.name for p in (REPO / "benchmarks").glob("BENCH_*.json")
    ))
    def test_every_committed_bench_report_loads(self, name):
        dump = load_dump(REPO / "benchmarks" / name)
        assert dump.emitter == "repro.bench" and dump.records
        assert all("time_s" in r.measures for r in dump.records)

    @pytest.mark.parametrize("emitter", ["chaos", "traffic"])
    def test_schema_1_dump_is_rejected_naming_its_emitter(
        self, emitter, chaos_dump
    ):
        payload = dict(chaos_dump if emitter == "chaos" else _traffic_dump())
        payload["schema"] = 1
        with pytest.raises(ValueError, match=payload["emitter"]) as info:
            read_dump(payload)
        assert "predates" in str(info.value)

    def test_newer_schema_rejected(self, telemetry_dump):
        payload = dict(telemetry_dump, schema=DUMP_SCHEMA + 1)
        with pytest.raises(ValueError, match="newer"):
            read_dump(payload)

    def test_newer_bench_schema_rejected(self):
        report = json.loads(
            (REPO / "benchmarks" / "BENCH_baseline.json").read_text()
        )
        report["schema"] = 99
        with pytest.raises(ValueError, match="schema 99"):
            read_dump(report)

    def test_records_required(self, telemetry_dump):
        payload = {k: v for k, v in telemetry_dump.items() if k != "records"}
        with pytest.raises(ValueError, match="records"):
            read_dump(payload)

    def test_measure_stamp_required(self, telemetry_dump):
        payload = {k: v for k, v in telemetry_dump.items() if k != "measure"}
        with pytest.raises(ValueError, match="measure"):
            read_dump(payload)

    def test_unidentifiable_dump_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="junk.json.*not a repro.bench"):
            load_dump(_write(tmp_path, "junk.json", {"foo": 1}))


class TestBenchBridge:
    def test_bench_gate_failure_names_the_cell(self):
        from repro.bench import analyze_bench_reports

        def report(slow):
            kernels = []
            for kernel in ("a", "b"):
                for dim in (2, 3):
                    t = 0.001
                    if slow and kernel == "b" and dim == 3:
                        t = 0.003
                    kernels.append({"kernel": kernel, "dim": dim,
                                    "size": "64", "batch_s": t,
                                    "reference_s": 0.01})
            return {"schema": 1, "kernels": kernels,
                    "end_to_end": [], "wave": []}

        result = analyze_bench_reports(report(False), report(True))
        top = result.findings[0]
        assert top.attributes.get("kernel") == "b"
        assert top.attributes.get("dim") == "3"
        assert top.explained_fraction == pytest.approx(1.0)


def _row_dump(rows, measure="plan_seconds"):
    return {"schema": DUMP_SCHEMA, "emitter": "repro.service.telemetry",
            "measure": measure, "records": rows}


class TestCliAndSmoke:
    def test_rca_smoke_passes_and_writes_artifact(self, tmp_path):
        out = tmp_path / "rca-report.json"
        assert rca_smoke(out=str(out), log=lambda *_: None) == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        top = payload["telemetry_case"]["findings"][0]["attributes"]
        assert top == {"robot": "xarm7", "wave_width": "16",
                       "cache_hit": "miss"}

    def test_cli_two_dump_run(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        baseline, candidate = render_smoke_fixture(per_cell=4)

        def dump(records, name):
            rows = [{"plan_seconds": r.measures["plan_seconds"],
                     "attributes": r.attributes} for r in records]
            return str(_write(tmp_path, name, _row_dump(rows)))

        out = tmp_path / "rca.json"
        code = main(["rca", dump(baseline, "base.json"),
                     dump(candidate, "cand.json"),
                     "--metric", "p95", "--top", "3", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "top finding:" in text
        machine = json.loads(out.read_text())
        assert machine["emitter"] == "repro.obs.rca"
        assert machine["findings"][0]["attributes"]["robot"] == "xarm7"

    def test_cli_split_mode(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        # Fault-armed jobs are slow only on mobile2d: the drill-down must
        # name the robot, not the (whole-side, uninformative) fault attr.
        rows = []
        for fault, robot, latency in (
            ("clean", "mobile2d", 0.1), ("clean", "xarm7", 0.1),
            ("armed", "mobile2d", 0.4), ("armed", "xarm7", 0.1),
        ):
            for _ in range(4):
                rows.append({"wall_seconds": latency,
                             "attributes": {"fault": fault, "robot": robot}})
        path = _write(tmp_path, "dump.json", _row_dump(rows))
        code = main(["rca", str(path), "--split", "fault=clean",
                     "--measure", "wall_seconds", "--metric", "mean"])
        assert code == 0
        out = capsys.readouterr().out
        assert "top finding: robot=mobile2d" in out

    def test_cli_rejects_both_candidate_and_split(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        code = main(["rca", "a.json", "b.json", "--split", "x=y"])
        assert code == 2

    def test_cli_rejects_mismatched_emitters(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        t = _write(tmp_path, "t.json", _row_dump([]))
        b = REPO / "benchmarks" / "BENCH_baseline.json"
        code = main(["rca", str(t), str(b)])
        assert code == 2
        assert "emitters differ" in capsys.readouterr().err

    def test_cli_auto_measure_is_the_stamped_one(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        chaos = _write(tmp_path, "chaos.json", _row_dump(
            [{"wall_seconds": 0.1, "attributes": {"fault": "clean"}},
             {"wall_seconds": 0.5, "attributes": {"fault": "armed"}}],
            measure="wall_seconds",
        ))
        code = main(["rca", str(chaos), "--split", "fault=clean", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["measure"] == \
            "wall_seconds"
