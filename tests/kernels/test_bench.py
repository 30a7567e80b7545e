"""Tests for the ``repro.bench`` harness: schema, gate, and CLI smoke."""

import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent.parent

from repro.bench import (
    bench_kernels,
    compare_to_baseline,
    load_report,
    run_benchmarks,
    save_report,
)


def make_report(kernels):
    return {"schema": 1, "kernels": kernels, "end_to_end": []}


def entry(kernel="obb_obb_grid", dim=3, size="18x32", batch_s=1e-4, reference_s=1e-2):
    return {
        "kernel": kernel,
        "dim": dim,
        "size": size,
        "batch_s": batch_s,
        "reference_s": reference_s,
        "speedup": reference_s / batch_s,
    }


class TestRegressionGate:
    def test_passes_when_fast(self):
        base = make_report([entry(batch_s=1e-4)])
        now = make_report([entry(batch_s=1.5e-4)])
        assert compare_to_baseline(now, base, factor=2.0) == []

    def test_fails_on_regression(self):
        base = make_report([entry(batch_s=1e-4)])
        now = make_report([entry(batch_s=3e-4)])
        failures = compare_to_baseline(now, base, factor=2.0)
        assert len(failures) == 1
        assert "obb_obb_grid" in failures[0]

    def test_unmatched_points_are_skipped(self):
        base = make_report([entry(size="18x8")])
        now = make_report([entry(size="36x48", batch_s=99.0)])
        assert compare_to_baseline(now, base) == []

    def test_factor_is_respected(self):
        base = make_report([entry(batch_s=1e-4)])
        now = make_report([entry(batch_s=2.5e-4)])
        assert compare_to_baseline(now, base, factor=3.0) == []
        assert compare_to_baseline(now, base, factor=2.0)

    def test_failed_check_writes_rca_drilldown(self, tmp_path, monkeypatch,
                                               capsys):
        # A forced gate failure must produce the machine artifact naming
        # the regressed slice (the CI drill-down wiring).
        from repro.bench import __main__ as bench_main

        base = make_report([entry(batch_s=1e-4),
                            entry(kernel="aabb_aabb_grid", batch_s=1e-4)])
        now = make_report([entry(batch_s=5e-4),
                           entry(kernel="aabb_aabb_grid", batch_s=1e-4)])
        now["mode"] = "quick"
        now["wave"] = []
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps(base))
        monkeypatch.setattr(bench_main, "run_benchmarks", lambda **_: now)
        rca_path = tmp_path / "BENCH_rca.json"
        code = bench_main.main([
            "--check", "--baseline", str(baseline_path),
            "--output", str(tmp_path / "report.json"),
            "--rca-output", str(rca_path),
        ])
        assert code == 1
        payload = json.loads(rca_path.read_text())
        assert payload["emitter"] == "repro.obs.rca"
        top = payload["findings"][0]["attributes"]
        assert top.get("kernel") == "obb_obb_grid"
        assert "obb_obb_grid" in capsys.readouterr().err


class TestHarness:
    @pytest.fixture(scope="class")
    def quick_report(self):
        return run_benchmarks(quick=True, skip_e2e=True, seed=1)

    def test_schema_fields(self, quick_report):
        assert quick_report["schema"] == 1
        assert quick_report["mode"] == "quick"
        assert {"python", "numpy", "machine"} <= set(quick_report["host"])
        assert quick_report["end_to_end"] == []
        assert quick_report["kernels"]

    def test_kernel_entries_complete(self, quick_report):
        for item in quick_report["kernels"]:
            assert {"kernel", "dim", "size", "batch_s", "reference_s", "speedup"} <= set(item)
            assert item["batch_s"] > 0 and item["reference_s"] > 0

    def test_covers_all_sat_kernels(self, quick_report):
        names = {item["kernel"] for item in quick_report["kernels"]}
        assert {
            "aabb_aabb_grid", "aabb_obb_grid", "obb_obb_grid",
            "obb_obb_pairs", "aabb_obb_pairs", "nearest_index", "radius_mask",
        } <= names

    def test_report_roundtrip(self, quick_report, tmp_path):
        path = tmp_path / "report.json"
        save_report(quick_report, str(path))
        assert load_report(str(path)) == json.loads(path.read_text())

    def test_bench_kernels_rejects_divergence(self, monkeypatch):
        """The harness refuses to time kernels that disagree with golden."""
        from repro.kernels import batch as batch_mod

        def broken(*args, **kwargs):
            import numpy as np
            return np.zeros((1, 1), dtype=bool)

        monkeypatch.setattr(batch_mod, "aabb_aabb_grid", broken)
        with pytest.raises(AssertionError):
            bench_kernels(quick=True, seed=0)


class TestBaselineFile:
    def test_committed_baseline_is_valid(self):
        report = load_report(str(REPO / "benchmarks" / "BENCH_baseline.json"))
        assert report["schema"] == 1
        assert report["kernels"]
        e2e = {item["case"]: item for item in report["end_to_end"]}
        # The acceptance configuration is recorded with its measured speedup
        # and the bit-identical equivalence flag.
        rozum = e2e["rozum/32obs/v4"]
        assert rozum["equivalent"] is True
        assert rozum["speedup"] >= 3.0


def wave_entry(case="mobile2d/32obs/v1-norewire", wave_width=8,
               max_samples=600, wave_s=0.15, scalar_s=0.24):
    return {
        "case": case,
        "robot": "mobile2d",
        "obstacles": 32,
        "variant": "v1",
        "wave_width": wave_width,
        "max_samples": max_samples,
        "scalar_s": scalar_s,
        "scalar_spec_s": scalar_s * 1.05,
        "wave_s": wave_s,
        "speedup_vs_scalar": scalar_s / wave_s,
        "speedup_vs_spec": scalar_s * 1.05 / wave_s,
        "wave_occupancy": 0.95,
        "path_cost": 1.0,
        "num_nodes": 100,
        "equivalent": True,
    }


class TestWaveGate:
    def test_passes_when_fast(self):
        base = {"schema": 1, "wave": [wave_entry(wave_s=0.15)]}
        now = {"schema": 1, "wave": [wave_entry(wave_s=0.2)]}
        assert compare_to_baseline(now, base, factor=2.0) == []

    def test_fails_on_wave_regression(self):
        base = {"schema": 1, "wave": [wave_entry(wave_s=0.15)]}
        now = {"schema": 1, "wave": [wave_entry(wave_s=0.4)]}
        failures = compare_to_baseline(now, base, factor=2.0)
        assert len(failures) == 1
        assert "wave mobile2d/32obs/v1-norewire" in failures[0]

    def test_unmatched_wave_points_are_skipped(self):
        base = {"schema": 1, "wave": [wave_entry(wave_width=8)]}
        now = {"schema": 1, "wave": [wave_entry(wave_width=16, wave_s=99.0)]}
        assert compare_to_baseline(now, base) == []

    def test_kernel_and_wave_failures_combine(self):
        base = {
            "schema": 1,
            "kernels": [entry(batch_s=1e-4)],
            "wave": [wave_entry(wave_s=0.15)],
        }
        now = {
            "schema": 1,
            "kernels": [entry(batch_s=3e-4)],
            "wave": [wave_entry(wave_s=0.4)],
        }
        assert len(compare_to_baseline(now, base, factor=2.0)) == 2


class TestEverySectionGate:
    """compare_to_baseline gates each timed section the same way."""

    SECTIONS = {
        "kernels": (entry(batch_s=1e-4), "batch_s", "size",
                    "obb_obb_grid dim=3 size=18x32: 0.000300s vs baseline "
                    "0.000100s (> 2.0x)"),
        "wave": ({"case": "c", "wave_width": 8, "max_samples": 600,
                  "wave_s": 0.1}, "wave_s", "max_samples",
                 "wave c W=8: 0.3000s vs baseline 0.1000s (> 2.0x)"),
        "edge": ({"case": "c", "wave_width": 8, "edges": 192,
                  "edge_s": 0.1}, "edge_s", "edges",
                 "edge c W=8: 0.3000s vs baseline 0.1000s (> 2.0x)"),
        "connect": ({"case": "c", "wave_width": 8, "max_samples": 600,
                     "connect_s": 0.1}, "connect_s", "max_samples",
                    "connect c W=8: 0.3000s vs baseline 0.1000s (> 2.0x)"),
    }

    @pytest.mark.parametrize("section", sorted(SECTIONS))
    def test_three_times_slower_fails_and_unmatched_key_is_skipped(
        self, section
    ):
        base_entry, time_field, key_field, message = self.SECTIONS[section]
        slow = dict(base_entry, **{time_field: 3 * base_entry[time_field]})
        base = {"schema": 1, section: [base_entry]}
        assert compare_to_baseline({"schema": 1, section: [slow]}, base,
                                   factor=2.0) == [message]
        unmatched = dict(slow, **{key_field: "other"})
        assert compare_to_baseline({"schema": 1, section: [unmatched]},
                                   base, factor=2.0) == []


class TestWaveBaselineFile:
    def test_committed_wave_baseline_is_valid(self):
        from repro.bench import WAVE_SAMPLES, WAVE_SUITE

        report = load_report(str(REPO / "benchmarks" / "BENCH_wave.json"))
        assert report["schema"] == 1
        cases = {item["case"]: item for item in report["wave"]}
        # Every suite point is measured at the shared sampling budget with
        # the bit-equality flag set.
        for label, *_ in WAVE_SUITE:
            assert cases[label]["equivalent"] is True
            assert cases[label]["max_samples"] == WAVE_SAMPLES
            assert cases[label]["wave_s"] > 0
        # The acceptance claim: >= 2x end-to-end over the PR 3 batch
        # backend on a 32-obstacle case, at healthy lane occupancy.
        ref = report["pr3_reference"]
        assert ref["case"] in cases
        assert cases[ref["case"]]["obstacles"] == 32
        assert ref["speedup_vs_pr3"] >= 2.0
        assert ref["wave_occupancy"] >= 0.9
